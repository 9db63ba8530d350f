"""Task embeddings for goal-based RL environments.

Learns fixed-dimensional task representations from the success statistics of
a diverse agent population, and evaluates them on performance-prediction and
task-selection benchmarks. Importing it pins NumPy's OpenBLAS to one thread.
"""

import contextlib
import ctypes
import glob

import numpy

__version__ = "0.1.0"


def _pin_openblas_threads() -> None:
    """Set the OpenBLAS in NumPy's wheel to one thread; a no-op without it or its symbol."""
    for path in glob.glob(numpy.__path__[0] + ".libs/libscipy_openblas*"):
        with contextlib.suppress(OSError, AttributeError):
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


_pin_openblas_threads()
