"""Minimal dense-network core: small MLPs with hand-written backprop, Adam, stable softplus.

Everything operates on float64 numpy arrays. Networks here are tiny (a few
dense layers), so gradients are computed per-layer by hand rather than through
an autograd tape; this keeps every derivative auditable against finite
differences.

A net's input is always a batch ``(B, d)``, one row per example, and so are its
output and gradients; one example is a batch of one row.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu")


class LayerShapeError(ValueError):
    """Raised when an input or gradient does not match a layer's declared shape."""

    def __init__(self, layer_index: int, message: str):
        self.layer_index = layer_index
        super().__init__(f"layer {layer_index}: {message}")


@dataclass
class DenseLayer:
    """One fully connected layer: ``activation(W x + b)``.

    ``weights`` has shape (out, in), ``biases`` shape (out,). The layer keeps its own
    copies, so adam_step and Mlp.set_flat, which write them in place, never reach an
    array the caller passed in.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.array(self.weights, dtype=np.float64)
        self.biases = np.array(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be 2-d and biases 1-d")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError(
                f"bias length {self.biases.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("non-finite layer parameters")

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    """A chain of DenseLayers; consecutive layer dimensions must agree."""

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        for i in range(1, len(self.layers)):
            if self.layers[i].in_size != self.layers[i - 1].out_size:
                raise LayerShapeError(
                    i,
                    f"in size {self.layers[i].in_size} != previous out size "
                    f"{self.layers[i - 1].out_size}",
                )

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size

    def parameters(self) -> list[np.ndarray]:
        """The layers' own parameter arrays in a fixed order: W0, b0, W1, b1, ..."""
        return [p for layer in self.layers for p in (layer.weights, layer.biases)]

    def to_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        """Write a to_flat() vector into the parameter arrays in place."""
        flat, params = np.asarray(flat, dtype=np.float64), self.parameters()
        expected = sum(p.size for p in params)
        if flat.size != expected:
            raise ValueError(f"flat vector has {flat.size} entries, expected {expected}")
        offset = 0
        for p in params:
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size


def glorot_init(sizes: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    """Build an Mlp with uniform(+-sqrt(6/(fan_in+fan_out))) weights and zero biases."""
    if len(activations) != len(sizes) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(sizes[:-1], sizes[1:], activations):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return Mlp(layers)


def mlp_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """The output of mlp_forward_cached, without its cache."""
    return mlp_forward_cached(net, x)[0]


def mlp_forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass of a (B, in) batch; returns ``(output, cache)``, the cache for mlp_backward.

    The bias and activation go in place on each matmul's new output, never on the
    caller's input. The cache lists every layer's input and the output, so a caller must
    not write the output before mlp_backward has read the cache.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.shape[1:] != (net.in_size,):
        raise LayerShapeError(0, f"input shape {h.shape} != (B, {net.in_size})")
    acts = [h]  # acts[i] is layer i's input, acts[-1] the output
    for layer in net.layers:
        h = h @ layer.weights.T
        h += layer.biases
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(net: Mlp, acts: list[np.ndarray], grad_out: np.ndarray):
    """Backpropagate a (B, out) loss gradient through the network.

    ``acts`` is the cache of mlp_forward_cached on the same input. Returns
    ``(param_grads, grad_input)`` where param_grads matches net.parameters()
    order and is summed over the batch. ReLU's derivative is read off the layer's
    output: ``out > 0`` exactly where the pre-activation is.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise LayerShapeError(len(net.layers) - 1,
                              f"output gradient shape {g.shape} != {acts[-1].shape}")
    param_grads: list[np.ndarray | None] = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if layer.activation == "relu":
            g = g * (acts[i + 1] > 0.0)
        param_grads[2 * i] = g.T @ acts[i]
        param_grads[2 * i + 1] = g.sum(axis=0)
        g = g @ layer.weights
    return param_grads, g


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax for (A,) or (B, A) arrays."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softplus(x):
    """Numerically stable log(1 + exp(x)); elementwise on arrays.

    Neither overflows for large x (returns ~x) nor truncates to zero for very
    negative x (returns ~exp(x)).
    """
    return np.logaddexp(0.0, x)


def sigmoid(x):
    """Logistic function, the derivative of softplus."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam accumulators and learning rate; shapes mirror the parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    learning_rate: float

    @classmethod
    def init(cls, params: list[np.ndarray], learning_rate: float = 1e-3) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            learning_rate=learning_rate,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, written in place into params and state."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter / gradient / state length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    state.step += 1
    c1, c2 = 1.0 - ADAM_BETA1**state.step, 1.0 - ADAM_BETA2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def write_weights(net: Mlp, fp) -> None:
    """Write the text weight format: layer count, then per layer a header line
    "in out activation" followed by `out` rows of `in` weights and the bias last.

    Floats use repr(), the shortest decimal that round-trips to the same bits.
    """
    fp.write(f"{len(net.layers)}\n")
    for layer in net.layers:
        fp.write(f"{layer.in_size} {layer.out_size} {layer.activation}\n")
        for row, b in zip(layer.weights, layer.biases):
            fp.write(" ".join(repr(float(x)) for x in row) + f" {repr(float(b))}\n")


class ArtifactFormatError(ValueError):
    """A saved artifact does not match its text format; the message starts `<path>:<line>:`."""


class LineReader:
    """Reads a text artifact line by line; parse errors raised under `located()` name the line."""

    def __init__(self, fp):
        self.fp = fp
        self.name = getattr(fp, "name", "<stream>")
        self.lineno = 0

    def line(self, end_ok: bool = False) -> str:
        self.lineno += 1
        line = self.fp.readline()
        if not line.endswith("\n") and (line or not end_ok):  # the writers end every line with one
            raise ValueError("file ends early" if not line else "line is cut short")
        return line

    def __iter__(self):  # the lines left; the end-of-file read counts one, as in line()
        while line := self.line(end_ok=True):
            yield line

    def fields(self, n: int) -> list[str]:
        parts = self.line().split()
        if len(parts) != n:
            raise ValueError(f"expected {n} values, got {len(parts)}")
        return parts

    def expect_end(self, what: str = "content after the last expected line") -> None:
        if self.fp.read().strip():
            self.lineno += 1
            raise ValueError(f"unexpected {what}")

    @contextlib.contextmanager
    def located(self):
        try:
            yield
        except ArtifactFormatError:
            raise
        except ValueError as exc:
            raise ArtifactFormatError(f"{self.name}:{self.lineno}: {exc}") from None


@contextlib.contextmanager
def read_artifact(path):
    """Open a text artifact and yield a LineReader over it; a ValueError raised while
    it is open becomes an ArtifactFormatError naming `<path>:<line>`."""
    with open(path, "r", newline="", encoding="utf-8") as fp:
        reader = LineReader(fp)
        with reader.located():
            yield reader


@contextlib.contextmanager
def read_csv(path):
    """Yield (header, rows) of a CSV artifact: rows iterates the later lines as lists as
    wide as the header, and a bad one raises ArtifactFormatError naming its line."""
    with read_artifact(path) as reader:
        header = next(csv.reader([reader.line()]))

        def rows():
            for row in csv.reader(reader):
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                yield row
        yield header, rows()


def write_csv(path, header, rows):
    """Write a CSV artifact and return its path: UTF-8, a header row, the csv module's CRLF
    line ends and floats as repr(), the shortest round-trip decimal. NumPy floats become
    Python floats first; rows of arrays passed as `.tolist()` skip that per-value step."""
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp)
        writer.writerow(header)
        writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row]
                         for row in rows)
    return path


def read_weights(reader: LineReader) -> Mlp:
    """Read the text weight format written by write_weights from the reader's next line.

    A truncated or malformed net raises ValueError, which the reader's `located()` (that
    of read_artifact) turns into an ArtifactFormatError naming the line.
    """
    n_layers = int(reader.fields(1)[0])
    layers = []
    for _ in range(n_layers):
        in_size, out_size, activation = reader.fields(3)
        in_size, out_size = int(in_size), int(out_size)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        w = np.empty((out_size, in_size))
        b = np.empty(out_size)
        for r in range(out_size):
            vals = [float(v) for v in reader.fields(in_size + 1)]
            w[r] = vals[:-1]
            b[r] = vals[-1]
        layers.append(DenseLayer(w, b, activation))
    return Mlp(layers)
