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
import warnings
from dataclasses import dataclass, fields

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

    ``weights`` has shape (out, in), ``biases`` shape (out,). Once the layer is in an Mlp
    both are views of the net's flat vector, which holds copies of the arrays passed in.
    """

    weights: np.ndarray
    biases: np.ndarray
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
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
    """A chain of DenseLayers; consecutive layer dimensions must agree.

    The net owns its parameters as one vector, ``flat``, laid out W0, b0, W1, b1, ...;
    each layer's weights and biases are views of it, so training writes ``flat`` in place.
    """

    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("Mlp needs at least one layer")
        for i, (prev, layer) in enumerate(zip(self.layers, self.layers[1:]), 1):
            if layer.in_size != prev.out_size:
                raise LayerShapeError(
                    i, f"in size {layer.in_size} != previous out size {prev.out_size}")
        params = [p for layer in self.layers for p in (layer.weights, layer.biases)]
        self._layout, start = [], 0  # (start, stop, shape) of each array in `flat`
        for p in params:
            self._layout.append((start, start + p.size, p.shape))
            start += p.size
        self.flat = np.concatenate([p.ravel() for p in params])
        views = self.split(self.flat)
        for layer, w, b in zip(self.layers, views[::2], views[1::2]):
            layer.weights, layer.biases = w, b

    @property
    def in_size(self) -> int:
        return self.layers[0].in_size

    @property
    def out_size(self) -> int:
        return self.layers[-1].out_size

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views W0, b0, W1, b1, ... of a vector laid out as ``flat``."""
        return [vec[start:stop].reshape(shape) for start, stop, shape in self._layout]

    def to_flat(self) -> np.ndarray:
        return self.flat.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Write a to_flat() vector into ``flat`` in place."""
        if np.shape(flat) != self.flat.shape:
            raise ValueError(f"flat vector has shape {np.shape(flat)}, expected {self.flat.shape}")
        self.flat[:] = flat


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
    ``(param_grad, grad_input)`` where param_grad is laid out as ``net.flat`` and is
    summed over the batch. ReLU's derivative is read off the layer's output: ``out > 0``
    exactly where the pre-activation is.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != acts[-1].shape:
        raise LayerShapeError(len(net.layers) - 1,
                              f"output gradient shape {g.shape} != {acts[-1].shape}")
    param_grad = np.empty_like(net.flat)
    views = net.split(param_grad)
    for i, layer in reversed(list(enumerate(net.layers))):
        if layer.activation == "relu":
            g = g * (acts[i + 1] > 0.0)
        np.matmul(g.T, acts[i], out=views[2 * i])
        g.sum(axis=0, out=views[2 * i + 1])
        g = g @ layer.weights
    return param_grad, g


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
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params], 0,
                   learning_rate)


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


class Rows:
    """Base of a dataclass of arrays that share their first axis: len() is that axis's length,
    and [index] applies one NumPy index to every field, so an int gives one row's fields."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, index):
        return type(self)(*(getattr(self, f.name)[index] for f in fields(self)))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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

    @classmethod
    def at_row(cls, path, row: int, message: str) -> "ArtifactFormatError":
        """The error of a CSV artifact's data row `row`, counted from 0: its line is row + 2."""
        return cls(f"{path}:{row + 2}: {message}")


def first_broken(rules):
    """(row, message) of the first row that breaks one of the (message, broken) rules, broken
    a bool per row; the message is the row's first broken rule's, called with the row if
    callable. None if every row keeps every rule."""
    messages, broken = zip(*rules)
    broken = np.array(broken, dtype=bool)
    if not (rows := np.flatnonzero(broken.any(axis=0))).size:
        return None
    message = messages[broken[:, rows[0]].argmax()]
    return int(rows[0]), message(rows[0]) if callable(message) else message


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


def read_table(path, ints=(), words=None, blanks=None):
    """(header, rows) of a CSV artifact of numbers: rows is one float64 array, one row per
    line after the header, parsed by np.loadtxt. The columns `ints` hold integers,
    words={column: table} maps a column's fields through the dict table, and
    blanks={column: value} reads an empty field of a column as value.

    A file that does not parse whole (a last line cut short, a blank or `#` line, a wrong
    field count, an empty field elsewhere, a field that is neither a number nor a known
    word, 3.0 in an integer column) never loads: read_csv's rows then find its first bad
    line, and it raises ArtifactFormatError naming that line. So does an integer outside
    (-2**53, 2**53), which a float64 would round."""
    words, blanks = words or {}, blanks or {}

    def converter(j):  # a word column's table, or a blank column's value, then a number
        table = words.get(j, {"": blanks.get(j)})
        number = j not in words and (np.int64 if j in ints else np.float64)

        def convert(text):
            if text in table:
                return table[text]
            if number and text.isascii() and "_" not in text:  # np.loadtxt's own grammar
                with contextlib.suppress(ValueError):
                    return number(text)
            raise ValueError(f"could not convert string {text!r} to {number.__name__}"
                             if number else f"unknown {header[j]} {text!r}")
        return convert

    def parse(source, skiprows=0):
        # As errors: "no data" in a file of blank lines, and NumPy 1.x's warning on 3.0 read
        # as an integer.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(source, dtype, delimiter=",", comments=None, quotechar='"',
                              skiprows=skiprows, encoding="utf-8", ndmin=1,
                              converters={j: converter(j) for j in {*words, *blanks}})

    try:
        with open(path, "r", newline="", encoding="utf-8") as fp:
            first, body = fp.readline(), fp.read()
        if not first.endswith("\n"):
            raise ValueError("the header is cut short")
        header = next(csv.reader([first]))
        dtype = np.dtype([(str(j), np.int64 if j in ints else np.float64)
                          for j in range(len(header))])
        if body[-1:] not in ("", "\n"):
            raise ValueError("the last line is cut short")
        n_rows = body.count("\n")
        del body  # np.loadtxt reads the file in chunks
        rows = parse(path, skiprows=1) if n_rows else np.empty(0, dtype)
        if len(rows) != n_rows:  # np.loadtxt skips blank lines
            raise ValueError("a blank line")
    except (ValueError, Warning) as exc:
        fault = exc
    else:
        rules = [(lambda r, j=j: f"{header[j]} {rows[str(j)][r]} is outside (-2**53, 2**53)",
                  np.abs(rows[str(j)].astype(np.float64)) >= 2.0**53) for j in ints]
        if rules and (fault := first_broken(rules)):
            raise ArtifactFormatError.at_row(path, *fault)
        values = np.column_stack([rows[name] for name in dtype.names])
        return header, values.astype(np.float64, copy=False)
    with read_csv(path) as (header, rows):
        for row in rows:
            try:
                parse([",".join(row)])
            except (ValueError, Warning) as exc:  # drop NumPy's "at row 0, column j"
                raise ValueError(str(exc.__cause__ or exc).split(" at row ")[0]) from None
        raise ValueError(f"the file does not parse: {fault}")


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


def read_weights(reader: LineReader, layout=None) -> Mlp:
    """Read the text weight format written by write_weights from the reader's next line.

    With layout, the (sizes, activations) of an `EnvOps.net_layout`, the layer count and
    each layer's header must match it as they are read. A truncated or malformed net, or
    one off its layout, raises ValueError, which the reader's `located()` (that of
    read_artifact) turns into an ArtifactFormatError naming the line.
    """
    n_layers = int(reader.fields(1)[0])
    need = layout and [f"{i} {o} {a}" for i, o, a in zip(layout[0], layout[0][1:], layout[1])]
    if need and n_layers != len(need):
        raise ValueError(f"the net has {n_layers} layers, its layout {len(need)}")
    layers = []
    for k in range(n_layers):
        in_size, out_size, activation = header = reader.fields(3)
        if need and " ".join(header) != need[k]:
            raise ValueError(f"layer {k} is '{' '.join(header)}', its layout '{need[k]}'")
        in_size, out_size = int(in_size), int(out_size)
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rows = np.array([[float(v) for v in reader.fields(in_size + 1)]
                         for _ in range(out_size)]).reshape(out_size, in_size + 1)
        layers.append(DenseLayer(rows[:, :-1], rows[:, -1], activation))
    return Mlp(layers)
