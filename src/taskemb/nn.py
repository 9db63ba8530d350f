"""Minimal dense-network core: small MLPs with hand-written backprop, Adam, stable softplus.

Everything operates on float64 numpy arrays. Networks here are tiny (a few
dense layers), so gradients are computed per-layer by hand rather than through
an autograd tape; this keeps every derivative auditable against finite
differences.

Inputs may be single vectors ``(d,)`` or batches ``(B, d)``; outputs match.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "relu", "tanh", "softmax")


class LayerShapeError(ValueError):
    """Raised when an input or gradient does not match a layer's declared shape."""

    def __init__(self, layer_index: int, message: str):
        self.layer_index = layer_index
        super().__init__(f"layer {layer_index}: {message}")


@dataclass
class DenseLayer:
    """One fully connected layer: ``activation(W x + b)``.

    ``weights`` has shape (out, in), ``biases`` shape (out,).
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
        """Parameter arrays in a fixed order: W0, b0, W1, b1, ..."""
        out = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.biases)
        return out

    def set_parameters(self, params: list[np.ndarray]) -> None:
        if len(params) != 2 * len(self.layers):
            raise ValueError("parameter list length mismatch")
        for i, layer in enumerate(self.layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != layer.weights.shape or b.shape != layer.biases.shape:
                raise LayerShapeError(i, "parameter shape mismatch")
            layer.weights = np.asarray(w, dtype=np.float64)
            layer.biases = np.asarray(b, dtype=np.float64)

    def to_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.parameters()])

    def set_flat(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=np.float64)
        params, offset = [], 0
        for p in self.parameters():
            params.append(flat[offset : offset + p.size].reshape(p.shape).copy())
            offset += p.size
        if offset != flat.size:
            raise ValueError(f"flat vector has {flat.size} entries, expected {offset}")
        self.set_parameters(params)

    def copy(self) -> "Mlp":
        return Mlp(
            [
                DenseLayer(l.weights.copy(), l.biases.copy(), l.activation)
                for l in self.layers
            ]
        )


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


def _apply_activation(act: str, z: np.ndarray) -> np.ndarray:
    if act == "identity":
        return z
    if act == "relu":
        return np.maximum(z, 0.0)
    if act == "tanh":
        return np.tanh(z)
    if act == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation {act!r}")


def mlp_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """mlp_forward_cached's output bit for bit, minus the cache (a copied W.T changes bits)."""
    h = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if h.ndim != 2 or h.shape[1] != net.in_size:
        raise LayerShapeError(0, f"input shape {np.shape(x)} != (B, {net.in_size})")
    for layer in net.layers:
        h = _apply_activation(layer.activation, h @ layer.weights.T + layer.biases)
    return h[0] if np.ndim(x) == 1 else h


def mlp_forward_cached(net: Mlp, x: np.ndarray):
    """Forward pass that also returns the per-layer cache needed by mlp_backward."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.ndim != 2:
        raise ValueError("input must be a vector or a 2-d batch")
    if h.shape[1] != net.in_size:
        raise LayerShapeError(0, f"input width {h.shape[1]} != expected {net.in_size}")
    inputs, preacts = [], []
    for i, layer in enumerate(net.layers):
        if h.shape[1] != layer.in_size:
            raise LayerShapeError(i, f"input width {h.shape[1]} != expected {layer.in_size}")
        inputs.append(h)
        z = h @ layer.weights.T + layer.biases
        preacts.append(z)
        h = _apply_activation(layer.activation, z)
    out = h[0] if single else h
    return out, (single, inputs, preacts)


def mlp_backward(net: Mlp, cache, grad_out: np.ndarray):
    """Backpropagate a loss gradient through the network.

    ``cache`` comes from mlp_forward_cached on the same input. Returns
    ``(param_grads, grad_input)`` where param_grads matches net.parameters()
    order and is summed over the batch.

    Softmax layers are not differentiated here: their backward is fused with
    the consuming loss (cross-entropy / score function), so requesting a
    direct gradient through one is an error.
    """
    single, inputs, preacts = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if single:
        g = g[None, :]
    if g.shape != (inputs[0].shape[0], net.out_size):
        raise LayerShapeError(
            len(net.layers) - 1,
            f"output gradient shape {g.shape} != {(inputs[0].shape[0], net.out_size)}",
        )
    param_grads: list[np.ndarray | None] = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        z = preacts[i]
        if layer.activation == "relu":
            g = g * (z > 0.0)
        elif layer.activation == "tanh":
            g = g * (1.0 - np.tanh(z) ** 2)
        elif layer.activation == "softmax":
            raise LayerShapeError(i, "softmax backward must be fused with its loss")
        param_grads[2 * i] = g.T @ inputs[i]
        param_grads[2 * i + 1] = g.sum(axis=0)
        g = g @ layer.weights
    grad_input = g[0] if single else g
    return param_grads, grad_input


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


@dataclass
class AdamState:
    """Adam accumulators plus hyperparameters; shapes mirror the parameter list."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int
    learning_rate: float
    beta1: float
    beta2: float
    epsilon: float

    @classmethod
    def init(cls, params: list[np.ndarray], learning_rate: float = 1e-3,
             beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            step=0,
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState):
    """One bias-corrected Adam update. Returns (new_params, new_state); inputs untouched."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter / gradient / state length mismatch")
    t = state.step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        m2 = state.beta1 * m + (1.0 - state.beta1) * g
        v2 = state.beta2 * v + (1.0 - state.beta2) * g * g
        m_hat = m2 / (1.0 - state.beta1**t)
        v_hat = v2 / (1.0 - state.beta2**t)
        new_params.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon))
        new_m.append(m2)
        new_v.append(v2)
    new_state = AdamState(new_m, new_v, t, state.learning_rate, state.beta1,
                          state.beta2, state.epsilon)
    return new_params, new_state


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

    def fields(self, n: int) -> list[str]:
        parts = self.line().split()
        if len(parts) != n:
            raise ValueError(f"expected {n} values, got {len(parts)}")
        return parts

    def csv_rows(self):
        """Yield the header, then every later line, as CSV rows as wide as the header."""
        header = next(csv.reader([self.line()]))
        yield header
        for row in csv.reader(iter(lambda: self.line(end_ok=True), "")):
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            yield row

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


def read_weights(fp) -> Mlp:
    """Read the text weight format written by write_weights.

    fp is a text file, or a LineReader over one to keep counting its lines; a
    truncated or malformed file raises ArtifactFormatError naming the line.
    """
    reader = fp if isinstance(fp, LineReader) else LineReader(fp)
    with reader.located():
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
