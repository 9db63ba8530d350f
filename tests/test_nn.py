import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskemb import nn
from taskemb.seeding import make_rng


def finite_diff_grads(loss_fn, params, h=1e-5, coords_per_param=None, rng=None):
    """Central finite differences of a scalar loss over a parameter list.

    Returns a list of (param_index, flat_index, derivative) for either every
    coordinate or a random subset per parameter.
    """
    out = []
    for pi, p in enumerate(params):
        flat = p.ravel()
        idxs = range(flat.size)
        if coords_per_param is not None and flat.size > coords_per_param:
            idxs = rng.choice(flat.size, size=coords_per_param, replace=False)
        for fi in idxs:
            orig = flat[fi]
            flat[fi] = orig + h
            up = loss_fn()
            flat[fi] = orig - h
            down = loss_fn()
            flat[fi] = orig
            out.append((pi, int(fi), (up - down) / (2 * h)))
    return out


def layer_views(nets, vectors):
    """Per-layer views W0, b0, W1, b1, ... of each net in turn, of vectors laid out as the
    nets' flat ones: finite differences sample the same coordinates as over layer arrays."""
    return [view for net, vec in zip(nets, vectors) for view in net.split(vec)]


def assert_grads_match(analytic, numeric_entries, rel_tol=1e-4):
    for pi, fi, num in numeric_entries:
        ana = analytic[pi].ravel()[fi]
        denom = max(abs(num), abs(ana), 1e-8)
        assert abs(num - ana) / denom < rel_tol, (
            f"param {pi} coord {fi}: analytic {ana} vs numeric {num}"
        )


def test_forward_identity_layer():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "identity")])
    out = nn.mlp_forward(net, np.array([[1.0, 2.0]]))
    assert np.allclose(out, [1.0, 2.0])


def test_forward_relu_clamps_negatives():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
    out = nn.mlp_forward(net, np.array([[-1.0, 2.0]]))
    assert np.allclose(out, [0.0, 2.0])


def test_forward_two_layer_hand_computed():
    # Hand matrix products for a fixed 2x2 example:
    # h = relu(W1 x + b1), y = W2 h + b2
    w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
    b1 = np.array([0.5, -1.0])
    w2 = np.array([[2.0, 0.0], [-1.0, 1.0]])
    b2 = np.array([0.0, 3.0])
    x = np.array([1.0, 2.0])
    h = np.maximum(w1 @ x + b1, 0.0)  # [max(-0.5,0), max(3.5,0)] = [0, 3.5]
    expect = w2 @ h + b2  # [0, 6.5]
    net = nn.Mlp([nn.DenseLayer(w1, b1, "relu"), nn.DenseLayer(w2, b2, "identity")])
    assert np.allclose(nn.mlp_forward(net, x[None]), expect)
    assert np.allclose(expect, [0.0, 6.5])


def test_forward_batch_matches_loop():
    rng = make_rng(7)
    net = nn.glorot_init([3, 5, 2], ["relu", "identity"], rng)
    xs = rng.normal(size=(6, 3))
    batch = nn.mlp_forward(net, xs)
    rows = np.concatenate([nn.mlp_forward(net, x[None]) for x in xs])
    # BLAS may use different kernels for matrix vs vector products, so compare
    # at float64 precision; repeated identical calls must agree exactly.
    assert np.allclose(batch, rows, rtol=1e-12, atol=1e-12)
    assert np.array_equal(batch, nn.mlp_forward(net, xs))


@pytest.mark.parametrize("sizes, acts", [
    ([7, 32, 32, 7], ["relu", "relu", "identity"]),
    ([6, 64, 32, 2], ["relu", "identity", "identity"]),
])
def test_inference_forward_matches_cached_forward_bit_for_bit(sizes, acts):
    # Rollout batches shrink to a few rows late in an episode, where BLAS picks
    # different kernels; the cache-free forward must still give the same bits.
    rng = make_rng(8)
    net = nn.glorot_init(sizes, acts, rng)
    for layer in net.layers:
        layer.biases[:] = rng.normal(size=layer.out_size)
    for rows in range(1, 65):
        x = rng.normal(size=(rows, sizes[0]))
        assert np.array_equal(nn.mlp_forward(net, x), nn.mlp_forward_cached(net, x)[0])


@pytest.mark.parametrize("act", nn.ACTIVATIONS)
def test_inference_forward_works_in_place_on_its_own_arrays_only(act):
    # The forward adds biases and applies ReLU in place on each matmul's output:
    # same bits as the cached forward, and the caller's input is left as it was.
    rng = make_rng(9)
    net = nn.glorot_init([5, 8, 8, 3], [act] * 3, rng)
    for layer in net.layers:
        layer.biases[:] = rng.normal(size=layer.out_size)
    for x in (rng.normal(size=(17, 5)), rng.normal(size=(1, 5))):
        before = x.copy()
        out = nn.mlp_forward(net, x)
        assert out.shape == x.shape[:-1] + (3,)
        assert np.array_equal(out, nn.mlp_forward_cached(net, x)[0])
        assert np.array_equal(x, before)


def test_forward_dimension_mismatch_names_layer():
    net = nn.Mlp([
        nn.DenseLayer(np.eye(2), np.zeros(2), "relu"),
        nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
    ])
    with pytest.raises(nn.LayerShapeError) as err:
        nn.mlp_forward(net, np.ones((1, 3)))
    assert err.value.layer_index == 0


def test_backward_linear_layer_weight_grad_is_input():
    # Loss = sum of outputs => dL/dW[r, c] = x[c] for every row r.
    net = nn.Mlp([nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")])
    x = np.array([1.0, -2.0, 3.0])
    _, cache = nn.mlp_forward_cached(net, x[None])
    grad, grad_in = nn.mlp_backward(net, cache, np.ones((1, 2)))
    w_grad, b_grad = net.split(grad)
    assert np.allclose(w_grad, np.outer(np.ones(2), x))
    assert np.allclose(b_grad, np.ones(2))
    assert np.allclose(grad_in, np.zeros(3))


def test_backward_zero_output_gradient_gives_zero_grads():
    rng = make_rng(11)
    net = nn.glorot_init([4, 6, 3], ["relu", "identity"], rng)
    _, cache = nn.mlp_forward_cached(net, rng.normal(size=(1, 4)))
    grad, grad_in = nn.mlp_backward(net, cache, np.zeros((1, 3)))
    assert grad.shape == net.flat.shape and np.all(grad == 0.0)
    assert np.all(grad_in == 0.0)


def test_backward_matches_finite_differences_random_nets():
    rng = make_rng(13)
    for trial in range(4):
        sizes = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)))]
        sizes = [int(rng.integers(2, 17))] + sizes
        acts = [str(rng.choice(["relu", "identity"])) for _ in sizes[1:]]
        acts[-1] = "identity"
        net = nn.glorot_init(sizes, acts, rng)
        x = rng.normal(size=(1, sizes[0]))
        target = rng.normal(size=(1, sizes[-1]))

        def loss_fn():
            out = nn.mlp_forward(net, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = nn.mlp_forward_cached(net, x)
        grad, _ = nn.mlp_backward(net, cache, out - target)
        numeric = finite_diff_grads(loss_fn, net.split(net.flat),
                                    coords_per_param=25, rng=rng)
        assert_grads_match(net.split(grad), numeric)


def test_backward_input_gradient_matches_finite_differences():
    rng = make_rng(17)
    net = nn.glorot_init([5, 8, 4], ["relu", "identity"], rng)
    x = rng.normal(size=(1, 5))
    target = rng.normal(size=(1, 4))
    out, cache = nn.mlp_forward_cached(net, x)
    _, grad_in = nn.mlp_backward(net, cache, out - target)
    h = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        up = 0.5 * np.sum((nn.mlp_forward(net, xp) - target) ** 2)
        down = 0.5 * np.sum((nn.mlp_forward(net, xm) - target) ** 2)
        num = (up - down) / (2 * h)
        assert abs(num - grad_in[0, i]) / max(abs(num), 1e-8) < 1e-4


def test_adam_zero_gradient_keeps_params():
    rng = make_rng(19)
    params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
    before = [p.copy() for p in params]
    state = nn.AdamState.init(params, learning_rate=0.01)
    nn.adam_step(params, [np.zeros_like(p) for p in params], state)
    for p, q in zip(before, params):
        assert np.array_equal(p, q)
    assert state.step == 1


def test_adam_first_step_moves_by_about_lr_sign():
    lr = 0.05
    params = [np.array([1.0, -2.0, 0.3])]
    before = params[0].copy()
    grads = [np.array([0.7, -1.3, 2.0])]
    state = nn.AdamState.init(params, learning_rate=lr)
    nn.adam_step(params, grads, state)
    delta = params[0] - before
    # First bias-corrected step is -lr * g / (|g| + eps) ~ -lr * sign(g).
    assert np.all(np.sign(delta) == -np.sign(grads[0]))
    assert np.all(np.abs(delta) > 0.0)
    assert np.all(np.abs(delta) <= lr + 1e-12)


def test_adam_deterministic():
    rng = make_rng(23)
    params = [rng.normal(size=(4, 4))]
    grads = [rng.normal(size=(4, 4))]
    p1, p2 = [params[0].copy()], [params[0].copy()]
    s1 = nn.AdamState.init(p1)
    s2 = nn.AdamState.init(p2)
    nn.adam_step(p1, grads, s1)
    nn.adam_step(p2, grads, s2)
    assert np.array_equal(p1[0], p2[0])
    assert np.array_equal(s1.m[0], s2.m[0])
    assert s1.step == s2.step


def test_adam_rejects_a_mismatched_gradient_before_writing():
    params = [np.ones((2, 2)), np.ones(3)]
    state = nn.AdamState.init(params)
    with pytest.raises(ValueError, match="gradient shape"):
        nn.adam_step(params, [np.ones((2, 2)), np.ones(2)], state)
    assert state.step == 0 and all(np.all(p == 1.0) for p in params)
    assert all(np.all(m == 0.0) for m in state.m)


# (sizes, activations, rows per batch) -> sha256 of every forward
# output, gradient and input gradient of 25 Adam steps, then of the forward after set_flat;
# sha256 of the final to_flat(). The digests are those of the earlier core with two forward
# loops and a copying Adam, so any drift in the bits of training fails here.
GOLDEN_TRAINING = [
    ([6, 16, 16, 3], ["relu", "relu", "identity"], 9,
     "81bbb9b9f28c942fa365e954a6b266c008b5c0d215434f33b37a6678205b5083",
     "9bbff6f21bc435a3f06607426d604a507b28d01295641bbda6d2d6a73e4b8478"),
    ([4, 8, 2], ["identity", "relu"], 1,
     "326fab2d4d4e9e1eb4e37dca63c27c90aa240b00796d4cdb8faedd7823ab1bbb",
     "d44e35efc7302ffc6259c6592c31560772818b5ae6ae0d143e4a27f0b3ff9a89"),
    ([7, 32, 32, 7], ["relu", "relu", "identity"], 130,
     "af994a46b81c537cd3e21366d2273a5c4c6b7c1830e2e0986cd8def2119a15d8",
     "b41f4044687f115bb901415a1ae0a8c8d20a26dc7817f775d33e4d112855c6bb"),
]


@pytest.mark.parametrize("sizes, acts, rows, trace_digest, flat_digest", GOLDEN_TRAINING)
def test_training_core_keeps_its_bits(sizes, acts, rows, trace_digest, flat_digest):
    rng = make_rng(41, sizes[0], rows)
    net = nn.glorot_init(sizes, acts, rng)
    state = nn.AdamState.init([net.flat], learning_rate=0.01)
    trace = hashlib.sha256()
    for _ in range(25):
        x = rng.normal(size=(rows, sizes[0]))
        target = rng.normal(size=(rows, sizes[-1]))
        out, cache = nn.mlp_forward_cached(net, x)
        grad, grad_in = nn.mlp_backward(net, cache, out - target)
        for a in (out, grad, grad_in):  # the flat gradient's bytes are the old per-layer list's
            trace.update(a.tobytes())
        nn.adam_step([net.flat], [grad], state)
    net.set_flat(net.to_flat()[::-1].copy())
    trace.update(nn.mlp_forward(net, x).tobytes())
    assert trace.hexdigest() == trace_digest
    assert hashlib.sha256(net.to_flat().tobytes()).hexdigest() == flat_digest


def test_training_never_writes_the_callers_arrays():
    rng = make_rng(43)
    w, b = rng.normal(size=(3, 4)), rng.normal(size=3)
    w0, b0 = w.copy(), b.copy()
    net = nn.Mlp([nn.DenseLayer(w, b, "relu")])
    state = nn.AdamState.init([net.flat], learning_rate=0.1)
    for _ in range(3):
        out, cache = nn.mlp_forward_cached(net, rng.normal(size=(5, 4)))
        nn.adam_step([net.flat], [nn.mlp_backward(net, cache, out - 1.0)[0]], state)
    assert not np.array_equal(net.layers[0].weights, w0)
    assert np.array_equal(w, w0) and np.array_equal(b, b0)
    flat = np.zeros(15)
    net.set_flat(flat)
    assert np.array_equal(w, w0) and np.array_equal(b, b0)
    net.flat += 1.0  # the net keeps a copy of the vector it was set from
    assert np.all(flat == 0.0)


def test_layers_are_views_of_the_flat_vector():
    net = nn.glorot_init([3, 5, 2], ["relu", "identity"], make_rng(44))
    views = net.split(net.flat)
    assert [v.shape for v in views] == [(5, 3), (5,), (2, 5), (2,)]
    for layer, w, b in zip(net.layers, views[::2], views[1::2]):
        assert np.shares_memory(layer.weights, net.flat) and np.array_equal(layer.weights, w)
        assert np.shares_memory(layer.biases, net.flat) and np.array_equal(layer.biases, b)
    assert np.array_equal(net.flat, np.concatenate([v.ravel() for v in views]))
    net.set_flat(np.arange(32.0))
    assert net.layers[1].biases.tolist() == [30.0, 31.0]
    with pytest.raises(ValueError, match="flat vector has shape"):
        net.set_flat(np.zeros(31))


def test_softplus_reference_values():
    assert math.isclose(float(nn.softplus(0.0)), math.log(2.0), rel_tol=1e-12)
    assert float(nn.softplus(100.0)) == pytest.approx(100.0, abs=1e-9)
    assert float(nn.softplus(-100.0)) == pytest.approx(math.exp(-100.0), rel=1e-6)
    assert float(nn.softplus(-100.0)) > 0.0


@given(st.floats(min_value=-700, max_value=700, allow_nan=False))
def test_softplus_dominates_relu(x):
    assert float(nn.softplus(x)) >= max(0.0, x)


@given(st.floats(min_value=-700, max_value=699, allow_nan=False),
       st.floats(min_value=1e-6, max_value=1.0))
def test_softplus_monotone(x, dx):
    assert float(nn.softplus(x + dx)) >= float(nn.softplus(x))


def test_determinism_same_rng_same_net():
    a = nn.glorot_init([3, 4, 2], ["relu", "identity"], make_rng(5, 6))
    b = nn.glorot_init([3, 4, 2], ["relu", "identity"], make_rng(5, 6))
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_weight_file_roundtrip_bit_exact():
    rng = make_rng(29)
    net = nn.glorot_init([4, 7, 3], ["relu", "identity"], rng)
    net.layers[0].weights[0, 0] = 1.0 / 3.0
    buf = io.StringIO()
    nn.write_weights(net, buf)
    buf.seek(0)
    back = nn.read_weights(nn.LineReader(buf))
    assert len(back.layers) == 2
    for la, lb in zip(net.layers, back.layers):
        assert la.activation == lb.activation
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


@pytest.mark.parametrize("edit, line, message", [
    (lambda t: t[:-1], 7, "line is cut short"),
    (lambda t: "\n".join(t.split("\n")[:4]) + "\n", 5, "file ends early"),
    (lambda t: t.replace(" relu", ""), 2, "expected 3 values, got 2"),
    (lambda t: t.replace(" relu", " swish"), 2, "unknown activation"),
    (lambda t: t.replace("2 3", "3 3", 1), 3, "expected 4 values, got 3"),
    (lambda t: t.replace("2\n", "x\n", 1), 1, "invalid literal"),
    (lambda t: t.replace(" relu", " tanh"), 2, "unknown activation 'tanh'"),
])
def test_weight_file_errors_name_the_line(edit, line, message):
    net = nn.glorot_init([2, 3, 1], ["relu", "identity"], make_rng(30))
    buf = io.StringIO()
    nn.write_weights(net, buf)
    reader = nn.LineReader(io.StringIO(edit(buf.getvalue())))
    with pytest.raises(nn.ArtifactFormatError, match=f"^<stream>:{line}: .*{message}"):
        with reader.located():
            nn.read_weights(reader)


def test_flat_roundtrip():
    rng = make_rng(31)
    net = nn.glorot_init([3, 5, 2], ["relu", "identity"], rng)
    flat = net.to_flat()
    other = nn.glorot_init([3, 5, 2], ["relu", "identity"], make_rng(99))
    other.set_flat(flat)
    assert np.array_equal(other.to_flat(), flat)


def test_import_pins_openblas_to_one_thread():
    import ctypes
    import glob

    import taskemb  # noqa: F401  (the import pins the thread count)

    paths = glob.glob(np.__path__[0] + ".libs/libscipy_openblas*")
    if not paths:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert blas != "scipy-openblas", "NumPy bundles OpenBLAS but the lookup found none"
        pytest.skip(f"NumPy is built against {blas}, not a bundled OpenBLAS")
    for path in paths:
        get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        assert get_threads() == 1


@pytest.mark.parametrize("found", [[], ["/nonexistent/libscipy_openblas.so"], ["libc.so.6"]])
def test_openblas_pin_is_a_no_op_without_the_library_or_symbol(monkeypatch, found):
    import taskemb

    monkeypatch.setattr(taskemb.glob, "glob", lambda pattern: found)
    taskemb._pin_openblas_threads()


@dataclass
class Pairs(nn.Rows):
    a: np.ndarray  # (n,)
    b: np.ndarray  # (n, 2, 3)


def pairs(n=5):
    return Pairs(np.arange(n) * 10, np.arange(n * 6, dtype=float).reshape(n, 2, 3))


def test_rows_len_is_the_first_axis():
    assert len(pairs(5)) == 5 and len(pairs(0)) == 0


def test_rows_int_index_gives_every_field_without_its_first_axis():
    row = pairs()[3]
    assert isinstance(row, Pairs)
    assert row.a == 30 and np.ndim(row.a) == 0
    assert np.array_equal(row.b, np.arange(18, 24.0).reshape(2, 3))


@pytest.mark.parametrize("index, rows", [
    (slice(1, 4), [1, 2, 3]),
    (np.array([True, False, False, True, True]), [0, 3, 4]),
    (np.array([4, 0]), [4, 0]),
], ids=["slice", "bool-mask", "index-array"])
def test_rows_array_index_gives_a_record_of_those_rows(index, rows):
    whole, part = pairs(), pairs()[index]
    assert isinstance(part, Pairs) and len(part) == len(rows)
    assert np.array_equal(part.a, whole.a[rows]) and np.array_equal(part.b, whole.b[rows])


def test_rows_none_gives_a_record_with_a_new_first_axis():
    whole = pairs()
    grown = whole[None]
    assert isinstance(grown, Pairs) and len(grown) == 1
    assert grown.a.shape == (1, 5) and grown.b.shape == (1, 5, 2, 3)


def test_rows_iteration_stops_at_len():
    whole = pairs(4)
    rows = list(whole)
    assert len(rows) == 4
    assert [int(r.a) for r in rows] == [0, 10, 20, 30]
    assert all(np.array_equal(r.b, whole.b[i]) for i, r in enumerate(rows))


@pytest.mark.parametrize("i", [0, 2, 4])
def test_rows_one_row_regrown_equals_a_one_row_slice(i):
    whole = pairs()
    regrown, sliced = whole[i][None], whole[i:i + 1]
    for name in ("a", "b"):
        got, want = getattr(regrown, name), getattr(sliced, name)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
