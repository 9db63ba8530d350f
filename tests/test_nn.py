import io
import math

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


def assert_grads_match(analytic, numeric_entries, rel_tol=1e-4):
    for pi, fi, num in numeric_entries:
        ana = analytic[pi].ravel()[fi]
        denom = max(abs(num), abs(ana), 1e-8)
        assert abs(num - ana) / denom < rel_tol, (
            f"param {pi} coord {fi}: analytic {ana} vs numeric {num}"
        )


def test_forward_identity_layer():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "identity")])
    out = nn.mlp_forward(net, np.array([1.0, 2.0]))
    assert np.allclose(out, [1.0, 2.0])


def test_forward_relu_clamps_negatives():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "relu")])
    out = nn.mlp_forward(net, np.array([-1.0, 2.0]))
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
    assert np.allclose(nn.mlp_forward(net, x), expect)
    assert np.allclose(expect, [0.0, 6.5])


def test_forward_batch_matches_loop():
    rng = make_rng(7)
    net = nn.glorot_init([3, 5, 2], ["relu", "identity"], rng)
    xs = rng.normal(size=(6, 3))
    batch = nn.mlp_forward(net, xs)
    rows = np.stack([nn.mlp_forward(net, x) for x in xs])
    # BLAS may use different kernels for matrix vs vector products, so compare
    # at float64 precision; repeated identical calls must agree exactly.
    assert np.allclose(batch, rows, rtol=1e-12, atol=1e-12)
    assert np.array_equal(batch, nn.mlp_forward(net, xs))


@pytest.mark.parametrize("sizes, acts", [
    ([7, 32, 32, 7], ["relu", "relu", "identity"]),
    ([6, 64, 32, 2], ["relu", "tanh", "identity"]),
])
def test_inference_forward_matches_cached_forward_bit_for_bit(sizes, acts):
    # Rollout batches shrink to a few rows late in an episode, where BLAS picks
    # different kernels; the cache-free forward must still give the same bits.
    rng = make_rng(8)
    net = nn.glorot_init(sizes, acts, rng)
    for layer in net.layers:
        layer.biases = rng.normal(size=layer.out_size)
    for rows in range(1, 65):
        x = rng.normal(size=(rows, sizes[0]))
        assert np.array_equal(nn.mlp_forward(net, x), nn.mlp_forward_cached(net, x)[0])
    x = rng.normal(size=sizes[0])
    assert np.array_equal(nn.mlp_forward(net, x), nn.mlp_forward_cached(net, x)[0])


def test_forward_dimension_mismatch_names_layer():
    net = nn.Mlp([
        nn.DenseLayer(np.eye(2), np.zeros(2), "relu"),
        nn.DenseLayer(np.eye(2), np.zeros(2), "identity"),
    ])
    with pytest.raises(nn.LayerShapeError) as err:
        nn.mlp_forward(net, np.ones(3))
    assert err.value.layer_index == 0


def test_backward_linear_layer_weight_grad_is_input():
    # Loss = sum of outputs => dL/dW[r, c] = x[c] for every row r.
    net = nn.Mlp([nn.DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")])
    x = np.array([1.0, -2.0, 3.0])
    _, cache = nn.mlp_forward_cached(net, x)
    grads, grad_in = nn.mlp_backward(net, cache, np.ones(2))
    assert np.allclose(grads[0], np.outer(np.ones(2), x))
    assert np.allclose(grads[1], np.ones(2))
    assert np.allclose(grad_in, np.zeros(3))


def test_backward_zero_output_gradient_gives_zero_grads():
    rng = make_rng(11)
    net = nn.glorot_init([4, 6, 3], ["tanh", "identity"], rng)
    _, cache = nn.mlp_forward_cached(net, rng.normal(size=4))
    grads, grad_in = nn.mlp_backward(net, cache, np.zeros(3))
    assert all(np.all(g == 0.0) for g in grads)
    assert np.all(grad_in == 0.0)


def test_backward_matches_finite_differences_random_nets():
    rng = make_rng(13)
    for trial in range(4):
        sizes = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 4)))]
        sizes = [int(rng.integers(2, 17))] + sizes
        acts = [str(rng.choice(["relu", "tanh", "identity"])) for _ in sizes[1:]]
        acts[-1] = "identity"
        net = nn.glorot_init(sizes, acts, rng)
        x = rng.normal(size=sizes[0])
        target = rng.normal(size=sizes[-1])

        def loss_fn():
            out = nn.mlp_forward(net, x)
            return 0.5 * float(np.sum((out - target) ** 2))

        out, cache = nn.mlp_forward_cached(net, x)
        grads, _ = nn.mlp_backward(net, cache, out - target)
        numeric = finite_diff_grads(loss_fn, net.parameters(),
                                    coords_per_param=25, rng=rng)
        assert_grads_match(grads, numeric)


def test_backward_input_gradient_matches_finite_differences():
    rng = make_rng(17)
    net = nn.glorot_init([5, 8, 4], ["relu", "identity"], rng)
    x = rng.normal(size=5)
    target = rng.normal(size=4)
    out, cache = nn.mlp_forward_cached(net, x)
    _, grad_in = nn.mlp_backward(net, cache, out - target)
    h = 1e-6
    for i in range(5):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        up = 0.5 * np.sum((nn.mlp_forward(net, xp) - target) ** 2)
        down = 0.5 * np.sum((nn.mlp_forward(net, xm) - target) ** 2)
        num = (up - down) / (2 * h)
        assert abs(num - grad_in[i]) / max(abs(num), 1e-8) < 1e-4


def test_softmax_backward_refused():
    net = nn.Mlp([nn.DenseLayer(np.eye(2), np.zeros(2), "softmax")])
    _, cache = nn.mlp_forward_cached(net, np.ones(2))
    with pytest.raises(nn.LayerShapeError):
        nn.mlp_backward(net, cache, np.ones(2))


def test_adam_zero_gradient_keeps_params():
    rng = make_rng(19)
    params = [rng.normal(size=(3, 2)), rng.normal(size=3)]
    state = nn.AdamState.init(params, learning_rate=0.01)
    new_params, new_state = nn.adam_step(params, [np.zeros_like(p) for p in params], state)
    for p, q in zip(params, new_params):
        assert np.array_equal(p, q)
    assert new_state.step == 1


def test_adam_first_step_moves_by_about_lr_sign():
    lr = 0.05
    params = [np.array([1.0, -2.0, 0.3])]
    grads = [np.array([0.7, -1.3, 2.0])]
    state = nn.AdamState.init(params, learning_rate=lr)
    new_params, _ = nn.adam_step(params, grads, state)
    delta = new_params[0] - params[0]
    # First bias-corrected step is -lr * g / (|g| + eps) ~ -lr * sign(g).
    assert np.all(np.sign(delta) == -np.sign(grads[0]))
    assert np.all(np.abs(delta) > 0.0)
    assert np.all(np.abs(delta) <= lr + 1e-12)


def test_adam_deterministic():
    rng = make_rng(23)
    params = [rng.normal(size=(4, 4))]
    grads = [rng.normal(size=(4, 4))]
    s1 = nn.AdamState.init(params)
    s2 = nn.AdamState.init(params)
    p1, s1b = nn.adam_step(params, grads, s1)
    p2, s2b = nn.adam_step(params, grads, s2)
    assert np.array_equal(p1[0], p2[0])
    assert np.array_equal(s1b.m[0], s2b.m[0])
    assert s1b.step == s2b.step


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
    back = nn.read_weights(buf)
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
])
def test_weight_file_errors_name_the_line(edit, line, message):
    net = nn.glorot_init([2, 3, 1], ["relu", "identity"], make_rng(30))
    buf = io.StringIO()
    nn.write_weights(net, buf)
    with pytest.raises(nn.ArtifactFormatError, match=f"^<stream>:{line}: .*{message}"):
        nn.read_weights(io.StringIO(edit(buf.getvalue())))


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
