import numpy as np
import pytest

from conceptspace.nn import (
    Adam,
    BatchRescale,
    GraphConv,
    GumbelSoftmax,
    LeakyReLU,
    Linear,
    MLP,
    distinct_rows,
    fan_in_uniform,
    one_hot_argmax,
    sigmoid,
    softmax,
)

from oracles import (
    leaky_relu_backward_reference,
    leaky_relu_reference,
    linear_reference,
    rescale_eval_reference,
    sigmoid_reference,
)

rng = np.random.default_rng(42)


# -- batch rescale ----------------------------------------------------------------

def test_constant_column_standardizes_to_zero():
    r = BatchRescale(3, "t")
    x = np.column_stack([np.full(8, 5.0), rng.normal(size=8), np.zeros(8)])
    out = r.forward(x, "train")
    assert np.allclose(out[:, 0], 0.0)
    assert np.allclose(out[:, 2], 0.0)


def test_two_point_column_gives_plus_minus_one():
    r = BatchRescale(1, "t", eps=1e-12)
    out = r.forward(np.array([[0.0], [2.0]]), "train")
    assert out[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-5)


def test_batch_permutation_equivariance():
    r = BatchRescale(4, "t")
    x = rng.normal(size=(16, 4))
    perm = rng.permutation(16)
    out = r.forward(x, "train")
    r2 = BatchRescale(4, "t")
    out_perm = r2.forward(x[perm], "train")
    assert np.allclose(out[perm], out_perm)


def test_eval_before_training_is_an_error():
    r = BatchRescale(2, "t")
    with pytest.raises(RuntimeError):
        r.forward(np.zeros((4, 2)), "eval")


def test_train_needs_two_samples():
    r = BatchRescale(2, "t")
    with pytest.raises(RuntimeError):
        r.forward(np.zeros((1, 2)), "train")


def test_eval_never_mutates_state():
    r = BatchRescale(2, "t")
    r.forward(rng.normal(size=(8, 2)), "train")
    mean, var = r.running_mean.copy(), r.running_var.copy()
    for _ in range(3):
        r.forward(rng.normal(size=(5, 2)), "eval")
    assert np.array_equal(r.running_mean, mean)
    assert np.array_equal(r.running_var, var)


def test_running_update_uses_momentum():
    r = BatchRescale(1, "t", momentum=0.1)
    x = np.array([[1.0], [3.0]])       # mean 2, biased var 1
    r.forward(x, "train")
    assert r.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
    assert r.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


def test_eval_uses_running_statistics():
    r = BatchRescale(1, "t", eps=0.0)
    r.running_mean[:] = 2.0
    r.running_var[:] = 4.0
    r.trained = True
    out = r.forward(np.array([[4.0]]), "eval")
    assert out[0, 0] == pytest.approx(1.0)


def test_rescale_backward_matches_finite_differences():
    r = BatchRescale(3, "t")
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(6, 3))        # project output to a scalar

    def f(xv):
        rr = BatchRescale(3, "t")
        return float((rr.forward(xv, "train") * w).sum())

    r.forward(x, "train")
    analytic = r.backward(w)
    h = 1e-6
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp, xm = x.copy(), x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            fd[i, j] = (f(xp) - f(xm)) / (2 * h)
    assert np.max(np.abs(analytic - fd)) < 1e-6


# -- activations ------------------------------------------------------------------

def test_sigmoid_range_and_symmetry():
    x = rng.normal(size=100) * 10       # the realistic z-score range
    y = sigmoid(x)
    assert np.all((y > 0) & (y < 1))
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)
    extreme = sigmoid(np.array([-1e4, 1e4]))   # saturates but never NaN/inf
    assert np.all(np.isfinite(extreme))
    assert np.all((extreme >= 0) & (extreme <= 1))


def test_relu_and_leaky_backward():
    x = np.array([[-2.0, 3.0]])
    relu = LeakyReLU(0.0)
    assert np.array_equal(relu.forward(x), [[0.0, 3.0]])
    assert np.array_equal(relu.backward(np.ones_like(x)), [[0.0, 1.0]])
    leaky = LeakyReLU(0.1)
    assert np.allclose(leaky.forward(x), [[-0.2, 3.0]])
    assert np.allclose(leaky.backward(np.ones_like(x)), [[0.1, 1.0]])


def test_backward_params_accumulates_the_bytes_of_backward():
    """The first layer of an encoder skips its input's gradient; its own
    gradients keep their bytes."""
    r = np.random.default_rng(4)
    adj = r.uniform(size=(6, 5, 5))
    adj = adj + adj.transpose(0, 2, 1)
    for make, x, extra, g in [
            (lambda: Linear(3, 4, np.random.default_rng(0), "lin"), r.normal(size=(9, 3)), (),
             r.normal(size=(9, 4))),
            (lambda: GraphConv(3, 4, np.random.default_rng(0), "conv"),
             r.normal(size=(6, 5, 3)), (adj,), r.normal(size=(6, 5, 4)))]:
        full, params_only = make(), make()
        for layer in (full, params_only):
            layer.forward(x, *extra)
        assert full.backward(g).shape == x.shape
        assert params_only.backward_params(g) is None
        for got, want in ((params_only.dW, full.dW), (params_only.db, full.db)):
            assert got.tobytes() == want.tobytes()


# -- categorical assignment ---------------------------------------------------------

def test_gumbel_eval_is_deterministic_one_hot():
    g = GumbelSoftmax()
    logits = rng.normal(size=(4, 10, 7))
    a = g.forward(logits, "eval")
    b = g.forward(logits, "eval")
    assert np.array_equal(a, b)
    assert np.all(a.sum(axis=-1) == 1.0)
    assert set(np.unique(a)) <= {0.0, 1.0}
    assert np.array_equal(a.argmax(-1), logits.argmax(-1))


def test_gumbel_train_is_one_hot_and_seeded():
    g = GumbelSoftmax()
    logits = rng.normal(size=(4, 10, 7))
    a = g.forward(logits, "train", np.random.default_rng(0))
    b = g.forward(logits, "train", np.random.default_rng(0))
    assert np.array_equal(a, b)
    assert np.all(a.sum(axis=-1) == 1.0)
    with pytest.raises(ValueError):
        g.forward(logits, "train")


def test_gumbel_soft_backward_matches_finite_differences():
    g = GumbelSoftmax(tau=1.0)
    logits = rng.normal(size=(3, 5))
    w = rng.normal(size=(3, 5))

    def f(lv):
        gg = GumbelSoftmax(tau=1.0)
        return float((gg.forward(lv, "soft") * w).sum())

    g.forward(logits, "soft")
    analytic = g.backward(w)
    h = 1e-6
    fd = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            lp, lm = logits.copy(), logits.copy()
            lp[i, j] += h
            lm[i, j] -= h
            fd[i, j] = (f(lp) - f(lm)) / (2 * h)
    assert np.max(np.abs(analytic - fd)) < 1e-6


def test_one_hot_argmax_shape():
    x = rng.normal(size=(2, 3, 4))
    oh = one_hot_argmax(x)
    assert oh.shape == x.shape
    assert np.all(oh.sum(-1) == 1.0)


def test_softmax_rows_sum_to_one():
    s = softmax(rng.normal(size=(5, 7)) * 30)
    assert np.allclose(s.sum(-1), 1.0)
    assert np.all(s > 0)


# -- layers -------------------------------------------------------------------------

def test_linear_backward_matches_finite_differences():
    lin = Linear(4, 3, rng, "lin")
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(5, 3))
    lin.forward(x)
    lin.backward(w)
    h = 1e-6
    for arr, grad in ((lin.W, lin.dW), (lin.b, lin.db)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float((lin.forward(x) * w).sum())
            flat[i] = orig - h
            lm = float((lin.forward(x) * w).sum())
            flat[i] = orig
            assert gflat[i] == pytest.approx((lp - lm) / (2 * h), abs=1e-5)


def test_graph_conv_respects_adjacency():
    conv = GraphConv(2, 2, rng, "c")
    x = rng.normal(size=(1, 3, 2))
    eye = np.eye(3)[None]
    out_eye = conv.forward(x, eye)
    assert np.allclose(out_eye, x @ conv.W + conv.b)
    # messages flow along edges: changing a neighbor changes the output
    adj = np.array([[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]])
    out = conv.forward(x, adj)
    x2 = x.copy()
    x2[0, 1] += 1.0
    out2 = conv.forward(x2, adj)
    assert not np.allclose(out[0, 0], out2[0, 0])
    assert np.allclose(out[0, 2], out2[0, 2])


def _normalized_adjacency(b, n):
    """Random symmetric graphs with self-loops, D^-1/2 (A + I) D^-1/2."""
    a = np.triu(rng.random((b, n, n)) < 0.3, 1)
    a = a | a.transpose(0, 2, 1) | np.eye(n, dtype=bool)
    d = 1.0 / np.sqrt(a.sum(axis=2))
    return a * d[:, :, None] * d[:, None, :]


def test_graph_conv_draws_the_parameters_of_a_linear():
    conv = GraphConv(4, 3, np.random.default_rng(7), "c")
    lin = Linear(4, 3, np.random.default_rng(7), "l")
    assert np.array_equal(conv.W, lin.W) and np.array_equal(conv.b, lin.b)


def test_zero_bias_skips_the_bias_draw():
    conv_rng, lin_rng = np.random.default_rng(3), np.random.default_rng(3)
    conv = GraphConv(4, 3, conv_rng, "c", zero_bias=True)
    # the stream of a Linear that draws its weights and skips the bias
    assert np.array_equal(conv.W, fan_in_uniform(lin_rng, (4, 3), 4))
    assert np.array_equal(conv.b, np.zeros(3))
    assert conv_rng.random() == lin_rng.random()


def test_graph_conv_forward_is_a_linear_per_graph():
    conv = GraphConv(4, 3, rng, "c")
    x = rng.normal(size=(5, 6, 4))
    adj = _normalized_adjacency(5, 6)
    out = conv.forward(x, adj)
    assert out.shape == (5, 6, 3)
    for k in range(5):
        np.testing.assert_allclose(out[k], adj[k] @ x[k] @ conv.W + conv.b,
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n_in, n_out", [(1, 30), (30, 30), (30, 7)])
def test_graph_conv_backward_matches_finite_differences(n_in, n_out):
    conv = GraphConv(n_in, n_out, rng, "c")
    x = rng.normal(size=(3, 5, n_in))
    adj = _normalized_adjacency(3, 5)
    w = rng.normal(size=(3, 5, n_out))
    conv.forward(x, adj)
    dx = conv.backward(w)
    h = 1e-6
    for arr, grad in ((conv.W, conv.dW), (conv.b, conv.db), (x, dx)):
        flat = arr.reshape(-1)
        numeric = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float((conv.forward(x, adj) * w).sum())
            flat[i] = orig - h
            lm = float((conv.forward(x, adj) * w).sum())
            flat[i] = orig
            numeric[i] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(grad.ravel(), numeric, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("n_in, n_out", [(1, 30), (30, 30), (30, 7)])
def test_graph_conv_weight_gradient_equals_per_graph_sum(n_in, n_out):
    conv = GraphConv(n_in, n_out, rng, "c")
    x = rng.normal(size=(128, 10, n_in))
    adj = _normalized_adjacency(128, 10)
    g = rng.normal(size=(128, 10, n_out))
    conv.forward(x, adj)
    conv.backward(g)
    want = np.einsum("bni,bno->io", adj @ x, g)
    # the sums are reordered, so an entry that nearly cancels is measured
    # against the size of the whole matrix
    np.testing.assert_allclose(conv.dW, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def test_graph_conv_backward_accumulates():
    conv = GraphConv(4, 3, rng, "c")
    inputs = [(rng.normal(size=(6, 5, 4)), _normalized_adjacency(6, 5),
               rng.normal(size=(6, 5, 3))) for _ in range(2)]
    alone = []
    for x, adj, g in inputs:
        conv.zero_grad()
        conv.forward(x, adj)
        conv.backward(g)
        alone.append((conv.dW.copy(), conv.db.copy()))
    conv.zero_grad()
    for x, adj, g in inputs:
        conv.forward(x, adj)
        conv.backward(g)
    np.testing.assert_allclose(conv.dW, alone[0][0] + alone[1][0], rtol=1e-12)
    np.testing.assert_allclose(conv.db, alone[0][1] + alone[1][1], rtol=1e-12)


def _adam_reference(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam written per array, one parameter after the other."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            mhat = m[name] / bias1
            vhat = v[name] / bias2
            p -= lr * mhat / (np.sqrt(vhat) + eps)


def test_adam_equals_per_array_reference_bit_for_bit():
    shapes = {"enc.W": (4, 3), "enc.b": (3,), "head.W": (2, 5)}
    start = {k: rng.normal(size=s) for k, s in shapes.items()}
    grad_steps = [{k: rng.normal(size=s) for k, s in shapes.items()}
                  for _ in range(5)]
    ours = {k: v.copy() for k, v in start.items()}
    arrays = dict(ours)
    reference = {k: v.copy() for k, v in start.items()}
    outside = rng.normal(size=(3, 2))
    before = outside.copy()
    opt = Adam(ours, lr=0.01)
    for grads in grad_steps:
        opt.step({**grads, "frozen.W": np.ones_like(outside)})
    _adam_reference(reference, grad_steps, lr=0.01)
    for name in shapes:
        assert ours[name] is arrays[name]            # updated in place
        assert ours[name].tobytes() == reference[name].tobytes()
        assert not np.array_equal(ours[name], start[name])
    assert outside.tobytes() == before.tobytes()


def test_adam_over_no_parameters_is_a_no_op():
    opt = Adam({}, lr=0.1)
    opt.step({})
    opt.step({"unused": np.ones(3)})


def test_adam_minimizes_quadratic():
    p = {"w": np.array([5.0, -3.0])}
    opt = Adam(p, lr=0.1)
    for _ in range(500):
        opt.step({"w": 2 * p["w"]})
    assert np.max(np.abs(p["w"])) < 1e-3


def test_mlp_param_names_are_prefixed():
    mlp = MLP(3, 4, 2, rng, "head")
    names = set(mlp.parameters())
    assert names == {"head.lin1.W", "head.lin1.b", "head.lin2.W", "head.lin2.b"}


# -- distinct rows ----------------------------------------------------------------

def test_distinct_rows_are_first_occurrences_with_their_inverse():
    x = rng.normal(size=(5, 3))[[3, 1, 3, 0, 1, 4, 4, 2]]
    for view in (x, x[:, ::2]):                  # a strided view as well
        rows, inverse = distinct_rows(view)
        want = [k for k in range(len(view))
                if not any(view[k].tobytes() == view[j].tobytes() for j in range(k))]
        assert rows.tolist() == want == [0, 1, 3, 5, 7]
        assert view[rows][inverse].tobytes() == np.ascontiguousarray(view).tobytes()


def test_distinct_rows_keep_signed_zeros_apart():
    rows, inverse = distinct_rows(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    assert rows.tolist() == [0, 1] and inverse.tolist() == [0, 1, 0]


# -- kernels against their reference expressions, byte for byte --------------------

# signed zeros, subnormals, large values and NaNs of both signs
SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.3e-308, 1e4, -1e4,
                    np.nan, -np.nan, 1.0, -1.0, 0.5, -0.5])


def kernel_inputs():
    """The special values alone and repeated (so they reach the vectorized
    loop bodies and their tails), and random arrays of several shapes."""
    r = np.random.default_rng(7)
    yield SPECIAL
    yield np.tile(SPECIAL, 9)[r.permutation(9 * SPECIAL.size)].reshape(15, 9)
    for shape in [(1,), (2,), (7,), (13, 5), (64, 30), (3, 10, 30)]:
        yield r.normal(size=shape) * 10.0 ** r.integers(-3, 4)


def same_bytes(got, want) -> bool:
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("slope", [0.0, 0.01, 0.5, 1.0, -0.2, -0.0, 1e-300])
def test_leaky_relu_has_the_bytes_of_the_where_form(slope):
    r = np.random.default_rng(3)
    for x in kernel_inputs():
        act = LeakyReLU(slope)
        assert same_bytes(act.forward(x), leaky_relu_reference(x, slope))
        for g in (r.normal(size=x.shape), np.resize(SPECIAL, x.shape)):
            assert same_bytes(act.backward(g), leaky_relu_backward_reference(x, g, slope))


def test_leaky_relu_at_slope_zero_turns_plus_inf_into_nan():
    # max(x, 0 * x) meets 0 * inf = NaN: the one value where the max form
    # differs from the where form, which gives inf
    x = np.array([np.inf, -np.inf, 1.0])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(LeakyReLU(0.0).forward(x), [np.nan, np.nan, 1.0], equal_nan=True)
        assert np.array_equal(leaky_relu_reference(x, 0.0), [np.inf, np.nan, 1.0],
                              equal_nan=True)
    assert same_bytes(LeakyReLU(0.01).forward(x), leaky_relu_reference(x, 0.01))


@pytest.mark.parametrize("slope", [1.0 + 1e-12, 2.0, np.inf, np.nan])
def test_leaky_relu_rejects_a_slope_above_one(slope):
    with pytest.raises(ValueError, match="slope"):
        LeakyReLU(slope)


def test_sigmoid_has_the_bytes_of_the_boolean_index_form():
    for x in [*kernel_inputs(), np.array([np.inf, -np.inf, 745.2, -745.2, 710.0, -710.0])]:
        assert same_bytes(sigmoid(x), sigmoid_reference(x))


def test_sigmoid_of_integers_is_float():
    got = sigmoid(np.array([0, 1, -1]))
    assert got.dtype == np.float64
    assert same_bytes(got, sigmoid(np.array([0.0, 1.0, -1.0])))
    assert got[0] == 0.5 and 0.5 < got[1] < 1 and got[1] + got[2] == pytest.approx(1.0)


def test_linear_forward_has_the_bytes_of_product_plus_bias():
    r = np.random.default_rng(5)
    for x in kernel_inputs():
        x = x.reshape(-1, x.shape[-1])
        lin = Linear(x.shape[1], 4, r, "lin")
        lin.b[0] = -0.0
        assert same_bytes(lin.forward(x), linear_reference(x, lin.W, lin.b))


def test_eval_rescale_has_the_bytes_of_the_reference():
    r = np.random.default_rng(9)
    for x in kernel_inputs():
        x = x.reshape(-1, x.shape[-1])
        norm = BatchRescale(x.shape[1], "t")
        norm.forward(r.normal(size=(5, x.shape[1])) * 3, "train")
        assert same_bytes(norm.forward(x, "eval"),
                          rescale_eval_reference(x, norm.running_mean, norm.running_var,
                                                 norm.eps))
