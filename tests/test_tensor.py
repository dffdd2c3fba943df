import contextlib
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.errors import ContractError, DomainError, ShapeError
from oracle_distill.tensor import Tensor, backward, grad_check

from helpers import attention, feed_forward, reference_attention, reference_feed_forward, relu, sum_sq


def rand_tensor(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class TestForwardValues:
    def test_matmul_identity(self):
        eye = Tensor(np.eye(2))
        out = T.matmul(eye, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_matmul_hand_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[2.0], [4.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_softmax_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-12 and out.data[1] < 1e-12

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = T.softmax(Tensor(rng.standard_normal(5) * 10))
            assert abs(out.data.sum() - 1.0) <= 1e-12

    def test_sum_sq_hand_value(self):
        assert sum_sq(Tensor([3.0, 4.0])).item() == 25.0

    def test_layer_norm_constant_vector_is_zero(self):
        out = T.layer_norm(Tensor([2.5, 2.5, 2.5, 2.5]), gain=Tensor(np.ones(4)),
                           bias=Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_layer_norm_affine_width_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 3))), gain=Tensor(np.ones(4)),
                         bias=Tensor(np.zeros(3)))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            T.log(Tensor([1.0, 0.0]))

    def test_add_bias_row(self):
        out = T.add(Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_add_rejects_general_broadcast(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1))))

    def test_concat_index_roundtrip(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.standard_normal((3, 4)))
        parts = [T.index(a, slice(0, 1)), T.index(a, slice(1, 3))]
        np.testing.assert_array_equal(T.concat(parts).data, a.data)

    def test_concat_names_parts_that_disagree_off_its_axis(self):
        parts = [Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))]
        with pytest.raises(ShapeError, match=r"\(2, 3\), \(3, 2\)"):
            T.concat(parts)
        with pytest.raises(ShapeError):
            T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros(3))])

    def test_pick(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.pick(a, [1, 0]).data, [2.0, 3.0])

    def test_pick_nd_ids(self):
        a = Tensor(np.arange(12.0).reshape(2, 2, 3))
        np.testing.assert_array_equal(T.pick(a, [[2, 0], [1, 1]]).data, [[2.0, 3.0], [7.0, 10.0]])
        with pytest.raises(ShapeError):
            T.pick(a, [1, 0])

    def test_embedding_nd_ids(self):
        table = Tensor(np.arange(6.0).reshape(3, 2))
        out = T.embedding_lookup(table, [[2, 0], [1, 1]])
        np.testing.assert_array_equal(out.data, np.arange(6.0).reshape(3, 2)[[[2, 0], [1, 1]]])

    def test_matmul_over_leading_axes(self):
        rng = np.random.default_rng(3)
        x, w, s = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)), rng.standard_normal((2, 4, 5))
        by_weight = T.matmul(Tensor(x), Tensor(w)).data
        by_stack = T.matmul(Tensor(x), Tensor(s)).data
        for i in range(2):
            np.testing.assert_allclose(by_weight[i], x[i] @ w, rtol=1e-14)
            np.testing.assert_allclose(by_stack[i], x[i] @ s[i], rtol=1e-14)
        with pytest.raises(ShapeError):
            T.matmul(Tensor(x), Tensor(rng.standard_normal((3, 4, 5))))

    def test_project_heads_split_by_columns(self):
        rng = np.random.default_rng(4)
        a, w = Tensor(rng.standard_normal((2, 3, 5))), Tensor(rng.standard_normal((5, 6)))
        heads = T.project_heads(a, w, 3)
        assert heads.shape == (2, 3, 3, 2)
        np.testing.assert_array_equal(heads.data[1, 2], T.matmul(a, w).data[1, :, 4:6])
        for bad in ((a, w, 4), (a, Tensor(np.zeros((4, 6))), 3), (Tensor(np.zeros(5)), w, 3)):
            with pytest.raises(ShapeError):
                T.project_heads(*bad)

    def test_add_broadcasts_a_suffix_only(self):
        stack = Tensor(np.zeros((2, 3, 4)))
        table = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(T.add(stack, table).data[1], table.data)
        with pytest.raises(ShapeError):
            T.add(stack, Tensor(np.zeros((2, 4))))

    def test_attention_mask_gives_exact_zeros(self):
        # one head, two queries that score keys 0 and 2 alike; key 1 masked
        q = Tensor(np.array([[[1.0], [0.0]]]))
        k = Tensor(np.array([[[1.0], [50.0], [1.0]]]))
        v = Tensor(np.array([[[2.0], [9.0], [4.0]]]))
        out, weights = attention(q, k, v, Tensor(np.eye(1)), mask=np.array([0.0, -np.inf, 0.0]))
        np.testing.assert_array_equal(weights, [[[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]]])
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])
        with pytest.raises(ShapeError):
            attention(q, k, v, Tensor(np.eye(1)), mask=np.zeros(2))
        with pytest.raises(ShapeError):
            attention(q, k, T.index(v, (slice(None), slice(0, 2))), Tensor(np.eye(1)))

    def test_index(self):
        a = Tensor(np.arange(12.0).reshape(2, 3, 2))
        np.testing.assert_array_equal(T.index(a, (1, slice(0, 2))).data, a.data[1, :2])
        for key in ((2,), (0, slice(1, 1)), (0, slice(0, 4)), (0, 0, 0, 0)):
            with pytest.raises(ShapeError):
                T.index(a, key)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_half_sum_sq_gives_x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(T.scale(sum_sq(x), 0.5))
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-15)

    def test_accumulation_until_zeroed(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        backward(T.sum_all(x))
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        x.grad = None
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ContractError):
            backward(T.scale(x, 2.0))

    def test_untracked_loss_rejected(self):
        with pytest.raises(ContractError):
            backward(T.sum_all(Tensor([1.0, 2.0])))

    def test_diamond_graph(self):
        # y = sum(x*x + x*x): both branches contribute
        x = Tensor([1.0, 2.0], requires_grad=True)
        p = T.mul(x, x)
        backward(T.sum_all(T.add(p, p)))
        np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-15)

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(T.sum_all(T.mul(x.detach(), x)))
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-15)

    def test_two_layer_composition_matches_fd(self):
        rng = np.random.default_rng(7)
        w1 = Tensor(rng.standard_normal((4, 5)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((5, 3)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((2, 4)))

        def loss_of_w1(w):
            return sum_sq(T.softmax(T.matmul(relu(T.matmul(x, w)), w2)))

        def loss_of_w2(w):
            return sum_sq(T.softmax(T.matmul(relu(T.matmul(x, w1)), w)))

        assert grad_check(loss_of_w1, w1) <= 1e-5
        assert grad_check(loss_of_w2, w2) <= 1e-5


def _fd_cases(rng):
    """One scalar-valued composition per op, at well-scaled random inputs,
    as name -> (function, the tensor it is differentiated by)."""
    m = rand_tensor(rng, (3, 4))
    ids = rng.integers(0, 3, size=5)
    cols = rng.integers(0, 4, size=3)
    # fixed operands kept away from zero so gradient coordinates stay O(1)
    def away_from_zero(shape):
        return Tensor(rng.choice([-1.0, 1.0], size=shape) * (0.5 + np.abs(rng.standard_normal(shape))))

    other = away_from_zero((3, 4))
    right = away_from_zero((4, 2))
    bias = Tensor(rng.standard_normal(2))
    # a gain away from 1 and a nonzero shift, so the affine is exercised
    gain = Tensor(away_from_zero(4).data + 1.0, requires_grad=True)
    shift = Tensor(away_from_zero(4).data, requires_grad=True)

    def affine_layer_norm(t, g, b):
        return sum_sq(T.mul(T.layer_norm(t, gain=g, bias=b), other))

    def unit_layer_norm(t):
        return T.layer_norm(t, gain=Tensor(np.ones(4)), bias=Tensor(np.zeros(4)))

    cases = {
        "matmul": lambda t: sum_sq(T.matmul(t, right)),
        "add": lambda t: sum_sq(T.add(t, other)),
        "mul": lambda t: sum_sq(T.mul(t, other)),
        "scale": lambda t: sum_sq(T.scale(t, -1.7)),
        "log": lambda t: sum_sq(T.log(T.add(T.mul(t, t), 0.5))),
        "relu": lambda t: sum_sq(relu(t)),
        "softmax": lambda t: sum_sq(T.softmax(t)),
        "log_softmax": lambda t: sum_sq(T.log_softmax(t)),
        "layer_norm": lambda t: sum_sq(T.mul(unit_layer_norm(t), other)),
        "embedding": lambda t: sum_sq(T.embedding_lookup(t, ids)),
        "concat": lambda t: sum_sq(
            T.concat([T.index(t, slice(0, 2)), T.index(t, slice(2, 3))])
        ),
        "index": lambda t: sum_sq(T.index(t, (slice(None), slice(1, 3)))),
        "index_row": lambda t: sum_sq(T.mul(T.index(t, 1), T.index(other, 2))),
        "scale_array": lambda t: sum_sq(T.scale(t, other.data[0])),
        "mean": lambda t: T.mul(T.mean(t), T.mean(t)),
        "sum": lambda t: T.mul(T.sum_all(t), T.mean(t)),
        "mul_self": lambda t: sum_sq(t),
        "pick": lambda t: sum_sq(T.pick(t, cols)),
        "mix": lambda t: T.mean(relu(T.add(T.matmul(unit_layer_norm(t), right), bias))),
    }
    cases = {name: (f, m) for name, f in cases.items()}

    # stacks: leading item and head axes
    s3 = rand_tensor(rng, (2, 3, 4))
    fixed3 = away_from_zero((2, 3, 4))
    other_stack = away_from_zero((2, 4, 2))
    row = rand_tensor(rng, (4,))
    nd_ids = rng.integers(0, 3, size=(2, 5))
    nd_cols = rng.integers(0, 4, size=(2, 3))
    rows_weight = away_from_zero((2, 5, 4))
    cases.update({
        "matmul_stack_by_weight": (lambda t: sum_sq(T.matmul(t, right)), s3),
        "matmul_stack_by_weight_w": (lambda w: sum_sq(T.matmul(fixed3, w)),
                                     Tensor(right.data, requires_grad=True)),
        "matmul_stacks_left": (lambda t: sum_sq(T.matmul(t, other_stack)), s3),
        "matmul_stacks_right": (lambda t: sum_sq(T.matmul(fixed3, t)),
                                Tensor(other_stack.data, requires_grad=True)),
        "add_suffix_row": (lambda b: sum_sq(T.add(fixed3, b)), row),
        "add_suffix_matrix": (lambda t: sum_sq(T.add(fixed3, t)), m),
        "embedding_nd": (lambda t: sum_sq(T.mul(T.embedding_lookup(t, nd_ids), rows_weight)), m),
        "pick_nd": (lambda t: sum_sq(T.pick(t, nd_cols)), s3),
    })
    cases.update(_attention_fd_cases(rng, away_from_zero))
    # the affine layer norm, differentiated by its input, gain and bias
    cases["layer_norm_affine_input"] = (lambda t: affine_layer_norm(t, gain, shift), m)
    cases["layer_norm_affine_gain"] = (lambda g: affine_layer_norm(m, g, shift), gain)
    cases["layer_norm_affine_bias"] = (lambda b: affine_layer_norm(m, gain, b), shift)
    # the feed-forward sublayer of one item and of a stack of two, each
    # differentiated by its input, its first weight and its last bias;
    # weights scaled by about 1/sqrt(fan-in) and a loss linear in the
    # output keep the loss O(1), so the round-off of a central difference
    # stays far below a gradient coordinate
    ffn = [rand_tensor(rng, shape, scale) for shape, scale in (((4, 5), 0.5), ((5,), 1.0),
                                                               ((5, 3), 0.5), ((3,), 1.0))]
    for tag, x in (("", rand_tensor(rng, (3, 4))), ("_stack", rand_tensor(rng, (2, 3, 4)))):
        args = [x, *ffn]
        weight = away_from_zero((*x.shape[:-1], 3))
        for i, name in ((0, "x"), (1, "w1"), (4, "b2")):
            def f(t, i=i, args=args, weight=weight):
                return T.sum_all(T.mul(feed_forward(*args[:i], t, *args[i + 1:]), weight))

            cases[f"feed_forward{tag}_{name}"] = (f, args[i])
    # the three sublayer ops, each differentiated by every operand, on a
    # stack of two items of three rows of width 4 and two heads under a
    # key mask, plus causal self-attention of two rows that continue two
    # earlier positions; scaled weights and a linear loss, as for the
    # feed-forward rows
    def norm():
        return [Tensor(away_from_zero(4).data * 0.25 + 1.0, requires_grad=True), rand_tensor(rng, (4,), 0.5)]

    key_mask = np.zeros((2, 1, 1, 3))
    key_mask[1, ..., -1] = -np.inf  # item 1 is padded by a key
    self_args = [rand_tensor(rng, (2, 3, 4), 0.5), *norm(), *(rand_tensor(rng, (4, 4), 0.3) for _ in range(4))]
    rows_args = [rand_tensor(rng, (1, 2, 4), 0.5), *self_args[1:]]
    causal = np.triu(np.full((2, 4), -np.inf), k=3)
    past = tuple(rng.standard_normal((1, 2, 2, 2)) * 0.5 for _ in range(2))
    cross_args = [rand_tensor(rng, (2, 3, 4), 0.5), *norm(), rand_tensor(rng, (4, 4), 0.3),
                  rand_tensor(rng, (2, 2, 3, 2), 0.5), rand_tensor(rng, (2, 2, 3, 2), 0.5), rand_tensor(rng, (4, 4), 0.3)]
    ffn_args = [rand_tensor(rng, (2, 3, 4), 0.5), *norm(), rand_tensor(rng, (4, 5), 0.5), rand_tensor(rng, (5,)),
                rand_tensor(rng, (5, 4), 0.5), rand_tensor(rng, (4,))]
    attend = ("x", "gain", "bias", "wq", "wk", "wv", "wo")
    sublayers = {
        "self_attention_sublayer": (attend, self_args,
                                    lambda *a: T.self_attention_sublayer(*a, 2, key_mask, None)[0]),
        "self_attention_sublayer_past": (attend, rows_args,
                                         lambda *a: T.self_attention_sublayer(*a, 2, causal, past)[0]),
        "cross_attention_sublayer": (("x", "gain", "bias", "wq", "k", "v", "wo"), cross_args,
                                     lambda *a: T.cross_attention_sublayer(*a, key_mask)[0]),
        "feed_forward_sublayer": (("x", "gain", "bias", "w1", "b1", "w2", "b2"), ffn_args,
                                  T.feed_forward_sublayer),
    }
    weights = {op: away_from_zero(args[0].shape) for op, (_, args, _) in sublayers.items()}
    # one row, a one-item decode step, whose norm statistics take the
    # one-row path: the first row of a stacked case alone, with its row of
    # the loss weights, for the feed-forward sublayer and the affine norm
    ffn_row = [Tensor(ffn_args[0].data[:1, :1], requires_grad=True), *ffn_args[1:]]
    sublayers["feed_forward_sublayer_row"] = (sublayers["feed_forward_sublayer"][0], ffn_row, T.feed_forward_sublayer)
    weights["feed_forward_sublayer_row"] = Tensor(weights["feed_forward_sublayer"].data[:1, :1])
    for op, (names, args, build) in sublayers.items():
        for i, name in enumerate(names):
            def f(t, i=i, args=args, build=build, weight=weights[op]):
                return T.sum_all(T.mul(build(*args[:i], t, *args[i + 1:]), weight))

            cases[f"{op}_{name}"] = (f, args[i])
    one_row, one_row_weight = Tensor(m.data[None, :1], requires_grad=True), Tensor(other.data[None, :1])

    def row_layer_norm(t, g, b):
        return sum_sq(T.mul(T.layer_norm(t, gain=g, bias=b), one_row_weight))

    # a read-only table added to a stack, as the position encodings are
    table = rng.standard_normal((3, 4))
    table.flags.writeable = False
    cases["add_constant_table"] = (lambda t: sum_sq(T.add(t, T.constant(table))), s3)
    cases["layer_norm_row_input"] = (lambda t: row_layer_norm(t, gain, shift), one_row)
    cases["layer_norm_row_gain"] = (lambda g: row_layer_norm(one_row, g, shift), gain)
    cases["layer_norm_row_bias"] = (lambda b: row_layer_norm(one_row, gain, b), shift)
    return cases


def _attention_fd_cases(rng, away_from_zero):
    """``project_heads`` and ``attention``, each differentiated by every
    input: a padded stack of two items under a key mask with padded query
    rows, a one-row ``(1, 1)`` decode step, and unbatched 3-D heads."""
    def fused(q, k, v, wo, mask, weight):
        return sum_sq(T.mul(attention(q, k, v, wo, mask)[0], weight))

    cases = {}
    x, w = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (4, 4))
    heads_weight = away_from_zero((2, 2, 3, 2))
    cases["project_heads"] = (lambda t: sum_sq(T.mul(T.project_heads(t, w, 2), heads_weight)), x)
    cases["project_heads_w"] = (lambda t: sum_sq(T.mul(T.project_heads(x, t, 2), heads_weight)), w)
    row = rand_tensor(rng, (1, 1, 4))
    row_weight = away_from_zero((1, 2, 1, 2))
    cases["project_heads_decode_row"] = (lambda t: sum_sq(T.mul(T.project_heads(row, t, 2), row_weight)), w)
    flat, flat_weight = rand_tensor(rng, (3, 4)), away_from_zero((2, 3, 2))
    cases["project_heads_unbatched"] = (lambda t: sum_sq(T.mul(T.project_heads(t, w, 2), flat_weight)), flat)

    # (items, heads, positions, dh): item 1's last query row is padding,
    # weighted 0 like a padded row of a loss
    key_mask = np.where(rng.random((2, 1, 1, 4)) < 0.3, -np.inf, 0.0)
    key_mask[..., 0] = 0.0  # every query keeps a key
    key_mask[1, ..., -1] = -np.inf  # item 1 is padded by a key
    shapes = {"": ((2, 2, 3, 2), (2, 2, 4, 2), key_mask),
              "_decode": ((1, 2, 1, 2), (1, 2, 4, 2), None),
              "_unbatched": ((2, 3, 2), (2, 4, 2), None)}
    for tag, (q_shape, kv_shape, mask) in shapes.items():
        args = [rand_tensor(rng, q_shape), rand_tensor(rng, kv_shape), rand_tensor(rng, kv_shape),
                rand_tensor(rng, (4, 4))]
        out_shape = (*q_shape[:-3], q_shape[-2], 4)
        weight = away_from_zero(out_shape)
        if tag == "":
            weight.data[1, -1] = 0.0
        for i, name in enumerate(("q", "k", "v", "wo")):
            def f(t, i=i, args=args, mask=mask, weight=weight):
                return fused(*args[:i], t, *args[i + 1:], mask, weight)

            cases[f"attention{tag}_{name}"] = (f, args[i])
    return cases


@pytest.mark.parametrize("seed", range(100))
def test_every_op_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, (f, x) in _fd_cases(rng).items():
        err = grad_check(f, x)
        assert err <= 1e-5, f"{name}: rel err {err:.3e}"


@st.composite
def attention_cases(draw):
    """Inputs of one attention sublayer: self-attention or cross-attention
    into a memory, over a padded stack of items or one unbatched item,
    under no mask, a key mask or a causal mask, with a cotangent for the
    output."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    heads, dh = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    d, width = heads * dh, draw(st.integers(1, 4))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,))))
    t_q = draw(st.integers(1, 4))
    cross = draw(st.booleans())
    t_k = draw(st.integers(1, 5)) if cross else t_q
    x = Tensor(rng.standard_normal((*lead, t_q, width)), requires_grad=True)
    memory = Tensor(rng.standard_normal((*lead, t_k, width)), requires_grad=True) if cross else x
    w = [Tensor(rng.standard_normal(shape), requires_grad=True)
         for shape in ((width, d), (width, d), (width, d), (d, width))]
    mask = None
    kind = draw(st.sampled_from(("none", "keys", "causal")))
    if kind == "keys" and lead:
        lengths = rng.integers(1, t_k + 1, size=lead)
        mask = np.where(np.arange(t_k) < lengths[:, None], 0.0, -np.inf)[:, None, None, :]
    elif kind == "causal" and not cross:
        mask = np.triu(np.full((t_q, t_k), -np.inf), k=1)
    return x, memory, w, heads, mask, rng.standard_normal((*lead, t_q, width))


def _attention_grads(build, x, memory, w, cotangent):
    """The output, weights and input gradients of one sublayer."""
    inputs = [x, memory, *w] if memory is not x else [x, *w]
    for t in inputs:
        t.grad = None
    out, weights = build()
    backward(T.sum_all(T.mul(out, Tensor(cotangent))))
    return [out.data, weights] + [t.grad for t in inputs]


@settings(max_examples=200, deadline=None)
@given(attention_cases())
def test_fused_attention_equals_the_single_op_chain_bit_for_bit(case):
    x, memory, w, heads, mask, cotangent = case
    wq, wk, wv, wo = w

    def fused():
        q, k, v = (T.project_heads(src, p, heads) for src, p in ((x, wq), (memory, wk), (memory, wv)))
        return attention(q, k, v, wo, mask)

    got = _attention_grads(fused, x, memory, w, cotangent)
    want = _attention_grads(lambda: reference_attention(x, memory, *w, heads, mask), x, memory, w, cotangent)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def embedding_cases(draw):
    """A table, ids of one to three axes with repeated rows, and a
    cotangent for the lookup holding +0.0, -0.0 and maybe a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from(((1,), (6,), (2, 3), (2, 2, 3))))
    ids = rng.integers(0, rows, size=shape)
    cotangent = rng.standard_normal((*shape, width))
    flat = cotangent.reshape(-1)
    for value in (0.0, -0.0, np.nan)[: draw(st.integers(0, 3))]:
        flat[draw(st.integers(0, flat.size - 1))] = value
    if draw(st.booleans()):  # a cell summed only from -0.0
        cotangent[ids == ids.flat[0]] = -0.0
    return Tensor(rng.standard_normal((rows, width)), requires_grad=True), ids, cotangent


@settings(max_examples=200, deadline=None)
@given(embedding_cases())
def test_embedding_backward_scatters_as_add_at_bit_for_bit(case):
    table, ids, cotangent = case
    (got,) = T.embedding_lookup(table, ids)._backward(cotangent)
    want = np.zeros_like(table.data)
    np.add.at(want, ids, cotangent)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# values at the edges of float64: both infinities, NaN, both zeros, the
# smallest and largest subnormals, and values near 1e-300 and 1e+300
EDGE_VALUES = (np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
               1e300, -1e300, 1.7976931348623157e308)


@st.composite
def norm_row_cases(draw):
    """One row of width 1 to 5 that may hold any float64, edge values
    included, in the shape of an unbatched row, a one-row item or a
    one-item decode step; a stack of two or three rows holding it, whose
    other rows are moderate values that raise no warning; a gain and a
    bias; and a cotangent per stack row."""
    n = draw(st.integers(1, 5))
    moderate = st.floats(-10.0, 10.0)
    row = draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(), moderate), min_size=n, max_size=n))
    rows = draw(st.integers(2, 3))
    stack = np.array([draw(st.lists(moderate, min_size=n, max_size=n)) for _ in range(rows)])
    at = draw(st.integers(0, rows - 1))
    stack[at] = row
    gain, bias, cotangent = (np.array(draw(st.lists(moderate, min_size=size, max_size=size))).reshape(-1, n)
                             for size in (n, n, rows * n))
    shape = draw(st.sampled_from(((n,), (1, n), (1, 1, n))))
    return stack, at, shape, gain[0], bias[0], cotangent


def _norm_results(x, gain, bias, cotangent):
    """The ``layer_norm`` output and input gradient of ``x``, and the
    category and text of every warning the two raised."""
    t = Tensor(x, requires_grad=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = T.layer_norm(t, Tensor(gain), Tensor(bias))
        grad = out._backward(cotangent)[0]
    return out.data, grad, [(w.category, str(w.message)) for w in caught]


def _same_bits_but_nan_signs(got, want):
    """Equal bytes at every position that is not NaN in either, and NaN at
    the same positions: a NaN's sign bit follows numpy's multiply kernel,
    not the arithmetic."""
    nan = np.isnan(want)
    assert got.shape == want.shape and (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@settings(max_examples=500, deadline=None)
@given(norm_row_cases())
def test_one_row_normalises_as_its_row_in_a_stack(case):
    """The one-row statistics give the stacked path's bits: output and
    input gradient, with the same warnings."""
    stack, at, shape, gain, bias, cotangent = case
    want = _norm_results(stack, gain, bias, cotangent)
    got = _norm_results(stack[at].reshape(shape), gain, bias, cotangent[at].reshape(shape))
    for g, w in zip(got[:2], want[:2]):
        _same_bits_but_nan_signs(g, w[at].reshape(shape))
    assert got[2] == want[2]


@st.composite
def feed_forward_cases(draw):
    """Inputs of one feed-forward sublayer: one item, a stack of items or
    a one-row decode step, with some hidden units whose pre-activation is
    exactly zero (a zero column of ``w1`` and a bias of 0.0 or -0.0),
    maybe a NaN input, a cotangent for the output, and whether the weight
    products give their zeros as -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,))))
    t = draw(st.integers(1, 4))
    d, f, m = (draw(st.integers(1, 4)) for _ in range(3))
    x = rng.standard_normal((*lead, t, d))
    w1, b1 = rng.standard_normal((d, f)), rng.standard_normal(f)
    for j in draw(st.sets(st.integers(0, f - 1))):
        w1[:, j] = 0.0
        b1[j] = draw(st.sampled_from((0.0, -0.0)))
    if draw(st.booleans()):
        x.reshape(-1)[draw(st.integers(0, x.size - 1))] = np.nan
    params = (x, w1, b1, rng.standard_normal((f, m)), rng.standard_normal(m))
    inputs = [Tensor(p, requires_grad=True) for p in params]
    return inputs, rng.standard_normal((*lead, t, m)), draw(st.booleans())


def _negative_zero_products(mp):
    """Make every weight product give its zeros as -0.0, in every path
    alike: numpy's matmul sums from +0.0, so ``x @ w1 + b1`` is never
    -0.0, and only such a product lets a -0.0 bias reach the relu as a
    -0.0 pre-activation."""
    by_weight = T._by_weight

    def negative_zero_product(a, w):
        y = by_weight(a, w)
        return np.where(y == 0.0, -0.0, y)

    mp.setattr(T, "_by_weight", negative_zero_product)


@settings(max_examples=200, deadline=None)
@given(feed_forward_cases())
def test_fused_feed_forward_equals_the_single_op_chain_bit_for_bit(case):
    inputs, cotangent, negative_zeros = case
    results = []
    with pytest.MonkeyPatch.context() as mp:
        if negative_zeros:
            _negative_zero_products(mp)
        for build in (feed_forward, reference_feed_forward):
            for p in inputs:
                p.grad = None
            out = build(*inputs)
            backward(T.sum_all(T.mul(out, Tensor(cotangent))))
            results.append([out.data] + [p.grad for p in inputs])
    for a, b in zip(*results):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def _no_product(monkeypatch):
    """Make every weight product and norm fail, so a test sees whether an
    op checked its operands before computing anything."""
    def fail(*args):
        raise AssertionError("a product ran before the shapes were checked")

    monkeypatch.setattr(T, "_by_weight", fail)
    monkeypatch.setattr(T, "_layer_norm_rows", fail)


@pytest.mark.parametrize("operand, shape", [
    ("x", (3,)), ("w1", (3, 5)), ("b1", (4,)), ("b1", (1, 5)),
    ("w2", (4, 3)), ("b2", (2,)), ("b2", (1, 3)),
    ("gain", (3,)), ("bias", (1, 4)), ("w2", (5, 3)),
])
def test_feed_forward_refuses_a_mismatched_operand_before_any_product(operand, shape, monkeypatch):
    shapes = {"x": (2, 3, 4), "gain": (4,), "bias": (4,), "w1": (4, 5), "b1": (5,), "w2": (5, 4), "b2": (4,)}
    shapes[operand] = shape
    _no_product(monkeypatch)
    with pytest.raises(ShapeError, match="feed_forward_sublayer"):
        T.feed_forward_sublayer(*(Tensor(np.ones(s)) for s in shapes.values()))


# operands of a self-attention and a cross-attention sublayer of three
# heads of width 2 over a stack of two items of three rows of width 4,
# the cross-attention one into five keys; then refused replacements
SELF_SHAPES = {"x": (2, 3, 4), "gain": (4,), "bias": (4,), "wq": (4, 6), "wk": (4, 6), "wv": (4, 6), "wo": (6, 4)}
CROSS_SHAPES = {"x": (2, 3, 4), "gain": (4,), "bias": (4,), "wq": (4, 6), "k": (2, 3, 5, 2), "v": (2, 3, 5, 2),
                "wo": (6, 4)}


@pytest.mark.parametrize("change", [
    {"x": (3,)}, {"gain": (3,)}, {"bias": (1, 4)}, {"wq": (3, 6)}, {"wk": (4, 3)}, {"wv": (6,)},
    {"wo": (6, 3)}, {"wo": (4, 4)}, {"heads": 4}, {"heads": 0}, {"mask": (2, 1, 1, 4)},
    {"past": ((2, 3, 1, 2), (2, 3, 2, 2))}, {"past": ((1, 3, 1, 2),) * 2}, {"past": ((2, 2, 1, 3),) * 2},
], ids=repr)
def test_self_attention_refuses_a_mismatched_operand_before_any_product(change, monkeypatch):
    shapes = dict(SELF_SHAPES, **{k: v for k, v in change.items() if k in SELF_SHAPES})
    past = change.get("past")
    past = None if past is None else tuple(np.ones(s) for s in past)
    mask = np.zeros(change["mask"]) if "mask" in change else np.zeros((2, 1, 1, 3))
    _no_product(monkeypatch)
    with pytest.raises(ShapeError, match="self_attention_sublayer"):
        T.self_attention_sublayer(*(Tensor(np.ones(s)) for s in shapes.values()), change.get("heads", 3), mask, past)


@pytest.mark.parametrize("change", [
    {"x": (3, 4, 4)}, {"x": (3,)}, {"gain": (5,)}, {"bias": (4, 1)}, {"wq": (4, 5)}, {"wq": (3, 6)},
    {"k": (2, 3, 5, 3)}, {"v": (2, 3, 4, 2)}, {"k": (3, 5, 2), "v": (3, 5, 2)},
    {"k": (3, 3, 5, 2), "v": (3, 3, 5, 2)}, {"wo": (6, 5)}, {"wo": (5, 4)}, {"mask": (2, 1, 1, 4)},
], ids=repr)
def test_cross_attention_refuses_a_mismatched_operand_before_any_product(change, monkeypatch):
    shapes = dict(CROSS_SHAPES, **{k: v for k, v in change.items() if k in CROSS_SHAPES})
    mask = np.zeros(change.get("mask", (2, 1, 1, 5)))
    _no_product(monkeypatch)
    with pytest.raises(ShapeError, match="cross_attention_sublayer"):
        T.cross_attention_sublayer(*(Tensor(np.ones(s)) for s in shapes.values()), mask)


@st.composite
def sublayer_inputs(draw):
    """What every sublayer op takes: an input of one row or of a stack of
    one to three items of up to four rows, maybe holding a NaN; its norm's
    gain and bias; a number of heads and their width; and three
    cotangents for the input's consumers."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    lead = draw(st.sampled_from(((), (1,), (2,), (3,))))
    x = rng.standard_normal((*lead, draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    if draw(st.booleans()):
        x.reshape(-1)[draw(st.integers(0, x.size - 1))] = np.nan
    d = x.shape[-1]
    norm = [Tensor(rng.standard_normal(d) + 1.0, requires_grad=True), Tensor(rng.standard_normal(d), requires_grad=True)]
    heads, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return rng, Tensor(x, requires_grad=True), norm, heads, width, [rng.standard_normal(x.shape) for _ in range(3)]


def _key_mask(rng, lead, keys):
    """A mask hiding each item's padded keys, or None for one unpadded
    item."""
    if not lead:
        return None
    lengths = rng.integers(1, keys + 1, size=lead)
    return np.where(np.arange(keys) < lengths[..., None], 0.0, -np.inf)[..., None, None, :]


def _sublayer_results(build, x0, leaves, cotangents):
    """The op's output and other results, then the gradient of ``x0`` and
    of each of ``leaves``, from a loss in which the op's input is also
    read by one node built before the op and one built after it, so that
    its gradient gathers from three consumers; no gradients when the tape
    is not recording."""
    for p in (x0, *leaves):
        p.grad = None
    x = T.scale(x0, 1.0)
    before = T.mul(x, Tensor(cotangents[1]))
    out, *extra = build(x)
    after = T.mul(x, Tensor(cotangents[2]))
    loss = T.add(T.add(T.sum_all(T.mul(out, Tensor(cotangents[0]))), T.sum_all(before)), T.sum_all(after))
    if loss.requires_grad:
        backward(loss)
    return [out.data, *(e.data if isinstance(e, Tensor) else e for e in extra),
            *(p.grad for p in (x0, *leaves))]


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None and b is None) or (a.shape == b.shape and a.tobytes() == b.tobytes())


def _after(past: np.ndarray, k: Tensor) -> Tensor:
    """The constant ``past`` then ``k`` along the positions axis, one node,
    as the chain joined cached keys and values to a call's own."""
    seen = past.shape[-2]
    return T._node(np.concatenate([past, k.data], axis=-2), (k,), lambda g: (g[..., seen:, :],))


@settings(max_examples=200, deadline=None)
@given(sublayer_inputs(), st.data())
def test_self_attention_sublayer_equals_the_op_chain_bit_for_bit(inputs, data):
    """Against ``layer_norm``, one ``project_heads`` per projection, a
    join after any earlier keys and values, ``attention`` and ``add``,
    recording or not, under no mask, a padded-key mask or a causal
    mask."""
    rng, x0, norm, heads, width, cotangents = inputs
    *lead, t, d = x0.shape
    seen = data.draw(st.integers(0, 3))
    past = tuple(rng.standard_normal((*lead, heads, seen, width)) for _ in range(2)) if seen else None
    kind = data.draw(st.sampled_from(("none", "keys", "causal")))
    mask = {"none": None, "keys": _key_mask(rng, tuple(lead), seen + t),
            "causal": np.triu(np.full((t, seen + t), -np.inf), k=seen + 1)}[kind]
    w = [Tensor(rng.standard_normal(shape), requires_grad=True)
         for shape in ((d, heads * width),) * 3 + ((heads * width, d),)]

    def reference(x):
        n = T.layer_norm(x, *norm)
        q, k, v = (T.project_heads(n, p, heads) for p in w[:3])
        if past is not None:
            k, v = _after(past[0], k), _after(past[1], v)
        out, _ = attention(q, k, v, w[3], mask)
        return T.add(x, out), k, v

    with T.no_grad() if data.draw(st.booleans()) else contextlib.nullcontext():
        got = _sublayer_results(lambda x: T.self_attention_sublayer(x, *norm, *w, heads, mask, past),
                                x0, [*norm, *w], cotangents)
        want = _sublayer_results(reference, x0, [*norm, *w], cotangents)
    _same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(sublayer_inputs(), st.data())
def test_cross_attention_sublayer_equals_the_op_chain_bit_for_bit(inputs, data):
    """Against ``layer_norm``, ``project_heads``, ``attention`` and
    ``add``, under no mask or a padded-key mask, the attention weights
    included."""
    rng, x0, norm, heads, width, cotangents = inputs
    *lead, t, d = x0.shape
    keys = data.draw(st.integers(1, 5))
    mask = _key_mask(rng, tuple(lead), keys) if data.draw(st.booleans()) else None
    kv = [Tensor(rng.standard_normal((*lead, heads, keys, width)), requires_grad=True) for _ in range(2)]
    wq, wo = (Tensor(rng.standard_normal(shape), requires_grad=True)
              for shape in ((d, heads * width), (heads * width, d)))

    def reference(x):
        out, weights = attention(T.project_heads(T.layer_norm(x, *norm), wq, heads), *kv, wo, mask)
        return T.add(x, out), weights

    leaves = [*norm, wq, *kv, wo]
    got = _sublayer_results(lambda x: T.cross_attention_sublayer(x, *norm, wq, *kv, wo, mask), x0, leaves,
                            cotangents)
    _same_bits(got, _sublayer_results(reference, x0, leaves, cotangents))


@settings(max_examples=200, deadline=None)
@given(sublayer_inputs(), st.integers(1, 4), st.data())
def test_feed_forward_sublayer_equals_the_op_chain_bit_for_bit(inputs, hidden, data):
    """Against ``layer_norm``, the single-op chain of a feed-forward net
    (``reference_feed_forward``, whose relu reads its mask from the
    pre-activations) and ``add``.  Some hidden units get a pre-activation
    of exactly +0.0, -0.0 or NaN at every row: a zero column of ``w1``
    plus a bias of 0.0, -0.0 or NaN, with the weight products giving
    their zeros as -0.0 or not."""
    rng, x0, norm, _, _, cotangents = inputs
    d = x0.shape[-1]
    ffn = [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((d, hidden), (hidden,), (hidden, d), (d,))]
    for j in data.draw(st.sets(st.integers(0, hidden - 1))):
        ffn[0].data[:, j] = 0.0
        ffn[1].data[j] = data.draw(st.sampled_from((0.0, -0.0, np.nan)))

    def reference(x):
        return (T.add(x, reference_feed_forward(T.layer_norm(x, *norm), *ffn)),)

    leaves = [*norm, *ffn]
    with pytest.MonkeyPatch.context() as mp:
        if data.draw(st.booleans()):
            _negative_zero_products(mp)
        got = _sublayer_results(lambda x: (T.feed_forward_sublayer(x, *norm, *ffn),), x0, leaves, cotangents)
        _same_bits(got, _sublayer_results(reference, x0, leaves, cotangents))


@pytest.mark.parametrize("seed", range(20))
def test_bias_row_gradient(seed):
    rng = np.random.default_rng(seed)
    mat = Tensor(rng.standard_normal((3, 4)))
    bias = rand_tensor(rng, (4,))
    assert grad_check(lambda b: sum_sq(T.add(mat, b)), bias) <= 1e-5


def test_grad_check_exact_for_linear():
    rng = np.random.default_rng(3)
    x = rand_tensor(rng, (4,))
    assert grad_check(T.sum_all, x) <= 1e-10


def test_finite_differences_restores_a_parameter_when_the_objective_raises():
    # the -FD_STEP probe of the first coordinate leaves log's domain
    x = Tensor([5e-6, 1.0], requires_grad=True)
    before = x.data.tobytes()
    with pytest.raises(DomainError):
        grad_check(lambda t: T.sum_all(T.log(t)), x)
    assert x.data.tobytes() == before


def _on_cpus(monkeypatch, n):
    """``finite_differences`` as if this process could run on n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cubes_with_one_wrong_gradient(a, b, calls):
    """(sum a^3 + sum b^3) / 3, whose rule is wrong at b[30]; each call in
    this process appends to ``calls``."""
    def f():
        calls.append(None)
        value = (np.sum(a.data ** 3) + np.sum(b.data ** 3)) / 3.0

        def bwd(g):
            gb = b.data ** 2 * g
            gb[30] *= 1.001
            return a.data ** 2 * g, gb

        return T.custom_op(value, (a, b), bwd)

    return f


@pytest.mark.parametrize("fork", ["forks", "cannot fork"])
def test_a_split_scan_gives_the_result_of_one_share(fork, monkeypatch):
    # 3 FD_MIN_SHARE coordinates on two CPUs make two shares, cut inside
    # a; the wrong coordinate lies in b, in the share after the first
    rng = np.random.default_rng(5)
    a, b = rand_tensor(rng, (2 * T.FD_MIN_SHARE,)), rand_tensor(rng, (T.FD_MIN_SHARE,))
    n = a.size + b.size
    calls = []
    _on_cpus(monkeypatch, 1)
    one_share = T.finite_differences(_cubes_with_one_wrong_gradient(a, b, calls), [a, b])
    assert len(calls) == 1 + 2 * n
    if fork == "cannot fork":
        def no_fork():
            raise OSError("no fork")

        monkeypatch.setattr(os, "fork", no_fork)
    _on_cpus(monkeypatch, 2)
    calls.clear()
    split = T.finite_differences(_cubes_with_one_wrong_gradient(a, b, calls), [a, b])
    assert split == one_share and split[1:] == (1, 30, n) and split[0] > 1e-4
    # the analytic pass and the first share ran here, the rest in a child
    # unless none could be forked
    assert len(calls) == 1 + 2 * (n if fork == "cannot fork" else n // 2)
    _no_child_left()


@pytest.mark.parametrize("at", [5, -5])
def test_a_split_scan_raises_what_one_share_raises(at, monkeypatch):
    # the -FD_STEP probe of x[at] leaves log's domain, in the first share
    # or in a child's
    x = Tensor(np.full(3 * T.FD_MIN_SHARE, 2.0), requires_grad=True)
    x.data[at] = 5e-6
    before = x.data.tobytes()
    raised = []
    for cpus in (1, 2):
        _on_cpus(monkeypatch, cpus)
        with pytest.raises(DomainError) as info:
            grad_check(lambda t: T.sum_all(T.log(t)), x)
        raised.append((type(info.value), str(info.value)))
        assert x.data.tobytes() == before
        _no_child_left()
    assert raised[0] == raised[1]


def test_tape_orders_by_execution():
    x = Tensor([1.0], requires_grad=True)
    a = T.scale(x, 2.0)
    b = relu(a)
    tape = T.Tape(b)
    assert [n._serial for n in tape.nodes] == sorted(n._serial for n in tape.nodes)
    assert tape.nodes[-1] is b


class TestNoGrad:
    def test_every_op_builds_untracked_results_with_the_same_values(self):
        rng = np.random.default_rng(5)
        for name, (f, x) in _fd_cases(rng).items():
            tracked = f(x)
            with T.no_grad():
                out = f(x)
            assert not out.requires_grad, name
            assert out._parents == () and out._backward is None, name
            np.testing.assert_array_equal(out.data, tracked.data, err_msg=name)

    def test_backward_on_an_untracked_result_raises_and_leaves_grads_alone(self):
        rng = np.random.default_rng(6)
        a, b = rand_tensor(rng, (2, 3)), rand_tensor(rng, (3, 2))
        with T.no_grad():
            loss = sum_sq(T.softmax(T.matmul(a, b)))
        with pytest.raises(ContractError):
            backward(loss)
        assert a.grad is None and b.grad is None

    def test_nesting_restores_each_outer_mode(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not relu(x).requires_grad
            assert not relu(x).requires_grad
        assert relu(x).requires_grad

    def test_mode_restored_after_an_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(DomainError):
            with T.no_grad():
                T.log(Tensor([-1.0]))
        assert relu(x).requires_grad

    def test_decorator_form_applies_per_call(self):
        x = Tensor([1.0], requires_grad=True)

        @T.no_grad()
        def untracked_relu(t):
            return relu(t)

        for _ in range(2):
            assert not untracked_relu(x).requires_grad
            assert relu(x).requires_grad
