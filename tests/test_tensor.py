import numpy as np
import pytest

from oracle_distill import tensor as T
from oracle_distill.errors import ContractError, DomainError, ShapeError
from oracle_distill.tensor import Tensor, backward, grad_check


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
        assert T.sum_sq(Tensor([3.0, 4.0])).item() == 25.0

    def test_layer_norm_constant_vector_is_zero(self):
        out = T.layer_norm(Tensor([2.5, 2.5, 2.5, 2.5]))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_layer_norm_default_affine_is_bit_identical(self):
        x = Tensor(np.random.default_rng(2).standard_normal((3, 5)))
        plain = T.layer_norm(x).data
        ones, zeros = Tensor(np.ones(5)), Tensor(np.zeros(5))
        np.testing.assert_array_equal(T.layer_norm(x, gain=ones, bias=zeros).data, plain)
        np.testing.assert_array_equal(T.layer_norm(x, gain=ones).data, plain)
        np.testing.assert_array_equal(T.layer_norm(x, bias=zeros).data, plain)

    def test_layer_norm_affine_width_mismatch(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 3))), gain=Tensor(np.ones(4)))

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
        parts = [T.index(a, (slice(None), slice(0, 2))), T.index(a, (slice(None), slice(2, 4)))]
        np.testing.assert_array_equal(T.concat(parts, axis=1).data, a.data)

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

    def test_heads_split_by_columns_and_merge_back(self):
        a = Tensor(np.random.default_rng(4).standard_normal((2, 3, 6)))
        heads = T.split_heads(a, 3)
        assert heads.shape == (2, 3, 3, 2)
        np.testing.assert_array_equal(heads.data[1, 2], a.data[1, :, 4:6])
        np.testing.assert_array_equal(T.merge_heads(heads).data, a.data)
        with pytest.raises(ShapeError):
            T.split_heads(a, 4)

    def test_add_broadcasts_a_suffix_only(self):
        stack = Tensor(np.zeros((2, 3, 4)))
        table = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_array_equal(T.add(stack, table).data[1], table.data)
        with pytest.raises(ShapeError):
            T.add(stack, Tensor(np.zeros((2, 4))))

    def test_softmax_mask_gives_exact_zeros(self):
        mask = np.array([0.0, -np.inf, 0.0])
        out = T.softmax(Tensor(np.array([[1.0, 50.0, 1.0], [0.0, 3.0, 0.0]])), mask=mask)
        np.testing.assert_array_equal(out.data, [[0.5, 0.0, 0.5], [0.5, 0.0, 0.5]])

    def test_index_and_stack(self):
        a = Tensor(np.arange(12.0).reshape(2, 3, 2))
        np.testing.assert_array_equal(T.index(a, (1, slice(0, 2))).data, a.data[1, :2])
        np.testing.assert_array_equal(T.stack([a, a]).data[1], a.data)
        for key in ((2,), (0, slice(1, 1)), (0, slice(0, 4)), (0, 0, 0, 0)):
            with pytest.raises(ShapeError):
                T.index(a, key)
        with pytest.raises(ShapeError):
            T.stack([a, T.index(a, 0)])


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_half_sum_sq_gives_x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        backward(T.scale(T.sum_sq(x), 0.5))
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-15)

    def test_accumulation_until_zeroed(self):
        x = Tensor([1.0, 1.0], requires_grad=True)
        backward(T.sum_all(x))
        backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
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
            return T.sum_sq(T.softmax(T.matmul(T.relu(T.matmul(x, w)), w2), axis=-1))

        def loss_of_w2(w):
            return T.sum_sq(T.softmax(T.matmul(T.relu(T.matmul(x, w1)), w), axis=-1))

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
        return T.sum_sq(T.mul(T.layer_norm(t, gain=g, bias=b), other))

    cases = {
        "matmul": lambda t: T.sum_sq(T.matmul(t, right)),
        "transpose": lambda t: T.sum_sq(T.matmul(T.transpose(t), other)),
        "add": lambda t: T.sum_sq(T.add(t, other)),
        "mul": lambda t: T.sum_sq(T.mul(t, other)),
        "scale": lambda t: T.sum_sq(T.scale(t, -1.7)),
        "exp": lambda t: T.sum_sq(T.exp(T.scale(t, 0.3))),
        "log": lambda t: T.sum_sq(T.log(T.add(T.mul(t, t), 0.5))),
        "relu": lambda t: T.sum_sq(T.relu(t)),
        "softmax": lambda t: T.sum_sq(T.softmax(t, axis=-1)),
        "log_softmax": lambda t: T.sum_sq(T.log_softmax(t, axis=-1)),
        "layer_norm": lambda t: T.sum_sq(T.mul(T.layer_norm(t), other)),
        "embedding": lambda t: T.sum_sq(T.embedding_lookup(t, ids)),
        "concat": lambda t: T.sum_sq(
            T.concat([T.index(t, (slice(None), slice(0, 2))), T.index(t, (slice(None), slice(2, 4)))], axis=1)
        ),
        "index": lambda t: T.sum_sq(T.index(t, (slice(None), slice(1, 3)))),
        "index_row": lambda t: T.sum_sq(T.mul(T.index(t, 1), T.index(other, 2))),
        "stack": lambda t: T.sum_sq(T.mul(T.stack([t, T.relu(t)]), T.stack([other, other]))),
        "scale_array": lambda t: T.sum_sq(T.scale(t, other.data[0])),
        "mean": lambda t: T.mul(T.mean(t), T.mean(t)),
        "sum": lambda t: T.mul(T.sum_all(t), T.mean(t)),
        "sum_sq": lambda t: T.sum_sq(t),
        "pick": lambda t: T.sum_sq(T.pick(t, cols)),
        "mix": lambda t: T.mean(T.relu(T.add(T.matmul(T.layer_norm(t), right), bias))),
    }
    cases = {name: (f, m) for name, f in cases.items()}

    # stacks: leading item and head axes
    s3 = rand_tensor(rng, (2, 3, 4))
    s4 = rand_tensor(rng, (2, 2, 3, 2))
    fixed3 = away_from_zero((2, 3, 4))
    fixed4 = away_from_zero((2, 2, 3, 2))
    other_stack = away_from_zero((2, 4, 2))
    row = rand_tensor(rng, (4,))
    nd_ids = rng.integers(0, 3, size=(2, 5))
    nd_cols = rng.integers(0, 4, size=(2, 3))
    mask = np.where(rng.random((2, 1, 4)) < 0.3, -np.inf, 0.0)
    mask[..., 0] = 0.0  # every row keeps an entry
    rows_weight = away_from_zero((2, 5, 4))
    cases.update({
        "matmul_stack_by_weight": (lambda t: T.sum_sq(T.matmul(t, right)), s3),
        "matmul_stack_by_weight_w": (lambda w: T.sum_sq(T.matmul(fixed3, w)),
                                     Tensor(right.data, requires_grad=True)),
        "matmul_stacks_left": (lambda t: T.sum_sq(T.matmul(t, other_stack)), s3),
        "matmul_stacks_right": (lambda t: T.sum_sq(T.matmul(fixed3, t)),
                                Tensor(other_stack.data, requires_grad=True)),
        "transpose_stack": (lambda t: T.sum_sq(T.mul(T.transpose(t), T.transpose(fixed3))), s3),
        "split_heads": (lambda t: T.sum_sq(T.mul(T.split_heads(t, 2), fixed4)), s3),
        "merge_heads": (lambda t: T.sum_sq(T.mul(T.merge_heads(t), fixed3)), s4),
        "add_suffix_row": (lambda b: T.sum_sq(T.add(fixed3, b)), row),
        "add_suffix_matrix": (lambda t: T.sum_sq(T.add(fixed3, t)), m),
        "softmax_mask": (lambda t: T.sum_sq(T.mul(T.softmax(t, mask=mask), fixed3)), s3),
        "embedding_nd": (lambda t: T.sum_sq(T.mul(T.embedding_lookup(t, nd_ids), rows_weight)), m),
        "pick_nd": (lambda t: T.sum_sq(T.pick(t, nd_cols)), s3),
    })
    # the affine layer norm, differentiated by its input, gain and bias
    cases["layer_norm_affine_input"] = (lambda t: affine_layer_norm(t, gain, shift), m)
    cases["layer_norm_affine_gain"] = (lambda g: affine_layer_norm(m, g, shift), gain)
    cases["layer_norm_affine_bias"] = (lambda b: affine_layer_norm(m, gain, b), shift)
    return cases


@pytest.mark.parametrize("seed", range(100))
def test_every_op_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    for name, (f, x) in _fd_cases(rng).items():
        err = grad_check(f, x)
        assert err <= 1e-5, f"{name}: rel err {err:.3e}"


@pytest.mark.parametrize("seed", range(20))
def test_bias_row_gradient(seed):
    rng = np.random.default_rng(seed)
    mat = Tensor(rng.standard_normal((3, 4)))
    bias = rand_tensor(rng, (4,))
    assert grad_check(lambda b: T.sum_sq(T.add(mat, b)), bias) <= 1e-5


def test_grad_check_exact_for_linear():
    rng = np.random.default_rng(3)
    x = rand_tensor(rng, (4,))
    assert grad_check(T.sum_all, x) <= 1e-10


def test_tape_orders_by_execution():
    x = Tensor([1.0], requires_grad=True)
    a = T.scale(x, 2.0)
    b = T.exp(a)
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
            loss = T.sum_sq(T.softmax(T.matmul(a, b)))
        with pytest.raises(ContractError):
            backward(loss)
        assert a.grad is None and b.grad is None

    def test_nesting_restores_each_outer_mode(self):
        x = Tensor([1.0], requires_grad=True)
        with T.no_grad():
            with T.no_grad():
                assert not T.exp(x).requires_grad
            assert not T.exp(x).requires_grad
        assert T.exp(x).requires_grad

    def test_mode_restored_after_an_exception(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(DomainError):
            with T.no_grad():
                T.log(Tensor([-1.0]))
        assert T.exp(x).requires_grad

    def test_decorator_form_applies_per_call(self):
        x = Tensor([1.0], requires_grad=True)

        @T.no_grad()
        def untracked_exp(t):
            return T.exp(t)

        for _ in range(2):
            assert not untracked_exp(x).requires_grad
            assert T.exp(x).requires_grad
