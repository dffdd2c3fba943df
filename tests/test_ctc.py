import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_distill import ctc
from oracle_distill import tensor as T
from oracle_distill.ctc import (
    BLANK,
    Vocab,
    collapse,
    ctc_grad,
    ctc_loss_bruteforce,
    ctc_loss_dp,
    ctc_posterior,
    enumerate_alignments,
    greedy_decode,
    kd_loss_ctc,
    min_frames,
    posterior_from_enumeration,
)
from oracle_distill.errors import (
    ContractError,
    EnumerationCapError,
    InfeasibleTargetError,
    ShapeError,
)
from oracle_distill.tensor import Tensor, grad_check

V3 = Vocab(3)  # blank + labels {1, 2}


def random_instance(rng, max_t=8, max_l=4, max_k=4):
    """A feasible random (logits, target, vocab) triple."""
    k = int(rng.integers(2, max_k + 1))
    vocab = Vocab(k)
    while True:
        l = int(rng.integers(1, max_l + 1))
        y = tuple(int(t) for t in rng.integers(1, k, size=l))
        if min_frames(y) <= max_t:
            break
    t = int(rng.integers(min_frames(y), max_t + 1))
    u = rng.standard_normal((t, k)) * 2.0
    return u, y, vocab


class TestCollapse:
    def test_merge_then_drop_blanks(self):
        # with a=1, b=2: blank,a,a,blank,blank,a,b,b collapses to a,a,b
        assert collapse([0, 1, 1, 0, 0, 1, 2, 2]) == (1, 1, 2)

    def test_all_blank_collapses_to_empty(self):
        assert collapse([0, 0, 0]) == ()

    def test_blank_separates_repeats(self):
        assert collapse([1, 0, 1]) == (1, 1)


class TestEnumeration:
    def test_five_paths_for_two_labels_in_three_frames(self):
        paths = enumerate_alignments((1, 2), 3, V3)
        assert set(paths) == {
            (1, 1, 2),
            (1, 2, 2),
            (1, 2, 0),
            (0, 1, 2),
            (1, 0, 2),
        }

    def test_repeat_needs_a_blank(self):
        assert enumerate_alignments((1, 1), 2, V3) == []

    def test_single_frame_forced_path(self):
        assert enumerate_alignments((1,), 1, V3) == [(1,)]

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapError):
            enumerate_alignments((1,), 10, Vocab(5))

    def test_blank_in_target_rejected(self):
        with pytest.raises(ContractError):
            enumerate_alignments((0, 1), 3, V3)

    def test_every_enumerated_path_collapses_back(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, y, vocab = random_instance(rng, max_t=6)
            t = min_frames(y) + 1
            for z in enumerate_alignments(y, t, vocab):
                assert collapse(z) == y


class TestBruteForceLoss:
    def test_uniform_logits_value(self):
        # oracle: 5 paths, each with probability (1/3)^3
        u = np.zeros((3, 3))
        expected = -math.log(5 * (1 / 3) ** 3)
        assert abs(ctc_loss_bruteforce(u, (1, 2), V3) - expected) <= 1e-12

    def test_sharp_logits_reach_zero_loss(self):
        path = (0, 1, 1, 0, 2)
        u = np.full((5, 3), -20.0)
        for t, k in enumerate(path):
            u[t, k] = 20.0
        assert ctc_loss_bruteforce(u, collapse(path), V3) < 1e-3

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_bruteforce(np.zeros((2, 3)), (1, 1), V3)


class TestDpLoss:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            u, y, vocab = random_instance(rng)
            dp = ctc_loss_dp(u, y, vocab).item()
            bf = ctc_loss_bruteforce(u, y, vocab)
            assert abs(dp - bf) <= 1e-9

    def test_single_forced_frame(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1, 3))
        lp = u - np.log(np.exp(u).sum())
        assert abs(ctc_loss_dp(u, (1,), V3).item() + lp[0, 1]) <= 1e-12

    def test_per_frame_shift_invariance(self):
        rng = np.random.default_rng(2)
        u, y, vocab = random_instance(rng)
        shifted = u + rng.standard_normal((u.shape[0], 1)) * 5.0
        a = ctc_loss_dp(u, y, vocab).item()
        b = ctc_loss_dp(shifted, y, vocab).item()
        assert abs(a - b) <= 1e-10

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_dp(np.zeros((2, 3)), (1, 1), V3)

    def test_wrong_width_raises(self):
        with pytest.raises(ShapeError):
            ctc_loss_dp(np.zeros((3, 4)), (1,), V3)


class TestPosterior:
    def test_forced_path_is_one_hot(self):
        sigma = ctc_posterior(np.zeros((1, 3)), (1,), V3)
        np.testing.assert_allclose(sigma, [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_uniform_first_frame_marginals(self):
        # 4 of the 5 equally likely paths start with label 1, one with blank
        sigma = ctc_posterior(np.zeros((3, 3)), (1, 2), V3)
        np.testing.assert_allclose(sigma[0], [0.2, 0.8, 0.0], atol=1e-12)

    def test_matches_enumeration_marginals(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            u, y, vocab = random_instance(rng)
            dp = ctc_posterior(u, y, vocab)
            enum = posterior_from_enumeration(u, y, vocab)
            np.testing.assert_allclose(dp, enum, atol=1e-9)

    def test_rows_are_distributions_supported_on_target_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u, y, vocab = random_instance(rng)
            sigma = ctc_posterior(u, y, vocab)
            np.testing.assert_allclose(sigma.sum(axis=1), 1.0, atol=1e-9)
            assert sigma.min() >= 0.0
            absent = set(vocab.labels) - set(y)
            for k in absent:
                np.testing.assert_allclose(sigma[:, k], 0.0, atol=1e-15)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            u, y, vocab = random_instance(rng, max_t=6)
            x = Tensor(u, requires_grad=True)
            err = grad_check(lambda t: ctc_loss_dp(t, y, vocab), x)
            assert err <= 1e-5

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            u, y, vocab = random_instance(rng)
            g = ctc_grad(u, y, vocab)
            np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-10)

    def test_near_zero_at_a_saturated_forced_path(self):
        # single frame, softmax pinned to the forced label: both terms match
        u = np.array([[-40.0, 40.0, -40.0]])
        g = ctc_grad(u, (1,), V3)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_backward_registration(self):
        rng = np.random.default_rng(31)
        u, y, vocab = random_instance(rng)
        x = Tensor(u, requires_grad=True)
        T.backward(ctc_loss_dp(x, y, vocab))
        np.testing.assert_allclose(x.grad, ctc_grad(u, y, vocab), atol=1e-12)


class TestKdLoss:
    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(37)
        p = T.softmax(Tensor(rng.standard_normal((4, 3))), axis=-1)
        for form in ("l2", "kl"):
            assert kd_loss_ctc(p, p, form).item() == pytest.approx(0.0, abs=1e-12)

    def test_l2_hand_value(self):
        s = Tensor([[1.0, 0.0]])
        t = Tensor([[0.0, 1.0]])
        assert kd_loss_ctc(s, t, "l2").item() == pytest.approx(2.0, abs=1e-15)

    def test_kl_gradient_wrt_student_logits(self):
        rng = np.random.default_rng(41)
        teacher = T.softmax(Tensor(rng.standard_normal((3, 4))), axis=-1)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return kd_loss_ctc(T.softmax(t, axis=-1), teacher, "kl")

        assert grad_check(f, logits) <= 1e-5

    def test_l2_gradient_wrt_student_logits(self):
        rng = np.random.default_rng(43)
        teacher = T.softmax(Tensor(rng.standard_normal((3, 4))), axis=-1)
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return kd_loss_ctc(T.softmax(t, axis=-1), teacher, "l2")

        assert grad_check(f, logits) <= 1e-5

    def test_gradient_reaches_both_sides(self):
        rng = np.random.default_rng(47)
        su = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        tu = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        for form in ("l2", "kl"):
            su.zero_grad(), tu.zero_grad()
            loss = kd_loss_ctc(T.softmax(su, -1), T.softmax(tu, -1), form)
            T.backward(loss)
            assert np.abs(su.grad).max() > 0 and np.abs(tu.grad).max() > 0

    def test_detached_teacher_gets_no_gradient(self):
        rng = np.random.default_rng(53)
        su = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        tu = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        loss = kd_loss_ctc(T.softmax(su, -1), T.softmax(tu, -1).detach(), "l2")
        T.backward(loss)
        assert tu.grad is None

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(59)
        for form in ("l2", "kl"):
            for _ in range(50):
                s = T.softmax(Tensor(rng.standard_normal((3, 4)) * 3), -1)
                t = T.softmax(Tensor(rng.standard_normal((3, 4)) * 3), -1)
                v = kd_loss_ctc(s, t, form).item()
                assert v >= 0.0
                if not np.allclose(s.data, t.data):
                    assert v > 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            kd_loss_ctc(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), "l2")

    def test_unknown_form(self):
        p = Tensor(np.full((1, 2), 0.5))
        with pytest.raises(ContractError):
            kd_loss_ctc(p, p, "ce")

    def test_weighted_rows_of_a_padded_stack_average_the_items(self):
        rng = np.random.default_rng(61)
        lengths = (2, 4)
        s = T.softmax(Tensor(rng.standard_normal((2, 4, 3))), -1)
        t = T.softmax(Tensor(rng.standard_normal((2, 4, 3))), -1)
        weights = np.array([[1 / n if r < n else 0.0 for r in range(4)] for n in lengths]) / 2
        for form in ("l2", "kl"):
            items = [kd_loss_ctc(Tensor(s.data[i, :n]), Tensor(t.data[i, :n]), form).item()
                     for i, n in enumerate(lengths)]
            got = kd_loss_ctc(s, t, form, weights).item()
            assert got == pytest.approx(np.mean(items), rel=1e-13)
        with pytest.raises(ShapeError):
            kd_loss_ctc(s, t, "l2", weights[:, :3])
        with pytest.raises(ShapeError):
            kd_loss_ctc(s, t, "l2")


class TestGreedyDecode:
    def test_sharp_path_decodes_to_its_collapse(self):
        path = (0, 1, 1, 0, 0, 1, 2, 2)
        u = np.full((len(path), 3), -10.0)
        for t, k in enumerate(path):
            u[t, k] = 10.0
        assert greedy_decode(u) == (1, 1, 2)

    def test_all_blank_argmax_gives_empty(self):
        u = np.zeros((4, 3))
        u[:, BLANK] = 5.0
        assert greedy_decode(u) == ()

    def test_random_paths_roundtrip_through_decode(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            t = int(rng.integers(1, 9))
            path = tuple(int(v) for v in rng.integers(0, k, size=t))
            u = np.full((t, k), -8.0)
            for i, lab in enumerate(path):
                u[i, lab] = 8.0
            assert greedy_decode(u) == collapse(path)

    def test_ties_break_to_lowest_index(self):
        u = np.zeros((1, 3))
        assert greedy_decode(u) == ()  # argmax picks blank at index 0


# ---------------------------------------------------------------------------
# properties of the DP against the enumeration oracle
# ---------------------------------------------------------------------------


@st.composite
def feasible_instances(draw, max_t=7, max_k=4):
    """(logits, target, vocab) with T <= 7, K <= 4 and a feasible target;
    small alphabets make repeated labels common, and T shrinks towards
    min_frames(y)."""
    vocab = Vocab(draw(st.integers(2, max_k)))
    y = tuple(draw(st.lists(st.integers(1, vocab.size - 1), min_size=1, max_size=4)))
    n_frames = min_frames(y) + draw(st.integers(0, max_t - min_frames(y)))
    entries = st.floats(-6.0, 6.0, allow_nan=False)
    u = np.array(draw(st.lists(entries, min_size=n_frames * vocab.size,
                               max_size=n_frames * vocab.size)))
    return u.reshape(n_frames, vocab.size), y, vocab


# repeated labels at the minimum frame count: every path is forced through
# the blank between the repeats
REPEATS_AT_MIN_FRAMES = (np.linspace(-2.0, 2.0, 12).reshape(4, 3), (1, 1, 2), Vocab(3))


@settings(max_examples=40, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_loss_matches_enumeration_property(case):
    u, y, vocab = case
    assert ctc_loss_dp(u, y, vocab).item() == pytest.approx(
        ctc_loss_bruteforce(u, y, vocab), rel=0, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_posterior_matches_enumeration_property(case):
    u, y, vocab = case
    np.testing.assert_allclose(
        ctc_posterior(u, y, vocab), posterior_from_enumeration(u, y, vocab), rtol=0, atol=1e-9
    )


@settings(max_examples=100, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_loss_is_invariant_under_time_reversal(case):
    # a path for y read backwards is a path for y reversed, with the same
    # probability; the backward pass runs the forward one on this lattice
    u, y, vocab = case
    forward = ctc_loss_dp(u, y, vocab).item()
    assert ctc_loss_dp(u[::-1], y[::-1], vocab).item() == pytest.approx(forward, rel=0, abs=1e-12)


def test_reversed_lattice_needs_the_skip_mask_of_the_reversed_target(monkeypatch):
    # in (1, 1, 2) the jump into the second 1 is barred but the jump into
    # the 2 is allowed; reversed, the 2 comes first and the barred jump
    # moves, so a mask built from the unreversed target gives a wrong beta
    u, y, vocab = np.linspace(-2.0, 2.0, 18).reshape(6, 3), (1, 1, 2), Vocab(3)
    oracle = posterior_from_enumeration(u, y, vocab)
    np.testing.assert_allclose(ctc_posterior(u, y, vocab), oracle, rtol=0, atol=1e-9)
    unreversed = ctc._extended(y)
    skip_mask = ctc._skip_mask
    monkeypatch.setattr(ctc, "_skip_mask", lambda ext: skip_mask(unreversed))
    assert np.abs(ctc_posterior(u, y, vocab) - oracle).max() > 1e-3
