import math
import tracemalloc

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
    ctc_bruteforce,
    ctc_forward_backward,
    ctc_loss_bruteforce,
    ctc_loss_dp,
    enumerate_alignments,
    greedy_decode,
    kd_loss_ctc,
    log_softmax_rows,
    min_frames,
)
from oracle_distill.errors import (
    ContractError,
    EnumerationCapError,
    InfeasibleTargetError,
    ShapeError,
)
from oracle_distill.tensor import Tensor, grad_check

from helpers import reference_alignments, reference_ctc_dp

V3 = Vocab(3)  # blank + labels {1, 2}


def random_instance(rng, max_t=8, max_l=4, max_k=4):
    """A feasible random (logits, target) pair."""
    k = int(rng.integers(2, max_k + 1))
    while True:
        l = int(rng.integers(1, max_l + 1))
        y = tuple(int(t) for t in rng.integers(1, k, size=l))
        if min_frames(y) <= max_t:
            break
    t = int(rng.integers(min_frames(y), max_t + 1))
    u = rng.standard_normal((t, k)) * 2.0
    return u, y


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
        # the second is 10^7 raw paths, one frame past the edge tested below
        for n_frames, vocab in ((10, Vocab(5)), (7, Vocab(10))):
            with pytest.raises(EnumerationCapError):
                enumerate_alignments((1,), n_frames, vocab)

    def test_the_scan_at_the_cap_returns_every_path_in_a_few_bytes_per_frame(self):
        # 10^6 raw paths, exactly the cap; at zero logits every path has
        # probability 10^-6, so the DP counts the paths
        y, n_frames, vocab = (1,), 6, Vocab(10)
        tracemalloc.start()
        try:
            paths = enumerate_alignments(y, n_frames, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nll = ctc_loss_dp(np.zeros((n_frames, vocab.size)), y).item()
        assert len(paths) == round(math.exp(-nll) * vocab.size ** n_frames) == 21
        assert paths == sorted(paths) and all(collapse(z) == y for z in paths)
        # a byte per raw-path frame for the paths and for each mask over
        # them; the paths alone would take 8 as int64
        assert peak < 6 * ctc.ENUMERATION_CAP * n_frames

    def test_blank_in_target_rejected(self):
        with pytest.raises(ContractError):
            enumerate_alignments((0, 1), 3, V3)

    def test_every_enumerated_path_collapses_back(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u, y = random_instance(rng, max_t=6)
            t = min_frames(y) + 1
            for z in enumerate_alignments(y, t, Vocab(u.shape[1])):
                assert collapse(z) == y


@st.composite
def scan_cases(draw):
    """(target, frames, vocab) with V**T under the cap, repeated labels
    common at small V, and targets longer than the frames can carry."""
    vocab = Vocab(draw(st.integers(2, 5)))
    n_frames = draw(st.integers(0, 8))
    y = tuple(draw(st.lists(st.integers(1, vocab.size - 1), min_size=1, max_size=n_frames + 2)))
    return y, n_frames, vocab


@settings(max_examples=50, deadline=None)
@example(((1, 1, 2), 4, V3))
@example(((1, 1), 2, V3))
@given(scan_cases())
def test_the_vectorised_scan_equals_the_path_by_path_one(case):
    y, n_frames, vocab = case
    assert vocab.size ** n_frames <= ctc.ENUMERATION_CAP
    assert enumerate_alignments(y, n_frames, vocab) == reference_alignments(y, n_frames, vocab)


class TestBruteForceLoss:
    def test_uniform_logits_value(self):
        # oracle: 5 paths, each with probability (1/3)^3
        u = np.zeros((3, 3))
        expected = -math.log(5 * (1 / 3) ** 3)
        assert abs(ctc_loss_bruteforce(u, (1, 2)) - expected) <= 1e-12

    def test_sharp_logits_reach_zero_loss(self):
        path = (0, 1, 1, 0, 2)
        u = np.full((5, 3), -20.0)
        for t, k in enumerate(path):
            u[t, k] = 20.0
        assert ctc_loss_bruteforce(u, collapse(path)) < 1e-3

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_bruteforce(np.zeros((2, 3)), (1, 1))


class TestDpLoss:
    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            u, y = random_instance(rng)
            dp = ctc_loss_dp(u, y).item()
            bf = ctc_loss_bruteforce(u, y)
            assert abs(dp - bf) <= 1e-9

    def test_single_forced_frame(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((1, 3))
        lp = u - np.log(np.exp(u).sum())
        assert abs(ctc_loss_dp(u, (1,)).item() + lp[0, 1]) <= 1e-12

    def test_per_frame_shift_invariance(self):
        rng = np.random.default_rng(2)
        u, y = random_instance(rng)
        shifted = u + rng.standard_normal((u.shape[0], 1)) * 5.0
        a = ctc_loss_dp(u, y).item()
        b = ctc_loss_dp(shifted, y).item()
        assert abs(a - b) <= 1e-10

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleTargetError):
            ctc_loss_dp(np.zeros((2, 3)), (1, 1))

    def test_the_alphabet_is_the_logits_width(self):
        # three columns are the blank and the labels 1 and 2, in every entry
        for loss in (ctc_loss_dp, ctc_loss_bruteforce, ctc_forward_backward, ctc_bruteforce):
            with pytest.raises(ContractError, match=r"target tokens must lie in 1\.\.2"):
                loss(np.zeros((3, 3)), (3,))
            with pytest.raises(ContractError, match="the blank plus at least one label"):
                loss(np.zeros((3, 1)), (1,))


class TestPosterior:
    def test_forced_path_is_one_hot(self):
        sigma = ctc_forward_backward(np.zeros((1, 3)), (1,)).posterior
        np.testing.assert_allclose(sigma, [[0.0, 1.0, 0.0]], atol=1e-15)

    def test_uniform_first_frame_marginals(self):
        # 4 of the 5 equally likely paths start with label 1, one with blank
        sigma = ctc_forward_backward(np.zeros((3, 3)), (1, 2)).posterior
        np.testing.assert_allclose(sigma[0], [0.2, 0.8, 0.0], atol=1e-12)

    def test_matches_enumeration_marginals(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            u, y = random_instance(rng)
            dp = ctc_forward_backward(u, y).posterior
            enum = ctc_bruteforce(u, y)[1]
            np.testing.assert_allclose(dp, enum, atol=1e-9)

    def test_rows_are_distributions_supported_on_target_labels(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            u, y = random_instance(rng)
            sigma = ctc_forward_backward(u, y).posterior
            np.testing.assert_allclose(sigma.sum(axis=1), 1.0, atol=1e-9)
            assert sigma.min() >= 0.0
            absent = set(range(1, u.shape[1])) - set(y)
            for k in absent:
                np.testing.assert_allclose(sigma[:, k], 0.0, atol=1e-15)


def dp_grad(u, y):
    """d(loss)/d(logits) as ``ctc_loss_dp``'s backward rule leaves it in ``grad``."""
    x = Tensor(u, requires_grad=True)
    T.backward(ctc_loss_dp(x, y))
    return x.grad


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            u, y = random_instance(rng, max_t=6)
            x = Tensor(u, requires_grad=True)
            err = grad_check(lambda t: ctc_loss_dp(t, y), x)
            assert err <= 1e-5

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            u, y = random_instance(rng)
            g = dp_grad(u, y)
            np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-10)

    def test_near_zero_at_a_saturated_forced_path(self):
        # single frame, softmax pinned to the forced label: both terms match
        u = np.array([[-40.0, 40.0, -40.0]])
        g = dp_grad(u, (1,))
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    def test_backward_registration(self):
        # the rule is the frame posterior minus the alignment posterior
        rng = np.random.default_rng(31)
        u, y = random_instance(rng)
        expected = np.exp(log_softmax_rows(u)) - ctc_forward_backward(u, y).posterior
        np.testing.assert_allclose(dp_grad(u, y), expected, atol=1e-12)


class TestKdLoss:
    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(37)
        p = T.softmax(Tensor(rng.standard_normal((4, 3))))
        for form in ("l2", "kl"):
            assert kd_loss_ctc(p, p, form).item() == pytest.approx(0.0, abs=1e-12)

    def test_l2_hand_value(self):
        s = Tensor([[1.0, 0.0]])
        t = Tensor([[0.0, 1.0]])
        assert kd_loss_ctc(s, t, "l2").item() == pytest.approx(2.0, abs=1e-15)

    def test_kl_gradient_wrt_student_logits(self):
        rng = np.random.default_rng(41)
        teacher = T.softmax(Tensor(rng.standard_normal((3, 4))))
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return kd_loss_ctc(T.softmax(t), teacher, "kl")

        assert grad_check(f, logits) <= 1e-5

    def test_l2_gradient_wrt_student_logits(self):
        rng = np.random.default_rng(43)
        teacher = T.softmax(Tensor(rng.standard_normal((3, 4))))
        logits = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def f(t):
            return kd_loss_ctc(T.softmax(t), teacher, "l2")

        assert grad_check(f, logits) <= 1e-5

    def test_gradient_reaches_both_sides(self):
        rng = np.random.default_rng(47)
        su = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        tu = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        for form in ("l2", "kl"):
            su.grad = tu.grad = None
            loss = kd_loss_ctc(T.softmax(su), T.softmax(tu), form)
            T.backward(loss)
            assert np.abs(su.grad).max() > 0 and np.abs(tu.grad).max() > 0

    def test_detached_teacher_gets_no_gradient(self):
        rng = np.random.default_rng(53)
        su = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        tu = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        loss = kd_loss_ctc(T.softmax(su), T.softmax(tu).detach(), "l2")
        T.backward(loss)
        assert tu.grad is None

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(59)
        for form in ("l2", "kl"):
            for _ in range(50):
                s = T.softmax(Tensor(rng.standard_normal((3, 4)) * 3))
                t = T.softmax(Tensor(rng.standard_normal((3, 4)) * 3))
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
        s = T.softmax(Tensor(rng.standard_normal((2, 4, 3))))
        t = T.softmax(Tensor(rng.standard_normal((2, 4, 3))))
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
    """(logits, target) with T <= 7, K <= 4 and a feasible target;
    small alphabets make repeated labels common, and T shrinks towards
    min_frames(y)."""
    k = draw(st.integers(2, max_k))
    y = tuple(draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=4)))
    n_frames = min_frames(y) + draw(st.integers(0, max_t - min_frames(y)))
    entries = st.floats(-6.0, 6.0, allow_nan=False)
    u = np.array(draw(st.lists(entries, min_size=n_frames * k, max_size=n_frames * k)))
    return u.reshape(n_frames, k), y


# repeated labels at the minimum frame count: every path is forced through
# the blank between the repeats
REPEATS_AT_MIN_FRAMES = (np.linspace(-2.0, 2.0, 12).reshape(4, 3), (1, 1, 2))


@settings(max_examples=40, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_loss_matches_enumeration_property(case):
    u, y = case
    assert ctc_loss_dp(u, y).item() == pytest.approx(
        ctc_loss_bruteforce(u, y), rel=0, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_posterior_matches_enumeration_property(case):
    u, y = case
    np.testing.assert_allclose(
        ctc_forward_backward(u, y).posterior, ctc_bruteforce(u, y)[1], rtol=0, atol=1e-9
    )


@settings(max_examples=100, deadline=None)
@example(REPEATS_AT_MIN_FRAMES)
@given(feasible_instances())
def test_dp_loss_is_invariant_under_time_reversal(case):
    # a path for y read backwards is a path for y reversed, with the same
    # probability; the backward pass runs the forward one on this lattice
    u, y = case
    forward = ctc_loss_dp(u, y).item()
    assert ctc_loss_dp(u[::-1], y[::-1]).item() == pytest.approx(forward, rel=0, abs=1e-12)


def test_reversed_lattice_needs_the_skip_mask_of_the_reversed_target(monkeypatch):
    # in (1, 1, 2) the jump into the second 1 is barred but the jump into
    # the 2 is allowed; reversed, the 2 comes first and the barred jump
    # moves, so a mask built from the unreversed target gives a wrong beta
    u, y = np.linspace(-2.0, 2.0, 18).reshape(6, 3), (1, 1, 2)
    oracle = ctc_bruteforce(u, y)[1]
    np.testing.assert_allclose(ctc_forward_backward(u, y).posterior, oracle, rtol=0, atol=1e-9)
    unreversed = np.array([BLANK, 1, BLANK, 1, BLANK, 2, BLANK])
    skip_mask = ctc._skip_mask
    monkeypatch.setattr(ctc, "_skip_mask", lambda ext: skip_mask(unreversed))
    # build the lattice again rather than reuse the one cached above
    monkeypatch.setattr(ctc, "_lattice", ctc._lattice.__wrapped__)
    assert np.abs(ctc_forward_backward(u, y).posterior - oracle).max() > 1e-3


# ---------------------------------------------------------------------------
# the stacked DP against the one-instance reference, bit for bit
# ---------------------------------------------------------------------------


GARBAGE = (1e300, -1e300, math.nan, math.inf, -math.inf, 0.0, 7.5)


@st.composite
def padded_stacks(draw):
    """A B x T x K stack of up to 6 feasible instances with their own target
    lengths (repeats common at K <= 3) and frame counts, padded to T, with
    garbage in every padded cell."""
    k = draw(st.integers(2, 5))
    n_items = draw(st.integers(1, 6))
    targets, frames = [], []
    for _ in range(n_items):
        y = tuple(draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=4)))
        targets.append(y)
        frames.append(min_frames(y) + draw(st.integers(0, 3)))
    n_frames = max(frames) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal((n_items, n_frames, k)) * draw(st.sampled_from((0.5, 3.0, 30.0)))
    for i, n in enumerate(frames):
        u[i, n:] = rng.choice(GARBAGE, size=(n_frames - n, k))
    return u, targets, frames


@settings(max_examples=60, deadline=None)
@given(padded_stacks())
def test_stacked_dp_equals_the_one_instance_reference_bit_for_bit(case):
    u, targets, frames = case
    fwd = ctc._forward_pass(u, targets, frames)
    nll, (sigma, grad) = fwd.nll(), ctc._backward_pass(fwd)
    x = Tensor(u, requires_grad=True)
    losses = ctc_loss_dp(x, targets, frames)
    T.backward(T.sum_all(losses))
    assert losses.data.tobytes() == nll.tobytes()
    for i, (y, n) in enumerate(zip(targets, frames)):
        ref_nll, ref_sigma, ref_grad = reference_ctc_dp(u[i, :n], y)
        assert np.float64(ref_nll).tobytes() == nll[i].tobytes()
        assert ref_sigma.tobytes() == sigma[i, :n].tobytes()
        assert ref_grad.tobytes() == grad[i, :n].tobytes() == x.grad[i, :n].tobytes()
        single = ctc_forward_backward(u[i, :n], y)
        assert np.float64(single.nll).tobytes() == nll[i].tobytes()
        assert single.posterior.tobytes() == ref_sigma.tobytes()
        assert single.grad.tobytes() == ref_grad.tobytes()
        for padded in (sigma, grad, x.grad):
            assert not padded[i, n:].any()


def test_stack_refuses_bad_frame_counts_and_garbage_in_real_rows():
    u = np.zeros((2, 4, 3))
    for frames in ([4], [4, 0], [4, 5]):
        with pytest.raises(ShapeError):
            ctc_loss_dp(u, [(1,), (2,)], frames)
    with pytest.raises(ShapeError):
        ctc_loss_dp(u, [(1,)], [4, 4])
    with pytest.raises(InfeasibleTargetError):
        ctc_loss_dp(u, [(1,), (2, 2)], [4, 2])
    u[1, 1, 0] = math.nan
    ctc_loss_dp(u, [(1,), (2,)], [4, 1])  # NaN on a padded row
    with pytest.raises(ContractError):
        ctc_loss_dp(u, [(1,), (2,)], [4, 2])
