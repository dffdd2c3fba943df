import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.config import RunConfig
from oracle_distill.ctc import ctc_loss_bruteforce
from oracle_distill.errors import ContractError, TrainingAbort
from oracle_distill.models import (
    MASK,
    AedModel,
    CtcModel,
    ModelConfig,
    build_model,
)
from oracle_distill.objectives import Adam, TrainConfig, loss_total, mask_target, teacher_targets, teacher_view
from oracle_distill.tasks import Batch, padded_stack
from oracle_distill.tensor import Tensor, backward, grad_check

from helpers import (
    ReferenceAdam,
    head_logits,
    record_calls,
    sum_sq,
    tie_teacher_head,
    zero_cross_attention,
    zero_fusion,
)

# loss_total with the teacher off: its total is l_org alone
NO_TEACHER = TrainConfig(use_teacher=False)


def ctc_setup(seed=0, vocab_size=2, feature_dim=2, **model_kw):
    cfg = TrainConfig(alpha=2.0, kd_form="l2", seed=seed)
    model = CtcModel(
        ModelConfig(task="ctc", vocab_size=vocab_size, feature_dim=feature_dim,
                    d_model=8, enc_layers=1, heads=2, ffn_dim=16, **model_kw),
        seed=seed,
    )
    return model, cfg


def aed_setup(seed=0, vocab_size=4):
    cfg = TrainConfig(alpha=5.0, kd_form="kl", lambda_mask=0.5, seed=seed)
    model = AedModel(
        ModelConfig(task="aed", vocab_size=vocab_size, d_model=8, enc_layers=1,
                    dec_layers=1, heads=2, ffn_dim=16),
        seed=seed,
    )
    return model, cfg


def ctc_batch(rng, model, n=2, t_range=(3, 6), l_range=(1, 2)):
    batch = []
    for _ in range(n):
        l = int(rng.integers(l_range[0], l_range[1] + 1))
        y = tuple(int(v) for v in rng.integers(1, model.cfg.vocab_size + 1, size=l))
        t = int(rng.integers(max(t_range[0], 2 * l + 1), t_range[1] + 1))
        x = rng.standard_normal((t, model.cfg.feature_dim))
        batch.append((x, y))
    return batch


def aed_batch(rng, model, n=2, l_range=(2, 4)):
    batch = []
    for _ in range(n):
        l = int(rng.integers(l_range[0], l_range[1] + 1))
        x = tuple(int(v) for v in rng.integers(1, model.cfg.vocab_size + 1, size=l))
        y = tuple(int(v) for v in rng.integers(1, model.cfg.vocab_size + 1, size=l))
        batch.append((x, y))
    return batch


class TestMasking:
    def test_lambda_zero_is_identity(self):
        rng = np.random.default_rng(0)
        y = (3, 1, 4, 1, 5)
        assert mask_target(y, 0.0, rng) == y

    def test_lambda_one_masks_everything(self):
        rng = np.random.default_rng(0)
        assert mask_target((2, 2, 2), 1.0, rng) == (MASK, MASK, MASK)

    def test_unmasked_positions_keep_their_tokens(self):
        rng = np.random.default_rng(1)
        y = tuple(int(v) for v in rng.integers(1, 9, size=50))
        m = mask_target(y, 0.4, rng)
        assert len(m) == len(y) and MASK in m
        for t, original in zip(m, y):
            assert t in (MASK, original)

    def test_half_lambda_concentrates(self):
        rng = np.random.default_rng(2)
        y = tuple([1] * 10 ** 5)
        frac = mask_target(y, 0.5, rng).count(MASK) / len(y)
        assert 0.49 <= frac <= 0.51

    def test_deterministic_given_rng_state(self):
        a = mask_target((1, 2, 3, 4), 0.5, np.random.default_rng(7))
        b = mask_target((1, 2, 3, 4), 0.5, np.random.default_rng(7))
        assert a == b

    def test_bad_lambda_rejected(self):
        with pytest.raises(ContractError):
            mask_target((1,), 1.5, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [(1.7, 2), (1, "2"), (np.float64(3.9),)],
                             ids=["float", "string", "numpy float"])
    def test_a_token_that_is_no_integer_is_refused(self, bad):
        with pytest.raises(ContractError, match="^a masked target must be a sequence of integer token ids$"):
            mask_target(bad, 0.0, np.random.default_rng(0))

    def test_numpy_integer_tokens_are_read_as_python_ints(self):
        m = mask_target(np.array([3, 1, 4]), 0.0, np.random.default_rng(0))
        assert m == (3, 1, 4) and all(type(t) is int for t in m)


class TestLossOrg:
    def test_ctc_uniform_logits_match_bruteforce_oracle(self):
        model, _ = ctc_setup()
        model.store.peek("seq.out.w").data[...] = 0.0
        model.store.peek("seq.out.b").data[...] = 0.0
        # encoder output is irrelevant once the head is zeroed: logits are 0
        x = np.random.default_rng(0).standard_normal((3, 2))
        got = loss_total(model, [(x, (1, 2))], NO_TEACHER, None).total.item()
        oracle = ctc_loss_bruteforce(np.zeros((3, 3)), (1, 2))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(-math.log(5 / 27), abs=1e-12)

    def test_aed_uniform_logits_give_log_vocab(self):
        model, _ = aed_setup()
        model.store.peek("seq.out.w").data[...] = 0.0
        model.store.peek("seq.out.b").data[...] = 0.0
        out_dim = model.cfg.vocab_size + 2
        got = loss_total(model, [((1, 2), (2, 1, 3))], NO_TEACHER, None).total.item()
        assert got == pytest.approx(math.log(out_dim), abs=1e-12)

    def test_gradient_wrt_student_params(self):
        model, _ = ctc_setup()
        rng = np.random.default_rng(3)
        batch = ctc_batch(rng, model)
        for name in ("seq.in_proj.w", "seq.enc0.attn.wv", "seq.enc0.ffn.w1", "seq.out.w"):
            p = model.store.peek(name)
            assert grad_check(lambda _: loss_total(model, batch, NO_TEACHER, None).total, p) <= 1e-4, name


class TestLossEm:
    def test_reduces_to_loss_org_with_zero_fusion_and_tied_heads(self):
        model, cfg = ctc_setup(seed=5)
        zero_fusion(model)
        tie_teacher_head(model)
        rng = np.random.default_rng(4)
        batch = ctc_batch(rng, model)
        a = loss_total(model, batch, NO_TEACHER, None).total.item()
        b = loss_total(model, batch, cfg, np.random.default_rng(0)).terms[1].item()
        assert a == b  # bit-for-bit

    def test_aed_full_masking_feeds_only_mask_tokens(self, monkeypatch):
        model, cfg = aed_setup()
        cfg.lambda_mask = 1.0
        rng = np.random.default_rng(5)
        batch = aed_batch(rng, model)
        targets = [y for _, y in batch]
        masks = teacher_targets(model, targets, cfg.lambda_mask, np.random.default_rng(1))
        assert masks == [(MASK,) * len(y) for y in targets]
        calls = record_calls(monkeypatch, model, "oracle_guidance")
        out = loss_total(model, batch, cfg, np.random.default_rng(1))
        [((masked_ids, target_lengths), _)] = calls
        for row, n in zip(masked_ids, target_lengths):
            assert (row[:n] == MASK).all()
        assert out.terms[1].item() >= 0.0

    def test_gradient_wrt_teacher_params(self):
        model, cfg = ctc_setup()
        rng = np.random.default_rng(6)
        batch = ctc_batch(rng, model)
        for name in ("oracle.embed", "fusion.f0.cross.wk", "teacher_out.w"):
            p = model.store.peek(name)
            assert (
                grad_check(lambda _: loss_total(model, batch, cfg, np.random.default_rng(0)).terms[1], p)
                <= 1e-4
            ), name


class TestLossKd:
    def test_zero_when_teacher_equals_student(self):
        model, cfg = ctc_setup(seed=6)
        zero_fusion(model)
        tie_teacher_head(model)
        rng = np.random.default_rng(7)
        batch = ctc_batch(rng, model)
        assert loss_total(model, batch, cfg, np.random.default_rng(0)).terms[2].item() == 0.0

    def test_alpha_zero_removes_term_exactly(self):
        model, cfg = ctc_setup(seed=7)
        cfg.alpha = 0.0
        rng = np.random.default_rng(8)
        batch = ctc_batch(rng, model)
        out = loss_total(model, batch, cfg, np.random.default_rng(0))
        l_org, l_em, _ = (t.item() for t in out.terms)
        assert out.total.item() == l_org + l_em

    def test_gradient_both_directions(self):
        model, cfg = ctc_setup()
        rng = np.random.default_rng(9)
        batch = ctc_batch(rng, model)
        for name in ("seq.out.w", "teacher_out.w"):
            p = model.store.peek(name)
            assert (
                grad_check(lambda _: loss_total(model, batch, cfg, np.random.default_rng(0)).terms[2], p)
                <= 1e-4
            ), name

    def test_stop_teacher_grad_blocks_teacher_side(self):
        model, cfg = ctc_setup()
        cfg.stop_teacher_grad = True
        rng = np.random.default_rng(10)
        batch = ctc_batch(rng, model)
        head = model.store.peek("teacher_out.w")
        head.grad = None
        backward(loss_total(model, batch, cfg, np.random.default_rng(0)).terms[2])
        assert head.grad is None or np.abs(head.grad).max() == 0.0

    def test_aed_kd_gradient(self):
        model, cfg = aed_setup()
        rng = np.random.default_rng(11)
        batch = aed_batch(rng, model)
        p = model.store.peek("seq.dec0.cross.wv")
        assert (
            grad_check(lambda _: loss_total(model, batch, cfg, np.random.default_rng(2)).terms[2], p)
            <= 1e-4
        )


class TestLossTotal:
    def test_breakdown_identity_on_random_batches(self):
        for seed in range(5):
            model, cfg = ctc_setup(seed=seed)
            rng = np.random.default_rng(seed)
            batch = ctc_batch(rng, model, n=3)
            out = loss_total(model, batch, cfg, np.random.default_rng(seed))
            l_org, l_em, l_kd = (t.item() for t in out.terms)
            assert abs(out.total.item() - (l_org + l_em + cfg.alpha * l_kd)) <= 1e-12
            assert l_org >= 0 and l_em >= 0 and l_kd >= 0

    def test_structural_reduction_doubles_loss(self):
        model, cfg = ctc_setup(seed=8)
        cfg.alpha = 0.0
        zero_fusion(model)
        tie_teacher_head(model)
        rng = np.random.default_rng(12)
        batch = ctc_batch(rng, model)
        out = loss_total(model, batch, cfg, np.random.default_rng(0))
        l_org, l_em, _ = (t.item() for t in out.terms)
        assert l_em == l_org
        assert out.total.item() == 2.0 * l_org

    def test_teacher_disabled_gives_plain_baseline(self):
        model, cfg = ctc_setup(seed=9)
        cfg.use_teacher = False
        rng = np.random.default_rng(13)
        batch = ctc_batch(rng, model)
        out = loss_total(model, batch, cfg, np.random.default_rng(0))
        assert out.terms[1] is None and out.terms[2] is None
        assert out.total is out.terms[0]
        assert out.total.item() == loss_total(model, batch, NO_TEACHER, None).total.item()

    def test_teacher_recomputed_each_step_from_live_params(self):
        model, cfg = aed_setup(seed=10)
        rng = np.random.default_rng(14)
        batch = aed_batch(rng, model)
        out1, _, teacher = head_logits(
            model, batch, lambda: loss_total(model, batch, cfg, np.random.default_rng(3)))
        masks = teacher_targets(model, [y for _, y in batch], cfg.lambda_mask, np.random.default_rng(3))
        # recomputing with the same parameters and masks reproduces the logits
        for item, masked, logits in zip(batch, masks, teacher):
            x, y = item
            again = model.teacher_logits(model.encode(x), y, model.oracle_guidance(masked))
            np.testing.assert_array_equal(again.data, logits)
        # after an update the same recomputation must change
        opt = Adam(model.store.tensors(), lr=1e-2)
        backward(out1.total)
        opt.step()
        changed = False
        for item, masked, logits in zip(batch, masks, teacher):
            x, y = item
            again = model.teacher_logits(model.encode(x), y, model.oracle_guidance(masked))
            changed = changed or not np.array_equal(again.data, logits)
        assert changed

    def test_the_ctc_teacher_sees_the_batchs_own_padded_targets(self):
        # a CTC teacher reads all of y: the batch's padded targets serve it
        # as they are, and nothing is drawn from the generator
        model, cfg = ctc_setup(seed=4)
        batch = Batch(ctc_batch(np.random.default_rng(4), model, n=3))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        ids, lengths = teacher_view(model, batch, cfg, rng)
        assert ids is batch.target_ids and lengths is batch.target_lengths
        assert rng.bit_generator.state == state
        # the encoder-decoder's teacher sees each target masked, in order
        model, cfg = aed_setup(seed=4)
        batch = Batch(aed_batch(np.random.default_rng(4), model, n=3))
        ids, lengths = teacher_view(model, batch, cfg, np.random.default_rng(0))
        masked = teacher_targets(model, batch.targets, cfg.lambda_mask, np.random.default_rng(0))
        assert masked != batch.targets
        np.testing.assert_array_equal(ids, padded_stack(masked, "targets")[0])
        np.testing.assert_array_equal(lengths, batch.target_lengths)

    def test_empty_batch_rejected(self):
        model, cfg = ctc_setup()
        with pytest.raises(ContractError):
            loss_total(model, [], cfg, np.random.default_rng(0))

    def test_full_objective_gradient_sampled_params(self):
        model, cfg = ctc_setup(seed=11)
        rng = np.random.default_rng(15)
        batch = ctc_batch(rng, model)

        def f(_):
            return loss_total(model, batch, cfg, np.random.default_rng(5)).total

        for name in ("seq.enc0.attn.wq", "seq.out.b", "oracle.enc0.ffn.w2", "fusion.f0.self.wv"):
            assert grad_check(f, model.store.peek(name)) <= 1e-4, name


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert opt.t == 1

    def test_single_step_moves_toward_optimum(self):
        p = Tensor([4.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        backward(T.scale(sum_sq(p), 0.5))
        opt.step()
        assert 0.0 < p.data[0] < 4.0

    def test_warmup_ramps_linearly(self):
        p = Tensor([0.0], requires_grad=True)
        opt = Adam([p], lr=1.0, warmup_steps=4)
        rates = []
        for _ in range(6):
            opt.t += 1
            rates.append(opt.rate())
            opt.t -= 1
            opt.step()
        assert rates == [0.25, 0.5, 0.75, 1.0, 1.0, 1.0]

    def test_nan_gradient_aborts(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([np.nan])  # packed by the constructor
        opt = Adam([p], lr=0.1)
        with pytest.raises(TrainingAbort, match=r"parameter 0 of shape \(1,\)"):
            opt.step()
        for bad in (np.inf, -np.inf):  # written into the flat gradient
            opt.zero_grad()
            p.grad[0] = bad
            with pytest.raises(TrainingAbort, match=r"parameter 0 of shape \(1,\)"):
                opt.step()
        np.testing.assert_array_equal(p.data, [1.0])
        assert opt.t == 0 and not opt.m.any() and not opt.v.any()

    def test_hundred_steps_bit_identical_across_runs(self):
        def run():
            model, cfg = ctc_setup(seed=12)
            rng = np.random.default_rng(16)
            batch = ctc_batch(rng, model)
            opt = Adam(model.store.tensors(), lr=1e-2, warmup_steps=10)
            losses = []
            for step in range(100):
                out = loss_total(model, batch, cfg, np.random.default_rng(step))
                opt.zero_grad()
                backward(out.total)
                opt.step()
                losses.append(out.total.item())
            return losses, [t.data.copy() for t in model.store.tensors()]

        l1, p1 = run()
        l2, p2 = run()
        assert l1 == l2
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# the flat buffers of Adam
# ---------------------------------------------------------------------------


def _state(opt):
    """Every value a refused or aborted step must leave as it was."""
    return (opt.data.tobytes(), opt.m.tobytes(), opt.v.tobytes(), opt.t,
            [p.data.tobytes() for p in opt.params])


def _assert_views(opt):
    for i, p in enumerate(opt.params):
        assert np.shares_memory(p.data, opt.data), i
        assert np.shares_memory(p.grad, opt.grad), i


def _train_steps(model, cfg, opt, batch, steps):
    for step in range(steps):
        out = loss_total(model, batch, cfg, np.random.default_rng(step))
        opt.zero_grad()
        backward(out.total)
        opt.step()


class TestFlatAdam:
    def test_parameters_stay_views_and_in_place_writes_reach_the_step(self):
        """Two same-seed models, one under the fused Adam and one under the
        per-tensor reference, stay bit-identical through 10 steps, the
        in-place ablations and one step after them."""
        (model, cfg), (ref_model, _) = aed_setup(seed=3), aed_setup(seed=3)
        batch = aed_batch(np.random.default_rng(21), model)
        opt = Adam(model.store.tensors(), lr=1e-2, warmup_steps=3)
        ref = ReferenceAdam(ref_model.store.tensors(), lr=1e-2, warmup_steps=3)
        _assert_views(opt)
        for steps in (10, 1):
            _train_steps(model, cfg, opt, batch, steps)
            _train_steps(ref_model, cfg, ref, batch, steps)
            _assert_views(opt)
            for m in (model, ref_model):
                zero_fusion(m)
                zero_cross_attention(m)
                tie_teacher_head(m)
            _assert_views(opt)
        assert opt.t == ref.t == 11
        for (name, p), q in zip(model.store.items(), ref_model.store.tensors()):
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_rebound_data_is_refused_and_changes_nothing(self):
        model, cfg = ctc_setup(seed=4)
        batch = ctc_batch(np.random.default_rng(22), model)
        opt = Adam(model.store.tensors(), lr=1e-2)
        _train_steps(model, cfg, opt, batch, 2)
        before = _state(opt)
        p = opt.params[3]
        p.data = p.data.copy()
        with pytest.raises(ContractError, match=r"parameter 3 of shape .* rebound"):
            opt.step()
        assert _state(opt) == before

    def test_a_second_optimizer_over_the_same_tensors_makes_the_first_refuse(self):
        model, cfg = ctc_setup(seed=5)
        batch = ctc_batch(np.random.default_rng(23), model)
        opt = Adam(model.store.tensors(), lr=1e-2)
        _train_steps(model, cfg, opt, batch, 2)
        before = _state(opt)
        Adam(model.store.tensors(), lr=1e-2)
        with pytest.raises(ContractError, match="parameter 0 "):
            opt.step()
        assert _state(opt) == before

    def test_a_steady_step_allocates_no_parameter_sized_array(self):
        """The update runs in place: one step of the default encoder-decoder
        allocates less than one float64 vector of its parameter count."""
        model = build_model(RunConfig(task="aed").resolved().model_config(), seed=0)
        opt = Adam(model.store.tensors(), lr=3e-3, warmup_steps=40)
        rng = np.random.default_rng(24)
        for _ in range(2):
            opt.zero_grad()
            opt.grad[:] = rng.standard_normal(opt.grad.size)
            opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < opt.data.nbytes


@st.composite
def adam_runs(draw):
    """Parameter shapes, a schedule, and per step and tensor how its
    gradient arrives: left None, assigned as a foreign array, or
    accumulated by ``backward``."""
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=3).map(tuple), min_size=1, max_size=5))
    lr = draw(st.floats(1e-4, 1.0))
    warmup = draw(st.one_of(st.just(0), st.integers(1, 6)))
    steps = draw(st.integers(1, 12))
    kinds = st.sampled_from(("none", "foreign", "backward"))
    plan = draw(st.lists(st.lists(kinds, min_size=len(shapes), max_size=len(shapes)),
                         min_size=steps, max_size=steps))
    return shapes, lr, warmup, plan, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(adam_runs())
def test_fused_step_is_bit_identical_to_the_per_tensor_reference(run):
    shapes, lr, warmup, plan, seed = run
    rng = np.random.default_rng(seed)
    values = [rng.standard_normal(s) for s in shapes]
    fused = [Tensor(v, requires_grad=True) for v in values]
    plain = [Tensor(v, requires_grad=True) for v in values]
    opt, ref = Adam(fused, lr, warmup), ReferenceAdam(plain, lr, warmup)
    for kinds in plan:
        opt.zero_grad()
        ref.zero_grad()
        terms = ([], [])
        for kind, s, p, q in zip(kinds, shapes, fused, plain):
            g = rng.standard_normal(s) * 10.0 ** rng.integers(-3, 4)
            if kind == "none":
                p.grad = None
            elif kind == "foreign":
                p.grad, q.grad = g.copy(), g.copy()
            else:
                terms[0].append(T.sum_all(T.scale(p, g)))
                terms[1].append(T.sum_all(T.scale(q, g)))
        for ts in terms:
            if ts:
                loss = ts[0]
                for term in ts[1:]:
                    loss = T.add(loss, term)
                backward(loss)
        opt.step()
        ref.step()
    assert opt.t == ref.t == len(plan)
    for p, q in zip(fused, plain):
        assert p.data.tobytes() == q.data.tobytes()
    for flat, per_tensor in ((opt.data, [q.data for q in plain]), (opt.m, ref._m), (opt.v, ref._v)):
        assert flat.tobytes() == np.concatenate([a.reshape(-1) for a in per_tensor]).tobytes()
