"""One graph per batch: the batched objective and batched predictions
against single-item calls, inert padding, and a tape that does not grow
with the batch, pinned node by node for one step of five configs."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_distill import models, objectives
from oracle_distill import tensor as T
from oracle_distill.config import RunConfig
from oracle_distill.ctc import min_frames
from oracle_distill.errors import ContractError, ShapeError
from oracle_distill.harness import generate_dataset
from oracle_distill.models import MASK, AedModel, CtcModel, ModelConfig, build_model
from oracle_distill.objectives import TrainConfig, loss_total, teacher_targets
from oracle_distill.tasks import (
    Batch,
    batch_iter,
    gen_aed_dataset,
    gen_ctc_dataset,
    padded_stack,
    split_examples,
)

from helpers import head_logits


def _losses(out):
    """The loss columns of the metrics row a step writes: each term's
    value (0.0 for an absent one), then the total's."""
    return [0.0 if t is None else t.item() for t in out.terms] + [out.total.item()]


def _grads(model, out):
    for t in model.store.tensors():
        t.grad = None
    T.backward(out.total)
    return {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for name, t in model.store.items()}


@st.composite
def models_and_batches(draw, aed_teacher_only=False):
    """A small model of either task, a training config, a batch and a mask
    seed; encoder-decoder models with the teacher on alone if
    ``aed_teacher_only``."""
    task = "aed" if aed_teacher_only else draw(st.sampled_from(("ctc", "aed")))
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        task=task,
        vocab_size=draw(st.integers(2, 4)),
        feature_dim=draw(st.integers(1, 3)),
        # one head allows odd widths
        d_model=heads * draw(st.integers(2, 4)),
        enc_layers=draw(st.integers(0, 2)),
        dec_layers=draw(st.integers(0, 2)),
        heads=heads,
        ffn_dim=draw(st.integers(1, 8)),
        fusion_layers=draw(st.integers(0, 1)),
    )
    model = (CtcModel if task == "ctc" else AedModel)(cfg, seed=draw(st.integers(0, 2 ** 16)))
    train = TrainConfig(
        alpha=draw(st.sampled_from((0.0, 0.5, 2.0))),
        lambda_mask=draw(st.sampled_from((0.0, 0.5, 1.0))),
        kd_form=draw(st.sampled_from(("l2", "kl"))),
        stop_teacher_grad=draw(st.booleans()),
        temperature=draw(st.sampled_from((1.0, 2.0))),
        use_teacher=aed_teacher_only or draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    n = draw(st.integers(1, 4))
    long_item = draw(st.integers(0, n - 1))  # at least 8 keys, where summation order shows
    label = st.integers(1, cfg.vocab_size)
    batch = []
    for i in range(n):
        y = tuple(draw(st.lists(label, min_size=1, max_size=9 if i == long_item else 3)))
        lo = max(min_frames(y), 8) if i == long_item else min_frames(y)
        length = draw(st.integers(lo, lo + 3))
        if task == "ctc":
            x = rng.standard_normal((length, cfg.feature_dim))
        else:
            x = tuple(draw(st.lists(label, min_size=length, max_size=length)))
        batch.append((x, y))
    return model, train, batch, draw(st.integers(0, 2 ** 16))


def _singles(model, batch, train, mask_seed):
    """Each item's own ``loss_total`` call and the student logits it
    made."""
    # the batch draws each item's mask in batch order from one stream, so
    # single-item calls sharing one generator draw the same masks
    rng = np.random.default_rng(mask_seed)
    singles = [head_logits(model, [item], lambda item=item: loss_total(model, [item], train, rng))
               for item in batch]
    return [(out, student[0]) for out, student, _ in singles]


def _mean_grads(model, singles):
    want = {name: np.zeros_like(t.data) for name, t in model.store.items()}
    for single, _ in singles:
        for name, g in _grads(model, single).items():
            want[name] += g / len(singles)
    return want


def _ulp_movement(model, gradient, want):
    """Largest change of the gradient ``want`` that ``gradient()`` computes
    when every parameter moves up by one ulp: how much this model amplifies
    round-off."""
    saved = [(t, t.data.copy()) for t in model.store.tensors()]
    for t, data in saved:
        t.data[...] = np.nextafter(data, np.inf)
    nudged = gradient()
    for t, data in saved:
        t.data[...] = data
    return max(np.abs(nudged[name] - want[name]).max() for name in want)


def _tiny_aed(seed, **layers):
    cfg = ModelConfig(task="aed", vocab_size=2, d_model=2, heads=1, fusion_layers=0, **layers)
    return AedModel(cfg, seed=seed)


# Round-off cases: the gradient gap was 3.0e-10 against 1e-12 x max|g| =
# 1.06e-10, and 2.4e-11 against 1.6e-11; a 1-ulp nudge of the parameters
# moves the reference gradient by 3.0e-10 and 6.0e-12.
@example((_tiny_aed(1, enc_layers=1, dec_layers=1, ffn_dim=2), TrainConfig(use_teacher=False),
          [((1,) * 8, (1,)), ((1, 2, 1, 1, 1, 1), (1, 1))], 0))
@example((_tiny_aed(87, enc_layers=2, dec_layers=2, ffn_dim=8), TrainConfig(use_teacher=False),
          [((1, 1, 1, 2, 1, 1), (1, 2, 2)), ((1,) * 8, (1,))], 0))
@settings(max_examples=100, deadline=None)
@given(models_and_batches())
def test_batched_objective_equals_the_mean_of_single_items(case):
    model, train, batch, mask_seed = case
    out, student, _ = head_logits(
        model, batch, lambda: loss_total(model, batch, train, np.random.default_rng(mask_seed)))
    grads = _grads(model, out)

    singles = _singles(model, batch, train, mask_seed)
    for i, got in enumerate(_losses(out)):
        want = float(np.mean([_losses(s)[i] for s, _ in singles]))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), i
    for got, (_, want) in zip(student, singles):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # the batch's masks are those of single items drawing from one stream
    targets = [y for _, y in batch]
    rng = np.random.default_rng(mask_seed)
    assert teacher_targets(model, targets, train.lambda_mask, np.random.default_rng(mask_seed)) == [
        teacher_targets(model, [y], train.lambda_mask, rng)[0] for y in targets]

    # The batch sums attention over its padded keys in another order than
    # a single item does.  Width-2 layer norms can amplify that round-off
    # past 1e-12 x max|g|, so the bound also allows 16 times the gradient's
    # measured movement under a 1-ulp nudge; over 1600 drawn cases the
    # gap never exceeded 4.9 times that movement.
    want = _mean_grads(model, singles)
    scale = max(np.abs(g).max() for g in want.values())
    movement = _ulp_movement(model, lambda: _mean_grads(model, _singles(model, batch, train, mask_seed)), want)
    tol = max(1e-12 * scale, 16 * movement)
    for name, g in grads.items():
        assert np.abs(g - want[name]).max() <= tol, name


def _fill_padding(array, lengths, rng):
    """Write garbage into every cell of ``array`` past its item's length."""
    for i, n in enumerate(lengths):
        pad = array[i, n:]
        if array.dtype.kind == "f":
            pad[...] = rng.standard_normal(pad.shape) * 1e6
        else:
            pad[...] = rng.integers(-10 ** 6, 10 ** 6, size=pad.shape)


def _garbage(batch, rng):
    """A copy of ``batch`` whose padded cells hold garbage."""
    dirty = Batch(batch.examples)
    _fill_padding(dirty.target_ids, dirty.target_lengths, rng)
    _fill_padding(dirty.sources, dirty.lengths, rng)
    return dirty


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_padding_is_inert(task):
    cfg = RunConfig(task=task, seed=3, steps=2).resolved()
    spec = cfg.task_spec()
    data = gen_ctc_dataset(spec, 80) if task == "ctc" else gen_aed_dataset(spec, 80)
    batch = next(batch_iter(split_examples(data, "train"), 8, np.random.default_rng(0)))
    assert len(set(batch.lengths)) > 1 and len(set(batch.target_lengths)) > 1
    dirty = _garbage(batch, np.random.default_rng(1))
    model = (CtcModel if task == "ctc" else AedModel)(cfg.model_config(), seed=3)
    train = cfg.train_config()

    clean_out = loss_total(model, batch, train, np.random.default_rng(5))
    clean = _grads(model, clean_out)
    dirty_out = loss_total(model, dirty, train, np.random.default_rng(5))
    assert _losses(dirty_out) == _losses(clean_out)
    for name, g in _grads(model, dirty_out).items():
        np.testing.assert_array_equal(g, clean[name], err_msg=name)


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_tape_grows_by_a_small_constant_per_item(task):
    cfg = RunConfig(task=task, seed=1).resolved()
    spec = cfg.task_spec()
    data = gen_ctc_dataset(spec, 60) if task == "ctc" else gen_aed_dataset(spec, 60)
    model = (CtcModel if task == "ctc" else AedModel)(cfg.model_config(), seed=1)
    train = cfg.train_config()
    nodes = [
        len(T.Tape(loss_total(model, data[:b], train, np.random.default_rng(0)).total).nodes)
        for b in range(1, 9)
    ]
    # one graph whatever the batch: the CTC terms share one DP node, and
    # the encoder-decoder's two heads one decoder pass
    assert nodes == [nodes[0]] * 8
    # every pre-norm residual sublayer is one node, norm and residual
    # included; a cross-attention memory's norm and key and value
    # projections are three more
    assert nodes[0] == {"ctc": 38, "aed": 66}[task]


@pytest.mark.parametrize("overrides, count, digest", [
    (dict(task="ctc"), 38, "2251398f58e7b66975288e61963d762d14ac81aac1fe590eb6c027d04087a792"),
    (dict(task="aed"), 66, "cbccd79936e51dd6036b725098873dc792d1b5538fd933a93b3e7c01550beaef"),
    (dict(task="ctc", use_teacher=False), 11, "938ac7ecd656609cbbdfa3aad22c972024fa279bebdb5290ed762b9ff5768328"),
    (dict(task="aed", use_teacher=False), 28, "22271f1d7cac4fa97d36bc5c2876372eda14c6684c0952db74acc1da95c18474"),
    (dict(task="ctc", kd_form="kl", stop_teacher_grad=True), 40,
     "2b7f8a3638f2a28c61ce8334f9bf077d83562f7fcc5f6b13b77ad9b65183443f"),
], ids=["ctc", "aed", "ctc no teacher", "aed no teacher", "ctc kl stopped teacher"])
def test_the_tape_of_a_step_is_pinned(overrides, count, digest):
    """The (backward rule, shape) of every node of one step's tape, in
    tape order.  A change that alters the graph on purpose updates the
    pin and says so."""
    cfg = RunConfig(seed=1, **overrides).resolved()
    examples = split_examples(generate_dataset(cfg), "train")[:8]
    model = build_model(cfg.model_config(), seed=cfg.seed)
    out = loss_total(model, examples, cfg.train_config(), np.random.default_rng(3))
    tape = [(node._backward.__qualname__, node.data.shape) for node in T.Tape(out.total).nodes]
    assert len(tape) == count
    assert hashlib.sha256(repr(tape).encode()).hexdigest() == digest


def _two_pass(model):
    """``model.student_and_teacher_logits`` as separate ``student_head`` and
    ``teacher_logits`` calls, two decoder passes in that order."""

    def two_pass(memory, target, guidance, lengths, target_lengths):
        return (model.student_head(memory, target, lengths, target_lengths),
                model.teacher_logits(memory, target, guidance, lengths, target_lengths))

    return two_pass


def _check_joint_pass(model, train, batch, mask_seed, exact):
    """The joint decoder pass of ``loss_total`` against two passes.

    ``exact``: logits and terms bit for bit, gradients within 1e-12 of the
    largest.  Otherwise within round-off: BLAS picks its kernel for a
    product by the row count, which the stack doubles, and for a product
    with at most 3 output columns whose row count is not a multiple of 4
    the kernels sum in different orders."""
    def step():
        return loss_total(model, batch, train, np.random.default_rng(mask_seed))

    joint, *joint_logits = head_logits(model, batch, step)
    grads = _grads(model, joint)

    def apart():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "student_and_teacher_logits", _two_pass(model))
            return head_logits(model, batch, step)

    ref, *ref_logits = apart()
    want = _grads(model, ref)
    pairs = [(a.data, b.data) for a, b in zip(joint.terms, ref.terms)]
    for side, ref_side in zip(joint_logits, ref_logits):
        pairs += list(zip(side, ref_side))
    scale = max(np.abs(g).max() for g in want.values())
    if exact:
        assert _losses(joint) == _losses(ref)
        assert all(a.tobytes() == b.tobytes() for a, b in pairs)
        tol = 1e-12 * scale
    else:
        for a, b in pairs:
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * max(1.0, np.abs(b).max()))
        tol = max(1e-12 * scale, 16 * _ulp_movement(model, lambda: _grads(model, apart()[0]), want))
    for name, g in grads.items():
        assert np.abs(g - want[name]).max() <= tol, name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_decoder_pass_serves_both_heads(seed):
    cfg = RunConfig(task="aed", seed=seed).resolved()
    data = split_examples(gen_aed_dataset(cfg.task_spec(), 80), "train")
    model = AedModel(cfg.model_config(), seed=seed)
    _check_joint_pass(model, cfg.train_config(), Batch(data[:8]), seed, exact=True)


@settings(max_examples=100, deadline=None)
@given(models_and_batches(aed_teacher_only=True))
def test_one_decoder_pass_serves_both_heads_of_any_model(case):
    model, train, batch, mask_seed = case
    _check_joint_pass(model, train, batch, mask_seed, exact=False)


def test_a_joint_pass_needs_a_batch():
    model = AedModel(ModelConfig(task="aed", vocab_size=2, d_model=4), seed=0)
    with pytest.raises(ShapeError, match="padded batch"):
        model.student_and_teacher_logits(model.encode((1, 2)), (1,), model.oracle_guidance((MASK,)), None, None)


@pytest.mark.parametrize("use_teacher", [True, False])
def test_ctc_objective_makes_one_dp_call(monkeypatch, use_teacher):
    cfg = RunConfig(task="ctc", seed=1).resolved()
    data = gen_ctc_dataset(cfg.task_spec(), 20)
    model = CtcModel(cfg.model_config(), seed=1)
    train = TrainConfig(use_teacher=use_teacher)
    calls = []
    dp = objectives.ctc_loss_dp

    def counted(u, y, frames):
        calls.append((u.shape, len(y), tuple(frames)))
        return dp(u, y, frames)

    monkeypatch.setattr(objectives, "ctc_loss_dp", counted)
    batch = Batch(data[:8])
    out = loss_total(model, batch, train, np.random.default_rng(0))
    stack = 2 * len(batch) if use_teacher else len(batch)
    assert calls == [((stack, max(batch.lengths), model.cfg.vocab_size + 1), stack,
                      tuple(batch.lengths) * (stack // len(batch)))]
    assert (out.terms[1] is not None) == use_teacher


# ---------------------------------------------------------------------------
# batched prediction
# ---------------------------------------------------------------------------


@st.composite
def models_and_items(draw):
    """A small untrained model of either task and up to five items of mixed
    lengths, each a source and a target (masked in places for the
    encoder-decoder teacher)."""
    task = draw(st.sampled_from(("ctc", "aed")))
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        task=task,
        vocab_size=draw(st.integers(2, 4)),
        feature_dim=draw(st.integers(1, 3)),
        d_model=heads * draw(st.integers(2, 4)),
        enc_layers=draw(st.integers(0, 2)),
        dec_layers=draw(st.integers(0, 2)),
        heads=heads,
        ffn_dim=draw(st.integers(1, 8)),
        fusion_layers=draw(st.integers(0, 1)),
    )
    model = (CtcModel if task == "ctc" else AedModel)(cfg, seed=draw(st.integers(0, 2 ** 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    label = st.integers(1, cfg.vocab_size)
    items = []
    for _ in range(draw(st.integers(1, 5))):
        y = draw(st.lists(label, min_size=1, max_size=4))
        length = draw(st.integers(1, 8))
        if task == "ctc":
            x = rng.standard_normal((length, cfg.feature_dim))
        else:
            x = tuple(draw(st.lists(label, min_size=length, max_size=length)))
            y = [draw(st.sampled_from((t, MASK))) for t in y]
        items.append((x, tuple(y)))
    return model, items


def _dirty_padded_stack(rng):
    """``tasks.padded_stack`` with garbage in every padded cell."""

    def padded(seqs, what):
        out, lengths = padded_stack(seqs, what)
        _fill_padding(out, lengths, rng)
        return out, lengths

    return padded


@settings(max_examples=80, deadline=None)
@given(models_and_items(), st.sampled_from(("student", "teacher")), st.data())
def test_batched_predictions_equal_single_items(case, mode, data):
    model, items = case
    order = data.draw(st.permutations(range(len(items))))
    chosen = [items[i] for i in order[: data.draw(st.integers(1, len(items)))]]
    sources, targets = [x for x, _ in chosen], [y for _, y in chosen]
    if mode == "student":
        predict, args = model.predict, (sources,)
        singles = [model.predict([x])[0] for x in sources]
    else:
        predict, args = model.predict_teacher, (sources, targets)
        singles = [model.predict_teacher([x], [y])[0] for x, y in chosen]
    assert predict(*args) == singles
    # the padded cells of the sources and targets are never read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "padded_stack", _dirty_padded_stack(np.random.default_rng(len(chosen))))
        assert predict(*args) == singles


@pytest.mark.parametrize("model", [
    CtcModel(ModelConfig(task="ctc", vocab_size=2, feature_dim=2, d_model=4), seed=0),
    AedModel(ModelConfig(task="aed", vocab_size=2, d_model=4), seed=0),
], ids=["ctc", "aed"])
def test_an_empty_list_is_refused_by_name(model):
    with pytest.raises(ContractError, match="no sources"):
        model.predict([])
    with pytest.raises(ContractError, match="no sources"):
        model.predict_teacher([], [])
    with pytest.raises(ContractError, match="1 sources but 0 targets"):
        model.predict_teacher([(1, 2)], [])
