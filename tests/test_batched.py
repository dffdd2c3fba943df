"""One graph per batch: the batched objective against single-item calls,
inert padding, and a tape that does not grow with the batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.config import RunConfig
from oracle_distill.ctc import min_frames
from oracle_distill.models import AedModel, CtcModel, ModelConfig
from oracle_distill.objectives import TrainConfig, loss_total
from oracle_distill.tasks import Batch, batch_iter, gen_aed_dataset, gen_ctc_dataset, split_examples

TERMS = ("l_org", "l_em", "l_kd", "l_total")


def _grads(model, out):
    for t in model.store.tensors():
        t.zero_grad()
    T.backward(out.total)
    return {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
            for name, t in model.store.items()}


@st.composite
def models_and_batches(draw):
    task = draw(st.sampled_from(("ctc", "aed")))
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
        use_teacher=draw(st.booleans()),
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


@settings(max_examples=100, deadline=None)
@given(models_and_batches())
def test_batched_objective_equals_the_mean_of_single_items(case):
    model, train, batch, mask_seed = case
    out = loss_total(model, batch, train, np.random.default_rng(mask_seed))
    grads = _grads(model, out)

    # the batch draws each item's mask in batch order from one stream, so
    # single-item calls sharing one generator draw the same masks
    rng = np.random.default_rng(mask_seed)
    singles = [loss_total(model, [item], train, rng) for item in batch]
    for name in TERMS:
        got = getattr(out.breakdown, name)
        want = float(np.mean([getattr(s.breakdown, name) for s in singles]))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300), name
    for i, single in enumerate(singles):
        np.testing.assert_allclose(out.student_logits[i], single.student_logits[0], rtol=0, atol=1e-12)
        assert out.masked_targets[i] == single.masked_targets[0]

    want = {name: np.zeros_like(g) for name, g in grads.items()}
    for single in singles:
        for name, g in _grads(model, single).items():
            want[name] += g / len(batch)
    scale = max(np.abs(g).max() for g in want.values())
    for name, g in grads.items():
        assert np.abs(g - want[name]).max() <= 1e-12 * scale, name


def _garbage(batch, rng):
    """A copy of ``batch`` whose padded cells hold garbage."""
    dirty = Batch(batch.examples)
    arrays = [(dirty.target_ids, dirty.target_lengths)]
    if dirty.features is not None:
        arrays.append((dirty.features, dirty.lengths))
    else:
        arrays.append((dirty.src_tokens, dirty.lengths))
    for array, lengths in arrays:
        for i, n in enumerate(lengths):
            pad = array[i, n:]
            if array.dtype.kind == "f":
                pad[...] = rng.standard_normal(pad.shape) * 1e6
            else:
                pad[...] = rng.integers(-10 ** 6, 10 ** 6, size=pad.shape)
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
    assert dirty_out.breakdown == clean_out.breakdown
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
    # the CTC terms slice each item's frames and run its DP: two nodes per
    # item for each of l_org and l_em; everything else is one graph
    per_item = 4 if task == "ctc" else 0
    assert nodes == [nodes[0] + per_item * b for b in range(8)]
    if task == "aed":
        assert nodes[-1] < 400
