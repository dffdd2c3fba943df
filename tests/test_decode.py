"""Incremental greedy decoding with a DecodeCache, checked against the full
recompute it replaces, per-row stopping in a batch, and inference without
a tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.errors import ContractError, ShapeError, VocabularyError
from oracle_distill.models import (
    AUX_PREFIXES,
    MASK,
    AedModel,
    CtcModel,
    ModelConfig,
)

HEADS = ("seq.out", "teacher_out")


def tiny_aed(seed=0, **kw):
    defaults = dict(task="aed", vocab_size=5, d_model=8, enc_layers=1,
                    dec_layers=2, heads=2, ffn_dim=16, fusion_layers=1)
    defaults.update(kw)
    return AedModel(ModelConfig(**defaults), seed=seed)


def reference_greedy(model, memory, head, limit):
    """Greedy decode that reruns the whole prefix for every token."""
    prefix = [model.bos]
    for _ in range(limit):
        nxt = int(np.argmax(model.decode_logits(model.decode_cache(memory), prefix, head=head).data[-1]))
        if nxt == model.eos:
            break
        prefix.append(nxt)
    return tuple(prefix[1:])


@st.composite
def decode_cases(draw):
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        task="aed",
        vocab_size=draw(st.integers(1, 4)),
        # heads 1 gives odd widths too
        d_model=heads * draw(st.integers(2, 4)),
        enc_layers=draw(st.integers(0, 1)),
        dec_layers=draw(st.integers(0, 2)),
        heads=heads,
        ffn_dim=draw(st.integers(1, 8)),
        fusion_layers=draw(st.integers(0, 1)),
    )
    model = AedModel(cfg, seed=draw(st.integers(0, 2 ** 16)))
    content = st.integers(1, cfg.vocab_size)
    src = draw(st.lists(content, min_size=1, max_size=4))
    target = draw(st.lists(content, min_size=1, max_size=4))
    masked = [MASK if hidden else t for t, hidden in zip(target, draw(
        st.lists(st.booleans(), min_size=len(target), max_size=len(target))))]
    return model, src, target, masked


@settings(max_examples=40, deadline=None)
@given(decode_cases(), st.data())
def test_cached_rows_equal_the_full_prefix_rows(case, data):
    model, src, _, masked = case
    head = data.draw(st.sampled_from(HEADS))
    memory = model.encode(src)
    if head == "teacher_out":
        memory = model.fuse(memory, model.oracle_guidance(masked))
    n = data.draw(st.integers(1, 12))
    prefix = [model.bos] + data.draw(st.lists(st.integers(0, model.eos), min_size=n - 1, max_size=n - 1))
    full = model.decode_logits(model.decode_cache(memory), prefix, head=head).data
    # feed the prefix in chunks: one token at a time, as greedy decoding
    # does, or several at once under the causal mask's lower rows
    cache = model.decode_cache(memory)
    start = 0
    while start < n:
        stop = data.draw(st.integers(start + 1, n))
        rows = model.decode_logits(cache, prefix[start:stop], head=head).data
        assert rows.shape == (stop - start, model.eos + 1)
        np.testing.assert_allclose(rows, full[start:stop], rtol=0, atol=1e-12)
        assert cache.length == stop
        start = stop


@settings(max_examples=40, deadline=None)
@given(decode_cases())
def test_predictions_equal_a_full_recompute(case):
    model, src, target, masked = case
    limit = 2 * len(src) + 4
    memory = model.encode(src)
    assert model.predict([src])[0] == reference_greedy(model, memory, "seq.out", limit)
    fused = model.fuse(memory, model.oracle_guidance(masked))
    assert model.predict_teacher([src], [masked])[0] == reference_greedy(model, fused, "teacher_out", limit)


@pytest.mark.parametrize("mode", ["student", "teacher"])
def test_every_row_of_a_batch_stops_at_its_own_cap(mode):
    model = tiny_aed(seed=7)
    # no row may end early, so each decodes to its own cap; the last one
    # decodes past the 64 rows of the smallest position table
    for head in HEADS:
        model.store.peek(f"{head}.b").data[model.eos] = -1e3
    sources = [(1,), (1, 2, 3, 4, 5, 1, 2), (3, 2), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5) * 6 + (1,)]
    masked = [(MASK,), (2, MASK, 4), (1, 1), (MASK, 3, MASK, 2, 5), (4, MASK)]
    caps = [2 * len(src) + 4 for src in sources]
    assert caps == [6, 18, 8, 14, 66]
    if mode == "student":
        batch = model.predict(sources)
        solo = [model.predict([src])[0] for src in sources]
        memories = [model.encode(src) for src in sources]
    else:
        batch = model.predict_teacher(sources, masked)
        solo = [model.predict_teacher([src], [m])[0] for src, m in zip(sources, masked)]
        memories = [model.fuse(model.encode(src), model.oracle_guidance(m)) for src, m in zip(sources, masked)]
    assert [len(row) for row in batch] == caps
    assert batch == solo
    head = HEADS[mode == "teacher"]
    assert batch == [reference_greedy(model, mem, head, cap) for mem, cap in zip(memories, caps)]


def tracked_nodes_during(monkeypatch, fn):
    """Run ``fn`` and count the graph nodes it records."""
    count = [0]
    make_node = T._node

    def counted(data, parents, backward):
        out = make_node(data, parents, backward)
        count[0] += out._backward is not None
        return out

    monkeypatch.setattr(T, "_node", counted)
    fn()
    monkeypatch.setattr(T, "_node", make_node)
    return count[0]


class TestInferenceWithoutTape:
    def test_student_predict_builds_no_node_and_reads_no_aux_param(self, monkeypatch):
        model = tiny_aed(seed=3)
        model.store.reset_reads()
        assert tracked_nodes_during(monkeypatch, lambda: model.predict([(1, 2, 3)])) == 0
        assert model.store.reads_with_prefix(*AUX_PREFIXES) == 0
        # the same calls outside predict do build a graph
        decode = lambda: model.decode_logits(model.decode_cache(model.encode((1, 2))), [model.bos])
        assert tracked_nodes_during(monkeypatch, decode) > 0

    def test_teacher_and_ctc_predicts_build_no_node(self, monkeypatch):
        aed = tiny_aed(seed=4)
        assert tracked_nodes_during(monkeypatch, lambda: aed.predict_teacher([(1, 2)], [(3, MASK)])) == 0
        ctc = CtcModel(ModelConfig(task="ctc", vocab_size=3, feature_dim=4, d_model=8,
                                   enc_layers=1, heads=2, ffn_dim=16), seed=4)
        feats = np.random.default_rng(4).standard_normal((5, 4))
        assert tracked_nodes_during(monkeypatch, lambda: ctc.predict([feats])) == 0
        assert tracked_nodes_during(monkeypatch, lambda: ctc.predict_teacher([feats], [(1, 2)])) == 0

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    def test_memory_projections_are_read_once_per_decode(self, mode):
        model = tiny_aed(seed=5)
        model.store.reset_reads()
        if mode == "student":
            (pred,) = model.predict([(1, 2, 3)])
        else:
            (pred,) = model.predict_teacher([(1, 2, 3)], [(MASK, 5)])
        reads = model.store.reads
        calls = reads["seq.tgt_embed"]
        assert calls == min(len(pred) + 1, 2 * 3 + 4) and calls > 2
        for i in range(model.cfg.dec_layers):
            for name in ("cross.wk", "cross.wv", "ln_mem.g", "ln_mem.b"):
                assert reads[f"seq.dec{i}.{name}"] == 1
            for name in ("cross.wq", "cross.wo", "self.wk", "self.wv"):
                assert reads[f"seq.dec{i}.{name}"] == calls


class TestCacheMisuse:
    def test_an_empty_cache_needs_the_start_symbol_first(self):
        model = tiny_aed()
        cache = model.decode_cache(model.encode((1, 2)))
        with pytest.raises(ContractError, match="start symbol"):
            model.decode_logits(cache, [3])
        assert cache.length == 0 and cache.self_kv == [None, None]

    def test_a_token_out_of_range_is_refused_before_the_cache_changes(self):
        model = tiny_aed()
        cache = model.decode_cache(model.encode((1, 2)))
        with pytest.raises(VocabularyError, match="decoder prefix token out of range"):
            model.decode_logits(cache, [model.bos, model.eos + 1])
        assert cache.length == 0 and cache.self_kv == [None, None]
        model.decode_logits(cache, [model.bos])
        cross_kv, self_kv = list(cache.cross_kv), list(cache.self_kv)
        for bad in (-1, model.eos + 1):
            with pytest.raises(VocabularyError, match="decoder prefix token out of range"):
                model.decode_logits(cache, [bad])
            assert cache.length == 1
            assert all(a is b for a, b in zip(cache.cross_kv + cache.self_kv, cross_kv + self_kv))
        model.decode_logits(cache, [model.eos])
        assert cache.length == 2

    def test_a_call_needs_new_tokens(self):
        model = tiny_aed()
        cache = model.decode_cache(model.encode((1,)))
        model.decode_logits(cache, [model.bos])
        with pytest.raises(ContractError):
            model.decode_logits(cache, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.data())
def test_a_refused_call_leaves_the_cache_as_it_was(dec_layers, warm, data):
    model = tiny_aed(seed=data.draw(st.integers(0, 2 ** 16)), dec_layers=dec_layers)
    token = st.integers(0, model.eos)
    memory = model.encode([[1, 2, 3], [4, 5, 1]])
    cache, twin = model.decode_cache(memory), model.decode_cache(memory)
    if warm:
        prefix = [[model.bos] + data.draw(st.lists(token, min_size=warm - 1, max_size=warm - 1))] * 2
        for c in (cache, twin):
            model.decode_logits(c, prefix)
    # a first call's row must begin with the start symbol; a later one's may not
    first = [model.bos] if warm == 0 else []
    fault = data.draw(st.sampled_from(["rows", "token", "empty"] + ["start"] * (warm == 0)))
    if fault == "rows":  # three rows of tokens for a memory of two
        bad = [first + [data.draw(token)] for _ in range(3)]
    elif fault == "token":
        bad = [first + [data.draw(token)], first + [data.draw(st.sampled_from([-1, model.eos + 1]))]]
    elif fault == "empty":
        bad = np.zeros((2, 0), dtype=np.int64)
    else:
        bad = [[data.draw(st.integers(1, model.eos))]] * 2
    self_kv = list(cache.self_kv)
    with pytest.raises((ShapeError, VocabularyError, ContractError)):
        model.decode_logits(cache, bad)
    assert cache.length == warm
    assert len(cache.self_kv) == dec_layers and all(a is b for a, b in zip(cache.self_kv, self_kv))
    step = [first or [data.draw(token)]] * 2
    assert model.decode_logits(cache, step).data.tobytes() == model.decode_logits(twin, step).data.tobytes()
    assert cache.length == twin.length == warm + 1
