"""Incremental greedy decoding with a DecodeCache, checked against the full
recompute it replaces, and inference without a tape."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_distill import tensor as T
from oracle_distill.errors import ContractError
from oracle_distill.models import (
    AUX_PREFIXES,
    MASK,
    AedModel,
    CtcModel,
    DecodeCache,
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
        nxt = int(np.argmax(model.decode_logits(memory, prefix, head=head).data[-1]))
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
        max_len=draw(st.integers(8, 12)),
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
    n = data.draw(st.integers(1, model.cfg.max_len))
    prefix = [model.bos] + data.draw(st.lists(st.integers(0, model.eos), min_size=n - 1, max_size=n - 1))
    full = model.decode_logits(memory, prefix, head=head).data
    # feed the prefix in chunks: one token at a time, as greedy decoding
    # does, or several at once under the causal mask's lower rows
    cache = DecodeCache()
    start = 0
    while start < n:
        stop = data.draw(st.integers(start + 1, n))
        rows = model.decode_logits(memory, prefix[start:stop], head=head, cache=cache).data
        assert rows.shape == (stop - start, model.eos + 1)
        np.testing.assert_allclose(rows, full[start:stop], rtol=0, atol=1e-12)
        assert cache.length == stop
        start = stop


@settings(max_examples=40, deadline=None)
@given(decode_cases())
def test_predictions_equal_a_full_recompute(case):
    model, src, target, masked = case
    limit = min(model.cfg.max_len - 1, 2 * len(src) + 4)
    memory = model.encode(src)
    assert model.predict(src) == reference_greedy(model, memory, "seq.out", limit)
    fused = model.fuse(memory, model.oracle_guidance(masked))
    assert model.predict_teacher(src, target, masked) == reference_greedy(model, fused, "teacher_out", limit)


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
        assert tracked_nodes_during(monkeypatch, lambda: model.predict((1, 2, 3))) == 0
        assert model.store.reads_with_prefix(*AUX_PREFIXES) == 0
        # the same calls outside predict do build a graph
        assert tracked_nodes_during(monkeypatch, lambda: model.decode_logits(model.encode((1, 2)), [model.bos])) > 0

    def test_teacher_and_ctc_predicts_build_no_node(self, monkeypatch):
        aed = tiny_aed(seed=4)
        assert tracked_nodes_during(monkeypatch, lambda: aed.predict_teacher((1, 2), (3, 4), (3, MASK))) == 0
        ctc = CtcModel(ModelConfig(task="ctc", vocab_size=3, feature_dim=4, d_model=8,
                                   enc_layers=1, heads=2, ffn_dim=16), seed=4)
        feats = np.random.default_rng(4).standard_normal((5, 4))
        assert tracked_nodes_during(monkeypatch, lambda: ctc.predict(feats)) == 0
        assert tracked_nodes_during(monkeypatch, lambda: ctc.predict_teacher(feats, (1, 2))) == 0

    @pytest.mark.parametrize("mode", ["student", "teacher"])
    def test_memory_projections_are_read_once_per_decode(self, mode):
        model = tiny_aed(seed=5)
        model.store.reset_reads()
        if mode == "student":
            pred = model.predict((1, 2, 3))
        else:
            pred = model.predict_teacher((1, 2, 3), (4, 5), (MASK, 5))
        reads = model.store.reads
        calls = reads["seq.tgt_embed"]
        assert calls == min(len(pred) + 1, 2 * 3 + 4) and calls > 2
        for i in range(model.cfg.dec_layers):
            for name in ("cross.wk", "cross.wv", "ln_mem.g", "ln_mem.b"):
                assert reads[f"seq.dec{i}.{name}"] == 1
            for name in ("cross.wq", "cross.wo", "self.wk", "self.wv"):
                assert reads[f"seq.dec{i}.{name}"] == calls


class TestCacheMisuse:
    def test_a_cache_serves_only_its_own_memory(self):
        model = tiny_aed()
        cache = DecodeCache()
        model.decode_logits(model.encode((1, 2)), [model.bos], cache=cache)
        with pytest.raises(ContractError, match="different memory"):
            model.decode_logits(model.encode((1, 2)), [3], cache=cache)
        assert cache.length == 1

    def test_an_empty_cache_needs_the_start_symbol_first(self):
        model = tiny_aed()
        cache = DecodeCache()
        with pytest.raises(ContractError, match="start symbol"):
            model.decode_logits(model.encode((1, 2)), [3], cache=cache)
        assert cache.memory is None and cache.length == 0

    def test_no_position_past_max_len(self):
        model = tiny_aed(max_len=4)
        memory = model.encode((1, 2))
        cache = DecodeCache()
        model.decode_logits(memory, [model.bos, 1, 2], cache=cache)
        model.decode_logits(memory, [3], cache=cache)
        with pytest.raises(ContractError, match="max_len"):
            model.decode_logits(memory, [4], cache=cache)
        assert cache.length == 4

    def test_a_call_needs_new_tokens(self):
        model = tiny_aed()
        memory = model.encode((1,))
        cache = DecodeCache()
        model.decode_logits(memory, [model.bos], cache=cache)
        with pytest.raises(ContractError):
            model.decode_logits(memory, [], cache=cache)


class TestDecodeLimit:
    def _counting(self, model):
        calls = [0]
        decode = model.decode_logits

        def counted(*args, **kwargs):
            calls[0] += 1
            return decode(*args, **kwargs)

        model.decode_logits = counted
        return calls

    @pytest.mark.parametrize("max_len", [20, 9, 0, -3])
    def test_a_limit_outside_the_model_is_refused_before_decoding(self, max_len):
        model = tiny_aed(max_len=8)
        calls = self._counting(model)
        for predict in (lambda: model.predict((1, 2, 3), max_len=max_len),
                        lambda: model.predict_teacher((1, 2, 3), (4, 5), (MASK, 5), max_len=max_len)):
            with pytest.raises(ContractError, match=rf"max_len {max_len} outside 1\.\.8"):
                predict()
        assert calls[0] == 0

    def test_the_model_limit_itself_decodes(self):
        model = tiny_aed(max_len=8)
        calls = self._counting(model)
        assert len(model.predict((1, 2, 3), max_len=8)) <= 8
        assert 1 <= calls[0] <= 8
