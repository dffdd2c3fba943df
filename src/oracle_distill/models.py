"""Sequence models, the oracle encoder, and the attention fusion module.

Parameters are split into two named groups: the ``seq.`` prefix holds the
sequence model proper (everything the student needs at inference), and
the ``oracle.`` / ``fusion.`` / ``teacher_out.`` prefixes hold the
auxiliary teacher-side modules that are discarded after training.  Every
parameter read goes through the store, so tests can prove that a student
decode touches no auxiliary weight.

Blocks are pre-norm residual.  Every layer norm has its own learned gain
(ones at init) and bias (zeros), named ``{block}.ln1`` .. ``{block}.ln3``
and ``{block}.ln_mem`` for the one over a cross-attention memory; they sit
under their block's prefix, so they belong to that block's group and the
read counters still split student from auxiliary.  The norms only feed a
sublayer's input, so zeroing the sublayer's output projection still turns
it into the identity, which is what the structural reduction tests rely on.

Both models map one source encoding to student logits with
``student_head`` and to teacher logits with ``teacher_logits``, so the
objective, the diagnostics and inference share one path per head.  The
encoder-decoder greedy decode is one loop, run through either head.  Every
``predict`` and ``predict_teacher`` runs under ``tensor.no_grad``, so
inference records no graph.

Every forward function takes ``(..., T, d)`` inputs: leading axes are
items of a batch, padded to one length, and a 2-D input is one unpadded
item.  Batched calls give the lengths of their padded inputs (``lengths``
for a source or memory, ``target_lengths`` for target-side tokens);
padded cells are never read, and attention masks every padded key from
those lengths, so each item's valid rows come out as they would alone.
Attention runs all heads as one axis of its stacks, ``(..., heads, T,
d / heads)``.

The greedy loop decodes incrementally (Pope et al. 2022): it feeds
``decode_logits`` one new token per call together with a
:class:`DecodeCache`, which holds the memory it was built for, each decoder
layer's cross-attention keys and values of ``ln_mem(memory)``, projected
once per decode, and each layer's self-attention keys and values of the
positions decoded so far.  A call then costs one position, not the whole
prefix.  Without a cache, ``decode_logits`` runs the full prefix, which is
what teacher-forced training does.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as tt
from .ctc import Vocab, greedy_decode
from .errors import CheckpointFormatError, ContractError, ShapeError, VocabularyError
from .tensor import Tensor

MASK = -1  # sentinel for masked target tokens; rendered as the oracle's row 0

CHECKPOINT_MAGIC = "oracle-distill-checkpoint v1"


@dataclass
class ModelConfig:
    task: str = "ctc"  # "ctc" or "aed"
    vocab_size: int = 6  # non-blank labels (ctc) or content tokens (aed)
    feature_dim: int = 8  # ctc source feature width
    d_model: int = 32
    enc_layers: int = 2
    dec_layers: int = 2
    heads: int = 2
    ffn_dim: int = 64
    fusion_layers: int = 1
    max_len: int = 128

    def __post_init__(self):
        if self.task not in ("ctc", "aed"):
            raise ContractError(f"unknown task {self.task!r}")
        for name in ("feature_dim", "d_model", "heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        for name in ("enc_layers", "dec_layers", "fusion_layers"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be nonnegative")
        if self.d_model % self.heads != 0:
            raise ContractError("heads must divide d_model")
        if self.vocab_size < 1:
            raise ContractError("vocab_size must be positive")


class ParamStore:
    """Named float64 parameters with per-name read counters."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.reads: Counter = Counter()

    def create(self, name: str, array: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter {name}")
        t = Tensor(array, requires_grad=True)
        self._tensors[name] = t
        return t

    def get(self, name: str) -> Tensor:
        self.reads[name] += 1
        return self._tensors[name]

    def peek(self, name: str) -> Tensor:
        """Access without counting a read (checkpointing, optimizers)."""
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def tensors(self):
        return list(self._tensors.values())

    def reset_reads(self):
        self.reads.clear()

    def reads_with_prefix(self, *prefixes: str) -> int:
        return sum(n for name, n in self.reads.items() if name.startswith(prefixes))


AUX_PREFIXES = ("oracle.", "fusion.", "teacher_out.")


@dataclass
class DecodeCache:
    """What one incremental decode keeps between ``decode_logits`` calls.

    Empty until its first call, which binds it to that call's ``memory``
    and projects every decoder layer's cross-attention keys and values of
    ``ln_mem(memory)`` into ``cross_kv``.  ``self_kv`` holds each layer's
    self-attention keys and values of the ``length`` positions decoded so
    far, grown by concatenation at every call.  All are split into heads.
    """

    memory: Tensor | None = None
    length: int = 0
    cross_kv: list = field(default_factory=list)
    self_kv: list = field(default_factory=list)


def is_student_param(name: str) -> bool:
    return name.startswith("seq.")


def count_params(model) -> dict[str, int]:
    """Exact scalar counts for the student group, the auxiliary group, and
    their union."""
    student = aux = 0
    for name, t in model.store.items():
        if is_student_param(name):
            student += t.size
        else:
            aux += t.size
    return {"student": student, "aux": aux, "total": student + aux}


def _xavier(rng, fan_in: int, fan_out: int) -> np.ndarray:
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _valid_cells(lengths, shape) -> np.ndarray | None:
    """Where a padded array of ``shape`` (leading item axes, then
    positions) holds real positions, from one length per item; None
    without ``lengths``, for an unpadded input."""
    if lengths is None:
        return None
    lengths = np.asarray(lengths)
    if lengths.shape != tuple(shape[:-1]):
        raise ShapeError(f"lengths of shape {lengths.shape} for a padded input of shape {tuple(shape)}")
    if lengths.size and (lengths.min() < 1 or lengths.max() > shape[-1]):
        raise ContractError(f"every length must lie in 1..{shape[-1]}, got {lengths.tolist()}")
    return np.arange(shape[-1]) < lengths[..., None]


def _key_mask(valid: np.ndarray | None) -> np.ndarray | None:
    """Attention mask hiding padded keys, shaped to broadcast over the
    heads and the queries, or None when nothing is padded."""
    if valid is None or valid.all():
        return None
    return np.where(valid, 0.0, -np.inf)[..., None, None, :]


def _token_ids(tokens, lengths, what: str, top: int) -> np.ndarray:
    """Token ids that must lie in 1..``top`` at every real position, as an
    int array; padded cells read as 1, so nothing padded reaches a lookup."""
    ids = np.asarray(tokens, dtype=np.int64)
    if ids.ndim < 1:
        raise ShapeError(f"{what} tokens must be a sequence")
    valid = _valid_cells(lengths, ids.shape)
    if valid is not None:
        ids = np.where(valid, ids, 1)
    bad = (ids < 1) | (ids > top)
    if bad.any():
        raise VocabularyError(f"{what} token {ids[bad][0]} outside 1..{top}")
    if ids.shape[-1] == 0:
        raise ContractError(f"{what} must be non-empty")
    return ids


@functools.lru_cache(maxsize=8)
def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """The ``n x d`` sinusoidal position table, read-only: it is computed
    once per shape and shared by every model built with that shape."""
    pos = np.arange(n)[:, None]
    dim = np.arange(0, d, 2)[None, :]
    angle = pos / np.power(10000.0, dim / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle[:, : d // 2])
    pe.flags.writeable = False
    return pe


class _TransformerBase:
    """Shared parameter building and forward helpers."""

    def __init__(self, config: ModelConfig, seed: int):
        self.cfg = config
        self.store = ParamStore()
        self._rng = np.random.default_rng(seed)
        self._pos = sinusoidal_positions(config.max_len, config.d_model)

    # -- building ----------------------------------------------------------

    def _build_attention(self, prefix: str):
        # projections carry no biases: a key bias is a pure gauge direction
        # (softmax scores are invariant to it), which would defeat per
        # coordinate finite-difference validation
        d = self.cfg.d_model
        for part in ("wq", "wk", "wv", "wo"):
            self.store.create(f"{prefix}.{part}", _xavier(self._rng, d, d))

    def _build_ffn(self, prefix: str):
        d, f = self.cfg.d_model, self.cfg.ffn_dim
        self.store.create(f"{prefix}.w1", _xavier(self._rng, d, f))
        self.store.create(f"{prefix}.b1", np.zeros(f))
        self.store.create(f"{prefix}.w2", _xavier(self._rng, f, d))
        self.store.create(f"{prefix}.b2", np.zeros(d))

    def _build_norm(self, prefix: str):
        # ones and zeros draw nothing from the RNG, so every other initial
        # weight is the same whether or not a model has norm params
        d = self.cfg.d_model
        self.store.create(f"{prefix}.g", np.ones(d))
        self.store.create(f"{prefix}.b", np.zeros(d))

    def _build_encoder_block(self, prefix: str):
        self._build_norm(f"{prefix}.ln1")
        self._build_attention(f"{prefix}.attn")
        self._build_norm(f"{prefix}.ln2")
        self._build_ffn(f"{prefix}.ffn")

    def _build_cross_block(self, prefix: str):
        """Self-attention, cross-attention into a memory, feed-forward:
        the layout of a fusion layer and of a decoder layer."""
        self._build_norm(f"{prefix}.ln1")
        self._build_attention(f"{prefix}.self")
        self._build_norm(f"{prefix}.ln2")
        self._build_norm(f"{prefix}.ln_mem")
        self._build_attention(f"{prefix}.cross")
        self._build_norm(f"{prefix}.ln3")
        self._build_ffn(f"{prefix}.ffn")

    def _build_head(self, prefix: str, out_dim: int):
        self.store.create(f"{prefix}.w", _xavier(self._rng, self.cfg.d_model, out_dim))
        self.store.create(f"{prefix}.b", np.zeros(out_dim))

    def _build_oracle_and_fusion(self, oracle_rows: int):
        d = self.cfg.d_model
        self.store.create("oracle.embed", _xavier(self._rng, oracle_rows, d))
        self._build_encoder_block("oracle.enc0")
        for i in range(self.cfg.fusion_layers):
            self._build_cross_block(f"fusion.f{i}")

    # -- forward -----------------------------------------------------------

    def _positions(self, stop: int, start: int = 0) -> Tensor:
        """Position encodings of positions ``start`` .. ``stop - 1``."""
        if stop > self.cfg.max_len:
            raise ContractError(f"sequence of length {stop} exceeds max_len {self.cfg.max_len}")
        return Tensor(self._pos[start:stop])

    def _heads(self, prefix, x, *parts):
        """``x`` times each of the named projections of an attention block,
        split into heads: ``(..., heads, T, d / heads)``."""
        s = self.store
        return [tt.split_heads(tt.matmul(x, s.get(f"{prefix}.{part}")), self.cfg.heads) for part in parts]

    def _memory_kv(self, prefix, memory):
        """Cross-attention keys and values of a layer's normed memory."""
        return self._heads(f"{prefix}.cross", self._norm(f"{prefix}.ln_mem", memory), "wk", "wv")

    def _attend(self, prefix, q, k, v, mask=None, capture=None):
        """Scaled dot-product attention of head-split queries over head-split
        keys and values, every head at once as an axis of the stacks, then
        the merged heads' output projection.  ``mask`` is added to the
        scores."""
        scores = tt.scale(tt.matmul(q, tt.transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
        w = tt.softmax(scores, axis=-1, mask=mask)
        if capture is not None:
            capture.append(w.data.mean(axis=-3))
        return tt.matmul(tt.merge_heads(tt.matmul(w, v)), self.store.get(f"{prefix}.wo"))

    def _ffn(self, prefix, x):
        s = self.store
        hidden = tt.relu(tt.add(tt.matmul(x, s.get(f"{prefix}.w1")), s.get(f"{prefix}.b1")))
        return tt.add(tt.matmul(hidden, s.get(f"{prefix}.w2")), s.get(f"{prefix}.b2"))

    def _norm(self, prefix, x):
        s = self.store
        return tt.layer_norm(x, gain=s.get(f"{prefix}.g"), bias=s.get(f"{prefix}.b"))

    def _encoder_block(self, prefix, x, mask=None):
        q, k, v = self._heads(f"{prefix}.attn", self._norm(f"{prefix}.ln1", x), "wq", "wk", "wv")
        x = tt.add(x, self._attend(f"{prefix}.attn", q, k, v, mask))
        return tt.add(x, self._ffn(f"{prefix}.ffn", self._norm(f"{prefix}.ln2", x)))

    def _cross_block(self, prefix, x, memory, mask=None, memory_mask=None, capture=None,
                     cache=None, layer=0):
        """One fusion or decoder layer: self-attention over ``x`` (under
        ``mask`` if given), cross-attention into ``memory`` (under
        ``memory_mask``), feed-forward.

        With a decode cache, ``x`` holds only the new positions: their keys
        and values extend the ``layer``'s cached ones, and the memory's keys
        and values are the cached projections."""
        q, k, v = self._heads(f"{prefix}.self", self._norm(f"{prefix}.ln1", x), "wq", "wk", "wv")
        if cache is not None:
            past = cache.self_kv[layer]
            if past is not None:
                k, v = tt.concat([past[0], k], axis=-2), tt.concat([past[1], v], axis=-2)
            cache.self_kv[layer] = (k, v)
        x = tt.add(x, self._attend(f"{prefix}.self", q, k, v, mask))
        query = self._norm(f"{prefix}.ln2", x)
        k, v = self._memory_kv(prefix, memory) if cache is None else cache.cross_kv[layer]
        (q,) = self._heads(f"{prefix}.cross", query, "wq")
        x = tt.add(x, self._attend(f"{prefix}.cross", q, k, v, memory_mask, capture))
        return tt.add(x, self._ffn(f"{prefix}.ffn", self._norm(f"{prefix}.ln3", x)))

    def _head(self, prefix, x):
        s = self.store
        return tt.add(tt.matmul(x, s.get(f"{prefix}.w")), s.get(f"{prefix}.b"))

    def oracle_encode(self, tokens, n_vocab_rows: int, lengths=None) -> Tensor:
        """Target-side context vectors, one per input token.

        ``tokens`` may contain MASK; it is rendered as embedding row 0,
        which no real token uses.
        """
        raw = np.asarray(tokens, dtype=np.int64)
        masked = raw == MASK
        ids = _token_ids(np.where(masked, 1, raw), lengths, "oracle", n_vocab_rows - 1)
        emb = tt.embedding_lookup(self.store.get("oracle.embed"), np.where(masked, 0, ids))
        x = tt.add(tt.scale(emb, math.sqrt(self.cfg.d_model)), self._positions(ids.shape[-1]))
        return self._encoder_block("oracle.enc0", x, _key_mask(_valid_cells(lengths, ids.shape)))

    def fuse(self, rep: Tensor, guidance: Tensor, capture=None, lengths=None,
             guidance_lengths=None) -> Tensor:
        """Combine the sequence model's representation with oracle guidance.

        Self-attention over ``rep``, whose output queries cross-attention
        into ``guidance`` (keys and values), then a feed-forward sublayer.
        The output always keeps the representation's own length.
        ``lengths`` and ``guidance_lengths`` are those of padded stacks.
        """
        if guidance.shape[-1] != rep.shape[-1]:
            raise ShapeError(f"fuse width {rep.shape} vs {guidance.shape}")
        mask = _key_mask(_valid_cells(lengths, rep.shape[:-1]))
        guidance_mask = _key_mask(_valid_cells(guidance_lengths, guidance.shape[:-1]))
        x = rep
        for i in range(self.cfg.fusion_layers):
            x = self._cross_block(f"fusion.f{i}", x, guidance, mask, guidance_mask, capture)
        return x


class CtcModel(_TransformerBase):
    """Frame classifier with an auxiliary target-aware teacher head.

    Labels are 1..vocab_size with blank 0; logits have vocab_size + 1
    columns.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__(config, seed)
        self.vocab = Vocab(config.vocab_size + 1)
        out_dim = config.vocab_size + 1
        self.store.create("seq.in_proj.w", _xavier(self._rng, config.feature_dim, config.d_model))
        self.store.create("seq.in_proj.b", np.zeros(config.d_model))
        for i in range(config.enc_layers):
            self._build_encoder_block(f"seq.enc{i}")
        self._build_head("seq.out", out_dim)
        self._build_oracle_and_fusion(config.vocab_size + 1)
        self._build_head("teacher_out", out_dim)

    def encode(self, feats: np.ndarray, lengths=None) -> Tensor:
        """Hidden states ``(..., T, d)`` of source features ``(..., T,
        feature_dim)``; ``lengths`` gives each item's frames in a padded
        stack."""
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim < 2 or feats.shape[-2] < 1:
            raise ContractError(f"source features must be non-empty T x {self.cfg.feature_dim}")
        if feats.shape[-1] != self.cfg.feature_dim:
            raise ShapeError(f"feature width {feats.shape[-1]} != {self.cfg.feature_dim}")
        valid = _valid_cells(lengths, feats.shape[:-1])
        if valid is not None:
            feats = np.where(valid[..., None], feats, 0.0)
        s = self.store
        x = tt.add(tt.matmul(Tensor(feats), s.get("seq.in_proj.w")), s.get("seq.in_proj.b"))
        x = tt.add(x, self._positions(feats.shape[-2]))
        mask = _key_mask(valid)
        for i in range(self.cfg.enc_layers):
            x = self._encoder_block(f"seq.enc{i}", x, mask)
        return x

    def student_head(self, hidden: Tensor) -> Tensor:
        """Student frame logits from an already-encoded representation."""
        return self._head("seq.out", hidden)

    def student_logits(self, feats) -> Tensor:
        return self.student_head(self.encode(feats))

    def oracle_guidance(self, tokens, lengths=None) -> Tensor:
        return self.oracle_encode(tokens, self.cfg.vocab_size + 1, lengths)

    def teacher_logits(self, hidden: Tensor, tokens, capture=None, lengths=None,
                       target_lengths=None) -> Tensor:
        """Teacher frame logits from an already-encoded representation;
        ``lengths`` are the frames of a padded ``hidden``, and
        ``target_lengths`` those of the padded ``tokens``."""
        guidance = self.oracle_guidance(tokens, target_lengths)
        fused = self.fuse(hidden, guidance, capture, lengths, target_lengths)
        return self._head("teacher_out", fused)

    @tt.no_grad()
    def predict(self, feats) -> tuple[int, ...]:
        return greedy_decode(self.student_logits(feats).data)

    @tt.no_grad()
    def predict_teacher(self, feats, tokens) -> tuple[int, ...]:
        return greedy_decode(self.teacher_logits(self.encode(feats), tokens).data)


class AedModel(_TransformerBase):
    """Encoder-decoder transducer with an auxiliary masked-target teacher.

    Content tokens are 1..vocab_size; id 0 is the decoder start symbol and
    id vocab_size + 1 is the end symbol, so output logits have
    vocab_size + 2 columns.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__(config, seed)
        self.bos = 0
        self.eos = config.vocab_size + 1
        out_dim = config.vocab_size + 2
        self.store.create("seq.src_embed", _xavier(self._rng, out_dim, config.d_model))
        self.store.create("seq.tgt_embed", _xavier(self._rng, out_dim, config.d_model))
        for i in range(config.enc_layers):
            self._build_encoder_block(f"seq.enc{i}")
        for i in range(config.dec_layers):
            self._build_cross_block(f"seq.dec{i}")
        self._build_head("seq.out", out_dim)
        self._build_oracle_and_fusion(config.vocab_size + 1)
        self._build_head("teacher_out", out_dim)

    def encode(self, src_tokens, lengths=None) -> Tensor:
        """Hidden states ``(..., L, d)`` of source tokens ``(..., L)``;
        ``lengths`` gives each item's tokens in a padded stack."""
        ids = _token_ids(src_tokens, lengths, "source", self.cfg.vocab_size)
        x = tt.scale(tt.embedding_lookup(self.store.get("seq.src_embed"), ids), math.sqrt(self.cfg.d_model))
        x = tt.add(x, self._positions(ids.shape[-1]))
        mask = _key_mask(_valid_cells(lengths, ids.shape))
        for i in range(self.cfg.enc_layers):
            x = self._encoder_block(f"seq.enc{i}", x, mask)
        return x

    @staticmethod
    def _causal_mask(start: int, stop: int) -> np.ndarray | None:
        """Rows ``start`` .. ``stop - 1`` of the causal mask over ``stop``
        positions, or None when those rows hide nothing."""
        if stop - start == 1:
            return None
        return np.triu(np.full((stop - start, stop), -np.inf), k=start + 1)

    def decode_logits(self, memory: Tensor, prefix_ids, head: str = "seq.out",
                      cache: DecodeCache | None = None, lengths=None) -> Tensor:
        """Logits at every given position; position i sees the tokens up to
        and including its own.

        Without a cache (``cache=None``), ``prefix_ids`` is the whole
        prefix, starting with the start symbol, and the result has a row
        per prefix position.  With a :class:`DecodeCache`, ``prefix_ids``
        are only the new tokens, those after the ``cache.length`` already
        decoded (so a first call's tokens start with the start symbol); the
        result has one row per new token, and the cache takes in their
        keys and values.  A cache serves only the ``memory`` of its first
        call.  A stack of prefixes ``(..., P)`` decodes a padded stack of
        memories whose ``lengths`` are given.
        """
        ids = np.asarray(prefix_ids, dtype=np.int64)
        if ids.ndim < 1:
            raise ShapeError("decoder tokens must be a sequence")
        start = 0 if cache is None else cache.length
        if start == 0 and (ids.size == 0 or np.any(ids[..., 0] != self.bos)):
            raise ContractError("decoder prefix must start with the start symbol")
        if ids.size == 0:
            raise ContractError("no new decoder tokens")
        if np.any((ids < 0) | (ids > self.eos)):
            raise VocabularyError("decoder prefix token out of range")
        if cache is not None and cache.memory is not None and cache.memory is not memory:
            raise ContractError("decode cache was built for a different memory")
        stop = start + ids.shape[-1]
        x = tt.scale(tt.embedding_lookup(self.store.get("seq.tgt_embed"), ids), math.sqrt(self.cfg.d_model))
        x = tt.add(x, self._positions(stop, start))
        if cache is not None and cache.memory is None:
            cache.memory = memory
            cache.cross_kv = [self._memory_kv(f"seq.dec{i}", memory) for i in range(self.cfg.dec_layers)]
            cache.self_kv = [None] * self.cfg.dec_layers
        mask = self._causal_mask(start, stop)
        memory_mask = _key_mask(_valid_cells(lengths, memory.shape[:-1]))
        for i in range(self.cfg.dec_layers):
            x = self._cross_block(f"seq.dec{i}", x, memory, mask, memory_mask, cache=cache, layer=i)
        if cache is not None:
            cache.length = stop
        return self._head(head, x)

    def _teacher_forced(self, memory, target, head, lengths, target_lengths) -> Tensor:
        """Logits through ``head`` over the start symbol then ``target``,
        one row per target token plus one for the end."""
        y = _token_ids(target, target_lengths, "target", self.cfg.vocab_size)
        prefix = np.concatenate([np.full((*y.shape[:-1], 1), self.bos), y], axis=-1)
        return self.decode_logits(memory, prefix, head=head, lengths=lengths)

    def student_head(self, memory: Tensor, target, lengths=None, target_lengths=None) -> Tensor:
        """Teacher-forced student logits over len(target) + 1 positions
        (incl. end) from an already-encoded source; ``lengths`` are those
        of a padded ``memory``, ``target_lengths`` those of the padded
        ``target``."""
        return self._teacher_forced(memory, target, "seq.out", lengths, target_lengths)

    def student_logits(self, src_tokens, target) -> Tensor:
        return self.student_head(self.encode(src_tokens), target)

    def oracle_guidance(self, tokens, lengths=None) -> Tensor:
        return self.oracle_encode(tokens, self.cfg.vocab_size + 1, lengths)

    def teacher_logits(self, memory: Tensor, target, masked_target, capture=None, lengths=None,
                       target_lengths=None) -> Tensor:
        """Teacher-forced logits attending to the fused memory.

        The decoder body is shared with the student; only the fusion
        modules, oracle encoder, and output head are auxiliary.  The
        lengths are as for ``student_head``; ``masked_target`` is padded
        like ``target``.
        """
        guidance = self.oracle_guidance(masked_target, target_lengths)
        fused = self.fuse(memory, guidance, capture, lengths, target_lengths)
        return self._teacher_forced(fused, target, "teacher_out", lengths, target_lengths)

    def _greedy(self, memory: Tensor, head: str, max_len: int | None) -> tuple[int, ...]:
        """Greedy autoregressive decode through ``head`` until the end
        symbol or the length limit (by default twice the source plus 4),
        one new token per cached ``decode_logits`` call.  An explicit
        ``max_len`` outside 1..``cfg.max_len`` is refused before anything
        is decoded."""
        if max_len is None:
            limit = min(self.cfg.max_len - 1, 2 * memory.shape[0] + 4)
        elif 1 <= max_len <= self.cfg.max_len:
            limit = max_len
        else:
            raise ContractError(f"max_len {max_len} outside 1..{self.cfg.max_len}, the model's max_len")
        cache = DecodeCache()
        out = []
        nxt = self.bos
        for _ in range(limit):
            logits = self.decode_logits(memory, [nxt], head=head, cache=cache)
            nxt = int(np.argmax(logits.data[-1]))
            if nxt == self.eos:
                break
            out.append(nxt)
        return tuple(out)

    @tt.no_grad()
    def predict(self, src_tokens, max_len: int | None = None) -> tuple[int, ...]:
        """Greedy autoregressive decode from the source alone."""
        return self._greedy(self.encode(src_tokens), "seq.out", max_len)

    @tt.no_grad()
    def predict_teacher(self, src_tokens, target, masked_target, max_len: int | None = None) -> tuple[int, ...]:
        """Greedy decode with access to the (masked) target via fusion."""
        fused = self.fuse(self.encode(src_tokens), self.oracle_guidance(masked_target))
        return self._greedy(fused, "teacher_out", max_len)


def build_model(config: ModelConfig, seed: int = 0):
    return CtcModel(config, seed) if config.task == "ctc" else AedModel(config, seed)


# ---------------------------------------------------------------------------
# ablation helpers used by the structural reduction checks
# ---------------------------------------------------------------------------


def zero_fusion(model) -> None:
    """Zero every fusion output projection so fuse() becomes the identity."""
    for i in range(model.cfg.fusion_layers):
        for name in (
            f"fusion.f{i}.self.wo",
            f"fusion.f{i}.cross.wo",
            f"fusion.f{i}.ffn.w2",
            f"fusion.f{i}.ffn.b2",
        ):
            t = model.store.peek(name)
            t.data[...] = 0.0


def zero_cross_attention(model) -> None:
    """Zero only the cross-attention output projection; fuse() then ignores
    the oracle guidance but keeps its self-attention and feed-forward parts."""
    for i in range(model.cfg.fusion_layers):
        t = model.store.peek(f"fusion.f{i}.cross.wo")
        t.data[...] = 0.0


def tie_teacher_head(model) -> None:
    """Copy the student head weights into the teacher head."""
    model.store.peek("teacher_out.w").data[...] = model.store.peek("seq.out.w").data
    model.store.peek("teacher_out.b").data[...] = model.store.peek("seq.out.b").data


# ---------------------------------------------------------------------------
# checkpoint format: versioned text with hex floats, byte-exact round trip
# ---------------------------------------------------------------------------


def save_checkpoint(model, path, run_config: dict | None = None) -> None:
    lines = [CHECKPOINT_MAGIC, "[config]"]
    for f in fields(ModelConfig):
        lines.append(f"{f.name} = {getattr(model.cfg, f.name)}")
    if run_config:
        lines.append("[run]")
        for key in sorted(run_config):
            lines.append(f"{key} = {run_config[key]}")
    for name, t in model.store.items():
        shape = " ".join(str(n) for n in t.data.shape)
        lines.append(f"[param {name}]")
        lines.append(shape if shape else "scalar")
        flat = t.data.reshape(-1)
        lines.append(" ".join(float.hex(float(v)) for v in flat))
    lines.append("[end]")
    # written beside the target and swapped in, so a failed write leaves
    # any checkpoint already at ``path`` as it was
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path, seed: int = 0):
    """Rebuild the model from a checkpoint; returns (model, run_config)."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad or missing header; expected {CHECKPOINT_MAGIC!r}, "
            f"got {lines[0][:60]!r}" if lines else "empty checkpoint file"
        )
    if lines[-1] != "[end]":
        raise CheckpointFormatError("truncated checkpoint: missing [end]")

    sections: list[tuple[str, list[str]]] = []
    current = None
    for line in lines[1:-1]:
        if line.startswith("["):
            current = (line.strip("[]"), [])
            sections.append(current)
        elif current is not None:
            current[1].append(line)
        else:
            raise CheckpointFormatError(f"content before first section: {line!r}")

    def parse_kv(body):
        out = {}
        for line in body:
            key, _, value = line.partition(" = ")
            out[key] = value
        return out

    config_kv = {}
    run_kv: dict[str, str] = {}
    params: dict[str, np.ndarray] = {}
    for header, body in sections:
        if header == "config":
            config_kv = parse_kv(body)
        elif header == "run":
            run_kv = parse_kv(body)
        elif header.startswith("param "):
            name = header[len("param "):]
            if len(body) != 2:
                raise CheckpointFormatError(f"param {name}: expected shape and data lines")
            shape = tuple(int(n) for n in body[0].split()) if body[0] != "scalar" else ()
            values = np.array([float.fromhex(v) for v in body[1].split()])
            params[name] = values.reshape(shape)
        else:
            raise CheckpointFormatError(f"unknown section {header!r}")

    try:
        # every field's type is that of its default (str or int)
        cfg = ModelConfig(**{f.name: type(f.default)(config_kv[f.name]) for f in fields(ModelConfig)})
    except (KeyError, ValueError) as exc:
        raise CheckpointFormatError(f"bad [config] section: {exc}") from exc

    model = build_model(cfg, seed=seed)
    expected = set(model.store.names())
    if set(params) != expected:
        missing = sorted(expected - set(params))
        extra = sorted(set(params) - expected)
        hint = ""
        if any(".ln" in name for name in missing):
            hint = ("; checkpoints written before layer norms had a learned "
                    "gain and bias lack the *.ln*.g/.b params and cannot be loaded")
        raise CheckpointFormatError(f"parameter set mismatch: missing {missing}, extra {extra}{hint}")
    for name, values in params.items():
        t = model.store.peek(name)
        if t.data.shape != values.shape:
            raise CheckpointFormatError(f"param {name}: shape {values.shape} != {t.data.shape}")
        t.data[...] = values
    model.store.reset_reads()
    return model, run_kv
