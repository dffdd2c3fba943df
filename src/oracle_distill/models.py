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
``student_head``, and one source encoding and the ``oracle_guidance`` of
the (masked) target to teacher logits with ``teacher_logits``; every
teacher path takes the guidance already computed and joins it to the
encoding through ``fuse``.  For the CTC model these are the one path per
head, shared by the objective, the diagnostics and inference.  The
encoder-decoder's heads take other paths: training runs both from one
teacher-forced decoder pass (``student_and_teacher_logits``; the decoder
body is shared, so it runs once over the ``(2B, ...)`` stack of the
encoded sources and the fused memory, and each head reads its own B
rows), the objective with the teacher off runs ``student_head``, and
inference decodes greedily (``_greedy``) through ``decode_logits``.  Its
``teacher_logits`` is only the two-pass reference that the tests and the
benchmark call.  ``predict`` and ``predict_teacher`` take a list of items
and decode them all from one padded stack (``tasks.padded_stack``); the
encoder-decoder greedy decode is one loop over the whole stack, run
through either head.  Every ``predict`` and ``predict_teacher`` runs
under ``tensor.no_grad``, so inference records no graph.

Token input is converted once: a list of sequences by
``tasks.padded_stack``, and a token array handed to a model method by
``_ids``, the one int64 cast of token input here; both refuse a float, a
string or a bool token (``tasks.check_integers``) rather than truncate,
parse or read it as 0 or 1.  Source, oracle and decoder tokens take one
embedding path, ``_embed``: the table lookup, the sqrt(d_model) scale, and
the position encodings from the first new position.

Every forward function takes ``(..., T, d)`` inputs: leading axes are
items of a batch, padded to one length, and a 2-D input is one unpadded
item.  Batched calls give the lengths of their padded inputs (``lengths``
for a source or memory, ``target_lengths`` for target-side tokens);
padded cells are never read, and attention masks every padded key from
those lengths, so each item's valid rows come out as they would alone.
Attention runs all heads as one axis of its stacks, ``(..., heads, T,
d / heads)``.  Each pre-norm residual sublayer is one tape node: a
self-attention sublayer is one ``tensor.self_attention_sublayer``, a
cross-attention sublayer one ``tensor.cross_attention_sublayer`` and a
feed-forward sublayer one ``tensor.feed_forward_sublayer``, each taking
the residual stream and returning it with the sublayer's output added.
So an encoder block is two nodes and a fusion or decoder layer three.
The cross-attention keys and values of a memory are three nodes of their
own, ``tensor.layer_norm`` by ``ln_mem`` and one ``tensor.project_heads``
per projection, computed once per memory (``_memory_kv``).  The weights
stay separate store entries read through ``ParamStore.get``.

The decoder runs one way (Pope et al. 2022): ``AedModel.decode_cache``
projects, once per decode, each decoder layer's cross-attention keys and
values of ``ln_mem(memory)`` into a :class:`DecodeCache`, and every
``decode_logits`` call extends the cache by the positions it is given and
reads them through one output head.  Each decoder layer returns its keys
and values, and the call stores them once, after the head, so a call that
raises leaves the cache unchanged.  The cached keys and values are arrays
with no gradient, so only a cache's first call may record a graph.
Teacher forcing runs the decoder body (``_decoder_rows``) once over the
whole prefix, and its caller applies the heads.  The greedy loop runs
under ``tensor.no_grad`` and decodes a batch in lockstep, one call per
step with a ``(B, 1)`` stack of one new token per row, so a step costs one
position per row.  Each row stops at its own end symbol or length cap; a
stopped row is still fed until every row has stopped, and its later tokens
are dropped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as tt
from .ctc import greedy_decode
from .errors import CheckpointFormatError, ContractError, DomainError, ShapeError, VocabularyError
from .tasks import check_integers, padded_stack
from .tensor import Tensor

MASK = -1  # sentinel for masked target tokens; rendered as the oracle's row 0

CHECKPOINT_MAGIC = "oracle-distill-checkpoint v3"


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
        t = self._tensors[name]  # an unknown name raises before it is counted
        self.reads[name] += 1
        return t

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
    """What one decode keeps between ``decode_logits`` calls, from
    ``AedModel.decode_cache``: ``memory_mask`` hides the memory's padded
    keys, ``cross_kv`` holds each decoder layer's cross-attention keys and
    values of ``ln_mem(memory)``, and ``self_kv`` each layer's
    self-attention keys and values of the ``length`` positions decoded so
    far, None before the first call.  All are split into heads.  A
    ``decode_logits`` call that raises leaves the cache unchanged.

    ``self_kv`` holds arrays, which take no gradient.  So a call that
    continues a cache (``length`` > 0) while the tape is recording raises
    ``ContractError`` before the cache changes: its graph would silently
    miss the path through the earlier calls."""

    memory_mask: np.ndarray | None
    cross_kv: list
    self_kv: list
    length: int = 0


def is_student_param(name: str) -> bool:
    return not name.startswith(AUX_PREFIXES)


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
    positions) holds real positions, from one integer length per item (a
    float or a bool is refused, not rounded or read as 0 or 1); None
    without ``lengths``, for an unpadded input."""
    if lengths is None:
        return None
    given, lengths = lengths, np.asarray(lengths)
    check_integers(given, lengths, "lengths", "integers")
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


def _ids(tokens, what: str) -> np.ndarray:
    """``tokens`` as an int64 array of at least one axis: the one
    conversion of the token arrays that a model method is handed.  A float,
    a string or a bool token is refused, not truncated, parsed or read as 0
    or 1."""
    ids = np.asarray(tokens)
    if ids.ndim < 1:
        raise ShapeError(f"{what} tokens must be a sequence")
    check_integers(tokens, ids, f"{what} tokens")
    return ids.astype(np.int64, copy=False)


def _token_ids(tokens, lengths, what: str, top: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Token ids (``_ids``) that must lie in 1..``top`` at every real
    position, and ``_valid_cells`` of ``lengths``, the mask of those
    positions; padded cells read as 1, so nothing padded reaches a lookup."""
    ids = _ids(tokens, what)
    valid = _valid_cells(lengths, ids.shape)
    if valid is not None:
        ids = np.where(valid, ids, 1)
    bad = (ids < 1) | (ids > top)
    if bad.any():
        raise VocabularyError(f"{what} token {ids[bad][0]} outside 1..{top}")
    if ids.shape[-1] == 0:
        raise ContractError(f"{what} must be non-empty")
    return ids, valid


@functools.lru_cache(maxsize=8)
def sinusoidal_positions(n: int, d: int) -> np.ndarray:
    """The ``n x d`` sinusoidal position table, read-only: it is computed
    once per ``(n, d)`` and shared by every model.  A row does not depend
    on ``n``, so models read one table per power-of-two ``n``."""
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

    def _build_oracle_and_fusion(self):
        # row 0 stands for MASK, rows 1..vocab_size for the target tokens
        d = self.cfg.d_model
        self.store.create("oracle.embed", _xavier(self._rng, self.cfg.vocab_size + 1, d))
        self._build_encoder_block("oracle.enc0")
        for i in range(self.cfg.fusion_layers):
            self._build_cross_block(f"fusion.f{i}")

    # -- forward -----------------------------------------------------------

    def _positions(self, stop: int, start: int = 0) -> Tensor:
        """Position encodings of positions ``start`` .. ``stop - 1``, for any
        ``stop``: an untracked view of rows of the shared read-only
        ``(rows, d_model)`` table, ``rows`` the least power of two at least
        64 and ``stop``.  Tables grow by powers of two, so a decode that
        adds a position per step reuses one table."""
        rows = 64 if stop <= 64 else 1 << (stop - 1).bit_length()
        return tt.constant(sinusoidal_positions(rows, self.cfg.d_model)[start:stop])

    def _embed(self, table: str, ids: np.ndarray, start: int = 0) -> Tensor:
        """Rows ``ids`` of the embedding ``table``, scaled by sqrt(d_model),
        plus the encodings of positions ``start`` onward: the one embedding
        of source, oracle and decoder tokens."""
        emb = tt.embedding_lookup(self.store.get(table), ids)
        return tt.add(tt.scale(emb, math.sqrt(self.cfg.d_model)), self._positions(start + ids.shape[-1], start))

    def _encoder(self, x, mask):
        """The sequence encoder's ``seq.enc*`` blocks over ``x`` under the
        key ``mask``."""
        for i in range(self.cfg.enc_layers):
            x = self._encoder_block(f"seq.enc{i}", x, mask)
        return x

    def _params(self, prefix, *names):
        """The parameters ``{prefix}.{name}`` of each of ``names``, in order."""
        s = self.store
        return [s.get(f"{prefix}.{name}") for name in names]

    def _memory_kv(self, prefix, memory):
        """Cross-attention keys and values of a layer's normed memory, split
        into heads."""
        normed = tt.layer_norm(memory, *self._params(f"{prefix}.ln_mem", "g", "b"))
        return [tt.project_heads(normed, w, self.cfg.heads) for w in self._params(f"{prefix}.cross", "wk", "wv")]

    def _self_attention(self, norm, attn, x, mask, past=None):
        """The self-attention sublayer ``attn`` over ``x`` normed by ``norm``:
        the output and the keys and values, ``past``'s first."""
        params = [*self._params(norm, "g", "b"), *self._params(attn, "wq", "wk", "wv", "wo")]
        return tt.self_attention_sublayer(x, *params, self.cfg.heads, mask, past)

    def _feed_forward(self, norm, ffn, x):
        """The feed-forward sublayer ``ffn`` over ``x`` normed by ``norm``."""
        return tt.feed_forward_sublayer(x, *self._params(norm, "g", "b"), *self._params(ffn, "w1", "b1", "w2", "b2"))

    def _encoder_block(self, prefix, x, mask=None):
        x, _, _ = self._self_attention(f"{prefix}.ln1", f"{prefix}.attn", x, mask)
        return self._feed_forward(f"{prefix}.ln2", f"{prefix}.ffn", x)

    def _cross_block(self, prefix, x, memory_kv, mask, memory_mask, capture, past=None):
        """One fusion or decoder layer: self-attention over ``x`` (under
        ``mask`` if given), cross-attention by the memory's keys and values
        ``memory_kv`` (under ``memory_mask``), feed-forward.  Returns the
        output and the self-attention keys and values, ``past``'s first if
        given; it assigns into none of its arguments.  ``capture`` takes
        the cross-attention weights averaged over the heads."""
        x, k, v = self._self_attention(f"{prefix}.ln1", f"{prefix}.self", x, mask, past)
        x, weights = tt.cross_attention_sublayer(x, *self._params(prefix, "ln2.g", "ln2.b", "cross.wq"),
                                                 *memory_kv, *self._params(prefix, "cross.wo"), memory_mask)
        if capture is not None:
            capture.append(weights.mean(axis=-3))
        return self._feed_forward(f"{prefix}.ln3", f"{prefix}.ffn", x), (k, v)

    def _head(self, prefix, x):
        s = self.store
        return tt.add(tt.matmul(x, s.get(f"{prefix}.w")), s.get(f"{prefix}.b"))

    def oracle_guidance(self, tokens, lengths=None) -> Tensor:
        """Target-side context vectors, one per input token; ``lengths``
        are those of padded ``tokens``.

        ``tokens`` may contain MASK; it is rendered as embedding row 0,
        which no real token uses.
        """
        raw = _ids(tokens, "oracle")
        masked = raw == MASK
        ids, valid = _token_ids(np.where(masked, 1, raw), lengths, "oracle", self.cfg.vocab_size)
        x = self._embed("oracle.embed", np.where(masked, 0, ids))
        return self._encoder_block("oracle.enc0", x, _key_mask(valid))

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
            x, _ = self._cross_block(f"fusion.f{i}", x, self._memory_kv(f"fusion.f{i}", guidance), mask,
                                     guidance_mask, capture)
        return x


class CtcModel(_TransformerBase):
    """Frame classifier with an auxiliary target-aware teacher head.

    Labels are 1..vocab_size with blank 0; logits have vocab_size + 1
    columns.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__(config, seed)
        out_dim = config.vocab_size + 1
        self.store.create("seq.in_proj.w", _xavier(self._rng, config.feature_dim, config.d_model))
        self.store.create("seq.in_proj.b", np.zeros(config.d_model))
        for i in range(config.enc_layers):
            self._build_encoder_block(f"seq.enc{i}")
        self._build_head("seq.out", out_dim)
        self._build_oracle_and_fusion()
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
        x = tt.add(self._head("seq.in_proj", Tensor(feats)), self._positions(feats.shape[-2]))
        return self._encoder(x, _key_mask(valid))

    def student_head(self, hidden: Tensor) -> Tensor:
        """Student frame logits from an already-encoded representation."""
        return self._head("seq.out", hidden)

    def teacher_logits(self, hidden: Tensor, guidance: Tensor, lengths=None, target_lengths=None) -> Tensor:
        """Teacher frame logits from an already-encoded representation and
        the ``oracle_guidance`` of the targets; ``lengths`` are the frames
        of a padded ``hidden``, and ``target_lengths`` those of the padded
        targets."""
        return self._head("teacher_out", self.fuse(hidden, guidance, lengths=lengths,
                                                   guidance_lengths=target_lengths))

    @tt.no_grad()
    def predict(self, sources) -> list[tuple[int, ...]]:
        """Collapsed greedy decodes of a list of frame matrices, from one
        padded encode."""
        feats, lengths = padded_stack(sources, "sources")
        return _collapsed_rows(self.student_head(self.encode(feats, lengths)), lengths)

    @tt.no_grad()
    def predict_teacher(self, sources, targets) -> list[tuple[int, ...]]:
        """Collapsed greedy decodes of frame matrices with their targets."""
        feats, lengths, tokens, target_lengths = _padded_pairs(sources, targets)
        guidance = self.oracle_guidance(tokens, target_lengths)
        logits = self.teacher_logits(self.encode(feats, lengths), guidance, lengths, target_lengths)
        return _collapsed_rows(logits, lengths)


def _padded_pairs(sources, targets) -> tuple[np.ndarray, ...]:
    """Paired lists of sources and targets as two padded stacks, each
    followed by its lengths."""
    if len(sources) != len(targets):
        raise ContractError(f"{len(sources)} sources but {len(targets)} targets")
    return (*padded_stack(sources, "sources"), *padded_stack(targets, "targets"))


def _collapsed_rows(logits: Tensor, lengths) -> list[tuple[int, ...]]:
    """``ctc.greedy_decode`` of each item's own frames of padded logits."""
    return [greedy_decode(u[:n]) for u, n in zip(logits.data, lengths)]


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
        self._build_oracle_and_fusion()
        self._build_head("teacher_out", out_dim)

    def encode(self, src_tokens, lengths=None) -> Tensor:
        """Hidden states ``(..., L, d)`` of source tokens ``(..., L)``;
        ``lengths`` gives each item's tokens in a padded stack."""
        ids, valid = _token_ids(src_tokens, lengths, "source", self.cfg.vocab_size)
        return self._encoder(self._embed("seq.src_embed", ids), _key_mask(valid))

    @staticmethod
    def _causal_mask(start: int, stop: int) -> np.ndarray | None:
        """Rows ``start`` .. ``stop - 1`` of the causal mask over ``stop``
        positions, or None when those rows hide nothing."""
        if stop - start == 1:
            return None
        return np.triu(np.full((stop - start, stop), -np.inf), k=start + 1)

    def decode_cache(self, memory: Tensor, lengths=None) -> DecodeCache:
        """A fresh cache for decoding from ``memory``, a padded stack when
        its ``lengths`` are given."""
        memory_mask = _key_mask(_valid_cells(lengths, memory.shape[:-1]))
        cross_kv = [self._memory_kv(f"seq.dec{i}", memory) for i in range(self.cfg.dec_layers)]
        return DecodeCache(memory_mask, cross_kv, [None] * self.cfg.dec_layers)

    def _decoder_rows(self, cache: DecodeCache, prefix_ids) -> tuple[Tensor, list, int]:
        """``decode_logits`` short of its head: the output rows, and the keys,
        values and length for the cache to take, which it leaves unchanged."""
        ids = _ids(prefix_ids, "decoder")
        start = cache.length
        if start == 0 and (ids.size == 0 or np.any(ids[..., 0] != self.bos)):
            raise ContractError("decoder prefix must start with the start symbol")
        if ids.size == 0:
            raise ContractError("no new decoder tokens")
        try:  # the lookup's own range check is the only one
            x = self._embed("seq.tgt_embed", ids, start)
        except DomainError:
            raise VocabularyError("decoder prefix token out of range") from None
        if start and x.requires_grad:
            raise ContractError("a call that continues a decode must run under tensor.no_grad: "
                                "the cached keys and values keep no gradient path to the earlier calls")
        stop = start + ids.shape[-1]
        mask, self_kv = self._causal_mask(start, stop), []
        for i, (cross_kv, past) in enumerate(zip(cache.cross_kv, cache.self_kv)):
            x, kv = self._cross_block(f"seq.dec{i}", x, cross_kv, mask, cache.memory_mask, None, past)
            self_kv.append(kv)
        return x, self_kv, stop

    def decode_logits(self, cache: DecodeCache, prefix_ids, head: str = "seq.out") -> Tensor:
        """Logits through the output ``head`` of the tokens ``prefix_ids``
        that follow the ``cache.length`` already decoded, one row per token,
        each seeing the tokens up to its own; the cache takes in their keys
        and values.  A first call's tokens start with the start symbol, and
        a token outside 0..end raises ``VocabularyError``.  A call that
        raises, an unknown head included, leaves the cache unchanged: it
        changes once, after the head.

        Only a first call records a graph: the cached keys and values are
        arrays with no path to the parameters, so a recorded call that
        continued the cache would silently lose the gradient through the
        earlier calls.  Such a call raises ``ContractError``; continue a
        cache under ``tensor.no_grad``, as ``_greedy`` does, or decode the
        whole prefix in one call, as teacher forcing does.
        """
        x, self_kv, length = self._decoder_rows(cache, prefix_ids)
        logits = self._head(head, x)
        cache.self_kv, cache.length = self_kv, length
        return logits

    def _teacher_forced(self, memory, target, lengths, target_lengths, copies: int = 1) -> Tensor:
        """Decoder rows over the start symbol then ``target``, one per
        target token plus one for the end, from one pass over ``memory``, a
        stack of ``copies`` blocks of as many items as ``target``: the ids
        are validated once, the prefix and ``lengths`` tiled per block."""
        y, _ = _token_ids(target, target_lengths, "target", self.cfg.vocab_size)
        prefix = np.concatenate([np.full((*y.shape[:-1], 1), self.bos), y], axis=-1)
        if copies > 1:
            prefix, lengths = np.concatenate([prefix] * copies), np.concatenate([lengths] * copies)
        return self._decoder_rows(self.decode_cache(memory, lengths), prefix)[0]

    def student_head(self, memory: Tensor, target, lengths=None, target_lengths=None) -> Tensor:
        """Teacher-forced student logits over len(target) + 1 positions
        (incl. end) from an already-encoded source; ``lengths`` are those
        of a padded ``memory``, ``target_lengths`` those of the padded
        ``target``."""
        return self._head("seq.out", self._teacher_forced(memory, target, lengths, target_lengths))

    def teacher_logits(self, memory: Tensor, target, guidance: Tensor, lengths=None,
                       target_lengths=None) -> Tensor:
        """Teacher-forced logits attending to the memory fused with
        ``guidance``, the ``oracle_guidance`` of the masked target.

        The decoder body is shared with the student; only the fusion
        modules, oracle encoder, and output head are auxiliary.  The
        lengths are as for ``student_head``; the masked target is padded
        like ``target``.

        No package code calls it: training runs both heads through
        ``student_and_teacher_logits``.  It stays as the two-pass reference
        that ``tests/test_batched.py`` checks the joint pass against, and
        ``perfbench/tracing.py`` wraps it by name.
        """
        fused = self.fuse(memory, guidance, lengths=lengths, guidance_lengths=target_lengths)
        return self._head("teacher_out", self._teacher_forced(fused, target, lengths, target_lengths))

    def student_and_teacher_logits(self, memory: Tensor, target, guidance: Tensor, lengths,
                                   target_lengths) -> tuple[Tensor, Tensor]:
        """``student_head`` and ``teacher_logits`` of a padded batch, from
        one decoder pass over the ``(2B, ...)`` stack of ``memory`` and the
        fused memory, rows 0:B read by the student head and B:2B by the
        teacher's.  Each row is that of the two calls, up to the order in
        which a matrix product over the doubled row count sums."""
        if memory.data.ndim < 3 or lengths is None:
            raise ShapeError(f"a joint decoder pass needs a padded batch and its lengths, got {memory.shape}")
        fused = self.fuse(memory, guidance, lengths=lengths, guidance_lengths=target_lengths)
        x = self._teacher_forced(tt.concat([memory, fused]), target, lengths, target_lengths, copies=2)
        b = memory.shape[0]
        return (self._head("seq.out", tt.index(x, slice(0, b))),
                self._head("teacher_out", tt.index(x, slice(b, 2 * b))))

    def _greedy(self, memory: Tensor, lengths, head: str) -> list[tuple[int, ...]]:
        """Greedy autoregressive decode through ``head`` of every row of a
        padded ``memory`` in lockstep, one new token per row per
        ``decode_logits`` call on one cache.  Row i stops at the end symbol
        or at its own length limit, twice its source ``lengths[i]`` plus 4
        tokens, for any length: positions come from the shared table of
        ``_positions``.
        A stopped row is still fed until every row has stopped, and its
        later tokens are dropped."""
        limits = (2 * lengths + 4).tolist()
        cache = self.decode_cache(memory, lengths)
        rows = [[] for _ in limits]
        live = range(len(limits))  # the rows still decoding
        nxt = np.full((len(limits), 1), self.bos)
        for _ in range(max(limits)):
            logits = self.decode_logits(cache, nxt, head=head)
            nxt = logits.data.argmax(axis=-1)
            tokens = nxt.ravel().tolist()
            live = [i for i in live if tokens[i] != self.eos]
            for i in live:
                rows[i].append(tokens[i])
            live = [i for i in live if len(rows[i]) < limits[i]]
            if not live:
                break
        return [tuple(row) for row in rows]

    @tt.no_grad()
    def predict(self, sources) -> list[tuple[int, ...]]:
        """Greedy autoregressive decodes of a list of sources, from the
        sources alone."""
        ids, lengths = padded_stack(sources, "sources")
        return self._greedy(self.encode(ids, lengths), lengths, "seq.out")

    @tt.no_grad()
    def predict_teacher(self, sources, masked_targets) -> list[tuple[int, ...]]:
        """Greedy decodes of a list of sources with access to their
        (masked) targets via fusion."""
        ids, lengths, tokens, target_lengths = _padded_pairs(sources, masked_targets)
        guidance = self.oracle_guidance(tokens, target_lengths)
        fused = self.fuse(self.encode(ids, lengths), guidance, lengths=lengths, guidance_lengths=target_lengths)
        return self._greedy(fused, lengths, "teacher_out")


def build_model(config: ModelConfig, seed: int = 0):
    return CtcModel(config, seed) if config.task == "ctc" else AedModel(config, seed)


# ---------------------------------------------------------------------------
# checkpoint format v3: ASCII text, byte-exact round trip.  Line 1 is the
# magic, line 2 one JSON object {"model": ModelConfig fields, "run": the
# str -> str run config} with sorted keys, then one line per parameter,
# ``name d0 d1 ... hex``, the hex being its little-endian float64 bytes,
# and last ``[end]``.  Any other version is refused at the header.
# ---------------------------------------------------------------------------


def save_checkpoint(model, path, run_config: dict | None = None) -> None:
    lines = [CHECKPOINT_MAGIC, json.dumps({"model": asdict(model.cfg), "run": run_config or {}}, sort_keys=True)]
    for name, t in model.store.items():
        lines.append(" ".join([name, *map(str, t.data.shape), t.data.astype("<f8").tobytes().hex()]))
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


def load_checkpoint(path):
    """Rebuild the model from a checkpoint; returns (model, run_config)."""
    try:
        with open(path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"not an ASCII checkpoint: {exc}") from exc
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad or missing header; expected {CHECKPOINT_MAGIC!r}, "
            f"got {lines[0][:60]!r}" if lines else "empty checkpoint file"
        )
    if lines[-1] != "[end]":
        raise CheckpointFormatError("truncated checkpoint: missing [end]")

    try:
        header = json.loads(lines[1])
        model_kv, run_kv = header["model"], header["run"]
        # each ModelConfig field and no other, of the type of its default (str or int)
        want = {f.name: type(f.default) for f in fields(ModelConfig)}
        bad = sorted(k for k in want.keys() | model_kv.keys() if type(model_kv.get(k)) is not want.get(k))
        if bad:
            raise ValueError(f"missing, extra or mistyped model fields {bad}")
        if not all(isinstance(v, str) for v in run_kv.values()):
            raise ValueError("run values must be strings")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # not JSON, or not this layout
        raise CheckpointFormatError(f"bad config line: {exc}") from exc

    params: dict[str, np.ndarray] = {}
    for line in lines[2:-1]:
        name, _, rest = line.partition(" ")
        *dims, digits = rest.split(" ")
        try:
            if name in params:
                raise ValueError("repeated line")
            shape = tuple(int(n) for n in dims)
            raw = bytes.fromhex(digits)
            if len(raw) != 8 * math.prod(shape):
                raise ValueError(f"{len(raw)} bytes for shape {shape}")
            params[name] = np.frombuffer(raw, "<f8").reshape(shape)
        except ValueError as exc:  # a bad dimension or hex digit, or a count off the shape
            raise CheckpointFormatError(f"param {name}: {exc}") from exc

    model = build_model(ModelConfig(**model_kv))  # every parameter is overwritten below
    expected = set(model.store.names())
    if set(params) != expected:
        missing = sorted(expected - set(params))
        extra = sorted(set(params) - expected)
        raise CheckpointFormatError(f"parameter set mismatch: missing {missing}, extra {extra}")
    for name, values in params.items():
        t = model.store.peek(name)
        if t.data.shape != values.shape:
            raise CheckpointFormatError(f"param {name}: shape {values.shape} != {t.data.shape}")
        t.data[...] = values
    model.store.reset_reads()
    return model, run_kv
