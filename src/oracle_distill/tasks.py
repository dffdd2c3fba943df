"""Deterministic synthetic sequence tasks at desk scale.

The frame-labeling task emits per-token feature blocks with two kinds of
confusable label pairs sharing one feature embedding: pair (1, 2) is
resolvable from the feature class of the preceding token, pair (3, 4) is
a pure coin flip given the source.  Target-aware prediction therefore has
an error floor of zero while source-only prediction does not, which is
the property that makes oracle guidance genuinely informative.

The transduction task maps token strings through a deterministic rule
(reverse, substitution cipher, or sort) with optional copy noise.

A dataset is one RNG stream seeded by its spec, and the order of its draws
is part of the dataset's definition: drawing a block of values at once is
allowed only where it yields the same stream as the draws one at a time
(one ``random(n)`` for n scalar ``random()`` calls, one
``standard_normal`` block for an example's frames), so a change here must
leave every generated dataset byte-identical.  What a dataset derives from
its spec alone (the cipher table, the feature centers, the label lists a
target is drawn from) is built once per ``gen_*`` call and never cached
across calls.  The benchmark wraps ``gen_ctc_dataset`` and
``gen_aed_dataset`` by name to time dataset generation.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

RESOLVABLE_PAIR = (1, 2)
COINFLIP_PAIR = (3, 4)


@dataclass(frozen=True)
class CtcTaskSpec:
    vocab_size: int = 6  # non-blank labels 1..vocab_size
    len_min: int = 2
    len_max: int = 6
    frames_min: int = 2
    frames_max: int = 4
    feature_dim: int = 8
    noise: float = 0.3
    ambiguity: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.len_min <= self.len_max:
            raise ContractError("need 1 <= len_min <= len_max")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ContractError("need 1 <= frames_min <= frames_max")
        if not 0.0 <= self.ambiguity <= 1.0:
            raise ContractError("ambiguity must lie in [0, 1]")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ContractError(f"noise must be finite and nonnegative, got {self.noise}")
        if self.feature_dim < 1:
            raise ContractError("feature_dim must be positive")
        if self.ambiguity > 0 and self.vocab_size < 6:
            raise ContractError("confusable pairs need vocab_size >= 6")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be at least 2")
        if self.seed < 0:
            raise ContractError("seed must be nonnegative")


@dataclass(frozen=True)
class AedTaskSpec:
    vocab_size: int = 12
    len_min: int = 3
    len_max: int = 8
    rule: str = "cipher"  # reverse | cipher | sort
    copy_noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.rule not in ("reverse", "cipher", "sort"):
            raise ContractError(f"unknown rule {self.rule!r}")
        if not 1 <= self.len_min <= self.len_max:
            raise ContractError("need 1 <= len_min <= len_max")
        if not 0.0 <= self.copy_noise <= 1.0:
            raise ContractError("copy_noise must lie in [0, 1]")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be at least 2")
        if self.seed < 0:
            raise ContractError("seed must be nonnegative")


@dataclass
class Example:
    x: object  # float frame matrix (ctc) or token tuple (aed)
    y: tuple[int, ...]
    split: str


def _split_of(key: str, seed: int) -> str:
    digest = hashlib.sha256(f"{seed}|{key}".encode()).digest()
    bucket = digest[0] % 10
    if bucket < 8:
        return "train"
    return "dev" if bucket == 8 else "test"


def token_embeddings(spec: CtcTaskSpec) -> np.ndarray:
    """Per-label feature centers, row k for label k (row 0 unused).

    Confusable pair members share a row when ambiguity is in play.
    """
    rng = np.random.default_rng(spec.seed)
    emb = rng.standard_normal((spec.vocab_size + 1, spec.feature_dim))
    if spec.ambiguity > 0:
        emb[RESOLVABLE_PAIR[1]] = emb[RESOLVABLE_PAIR[0]]
        emb[COINFLIP_PAIR[1]] = emb[COINFLIP_PAIR[0]]
    return emb


def feature_class(spec: CtcTaskSpec, label: int) -> int:
    """Identity of a label's feature center; pair members coincide."""
    if spec.ambiguity > 0:
        if label in RESOLVABLE_PAIR:
            return RESOLVABLE_PAIR[0]
        if label in COINFLIP_PAIR:
            return COINFLIP_PAIR[0]
    return label


def _target_sampler(spec: CtcTaskSpec):
    """A function of the generator that draws one target with no two
    adjacent tokens in the same feature class; the label lists it draws
    from are built here, once.

    Class-adjacent repeats would merge into one feature block the collapse
    mapping cannot split, so forbidding them keeps the task solvable.
    """
    labels = range(1, spec.vocab_size + 1)
    plain = [k for k in labels
             if spec.ambiguity == 0 or k not in RESOLVABLE_PAIR + COINFLIP_PAIR]
    # by the previous label: the labels a plain draw may pick, the kinds of
    # confusable token that may follow, and the resolvable pair's member
    # that follows, a deterministic function of the label's observable class
    follow = {}
    for prev in labels:
        c = feature_class(spec, prev)
        kinds = [kind for kind, pair in (("resolvable", RESOLVABLE_PAIR), ("coinflip", COINFLIP_PAIR))
                 if c != pair[0]]
        follow[prev] = ([k for k in plain if feature_class(spec, k) != c], kinds, RESOLVABLE_PAIR[c % 2])

    def sample(rng: np.random.Generator) -> tuple[int, ...]:
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        y = [plain[rng.integers(len(plain))]]
        for _ in range(length - 1):
            allowed, kinds, member = follow[y[-1]]
            if rng.random() < spec.ambiguity:
                if kinds[rng.integers(len(kinds))] == "resolvable":
                    y.append(member)
                else:
                    y.append(COINFLIP_PAIR[rng.integers(2)])
            else:
                y.append(allowed[rng.integers(len(allowed))])
        return tuple(y)

    return sample


def gen_ctc_dataset(spec: CtcTaskSpec, n: int) -> list[Example]:
    """Pure function of (spec, n); every example satisfies T >= 2L + 1."""
    if n < 1:
        raise ContractError("need at least one example")
    rng = np.random.default_rng(spec.seed)
    # pair members share a row, so a label's row is its feature class's
    emb = token_embeddings(spec)
    sample_target = _target_sampler(spec)
    examples = []
    for idx in range(n):
        y = sample_target(rng)
        durations = rng.integers(spec.frames_min, spec.frames_max + 1, size=len(y))
        while durations.sum() < 2 * len(y) + 1:
            durations[rng.integers(len(y))] += 1
        frames = emb[list(y)].repeat(durations, axis=0)
        x = frames + spec.noise * rng.standard_normal((frames.shape[0], spec.feature_dim))
        examples.append(Example(x=x, y=y, split=_split_of(str(idx), spec.seed)))
    return examples


def apply_rule(x: tuple[int, ...], spec: AedTaskSpec, table: dict[int, int] | None = None) -> tuple[int, ...]:
    """``x`` mapped by the spec's rule; ``table`` is ``cipher_table(spec)``,
    built here if the rule needs it and it is not given."""
    if spec.rule == "reverse":
        return tuple(reversed(x))
    if spec.rule == "sort":
        return tuple(sorted(x))
    if table is None:
        table = cipher_table(spec)
    return tuple(table[t] for t in x)


def cipher_table(spec: AedTaskSpec) -> dict[int, int]:
    rng = np.random.default_rng(spec.seed + 1)
    perm = rng.permutation(np.arange(1, spec.vocab_size + 1))
    return {k: int(v) for k, v in zip(range(1, spec.vocab_size + 1), perm)}


def gen_aed_dataset(spec: AedTaskSpec, n: int) -> list[Example]:
    """Pure function of (spec, n); splits are disjoint by source string."""
    if n < 1:
        raise ContractError("need at least one example")
    rng = np.random.default_rng(spec.seed)
    table = cipher_table(spec) if spec.rule == "cipher" else None
    examples = []
    for _ in range(n):
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        x = tuple(rng.integers(1, spec.vocab_size + 1, size=length).tolist())
        copied = (rng.random(length) < spec.copy_noise).tolist()
        y = tuple(s if c else t for s, t, c in zip(x, apply_rule(x, spec, table), copied))
        key = " ".join(map(str, x))
        examples.append(Example(x=x, y=y, split=_split_of(key, spec.seed)))
    return examples


def split_examples(dataset: list[Example], split: str) -> list[Example]:
    return [ex for ex in dataset if ex.split == split]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


class Batch:
    """A batch as padded arrays, which the objective reads in one graph.

    ``sources`` are B x T x D floats for frame matrices (frame labelling)
    or B x L ints for token tuples (transduction); targets are
    ``target_ids`` (B x L ints).  Cells past an item's ``lengths`` /
    ``target_lengths`` are zero and are never read.  ``examples`` are the
    examples or (source, target) pairs the batch was built from, kept as
    given.
    """

    def __init__(self, examples):
        examples = list(examples)
        if not examples:
            raise ContractError("empty batch")
        self.examples = examples
        sources, targets = zip(*(_xy(ex) for ex in examples))
        self.targets = [token_tuple(y, "a batch target") for y in targets]
        self.sources, self.lengths = padded_stack(sources, "sources")
        self.target_ids, self.target_lengths = padded_stack(self.targets, "targets")

    def __len__(self):
        return len(self.examples)


# a Python or numpy bool is no token id, though operator.index and
# np.asarray read a Python one as an int
_BOOLS = frozenset((bool, np.bool_))


def _token_id(t) -> int:
    if type(t) in _BOOLS:
        raise TypeError("a bool is not a token id")
    return operator.index(t)


def check_integer_ids(tokens, ids: np.ndarray, what: str) -> None:
    """Refuse ``ids``, the array of ``tokens``, with a ``ContractError``
    naming ``what``, unless it holds integer token ids: an integer dtype
    and no bool among the tokens.  An ndarray's dtype tells that already,
    so only other ``tokens`` are scanned, at their leaves; a leaf that is
    a 0-d array counts by its dtype, since a bool one reads as 0 or 1."""
    if not ids.size:
        return
    leaves = (() if isinstance(tokens, np.ndarray) else tokens if ids.ndim == 1
              else np.asarray(tokens, dtype=object).ravel())
    kinds = set(map(type, leaves))
    if np.ndarray in kinds:
        kinds.update(t.dtype.type for t in leaves if type(t) is np.ndarray)
    if ids.dtype.kind not in "iu" or not _BOOLS.isdisjoint(kinds):
        given = np.asarray(tokens, dtype=object).tolist()
        raise ContractError(f"{what} must hold integer token ids, got {given}")


def token_tuple(seq, what: str) -> tuple[int, ...]:
    """``seq`` as a tuple of Python ints.  A token is a Python or numpy
    integer; a bool, a float or a string is refused, not read as an id,
    truncated or parsed, with a ``ContractError`` naming the sequence
    ``what``."""
    try:
        return tuple(_token_id(t) for t in seq)
    except TypeError:
        raise ContractError(f"{what} must be a sequence of integer token ids") from None


def _xy(item):
    """(source, target) of an example or of a pair."""
    if hasattr(item, "x"):
        return item.x, item.y
    x, y = item
    return x, y


def padded_stack(seqs, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The sequences stacked on a new leading axis, zero-padded along their
    first axis to the longest, and the length of each: floats for frame
    matrices, ints for token sequences.  This is the one conversion of a
    list of sequences to a padded array: each item is converted once, every
    row beyond the first axis must agree, and a token item must hold
    integer ids (``check_integer_ids``), so a float, a string or a bool
    token is refused, not truncated, parsed or read as 0 or 1, and a scalar
    item is refused with a ``ShapeError``.  ``what`` names the sequences in
    errors."""
    seqs = list(seqs)
    items = [np.asarray(seq) for seq in seqs]
    if not items:
        raise ContractError(f"no {what} given")
    for i, item in enumerate(items):
        if item.ndim == 0:
            raise ShapeError(f"{what} item {i} must be a sequence, got {item.tolist()!r}")
    lengths = np.array([len(item) for item in items])
    tail = items[0].shape[1:]
    dtype = np.float64 if tail else np.int64
    out = np.zeros((len(items), int(lengths.max()), *tail), dtype=dtype)
    for i, (seq, item, n) in enumerate(zip(seqs, items, lengths)):
        if item.shape[1:] != tail:
            raise ShapeError(f"{what} item {i} has rows of shape {item.shape[1:]}, item 0 {tail}")
        if not tail:
            check_integer_ids(seq, item, f"{what} item {i}")
        out[i, :n] = item
    return out, lengths


def batch_iter(dataset: list[Example], batch_size: int, rng: np.random.Generator):
    """One epoch of padded batches in a seeded random order.

    The last partial batch is included.
    """
    if batch_size < 1:
        raise ContractError("batch_size must be at least 1")
    if not dataset:
        raise ContractError("empty dataset")
    order = rng.permutation(len(dataset))
    for start in range(0, len(dataset), batch_size):
        chunk = [dataset[i] for i in order[start : start + batch_size]]
        yield Batch(chunk)


# ---------------------------------------------------------------------------
# text export for reproducibility audits
# ---------------------------------------------------------------------------


def export_dataset(dataset: list[Example], path) -> None:
    """A header line naming the task, read off the examples' sources, then
    one example per line: split, source, target, tab-separated; floats are
    written by ``repr``, so the file reads back exactly.  An empty dataset,
    or one whose sources are of more than one kind or width, is refused
    before the file is opened, so an existing file stays as it was."""
    if not dataset:
        raise ContractError("empty dataset")
    # frame matrices make a ctc dataset of their width, token tuples an aed one
    kinds = {f"ctc feature_dim={ex.x.shape[1]}" if isinstance(ex.x, np.ndarray) else "aed"
             for ex in dataset}
    if len(kinds) > 1:
        raise ContractError(f"a dataset mixes sources of {' and '.join(sorted(kinds))}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# oracle-distill dataset v1 task={kinds.pop()}\n")
        for ex in dataset:
            src = " ".join(map(repr, np.ravel(ex.x).tolist()))
            tgt = " ".join(str(t) for t in ex.y)
            fh.write(f"{ex.split}\t{src}\t{tgt}\n")
