"""Deterministic synthetic sequence tasks at desk scale.

The frame-labeling task emits per-token feature blocks with two kinds of
confusable label pairs sharing one feature embedding: pair (1, 2) is
resolvable from the feature class of the preceding token, pair (3, 4) is
a pure coin flip given the source.  Target-aware prediction therefore has
an error floor of zero while source-only prediction does not, which is
the property that makes oracle guidance genuinely informative.

The transduction task maps token strings through a deterministic rule
(reverse, substitution cipher, or sort) with optional copy noise.
"""

from __future__ import annotations

import hashlib
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
        if self.noise < 0:
            raise ContractError("noise must be nonnegative")
        if self.ambiguity > 0 and self.vocab_size < 6:
            raise ContractError("confusable pairs need vocab_size >= 6")
        if self.vocab_size < 2:
            raise ContractError("vocab_size must be at least 2")


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


def _resolve_member(spec: CtcTaskSpec, prev_label: int) -> int:
    # deterministic function of the previous token's observable class
    return RESOLVABLE_PAIR[feature_class(spec, prev_label) % 2]


def _sample_ctc_target(spec: CtcTaskSpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a target with no two adjacent tokens in the same feature class.

    Class-adjacent repeats would merge into one feature block the collapse
    mapping cannot split, so forbidding them keeps the task solvable.
    """
    plain = [k for k in range(1, spec.vocab_size + 1)
             if spec.ambiguity == 0 or k not in RESOLVABLE_PAIR + COINFLIP_PAIR]
    length = int(rng.integers(spec.len_min, spec.len_max + 1))
    y = [int(plain[rng.integers(len(plain))])]
    for _ in range(length - 1):
        prev_class = feature_class(spec, y[-1])
        if rng.random() < spec.ambiguity:
            kinds = []
            if prev_class != RESOLVABLE_PAIR[0]:
                kinds.append("resolvable")
            if prev_class != COINFLIP_PAIR[0]:
                kinds.append("coinflip")
            kind = kinds[rng.integers(len(kinds))]
            if kind == "resolvable":
                y.append(_resolve_member(spec, y[-1]))
            else:
                y.append(int(COINFLIP_PAIR[rng.integers(2)]))
        else:
            allowed = [k for k in plain if feature_class(spec, k) != prev_class]
            y.append(int(allowed[rng.integers(len(allowed))]))
    return tuple(y)


def gen_ctc_dataset(spec: CtcTaskSpec, n: int) -> list[Example]:
    """Pure function of (spec, n); every example satisfies T >= 2L + 1."""
    if n < 1:
        raise ContractError("need at least one example")
    rng = np.random.default_rng(spec.seed)
    emb = token_embeddings(spec)
    examples = []
    for idx in range(n):
        y = _sample_ctc_target(spec, rng)
        durations = rng.integers(spec.frames_min, spec.frames_max + 1, size=len(y))
        while durations.sum() < 2 * len(y) + 1:
            durations[rng.integers(len(y))] += 1
        rows = []
        for token, dur in zip(y, durations):
            block = emb[feature_class(spec, token)][None, :].repeat(dur, axis=0)
            rows.append(block + spec.noise * rng.standard_normal((dur, spec.feature_dim)))
        x = np.concatenate(rows, axis=0)
        examples.append(Example(x=x, y=y, split=_split_of(str(idx), spec.seed)))
    return examples


def apply_rule(x: tuple[int, ...], spec: AedTaskSpec) -> tuple[int, ...]:
    if spec.rule == "reverse":
        return tuple(reversed(x))
    if spec.rule == "sort":
        return tuple(sorted(x))
    return tuple(cipher_table(spec)[t] for t in x)


def cipher_table(spec: AedTaskSpec) -> dict[int, int]:
    rng = np.random.default_rng(spec.seed + 1)
    perm = rng.permutation(np.arange(1, spec.vocab_size + 1))
    return {k: int(v) for k, v in zip(range(1, spec.vocab_size + 1), perm)}


def gen_aed_dataset(spec: AedTaskSpec, n: int) -> list[Example]:
    """Pure function of (spec, n); splits are disjoint by source string."""
    if n < 1:
        raise ContractError("need at least one example")
    rng = np.random.default_rng(spec.seed)
    examples = []
    for _ in range(n):
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        x = tuple(int(v) for v in rng.integers(1, spec.vocab_size + 1, size=length))
        y = list(apply_rule(x, spec))
        for i in range(length):
            if rng.random() < spec.copy_noise:
                y[i] = x[i]
        key = " ".join(map(str, x))
        examples.append(Example(x=x, y=tuple(y), split=_split_of(key, spec.seed)))
    return examples


def split_examples(dataset: list[Example], split: str) -> list[Example]:
    return [ex for ex in dataset if ex.split == split]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


class Batch:
    """A batch as padded arrays, which the objective reads in one graph.

    Sources are ``features`` (B x T x D floats, frame labelling) or
    ``src_tokens`` (B x L ints, transduction), the other None; targets
    are ``target_ids`` (B x L ints).  Cells past an item's ``lengths`` /
    ``target_lengths`` are zero and are never read.  ``examples`` are the
    examples or (source, target) pairs the batch was built from, and
    items() gives the unpadded (source, target) pairs back.
    """

    def __init__(self, examples):
        examples = list(examples)
        if not examples:
            raise ContractError("empty batch")
        self.examples = examples
        sources, targets = zip(*(_xy(ex) for ex in examples))
        self.targets = [tuple(int(t) for t in y) for y in targets]
        self.lengths = np.array([len(x) for x in sources])
        self.target_lengths = np.array([len(y) for y in self.targets])
        self.target_ids = _padded(self.targets, self.target_lengths, np.int64)
        if np.ndim(sources[0]) == 2:
            self.features = _padded(sources, self.lengths, np.float64)
            self.src_tokens = None
        else:
            self.src_tokens = _padded(sources, self.lengths, np.int64)
            self.features = None

    def __len__(self):
        return len(self.examples)

    def items(self):
        """(source, target) pairs with padding removed, in batch order."""
        out = []
        for i, n in enumerate(self.lengths):
            if self.features is not None:
                out.append((self.features[i, :n], self.targets[i]))
            else:
                out.append((tuple(int(t) for t in self.src_tokens[i, :n]), self.targets[i]))
        return out


def _xy(item):
    """(source, target) of an example or of a pair."""
    if hasattr(item, "x"):
        return item.x, item.y
    x, y = item
    return x, y


def _padded(seqs, lengths, dtype) -> np.ndarray:
    """The sequences stacked on a new leading axis, zero-padded along their
    first axis to the longest; every row beyond the first axis must agree."""
    tail = np.shape(seqs[0])[1:]
    out = np.zeros((len(seqs), int(lengths.max()), *tail), dtype=dtype)
    for i, (seq, n) in enumerate(zip(seqs, lengths)):
        if np.shape(seq)[1:] != tail:
            raise ShapeError(f"item {i} has rows of shape {np.shape(seq)[1:]}, item 0 {tail}")
        out[i, :n] = seq
    return out


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
# text export / import for reproducibility audits
# ---------------------------------------------------------------------------


def export_dataset(dataset: list[Example], path, task: str) -> None:
    """One example per line: split, source, target, tab-separated."""
    with open(path, "w", encoding="ascii") as fh:
        if task == "ctc":
            dim = dataset[0].x.shape[1]
            fh.write(f"# oracle-distill dataset v1 task=ctc feature_dim={dim}\n")
        else:
            fh.write("# oracle-distill dataset v1 task=aed\n")
        for ex in dataset:
            if task == "ctc":
                src = " ".join(repr(float(v)) for v in ex.x.reshape(-1))
            else:
                src = " ".join(str(t) for t in ex.x)
            tgt = " ".join(str(t) for t in ex.y)
            fh.write(f"{ex.split}\t{src}\t{tgt}\n")


def import_dataset(path) -> tuple[str, list[Example]]:
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if not header.startswith("# oracle-distill dataset v1"):
            raise ContractError(f"unrecognized dataset header: {header!r}")
        task = "ctc" if "task=ctc" in header else "aed"
        dim = int(header.split("feature_dim=")[1]) if task == "ctc" else None
        examples = []
        for line in fh:
            split, src, tgt = line.rstrip("\n").split("\t")
            y = tuple(int(t) for t in tgt.split())
            if task == "ctc":
                values = np.array([float(v) for v in src.split()])
                x = values.reshape(-1, dim)
            else:
                x = tuple(int(t) for t in src.split())
            examples.append(Example(x=x, y=y, split=split))
    return task, examples
