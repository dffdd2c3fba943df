"""Exact CTC machinery: collapse mapping, alignment enumeration, log-space
forward-backward loss, alignment posteriors, analytic gradients, greedy
decoding, and the frame-level distillation losses.

Two independent routes compute the same quantities: an exhaustive
enumeration over all label paths, scored by ``path_log_probs`` (the trust
anchor, usable only for tiny instances), and the dynamic-programming
recursion over the blank-extended target (the one that scales).  Tests
hold them to 1e-9 agreement.

The recursion is written once, as the forward pass ``_forward``,
vectorised over the lattice states with one Python loop over frames.  The
backward variables are that same pass run on the time- and
state-reversed lattice, whose states are the blank-extended reversed
target, and then flipped back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractError,
    EnumerationCapError,
    InfeasibleTargetError,
    ShapeError,
)
from .tensor import Tensor, as_tensor, custom_op
from . import tensor as tt

BLANK = 0

# probability floor inside logs for the KL distillation form
EPS_P = 1e-12

# refuse exhaustive enumeration beyond this many raw paths
ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class Vocab:
    """Label alphabet of ``size`` entries where index 0 is the blank."""

    size: int
    blank_id: int = BLANK

    def __post_init__(self):
        if self.size < 2:
            raise ContractError("vocab needs the blank plus at least one label")
        if self.blank_id != BLANK:
            raise ContractError("blank is fixed at index 0")

    @property
    def labels(self) -> range:
        """Non-blank label ids."""
        return range(1, self.size)


def collapse(path) -> tuple[int, ...]:
    """Merge repeated labels, then drop blanks."""
    return tuple(k for k, _ in itertools.groupby(path) if k != BLANK)


def min_frames(y) -> int:
    """Shortest path length able to produce ``y`` (repeats force a blank)."""
    y = tuple(y)
    return len(y) + sum(1 for a, b in zip(y, y[1:]) if a == b)


def _check_target(y, vocab: Vocab) -> tuple[int, ...]:
    y = tuple(int(t) for t in y)
    if len(y) < 1:
        raise ContractError("target must contain at least one token")
    if any(t == BLANK or not 0 < t < vocab.size for t in y):
        raise ContractError(f"target tokens must lie in 1..{vocab.size - 1}")
    return y


def enumerate_alignments(y, n_frames: int, vocab: Vocab, cap: int = ENUMERATION_CAP):
    """All length-``n_frames`` paths whose collapse equals ``y``.

    Exhaustive scan over every one of the ``vocab.size ** n_frames`` raw
    paths; this is the oracle, so it stays deliberately brute force.
    Returns an empty list when no path can produce ``y``.
    """
    y = _check_target(y, vocab)
    if vocab.size ** n_frames > cap:
        raise EnumerationCapError(
            f"{vocab.size}^{n_frames} paths exceed the cap of {cap}"
        )
    return [
        z
        for z in itertools.product(range(vocab.size), repeat=n_frames)
        if collapse(z) == y
    ]


def _as_logits(u) -> np.ndarray:
    data = u.data if isinstance(u, Tensor) else np.asarray(u, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"frame logits must be T x K, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ContractError("frame logits must be finite")
    return data


def log_softmax_rows(u: np.ndarray) -> np.ndarray:
    """Log frame posteriors: the log-softmax of each row of ``u``."""
    shifted = u - u.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def path_log_probs(u: np.ndarray, paths) -> np.ndarray:
    """Log-probability of each enumerated path under the logits ``u``:
    the sum over frames, left to right, of its log frame posteriors."""
    lp = log_softmax_rows(u)
    return np.array([sum(lp[t, k] for t, k in enumerate(z)) for z in paths])


def _logsumexp(values) -> float:
    m = max(values)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(v - m) for v in values))


def validated_inputs(u, y, vocab: Vocab) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validated T x K logits and target, shared by the DP, the oracles and
    the bound diagnostics: ``ShapeError`` unless the logits are a matrix as
    wide as ``vocab``, ``ContractError`` unless they are finite."""
    data = _as_logits(u)
    y = _check_target(y, vocab)
    if data.shape[1] != vocab.size:
        raise ShapeError("logit width must equal vocab size")
    return data, y


def _scored_paths(u, y, vocab: Vocab, cap: int):
    """Validated logits, every path collapsing to ``y``, and their log-probabilities."""
    data, y = validated_inputs(u, y, vocab)
    paths = enumerate_alignments(y, data.shape[0], vocab, cap=cap)
    if not paths:
        raise InfeasibleTargetError(
            f"no length-{data.shape[0]} path collapses to target of length {len(y)}"
        )
    return data, paths, path_log_probs(data, paths)


def ctc_loss_bruteforce(u, y, vocab: Vocab, cap: int = ENUMERATION_CAP) -> float:
    """-log sum over enumerated paths of the product of frame posteriors."""
    return -_logsumexp(list(_scored_paths(u, y, vocab, cap)[2]))


def _extended(y) -> np.ndarray:
    """The blank-extended target: a blank before, between and after labels."""
    ext = np.full(2 * len(y) + 1, BLANK, dtype=np.int64)
    ext[1::2] = y
    return ext


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """True where a path may jump from state s-2 to s: into a label that
    differs from the label two states back."""
    skip = np.zeros(ext.size, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    return skip


def _forward(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Forward log-variables over a blank-extended lattice.

    ``lp_ext[t, s]`` is the log posterior at frame t of state s's label;
    paths start in state 0 or 1 and move 0, 1 or (where ``skip``) 2
    states per frame.  alpha[t, s] includes ``lp_ext[t, s]``.
    """
    n_frames, n_states = lp_ext.shape
    # two leading -inf columns stand for the states s-1 and s-2 of s = 0;
    # adding skip_add (0 or -inf) to the s-2 term drops the barred jumps
    alpha = np.full((n_frames, n_states + 2), -np.inf)
    alpha[0, 2:4] = lp_ext[0, :2]
    skip_add = np.where(skip, 0.0, -np.inf)
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        stay_or_step = np.logaddexp(prev[2:], prev[1:-1])
        alpha[t, 2:] = np.logaddexp(stay_or_step, prev[:-2] + skip_add) + lp_ext[t]
    return alpha[:, 2:]


def _dp(u, y, vocab: Vocab) -> tuple[float, np.ndarray, np.ndarray]:
    """The one DP entry: validate, take the log-softmax once, run the
    recursion forward and on the reversed lattice.

    Returns (negative log-likelihood, alignment posterior sigma, analytic
    gradient softmax(u) - sigma).
    """
    data, y = validated_inputs(u, y, vocab)
    if data.shape[0] < min_frames(y):
        raise InfeasibleTargetError(
            f"{data.shape[0]} frames cannot carry a target needing {min_frames(y)}"
        )
    lp = log_softmax_rows(data)
    ext = _extended(y)
    lp_ext = lp[:, ext]
    alpha = _forward(lp_ext, _skip_mask(ext))
    loglik = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    if loglik == -np.inf:
        raise InfeasibleTargetError("target cannot be aligned to the given frames")
    # the reversed lattice's states are the blank-extended reversed target
    beta = _forward(lp_ext[::-1, ::-1], _skip_mask(ext[::-1]))[::-1, ::-1]

    # state occupancy: alpha and beta both include lp at (t, s), divide once
    with np.errstate(invalid="ignore"):
        log_gamma = alpha + beta - lp_ext - loglik
    # logits near +-1e308 can drive lp to -inf, and -inf - -inf is NaN
    log_gamma[np.isnan(log_gamma)] = -np.inf
    gamma = np.exp(log_gamma)

    sigma = np.zeros_like(lp)
    np.add.at(sigma, (slice(None), ext), gamma)  # per label, in state order
    sigma /= sigma.sum(axis=1, keepdims=True)
    return -float(loglik), sigma, np.exp(lp) - sigma


def ctc_loss_dp(u, y, vocab: Vocab) -> Tensor:
    """CTC negative log-likelihood via forward recursion.

    Differentiable: the backward rule is the analytic gradient
    softmax(u) - sigma, where sigma is the alignment posterior.
    """
    loss, _, grad = _dp(u, y, vocab)

    def bwd(g):
        return (float(g) * grad,)

    return custom_op(loss, (as_tensor(u),), bwd)


def ctc_posterior(u, y, vocab: Vocab) -> np.ndarray:
    """Alignment posterior sigma[t, k] = P(path label k at frame t | target)."""
    return _dp(u, y, vocab)[1]


def ctc_grad(u, y, vocab: Vocab) -> np.ndarray:
    """Analytic d(loss)/d(logits): frame posterior minus alignment posterior."""
    return _dp(u, y, vocab)[2]


def posterior_from_enumeration(u, y, vocab: Vocab, cap: int = ENUMERATION_CAP) -> np.ndarray:
    """Path-weighted label frequencies; the oracle for ctc_posterior."""
    data, paths, logw = _scored_paths(u, y, vocab, cap)
    w = np.exp(logw - _logsumexp(list(logw)))
    sigma = np.zeros_like(data)
    for weight, z in zip(w, paths):
        for t, k in enumerate(z):
            sigma[t, k] += weight
    sigma /= sigma.sum(axis=1, keepdims=True)
    return sigma


def _smoothed_rows(p: Tensor, n_labels: int) -> Tensor:
    # floor entries at EPS_P, renormalized so rows stay exact distributions
    return tt.scale(tt.add(p, EPS_P), 1.0 / (1.0 + n_labels * EPS_P))


def _weighted_rows(entries: Tensor, weights) -> Tensor:
    """Sum of ``entries`` (rows of ``(..., T, K)``) with row r weighted by
    ``weights[r]``; by default the mean over the rows of a matrix."""
    if weights is None:
        if entries.data.ndim != 2:
            raise ShapeError(f"unweighted rows must form a T x K matrix, got {entries.shape}")
        weights = np.full(entries.shape[0], 1.0 / entries.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != entries.shape[:-1]:
        raise ShapeError(f"row weights {weights.shape} for rows {entries.shape}")
    return tt.sum_all(tt.scale(entries, weights[..., None]))


def kl_rows(teacher: Tensor, student: Tensor, weights=None) -> Tensor:
    """KL(teacher || student) on floored distributions, row by row, summed
    with row weights ``weights`` (default: the mean over the rows)."""
    teacher, student = as_tensor(teacher), as_tensor(student)
    if teacher.shape != student.shape:
        raise ShapeError(f"kl rows {teacher.shape} vs {student.shape}")
    n_labels = teacher.shape[-1]
    t = _smoothed_rows(teacher, n_labels)
    s = _smoothed_rows(student, n_labels)
    return _weighted_rows(tt.mul(t, tt.sub(tt.log(t), tt.log(s))), weights)


def kd_loss_ctc(student_posterior: Tensor, teacher_posterior: Tensor, form: str = "l2",
                weights=None) -> Tensor:
    """Frame-level posterior transfer loss between student and teacher.

    ``l2``: the squared Euclidean distance between posterior rows.
    ``kl``: KL(teacher || student).  Both are the mean over the frames of
    a T x K matrix, or, with ``weights`` shaped like the posteriors without
    their last axis, the weighted sum over the rows of a padded stack.
    Gradients flow into both arguments; detach the teacher posterior
    before calling to cut its side off.
    """
    s, t = as_tensor(student_posterior), as_tensor(teacher_posterior)
    if s.shape != t.shape:
        raise ShapeError(f"kd posteriors {s.shape} vs {t.shape}")
    if s.data.ndim < 2:
        raise ShapeError("kd posteriors must be T x K")
    if form == "l2":
        d = tt.sub(s, t)
        return _weighted_rows(tt.mul(d, d), weights)
    if form == "kl":
        return kl_rows(t, s, weights)
    raise ContractError(f"unknown kd form {form!r}")


def greedy_decode(u) -> tuple[int, ...]:
    """Per-frame argmax then collapse; ties go to the lowest label index."""
    data = _as_logits(u)
    return collapse(np.argmax(data, axis=1))
