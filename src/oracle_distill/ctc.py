"""Exact CTC machinery: collapse mapping, alignment enumeration, log-space
forward-backward loss, alignment posteriors and greedy decoding.  The
analytic gradient is reached only through the backward rule of
``ctc_loss_dp``: read ``u.grad`` after ``tensor.backward``.

Two independent routes compute the same quantities: an exhaustive
enumeration over all label paths, scored by ``path_log_probs`` (the trust
anchor, usable only for tiny instances), and the dynamic-programming
recursion over the blank-extended target (the one that scales).  Tests
hold them to 1e-9 agreement.  The alphabet is the logits' width: K columns
are the blank and the labels 1..K-1, so no function that takes logits
takes a ``Vocab``.  The enumeration generates and tests every
one of the V^T raw paths, as one pass over an array of a byte per path
frame, not a Python loop over the paths.

The DP runs over a stack of instances padded to the longest frame count
and the longest blank-extended target; a single instance is a stack of
one.  The recursion is written once, as the forward pass ``_forward``,
vectorised over the items and lattice states with one Python loop over
frames; each item's likelihood is read at its own last frame and last two
states.  The backward variables are that same pass run on each item's own
time- and state-reversed lattice, whose states are the blank-extended
reversed target, and then mapped back.  The reversal is per item, not over
the padded array, so padding stays behind every item's real cells in both
passes and never feeds them.  The DP runs in two halves: the forward one
gives the likelihoods, and the backward one gives the posteriors and the
gradient.  ``ctc_forward_backward`` runs both; ``ctc_loss_dp``, the one
that takes padded stacks, defers the backward half to its backward rule.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractError,
    EnumerationCapError,
    InfeasibleTargetError,
    ShapeError,
)
from .tasks import check_integers, token_tuple
from .tensor import Tensor, as_tensor, custom_op, log_softmax_rows

BLANK = 0

# refuse exhaustive enumeration beyond this many raw paths
ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class Vocab:
    """Label alphabet of ``size`` entries where index 0 is the blank."""

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise ContractError("vocab needs the blank plus at least one label")

def collapse(path) -> tuple[int, ...]:
    """Merge repeated labels, then drop blanks."""
    return tuple(k for k, _ in itertools.groupby(path) if k != BLANK)


def min_frames(y) -> int:
    """Shortest path length able to produce ``y`` (repeats force a blank)."""
    y = tuple(y)
    return len(y) + sum(1 for a, b in zip(y, y[1:]) if a == b)


def _check_target(y, vocab: Vocab) -> tuple[int, ...]:
    y = token_tuple(y, "target")
    if len(y) < 1:
        raise ContractError("target must contain at least one token")
    if any(t == BLANK or not 0 < t < vocab.size for t in y):
        raise ContractError(f"target tokens must lie in 1..{vocab.size - 1}")
    return y


def enumerate_alignments(y, n_frames: int, vocab: Vocab):
    """All length-``n_frames`` paths whose collapse equals ``y``, as tuples
    in ``itertools.product`` order.

    Exhaustive scan over every one of the ``vocab.size ** n_frames`` raw
    paths; this is the oracle, so it stays deliberately brute force.  The
    paths are generated as one array, a byte per frame while the labels
    fit, and tested in one pass over it: a frame emits its label when that
    is not the blank and differs from the frame before, and a path is kept
    when it emits exactly the labels of ``y``, in order.  Returns an empty
    list when no path can produce ``y``, and refuses
    (``EnumerationCapError``) more raw paths than ``ENUMERATION_CAP``.
    """
    y = _check_target(y, vocab)
    n_paths = vocab.size ** n_frames
    if n_paths > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{vocab.size}^{n_frames} paths exceed the cap of {ENUMERATION_CAP}"
        )
    # frame-major: paths[t, i] is the label of raw path i at frame t
    paths = np.indices((vocab.size,) * n_frames, dtype=np.min_scalar_type(vocab.size - 1))
    paths = paths.reshape(n_frames, n_paths)
    emits = paths != BLANK
    emits[1:] &= paths[1:] != paths[:-1]
    # at most 19 frames fit under the cap, so the counts fit a byte
    hits = emits.sum(axis=0, dtype=np.int8) == len(y)
    candidates = paths[:, hits].T
    # each candidate emits len(y) labels; row by row they must read y
    emitted = candidates[emits[:, hits].T].reshape(-1, len(y))
    kept = candidates[(emitted == np.array(y)).all(axis=1)]
    return [tuple(z) for z in kept.tolist()]


def _as_logits(u) -> np.ndarray:
    data = u.data if isinstance(u, Tensor) else np.asarray(u, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"frame logits must be T x K, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ContractError("frame logits must be finite")
    return data


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


def validated_inputs(u, y) -> tuple[np.ndarray, tuple[int, ...]]:
    """Validated T x K logits and target, shared by the oracles and the
    bound diagnostics: ``ShapeError`` unless the logits are a matrix,
    ``ContractError`` unless they are finite, at least two wide, and the
    target's labels lie in 1..K-1.  The DP checks its stacks the same way,
    in the same order."""
    data = _as_logits(u)
    return data, _check_target(y, Vocab(data.shape[1]))


def scored_paths(u, y):
    """Validated logits, every path collapsing to ``y``, and their
    log-probabilities: the one scoring of the enumeration that the oracles
    and the bound report share.  ``InfeasibleTargetError`` when no path
    collapses to ``y``."""
    data, y = validated_inputs(u, y)
    paths = enumerate_alignments(y, data.shape[0], Vocab(data.shape[1]))
    if not paths:
        raise InfeasibleTargetError(
            f"no length-{data.shape[0]} path collapses to target of length {len(y)}"
        )
    return data, paths, path_log_probs(data, paths)


def ctc_loss_bruteforce(u, y) -> float:
    """-log sum over enumerated paths of the product of frame posteriors."""
    return -_logsumexp(list(scored_paths(u, y)[2]))


def _skip_mask(ext: np.ndarray) -> np.ndarray:
    """True where a path may jump from state s-2 to s: into a label that
    differs from the label two states back (per row of a stack)."""
    skip = np.zeros(ext.shape, dtype=bool)
    skip[..., 2:] = (ext[..., 2:] != BLANK) & (ext[..., 2:] != ext[..., :-2])
    return skip


def _forward(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Forward log-variables over a stack of blank-extended lattices.

    ``lp_ext[b, t, s]`` is item b's log posterior at frame t of state s's
    label; paths start in state 0 or 1 and move 0, 1 or (where ``skip``)
    2 states per frame.  alpha[b, t, s] includes ``lp_ext[b, t, s]``.
    Padding past an item's last frame or state never feeds its real cells,
    since paths only move forward in both.
    """
    n_items, n_frames, n_states = lp_ext.shape
    # two leading -inf columns stand for the states s-1 and s-2 of s = 0;
    # adding skip_add (0 or -inf) to the s-2 term drops the barred jumps
    alpha = np.full((n_frames, n_items, n_states + 2), -np.inf)
    alpha[0, :, 2:4] = lp_ext[:, 0, :2]
    stay, step, jump = alpha[..., 2:], alpha[..., 1:-1], alpha[..., :-2]
    emit = lp_ext.transpose(1, 0, 2)
    skip_add = np.where(skip, 0.0, -np.inf)
    jumped = np.empty((n_items, n_states))
    for t in range(1, n_frames):
        cur = stay[t]
        np.logaddexp(stay[t - 1], step[t - 1], out=cur)
        np.add(jump[t - 1], skip_add, out=jumped)
        np.logaddexp(cur, jumped, out=cur)
        cur += emit[t]
    return stay.transpose(1, 0, 2)


class _Lattice(NamedTuple):
    """Where a stack's lattices sit in its padded arrays; it depends on the
    targets and frame counts alone, not on the logits."""

    labels: np.ndarray  # (B, T, S) flat index into the (B, T, K) logits of each cell's label
    skip: np.ndarray  # (B, S) skip masks of the lattices
    reversed_skip: np.ndarray  # (B, S) skip masks of the reversed lattices
    reversal: np.ndarray  # (B, T, S) flat index of each cell's mirror in its reversed lattice
    final: np.ndarray  # (2, B) flat index of the last two states at the last frame
    real: np.ndarray  # (B, T, 1) True on an item's own frames
    cells: np.ndarray  # (B, T, S) True on an item's own frames and states


@functools.lru_cache(maxsize=1)
def _lattice(targets: tuple, frames: tuple, n_frames: int, n_labels: int) -> _Lattice:
    """The stack's lattices, kept while the same targets and frame counts
    come back, as they do call after call in a finite-difference check."""
    for n, y in zip(frames, targets):
        if n < min_frames(y):
            raise InfeasibleTargetError(f"{n} frames cannot carry a target needing {min_frames(y)}")
    n_items, lengths = len(targets), np.array([len(y) for y in targets])
    states, width = 2 * lengths + 1, 2 * int(lengths.max()) + 1
    # the blank-extended targets: a blank before, between and after labels
    ext = np.full((n_items, width), BLANK, dtype=np.int64)
    ext[:, 1::2][np.arange(width // 2) < lengths[:, None]] = list(itertools.chain(*targets))
    items, steps, frames = np.arange(n_items), np.arange(n_frames), np.array(frames)
    starts = items[:, None] * n_frames  # each item's first row in the (B * T) rows
    real = steps < frames[:, None]
    # each item's lattice reversed in its own frames and states, padding
    # onto padding: the reversal is its own inverse, and the reversed
    # lattice's states are the blank-extended reversed target
    s_rev = (states[:, None] - 1 - np.arange(width)) % width
    t_rev = (frames[:, None] - 1 - steps) % n_frames
    last = (items * n_frames + frames - 1) * width + states - 1
    lattice = _Lattice(
        labels=((starts + steps) * n_labels)[:, :, None] + ext[:, None, :],
        skip=_skip_mask(ext),
        reversed_skip=_skip_mask(ext[items[:, None], s_rev]),
        reversal=((starts + t_rev) * width)[:, :, None] + s_rev[:, None, :],
        final=np.stack([last, last - 1]),
        real=real[..., None],
        cells=real[..., None] & (np.arange(width) < states[:, None])[:, None, :],
    )
    for array in lattice:
        array.flags.writeable = False  # shared by every call that hits the cache
    return lattice


class ForwardBackward(NamedTuple):
    """The DP's outputs: negative log-likelihood, alignment posterior
    sigma[t, k] = P(path label k at frame t | target), and the gradient
    of the first with respect to the logits, softmax(u) - sigma."""

    nll: float | np.ndarray
    posterior: np.ndarray
    grad: np.ndarray


class _ForwardPass(NamedTuple):
    """The first half of the DP and all that the second half reads."""

    single: bool  # one T x K instance, returned without the stack axis
    lattice: _Lattice
    lp: np.ndarray  # (B, T, K) log frame posteriors
    lp_ext: np.ndarray  # (B, T, S) the same on the lattice cells
    alpha: np.ndarray  # (B, T, S) forward variables
    loglik: np.ndarray  # (B,) log-likelihood per item

    def nll(self) -> float | np.ndarray:
        return -float(self.loglik[0]) if self.single else -self.loglik


def _forward_pass(u, y, frames) -> _ForwardPass:
    """Validate, take the log-softmax once, run the recursion forward and
    read each item's likelihood; the arguments are those of
    ``ctc_loss_dp``."""
    data = u.data if isinstance(u, Tensor) else np.asarray(u, dtype=np.float64)
    single = data.ndim == 2
    if single:
        data, targets = data[None], [y]
    elif data.ndim == 3:
        targets = list(y)
    else:
        raise ShapeError(f"frame logits must be T x K or a B x T x K stack, got {data.shape}")
    n_items, n_frames, _ = data.shape
    if len(targets) != n_items:
        raise ShapeError(f"{len(targets)} targets for a stack of {n_items}")
    if frames is None:
        frames = (n_frames,) * n_items
    else:
        check_integers(frames, np.asarray(frames), "frame counts", "integers")
        frames = tuple(int(n) for n in frames)
        if len(frames) != n_items or not all(1 <= n <= n_frames for n in frames):
            raise ShapeError(f"frame counts {frames} for a stack of shape {data.shape}")
        # only the real rows are read; zeros keep the padded ones finite
        data = np.where((np.arange(n_frames) < np.array(frames)[:, None])[..., None], data, 0.0)
    if not np.isfinite(data).all():
        raise ContractError("frame logits must be finite")
    vocab = Vocab(data.shape[2])
    targets = tuple(_check_target(t, vocab) for t in targets)
    lattice = _lattice(targets, frames, n_frames, vocab.size)

    lp = log_softmax_rows(data)
    lp_ext = lp.take(lattice.labels)
    alpha = _forward(lp_ext, lattice.skip)
    loglik = np.logaddexp(*alpha.take(lattice.final))
    if (loglik == -np.inf).any():
        raise InfeasibleTargetError("target cannot be aligned to the given frames")
    return _ForwardPass(single, lattice, lp, lp_ext, alpha, loglik)


def _backward_pass(fwd: _ForwardPass) -> tuple[np.ndarray, np.ndarray]:
    """The second half of the DP: the recursion on each item's reversed
    lattice, then the alignment posterior and the gradient."""
    _, lattice, lp, lp_ext, alpha, loglik = fwd
    reversal = lattice.reversal
    beta = _forward(lp_ext.take(reversal), lattice.reversed_skip).take(reversal)

    # state occupancy: alpha and beta both include lp at (t, s), divide once
    with np.errstate(invalid="ignore"):
        log_gamma = alpha + beta - lp_ext - loglik[:, None, None]
    # logits near +-1e308 can drive lp to -inf, and -inf - -inf is NaN
    gamma = np.exp(log_gamma, out=np.zeros_like(log_gamma), where=lattice.cells & ~np.isnan(log_gamma))

    # per label, summed in state order from +0.0
    sigma = np.bincount(lattice.labels.reshape(-1), gamma.reshape(-1), lp.size).reshape(lp.shape)
    np.divide(sigma, sigma.sum(axis=2, keepdims=True), out=sigma, where=lattice.real)
    grad = np.subtract(np.exp(lp), sigma, out=np.zeros_like(lp), where=lattice.real)
    if fwd.single:
        return sigma[0], grad[0]
    return sigma, grad


def ctc_forward_backward(u, y) -> ForwardBackward:
    """Both halves of the DP on one T x K instance with target ``y`` (or
    on a B x T x K stack with its B targets, every frame real): the
    recursion forward and on the reversed lattice, then the posterior and
    the gradient."""
    fwd = _forward_pass(u, y, None)
    return ForwardBackward(fwd.nll(), *_backward_pass(fwd))


def ctc_loss_dp(u, y, frames=None) -> Tensor:
    """CTC negative log-likelihood via forward recursion: a scalar for one
    T x K instance with target ``y``, or one loss per item of a B x T x K
    stack of instances padded in time, with ``y`` their B targets and
    ``frames`` their integer frame counts (default: all T; a float or a
    bool is refused, not truncated or read as 0 or 1).  Only an item's own
    frames are read: padded rows may hold anything, and their gradient
    rows are zero.  A single instance is a stack of one, returned without
    the stack axis.

    Differentiable: the backward rule is the analytic gradient
    softmax(u) - sigma, where sigma is the alignment posterior, scaled per
    item by the incoming gradient.  Only the rule runs the backward half
    of the DP, so a loss that is never differentiated costs the forward
    half alone.
    """
    fwd = _forward_pass(u, y, frames)

    def bwd(g):
        return (g[..., None, None] * _backward_pass(fwd)[1],)

    return custom_op(fwd.nll(), (as_tensor(u),), bwd)


def ctc_bruteforce(u, y) -> tuple[float, np.ndarray]:
    """The enumeration oracle from one scoring of the paths: -log of the
    summed path probabilities, and the path-weighted label frequencies
    (the oracle for the DP's posterior)."""
    data, paths, logw = scored_paths(u, y)
    total = _logsumexp(list(logw))
    w = np.exp(logw - total)
    sigma = np.zeros_like(data)
    for weight, z in zip(w, paths):
        for t, k in enumerate(z):
            sigma[t, k] += weight
    sigma /= sigma.sum(axis=1, keepdims=True)
    return -total, sigma


def greedy_decode(u) -> tuple[int, ...]:
    """Per-frame argmax then collapse, as Python ints; ties go to the
    lowest label index."""
    data = _as_logits(u)
    return collapse(np.argmax(data, axis=1).tolist())
