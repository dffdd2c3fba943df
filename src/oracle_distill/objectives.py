"""The combined training objective and its optimizer.

Three terms are summed every step: the student's own sequence loss on the
source, the teacher's sequence loss given source plus (masked) target, and
a distillation bridge between the two output distributions, weighted by
``alpha``.  The teacher is recomputed from the live parameters at every
step; nothing is cached across steps.

``loss_total`` builds all three terms of a batch as one graph and
returns that graph alone: ``.total`` and ``.terms`` = (l_org, l_em,
l_kd), whose ``item()`` values are the loss columns of a metrics row.
It is ``loss_terms`` (fusion, both heads, the three terms and the total)
of two independent branches, each of which reads its own parameters:

- ``model.encode`` of the batch's padded sources (a :class:`tasks.Batch`);
- ``model.oracle_guidance`` of the teacher's view of the targets
  (``teacher_view``), None with the teacher off.

A branch whose inputs and parameters are unchanged gives the same bits,
so ``harness.full_gradient_report`` marks each parameter by the branches
that read it and, for a perturbed parameter, re-runs only those branches
and ``loss_terms``.

The terms are per task, each in one function: ``_ctc_terms`` (frame
posteriors against the whole target) and ``_aed_terms`` (tokens against a
masked target).  ``kd_loss`` is the l_kd of both tasks: L2 or KL by
``kd_form`` between the CTC frame posteriors, and KL between the
encoder-decoder's token posteriors at 1/temperature.  Each term is the
mean over the items of a per-item loss: a sequence's rows are weighted
1/len on its real positions and 0 on padding.  With
``use_teacher=False`` l_em and l_kd are None and ``.total`` is l_org.

The teacher sees all of y for CTC and y masked by ``mask_target`` for
the encoder-decoder.  ``teacher_targets`` decides this for a list of
targets, as the teacher-mode evaluation hands them over, and
``teacher_view`` for a batch in training: a CTC teacher reads the batch's
own padded ``target_ids``, and the encoder-decoder's masks come from
``teacher_targets``.

One optimizer updates the student (``seq.``) and the auxiliary
(``oracle.``, ``fusion.``, ``teacher_out.``) parameters together.
:class:`Adam` packs them, in the order given, into one flat parameter
vector and one flat gradient vector, which the tensors' ``.data`` and
``.grad`` are views of, and updates all of them with one fused sequence of
in-place vector operations, bit-identical to a per-tensor Adam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tt
from .ctc import ctc_loss_dp
from .errors import ContractError, ShapeError, TrainingAbort
from .models import MASK, CtcModel
from .tasks import Batch, padded_stack, token_tuple
from .tensor import Tensor, as_tensor

# probability floor inside logs for the KL distillation form
EPS_P = 1e-12


@dataclass
class TrainConfig:
    """Every knob of the optimization; the model's shape is a ModelConfig.

    ``use_teacher=False`` drops the teacher and distillation terms
    entirely, which is the plain baseline trained in the same harness.
    """

    alpha: float = 2.0
    lambda_mask: float = 0.5
    kd_form: str = "l2"
    stop_teacher_grad: bool = False
    temperature: float = 1.0
    use_teacher: bool = True
    seed: int = 0
    steps: int = 400
    batch_size: int = 8
    lr: float = 3e-3
    warmup_steps: int = 40

    def __post_init__(self):
        for name in ("alpha", "temperature", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ContractError("alpha must be nonnegative")
        if not 0.0 <= self.lambda_mask <= 1.0:
            raise ContractError("lambda_mask must lie in [0, 1]")
        if self.temperature <= 0:
            raise ContractError("temperature must be positive")
        if self.lr <= 0:
            raise ContractError("lr must be positive")
        if self.kd_form not in ("l2", "kl"):
            raise ContractError(f"unknown kd_form {self.kd_form!r}")
        for name in ("steps", "batch_size"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be positive")
        if self.warmup_steps < 0:
            raise ContractError("warmup_steps must be nonnegative")
        if self.seed < 0:
            raise ContractError("seed must be nonnegative")


def mask_target(y, lambda_mask: float, rng: np.random.Generator) -> tuple[int, ...]:
    """``y`` with each token independently replaced by MASK with
    probability lambda."""
    if not 0.0 <= lambda_mask <= 1.0:
        raise ContractError("lambda_mask must lie in [0, 1]")
    y = token_tuple(y, "a masked target")
    draws = rng.random(len(y))
    return tuple(MASK if d < lambda_mask else t for t, d in zip(y, draws))


def teacher_targets(model, targets, lambda_mask: float, rng: np.random.Generator) -> list:
    """The targets as the teacher sees them: unchanged for a CTC model,
    whose teacher reads all of y, and for the encoder-decoder
    ``mask_target`` of each item, drawn in order from ``rng``."""
    if isinstance(model, CtcModel):
        return list(targets)
    return [mask_target(y, lambda_mask, rng) for y in targets]


@dataclass
class StepOutputs:
    """The graph of a training step: ``total`` and the terms (l_org, l_em,
    l_kd) it sums; l_em and l_kd are None with the teacher off."""

    total: Tensor
    terms: tuple


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """-log softmax probability of the target ids, summed over the
    positions with ``weights`` (shaped like ``targets``)."""
    picked = tt.pick(tt.log_softmax(logits), targets)
    return tt.sum_all(tt.scale(picked, -np.asarray(weights, dtype=np.float64)))


def kd_loss(student_posterior: Tensor, teacher_posterior: Tensor, form: str, weights=None,
            stop_teacher_grad: bool = False) -> Tensor:
    """The distillation term l_kd between two posteriors, row by row.

    ``l2``: the squared Euclidean distance between posterior rows.
    ``kl``: KL(teacher || student) on rows floored at ``EPS_P`` and
    renormalized.  Both are the mean over the rows of a T x K matrix, or,
    with ``weights`` shaped like the posteriors without their last axis,
    the weighted sum over the rows of a padded stack.  Gradients flow into
    both arguments, unless ``stop_teacher_grad`` detaches the teacher's.
    """
    s, t = as_tensor(student_posterior), as_tensor(teacher_posterior)
    if stop_teacher_grad:
        t = t.detach()
    if s.shape != t.shape:
        raise ShapeError(f"kd posteriors {s.shape} vs {t.shape}")
    if s.data.ndim < 2:
        raise ShapeError("kd posteriors must be T x K")
    if weights is None:
        if s.data.ndim != 2:
            raise ShapeError(f"unweighted rows must form a T x K matrix, got {s.shape}")
        weights = np.full(s.shape[0], 1.0 / s.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != s.shape[:-1]:
        raise ShapeError(f"row weights {weights.shape} for rows {s.shape}")
    if form == "l2":
        d = tt.sub(s, t)
        entries = tt.mul(d, d)
    elif form == "kl":
        # rows floored at EPS_P and renormalized, so they stay exact
        # distributions; the teacher's first, so the tape records its nodes
        # before the student's
        renorm = 1.0 / (1.0 + s.shape[-1] * EPS_P)
        t = tt.scale(tt.add(t, EPS_P), renorm)
        s = tt.scale(tt.add(s, EPS_P), renorm)
        entries = tt.mul(t, tt.sub(tt.log(t), tt.log(s)))
    else:
        raise ContractError(f"unknown kd form {form!r}")
    return tt.sum_all(tt.scale(entries, weights[..., None]))


def _row_weights(rows, width: int) -> np.ndarray:
    """Each item's first ``rows`` rows of ``width`` weigh 1/rows, padding
    0, and the items 1/B."""
    valid = np.arange(width) < rows[:, None]
    return np.where(valid, 1.0 / rows[:, None], 0.0) / len(rows)


def _ctc_terms(model, encoded: Tensor, guidance, batch: Batch, config: TrainConfig) -> tuple:
    """(l_org, l_em, l_kd) of a CTC model.  One ``ctc_loss_dp`` call over
    the ``(2B, T, K)`` stack of the student's and the teacher's padded
    frame logits (the student's ``(B, T, K)`` alone with the teacher off)
    reads each item's own frames; l_org and l_em are the means of its two
    halves, and l_kd compares the frame posteriors in ``config.kd_form``."""
    lengths = batch.lengths
    u_s = model.student_head(encoded)
    if guidance is None:
        return tt.mean(ctc_loss_dp(u_s, batch.targets, lengths)), None, None
    u_t = model.teacher_logits(encoded, guidance, lengths=lengths, target_lengths=batch.target_lengths)
    n = len(batch)
    losses = ctc_loss_dp(tt.concat([u_s, u_t]), batch.targets * 2, np.concatenate([lengths, lengths]))
    l_org, l_em = tt.mean(tt.index(losses, slice(0, n))), tt.mean(tt.index(losses, slice(n, 2 * n)))
    weights = _row_weights(lengths, u_s.shape[-2])
    l_kd = kd_loss(tt.softmax(u_s), tt.softmax(u_t), config.kd_form, weights, config.stop_teacher_grad)
    return l_org, l_em, l_kd


def _aed_terms(model, encoded: Tensor, guidance, batch: Batch, config: TrainConfig) -> tuple:
    """(l_org, l_em, l_kd) of an encoder-decoder.  One teacher-forced
    decoder pass over the ``(2B, L, d)`` stack of the encoded sources and
    the fused memory (``AedModel.student_and_teacher_logits``, over the
    encoded sources alone with the teacher off) gives both heads' logits;
    l_org and l_em are their cross-entropies against the target followed
    by the end symbol, and l_kd the KL between their softmaxes at
    ``config.temperature``."""
    lengths, y_ids, y_lengths = batch.lengths, batch.target_ids, batch.target_lengths
    if guidance is None:
        u_s, u_t = model.student_head(encoded, y_ids, lengths, y_lengths), None
    else:
        u_s, u_t = model.student_and_teacher_logits(encoded, y_ids, guidance, lengths, y_lengths)
    # each target then the end symbol; padded cells, whatever they hold, read as 0
    ids = np.zeros(u_s.shape[:-1], dtype=np.int64)
    np.copyto(ids[:, :-1], y_ids, where=np.arange(y_ids.shape[1]) < y_lengths[:, None])
    ids[np.arange(len(batch)), y_lengths] = model.eos
    weights = _row_weights(y_lengths + 1, u_s.shape[-2])
    l_org = cross_entropy(u_s, ids, weights)
    if u_t is None:
        return l_org, None, None
    l_em = cross_entropy(u_t, ids, weights)
    inv_t = 1.0 / config.temperature
    u_s, u_t = tt.scale(u_s, inv_t), tt.scale(u_t, inv_t)
    return l_org, l_em, kd_loss(tt.softmax(u_s), tt.softmax(u_t), "kl", weights, config.stop_teacher_grad)


def teacher_view(model, batch: Batch, config: TrainConfig, rng: np.random.Generator):
    """The targets of ``batch`` as the teacher sees them
    (``teacher_targets``) as a padded stack and its lengths, the input of
    ``model.oracle_guidance``; None with the teacher off.  A CTC teacher
    sees the whole targets, the batch's own ``target_ids`` and
    ``target_lengths``; the encoder-decoder's masks are drawn per item, in
    batch order, from ``rng``."""
    if not config.use_teacher:
        return None
    if isinstance(model, CtcModel):
        return batch.target_ids, batch.target_lengths
    return padded_stack(teacher_targets(model, batch.targets, config.lambda_mask, rng), "targets")


def loss_terms(model, encoded: Tensor, guidance, batch: Batch, config: TrainConfig) -> StepOutputs:
    """The terms of ``batch`` from its encoding and the oracle guidance
    (None with the teacher off), the two branches of ``loss_total``, by
    ``_ctc_terms`` or ``_aed_terms``, and the total l_org + l_em + alpha *
    l_kd, assembled from the terms' own scalars, so the ``item()`` values
    of ``.total`` and ``.terms`` satisfy that sum exactly in float
    arithmetic."""
    terms = (_ctc_terms if isinstance(model, CtcModel) else _aed_terms)(model, encoded, guidance, batch, config)
    l_org, l_em, l_kd = terms
    total = l_org if l_em is None else tt.add(tt.add(l_org, l_em), tt.scale(l_kd, config.alpha))
    return StepOutputs(total=total, terms=terms)


def loss_total(model, batch, config: TrainConfig, rng: np.random.Generator) -> StepOutputs:
    """All three loss terms of a batch as one graph: the source encoding,
    the oracle guidance of ``teacher_view`` and ``loss_terms`` of both.

    ``batch`` is a :class:`tasks.Batch`, or the examples or (source,
    target) pairs to build one from.
    """
    if not isinstance(batch, Batch):
        batch = Batch(batch)
    encoded = model.encode(batch.sources, batch.lengths)
    seen = teacher_view(model, batch, config, rng)
    guidance = None if seen is None else model.oracle_guidance(*seen)
    return loss_terms(model, encoded, guidance, batch, config)


# Adam's moment decay rates and denominator floor (Kingma & Ba 2015)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adaptive-moment optimizer with linear warmup then a constant rate,
    over one flat buffer.

    Construction packs the given tensors, in the given order, into one
    float64 vector ``data``: each tensor's ``.data`` becomes a reshaped view
    of its slice, holding the same values bit for bit, and its ``.grad`` a
    view of the same slice of the flat ``grad`` (zeros where it was None).
    ``backward`` accumulates into those views, so the whole gradient is one
    vector, and the moments ``m`` and ``v`` are flat vectors of the same
    layout.  The tensors belong to this optimizer from then on: writing
    into ``.data`` in place is seen by the next step, but rebinding it, as
    packing the same tensors into a second optimizer does, makes ``step``
    refuse.
    """

    def __init__(self, params, lr: float, warmup_steps: int = 0):
        self.params = list(params)
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        n = sum(p.data.size for p in self.params)
        self.data = np.empty(n)
        self.grad = np.zeros(n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        # the update's in-place scratch, so a step allocates no n-sized array
        self._scratch = (np.empty(n), np.empty(n))
        self._views, self._grad_views = [], []
        offset = 0
        for p in self.params:
            shape, end = p.data.shape, offset + p.data.size
            view = self.data[offset:end].reshape(shape)
            view[...] = p.data
            p.data = view
            self._views.append(view)
            self._grad_views.append(self.grad[offset:end].reshape(shape))
            offset = end
        self._bind_grads()

    def rate(self) -> float:
        if self.warmup_steps > 0:
            return self.lr * min(1.0, self.t / self.warmup_steps)
        return self.lr

    def _bind_grads(self) -> None:
        """Copy into the flat gradient each ``.grad`` that is not its view
        (None as zeros), then bind it to its view."""
        for p, view in zip(self.params, self._grad_views):
            if p.grad is view:
                continue
            if p.grad is None:
                view.fill(0.0)
            else:
                view[...] = p.grad
            p.grad = view

    def step(self) -> None:
        """Update every parameter, or, on a non-finite gradient, nothing:
        the whole gradient is checked before any parameter, moment or ``t``
        changes.  A parameter whose ``.data`` was rebound is refused first.

        The update runs over the flat vectors with the per-element operation
        order of a per-tensor Adam, so its results are bit-identical to it:
        ``m*b1 + (1-b1)*g``, ``v*b2 + ((1-b2)*g)*g`` and
        ``(lr_t*m_hat) / (sqrt(v_hat) + eps)``.
        """
        for i, (p, view) in enumerate(zip(self.params, self._views)):
            if p.data is not view:
                raise ContractError(
                    f"parameter {i} of shape {view.shape} no longer holds its slice of this "
                    "optimizer's buffer: its .data was rebound or packed by another optimizer"
                )
        self._bind_grads()
        g = self.grad
        if not np.isfinite(g).all():
            for i, view in enumerate(self._grad_views):
                if not np.isfinite(view).all():
                    raise TrainingAbort(
                        f"non-finite gradient for parameter {i} of shape {view.shape}; aborting the run"
                    )
        self.t += 1
        lr_t = self.rate()
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v = self.m, self.v
        s, u = self._scratch
        m *= b1
        np.multiply(g, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v += s
        np.divide(v, 1 - b2 ** self.t, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        np.divide(m, 1 - b1 ** self.t, out=u)
        u *= lr_t
        u /= s
        self.data -= u

    def zero_grad(self) -> None:
        """Zero the flat gradient and bind every ``.grad`` to its view."""
        self.grad.fill(0.0)
        for p, view in zip(self.params, self._grad_views):
            p.grad = view
