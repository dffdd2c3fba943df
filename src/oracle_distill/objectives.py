"""The combined training objective and its optimizer.

Three terms are summed every step: the student's own sequence loss on the
source, the teacher's sequence loss given source plus (masked) target, and
a distillation bridge between the two output distributions, weighted by
``alpha``.  The teacher is recomputed from the live parameters at every
step; nothing is cached across steps.

``loss_total`` builds all three terms of a batch as one graph, from one
encoder pass over the batch's padded sources (a :class:`tasks.Batch`),
and returns that graph alone: ``.total`` and ``.terms`` = (l_org, l_em,
l_kd), whose ``item()`` values are the loss columns of a metrics row.
Each term is the mean over the items of a per-item loss: a sequence's
rows are weighted 1/len on its real positions and 0 on padding.  The two
CTC terms share one DP call over the stack of the student's and the
teacher's padded frame logits, which reads each item's own frames only;
l_org and l_em are the means of its two halves.  With
``use_teacher=False`` l_em and l_kd are None and ``.total`` is l_org.

``teacher_targets`` alone decides what the teacher sees of a target, in
training and in the teacher-mode evaluation: all of y for CTC, y masked
by ``mask_target`` for the encoder-decoder.

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
from .ctc import ctc_loss_dp, kd_loss_ctc
from .errors import ContractError, TrainingAbort
from .models import MASK, CtcModel
from .tasks import Batch
from .tensor import Tensor


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
    y = tuple(int(t) for t in y)
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


def _sequence_losses(model, u_s: Tensor, u_t, batch: Batch, weights) -> tuple:
    """l_org and l_em (None without the teacher's logits ``u_t``).

    CTC: one DP call over the stack of the student's and the teacher's
    padded frame logits, which reads each item's own frames; each term is
    the mean of its half of the per-item losses.  Encoder-decoder: the
    cross-entropy of each side's teacher-forced logits against the target
    followed by the end symbol (row weights ``weights``).
    """
    n = len(batch)
    if isinstance(model, CtcModel):
        if u_t is None:
            return tt.mean(ctc_loss_dp(u_s, batch.targets, batch.lengths)), None
        losses = ctc_loss_dp(tt.concat([u_s, u_t]), batch.targets * 2,
                             np.concatenate([batch.lengths, batch.lengths]))
        return tt.mean(tt.index(losses, slice(0, n))), tt.mean(tt.index(losses, slice(n, 2 * n)))
    # each target then the end symbol; padded cells, whatever they hold, read as 0
    y_ids, y_lengths = batch.target_ids, batch.target_lengths
    ids = np.zeros(u_s.shape[:-1], dtype=np.int64)
    np.copyto(ids[:, :-1], y_ids, where=np.arange(y_ids.shape[1]) < y_lengths[:, None])
    ids[np.arange(n), y_lengths] = model.eos
    l_org = cross_entropy(u_s, ids, weights)
    return l_org, None if u_t is None else cross_entropy(u_t, ids, weights)


def _kd_loss(model, config, u_student: Tensor, u_teacher: Tensor, weights) -> Tensor:
    """``kd_loss_ctc`` between the two softmaxes: of the frame logits in
    ``config.kd_form`` for CTC, of the logits over ``config.temperature``
    in the "kl" form for the encoder-decoder."""
    form = config.kd_form
    if not isinstance(model, CtcModel):
        form, inv_t = "kl", 1.0 / config.temperature
        u_student, u_teacher = tt.scale(u_student, inv_t), tt.scale(u_teacher, inv_t)
    p_s, p_t = tt.softmax(u_student), tt.softmax(u_teacher)
    if config.stop_teacher_grad:
        p_t = p_t.detach()
    return kd_loss_ctc(p_s, p_t, form, weights)


def loss_total(model, batch, config: TrainConfig, rng: np.random.Generator) -> StepOutputs:
    """All three loss terms of a batch as one graph, from one shared
    encoder pass.

    ``batch`` is a :class:`tasks.Batch`, or the examples or (source,
    target) pairs to build one from.  The teacher sees each target as
    ``teacher_targets`` gives it, so the encoder-decoder's masks are drawn
    per item, in batch order, from ``rng``.  The total is l_org + l_em +
    alpha * l_kd, assembled from the terms' own scalars, so the ``item()``
    values of ``.total`` and ``.terms`` satisfy that sum exactly in float
    arithmetic.  For CTC, l_org and l_em come from one ``ctc_loss_dp``
    call over the ``(2B, T, K)`` stack of student and teacher logits
    (``(B, T, K)``, the student's alone, with the teacher off).  For the
    encoder-decoder, the student and the teacher logits come from one
    teacher-forced decoder pass over the ``(2B, L, d)`` stack of the
    encoded sources and the fused memory
    (``AedModel.student_and_teacher_logits``), each head reading its own
    B rows; with the teacher off the pass is over the encoded sources
    alone.
    """
    if not isinstance(batch, Batch):
        batch = Batch(batch)
    lengths, y_ids, y_lengths = batch.lengths, batch.target_ids, batch.target_lengths
    encoded = model.encode(batch.sources, lengths)
    u_t = None
    if config.use_teacher:
        # the teacher's view of each target, padded like y_ids
        seen_ids = y_ids.copy()
        for i, seen in enumerate(teacher_targets(model, batch.targets, config.lambda_mask, rng)):
            seen_ids[i, : len(seen)] = seen
    if isinstance(model, CtcModel):
        rows = lengths
        u_s = model.student_head(encoded)
        if config.use_teacher:
            u_t = model.teacher_logits(encoded, seen_ids, lengths=lengths, target_lengths=y_lengths)
    else:
        rows = y_lengths + 1
        if config.use_teacher:
            u_s, u_t = model.student_and_teacher_logits(encoded, y_ids, seen_ids, lengths, y_lengths)
        else:
            u_s = model.student_head(encoded, y_ids, lengths, y_lengths)
    # each item's real rows weigh 1/len, padding 0, and the items 1/B
    valid = np.arange(u_s.shape[-2]) < rows[:, None]
    weights = np.where(valid, 1.0 / rows[:, None], 0.0) / len(batch)
    l_org, l_em = _sequence_losses(model, u_s, u_t, batch, weights)
    if not config.use_teacher:
        return StepOutputs(total=l_org, terms=(l_org, None, None))
    l_kd = _kd_loss(model, config, u_s, u_t, weights)
    total = tt.add(tt.add(l_org, l_em), tt.scale(l_kd, config.alpha))
    return StepOutputs(total=total, terms=(l_org, l_em, l_kd))


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
