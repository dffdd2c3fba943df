"""The combined training objective and its optimizer.

Three terms are summed every step: the student's own sequence loss on the
source, the teacher's sequence loss given source plus (masked) target, and
a distillation bridge between the two output distributions, weighted by
``alpha``.  The teacher is recomputed from the live parameters at every
step; nothing is cached across steps.

One per-example function builds all three terms from one source encoding.
``loss_total`` averages them over the batch; ``loss_org``, ``loss_em`` and
``loss_kd`` are views of it, the first with the teacher off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tt
from .ctc import ctc_loss_dp, kd_loss_ctc, kl_rows
from .errors import ContractError, TrainingAbort
from .models import MASK, CtcModel
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


@dataclass(frozen=True)
class MaskedTarget:
    """A target with some tokens replaced by MASK."""

    tokens: tuple[int, ...]
    mask_positions: tuple[int, ...]


def mask_target(y, lambda_mask: float, rng: np.random.Generator) -> MaskedTarget:
    """Independently replace each token by MASK with probability lambda."""
    if not 0.0 <= lambda_mask <= 1.0:
        raise ContractError("lambda_mask must lie in [0, 1]")
    y = tuple(int(t) for t in y)
    draws = rng.random(len(y))
    masked = tuple(MASK if d < lambda_mask else t for t, d in zip(y, draws))
    positions = tuple(i for i, t in enumerate(masked) if t == MASK)
    return MaskedTarget(masked, positions)


@dataclass
class LossBreakdown:
    l_org: float
    l_em: float
    l_kd: float
    l_total: float


@dataclass
class StepOutputs:
    """Everything a training step produced, for logging and diagnostics.

    ``terms`` holds the graph tensors (l_org, l_em, l_kd) that ``total``
    sums; l_em and l_kd are None with the teacher off.  The logits arrays
    are the graph's own node outputs, shared rather than copied: nothing
    writes to them.
    """

    total: Tensor
    breakdown: LossBreakdown
    terms: tuple
    student_logits: list[np.ndarray]
    teacher_logits: list
    masked_targets: list


def _xy(item):
    if hasattr(item, "x"):
        return item.x, item.y
    x, y = item
    return x, y


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean over positions of -log softmax probability of the target id."""
    picked = tt.pick(tt.log_softmax(logits, axis=-1), list(targets))
    return tt.scale(tt.sum_all(picked), -1.0 / len(list(targets)))


def _mean_of(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = tt.add(acc, t)
    return tt.scale(acc, 1.0 / len(terms))


def _sequence_loss(model, logits: Tensor, y) -> Tensor:
    """CTC loss of frame logits, or cross-entropy of teacher-forced logits
    against the target followed by the end symbol."""
    if isinstance(model, CtcModel):
        return ctc_loss_dp(logits, y, model.vocab)
    return cross_entropy(logits, list(y) + [model.eos])


def _kd_item_loss(model, config, u_student: Tensor, u_teacher: Tensor) -> Tensor:
    if isinstance(model, CtcModel):
        p_s = tt.softmax(u_student, axis=-1)
        p_t = tt.softmax(u_teacher, axis=-1)
        if config.stop_teacher_grad:
            p_t = p_t.detach()
        return kd_loss_ctc(p_s, p_t, config.kd_form)
    inv_t = 1.0 / config.temperature
    p_s = tt.softmax(tt.scale(u_student, inv_t), axis=-1)
    p_t = tt.softmax(tt.scale(u_teacher, inv_t), axis=-1)
    if config.stop_teacher_grad:
        p_t = p_t.detach()
    return kl_rows(p_t, p_s)


def _example_terms(model, x, y, config: TrainConfig, rng):
    """One example's ``(org, em, kd)`` loss tensors from one ``encode``
    call, then its student logits, teacher logits and masked target.

    With the teacher off, em, kd and the teacher logits are None; the
    masked target is None also for CTC, whose teacher sees all of ``y``.
    """
    encoded = model.encode(x)
    ctc = isinstance(model, CtcModel)
    u_s = model.student_head(encoded) if ctc else model.student_head(encoded, y)
    org = _sequence_loss(model, u_s, y)
    if not config.use_teacher:
        return (org, None, None), u_s, None, None
    masked = None
    if ctc:
        u_t = model.teacher_logits(encoded, y)
    else:
        masked = mask_target(y, config.lambda_mask, rng)
        u_t = model.teacher_logits(encoded, y, masked.tokens)
    em = _sequence_loss(model, u_t, y)
    return (org, em, _kd_item_loss(model, config, u_s, u_t)), u_s, u_t, masked


def loss_total(model, batch, config: TrainConfig, rng: np.random.Generator) -> StepOutputs:
    """All three loss terms from one shared encoder pass per example.

    The breakdown satisfies l_total = l_org + l_em + alpha * l_kd exactly,
    because the total is assembled from the same scalars.
    """
    batch = list(batch)
    if not batch:
        raise ContractError("empty batch")
    per_example = []
    for item in batch:
        x, y = _xy(item)
        per_example.append(_example_terms(model, x, tuple(int(t) for t in y), config, rng))
    orgs, ems, kds = zip(*(terms for terms, *_ in per_example))

    l_org = _mean_of(orgs)
    if config.use_teacher:
        l_em = _mean_of(ems)
        l_kd = _mean_of(kds)
        total = tt.add(tt.add(l_org, l_em), tt.scale(l_kd, config.alpha))
        breakdown = LossBreakdown(l_org.item(), l_em.item(), l_kd.item(), total.item())
    else:
        l_em = l_kd = None
        total = l_org
        breakdown = LossBreakdown(l_org.item(), 0.0, 0.0, total.item())
    return StepOutputs(
        total=total,
        breakdown=breakdown,
        terms=(l_org, l_em, l_kd),
        student_logits=[u_s.data for _, u_s, _, _ in per_example],
        teacher_logits=[None if u_t is None else u_t.data for _, _, u_t, _ in per_example],
        masked_targets=[masked for *_, masked in per_example],
    )


def loss_org(model, batch) -> Tensor:
    """Mean original sequence loss over the batch, student parameters only:
    ``loss_total`` with the teacher off."""
    return loss_total(model, batch, TrainConfig(use_teacher=False), None).total


def loss_em(model, batch, config: TrainConfig, rng: np.random.Generator) -> Tensor:
    """Mean teacher-mode sequence loss given source and (masked) target,
    whether or not ``config`` turns the teacher on."""
    return loss_total(model, batch, replace(config, use_teacher=True), rng).terms[1]


def loss_kd(model, batch, config: TrainConfig, rng: np.random.Generator) -> Tensor:
    """Mean distillation loss; gradients reach both student and teacher
    unless ``stop_teacher_grad`` is set."""
    return loss_total(model, batch, replace(config, use_teacher=True), rng).terms[2]


class Adam:
    """Adaptive-moment optimizer with linear warmup then a constant rate."""

    def __init__(self, params, lr: float, warmup_steps: int = 0,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def rate(self) -> float:
        if self.warmup_steps > 0:
            return self.lr * min(1.0, self.t / self.warmup_steps)
        return self.lr

    def step(self) -> None:
        """Update every parameter, or, on a non-finite gradient, nothing:
        all gradients are checked before any parameter, moment or ``t``
        changes."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise TrainingAbort(
                    f"non-finite gradient for parameter {i} of shape {g.shape}; aborting the run"
                )
        self.t += 1
        lr_t = self.rate()
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= lr_t * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()
