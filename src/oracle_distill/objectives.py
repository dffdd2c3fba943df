"""The combined training objective and its optimizer.

Three terms are summed every step: the student's own sequence loss on the
source, the teacher's sequence loss given source plus (masked) target, and
a distillation bridge between the two output distributions, weighted by
``alpha``.  The teacher is recomputed from the live parameters at every
step; nothing is cached across steps.

``loss_total`` builds all three terms of a batch as one graph, from one
encoder pass over the batch's padded sources (a :class:`tasks.Batch`).
Each term is the mean over the items of a per-item loss: a sequence's
rows are weighted 1/len on its real positions and 0 on padding.  The CTC
terms run the DP once per item on that item's unpadded frames.
``loss_org``, ``loss_em`` and ``loss_kd`` are views of ``loss_total``, the
first with the teacher off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tt
from .ctc import ctc_loss_dp, kd_loss_ctc, kl_rows
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
    sums; l_em and l_kd are None with the teacher off.  The logits are one
    array per item, in batch order: views of the unpadded rows of the
    graph's own padded node outputs, shared rather than copied, since
    nothing writes to them.
    """

    total: Tensor
    breakdown: LossBreakdown
    terms: tuple
    student_logits: list[np.ndarray]
    teacher_logits: list
    masked_targets: list


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """-log softmax probability of the target ids, summed over the
    positions with ``weights`` (shaped like ``targets``)."""
    picked = tt.pick(tt.log_softmax(logits, axis=-1), targets)
    return tt.sum_all(tt.scale(picked, -np.asarray(weights, dtype=np.float64)))


def _sequence_loss(model, logits: Tensor, batch: Batch, rows: np.ndarray, weights) -> Tensor:
    """Mean over the items of the CTC loss of their unpadded frame logits,
    or of the cross-entropy of teacher-forced logits against the target
    followed by the end symbol (row weights ``weights``)."""
    if isinstance(model, CtcModel):
        return tt.mean(tt.stack([
            ctc_loss_dp(tt.index(logits, (i, slice(0, n))), y, model.vocab)
            for i, (n, y) in enumerate(zip(rows, batch.targets))
        ]))
    ids = np.zeros(logits.shape[:-1], dtype=np.int64)
    for i, y in enumerate(batch.targets):
        ids[i, : len(y) + 1] = (*y, model.eos)
    return cross_entropy(logits, ids, weights)


def _kd_loss(model, config, u_student: Tensor, u_teacher: Tensor, weights) -> Tensor:
    if isinstance(model, CtcModel):
        p_s = tt.softmax(u_student, axis=-1)
        p_t = tt.softmax(u_teacher, axis=-1)
        if config.stop_teacher_grad:
            p_t = p_t.detach()
        return kd_loss_ctc(p_s, p_t, config.kd_form, weights)
    inv_t = 1.0 / config.temperature
    p_s = tt.softmax(tt.scale(u_student, inv_t), axis=-1)
    p_t = tt.softmax(tt.scale(u_teacher, inv_t), axis=-1)
    if config.stop_teacher_grad:
        p_t = p_t.detach()
    return kl_rows(p_t, p_s, weights)


def loss_total(model, batch, config: TrainConfig, rng: np.random.Generator) -> StepOutputs:
    """All three loss terms of a batch as one graph, from one shared
    encoder pass.

    ``batch`` is a :class:`tasks.Batch`, or the examples or (source,
    target) pairs to build one from.  The masks of the encoder-decoder
    teacher are drawn per item, in batch order, from ``rng``.  The
    breakdown satisfies l_total = l_org + l_em + alpha * l_kd exactly,
    because the total is assembled from the same scalars.
    """
    if not isinstance(batch, Batch):
        batch = Batch(batch)
    ctc = isinstance(model, CtcModel)
    lengths, y_ids, y_lengths = batch.lengths, batch.target_ids, batch.target_lengths
    encoded = model.encode(batch.features if ctc else batch.src_tokens, lengths)
    if ctc:
        u_s = model.student_head(encoded)
        rows = lengths
    else:
        u_s = model.student_head(encoded, y_ids, lengths, y_lengths)
        rows = y_lengths + 1
    # each item's real rows weigh 1/len, padding 0, and the items 1/B
    valid = np.arange(u_s.shape[-2]) < rows[:, None]
    weights = np.where(valid, 1.0 / rows[:, None], 0.0) / len(batch)
    l_org = _sequence_loss(model, u_s, batch, rows, weights)
    if config.use_teacher:
        masked = [None] * len(batch)  # the CTC teacher sees all of y
        if ctc:
            u_t = model.teacher_logits(encoded, y_ids, lengths=lengths, target_lengths=y_lengths)
        else:
            masked = [mask_target(y, config.lambda_mask, rng) for y in batch.targets]
            masked_ids = y_ids.copy()
            for i, m in enumerate(masked):
                masked_ids[i, : len(m.tokens)] = m.tokens
            u_t = model.teacher_logits(encoded, y_ids, masked_ids, lengths=lengths, target_lengths=y_lengths)
        l_em = _sequence_loss(model, u_t, batch, rows, weights)
        l_kd = _kd_loss(model, config, u_s, u_t, weights)
        total = tt.add(tt.add(l_org, l_em), tt.scale(l_kd, config.alpha))
        breakdown = LossBreakdown(l_org.item(), l_em.item(), l_kd.item(), total.item())
        teacher = [u_t.data[i, :n] for i, n in enumerate(rows)]
    else:
        l_em = l_kd = None
        total = l_org
        breakdown = LossBreakdown(l_org.item(), 0.0, 0.0, total.item())
        teacher, masked = [None] * len(batch), [None] * len(batch)
    return StepOutputs(
        total=total,
        breakdown=breakdown,
        terms=(l_org, l_em, l_kd),
        student_logits=[u_s.data[i, :n] for i, n in enumerate(rows)],
        teacher_logits=teacher,
        masked_targets=masked,
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
