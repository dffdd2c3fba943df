"""Numerical verification of the expectation-maximization reading of the
objective, plus the analysis dumps.

Everything here is exact: path distributions are computed by enumerating
the full alignment set, so the reported KL divergences, expected
log-likelihoods, and lower bounds are trustworthy to float precision.
The lower bound

    log P(y|x; student)  >=  sum_z w(z) * log( P_theta(z|x) / w(z) )

holds for any path distribution w by the concavity of log; here w is the
teacher's conditional path posterior.  Note the student path probability
inside the bound is NOT renormalized over the alignment set, while the
conditional KL reported alongside uses the renormalized form; the two
quantities differ by exactly the student log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctc import (
    Vocab,
    enumerate_alignments,
    path_log_probs,
    validated_inputs,
)
from .errors import ContractError, ShapeError
from .models import CtcModel
from .tensor import log_softmax_rows


@dataclass
class BoundReport:
    """One instance's likelihood, bound, and the pieces relating them.

    slack = log_likelihood_student - neg_kl_bound and equals the
    conditional KL, so it is nonnegative up to float noise.
    q_value = neg_kl_bound - teacher_entropy (the expected student path
    log-likelihood under the teacher posterior).
    """

    log_likelihood_student: float
    neg_kl_bound: float
    slack: float
    teacher_entropy: float
    conditional_kl: float
    q_value: float


def kl_discrete(p, q) -> float:
    """KL(p || q) for dense distributions over the same finite support."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    total = 0.0
    for pi, qi in zip(p.reshape(-1), q.reshape(-1)):
        if pi > 0.0:
            if qi <= 0.0:
                return math.inf
            total += pi * math.log(pi / qi)
    return float(total)


def _normalized(logw: np.ndarray) -> np.ndarray:
    m = logw.max()
    w = np.exp(logw - m)
    return w / w.sum()


def bound_report_from_logits(student_logits, teacher_logits, y) -> BoundReport:
    """Exact bound arithmetic over the enumerated alignment set; every
    field is a plain float.

    Both logit grids must be finite T x K matrices of one shape, K the
    blank and the labels (``ContractError`` / ``ShapeError`` otherwise),
    as for the DP.
    """
    student_logits, y = validated_inputs(student_logits, y)
    teacher_logits, _ = validated_inputs(teacher_logits, y)
    if teacher_logits.shape != student_logits.shape:
        raise ShapeError(f"teacher logits {teacher_logits.shape} vs student {student_logits.shape}")
    paths = enumerate_alignments(y, student_logits.shape[0], Vocab(student_logits.shape[1]))
    if not paths:
        raise ContractError("no feasible alignment for this instance")
    lp_student = path_log_probs(student_logits, paths)
    lp_teacher = path_log_probs(teacher_logits, paths)
    w = _normalized(lp_teacher)
    p_cond = _normalized(lp_student)

    m = lp_student.max()
    loglik = float(m + math.log(np.exp(lp_student - m).sum()))
    support = w > 0.0
    logw = np.where(support, np.log(np.where(support, w, 1.0)), 0.0)
    bound = float(np.sum(w * (lp_student - logw), where=support))
    entropy = -float(np.sum(w * logw, where=support))
    cond_kl = kl_discrete(w, p_cond)
    q_value = float(np.sum(w * lp_student, where=support))
    return BoundReport(
        log_likelihood_student=loglik,
        neg_kl_bound=bound,
        slack=loglik - bound,
        teacher_entropy=entropy,
        conditional_kl=cond_kl,
        q_value=q_value,
    )


def check_lower_bound(model: CtcModel, x, y) -> BoundReport:
    """Bound report for a frame-classifier model on one instance."""
    hidden = model.encode(x)
    u_s = model.student_head(hidden)
    u_t = model.teacher_logits(hidden, y)
    return bound_report_from_logits(u_s.data, u_t.data, y)


# ---------------------------------------------------------------------------
# analysis dumps
# ---------------------------------------------------------------------------


def frame_posteriors(model: CtcModel, x, y=None) -> dict[str, np.ndarray]:
    """Frame-level softmax grids; the teacher grid needs the target."""
    hidden = model.encode(x)
    grids = {"student": np.exp(log_softmax_rows(model.student_head(hidden).data))}
    if y is not None:
        u_t = model.teacher_logits(hidden, y)
        grids["teacher"] = np.exp(log_softmax_rows(u_t.data))
    return grids


def dump_alignment(model: CtcModel, x, y, path) -> None:
    """CSV of frame-wise label probabilities, student and teacher modes."""
    grids = frame_posteriors(model, x, y)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("frame,label,prob,mode\n")
        for mode, grid in grids.items():
            for t in range(grid.shape[0]):
                for k in range(grid.shape[1]):
                    fh.write(f"{t},{k},{float(grid[t, k])!r},{mode}\n")


def fusion_attention(model, x, y) -> list[np.ndarray]:
    """Cross-attention score matrices of the fusion module, one per layer.

    Rows are indexed by source positions, columns by target tokens; each
    row is a distribution.
    """
    capture: list[np.ndarray] = []
    model.fuse(model.encode(x), model.oracle_guidance(y), capture=capture)
    return capture


def dump_attention(model, x, y, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("frame,token,score,layer\n")
        for layer, mat in enumerate(fusion_attention(model, x, y)):
            for t in range(mat.shape[0]):
                for j in range(mat.shape[1]):
                    fh.write(f"{t},{j},{float(mat[t, j])!r},{layer}\n")


def repetition_ratio(predictions) -> float:
    """Consecutively repeated tokens over total tokens, pooled."""
    predictions = list(predictions)
    if not predictions:
        raise ContractError("empty prediction set")
    repeats = 0
    total = 0
    for seq in predictions:
        seq = list(seq)
        total += len(seq)
        repeats += sum(1 for a, b in zip(seq, seq[1:]) if a == b)
    if total == 0:
        raise ContractError("predictions contain no tokens")
    return repeats / total
