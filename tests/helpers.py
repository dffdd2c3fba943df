"""Helpers that only the tests use: the ablations behind the paper's
structural reduction checks, the chains of single ops that the fused
attention and feed-forward ops are checked against, the per-tensor Adam
that the fused one is checked against, the one-instance CTC DP that the
stacked one is checked against, the path-by-path alignment scan that the
vectorised one is checked against, the token-by-token dataset generators
that the one-pass ones are checked against, the distillation-surrogate
audit, the recorders that read a training step's logits and masks from
the model calls it makes, and the reader for the dataset files that
``gen-data`` writes."""

import itertools
import math

import numpy as np
import pytest

from oracle_distill import tensor as T
from oracle_distill.ctc import (
    BLANK,
    collapse,
    kd_loss_ctc,
    log_softmax_rows,
    min_frames,
    validated_inputs,
)
from oracle_distill.diagnostics import bound_report_from_logits
from oracle_distill.errors import ContractError, InfeasibleTargetError
from oracle_distill.models import CtcModel
from oracle_distill.objectives import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from oracle_distill.tasks import (
    COINFLIP_PAIR,
    RESOLVABLE_PAIR,
    AedTaskSpec,
    Batch,
    CtcTaskSpec,
    Example,
    _split_of,
    cipher_table,
    feature_class,
    token_embeddings,
)
from oracle_distill.tensor import Tensor


def sum_sq(a: Tensor) -> Tensor:
    """Sum of the squared entries, from the package's own ops."""
    return T.sum_all(T.mul(a, a))


# ---------------------------------------------------------------------------
# ablation helpers used by the structural reduction checks
# ---------------------------------------------------------------------------


def zero_fusion(model) -> None:
    """Zero every fusion output projection so fuse() becomes the identity."""
    for i in range(model.cfg.fusion_layers):
        for name in (
            f"fusion.f{i}.self.wo",
            f"fusion.f{i}.cross.wo",
            f"fusion.f{i}.ffn.w2",
            f"fusion.f{i}.ffn.b2",
        ):
            t = model.store.peek(name)
            t.data[...] = 0.0


def zero_cross_attention(model) -> None:
    """Zero only the cross-attention output projection; fuse() then ignores
    the oracle guidance but keeps its self-attention and feed-forward parts."""
    for i in range(model.cfg.fusion_layers):
        t = model.store.peek(f"fusion.f{i}.cross.wo")
        t.data[...] = 0.0


def tie_teacher_head(model) -> None:
    """Copy the student head weights into the teacher head."""
    model.store.peek("teacher_out.w").data[...] = model.store.peek("seq.out.w").data
    model.store.peek("teacher_out.b").data[...] = model.store.peek("seq.out.b").data


# ---------------------------------------------------------------------------
# reference attention
# ---------------------------------------------------------------------------


def _split_heads(a: Tensor, heads: int) -> Tensor:
    """``(..., T, heads * dh)`` to ``(..., heads, T, dh)``, a view."""
    shape = a.data.shape
    out = a.data.reshape(*shape[:-1], heads, shape[-1] // heads).swapaxes(-3, -2)
    return T._node(out, (a,), lambda g: (g.swapaxes(-3, -2).reshape(shape),))


def _merge_heads(a: Tensor) -> Tensor:
    """``(..., heads, T, dh)`` to ``(..., T, heads * dh)``."""
    *lead, h, t, dh = a.data.shape
    out = a.data.swapaxes(-3, -2).reshape(*lead, t, h * dh)
    return T._node(out, (a,), lambda g: (g.reshape(*lead, t, h, dh).swapaxes(-3, -2),))


def _transpose(a: Tensor) -> Tensor:
    return T._node(a.data.swapaxes(-1, -2), (a,), lambda g: (g.swapaxes(-1, -2),))


def _masked_softmax(a: Tensor, mask) -> Tensor:
    """Softmax over the last axis of ``a + mask``."""
    x = a.data if mask is None else a.data + mask
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return T._node(out, (a,), lambda g: (out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def reference_attention(x: Tensor, memory: Tensor, wq, wk, wv, wo, heads: int, mask=None):
    """An attention sublayer as the chain of single-op nodes that
    ``tensor.project_heads`` and ``tensor.attention`` replace: the oracle
    they must match bit for bit, forward and backward.

    Queries are ``x`` projected by ``wq``, keys and values ``memory`` by
    ``wk`` and ``wv`` (in that order), each split into heads; then
    ``transpose``, ``matmul``, ``scale``, the masked softmax, ``matmul``
    with the values, the head merge and the output ``matmul``.  Returns the
    output and the attention weights."""
    q, k, v = (_split_heads(T.matmul(src, w), heads) for src, w in ((x, wq), (memory, wk), (memory, wv)))
    scores = T.scale(T.matmul(q, _transpose(k)), 1.0 / math.sqrt(q.shape[-1]))
    weights = _masked_softmax(scores, mask)
    return T.matmul(_merge_heads(T.matmul(weights, v)), wo), weights.data


# ---------------------------------------------------------------------------
# reference feed-forward
# ---------------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)`` elementwise; its rule passes ``g`` where ``a > 0``."""
    a = T.as_tensor(a)
    mask = a.data > 0.0
    return T._node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def reference_feed_forward(x: Tensor, w1, b1, w2, b2) -> Tensor:
    """A feed-forward sublayer as the chain of single-op nodes that
    ``tensor.feed_forward`` replaces: ``matmul``, ``add``, ``relu``,
    ``matmul``, ``add``, the oracle it must match bit for bit, forward
    and backward."""
    return T.add(T.matmul(relu(T.add(T.matmul(x, w1), b1)), w2), b2)


# ---------------------------------------------------------------------------
# reference optimizer
# ---------------------------------------------------------------------------


class ReferenceAdam:
    """Adam one tensor at a time, with its own moment arrays per tensor:
    the oracle that ``objectives.Adam``'s fused step must match bit for
    bit on finite gradients.  It leaves ``.data`` and ``.grad`` where they
    are."""

    def __init__(self, params, lr: float, warmup_steps: int = 0):
        self.params = list(params)
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def rate(self) -> float:
        if self.warmup_steps > 0:
            return self.lr * min(1.0, self.t / self.warmup_steps)
        return self.lr

    def step(self) -> None:
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        self.t += 1
        lr_t = self.rate()
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, g, m, v in zip(self.params, grads, self._m, self._v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= lr_t * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


# ---------------------------------------------------------------------------
# reference CTC DP
# ---------------------------------------------------------------------------


def _reference_forward(lp_ext: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Forward log-variables over one T x S blank-extended lattice."""
    n_frames, n_states = lp_ext.shape
    alpha = np.full((n_frames, n_states + 2), -np.inf)
    alpha[0, 2:4] = lp_ext[0, :2]
    skip_add = np.where(skip, 0.0, -np.inf)
    for t in range(1, n_frames):
        prev = alpha[t - 1]
        stay_or_step = np.logaddexp(prev[2:], prev[1:-1])
        alpha[t, 2:] = np.logaddexp(stay_or_step, prev[:-2] + skip_add) + lp_ext[t]
    return alpha[:, 2:]


def _reference_skip(ext: np.ndarray) -> np.ndarray:
    skip = np.zeros(ext.size, dtype=bool)
    skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    return skip


def reference_ctc_dp(u, y) -> tuple[float, np.ndarray, np.ndarray]:
    """The CTC DP one instance at a time, the oracle that the stacked
    ``ctc.ctc_forward_backward`` must match bit for bit, item by item:
    (negative log-likelihood, alignment posterior, softmax(u) - posterior),
    with beta as the forward pass on the time- and state-reversed lattice."""
    data, y = validated_inputs(u, y)
    if data.shape[0] < min_frames(y):
        raise InfeasibleTargetError("too few frames for the target")
    lp = log_softmax_rows(data)
    ext = np.full(2 * len(y) + 1, BLANK, dtype=np.int64)
    ext[1::2] = y
    lp_ext = lp[:, ext]
    alpha = _reference_forward(lp_ext, _reference_skip(ext))
    loglik = np.logaddexp(alpha[-1, -1], alpha[-1, -2])
    if loglik == -np.inf:
        raise InfeasibleTargetError("target cannot be aligned to the given frames")
    beta = _reference_forward(lp_ext[::-1, ::-1], _reference_skip(ext[::-1]))[::-1, ::-1]
    with np.errstate(invalid="ignore"):
        log_gamma = alpha + beta - lp_ext - loglik
    log_gamma[np.isnan(log_gamma)] = -np.inf
    gamma = np.exp(log_gamma)
    sigma = np.zeros_like(lp)
    np.add.at(sigma, (slice(None), ext), gamma)
    sigma /= sigma.sum(axis=1, keepdims=True)
    return -float(loglik), sigma, np.exp(lp) - sigma


# ---------------------------------------------------------------------------
# reference alignment scan
# ---------------------------------------------------------------------------


def reference_alignments(y, n_frames: int, vocab) -> list[tuple[int, ...]]:
    """Every raw path collapsed one at a time, in ``itertools.product``
    order: the oracle that ``ctc.enumerate_alignments`` must match list
    for list, in order."""
    y = tuple(int(t) for t in y)
    return [
        z
        for z in itertools.product(range(vocab.size), repeat=n_frames)
        if collapse(z) == y
    ]


# ---------------------------------------------------------------------------
# reference dataset generators
# ---------------------------------------------------------------------------


def _resolve_member(spec: CtcTaskSpec, prev_label: int) -> int:
    # deterministic function of the previous token's observable class
    return RESOLVABLE_PAIR[feature_class(spec, prev_label) % 2]


def _sample_ctc_target(spec: CtcTaskSpec, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw a target with no two adjacent tokens in the same feature class,
    building the label lists afresh for each token."""
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


def reference_ctc_dataset(spec: CtcTaskSpec, n: int) -> list[Example]:
    """``tasks.gen_ctc_dataset`` token by token: each token's frames are a
    block of their own, with their own noise draw."""
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


def reference_apply_rule(x: tuple[int, ...], spec: AedTaskSpec) -> tuple[int, ...]:
    """``tasks.apply_rule``, building the cipher table on every call."""
    if spec.rule == "reverse":
        return tuple(reversed(x))
    if spec.rule == "sort":
        return tuple(sorted(x))
    return tuple(cipher_table(spec)[t] for t in x)


def reference_aed_dataset(spec: AedTaskSpec, n: int) -> list[Example]:
    """``tasks.gen_aed_dataset`` token by token: one cipher table and one
    copy-noise draw per source token."""
    if n < 1:
        raise ContractError("need at least one example")
    rng = np.random.default_rng(spec.seed)
    examples = []
    for _ in range(n):
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        x = tuple(int(v) for v in rng.integers(1, spec.vocab_size + 1, size=length))
        y = list(reference_apply_rule(x, spec))
        for i in range(length):
            if rng.random() < spec.copy_noise:
                y[i] = x[i]
        key = " ".join(map(str, x))
        examples.append(Example(x=x, y=tuple(y), split=_split_of(key, spec.seed)))
    return examples


# ---------------------------------------------------------------------------
# a step's logits, read from the model calls it makes
# ---------------------------------------------------------------------------


def record_calls(monkeypatch, obj, name) -> list:
    """Wrap the method ``name`` of ``obj`` so that each call appends
    ``(args, result)`` to the list returned."""
    calls = []
    method = getattr(obj, name)

    def recorded(*args, **kwargs):
        result = method(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(obj, name, recorded)
    return calls


def head_logits(model, batch, step):
    """``step()``, a ``loss_total`` call over ``batch``, and the student's
    and the teacher's logits of the head calls it made (the last of each),
    cut to one array of real rows per item: ``(result, student, teacher)``,
    the teacher None when no teacher head ran."""
    batch = batch if isinstance(batch, Batch) else Batch(batch)
    with pytest.MonkeyPatch.context() as mp:
        calls = {name: record_calls(mp, model, name) if hasattr(model, name) else []
                 for name in ("student_head", "teacher_logits", "student_and_teacher_logits")}
        result = step()
    if calls["student_and_teacher_logits"]:
        u_s, u_t = calls["student_and_teacher_logits"][-1][1]
    else:
        u_s = calls["student_head"][-1][1]
        u_t = calls["teacher_logits"][-1][1] if calls["teacher_logits"] else None
    rows = batch.lengths if isinstance(model, CtcModel) else batch.target_lengths + 1

    def cut(u):
        return None if u is None else [u.data[i, :n] for i, n in enumerate(rows)]

    return result, cut(u_s), cut(u_t)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def kd_vs_q_gap(model: CtcModel, x, y) -> dict[str, float]:
    """Distance between the distillation surrogate and the exact
    negative expected log-likelihood it stands in for.  Reported, never
    asserted: the surrogate is an approximation by design."""
    hidden = model.encode(x)
    u_s = model.student_head(hidden).data
    u_t = model.teacher_logits(hidden, y).data
    report = bound_report_from_logits(u_s, u_t, y)
    l2 = kd_loss_ctc(
        T.softmax(Tensor(u_s)), T.softmax(Tensor(u_t)), "l2"
    ).item()
    return {"kd_l2": l2, "neg_q": -report.q_value, "gap": abs(l2 - (-report.q_value))}


def import_dataset(path) -> tuple[str, list[Example]]:
    """The task and the examples of a file written by ``tasks.export_dataset``."""
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
