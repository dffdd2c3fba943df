"""Helpers that only the tests use: the ablations behind the paper's
structural reduction checks, the distillation-surrogate audit, and the
reader for the dataset files that ``gen-data`` writes."""

import numpy as np

from oracle_distill import tensor as T
from oracle_distill.ctc import kd_loss_ctc
from oracle_distill.diagnostics import bound_report_from_logits
from oracle_distill.errors import ContractError
from oracle_distill.models import CtcModel
from oracle_distill.tasks import Example
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
# audits
# ---------------------------------------------------------------------------


def kd_vs_q_gap(model: CtcModel, x, y) -> dict[str, float]:
    """Distance between the distillation surrogate and the exact
    negative expected log-likelihood it stands in for.  Reported, never
    asserted: the surrogate is an approximation by design."""
    hidden = model.encode(x)
    u_s = model.student_head(hidden).data
    u_t = model.teacher_logits(hidden, y).data
    report = bound_report_from_logits(u_s, u_t, y, model.vocab)
    l2 = kd_loss_ctc(
        T.softmax(Tensor(u_s), axis=-1), T.softmax(Tensor(u_t), axis=-1), "l2"
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
