"""Training orchestration, evaluation, and the verification suites.

A run owns its output directory exclusively (lock file) and leaves behind
metrics.csv, a loss-curve SVG, periodic and final checkpoints, and a
timing.csv.  Everything in metrics.csv is deterministic for a fixed
config and seed; wall-clock timings live in their own file so reruns stay
byte-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import RunConfig, config_to_mapping
from .ctc import ctc_bruteforce, ctc_forward_backward, ctc_loss_dp, kd_loss_ctc, min_frames
from .diagnostics import BoundReport, check_lower_bound, bound_report_from_logits, repetition_ratio
from .errors import ContractError
from .metrics import exact_match_rate, token_error_rate
from .models import AUX_PREFIXES, CtcModel, ModelConfig, build_model, save_checkpoint
from .objectives import Adam, TrainConfig, loss_total, teacher_targets
from .tasks import Batch, batch_iter, gen_aed_dataset, gen_ctc_dataset, split_examples
from .tensor import Tensor, backward, finite_differences, grad_check
from . import tensor as tt

OUT_ROOT_ENV = "ORACLE_DISTILL_OUT"


@dataclass
class MetricsRecord:
    """One row of metrics.csv; the columns are the fields, in order."""

    step: int
    l_org: float
    l_em: float
    l_kd: float
    l_total: float
    ter_student: float | None = None
    ter_teacher: float | None = None
    rep_ratio: float | None = None

    def csv_row(self) -> str:
        step, *values = (getattr(self, f.name) for f in fields(self))
        return ",".join([str(step), *("" if v is None else repr(float(v)) for v in values)])


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRecord))


def parse_metrics_csv(path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ContractError(f"unexpected metrics header in {path}")
    rows = []
    for line in lines[1:]:
        step, *values = line.split(",")
        if len(values) != len(fields(MetricsRecord)) - 1:
            raise ContractError(f"metrics row {line!r} in {path} does not match the header")
        rows.append(MetricsRecord(int(step), *(float(v) if v else None for v in values)))
    return rows


def generate_dataset(cfg: RunConfig):
    cfg = cfg.resolved()
    spec = cfg.task_spec()
    if cfg.task == "ctc":
        return gen_ctc_dataset(spec, cfg.n_examples)
    return gen_aed_dataset(spec, cfg.n_examples)


# ---------------------------------------------------------------------------
# evaluation with access instrumentation
# ---------------------------------------------------------------------------


class _CountedTargets:
    """The examples' reference targets behind a read counter, to prove the
    student prediction phase never looks at them: ``.y`` is read only
    through ``get``."""

    def __init__(self, examples):
        self._examples = examples
        self.reads = 0

    def get(self, i):
        self.reads += 1
        return self._examples[i].y


def evaluate(model, examples, mode: str, train_cfg: TrainConfig, mask_seed: int = 0) -> dict:
    """TER, exact match, and repetition ratio for one split, whose
    predictions come from one ``predict`` or ``predict_teacher`` call over
    the whole split.

    ``student`` mode predicts from the sources alone and asserts that no
    auxiliary parameter and no target token was read while predicting; the
    targets are read only afterwards, as references.  ``teacher`` mode
    additionally consumes the targets (masked for the encoder-decoder task,
    each item's mask drawn in split order from one generator seeded by
    ``mask_seed``), as a diagnostic upper bound.
    """
    if mode not in ("student", "teacher"):
        raise ContractError(f"unknown eval mode {mode!r}")
    examples = list(examples)
    if not examples:
        raise ContractError("empty evaluation split")
    sources = [ex.x for ex in examples]
    counted = _CountedTargets(examples)

    model.store.reset_reads()
    if mode == "student":
        predictions = model.predict(sources)
        aux_reads = model.store.reads_with_prefix(*AUX_PREFIXES)
        target_reads = counted.reads
        if aux_reads or target_reads:
            raise ContractError(
                f"student evaluation touched {aux_reads} aux params, {target_reads} targets"
            )
    else:
        targets = [counted.get(i) for i in range(len(examples))]
        rng = np.random.default_rng(mask_seed)
        targets = teacher_targets(model, targets, train_cfg.lambda_mask, rng)
        predictions = model.predict_teacher(sources, targets)
        aux_reads = model.store.reads_with_prefix(*AUX_PREFIXES)
        target_reads = counted.reads

    references = [counted.get(i) for i in range(len(examples))]
    return {
        "ter": token_error_rate(predictions, references),
        "exact_match": exact_match_rate(predictions, references),
        "rep_ratio": repetition_ratio(predictions) if any(len(p) for p in predictions) else 0.0,
        "aux_param_reads_during_predict": aux_reads,
        "target_reads_during_predict": target_reads,
        "predictions": predictions,
    }


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: object
    records: list[MetricsRecord]
    out_dir: Path | None


def fit_loop(model, train_examples, train_cfg: TrainConfig, on_step=None) -> list[MetricsRecord]:
    """The bare optimization loop; file handling lives in train_run."""
    seq = np.random.SeedSequence(train_cfg.seed)
    shuffle_seed, mask_seed = seq.spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    mask_rng = np.random.default_rng(mask_seed)
    optimizer = Adam(model.store.tensors(), lr=train_cfg.lr, warmup_steps=train_cfg.warmup_steps)
    records = []
    step = 0
    while step < train_cfg.steps:
        for batch in batch_iter(train_examples, train_cfg.batch_size, shuffle_rng):
            step += 1
            out = loss_total(model, batch, train_cfg, mask_rng)
            optimizer.zero_grad()
            backward(out.total)
            optimizer.step()
            terms = (0.0 if t is None else t.item() for t in out.terms)
            record = MetricsRecord(step, *terms, out.total.item())
            records.append(record)
            if on_step is not None:
                on_step(step, record, model)
            if step >= train_cfg.steps:
                break
    return records


def _acquire_lock(out_dir: Path) -> Path:
    """Create ``.lock`` holding this process's pid.  An existing lock is
    reported with its holder's pid and whether that process still runs,
    and is never taken over: only a person can tell that it is safe."""
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ContractError(
            f"output directory {out_dir} is owned by another run ({_lock_holder(lock)})"
        ) from None
    with os.fdopen(fd, "w", encoding="ascii") as fh:
        fh.write(f"{os.getpid()}\n")
    return lock


def _lock_holder(lock: Path) -> str:
    try:
        pid = int(lock.read_text(encoding="ascii"))
    except (OSError, ValueError):
        pid = 0
    if pid < 1:
        return ".lock exists, holder unknown"
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the process exists
    except ProcessLookupError:
        return f".lock held by pid {pid}, which is not running: the lock is stale, remove it"
    except PermissionError:
        pass  # it exists, under another user
    return f".lock held by pid {pid}, which is still running"


def train_run(cfg: RunConfig, out_dir: Path, quiet: bool = True) -> TrainResult:
    """Full training run with metrics, checkpoints, plot, and locking."""
    cfg = cfg.resolved()
    t0 = time.monotonic()
    # every config view is checked, and the data and model built, before
    # anything is written, so a refused config leaves no directory behind
    dataset = generate_dataset(cfg)
    train_examples = split_examples(dataset, "train")
    dev_examples = split_examples(dataset, "dev")
    train_cfg = cfg.train_config()
    model = build_model(cfg.model_config(), seed=cfg.seed)
    run_kv = config_to_mapping(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = _acquire_lock(out_dir)
    timings: list[tuple[int, float]] = []
    try:
        collected: list[MetricsRecord] = []

        def on_step(step, record, model_):
            collected.append(record)
            final = step == cfg.steps
            if cfg.eval_every > 0 and (step % cfg.eval_every == 0 or final) and dev_examples:
                student = evaluate(model_, dev_examples, "student", train_cfg, mask_seed=cfg.seed)
                record.ter_student = student["ter"]
                record.rep_ratio = student["rep_ratio"]
                if train_cfg.use_teacher:
                    teacher = evaluate(model_, dev_examples, "teacher", train_cfg, mask_seed=cfg.seed)
                    record.ter_teacher = teacher["ter"]
                timings.append((step, time.monotonic() - t0))
                if not quiet:
                    print(
                        f"step {step}: l_total {record.l_total:.4f} "
                        f"dev ter {record.ter_student:.4f}"
                    )
            if cfg.checkpoint_every > 0 and (step % cfg.checkpoint_every == 0 or final):
                name = "checkpoint_final.txt" if final else f"checkpoint_{step:06d}.txt"
                save_checkpoint(model_, out_dir / name, run_config=run_kv)

        try:
            fit_loop(model, train_examples, train_cfg, on_step=on_step)
        finally:
            # on a NaN abort the rows so far and the periodic checkpoints
            # are retained
            _write_metrics(out_dir / "metrics.csv", collected)
            (out_dir / "loss_curve.svg").write_text(loss_curve_svg(collected))
            _write_timings(out_dir / "timing.csv", timings, time.monotonic() - t0)
        return TrainResult(model=model, records=collected, out_dir=out_dir)
    finally:
        lock.unlink(missing_ok=True)


def _write_metrics(path, records):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(r.csv_row() + "\n")


def _write_timings(path, timings, total):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("step,seconds\n")
        for step, sec in timings:
            fh.write(f"{step},{sec:.3f}\n")
        fh.write(f"total,{total:.3f}\n")


def loss_curve_svg(records) -> str:
    """Static 640 x 400 polyline plot of the three loss terms against the step."""
    width, height = 640, 400
    series = {
        "l_org": ([r.l_org for r in records], "#1f77b4"),
        "l_em": ([r.l_em for r in records], "#d62728"),
        "l_kd": ([r.l_kd for r in records], "#2ca02c"),
    }
    pad = 40
    n = max(1, len(records))
    all_vals = [v for vals, _ in series.values() for v in vals] or [0.0]
    v_lo, v_hi = min(all_vals), max(all_vals)
    if v_hi - v_lo < 1e-12:
        v_hi = v_lo + 1.0

    def sx(i):
        return pad + (width - 2 * pad) * (i / max(1, n - 1))

    def sy(v):
        return height - pad - (height - 2 * pad) * ((v - v_lo) / (v_hi - v_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" text-anchor="middle">step</text>',
        f'<text x="{pad}" y="{pad - 8}" font-size="12">loss</text>',
        f'<text x="{pad - 35}" y="{height - pad + 4}" font-size="10">{v_lo:.2f}</text>',
        f'<text x="{pad - 35}" y="{pad + 4}" font-size="10">{v_hi:.2f}</text>',
    ]
    for idx, (name, (vals, color)) in enumerate(series.items()):
        if not vals:
            continue
        points = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * idx}" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return [f"[{status}] {self.name}: {body}"]


def _random_ctc_instance(rng, max_t=8, max_l=4):
    k = int(rng.integers(2, 5))
    while True:
        l = int(rng.integers(1, max_l + 1))
        y = tuple(int(t) for t in rng.integers(1, k, size=l))
        if min_frames(y) <= max_t:
            break
    t = int(rng.integers(min_frames(y), max_t + 1))
    return rng.standard_normal((t, k)) * 2.0, y


def _check_instance_count(n_instances: int) -> None:
    # a suite over no instance would compare nothing and still pass
    if n_instances < 1:
        raise ContractError(f"a suite needs at least one instance, got {n_instances}")


def check_ctc_suite(n_instances: int = 100, seed: int = 0) -> SuiteReport:
    """Dynamic-programming loss and posterior against exhaustive
    enumeration on instances of up to 8 frames, 4 labels and 4 symbols:
    one DP run and one scoring of the enumerated paths per instance."""
    _check_instance_count(n_instances)
    rng = np.random.default_rng(seed)
    loss_devs, post_devs = [], []
    for _ in range(n_instances):
        u, y = _random_ctc_instance(rng)
        dp, post_dp, _ = ctc_forward_backward(u, y)
        bf, post_enum = ctc_bruteforce(u, y)
        loss_devs.append(abs(dp - bf))
        post_devs.append(np.abs(post_dp - post_enum).max())
    # np.max keeps a NaN where the builtin max would drop it and pass
    max_loss_dev, max_post_dev = float(np.max(loss_devs)), float(np.max(post_devs))
    passed = max_loss_dev <= 1e-9 and max_post_dev <= 1e-9
    return SuiteReport(
        "ctc dp vs enumeration",
        passed,
        {"instances": n_instances, "max_loss_dev": f"{max_loss_dev:.3e}",
         "max_posterior_dev": f"{max_post_dev:.3e}"},
    )


def full_gradient_report(model, batch, train_cfg: TrainConfig, mask_seed: int = 0) -> dict:
    """Finite-difference check of the combined objective over every
    parameter coordinate of the model, by ``tensor.finite_differences``."""
    names, tensors = zip(*model.store.items())
    batch = Batch(batch)
    rel_err, pos, index, checked = finite_differences(
        lambda: loss_total(model, batch, train_cfg, np.random.default_rng(mask_seed)).total, tensors
    )
    return {"rel_err": rel_err, "param": None if pos is None else names[pos], "index": index,
            "coordinates": checked}


def grad_check_suite(seed: int = 0) -> SuiteReport:
    """Analytic gradients against central differences at three levels:
    the CTC loss rule on 50 random instances, both distillation forms, and
    the full objective, whose worst relative error may reach 1e-4."""
    rng = np.random.default_rng(seed)
    ctc_errs = []
    for _ in range(50):
        u, y = _random_ctc_instance(rng, max_t=6, max_l=3)
        x = Tensor(u, requires_grad=True)
        ctc_errs.append(grad_check(lambda t: ctc_loss_dp(t, y), x))

    kd_errs = []
    for form in ("l2", "kl"):
        teacher = tt.softmax(Tensor(rng.standard_normal((4, 3))))
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        kd_errs.append(
            grad_check(lambda t: kd_loss_ctc(tt.softmax(t), teacher, form), logits)
        )
    # np.max keeps a NaN where the builtin max would drop it and pass
    worst_ctc, worst_kd = float(np.max(ctc_errs)), float(np.max(kd_errs))

    model = CtcModel(
        ModelConfig(task="ctc", vocab_size=3, feature_dim=4, d_model=8,
                    enc_layers=1, heads=2, ffn_dim=16),
        seed=seed,
    )
    batch = []
    for _ in range(2):
        y = tuple(int(t) for t in rng.integers(1, 4, size=2))
        batch.append((rng.standard_normal((5, 4)), y))
    train_cfg = TrainConfig(alpha=2.0, kd_form="l2", seed=seed)
    full = full_gradient_report(model, batch, train_cfg, mask_seed=seed)

    passed = worst_ctc <= 1e-5 and worst_kd <= 1e-5 and full["rel_err"] <= 1e-4
    return SuiteReport(
        "gradient vs finite differences",
        passed,
        {
            "ctc_rel_err": f"{worst_ctc:.3e}",
            "kd_rel_err": f"{worst_kd:.3e}",
            "objective_rel_err": f"{full['rel_err']:.3e}",
            "worst_param": f"{full['param']}[{full['index']}]",
            "coordinates": full["coordinates"],
        },
    )


def bound_check_suite(n_instances: int = 200, seed: int = 0, csv_path=None) -> SuiteReport:
    """Jensen lower bound on random small models and inputs, plus the
    equality configuration."""
    _check_instance_count(n_instances)
    rng = np.random.default_rng(seed)
    reports: list[BoundReport] = []
    for i in range(n_instances):
        vocab_size = int(rng.integers(2, 4))
        model = CtcModel(
            ModelConfig(task="ctc", vocab_size=vocab_size, feature_dim=3, d_model=8,
                        enc_layers=1, heads=2, ffn_dim=16),
            seed=seed * 1000 + i,
        )
        l = int(rng.integers(1, 3))
        y = tuple(int(t) for t in rng.integers(1, vocab_size + 1, size=l))
        t = int(rng.integers(min_frames(y), 7))
        x = rng.standard_normal((t, 3))
        reports.append(check_lower_bound(model, x, y))
    # np.min keeps a NaN where the builtin min would drop it and pass
    min_slack = float(np.min([r.slack for r in reports]))

    u = rng.standard_normal((5, 3)) * 2.0
    tight = bound_report_from_logits(u, u, (1, 2))
    passed = min_slack >= -1e-9 and abs(tight.slack) <= 1e-9

    if csv_path is not None:
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("loglik,bound,slack,entropy\n")
            for r in reports:
                fh.write(
                    f"{r.log_likelihood_student!r},{r.neg_kl_bound!r},"
                    f"{r.slack!r},{r.teacher_entropy!r}\n"
                )
    return SuiteReport(
        "jensen lower bound",
        passed,
        {"instances": n_instances, "min_slack": f"{min_slack:.3e}",
         "tight_slack": f"{tight.slack:.3e}"},
    )
