"""Training orchestration, evaluation, and the verification suites.

A run owns its output directory exclusively (lock file) and leaves behind
metrics.csv, a loss-curve SVG, periodic and final checkpoints, and a
timing.csv.  Everything in metrics.csv is deterministic for a fixed
config and seed; wall-clock timings live in their own file so reruns stay
byte-identical.

``SuiteReport`` holds the one verdict rule of the verification suites: a
suite passes exactly when every value of its clauses lies in the clause's
closed range, where a NaN never lies.

check-ctc, bound-check and grad-check's CTC-rule clause first draw all
their instances, in the order their one generator always drew them, then
map their measure over them by ``shares.share_map``: contiguous shares,
one per CPU but each of at least a minimum count of instances, every
share after the first computed by a forked child.  On a 2-core host a
fork round trip takes 1.2-1.5 ms.  A check-ctc instance takes 0.34 ms on
average and at least about 0.05 ms, a bound-check instance 0.38 ms on
average, so their minimum, ``SUITE_MIN_SHARE``, is 32: a share's work
outweighs its fork, and a suite of fewer than 64 instances stays in one
process.  A CTC-rule check takes about 1.1 ms on average and at least
about 0.3 ms, so ``CTC_RULE_MIN_SHARE`` is 16: a share averages about
18 ms, and even 16 of the cheapest checks cover three forks.  The reports
and ``bound_report.csv`` are assembled in instance order by the calling
process, bit-identical to a serial loop's.

grad-check's full-objective clause (``full_gradient_report``) follows
the two independent branches that ``objectives.loss_terms`` combines:
the source encoding and the oracle guidance.  Each tensor is marked by
the branches that read it, found from the ``ParamStore`` read counters of
one pass of each.  A run of tensors of one mark is scanned through
``loss_terms`` with each branch the run reaches re-run live and the other
branches' outputs held fixed, so the grad-check model's 2136
coordinates cost 1202 guidance and 1218 encoder passes instead of 4273 of
each, and the report is bit-identical to one scan's.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import RunConfig, config_to_mapping
from .ctc import ctc_bruteforce, ctc_forward_backward, ctc_loss_dp, min_frames
from .diagnostics import check_lower_bound, bound_report_from_logits, repetition_ratio
from .errors import ConfigError, ContractError
from .metrics import exact_match_rate, token_error_rate
from .models import AUX_PREFIXES, CtcModel, ModelConfig, build_model, save_checkpoint
from .objectives import Adam, TrainConfig, kd_loss, loss_terms, loss_total, teacher_targets, teacher_view
from .shares import share_map
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
        try:
            cells = [float(v) if v else None for v, _ in zip(values, fields(MetricsRecord)[1:], strict=True)]
            rows.append(MetricsRecord(int(step), *cells))
        except ValueError:  # a wrong width, a step not an int or a cell not a float
            raise ContractError(f"metrics row {line!r} in {path} does not match the header") from None
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


def evaluate(model, examples, mode: str, train_cfg: TrainConfig, mask_seed: int = 0) -> dict:
    """TER, exact match, and repetition ratio for one split, whose
    predictions come from one ``predict`` or ``predict_teacher`` call over
    the whole split.

    ``student`` mode predicts from the sources alone, reads the targets
    only afterwards, as references, and asserts that no auxiliary
    parameter was read while predicting.  ``teacher`` mode hands the
    predicting call the targets as well (masked for the encoder-decoder
    task, each item's mask drawn in split order from one generator seeded
    by ``mask_seed``), as a diagnostic upper bound.  The report's
    ``target_reads_during_predict`` counts the targets handed to that
    call: 0 in student mode, one per example in teacher mode.
    """
    if mode not in ("student", "teacher"):
        raise ContractError(f"unknown eval mode {mode!r}")
    examples = list(examples)
    if not examples:
        raise ContractError("empty evaluation split")
    sources = [ex.x for ex in examples]

    model.store.reset_reads()
    if mode == "student":
        predictions = model.predict(sources)
        targets_given = 0
    else:
        rng = np.random.default_rng(mask_seed)
        targets = teacher_targets(model, [ex.y for ex in examples], train_cfg.lambda_mask, rng)
        predictions = model.predict_teacher(sources, targets)
        targets_given = len(targets)
    aux_reads = model.store.reads_with_prefix(*AUX_PREFIXES)
    if mode == "student" and aux_reads:
        raise ContractError(f"student evaluation touched {aux_reads} aux params")

    references = [ex.y for ex in examples]
    return {
        "ter": token_error_rate(predictions, references),
        "exact_match": exact_match_rate(predictions, references),
        "rep_ratio": repetition_ratio(predictions),
        "aux_param_reads_during_predict": aux_reads,
        "target_reads_during_predict": targets_given,
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
    """Create ``.lock`` holding this process's pid, or none when the pid
    cannot be written (a full disk).  An existing lock is reported with its
    holder's pid and whether that process still runs, and is never taken
    over: only a person can tell that it is safe."""
    lock = out_dir / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ContractError(
            f"output directory {out_dir} is owned by another run ({_lock_holder(lock)})"
        ) from None
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(f"{os.getpid()}\n")
    except BaseException:
        # a lock without its pid would refuse every later run of the
        # directory as "holder unknown"
        lock.unlink(missing_ok=True)
        raise
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
    if not train_examples:
        raise ConfigError(
            f"n_examples = {cfg.n_examples} at data_seed {cfg.data_seed} leaves the train split empty"
        )
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


class Clause(NamedTuple):
    """The values a suite measured over its instances and the closed range
    ``low .. high`` each must lie in.  It prints its worst value to four
    digits: the largest, or the smallest when it has no upper bound."""

    values: list
    low: float = -np.inf
    high: float = np.inf


class SuiteReport:
    """A suite's verdict by the module's rule, and its details in print order."""

    def __init__(self, name: str, **details):
        self.name, self.passed, self.details = name, True, {}
        for key, value in details.items():
            if isinstance(value, Clause):
                values = np.asarray(value.values, dtype=float)
                self.passed &= bool(np.all((value.low <= values) & (values <= value.high)))
                value = f"{values.max() if value.high < np.inf else values.min():.3e}"
            self.details[key] = value

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


# fewest instances in a share of check-ctc or bound-check, and of
# grad-check's CTC-rule clause, sized from the fork round trip as the
# module docstring says
SUITE_MIN_SHARE = 32
CTC_RULE_MIN_SHARE = 16


def _check_instance_count(n_instances: int) -> None:
    # a suite over no instance would compare nothing and still pass
    if n_instances < 1:
        raise ContractError(f"a suite needs at least one instance, got {n_instances}")


def _enumeration_deviations(instance) -> tuple[float, float]:
    """One check-ctc instance: the DP's loss and posterior deviations from
    exhaustive enumeration."""
    u, y = instance
    dp, post_dp, _ = ctc_forward_backward(u, y)
    bf, post_enum = ctc_bruteforce(u, y)
    return abs(dp - bf), np.abs(post_dp - post_enum).max()


def check_ctc_suite(n_instances: int = 100, seed: int = 0) -> SuiteReport:
    """Dynamic-programming loss and posterior against exhaustive
    enumeration on instances of up to 8 frames, 4 labels and 4 symbols:
    one DP run and one scoring of the enumerated paths per instance."""
    _check_instance_count(n_instances)
    rng = np.random.default_rng(seed)
    instances = [_random_ctc_instance(rng) for _ in range(n_instances)]
    devs = share_map(_enumeration_deviations, instances, 2, SUITE_MIN_SHARE)
    return SuiteReport("ctc dp vs enumeration", instances=n_instances,
                       max_loss_dev=Clause(devs[:, 0], high=1e-9),
                       max_posterior_dev=Clause(devs[:, 1], high=1e-9))


def _run_counting_reads(store, f):
    """``f()`` and the names of the parameters it read from ``store``,
    whose read counters it resets first."""
    store.reset_reads()
    return f(), set(store.reads)


def full_gradient_report(model, batch, train_cfg: TrainConfig, mask_seed: int = 0) -> dict:
    """Finite-difference check of the combined objective over every
    parameter coordinate of the model, by ``tensor.finite_differences``,
    re-running only the branches of the objective that a tensor reaches.
    ``batch`` is a :class:`tasks.Batch` or its items, as for ``loss_total``.

    The objective is ``loss_terms`` of two independent branches: the
    encoding of the sources and the oracle guidance of the targets as the
    teacher sees them, whose masks are drawn once from
    ``default_rng(mask_seed)``, as every evaluation of ``loss_total`` would
    draw them.  Each branch runs once without a graph, its ``ParamStore``
    reads counted apart, which marks each tensor by the branches that read
    it: the encoding, the guidance, both or neither.  The store order is
    cut into maximal runs of one mark, and each run is one
    ``finite_differences`` scan of ``loss_terms`` in which each branch
    that reads the run's tensors runs live and every other branch is its
    fixed output.  A branch whose inputs and parameters are unchanged
    gives the same bits, and the runs' results are folded in order by the
    scan's own rule (only a strictly larger error, or a NaN, replaces the
    worst), so the report is that of one scan over every tensor,
    exceptions included.  Every tensor's ``grad`` is None after.
    """
    names, tensors = zip(*model.store.items())
    if not isinstance(batch, Batch):
        batch = Batch(batch)
    seen = teacher_view(model, batch, train_cfg, np.random.default_rng(mask_seed))

    def encode():
        return model.encode(batch.sources, batch.lengths)

    def guide():
        return None if seen is None else model.oracle_guidance(*seen)

    with tt.no_grad():
        encoded, read_encode = _run_counting_reads(model.store, encode)
        guidance, read_guide = _run_counting_reads(model.store, guide)

    def branches(i):
        return names[i] in read_encode, names[i] in read_guide

    def objective(live_encode, live_guide):
        return lambda: loss_terms(model, encode() if live_encode else encoded,
                                  guide() if live_guide else guidance, batch, train_cfg).total

    worst, at, checked = 0.0, (None, None), 0
    try:
        for live, run in itertools.groupby(range(len(names)), branches):
            run = list(run)
            rel_err, pos, index, n = finite_differences(objective(*live), [tensors[i] for i in run])
            if rel_err > worst or np.isnan(rel_err):
                worst, at = rel_err, (run[pos], index)
            checked += n
    finally:
        for t in tensors:
            t.grad = None
    pos, index = at
    return {"rel_err": worst, "param": None if pos is None else names[pos], "index": index,
            "coordinates": checked}


def _ctc_rule_error(instance) -> float:
    """One instance of grad-check's CTC-rule clause: the worst relative
    error of the CTC loss's analytic gradient in its frame logits."""
    u, y = instance
    return grad_check(lambda t: ctc_loss_dp(t, y), Tensor(u, requires_grad=True))


def grad_check_suite(seed: int = 0) -> SuiteReport:
    """Analytic gradients against central differences at three levels:
    the CTC loss rule on 50 random instances, mapped by ``share_map``,
    both distillation forms, and the full objective
    (``full_gradient_report``), whose worst relative error may reach
    1e-4."""
    rng = np.random.default_rng(seed)
    instances = [_random_ctc_instance(rng, max_t=6, max_l=3) for _ in range(50)]
    ctc_errs = share_map(_ctc_rule_error, instances, 1, CTC_RULE_MIN_SHARE)[:, 0]

    kd_errs = []
    for form in ("l2", "kl"):
        teacher = tt.softmax(Tensor(rng.standard_normal((4, 3))))
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        kd_errs.append(grad_check(lambda t: kd_loss(tt.softmax(t), teacher, form), logits))

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
    return SuiteReport("gradient vs finite differences",
                       ctc_rel_err=Clause(ctc_errs, high=1e-5), kd_rel_err=Clause(kd_errs, high=1e-5),
                       objective_rel_err=Clause([full["rel_err"]], high=1e-4),
                       worst_param=f"{full['param']}[{full['index']}]", coordinates=full["coordinates"])


def _bound_columns(instance) -> tuple[float, float, float, float]:
    """One bound-check instance: its model built and its bound report's
    ``bound_report.csv`` columns, loglik, bound, slack and entropy."""
    vocab_size, model_seed, x, y = instance
    model = CtcModel(
        ModelConfig(task="ctc", vocab_size=vocab_size, feature_dim=3, d_model=8,
                    enc_layers=1, heads=2, ffn_dim=16),
        seed=model_seed,
    )
    r = check_lower_bound(model, x, y)
    return r.log_likelihood_student, r.neg_kl_bound, r.slack, r.teacher_entropy


def bound_check_suite(n_instances: int = 200, seed: int = 0, csv_path=None) -> SuiteReport:
    """Jensen lower bound on random small models and inputs, plus the
    equality configuration."""
    _check_instance_count(n_instances)
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n_instances):
        vocab_size = int(rng.integers(2, 4))
        l = int(rng.integers(1, 3))
        y = tuple(int(t) for t in rng.integers(1, vocab_size + 1, size=l))
        t = int(rng.integers(min_frames(y), 7))
        instances.append((vocab_size, seed * 1000 + i, rng.standard_normal((t, 3)), y))
    columns = share_map(_bound_columns, instances, 4, SUITE_MIN_SHARE)
    u = rng.standard_normal((5, 3)) * 2.0
    tight = bound_report_from_logits(u, u, (1, 2))

    if csv_path is not None:
        Path(csv_path).parent.mkdir(parents=True, exist_ok=True)
        with open(csv_path, "w", encoding="ascii") as fh:
            fh.write("loglik,bound,slack,entropy\n")
            for row in columns.tolist():
                fh.write(",".join(map(repr, row)) + "\n")
    return SuiteReport("jensen lower bound", instances=n_instances,
                       min_slack=Clause(columns[:, 2], low=-1e-9),
                       tight_slack=Clause([tight.slack], -1e-9, 1e-9))
