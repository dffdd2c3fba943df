"""The four benchmark workloads, each a closed loop with one client.

A workload has a ``setup`` (timed apart, repeated) and a ``run_pass``
that performs a fixed amount of work and checks every operation's output.
Operation spans ("step", "student", "teacher", "round") are opened on the
tracer it is given; the runner derives every end-to-end metric from them.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oracle_distill import ctc, harness, models, tasks
from oracle_distill.config import RunConfig
from oracle_distill.metrics import token_error_rate
from oracle_distill.objectives import Adam

from tracing import Tracer

# steps of one training pass; with the default eval_every of 50 and a
# checkpoint every 20 % of the steps, a pass holds the train schedule twice
TRAIN_STEPS = 100

# loss_final averages l_total over this many final steps
LOSS_TAIL = 20


@dataclass
class PassResult:
    ops: int  # operations attempted
    items: int  # examples trained, sequences decoded or suite rounds run
    failed: int  # operations that raised or failed their output check
    info: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TrainWorkload:
    """``oracle-distill train`` at the task's default config, through
    ``harness.train_run``: dev evaluation in both modes, checkpoints and
    metrics.csv.  One operation is one optimisation step."""

    op = "step"

    def __init__(self, task: str, seed: int, work_dir: Path, steps: int = TRAIN_STEPS):
        self.cfg = RunConfig(task=task, seed=seed, steps=steps).resolved()
        self.work_dir = work_dir
        self.passes = 0
        self.first_digest = None

    def setup(self) -> None:
        """What ``train_run`` builds before its first step."""
        dataset = harness.generate_dataset(self.cfg)
        train_examples = tasks.split_examples(dataset, "train")
        tasks.split_examples(dataset, "dev")
        train_cfg = self.cfg.train_config()
        model = models.build_model(self.cfg.model_config(), seed=self.cfg.seed)
        Adam(model.store.tensors(), lr=train_cfg.lr, warmup_steps=train_cfg.warmup_steps)
        self.n_train = len(train_examples)

    def run_pass(self, tracer: Tracer) -> PassResult:
        self.passes += 1
        out = self.work_dir / f"{self.cfg.task}-pass{self.passes}"
        fit_loop = harness.fit_loop
        harness.fit_loop = _timed_fit_loop(fit_loop, tracer)
        try:
            harness.train_run(self.cfg, out)
            return self._check(out)
        except Exception as exc:  # a failed pass is counted, not fatal
            print(f"# training pass failed: {exc!r}", file=sys.stderr)
            return PassResult(ops=self.cfg.steps, items=0, failed=self.cfg.steps)
        finally:
            harness.fit_loop = fit_loop
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path) -> PassResult:
        """Rows finite and summing as ``loss_total`` promises, metrics.csv
        identical to the first pass, checkpoint save-load-save identical."""
        metrics_bytes = (out / "metrics.csv").read_bytes()
        rows = harness.parse_metrics_csv(out / "metrics.csv")
        alpha = self.cfg.alpha
        bad_rows = 0
        for r in rows:
            values = [r.l_org, r.l_em, r.l_kd, r.l_total] + [
                v for v in (r.ter_student, r.ter_teacher, r.rep_ratio) if v is not None
            ]
            total = r.l_org + r.l_em + alpha * r.l_kd
            if not all(math.isfinite(v) for v in values) or not math.isclose(
                r.l_total, total, rel_tol=1e-12, abs_tol=1e-15
            ):
                bad_rows += 1
        digest = _digest(metrics_bytes)
        if self.first_digest is None:
            self.first_digest = digest
        checkpoint = out / "checkpoint_final.txt"
        model, run_kv = models.load_checkpoint(checkpoint)
        resaved = out / "checkpoint_resaved.txt"
        models.save_checkpoint(model, resaved, run_config=run_kv)
        pass_ok = (
            len(rows) == self.cfg.steps
            and digest == self.first_digest
            and resaved.read_bytes() == checkpoint.read_bytes()
        )
        items = _examples_seen(self.n_train, self.cfg.batch_size, len(rows))
        return PassResult(
            ops=self.cfg.steps,
            items=items,
            failed=self.cfg.steps if not pass_ok else bad_rows,
            info={
                "loss_final": sum(r.l_total for r in rows[-LOSS_TAIL:]) / len(rows[-LOSS_TAIL:]),
                "dev_ter_student": rows[-1].ter_student,
                "digest": digest,
            },
        )


def _timed_fit_loop(fit_loop, tracer: Tracer):
    """``fit_loop`` with every step timed from outside: a step runs from the
    end of one ``on_step`` callback to the start of the next."""

    @functools.wraps(fit_loop)
    def timed(model, train_examples, train_cfg, on_step=None):
        open_step = [tracer.open("step")]

        def timed_on_step(step, record, model_):
            tracer.close(open_step[0])
            idx = tracer.open("on_step")
            try:
                if on_step is not None:
                    on_step(step, record, model_)
            finally:
                tracer.close(idx)
            open_step[0] = tracer.open("step")

        try:
            return fit_loop(model, train_examples, train_cfg, on_step=timed_on_step)
        finally:
            tracer.discard(open_step[0])

    return timed


def _examples_seen(n_train: int, batch_size: int, steps: int) -> int:
    """Examples in the first ``steps`` batches of repeated epochs; each epoch
    ends with its partial batch, as ``tasks.batch_iter`` yields them."""
    sizes = [batch_size] * (n_train // batch_size) + ([n_train % batch_size] if n_train % batch_size else [])
    full, rest = divmod(steps, len(sizes))
    return full * n_train + sum(sizes[:rest])


class DecodeWorkload:
    """Greedy decoding of the dev and test splits by a freshly initialised
    encoder-decoder, first in student mode, then in teacher mode, one
    ``harness.evaluate`` call per example.

    The data and the model are those of seed 0, so every seed decodes the
    same 115 sources; the workload seed orders them and seeds the teacher's
    target masks.  An untrained model decodes to its length cap, so the
    work per source is fixed by the source length."""

    op = "student"

    def __init__(self, seed: int, limit: int | None = None):
        self.seed = seed
        self.limit = limit
        self.first_digest = None

    def setup(self) -> None:
        cfg = RunConfig(task="aed", seed=0).resolved()
        dataset = harness.generate_dataset(cfg)
        examples = tasks.split_examples(dataset, "dev") + tasks.split_examples(dataset, "test")
        order = np.random.default_rng(self.seed).permutation(len(examples))
        self.examples = [examples[i] for i in order][: self.limit]
        self.model = models.build_model(cfg.model_config(), seed=0)
        self.train_cfg = cfg.train_config()

    def run_pass(self, tracer: Tracer) -> PassResult:
        predictions = {}
        failed = 0
        for mode in ("student", "teacher"):
            for i, ex in enumerate(self.examples):
                idx = tracer.open(mode)
                try:
                    report = harness.evaluate(self.model, [ex], mode, self.train_cfg, mask_seed=self.seed)
                except Exception as exc:  # a failed operation is counted, not fatal
                    print(f"# {mode} decode {i} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    continue
                finally:
                    tracer.close(idx)
                pred = report["predictions"][0]
                predictions[mode, i] = pred
                ok = all(0 <= t < self.model.eos for t in pred) and len(pred) <= 2 * len(ex.x) + 4
                if mode == "student":
                    ok = ok and report["aux_param_reads_during_predict"] == 0
                    ok = ok and report["target_reads_during_predict"] == 0
                failed += not ok
        digest = _digest(repr(sorted(predictions.items())).encode())
        if self.first_digest is None:
            self.first_digest = digest
        ops = 2 * len(self.examples)
        dev = [i for i, ex in enumerate(self.examples) if ex.split == "dev" and ("student", i) in predictions]
        return PassResult(
            ops=ops,
            items=ops,
            failed=ops if digest != self.first_digest else failed,
            info={
                "digest": digest,
                "dev_ter_student": token_error_rate(
                    [predictions["student", i] for i in dev], [self.examples[i].y for i in dev]
                ) if dev else None,
            },
        )


# the exactness suites with the CLI's default arguments (seed 0)
SUITES = (
    ("check_ctc", lambda: harness.check_ctc_suite(100)),
    ("grad_check", lambda: harness.grad_check_suite()),
    ("bound_check", lambda: harness.bound_check_suite(200)),
)


class VerifyWorkload:
    """The three exactness suites at their CLI defaults; one operation is a
    round of all three.

    The suites draw their instances from their own seed, 0 as on the
    command line: check-ctc alone takes 1.5 s to 4.7 s depending on that
    seed, a spread that would hide any change.  The workload seed only
    rotates the order of the suites within a round."""

    op = "round"

    def __init__(self, seed: int, suites=SUITES):
        k = seed % len(suites)
        self.suites = suites[k:] + suites[:k]
        self.first_details = {}

    def setup(self) -> None:
        """The models and inputs the suites draw at seed 0: the grad-check
        model, and ``bound_check_suite(200)``'s model and input per instance,
        with its configs and seeds."""
        small = dict(task="ctc", d_model=8, enc_layers=1, heads=2, ffn_dim=16)
        models.CtcModel(models.ModelConfig(vocab_size=3, feature_dim=4, **small), seed=0)
        rng = np.random.default_rng(0)
        for i in range(200):
            vocab_size = int(rng.integers(2, 4))
            models.CtcModel(models.ModelConfig(vocab_size=vocab_size, feature_dim=3, **small), seed=i)
            y = rng.integers(1, vocab_size + 1, size=int(rng.integers(1, 3)))
            rng.standard_normal((int(rng.integers(ctc.min_frames(tuple(y)), 7)), 3))

    def run_pass(self, tracer: Tracer) -> PassResult:
        ok = True
        info = {}
        idx = tracer.open("round")
        try:
            for name, suite in self.suites:
                span = tracer.open(f"harness.{name}_suite")
                try:
                    report = suite()
                finally:
                    tracer.close(span)
                first = self.first_details.setdefault(name, report.details)
                ok = ok and report.passed and report.details == first
            info["digest"] = _digest(repr(sorted(self.first_details.items())).encode())
        except Exception as exc:  # a failed operation is counted, not fatal
            print(f"# verify round failed: {exc!r}", file=sys.stderr)
            ok = False
        finally:
            tracer.close(idx)
        return PassResult(ops=1, items=1, failed=int(not ok), info=info)


WORKLOADS = ("train-ctc", "train-aed", "decode-aed", "verify")


def make(name: str, seed: int, work_dir: Path):
    if name == "train-ctc":
        return TrainWorkload("ctc", seed, work_dir)
    if name == "train-aed":
        return TrainWorkload("aed", seed, work_dir)
    if name == "decode-aed":
        return DecodeWorkload(seed)
    if name == "verify":
        return VerifyWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
