import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_distill.config import (
    RunConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_config_text,
)
from oracle_distill import cli, harness, objectives
from oracle_distill import tensor as T
from oracle_distill.ctc import ctc_loss_dp
from oracle_distill.errors import ConfigError, ContractError
from oracle_distill.harness import (
    METRICS_HEADER,
    Clause,
    SuiteReport,
    bound_check_suite,
    check_ctc_suite,
    evaluate,
    generate_dataset,
    grad_check_suite,
    loss_curve_svg,
    parse_metrics_csv,
    train_run,
)
from oracle_distill.models import MASK, CtcModel, ModelConfig, build_model, load_checkpoint, save_checkpoint
from oracle_distill.objectives import TrainConfig, loss_total, mask_target, teacher_targets
from oracle_distill.tasks import Batch, split_examples

from helpers import record_calls


def tiny_cfg(**kw):
    base = dict(task="ctc", steps=12, n_examples=80, eval_every=6,
                checkpoint_every=6, seed=0)
    base.update(kw)
    return RunConfig(**base)


class TestConfigFormat:
    def test_parse_roundtrip(self):
        text = """
        # a comment
        task = ctc
        steps = 25
        alpha = 1.5
        use_teacher = true
        """
        cfg = parse_config_text(text)
        assert cfg.task == "ctc" and cfg.steps == 25 and cfg.alpha == 1.5
        assert cfg.use_teacher is True

    def test_unknown_key_is_listed(self):
        with pytest.raises(ConfigError, match="alpha_ramp"):
            parse_config_text("alpha_ramp = 2\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("steps = 2\nsteps = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config_text("steps = soon\n")

    def test_invalid_semantics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("alpha = -1\n")
        with pytest.raises(ConfigError):
            parse_config_text("task = rnnt\n")

    def test_mapping_roundtrip(self):
        cfg = tiny_cfg(alpha=3.25).resolved()
        again = config_from_mapping(config_to_mapping(cfg))
        assert config_to_mapping(again) == config_to_mapping(cfg)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("task = aed\nsteps = 7\n")
        cfg = load_config(path)
        assert cfg.task == "aed" and cfg.steps == 7
        # aed defaults resolve differently
        assert cfg.resolved().vocab_size == 12


class TestTrainRun:
    def test_run_directory_contents(self, tmp_path):
        res = train_run(tiny_cfg(), tmp_path / "run")
        names = {p.name for p in (tmp_path / "run").iterdir()}
        assert "metrics.csv" in names and "loss_curve.svg" in names
        assert "checkpoint_final.txt" in names and "timing.csv" in names
        assert len(res.records) == 12

    def test_metrics_csv_parses_back_losslessly(self, tmp_path):
        res = train_run(tiny_cfg(), tmp_path / "run")
        rows = parse_metrics_csv(tmp_path / "run" / "metrics.csv")
        assert [r.step for r in rows] == list(range(1, 13))
        for parsed, rec in zip(rows, res.records):
            assert parsed.l_total == rec.l_total
            assert parsed.ter_student == (
                None if rec.ter_student is None else float(rec.ter_student)
            )

    def test_identical_config_and_seed_is_bit_identical(self, tmp_path):
        train_run(tiny_cfg(), tmp_path / "a")
        train_run(tiny_cfg(), tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_different_seed_changes_metrics(self, tmp_path):
        train_run(tiny_cfg(), tmp_path / "a")
        train_run(tiny_cfg(seed=1), tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() != (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_lock_file_blocks_concurrent_owner(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").touch()
        with pytest.raises(ContractError, match="lock"):
            train_run(tiny_cfg(), out)

    @pytest.mark.parametrize("bad", [dict(frames_min=5, frames_max=2), dict(lr=-1.0), dict(heads=3)])
    def test_a_refused_config_leaves_no_directory(self, tmp_path, bad):
        out = tmp_path / "run"
        with pytest.raises(ContractError):
            train_run(tiny_cfg(steps=2, **bad), out)
        assert not out.exists()

    def test_an_empty_train_split_is_a_config_error_that_leaves_no_directory(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ConfigError, match="^n_examples = 1 at data_seed 4 leaves the train split empty$"):
            train_run(RunConfig(task="aed", n_examples=1, seed=4, steps=2), out)
        assert not out.exists()

    def test_lock_released_after_run(self, tmp_path):
        train_run(tiny_cfg(), tmp_path / "run")
        assert not (tmp_path / "run" / ".lock").exists()
        train_run(tiny_cfg(seed=2), tmp_path / "run")  # re-usable

    def test_checkpoint_contains_run_config(self, tmp_path):
        train_run(tiny_cfg(), tmp_path / "run")
        model, run_kv = load_checkpoint(tmp_path / "run" / "checkpoint_final.txt")
        assert run_kv["task"] == "ctc" and run_kv["steps"] == "12"
        cfg = config_from_mapping(run_kv)
        assert cfg.steps == 12

    def test_non_ascii_run_config_round_trips_through_the_checkpoint(self, tmp_path):
        out = tmp_path / "ré"
        cfg = tiny_cfg(out_dir=str(out))
        train_run(cfg, out)
        _, run_kv = load_checkpoint(out / "checkpoint_final.txt")
        assert run_kv == config_to_mapping(cfg.resolved())
        assert run_kv["out_dir"].endswith("ré")

    def test_alpha_zero_without_teacher_is_plain_baseline(self, tmp_path):
        res = train_run(tiny_cfg(use_teacher=False, alpha=0.0), tmp_path / "run")
        for r in res.records:
            assert r.l_em == 0.0 and r.l_kd == 0.0
            assert r.l_total == r.l_org


class TestEvaluate:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("eval-run")
        cfg = tiny_cfg(steps=30, eval_every=30)
        res = train_run(cfg, out)
        dataset = generate_dataset(cfg)
        return res.model, dataset, cfg

    def test_student_mode_reads_no_aux_params_and_no_targets(self, trained):
        model, dataset, cfg = trained
        report = evaluate(model, split_examples(dataset, "dev"), "student", cfg.train_config())
        assert report["aux_param_reads_during_predict"] == 0
        assert report["target_reads_during_predict"] == 0
        assert 0.0 <= report["ter"]

    def test_teacher_mode_consumes_targets(self, trained):
        model, dataset, cfg = trained
        report = evaluate(model, split_examples(dataset, "dev"), "teacher", cfg.train_config())
        assert report["target_reads_during_predict"] > 0
        assert report["aux_param_reads_during_predict"] > 0

    def test_unknown_mode_rejected(self, trained):
        model, dataset, cfg = trained
        with pytest.raises(ContractError):
            evaluate(model, split_examples(dataset, "dev"), "oracle", cfg.train_config())


class _TargetGuard:
    """An example whose target cannot be read until ``released`` is set."""

    def __init__(self, ex, released):
        self.x, self._y, self._released = ex.x, ex.y, released

    @property
    def y(self):
        if not self._released:
            raise AssertionError("target read before the predictions were made")
        return self._y


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_student_evaluate_reads_no_target_before_its_one_predict(task, monkeypatch):
    cfg = tiny_cfg(task=task).resolved()
    dev = split_examples(generate_dataset(cfg), "dev")
    assert len(dev) > 1
    model = build_model(cfg.model_config(), seed=0)
    released = []
    predict = model.predict

    def predict_then_release(sources):
        out = predict(sources)
        released.append(len(sources))
        return out

    monkeypatch.setattr(model, "predict", predict_then_release)
    report = evaluate(model, [_TargetGuard(ex, released) for ex in dev], "student", cfg.train_config())
    assert released == [len(dev)]
    assert report["aux_param_reads_during_predict"] == 0
    assert report["target_reads_during_predict"] == 0
    assert report["predictions"] == [predict([ex.x])[0] for ex in dev]


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_teacher_evaluate_draws_each_mask_in_split_order(task):
    cfg = tiny_cfg(task=task).resolved()
    dev = split_examples(generate_dataset(cfg), "dev")
    model = build_model(cfg.model_config(), seed=0)
    train_cfg = cfg.train_config()
    report = evaluate(model, dev, "teacher", train_cfg, mask_seed=7)
    rng = np.random.default_rng(7)
    want = []
    for ex in dev:
        tokens = ex.y if task == "ctc" else mask_target(ex.y, train_cfg.lambda_mask, rng)
        want.append(model.predict_teacher([ex.x], [tokens])[0])
    assert report["predictions"] == want
    assert report["target_reads_during_predict"] == len(dev)


@pytest.mark.parametrize("mode", ["student", "teacher"])
def test_cli_eval_prints_the_targets_given_to_predict(mode, tmp_path, capsys):
    cfg = tiny_cfg(task="aed").resolved()
    path = tmp_path / "model.txt"
    save_checkpoint(build_model(cfg.model_config(), seed=0), path, run_config=config_to_mapping(cfg))
    assert cli.main(["eval", "--checkpoint", str(path), "--split", "dev", "--mode", mode]) == 0
    n_dev = len(split_examples(generate_dataset(cfg), "dev"))
    assert n_dev > 1
    lines = capsys.readouterr().out.splitlines()
    assert f"split: dev ({n_dev} examples), mode: {mode}" in lines
    assert f"targets given to predict: {0 if mode == 'student' else n_dev}" in lines


def test_training_and_teacher_evaluation_draw_the_same_masks(monkeypatch):
    cfg = tiny_cfg(task="aed").resolved()
    dev = split_examples(generate_dataset(cfg), "dev")
    model = build_model(cfg.model_config(), seed=0)
    train_cfg = cfg.train_config()
    guided = record_calls(monkeypatch, model, "oracle_guidance")
    predict = record_calls(monkeypatch, model, "predict_teacher")
    batch = Batch(dev)
    loss_total(model, batch, train_cfg, np.random.default_rng(7))
    [((masked_ids, _), _)] = guided
    evaluate(model, dev, "teacher", train_cfg, mask_seed=7)
    trained = [tuple(row[:n]) for row, n in zip(masked_ids.tolist(), batch.target_lengths)]
    [((_, evaluated), _)] = predict
    assert trained == evaluated
    assert any(MASK in m for m in trained) and trained != batch.targets


# sha256 of metrics.csv and checkpoint_final.txt after 30 seed-1 steps with
# a dev evaluation every 10, for each task with the teacher on and off and
# with the other distillation settings; a change meant to keep what
# training computes keeps these bytes
TRAINING_GOLDEN = {
    "ctc": (dict(task="ctc"),
            "c9f116a82fa43c203f7ab0eb9082b509b811ac76b25bd443d1119be33795cbe5",
            "be5ba69fcdc4d6b1b66fc0741ee11146358364e2e7252be8320abacabd425d57"),
    "aed": (dict(task="aed"),
            "28d0a8c8c40384382892bf320e78b0acd1c224fc8036a9c31bd033fc275579bc",
            "e1feba647b4574fa1d8ea04b1070312ba6c33102d8f50086c1dfb8b51db6404f"),
    "ctc without teacher": (dict(task="ctc", use_teacher=False),
                            "6fdf0cecaabe3f429154c6a167b92b09e2acd7da702d8249221ba1889a5fcf30",
                            "7c2e38fa7d3e258bcb86da93110b4bae0a99b23af8e40009ff6a58ddaa8db59c"),
    "aed without teacher": (dict(task="aed", use_teacher=False),
                            "72998954f28070f37ce4c504c15cd86732668a377db51b4f00563af16e5c083c",
                            "4bb12e8fccc6fb8cf4cefdaf642e35e4e9a9cf3eef0f399aba59084f96e50e86"),
    "ctc kl stopped": (dict(task="ctc", kd_form="kl", stop_teacher_grad=True),
                       "7ad3ed33dd66d5b71f4eb10757a923a1d08c6ff2c3e8773fbd4978f2b1d4f07e",
                       "b547f946a9bfd3771fad4abff4002426e78d0e4139101839fac821652e59c06a"),
    "aed T=2 stopped sort": (dict(task="aed", temperature=2.0, stop_teacher_grad=True, rule="sort"),
                             "5197ee4aed1f5e341e36898fda209d814ee1c20bea6d6120c047e1c62d3acc93",
                             "a9e1c2ab885cb544c2cdf9c09a4b96e47d0217f0708c70d96aefc6da01700170"),
}


@pytest.mark.parametrize("case", TRAINING_GOLDEN)
def test_training_outputs_are_pinned(tmp_path, case):
    fields_, metrics, checkpoint = TRAINING_GOLDEN[case]
    train_run(RunConfig(seed=1, steps=30, eval_every=10, **fields_), tmp_path)
    assert hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest() == metrics
    assert hashlib.sha256((tmp_path / "checkpoint_final.txt").read_bytes()).hexdigest() == checkpoint


class TestSuites:
    def test_ctc_suite_passes_and_reports_deviation(self):
        report = check_ctc_suite(n_instances=25, seed=1)
        assert report.passed
        assert "max_loss_dev" in report.details
        assert float(report.details["max_loss_dev"]) <= 1e-9

    def test_corrupted_dp_fails(self, monkeypatch):
        # a DP value off by 1e-6 must fail the 1e-9 comparison
        dp = harness.ctc_forward_backward
        monkeypatch.setattr(harness, "ctc_forward_backward",
                            lambda u, y: dp(u, y)._replace(nll=dp(u, y).nll + 1e-6))
        report = check_ctc_suite(n_instances=5, seed=1)
        assert not report.passed

    @pytest.mark.parametrize("field", ["nll", "posterior"])
    def test_ctc_suite_fails_on_a_nan_deviation_after_the_first_instance(self, monkeypatch, field):
        dp = harness.ctc_forward_backward
        calls = []

        def nan_on_the_fifth(u, y):
            calls.append(1)
            out = dp(u, y)
            if len(calls) == 5:
                out = out._replace(**{field: getattr(out, field) * math.nan})
            return out

        monkeypatch.setattr(harness, "ctc_forward_backward", nan_on_the_fifth)
        report = check_ctc_suite(n_instances=6, seed=1)
        assert len(calls) == 6
        assert not report.passed

    def test_bound_suite_fails_on_a_nan_slack_after_the_first_instance(self, monkeypatch):
        check = harness.check_lower_bound
        calls = []

        def nan_on_the_third(model, x, y):
            calls.append(1)
            report = check(model, x, y)
            return replace(report, slack=math.nan) if len(calls) == 3 else report

        monkeypatch.setattr(harness, "check_lower_bound", nan_on_the_third)
        report = bound_check_suite(n_instances=5, seed=2)
        assert len(calls) == 5
        assert not report.passed

    # calls 1-50 check the CTC rule, 51 and 52 the two distillation forms
    @pytest.mark.parametrize("nan_call", [3, 52])
    def test_grad_suite_fails_on_a_nan_error_after_the_first_check(self, monkeypatch, nan_call):
        calls = []

        def nan_on_one_call(f, x):
            calls.append(1)
            return math.nan if len(calls) == nan_call else 0.0

        # on one CPU every check runs, and is counted, in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "grad_check", nan_on_one_call)
        monkeypatch.setattr(harness, "full_gradient_report",
                            lambda *args, **kw: {"rel_err": 0.0, "param": None, "index": None,
                                                 "coordinates": 0})
        report = grad_check_suite(seed=0)
        assert len(calls) == 52
        assert not report.passed

    def test_bound_suite_small(self, tmp_path):
        csv = tmp_path / "bound.csv"
        report = bound_check_suite(n_instances=20, seed=2, csv_path=csv)
        assert report.passed
        lines = csv.read_text().splitlines()
        assert lines[0] == "loglik,bound,slack,entropy"
        assert len(lines) == 21

    def test_bound_csv_cells_are_plain_numbers(self, tmp_path):
        csv = tmp_path / "bound.csv"
        bound_check_suite(n_instances=5, seed=2, csv_path=csv)
        for line in csv.read_text().splitlines()[1:]:
            for cell in line.split(","):
                float(cell)  # a repr such as np.float64(-3.2) raises here

    # The suites' details, pinned to the printed digit: a change to the
    # enumeration, the DP or a suite's reduction that moves one shows here.

    def test_grad_suite_small(self):
        report = grad_check_suite(seed=3)
        assert report.passed
        assert report.details == {
            "ctc_rel_err": "1.589e-07",
            "kd_rel_err": "3.306e-09",
            "objective_rel_err": "2.524e-07",
            "worst_param": "oracle.enc0.ffn.w1[101]",
            "coordinates": 2136,
        }
        assert report.lines() == [
            "[PASS] gradient vs finite differences: ctc_rel_err=1.589e-07, kd_rel_err=3.306e-09, "
            "objective_rel_err=2.524e-07, worst_param=oracle.enc0.ffn.w1[101], coordinates=2136"
        ]

    def test_ctc_suite_details_at_the_cli_defaults(self):
        report = check_ctc_suite()
        assert report.lines() == [
            "[PASS] ctc dp vs enumeration: instances=100, "
            "max_loss_dev=1.776e-15, max_posterior_dev=1.110e-15"
        ]

    def test_bound_suite_details_and_csv_at_the_cli_defaults(self, tmp_path):
        csv = tmp_path / "bound_report.csv"
        report = bound_check_suite(csv_path=csv)
        assert report.lines() == [
            "[PASS] jensen lower bound: instances=200, "
            "min_slack=0.000e+00, tight_slack=-4.441e-16"
        ]
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "3fb282757e89aaa0272645df439864396b1dbdd9b4cbd592f9ba28ff07aabf6b"
        )


# what each suite prints at its CLI defaults
GOLDEN_SUITE_LINES = {
    "check-ctc": ["[PASS] ctc dp vs enumeration: instances=100, "
                  "max_loss_dev=1.776e-15, max_posterior_dev=1.110e-15"],
    "grad-check": ["[PASS] gradient vs finite differences: ctc_rel_err=1.240e-06, kd_rel_err=8.277e-10, "
                   "objective_rel_err=3.669e-06, worst_param=oracle.enc0.ffn.w2[90], coordinates=2136"],
    "bound-check": ["[PASS] jensen lower bound: instances=200, min_slack=0.000e+00, tight_slack=-4.441e-16"],
}


SPLITS = ["1 cpu", "3 cpus", "cannot fork"]


def _split(monkeypatch, split) -> list:
    """Simulate 1 or 3 CPUs, or 3 on which ``os.fork`` fails; returns the
    list that gets one entry per fork tried."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        if split == "cannot fork":
            raise OSError("no fork")
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1 if split == "1 cpu" else 3)),
                        raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("split", SPLITS)
@pytest.mark.parametrize("suite", sorted(GOLDEN_SUITE_LINES))
def test_the_suites_print_their_golden_lines_under_every_split(suite, split, tmp_path, monkeypatch, capsys):
    # on 3 CPUs each large map tries two forks: check-ctc's 100 instances,
    # bound-check's 200 instances, grad-check's 50 CTC-rule checks, and
    # three of the four runs of its 2136 objective coordinates (the
    # encoder's 608, the oracle's 600, fusion and teacher head's 892; the
    # student head's 36 are too few to split); every other map stays in
    # one process
    forks = _split(monkeypatch, split)
    out = ["--out", str(tmp_path)] if suite == "bound-check" else []
    assert cli.main([suite, *out]) == 0
    csv = tmp_path / "bound_report.csv"
    notes = [f"report: {csv}"] if suite == "bound-check" else []
    assert capsys.readouterr().out.splitlines() == GOLDEN_SUITE_LINES[suite] + notes
    assert len(forks) == (0 if split == "1 cpu" else 8 if suite == "grad-check" else 2)
    if suite == "bound-check":
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "3fb282757e89aaa0272645df439864396b1dbdd9b4cbd592f9ba28ff07aabf6b"
        )


@pytest.mark.parametrize("split", SPLITS)
def test_every_ctc_rule_value_is_the_serial_loops_under_every_split(split, monkeypatch):
    # the loop that checked the CTC rule one instance at a time, drawing
    # each just before its check
    rng = np.random.default_rng(0)
    serial = []
    for _ in range(50):
        u, y = harness._random_ctc_instance(rng, max_t=6, max_l=3)
        serial.append(T.grad_check(lambda t: ctc_loss_dp(t, y), T.Tensor(u, requires_grad=True)))
    forks = _split(monkeypatch, split)
    monkeypatch.setattr(harness, "full_gradient_report",
                        lambda *args, **kw: {"rel_err": 0.0, "param": None, "index": None, "coordinates": 0})
    monkeypatch.setattr(harness, "SuiteReport", lambda name, **details: details)
    details = grad_check_suite()
    assert np.asarray(details["ctc_rel_err"].values).tobytes() == np.array(serial).tobytes()
    # three shares of at least 16 checks on 3 CPUs
    assert len(forks) == (0 if split == "1 cpu" else 2)


# ---------------------------------------------------------------------------
# the staged full-objective scan
# ---------------------------------------------------------------------------


def _gradient_case(task, use_teacher, seed):
    """A small model, a batch of two items of unequal lengths, so that
    padding is exercised, and its train config: the encoder-decoder's with
    lambda_mask 0.5 and temperature 2, so that masked and real tokens both
    reach the oracle and the KL bridge is scaled."""
    rng = np.random.default_rng(seed)
    if task == "ctc":
        model = build_model(ModelConfig(task="ctc", vocab_size=2, feature_dim=3, d_model=4, enc_layers=1,
                                        heads=2, ffn_dim=4), seed=seed)
        batch = [(rng.standard_normal((t, 3)), tuple(int(v) for v in rng.integers(1, 3, size=n)))
                 for t, n in ((5, 2), (3, 1))]
        train = TrainConfig(alpha=2.0, kd_form=("l2", "kl")[seed % 2], use_teacher=use_teacher, seed=seed)
    else:
        model = build_model(ModelConfig(task="aed", vocab_size=3, d_model=4, enc_layers=1, dec_layers=1,
                                        heads=2, ffn_dim=4), seed=seed)

        def tokens(n):
            return tuple(int(v) for v in rng.integers(1, 4, size=n))

        batch = [(tokens(3), tokens(3)), (tokens(2), tokens(2))]
        train = TrainConfig(alpha=5.0, kd_form="kl", lambda_mask=0.5, temperature=2.0, use_teacher=use_teacher,
                            seed=seed)
    return model, batch, train


class _ScanRecorder:
    """Records, for every ``finite_differences`` scan that ``harness``
    makes, the analytic gradients of its tensors as the scan's own backward
    pass leaves them, and the numeric differences its share map returns."""

    def __init__(self, monkeypatch):
        self.analytic, self.numeric, self.tensors = [], [], ()
        scan, backward, share_map = harness.finite_differences, T.backward, T.share_map

        def recorded_scan(f, tensors):
            self.tensors = tensors
            return scan(f, tensors)

        def recorded_backward(loss):
            backward(loss)
            self.analytic += [(np.zeros_like(t.data) if t.grad is None else t.grad).tobytes()
                              for t in self.tensors]

        def recorded_share_map(*args):
            rows = share_map(*args)
            self.numeric.append(rows.tobytes())
            return rows

        monkeypatch.setattr(harness, "finite_differences", recorded_scan)
        monkeypatch.setattr(T, "backward", recorded_backward)
        monkeypatch.setattr(T, "share_map", recorded_share_map)
        self.scan = recorded_scan

    def take(self) -> tuple[bytes, bytes]:
        """The analytic and the numeric values recorded so far, each laid
        end to end in scan order, and a fresh record."""
        taken = b"".join(self.analytic), b"".join(self.numeric)
        self.analytic, self.numeric = [], []
        return taken


def _one_scan(recorder, model, batch, train, mask_seed) -> dict:
    """The report of one ``finite_differences`` scan of ``loss_total`` over
    every tensor of ``model``."""
    names, tensors = zip(*model.store.items())
    rel_err, pos, index, checked = recorder.scan(
        lambda: loss_total(model, Batch(batch), train, np.random.default_rng(mask_seed)).total, tensors)
    return {"rel_err": rel_err, "param": None if pos is None else names[pos], "index": index,
            "coordinates": checked}


def _param_bytes(model) -> dict:
    return {name: t.data.tobytes() for name, t in model.store.items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("task, use_teacher", [("ctc", True), ("ctc", False), ("aed", True), ("aed", False)],
                         ids=["ctc", "ctc no teacher", "aed", "aed no teacher"])
def test_the_staged_gradient_report_is_one_scan_bit_for_bit(task, use_teacher, seed, monkeypatch):
    model, batch, train = _gradient_case(task, use_teacher, seed)
    if task == "aed" and use_teacher:
        masked = teacher_targets(model, [y for _, y in batch], train.lambda_mask, np.random.default_rng(seed))
        seen = [t for y in masked for t in y]
        assert MASK in seen and any(t != MASK for t in seen)
    before = _param_bytes(model)
    recorder = _ScanRecorder(monkeypatch)
    staged = harness.full_gradient_report(model, batch, train, mask_seed=seed)
    staged_values = recorder.take()
    # the staged scan leaves no gradient behind, as one scan does
    assert all(t.grad is None for t in model.store.tensors())
    assert _param_bytes(model) == before
    one = _one_scan(recorder, model, batch, train, seed)
    assert staged == one and repr(staged["rel_err"]) == repr(one["rel_err"])
    assert staged_values == recorder.take()
    assert staged["coordinates"] == sum(t.size for t in model.store.tensors())
    assert _param_bytes(model) == before


# the first tensor of each run of one mark, in store order
RUN_HEADS = {
    ("ctc", True): ["seq.in_proj.w", "seq.out.w", "oracle.embed", "fusion.f0.ln1.g"],
    ("ctc", False): ["seq.in_proj.w", "seq.out.w"],
    ("aed", True): ["seq.src_embed", "seq.tgt_embed", "seq.enc0.ln1.g", "seq.dec0.ln1.g", "oracle.embed",
                    "fusion.f0.ln1.g"],
    ("aed", False): ["seq.src_embed", "seq.tgt_embed", "seq.enc0.ln1.g", "seq.dec0.ln1.g"],
}


def _scan_with_errors(monkeypatch, model, errors) -> list:
    """Stand in for the scan of each run: the i-th scan reports
    ``errors[i]`` at index i of its first tensor (nothing when 0).
    Returns the first tensor's name of each run, as the runs come."""
    names = {id(t): name for name, t in model.store.items()}
    heads = []

    def scan(f, tensors):
        heads.append(names[id(tensors[0])])
        i = len(heads) - 1
        where = (None, None) if errors[i] == 0 else (0, i)
        return errors[i], *where, sum(t.size for t in tensors)

    monkeypatch.setattr(harness, "finite_differences", scan)
    return heads


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_a_gradient_report_takes_a_batch_or_its_items(task):
    # as loss_total does
    model, pairs, train = _gradient_case(task, True, 0)
    report = harness.full_gradient_report(model, pairs, train)
    assert harness.full_gradient_report(model, Batch(pairs), train) == report


@pytest.mark.parametrize("task, use_teacher", sorted(RUN_HEADS))
def test_the_report_cuts_the_store_into_runs_of_one_stage(task, use_teacher, monkeypatch):
    # a tensor no branch reads (the heads', and the teacher's with the
    # teacher off) is marked neither, so the teacher's join the run of the
    # heads before them
    model, batch, train = _gradient_case(task, use_teacher, 0)
    heads = _scan_with_errors(monkeypatch, model, [0.0] * 6)
    report = harness.full_gradient_report(model, batch, train)
    assert heads == RUN_HEADS[task, use_teacher]
    assert report == {"rel_err": 0.0, "param": None, "index": None,
                      "coordinates": sum(t.size for t in model.store.tensors())}


@pytest.mark.parametrize("errors, worst", [
    ([0.5, 0.5, 0.2, 0.0], 0),  # a tie keeps the first
    ([0.1, math.nan, 0.7, math.nan], 3),  # a NaN replaces even a NaN
    ([math.nan, 0.2, 0.9, 0.0], 0),  # nothing replaces a NaN but a NaN
    ([0.0, 0.0, 1e-3, 2e-3], 3),
])
def test_the_runs_fold_by_the_rule_of_one_scan(errors, worst, monkeypatch):
    model, batch, train = _gradient_case("ctc", True, 0)
    heads = _scan_with_errors(monkeypatch, model, errors)
    report = harness.full_gradient_report(model, batch, train)
    assert (report["param"], report["index"]) == (heads[worst], worst)
    assert repr(report["rel_err"]) == repr(errors[worst])


def test_a_gradient_report_ignores_and_clears_stale_gradients():
    # each run's backward pass writes gradients outside its own run of
    # tensors, so the report clears every tensor's gradient at the end
    model, batch, train = _gradient_case("ctc", True, 0)
    clean = harness.full_gradient_report(model, batch, train)
    for t in model.store.tensors():
        t.grad = np.ones_like(t.data)
    assert harness.full_gradient_report(model, batch, train) == clean
    assert all(t.grad is None for t in model.store.tensors())


@pytest.mark.parametrize("task", ["ctc", "aed"])
def test_a_staged_gradient_report_raises_what_one_scan_raises(task, monkeypatch):
    # the objective fails while a coordinate of the last run (fusion and
    # the teacher head) is perturbed, after the encoder's and the oracle's
    # runs have been scanned
    model, batch, train = _gradient_case(task, True, 1)
    before = _param_bytes(model)
    probe = model.store.peek("fusion.f0.ln1.b").data
    kd = objectives.kd_loss

    def kd_failing_off_the_point(*args, **kwargs):
        if probe[1] != 0.0:
            raise ValueError(f"fusion.f0.ln1.b[1] moved to {float(probe[1])!r}")
        return kd(*args, **kwargs)

    monkeypatch.setattr(objectives, "kd_loss", kd_failing_off_the_point)
    recorder = _ScanRecorder(monkeypatch)
    outcomes = []
    for report in (lambda: harness.full_gradient_report(model, batch, train, mask_seed=1),
                   lambda: _one_scan(recorder, model, batch, train, 1)):
        with pytest.raises(ValueError) as raised:
            report()
        outcomes.append(str(raised.value))
        assert _param_bytes(model) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert outcomes[0] == outcomes[1] == f"fusion.f0.ln1.b[1] moved to {T.FD_STEP!r}"


def test_grad_check_encodes_and_guides_only_in_the_runs_that_need_it(monkeypatch):
    # on one CPU every evaluation runs here.  One pass of each branch
    # marks the tensors; the encoder's 608 coordinates then re-run the
    # encoding (1 + 2 * 608 evaluations) and the oracle's 600 the
    # guidance (1 + 2 * 600).  One scan over all 2136 coordinates would
    # make 4273 of each.
    calls = {"encode": 0, "oracle_guidance": 0}
    for name in calls:
        method = getattr(CtcModel, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(CtcModel, name, counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert grad_check_suite().passed
    assert calls == {"encode": 1 + 1217, "oracle_guidance": 1 + 1201}


class TestSvg:
    def test_polylines_for_all_three_losses(self, tmp_path):
        res = train_run(tiny_cfg(), tmp_path / "run")
        svg = (tmp_path / "run" / "loss_curve.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3
        for name in ("l_org", "l_em", "l_kd"):
            assert name in svg

    def test_empty_records_still_render(self):
        svg = loss_curve_svg([])
        assert svg.startswith("<svg") and svg.endswith("</svg>")


# finite floats without a negative zero, whose print could differ from +0's
_MEASURED = st.floats(-1e3, 1e3).map(lambda v: v + 0.0)


@settings(max_examples=150, deadline=None)
@given(st.lists(_MEASURED, min_size=1, max_size=6), st.data())
def test_a_suite_passes_exactly_when_every_clause_value_lies_in_its_range(values, data):
    hi, lo, one = max(values), min(values), values[0]
    # a worst value on its bound holds; ceilings print the largest value,
    # floors the smallest, a two-sided clause its signed value, and plain
    # details print as given, in order
    report = SuiteReport("suite", instances=len(values), ceiling=Clause(values, high=hi), note="n[1]",
                         floor=Clause(values, low=lo), both=Clause([one], -abs(one), abs(one)))
    assert report.passed
    assert report.lines() == [f"[PASS] suite: instances={len(values)}, ceiling={hi:.3e}, note=n[1], "
                              f"floor={lo:.3e}, both={one:.3e}"]
    # one step past a bound, or a NaN at any position, fails the suite
    i = data.draw(st.integers(0, len(values)))
    with_nan = values[:i] + [math.nan] + values[i:]
    for bad in (Clause([*values, np.nextafter(hi, np.inf)], high=hi),
                Clause([*values, np.nextafter(lo, -np.inf)], low=lo),
                Clause([np.nextafter(abs(one), np.inf)], -abs(one), abs(one)),
                Clause([np.nextafter(-abs(one), -np.inf)], -abs(one), abs(one)),
                Clause(with_nan, high=hi), Clause(with_nan, low=lo)):
        assert not SuiteReport("suite", good=Clause(values, high=hi), bad=bad).passed


def test_metrics_header_is_versioned_contract():
    assert METRICS_HEADER == "step,l_org,l_em,l_kd,l_total,ter_student,ter_teacher,rep_ratio"


@pytest.mark.parametrize("row", ["1,0.5,0.5,0.5,1.5,,", "1,0.5,0.5,x,1.5,,,", "1.5,0.5,0.5,0.5,1.5,,,"],
                         ids=["short-row", "non-number-cell", "fractional-step"])
def test_metrics_row_of_the_wrong_width_is_refused(tmp_path, row):
    # a short row, a cell that is not a number and a step that is not an
    # integer are each refused, naming the row and the file
    path = tmp_path / "metrics.csv"
    path.write_text(f"{METRICS_HEADER}\n{row}\n")
    with pytest.raises(ContractError, match="does not match the header") as refused:
        parse_metrics_csv(path)
    assert repr(row) in str(refused.value) and str(path) in str(refused.value)
