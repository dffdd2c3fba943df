"""Failures that leave state unchanged and say what went wrong: the
optimizer step, checkpoint writes, the output-directory lock and target
validation."""

import errno
import os
import subprocess
import sys

import numpy as np
import pytest

from oracle_distill import cli
from oracle_distill.config import RunConfig, config_to_mapping
from oracle_distill.errors import ContractError, TrainingAbort, VocabularyError
from oracle_distill import harness, models
from oracle_distill.harness import _acquire_lock, train_run
from oracle_distill.models import AedModel, ModelConfig, save_checkpoint
from oracle_distill.objectives import Adam, TrainConfig, loss_total
from oracle_distill.tensor import Tensor

from helpers import record_calls


class TestAtomicAdam:
    def test_nan_in_a_later_tensor_moves_nothing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([[3.0, 4.0]], requires_grad=True)
        c = Tensor([5.0], requires_grad=True)
        opt = Adam([a, b, c], lr=0.1)
        for _ in range(2):  # moments and t away from zero
            opt.zero_grad()
            a.grad += [0.5, -0.5]
            b.grad += [[0.1, 0.2]]
            c.grad += [0.3]
            opt.step()
        state = lambda: (opt.t, [x.tobytes() for x in (a.data, b.data, c.data, opt.m, opt.v)])
        before = state()
        # the middle tensor's gradient, written into the flat gradient or
        # rebound to a foreign array
        for bad in (np.nan, np.inf):
            for foreign in (False, True):
                opt.zero_grad()
                a.grad += [0.5, -0.5]
                if foreign:
                    b.grad = np.array([[0.1, bad]])
                else:
                    b.grad[0, 1] = bad
                with pytest.raises(TrainingAbort, match=r"parameter 1 of shape \(1, 2\)"):
                    opt.step()
                assert state() == before


class TestAtomicCheckpoint:
    def _model(self, seed):
        return models.CtcModel(
            ModelConfig(task="ctc", vocab_size=3, feature_dim=4, d_model=8, enc_layers=1,
                        heads=2, ffn_dim=16),
            seed=seed,
        )

    def test_write_failing_mid_file_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self._model(0), path)
        old = path.read_bytes()

        class HalfWritten:
            """A file that takes half of what it is given, then runs out of space."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(models, "open", lambda *a, **kw: HalfWritten(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(self._model(1), path)
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_failed_swap_removes_the_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"

        def no_replace(src, dst):
            raise PermissionError("replace refused")

        monkeypatch.setattr(models.os, "replace", no_replace)
        with pytest.raises(PermissionError):
            save_checkpoint(self._model(0), path)
        assert list(tmp_path.iterdir()) == []


class TestLock:
    def test_lock_holds_the_pid_and_names_a_live_holder(self, tmp_path):
        lock = _acquire_lock(tmp_path)
        assert lock.read_text() == f"{os.getpid()}\n"
        with pytest.raises(ContractError, match=rf"pid {os.getpid()}, which is still running"):
            _acquire_lock(tmp_path)

    def test_lock_of_an_exited_process_is_reported_stale_and_kept(self, tmp_path):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        assert child.wait(timeout=60) == 0
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text(f"{child.pid}\n")
        cfg = RunConfig(task="ctc", steps=2, n_examples=40)
        with pytest.raises(ContractError, match=rf"pid {child.pid}, which is not running"):
            train_run(cfg, out)
        assert (out / ".lock").read_text() == f"{child.pid}\n"

    def test_lock_without_a_pid_has_an_unknown_holder(self, tmp_path):
        (tmp_path / ".lock").touch()
        with pytest.raises(ContractError, match="holder unknown"):
            _acquire_lock(tmp_path)

    def test_a_pid_that_cannot_be_written_leaves_no_lock(self, tmp_path, monkeypatch):
        real_fdopen = os.fdopen

        class FullDisk:
            """The lock file, whose write fails as on a full disk."""

            def __init__(self, fd, *args, **kwargs):
                self.fh = real_fdopen(fd, *args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        cfg = RunConfig(task="ctc", steps=2, n_examples=40)
        with monkeypatch.context() as patch:
            patch.setattr(harness.os, "fdopen", FullDisk)
            with pytest.raises(OSError) as info:
                train_run(cfg, tmp_path / "run")
        assert info.value.errno == errno.ENOSPC
        assert not (tmp_path / "run" / ".lock").exists()
        assert len(train_run(cfg, tmp_path / "run").records) == 2


def _aed():
    model = AedModel(
        ModelConfig(task="aed", vocab_size=4, d_model=8, enc_layers=1, dec_layers=1,
                    heads=2, ffn_dim=16),
        seed=0,
    )
    return model, TrainConfig(alpha=5.0, lambda_mask=0.5)


def test_end_symbol_in_target_rejected_with_teacher_off():
    model, cfg = _aed()
    cfg.use_teacher = False
    batch = [((1, 2), (2, model.eos))]
    with pytest.raises(VocabularyError):
        loss_total(model, batch, cfg, np.random.default_rng(0))
    with pytest.raises(VocabularyError):
        loss_total(model, batch, cfg, None)


def test_term_views_equal_the_total_breakdown(monkeypatch):
    """A metrics row holds the values of the step's terms (0.0 for an
    absent one) and of its total, which is their weighted sum exactly."""
    batch = [((1, 2, 3), (3, 1)), ((4, 2), (2, 2, 1))]
    steps = record_calls(monkeypatch, harness, "loss_total")
    records = []
    for use_teacher in (True, False):
        model, cfg = _aed()
        cfg.use_teacher, cfg.steps, cfg.batch_size = use_teacher, 1, 2
        records += harness.fit_loop(model, batch, cfg)
        _, out = steps[-1]
        l_org, l_em, l_kd = (0.0 if t is None else t.item() for t in out.terms)
        assert (records[-1].l_org, records[-1].l_em, records[-1].l_kd) == (l_org, l_em, l_kd)
        assert records[-1].l_total == out.total.item() == l_org + l_em + cfg.alpha * l_kd
    # the teacher-off total is l_org alone, the same l_org as with the teacher
    assert out.terms[1:] == (None, None) and out.total is out.terms[0]
    assert records[1].l_total == records[0].l_org


def _aed_checkpoint(tmp_path):
    path = tmp_path / "aed.txt"
    save_checkpoint(_aed()[0], path, run_config=config_to_mapping(RunConfig(task="aed")))
    return path


def _checkpoint(tmp_path, model_cfg: ModelConfig, **run):
    """A checkpoint of an untrained model with the run header of ``run``."""
    path = tmp_path / "model.txt"
    save_checkpoint(models.build_model(model_cfg), path, run_config=config_to_mapping(RunConfig(**run)))
    return path


def _config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


# a knob that the task never reads, set in a config file
UNREAD_KNOBS = [("ctc", "rule", "sort"), ("ctc", "copy_noise", 0.9), ("ctc", "dec_layers", 7),
                ("ctc", "lambda_mask", 0.9), ("ctc", "temperature", 4.0),
                ("aed", "kd_form", "kl"), ("aed", "noise", 2.0), ("aed", "frames_max", 9)]


# argv (given a scratch directory), exit code, and a line the message contains
BAD_CLI_INPUTS = {
    "check-ctc over no instance": (lambda d: ["check-ctc", "--instances", "0"], 1,
                                   "error: a suite needs at least one instance, got 0"),
    "check-ctc over -3 instances": (lambda d: ["check-ctc", "--instances", "-3"], 1,
                                    "error: a suite needs at least one instance, got -3"),
    "bound-check over no instance": (lambda d: ["bound-check", "--instances", "0", "--out", str(d / "bc")], 1,
                                     "error: a suite needs at least one instance, got 0"),
    "train --seed -1": (lambda d: ["train", "--seed", "-1", "--out", str(d / "run")], 2,
                        "argument --seed: expected a nonnegative integer, got '-1'"),
    "check-ctc --seed -1": (lambda d: ["check-ctc", "--seed", "-1"], 2,
                            "argument --seed: expected a nonnegative integer, got '-1'"),
    "seed -1 in a config file": (
        lambda d: ["train", "--config", str(_config_file(d, "seed = -1\nsteps = 2\n")),
                   "--out", str(d / "run")],
        2, "configuration error: seed must be nonnegative"),
    "no example in a config file": (
        lambda d: ["train", "--config", str(_config_file(d, "n_examples = 0\nsteps = 2\n")),
                   "--out", str(d / "run")],
        2, "configuration error: n_examples must be positive, got 0"),
    "one example, which seed 5 deals to no train split": (
        lambda d: ["train", "--config", str(_config_file(d, "n_examples = 1\nsteps = 2\n")),
                   "--seed", "5", "--out", str(d / "run")],
        2, "configuration error: n_examples = 1 at data_seed 5 leaves the train split empty"),
    "a negative eval period in a config file": (
        lambda d: ["train", "--config", str(_config_file(d, "eval_every = -7\nsteps = 2\n")),
                   "--out", str(d / "run")],
        2, "configuration error: eval_every must be nonnegative (0: never), got -7"),
    "noise nan in a config file": (
        lambda d: ["gen-data", "--config", str(_config_file(d, "noise = nan\n")), "--out", str(d / "x")],
        2, "configuration error: noise must be finite and nonnegative, got nan"),
    "alignment dump of an aed checkpoint": (
        lambda d: ["dump", "--checkpoint", str(_aed_checkpoint(d)), "--example-id", "0",
                   "--what", "alignment", "--out", str(d / "dump")], 1,
        "error: alignment dumps need a ctc checkpoint"),
    "eval of an aed model under a ctc run header": (
        lambda d: ["eval", "--checkpoint", str(_checkpoint(d, ModelConfig(task="aed"), task="ctc"))], 1,
        "error: the checkpoint's run header gives task = 'ctc', its model header 'aed'"),
    "eval of a ctc model under a run header of another feature width": (
        lambda d: ["eval", "--checkpoint", str(_checkpoint(d, ModelConfig(), feature_dim=5))], 1,
        "error: the checkpoint's run header gives feature_dim = 5, its model header 8"),
    "dump of a ctc model under a run header of another feature width": (
        lambda d: ["dump", "--checkpoint", str(_checkpoint(d, ModelConfig(), feature_dim=5)),
                   "--example-id", "0", "--what", "alignment", "--out", str(d / "dump")], 1,
        "error: the checkpoint's run header gives feature_dim = 5, its model header 8"),
    "eval of a checkpoint whose run header sets a knob its task never reads": (
        lambda d: ["eval", "--checkpoint", str(_checkpoint(d, ModelConfig(), rule="sort"))], 2,
        "configuration error: rule = 'sort' is not read by task ctc"),
}
BAD_CLI_INPUTS.update({
    f"{knob} = {value} on {task}": (
        lambda d, task=task, knob=knob, value=value: [
            "train", "--config", str(_config_file(d, f"task = {task}\n{knob} = {value}\n")),
            "--out", str(d / "run")],
        2, f"configuration error: {knob} = {value!r} is not read by task {task}")
    for task, knob, value in UNREAD_KNOBS
})

# a flag that a command does not read is refused, not ignored
_UNREAD_FLAGS = [
    (["eval", "--checkpoint", "m.txt"], "--config"),
    (["eval", "--checkpoint", "m.txt"], "--out"),
    (["check-ctc"], "--config"),
    (["check-ctc"], "--out"),
    (["grad-check"], "--config"),
    (["grad-check"], "--out"),
    (["bound-check"], "--config"),
    (["dump", "--checkpoint", "m.txt", "--example-id", "0", "--what", "attention"], "--config"),
    (["dump", "--checkpoint", "m.txt", "--example-id", "0", "--what", "attention"], "--seed"),
]
BAD_CLI_INPUTS.update({
    f"{argv[0]} {flag}": (lambda d, argv=argv, flag=flag: [*argv, flag, str(d / "x")], 2,
                          f"unrecognized arguments: {flag}")
    for argv, flag in _UNREAD_FLAGS
})


@pytest.mark.parametrize("case", BAD_CLI_INPUTS)
def test_bad_cli_input_exits_with_a_message(case, tmp_path, capsys):
    argv, code, message = BAD_CLI_INPUTS[case]
    argv = argv(tmp_path)
    try:
        returned = cli.main(argv)
    except SystemExit as exc:  # argparse refuses an argument with a usage message
        returned = exc.code
    err = capsys.readouterr().err
    assert returned == code
    assert message in err
    assert "Traceback" not in err
    # nothing was trained, dumped or reported, and no output directory made
    assert not (tmp_path / "run").exists() and not (tmp_path / "dump").exists()
    assert not (tmp_path / "bc").exists() and not (tmp_path / "x").exists()


def test_suite_seed_defaults_to_zero(capsys):
    printed = []
    for seed in ([], ["--seed", "0"]):
        assert cli.main(["check-ctc", "--instances", "3", *seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and printed[0].startswith("[PASS]")
