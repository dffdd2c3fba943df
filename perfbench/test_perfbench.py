"""Tests of the benchmark itself: short runs of one seed repeat exactly.

    python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle_distill import harness  # noqa: E402

# per-layer counts that must not depend on timing
COUNTS = (
    "tensor.tape_nodes_per_step",
    "tensor.tape_nodes_per_decode",
    "ctc.dp_cells_per_step",
    "ctc.enumeration.paths_scanned",
    "models.decode_positions_per_token",
    "models.param_reads_per_step",
    "models.aux_reads_student_decode",
    "models.checkpoint_bytes",
)

SMALL_SUITES = (
    ("check_ctc", lambda: harness.check_ctc_suite(6)),
    ("bound_check", lambda: harness.bound_check_suite(6)),
)


def traced_pass(workload):
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    try:
        workload.setup()
        result = workload.run_pass(tracer)
    finally:
        tracer.restore()
    n_ops = sum(1 for s in tracer.spans if s[0] in tracing.OP_KINDS)
    return result, tracing.layer_metrics(tracer, n_ops), tracer


def twice(make):
    return [traced_pass(make()) for _ in range(2)]


def assert_repeats(runs):
    (first, layers_1, _), (second, layers_2, _) = runs
    assert first.failed == 0 and second.failed == 0
    seeded = [k for k in ("loss_final", "dev_ter_student", "digest") if k in first.info]
    assert "digest" in seeded
    assert [first.info[k] for k in seeded] == [second.info[k] for k in seeded]
    for name in COUNTS:
        assert layers_1[name] == layers_2[name], name


def test_train_ctc_repeats_exactly(tmp_path):
    runs = twice(lambda: workloads.TrainWorkload("ctc", 3, tmp_path, steps=6))
    assert_repeats(runs)
    result, layers, tracer = runs[0]
    assert {"loss_final", "dev_ter_student", "digest"} <= set(result.info)
    assert layers["ctc.dp_cells_per_step"] > 0
    assert layers["tensor.tape_nodes_per_step"] > 0
    assert layers["models.aux_reads_student_decode"] == 0
    assert tracer.self_time_violations() == 0
    assert len(tracer.intervals("step")) == 6


def test_train_aed_runs_no_ctc_dp(tmp_path):
    runs = twice(lambda: workloads.TrainWorkload("aed", 4, tmp_path, steps=3))
    assert_repeats(runs)
    _, layers, tracer = runs[0]
    assert layers["ctc.dp_cells_per_step"] == 0
    assert layers["models.decode_positions_per_token"] > 1
    assert layers["models.aux_reads_student_decode"] == 0
    assert tracer.self_time_violations() == 0


def test_decode_repeats_and_reads_no_aux_param():
    runs = twice(lambda: workloads.DecodeWorkload(5, limit=4))
    assert_repeats(runs)
    result, layers, _ = runs[0]
    assert result.ops == 8
    assert layers["ctc.dp_cells_per_step"] == 0
    assert layers["tensor.tape_nodes_per_step"] == 0
    assert layers["tensor.tape_nodes_per_decode"] > 0
    assert layers["models.aux_reads_student_decode"] == 0


def test_verify_repeats_enumeration_counts():
    runs = twice(lambda: workloads.VerifyWorkload(1, suites=SMALL_SUITES))
    assert_repeats(runs)
    _, layers, _ = runs[0]
    assert layers["ctc.enumeration.paths_scanned"] > 0
    assert 0 < layers["ctc.enumeration.feasible_ratio"] < 1


def test_layers_are_restored_after_tracing():
    originals = (harness.loss_total, harness.evaluate, harness.backward)
    traced_pass(workloads.VerifyWorkload(0, suites=SMALL_SUITES[:1]))
    assert (harness.loss_total, harness.evaluate, harness.backward) == originals


def test_examples_seen_counts_partial_batches():
    assert workloads._examples_seen(20, 8, 3) == 20
    assert workloads._examples_seen(20, 8, 4) == 28
    assert workloads._examples_seen(16, 8, 3) == 24


def test_p90_keeps_ten_values_beyond():
    assert run.percentile_p90(list(range(5))) == 4
    assert run.percentile_p90(list(range(50))) == 39
    assert run.percentile_p90(list(range(1000))) == 899


def test_fails_without_the_package(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
