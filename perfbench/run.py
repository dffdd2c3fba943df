"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-ctc --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every metric is printed as
``name = value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import os

# One BLAS/OpenMP thread: no matrix here is wider than 64, and an idle
# pool on a small machine only adds noise.  Must precede the numpy import.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# set-up is timed this many times per run and reported as the median
SETUP_REPEATS = 25

# units of the metrics printed besides those of BENCHMARK.json
INFO_UNITS = {
    "raw_setup_s": "s",
    "raw_throughput_per_s": "1/s",
    "raw_op_ms_p50": "ms",
    "raw_op_ms_p90": "ms",
    "host_kernel_ms": "ms",
    "teacher_op_ms_p50": "ms",
    "success_rate": "ratio",
    "loss_final": "nats",
    "dev_ter_student": "ratio",
    "check_ctc_s": "s",
    "grad_check_s": "s",
    "bound_check_s": "s",
}


class HostSpeed:
    """Times a fixed kernel every ``INTERVAL_S`` seconds, from a timer
    signal, for as long as the block runs.

    The host's speed drifts by 15 % from second to second and from run to
    run.  A kernel that, like the program, builds graphs of small arrays and
    walks 8 MB of them follows that drift far better than a small arithmetic
    loop does.  It calls nothing of the package and runs with the garbage
    collector off, so the package's own objects cost it nothing; README.md
    shows an A/B pair where a slower, allocation-heavy package left it
    unchanged.  ``scale`` converts the time of an interval of the run to
    the time it would have taken at the reference speed, from the median
    of the samples taken within ``PAD_S`` of it; ``scaled`` does so for
    each ``PIECE_S`` piece of a longer interval."""

    # the order of the kernel's median time, in seconds, on the 2-core VM
    # the benchmark was tuned on (0.6 to 1.0 ms); it only sets the scale of
    # the reported times
    REFERENCE_S = 1.0e-3

    # the drift moves within seconds: an operation is scaled by the samples
    # taken at most this long before it starts or after it ends
    PAD_S = 0.5

    INTERVAL_S = 0.05

    # a longer interval is scaled piece by piece, so that the drift within
    # it weighs as long as it lasted, not by its share of the samples
    PIECE_S = 2.0

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.times = []  # start of each sample, ascending
        self.samples = []  # duration of each sample
        self._np = numpy
        self._weight = rng.standard_normal((32, 32)) * 0.2
        self._arrays = [rng.standard_normal((8, 32)) for _ in range(4000)]
        self._next = 0

    def _kernel(self):
        np = self._np
        # a softmax chain with one backward closure per node, replayed
        x, nodes = self._arrays[0], []
        for _ in range(20):
            h = x @ self._weight
            e = np.exp(h - h.max(axis=-1, keepdims=True))
            x = e / e.sum(axis=-1, keepdims=True)
            nodes.append((x, lambda g, s=x: g * s))
        g = np.ones_like(x)
        for _, backward in reversed(nodes):
            g = backward(g)
        # a strided walk over the 8 MB of small arrays
        j = self._next
        for _ in range(150):
            j = (j + 997) % len(self._arrays)
            float((self._arrays[j] * self._arrays[j]).sum())
        self._next = j

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        self.times.append(t0)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        lo = bisect.bisect_left(self.times, start - self.PAD_S)
        hi = bisect.bisect_right(self.times, end + self.PAD_S)
        return self.REFERENCE_S / statistics.median(self.samples[lo:hi] or self.samples)

    def scaled(self, intervals):
        """Durations of ``(start, end)`` intervals at the reference speed."""
        out = []
        for start, end in intervals:
            n = max(1, math.ceil((end - start) / self.PIECE_S))
            edges = [start + (end - start) * k / n for k in range(n + 1)]
            out.append(sum((b - a) * self.scale(a, b) for a, b in zip(edges, edges[1:])))
        return out


def import_package():
    """Import ``oracle_distill`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "oracle_distill" / "__init__.py").is_file():
        sys.exit(f"error: no oracle_distill package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import oracle_distill
    import numpy

    if Path(oracle_distill.__file__).resolve().parent != (SRC / "oracle_distill").resolve():
        sys.exit(f"error: oracle_distill was imported from {oracle_distill.__file__}, not {SRC}")
    return numpy.__version__


def percentile_p90(values):
    """The 90th percentile, or the highest one with at least ten values
    beyond it when there are fewer than 100; the maximum below 11 values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1]
    return ordered[min(n - 11, math.ceil(0.9 * n) - 1)]


def measure(workload, seconds, tracer, out):
    """Passes while the next one would be half done by ``seconds``; at least one."""
    start = time.perf_counter()
    last = 0.0
    while not out["passes"] or (time.perf_counter() - start) + last / 2 <= seconds:
        idx = tracer.open("pass")
        result = workload.run_pass(tracer)
        last = tracer.close(idx)
        out["passes"] += 1
        out["attempted"] += result.ops
        out["failed"] += result.failed
        out["items"] += result.items
        for key, value in result.info.items():
            out["info"].setdefault(key, []).append(value)
    return out


def new_tally():
    return {"passes": 0, "attempted": 0, "failed": 0, "items": 0, "info": {}}


def time_setup(workload, tracer, repeats):
    for _ in range(repeats):
        idx = tracer.open("setup")
        workload.setup()
        tracer.close(idx)


def run(name, seed, seconds, traced, work_dir):
    """Returns (correct, attempted, failed, metrics, info)."""
    import tracing
    import workloads

    workload = workloads.make(name, seed, work_dir)
    plain = tracing.Tracer()
    if not traced:
        with HostSpeed() as host:
            time_setup(workload, plain, SETUP_REPEATS)
            tally = measure(workload, seconds, plain, new_tally())
        return summarize(workload, plain, tally, host)
    # untraced half first, for the overhead ratio, then the traced half
    layered = tracing.Tracer()
    with HostSpeed() as host:
        time_setup(workload, plain, 1)
        untraced = measure(workload, seconds / 2, plain, new_tally())
        tracing.install_layers(layered)
        try:
            time_setup(workload, layered, 1)
            traced_tally = measure(workload, seconds / 2, layered, new_tally())
        finally:
            layered.restore()
    n_ops = sum(1 for s in layered.spans if s[0] in tracing.OP_KINDS)
    metrics = tracing.layer_metrics(layered, n_ops)
    metrics["trace.overhead_ratio"] = (
        traced_tally["items"] / sum(host.scaled(layered.intervals("pass")))
    ) / (untraced["items"] / sum(host.scaled(plain.intervals("pass"))))
    violations = layered.self_time_violations()
    attempted = untraced["attempted"] + traced_tally["attempted"]
    failed = untraced["failed"] + traced_tally["failed"]
    correct = failed == 0 and violations == 0
    info = {"self_time_violations": violations, "passes": untraced["passes"] + traced_tally["passes"]}
    return correct, attempted, failed, metrics, info


def summarize(workload, tracer, tally, host):
    """End-to-end metrics at the reference speed; the raw ones go to info."""
    ops = tracer.intervals(workload.op)
    passes = tracer.intervals("pass")
    setups = tracer.intervals("setup")
    raw = {
        "setup_s": statistics.median(e - s for s, e in setups),
        "throughput_per_s": tally["items"] / sum(e - s for s, e in passes),
        "op_ms_p50": statistics.median(e - s for s, e in ops) * 1e3,
        "op_ms_p90": percentile_p90([e - s for s, e in ops]) * 1e3,
    }
    op_times = host.scaled(ops)
    metrics = {
        "setup_s": statistics.median(host.scaled(setups)),
        "throughput_per_s": tally["items"] / sum(host.scaled(passes)),
        "op_ms_p50": statistics.median(op_times) * 1e3,
        "op_ms_p90": percentile_p90(op_times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "success_rate": (tally["attempted"] - tally["failed"]) / tally["attempted"],
        "ops": len(ops),
        "passes": tally["passes"],
        "host_samples": len(host.samples),
        "host_kernel_ms": statistics.median(host.samples) * 1e3,
    }
    info.update({f"raw_{k}": v for k, v in raw.items()})
    teacher = tracer.intervals("teacher")
    if teacher:
        info["teacher_op_ms_p50"] = statistics.median(host.scaled(teacher)) * 1e3
    for key in ("loss_final", "dev_ter_student"):
        values = tally["info"].get(key)
        if values and values[-1] is not None:
            info[key] = values[-1]
    for suite in ("check_ctc", "grad_check", "bound_check"):
        spans = tracer.intervals(f"harness.{suite}_suite")
        if spans:
            info[f"{suite}_s"] = statistics.median(host.scaled(spans))
    if "digest" in tally["info"]:
        # a pass whose digest differs from the first one fails its operations
        info["digest"] = tally["info"]["digest"][0]
    return tally["failed"] == 0, tally["attempted"], tally["failed"], metrics, info


def main(argv=None):
    numpy_version = import_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        correct, attempted, failed, metrics, info = run(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is still using it

    missing = [m for m in wanted if m not in metrics]
    if missing:
        sys.exit(f"error: workload {args.workload} produced no value for {missing}")
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={numpy_version} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    )
    for key, value in info.items():
        unit = INFO_UNITS.get(key, "")
        print(f"{key} = {value} {unit}".rstrip())
    for key in wanted:
        print(f"{key} = {metrics[key]!r} {units[key]}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
