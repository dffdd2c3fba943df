"""Steadiness check: run every workload repeatedly in two alternated sets.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 1      # every workload once, every metric

Run from the root of a checkout.  Both sets run the same code; run i of
either set uses seed ``i + 1``, and the set that goes first alternates from
pair to pair (A B, B A, ...).  Each run is a fresh ``run.py`` process of
``run_seconds``, as the benchmark is meant to be run.  For every metric of
every workload this prints the median and quartiles over all runs, the
spread (interquartile range over median), each set's median, the
difference of B from A and each set's own spread, next to the bound from
BENCHMARK.json.  The seeded results ``loss_final`` and ``dev_ter_student``
are listed per seed; the two sets must agree on them exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("loss_final", "dev_ter_student", "digest")


def run_once(workload, seed, seconds):
    """Run one benchmark process; returns (result JSON, {name: (value, unit)})."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.partition(" = ")
        if sep and not line.startswith("#"):
            value, _, unit = rest.partition(" ")
            printed[name] = (value, unit)
    return json.loads(lines[-1]), printed


def number(text):
    try:
        return float(text)
    except ValueError:
        return None


def spread(values):
    """Interquartile range over median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return (q3 - q1) / median if median else 0.0


def report(workload, runs, bounds):
    print(f"\n== {workload}: {len(runs)} runs")
    print(f"{'metric':<22}{'unit':>7}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}"
          f"{'bound':>8}{'A':>13}{'B':>13}{'B-A':>8}{'spr A':>8}{'spr B':>8}")
    names = [n for n in runs[0]["printed"] if n not in EXACT and number(runs[0]["printed"][n][0]) is not None]
    for name in names:
        values = {s: [number(r["printed"][name][0]) for r in runs if r["set"] == s and name in r["printed"]]
                  for s in "AB"}
        every = values["A"] + values["B"]
        median = statistics.median(every)
        q1, _, q3 = statistics.quantiles(every, n=4) if len(every) > 1 else (every[0],) * 3
        a, b = statistics.median(values["A"]), statistics.median(values["B"])
        shift = (b - a) / a if a else 0.0
        bound = f"{bounds[name]:.0%}" if name in bounds else "-"
        print(f"{name:<22}{runs[0]['printed'][name][1]:>7}{median:>13.5g}{q1:>13.5g}{q3:>13.5g}"
              f"{spread(every):>8.1%}{bound:>8}{a:>13.5g}{b:>13.5g}{shift:>+8.1%}"
              f"{spread(values['A']):>8.1%}{spread(values['B']):>8.1%}")
    exact = [n for n in EXACT if n in runs[0]["printed"]]
    if exact:
        print("seed  " + "  ".join(f"{n + ' ' + s:>24}" for n in exact for s in "AB"))
        for seed in sorted({r["seed"] for r in runs}):
            pair = {r["set"]: r["printed"] for r in runs if r["seed"] == seed}
            row = [pair[s][n][0] if s in pair else "-" for n in exact for s in "AB"]
            same = all(pair["A"][n] == pair["B"][n] for n in exact) if len(pair) == 2 else True
            print(f"{seed:<6}" + "  ".join(f"{v:>24}" for v in row) + ("" if same else "  DIFFERENT"))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    sets = ("A",) if args.runs == 1 else ("A", "B")
    incorrect = 0
    for i in range(args.runs):
        seed = i + 1
        for s in sets if i % 2 == 0 else sets[::-1]:
            for w in workloads:
                result, printed = run_once(w, seed, bench["run_seconds"])
                incorrect += not result["correct"]
                results[w].append({"set": s, "seed": seed, "printed": printed})
                print(f"# {w} set {s} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    for w in workloads:
        if args.runs == 1:
            print(f"\n== {w}")
            for name, (value, unit) in results[w][0]["printed"].items():
                print(f"{name} = {value} {unit}".rstrip())
        else:
            report(w, results[w], bounds)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
