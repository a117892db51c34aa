"""Checks on the benchmark itself, run from the root of a checkout.

    python3 perfbench/check.py spread WORKLOAD [--seeds 1 2 ...] [--sets 1|2]
    python3 perfbench/check.py trace WORKLOAD [--seed N]
    python3 perfbench/check.py seeds WORKLOAD [--seeds A B]
    python3 perfbench/check.py empty

spread  runs one untraced run per seed (per set) and prints, for each
        end-to-end metric, the median, the quartiles and the spread
        (third minus first quartile, over the median); with two sets it
        also compares their medians. Passes when every spread but that
        of setup_s is under a third of the metric's bound and the second
        median is within the bound of the first.
trace   runs two traced runs and one untraced run on one seed. Passes
        when the count metrics of the two traced runs are identical and
        the workload's premise holds in the trace; prints the tracing
        overhead as traced minus untraced.
seeds   passes when every seed gives the same ops per pass and no wrong
        verdict.
empty   runs the benchmark in a directory that holds only BENCHMARK.json
        and perfbench/; passes when it exits non-zero without a result.

Every run is a child process that is waited for; one runs at a time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count/pass", "ratio")

# layers whose self time must dominate each workload's trace
PREMISE = {
    "decide": ("parser.self_s", "rewrites.self_s", "reduction.self_s", "boolalg.self_s"),
    "models": ("oracle.self_s", "linear.self_s", "rewrites.oracle_self_s",
               "periodic.self_s", "selfcheck.witness_self_s"),
}
SELF_TIMES = ("parser", "rewrites", "reduction", "boolalg", "oracle", "linear",
              "periodic", "selfcheck", "bench")


def bench(workload: str, seed: int, trace: int, cwd=ROOT) -> tuple[dict, dict]:
    """One run; returns (run record, final result)."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def spread(values) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def cmd_spread(args) -> bool:
    sets = []
    for s in range(args.sets):
        runs = []
        for seed in args.seeds:
            record, result = bench(args.workload, seed, 0)
            if not result["correct"]:
                print(f"seed {seed}: incorrect; record: {json.dumps(record)}")
                return False
            runs.append(result["metrics"])
            print(f"set {s + 1} seed {seed}: passes {record['passes']}, "
                  f"wall {record['wall_s']:.1f}s", flush=True)
        sets.append(runs)
    ok = True
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        for s, runs in enumerate(sets):
            med, q1, q3, sp = spread([r[name]["value"] for r in runs])
            steady = name == "setup_s" or sp <= bound / 3
            ok &= steady
            print(f"{name:18} set {s + 1}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {sp:.4f} (bound/3 {bound / 3:.4f}) {'ok' if steady else 'WIDE'}")
        if len(sets) == 2:
            a = statistics.median(r[name]["value"] for r in sets[0])
            b = statistics.median(r[name]["value"] for r in sets[1])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            within = worse <= bound
            ok &= within
            print(f"{name:18} second median worse by {worse:+.4f} (bound {bound}) "
                  f"{'ok' if within else 'REGRESSED'}")
    return ok


def cmd_trace(args) -> bool:
    first, r1 = bench(args.workload, args.seed, 1)
    second, r2 = bench(args.workload, args.seed, 1)
    plain, _ = bench(args.workload, args.seed, 0)
    ok = r1["correct"] and r2["correct"]
    for m in SPEC["per_layer"]:
        a, b = r1["metrics"][m["name"]]["value"], r2["metrics"][m["name"]]["value"]
        if m["unit"] in COUNT_UNITS and a != b:
            ok = False
            print(f"count differs between traced runs: {m['name']} {a} vs {b}")
    layers = first["per_layer"]
    total = sum(layers[f"{x}.self_s"] for x in SELF_TIMES)
    share = sum(layers[k] for k in PREMISE[args.workload]) / total
    ok &= share > 0.5
    print(f"premise: {' + '.join(PREMISE[args.workload])} = {share:.1%} of self time")
    if args.workload == "decide":
        ok &= layers["oracle.calls"] == 0
        print(f"decide: oracle.calls = {layers['oracle.calls']}")
    for name, value in sorted(layers.items()):
        print(f"  {name:30} {value:.6g}")
    print("tracing overhead (traced - untraced):")
    for m in SPEC["end_to_end"]:
        t, u = first["end_to_end"][m["name"]], plain["end_to_end"][m["name"]]
        print(f"  {m['name']:18} {t - u:+.6g} {m['unit']} ({(t - u) / u:+.1%})")
    print(f"spans recorded: {first['spans']}")
    return ok


def cmd_seeds(args) -> bool:
    ok, per_pass = True, set()
    for seed in args.seeds:
        record, result = bench(args.workload, seed, 0)
        per_pass.add(record["ops_per_pass"])
        ok &= result["correct"] and record["verdict_errors"] == 0
        print(f"seed {seed}: ops/pass {record['ops_per_pass']}, "
              f"verdict_errors {record['verdict_errors']}, "
              f"failures {[(f['input'], f['error']) for f in record['failures']]}")
    return ok and len(per_pass) == 1


def cmd_empty(args) -> bool:
    where = ROOT / "perfbench" / "out" / "empty-check"
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", where)
    shutil.copytree(ROOT / "perfbench", where / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", "decide", "--seed", "1",
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True, timeout=180)
    shutil.rmtree(where)
    print(f"exit {proc.returncode}; stdout {proc.stdout!r}; stderr {proc.stderr.strip()!r}")
    return proc.returncode != 0 and not proc.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description="checks on the benchmark")
    sub = ap.add_subparsers(dest="cmd", required=True)
    workloads = [w["name"] for w in SPEC["workloads"]]
    p = sub.add_parser("spread")
    p.add_argument("workload", choices=workloads)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p = sub.add_parser("trace")
    p.add_argument("workload", choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("seeds")
    p.add_argument("workload", choices=workloads)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    sub.add_parser("empty")
    args = ap.parse_args()
    ok = {"spread": cmd_spread, "trace": cmd_trace, "seeds": cmd_seeds,
          "empty": cmd_empty}[args.cmd](args)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
