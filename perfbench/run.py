"""Closed-loop benchmark of the dvlg decision package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 55 --trace 0

One process, one client, no threads: the next op starts when the
previous one ends. Ops run in whole passes over the workload's inputs
until --seconds have passed, and at least MIN_PASSES whole passes; an
op stops being run again once its runs add up to the workload's op
budget (workloads.OP_BUDGET_S). An op's latency is its fastest run, or
its time limit if any run failed. Each op runs under a time limit
enforced in-process with SIGALRM.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones, measured untraced; with --trace 1 they are the
per-layer ones from spans (see tracing.py). The line before it holds the
full run record, which is also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# set-ups per run; the first at the start, the others spread over the run
# (see timed_set_up)
SETUP_REPEATS = 5
# a run goes on past --seconds until it has made this many whole passes
MIN_PASSES = 3
DVLG_MODULES = (
    "syntax", "errors", "standard", "linear", "rewrites", "parser",
    "boolalg", "reduction", "oracle", "periodic", "corpus", "selfcheck",
)


class OpTimeout(BaseException):
    """The per-op time limit ran out. A BaseException, so that no
    `except Exception` inside the package can swallow it."""


class OpTimer:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._expired)

    def _expired(self, signum, frame):
        if self.armed:
            self.armed = False
            raise OpTimeout()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_dvlg():
    """Import the package afresh from SRC; returns (modules, call table)."""
    for name in [m for m in sys.modules if m == "dvlg" or m.startswith("dvlg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"dvlg.{m}") for m in DVLG_MODULES}
    )
    pkg = Path(sys.modules["dvlg"].__file__).resolve().parent
    if pkg != SRC / "dvlg":
        raise ImportError(f"dvlg imported from {pkg}, not from {SRC}")
    api = SimpleNamespace(
        parse=mods.parser.parse,
        reduce=mods.reduction.reduce,
        assemble_reduct=mods.reduction.assemble_reduct,
        ba_decide=mods.boolalg.ba_decide,
        decide_finite=mods.oracle.decide_finite,
        periodic_witness_search=mods.selfcheck.periodic_witness_search,
        FinStdStructure=mods.standard.FinStdStructure,
        Assignment=mods.oracle.Assignment,
    )
    return mods, api


def set_up(workload: str, seed: int, tracer):
    """Imports plus input generation and parsing: what setup_s times."""
    mods, api = import_dvlg()
    if tracer is not None:
        tracer.install(mods, api)
    return mods, api, W.WORKLOADS[workload](mods, seed)


def _layers_of(exc) -> tuple[str, str]:
    """(entry, raised_in): the first and last dvlg modules on the
    exception's traceback."""
    found = []
    tb = exc.__traceback__
    while tb is not None:
        name = tb.tb_frame.f_globals.get("__name__", "")
        if name.startswith("dvlg."):
            found.append(name[5:])
        tb = tb.tb_next
    return (found[0], found[-1]) if found else ("bench", "bench")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (run record, per-op samples, tracer or None)."""
    limit = W.OP_LIMIT_S[workload]
    budget = W.OP_BUDGET_S[workload]
    tracer = tracing.Tracer() if trace else None
    setup_times, gen_times = [], []

    def timed_set_up():
        """Set up afresh and time it. The speed of the machine changes for
        a minute or more at a time, so the set-ups are spread over the run
        rather than made one after another at its start."""
        t0 = time.perf_counter()
        out = set_up(workload, seed, tracer)
        setup_times.append(time.perf_counter() - t0)
        gen_times.append(out[2].corpus_gen_s)
        return out

    mods, api, wl = timed_set_up()
    # the later set-ups import the package afresh; the ops keep this copy
    ops_modules = {
        k: v for k, v in sys.modules.items() if k == "dvlg" or k.startswith("dvlg.")
    }
    not_decided = (
        RecursionError, OpTimeout,
        mods.errors.ResourceLimit, mods.errors.DepthExceeded,
    )
    timer = OpTimer()
    op_span = (
        tracer.wrap(lambda fn, a: fn(a), "bench", "bench.op") if trace else None
    )

    ops = wl.ops
    gc.collect()  # the garbage of earlier set-ups
    samples = [[] for _ in ops]  # seconds of every execution of each op
    spent = [0.0] * len(ops)
    failed = set()  # indices of ops that failed in some pass
    exec_op = []  # execution id -> index of its op
    first_verdict, failures, near_limit = {}, {}, {}
    verdict_errors = unexpected = 0
    op_id = passes = 0
    t_run = time.perf_counter()
    done = False
    while not done:
        verdicts = {}
        ran = 0
        for idx, op in enumerate(ops):
            # once every op has had MIN_PASSES passes, time may end a pass
            if passes >= MIN_PASSES and time.perf_counter() - t_run >= seconds:
                done = True
                break
            if spent[idx] >= budget:
                continue
            ran += 1
            if trace:
                tracer.begin_op(op_id)
                first_span = tracer.span_count()
            err = None
            op_limit = op.limit or limit
            t0 = time.perf_counter()
            timer.arm(op_limit)
            try:
                try:
                    verdict = op_span(op.run, api) if trace else op.run(api)
                finally:
                    timer.disarm()
            except not_decided as e:
                err = e
            except Exception as e:  # any other crash is a failed op
                err = e
                unexpected += 1
            elapsed = time.perf_counter() - t0
            samples[idx].append(elapsed)
            spent[idx] += elapsed
            exec_op.append(idx)
            if trace:
                tracer.end_op(err is None, first_span, t0 + elapsed)
            if err is None:
                verdicts[op.name] = verdict
                verdict_errors += op.check(verdict)
                if first_verdict.setdefault(op.name, verdict) != verdict:
                    verdict_errors += 1  # the same input changed its verdict
                if elapsed > op_limit / 3:
                    near_limit[op.name] = round(elapsed, 3)
            else:
                failed.add(idx)
                entry, raised_in = _layers_of(err)
                rec = failures.setdefault(op.name, {
                    "error": type(err).__name__, "entry": entry,
                    "raised_in": raised_in, "elapsed_s": round(elapsed, 3),
                    "count": 0,
                })
                rec["count"] += 1
                if not isinstance(err, OpTimeout) and elapsed > op_limit / 3:
                    near_limit[op.name] = round(elapsed, 3)
                del err
                # what a failed op leaves for the collector depends on where
                # it stopped; collect it, untimed, so it cannot carry over
                gc.collect()
            op_id += 1
        for fa, ex in wl.closure_pairs:
            # a universal closure that holds implies the existential one
            if verdicts.get(fa) is True and verdicts.get(ex) is False:
                verdict_errors += 1
        if not done:
            passes += 1
            done = ran == 0
            due = len(setup_times) * seconds / SETUP_REPEATS
            if len(setup_times) < SETUP_REPEATS and time.perf_counter() - t_run >= due:
                timed_set_up()
                sys.modules.update(ops_modules)
    wall = time.perf_counter() - t_run
    while len(setup_times) < SETUP_REPEATS:
        timed_set_up()

    # an op's latency is its fastest run; an op that failed in any run
    # counts as its limit
    latencies = [
        (op.limit or limit) if i in failed else min(s)
        for i, (op, s) in enumerate(zip(ops, samples))
    ]
    end_to_end = {
        "throughput_ops_s": len(ops) / sum(latencies),
        "latency_gmean_ms": math.exp(statistics.fmean(map(math.log, latencies))) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "decided_share": 1 - len(failed) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    record = {
        "workload": workload,
        "provenance": {
            "seed": seed,
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "trace": int(trace),
        },
        "op_limit_s": limit,
        "op_budget_s": budget,
        "seconds": seconds,
        "passes": passes,
        "ops_per_pass": len(ops),
        "attempted": op_id,
        "decided": len(ops) - len(failed),
        "unexpected_errors": unexpected,
        "verdict_errors": verdict_errors,
        "wall_s": wall,
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "failures": [{"input": k, **v} for k, v in sorted(failures.items())],
        "near_limit": near_limit,
    }
    if trace:
        weight = [1.0 / len(samples[i]) for i in exec_op]
        first_exec = {}
        for e, i in enumerate(exec_op):
            first_exec.setdefault(i, e)
        counted = {e for i, e in first_exec.items() if i not in failed}
        layers = tracer.layer_metrics(weight, counted)
        # failed inputs by the layer the op entered
        for layer in ("reduction", "boolalg", "oracle"):
            layers[f"{layer}.errors"] = sum(
                f["entry"] == layer for f in failures.values()
            )
        layers["corpus.gen_s"] = statistics.median(gen_times)
        record["per_layer"] = layers
        record["spans"] = tracer.span_count()
    record["correct"] = (
        verdict_errors == 0 and unexpected == 0
        and len(ops) == W.OPS_PER_PASS[workload]
    )
    per_op = [{"input": op.name, "seconds": s} for op, s in zip(ops, samples)]
    return record, per_op, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dvlg" / "__init__.py").is_file():
        print(f"error: no dvlg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record, per_op, tracer = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = record["per_layer"] if args.trace else record["end_to_end"]
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    (OUT / f"{stem}.ops.json").write_text(json.dumps(per_op) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}.spans.tsv.gz")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["unexpected_errors"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
