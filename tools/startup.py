"""Start-up cost of the dvlg command line, written to BENCH_startup.json.

For each source tree given, in two bytecode states, this records:
- the fastest of COLD_REPEATS cold wall times, each a new interpreter,
  of `python -c pass`, `dvlg decide` and `dvlg reduce` on fixed
  sentences (the verbs run as the console script does: import
  dvlg.cli and call main);
- the fastest of IMPORT_REPEATS fresh imports of the package's modules
  in one process, each after removing them from sys.modules.

The bytecode states are `none` (PYTHONDONTWRITEBYTECODE=1: every
package module is compiled from source at each start, and the tree must
hold no __pycache__ under src/dvlg) and `cached` (PYTHONPYCACHEPREFIX
set to a temporary directory that one untimed run fills first, so that
nothing is written into the tree).

The trees are measured in turn within each repeat, in an order that
alternates from one repeat to the next, so that a drift in the speed of
the machine reaches every tree alike. A tree's record is stored under
its label and replaces any earlier record under that label; records
under other labels are kept.

    python tools/startup.py                      # this checkout, as "change"
    python tools/startup.py --tree parent=../old --tree change=.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COLD_REPEATS = 15
IMPORT_REPEATS = 9
DECIDE = "forall a:G. exists b:G. b + b = a"
REDUCE = "forall l:L. forall m:L. exists x:G. l << P(x - a) & m << P(b - x)"
MAIN = "import sys; from dvlg.cli import main; sys.exit(main())"
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "dvlg decide": ["-c", MAIN, "decide", DECIDE],
    "dvlg reduce": ["-c", MAIN, "reduce", REDUCE],
}
# the modules that a fresh in-process import loads, as perfbench/run.py does
MODULES = (
    "syntax", "errors", "standard", "linear", "rewrites", "parser",
    "boolalg", "reduction", "oracle", "periodic", "corpus", "selfcheck",
)
IMPORT_SCRIPT = f"""
import importlib, sys, time
best = None
for _ in range({IMPORT_REPEATS}):
    for name in [m for m in sys.modules if m == "dvlg" or m.startswith("dvlg.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    t0 = time.perf_counter()
    for m in {MODULES!r}:
        importlib.import_module("dvlg." + m)
    t = time.perf_counter() - t0
    best = t if best is None else min(best, t)
print(best)
"""


def git(tree: Path, *args: str) -> str:
    out = subprocess.run(
        ["git", "-C", str(tree), *args], capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def environment(tree: Path, state: str, prefix: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tree / "src")
    if state == "none":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = prefix
    return env


def wall(args: list, env: dict) -> float:
    """The wall time of one run of the interpreter on args, which must
    exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{args} exited {proc.returncode}: {proc.stderr.decode()}")
    return elapsed


def measure(trees: dict, state: str, prefix: str) -> dict:
    """label -> its fastest times in seconds, for one bytecode state."""
    envs = {label: environment(tree, state, f"{prefix}/{label}")
            for label, tree in trees.items()}
    for env in envs.values():  # fills the cache; untimed
        for args in COMMANDS.values():
            wall(args, env)
    walls = {label: {name: [] for name in COMMANDS} for label in trees}
    labels = list(trees)
    for i in range(COLD_REPEATS):
        for label in labels if i % 2 == 0 else labels[::-1]:
            for name, args in COMMANDS.items():
                walls[label][name].append(wall(args, envs[label]))
    out = {}
    for label in labels:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_SCRIPT],
            env=envs[label], capture_output=True, text=True, check=True,
        )
        cold = {name: min(times) for name, times in walls[label].items()}
        out[label] = {
            "cold_wall_s": cold,
            "decide_minus_pass_s": cold["dvlg decide"] - cold["python -c pass"],
            "import_s": float(proc.stdout),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--tree", action="append", default=[], metavar="LABEL=DIR",
        help="a source tree to measure under LABEL (default: change=<this checkout>)",
    )
    args = ap.parse_args(argv)
    trees = {}
    for item in args.tree or [f"change={ROOT}"]:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    for label, tree in trees.items():
        if (tree / "src" / "dvlg" / "__pycache__").exists():
            raise SystemExit(f"{tree}/src/dvlg/__pycache__ exists: remove it first")
    with tempfile.TemporaryDirectory() as prefix:
        results = {state: measure(trees, state, prefix) for state in ("none", "cached")}
    out_path = ROOT / "BENCH_startup.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update({
        "tool": "tools/startup.py",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "cold_repeats": COLD_REPEATS,
        "import_repeats": IMPORT_REPEATS,
        "sentences": {"decide": DECIDE, "reduce": REDUCE},
        "fields": {
            "cold_wall_s": "fastest of cold_repeats wall times, each a new interpreter",
            "decide_minus_pass_s": "cold_wall_s of dvlg decide less that of python -c pass",
            "import_s": f"fastest of import_repeats fresh imports of {len(MODULES)} modules",
        },
        "bytecode": {
            "none": "PYTHONDONTWRITEBYTECODE=1; no __pycache__ under src/dvlg",
            "cached": "PYTHONPYCACHEPREFIX=<temporary directory>, filled by one untimed run",
        },
    })
    records = doc.setdefault("trees", {})
    for label, tree in trees.items():
        records[label] = {
            "sha": git(tree, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(git(tree, "status", "--porcelain", "--", "src")),
            **{state: results[state][label] for state in results},
        }
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for label in trees:
        for state in results:
            r = results[state][label]
            cold = ", ".join(f"{k} {v * 1000:.1f}" for k, v in r["cold_wall_s"].items())
            print(f"{label} {state}: {cold}, decide minus pass "
                  f"{r['decide_minus_pass_s'] * 1000:.1f}, import {r['import_s'] * 1000:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
