"""Command-line interface.

Subcommands: decide (truth in the existentially closed theory), reduce
(lattice-sort reduction), eval (brute-force truth over a finite
standard structure), model (periodic-model computations and witness
search), selftest (acceptance corpus and property suites).

Exit codes: 0 true/pass, 1 false, 2 parse or sort error (also an open
formula where a sentence is needed, an eval free variable that --env
does not assign, an --env assignment that does not fit -n, a -n below
1, a --limits key that is not a limit or a value that is not an
integer, a --file that cannot be read as text, --args operands of the
wrong shape or outside the op's domain, a --max-period below 0, and in
--env or --args a zero denominator, a JSON boolean where a number is
expected, or a string where a list is), 3 unsupported fragment, 4
resource limit (also an input nested deeper than a recursive step can
follow within Python's recursion limit: the message names the phase,
the package function the verb was running, such as parse, reduce or
ba_decide, and the limit), 5 internal error (any other exception, with
one line on stderr).

A reader that closes stdout early ends the output there: the verb runs
on and exits with its own code, and nothing is printed on stderr.

Output is deterministic: the same command and seed give the same bytes.
Wall-clock times appear only with --timings: stats.elapsed_ms in the
--json report (null without the flag) and the seconds after each
selftest line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .boolalg import ba_decide
from .errors import (
    BadArgument,
    BadLength,
    DepthExceeded,
    DvlgError,
    EmptyInput,
    FormulaSyntaxError,
    NotLatticeSorted,
    NotSentence,
    PreconditionViolated,
    ResourceLimit,
    SortError,
    UnboundVariable,
    UnsupportedFragment,
)
from .parser import parse
from .reduction import reduce
from .syntax import G, L, counts, free_names, print_formula

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dvlg",
        description="Decision procedures for densely valued lattice-ordered groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_formula=True):
        if needs_formula:
            p.add_argument("formula", nargs="?", help="formula text")
            p.add_argument("--file", help="read the formula from a file")
        p.add_argument("--json", action="store_true", help="JSON report")
        p.add_argument("--trace", action="store_true")
        p.add_argument(
            "--timings",
            action="store_true",
            help="report wall-clock times (stats.elapsed_ms, selftest lines)",
        )

    p = sub.add_parser("decide", help="truth in the existentially closed theory")
    p.add_argument("--mode", choices=["ec", "tplus"], default="ec")
    common(p)

    p = sub.add_parser("reduce", help="lattice-sort reduction")
    p.add_argument("--mode", choices=["ec", "tplus"], default="tplus")
    common(p)

    p = sub.add_parser("eval", help="evaluate over a finite standard structure")
    p.add_argument("-n", type=int, default=2, help="ground set size")
    p.add_argument("--env", default="{}", help="assignment as JSON")
    p.add_argument(
        "--limits", default="", help="resource caps as k=v pairs, comma separated"
    )
    common(p)

    p = sub.add_parser("model", help="periodic-model computations")
    p.add_argument(
        "--op",
        required=True,
        choices=[
            "add", "neg", "meet", "join", "valuation", "split",
            "archimedean", "shift", "witness",
        ],
    )
    p.add_argument("--args", default="[]", help="operands as JSON")
    p.add_argument("--max-period", type=int, default=6, dest="max_period")
    common(p)

    p = sub.add_parser("selftest", help="run the acceptance suites")
    p.add_argument("--seed", type=int, default=0)
    common(p, needs_formula=False)
    return ap


def _parse_limits(text: str) -> dict:
    from .oracle import DEFAULT_LIMITS

    out = {}
    for part in text.split(","):
        part = part.strip()
        if part:
            k, _, v = part.partition("=")
            k = k.strip()
            if k not in DEFAULT_LIMITS:
                keys = ", ".join(DEFAULT_LIMITS)
                raise BadArgument(f"--limits: unknown key {k!r}; the keys are {keys}")
            try:
                out[k] = int(v)
            except ValueError:
                raise BadArgument(f"--limits: {part!r} is not key=integer") from None
    return out


def _read_formula(args) -> str:
    if args.file:
        try:
            with open(args.file) as fh:
                return fh.read().strip()
        except OSError as e:  # missing, a directory, unreadable
            raise BadArgument(f"--file {args.file}: {e.strerror}") from None
        except UnicodeDecodeError as e:
            raise BadArgument(f"--file {args.file}: not {e.encoding} text") from None
    if args.formula:
        return args.formula
    raise FormulaSyntaxError("no formula given (positional or --file)")


def _load_env(text: str, n: int) -> Assignment:
    """The --env assignment over the structure of size n: a vector of n
    rationals per group variable, a list of indices in 0..n-1 per
    lattice variable."""
    from .oracle import Assignment
    from .standard import GroupVector, SubsetL

    data = json.loads(text)
    try:
        env = Assignment(
            {k: GroupVector.from_json(v) for k, v in data.get("group", {}).items()},
            {k: SubsetL.from_indices(v, n) for k, v in data.get("lattice", {}).items()},
        )
        env.check_sizes(n)
    except (AttributeError, TypeError, ValueError, DvlgError) as e:
        # a value of the wrong shape, a bad rational or index, a wrong size
        raise BadArgument(f"--env: {e}") from None
    return env


def _stats(args, start: float, eliminations: int, atoms: int) -> dict:
    """The stats block. elapsed_ms is wall-clock time, so it is null
    unless --timings asks for it; the rest is deterministic."""
    elapsed = int((time.time() - start) * 1000) if args.timings else None
    return {"elapsed_ms": elapsed, "eliminations": eliminations, "atoms": atoms}


def _drop_stdout() -> None:
    """Point stdout at os.devnull, once its reader has closed the pipe:
    later output and the flush at exit then write nowhere, and raise no
    BrokenPipeError."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(text: str) -> None:
    """Print one line of output; a closed pipe ends the output."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _report(args, command, source, verdict, stats, trace, exit_code):
    if args.json:
        doc = {
            "command": command,
            "input": source,
            "verdict": verdict,
            "stats": stats,
        }
        if args.trace:
            doc["trace"] = trace
        _emit(json.dumps(doc, indent=2, sort_keys=True))
    else:
        if args.trace:
            for line in trace:
                _emit(f"# {line}")
        if isinstance(verdict, bool):
            _emit("true" if verdict else "false")
        else:
            _emit(json.dumps(verdict, indent=2, sort_keys=True))
    return exit_code


def _cmd_decide(args) -> int:
    source = _read_formula(args)
    phi = parse(source)
    free = free_names(phi)
    if free:
        raise NotSentence(f"decide needs a sentence; free variables: {sorted(free)}")
    start = time.time()
    out = reduce(phi, mode=args.mode)
    verdict = ba_decide(out.chi)
    stats = _stats(args, start, out.eliminations, counts(phi)[1])
    trace = [
        f"mode: {args.mode}",
        f"chi: {print_formula(out.chi)}",
        f"terms: {out.to_json()['terms']}",
    ]
    return _report(
        args, "decide", source, verdict, stats, trace,
        EXIT_TRUE if verdict else EXIT_FALSE,
    )


def _cmd_reduce(args) -> int:
    source = _read_formula(args)
    phi = parse(source)
    start = time.time()
    out = reduce(phi, mode=args.mode)
    stats = _stats(args, start, out.eliminations, counts(phi)[1])
    trace = [f"mode: {args.mode}"]
    return _report(args, "reduce", source, out.to_json(), stats, trace, EXIT_TRUE)


def _cmd_eval(args) -> int:
    from .oracle import decide_finite
    from .standard import FinStdStructure

    source = _read_formula(args)
    if args.n < 1:
        raise BadArgument(f"-n: the ground set needs at least 1 point, not {args.n}")
    env = _load_env(args.env, args.n)
    sorts = {**dict.fromkeys(env.group_env, G), **dict.fromkeys(env.lattice_env, L)}
    phi = parse(source, sorts)
    start = time.time()
    verdict = decide_finite(
        FinStdStructure(args.n), phi, env, limits=_parse_limits(args.limits) or None
    )
    stats = _stats(args, start, 0, counts(phi)[1])
    trace = [f"n: {args.n}"]
    return _report(
        args, "eval", source, verdict, stats, trace,
        EXIT_TRUE if verdict else EXIT_FALSE,
    )


# op -> (number of operands, the op on the periodic module and the
# decoded operands)
_MODEL_OPS = {
    "add": (2, lambda P, f, g: P.periodic_op("add", f, g).to_json()),
    "meet": (2, lambda P, f, g: P.periodic_op("meet", f, g).to_json()),
    "join": (2, lambda P, f, g: P.periodic_op("join", f, g).to_json()),
    "neg": (1, lambda P, f: P.periodic_op("neg", f).to_json()),
    "valuation": (1, lambda P, f: P.periodic_valuation(f).to_json()),
    "split": (1, lambda P, c: P.split_nonempty(c).to_json()),
    "archimedean": (2, lambda P, f, g: P.archimedean_bound(f, g)),
    "shift": (1, lambda P, f: P.shift(f).to_json()),
}


def _model_operands(op: str, operands) -> list:
    """The --args operands of a model op: one periodic set for split,
    periodic functions otherwise."""
    from . import periodic as P

    arity = _MODEL_OPS[op][0]
    decode = P.PeriodicSet.from_json if op == "split" else P.PeriodicFn.from_json
    try:
        if not isinstance(operands, list) or len(operands) != arity:
            raise ValueError(f"{op} takes a list of {arity} operand(s)")
        return [decode(x) for x in operands]
    except KeyError as e:
        raise BadArgument(f"--args: an operand has no field {e}") from None
    except (TypeError, ValueError, DvlgError) as e:
        raise BadArgument(f"--args: {e}") from None


def _cmd_model(args) -> int:
    start = time.time()
    operands = json.loads(args.args)
    op = args.op
    trace = [f"op: {op}"]
    if op == "witness":
        if args.max_period < 0:
            raise BadArgument(
                f"--max-period: the exponent is at least 0, not {args.max_period}"
            )
        from .selfcheck import periodic_witness_search

        source = _read_formula(args)
        phi = parse(source)
        witness = periodic_witness_search(phi, args.max_period)
        found = witness is not None
        verdict = {k: v.to_json() for k, v in witness.items()} if found else False
        exit_code = EXIT_TRUE if found else EXIT_FALSE
        atoms = counts(phi)[1]
    else:
        from . import periodic as P

        source = json.dumps(operands)
        atoms = 0
        exit_code = EXIT_TRUE
        operands = _model_operands(op, operands)
        try:
            verdict = _MODEL_OPS[op][1](P, *operands)
        except (BadLength, EmptyInput, PreconditionViolated) as e:
            # split needs a nonempty set below the largest period,
            # archimedean positive operands
            raise BadArgument(f"--args: {e}") from None
    stats = _stats(args, start, 0, atoms)
    return _report(args, "model", source, verdict, stats, trace, exit_code)


def _cmd_selftest(args) -> int:
    from .selfcheck import run_all

    seed = args.seed
    start = time.time()
    lines = []

    def report(name, ok, detail, elapsed):
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        if args.timings:
            line += f" ({elapsed:.1f}s)"
        lines.append(line)
        if not args.json:
            _emit(line)

    results = run_all(seed, report=report)
    passed = sum(1 for _, ok, _, _ in results if ok)
    verdict = passed == len(results)
    if not args.json:
        _emit(f"{passed}/{len(results)} criteria passed")
    stats = _stats(args, start, 0, 0)
    return _report(
        args, "selftest", f"seed={seed}", verdict, stats, lines,
        EXIT_TRUE if verdict else EXIT_FALSE,
    )


def _phase(e: BaseException) -> str:
    """The function that the verb called and e was raised in: the first
    frame of e's traceback outside this module."""
    import traceback

    for frame, _ in traceback.walk_tb(e.__traceback__):
        if frame.f_globals.get("__name__") != __name__:
            return frame.f_code.co_name
    return "cli"


_DISPATCH = {
    "decide": _cmd_decide,
    "reduce": _cmd_reduce,
    "eval": _cmd_eval,
    "model": _cmd_model,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    try:
        # argparse prints --help on stdout too, then raises SystemExit
        args = _build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except (FormulaSyntaxError, SortError, NotSentence, NotLatticeSorted,
            UnboundVariable, BadArgument, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnsupportedFragment as e:
        print(f"unsupported fragment: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ResourceLimit, DepthExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except RecursionError as e:
        print(
            f"resource limit: {_phase(e)}: nested deeper than the recursion "
            f"limit {sys.getrecursionlimit()} allows",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    except Exception as e:
        msg = " ".join(str(e).splitlines())
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            _drop_stdout()


if __name__ == "__main__":
    sys.exit(main())
