"""Inputs, operations and reference answers of the two workloads.

Nothing here imports dvlg. Each build_* function takes the freshly imported
package modules (`mods`) from run.py, and each op takes the call table
(`api`), so that run.py can import the package anew for every timed
set-up and can swap the call table for a traced one.

An op is a closure `run(api) -> verdict`. It calls the same public
functions as the matching CLI verb. `check(verdict) -> int` compares the
verdict with a reference that does not come from the engine under test
and returns the number of wrong verdicts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

# Per-op time limits in seconds. Each lies well away from the time at
# which every op on the seed code ends (see README.md), so that no op's
# outcome depends on the speed of the machine. In `models` the slowest
# op ends after about 7.6 s (cyclic chain k=3 at n=4, decided) and two
# others stop on the DNF cap after 2.6 s and 3.3 s; a limit near those
# would cut them at a point, and a peak memory, that follow the machine.
OP_LIMIT_S = {"decide": 6.0, "models": 30.0}
# Seconds an op may take over all passes of a run before it stops being
# run again. The machine's speed swings by up to 1.8x, in spells of
# seconds to minutes, so an op's latency is its fastest run: cheap ops
# run in every pass, and ops that cost seconds, failures included, run
# once or a few times. The p90 latency of `models` sits on ops of about
# 0.4 s; its budget lets them run about ten times.
OP_BUDGET_S = {"decide": 0.5, "models": 4.0}

# A search that finds its witness does so in about 1 ms; the one with no
# witness never ends and builds its candidate list until it is cut, so
# the sooner it is cut, the less memory it takes.
WITNESS_LIMIT_S = 0.25
NO_WITNESS = "exists a:G. a + a = a & ~(a = 0)"
MAX_PERIOD_EXP = 6  # default --max-period of `dvlg model --op witness`
MODEL_NS = (1, 2, 3, 4)
MODEL_FAMILY_KS = (1, 2, 3)
# Formulas drawn from gen_tplus_corpus(seed). Per-op cost is heavy-tailed,
# so the latency quantiles of a seed depend on its mix of formulas; this
# count keeps that seed-to-seed spread small.
CORPUS_COUNT = {"decide": 800}


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable  # verdict -> number of wrong verdicts
    limit: float | None = None  # seconds; None for the workload's limit


@dataclass
class Workload:
    ops: list
    # (name of the forall-closure op, name of the exists-closure op)
    closure_pairs: list
    corpus_gen_s: float


# --- scaling families; every member is true in every model ---

def patching(k: int) -> str:
    """k-way patching; a theorem of densely valued l-groups."""
    fs = [f"f{i}" for i in range(1, k + 1)]
    cs = [f"c{i}" for i in range(1, k + 1)]
    prefix = "".join(f"forall {f}:G. " for f in fs)
    prefix += "".join(f"forall {c}:L. " for c in cs)
    premise = [
        f"{cs[i]} cap {cs[j]} << P({fs[i]} - {fs[j]}) cap P({fs[j]} - {fs[i]})"
        for i in range(k)
        for j in range(i + 1, k)
    ]
    goal = " & ".join(
        f"{cs[i]} << P(h - {fs[i]}) cap P({fs[i]} - h)" for i in range(k)
    )
    if not premise:
        return f"{prefix}exists h:G. {goal}"
    return f"{prefix}({' & '.join(premise)}) -> (exists h:G. {goal})"


def cyclic_chain(k: int) -> str:
    """forall l_0..l_k-1 exists x_0..x_k-1 with l_i << P(x_i - x_i+1 mod k);
    x_i = 0 is a witness."""
    prefix = "".join(f"forall l{i}:L. " for i in range(k))
    prefix += "".join(f"exists x{i}:G. " for i in range(k))
    return prefix + " & ".join(
        f"l{i} << P(x{i} - x{(i + 1) % k})" for i in range(k)
    )


def alternation_chain(k: int) -> str:
    """forall l_0 exists x_0 ... forall l_k-1 exists x_k-1 with
    l_i << P(x_i) and P(x_i) << l_i cup P(x_i+1); x_i = 0 is a witness."""
    prefix = "".join(f"forall l{i}:L. exists x{i}:G. " for i in range(k))
    parts = [f"l{i} << P(x{i})" for i in range(k)]
    parts += [f"P(x{i}) << l{i} cup P(x{i + 1})" for i in range(k - 1)]
    return prefix + " & ".join(parts)


FAMILIES = {
    "patching": (patching, (1, 2, 3, 4)),
    "cyclic": (cyclic_chain, (1, 2, 3, 4, 5)),
    "chain": (alternation_chain, (1, 2, 3, 4, 5, 6)),
}


def _expect(expected):
    return lambda verdict: int(verdict != expected)


def _unchecked(verdict):
    return 0


def _interleaved(ops: list) -> list:
    """The ops in one fixed order, the same for every seed, that spreads
    small and large ops over the pass, so that a slow spell of the
    machine does not fall on one kind of op."""
    random.Random("perfbench-order").shuffle(ops)
    return ops


def _seeded_corpus(mods, seed: int, workload: str):
    """gen_tplus_corpus(seed) and its wall time."""
    t0 = time.perf_counter()
    corpus = mods.corpus.gen_tplus_corpus(seed, CORPUS_COUNT[workload])
    return corpus, time.perf_counter() - t0


# --- decide: parse -> reduce(mode="ec") -> ba_decide ---

def _decide_op(name: str, text: str, check) -> Op:
    def run(api):
        return api.ba_decide(api.reduce(api.parse(text), mode="ec").chi)

    return Op(name, run, check)


def build_decide(mods, seed: int) -> Workload:
    ops = [
        _decide_op(f"known:{e['name']}", e["formula"], _expect(e["expected_ec"]))
        for e in mods.corpus.load_known_answers()
    ]
    for fam, (make, ks) in FAMILIES.items():
        ops += [_decide_op(f"{fam} k={k}", make(k), _expect(True)) for k in ks]
    corpus, gen_s = _seeded_corpus(mods, seed, "decide")
    pairs = []
    for i, (text, phi, _ctx) in enumerate(corpus):
        free = sorted(mods.syntax.free_vars(phi).items())
        names = []
        for q in ("forall", "exists"):
            prefix = "".join(f"{q} {v}:{s}. " for v, s in free)
            names.append(f"tplus[{i}] {q}")
            # the closure pair is checked after each pass: forall implies exists
            ops.append(_decide_op(names[-1], f"{prefix}({text})", _unchecked))
        pairs.append(tuple(names))
    return Workload(_interleaved(ops), pairs, gen_s)


# --- models: decide_finite with no assignment, and witness search ---

def _finite_op(name: str, text: str, n: int, check) -> Op:
    def run(api):
        phi = api.parse(text)
        return api.decide_finite(api.FinStdStructure(n), phi, api.Assignment())

    return Op(f"{name} n={n}", run, check)


def _strip_exists_g(mods, phi):
    S = mods.syntax
    while isinstance(phi, S.Exists) and phi.sort == S.G:
        phi = phi.body
    return phi


def _witness_op(mods, name: str, text: str, expected: bool) -> Op:
    matrix = _strip_exists_g(mods, mods.parser.parse(text))

    def run(api):
        return api.periodic_witness_search(api.parse(text), MAX_PERIOD_EXP)

    def check(witness):
        """Unroll the witness to Stan(Q^(2^k)) and evaluate it there with
        oracle.eval_qf, which shares no code with the periodic search."""
        if witness is None:
            return int(expected)
        k = max(f.k for f in witness.values())
        genv = {v: mods.standard.GroupVector(f.lift(k)) for v, f in witness.items()}
        holds = mods.oracle.eval_qf(
            mods.standard.FinStdStructure(1 << k),
            mods.oracle.Assignment(genv, {}),
            matrix,
        )
        return int(not holds)

    return Op(f"witness:{name}", run, check, WITNESS_LIMIT_S)


def build_models(mods, seed: int) -> Workload:
    """Fixed inputs; the seed changes nothing here."""
    known = mods.corpus.load_known_answers()
    ops = []
    for e in known:
        for n in MODEL_NS:
            expected = e["expected_finite"].get(str(n))
            check = _unchecked if expected is None else _expect(expected)
            ops.append(_finite_op(f"known:{e['name']}", e["formula"], n, check))
    for fam, (make, _ks) in FAMILIES.items():
        for k in MODEL_FAMILY_KS:
            for n in MODEL_NS:
                ops.append(_finite_op(f"{fam} k={k}", make(k), n, _expect(True)))
    # the sentence with no witness is false in every model: a + a = a gives a = 0
    for n in MODEL_NS:
        ops.append(_finite_op("no witness", NO_WITNESS, n, _expect(False)))
    for e in known:
        phi = mods.parser.parse(e["formula"])
        if e["expected_ec"] and mods.selfcheck.is_purely_existential_g(phi):
            ops.append(_witness_op(mods, e["name"], e["formula"], True))
    ops.append(_witness_op(mods, "no witness", NO_WITNESS, False))
    return Workload(_interleaved(ops), [], 0.0)


WORKLOADS = {
    "decide": build_decide,
    "models": build_models,
}

# ops in one pass, the same for every seed
OPS_PER_PASS = {
    "decide": 14 + 15 + 2 * CORPUS_COUNT["decide"],
    "models": 14 * 4 + 9 * 4 + 4 + 7,
}
