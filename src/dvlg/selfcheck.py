"""Acceptance criteria as callable checks.

Each criterion function returns (passed, detail). The CLI selftest
command and the acceptance test suite both dispatch through run_all so
the two surfaces can never disagree about what is checked. Witness
candidates are evaluated by syntax.holds in the periodic model.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from . import periodic as P
from . import standard as ST
from . import syntax as S
from .boolalg import ba_decide, interval_check
from .corpus import gen_lattice_corpus, gen_tplus_corpus, load_known_answers, named_rng
from .errors import NotSentence, ResourceLimit, UnsupportedFragment
from .linear import Lin, LinConstraint, fm_eliminate_conj
from .oracle import Assignment, decide_prepared, prepare
from .parser import parse
from .reduction import assemble_reduct, decide_ec, reduce

__all__ = ["run_all", "eval_qf_periodic", "periodic_witness_search"]


# --- evaluation in the periodic model ---

def eval_qf_periodic(env: dict, phi: S.Formula) -> bool:
    """Quantifier-free truth over the 2^n-periodic model: syntax.holds in
    periodic.PERIODIC, with env assigning the variables of both sorts."""
    return S.holds(P.PERIODIC, env, env, phi)


WITNESS_GRID = (
    Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)
)
# Candidates periodic_witness_search tries before it raises ResourceLimit
# (about half a second of search). The existential known answers need 17
# in all; a sentence with no witness reaches the cap at period 2^3.
WITNESS_MAX_CANDIDATES = 10_000


def _existential_g_prefix(phi: S.Formula):
    """The variables of phi's existential group prefix, and the matrix
    after it; the matrix is None if it has a quantifier."""
    names = []
    while isinstance(phi, S.Exists) and phi.sort == S.G:
        names.append(phi.var)
        phi = phi.body
    return names, None if phi.has_binder else phi


def is_purely_existential_g(phi: S.Formula) -> bool:
    """Existential prefix over G followed by a quantifier-free matrix."""
    names, matrix = _existential_g_prefix(phi)
    return bool(names) and matrix is not None


def periodic_witness_search(phi: S.Formula, max_period_exp: int = 6):
    """Witnesses in the periodic model for a purely existential sentence.

    Tries value lists over WITNESS_GRID, one per variable, at
    increasing period exponents, generating them as it goes; returns
    {var: PeriodicFn}, or None once every exponent up to max_period_exp
    is searched. Raises ResourceLimit after WITNESS_MAX_CANDIDATES
    candidates. Before any candidate, raises NotSentence if phi has a
    free variable and UnsupportedFragment if a quantifier follows the
    existential group prefix.
    """
    free = S.free_vars(phi)
    if free:
        raise NotSentence(
            f"witness search needs a sentence; free variables: {sorted(free)}"
        )
    names, matrix = _existential_g_prefix(phi)
    if matrix is None:
        raise UnsupportedFragment(
            "witness search needs an existential group prefix over a "
            "quantifier-free matrix"
        )
    tried = 0
    for k in range(max_period_exp + 1):
        period = 1 << k
        for vals in itertools.product(WITNESS_GRID, repeat=period * len(names)):
            if tried == WITNESS_MAX_CANDIDATES:
                raise ResourceLimit(
                    f"witness search: candidate cap {WITNESS_MAX_CANDIDATES} reached "
                    f"at period exponent {k} (max {max_period_exp})"
                )
            tried += 1
            env = {
                name: P.normalize(k, vals[i * period:(i + 1) * period])
                for i, name in enumerate(names)
            }
            if eval_qf_periodic(env, matrix):
                return env
    return None


# --- random generation helpers ---

def _rand_rat(rng) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def _rand_vector(rng, n: int) -> ST.GroupVector:
    return ST.GroupVector(tuple(_rand_rat(rng) for _ in range(n)))


def _rand_subset(rng, n: int) -> ST.SubsetL:
    return ST.SubsetL(rng.randrange(1 << n), n)


def _rand_periodic(rng, max_k: int = 3) -> P.PeriodicFn:
    k = rng.randint(0, max_k)
    return P.normalize(k, [_rand_rat(rng) for _ in range(1 << k)])


def _rand_periodic_nonneg(rng, max_k: int = 3) -> P.PeriodicFn:
    k = rng.randint(0, max_k)
    return P.normalize(
        k, [abs(_rand_rat(rng)) if rng.random() < 0.7 else Fraction(0) for _ in range(1 << k)]
    )


# --- the ten criteria ---

def criterion_1(seed: int):
    """Reduction-oracle equivalence on a generated tplus corpus."""
    corpus = gen_tplus_corpus(seed, 200)
    rng = named_rng(seed, "criterion1-assignments")
    checked = 0
    for text, phi, ctx in corpus:
        red = prepare(assemble_reduct(reduce(phi, "tplus")))
        phi = prepare(phi)
        for n in (1, 2, 3):
            struct = ST.FinStdStructure(n)
            for _ in range(10):
                env = Assignment(
                    {v: _rand_vector(rng, n) for v, s in ctx.items() if s == S.G},
                    {v: _rand_subset(rng, n) for v, s in ctx.items() if s == S.L},
                )
                a = decide_prepared(struct, phi, env)
                b = decide_prepared(struct, red, env, limits={"max_quantifiers": 25})
                checked += 1
                if a != b:
                    return False, f"disagreement on {text!r} at n={n}: {a} vs {b}"
    return True, f"{len(corpus)} formulas, {checked} instances, all agree"


def criterion_2(seed: int):
    """Known-answer decider suite (every entry of the known answers)."""
    entries = load_known_answers()
    for entry in entries:
        got = decide_ec(parse(entry["formula"]))
        if got != entry["expected_ec"]:
            return False, (
                f"decide_ec({entry['formula']!r}) = {got}, "
                f"expected {entry['expected_ec']}"
            )
    return True, f"{len(entries)}/{len(entries)} exact matches"


def criterion_3(seed: int):
    """ba_decide against interval_check on random lattice sentences."""
    count = 100
    for text, phi in gen_lattice_corpus(seed, count):
        a = ba_decide(phi)
        b = interval_check(phi, 3)
        if a != b:
            return False, f"disagreement on {text!r}: ba={a} interval={b}"
    return True, f"{count} sentences, full agreement"


def criterion_4(seed: int):
    """Patch and split postconditions on random valid inputs."""
    count = 1000
    rng = named_rng(seed, "criterion4")
    for _ in range(count):
        n = rng.randint(1, 4)
        c, d = _rand_subset(rng, n), _rand_subset(rng, n)
        g = _rand_vector(rng, n)
        # force agreement on the overlap
        f = ST.GroupVector(
            tuple(
                g.values[i] if (c.bits & d.bits) >> i & 1 else _rand_rat(rng)
                for i in range(n)
            )
        )
        h = ST.patch(c, d, f, g)
        for i in range(n):
            if c.bits >> i & 1:
                if h.values[i] != f.values[i]:
                    return False, f"patch mismatch on first region at {i}"
            elif d.bits >> i & 1:
                if h.values[i] != g.values[i]:
                    return False, f"patch mismatch on second region at {i}"
            elif h.values[i] != 0:
                return False, f"patch nonzero outside both regions at {i}"
    for _ in range(count):
        n = rng.randint(1, 4)
        a = ST.GroupVector(
            tuple(abs(_rand_rat(rng)) if rng.random() < 0.5 else Fraction(0) for _ in range(n))
        )
        b = ST.GroupVector(
            tuple(Fraction(0) if a.values[i] != 0 or rng.random() < 0.3 else abs(_rand_rat(rng)) for i in range(n))
        )
        cc = ST.GroupVector(tuple(abs(_rand_rat(rng)) for _ in range(n)))
        f, g = ST.ac_split(a, b, cc)
        ok = (
            ST.pointwise_op("add", f, g) == cc
            and ST.pointwise_op("meet", f, g).is_zero()
            and ST.pointwise_op("meet", a, g).is_zero()
            and ST.pointwise_op("meet", f, b).is_zero()
        )
        if not ok:
            return False, f"split postcondition failed for a={a} b={b} c={cc}"
    return True, f"{count} patch + {count} split instances exact"


def criterion_5(seed: int):
    """Valuation axioms in Stan(Q^3) and in the periodic model, stated
    once over the model interface."""
    count = 1000
    rng = named_rng(seed, "criterion5")
    cases = (
        (ST.FinStdStructure(3), lambda: _rand_vector(rng, 3), "in Stan"),
        (P.PERIODIC, lambda: _rand_periodic(rng), "in the periodic model"),
    )
    for model, draw, where in cases:
        val, group_op, set_op = model.val, model.group_op, model.set_op
        for _ in range(count):
            a, b = draw(), draw()
            pa, pb = val(a), val(b)
            for m in range(1, 6):
                if val(model.scale(m, a)) != pa:
                    return False, f"scaling invariance failed {where}"
            if val(group_op("meet", a, b)) != set_op("meet", pa, pb):
                return False, f"meet morphism failed {where}"
            if val(group_op("join", a, b)) != set_op("join", pa, pb):
                return False, f"join morphism failed {where}"
            if not val(group_op("join", a, group_op("neg", a))).is_full():
                return False, f"positivity affirming failed {where}"
            if pa.is_full() and not a.is_nonnegative():
                return False, f"positivity detecting failed {where}"
            psum = val(group_op("add", a, b))
            lo, hi = set_op("meet", pa, pb), set_op("join", pa, pb)
            if not (set_op("below", lo, psum) and set_op("below", psum, hi)):
                return False, f"double inclusion failed {where}"
    return True, f"{count} instances per model, all axioms exact"


def criterion_6(seed: int):
    """Stage-map squares, directed-limit coherence, atomless splitting."""
    count = 500
    rng = named_rng(seed, "criterion6")
    for _ in range(count):
        n = rng.randint(0, 4)
        v = ST.GroupVector(tuple(_rand_rat(rng) for _ in range(1 << n)))
        w = ST.GroupVector(tuple(_rand_rat(rng) for _ in range(1 << n)))
        av, pv = ST.double_embed(v, ST.std_valuation(v))
        aw, _ = ST.double_embed(w, ST.std_valuation(w))
        if ST.std_valuation(av) != pv:
            return False, "valuation square failed for the stage embedding"
        vw = ST.pointwise_op("add", v, w)
        if ST.double_embed(vw, ST.std_valuation(vw))[0] != ST.pointwise_op("add", av, aw):
            return False, "stage embedding is not additive"
        if P.normalize(n + 1, av.values) != P.normalize(n, v.values):
            return False, "limit coherence failed: embedding moved the element"
    for _ in range(count):
        k = rng.randint(0, 4)
        mask = rng.randrange(1, 1 << (1 << k))
        c = P.normalize_set(k, mask)
        s = P.split_nonempty(c)
        strictly_inside = (
            not s.is_empty()
            and P.set_op("below", s, c)
            and s != c
        )
        if not strictly_inside:
            return False, f"split of {c} is not strictly intermediate"
    return True, f"{count} stage elements + {count} splits verified"


def criterion_7(seed: int):
    """Archimedean bound: for nonnegative nonzero periodic f and g, the
    direct bound n is at most the analytic cap, and n*f is not strictly
    below g."""
    count = 500
    rng = named_rng(seed, "criterion7")
    done = 0
    while done < count:
        k1, k2 = rng.randint(0, 5), rng.randint(0, 5)
        f = P.normalize(k1, [abs(_rand_rat(rng)) for _ in range(1 << k1)])
        g = P.normalize(k2, [abs(_rand_rat(rng)) for _ in range(1 << k2)])
        if f.is_zero() or g.is_zero() or not (f.is_nonnegative() and g.is_nonnegative()):
            continue
        done += 1
        bound = P.archimedean_bound(f, g)
        cap = P.archimedean_analytic_bound(f, g)
        if bound > cap:
            return False, f"bound {bound} exceeds analytic cap {cap} for f={f} g={g}"
        nf = P.periodic_scale(bound, f)
        if P.periodic_leq(nf, g) and nf != g:
            return False, f"returned bound {bound} still strictly below g"
    return True, f"{count} pairs within the analytic bound"


def criterion_8(seed: int):
    """Polar characterization via zero sets, and the shift square."""
    count, probes = 500, 200
    rng = named_rng(seed, "criterion8")
    for _ in range(count):
        a = _rand_periodic_nonneg(rng)
        b = _rand_periodic_nonneg(rng)
        same = P.polar_equiv(a, b)
        if same != (P.zero_set(a) == P.zero_set(b)):
            return False, f"polar_equiv disagrees with zero sets on {a}, {b}"
    probe_rng = named_rng(seed, "criterion8-probes")
    for _ in range(probes):
        a = _rand_periodic_nonneg(probe_rng, 2)
        b = _rand_periodic_nonneg(probe_rng, 2)
        if not P.polar_equiv(a, b):
            continue
        c = _rand_periodic_nonneg(probe_rng, 2)
        da = P.periodic_op("meet", a, c).is_zero()
        db = P.periodic_op("meet", b, c).is_zero()
        if da != db:
            return False, f"polar probe separated {a} and {b} via {c}"
    for _ in range(count):
        f = _rand_periodic(rng)
        lhs = P.periodic_valuation(P.shift(f))
        rhs = P.induced_lattice_auto(P.periodic_valuation(f))
        if lhs != rhs:
            return False, f"shift square failed on {f}"
    return True, f"{count} polar pairs, {probes} probes, {count} shift checks"


def criterion_9(seed: int):
    """Fourier-Motzkin single eliminations against dense grid search."""
    count = 500
    rng = named_rng(seed, "criterion9")
    grid = [Fraction(i, 8) for i in range(-32, 33)]
    for _ in range(count):
        params = {"y": Fraction(rng.randint(-2, 2), 2), "z": Fraction(rng.randint(-2, 2), 2)}
        constraints = []
        for _ in range(rng.randint(2, 4)):
            cx = rng.choice([1, 2]) * rng.choice([1, -1])
            lhs = Lin.make(
                {
                    "x": Fraction(cx),
                    "y": Fraction(rng.randint(-1, 1)),
                    "z": Fraction(rng.randint(-1, 1)),
                    "1": Fraction(rng.randint(-2, 2), 2),
                }
            )
            rel = rng.choice([">=", ">=", ">", "="])
            constraints.append(LinConstraint(lhs, rel))
        remaining = fm_eliminate_conj("x", constraints)
        if remaining is None:
            fm_truth = False
        else:
            fm_truth = all(c.holds(params) for c in remaining)
        direct = any(
            all(c.holds({**params, "x": x}) for c in constraints) for x in grid
        )
        if fm_truth != direct:
            return False, f"FM vs grid mismatch on {constraints} at {params}"
    return True, f"{count} eliminations agree with grid search"


def criterion_10(seed: int):
    """Periodic-model witnesses for decider-true existential sentences."""
    entries = load_known_answers()
    searched = 0
    for entry in entries:
        phi = parse(entry["formula"])
        if not (entry["expected_ec"] and is_purely_existential_g(phi)):
            continue
        searched += 1
        witness = periodic_witness_search(phi)
        if witness is None:
            return False, f"no witness found for {entry['formula']!r}"
    if searched == 0:
        return False, "no purely existential decider-true sentences in the corpus"
    return True, f"witnesses found for all {searched} existential sentences"


CRITERIA = [
    ("reduction-oracle equivalence", criterion_1),
    ("known-answer decider suite", criterion_2),
    ("boolean-algebra cross-validation", criterion_3),
    ("patching and splitting postconditions", criterion_4),
    ("valuation axioms", criterion_5),
    ("stage maps and atomless splitting", criterion_6),
    ("archimedean bound", criterion_7),
    ("polar characterization and shift", criterion_8),
    ("fourier-motzkin backend", criterion_9),
    ("periodic witness search", criterion_10),
]


def run_all(seed: int, report=None):
    """Run every criterion; returns a list of (name, ok, detail, secs)."""
    results = []
    for name, fn in CRITERIA:
        start = time.time()
        ok, detail = fn(seed)
        elapsed = time.time() - start
        results.append((name, ok, detail, elapsed))
        if report:
            report(name, ok, detail, elapsed)
    return results
