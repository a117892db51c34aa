"""Seeded random formula corpora and the shipped known-answer data.

All randomness is derived from one integer seed through named child
generators, so every corpus is reproducible independently of call
order.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from . import syntax as S
from .errors import ResourceLimit, UnsupportedFragment
from .parser import parse
from .reduction import reduce

__all__ = [
    "named_rng",
    "gen_tplus_corpus",
    "gen_lattice_corpus",
    "load_known_answers",
]


def named_rng(seed: int, name: str) -> random.Random:
    """Child generator that depends only on (seed, name)."""
    return random.Random(f"{seed}:{name}")


# --- tplus-fragment corpus (group-and-lattice formulas) ---

def _gterm(rng) -> str:
    """Small linear term over the free group variables."""
    return rng.choice(
        ["a", "b", "-a", "-b", "0", "a + b", "a - b", "2*a", "2*b", "b - a"]
    )


def _lterm(rng) -> str:
    return rng.choice(["l", "m", "top", "l cap m", "l cup m", "compl(l)"])


def _atom_with(rng, x: str) -> str:
    """Atom mentioning the quantified group variable x."""
    u, lt = _gterm(rng), _lterm(rng)
    return rng.choice(
        [
            f"{lt} << P({x} - ({u}))",
            f"{lt} << P(({u}) - {x})",
            f"P({x} - ({u})) = {lt}",
            f"{x} <= {u}",
            f"{u} <= {x}",
            f"2*{x} <= {u}",
            f"{x} + {x} = {u}",
        ]
    )


def _atom_free(rng) -> str:
    """Atom over the free variables only."""
    u, v = _gterm(rng), _gterm(rng)
    lt, lt2 = _lterm(rng), _lterm(rng)
    return rng.choice(
        [
            f"{u} <= {v}",
            f"{lt} << {lt2}",
            f"P({u}) = {lt}",
            f"{lt} << P({u})",
        ]
    )


def _conj(parts) -> str:
    return " & ".join(parts)


def _gen_candidate(rng) -> str:
    shape = rng.randrange(6)
    if shape == 0:
        # single existential group quantifier, 1-2 atoms
        atoms = [_atom_with(rng, "x") for _ in range(rng.randint(1, 2))]
        return f"exists x:G. {_conj(atoms)}"
    if shape == 1:
        # single universal group quantifier over an implication
        return (
            f"forall x:G. {_atom_with(rng, 'x')} -> {_atom_with(rng, 'x')}"
        )
    if shape == 2:
        # two existential group quantifiers, one atom each
        return (
            f"exists x:G. exists w:G. "
            f"{_atom_with(rng, 'x')} & {_atom_with(rng, 'w')}"
        )
    if shape == 3:
        # lattice quantifier outside a group quantifier
        q = rng.choice(["exists", "forall"])
        inner = f"exists x:G. {_atom_with(rng, 'x')}"
        if q == "forall":
            return f"forall y:L. {_atom_free(rng)} | ({inner})"
        return f"exists y:L. ~(y = bot) & ({inner})"
    if shape == 4:
        # boolean combination with a free-variable side condition
        op = rng.choice(["&", "|"])
        return (
            f"(exists x:G. {_atom_with(rng, 'x')}) {op} {_atom_free(rng)}"
        )
    # quantifier-free control formulas
    atoms = [_atom_free(rng) for _ in range(rng.randint(2, 3))]
    return f"{atoms[0]} -> {_conj(atoms[1:])}"


_CONTEXT = {"a": S.G, "b": S.G, "l": S.L, "m": S.L}


def gen_tplus_corpus(seed: int, count: int = 200):
    """Well-sorted formulas accepted by the tplus reduction.

    Returns (formula_text, parsed_formula, context) triples; candidates
    rejected by the fragment check are discarded and regenerated.
    """
    rng = named_rng(seed, "tplus-corpus")
    out = []
    while len(out) < count:
        text = _gen_candidate(rng)
        try:
            phi = parse(text, _CONTEXT)
            reduce(phi, mode="tplus")
        except (UnsupportedFragment, ResourceLimit):
            continue
        out.append((text, phi, dict(_CONTEXT)))
    return out


# --- pure lattice sentences for the Boolean-algebra cross-check ---

def _lattice_term(rng, in_scope) -> str:
    depth = rng.randint(0, 2)

    def go(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(in_scope + ["bot", "top"])
        op = rng.choice(["cap", "cup", "compl"])
        if op == "compl":
            return f"compl({go(d - 1)})"
        return f"({go(d - 1)} {op} {go(d - 1)})"

    return go(depth)


def _lattice_matrix(rng, in_scope) -> str:
    k = rng.randint(1, 3)
    atoms = []
    for _ in range(k):
        s, t = _lattice_term(rng, in_scope), _lattice_term(rng, in_scope)
        rel = rng.choice(["<<", "=", "="])
        atom = f"{s} {rel} {t}"
        if rng.random() < 0.4:
            atom = f"~({atom})"
        atoms.append(atom)
    glue = rng.choice([" & ", " | ", " -> "])
    return glue.join(atoms)


def gen_lattice_corpus(seed: int, count: int = 100, max_depth: int = 3):
    """Closed lattice sentences of bounded quantifier depth: each body
    is built from the names that its own quantifiers bind."""
    rng = named_rng(seed, "lattice-corpus")
    out = []
    names = ["x", "y", "z", "w"]
    while len(out) < count:
        depth = rng.randint(1, max_depth)
        scope = names[:depth]
        body = _lattice_matrix(rng, scope)
        for var in reversed(scope):
            q = rng.choice(["forall", "exists"])
            body = f"{q} {var}:L. {body}"
        out.append((body, parse(body)))
    return out


# --- shipped known answers ---

def load_known_answers():
    """Entries {formula, expected_ec, expected_finite, mode} from the
    packaged JSONL corpus."""
    data = (
        resources.files("dvlg").joinpath("data/known_answers.jsonl").read_text()
    )
    out = []
    for line in data.splitlines():
        line = line.strip()
        if line:
            out.append(json.loads(line))
    return out
