"""Fourier-Motzkin elimination over exact rationals."""

from fractions import Fraction
from itertools import product
from math import gcd

from dvlg.corpus import named_rng
from dvlg.linear import (
    Lin,
    LinConstraint,
    fm_eliminate,
    fm_eliminate_conj,
    store_insert,
)

GRID = [Fraction(n) for n in range(-2, 3)]


def dnf_satisfiable_grid(dnf, var_names, grid):
    """Brute-force check used as a test oracle: any grid point satisfying
    some disjunct."""
    for point in product(grid, repeat=len(var_names)):
        env = dict(zip(var_names, point))
        for conj in dnf:
            if all(c.holds(env) for c in conj):
                return True
    return False


def c(mapping, rel=">="):
    return LinConstraint(Lin.make(mapping), rel)


def store_of(conj):
    """The conjunction as a store, or None when it is contradictory."""
    store = {}
    for k in conj:
        if not store_insert(store, k.key, k.mask):
            return None
    return store


def conj_of(store):
    return [LinConstraint.from_key(k, m) for k, m in store.items()]


class TestConjunctions:
    def test_sandwich(self):
        # exists x (x >= y and x <= z)  <=>  z - y >= 0
        out = fm_eliminate_conj("x", [c({"x": 1, "y": -1}), c({"z": 1, "x": -1})])
        assert out == [c({"z": 1, "y": -1})]

    def test_one_sided_vanishes(self):
        # exists x (x > 0) is unconditionally true
        assert fm_eliminate_conj("x", [c({"x": 1}, ">")]) == []

    def test_scaled_bounds(self):
        # exists x (2x <= y and 3x >= z)  <=>  3y - 2z >= 0
        out = fm_eliminate_conj(
            "x", [c({"y": 1, "x": -2}), c({"x": 3, "z": -1})]
        )
        assert out == [c({"y": Fraction(1, 2), "z": Fraction(-1, 3)})]

    def test_contradiction(self):
        # x >= 1 and x <= 0 (constants via the reserved slot)
        out = fm_eliminate_conj(
            "x", [c({"x": 1, "1": -1}), c({"x": -1})]
        )
        assert out is None

    def test_equality_substitution(self):
        # x = y and x >= z  =>  y >= z
        out = fm_eliminate_conj(
            "x", [c({"x": 1, "y": -1}, "="), c({"x": 1, "z": -1})]
        )
        assert out == [c({"y": 1, "z": -1})]

    def test_strictness_propagates(self):
        out = fm_eliminate_conj(
            "x", [c({"x": 1, "y": -1}, ">"), c({"z": 1, "x": -1})]
        )
        assert out == [c({"z": 1, "y": -1}, ">")]


class TestDnf:
    def test_unsatisfiable_disjunct_dropped(self):
        dnf = [
            store_of([c({"x": 1, "1": -1}), c({"x": -1})]),  # x >= 1 and x <= 0
            store_of([c({"x": 1, "y": -1})]),  # x >= y
        ]
        out = fm_eliminate("x", dnf)
        assert out == [{}]

    def test_random_equivalence_on_grid(self):
        rng = named_rng(3, "fm-grid")
        names = ["x", "y", "z"]
        for _ in range(300):
            dnf = []
            for _ in range(rng.randint(1, 3)):
                conj = []
                for _ in range(rng.randint(1, 3)):
                    mapping = {
                        v: Fraction(rng.randint(-2, 2)) for v in names
                    }
                    mapping["1"] = Fraction(rng.randint(-2, 2))
                    conj.append(
                        LinConstraint(
                            Lin.make(mapping), rng.choice([">=", ">", "="])
                        )
                    )
                dnf.append(conj)
            before = dnf_satisfiable_grid(dnf, names, GRID)
            stores = [st for st in map(store_of, dnf) if st is not None]
            after_dnf = [conj_of(st) for st in fm_eliminate("x", stores)]
            after = dnf_satisfiable_grid(after_dnf, ["y", "z"], GRID)
            # elimination is exact over the rationals; the grid check is
            # one-directional (existence on the grid implies existence)
            if before:
                assert after
            for conj in after_dnf:
                assert all("x" not in k.lhs.vars() for k in conj)


class TestPrimitive:
    def test_integer_normalization(self):
        lin = Lin.make({"x": Fraction(2, 3), "y": Fraction(-4, 3)})
        assert lin.primitive() == Lin.make({"x": 1, "y": -2})

    def test_sign_preserved(self):
        lin = Lin.make({"x": Fraction(-1, 2)})
        assert lin.primitive() == Lin.make({"x": -1})


def _with_fractions(lin):
    return Lin(tuple((v, Fraction(q)) for v, q in lin.coeffs))


class TestIntegerLin:
    A = Lin.make({"x": 4, "y": -6, "1": 2})
    B = Lin.make({"y": 6, "z": -3})

    def test_int_coefficients_stay_int(self):
        for lin in (
            self.A, Lin.var("x"), self.A + self.B, self.A - self.B,
            self.A.scale(-3), self.A.scale(Fraction(3, 2)), self.A.primitive(),
        ):
            assert all(type(q) is int for _, q in lin.coeffs), lin
        assert self.A.primitive() == Lin.make({"x": 2, "y": -3, "1": 1})
        assert self.A.get("y") == -6 and type(self.A.get("w")) is int

    def test_equal_to_fraction_form(self):
        for lin in (self.A, self.A + self.B, self.A.scale(-3), self.A.primitive()):
            frac = _with_fractions(lin)
            assert lin == frac and hash(lin) == hash(frac)
            a, b = LinConstraint(lin, ">"), LinConstraint(frac, ">")
            assert a == b and hash(a) == hash(b) and a.key == b.key

    def test_non_integral_stays_fraction(self):
        lin = self.A.scale(Fraction(1, 4))
        assert lin.as_dict() == {"x": 1, "y": Fraction(-3, 2), "1": Fraction(1, 2)}
        assert type(lin.get("x")) is int
        assert lin.scale(2) == Lin.make({"x": 2, "y": -3, "1": 1})


def rand_lin(rng, names, den=4):
    return Lin.make(
        {v: Fraction(rng.randint(-6, 6), rng.randint(1, den)) for v in names}
    )


class TestNormalForm:
    NAMES = ["x", "y", "1"]

    def test_integer_coefficients_gcd_one(self):
        rng = named_rng(5, "fm-normal")
        for _ in range(300):
            lin = rand_lin(rng, self.NAMES)
            k = LinConstraint(lin, rng.choice([">=", ">", "="]))
            coeffs = [q for _, q in k.lhs.coeffs]
            assert all(type(q) is int and q != 0 for q in coeffs)
            if coeffs:
                assert gcd(*coeffs) == 1

    def test_sign_and_relation_kept(self):
        k = LinConstraint(Lin.make({"x": Fraction(-2, 3), "1": 2}), ">")
        assert k.lhs == Lin.make({"x": -1, "1": 3}) and k.rel == ">"

    def test_positive_scaling_gives_equal_constraint(self):
        rng = named_rng(6, "fm-scale")
        for _ in range(300):
            lin = rand_lin(rng, self.NAMES)
            rel = rng.choice([">=", ">", "="])
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            a, b = LinConstraint(lin, rel), LinConstraint(lin.scale(q), rel)
            assert a == b and hash(a) == hash(b)
            # the negated side is a different constraint unless it is an equality
            flipped = LinConstraint(lin.scale(-q), rel)
            assert (flipped == a) == (rel == "=" or lin.is_zero())

    def test_holds_unchanged(self):
        rng = named_rng(7, "fm-holds")
        for _ in range(300):
            lin = rand_lin(rng, ["x", "y", "z", "1"])
            rel = rng.choice([">=", ">", "="])
            env = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in "xyz"}
            value = lin.eval(env)
            expected = {">=": value >= 0, ">": value > 0, "=": value == 0}[rel]
            assert LinConstraint(lin, rel).holds(env) is expected

    def test_negation_complements(self):
        rng = named_rng(8, "fm-neg")
        for _ in range(200):
            k = LinConstraint(rand_lin(rng, ["x", "1"]), rng.choice([">=", ">", "="]))
            env = {"x": Fraction(rng.randint(-4, 4), rng.randint(1, 2))}
            assert any(n.holds(env) for n in k.negated()) is not k.holds(env)


def _fix(conj, env):
    """The conjunction with the variables in env replaced by their values."""
    out = []
    for k in conj:
        mapping = {}
        for v, q in k.lhs.coeffs:
            if v in env:
                mapping["1"] = mapping.get("1", 0) + q * env[v]
            else:
                mapping[v] = mapping.get(v, 0) + q
        out.append(LinConstraint(Lin.make(mapping), k.rel))
    return out


class TestIntegerFm:
    # x has coefficient 0, +-1 or +-2 and the rest are integers in
    # [-2, 2], so at y, z in {-1, 0, 1} every bound on x is a multiple of
    # 1/2 in [-6, 6]; quarter steps then meet any nonempty interval
    X_GRID = [Fraction(i, 4) for i in range(-28, 29)]

    def test_agrees_with_grid(self):
        rng = named_rng(11, "fm-integer-grid")
        for _ in range(200):
            conj = [
                LinConstraint(
                    Lin.make({
                        "x": rng.choice([0, 1, -1, 2, -2]),
                        "y": rng.randint(-2, 2),
                        "z": rng.randint(-2, 2),
                        "1": rng.randint(-2, 2),
                    }),
                    rng.choice([">=", ">=", ">", "="]),
                )
                for _ in range(rng.randint(1, 4))
            ]
            out = fm_eliminate_conj("x", conj)
            assert out is None or all("x" not in k.lhs.vars() for k in out)
            for y in (-1, 0, 1):
                for z in (-1, 0, 1):
                    env = {"y": Fraction(y), "z": Fraction(z)}
                    direct = dnf_satisfiable_grid([_fix(conj, env)], ["x"], self.X_GRID)
                    after = out is not None and all(k.holds(env) for k in out)
                    assert direct == after, (conj, env)
