"""syntax.frozen_node keeps the contract of a frozen dataclass: ==, hash
and repr agree with each class's dataclass(frozen=True) twin, built here
from the class's annotations alone, on the corpus trees, their
normalized forms and value objects built from the known answers; no
attribute of an instance can be assigned or deleted; __post_init__ runs;
and defaults are per class attribute or per instance as declared."""

import dataclasses
from fractions import Fraction

import pytest

from dvlg import periodic as P
from dvlg import standard as ST
from dvlg import syntax as S
from dvlg.corpus import gen_lattice_corpus, gen_tplus_corpus, load_known_answers
from dvlg.errors import BadLength, LengthMismatch
from dvlg.linear import Lin
from dvlg.oracle import Assignment, Prepared, prepare
from dvlg.parser import parse
from dvlg.reduction import ReductionOutput, reduce
from dvlg.rewrites import normalize
from dvlg.selfcheck import is_purely_existential_g, periodic_witness_search

NODE_CLASSES = (*S.Term.__subclasses__(), *S.Formula.__subclasses__())
VALUE_CLASSES = (
    ST.GroupVector, ST.SubsetL, ST.FinStdStructure, P.PeriodicFn,
    P.PeriodicSet, Assignment, Prepared, ReductionOutput,
)
CLASSES = (*NODE_CLASSES, Lin, *VALUE_CLASSES)


def _annotations(cls) -> dict:
    return dict(cls.__dict__.get("__annotations__", {}))


def _twin_class(cls):
    """The frozen dataclass with cls's name and annotated fields, and
    none of cls's methods."""
    namespace = {
        "__annotations__": _annotations(cls),
        "__qualname__": cls.__qualname__,
        "__module__": __name__,
    }
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


TWINS = {cls: _twin_class(cls) for cls in CLASSES}


def twin(x, memo):
    """x with every instance of one of CLASSES, at any depth, replaced by
    its twin's instance of the same field values."""
    key = id(x)
    if key in memo:
        return memo[key][1]
    cls = type(x)
    if cls in TWINS:
        out = TWINS[cls](*(twin(getattr(x, n), memo) for n in _annotations(cls)))
    elif cls is tuple:
        out = tuple(twin(v, memo) for v in x)
    elif cls is dict:
        out = {k: twin(v, memo) for k, v in x.items()}
    else:
        return x
    memo[key] = (x, out)  # x kept alive, so its id is not reused
    return out


def _copy(x):
    """A new instance with x's field values."""
    return type(x)(*(getattr(x, n) for n in _annotations(type(x))))


def _check_agree(objects):
    """==, hash and repr of each object agree with its twin's, and == of
    each with its predecessor and with a copy of itself agrees too."""
    memo = {}
    checked = set()
    prev = prev_twin = None
    for x in objects:
        t = twin(x, memo)
        assert repr(x) == repr(t)
        if type(x) is Assignment:  # dict fields: neither hashes
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(t)
        else:
            assert hash(x) == hash(t), repr(x)
        copy = _copy(x)
        assert x == x and x == copy and copy is not x
        assert t == twin(copy, memo)
        assert (x == prev) == (t == prev_twin), (repr(x), repr(prev))
        assert (x != prev) == (t != prev_twin)
        prev, prev_twin = x, t
        checked.add(type(x))
    return checked


def _corpus():
    out = [phi for _, phi, _ in gen_tplus_corpus(11, 300)]
    out += [phi for _, phi in gen_lattice_corpus(11, 200)]
    # the classes that the generated corpora never build
    out += [parse("forall a:G. forall b:G. (a meet b <= a join b | false) & true")]
    return out


def _tree_nodes(phis):
    """Every node of the trees, and every Lin below a LinForm."""
    for phi in phis:
        for n in S.nodes(phi):
            yield n
            if type(n) is S.LinForm:
                yield n.lin


def _value_objects():
    out = []
    for e in load_known_answers():
        phi = parse(e["formula"])
        out += [prepare(phi), reduce(phi, "ec")]
        for n in e["expected_finite"]:
            struct = ST.FinStdStructure(int(n))
            out += [struct, struct.zero(), struct.top, struct.bot]
        if not (e["expected_ec"] and is_purely_existential_g(phi)):
            continue
        witness = periodic_witness_search(phi, 2)
        k = max(f.k for f in witness.values())
        genv = {v: ST.GroupVector(f.lift(k)) for v, f in witness.items()}
        lenv = {f"l{v}": ST.std_valuation(g) for v, g in genv.items()}
        out += [*witness.values(), *map(P.periodic_valuation, witness.values())]
        out += [*genv.values(), *lenv.values(), Assignment(genv, lenv)]
    return out


class TestAgreesWithDataclassTwin:
    def test_classes(self):
        # the maker made exactly these 36 classes, and no other
        assert len(CLASSES) == 36
        assert set(S.FIELDS) == set(CLASSES)
        for cls in CLASSES:
            assert list(S.FIELDS[cls]) == list(_annotations(cls))

    def test_corpus_nodes(self):
        assert _check_agree(_tree_nodes(_corpus())) >= set(NODE_CLASSES) - {S.LinForm}

    def test_normalized_nodes(self):
        phis = [normalize(phi, S.free_names(phi)) for phi in _corpus()]
        assert {S.LinForm, Lin} <= _check_agree(_tree_nodes(phis))

    def test_value_objects(self):
        assert _check_agree(_value_objects()) == set(VALUE_CLASSES)

    def test_other_classes_are_unequal(self):
        # same fields, another class: unequal, as for the dataclass
        assert S.GLeq(S.Zero(), S.Zero()) != S.GEq(S.Zero(), S.Zero())
        assert S.Bot() != S.Top() and S.Zero() != S.TrueF()
        assert S.GVar("a") != TWINS[S.GVar]("a")
        assert S.GVar("a") != ("a",)


def _value_instances():
    """One instance of each value class."""
    phi = parse("exists a:G. a + a = 0")
    f = P.PeriodicFn(1, (1, 2))
    return {
        ST.GroupVector: ST.GroupVector((1, 2)),
        ST.SubsetL: ST.SubsetL(1, 2),
        ST.FinStdStructure: ST.FinStdStructure(2),
        P.PeriodicFn: f,
        P.PeriodicSet: P.periodic_valuation(f),
        Assignment: Assignment({"a": ST.GroupVector((1, 2))}),
        Prepared: prepare(phi),
        ReductionOutput: reduce(phi, "ec"),
    }


class TestFrozen:
    def test_no_attribute_can_be_assigned_or_deleted(self):
        # the node classes and Lin: tests/test_syntax.py TestFrozenNodes
        assert issubclass(S.FrozenInstanceError, AttributeError)
        for cls, x in _value_instances().items():
            before = repr(x)
            for name in [*_annotations(cls), "other"]:
                with pytest.raises(S.FrozenInstanceError):
                    setattr(x, name, 0)
                with pytest.raises(S.FrozenInstanceError):
                    delattr(x, name)
            assert repr(x) == before, cls

    def test_post_init_runs(self):
        with pytest.raises(LengthMismatch):
            ST.FinStdStructure(0)
        with pytest.raises(BadLength):
            P.PeriodicFn(1, (1, 1))  # one value repeated: not minimal
        with pytest.raises(BadLength):
            P.PeriodicSet(1, 0b11)
        # GroupVector's __post_init__ turns each value into a Fraction
        assert ST.GroupVector(("1/2",)).values == (Fraction(1, 2),)

    def test_defaults(self):
        first, second = Assignment(), Assignment()
        assert first.group_env == {} and first.lattice_env == {}
        assert first.group_env is not second.group_env
        assert first.lattice_env is not second.lattice_env
        assert Assignment(lattice_env={}).group_env == {}
        out = ReductionOutput(S.TRUE, (), (), 0, "ec")
        assert out.eliminations == 0
        assert out == ReductionOutput(S.TRUE, (), (), 0, "ec", 0)
        assert ReductionOutput.eliminations == 0
