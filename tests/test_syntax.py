"""Parser and printer: round trips, sort checking, error positions;
the generic tree walk."""

import importlib.util
import itertools
import operator
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

from dvlg import syntax as S
from dvlg.corpus import gen_lattice_corpus, gen_tplus_corpus, load_known_answers
from dvlg.errors import FormulaSyntaxError, SortError
from dvlg.linear import Lin
from dvlg.boolalg import ba_qe
from dvlg.parser import parse
from dvlg.reduction import reduce
from dvlg.rewrites import normalize
from dvlg.syntax import (
    children,
    free_vars,
    nodes,
    print_formula,
    rebuild,
)

CTX = {"a": S.G, "b": S.G, "l": S.L, "m": S.L}
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


class TestParseBasics:
    def test_atom(self):
        phi = parse("a <= b", CTX)
        assert isinstance(phi, S.GLeq)

    def test_strict_sugar(self):
        # s < t desugars to s <= t and not t <= s
        phi = parse("a < b", CTX)
        assert isinstance(phi, S.And)
        assert isinstance(phi.right, S.Not)

    def test_quantifier_comma_list(self):
        phi = parse("exists x, y:G. x + y = 0")
        assert isinstance(phi, S.Exists) and isinstance(phi.body, S.Exists)

    def test_valuation(self):
        phi = parse("P(a) = top", CTX)
        assert isinstance(phi, S.LEq)
        assert isinstance(phi.left, S.Val)

    def test_integer_scaling(self):
        phi = parse("2*a <= a + a", CTX)
        assert isinstance(phi.left, S.IntScale)

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse("a <= ", CTX)
        assert ei.value.position is not None

    @pytest.mark.parametrize(
        "text, char, position",
        [("x <= $y", "$", 5), ("exists x:G. x = 0 $", "$", 18), ("a <=\t #", "#", 6)],
    )
    def test_bad_character_named_at_its_position(self, text, char, position):
        # the whitespace before a bad character is not the culprit
        with pytest.raises(FormulaSyntaxError) as ei:
            parse(text, CTX)
        assert str(ei.value) == f"unexpected character {char!r}"
        assert ei.value.position == position

    def test_unbound_name_becomes_free_variable(self):
        phi = parse("exists x:G. x <= z")
        assert free_vars(phi) == {"z": S.G}

    def test_sort_error(self):
        with pytest.raises(SortError):
            parse("a << b", CTX)  # << relates lattice terms only


class TestSorts:
    def test_term_sorts(self):
        # every term class has a sort, and only term classes have one
        assert set(S.SORT) == set(S.Term.__subclasses__())
        assert S.SORT[type(parse("exists x:G. x <= 0").body.left)] == S.G

    def test_mixed_term_rejected(self):
        with pytest.raises(SortError):
            parse("a + l = 0", CTX)

    @pytest.mark.parametrize("text, message", [
        # an ill-sorted term inside parentheses keeps the formula reading
        ("forall l:L. (l + a <= b)", "G-operator over L-sorted operand: l"),
        ("forall l:L. (compl(a + l) = top) | a <= 0", "G-operator over L-sorted operand: l"),
        ("forall x:L. (x + 0 <= 0) | (x = bot)", "G-operator over L-sorted operand: x"),
        ("(forall l:L. l + l = l) | a <= 0", "G-operator over L-sorted operand: l"),
        # the first offender of a recursive check, operand after subtree
        ("forall l:L. -l = l", "G-operator over L-sorted operand: l"),
        ("(a cap b) = c", "L-operator over G-sorted operand: a"),
        ("forall l:L. (l cap P(a)) + a = 0", "G-operator over L-sorted operand: l cap P(a)"),
        # a fault in both operands: the left one is named, and a left
        # operand before anything inside the right one
        ("l + m <= a", "G-operator over L-sorted operand: l"),
        ("(l cap m) + (a + l) <= 0", "G-operator over L-sorted operand: l cap m"),
        ("x = top cap (b + l)", "L-relation over G-sorted term: x"),
        # a fault inside a side is named before the relation's, and one
        # outside the relation is not
        ("P(l) <= a", "P takes a G-sorted argument: l"),
        ("l <= P(m)", "P takes a G-sorted argument: m"),
        ("l <= m", "<= relates G-sorted terms near position 0"),
        ("(l + a = 0) & (l <= m)", "<= relates G-sorted terms near position 15"),
        # a side is checked in the scope of the binders around it, where
        # x is G-sorted though the context declares it L
        (("exists x:G. x + l << m", {"x": S.L, "l": S.L, "m": S.L}),
         "G-operator over L-sorted operand: l"),
    ])
    def test_sort_error_names_first_offender(self, text, message):
        # a text, or a (text, context) pair; the context is CTX by default
        text, context = text if isinstance(text, tuple) else (text, CTX)
        with pytest.raises(SortError) as ei:
            parse(text, context)
        assert str(ei.value) == message

    def test_syntax_error_after_a_sort_fault_wins(self):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse("l + a <= b &", CTX)
        assert str(ei.value) == "expected a term, found 'end of input'"
        assert ei.value.position == 12

    @pytest.mark.parametrize("phi, message", [
        (S.Exists("x", S.L, S.GLeq(S.GVar("x"), S.Zero())),
         "variable x used at sort G but declared L"),
        (S.And(S.GLeq(S.GVar("a"), S.Zero()), S.LEq(S.LVar("a"), S.Bot())),
         "variable a used at sort L but declared G"),
    ])
    def test_free_vars_rejects_ill_sorted_tree(self, phi, message):
        with pytest.raises(SortError) as ei:
            free_vars(phi)
        assert str(ei.value) == message

    def test_free_vars(self):
        phi = parse("exists x:G. x <= a & l << P(b)", CTX)
        # in order of first use
        assert list(free_vars(phi).items()) == [("a", S.G), ("l", S.L), ("b", S.G)]

    def test_free_vars_shadowing(self):
        cases = [
            ("(exists x:G. x <= a) & x <= a", {"x": S.G, "a": S.G}),
            ("x <= a & (forall x:G. x <= a)", {"x": S.G, "a": S.G}),
            ("exists x:G. (exists x:G. x <= a) & x <= b", {"a": S.G, "b": S.G}),
            ("(exists y:L. y << l) | y << l", {"y": S.L, "l": S.L}),
            ("forall x:G. exists x:G. x <= 0", {}),
            # the binder's sort holds only in its scope
            ("(exists x:L. x << l) & x <= a", {"l": S.L, "x": S.G, "a": S.G}),
        ]
        for text, expected in cases:
            assert free_vars(parse(text, {**CTX, "y": S.L})) == expected, text


class TestRoundTrip:
    def _check(self, phi, context=None):
        text = print_formula(phi)
        again = parse(text, context)
        assert again == phi, text
        free_vars(again, context)

    def test_handwritten(self):
        samples = [
            "forall x:G. exists w:G. w + w = x",
            "exists y:L. ~(y = bot) & y << l",
            "P(a - b) = top -> a <= b",
            "exists x:G. 3*x <= a | x = -b",
            "forall y:L. y << top & bot << y",
            "P(a) cup m = compl(l) cap m",
            "exists x:G. exists y:L. y << P(x) & P(x - a) = y",
        ]
        for text in samples:
            self._check(parse(text, CTX), CTX)

    def test_group_term_shapes(self):
        samples = [
            "a + b <= a meet b",
            "a join b <= 2*a + 2*b",
            "-(a meet b) = (-a) join (-b)",
            "a - (b - a) <= 3*a",
        ]
        for text in samples:
            self._check(parse(text, CTX), CTX)

    def test_corpus_round_trip(self):
        # 300 mixed-sort formulas and 200 lattice sentences
        for text, phi, ctx in gen_tplus_corpus(11, count=300):
            assert parse(print_formula(phi), ctx) == phi
        for text, phi in gen_lattice_corpus(11, count=200):
            assert parse(print_formula(phi)) == phi


class TestErrorsInsideParentheses:
    """A parenthesis is read once, as whatever it holds, so an error
    names the first token that cannot continue the formula."""

    @pytest.mark.parametrize("text, message, position", [
        ("(a <= b", "expected ')', found 'end of input'", 7),
        ("(c cap d << P ~ f - g)", "expected '(', found '~'", 13),
    ])
    def test_syntax_error(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as ei:
            parse(text)
        assert str(ei.value) == message
        assert ei.value.position == position

    def test_sort_error(self):
        with pytest.raises(SortError) as ei:
            parse("(x = y)")
        assert str(ei.value) == "cannot infer the sort of 'x = y'; declare the variables"


def _workloads():
    """perfbench/workloads.py, which imports no part of the package."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def _alternation_chain(k):
    return _workloads().alternation_chain(k)


def _count(phi, classes):
    return sum(1 for n in nodes(phi) if isinstance(n, classes))


class TestParseDepth:
    """Runs of quantifiers, of -> and of ~ are read in loops: only a
    parenthesis or a change of precedence takes a Python frame."""

    @pytest.mark.parametrize("k", [512, 1024])
    def test_alternation_chain(self, k):
        assert sys.getrecursionlimit() == 1000
        phi = parse(_alternation_chain(k))
        assert _count(phi, (S.Forall, S.Exists)) == 2 * k

    def test_nested_parentheses_around_a_term(self):
        assert sys.getrecursionlimit() == 1000
        phi = parse("(" * 300 + "a + b" + ")" * 300 + " <= a", CTX)
        assert phi == S.GLeq(S.Add(S.GVar("a"), S.GVar("b")), S.GVar("a"))

    # the runs below are as long as the recursion limit: a parser that
    # took a frame per link or per ~ would overflow
    def test_implication_chain(self):
        assert sys.getrecursionlimit() == 1000
        phi = parse(" -> ".join(["a <= b"] * 1001), CTX)
        for _ in range(1000):
            assert type(phi) is S.Implies and type(phi.left) is S.GLeq
            phi = phi.right
        assert type(phi) is S.GLeq

    def test_negation_run(self):
        assert sys.getrecursionlimit() == 1000
        phi = parse("~" * 1000 + "a <= b", CTX)
        assert _count(phi, S.Not) == 1000
        assert _count(phi, S.GLeq) == 1


class TestPrintDepth:
    """The printer writes each run the parser reads in a loop in a loop
    too: a left chain at one precedence, a -> chain, a run of ~ and a
    run of quantifiers. Strings are compared, since dataclass == on
    trees this deep would recurse once per level."""

    @pytest.mark.parametrize("text", [
        pytest.param("~" * 1000 + "a <= b", id="not"),
        pytest.param(" -> ".join(["a <= b"] * 1001), id="implies"),
        pytest.param(" & ".join(["a <= b"] * 1001), id="and"),
        pytest.param(" + ".join(["a"] * 1000) + " <= b", id="add"),
        pytest.param(
            "".join(f"exists x{i}:G. " for i in range(1000)) + "x0 <= a",
            id="quantifiers",
        ),
    ])
    def test_run_prints_and_reparses(self, text):
        assert sys.getrecursionlimit() == 1000
        out = print_formula(parse(text, CTX))
        assert out == text
        assert print_formula(parse(out, CTX)) == out


# a leaf of each operand sort; None is the sort of formulas
_LEAF = {
    None: S.GLeq(S.GVar("a"), S.GVar("b")),
    S.G: S.GVar("b"),
    S.L: S.LVar("m"),
}


def _binary(cls, sort):
    """Instances of the binary operator cls over operands of sort: its
    leaves, and quantified and negated formulas or negated and scaled
    group terms."""
    leaf = _LEAF[sort]
    out = [cls(leaf, leaf)]
    if sort is None:
        out.append(cls(S.Exists("x", S.G, leaf), S.Not(leaf)))
    elif sort == S.G:
        out.append(cls(S.Neg(leaf), S.IntScale(2, leaf)))
    return out


def _wrap(node, sort):
    """node as a formula: the left side of a relation if it is a term."""
    if sort is None:
        return node
    return S.GLeq(node, _LEAF[S.G]) if sort == S.G else S.LBelow(node, _LEAF[S.L])


class TestOperatorTable:
    """print_formula parenthesizes by the table that parse reads."""

    def _check(self, phi):
        text = print_formula(phi)
        assert parse(text, CTX) == phi, text

    @pytest.mark.parametrize("outer, inner", [
        (o, i) for o, i in itertools.product(S.BINARY, repeat=2)
        if S.SORT.get(o) == S.SORT.get(i)
    ])
    def test_every_pair_as_left_and_right_child(self, outer, inner):
        sort = S.SORT.get(outer)
        leaf = _LEAF[sort]
        for child in _binary(inner, sort):
            for node in (outer(child, leaf), outer(leaf, child), outer(child, child)):
                self._check(_wrap(node, sort))

    @pytest.mark.parametrize("cls", list(S.BINARY))
    def test_under_prefix_operators_and_a_quantifier(self, cls):
        sort = S.SORT.get(cls)
        for node in _binary(cls, sort):
            if sort is None:
                under = [S.Not(node), S.Forall("x", S.G, node)]
            elif sort == S.G:
                under = [_wrap(S.Neg(node), sort), _wrap(S.IntScale(3, node), sort)]
            else:
                under = [_wrap(S.Compl(node), sort)]
            for phi in [*under, S.Exists("x", S.G, _wrap(node, sort))]:
                self._check(phi)
                self._check(S.Not(phi))


def _corpus_formulas():
    out = [phi for _, phi, _ in gen_tplus_corpus(11, count=300)]
    out += [phi for _, phi in gen_lattice_corpus(11, count=200)]
    out += [parse(e["formula"]) for e in load_known_answers()]
    return out


def _copy(node):
    """A fresh tree equal to node: new leaves, so every node is rebuilt."""
    if not children(node):
        return type(node)(*(getattr(node, f.name) for f in fields(node)))
    return rebuild(node, tuple(map(_copy, children(node))))


def _preorder(node, out):
    """Recursive reference for nodes: node, then each child's subtree."""
    out.append(node)
    for child in children(node):
        _preorder(child, out)
    return out


class TestWalker:
    def test_children_are_node_fields_in_order(self):
        for phi in _corpus_formulas():
            for n in nodes(phi):
                values = [getattr(n, f.name) for f in fields(n)]
                kids = [v for v in values if isinstance(v, (S.Term, S.Formula))]
                assert children(n) == tuple(kids)

    def test_identity_map_is_identity(self):
        for phi in _corpus_formulas():
            for n in nodes(phi):
                assert rebuild(n, children(n)) == n
            again = _copy(phi)
            assert again == phi and again is not phi
            assert print_formula(again) == print_formula(phi)

    def test_keeps_other_fields(self):
        node = rebuild(parse("exists x:G. 3*x <= 0"), (S.TRUE,))
        assert node == S.Exists("x", S.G, S.TRUE)
        scaled = rebuild(S.IntScale(3, S.GVar("x")), (S.Zero(),))
        assert scaled == S.IntScale(3, S.Zero())
        leaf = S.GVar("x")
        assert rebuild(leaf, ()) is leaf

    def test_rebuild(self):
        phi = parse("exists x:G. 3*x <= a", CTX)
        assert rebuild(phi, children(phi)) == phi
        scaled = phi.body.left
        assert rebuild(scaled, (S.GVar("y"),)) == S.IntScale(3, S.GVar("y"))
        atom = rebuild(phi.body, (S.Zero(), S.GVar("b")))
        assert atom == S.GLeq(S.Zero(), S.GVar("b"))

    def test_nodes_left_before_right(self):
        phi = parse("a <= b", CTX)
        assert list(nodes(phi)) == [phi, S.GVar("a"), S.GVar("b")]

    def test_nodes_is_recursive_preorder(self):
        for phi in _corpus_formulas():
            expected = _preorder(phi, [])
            got = list(nodes(phi))
            assert len(got) == len(expected)
            assert all(map(operator.is_, got, expected))

    def test_nodes_walks_deep_tree(self):
        # deeper than the recursion limit: nodes keeps its own stack
        phi = S.TRUE
        for _ in range(10_000):
            phi = S.Not(phi)
        assert sum(1 for _ in nodes(phi)) == 10_001


BINDERS_AND_CONNECTIVES = (S.Exists, S.Forall, S.Not, S.And, S.Or, S.Implies)


class TestFrozenNodes:
    CLASSES = (*S.Term.__subclasses__(), *S.Formula.__subclasses__(), Lin)

    @staticmethod
    def _values(cls):
        # one distinct value per field, of the field's type: equality
        # and hash read them all
        make = {
            "Term": lambda i: S.GVar(f"v{i}"),
            "Formula": lambda i: S.GEq(S.GVar(f"v{i}"), S.Zero()),
            "Lin": lambda i: Lin.var(f"v{i}"),
            "int": lambda i: i,
        }
        return {
            f.name: make.get(f.type, lambda i: f"v{i}")(i)
            for i, f in enumerate(fields(cls))
        }

    def _instance(self, cls):
        return cls(**self._values(cls))

    def test_assigning_any_field_raises(self):
        for cls in self.CLASSES:
            node = self._instance(cls)
            # a Term or Formula node also stores its free names, and a
            # binder or connective whether it holds a quantifier
            stored = [f.name for f in fields(cls)]
            if cls is not Lin:
                stored += ["free", "has_binder"]
            for name in stored:
                with pytest.raises(FrozenInstanceError):
                    setattr(node, name, "other")
                with pytest.raises(FrozenInstanceError):
                    delattr(node, name)
            assert node == self._instance(cls), cls

    def test_fields_are_stored_in_the_instance_dict(self):
        for cls in self.CLASSES:
            node = self._instance(cls)
            values = self._values(cls)
            if cls is Lin:
                assert vars(node) == values
            else:
                # a Term or Formula node stores its free names too, and a
                # binder or a connective whether it holds a quantifier;
                # neither is a field, and equality, hash and repr read
                # neither
                assert "free" not in values and "has_binder" not in values
                stored = {**values, "free": node.free}
                if cls in BINDERS_AND_CONNECTIVES:
                    stored["has_binder"] = node.has_binder
                else:
                    # an atom, a constant or a term reads its class's False
                    assert node.has_binder is False
                    assert "has_binder" not in vars(cls)
                assert vars(node) == stored, cls
                vars(node)["free"] = ~node.free
                vars(node)["has_binder"] = not node.has_binder
            assert node == self._instance(cls), cls
            assert hash(node) == hash(self._instance(cls))
            args = ", ".join(f"{k}={v!r}" for k, v in values.items())
            assert repr(node) == f"{cls.__name__}({args})"

    def test_keyword_arguments_and_arity(self):
        assert S.Exists(var="x", sort=S.G, body=S.TRUE) == S.Exists("x", S.G, S.TRUE)
        assert Lin(coeffs=(("a", 1),)) == Lin.var("a")
        with pytest.raises(TypeError):
            S.And(S.TRUE)
        with pytest.raises(TypeError):
            S.Neg(S.Zero(), S.Zero())


class TestFreeNames:
    """Every node carries its free names from when it was built; they
    are the names that the reference walk free_vars finds, at every node
    of the parser's, normalize's, reduce's and ba_qe's trees. Every node
    also carries whether a quantifier lies in it, which a walk of its
    subtree confirms at each of those nodes."""

    @pytest.fixture(scope="class")
    def formulas(self):
        out = [phi for s in (1, 2) for _, phi, _ in gen_tplus_corpus(s, 300)]
        out += [phi for _, phi in gen_lattice_corpus(7, 400, 3)]
        out += [parse(e["formula"]) for e in load_known_answers()]
        mod = _workloads()
        out += [
            parse(make(k))
            for make in (mod.patching, mod.cyclic_chain, mod.alternation_chain)
            for k in range(1, 7)
        ]
        return out

    @staticmethod
    def _check(tree):
        for n in nodes(tree):
            free = free_vars(n)
            assert S.free_names(n) == set(free), print_formula(tree)
            assert not S.occurs_free("_absent", n)
            assert all(S.occurs_free(name, n) for name in free)
            # the binder flag, against a walk of the whole subtree
            binds = any(type(m) in (S.Exists, S.Forall) for m in nodes(n))
            assert n.has_binder is binds, print_formula(tree)

    def test_parsed(self, formulas):
        for phi in formulas:
            self._check(phi)

    def test_normalized_with_linform_leaves(self, formulas):
        leaves = 0
        for phi in formulas:
            out = normalize(phi, S.free_names(phi))
            self._check(out)
            leaves += sum(type(n) is S.LinForm for n in nodes(out))
        assert leaves > 1000

    def test_reduced_and_ba_qe_rendered(self, formulas):
        for phi in formulas:
            out = reduce(phi, "ec")
            self._check(out.chi)
            for t in out.terms:
                self._check(t)
            self._check(ba_qe(out.chi))

