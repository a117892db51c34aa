"""Recursive-descent parser for the ASCII surface syntax.

Grammar summary (tightest binding first): unary minus and integer
scaling, meet/join/cap/cup, + and binary -, relations (<=, <<, =, and
strict < as sugar), ~, &, |, ->, quantifiers. Quantifier bodies extend
as far right as possible.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, SortError
from . import syntax as S

# a token with the whitespace before it; `bad` is any other character
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<op>->|<=|<<|[()\.:,;&|~+\-*=<])|(?P<bad>\S))"
)

_KEYWORDS = {
    "forall", "exists", "meet", "join", "cap", "cup", "compl",
    "bot", "top", "true", "false", "P",
}


def _tokenize(text: str):
    """(kind, text, position) triples ending in an eof token. A token's
    position is where the whitespace before it starts."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        word = m.group(kind)
        if kind == "bad":
            raise FormulaSyntaxError(
                f"unexpected character {word!r}", position=m.start(kind)
            )
        if kind == "ident" and word in _KEYWORDS:
            kind = "kw"
        tokens.append((kind, word, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, context: dict[str, str] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.context = dict(context or {})
        self.bound: list[tuple[str, str]] = []

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise FormulaSyntaxError(
                f"expected {value!r}, found {val or 'end of input'!r}", position=pos
            )

    def at(self, value: str) -> bool:
        return self.tokens[self.i][1] == value

    def accept(self, value: str) -> bool:
        if self.tokens[self.i][1] == value:
            self.i += 1
            return True
        return False

    # --- sorts of variables in scope ---

    def var_sort(self, name: str):
        for var, sort in reversed(self.bound):
            if var == name:
                return sort
        return self.context.get(name)

    # --- formulas ---

    def formula(self) -> S.Formula:
        kind, val, _ = self.peek()
        if val in ("forall", "exists"):
            self.next()
            names = [self.ident()]
            while self.accept(","):
                names.append(self.ident())
            self.expect(":")
            sort = self.sort()
            self.expect(".")
            for name in names:
                self.bound.append((name, sort))
            body = self.formula()
            cls = S.Forall if val == "forall" else S.Exists
            for name in reversed(names):
                self.bound.pop()
                body = cls(name, sort, body)
            return body
        return self.implies()

    def ident(self) -> str:
        kind, val, pos = self.next()
        if kind != "ident":
            raise FormulaSyntaxError(f"expected a variable, found {val!r}", position=pos)
        return val

    def sort(self) -> str:
        kind, val, pos = self.next()
        if val not in (S.G, S.L):
            raise FormulaSyntaxError(f"expected sort G or L, found {val!r}", position=pos)
        return val

    def implies(self) -> S.Formula:
        left = self.or_()
        if self.accept("->"):
            return S.Implies(left, self.implies())
        return left

    def or_(self) -> S.Formula:
        out = self.and_()
        while self.accept("|"):
            out = S.Or(out, self.and_())
        return out

    def and_(self) -> S.Formula:
        out = self.not_()
        while self.accept("&"):
            out = S.And(out, self.not_())
        return out

    def not_(self) -> S.Formula:
        if self.accept("~"):
            return S.Not(self.not_())
        return self.atom()

    def atom(self) -> S.Formula:
        if self.accept("true"):
            return S.TRUE
        if self.accept("false"):
            return S.FALSE
        kind, val, pos = self.peek()
        if val in ("forall", "exists"):
            return self.formula()
        if val == "(":
            # Could be a parenthesized formula or a parenthesized term
            # opening a relation; try the formula reading first.
            mark = self.i
            try:
                self.next()
                inner = self.formula()
                self.expect(")")
                return inner
            except (FormulaSyntaxError, SortError):
                self.i = mark
        return self.relation()

    def relation(self) -> S.Formula:
        _, _, pos = self.peek()
        left = self.term()
        kind, op, oppos = self.next()
        if op not in ("<=", "<<", "=", "<"):
            raise FormulaSyntaxError(
                f"expected a relation, found {op or 'end of input'!r}", position=oppos
            )
        right = self.term()
        lsort = self.term_sort_of(left)
        rsort = self.term_sort_of(right)
        sort = lsort or rsort
        if op in ("<=", "<<"):
            need = S.G if op == "<=" else S.L
            if (sort or need) != need:
                # a fault inside a side is named before the relation's
                S.free_vars(left)
                S.free_vars(right)
                raise SortError(f"{op} relates {need}-sorted terms near position {pos}")
            return S.GLeq(left, right) if need == S.G else S.LBelow(left, right)
        if sort is None:
            raise SortError(
                f"cannot infer the sort of '{S.print_term(left)} {op} "
                f"{S.print_term(right)}'; declare the variables"
            )
        if op == "=":
            return S.GEq(left, right) if sort == S.G else S.LEq(left, right)
        # strict < is sugar for (<= or <<) plus disequality
        if sort == S.G:
            return S.And(S.GLeq(left, right), S.Not(S.GEq(left, right)))
        return S.And(S.LBelow(left, right), S.Not(S.LEq(left, right)))

    def term_sort_of(self, t: S.Term):
        """The sort of t's class; for a G-variable, its sort from the
        binders or the context, None if neither declares it."""
        if type(t) is S.GVar:
            return self.var_sort(t.name)
        return S.SORT[type(t)]

    # --- terms ---
    # A variable parses as an LVar when a binder in scope or the context
    # gives it sort L, and as a GVar otherwise; the free_vars walk at the
    # end of parse rejects the tree if that disagrees with how the
    # variable is used.

    def term(self) -> S.Term:
        left = self.lat_level()
        while True:
            if self.accept("+"):
                left = S.Add(left, self.lat_level())
            elif self.accept("-"):
                left = S.Add(left, S.Neg(self.lat_level()))
            else:
                return left

    def lat_level(self) -> S.Term:
        left = self.unary()
        while True:
            if self.accept("meet"):
                left = S.GMeet(left, self.unary())
            elif self.accept("join"):
                left = S.GJoin(left, self.unary())
            elif self.accept("cap"):
                left = S.LMeet(left, self.unary())
            elif self.accept("cup"):
                left = S.LJoin(left, self.unary())
            else:
                return left

    def unary(self) -> S.Term:
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            return S.Neg(self.unary())
        if kind == "num":
            self.next()
            if val == "0" and not self.at("*"):
                return S.Zero()
            self.expect("*")
            return S.IntScale(int(val), self.unary())
        return self.primary()

    def primary(self) -> S.Term:
        kind, val, pos = self.next()
        if val == "bot":
            return S.Bot()
        if val == "top":
            return S.Top()
        if val == "P":
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return S.Val(arg)
        if val == "compl":
            self.expect("(")
            arg = self.term()
            self.expect(")")
            return S.Compl(arg)
        if val == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "ident":
            sort = self.var_sort(val)
            return S.LVar(val) if sort == S.L else S.GVar(val)
        raise FormulaSyntaxError(
            f"expected a term, found {val or 'end of input'!r}", position=pos
        )


def parse(text: str, context: dict[str, str] | None = None) -> S.Formula:
    """Parse one formula; context declares the sorts of free variables."""
    parser = _Parser(text, context)
    phi = parser.formula()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input at {val!r}", position=pos)
    S.free_vars(phi, context)
    return phi
