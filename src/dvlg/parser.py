"""Parser for the ASCII surface syntax.

The grammar lives in the operator table syntax.BINARY, with
syntax.RELATIONS and the precedences of ~, n* and unary minus, which
the printer reads too. _Parser.expr is one precedence-climbing loop
over it (Pratt's top-down operator precedence). A parenthesis is read
once, as whatever it holds; above the relations only term operators
bind. A syntax error names the first token that cannot continue the
formula.
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


# the loosest precedence of a term operator: from here up, only term
# operators bind and expr reads a term
_TERM_PREC = S.RELATION_PREC + 1

# word -> (node class, precedence), for each sort of left operand
_FORMULA_OPS = {w: (cls, p) for cls, (w, p) in S.BINARY.items() if cls not in S.SORT}
_TERM_OPS = {w: (cls, p) for cls, (w, p) in S.BINARY.items() if cls in S.SORT}
_TERM_OPS["-"] = _TERM_OPS["+"]  # a - b reads as a + -b
_RELATION_WORDS = {*S.RELATIONS.values(), "<"}


class _Parser:
    def __init__(self, text: str, context: dict[str, str] | None):
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

    # --- the precedence-climbing loop ---

    def formula(self, prec: int = 0) -> S.Formula:
        """The formula at the cursor whose operators bind at precedence
        prec or tighter."""
        node = self.expr(prec)
        if type(node) in S.SORT:
            _, val, pos = self.peek()
            raise FormulaSyntaxError(
                f"expected a relation, found {val or 'end of input'!r}", position=pos
            )
        return node

    def expr(self, prec: int) -> S.Formula | S.Term:
        """The longest formula or term at the cursor whose operators
        bind at precedence prec or tighter; a term if prec is above the
        relations. A term ends where no term operator continues it;
        below the relations, a relation may then follow. A run of ->
        is read in one loop and grouped to the right."""
        pos = self.peek()[2]
        left = self.prefix(prec)
        while True:
            word = self.peek()[1]
            if type(left) in S.SORT:
                if word in _RELATION_WORDS and prec <= S.RELATION_PREC:
                    left = self.relation(left, pos)
                    continue
                op = _TERM_OPS.get(word)
            else:
                op = _FORMULA_OPS.get(word)
            if op is None or op[1] < prec:
                return left
            self.next()
            cls, p = op
            if cls is S.Implies:
                parts = [left, self.formula(p + 1)]
                while self.accept("->"):
                    parts.append(self.formula(p + 1))
                left = parts.pop()
                while parts:
                    left = S.Implies(parts.pop(), left)
            elif cls in S.SORT:
                right = self.expr(p + 1)
                left = cls(left, S.Neg(right) if word == "-" else right)
            else:
                left = cls(left, self.formula(p + 1))

    def prefix(self, prec: int) -> S.Formula | S.Term:
        """The operand at the cursor with its prefix operators: true,
        false, a run of ~ or a run of quantifiers where a formula may
        stand (prec at most the relations'), and otherwise a term."""
        kind, val, pos = self.peek()
        if prec < _TERM_PREC:
            if val in ("forall", "exists"):
                return self.quantified()
            if val == "~":
                count = 0
                while self.accept("~"):
                    count += 1
                out = self.formula(S.NOT_PREC)
                for _ in range(count):
                    out = S.Not(out)
                return out
            if val == "true" or val == "false":
                self.next()
                return S.TRUE if val == "true" else S.FALSE
        self.next()
        if val == "(":
            inner = self.expr(0 if prec < _TERM_PREC else _TERM_PREC)
            self.expect(")")
            return inner
        if val == "-":
            return S.Neg(self.expr(S.UNARY_PREC))
        if kind == "num":
            if val == "0" and not self.at("*"):
                return S.Zero()
            self.expect("*")
            return S.IntScale(int(val), self.expr(S.UNARY_PREC))
        if val == "bot":
            return S.Bot()
        if val == "top":
            return S.Top()
        if val == "P" or val == "compl":
            self.expect("(")
            arg = self.expr(_TERM_PREC)
            self.expect(")")
            return S.Val(arg) if val == "P" else S.Compl(arg)
        if kind == "ident":
            # an LVar when a binder in scope or the context gives it sort
            # L, a GVar otherwise; the free_vars walk at the end of parse
            # rejects the tree if that disagrees with how it is used
            sort = self.var_sort(val)
            return S.LVar(val) if sort == S.L else S.GVar(val)
        raise FormulaSyntaxError(
            f"expected a term, found {val or 'end of input'!r}", position=pos
        )

    def quantified(self) -> S.Formula:
        """A run of quantifier prefixes and the body they scope over."""
        binders = []
        while self.at("forall") or self.at("exists"):
            cls = S.Forall if self.next()[1] == "forall" else S.Exists
            names = [self.ident()]
            while self.accept(","):
                names.append(self.ident())
            self.expect(":")
            sort = self.sort()
            self.expect(".")
            for name in names:
                self.bound.append((name, sort))
                binders.append((cls, name, sort))
        body = self.formula()
        del self.bound[-len(binders):]
        for cls, name, sort in reversed(binders):
            body = cls(name, sort, body)
        return body

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

    def relation(self, left: S.Term, pos: int) -> S.Formula:
        """left, the term that starts at pos, related to the term after
        the relation word at the cursor."""
        op = self.next()[1]
        right = self.expr(_TERM_PREC)
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


def parse(text: str, context: dict[str, str] | None = None) -> S.Formula:
    """Parse one formula; context declares the sorts of free variables."""
    parser = _Parser(text, context)
    phi = parser.formula()
    kind, val, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input at {val!r}", position=pos)
    S.free_vars(phi, context)
    return phi
