"""Parser for the ASCII surface syntax.

The grammar lives in the operator table syntax.BINARY, with
syntax.RELATIONS and the precedences of ~, n* and unary minus, which
the printer reads too. _Parser.expr is one precedence-climbing loop
over it (Pratt's top-down operator precedence), and _Parser.prefix
reads a run of prefix operators in one loop. A parenthesis is read
once, as whatever it holds; above the relations only term operators
bind. A syntax error names the first token that cannot continue the
formula.

The parser checks each operand's sort (syntax._OPERANDS) as it builds
the node, and only notes whether one is wrong. Once the whole text has
parsed, so that a syntax error anywhere comes first, parse runs
syntax.free_vars on an ill-sorted input, and only there: it raises the
first fault in its order. A relation between terms of the wrong sort
is refused at once, after free_vars has checked each side.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, SortError
from . import syntax as S

# a token's word: a number, a name or keyword, or an operator
_WORD = r"\d+|[A-Za-z_][A-Za-z0-9_']*|->|<=|<<|[()\.:,;&|~+\-*=<]"
_WORD_RE = re.compile(_WORD)
# a token with the whitespace before it; its group is any other character
_TOKEN_RE = re.compile(rf"\s*(?:{_WORD}|(\S))")

_KEYWORDS = {
    "forall", "exists", "meet", "join", "cap", "cup", "compl",
    "bot", "top", "true", "false", "P",
}


def _tokenize(text: str) -> list[str]:
    """The words of text's tokens, ending in "" for the end of input. A
    token's kind is read from its word: digits make a number, a letter
    or _ first a keyword or a variable name (_is_name), and anything
    else an operator."""
    words = _WORD_RE.findall(text)
    if sum(map(len, words)) != len("".join(text.split())):
        # findall skipped a character that no token takes
        for m in _TOKEN_RE.finditer(text):
            if m[1]:
                raise FormulaSyntaxError(
                    f"unexpected character {m[1]!r}", position=m.start(1)
                )
    words.append("")
    return words


def _positions(text: str) -> list[int]:
    """Where each token of text starts, with the whitespace before it,
    and then the end of input: a parse error's position. Only an error
    computes them."""
    return [m.start() for m in _TOKEN_RE.finditer(text)] + [len(text)]


def _is_name(word: str) -> bool:
    """Whether a token's word is a variable name."""
    return (word[:1].isalpha() or word[:1] == "_") and word not in _KEYWORDS


# the loosest precedence of a term operator: from here up, only term
# operators bind and expr reads a term
_TERM_PREC = S.RELATION_PREC + 1

# word -> (node class, precedence), for each sort of left operand
_FORMULA_OPS = {w: (cls, p) for cls, (w, p) in S.BINARY.items() if cls not in S.SORT}
_TERM_OPS = {w: (cls, p) for cls, (w, p) in S.BINARY.items() if cls in S.SORT}
_TERM_OPS["-"] = _TERM_OPS["+"]  # a - b reads as a + -b
_RELATION_WORDS = {*S.RELATIONS.values(), "<"}
# the words that start a prefix operator, but for a number's n*
_PREFIX_WORDS = {"-", "~", "forall", "exists"}


class _Parser:
    def __init__(self, text: str, context: dict[str, str] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.context = dict(context or {})
        self.bound: list[tuple[str, str]] = []
        # whether some operand has the wrong sort
        self.ill_sorted = False

    def next(self) -> str:
        word = self.tokens[self.i]
        self.i += 1
        return word

    def error(self, message: str, i: int) -> FormulaSyntaxError:
        """A syntax error at token i."""
        return FormulaSyntaxError(message, position=_positions(self.text)[i])

    def found(self, message: str) -> FormulaSyntaxError:
        """A syntax error at the token at the cursor, which it names."""
        word = self.tokens[self.i]
        return self.error(f"{message}, found {word or 'end of input'!r}", self.i)

    def expect(self, word: str):
        if self.tokens[self.i] != word:
            raise self.found(f"expected {word!r}")
        self.i += 1

    def at(self, word: str) -> bool:
        return self.tokens[self.i] == word

    def accept(self, word: str) -> bool:
        if self.tokens[self.i] == word:
            self.i += 1
            return True
        return False

    # --- sorts ---

    def var_sort(self, name: str):
        for var, sort in reversed(self.bound):
            if var == name:
                return sort
        return self.context.get(name)

    def check(self, cls, t: S.Term) -> S.Term:
        """t, an operand of a cls node; notes if its sort is not the one
        cls takes."""
        if S.SORT[type(t)] != S._OPERANDS[cls][0]:
            self.ill_sorted = True
        return t

    def node(self, cls, left: S.Term, right: S.Term):
        """cls(left, right), its operands checked."""
        return cls(self.check(cls, left), self.check(cls, right))

    # --- the precedence-climbing loop ---

    def formula(self, prec: int = 0) -> S.Formula:
        """The formula at the cursor whose operators bind at precedence
        prec or tighter."""
        return self.as_formula(self.expr(prec))

    def as_formula(self, node: S.Formula | S.Term) -> S.Formula:
        """node, which the token at the cursor ends, unless it is a term."""
        if type(node) in S.SORT:
            raise self.found("expected a relation")
        return node

    def expr(self, prec: int) -> S.Formula | S.Term:
        """The longest formula or term at the cursor whose operators
        bind at precedence prec or tighter; a term if prec is above the
        relations."""
        start = self.i
        return self.infix(self.prefix(prec), prec, start)

    def infix(self, left, prec: int, start: int) -> S.Formula | S.Term:
        """left, which starts at token start, continued by the binary
        operators at the cursor that bind at precedence prec or tighter.
        A term ends where no term operator continues it; below the
        relations, a relation may then follow. A run of -> is read in one
        loop and grouped to the right."""
        while True:
            word = self.tokens[self.i]
            if type(left) in S.SORT:
                if word in _RELATION_WORDS and prec <= S.RELATION_PREC:
                    left = self.relation(left, start)
                    continue
                op = _TERM_OPS.get(word)
            else:
                op = _FORMULA_OPS.get(word)
            if op is None or op[1] < prec:
                return left
            self.i += 1
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
                if word == "-":
                    right = S.Neg(self.check(S.Neg, right))
                left = self.node(cls, left, right)
            else:
                left = cls(left, self.formula(p + 1))

    def prefix(self, prec: int) -> S.Formula | S.Term:
        """The operand at the cursor with its prefix operators, a run of
        which is read in one loop: unary -, n*, and where a formula may
        stand (prec at most the relations') ~ and quantifier heads. The
        operand of each is the longest expr at the operator's own
        precedence (0 for a quantifier, whose body extends as far right
        as possible); they are completed innermost first."""
        word = self.tokens[self.i]
        if word not in _PREFIX_WORDS and not word.isdecimal():
            return self.primary(prec)  # no prefix operator
        # (node class, its fields before the operand, the operand's
        # precedence, the operand's first token)
        pending = []
        while True:
            word = self.tokens[self.i]
            if word == "-":
                self.i += 1
                prec = S.UNARY_PREC
                pending.append((S.Neg, (), prec, self.i))
            elif word.isdecimal() and (word != "0" or self.tokens[self.i + 1] == "*"):
                self.i += 1
                self.expect("*")
                prec = S.UNARY_PREC
                pending.append((S.IntScale, (int(word),), prec, self.i))
            elif prec >= _TERM_PREC:
                break
            elif word == "~":
                self.i += 1
                prec = S.NOT_PREC
                pending.append((S.Not, (), prec, self.i))
            elif word == "forall" or word == "exists":
                self.i += 1
                cls = S.Forall if word == "forall" else S.Exists
                names = [self.ident()]
                while self.accept(","):
                    names.append(self.ident())
                self.expect(":")
                sort = self.sort()
                self.expect(".")
                prec = 0
                for name in names:
                    self.bound.append((name, sort))
                    pending.append((cls, (name, sort), prec, self.i))
            else:
                break
        left = self.primary(prec)
        while pending:
            cls, fields, p, start = pending.pop()
            left = self.infix(left, p, start)
            if cls in S.SORT:
                self.check(cls, left)
            else:
                self.as_formula(left)
                if fields:  # a binder, whose scope ends here
                    self.bound.pop()
            left = cls(*fields, left)
        return left

    def primary(self, prec: int) -> S.Formula | S.Term:
        """The operand at the cursor that no prefix operator starts:
        true or false where a formula may stand, and otherwise a term."""
        word = self.next()
        if prec < _TERM_PREC and (word == "true" or word == "false"):
            return S.TRUE if word == "true" else S.FALSE
        if word == "(":
            inner = self.expr(0 if prec < _TERM_PREC else _TERM_PREC)
            self.expect(")")
            return inner
        if word == "0":  # with no * after it: prefix read n*
            return S.Zero()
        if word == "bot":
            return S.Bot()
        if word == "top":
            return S.Top()
        if word == "P" or word == "compl":
            self.expect("(")
            cls = S.Val if word == "P" else S.Compl
            arg = self.check(cls, self.expr(_TERM_PREC))
            self.expect(")")
            return cls(arg)
        if _is_name(word):
            # an LVar when a binder in scope or the context gives it sort
            # L, a GVar otherwise; the operand checks note a fault where
            # that disagrees with how it is used
            return S.LVar(word) if self.var_sort(word) == S.L else S.GVar(word)
        self.i -= 1
        raise self.found("expected a term")

    def ident(self) -> str:
        word = self.next()
        if not _is_name(word):
            raise self.error(f"expected a variable, found {word!r}", self.i - 1)
        return word

    def sort(self) -> str:
        word = self.next()
        if word not in (S.G, S.L):
            raise self.error(f"expected sort G or L, found {word!r}", self.i - 1)
        return word

    def relation(self, left: S.Term, start: int) -> S.Formula:
        """left, the term that starts at token start, related to the term
        after the relation word at the cursor."""
        op = self.next()
        right = self.expr(_TERM_PREC)
        lsort = self.term_sort_of(left)
        rsort = self.term_sort_of(right)
        sort = lsort or rsort
        if op in ("<=", "<<"):
            need = S.G if op == "<=" else S.L
            if (sort or need) != need:
                # a fault inside a side is named before the relation's
                scope = {**self.context, **dict(self.bound)}
                S.free_vars(left, scope)
                S.free_vars(right, scope)
                near = _positions(self.text)[start]
                raise SortError(f"{op} relates {need}-sorted terms near position {near}")
            cls = S.GLeq if need == S.G else S.LBelow
            return self.node(cls, left, right)
        if sort is None:
            raise SortError(
                f"cannot infer the sort of '{S.print_term(left)} {op} "
                f"{S.print_term(right)}'; declare the variables"
            )
        if op == "=":
            return self.node(S.GEq if sort == S.G else S.LEq, left, right)
        # strict < is sugar for (<= or <<) plus disequality
        leq, eq = (S.GLeq, S.GEq) if sort == S.G else (S.LBelow, S.LEq)
        return S.And(self.node(leq, left, right), S.Not(eq(left, right)))

    def term_sort_of(self, t: S.Term):
        """The sort of t's class; for a G-variable, its sort from the
        binders or the context, None if neither declares it."""
        if type(t) is S.GVar:
            return self.var_sort(t.name)
        return S.SORT[type(t)]


def parse(text: str, context: dict[str, str] | None = None) -> S.Formula:
    """Parse one formula; context declares the sorts of free variables.
    Raises FormulaSyntaxError, and then SortError at the first operand
    of the wrong sort in the order syntax.free_vars checks them."""
    parser = _Parser(text, context)
    phi = parser.formula()
    if not parser.at(""):
        raise parser.error(f"trailing input at {parser.tokens[parser.i]!r}", parser.i)
    if parser.ill_sorted:
        S.free_vars(phi, context)  # raises the first fault
    return phi
