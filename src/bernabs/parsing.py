"""Text formats: .cp concrete programs, .preds predicate lists, .bern programs.

Whitespace (including newlines) is insignificant outside of .preds, which
is line-oriented.  '#' starts a comment.  Braced tokens like ``{x<3}`` are
Boolean variable names in .bern; the parser resolves the brace/block
ambiguity positionally (blocks only ever follow ``if (...)`` or ``else``).

The two languages share one statement grammar, `_Parser.statements`:
blocks, ``if (c) {...} else {...}``, the filters and the loop-word check.
Each language supplies its expression grammar as readers over a parser:
.cp a condition and an arithmetic reader, .bern one expression reader.  A
bare condition (a .preds line, ``check --where``) or an event (``infer
--event``) is read by the same reader straight from the given text, which it
must use up (`_Parser.whole`), so every position an error names is one in
that text.
"""

from __future__ import annotations

import contextlib
import itertools
import re
from fractions import Fraction
from typing import NamedTuple

from bernabs import bern, concrete
from bernabs.errors import ParseError

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<int>\d+)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op><=>|=>|&&|\|\||==|!=|<=|>=|[-+*/!<>=(){}\[\],:])
    | (?P<other>.)
    """,
    re.VERBOSE,
)

_LOOP_WORDS = {"while", "goto", "for", "loop"}

# Tokens that continue an arithmetic term into a comparison: after one of
# them, `T`, `F` or a bracketed condition is the start of a comparison.
_ARITHMETIC_FOLLOWS = {"<", "<=", "==", "!=", "=", ">", ">=", "+", "-", "*"}

# Brackets, negations and blocks nested inside one another, and the levels of
# a .cp condition or expression tree; deeper input is rejected before a
# recursive descent or evaluator could exhaust the interpreter stack.
MAX_NESTING = bern.MAX_NESTING


class _NestingError(ParseError):
    """Input nested past MAX_NESTING; never caught to backtrack."""


class Token(NamedTuple):
    kind: str  # 'int' | 'name' | 'op' | 'other' | 'eof'
    text: str
    line: int
    col: int
    start: int
    end: int


def tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        chunk = m.group()
        if kind in ("ws", "comment"):
            line += chunk.count("\n")
            if "\n" in chunk:
                line_start = m.start() + chunk.rindex("\n") + 1
        else:
            tokens.append(Token(kind, chunk, line, m.start() - line_start + 1, m.start(), m.end()))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1, pos, pos))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self, ahead=0) -> Token:
        """The token `ahead` places on.  A character no token starts with is
        an error here, not in `tokenize`, so that a braced name may hold it;
        every token is peeked at before `next` consumes it."""
        tok = self.tokens[min(self.i + ahead, len(self.tokens) - 1)]
        if tok.kind == "other":
            raise ParseError(f"unexpected character {tok.text!r}", tok.line, tok.col)
        return tok

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def accept(self, text) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text) -> Token:
        if not self.at(text):
            self.expected(repr(text))
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expected(self, what):
        """Fail at the next token, which is not `what`."""
        tok = self.peek()
        found = "the end of the text" if tok.kind == "eof" else repr(tok.text)
        self.fail(f"expected {what}, found {found}")

    def at_eof(self):
        return self.peek().kind == "eof"

    @contextlib.contextmanager
    def nested(self):
        """One level of syntactic nesting, at most MAX_NESTING deep."""
        if self.depth >= MAX_NESTING:
            tok = self.peek()
            raise _NestingError(f"nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def whole(self, read):
        """What `read` reads, which must be all of the text."""
        result = read()
        if not self.at_eof():
            self.expected("the end of the text")
        return result

    def listed(self, read):
        """One or more of what `read` reads, separated by commas."""
        items = [read()]
        while self.accept(","):
            items.append(read())
        return items

    def statements(self, cond, assignment, filters, make_if):
        """The statements up to the end of the text.  `cond` reads a
        condition; `filters` maps each filter word to its statement class,
        built from a condition and a line; `make_if` builds an ``if`` from
        its condition, blocks and line; any other statement is read by
        ``assignment(first_token)``."""

        def guard():
            self.next()
            self.expect("(")
            c = cond()
            self.expect(")")
            return c

        def statement():
            tok = self.peek()
            if tok.kind == "name" and tok.text in _LOOP_WORDS:
                raise ParseError(f"unsupported construct {tok.text!r} (loop-free language)", tok.line, tok.col)
            if tok.text in filters:
                return filters[tok.text](guard(), tok.line)
            if tok.text == "if":
                c = guard()
                then = block()
                return make_if(c, then, block() if self.accept("else") else (), tok.line)
            return assignment(tok)

        def block():
            self.expect("{")
            stmts = []
            with self.nested():
                while not self.at("}"):
                    if self.at_eof():
                        self.fail("unterminated block")
                    stmts.append(statement())
            self.expect("}")
            return tuple(stmts)

        body = []
        while not self.at_eof():
            body.append(statement())
        return tuple(body)

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.peek()
        if tok.kind != "int":
            self.expected("an integer")
        self.next()
        return sign * int(tok.text)

    def half_open(self):
        """The bounds of the range ``[lo, hi)``."""
        self.expect("[")
        lo = self.signed_int()
        self.expect(",")
        hi = self.signed_int()
        self.expect(")")
        return lo, hi

    def braced_name(self) -> str:
        open_tok = self.expect("{")
        depth_line = open_tok.line
        j = self.i
        while self.tokens[j].kind != "eof" and self.tokens[j].text != "}":
            if self.tokens[j].text == "{" or self.tokens[j].line != depth_line:
                raise ParseError("unterminated braced name", open_tok.line, open_tok.col)
            j += 1
        if self.tokens[j].kind == "eof":
            raise ParseError("unterminated braced name", open_tok.line, open_tok.col)
        close_tok = self.tokens[j]
        name = self.text[open_tok.end : close_tok.start].strip()
        if not name:
            raise ParseError("empty braced name", open_tok.line, open_tok.col)
        self.i = j + 1
        return name


def _check_declared(name, declared, tok):
    """`name`, read from `tok`, if `declared` is None (any name) or holds it."""
    if declared is not None and name not in declared:
        raise ParseError(f"undeclared variable {name!r}", tok.line, tok.col)
    return name


# --- concrete programs (.cp) -------------------------------------------------


def _cp_grammar(p: _Parser, declared):
    """The .cp condition reader and arithmetic reader over `p`, for trees
    over the names in `declared` (any name when it is None).  Each reads
    one tree and rejects one more than MAX_NESTING levels high at its first
    token."""

    def int_atom():
        tok = p.peek()
        if tok.text == "(":
            p.next()
            with p.nested():
                e = int_expr()
            p.expect(")")
            return e
        if tok.text == "-":
            p.next()
            with p.nested():
                inner = int_atom()
            if isinstance(inner, concrete.IntConst):
                return concrete.IntConst(-inner.value)
            return concrete.Scale(-1, inner)
        if tok.kind == "int":
            p.next()
            return concrete.IntConst(int(tok.text))
        if tok.kind == "name":
            p.next()
            return concrete.IntVar(_check_declared(tok.text, declared, tok))
        p.expected("an arithmetic term")

    def int_term():
        tok = p.peek()
        e = int_atom()
        while p.at("*"):
            p.next()
            rhs = int_atom()
            if isinstance(e, concrete.IntConst):
                if isinstance(rhs, concrete.IntConst):
                    e = concrete.IntConst(e.value * rhs.value)
                else:
                    e = concrete.Scale(e.value, rhs)
            elif isinstance(rhs, concrete.IntConst):
                e = concrete.Scale(rhs.value, e)
            else:
                raise ParseError("nonlinear product of variables", tok.line, tok.col)
        return e

    def int_expr():
        e = int_term()
        while p.at("+") or p.at("-"):
            op = p.next().text
            rhs = int_term()
            e = concrete.Add(e, rhs) if op == "+" else concrete.Sub(e, rhs)
        return e

    def cond_atom():
        tok = p.peek()
        if tok.text == "!":
            p.next()
            with p.nested():
                return concrete.CNot(cond_atom())
        if tok.text in ("T", "F") and p.peek(1).text not in _ARITHMETIC_FOLLOWS:
            p.next()
            return concrete.CTrue() if tok.text == "T" else concrete.CFalse()
        if tok.text != "(":
            return comparison()
        # either a parenthesized condition or a parenthesized arithmetic
        # expression starting a comparison; try the condition first, and
        # when neither reading works, report the one that got further
        save, bracketed = p.i, None
        try:
            p.next()
            with p.nested():
                c = cond_or()
            p.expect(")")
            if p.peek().text not in _ARITHMETIC_FOLLOWS:
                return c
        except _NestingError:
            raise
        except ParseError as exc:
            bracketed = exc
        p.i = save
        try:
            return comparison()
        except _NestingError:
            raise
        except ParseError as exc:
            if bracketed is None or (exc.line, exc.column) >= (bracketed.line, bracketed.column):
                raise
            raise bracketed from None

    def comparison():
        left = int_expr()
        op = p.peek().text
        if op == "=":
            op = "=="
        if op not in concrete.CMP_OPS:
            p.expected("a comparison operator")
        p.next()
        return concrete.Cmp(op, left, int_expr())

    def cond_and():
        c = cond_atom()
        while p.accept("&&"):
            c = concrete.CAnd(c, cond_atom())
        return c

    def cond_or():
        c = cond_and()
        while p.accept("||"):
            c = concrete.COr(c, cond_and())
        return c

    def shallow(read):
        def read_tree():
            tok = p.peek()
            tree = read()
            if _height(tree) > MAX_NESTING:
                raise ParseError(f"nested more than {MAX_NESTING} levels deep", tok.line, tok.col)
            return tree

        return read_tree

    return shallow(cond_or), shallow(int_expr)


def parse_concrete(text) -> concrete.ConcreteProgram:
    p = _Parser(text)
    decls = []
    while p.at("var"):
        p.next()
        tok = p.peek()
        if tok.kind != "name":
            p.fail("expected a variable name")
        p.next()
        p.expect("in")
        lo, hi = p.half_open()
        if lo >= hi:
            raise ParseError(f"empty range for {tok.text!r}", tok.line, tok.col)
        decls.append(concrete.VarDecl(tok.text, lo, hi))
    declared = {d.name: d for d in decls}
    cond, arith = _cp_grammar(p, declared)

    def assignment(tok):
        if tok.kind != "name":
            p.expected("a statement")
        if tok.text == "var":
            raise ParseError("declarations must precede statements", tok.line, tok.col)
        p.next()
        decl = declared[_check_declared(tok.text, declared, tok)]
        p.expect("=")
        if not p.accept("unif"):
            return concrete.Assign(tok.text, arith(), tok.line)
        lo, hi = p.half_open()
        if lo >= hi:
            raise ParseError("empty draw range", tok.line, tok.col)
        if not decl.lo <= lo < hi <= decl.hi:
            raise ParseError(f"draw [{lo}, {hi}) escapes {tok.text}'s declared range", tok.line, tok.col)
        return concrete.Draw(tok.text, lo, hi, tok.line)

    body = p.statements(cond, assignment, {"observe": concrete.Observe}, concrete.If)
    return concrete.ConcreteProgram(tuple(decls), body)


def _height(tree):
    """Levels in a condition or integer expression, counted without recursion;
    each link of a chain such as ``a + b + c`` is one more level."""
    return bern.fold(tree, lambda node, heights: 1 + max(heights, default=0))


def parse_cond(text, declared=None) -> concrete.Cond:
    """The condition that is all of `text`, over the names in `declared`
    (any name when it is None): a .preds line or a query string."""
    p = _Parser(text)
    cond, _ = _cp_grammar(p, None if declared is None else set(declared))
    return p.whole(cond)


def parse_preds(text):
    """.preds lines: `<label>: <cond>`, '#' comments, blank lines ignored."""
    out = []
    labels = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected `<label>: <cond>`", lineno, 1)
        label, _, rest = line.partition(":")
        label = label.strip()
        if not label:
            raise ParseError("empty predicate label", lineno, 1)
        if label in labels:
            raise ParseError(f"duplicate predicate label {label!r}", lineno, 1)
        labels.add(label)
        try:
            cond = parse_cond(rest.strip())
        except ParseError as exc:
            # the condition starts after the colon and the blanks that follow it
            column = raw.index(":") + 1 + len(rest) - len(rest.lstrip()) + exc.column
            raise ParseError(f"bad condition for {label!r}: {exc.reason}", lineno, column) from None
        out.append((label, cond))
    return out


def _rational(p: _Parser) -> Fraction:
    """The rational ``n`` or ``n/d`` at the parser's position: the one
    reader of flip parameters and of ``--params fixed=<r>``."""
    tok = p.peek()
    num = p.signed_int()
    den = p.signed_int() if p.accept("/") else 1
    if den == 0:
        raise ParseError(f"zero denominator in {num}/0", tok.line, tok.col)
    return Fraction(num, den)


def parse_rational(text) -> Fraction:
    p = _Parser(text)
    return p.whole(lambda: _rational(p))


# --- BERN programs (.bern) ------------------------------------------------------


def _bern_grammar(p: _Parser, declared, plain=False):
    """The .bern expression reader over `p`, for expressions over the names
    in `declared`, and its counters of flip sites and of stars, which
    number them in reading order; a `plain` expression, an event, has none
    of them and no ``choose``."""
    flips, stars = itertools.count(), itertools.count()

    def atom():
        tok = p.peek()
        if plain and tok.text in ("flip", "*", "choose"):
            p.fail("events must be plain Boolean formulas over the variables")
        if tok.text == "!":
            p.next()
            with p.nested():
                return bern.BNot(atom())
        if tok.text == "(":
            p.next()
            with p.nested():
                e = expr()
            p.expect(")")
            return e
        if tok.text == "T":
            p.next()
            return bern.BTrue()
        if tok.text == "F":
            p.next()
            return bern.BFalse()
        if tok.text == "*":
            p.next()
            return bern.Star(next(stars))
        if tok.text == "flip":
            p.next()
            p.expect("(")
            theta = _flip_param(p)
            p.expect(")")
            return bern.Flip(next(flips), theta)
        if tok.text == "choose":
            p.next()
            p.expect("(")
            with p.nested():
                a = expr()
                p.expect(",")
                b = expr()
            p.expect(")")
            return bern.Choose(a, b)
        return bern.BVar(_check_declared(_bern_name(p), declared, tok))

    def conj():
        e = atom()
        while p.accept("&&"):
            e = bern.BAnd(e, atom())
        return e

    def disj():
        e = conj()
        while p.accept("||"):
            e = bern.BOr(e, conj())
        return e

    def implication():
        e = disj()
        if p.accept("=>"):
            with p.nested():
                return bern.BImp(e, implication())
        return e

    def expr():
        e = implication()
        while p.accept("<=>"):
            e = bern.BIff(e, implication())
        return e

    return expr, flips, stars


def parse_bern(text, mode=None) -> bern.BernProgram:
    """The program `text`, in `mode`, or else in the mode its flips or
    stars imply; `BernProgram` rejects a program its mode does not allow."""
    p = _Parser(text)
    decls = []
    while p.at("bool"):
        p.next()
        decls.append(_bern_name(p))
    declared = set(decls)
    expr, flips, stars = _bern_grammar(p, declared)

    def assignment(tok):
        targets = p.listed(lambda: _bern_name(p))
        for t in targets:
            _check_declared(t, declared, tok)
        p.expect("=")
        exprs = p.listed(expr)
        if len(exprs) != len(targets):
            raise ParseError("parallel assignment arity mismatch", tok.line, tok.col)
        return bern.PAssign(tuple(targets), tuple(exprs), tok.line)

    filters = {"observe": bern.BObserve, "assume": bern.BAssume}
    body = p.statements(expr, assignment, filters, bern.BIf)
    if mode is None:  # a counter's next id is the number of its leaves read
        mode = "prob" if next(flips) else ("nondet" if next(stars) else None)
    return bern.BernProgram(tuple(decls), body, mode)


def _bern_name(p: _Parser) -> str:
    tok = p.peek()
    if tok.text == "{":
        return p.braced_name()
    if tok.kind != "name":
        p.expected("a variable name")
    if tok.text in bern.RESERVED_WORDS:
        p.fail(f"{tok.text!r} is reserved")
    p.next()
    return tok.text


def _flip_param(p: _Parser):
    tok = p.peek()
    if tok.kind == "name":
        p.next()
        return tok.text  # symbolic parameter
    theta = _rational(p)
    if not 0 <= theta <= 1:
        raise ParseError(f"flip parameter {theta} outside [0, 1]", tok.line, tok.col)
    return theta


def parse_event(text, declared) -> bern.BernExpr:
    """The flip/star/choose-free BERN expression that is all of `text`,
    over the names in `declared`."""
    p = _Parser(text)
    return p.whole(_bern_grammar(p, set(declared), plain=True)[0])
