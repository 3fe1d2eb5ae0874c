"""Text formats: .cp concrete programs, .preds predicate lists, .bern programs.

Whitespace (including newlines) is insignificant outside of .preds, which
is line-oriented.  '#' starts a comment.  Braced tokens like ``{x<3}`` are
Boolean variable names in .bern; the parser resolves the brace/block
ambiguity positionally (blocks only ever follow ``if (...)`` or ``else``).
"""

from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from fractions import Fraction

from bernabs import bern, concrete
from bernabs.errors import ModeError, ParseError

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

# Brackets, negations and blocks nested inside one another, and the levels of
# a .cp condition or expression tree; deeper input is rejected before a
# recursive descent or evaluator could exhaust the interpreter stack.
MAX_NESTING = bern.MAX_NESTING


class _NestingError(ParseError):
    """Input nested past MAX_NESTING; never caught to backtrack."""


@dataclass(frozen=True)
class Token:
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
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text!r}" if tok.text else f"expected {text!r}")
        return self.next()

    def fail(self, message):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

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

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected an integer, found {tok.text!r}")
        self.next()
        return sign * int(tok.text)

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


# --- concrete programs (.cp) -------------------------------------------------


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
        p.expect("[")
        lo = p.signed_int()
        p.expect(",")
        hi = p.signed_int()
        p.expect(")")
        if lo >= hi:
            raise ParseError(f"empty range for {tok.text!r}", tok.line, tok.col)
        decls.append(concrete.VarDecl(tok.text, lo, hi))
    declared = {d.name for d in decls}

    def check_declared(name, tok):
        if name not in declared:
            raise ParseError(f"undeclared variable {name!r}", tok.line, tok.col)

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
            check_declared(tok.text, tok)
            return concrete.IntVar(tok.text)
        p.fail(f"expected an arithmetic term, found {tok.text!r}")

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
        if tok.text == "T" and p.peek(1).text not in ("<", "<=", "==", "!=", ">", ">=", "+", "-", "*"):
            p.next()
            return concrete.CTrue()
        if tok.text == "F" and p.peek(1).text not in ("<", "<=", "==", "!=", ">", ">=", "+", "-", "*"):
            p.next()
            return concrete.CFalse()
        if tok.text == "(":
            # either a parenthesized condition or a parenthesized arithmetic
            # expression starting a comparison; try the condition first
            save = p.i
            try:
                p.next()
                with p.nested():
                    c = cond_or()
                p.expect(")")
                if p.peek().text not in ("<", "<=", "==", "!=", "=", ">", ">=", "+", "-", "*"):
                    return c
            except _NestingError:
                raise
            except ParseError:
                pass
            p.i = save
        left = int_expr()
        op_tok = p.peek()
        op = op_tok.text
        if op == "=":
            op = "=="
        if op not in concrete.CMP_OPS:
            p.fail(f"expected a comparison operator, found {op_tok.text!r}")
        p.next()
        right = int_expr()
        return concrete.Cmp(op, left, right)

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

    def statement():
        tok = p.peek()
        loc = tok.line
        if tok.kind == "name" and tok.text in _LOOP_WORDS:
            raise ParseError(f"unsupported construct {tok.text!r} (loop-free language)", tok.line, tok.col)
        if tok.text == "observe":
            p.next()
            p.expect("(")
            c = cond_or()
            p.expect(")")
            return concrete.Observe(c, loc)
        if tok.text == "if":
            p.next()
            p.expect("(")
            c = cond_or()
            p.expect(")")
            then = block()
            els = block() if p.accept("else") else ()
            return concrete.If(c, then, els, loc)
        if tok.kind != "name":
            p.fail(f"expected a statement, found {tok.text!r}")
        if tok.text == "var":
            raise ParseError("declarations must precede statements", tok.line, tok.col)
        p.next()
        check_declared(tok.text, tok)
        p.expect("=")
        if p.at("unif"):
            p.next()
            p.expect("[")
            lo = p.signed_int()
            p.expect(",")
            hi = p.signed_int()
            p.expect(")")
            if lo >= hi:
                raise ParseError("empty draw range", tok.line, tok.col)
            return concrete.Draw(tok.text, lo, hi, loc)
        return concrete.Assign(tok.text, int_expr(), loc)

    def block():
        p.expect("{")
        stmts = []
        with p.nested():
            while not p.at("}"):
                if p.at_eof():
                    p.fail("unterminated block")
                stmts.append(statement())
        p.expect("}")
        return tuple(stmts)

    body = []
    while not p.at_eof():
        body.append(statement())
    program = concrete.ConcreteProgram(tuple(decls), tuple(body))
    for stmt in concrete.walk_statements(program.body):
        tree = getattr(stmt, "cond", getattr(stmt, "expr", None))
        if tree is not None and _height(tree) > MAX_NESTING:
            raise ParseError(f"nested more than {MAX_NESTING} levels deep", stmt.loc, 1)
        if isinstance(stmt, concrete.Draw):
            decl = program.decl(stmt.name)
            if not (decl.lo <= stmt.lo < stmt.hi <= decl.hi):
                raise ParseError(
                    f"draw [{stmt.lo}, {stmt.hi}) escapes {stmt.name}'s declared range",
                    stmt.loc,
                    1,
                )
    return program


def _height(tree):
    """Levels in a condition or integer expression, counted without recursion;
    each link of a chain such as ``a + b + c`` is one more level."""
    return concrete.fold(tree, lambda node, heights: 1 + max(heights, default=0))


def _parse_observed(parse, decls, text):
    """`parse` of ``<decls>observe(<text>)``, the wrapper that lets a program
    parser read a bare condition; an error is reported at its position in
    `text`."""
    try:
        return parse(f"{decls}observe({text})")
    except ParseError as exc:
        shift = decls.count("\n")
        if exc.line is None or exc.line <= shift:
            raise
        line = exc.line - shift
        column = exc.column - len("observe(") if line == 1 else exc.column
        raise ParseError(exc.reason, line, column) from None


def parse_cond(text, declared=None) -> concrete.Cond:
    """Parse a bare condition (used for .preds lines and query strings)."""
    shim = "".join(f"var {n} in [0, 1)\n" for n in (declared or ()))
    prog = _parse_observed(parse_concrete, shim, text)
    stmt = prog.body[0]
    assert isinstance(stmt, concrete.Observe)
    return stmt.cond


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
            cond = parse_cond(rest.strip(), declared=_names_in(rest))
        except ParseError as exc:
            # the condition starts after the colon and the blanks that follow it
            start = raw.index(":") + 1 + len(rest) - len(rest.lstrip())
            column = start + (exc.column if exc.line == 1 else 1)
            raise ParseError(f"bad condition for {label!r}: {exc.reason}", lineno, column) from None
        out.append((label, cond))
    return out


def _names_in(text):
    return sorted({m.group() for m in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*", text)})


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
    value = _rational(p)
    if not p.at_eof():
        p.fail(f"expected a rational like 1/2, found {text!r}")
    return value


# --- BERN programs (.bern) ------------------------------------------------------


def parse_bern(text, mode=None) -> bern.BernProgram:
    p = _Parser(text)
    decls = []
    while p.at("bool"):
        p.next()
        decls.append(_bern_name(p))
    declared = set(decls)
    flip_counter = [0]
    star_counter = [0]

    def atom():
        tok = p.peek()
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
            sid = star_counter[0]
            star_counter[0] += 1
            return bern.Star(sid)
        if tok.text == "flip":
            p.next()
            p.expect("(")
            theta = _flip_param(p)
            p.expect(")")
            sid = flip_counter[0]
            flip_counter[0] += 1
            return bern.Flip(sid, theta)
        if tok.text == "choose":
            p.next()
            p.expect("(")
            with p.nested():
                a = expr()
                p.expect(",")
                b = expr()
            p.expect(")")
            return bern.Choose(a, b)
        name = _bern_name(p)
        if name not in declared:
            raise ParseError(f"undeclared variable {name!r}", tok.line, tok.col)
        return bern.BVar(name)

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

    def statement():
        tok = p.peek()
        loc = tok.line
        if tok.kind == "name" and tok.text in _LOOP_WORDS:
            raise ParseError(f"unsupported construct {tok.text!r} (loop-free language)", tok.line, tok.col)
        if tok.text == "observe" or tok.text == "assume":
            p.next()
            p.expect("(")
            c = expr()
            p.expect(")")
            cls = bern.BObserve if tok.text == "observe" else bern.BAssume
            return cls(c, loc)
        if tok.text == "if":
            p.next()
            p.expect("(")
            c = expr()
            p.expect(")")
            then = block()
            els = block() if p.accept("else") else ()
            return bern.BIf(c, then, els, loc)
        targets = [_bern_name(p)]
        while p.accept(","):
            targets.append(_bern_name(p))
        for t in targets:
            if t not in declared:
                raise ParseError(f"undeclared variable {t!r}", tok.line, tok.col)
        p.expect("=")
        exprs = [expr()]
        while p.accept(","):
            exprs.append(expr())
        if len(exprs) != len(targets):
            raise ParseError("parallel assignment arity mismatch", tok.line, tok.col)
        return bern.PAssign(tuple(targets), tuple(exprs), loc)

    def block():
        p.expect("{")
        stmts = []
        with p.nested():
            while not p.at("}"):
                if p.at_eof():
                    p.fail("unterminated block")
                stmts.append(statement())
        p.expect("}")
        return tuple(stmts)

    body = []
    while not p.at_eof():
        body.append(statement())

    has_flip = flip_counter[0] > 0
    has_star = star_counter[0] > 0
    if mode is None:
        mode = "prob" if has_flip else ("nondet" if has_star else None)
    elif mode == "prob" and has_star:
        raise ModeError("* is not allowed in probabilistic mode")
    elif mode == "nondet" and has_flip:
        raise ModeError("flip is not allowed in non-deterministic mode")
    return bern.BernProgram(tuple(decls), tuple(body), mode)


def _bern_name(p: _Parser) -> str:
    tok = p.peek()
    if tok.text == "{":
        return p.braced_name()
    if tok.kind != "name":
        p.fail(f"expected a variable name, found {tok.text!r}")
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
    """An event is a flip/star/choose-free BERN expression over given names."""
    decls = "".join(f"bool {bern.name_text(n)}\n" for n in declared)
    program = _parse_observed(parse_bern, decls, text)
    stmt = program.body[0]
    assert isinstance(stmt, bern.BObserve)
    for e in bern.walk_exprs(program.body):
        if isinstance(e, (bern.Flip, bern.Star, bern.Choose)):
            raise ParseError("events must be plain Boolean formulas over the variables")
    return stmt.cond
