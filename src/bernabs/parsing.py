"""Text formats: .cp concrete programs, .preds predicate lists, .bern programs.

Whitespace (including newlines) is insignificant outside of .preds, which
is line-oriented.  '#' starts a comment.  Braced tokens like ``{x<3}`` are
Boolean variable names in .bern; the parser resolves the brace/block
ambiguity positionally (blocks only ever follow ``if (...)`` or ``else``).

The tokenizer makes one regular-expression match per token: the match
takes in the blanks and comments before its token.  A token is kept as
its text, with its match for its offsets; the line and column of a token
are worked out only where a statement's line or an error needs them, by
bisecting the offsets of the text's newlines.  A character no token
starts with is kept as a `_Stray`, which raises its error the first time
the grammar compares it with anything.

The two languages share one statement grammar, `_Parser.statements`:
blocks, ``if (c) {...} else {...}``, the filters and the loop-word check.
Each language supplies its expression grammar as readers over a parser:
.cp a condition and an arithmetic reader, .bern one expression reader.
Every reader of binary operators is one precedence-climbing loop,
`_Parser.climb` (Pratt, *Top Down Operator Precedence*, POPL 1973), over
a table of precedences:

    .bern        &&  4   ||  3   =>  2 (to the right)   <=>  1
    .cp          &&  2   ||  1
    arithmetic   *   2   +   1   -   1

Every other operator groups to the left.  A bare condition (a .preds line,
``check --where``) or an event (``infer --event``) is read by the same
reader straight from the given text, which it must use up
(`_Parser.whole`), so every position an error names is one in that text.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import re
from fractions import Fraction

from bernabs import bern, concrete
from bernabs.errors import ParseError

# The blanks and comments before a token, then the token: a name, an
# operator, an integer or the end of the text (group 1), or else a
# character no token starts with (group 2).
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*
    (?: ( [A-Za-z_][A-Za-z_0-9]*
        | <=> | => | && | \|\| | == | != | <= | >= | [-+*/!<>=(){}\[\],:]
        | \d+
        | \Z )
      | (.) )
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


class _Stray(str):
    """A character no token starts with, at (line, column) `position`.  It
    is an error wherever the grammar meets it, but a braced name, which is
    read from the text, may hold it.  The grammar compares every token
    before it consumes one, so comparing or hashing a stray raises its
    error: the error comes where the grammar first looks at it."""

    def fail(self, *_):
        raise ParseError(f"unexpected character {str(self)!r}", *self.position)

    __eq__ = __ne__ = __hash__ = fail


def _operators(table):
    """The binary operators of `table`, which maps each to (precedence,
    build, right), as `_Parser.climb` reads them: each mapped to
    (precedence, build, grouping).  ``build(left, right, start)`` makes the
    node, `start` being the index of its first token.  The grouping is
    "right" for an operator marked `right`, "tight" for one of the top
    precedence, whose right operand is one operand, else "left"."""
    top = max(prec for prec, _, _ in table.values())
    return {
        tok: (prec, build, "right" if right else "tight" if prec == top else "left")
        for tok, (prec, build, right) in table.items()
    }


def _is_name(tok) -> bool:
    return bern.IDENT_OK.match(tok) is not None


def tokenize(text):
    """The tokens of `text`: (texts, matches), the text of each token,
    ending with one '' at the end of the text, and its match, which spans
    the blanks and comments before it too."""
    matches = list(_TOKEN_RE.finditer(text))
    if len(matches) > 1 and matches[-2][1] == "":
        matches.pop()  # the end, matched once after the last blanks and once more
    toks = [m[1] for m in matches]
    if None in toks:
        newlines = _newlines(text)
        for k, m in enumerate(matches):
            if m[1] is None:
                toks[k] = _Stray(m[2])
                toks[k].position = _line_col(newlines, m.start(2))
    return toks, matches


def _newlines(text):
    return [m.start() for m in re.finditer("\n", text)]


def _line_col(newlines, offset):
    """The line and column of `offset`, given the offsets of the newlines."""
    line = bisect.bisect(newlines, offset)
    return line + 1, offset - (newlines[line - 1] + 1 if line else 0) + 1


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks, self.matches = tokenize(text)
        self.i = 0
        self.depth = 0
        self.newlines = None  # the offsets of the newlines, found on first use

    # --- positions ----------------------------------------------------------

    def position(self, k):
        """(line, column) of the k-th token."""
        if self.newlines is None:
            self.newlines = _newlines(self.text)
        return _line_col(self.newlines, self.matches[k].end() - len(self.toks[k]))

    def line(self, k) -> int:
        return self.position(k)[0]

    def error(self, message, k) -> ParseError:
        return ParseError(message, *self.position(k))

    # --- lookahead ----------------------------------------------------------

    def peek(self) -> str:
        return self.toks[self.i]

    def accept(self, text) -> bool:
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def expect(self, text):
        if self.toks[self.i] != text:
            self.expected(repr(text))
        self.i += 1

    def fail(self, message, error=ParseError):
        """Raise `error` at the next token, or the error of a stray there."""
        tok = self.toks[self.i]
        if type(tok) is _Stray:
            tok.fail()
        raise error(message, *self.position(self.i))

    def expected(self, what):
        """Fail at the next token, which is not `what`."""
        tok = self.toks[self.i]
        self.fail(f"expected {what}, found {repr(tok) if tok else 'the end of the text'}")

    def enter(self):
        """One more level of syntactic nesting, at most MAX_NESTING deep;
        the caller leaves it with ``depth -= 1``."""
        if self.depth >= MAX_NESTING:
            self.fail(f"nested more than {MAX_NESTING} levels deep", _NestingError)
        self.depth += 1

    # --- shared readers -----------------------------------------------------

    def whole(self, read):
        """What `read` reads, which must be all of the text."""
        result = read()
        if self.toks[self.i] != "":
            self.expected("the end of the text")
        return result

    def listed(self, read):
        """One or more of what `read` reads, separated by commas."""
        items = [read()]
        while self.accept(","):
            items.append(read())
        return items

    def climb(self, operand, ops, floor=1):
        """Operands read by `operand` joined by the binary operators of
        `ops` (see `_operators`) of at least `floor` in precedence:
        precedence climbing.  An operator that groups to the right is one
        level of nesting; the others group to the left, in this loop."""
        start = self.i
        left = operand()
        toks = self.toks
        while True:
            op = ops.get(toks[self.i])
            if op is None or op[0] < floor:
                return left
            prec, build, grouping = op
            self.i += 1
            if grouping == "tight":
                left = build(left, operand(), start)
            elif grouping == "left":
                left = build(left, self.climb(operand, ops, prec + 1), start)
            else:
                self.enter()
                left = build(left, self.climb(operand, ops, prec), start)
                self.depth -= 1

    def statements(self, cond, assignment, filters, make_if):
        """The statements up to the end of the text.  `cond` reads a
        condition; `filters` maps each filter word to its statement class,
        built from a condition and a line; `make_if` builds an ``if`` from
        its condition, blocks and line; any other statement is read by
        ``assignment(index of its first token)``."""
        toks = self.toks

        def guard():
            self.i += 1
            self.expect("(")
            c = cond()
            self.expect(")")
            return c

        def statement():
            k = self.i
            tok = toks[k]
            if tok in _LOOP_WORDS:
                raise self.error(f"unsupported construct {tok!r} (loop-free language)", k)
            if tok in filters:
                return filters[tok](guard(), self.line(k))
            if tok == "if":
                c = guard()
                then = block()
                return make_if(c, then, block() if self.accept("else") else (), self.line(k))
            return assignment(k)

        def block():
            self.expect("{")
            self.enter()
            stmts = []
            while toks[self.i] != "}":
                if toks[self.i] == "":
                    self.fail("unterminated block")
                stmts.append(statement())
            self.depth -= 1
            self.i += 1
            return tuple(stmts)

        body = []
        while toks[self.i] != "":
            body.append(statement())
        return tuple(body)

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.toks[self.i]
        if not tok.isdecimal():
            self.expected("an integer")
        self.i += 1
        return sign * int(tok)

    def half_open(self):
        """The bounds of the range ``[lo, hi)``."""
        self.expect("[")
        lo = self.signed_int()
        self.expect(",")
        hi = self.signed_int()
        self.expect(")")
        return lo, hi

    def braced_name(self) -> str:
        """The name between ``{`` and the next ``}``, read from the text:
        the tokens between must be on the line of the ``{``, and none of
        them another ``{``."""
        k = self.i
        self.expect("{")
        j = self.i
        raw = self.matches  # a stray's group 1 is None, which is no brace
        while raw[j][1] != "}" and raw[j][1] != "":
            j += 1
        open_end = raw[k].end()
        if (
            raw[j][1] == ""
            or any(raw[n][1] == "{" for n in range(self.i, j))
            or "\n" in self.text[open_end : raw[j - 1].end()]
        ):
            raise self.error("unterminated braced name", k)
        name = self.text[open_end : raw[j].end() - 1].strip()
        if not name:
            raise self.error("empty braced name", k)
        self.i = j + 1
        return name


def _check_declared(p: _Parser, name, declared, k):
    """`name`, read at the k-th token, if `declared` is None (any name) or holds it."""
    if declared is not None and name not in declared:
        raise p.error(f"undeclared variable {name!r}", k)
    return name


def _first_repeat(p: _Parser, names, at):
    """Raise at the first name of `names` that repeats an earlier one; `at`
    holds the index of the token each is read at."""
    seen = set()
    for name, k in zip(names, at):
        if name in seen:
            raise p.error(f"{name!r} is declared twice", k)
        seen.add(name)


# --- concrete programs (.cp) -------------------------------------------------


def _cp_grammar(p: _Parser, declared):
    """The .cp condition reader and arithmetic reader over `p`, for trees
    over the names in `declared` (any name when it is None).  Each reads
    one tree and rejects one more than MAX_NESTING levels high at its first
    token."""
    toks = p.toks

    def int_atom():
        k = p.i
        tok = toks[k]
        if tok == "(":
            p.i += 1
            p.enter()
            e = int_expr()
            p.depth -= 1
            p.expect(")")
            return e
        if tok == "-":
            p.i += 1
            p.enter()
            inner = int_atom()
            p.depth -= 1
            if isinstance(inner, concrete.IntConst):
                return concrete.IntConst(-inner.value)
            return concrete.Scale(-1, inner)
        if tok.isdecimal():
            p.i += 1
            return concrete.IntConst(int(tok))
        if _is_name(tok):
            p.i += 1
            return concrete.IntVar(_check_declared(p, tok, declared, k))
        p.expected("an arithmetic term")

    def product(e, rhs, start):
        if isinstance(e, concrete.IntConst):
            if isinstance(rhs, concrete.IntConst):
                return concrete.IntConst(e.value * rhs.value)
            return concrete.Scale(e.value, rhs)
        if isinstance(rhs, concrete.IntConst):
            return concrete.Scale(rhs.value, e)
        raise p.error("nonlinear product of variables", start)

    arithmetic = _operators({
        "*": (2, product, False),
        "+": (1, lambda e, rhs, start: concrete.Add(e, rhs), False),
        "-": (1, lambda e, rhs, start: concrete.Sub(e, rhs), False),
    })
    connectives = _operators({
        "&&": (2, lambda c, rhs, start: concrete.CAnd(c, rhs), False),
        "||": (1, lambda c, rhs, start: concrete.COr(c, rhs), False),
    })

    def cond_atom():
        tok = toks[p.i]
        if tok == "!":
            p.i += 1
            p.enter()
            c = concrete.CNot(cond_atom())
            p.depth -= 1
            return c
        if (tok == "T" or tok == "F") and toks[p.i + 1] not in _ARITHMETIC_FOLLOWS:
            p.i += 1
            return concrete.CTrue() if tok == "T" else concrete.CFalse()
        if tok != "(":
            return comparison()
        # either a parenthesized condition or a parenthesized arithmetic
        # expression starting a comparison; try the condition first, and
        # when neither reading works, report the one that got further
        save, bracketed = (p.i, p.depth), None
        try:
            p.i += 1
            p.enter()
            c = cond_expr()
            p.depth -= 1
            p.expect(")")
            if toks[p.i] not in _ARITHMETIC_FOLLOWS:
                return c
        except _NestingError:
            raise
        except ParseError as exc:
            bracketed = exc
        p.i, p.depth = save
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
        op = toks[p.i]
        if op == "=":
            op = "=="
        if op not in concrete.CMP_OPS:
            p.expected("a comparison operator")
        p.i += 1
        return concrete.Cmp(op, left, int_expr())

    int_expr = functools.partial(p.climb, int_atom, arithmetic)
    cond_expr = functools.partial(p.climb, cond_atom, connectives)

    def shallow(read):
        def read_tree():
            k = p.i
            tree = read()
            if _height(tree) > MAX_NESTING:
                raise p.error(f"nested more than {MAX_NESTING} levels deep", k)
            return tree

        return read_tree

    return shallow(cond_expr), shallow(int_expr)


def parse_concrete(text) -> concrete.ConcreteProgram:
    p = _Parser(text)
    decls, at = [], []
    while p.accept("var"):
        k = p.i
        tok = p.peek()
        if not _is_name(tok):
            p.fail("expected a variable name")
        p.i += 1
        p.expect("in")
        lo, hi = p.half_open()
        if lo >= hi:
            raise p.error(f"empty range for {tok!r}", k)
        decls.append(concrete.VarDecl(tok, lo, hi))
        at.append(k)
    declared = {d.name: d for d in decls}
    cond, arith = _cp_grammar(p, declared)

    def assignment(k):
        tok = p.peek()
        if not _is_name(tok):
            p.expected("a statement")
        if tok == "var":
            raise p.error("declarations must precede statements", k)
        p.i += 1
        decl = declared[_check_declared(p, tok, declared, k)]
        p.expect("=")
        if not p.accept("unif"):
            return concrete.Assign(tok, arith(), p.line(k))
        lo, hi = p.half_open()
        if lo >= hi:
            raise p.error("empty draw range", k)
        if not decl.lo <= lo < hi <= decl.hi:
            raise p.error(f"draw [{lo}, {hi}) escapes {tok}'s declared range", k)
        return concrete.Draw(tok, lo, hi, p.line(k))

    body = p.statements(cond, assignment, {"observe": concrete.Observe}, concrete.If)
    _first_repeat(p, [d.name for d in decls], at)
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
    k = p.i
    num = p.signed_int()
    den = p.signed_int() if p.accept("/") else 1
    if den == 0:
        raise p.error(f"zero denominator in {num}/0", k)
    return Fraction(num, den)


def parse_rational(text) -> Fraction:
    p = _Parser(text)
    return p.whole(lambda: _rational(p))


# --- BERN programs (.bern) ------------------------------------------------------


def _joined(cls):
    return lambda left, right, start: cls(left, right)


_BERN_OPS = _operators({
    "&&": (4, _joined(bern.BAnd), False),
    "||": (3, _joined(bern.BOr), False),
    "=>": (2, _joined(bern.BImp), True),
    "<=>": (1, _joined(bern.BIff), False),
})


def _bern_grammar(p: _Parser, declared, plain=False):
    """The .bern expression reader over `p`, for expressions over the names
    in `declared`, and its counters of flip sites and of stars, which
    number them in reading order; a `plain` expression, an event, has none
    of them and no ``choose``."""
    flips, stars = itertools.count(), itertools.count()
    toks = p.toks
    # the leaf each bare token stands for: T, F and every declared name
    # that may be written bare; a leaf is immutable, so one object serves
    # every read of it
    leaves = {"T": bern.BTrue(), "F": bern.BFalse()}
    for name in declared:
        if bern.IDENT_OK.fullmatch(name) and name not in bern.RESERVED_WORDS:
            leaves[name] = bern.BVar(name)

    def atom():
        k = p.i
        tok = toks[k]
        leaf = leaves.get(tok)
        if leaf is not None:
            p.i += 1
            return leaf
        if plain and tok in ("flip", "*", "choose"):
            p.fail("events must be plain Boolean formulas over the variables")
        if tok == "!":
            p.i += 1
            p.enter()
            e = bern.BNot(atom())
            p.depth -= 1
            return e
        if tok == "(":
            p.i += 1
            p.enter()
            e = expr()
            p.depth -= 1
            p.expect(")")
            return e
        if tok == "*":
            p.i += 1
            return bern.Star(next(stars))
        if tok == "flip":
            p.i += 1
            p.expect("(")
            theta = _flip_param(p)
            p.expect(")")
            return bern.Flip(next(flips), theta)
        if tok == "choose":
            p.i += 1
            p.expect("(")
            p.enter()
            a = expr()
            p.expect(",")
            b = expr()
            p.depth -= 1
            p.expect(")")
            return bern.Choose(a, b)
        return bern.BVar(_check_declared(p, _bern_name(p), declared, k))

    expr = functools.partial(p.climb, atom, _BERN_OPS)
    return expr, flips, stars


def parse_bern(text, mode=None) -> bern.BernProgram:
    """The program `text`, in `mode`, or else in the mode its flips or
    stars imply; `BernProgram` rejects a program its mode does not allow."""
    p = _Parser(text)
    decls, at = [], []
    while p.accept("bool"):
        at.append(p.i)
        decls.append(_bern_name(p))
    declared = set(decls)
    expr, flips, stars = _bern_grammar(p, declared)

    def assignment(k):
        targets = p.listed(lambda: _bern_name(p))
        for t in targets:
            _check_declared(p, t, declared, k)
        p.expect("=")
        exprs = p.listed(expr)
        if len(exprs) != len(targets):
            raise p.error("parallel assignment arity mismatch", k)
        if len(targets) > 1 and len(set(targets)) != len(targets):
            raise p.error("parallel assignment targets must be distinct", k)
        return bern.PAssign(tuple(targets), tuple(exprs), p.line(k))

    filters = {"observe": bern.BObserve, "assume": bern.BAssume}
    body = p.statements(expr, assignment, filters, bern.BIf)
    _first_repeat(p, decls, at)
    if mode is None:  # a counter's next id is the number of its leaves read
        mode = "prob" if next(flips) else ("nondet" if next(stars) else None)
    return bern.BernProgram(tuple(decls), body, mode)


def _bern_name(p: _Parser) -> str:
    tok = p.peek()
    if tok == "{":
        return p.braced_name()
    if not _is_name(tok):
        p.expected("a variable name")
    if tok in bern.RESERVED_WORDS:
        p.fail(f"{tok!r} is reserved")
    p.i += 1
    return tok


def _flip_param(p: _Parser):
    k = p.i
    tok = p.peek()
    if _is_name(tok):
        p.i += 1
        return tok  # symbolic parameter
    theta = _rational(p)
    if not 0 <= theta <= 1:
        raise p.error(f"flip parameter {theta} outside [0, 1]", k)
    return theta


def parse_event(text, declared) -> bern.BernExpr:
    """The flip/star/choose-free BERN expression that is all of `text`,
    over the names in `declared`."""
    p = _Parser(text)
    return p.whole(_bern_grammar(p, set(declared), plain=True)[0])
