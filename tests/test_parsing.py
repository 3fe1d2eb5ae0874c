"""The text formats' readers: the error table, robustness, long chains.

``tests/golden/parse_errors.json`` holds, for each case of `ERROR_CASES`,
the reason, line and column of the `ParseError` it raises.  Running this
file as a script (``PYTHONPATH=src python tests/test_parsing.py``) writes
the table from the parser as it stands; the tests hold the parser to it.
"""

import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernabs import bern, corpus, parsing, randgen
from bernabs import concrete as cc
from bernabs.errors import ModeError, ParseError

GOLDEN = pathlib.Path(__file__).parent / "golden" / "parse_errors.json"

DEEP = bern.MAX_NESTING + 1
CP = "var x in [0, 4)\nvar y in [0, 4)\n"
BOOL = "bool a\nbool b\n"
NAMES = ["a", "b"]


def _nested_ifs(open_if, body):
    return open_if * DEEP + body + "}" * DEEP


# (parser, text, declared names or None): each text is malformed, and the
# comments say what is wrong with it.
ERROR_CASES = [
    # a character no token starts with, outside and inside braces
    ("concrete", CP + "x = x $ 1\n", None),
    ("concrete", CP + "# a comment\n\n   x = 1 @\n", None),
    ("concrete", CP + "observe(T $)\n", None),
    ("concrete", CP + "observe(" + "x < 1 && " * DEEP + "T $)\n", None),
    ("bern", "bool {a$}\n\n  a$ = T\n", None),
    ("bern", BOOL + "a = a ? b\n", None),
    ("event", "a ?", NAMES),
    ("event", "a && é", NAMES),
    ("rational", "1 / $", None),
    # a stray met before an error found after it would be
    ("concrete", CP + "x = y + 2 * x * y\n$\n", None),
    ("concrete", CP + "x = x" + " + 1" * DEEP + " $\n", None),
    ("concrete", CP + "observe((x < 1) $)\n", None),
    ("bern", BOOL + "a, b = T $\n", None),
    # the statement grammar
    ("concrete", CP + "while (x < 3) { x = x + 1 }\n", None),
    ("bern", BOOL + "loop { a = T }\n", None),
    ("concrete", CP + "if (x < 1) {\n  x = 0\n", None),
    ("bern", BOOL + "if (a) {\n  a = T\n# end\n", None),
    ("concrete", CP + "if (x < 1) { x = 0 } else x = 1\n", None),
    ("bern", BOOL + "if (a) a = T\n", None),
    ("bern", BOOL + "observe a\n", None),
    ("concrete", CP + "observe(x < 1\n", None),
    # declarations, ranges and integers
    ("concrete", "var x in [a, 4)\n", None),
    ("concrete", "var x in [0, 4]\n", None),
    ("concrete", "var x in [0 4)\n", None),
    ("concrete", "var x [0, 4)\n", None),
    ("concrete", "var x in [4, 4)\n", None),
    ("concrete", "var x in [0, -)\n", None),
    ("concrete", "var 3 in [0, 4)\n", None),
    ("concrete", "var\n", None),
    ("concrete", CP + "x = 1\nvar z in [0, 4)\n", None),
    ("concrete", CP + "3 = x\n", None),
    ("concrete", CP + "x == 1\n", None),
    ("concrete", CP + "x = unif [2, 2)\n", None),
    ("concrete", CP + "x = unif [0, 8)\n", None),
    ("concrete", CP + "x = unif [0, 4\n", None),
    # arithmetic
    ("concrete", CP + "x = z\n", None),
    ("concrete", CP + "x = x +\n", None),
    ("concrete", CP + "x = x * y\n", None),
    ("concrete", CP + "x = y + 2 * x * y\n", None),
    ("concrete", CP + "x = (x + 1\n", None),
    ("concrete", CP + "x = x + )\n", None),
    # conditions: comparisons and the bracket backtracking
    ("concrete", CP + "observe(x 1)\n", None),
    ("concrete", CP + "observe((x < 1 && x))\n", None),
    ("concrete", CP + "observe((x + 1) ! 2)\n", None),
    ("concrete", CP + "observe((x + 1) < )\n", None),
    ("concrete", CP + "observe((x < 1) < 2)\n", None),
    ("concrete", CP + "observe(!(x + 1))\n", None),
    ("concrete", CP + "observe(T < 1)\n", None),
    ("cond", "x < 1) observe(x > 2", ["x"]),
    ("cond", "(a > -4", None),
    ("cond", "x <", None),
    ("cond", "", None),
    ("cond", "y < 1", ["x"]),
    ("cond", "x < 1 ||", None),
    # nesting: brackets, negations, blocks and trees too high
    ("concrete", CP + "observe(" + "(" * DEEP + "x < 1" + ")" * DEEP + ")\n", None),
    ("concrete", CP + "observe(" + "!" * DEEP + "(x < 1))\n", None),
    ("concrete", CP + "x = " + "(" * DEEP + "x" + ")" * DEEP + "\n", None),
    ("concrete", CP + "x = " + "-" * DEEP + "1\n", None),
    ("concrete", CP + _nested_ifs("if (x < 1) {\n", "x = 0\n"), None),
    ("concrete", CP + "x = x" + " + 1" * DEEP + "\n", None),
    ("concrete", CP + "observe(" + " && ".join(["x < 3"] * DEEP) + ")\n", None),
    ("cond", " || ".join(["x < 3"] * DEEP), None),
    ("bern", BOOL + "a = " + "(" * DEEP + "a" + ")" * DEEP + "\n", None),
    ("bern", BOOL + "a = " + "!" * DEEP + "a\n", None),
    ("bern", BOOL + "a = " + "a => " * DEEP + "a\n", None),
    ("bern", BOOL + "a = " + "choose(" * DEEP + "a, b" + ")" * DEEP + "\n", None),
    ("bern", BOOL + _nested_ifs("if (a) {\n", "a = T\n"), None),
    ("event", "!" * DEEP + "a", NAMES),
    ("event", "(" * DEEP + "a" + ")" * DEEP, NAMES),
    # BERN names and expressions
    ("bern", "bool a\na = {b\n", None),
    ("bern", "bool {a\nb}\n", None),
    ("bern", "bool a\na = {a\n", None),
    ("bern", "bool {a{b}\n", None),
    ("bern", "bool {a}}\n", None),
    ("bern", "bool {}\n", None),
    ("bern", "bool { \t }\n", None),
    ("bern", "bool a\n{a = T\n", None),
    ("bern", BOOL + "a = c\n", None),
    ("bern", BOOL + "a = {c}\n", None),
    ("bern", BOOL + "a, c = T, F\n", None),
    ("bern", "bool if\n", None),
    ("bern", "bool a\nbool T\n", None),
    ("bern", "bool 3\n", None),
    ("bern", BOOL + "a = \n", None),
    ("bern", BOOL + "a = T\n# a comment\n  )\n", None),
    ("bern", BOOL + "a, b = T\n", None),
    ("bern", BOOL + "a = T, F\n", None),
    ("bern", BOOL + "a = flip(3/2)\n", None),
    ("bern", BOOL + "a = flip(-1/2)\n", None),
    ("bern", BOOL + "a = flip(1/0)\n", None),
    ("bern", BOOL + "a = flip(x/2)\n", None),
    ("bern", BOOL + "a = flip(-)\n", None),
    ("bern", BOOL + "a = flip 1/2\n", None),
    ("bern", BOOL + "a = choose(a b)\n", None),
    ("bern", BOOL + "a = (a && b\n", None),
    ("bern", BOOL + "a = a &&\n", None),
    ("bern", BOOL + "a = a b\n", None),
    # events: plain Boolean formulas that use up the text
    ("event", "a && flip(1/2)", NAMES),
    ("event", "*", NAMES),
    ("event", "b || choose(a, b)", NAMES),
    ("event", "zz", NAMES),
    ("event", "a)", NAMES),
    ("event", "", NAMES),
    ("event", "a &&", NAMES),
    ("event", "\n\n  a =>\n", NAMES),
    # rationals (--params fixed=<r>)
    ("rational", "1/2x", None),
    ("rational", "1/0", None),
    ("rational", "", None),
    ("rational", "1/", None),
    ("rational", "a", None),
    ("rational", "--1", None),
    # .preds lines
    ("preds", "x < 1\n", None),
    ("preds", ": x < 1\n", None),
    ("preds", "a: x < 1\na: x < 2\n", None),
    ("preds", "a: x <\n", None),
    ("preds", "# header\n\nb:   (x < 1 # no bracket\n", None),
    ("preds", "a: x < 1 $\n", None),
    ("preds", "a: x < 1\nb: " + "(" * DEEP + "x < 1" + ")" * DEEP + "\n", None),
]

PARSERS = {
    "concrete": lambda text, declared: parsing.parse_concrete(text),
    "preds": lambda text, declared: parsing.parse_preds(text),
    "bern": lambda text, declared: parsing.parse_bern(text),
    "event": lambda text, declared: parsing.parse_event(text, declared),
    "cond": lambda text, declared: parsing.parse_cond(text, declared),
    "rational": lambda text, declared: parsing.parse_rational(text),
}


def error_row(parser, text, declared):
    """The case and the reason, line and column of the error it raises."""
    with pytest.raises(ParseError) as exc:
        PARSERS[parser](text, declared)
    err = exc.value
    return {"parser": parser, "input": text, "declared": declared,
            "reason": err.reason, "line": err.line, "column": err.column}


def test_every_error_keeps_its_message_and_position():
    golden = json.loads(GOLDEN.read_text())
    assert [(r["parser"], r["input"], r["declared"]) for r in golden] == ERROR_CASES
    for row in golden:
        assert error_row(row["parser"], row["input"], row["declared"]) == row


# --- robustness: mutated texts -------------------------------------------------


def _cp_text(program):
    """A concrete program as .cp text."""
    lines = [f"var {d.name} in [{d.lo}, {d.hi})" for d in program.decls]

    def emit(body, pad):
        for s in body:
            if isinstance(s, cc.Assign):
                lines.append(f"{pad}{s.name} = {s.expr}")
            elif isinstance(s, cc.Draw):
                lines.append(f"{pad}{s.name} = unif [{s.lo}, {s.hi})")
            elif isinstance(s, cc.Observe):
                lines.append(f"{pad}observe({s.cond})")
            else:
                lines.append(f"{pad}if ({s.cond}) {{")
                emit(s.then, pad + "  ")
                lines.append(f"{pad}}} else {{")
                emit(s.els, pad + "  ")
                lines.append(f"{pad}}}")

    emit(program.body, "")
    return "\n".join(lines) + "\n"


def _sources():
    """(parser, text, declared) for the corpus and for seeded random programs."""
    out = [("concrete", text, None) for text in (corpus.BRANCH_RESET_CP, corpus.CHAIN_DRAWS_CP, corpus.SHIFT_TEN_CP)]
    out += [("preds", text, None) for text in (corpus.BRANCH_RESET_PREDS, corpus.CHAIN_DRAWS_PREDS, corpus.SHIFT_TEN_PREDS)]
    out += [("bern", text, None) for text in (corpus.BRANCH_RESET_BERN, corpus.CHAIN_DRAWS_BERN, corpus.BAYES_NET_BERN)]
    rng = random.Random(31)
    for _ in range(6):
        program = randgen.rand_concrete_program(rng, draws=True, observes=True)
        out.append(("concrete", _cp_text(program), None))
        preds = randgen.rand_predicates(rng, program.decls)
        out.append(("preds", "".join(f"{label}: {cond}\n" for label, cond in preds), None))
        names = ("v0", "v1", "v<2")
        out.append(("bern", bern.to_text(randgen.rand_bern_program(rng, names)), None))
        out.append(("event", bern.expr_text(randgen.rand_bern_cond(rng, names, depth=3)), list(names)))
    return out


SOURCES = _sources()
# what an insertion puts in: every operator and keyword, stray characters,
# an open brace, a comment, and runs past the nesting bound
INSERTS = [
    "(", ")", "{", "}", "[", "]", "!", "&&", "||", "=>", "<=>", "=", "==", "<", ">=", "+", "-",
    "*", "/", ",", ":", "#", "\n", " ", "if", "else", "flip", "choose", "observe", "assume",
    "var", "bool", "unif", "in", "while", "T", "F", "0", "7", "1/2", "a", "x", "v0", "{v", "$", "é",
    "(" * 150, "!" * 150, "a => " * 150, "- " * 150, "if (T) {" * 150,
]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_text_parses_or_raises_a_parse_error(data):
    """Truncated texts, and texts with tokens dropped or put in, are read or
    refused with a ParseError; a well-formed BERN text may also mix modes."""
    parser, text, declared = data.draw(st.sampled_from(SOURCES))
    pieces = re.findall(r"\s+|\w+|[^\w\s]", text)
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(("truncate", "drop", "insert")))
        k = data.draw(st.integers(0, len(pieces)))
        if kind == "truncate":
            del pieces[k:]
        elif kind == "drop":
            del pieces[k : k + 1]
        else:
            pieces.insert(k, data.draw(st.sampled_from(INSERTS)))
    try:
        PARSERS[parser]("".join(pieces), declared)
    except ParseError:
        pass
    except ModeError:
        assert parser == "bern"


# --- long chains -------------------------------------------------------------------

CHAIN = 20_000


@pytest.mark.parametrize("op, cls", [("&&", bern.BAnd), ("||", bern.BOr), ("<=>", bern.BIff)])
def test_a_flat_bern_chain_parses_to_the_left_associative_tree(op, cls):
    names = ("a", "b", "c")
    tree = bern.BVar("a")
    for i in range(1, CHAIN):
        tree = cls(tree, bern.BVar(names[i % 3]))
    text = f" {op} ".join(names[i % 3] for i in range(CHAIN))
    assert parsing.parse_event(text, names) == tree
    program = parsing.parse_bern(f"bool a\nbool b\nbool c\na = {text}\n")
    assert program.body[0].exprs[0] == tree


@pytest.mark.parametrize("op, cls", [("+", cc.Add), ("-", cc.Sub)])
def test_a_flat_sum_is_left_associative_up_to_the_bound_and_refused_past_it(op, cls):
    """A .cp tree may be MAX_NESTING levels high: a comparison over a chain
    of 99 operands parses to the left-associative tree, and a chain of
    20,000 is refused with the nesting error at its first token."""
    operands = bern.MAX_NESTING - 1
    tree = cc.IntVar("x")
    for i in range(1, operands):
        tree = cls(tree, cc.IntConst(i))
    chain = f" {op} ".join(["x"] + [str(i) for i in range(1, operands)])
    assert parsing.parse_cond(f"{chain} < 1", ["x"]) == cc.Cmp("<", tree, cc.IntConst(1))
    with pytest.raises(ParseError, match=r"nested more than 100 levels deep \(line 1, column 1\)"):
        parsing.parse_cond(f" {op} ".join(["x"] * CHAIN) + " < 1", ["x"])
    with pytest.raises(ParseError, match=r"nested more than 100 levels deep \(line 2, column 5\)"):
        parsing.parse_concrete("var x in [0, 4)\nx = " + f" {op} ".join(["x"] * CHAIN) + "\n")


@pytest.mark.parametrize(
    "parser, text, reason, line, column",
    [
        ("bern", "bool a\nbool b\nbool a\na = T\n", "'a' is declared twice", 3, 6),
        ("bern", "bool {a b}\nbool {a b}\n", "'a b' is declared twice", 2, 6),
        ("concrete", "var x in [0, 4)\nvar x in [0, 2)\n", "'x' is declared twice", 2, 5),
        ("bern", BOOL + "a, a = T, F\n", "parallel assignment targets must be distinct", 3, 1),
        # a syntax error further on is still the one reported
        ("bern", "bool a\nbool a\na = $\n", "unexpected character '$'", 3, 5),
    ],
)
def test_a_name_declared_or_assigned_twice_is_refused_where_it_repeats(parser, text, reason, line, column):
    row = error_row(parser, text, None)
    assert (row["reason"], row["line"], row["column"]) == (reason, line, column)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([error_row(*case) for case in ERROR_CASES], indent=1) + "\n")
