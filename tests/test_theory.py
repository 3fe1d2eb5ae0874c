"""Bounded-domain decision procedure and weakest preconditions."""

import random

import pytest

from bernabs import concrete as cc
from bernabs import parsing, randgen, theory
from bernabs.errors import TheoryCapError
from bernabs.selftest import naive_cond


def ctx_of(text):
    return theory.TheoryContext.of_program(parsing.parse_concrete(text))


def cond(text, names):
    return parsing.parse_cond(text, names)


def test_satisfiable_examples():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    assert ctx.satisfiable(cond("x < 0", ["x"]))
    assert not ctx.satisfiable(cond("x < 0 && x > 0", ["x"]))
    assert not ctx.satisfiable(cond("x < -4", ["x"]))


def test_entails_examples():
    ctx = theory.TheoryContext([cc.VarDecl("x", -8, 8)])
    a = cond("x < -4", ["x"])
    b = cond("x < 3", ["x"])
    assert ctx.entails(a, b)
    assert ctx.entails(a, a)
    ctx2 = theory.TheoryContext([cc.VarDecl("x", 0, 10)])
    assert ctx2.entails(cond("x < 5", ["x"]), cond("x < 7", ["x"]))


def test_entails_matches_sat_reduction():
    rng = random.Random(2)
    for _ in range(60):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        a = randgen.rand_cond(rng, decls)
        b = randgen.rand_cond(rng, decls)
        assert ctx.entails(a, b) == (not ctx.satisfiable(cc.CAnd(a, cc.CNot(b))))


def test_cap_enforced():
    """1024 x 1025 states, past concrete.DEFAULT_STATE_CAP = 2**20: the
    sweep raises when it is asked for, so no state is ever enumerated."""
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 1024), cc.VarDecl("y", 0, 1025)])
    assert cc.joint_size(ctx.decls) > cc.DEFAULT_STATE_CAP
    with pytest.raises(TheoryCapError, match="1049600 states"):
        ctx.states()
    with pytest.raises(TheoryCapError):
        ctx.satisfiable(cond("x < y", ["x", "y"]))


def test_wp_subst_examples():
    x_plus_1 = cc.Add(cc.IntVar("x"), cc.IntConst(1))
    target = cond("x < 3", ["x"])
    got = theory.wp_subst("x", x_plus_1, target)
    assert str(got) == "x + 1 < 3"
    got0 = theory.wp_subst("x", cc.IntConst(0), target)
    assert str(got0) == "0 < 3"
    untouched = theory.wp_subst("y", cc.IntConst(5), target)
    assert untouched == target


def test_wp_subst_keeps_labels():
    """The rebuild under a substitution keeps each node's coefficient and operator."""
    x, x_plus_1 = cc.IntVar("x"), cc.Add(cc.IntVar("x"), cc.IntConst(1))
    got = theory.wp_subst("x", x_plus_1, cc.Cmp(">=", cc.Scale(3, x), cc.IntConst(2)))
    assert got == cc.Cmp(">=", cc.Scale(3, x_plus_1), cc.IntConst(2))
    assert got != cc.Cmp("<", cc.Scale(2, x_plus_1), cc.IntConst(2))
    assert str(got) == "3*(x + 1) >= 2"


def test_wp_soundness_by_enumeration():
    rng = random.Random(8)
    for _ in range(40):
        decls = randgen.rand_decls(rng, max_vars=2, max_range=6)
        ctx = theory.TheoryContext(decls)
        stmt = randgen.rand_safe_assign(rng, decls)
        target = randgen.rand_cond(rng, decls)
        wp = theory.wp_subst(stmt.name, stmt.expr, target)
        prog = cc.ConcreteProgram(decls, (stmt,))
        for z in ctx.states():
            post = cc.eval_det(prog, z)
            assert naive_cond(target, ctx.names, post) == naive_cond(wp, ctx.names, z)


def test_memoization_counts_queries():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 8)], record_queries=True)
    c = cond("x < 5", ["x"])
    ctx.satisfiable(c)
    ctx.satisfiable(c)
    assert len(ctx.query_log) == 1


def test_emit_smtlib_sat():
    ctx = theory.TheoryContext([cc.VarDecl("x", -2, 3)])
    script = theory.emit_smtlib(ctx, "sat", cond("x < 0", ["x"]))
    assert "(set-logic QF_LIA)" in script
    assert "(declare-const x Int)" in script
    assert "(assert (<= (- 2) x))" in script
    assert "(assert (< x 3))" in script
    assert "(assert (< x 0))" in script
    assert script.rstrip().endswith("(check-sat)")


def test_emit_smtlib_entailment_encoding():
    ctx = theory.TheoryContext([cc.VarDecl("x", -8, 8)])
    a, b = cond("x < -4", ["x"]), cond("x < 3", ["x"])
    script = theory.emit_smtlib(ctx, "entails", a, b)
    assert "(assert (< x (- 4)))" in script
    assert "(assert (not (< x 3)))" in script


def test_query_log_dump():
    ctx = theory.TheoryContext([cc.VarDecl("x", 0, 4)], record_queries=True)
    ctx.satisfiable(cond("x < 2", ["x"]))
    ctx.entails(cond("x < 1", ["x"]), cond("x < 2", ["x"]))
    dump = theory.dump_query_log(ctx)
    assert dump.count("(check-sat)") == 2
    assert "(reset)" in dump
