"""BERN language: parsing, desugaring, the two interpreters."""

import dataclasses
import itertools
import operator
import random
import re
from fractions import Fraction

import pytest

from bernabs import bdd as bddm
from bernabs import bern, cli, corpus, engine, parsing, randgen, theorems
from bernabs.errors import EnumerationCapError, ModeError, NestingError, ParseError

# flat 3,000-operand chains: the parser builds a tree 3,000 levels deep
# (`b <=> T` is `b`, so the <=> chain means the same as the other two)
CHAIN_OPERANDS = 3000
FLAT_CHAINS = {
    "&&": "b" + " && b" * (CHAIN_OPERANDS - 1),
    "||": "b" + " || b" * (CHAIN_OPERANDS - 1),
    "<=>": "b" + " <=> T" * (CHAIN_OPERANDS - 1),
}


def point(program, **bits):
    state = {n: bits.get(n, False) for n in program.decls}
    return bern.AbstractDistribution.point(program.decls, state)


def test_parse_bayes_net():
    prog = parsing.parse_bern(corpus.BAYES_NET_BERN)
    assert prog.mode == "prob"
    flips = prog.flip_sites()
    assert len(flips) == 3
    assert sum(isinstance(s, bern.BObserve) for s in bern.walk_stmts(prog.body)) == 1


def test_parse_nondet_with_choose():
    prog = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
    assert prog.mode == "nondet"
    assert any(isinstance(e, bern.Choose) for e in bern.walk_exprs(prog.body))
    assert any(isinstance(e, bern.Star) for e in bern.walk_exprs(prog.body))


def test_parse_flip_out_of_range():
    with pytest.raises((ParseError, ModeError)):
        parsing.parse_bern("bool a\na = flip(3/2)")


def test_mode_clash_rejected():
    with pytest.raises(ModeError):
        parsing.parse_bern("bool a\na = flip(1/2) && *")
    with pytest.raises(ModeError):
        parsing.parse_bern("bool a\na = *", mode="prob")


def test_desugar_choose_examples():
    # choose(T, F) -> T; choose(F, T) -> F
    prog = parsing.parse_bern("bool a\na = choose(T, F)", mode="nondet")
    ds = bern.desugar_program(prog)
    out = bern.interp_nondet(ds, {(False,), (True,)})
    assert out == {(True,)}
    prog2 = parsing.parse_bern("bool a\na = choose(F, T)", mode="nondet")
    out2 = bern.interp_nondet(bern.desugar_program(prog2), {(False,), (True,)})
    assert out2 == {(False,)}
    # choose(a, !b) -> a || (b && *)
    prog3 = parsing.parse_bern("bool a\nbool b\na = choose(a, !b)", mode="nondet")
    ds3 = bern.desugar_program(prog3)
    stmt = ds3.body[0]
    e = stmt.exprs[0]
    assert isinstance(e, bern.BOr)
    assert isinstance(e.right, bern.BAnd)
    assert isinstance(e.right.right, bern.Star)


def test_desugar_fresh_ids_follow_existing_ones():
    prog = parsing.parse_bern(
        "bool a\nbool b\n"
        "a = flip(1/2) && choose(choose(a, b), flip(1/3))\n"
        "if (choose(b, flip(1/4))) { b = choose(a, !a) }"
    )
    sites = bern.desugar_program(prog).flip_sites()
    old = [(0, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 4))]
    assert [s for s in sites if not isinstance(s[1], str)] == old
    fresh = [site for site, theta in sites if isinstance(theta, str)]
    assert sorted(fresh) == [3, 4, 5, 6]
    assert [theta for site, theta in sites if site in fresh] == [f"theta{s}" for s in fresh]
    # flip_sites is left to right: the flips of choose(a, b) sit left of
    # flip(1/3), the fresh flip of the outer choose right of it
    assert [site for site, _ in sites] == [0, 3, 1, 4, 2, 5, 6]


def test_desugar_returns_a_program_with_nothing_to_desugar():
    prog = parsing.parse_bern("bool a\nbool b\na = flip(1/2) || b\nif (a) { b = !b }")
    assert prog.mode == "prob"
    assert bern.desugar_program(prog) is prog
    assert bern.desugar_program(prog, "prob") is prog
    assert bern.exact_inference_input(prog)[0] is prog
    # the mode still changes when asked to, and a choose is still replaced
    plain = parsing.parse_bern("bool a\na = !a")
    assert bern.desugar_program(plain, "prob") is not plain
    assert bern.desugar_program(plain, "prob").mode == "prob"
    chosen = parsing.parse_bern("bool a\na = flip(1/2) && choose(a, F)")
    ds = bern.desugar_program(chosen)
    assert ds is not chosen
    assert ds.flip_sites() == [(0, Fraction(1, 2)), (1, "theta1")]


def _with_chooses(rng, program):
    """`program` with a few variable reads replaced by a choose of two."""
    names = program.decls

    def on_node(e):
        if isinstance(e, bern.BVar) and rng.random() < 0.3:
            return bern.Choose(e, bern.BVar(rng.choice(names)))
        return e

    return bern.map_program(program, on_node)


def _owners_by_walk(program):
    """(site, theta, owner) of every flip, by a fold of each expression
    `walk_stmts` reaches: an assignment's right-hand sides with their
    targets, then a guard, an observe or an assume with None."""
    out = []
    for stmt in bern.walk_stmts(program.body):
        pairs = zip(stmt.exprs, stmt.targets) if isinstance(stmt, bern.PAssign) else ((stmt.cond, None),)
        for e, owner in pairs:
            bern.fold(e, lambda node, _: type(node) is bern.Flip and out.append((node.site, node.theta, owner)))
    return out


def test_exact_inference_input_finds_the_desugared_sites_in_one_walk():
    """Its sites are those of the desugared program, as a fold over its
    statements finds them, for programs in mode None and "prob", with and
    without a choose; a choose leaves an unresolved parameter, which is
    rejected with its site."""
    rng = random.Random(23)
    seen = set()
    for trial in range(160):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=rng.choice((0, 4)), max_stmts=7)
        if trial % 4 == 1:  # flips in a program that names no mode
            prog = bern.BernProgram(prog.decls, prog.body, None)
        if trial % 2:
            prog = _with_chooses(rng, prog)
        want = _owners_by_walk(bern.desugar_program(prog, prog.mode or "prob"))
        unresolved = [(site, theta) for site, theta, _ in want if isinstance(theta, str)]
        chosen = any(isinstance(e, bern.Choose) for e in bern.walk_exprs(prog.body))
        seen.add((prog.mode, chosen))
        if unresolved:
            site, theta = unresolved[0]
            message = f"flip site {site} has unresolved parameter {theta!r}"
            with pytest.raises(ModeError, match=f"^{re.escape(message)}$"):
                bern.exact_inference_input(prog)
            continue
        program, sites = bern.exact_inference_input(prog)
        assert sites == want
        assert program is prog
    assert seen == {(mode, chosen) for mode in (None, "prob") for chosen in (False, True)}


def _record(program):
    """What a program's validating walk recorded."""
    return program.flip_owners(), program._top_id, program._has_choose, program._has_star


def _leaf_ids(program):
    """The flip and star ids of `program`, in `walk_exprs` order."""
    return [e.site if type(e) is bern.Flip else e.occurrence
            for e in bern.walk_exprs(program.body) if type(e) in (bern.Flip, bern.Star)]


def _record_by_walk(program):
    """The same facts by folds of its own: the flip owners, the largest flip
    or star id (-1 for none), and whether a choose and a star occur."""
    kinds = set(map(type, bern.walk_exprs(program.body)))
    return _owners_by_walk(program), max(_leaf_ids(program), default=-1), bern.Choose in kinds, bern.Star in kinds


def test_every_program_keeps_the_record_of_its_own_walk():
    """Random programs with flips or stars, with and without chooses, before
    and after `desugar_program`, and the programs `map_program` (new
    thetas, as `resolve_parameters` gives) and `dataclasses.replace` make
    of them: each one's record is what a walk of it finds, never its
    source's.  The fresh ids of a desugaring run on from the largest id,
    one per choose, rising through the program.  The record stays out of
    ==, hash and repr."""
    rng = random.Random(29)
    seen = set()
    for trial in range(150):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=rng.choice((0, 4)), max_stmts=7)
        if trial % 3 == 1 and prog.mode:  # every flip a star
            prog = bern.map_program(prog, lambda e: bern.Star(e.site) if type(e) is bern.Flip else e, mode="nondet")
        if trial % 2:
            prog = _with_chooses(rng, prog)
        desugared = bern.desugar_program(prog, prog.mode or rng.choice(("prob", "nondet")))
        resolved = bern.map_program(
            desugared, lambda e: bern.Flip(e.site, Fraction(1, 3)) if type(e) is bern.Flip else e
        )
        replaced = dataclasses.replace(desugared, body=desugared.body[1:])
        for p in (prog, desugared, resolved, replaced):
            assert _record(p) == _record_by_walk(p)
            assert p.flip_sites() == [(site, theta) for site, theta, _ in _owners_by_walk(p)]
        _, top, chosen, starred = _record_by_walk(prog)
        chooses = sum(type(e) is bern.Choose for e in bern.walk_exprs(prog.body))
        fresh = [i for i in _leaf_ids(desugared) if i not in _leaf_ids(prog)]
        assert fresh == list(range(top + 1, top + 1 + chooses))
        seen.add((bool(prog.flip_owners()), starred, chosen))
    assert seen >= {(flips, stars, chosen) for flips, stars in ((True, False), (False, True)) for chosen in (False, True)}

    prog = parsing.parse_bern("bool a\nbool b\na = flip(1/2) || choose(b, a)\n")
    twin = bern.BernProgram(prog.decls, prog.body, prog.mode)
    object.__setattr__(twin, "_top_id", 99)
    object.__setattr__(twin, "_flips", ())
    assert twin == prog and hash(twin) == hash(prog) and repr(twin) == repr(prog)
    assert repr(prog) == f"BernProgram(decls={prog.decls!r}, body={prog.body!r}, mode='prob')"


def test_a_program_hashes_its_body_once(monkeypatch):
    """A BERN or concrete program keeps its hash by value from its first
    `hash`: equal programs hash equal, the first hash folds the body's
    expressions and later ones fold none, and a program made from it by
    `dataclasses.replace` hashes its own body."""
    rng = random.Random(31)
    shapes = []
    real = bern._shape
    monkeypatch.setattr(bern, "_shape", lambda e: shapes.append(e) or real(e))
    first = 0
    for _ in range(30):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=3, max_stmts=6)
        again = parsing.parse_bern(bern.to_text(prog))
        cprog = randgen.rand_concrete_program(rng, draws=True)
        for p, q in ((prog, again), (cprog, dataclasses.replace(cprog))):
            assert p == q and p is not q
            del shapes[:]
            assert hash(p) == hash(q)
            first += len(shapes)
            del shapes[:]
            assert hash(p) == hash(q) and shapes == []
            shorter = dataclasses.replace(p, body=p.body[:-1])
            assert hash(shorter) == hash(dataclasses.replace(q, body=q.body[:-1]))
            assert (shorter == p) == (p.body == p.body[:-1])
            assert "_hash" not in repr(p)
    assert first > 0


def test_parse_bern_folds_each_expression_once(monkeypatch):
    """Parsing reads the mode off its grammar, so the program's validating
    walk is the only fold of each expression."""
    rng = random.Random(31)
    texts = [corpus.BAYES_NET_BERN, corpus.BRANCH_RESET_BERN, corpus.CHAIN_DRAWS_BERN]
    texts += [bern.to_text(randgen.rand_bern_program(rng, ("a", "b", "c"))) for _ in range(20)]
    folded, fold = [], bern.fold
    monkeypatch.setattr(bern, "fold", lambda e, visit: folded.append(id(e)) or fold(e, visit))
    for text in texts:
        folded.clear()
        prog = parsing.parse_bern(text)
        exprs = [e for s in bern.walk_stmts(prog.body) for e in (s.exprs if isinstance(s, bern.PAssign) else (s.cond,))]
        assert folded == list(map(id, exprs))


def test_exact_inference_input_keeps_its_messages():
    nondet = parsing.parse_bern("bool a\na = choose(a, *)")
    with pytest.raises(ModeError) as err:
        bern.exact_inference_input(nondet)
    assert str(err.value) == (
        "exact inference needs a probabilistic program; run non-deterministic programs through interp_nondet"
    )
    star = bern.BernProgram(("a",), (bern.PAssign(("a",), (bern.Star(0),)),), None)
    with pytest.raises(ModeError, match=r"^\* is not allowed in probabilistic mode$"):
        bern.exact_inference_input(star)
    chosen = parsing.parse_bern("bool a\na = flip(1/2) && choose(a, F)")
    with pytest.raises(ModeError, match="^flip site 1 has unresolved parameter 'theta1'$"):
        bern.exact_inference_input(chosen)


def test_interp_exact_single_flip():
    prog = parsing.parse_bern("bool b\nb = flip(1/4)")
    out = bern.interp_exact(prog, point(prog))
    assert out.mass_of({"b": True}) == Fraction(1, 4)
    assert out.mass_of({"b": False}) == Fraction(3, 4)


def test_interp_exact_bayes_net_conditional():
    prog = parsing.parse_bern(corpus.BAYES_NET_BERN)
    out = bern.interp_exact(prog, point(prog))
    # enumerate by hand: Pr(a and b) = 1/4, Pr(b) = 1/2
    pa_and_b = out.mass_of({"a": True, "b": True})
    survival = out.survival
    assert pa_and_b == Fraction(1, 4)
    assert survival == Fraction(1, 2)
    assert pa_and_b / survival == Fraction(1, 2)


def test_interp_exact_chain_draws():
    prog = parsing.parse_bern(corpus.CHAIN_DRAWS_BERN)
    out = bern.interp_exact(prog, point(prog))
    assert out.prob(lambda s: s["c<5"]) == Fraction(11, 32)


def test_interp_exact_rejects_star_and_symbolic():
    nondet = parsing.parse_bern("bool a\na = *")
    with pytest.raises(ModeError):
        bern.interp_exact(nondet, point(nondet))
    symbolic = parsing.parse_bern("bool a\na = flip(theta0)")
    with pytest.raises(ModeError):
        bern.interp_exact(symbolic, point(symbolic))


@pytest.mark.parametrize(
    "text, mode",
    [("bool a\na = T", "nondet"), ("bool a\na = *", None), ("bool a\na = flip(theta0)", None)],
    ids=["nondet-mode", "star", "unresolved-theta"],
)
def test_exact_inference_entry_points_reject_alike(text, mode):
    # a nondet-mode program is rejected even when it holds no *
    prog = parsing.parse_bern(text, mode=mode)
    with pytest.raises(ModeError):
        bern.interp_exact(prog, point(prog))
    with pytest.raises(ModeError):
        engine.query(prog, bern.BVar("a"))


def _nested_ifs(depth):
    body = (bern.PAssign(("a",), (bern.Flip(0, Fraction(1, 3)),)),)
    for _ in range(depth):
        body = (bern.BIf(bern.BNot(bern.BVar("a")), body, ()),)
    return body


def test_if_nesting_bounded_when_built():
    with pytest.raises(NestingError):
        bern.BernProgram(("a",), _nested_ifs(1200), "prob")
    # the deepest nesting allowed runs through both exact engines and the parser
    prog = bern.BernProgram(("a",), _nested_ifs(bern.MAX_NESTING), "prob")
    start = {"a": False}
    assert bern.interp_exact(prog, point(prog)).prob(lambda s: s["a"]) == Fraction(1, 3)
    assert engine.query(prog, bern.BVar("a"), init=start).probability == Fraction(1, 3)
    assert parsing.parse_bern(bern.to_text(prog)) == prog


def _walk_recursively(body):
    for stmt in body:
        yield stmt
        if isinstance(stmt, bern.BIf):
            yield from _walk_recursively(stmt.then)
            yield from _walk_recursively(stmt.els)


def test_walk_stmts_keeps_the_recursive_order():
    rng = random.Random(41)
    programs = [randgen.rand_bern_program(rng, ("v0", "v1", "v2"), max_stmts=12) for _ in range(60)]
    # 598 flip lines inside ifs nested as deep as a program may nest them
    sites = itertools.count()

    def link():
        return bern.PAssign(("a",), (bern.BIff(bern.BVar("a"), bern.Flip(next(sites), Fraction(1, 3))),))

    body = tuple(link() for _ in range(598 - bern.MAX_NESTING))
    for _ in range(bern.MAX_NESTING):
        body = (bern.BIf(bern.BOr(bern.BVar("a"), bern.BNot(bern.BVar("a"))), body, (link(),)),)
    programs.append(bern.BernProgram(("a",), (bern.PAssign(("a",), (bern.BTrue(),)), *body), "prob"))
    assert sum(isinstance(s, bern.BIf) for p in programs for s in bern.walk_stmts(p.body)) > 100
    for prog in programs:
        walked = list(bern.walk_stmts(prog.body))
        expected = list(_walk_recursively(prog.body))
        assert len(walked) == len(expected)
        assert all(map(operator.is_, walked, expected))


def _reference_validation(decls, body, mode):
    """`BernProgram`'s checks as three walks (nesting depth, every
    expression node, every statement), kept as the reference for the
    one-walk validation."""
    deepest, todo = 0, [(body, 0)]
    while todo:
        block, depth = todo.pop()
        deepest = max(deepest, depth)
        for stmt in block:
            if isinstance(stmt, bern.BIf):
                todo += ((stmt.then, depth + 1), (stmt.els, depth + 1))
    if deepest > bern.MAX_NESTING:
        raise NestingError(f"if blocks nested more than {bern.MAX_NESTING} levels deep")
    if len(set(decls)) != len(decls):
        raise ValueError("duplicate Boolean variable declaration")
    declared = set(decls)
    flips, stars = {}, set()
    for e in bern.walk_exprs(body):
        if isinstance(e, bern.BVar) and e.name not in declared:
            raise ValueError(f"undeclared variable {e.name!r}")
        if isinstance(e, bern.Flip):
            if e.site in flips:
                raise ValueError(f"duplicate flip site id {e.site}")
            flips[e.site] = e.theta
        if isinstance(e, bern.Star):
            if e.occurrence in stars:
                raise ValueError(f"duplicate star occurrence id {e.occurrence}")
            stars.add(e.occurrence)
    for s in bern.walk_stmts(body):
        if isinstance(s, bern.PAssign):
            for t in s.targets:
                if t not in declared:
                    raise ValueError(f"undeclared variable {t!r}")
    if flips and stars:
        raise ModeError("flip and * cannot appear in one program")
    if mode == "prob" and stars:
        raise ModeError("* is not allowed in probabilistic mode")
    if mode == "nondet" and flips:
        raise ModeError("flip is not allowed in non-deterministic mode")


def _rewrite(body, on_node, on_targets):
    """`body` with every expression mapped through `on_node` and every
    target tuple through `on_targets`, in walk order, building no program."""
    out = []
    for stmt in body:
        if isinstance(stmt, bern.PAssign):
            exprs = tuple(bern.map_expr(e, on_node) for e in stmt.exprs)
            stmt = bern.PAssign(on_targets(stmt.targets), exprs)
        elif isinstance(stmt, bern.BIf):
            cond = bern.map_expr(stmt.cond, on_node)
            stmt = bern.BIf(cond, _rewrite(stmt.then, on_node, on_targets), _rewrite(stmt.els, on_node, on_targets))
        else:
            stmt = type(stmt)(bern.map_expr(stmt.cond, on_node))
        out.append(stmt)
    return tuple(out)


def _break_at(rng, body, kind, make):
    """`body` with one node of type `kind`, picked at random, replaced by
    ``make(node)``; `body` itself if it holds no such node."""
    count = sum(isinstance(e, kind) for e in bern.walk_exprs(body))
    if not count:
        return body
    pick, seen = rng.randrange(count), itertools.count()
    return _rewrite(
        body, lambda e: make(e) if isinstance(e, kind) and next(seen) == pick else e, lambda t: t
    )


def _faults(rng, decls, body, mode):
    """One to three of the ways a program can be malformed, each applied to
    a random place: a read or target undeclared, a flip or star id used
    twice, flips and stars mixed or against the mode, a declaration given
    twice, `if` blocks nested one level too deep."""
    faults = rng.sample(range(9), rng.randint(1, 3))
    sites = [e.site for e in bern.walk_exprs(body) if isinstance(e, bern.Flip)]
    if 0 in faults:
        body = _break_at(rng, body, bern.BVar, lambda e: bern.BVar("zz"))
    targets = [t for s in bern.walk_stmts(body) if isinstance(s, bern.PAssign) for t in s.targets]
    if 1 in faults and targets:
        lost = rng.choice(targets)
        body = _rewrite(body, lambda e: e, lambda t: tuple("zt" if n == lost else n for n in t))
    if 2 in faults and sites:
        body = _break_at(rng, body, bern.Flip, lambda e: bern.Flip(rng.choice(sites), e.theta))
    if 3 in faults:  # every flip a star, in either mode, and perhaps one star id twice
        body = _rewrite(body, lambda e: bern.Star(e.site) if isinstance(e, bern.Flip) else e, lambda t: t)
        mode = rng.choice(("nondet", "prob"))
        if sites and rng.random() < 0.5:
            body = _break_at(rng, body, bern.Star, lambda e: bern.Star(rng.choice(sites)))
    if 4 in faults:
        body = _break_at(rng, body, bern.Flip, lambda e: bern.Star(100 + e.site))
    if 5 in faults:
        body = _break_at(rng, body, bern.Star, lambda e: bern.Flip(200 + e.occurrence, Fraction(1, 2)))
    if 6 in faults:
        mode = rng.choice((None, "prob", "nondet"))
    if 7 in faults:
        decls = decls + (rng.choice(decls),)
    if 8 in faults:
        for _ in range(bern.MAX_NESTING + 1):
            body = (bern.BIf(bern.BVar(decls[0]), body, ()),)
    return decls, body, mode


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


def test_program_validation_raises_what_the_three_walks_raised():
    """On random programs with faults, alone and together, the one-walk
    validation raises the reference's error type and message, nesting
    first."""
    rng = random.Random(53)
    seen = set()
    for trial in range(300):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        prog = randgen.rand_bern_program(rng, names, max_flips=5, max_stmts=8)
        decls, body, mode = prog.decls, prog.body, prog.mode
        if trial % 10:
            decls, body, mode = _faults(rng, decls, body, mode)
        want = _outcome(_reference_validation, decls, body, mode)
        assert _outcome(bern.BernProgram, decls, body, mode) == want
        seen.add(want and (want[0], re.sub("[0-9]+", "", want[1])))
    assert len(seen) == 10  # no fault, and each of the nine faults


def test_interp_exact_flip_cap():
    # the cap is checked before any enumeration, so one site past it is cheap
    body = "\n".join("a = flip(1/2)" for _ in range(bern.DEFAULT_FLIP_CAP + 1))
    prog = parsing.parse_bern("bool a\n" + body)
    with pytest.raises(EnumerationCapError, match="25 flip sites exceed cap 24"):
        bern.interp_exact(prog, point(prog))


def test_interp_nondet_examples():
    prog = parsing.parse_bern(corpus.BRANCH_RESET_BERN)
    init = {(True, True), (False, True), (False, False)}  # feasible states
    finals = bern.interp_nondet(prog, init)
    assert all(not s[0] for s in finals)  # {x<-4} always ends false
    assert any(not s[1] for s in finals)  # {x<3} can end false

    empty = parsing.parse_bern("bool a\n")
    states = {(True,), (False,)}
    assert bern.interp_nondet(empty, states) == states

    star = parsing.parse_bern("bool b\nb = *")
    assert bern.interp_nondet(star, {(False,)}) == {(False,), (True,)}


def test_interp_nondet_rejects_flip():
    prog = parsing.parse_bern("bool a\na = flip(1/2)")
    with pytest.raises(ModeError):
        bern.interp_nondet(prog, {(False,)})


def test_parallel_assignment_swaps():
    prog = parsing.parse_bern("bool a\nbool b\na, b = b, a")
    out = bern.interp_exact(prog, point(prog, a=True, b=False))
    assert out.mass_of({"a": False, "b": True}) == 1


def test_degenerate_thetas_are_deterministic():
    prog = parsing.parse_bern("bool a\nbool b\na = flip(1)\nb = flip(0)")
    out = bern.interp_exact(prog, point(prog))
    assert len(out) == 1
    assert out.mass_of({"a": True, "b": False}) == 1


def test_support_lowering_matches_nondet():
    rng = random.Random(17)
    for _ in range(30):
        names = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        prog = randgen.rand_bern_program(rng, names, max_flips=4, max_stmts=5)
        lowered = theorems.lower(prog)
        for _ in range(2):
            bits = tuple(rng.random() < 0.5 for _ in names)
            exact = bern.interp_exact(
                prog, bern.AbstractDistribution.point(names, dict(zip(names, bits)))
            )
            support = exact.support()
            reach = bern.interp_nondet(lowered, {bits})
            assert support == reach


def test_mass_conservation_without_filters():
    rng = random.Random(19)
    for _ in range(20):
        prog = randgen.rand_bern_program(rng, ("v0", "v1"), max_flips=4, observes=False)
        out = bern.interp_exact(prog, bern.AbstractDistribution.uniform(prog.decls))
        assert out.survival == 1


def test_round_trip_corpus():
    chains = [f"bool a\nbool b\na = {rhs}\n" for rhs in FLAT_CHAINS.values()]
    for text in (corpus.CHAIN_DRAWS_BERN, corpus.BAYES_NET_BERN, corpus.BRANCH_RESET_BERN, *chains):
        prog = parsing.parse_bern(text)
        assert parsing.parse_bern(bern.to_text(prog)) == prog


@pytest.mark.parametrize("op", FLAT_CHAINS)
def test_infer_flat_chain(tmp_path, capsys, op):
    """A flat chain parses into a deep tree; every walk over it is iterative."""
    outputs = []
    for rhs in (FLAT_CHAINS[op], "b"):
        path = tmp_path / "chain.bern"
        path.write_text(f"bool a\nbool b\na = {rhs}\n")
        for event in ("a", "a <=> b"):
            assert cli.main(["infer", str(path), "--event", event]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


CONNECTIVES = {
    bern.BNot: lambda a, b: not a,
    bern.BAnd: lambda a, b: a and b,
    bern.BOr: lambda a, b: a or b,
    bern.BImp: lambda a, b: (not a) or b,
    bern.BIff: lambda a, b: a == b,
}


@pytest.mark.parametrize("cls", CONNECTIVES, ids=lambda c: c.__name__)
def test_connective_truth_tables(cls):
    """eval_expr, eval_expr_set and expr_to_bdd against Python's own operators,
    for each connective alone and as the left and right child of =>."""
    a, b = bern.BVar("a"), bern.BVar("b")
    here = cls(a) if cls is bern.BNot else cls(a, b)
    u = bddm.make_universe([("a", None), ("b", None)])
    for va, vb in itertools.product((False, True), repeat=2):
        want = CONNECTIVES[cls](va, vb)
        cases = [
            (here, want),
            (bern.BImp(here, bern.BFalse()), not want),
            (bern.BImp(bern.BTrue(), here), want),
        ]
        state = {"a": va, "b": vb}
        for e, value in cases:
            assert bern.eval_expr(e, state, {}) == value
            assert bern.eval_expr_set(e, state) == {value}
            bdd = engine.expr_to_bdd(u, e, u.var)
            for name, bit in state.items():
                bdd = bdd.restrict(u.var(name), bit)
            assert bdd.is_true if value else bdd.is_false


def test_round_trip_random():
    rng = random.Random(23)
    for _ in range(30):
        prog = randgen.rand_bern_program(rng, ("v0", "v1", "v2"))
        assert parsing.parse_bern(bern.to_text(prog)) == prog


def test_event_reads_back():
    rng = random.Random(37)
    names = ("v0", "v1", "x<3")
    events = 0
    for _ in range(60):
        prog = randgen.rand_bern_program(rng, names, max_flips=0)
        for stmt in bern.walk_stmts(prog.body):
            for e in stmt.exprs if isinstance(stmt, bern.PAssign) else (stmt.cond,):
                assert parsing.parse_event(bern.expr_text(e), names) == e
                events += 1
    assert events > 300


def test_every_printed_name_parses_back():
    """Names over every printable ASCII character and a few others, such
    as the builder's snapshot names ``x<-4@pre``: each one name_text
    prints reads back as itself, and the rest are refused."""
    rng = random.Random(5)
    alphabet = [chr(c) for c in range(32, 127)] + ["\t", "\u00e9", "\u2264"]
    names = ["x<-4@pre", "p@0", "a$b", "if", "T", "x < 3", "a#b", "{a}", " a", "a\n", ""]
    names += ["".join(rng.choices(alphabet, k=rng.randint(1, 6))) for _ in range(400)]
    printed = 0
    for name in names:
        try:
            text = bern.name_text(name)
        except ValueError:
            assert not name or any(c in name for c in "{}#\n") or name != name.strip()
            continue
        printed += 1
        program = parsing.parse_bern(f"bool {text}\n{text} = !{text}\n")
        assert program.decls == (name,)
        assert parsing.parse_event(text, (name,)) == bern.BVar(name)
    assert printed > 250


@pytest.mark.parametrize("char", ["@", "$", "?", "'", "\u00e9"])
def test_a_stray_character_outside_braces_fails_where_it_stands(char):
    with pytest.raises(ParseError) as exc:
        parsing.parse_bern(f"bool {{a{char}}}\n\n  a{char} = T\n")
    assert (exc.value.line, exc.value.column) == (3, 4)
    assert f"unexpected character {char!r}" in str(exc.value)
    with pytest.raises(ParseError, match=re.escape(f"unexpected character {char!r}")):
        parsing.parse_concrete(f"var x in [0, 4)\nx = x {char} 1\n")


def _and_chain(links, last="a"):
    chain = bern.BVar("a")
    for i in range(links):
        chain = bern.BAnd(chain, bern.BVar(last if i == links - 1 else "a"))
    return chain


def test_equality_sees_flip_parameters_below_a_connective():
    """Trees that differ only in a flip's parameter are unequal, hash apart
    and print differently."""
    a = bern.BVar("a")
    half, third = (bern.BAnd(a, bern.Flip(0, Fraction(1, n))) for n in (2, 3))
    assert half != third and hash(half) != hash(third) and repr(half) != repr(third)
    assert half == bern.BAnd(a, bern.Flip(0, Fraction(1, 2)))
    assert bern.BAnd(a, bern.Flip(0, "theta0")) != bern.BAnd(a, bern.Flip(0, "theta1"))


def test_long_chain_reprs_and_compares_without_recursion():
    small = bern.BAnd(bern.BVar("a"), bern.BNot(bern.Choose(bern.Flip(0, Fraction(1, 2)), bern.BTrue())))
    assert repr(small) == (
        "BAnd(left=BVar(name='a'), right=BNot(operand=Choose("
        "when_true=Flip(site=0, theta=Fraction(1, 2)), when_false=BTrue())))"
    )
    chain, twin = _and_chain(5000), _and_chain(5000)
    want = "BVar(name='a')"
    for _ in range(5000):
        want = f"BAnd(left={want}, right=BVar(name='a'))"
    assert repr(chain) == want
    assert chain == twin and hash(chain) == hash(twin)
    assert chain != _and_chain(5000, last="b")
    assert chain != _and_chain(4999)
    assert bern.BAnd(chain, chain) != bern.BOr(chain, chain)
