"""Expected answers, computed without the symbolic engine.

Three oracles, as the workloads need them:

* ``bern.interp_exact`` on the BERN program the user would query, from the
  uniform distribution over the init states (what ``interp_exact`` itself
  assumes without a distribution);
* ``concrete.eval_dist`` with ``query_prob`` for the chain members, whose
  decomposed answer is exact;
* ``forward_marginals`` below, a forward state-distribution interpreter for
  programs with too many flips for ``interp_exact``'s enumeration.

``relational_marginals`` is not an oracle: it models the engine's known
normalisation defect (see its docstring), so that a run can tell that
defect from any other wrong answer.

An answer is an exact ``Fraction`` or ``IMPOSSIBLE`` when no execution
survives the observes (the engine then raises ``ConditionOnImpossibleError``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bernabs import bern
from bernabs import concrete as cc

IMPOSSIBLE = "impossible"

# interp_exact enumerates init states x flip assignments; above this many
# runs the forward interpreter answers instead.
INTERP_EXACT_RUNS = 1 << 14


def answer_text(answer) -> str:
    return answer if answer == IMPOSSIBLE else f"{answer.numerator}/{answer.denominator}"


def _source(e, var_index, flip_pos):
    """Python source of a flip-resolved BERN expression over state bits `s`."""
    if isinstance(e, bern.BTrue):
        return "True"
    if isinstance(e, bern.BFalse):
        return "False"
    if isinstance(e, bern.BVar):
        return f"(s >> {var_index[e.name]} & 1 == 1)"
    if isinstance(e, bern.Flip):
        return f"f[{flip_pos[e.site]}]"
    if isinstance(e, bern.BNot):
        return f"(not {_source(e.operand, var_index, flip_pos)})"
    a = _source(e.left, var_index, flip_pos)
    b = _source(e.right, var_index, flip_pos)
    if isinstance(e, bern.BAnd):
        return f"({a} and {b})"
    if isinstance(e, bern.BOr):
        return f"({a} or {b})"
    if isinstance(e, bern.BImp):
        return f"((not {a}) or {b})"
    if isinstance(e, bern.BIff):
        return f"({a} == {b})"
    raise TypeError(f"unsupported BERN expression {e!r}")


def _flips(e):
    if isinstance(e, bern.Flip):
        return [e]
    if isinstance(e, bern.BNot):
        return _flips(e.operand)
    if isinstance(e, (bern.BAnd, bern.BOr, bern.BImp, bern.BIff)):
        return _flips(e.left) + _flips(e.right)
    return []


class _Step:
    """One statement's flip outcomes as integer weights over a common denominator.

    With a `var_index`, `fns` also holds each expression compiled over a
    state `s` and flip outcomes `f`.
    """

    def __init__(self, exprs, var_index=None):
        flips = [f for e in exprs for f in _flips(e)]
        self.pos = {f.site: i for i, f in enumerate(flips)}
        if var_index is not None:
            self.fns = [eval(f"lambda s, f: {_source(e, var_index, self.pos)}") for e in exprs]
        self.denominator = 1
        for f in flips:
            self.denominator *= Fraction(f.theta).denominator
        self.outcomes = []
        for bits in itertools.product((False, True), repeat=len(flips)):
            w = 1
            for f, bit in zip(flips, bits):
                t = Fraction(f.theta)
                w *= t.numerator if bit else t.denominator - t.numerator
            if w:
                self.outcomes.append((bits, w))


def _run(body, dist, var_index):
    """(output weights, factor): weights are scaled by `factor` relative to `dist`."""
    factor = 1
    for stmt in body:
        if isinstance(stmt, bern.PAssign):
            step = _Step(stmt.exprs, var_index)
            clear = ~sum(1 << var_index[t] for t in stmt.targets)
            bits = [1 << var_index[t] for t in stmt.targets]
            out = {}
            for s, w in dist.items():
                base = s & clear
                for f, wf in step.outcomes:
                    ns = base
                    for fn, bit in zip(step.fns, bits):
                        if fn(s, f):
                            ns |= bit
                    out[ns] = out.get(ns, 0) + w * wf
            dist, factor = out, factor * step.denominator
        elif isinstance(stmt, (bern.BObserve, bern.BAssume)):
            step = _Step((stmt.cond,), var_index)
            (fn,) = step.fns
            out = {}
            for s, w in dist.items():
                kept = sum(wf for f, wf in step.outcomes if fn(s, f))
                if kept:
                    out[s] = w * kept
            dist, factor = out, factor * step.denominator
        elif isinstance(stmt, bern.BIf):
            step = _Step((stmt.cond,), var_index)
            (fn,) = step.fns
            then_in, else_in = {}, {}
            for s, w in dist.items():
                for f, wf in step.outcomes:
                    side = then_in if fn(s, f) else else_in
                    side[s] = side.get(s, 0) + w * wf
            then_out, ft = _run(stmt.then, then_in, var_index)
            else_out, fe = _run(stmt.els, else_in, var_index)
            out = {s: w * fe for s, w in then_out.items()}
            for s, w in else_out.items():
                out[s] = out.get(s, 0) + w * ft
            dist, factor = out, factor * step.denominator * ft * fe
        else:
            raise TypeError(f"not a statement: {stmt!r}")
    return dist, factor


def forward_marginals(program: bern.BernProgram, init_states, names):
    """Marginal of each variable in `names` at the end of a flip-resolved program.

    `init_states` lists the start states as dicts; each gets the same
    weight.  Every flip site occurs once in a program and is sampled at
    most once per execution, so pushing the state distribution through one
    statement at a time, with that statement's flips enumerated, is exact.
    """
    var_index = {n: i for i, n in enumerate(program.decls)}
    dist = {}
    for st in init_states:
        key = sum(1 << var_index[n] for n in program.decls if st[n])
        dist[key] = dist.get(key, 0) + 1
    out, _ = _run(program.body, dist, var_index)
    total = sum(out.values())
    if total == 0:
        return [IMPOSSIBLE] * len(names)
    answers = []
    for n in names:
        bit = 1 << var_index[n]
        answers.append(Fraction(sum(w for s, w in out.items() if s & bit), total))
    return answers


def _var_mask(i, n):
    """States (bit s of an int over 2^n states) where variable bit i is set."""
    size, width = 1 << n, 1 << (i + 1)
    mask = ((1 << (1 << i)) - 1) << (1 << i)
    while width < size:
        mask |= mask << width
        width *= 2
    return mask


class _SetModel:
    """Δ read as a relation: for each flip assignment, the set of states reached.

    A set of states is an int with bit s set for state s.  Sets reached by
    different flip prefixes are merged with their weights added, since what
    happens next depends only on the set and on flips not yet sampled.
    """

    def __init__(self, program):
        n = len(program.decls)
        self.index = {name: i for i, name in enumerate(program.decls)}
        self.full = (1 << (1 << n)) - 1
        self.var = {name: _var_mask(i, n) for name, i in self.index.items()}

    def states(self, e, f, pos):
        """The set of states where `e` holds, given flip outcomes `f`."""
        if isinstance(e, bern.BTrue):
            return self.full
        if isinstance(e, bern.BFalse):
            return 0
        if isinstance(e, bern.BVar):
            return self.var[e.name]
        if isinstance(e, bern.Flip):
            return self.full if f[pos[e.site]] else 0
        if isinstance(e, bern.BNot):
            return self.full & ~self.states(e.operand, f, pos)
        a, b = self.states(e.left, f, pos), self.states(e.right, f, pos)
        if isinstance(e, bern.BAnd):
            return a & b
        if isinstance(e, bern.BOr):
            return a | b
        if isinstance(e, bern.BImp):
            return (self.full & ~a) | b
        if isinstance(e, bern.BIff):
            return self.full & ~(a ^ b)
        raise TypeError(f"unsupported BERN expression {e!r}")

    def assign(self, states, name, value):
        """Image of `states` under setting variable `name` to `value`."""
        v, shift = self.var[name], 1 << self.index[name]
        if value:
            return (states & v) | ((states & ~v) << shift)
        return (states & ~v) | ((states & v) >> shift)

    def run(self, body, dist):
        """Output {set: weight}.  Every weight is scaled by the same factor."""
        for stmt in body:
            exprs = stmt.exprs if isinstance(stmt, bern.PAssign) else (stmt.cond,)
            step = _Step(exprs)
            out, branches = {}, {}
            for states, w in dist.items():
                for f, wf in step.outcomes:
                    for image, wi in self._image(stmt, states, f, step.pos, branches):
                        out[image] = out.get(image, 0) + w * wf * wi
            dist = out
        return dist

    def _image(self, stmt, states, f, pos, branches):
        """[(set, weight)] after `stmt` from `states`, given flip outcomes `f`."""
        if isinstance(stmt, bern.PAssign):
            values = [self.states(e, f, pos) for e in stmt.exprs]
            image = 0
            for combo in itertools.product((False, True), repeat=len(values)):
                part = states
                for v, bit in zip(values, combo):
                    part &= v if bit else ~v
                for name, bit in zip(stmt.targets, combo):
                    part = self.assign(part, name, bit)
                image |= part
            return [(image, 1)]
        cond = self.states(stmt.cond, f, pos)
        if not isinstance(stmt, bern.BIf):
            return [(states & cond, 1)]
        # both branches see the same flip assignment: pair their outputs up
        key = states & cond, states & ~cond
        if key not in branches:
            then_out = self.run(stmt.then, {key[0]: 1})
            else_out = self.run(stmt.els, {key[1]: 1})
            branches[key] = [(a | b, wa * wb) for a, wa in then_out.items() for b, wb in else_out.items()]
        return branches[key]


def relational_marginals(program: bern.BernProgram, init_states, names):
    """The engine's marginals, as its known normalisation defect computes them.

    The engine keeps Δ as a relation between flip assignments and states.
    Its ``query`` weighs the states Δ holds for a flip assignment with 1
    each and divides by the flip-projected mass, so from a start set of k
    states an answer can reach k.  It is right only where each flip
    assignment leaves one state, as from a point init.  Modelled here on
    sets of states, without the engine.
    """
    model = _SetModel(program)
    start = 0
    for st in init_states:
        start |= 1 << sum(1 << model.index[n] for n in program.decls if st[n])
    out = model.run(program.body, {start: 1})
    total = sum(w for states, w in out.items() if states)
    if total == 0:
        return [IMPOSSIBLE] * len(names)
    return [
        Fraction(sum(w * (states & model.var[n]).bit_count() for states, w in out.items()), total)
        for n in names
    ]


def states_satisfying(program: bern.BernProgram, init):
    """All total states over the program's variables where `init` holds."""
    out = []
    for bits in itertools.product((False, True), repeat=len(program.decls)):
        st = dict(zip(program.decls, bits))
        if init is None or bern.eval_expr(init, st, {}):
            out.append(st)
    return out


def exact_marginals(program: bern.BernProgram, init, names):
    """Marginals from the uniform distribution over the states satisfying `init`.

    `init` is a flip-free BERN expression, a state dict (point init) or None
    (every state).  Uses ``bern.interp_exact`` when its enumeration is
    small, else ``forward_marginals``.
    """
    starts = [init] if isinstance(init, dict) else states_satisfying(program, init)
    if len(starts) << len(program.flip_sites()) > INTERP_EXACT_RUNS:
        return forward_marginals(program, starts, names)
    w = Fraction(1, len(starts))
    dist = bern.AbstractDistribution(
        program.decls, {tuple(st[n] for n in program.decls): w for st in starts}
    )
    out = bern.interp_exact(program, dist)
    total = out.survival
    if total == 0:
        return [IMPOSSIBLE] * len(names)
    return [out.prob(lambda st, n=n: st[n]) / total for n in names]


def chain_marginals(program: cc.ConcreteProgram, pairs):
    """Concrete answer for a chain member: eval_dist from the all-minimum state."""
    dist = cc.eval_dist(program)
    return [cc.query_prob(dist, cond) for _, cond in pairs]
