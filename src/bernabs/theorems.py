"""Executable soundness, lowering, invariance, and parameter fitting.

The checks here connect the three semantics: concrete execution, the
non-deterministic Boolean program, and the probabilistic one.  Soundness
checks sweep the whole bounded concrete domain; invariance checks verify
that abstract-event probabilities do not depend on the concretization
distribution.  Every check reads the abstract semantics from one object,
the transition kernel Pr_A(a' | a) of the abstract program
(`abstract_kernel`), which one symbolic engine run yields for every
feasible a at once: the run holds each predicate's end value as a
function of the inputs and the flips, and row a is one walk over those
functions with the inputs fixed to a, which counts every output a' of
the row.  A
non-deterministic program runs with each * a flip(1/2), so its reach set
from a is the support of row a.  The engine has no flip cap, so neither
has a check; its one bound is on the levels of a universe
(`engine.MAX_LEVELS`).  A predicate domain keeps what the checks derive
from it (`_derived`): the kernel of each abstract program and the image
alpha(C(z)) of each concrete program over the whole bounded domain, each
made on first use and dropped with the domain, so the soundness and
invariance checks of one problem make one engine run per program and one
concrete sweep.  Lowering turns flips into unconstrained choices (supports
only); it, the flip-enumerating `bern.interp_exact` and `bern.interp_nondet`
are the references the tests hold the kernel to, and no check calls them.
Parameter fitting makes one measurement for every flip, whatever its
role: theta = P(event | free, context) on the fragment of the concrete
program that leads to the flip, where the builder recorded `free`, where
the flip decides, and `event`, what its True stands for.  This is the step
that reproduces hand-computed abstraction parameters exactly.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass, field, replace
from fractions import Fraction

from bernabs import bdd as bddm
from bernabs import bern
from bernabs import builder as bld
from bernabs import concrete as cc
from bernabs import engine
from bernabs.domain import PredicateList
from bernabs.errors import ModeError
from bernabs.kernel import FALSE, TRUE


# --- lowering -----------------------------------------------------------------


def lower(program: bern.BernProgram) -> bern.BernProgram:
    """Non-deterministic shadow of a probabilistic program.

    flip(theta) with 0 < theta < 1 becomes *; the degenerate parameters 1
    and 0 become the constants T and F; observe becomes assume.
    """
    program = bern.desugar_program(program, program.mode or "prob")
    counter = itertools.count()

    def on_node(e):
        if not isinstance(e, bern.Flip):
            return e
        if isinstance(e.theta, str):
            raise ModeError(f"flip site {e.site} has unresolved parameter {e.theta!r}")
        if e.theta == 1:
            return bern.BTrue()
        if e.theta == 0:
            return bern.BFalse()
        return bern.Star(next(counter))

    def on_stmt(stmt):
        if isinstance(stmt, bern.BObserve):
            return (bern.BAssume(stmt.cond, stmt.loc),)
        return (stmt,)

    return bern.map_program(program, on_node, on_stmt, mode="nondet")


# --- reports -------------------------------------------------------------------


@dataclass
class CheckReport:
    check: str
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.counterexamples

    @property
    def status(self):
        return "pass" if self.ok else "fail"

    def to_json(self):
        return {
            "check": self.check,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "stats": self.stats,
        }


def _aux_padded(decls, pred_labels, bits):
    """Total state over all declared variables; auxiliaries start False."""
    by_label = dict(zip(pred_labels, bits))
    return tuple(bool(by_label.get(name, False)) for name in decls)


def _nondet_reach(aprog, preds, a_in):
    """The predicate bits of every end state the non-deterministic
    program reaches from a_in, by `bern.interp_nondet`: the reference the
    tests hold the kernel's row supports to."""
    start = _aux_padded(aprog.decls, preds.labels, a_in)
    idx = [aprog.decls.index(lbl) for lbl in preds.labels]
    return {tuple(s[i] for i in idx) for s in bern.interp_nondet(aprog, {start})}


def _state_json(names, key):
    """The state `key` as a dict sorted by name: the one place a state becomes a dict."""
    return dict(sorted(zip(names, key)))


def _classed_inputs(preds: PredicateList, inputs):
    """(state, α(state)) for each state a check sweeps, the state a value
    tuple: every joint state, with α read off the α-image, or `inputs`,
    the caller's dicts from name to value, each converted once."""
    if inputs is None:
        return zip(preds.ctx.states(), preds._alpha_image()[0])
    names = preds.ctx.names
    keys = (tuple([z[n] for n in names]) for z in inputs)
    return ((key, preds.alpha(key)) for key in keys)


def _same_order(cprog, preds: PredicateList):
    if cprog.var_names != preds.ctx.names:
        raise ValueError("the predicates' context must declare the program's variables in order")


def _bits_json(pred_labels, bits):
    return {lbl: bool(b) for lbl, b in zip(pred_labels, bits)}


# --- what a domain keeps ----------------------------------------------------------

# PredicateList -> {("kernel", aprog): kernel rows, ("outputs", cprog): the
# image alpha(C(z))}.  Weak in the domain, so each entry lives exactly as long
# as its PredicateList, and a fresh domain starts empty.
_DERIVED = weakref.WeakKeyDictionary()


def _derived(preds: PredicateList, key, make):
    """What `make()` gives for `key` on the domain `preds`, made by the first
    call that returns and kept while `preds` lives; a call that raises keeps
    nothing.  Programs in `key` are keyed by value: they are frozen, and
    equal programs have equal kernels and outputs."""
    memo = _DERIVED.get(preds)
    if memo is not None and key in memo:
        return memo[key]
    value = make()
    _DERIVED.setdefault(preds, {})[key] = value
    return value


# --- soundness -----------------------------------------------------------------


def _alpha_outputs(cprog, preds: PredicateList, keys) -> list:
    """alpha(C(z)), or BLOCKED where the run blocks on an observe, for each
    state z of `keys`; each alpha is the feasible map's shared tuple where
    it has one, so a kept image costs one reference per state."""
    _, shared = preds._alpha_image()
    outputs = []
    for z in keys:
        out = cc.eval_det(cprog, z)
        if out is not cc.BLOCKED:
            a_out = preds.alpha(out)
            out = shared.get(a_out, a_out)
        outputs.append(out)
    return outputs


def _sound_sweep(name, cprog, preds: PredicateList, inputs, kernel) -> CheckReport:
    """The sweep both soundness checks share: alpha(C(z)) must be in the
    support of row alpha(z) of `kernel` (see `abstract_kernel`), the
    abstract outputs reachable from alpha(z).

    `inputs` restricts the sweep (dicts, see `_classed_inputs`); default is
    the whole bounded domain.  Inputs whose concrete run blocks on an observe impose no
    requirement and are counted separately.  The full sweep reads
    alpha(C(z)) from the image the domain keeps for `cprog` (`_derived`),
    a list in ``ctx.states()`` order made by the first full sweep, so the
    second soundness check of a problem runs no program; a restricted sweep
    runs its inputs and keeps nothing.
    """
    if not cprog.is_deterministic():
        raise ValueError("soundness sweeps need a draw-free concrete program")
    _same_order(cprog, preds)
    classed = _classed_inputs(preds, inputs)
    if inputs is None:
        outputs = _derived(
            preds, ("outputs", cprog), lambda: _alpha_outputs(cprog, preds, preds.ctx.states())
        )
    else:
        classed = list(classed)
        outputs = _alpha_outputs(cprog, preds, (z for z, _ in classed))
    report = CheckReport(name)
    met = set()
    checked = blocked = 0
    for (z, a_in), a_out in zip(classed, outputs):
        if a_out is cc.BLOCKED:
            blocked += 1
            continue
        checked += 1
        met.add(a_in)
        row = kernel[a_in]
        if a_out not in row:
            report.counterexamples.append(
                {
                    "z": _state_json(preds.ctx.names, z),
                    "expected": _bits_json(preds.labels, a_out),
                    "got": sorted(
                        str(_bits_json(preds.labels, b)) for b in row
                    ),
                }
            )
    report.stats = {"checked": checked, "blocked": blocked, "abstract_inputs": len(met)}
    return report


def check_sound_nondet(
    cprog: cc.ConcreteProgram,
    aprog: bern.BernProgram,
    preds: PredicateList,
    inputs=None,
) -> CheckReport:
    """Def-style sweep: alpha(C(z)) must be reachable from {alpha(z)} in
    the non-deterministic program (see `_sound_sweep`).

    The reach set from a is the support of row a of the kernel of the
    program with every * a flip(1/2) (`_star_flips`): every resolution of
    the stars has positive weight there, so positive mass and reachable
    are the same.  `bern.interp_nondet` is the tests' reference.
    """
    return _sound_sweep(
        "sound-nondet", cprog, preds, inputs, abstract_kernel(_star_flips(aprog), preds)
    )


def check_sound_prob(
    cprog: cc.ConcreteProgram,
    aprog: bern.BernProgram,
    preds: PredicateList,
    inputs=None,
) -> CheckReport:
    """Probabilistic soundness by its definition: Pr_A(alpha(C(z)) |
    alpha(z)) > 0 for every input z (see `_sound_sweep`).

    Pr_A comes from the symbolic engine through `abstract_kernel`, so the
    check has no flip cap.  The tests hold its verdicts to two
    references: the lowering theorem (`check_sound_nondet` on
    `lower(aprog)`) and the flip-enumerating `bern.interp_exact`.
    """
    return _sound_sweep("sound-prob", cprog, preds, inputs, abstract_kernel(aprog, preds))


# --- the transition kernel -------------------------------------------------------

def _star_flips(aprog: bern.BernProgram) -> bern.BernProgram:
    """The non-deterministic program with its chooses desugared to * and
    every * a flip(1/2): the probabilistic program whose kernel rows have
    the reach sets as supports."""
    program = bern.desugar_program(aprog, "nondet")

    def on_node(e):
        return bern.Flip(e.occurrence, Fraction(1, 2)) if isinstance(e, bern.Star) else e

    return bern.map_program(program, on_node, mode="prob")


def abstract_kernel(aprog: bern.BernProgram, preds: PredicateList) -> dict:
    """The transition kernel Pr_A(a' | a) of `aprog`: {a: {a': mass}} over
    the feasible abstract states, keyed by bits tuples in the predicates'
    order, with the a' of zero mass left out.  Masses are unnormalized:
    observe losses shrink a row's total.

    One symbolic run of `aprog` from the start with every auxiliary (the
    ``@pre`` snapshots) False gives, at the end, accept and each
    predicate's function f_p over the inputs and the flips.  Row a is the
    weighted count over the flips of each joint value of (f_p1 .. f_pk)
    where accept holds, with the inputs fixed to a and the auxiliaries to
    False: one ``bdd.joint_wmc`` walk gives every cell of the row.

    The domain keeps the rows of each program it has seen (`_derived`), so
    the run is made once per program and domain; each call returns a fresh
    copy, which the caller may change.
    """
    rows = _derived(preds, ("kernel", aprog), lambda: _kernel_rows(aprog, preds))
    return {a: dict(row) for a, row in rows.items()}


def _kernel_rows(aprog: bern.BernProgram, preds: PredicateList) -> dict:
    """The rows `abstract_kernel` returns, from one engine run."""
    missing = [lbl for lbl in preds.labels if lbl not in aprog.decls]
    if missing:
        missing = ", ".join(missing)
        raise ValueError(f"the abstract program does not declare these predicates: {missing}")
    aux = [name for name in aprog.decls if name not in preds.labels]
    init = bern.BTrue()
    for name in aux:
        init = bern.BAnd(init, bern.BNot(bern.BVar(name)))
    run = engine.run_symbolic(aprog, init=init)
    ctx, end = run.ctx, run.at("end")
    f = end.f
    outputs = [f[lbl] for lbl in preds.labels]
    weights = bddm.Weights(ctx.universe, {v: v.weights() for v in ctx.flip_vars.values()})
    starts = {ctx.input_vars[name]: False for name in aux}
    feasible = [m.bits for m in preds.feasible_minterms()]
    kernel = {}
    for a in feasible:
        starts.update((ctx.input_vars[lbl], bit) for lbl, bit in zip(preds.labels, a))
        row = bddm.joint_wmc(end.accept, outputs, weights, starts)
        kernel[a] = {a_out: row[a_out] for a_out in feasible if a_out in row}
    return kernel


# --- concretization distributions ------------------------------------------------


class ConcretizationDistribution:
    """Per-abstract-state distribution over that state's concrete cell,
    held as integer weights over one scale: row `bits` gives state k the
    mass ``rows[bits][k] / scale``, and each row sums to `scale`.  Readers
    of `row` get each mass as a Fraction, made when read."""

    def __init__(self, name, rows, var_names, scale):
        self.name = name
        self.rows = rows  # bits -> {state key tuple -> int}
        self.var_names = tuple(var_names)
        self.scale = scale

    @classmethod
    def _build(cls, name, preds: PredicateList, weigher):
        """`weigher(n)` gives a cell of n states its integer weights, one
        per state; the scale is the lcm of the rows' totals."""
        cells = preds.cell_map()
        weights = {bits: weigher(len(keys)) for bits, keys in cells.items()}
        scale = math.lcm(*(sum(w) for w in weights.values()))
        rows = {}
        for bits, keys in cells.items():
            factor = scale // sum(weights[bits])
            rows[bits] = {k: w * factor for k, w in zip(keys, weights[bits]) if w > 0}
        return cls(name, rows, preds.ctx.names, scale)

    @classmethod
    def uniform(cls, preds):
        return cls._build("uniform", preds, lambda n: [1] * n)

    @classmethod
    def rank_weighted(cls, preds):
        return cls._build("rank-weighted", preds, lambda n: list(range(1, n + 1)))

    @classmethod
    def point_mass_min(cls, preds):
        return cls._build("point-mass-min", preds, lambda n: [1] + [0] * (n - 1))

    def row(self, bits):
        return {k: Fraction(w, self.scale) for k, w in self.rows.get(tuple(bits), {}).items()}

    def validate_strong(self, preds: PredicateList):
        """Row-normalized and confined to the matching cell (the two
        properties the invariance theorem actually uses), in integers:
        each row sums to the scale, and the cells are the predicates'
        shared cell map."""
        cells = preds.cell_map()
        for bits, row in self.rows.items():
            total = sum(row.values())
            if total != self.scale:
                raise ValueError(
                    f"{self.name}: row {bits} sums to {Fraction(total, self.scale)}, not 1"
                )
            cell = cells.get(bits, {})
            for key in row:
                if key not in cell:
                    state = _state_json(self.var_names, key)
                    raise ValueError(
                        f"{self.name}: mass on {state} outside the cell of {bits}"
                    )

    def is_compatible(self, preds: PredicateList) -> bool:
        """Def-8 compatibility: every concrete state has positive mass in
        its own cell (fails for point-mass rows over multi-state cells)."""
        cells = preds.cell_map().items()
        rows = self.rows
        return all(rows.get(bits, {}).get(key, 0) > 0 for bits, keys in cells for key in keys)


GAMMA_FAMILIES = (
    ConcretizationDistribution.uniform,
    ConcretizationDistribution.rank_weighted,
    ConcretizationDistribution.point_mass_min,
)


def concrete_semantics(
    aprog,
    preds: PredicateList,
    gamma: ConcretizationDistribution,
    z_i: tuple,
):
    """Pr over concrete outputs from z_i: sum over abstract outputs of
    Pr_gamma(z_o | a_o) * Pr_A(a_o | alpha(z_i)), with Pr_A the kernel row
    of alpha(z_i).

    The sum runs over the support of each gamma row only: with a strongly
    compatible gamma that drops nothing but zero terms.
    """
    gamma.validate_strong(preds)
    row = abstract_kernel(aprog, preds)[preds.alpha(z_i)]
    p_int, p_scale = _pr_ints(row)
    scale = gamma.scale * p_scale
    return cc.ConcreteDistribution(preds.ctx.names, _concrete_mass(gamma.rows, p_int), scale)


def _pr_ints(row):
    """(the kernel row `row` as integers over `scale`, `scale`), where
    `scale` is the lcm of the row's denominators."""
    scale = math.lcm(*(p.denominator for p in row.values()))
    return {a: p.numerator * (scale // p.denominator) for a, p in row.items()}, scale


def _concrete_mass(gamma_rows, p_int):
    """The concrete semantics sum over a' of gamma(z_o | a') Pr_A(a'), for
    every z_o, over every a' in the support of Pr_A and every key of
    gamma's row for a'.  Integers in, integers out: the masses are over
    the product of the two inputs' scales."""
    mass = {}
    for a, p in p_int.items():
        for key, q in gamma_rows.get(a, {}).items():
            mass[key] = mass.get(key, 0) + q * p
    return mass


def _cell_mismatches(gamma, row, outputs):
    """The verdict of one (gamma, alpha(z_i)) class.

    The concrete mass (`_concrete_mass`) summed over the cell of each
    abstract output a_o is compared with Pr_A(a_o), read from the kernel
    row `row`, exactly, in integers.  Returns (a_o, Pr_A(a_o), cell mass)
    for every a_o where the two differ.
    """
    p_int, p_scale = _pr_ints(row)
    mass = _concrete_mass(gamma.rows, p_int)
    mismatches = []
    for a_o in outputs:
        got = sum(mass.get(key, 0) for key in gamma.rows.get(a_o, ()))
        if got != p_int.get(a_o, 0) * gamma.scale:
            mismatches.append(
                (a_o, row.get(a_o, Fraction(0)), Fraction(got, gamma.scale * p_scale))
            )
    return mismatches


def check_invariance(aprog, preds: PredicateList, gammas, inputs=None) -> CheckReport:
    """Concretization invariance: for every input state and feasible
    abstract output, the concrete mass of the output's cell equals the
    abstract probability, for every supplied gamma.  Exact equality.

    The concrete semantics Pr(z_o | z_i) = sum over a' of gamma(z_o | a')
    Pr_A(a' | alpha(z_i)) reads z_i only through alpha(z_i), so every
    input of one class (gamma, alpha(z_i)) gets the same verdict.  The
    generic double sum (`_concrete_mass`, which `concrete_semantics` also
    runs) is therefore computed once per class, not once per input, and
    each input of the class gets the class's mismatches as
    counterexamples.  The sum is never replaced by the theorem's algebraic
    shortcut, which would assume what is checked.  It is exact, in scaled
    integers.  Pr_A(. | alpha(z_i)) is a row of the kernel (`abstract_kernel`).
    """
    report = CheckReport("invariance")
    kernel = abstract_kernel(aprog, preds)
    gammas = list(gammas)
    classed = list(_classed_inputs(preds, inputs))
    outputs = [m.bits for m in preds.feasible_minterms()]
    for gamma in gammas:
        gamma.validate_strong(preds)
        verdicts = {}
        for z_i, a_in in classed:
            if a_in not in verdicts:
                verdicts[a_in] = _cell_mismatches(gamma, kernel[a_in], outputs)
            for a_o, expected, got in verdicts[a_in]:
                report.counterexamples.append(
                    {
                        "gamma": gamma.name,
                        "z_i": _state_json(preds.ctx.names, z_i),
                        "a_o": _bits_json(preds.labels, a_o),
                        "expected": str(expected),
                        "got": str(got),
                    }
                )
    report.stats = {"gammas": len(gammas), "pairs": len(gammas) * len(classed) * len(outputs)}
    return report


# --- parameter fitting ------------------------------------------------------------


def locate(body, path):
    """(prefix statements on the path, the statement at the path)."""
    prefix = []
    cur = body
    stmt = None
    for part in path:
        if isinstance(part, int):
            prefix.extend(cur[:part])
            stmt = cur[part]
        else:
            cur = stmt.then if part == "then" else stmt.els
    return prefix, stmt


def _reads_writes(body):
    """(vars possibly read before written, vars definitely written)."""
    rbw = set()
    dw = set()
    for stmt in body:
        if isinstance(stmt, cc.Assign):
            rbw |= cc.tree_vars(stmt.expr) - dw
            dw.add(stmt.name)
        elif isinstance(stmt, cc.Draw):
            dw.add(stmt.name)
        elif isinstance(stmt, cc.Observe):
            rbw |= cc.tree_vars(stmt.cond) - dw
        elif isinstance(stmt, cc.If):
            rbw |= cc.tree_vars(stmt.cond) - dw
            r1, w1 = _reads_writes(stmt.then)
            r2, w2 = _reads_writes(stmt.els)
            rbw |= (r1 | r2) - dw
            dw |= w1 & w2
    return rbw, dw


def _seeded_joint(program, uniform_vars) -> cc.ConcreteDistribution:
    """Uniform over `uniform_vars`, point mass at the range minimum for the
    rest (sound whenever the other initial values cannot be observed): count
    1 for each state, over the product of the uniform ranges' sizes."""
    axes = [range(d.lo, d.hi) if d.name in uniform_vars else (d.lo,) for d in program.decls]
    counts = dict.fromkeys(itertools.product(*axes), 1)
    return cc.ConcreteDistribution(program.var_names, counts, math.prod(map(len, axes)))


def _fragment_base(cprog, prefix, stmt, site, preds) -> cc.ConcreteDistribution:
    """Fragment output distribution in the site's context, from a minimal
    initial joint: only variables whose initial value can reach a read of
    the prefix or of the measurement (`_free_mass`) get a uniform prior."""
    rbw, dw = _reads_writes(prefix)
    n = len(preds)
    levels = [v.index for v in site.free.support()]
    context = _context_cond(site, preds)
    before = [context] + [preds.conds[i] for i in levels if i < n]
    after = [site.event] + [preds.conds[i - n] for i in levels if i >= n]
    written = set() if isinstance(stmt, cc.If) else {stmt.name}
    downstream = set().union(*map(cc.tree_vars, before))
    downstream |= set().union(*map(cc.tree_vars, after)) - written
    if isinstance(stmt, cc.Assign):
        downstream |= cc.tree_vars(stmt.expr)
    uniform_vars = rbw | (downstream - dw)
    fragment = cc.ConcreteProgram(cprog.decls, tuple(prefix))
    return cc.eval_dist(fragment, _seeded_joint(fragment, uniform_vars)).filtered(context)


def _context_cond(site, preds) -> cc.Cond:
    lits = [
        preds.cond_of(lbl) if pol else cc.CNot(preds.cond_of(lbl))
        for lbl, pol in site.context
    ]
    return cc.cond_and_all(lits)


def _post_states(stmt, names):
    """z -> the states after `stmt` from z, each equally likely.  An
    assigned value is not range-checked, as the weakest precondition is not."""
    if isinstance(stmt, cc.If):
        return lambda z: (z,)
    slot = names.index(stmt.name)
    if isinstance(stmt, cc.Assign):
        value_at = cc.compile(stmt.expr, names)
        return lambda z: (z[:slot] + (value_at(z),) + z[slot + 1 :],)
    values = range(stmt.lo, stmt.hi)
    return lambda z: [z[:slot] + (v,) + z[slot + 1 :] for v in values]


def _free_mass(site, preds: PredicateList, base: cc.ConcreteDistribution, stmt):
    """(mass where the flip decides, mass where `site.event` holds there),
    as integers over one scale that depends on the site only: `base`'s
    scale times the number of post-states of each z.  It cancels in theta.

    `site.free` is walked for each state z of `base` and each post-state
    z', reading at each level only its predicate: on z below level n, on z'
    from level n on."""
    fns = preds._fns
    n = len(fns)
    table = site.free.universe.table
    event = cc.compile(site.event, base.var_names)
    posts = _post_states(stmt, base.var_names)
    denom = num = 0
    for z, w in base.counts.items():
        decided = hits = 0
        for post in posts(z):
            u = site.free.ref
            while u not in (FALSE, TRUE):
                level, lo, hi = table.node(u)
                u = hi if (fns[level](z) if level < n else fns[level - n](post)) else lo
            if u == TRUE:
                decided += 1
                hits += event(post)
        if decided:
            denom += w * decided
            num += w * hits
    return denom, num


def fit_parameters(
    cprog: cc.ConcreteProgram,
    aprog: bern.BernProgram,
    sites: bld.FlipSiteTable,
    preds: PredicateList,
):
    """Evaluate each flip parameter on the matching concrete fragment.

    Each site's fragment is the statement path leading to it; the fragment
    runs from the uniform joint distribution and is conditioned on the
    predicate literals known at the site.  One measurement serves every
    role: theta = P(event | free, context), the chance that the site's
    event holds after the statement where its flip decides (see
    `bld.FlipSite`).  Sites where the flip decides on no mass keep
    theta = 1/2 and are flagged.

    Returns (program with parameters substituted, updated site table).
    """
    _same_order(cprog, preds)
    fitted = []
    for site in sites:
        prefix, stmt = locate(cprog.body, site.path)
        base = _fragment_base(cprog, prefix, stmt, site, preds)
        denom, num = _free_mass(site, preds, base, stmt)
        flagged = denom == 0
        theta = Fraction(1, 2) if flagged else Fraction(num, denom)
        fitted.append(replace(site, theta=theta, flagged=flagged))
    resolved = bld.resolve_parameters(aprog, {s.site: s.theta for s in fitted})
    return resolved, bld.FlipSiteTable(fitted)


def end_to_end_decomposed_query(
    cprog: cc.ConcreteProgram,
    preds: PredicateList,
    event: bern.BernExpr,
    config: bld.AbstractionConfig | None = None,
) -> Fraction:
    """Abstract, fit the parameters, and query the abstraction."""
    if config is None:
        config = bld.AbstractionConfig(
            mode="prob", invariant_style="observe", params=bld.ParamPolicy.fit()
        )
    aprog, sites = bld.abstract_program(cprog, preds, config)
    resolved, _ = fit_parameters(cprog, aprog, sites, preds)
    init = bld.formula_to_expr(preds.invariant_formula())
    return engine.query(resolved, event, init=init).probability
