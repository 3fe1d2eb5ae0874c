"""Predicate domains: abstraction, concretization, and formula approximation.

A predicate list (p_1, ..., p_n) induces the abstract domain of total truth
assignments (b_1, ..., b_n).  One sweep of the joint domain computes the
α-image, the predicate bit-vector of every state, in the All-SAT style of
predicate abstraction.  The feasible minterms, γ and both approximation
operators are read off the image instead of one theory query per minterm:
γ, the cell of every minterm, from one pass over the image, and each
approximation from one further sweep per distinct pair of a query
condition and its negation, whose two images are kept for every later
query of either.  n is capped because minterm sets can still grow as
2^n.  The approximations and the invariant are answered as canonical
Bdds over ``universe``, one variable per predicate, so callers compare
them by semantics rather than syntax; the builder turns them into BERN
text where it emits a program.  With a query log on, the per-cube theory
queries that the image answered are recorded, so an external solver can
cross-check them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from bernabs import bdd as bddm
from bernabs import concrete as cc
from bernabs import kernel
from bernabs.errors import PredicateBoundError
from bernabs.theory import TheoryContext

DEFAULT_MAX_PREDICATES = 16


@dataclass(frozen=True)
class Minterm:
    bits: tuple
    feasible: bool
    preds: PredicateList = field(repr=False, compare=False)

    @property
    def cond(self) -> cc.Cond:
        """The cube: each predicate or its negation, as `bits` says."""
        return self.preds.minterm_cond(self.bits)


class PredicateList:
    def __init__(self, preds, ctx: TheoryContext):
        preds = list(preds)
        if len(preds) > DEFAULT_MAX_PREDICATES:
            raise PredicateBoundError(
                f"{len(preds)} predicates exceed the bound {DEFAULT_MAX_PREDICATES}"
            )
        labels = [label for label, _ in preds]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate predicate labels")
        for _, cond in preds:
            ctx.check_closed(cond)
        self.ctx = ctx
        self.labels = tuple(labels)
        self.conds = tuple(cond for _, cond in preds)
        self._fns = tuple(cc.compile(cond, ctx.names) for cond in self.conds)
        self.universe = bddm.make_universe([(label, None) for label in labels])
        self._image = None
        self._feasible = None
        self._images = {}  # str(cond) -> the bit-vectors of cond's states
        self._cells = None

    def __len__(self):
        return len(self.labels)

    def var(self, label) -> bddm.BoolVar:
        return self.universe.var(label)

    def cond_of(self, label) -> cc.Cond:
        return self.conds[self.labels.index(label)]

    # --- minterm machinery -------------------------------------------------

    def minterm_cond(self, bits) -> cc.Cond:
        lits = [
            cond if bit else cc.CNot(cond)
            for cond, bit in zip(self.conds, bits)
        ]
        return cc.cond_and_all(lits)

    def _alpha_image(self):
        """The α-image, computed by one sweep on first use.

        Returns (image, feasible): the predicate bits of every joint state in
        ``ctx.states()`` order, and a dict mapping each bit-vector that
        occurs to the one tuple the image shares for it, in
        itertools.product order.
        """
        if self._image is None:
            fns = self._fns
            shared = {}
            self._image = [
                shared.setdefault(bits, bits)
                for bits in (tuple([fn(key) for fn in fns]) for key in self.ctx.states())
            ]
            self._feasible = {bits: bits for bits in sorted(shared)}
            self._log_cubes("sat", self._all_bits())
        return self._image, self._feasible

    def _all_bits(self):
        return itertools.product((False, True), repeat=len(self))

    def _image_of(self, cond) -> frozenset:
        """The bit-vectors of the states that satisfy `cond`, memoized on the
        condition's text.  Conditions come in pairs, a guard and its
        negation, so one sweep splits the states into those that satisfy
        `cond` and those that do not, and keeps both images: the second
        under the text of ``!cond``."""
        text = str(cond)
        if text not in self._images:
            self.ctx.check_closed(cond)
            fn = cc.compile(cond, self.ctx.names)
            image, _ = self._alpha_image()
            hits, misses = set(), set()
            for key, bits in zip(self.ctx.states(), image):
                (hits if fn(key) else misses).add(bits)
            self._images[text] = frozenset(hits)
            self._images[str(cc.CNot(cond))] = frozenset(misses)
        return self._images[text]

    def _log_cubes(self, kind, bit_vectors, other=None):
        """Record in the theory's query log the per-cube queries the image
        answered: satisfiable(cube [&& other]) or entails(cube, other)."""
        if self.ctx.query_log is None:
            return
        for bits in bit_vectors:
            cube = self.minterm_cond(bits)
            if kind == "entails":
                self.ctx.log_query("entails", cube, other)
            else:
                self.ctx.log_query("sat", cube if other is None else cc.CAnd(cube, other))

    def minterms(self):
        """All 2^n minterms in itertools.product order."""
        _, feasible = self._alpha_image()
        return tuple(Minterm(bits, bits in feasible, self) for bits in self._all_bits())

    def feasible_minterms(self):
        _, feasible = self._alpha_image()
        return tuple(Minterm(bits, True, self) for bits in feasible)

    # --- abstraction / concretization ----------------------------------------

    def alpha(self, key: tuple) -> tuple:
        """Componentwise predicate evaluation at a total concrete state."""
        return tuple([fn(key) for fn in self._fns])

    def gamma_lower(self, bits) -> list:
        """All concrete states whose abstraction is exactly `bits`, in
        ``ctx.states()`` order: the cell of `bits`, empty if infeasible."""
        return list(self.cell_map().get(tuple(bool(b) for b in bits), ()))

    def cells(self) -> dict:
        """Every feasible bit-vector's cell, as a list of the value tuples
        of its states in ``ctx.states()`` order."""
        return {bits: list(cell) for bits, cell in self.cell_map().items()}

    def cell_map(self) -> dict:
        """Every feasible bit-vector's cell, as a dict whose keys are the
        value tuples of its states in ``ctx.states()`` order (every value
        None): all of γ from one pass over the α-image, made on first use
        and shared by every caller, which must not change it."""
        if self._cells is None:
            image, feasible = self._alpha_image()
            cells = {bits: {} for bits in feasible}
            for key, bits in zip(self.ctx.states(), image):
                cells[bits][key] = None
            self._cells = cells
        return self._cells

    # --- formula approximation -------------------------------------------------

    def _canonical(self, bit_vectors) -> bddm.Bdd:
        """The Bdd whose models are the distinct `bit_vectors`, built level
        by level with ``mk``: the recursion is n deep, whatever the number
        of minterms."""
        table = self.universe.table
        n = len(self)

        def build(level, rows):
            # rows share their first `level` bits and differ in the rest
            if not rows:
                return kernel.FALSE
            if len(rows) == 1 << (n - level):
                return kernel.TRUE
            lo = build(level + 1, [r for r in rows if not r[level]])
            hi = build(level + 1, [r for r in rows if r[level]])
            return table.mk(level, lo, hi)

        return bddm.Bdd(self.universe, build(0, list(bit_vectors)))

    def strongest_implied(self, cond) -> bddm.Bdd:
        """Strongest formula over the predicates implied (modulo theory) by cond.

        Disjunction of the minterms consistent with cond, i.e. the image of
        the cond-states: any weaker set would miss a reachable abstract
        state, any stronger set would not be implied.
        """
        hits = self._image_of(cond)
        self._log_cubes("sat", self._all_bits(), cond)
        return self._canonical(hits)

    def weakest_sufficient(self, target) -> bddm.Bdd:
        """Weakest formula over the predicates that guarantees `target`.

        Disjunction of the feasible minterms entailing target: those outside
        the image of the states violating it.
        """
        _, feasible = self._alpha_image()
        misses = self._image_of(cc.CNot(target))
        self._log_cubes("entails", feasible, target)
        return self._canonical(bits for bits in feasible if bits not in misses)

    def invariant_formula(self) -> bddm.Bdd:
        """I: the disjunction of theory-feasible minterms."""
        return self._canonical(self._alpha_image()[1])


def predicate_list_text(preds: PredicateList) -> str:
    """Serialize back to the .preds line format."""
    return "\n".join(f"{label}: {cond}" for label, cond in zip(preds.labels, preds.conds)) + "\n"
