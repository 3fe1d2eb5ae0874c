"""Predicate domains: abstraction, concretization, and formula approximation.

A predicate list (p_1, ..., p_n) induces the abstract domain of total truth
assignments (b_1, ..., b_n).  Its cells, the states of each feasible
bit-vector, are found once by partition refinement over the predicates'
masks (see `theory.TheoryContext.mask`), in the All-SAT style of
predicate abstraction: from one cell of every state, each cell is split
by p_i and its complement, and empty parts are dropped.  The feasible
minterms, γ and both approximation operators are read off the cells
instead of one theory query per minterm: the image of a condition, read
on every query, is the set of cells its mask meets, and a negation's
mask is the complement of the condition's.  Each cell's mask is as wide
as the domain, so a partition into more than `DENSE_CELLS` cells keeps
the per-state α-image instead, decoded from the predicates' masks, and
reads images off it at the mask's bits.  α of one state is the α-image
at the state's index.  n is capped because minterm sets can still grow
as 2^n.  The approximations and the invariant are answered as canonical
Bdds over ``universe``, one variable per predicate, so callers compare
them by semantics rather than syntax; the builder turns them into BERN
text where it emits a program.  With a query log on, the per-cube theory
queries that the cells answered are recorded, so an external solver can
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
# The most cells kept as masks.  Each mask is as wide as the domain, so 64
# of them hold as many bits as the per-state image holds pointers; a finer
# partition (up to one state per cell, as in a ladder of independent
# predicates) is kept as that image instead, whose size is the domain's.
DENSE_CELLS = 64


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
        self.ctx = ctx
        self.labels = tuple(labels)
        self.conds = tuple(cond for _, cond in preds)
        self.reads = tuple(map(ctx.check_closed, self.conds))  # each predicate's variables
        self.universe = bddm.make_universe([(label, None) for label in labels])
        self._feasible = None  # feasible bit-vector -> itself, in product order
        self._cell_masks = None  # feasible bit-vector -> its cell's mask, if kept
        self._image = None
        self._cells = None
        self._invariant = None

    def __len__(self):
        return len(self.labels)

    def var(self, label) -> bddm.BoolVar:
        return self.universe.var(label)

    def cond_of(self, label) -> cc.Cond:
        return self.conds[self.labels.index(label)]

    # --- minterm machinery -------------------------------------------------

    def minterm_cond(self, bits) -> cc.Cond:
        return cc.cond_and_all([c if bit else cc.CNot(c) for c, bit in zip(self.conds, bits)])

    def _partition(self) -> dict:
        """The feasible bit-vectors, each mapped to itself, in
        itertools.product order, found on first use by partition
        refinement: from one cell of every state, each cell is split by
        each predicate's mask and its complement in turn, the False part
        first, so the order holds, and empty parts are dropped.  The cells'
        masks are kept while there are at most `DENSE_CELLS` of them; a
        finer partition is read off the α-image."""
        if self._feasible is None:
            ctx = self.ctx
            cells = {(): ctx.mask(cc.CTrue())}
            for cond in self.conds:
                pred = ctx.mask(cond)
                cells = {
                    bits + (bit,): part
                    for bits, cell in cells.items()
                    for bit, part in ((False, cell & ~pred), (True, cell & pred))
                    if part
                }
                if len(cells) > DENSE_CELLS:
                    self._image, self._feasible = self._decode()
                    break
            else:
                self._cell_masks = cells
                self._feasible = {bits: bits for bits in cells}
            self._log_cubes("sat", self._all_bits())
        return self._feasible

    def _alpha_image(self):
        """(image, feasible), decoded on first use: the predicate bits of
        every joint state in ``ctx.states()`` order, one tuple per
        bit-vector, and the feasible bit-vectors as `_partition` gives them."""
        feasible = self._partition()
        if self._image is None:
            self._image, _ = self._decode()
        return self._image, feasible

    def _decode(self):
        """(image, feasible) as `_alpha_image` gives them, read from the
        predicates' masks, one string of digits each (`TheoryContext.digits`),
        state by state in step; each state gets the first tuple made for its
        bit-vector."""
        ctx = self.ctx
        if not self.conds:
            return [()] * ctx.size(), {(): ()}
        columns = [map("1".__eq__, ctx.digits(ctx.mask(cond))) for cond in self.conds]
        shared = {}
        # tee hands both arguments the same tuple: setdefault(bits, bits)
        image = list(map(shared.setdefault, *itertools.tee(zip(*columns))))
        return image, {bits: bits for bits in sorted(shared)}

    def _all_bits(self):
        return itertools.product((False, True), repeat=len(self))

    def _image_of(self, cond) -> frozenset:
        """The bit-vectors of the states that satisfy `cond`, read on each
        call: the cells its mask meets, or, without the cells' masks, the
        α-image at the mask's set bits."""
        mask = self.ctx.mask(cond)
        self._partition()
        if self._cell_masks is not None:
            return frozenset(bits for bits, cell in self._cell_masks.items() if cell & mask)
        return frozenset(itertools.compress(self._image, map("1".__eq__, self.ctx.digits(mask))))

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
        feasible = self._partition()
        return tuple(Minterm(bits, bits in feasible, self) for bits in self._all_bits())

    def feasible_minterms(self):
        return tuple(Minterm(bits, True, self) for bits in self._partition())

    # --- abstraction / concretization ----------------------------------------

    def alpha(self, key: tuple) -> tuple:
        """The predicate bits of the state `key`, the α-image at its index
        (`TheoryContext.index`); a domain past the cap raises."""
        return self._alpha_image()[0][self.ctx.index(key)]

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
        feasible = self._partition()
        misses = self._image_of(cc.CNot(target))
        self._log_cubes("entails", feasible, target)
        return self._canonical(bits for bits in feasible if bits not in misses)

    def invariant_formula(self) -> bddm.Bdd:
        """I: the disjunction of theory-feasible minterms, built on first use."""
        if self._invariant is None:
            self._invariant = self._canonical(self._partition())
        return self._invariant


def predicate_list_text(preds: PredicateList) -> str:
    """Serialize back to the .preds line format."""
    return "\n".join(f"{label}: {cond}" for label, cond in zip(preds.labels, preds.conds)) + "\n"
