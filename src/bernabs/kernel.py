"""The ROBDD node store under every Bdd.

Pure Python, with no build step.  Nodes are non-negative ints: 0 and 1
are the terminals, internal nodes carry (level, lo, hi) with ``level``
strictly increasing on every root-to-terminal path.  The store
is hash-consed, so semantically equal functions share one node id.

No complemented edges: canonicity is exactly "no node with lo == hi, no
duplicate (level, lo, hi) triple".

Every walk over the nodes reachable from a root is one call of
:meth:`NodeTable.fold`, an iterative post-order memoised per node id, so
a diagram of any depth folds without recursion; ``not_``, ``restrict``,
``exists`` and ``support`` are small visitors of it.  Only
``apply`` and ``and_exists`` recurse, once per level of their operands.
``apply`` is one recursion for all four ops with one computed table, as
in the BDD package of Brace, Rudell and Bryant (1990): each step settles
its op's terminal cases and makes its node in line, so a step calls
nothing but its two sub-steps.
``and_exists`` is ``exists`` of an ``apply(OP_AND, ...)`` made in one walk,
which quantifies each level as it reaches it instead of building the
whole conjunction first.  Their callers bound the number of levels
(``engine.MAX_LEVELS``) to keep that recursion inside the interpreter's
stack.
"""

FALSE = 0
TRUE = 1

OP_AND = 0
OP_OR = 1
OP_IMP = 2
OP_IFF = 3


class NodeTable:
    def __init__(self, num_vars):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        # Terminals sit at the sentinel level num_vars so that level
        # comparisons order them after every decision variable.
        self._level = [num_vars, num_vars]
        self._lo = [0, 1]
        self._hi = [0, 1]
        self._unique = {}
        self._apply_memo = {}
        self._not_memo = {FALSE: TRUE, TRUE: FALSE}

    def __len__(self):
        return len(self._level)

    def node(self, u):
        return self._level[u], self._lo[u], self._hi[u]

    def mk(self, level, lo, hi):
        if lo == hi:
            return lo
        key = (level, lo, hi)
        r = self._unique.get(key)
        if r is None:
            r = len(self._level)
            self._level.append(level)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = r
        return r

    def var(self, level):
        if not 0 <= level < self.num_vars:
            raise ValueError(f"variable level {level} outside universe")
        return self.mk(level, FALSE, TRUE)

    def fold(self, u, visit, floor, memo):
        """The result of the diagram at `u`, computed children first.

        Each node w reachable from u that `memo` has no result for is
        visited once: ``memo[w] = visit(w, level, lo, hi)``, where lo and
        hi are the results of its children.  A node at level `floor` or
        deeper is its own result (pass ``num_vars`` to visit every
        internal node).  `memo` may start with known results, such as the
        terminals'; it gains only finished ones, so a memo kept across
        calls never holds a result half made.  ``mk`` makes a node's
        children before the node, so ascending ids are a post-order.
        """
        if u in memo:
            return memo[u]
        level, lo_of, hi_of = self._level, self._lo, self._hi
        todo = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w in memo or w in todo:
                continue
            if level[w] >= floor:
                memo[w] = w
                continue
            todo.add(w)
            stack.append(lo_of[w])
            stack.append(hi_of[w])
        for w in sorted(todo):
            memo[w] = visit(w, level[w], memo[lo_of[w]], memo[hi_of[w]])
        return memo[u]

    def _rebuild(self, w, level, lo, hi):
        return self.mk(level, lo, hi)

    def not_(self, u):
        return self.fold(u, self._rebuild, self.num_vars, self._not_memo)

    def apply(self, op, u, v):
        """The node of ``u op v``: the op's terminal cases, then the
        computed table, then the two sub-steps and the node they make,
        hash-consed in line as ``mk`` would."""
        if op == OP_AND:
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE or u == v:
                return v
            if v == TRUE:
                return u
            if u > v:
                u, v = v, u
        elif op == OP_OR:
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE or u == v:
                return v
            if v == FALSE:
                return u
            if u > v:
                u, v = v, u
        elif op == OP_IMP:
            if u == FALSE or v == TRUE or u == v:
                return TRUE
            if u == TRUE:
                return v
            if v == FALSE:
                return self.not_(u)
        elif op == OP_IFF:
            if u == v:
                return TRUE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == FALSE:
                return self.not_(v)
            if v == FALSE:
                return self.not_(u)
            if u > v:
                u, v = v, u
        else:
            raise ValueError(f"unknown op code {op}")
        key = (op, u, v)
        r = self._apply_memo.get(key)
        if r is not None:
            return r
        level_of, lo_of, hi_of = self._level, self._lo, self._hi
        lu, lv = level_of[u], level_of[v]
        if lu == lv:
            level = lu
            lo = self.apply(op, lo_of[u], lo_of[v])
            hi = self.apply(op, hi_of[u], hi_of[v])
        elif lu < lv:
            level = lu
            lo = self.apply(op, lo_of[u], v)
            hi = self.apply(op, hi_of[u], v)
        else:
            level = lv
            lo = self.apply(op, u, lo_of[v])
            hi = self.apply(op, u, hi_of[v])
        if lo == hi:
            r = lo
        else:
            triple = (level, lo, hi)
            r = self._unique.get(triple)
            if r is None:
                r = self._unique[triple] = len(level_of)
                level_of.append(level)
                lo_of.append(lo)
                hi_of.append(hi)
        self._apply_memo[key] = r
        return r

    def restrict(self, u, level, value):
        def visit(w, lw, lo, hi):
            if lw == level:
                return hi if value else lo
            return self.mk(lw, lo, hi)

        return self.fold(u, visit, level + 1, {})

    def exists(self, u, levels):
        levels = frozenset(levels)
        if not levels:
            return u

        def visit(w, lw, lo, hi):
            if lw in levels:
                return self.apply(OP_OR, lo, hi)
            return self.mk(lw, lo, hi)

        return self.fold(u, visit, max(levels) + 1, {})

    def and_exists(self, u, v, levels):
        """``exists(apply(OP_AND, u, v), levels)`` in one walk, which never
        builds the conjunction below a quantified level (the relational
        product of Burch, Clarke and Long, 1991)."""
        levels = frozenset(levels)
        if not levels:
            return self.apply(OP_AND, u, v)
        return self._and_exists(u, v, levels, max(levels) + 1, {})

    def _and_exists(self, u, v, levels, floor, memo):
        # The memo is an argument, not a closure's cell: a recursive closure
        # would sit in a reference cycle that keeps its memo alive.
        if u == FALSE or v == FALSE:
            return FALSE
        if u > v:
            u, v = v, u
        lu, lv = self._level[u], self._level[v]
        top = lu if lu < lv else lv
        if top >= floor:
            return self.apply(OP_AND, u, v)
        key = (u, v)
        r = memo.get(key)
        if r is not None:
            return r
        if lu == lv:
            u_lo, u_hi, v_lo, v_hi = self._lo[u], self._hi[u], self._lo[v], self._hi[v]
        elif lu < lv:
            u_lo, u_hi, v_lo, v_hi = self._lo[u], self._hi[u], v, v
        else:
            u_lo, u_hi, v_lo, v_hi = u, u, self._lo[v], self._hi[v]
        lo = self._and_exists(u_lo, v_lo, levels, floor, memo)
        if top in levels:
            if lo == TRUE:
                r = TRUE
            else:
                r = self.apply(OP_OR, lo, self._and_exists(u_hi, v_hi, levels, floor, memo))
        else:
            r = self.mk(top, lo, self._and_exists(u_hi, v_hi, levels, floor, memo))
        memo[key] = r
        return r

    def support(self, u):
        levels = set()
        self.fold(u, lambda w, level, lo, hi: levels.add(level), self.num_vars, {})
        return tuple(sorted(levels))
