"""The ROBDD node store under every Bdd.

Pure Python, with no build step.  Nodes are non-negative ints: 0 and 1
are the terminals, internal nodes carry (level, lo, hi) with ``level``
strictly increasing on every root-to-terminal path.  The store
is hash-consed, so semantically equal functions share one node id.

No complemented edges: canonicity is exactly "no node with lo == hi, no
duplicate (level, lo, hi) triple".
"""

FALSE = 0
TRUE = 1

OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_IMP = 3
OP_IFF = 4

_COMMUTATIVE = (OP_AND, OP_OR, OP_XOR, OP_IFF)


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
        self._ite_memo = {}
        self._not_memo = {}

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

    def not_(self, u):
        if u == FALSE:
            return TRUE
        if u == TRUE:
            return FALSE
        r = self._not_memo.get(u)
        if r is None:
            r = self.mk(self._level[u], self.not_(self._lo[u]), self.not_(self._hi[u]))
            self._not_memo[u] = r
        return r

    def _terminal_shortcut(self, op, u, v):
        if op == OP_AND:
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == v:
                return u
        elif op == OP_OR:
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == v:
                return u
        elif op == OP_XOR:
            if u == v:
                return FALSE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == TRUE:
                return self.not_(v)
            if v == TRUE:
                return self.not_(u)
        elif op == OP_IMP:
            if u == FALSE or v == TRUE:
                return TRUE
            if u == TRUE:
                return v
            if v == FALSE:
                return self.not_(u)
            if u == v:
                return TRUE
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
        else:
            raise ValueError(f"unknown op code {op}")
        return -1

    def apply(self, op, u, v):
        r = self._terminal_shortcut(op, u, v)
        if r >= 0:
            return r
        if op in _COMMUTATIVE and u > v:
            u, v = v, u
        key = (op, u, v)
        r = self._apply_memo.get(key)
        if r is not None:
            return r
        lu, lv = self._level[u], self._level[v]
        if lu == lv:
            level = lu
            lo = self.apply(op, self._lo[u], self._lo[v])
            hi = self.apply(op, self._hi[u], self._hi[v])
        elif lu < lv:
            level = lu
            lo = self.apply(op, self._lo[u], v)
            hi = self.apply(op, self._hi[u], v)
        else:
            level = lv
            lo = self.apply(op, u, self._lo[v])
            hi = self.apply(op, u, self._hi[v])
        r = self.mk(level, lo, hi)
        self._apply_memo[key] = r
        return r

    def ite(self, f, g, h):
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        if g == FALSE and h == TRUE:
            return self.not_(f)
        key = (f, g, h)
        r = self._ite_memo.get(key)
        if r is not None:
            return r
        level = min(self._level[f], self._level[g], self._level[h])
        f0, f1 = self._cofactors(f, level)
        g0, g1 = self._cofactors(g, level)
        h0, h1 = self._cofactors(h, level)
        r = self.mk(level, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_memo[key] = r
        return r

    def _cofactors(self, u, level):
        if self._level[u] == level:
            return self._lo[u], self._hi[u]
        return u, u

    def restrict(self, u, level, value):
        memo = {}

        def walk(w):
            lw = self._level[w]
            if lw > level:
                return w
            r = memo.get(w)
            if r is not None:
                return r
            if lw == level:
                r = self._hi[w] if value else self._lo[w]
            else:
                r = self.mk(lw, walk(self._lo[w]), walk(self._hi[w]))
            memo[w] = r
            return r

        return walk(u)

    def exists(self, u, levels):
        levels = frozenset(levels)
        if not levels:
            return u
        top = max(levels)
        memo = {}

        def walk(w):
            if self._level[w] > top:
                return w
            r = memo.get(w)
            if r is not None:
                return r
            lw = self._level[w]
            lo = walk(self._lo[w])
            hi = walk(self._hi[w])
            if lw in levels:
                r = self.apply(OP_OR, lo, hi)
            else:
                r = self.mk(lw, lo, hi)
            memo[w] = r
            return r

        return walk(u)

    def rename(self, u, perm):
        """Substitute variables: perm maps old level -> new level, injectively.

        Implemented by bottom-up Shannon recomposition through ite, which is
        correct for arbitrary injective maps (including order-changing ones).
        """
        if not perm:
            return u
        memo = {}

        def walk(w):
            if w < 2:
                return w
            r = memo.get(w)
            if r is not None:
                return r
            lw = self._level[w]
            lo = walk(self._lo[w])
            hi = walk(self._hi[w])
            r = self.ite(self.var(perm.get(lw, lw)), hi, lo)
            memo[w] = r
            return r

        return walk(u)

    def support(self, u):
        seen = set()
        levels = set()
        stack = [u]
        while stack:
            w = stack.pop()
            if w < 2 or w in seen:
                continue
            seen.add(w)
            levels.add(self._level[w])
            stack.append(self._lo[w])
            stack.append(self._hi[w])
        return tuple(sorted(levels))
