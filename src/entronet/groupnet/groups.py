"""Finite groups by multiplication table and finite abelian modules over them.

Group elements are indices 0..n-1 with the identity at index 0.  The table
is a tuple of rows, each a tuple of plain ints, so ``table[i][j]`` is the
product i*j.  A module is a product of cyclic groups Z/m_i; its elements
are integer tuples reduced mod the moduli, and the group acts through
per-element automorphism matrices.  Both structures are validated on
construction.

Associativity is checked by Light's test (A. H. Clifford and G. B.
Preston, The Algebraic Theory of Semigroups I, section 1.2, 1961): the
elements a with (x a) y = x (a y) for all x, y are closed under products,
so it is enough to check them on a generating set.  Generators are picked
greedily, each the first element outside the closure of those before it;
each one at least doubles the subgroup reached, so the check costs
O(n^2 log n) time and O(n^2) memory.
"""

from __future__ import annotations

import operator
from functools import cached_property

UElt = tuple[int, ...]


class GroupValidationError(ValueError):
    pass


class Group:
    """A finite group by its multiplication table, validated on construction.

    ``generators`` is the generating set Light's test picked, in index order.
    """

    def __init__(self, table):
        try:
            tab = tuple(tuple(map(operator.index, row)) for row in table)
        except TypeError:
            raise GroupValidationError("multiplication table must be a table of integers")
        n = len(tab)
        if any(len(row) != n for row in tab):
            raise GroupValidationError("multiplication table must be square")
        self.table = tab
        self.order = n
        self.generators = self._check_axioms()
        self.inverse = tuple(row.index(0) for row in tab)  # rows are permutations

    def _check_axioms(self) -> tuple[int, ...]:
        """Validate the table; return the generators Light's test picked."""
        n, t = self.order, self.table
        if any(not 0 <= x < n for row in t for x in row):
            raise GroupValidationError("table entries out of range")
        ident = tuple(range(n))
        cols = tuple(zip(*t))
        if not n or t[0] != ident or cols[0] != ident:
            raise GroupValidationError("index 0 is not an identity")
        # each row/column a permutation (cancellation)
        for i in range(n):
            if len(set(t[i])) != n or len(set(cols[i])) != n:
                raise GroupValidationError(f"row or column {i} is not a permutation")
        gens: list[int] = []
        reached = {0}
        for a in range(n):
            if a in reached:
                continue
            # (x a) y against x (a y), one row of y at a time
            x_ay = operator.itemgetter(*t[a])  # returns a tuple, as n >= 2 here
            for tx, xa in zip(t, cols[a]):
                if t[xa] != x_ay(tx):
                    raise GroupValidationError("multiplication is not associative")
            # Every generator so far passed, so every product of them does;
            # with those in the middle, right multiplication by the
            # generators reaches every product of them.
            gens.append(a)
            frontier = list(reached)
            while frontier:
                new = {t[x][g] for x in frontier for g in gens} - reached
                reached |= new
                frontier = list(new)
        return tuple(gens)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def elements(self) -> range:
        return range(self.order)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = []
        for i in range(self.order):
            k, x = 1, i
            while x != 0:
                x = self.mul(x, i)
                k += 1
            out.append(k)
        return tuple(out)

    def order_profile(self) -> dict[int, int]:
        prof: dict[int, int] = {}
        for k in self.element_orders:
            prof[k] = prof.get(k, 0) + 1
        return prof

    def is_abelian(self) -> bool:
        return self.table == tuple(zip(*self.table))

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group(order={self.order})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def cyclic(cls, n: int) -> "Group":
        if n < 1:
            raise GroupValidationError("cyclic group needs n >= 1")
        table = [tuple(range(i, n)) + tuple(range(i)) for i in range(n)]
        return cls(table)

    @classmethod
    def direct_product(cls, g: "Group", h: "Group") -> "Group":
        m = h.order
        table = [
            [x * m + y for x in grow for y in hrow] for grow in g.table for hrow in h.table
        ]
        return cls(table)

    @classmethod
    def aff1_mod_p(cls, p: int) -> "Group":
        """Affine transformations x -> c*x + a of the field with p elements."""
        from ..scalars import is_prime

        if not is_prime(p):
            raise GroupValidationError(f"{p} is not prime")
        elems = [(0, 1)] + [(a, c) for c in range(1, p) for a in range(p) if (a, c) != (0, 1)]
        index = {e: i for i, e in enumerate(elems)}
        table = [
            [index[((a1 + c1 * a2) % p, (c1 * c2) % p)] for a2, c2 in elems] for a1, c1 in elems
        ]
        return cls(table)

    @classmethod
    def from_table(cls, table) -> "Group":
        return cls(table)


def _reduce(u: UElt, moduli: tuple[int, ...]) -> UElt:
    return tuple(x % m for x, m in zip(u, moduli))


class GModule:
    """Finite abelian group prod Z/m_i with a G-action by automorphisms."""

    def __init__(self, group: Group, moduli, action: dict[int, list[list[int]]] | None = None):
        self.group = group
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 1 for m in self.moduli):
            raise GroupValidationError("moduli must be positive")
        self.rank = len(self.moduli)
        if action is None:
            # The identity action is well-defined and a homomorphism: no check.
            eye = self._eye()
            self.action = {g: eye for g in group.elements()}
            return
        self.action = {g: tuple(tuple(int(x) for x in row) for row in mat)
                       for g, mat in action.items()}
        self._check_action()

    def _check_action(self) -> None:
        r = self.rank
        if set(self.action) != set(self.group.elements()):
            raise GroupValidationError("action table keys must be exactly the group elements")
        for g in self.group.elements():
            mat = self.action[g]
            if len(mat) != r or any(len(row) != r for row in mat):
                raise GroupValidationError("action matrix has wrong shape")
            # well-defined on each Z/m_i
            for jcol, m_src in enumerate(self.moduli):
                for irow, m_dst in enumerate(self.moduli):
                    if (mat[irow][jcol] * m_src) % m_dst != 0:
                        raise GroupValidationError("action matrix not well-defined mod moduli")
        if self.action_matrix(0) != self._eye():
            raise GroupValidationError("identity must act trivially")
        # act(g s) = act(g) act(s) for every g and every generator s gives the
        # law for every pair g, h: write h as a word in the generators and
        # induct on its length.
        for s in self.group.generators:
            for g in self.group.elements():
                gs = self.group.mul(g, s)
                for u in self._basis():
                    if self.act(gs, u) != self.act(g, self.act(s, u)):
                        raise GroupValidationError("action is not a homomorphism")
        # Each act(g) is then bijective: the maps are additive, so agreeing on
        # the basis they agree everywhere, and act(g^-1) after act(g) is act(1),
        # the identity.  No element of the module needs to be enumerated.

    def _eye(self):
        return tuple(tuple(1 if i == j else 0 for j in range(self.rank)) for i in range(self.rank))

    def _basis(self):
        for i in range(self.rank):
            yield tuple(1 if j == i else 0 for j in range(self.rank))

    def action_matrix(self, g: int):
        return self.action[g]

    def zero(self) -> UElt:
        return (0,) * self.rank

    def add(self, u: UElt, v: UElt) -> UElt:
        return _reduce(tuple(a + b for a, b in zip(u, v)), self.moduli)

    def neg(self, u: UElt) -> UElt:
        return _reduce(tuple(-a for a in u), self.moduli)

    def sub(self, u: UElt, v: UElt) -> UElt:
        return self.add(u, self.neg(v))

    def smul(self, k: int, u: UElt) -> UElt:
        return _reduce(tuple(k * a for a in u), self.moduli)

    def act(self, g: int, u: UElt) -> UElt:
        mat = self.action[g]
        return _reduce(
            tuple(sum(mat[i][j] * u[j] for j in range(self.rank)) for i in range(self.rank)),
            self.moduli,
        )

    def reduce(self, u) -> UElt:
        if len(u) != self.rank:
            raise GroupValidationError("element has wrong rank")
        return _reduce(tuple(int(x) for x in u), self.moduli)

    def elements(self):
        def rec(i: int, prefix: tuple[int, ...]):
            if i == self.rank:
                yield prefix
                return
            for x in range(self.moduli[i]):
                yield from rec(i + 1, prefix + (x,))

        yield from rec(0, ())

    def size(self) -> int:
        out = 1
        for m in self.moduli:
            out *= m
        return out

    def element_order(self, u: UElt) -> int:
        k, x = 1, u
        while any(x):
            x = self.add(x, u)
            k += 1
        return k

    @classmethod
    def trivial(cls, group: Group, moduli) -> "GModule":
        return cls(group, moduli)

    @classmethod
    def scaling_action(cls, group: Group, modulus: int, scalars: dict[int, int]) -> "GModule":
        """Rank-one module Z/m with each group element acting by a scalar."""
        action = {g: [[scalars[g] % modulus]] for g in group.elements()}
        return cls(group, (modulus,), action)
