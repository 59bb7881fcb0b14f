"""Cocycles on finite groups, central extensions, and H^1/H^2 computation.

Cochains are total value tables.  The solver works on normalized cochains
as integer vectors with one unknown per (cell, coordinate), N in all.  With
L the exponent of the module, it brings the cocycle conditions, scaled to
modulus L, together with L*Z^N into one echelon form H modulo L
(Storjohann-Mulders); the cocycles are then exactly L * H^-1 Z^N.  The
coboundaries and the moduli, in that basis, have a second echelon form in
which most pivots are 1; the rest give one small Smith normal form, whose
diagonal is the invariant factors and whose transform gives the
representatives.  Only the conditions whose first argument lies in a
generating set of G are used; the others follow from them.

Systems with more than SYSTEM_SIZE_BOUND cocycle conditions are refused
before any matrix is built.  Measured on a 2-vCPU Intel Xeon host (Python
3.11, median of three), with every representative verified: H^2 with
coefficients Z/|G| of the cyclic groups of order 8, 12, 16, 24 and 33 in
0.003, 0.008, 0.02, 0.06 and 0.15 s; of C2 x C12 with Z/12 in 0.15 s, of
C4 x C8 with Z/8 in 0.34 s, and of (C2)^5 with Z/2, 15 factors, in 0.9 s,
0.06 s of it in verify_cocycle2.  Small cases can be cross-checked against
exhaustive enumeration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import product

from .groups import GModule, Group, UElt


class SizeBoundExceeded(ValueError):
    pass


# Cocycle conditions of the largest system h_solver and is_coboundary2
# accept: H^2 with one modulus up to order 33, H^1 up to order 182.
SYSTEM_SIZE_BOUND = 2**15


def check_system_size(order: int, rank: int, degree: int) -> None:
    """Refuse H^degree over a group of this order with rank-`rank` coefficients
    if its (order-1)^(degree+1) * rank cocycle conditions exceed the bound.

    That count is also the work of verifying one representative.
    """
    size = max(order - 1, 0) ** (degree + 1) * rank
    if size > SYSTEM_SIZE_BOUND:
        raise SizeBoundExceeded(
            f"H^{degree} over a group of order {order} with rank-{rank} coefficients has {size} "
            f"cocycle conditions, over the bound of {SYSTEM_SIZE_BOUND}"
        )


@dataclass(frozen=True)
class Cocycle1:
    """Value table of a map G -> U; the cocycle law is checked on demand."""

    module: GModule
    values: tuple[UElt, ...]

    def __post_init__(self):
        if len(self.values) != self.module.group.order:
            raise ValueError("need one value per group element")

    def __call__(self, g: int) -> UElt:
        return self.values[g]


@dataclass(frozen=True)
class Cocycle2:
    """Value table of a map G x G -> U."""

    module: GModule
    values: tuple[tuple[UElt, ...], ...]

    def __post_init__(self):
        n = self.module.group.order
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("need an n x n value table")

    def __call__(self, g: int, h: int) -> UElt:
        return self.values[g][h]

    def table(self) -> tuple[tuple[UElt, ...], ...]:
        return self.values


def verify_cocycle1(f: Cocycle1) -> bool:
    U, G = f.module, f.module.group
    return all(
        f(G.mul(s, t)) == U.add(f(s), U.act(s, f(t)))
        for s in G.elements()
        for t in G.elements()
    )


def verify_cocycle2(c: Cocycle2) -> bool:
    """Whether s c(t,g) = c(s,t) + c(st,g) - c(s,tg) for all s, t, g.

    One pass per coordinate k of U over plain integer tables, comparing
    modulo m_k, so the values need not be reduced.  Coordinate k of s c(t,g)
    is computed only where row k of the action matrix of s is not the unit
    row; a well-defined matrix keeps it exact on unreduced values.
    """
    U, G = c.module, c.module.group
    mul, r = G.table, U.rank
    coords = [[[v[k] for v in row] for row in c.values] for k in range(r)]
    units = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    for s, ms in enumerate(mul):
        mat = U.action_matrix(s)
        for k, m in enumerate(U.moduli):
            ck, cs = coords[k], coords[k][s]
            if mat[k] == units[k]:
                acted = ck
            else:
                terms = [(a, coords[j]) for j, a in enumerate(mat[k]) if a]
                acted = [
                    [sum(a * cj[t][g] for a, cj in terms) for g in range(G.order)]
                    for t in range(G.order)
                ]
            # coordinate k of s c(t,g) - c(s,t) - c(st,g) + c(s,tg), over g
            for t, (lhs, st) in enumerate(zip(acted, ms)):
                x = cs[t]
                if any((y - x - z + cs[tg]) % m for y, z, tg in zip(lhs, ck[st], mul[t])):
                    return False
    return True


def is_normalized(c: Cocycle2) -> bool:
    G = c.module.group
    zero = c.module.zero()
    return all(c(g, 0) == zero and c(0, g) == zero for g in G.elements())


def coboundary1(module: GModule, u: UElt) -> Cocycle1:
    """The principal 1-cocycle g |-> g(u) - u."""
    G = module.group
    u = module.reduce(u)
    return Cocycle1(module, tuple(module.sub(module.act(g, u), u) for g in G.elements()))


def coboundary2(module: GModule, b) -> Cocycle2:
    """d(b)(s,t) = b(s) + s(b(t)) - b(st) for a normalized 1-cochain b.

    Each value is computed in one pass over plain integers and reduced once,
    coordinate k as (b(s)[k] + sum_j mat_s[k][j] b(t)[j] - b(st)[k]) mod m_k.
    This is exact because every action matrix is well-defined modulo the
    moduli, the same argument verify_cocycle2 relies on.
    """
    G = module.group
    b = [module.reduce(x) for x in b]
    if len(b) != G.order:
        raise ValueError("need one cochain value per group element")
    if any(b[0]):
        raise ValueError("cochain must be normalized: b(1) = 0")
    moduli = module.moduli
    rows = []
    for s, ms in enumerate(G.table):
        bs, mat = b[s], module.action_matrix(s)
        rows.append(tuple(
            tuple(
                (x + sum(map(operator.mul, row, bt)) - y) % m
                for x, row, y, m in zip(bs, mat, b[st], moduli)
            )
            for bt, st in zip(b, ms)
        ))
    return Cocycle2(module, tuple(rows))


def shift_by_coboundary(c: Cocycle2, b) -> Cocycle2:
    """c'(s,t) = b(s) + s(b(t)) - b(st) + c(s,t); same cohomology class."""
    db = coboundary2(c.module, b)
    U, G = c.module, c.module.group
    rows = tuple(
        tuple(U.add(db(s, t), c(s, t)) for t in G.elements()) for s in G.elements()
    )
    return Cocycle2(U, rows)


def add_cocycles(c1: Cocycle2, c2: Cocycle2) -> Cocycle2:
    U, G = c1.module, c1.module.group
    rows = tuple(
        tuple(U.add(c1(s, t), c2(s, t)) for t in G.elements()) for s in G.elements()
    )
    return Cocycle2(U, rows)


def central_extension(c: Cocycle2) -> Group:
    """The extension group on U x G with multiplication twisted by c.

    Element (u, s) is index(u) * |G| + s, and (u1, s1)(u2, s2) is
    (u1 + s1 u2 + c(s1, s2), s1 s2).  U is enumerated once; the table is
    filled by lookups in three index tables: addition on U, the action of
    G on U and the values of c.  An extension of order |G|*|U| past 182, the
    largest order a `.net` group may have, raises SizeBoundExceeded before
    anything is built.
    """
    U, G = c.module, c.module.group
    check_system_size(G.order * math.prod(U.moduli), 1, 1)
    if not is_normalized(c):
        raise ValueError("extension needs a normalized cocycle")
    if not verify_cocycle2(c):
        raise ValueError("not a 2-cocycle")
    u_elems = list(U.elements())
    u_index = {u: i for i, u in enumerate(u_elems)}
    n = G.order
    add = [[u_index[U.add(u, v)] for v in u_elems] for u in u_elems]
    act = [[u_index[U.act(s, u)] for u in u_elems] for s in G.elements()]
    val = [[u_index[U.reduce(v)] for v in row] for row in c.values]
    table = []
    for add_u1 in add:
        for act_s1, val_s1, mul_s1 in zip(act, val, G.table):
            row = []
            for s1u2 in act_s1:
                add_u = add[add_u1[s1u2]]
                row += [add_u[x] * n + st for x, st in zip(val_s1, mul_s1)]
            table.append(row)
    return Group(table)


# ---------------------------------------------------------------------------
# Integer Smith normal form with unimodular transforms.


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Return (D, S, T, Sinv, Tinv) with S*A*T = D diagonal, S,T unimodular."""
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    S, Sinv = _identity(m), _identity(m)
    T, Tinv = _identity(n), _identity(n)

    def row_add(i, j, q):  # R_i += q R_j
        A[i] = [a + q * b for a, b in zip(A[i], A[j])]
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]
        for r in range(m):  # Sinv: C_j -= q C_i
            Sinv[r][j] -= q * Sinv[r][i]

    def col_add(j, i, q):  # C_j += q C_i
        for r in range(m):
            A[r][j] += q * A[r][i]
        for r in range(n):
            T[r][j] += q * T[r][i]
        Tinv[i] = [a - q * b for a, b in zip(Tinv[i], Tinv[j])]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        S[i], S[j] = S[j], S[i]
        for r in range(m):
            Sinv[r][i], Sinv[r][j] = Sinv[r][j], Sinv[r][i]

    def col_swap(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            T[r][i], T[r][j] = T[r][j], T[r][i]
        Tinv[i], Tinv[j] = Tinv[j], Tinv[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        S[i] = [-a for a in S[i]]
        for r in range(m):
            Sinv[r][i] = -Sinv[r][i]

    k = 0
    while k < min(m, n):
        # find a pivot
        piv = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < best):
                    piv, best = (i, j), abs(A[i][j])
        if piv is None:
            break
        row_swap(k, piv[0])
        col_swap(k, piv[1])
        while True:
            if A[k][k] < 0:
                row_neg(k)
            done = True
            for i in range(k + 1, m):
                if A[i][k] % A[k][k] != 0:
                    row_add(i, k, -(A[i][k] // A[k][k]))
                    row_swap(i, k)
                    done = False
                    break
            if not done:
                continue
            for j in range(k + 1, n):
                if A[k][j] % A[k][k] != 0:
                    col_add(j, k, -(A[k][j] // A[k][k]))
                    col_swap(j, k)
                    done = False
                    break
            if not done:
                continue
            for i in range(k + 1, m):
                if A[i][k]:
                    row_add(i, k, -(A[i][k] // A[k][k]))
            for j in range(k + 1, n):
                if A[k][j]:
                    col_add(j, k, -(A[k][j] // A[k][k]))
            # divisibility condition d_k | everything below-right
            bad = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if A[i][j] % A[k][k] != 0:
                        bad = (i, j)
                        break
                if bad:
                    break
            if bad is None:
                break
            row_add(k, bad[0], 1)
        k += 1
    return A, S, T, Sinv, Tinv


def integer_kernel(mat) -> list[list[int]]:
    """Basis (as column vectors) of the integer kernel of mat."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    D, _, T, _, _ = smith_normal_form(mat)
    rank = sum(1 for i in range(min(m, n)) if D[i][i] != 0)
    return [[T[r][j] for r in range(n)] for j in range(rank, n)]


# ---------------------------------------------------------------------------
# Echelon form modulo L, on sparse rows {column: entry}.


def _combine(s: int, a: dict[int, int], t: int, b: dict[int, int], L: int) -> dict[int, int]:
    """s*a + t*b modulo L, without zero entries."""
    out = {k: x for k, v in a.items() if (x := s * v % L)}
    for k, v in b.items():
        x = (out.get(k, 0) + t * v) % L
        if x:
            out[k] = x
        else:
            out.pop(k, None)
    return out


def _echelon_mod(rows, L: int, N: int) -> list[dict[int, int]]:
    """Upper-triangular basis H of the lattice spanned by ``rows`` and L*Z^N.

    Row j of H has no entries left of column j, a positive divisor of L on
    the diagonal and entries in [1, L) right of it.  Because L*Z^N lies in
    the lattice, every step may reduce modulo L (Storjohann-Mulders): H
    starts as L*I, and a row meeting a pivot is merged with it by an
    extended gcd, a unimodular step on the pair.  Each merge sends the part
    of the row that the new pivot row leaves over to the rows below, and that
    part carries the new row's annihilator (L/p)*H[j] mod L with it.  So the
    annihilators stay in the span of the rows below, the integer span of H
    contains L*Z^N, and it equals the lattice, not only modulo L.
    """
    H = [{j: L} for j in range(N)]

    def absorb(a: dict[int, int]) -> None:
        while a:
            j = min(a)
            h, p, x = H[j], H[j][j], a[j]
            if x % p == 0:
                a = _combine(1, a, -(x // p), h, L)
                continue
            g = math.gcd(p, x)
            t = pow(x // g, -1, p // g)  # s*p + t*x == g
            s = (g - t * x) // p
            H[j], a = _combine(s, h, t, a, L), _combine(p // g, a, -(x // g), h, L)

    for row in rows:
        absorb(_combine(1, row, 0, {}, L))
    return H


def _reduce(H: list[dict[int, int]], v: dict[int, int], L: int) -> dict[int, int]:
    """What is left of v after subtracting rows of an ``_echelon_mod`` basis H.

    The result is empty exactly when v lies in the lattice that H spans.
    """
    v = _combine(1, v, 0, {}, L)
    while v:
        j = min(v)
        q, rem = divmod(v[j], H[j][j])
        if rem:
            break
        v = _combine(1, v, -q, H[j], L)
    return v


# ---------------------------------------------------------------------------
# The solver.


def _delta_rows(U: GModule, k: int, firsts) -> list[dict[int, int]]:
    """Rows of the coboundary C^k -> C^(k+1) on normalized cochains.

    One row per argument tuple (s, g_1, ..., g_k), s in ``firsts`` and each
    g_i a nonidentity element, and per coordinate of U, in that order.  A row
    holds the coefficients of d(f)(s, g_1, ..., g_k) = s f(g_1, ...) -
    f(s g_1, ...) + ... on the unknowns f(cell)[coord], numbered
    cell_index * rank + coord over the nonidentity cells in ``product`` order.
    """
    G = U.group
    n, r = G.order, U.rank
    index = {cell: i * r for i, cell in enumerate(product(range(1, n), repeat=k))}
    rows = []
    for s in firsts:
        mat = U.action_matrix(s)
        for rest in product(range(1, n), repeat=k):
            args = (s,) + rest
            terms = [
                (args[:i] + (G.mul(args[i], args[i + 1]),) + args[i + 2:], (-1) ** (i + 1))
                for i in range(k)
            ] + [(args[:k], (-1) ** (k + 1))]
            for coord in range(r):
                row = {index[rest] + j: a for j, a in enumerate(mat[coord]) if a}
                for cell, sign in terms:
                    if cell in index:  # a cell with an identity argument is zero
                        var = index[cell] + coord
                        row[var] = row.get(var, 0) + sign
                rows.append({var: a for var, a in row.items() if a})
    return rows


def _coboundary_lattice(U: GModule, degree: int) -> list[dict[int, int]]:
    """Generators of B + M: the vectors m_k e_k, m_k the modulus of unknown k,
    then the coboundaries of the unit (degree-1)-cochains."""
    n, r = U.group.order, U.rank
    cob: list[dict[int, int]] = [{} for _ in range((n - 1) ** (degree - 1) * r)]
    for i, row in enumerate(_delta_rows(U, degree - 1, range(1, n))):
        for var, a in row.items():
            cob[var][i] = a
    return [{k: U.moduli[k % r]} for k in range((n - 1) ** degree * r)] + cob


def _cohomology(U: GModule, degree: int, N: int):
    """Invariant factors and cocycle vectors of H^degree = Z / (B + M).

    Z is the lattice of integer cochain vectors that are cocycles modulo the
    moduli, B the coboundaries and M the vectors zero modulo the moduli.
    """
    G, r = U.group, U.rank
    L = math.lcm(*U.moduli)
    # Z = {x : rows . x == 0 mod L} = L * H^-1 Z^N, H the echelon basis of
    # the rows scaled to L and L*Z^N.  Only rows whose first argument is a
    # generator are needed: by d(dc) = 0, the first arguments for which the
    # cocycle law holds are closed under products.  Taken last first, the
    # rows keep the pivot rows sparse.
    rows = _delta_rows(U, degree, G.generators)
    scaled = [
        {var: a * (L // U.moduli[i % r]) for var, a in row.items()} for i, row in enumerate(rows)
    ]
    H = _echelon_mod(reversed(scaled), L, N)
    # The generators g of B + M have coordinates H g / L in that basis of Z,
    # so H^degree = Z^N / span(Q) with Q their echelon basis.
    cols: list[dict[int, int]] = [{} for _ in range(N)]
    for i, h in enumerate(H):
        for k, a in h.items():
            cols[k][i] = a
    coords = []
    for g in _coboundary_lattice(U, degree):
        acc: dict[int, int] = {}
        for k, a in g.items():
            for i, b in cols[k].items():
                acc[i] = acc.get(i, 0) + a * b
        coords.append({i: v // L for i, v in acc.items()})
    Q = _echelon_mod(coords, L, N)
    # A unit pivot eliminates its coordinate, so the quotient is Z^J /
    # span(small) on the other pivot columns J, once the unit columns are
    # cleared from their rows.
    J = [j for j in range(N) if Q[j][j] > 1]
    if not J:
        return [], []
    small = []
    for i in J:
        row = Q[i]
        for j in range(i + 1, N):
            if j in row and Q[j][j] == 1:
                row = _combine(1, row, -row[j], Q[j], L)
        small.append([row.get(j, 0) for j in J])
    D, _, _, _, Tinv = smith_normal_form(small)
    # Generator m of Z^J / span(small) is row m of Tinv; its cocycle x
    # solves H x = L z.  Back-substitution modulo L * det(H) keeps every
    # division exact and moves x only by L*Z^N, which lies in M.
    K = L * math.prod(H[i][i] for i in range(N))
    factors, vecs = [], []
    for m in range(len(J)):
        if D[m][m] == 1:
            continue
        z = dict(zip(J, Tinv[m]))
        x = [0] * N
        for i in range(N - 1, -1, -1):
            acc_i = L * z.get(i, 0) - sum(a * x[k] for k, a in H[i].items() if k != i)
            x[i] = acc_i // H[i][i] % K
        factors.append(D[m][m])
        vecs.append(x)
    return factors, vecs


def _to_cochain(U: GModule, degree: int, vec):
    G, r = U.group, U.rank
    cells = product(range(1, G.order), repeat=degree)
    values = {cell: U.reduce(vec[i * r:(i + 1) * r]) for i, cell in enumerate(cells)}
    if degree == 1:
        return Cocycle1(U, tuple(values.get((g,), U.zero()) for g in G.elements()))
    return Cocycle2(U, tuple(
        tuple(values.get((g, h), U.zero()) for h in G.elements()) for g in G.elements()
    ))


def h_solver(G: Group, U: GModule, degree: int):
    """Invariant factors and representative cocycles of H^degree(G, U).

    Works with normalized cochains.  Returns (factors, representatives);
    factors exclude trivial 1s.  Raises SizeBoundExceeded past
    SYSTEM_SIZE_BOUND (see check_system_size).
    """
    if U.group is not G:
        raise ValueError("module must be over the given group")
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    check_system_size(G.order, U.rank, degree)
    N = (G.order - 1) ** degree * U.rank
    if N == 0:
        return [], []
    factors, vecs = _cohomology(U, degree, N)
    reps = [_to_cochain(U, degree, vec) for vec in vecs]
    verify = verify_cocycle2 if degree == 2 else verify_cocycle1
    if not all(verify(rep) for rep in reps):
        raise RuntimeError(f"h_solver built a representative that is not a {degree}-cocycle")
    return factors, reps


def is_coboundary2(c: Cocycle2) -> bool:
    """Whether c is d(b) for some normalized 1-cochain b."""
    U = c.module
    G = U.group
    check_system_size(G.order, U.rank, 2)
    N = (G.order - 1) ** 2 * U.rank
    L = math.lcm(*U.moduli)
    H = _echelon_mod(_coboundary_lattice(U, 2), L, N)
    cells = product(range(1, G.order), repeat=2)
    target = {i * U.rank + k: x for i, (g, h) in enumerate(cells) for k, x in enumerate(c(g, h))}
    return not _reduce(H, target, L)


def h_exhaustive(G: Group, U: GModule):
    """Brute-force H^2 for small cases: (order, element-order multiset)."""
    n = G.order
    pairs = [(g, h) for g in range(1, n) for h in range(1, n)]
    space = U.size() ** len(pairs)
    if space > 2**20:
        raise SizeBoundExceeded(f"search space {space} exceeds 2^20")
    u_elems = list(U.elements())

    def tables():
        for combo in product(u_elems, repeat=len(pairs)):
            tab = [[U.zero()] * n for _ in range(n)]
            for (g, h), val in zip(pairs, combo):
                tab[g][h] = val
            yield Cocycle2(U, tuple(tuple(row) for row in tab))

    cocycles = [c for c in tables() if verify_cocycle2(c)]
    cob = set()
    for combo in product(u_elems, repeat=n - 1):
        b = [U.zero()] + list(combo)
        cob.add(coboundary2(U, b).table())
    order = len(cocycles) // len(cob)

    # one representative per coset; class order = least k with k*c a coboundary
    orders = []
    seen: set = set()
    for c in cocycles:
        key = min(
            tuple(
                tuple(tuple(U.add(c(g, h), db[g][h]) for h in range(n)) for g in range(n))
                for db in cob
            )
        )
        if key in seen:
            continue
        seen.add(key)
        k = 1
        acc = c
        while acc.table() not in cob:
            acc = add_cocycles(acc, c)
            k += 1
        orders.append(k)
    orders.sort()
    return order, tuple(orders)
