import math
import time
from itertools import product

import pytest

from entronet.groupnet.cohomology import (
    SYSTEM_SIZE_BOUND,
    Cocycle1,
    Cocycle2,
    SizeBoundExceeded,
    _echelon_mod,
    _reduce,
    central_extension,
    check_system_size,
    coboundary1,
    coboundary2,
    h_exhaustive,
    h_solver,
    is_coboundary2,
    is_normalized,
    shift_by_coboundary,
    smith_normal_form,
    verify_cocycle1,
    verify_cocycle2,
)
from entronet.groupnet.catalog import carry, witt
from entronet.groupnet.groups import GModule, Group, GroupValidationError
from entronet.sampling import random_gmodule, random_normalized_cocycle, seeded_rng


# -- groups and modules ---------------------------------------------------------


def test_group_constructors():
    assert Group.cyclic(6).order == 6
    assert Group.cyclic(6).is_abelian()
    v4 = Group.direct_product(Group.cyclic(2), Group.cyclic(2))
    assert v4.order == 4 and sorted(v4.element_orders) == [1, 2, 2, 2]
    aff = Group.aff1_mod_p(3)
    assert aff.order == 6 and not aff.is_abelian()
    assert sorted(aff.element_orders) == sorted([1, 3, 3, 2, 2, 2])


def test_group_validation():
    with pytest.raises(GroupValidationError):
        Group([[0, 1], [0, 1]])
    with pytest.raises(GroupValidationError):
        Group([[1, 0], [0, 1]])
    # a magma with an identity that is not associative
    with pytest.raises(GroupValidationError):
        Group(
            [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ]
        )
    # empty, not square, ragged, not a table, not integers
    for table in ([], [[0, 1]], [[0, 1], [1]], [0, 1], [[0, 1.5], [1, 0]], [[0, "1"], [1, 0]]):
        with pytest.raises(GroupValidationError):
            Group(table)


def test_module_action_validation():
    G = Group.cyclic(2)
    with pytest.raises(GroupValidationError):
        GModule(G, (4,), {0: [[1]], 1: [[2]]})  # 2 is not invertible mod 4
    ok = GModule(G, (4,), {0: [[1]], 1: [[3]]})
    assert ok.act(1, (1,)) == (3,)
    with pytest.raises(GroupValidationError):
        GModule(G, (3,), {0: [[1]], 1: [[1]], 2: [[1]]})
    # validation never enumerates the module's 10^9 elements
    start = time.perf_counter()
    GModule.trivial(G, (10**9,))
    GModule(G, (10**9,), {0: [[1]], 1: [[10**9 - 1]]})
    assert time.perf_counter() - start < 1.0


def _valid_action(G, moduli, action) -> bool:
    """Oracle: well-defined matrices, a trivial identity, and the homomorphism
    law act(gh) = act(g) act(h) for all |G|^2 pairs, on every basis vector."""
    r = len(moduli)

    def act(g, u):
        return tuple(sum(action[g][i][j] * u[j] for j in range(r)) % moduli[i] for i in range(r))

    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    if any(action[g][i][j] * moduli[j] % moduli[i] for g in action for i in range(r)
           for j in range(r)):
        return False
    if any(act(0, u) != u for u in basis):
        return False
    return all(act(G.mul(g, h), u) == act(g, act(h, u))
               for g, h in product(G.elements(), repeat=2) for u in basis)


def _candidate_actions(rng, G):
    """Seeded action tables over G: words in random generator matrices (some
    valid), the same with one entry changed, and tables drawn entry by entry;
    for the regular permutation action, it and its transpose (an
    anti-homomorphism, so valid only when G is abelian)."""
    words = {0: []}  # a word in G.generators for each element
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for i, s in enumerate(G.generators):
            y = G.mul(x, s)
            if y not in words:
                words[y] = words[x] + [i]
                frontier.append(y)
    out = []
    for _ in range(60):
        moduli = rng.choice([(2,), (3,), (4,), (5,), (2, 2), (3, 3), (2, 4)])
        r = len(moduli)
        eye = [[int(i == j) for j in range(r)] for i in range(r)]
        mats = [[[rng.randrange(max(moduli)) for _ in range(r)] for _ in range(r)]
                for _ in G.generators]
        action = {}
        for g, word in words.items():
            acc = eye
            for i in word:
                acc = [[sum(acc[a][k] * mats[i][k][b] for k in range(r)) % moduli[a]
                        for b in range(r)] for a in range(r)]
            action[g] = acc
        out.append((moduli, action))
        changed = {g: [row[:] for row in m] for g, m in action.items()}
        g = rng.randrange(1, G.order)
        i, j = rng.randrange(r), rng.randrange(r)
        changed[g][i][j] = (changed[g][i][j] + rng.randrange(1, moduli[i])) % moduli[i]
        out.append((moduli, changed))
        drawn = {g: [[rng.randrange(max(moduli)) for _ in range(r)] for _ in range(r)]
                 for g in G.elements()}
        drawn[0] = eye
        out.append((moduli, drawn))
    n = G.order
    regular = {g: [[int(G.mul(g, x) == y) for x in range(n)] for y in range(n)]
               for g in G.elements()}
    out.append(((2,) * n, regular))
    out.append(((3,) * n, {g: [list(col) for col in zip(*m)] for g, m in regular.items()}))
    return out


def test_module_check_matches_all_pairs():
    # the module checks the law only against Light's generators of the group
    rng = seeded_rng(311)
    c2 = Group.cyclic(2)
    verdicts = []
    for G in (Group.cyclic(4), Group.direct_product(c2, c2), Group.aff1_mod_p(3)):
        for moduli, action in _candidate_actions(rng, G):
            try:
                GModule(G, moduli, action)
                accepted = True
            except GroupValidationError:
                accepted = False
            assert accepted == _valid_action(G, moduli, action), (G.order, moduli, action)
            verdicts.append(accepted)
    assert verdicts.count(True) > 40 and verdicts.count(False) > 200


# -- cochains ---------------------------------------------------------------------


def test_zero_cochains_verify():
    G = Group.cyclic(4)
    U = GModule.trivial(G, (3,))
    z1 = Cocycle1(U, tuple(U.zero() for _ in G.elements()))
    z2 = Cocycle2(U, tuple(tuple(U.zero() for _ in G.elements()) for _ in G.elements()))
    assert verify_cocycle1(z1) and verify_cocycle2(z2) and is_normalized(z2)


def test_coboundary1_examples():
    G = Group.cyclic(3)
    U = GModule(G, (3,), {0: [[1]], 1: [[1]], 2: [[1]]})
    assert coboundary1(U, (0,)).values == ((0,), (0,), (0,))
    # nontrivial action: the sign involution on z5 under a two-element group
    G2 = Group.cyclic(2)
    U2 = GModule(G2, (5,), {0: [[1]], 1: [[4]]})
    f = coboundary1(U2, (1,))
    assert verify_cocycle1(f)
    assert f(1) == (3,)  # 4*1 - 1


def test_coboundary2_trivial_action_formula():
    G = Group.cyclic(4)
    U = GModule.trivial(G, (5,))
    rng = seeded_rng(301)
    b = [U.zero()] + [(rng.randrange(5),) for _ in range(3)]
    c = coboundary2(U, b)
    assert verify_cocycle2(c) and is_normalized(c)
    for s in G.elements():
        for t in G.elements():
            want = (b[s][0] + b[t][0] - b[G.mul(s, t)][0]) % 5
            assert c(s, t) == (want,)


def test_coboundary2_rejects_unnormalized():
    G = Group.cyclic(2)
    U = GModule.trivial(G, (2,))
    with pytest.raises(ValueError):
        coboundary2(U, [(1,), (0,)])


def test_random_coboundaries_are_cocycles():
    rng = seeded_rng(302)
    for G in (Group.cyclic(5), Group.aff1_mod_p(3)):
        for _ in range(20):
            U = GModule.trivial(G, (rng.choice([2, 3, 4]),))
            c = random_normalized_cocycle(rng, U)
            assert verify_cocycle2(c) and is_normalized(c)


def test_co_symm_relation():
    rng = seeded_rng(303)
    for G in (Group.cyclic(6), Group.aff1_mod_p(3)):
        U = GModule.trivial(G, (4,))
        for _ in range(10):
            c = random_normalized_cocycle(rng, U)
            for s in G.elements():
                assert c(s, G.inv(s)) == U.act(s, c(G.inv(s), s))


# -- central extensions --------------------------------------------------------


def test_extension_of_zero_cocycle_is_product():
    G = Group.cyclic(3)
    U = GModule.trivial(G, (2,))
    zero = Cocycle2(U, tuple(tuple(U.zero() for _ in G.elements()) for _ in G.elements()))
    T = central_extension(zero)
    assert T.order == 6
    assert sorted(T.element_orders) == sorted(
        Group.direct_product(Group.cyclic(2), Group.cyclic(3)).element_orders
    )


def test_carry_extension_digits():
    T = central_extension(carry(10))
    n = 10
    # the pair (value 7) times (value 5) carries into (1, 2)
    assert divmod(T.mul(7, 5), n) == (1, 2)
    assert max(T.element_orders) == 100


def test_shift_preserves_extension_profile():
    rng = seeded_rng(304)
    for n in (3, 4, 6):
        c = carry(n)
        U = c.module
        for _ in range(5):
            b = [U.zero()] + [(rng.randrange(n),) for _ in range(n - 1)]
            c2 = shift_by_coboundary(c, b)
            assert verify_cocycle2(c2)
            t1, t2 = central_extension(c), central_extension(c2)
            assert t1.order_profile() == t2.order_profile()


# -- smith normal form ------------------------------------------------------------


def test_snf_transform_and_diagonal():
    """Oracles that share no code with smith_normal_form: Tinv is unimodular
    (sympy's determinant), the rows of D*Tinv span the row lattice of A
    (sympy's Hermite normal forms of the transposes agree), and D is diagonal
    with each nonzero entry dividing the next."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    rng = seeded_rng(305)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1])]  # force a rank drop
        D, Tinv = smith_normal_form(A)
        assert abs(sympy.Matrix(Tinv).det()) == 1
        rows = sympy.Matrix(D) * sympy.Matrix(Tinv)
        assert hermite_normal_form(rows.T) == hermite_normal_form(sympy.Matrix(A).T)
        assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
        diag = [D[i][i] for i in range(min(m, n))]
        rank = sum(1 for d in diag if d)
        assert all(d > 0 for d in diag[:rank]) and not any(diag[rank:])
        assert all(b % a == 0 for a, b in zip(diag[:rank], diag[1:rank]))


# -- the solver --------------------------------------------------------------------


def test_h2_of_klein_group():
    G = Group.direct_product(Group.cyclic(2), Group.cyclic(2))
    U = GModule.trivial(G, (2,))
    factors, reps = h_solver(G, U, 2)
    assert factors == [2, 2, 2]
    for rep in reps:
        assert verify_cocycle2(rep) and is_normalized(rep)
        assert not is_coboundary2(rep)


def test_h2_matches_exhaustive_small():
    cases = [
        (Group.cyclic(2), (2,)),
        (Group.cyclic(2), (3,)),
        (Group.cyclic(3), (3,)),
    ]
    for G, moduli in cases:
        U = GModule.trivial(G, moduli)
        factors, _ = h_solver(G, U, 2)
        order = math.prod(factors) if factors else 1
        ex_order, _ = h_exhaustive(G, U)
        assert order == ex_order


def test_h2_carry_class_is_the_generator():
    G = Group.cyclic(2)
    U = GModule.trivial(G, (2,))
    factors, reps = h_solver(G, U, 2)
    assert factors == [2]
    # same class as carry(2): the difference is a coboundary
    diff_table = tuple(
        tuple(U.sub(reps[0](g, h), carry(2)(g, h)) for h in G.elements()) for g in G.elements()
    )
    assert is_coboundary2(Cocycle2(U, diff_table))


def test_h1_trivial_when_coprime():
    for n, m in ((2, 3), (3, 4), (4, 9)):
        G = Group.cyclic(n)
        U = GModule.trivial(G, (m,))
        factors, _ = h_solver(G, U, 1)
        assert factors == []


def test_h1_cyclic_trivial_action():
    # Hom(Z/n, Z/m) has order gcd(n, m); trivial action kills coboundaries
    for n, m in ((2, 2), (4, 6), (6, 4)):
        G = Group.cyclic(n)
        U = GModule.trivial(G, (m,))
        factors, reps = h_solver(G, U, 1)
        order = math.prod(factors) if factors else 1
        assert order == math.gcd(n, m)
        for rep in reps:
            assert verify_cocycle1(rep)


def test_h2_with_nontrivial_action():
    # scaling action of a two-element group by -1 on z5: H^2 vanishes
    G = Group.cyclic(2)
    U = GModule(G, (5,), {0: [[1]], 1: [[4]]})
    factors, _ = h_solver(G, U, 2)
    assert factors == []


def test_h2_multi_component_module():
    G = Group.cyclic(2)
    U = GModule.trivial(G, (2, 2))
    factors, _ = h_solver(G, U, 2)
    assert factors == [2, 2]


def test_size_bound():
    G = Group.cyclic(65)
    U = GModule.trivial(G, (2,))
    with pytest.raises(SizeBoundExceeded):
        h_solver(G, U, 2)
    with pytest.raises(SizeBoundExceeded):
        h_exhaustive(Group.cyclic(6), GModule.trivial(Group.cyclic(6), (6,)))
    # order 33 is the last within the bound for H^2 with one modulus
    assert 32**3 <= SYSTEM_SIZE_BOUND < 33**3
    check_system_size(33, 1, 2)
    G = Group.cyclic(34)
    with pytest.raises(SizeBoundExceeded):
        h_solver(G, GModule.trivial(G, (2,)), 2)
    with pytest.raises(SizeBoundExceeded):
        is_coboundary2(Cocycle2(GModule.trivial(G, (2,)), ((((0,),) * 34),) * 34))


_REJECTED_REPRESENTATIVES = """
from entronet.groupnet import cohomology
from entronet.groupnet.groups import GModule, Group

G = Group.cyclic(2)
U = GModule.trivial(G, (2,))
for degree, name in ((1, "verify_cocycle1"), (2, "verify_cocycle2")):
    setattr(cohomology, name, lambda rep: False)
    try:
        cohomology.h_solver(G, U, degree)
    except RuntimeError as exc:
        print("refused:", exc)
    else:
        raise SystemExit(f"h_solver returned unchecked degree-{degree} representatives")
"""


def test_solver_self_check_without_asserts():
    """The solver checks its representatives also under ``python -O``."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-O", "-c", _REJECTED_REPRESENTATIVES],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr + run.stdout
    assert run.stdout.count("refused:") == 2


# -- oracles: sympy normal forms, exhaustive search, closed forms ----------------


def _orders(factors) -> tuple[int, ...]:
    """Element-order multiset of the direct sum of Z/f for f in factors."""
    return tuple(sorted(
        math.lcm(*(f // math.gcd(x, f) for x, f in zip(elem, factors)))
        for elem in product(*(range(f) for f in factors))
    ))


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = seeded_rng(306)
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if m > 1 and rng.random() < 0.3:
            A[-1] = [2 * x - y for x, y in zip(A[0], A[1 % m])]  # force a rank drop
        D = smith_normal_form(A)[0]
        ours = [D[i][i] for i in range(min(m, n)) if D[i][i]]
        want = [int(d) for d in invariant_factors(sympy.Matrix(A)) if d]
        assert ours == want


def test_echelon_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = seeded_rng(307)
    for _ in range(300):
        m, N, L = rng.randint(0, 8), rng.randint(1, 8), rng.choice([1, 2, 4, 6, 8, 12, 30])
        A = [[rng.randint(-12, 12) * (rng.random() < 0.5) for _ in range(N)] for _ in range(m)]
        H = _echelon_mod([{k: a for k, a in enumerate(row) if a} for row in A], L, N)
        dense = [[H[i].get(k, 0) for k in range(N)] for i in range(N)]
        for i, row in enumerate(dense):
            assert all(x == 0 for x in row[:i]) and L % row[i] == 0
            assert all(0 <= x < L for x in row[i + 1:])
        stacked = sympy.Matrix(A or sympy.zeros(0, N)).col_join(L * sympy.eye(N))
        assert invariant_factors(sympy.Matrix(dense)) == invariant_factors(stacked)
        # same index, and every generator lies in the span of H: same lattice
        for row in A + [[L if k == j else 0 for k in range(N)] for j in range(N)]:
            assert not _reduce(H, {k: a for k, a in enumerate(row) if a}, L)


def _assert_matches_exhaustive(G, U):
    factors, reps = h_solver(G, U, 2)
    assert h_exhaustive(G, U) == (math.prod(factors), _orders(factors))
    for rep in reps:
        assert verify_cocycle2(rep) and not is_coboundary2(rep)


def _random_module(rng, G, gens):
    """A seeded random module over G with a nontrivial action: moduli, and one
    matrix per generator, redrawn until the action is valid and nontrivial."""
    words = {0: []}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for i, s in enumerate(gens):
            y = G.mul(x, s)
            if y not in words:
                words[y] = words[x] + [i]
                frontier.append(y)
    while True:
        moduli = rng.choice([(3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 3), (3, 3)])
        r = len(moduli)
        mats = [[[rng.randrange(max(moduli)) for _ in range(r)] for _ in range(r)] for _ in gens]
        action = {}
        for g, word in words.items():
            acc = [[int(i == j) for j in range(r)] for i in range(r)]
            for i in word:
                acc = [
                    [sum(acc[a][k] * mats[i][k][b] for k in range(r)) % moduli[a] for b in range(r)]
                    for a in range(r)
                ]
            action[g] = acc
        try:
            U = GModule(G, moduli, action)
        except GroupValidationError:
            continue
        if any(U.action_matrix(g) != U.action_matrix(0) for g in words):
            return U


# Exhaustive search spaces are kept to 2^15 tables; the seeded draws below
# depend on this cap.  On index tables one of 2^18 (C2 x C2 with Z/4) takes
# about 0.15 s to enumerate on a 2-vCPU host.
EXHAUSTIVE_CAP = 2**15


def test_h2_differential_against_exhaustive():
    rng = seeded_rng(308)
    c2, c3 = Group.cyclic(2), Group.cyclic(3)
    v4 = Group.direct_product(c2, c2)
    for G, moduli in ((c2, (2, 4)), (c3, (2, 3))):  # mixed moduli
        _assert_matches_exhaustive(G, GModule.trivial(G, moduli))
    for G, gens, draws in ((c2, [1], 5), (c3, [1], 5), (v4, [1, 2], 1)):
        for _ in range(6):
            U = random_gmodule(rng, G)
            if U.size() ** ((G.order - 1) ** 2) <= EXHAUSTIVE_CAP:
                _assert_matches_exhaustive(G, U)
        while draws:
            U = _random_module(rng, G, gens)
            if U.size() ** ((G.order - 1) ** 2) <= EXHAUSTIVE_CAP:
                _assert_matches_exhaustive(G, U)
                draws -= 1


def test_h2_gcd_law():
    for n in range(1, 11):
        G = Group.cyclic(n)
        for m in range(1, 11):
            factors, reps = h_solver(G, GModule.trivial(G, (m,)), 2)
            g = math.gcd(n, m)
            assert factors == ([] if g == 1 else [g])
            for rep in reps:
                assert verify_cocycle2(rep) and not is_coboundary2(rep)


def test_h1_trivial_module_is_hom():
    v4 = Group.direct_product(Group.cyclic(2), Group.cyclic(2))
    groups = [Group.cyclic(n) for n in (2, 3, 4, 6)] + [v4, Group.aff1_mod_p(3)]
    for G in groups:
        for moduli in ((2,), (3,), (4,), (6,), (2, 2), (2, 3)):
            U = GModule.trivial(G, moduli)
            factors, reps = h_solver(G, U, 1)
            homs, pairs = [], list(product(G.elements(), repeat=2))
            for values in product(list(U.elements()), repeat=G.order - 1):
                f = (U.zero(),) + values
                if all(f[G.mul(s, t)] == U.add(f[s], f[t]) for s, t in pairs):
                    homs.append(math.lcm(*(U.element_order(u) for u in f)))
            assert (math.prod(factors), _orders(factors)) == (len(homs), tuple(sorted(homs)))
            for rep in reps:
                assert verify_cocycle1(rep)


# -- Light's test, central extensions and verify_cocycle2 against references ------


def _associative(t) -> bool:
    n = len(t)
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in range(n) for y in range(n) for z in range(n))


def _random_loop(rng, n):
    """A seeded random Latin square with identity at 0, filled cell by cell."""
    t = [[j if i == 0 else i if j == 0 else None for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(t[i][:j]) | {t[r][j] for r in range(i)}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    return t


def _relabel(t, perm):
    """The table of the same structure with element i renamed perm[i]."""
    out = [[None] * len(t) for _ in t]
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            out[perm[i]][perm[j]] = perm[x]
    return out


def _constructed_groups():
    c2, c3, c4 = Group.cyclic(2), Group.cyclic(3), Group.cyclic(4)
    return [Group.cyclic(n) for n in range(1, 13)] + [
        Group.direct_product(c2, c2),
        Group.direct_product(c2, c4),
        Group.direct_product(c3, c3),
        Group.direct_product(Group.aff1_mod_p(3), c2),
        Group.aff1_mod_p(3),
        Group.aff1_mod_p(5),
        Group.aff1_mod_p(7),
    ]


def test_light_test_matches_brute_force():
    rng = seeded_rng(309)
    tables = [_random_loop(rng, n) for n in range(1, 8) for _ in range(40)]
    for G in _constructed_groups():
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        tables.append(_relabel(G.table, perm))
    verdicts = []
    for t in tables:
        try:
            Group(t)
            accepted = True
        except GroupValidationError as exc:
            assert "associative" in str(exc)
            accepted = False
        assert accepted == _associative(t)
        verdicts.append(accepted)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 50
    for G in _constructed_groups() + [central_extension(carry(n)) for n in range(2, 9)]:
        assert _associative(G.table)


def _reference_extension(c):
    """The extension table of c, cell by cell from U.add and U.act."""
    U, G = c.module, c.module.group
    elems = list(U.elements())
    index = {u: i for i, u in enumerate(elems)}
    n = G.order
    table = [[None] * (n * len(elems)) for _ in range(n * len(elems))]
    for iu, u1 in enumerate(elems):
        for s1 in G.elements():
            for ju, u2 in enumerate(elems):
                for s2 in G.elements():
                    u = U.add(U.add(u1, U.act(s1, u2)), U.reduce(c(s1, s2)))
                    table[iu * n + s1][ju * n + s2] = index[u] * n + G.mul(s1, s2)
    return tuple(tuple(row) for row in table)


def _reference_verify2(c) -> bool:
    U, G = c.module, c.module.group
    return all(
        U.act(s, c(t, g)) == U.sub(U.add(c(s, t), c(G.mul(s, t), g)), c(s, G.mul(t, g)))
        for s, t, g in product(G.elements(), repeat=3)
    )


def _unreduced(rng, c):
    """c with random multiples of the moduli added off the identity row and column."""
    U = c.module
    return Cocycle2(U, tuple(
        tuple(
            v if 0 in (s, t) else tuple(x + rng.randint(-3, 3) * m for x, m in zip(v, U.moduli))
            for t, v in enumerate(row)
        )
        for s, row in enumerate(c.values)
    ))


def _test_modules(rng):
    c2, c3, c4 = Group.cyclic(2), Group.cyclic(3), Group.cyclic(4)
    v4 = Group.direct_product(c2, c2)
    mods = [
        GModule.scaling_action(c2, 3, {0: 1, 1: 2}),
        GModule.scaling_action(c3, 7, {0: 1, 1: 2, 2: 4}),
        GModule.scaling_action(c4, 5, {0: 1, 1: 2, 2: 4, 3: 3}),
        GModule.trivial(c2, (2, 3)),
        GModule.trivial(c3, (2, 3)),
        GModule(c2, (2, 4), {0: [[1, 0], [0, 1]], 1: [[1, 0], [2, 1]]}),
        GModule(c3, (2, 2), {0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 1]], 2: [[1, 1], [1, 0]]}),
    ]
    return mods + [_random_module(rng, G, gens) for G, gens in ((c2, [1]), (c3, [1]), (v4, [1, 2]))]


def _test_cocycles(rng, U):
    """Solver representatives and seeded coboundary shifts of them and of zero."""
    reps = h_solver(U.group, U, 2)[1]
    zero = Cocycle2(U, tuple((U.zero(),) * U.group.order for _ in U.group.elements()))
    out = []
    for base in reps + [zero]:
        b = [U.zero()] + [tuple(rng.randrange(m) for m in U.moduli) for _ in range(U.group.order - 1)]
        out += [base, shift_by_coboundary(base, b)]
    return out


def test_central_extension_matches_reference():
    rng = seeded_rng(310)
    cases = [carry(n) for n in range(2, 7)] + [witt(p) for p in (2, 3, 5)]
    cases.append(_unreduced(rng, carry(4)))
    for U in _test_modules(rng):
        cases += _test_cocycles(rng, U)
    for c in cases:
        assert central_extension(c).table == _reference_extension(c)


def test_verify_cocycle2_matches_reference():
    rng = seeded_rng(311)
    verdicts = []
    for U in _test_modules(rng):
        n = U.group.order
        for c in _test_cocycles(rng, U):
            for cand in (c, _unreduced(rng, c)):
                verdicts.append(verify_cocycle2(cand))
                assert verdicts[-1] == _reference_verify2(cand)
            # one entry moved by a nonzero element
            s, t = rng.randrange(n), rng.randrange(n)
            delta = tuple(rng.randrange(m) for m in U.moduli)
            if not any(delta):
                delta = (1,) + delta[1:]
            rows = [list(row) for row in c.values]
            rows[s][t] = tuple(x + d for x, d in zip(rows[s][t], delta))
            bad = Cocycle2(U, tuple(tuple(row) for row in rows))
            verdicts.append(verify_cocycle2(bad))
            assert verdicts[-1] == _reference_verify2(bad)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 20


# -- index tables against the object-based code they replaced -----------------------


def _object_h_exhaustive(G, U):
    """H^2 by enumeration over Cocycle2 objects, checked with verify_cocycle2."""
    n = G.order
    pairs = [(g, h) for g in range(1, n) for h in range(1, n)]
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
        cob.add(coboundary2(U, [U.zero()] + list(combo)).table())
    orders = []
    seen: set = set()
    for c in cocycles:
        key = min(
            tuple(tuple(tuple(U.add(c(g, h), db[g][h]) for h in range(n)) for g in range(n)) for db in cob)
        )
        if key in seen:
            continue
        seen.add(key)
        k, acc = 1, c
        while acc.table() not in cob:
            acc = Cocycle2(U, tuple(
                tuple(U.add(x, y) for x, y in zip(ra, rc)) for ra, rc in zip(acc.values, c.values)
            ))
            k += 1
        orders.append(k)
    return len(cocycles) // len(cob), tuple(sorted(orders))


def _negation(G, m):
    """Z/m with the generator of the order-2 group G acting by -1."""
    return GModule.scaling_action(G, m, {0: 1, 1: -1})


def test_h_exhaustive_matches_object_enumeration():
    c2, c3 = Group.cyclic(2), Group.cyclic(3)
    cases = [
        (G, GModule.trivial(G, (m,)))
        for G in [Group.cyclic(n) for n in range(1, 5)] + [Group.direct_product(c2, c2)]
        for m in range(1, 9)
        if m ** ((G.order - 1) ** 2) <= 2**12
    ]
    cases += [(c2, _negation(c2, m)) for m in (3, 4, 5, 6)]
    cases.append((c3, GModule(c3, (2, 2), {0: [[1, 0], [0, 1]], 1: [[0, 1], [1, 1]], 2: [[1, 1], [1, 0]]})))
    results = [h_exhaustive(G, U) for G, U in cases]
    assert results == [_object_h_exhaustive(G, U) for G, U in cases]
    assert len(cases) == 33 and sum(order > 1 for order, _ in results) == 10


def test_h_exhaustive_refuses_before_enumerating(monkeypatch):
    from entronet.groupnet import cohomology

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the bound")

    monkeypatch.setattr(cohomology, "product", no_enumeration)
    G = Group.cyclic(4)
    assert 5**9 > 2**20
    with pytest.raises(SizeBoundExceeded):
        h_exhaustive(G, GModule.trivial(G, (5,)))
    with pytest.raises(SizeBoundExceeded):
        h_exhaustive(Group.cyclic(2), GModule.trivial(Group.cyclic(2), (2**21,)))


def _triple_loop_extension(c):
    """The extension table filled entry by entry from index tables."""
    U, G = c.module, c.module.group
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
            table.append(tuple(row))
    return tuple(table)


def test_block_built_extension_matches_triple_loop():
    c2 = Group.cyclic(2)
    factors, reps = h_solver(c2, _negation(c2, 4), 2)
    assert factors == [2] and len(reps) == 1
    cases = [carry(n) for n in range(2, 13)] + [witt(p) for p in (2, 3, 5, 7)] + reps
    for c in cases:
        assert central_extension(c).table == _triple_loop_extension(c)


def test_group_rejects_entries_out_of_range():
    for bad in (-1, 3):
        table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        table[1][2] = bad
        with pytest.raises(GroupValidationError, match="^table entries out of range$"):
            Group(table)
    with pytest.raises(GroupValidationError, match="^multiplication table must be a table of integers$"):
        Group([[0, 1], [1, 0.0]])
    with pytest.raises(GroupValidationError, match="^index 0 is not an identity$"):
        Group([])
