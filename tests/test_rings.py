"""Ring layer: canonical forms, linear solving, restriction of scalars.

Frozen expected values were computed with the brute-force oracles in
oracles.py before the fast paths existed; the random-instance tests then pit
the two against each other on fresh inputs every run (fixed seeds).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekslab.rings import (
    ChainRing,
    GroupRing,
    Matrix,
    _group_table,
    det_int,
    det_ring,
    howell_form,
    howell_int,
    kernel_int,
    kernel_matrix,
    make_ring,
    matrix_from_json,
    matrix_to_json,
    membership_int,
    power_exponent,
    ring_from_json,
    ring_to_json,
    row_module_size,
    smith_int,
    solve_int,
    span_rows_base,
    submodule_howell,
    translates_base,
    vec_from_base,
    vec_to_base,
)
from ekslab.modules import (
    FPModule,
    ModuleMap,
    kernel,
    solve_map,
    syzygies,
)
from oracles import (
    additive_closure,
    annihilator_elements,
    det_permutation_expansion,
    enumerate_solutions,
    free_system,
    ideal_elements,
    index_to_exp,
    quotient_reps_int,
    ring_elements,
    span_set,
)

RINGS = [
    make_ring(2, 2),            # Z/4
    make_ring(2, 3),            # Z/8
    make_ring(3, 2),            # Z/9
    make_ring(5, 2),            # Z/25
    make_ring(5, 1),            # F_5
    make_ring(3, 1, (3,)),      # F_3[C3]
    make_ring(3, 2, (3,)),      # (Z/9)[C3]
]

CHAIN_RINGS = [R for R in RINGS if isinstance(R, ChainRing)]
GROUP_RINGS = [R for R in RINGS if isinstance(R, GroupRing)]


def rand_matrix(ring, rng, nrows, ncols):
    return Matrix(
        ring, [[ring.random_element(rng) for _ in range(ncols)] for _ in range(nrows)]
    )


class TestMakeRing:
    def test_rejects_composite_p(self):
        with pytest.raises(ValueError, match="not prime"):
            make_ring(6, 1)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            make_ring(3, 0)

    def test_rejects_non_p_power_order(self):
        with pytest.raises(ValueError, match="power of p"):
            make_ring(3, 1, (2,))
        with pytest.raises(ValueError, match="power of p"):
            make_ring(3, 1, (6,))

    def test_rejects_trivial_and_non_positive_orders(self):
        for order in (1, 0, -3):
            with pytest.raises(ValueError, match="power of p"):
                make_ring(3, 1, (order,))

    def test_power_exponent(self):
        assert [power_exponent(v, 3) for v in (1, 3, 9, 27)] == [0, 1, 2, 3]
        # 0 = 0 * 3^e is no power of 3, nor is a negative or a multiple.
        for value in (0, -3, -9, 6, 18, 2):
            assert power_exponent(value, 3) is None

    def test_group_ring_identity_and_generator(self):
        G = make_ring(3, 1, (3,))
        s = G.generator(0)
        assert G.mul(s, G.mul(s, s)) == G.one
        assert G.mul(G.one, s) == s


def _exponentwise_row(orders, exps, index, x):
    """Row of g_x by the definition: index of the exponentwise sum."""
    return tuple(index[tuple((a + b) % d for a, b, d in zip(x, y, orders))]
                 for y in exps)


class TestGroupTable:
    @pytest.mark.parametrize("orders", [
        (3,), (4,), (2, 2), (8, 2), (3, 9, 3), (9, 9),
    ])
    def test_matches_exponentwise_sum(self, orders):
        # Mixed-radix order: the last factor varies fastest, as in product().
        exps = list(itertools.product(*(range(d) for d in orders)))
        index = {e: i for i, e in enumerate(exps)}
        table = _group_table(orders)
        for i, x in enumerate(exps):
            assert table[i] == _exponentwise_row(orders, exps, index, x)

    def test_sampled_rows_of_a_large_group(self):
        orders = (9, 9, 9)
        exps = list(itertools.product(*(range(d) for d in orders)))
        index = {e: i for i, e in enumerate(exps)}
        table = _group_table(orders)
        for i in [0, 1, 8, 9, 80, 81, 728] + random.Random(0).sample(
                range(729), 12):
            assert table[i] == _exponentwise_row(orders, exps, index, exps[i])

    def test_rows_are_built_on_demand(self):
        # A product by a group element reads one row; no other is built.
        _group_table.cache_clear()
        R = make_ring(3, 1, (27, 27))
        g = R.generator(1)
        assert R.mul(g, R.mul(g, g)) == R.group_element((0, 3))
        assert sorted(R._mul_index) == [1]

    def test_one_table_per_group(self):
        low, high = make_ring(3, 2, (9, 3)), make_ring(3, 4, (9, 3))
        assert low._mul_index is high._mul_index
        assert low._mul_index is _group_table((9, 3))
        assert make_ring(3, 2, (3, 9))._mul_index is not low._mul_index


def _unit_count(R) -> int:
    """|R^x| of a local ring of p-power size with residue field F_p."""
    p = R.base.p if isinstance(R, GroupRing) else R.p
    return R.size // p * (p - 1)


def _power(R, x, k):
    """x^k by square and multiply: one exactly when x is a unit and k is a
    multiple of the unit group's order, by Lagrange."""
    acc = R.one
    while k:
        if k & 1:
            acc = R.mul(acc, x)
        x = R.mul(x, x)
        k >>= 1
    return acc


class TestUnits:
    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_unit_iff_residue_nonzero(self, R):
        for x in ring_elements(R):
            assert R.is_unit(x) == (x % R.p != 0)
            assert R.is_unit(x) == (_power(R, x, _unit_count(R)) == 1)

    @pytest.mark.parametrize("R", GROUP_RINGS)
    def test_group_ring_unit_iff_augmentation_unit(self, R):
        rng = random.Random(11)
        for _ in range(200):
            x = R.random_element(rng)
            assert R.is_unit(x) == R.base.is_unit(R.augmentation(x))
            assert R.is_unit(x) == (_power(R, x, _unit_count(R)) == R.one)

    def test_sigma_minus_one_not_unit_but_sigma_is(self):
        G = make_ring(3, 2, (3,))
        s = G.generator(0)
        assert G.is_unit(s)
        assert not G.is_unit(G.sub(s, G.one))


class TestHowell:
    def test_frozen_z4_example(self):
        # Row module of [[2,2],[0,2]] over Z/4 is generated by (2,0), (0,2).
        assert howell_int([[2, 2], [0, 2]], 2, 2, 2) == [[2, 0], [0, 2]]

    def test_annihilator_row_closure(self):
        # Single row (2,1) over Z/4: the Howell form must include the
        # annihilator shadow 2*(2,1) = (0,2) and so has pivot rows (2,1),(0,2).
        assert howell_int([[2, 1]], 2, 2, 2) == [[2, 1], [0, 2]]

    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_idempotent_and_uniqueness(self, R):
        rng = random.Random(101 + R.n)
        for _ in range(60):
            k, g = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randrange(R.n) for _ in range(g)] for _ in range(k)]
            H = howell_int(rows, g, R.p, R.m)
            assert howell_int(H, g, R.p, R.m) == H
            # Random unimodular-ish row mixing plus redundant rows: same form.
            mixed = [r[:] for r in rows]
            for _ in range(6):
                i, j = rng.randrange(k), rng.randrange(k)
                if i != j:
                    c = rng.randrange(R.n)
                    mixed[i] = [(a + c * b) % R.n for a, b in zip(mixed[i], mixed[j])]
            mixed.append([0] * g)
            coeffs = [rng.randrange(R.n) for _ in rows]
            mixed.append(
                [sum(c * r[t] for c, r in zip(coeffs, rows)) % R.n for t in range(g)]
            )
            assert howell_int(mixed, g, R.p, R.m) == H

    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_span_matches_enumeration(self, R):
        rng = random.Random(7 + R.n)
        for _ in range(25):
            g = rng.randint(1, 3)
            k = rng.randint(1, 3)
            rows = [[rng.randrange(R.n) for _ in range(g)] for _ in range(k)]
            H = howell_int(rows, g, R.p, R.m)
            expected = additive_closure(rows, R.n)
            got = additive_closure(H, R.n) if H else frozenset({(0,) * g})
            assert got == expected
            assert row_module_size(H, R.p, R.m) == len(expected)
            for v in expected:
                assert membership_int(list(v), H, R.p, R.m)

    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_quotient_reps_partition(self, R):
        rng = random.Random(13 + R.n)
        for _ in range(10):
            g = rng.randint(1, 3)
            rows = [[rng.randrange(R.n) for _ in range(g)] for _ in range(2)]
            H = howell_int(rows, g, R.p, R.m)
            reps = list(quotient_reps_int(H, g, R.p, R.m))
            assert len(reps) * row_module_size(H, R.p, R.m) == R.n ** g
            assert len({tuple(r) for r in reps}) == len(reps)

    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=8), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_howell_idempotent_z9_hypothesis(self, rows):
        H = howell_int(rows, 3, 3, 2)
        assert howell_int(H, 3, 3, 2) == H


class TestSmithKernel:
    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_smith_decomposition_and_invertibility(self, R):
        rng = random.Random(23 + R.n)
        for _ in range(40):
            k, g = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randrange(R.n) for _ in range(g)] for _ in range(k)]
            exps, P, Q = smith_int(A, R.p, R.m)
            assert R.is_unit(det_int(P, R.p, R.m))
            assert R.is_unit(det_int(Q, R.p, R.m))
            # P.A.Q is diagonal with the stated p-power entries.
            PA = [
                [sum(P[i][t] * A[t][j] for t in range(k)) % R.n for j in range(g)]
                for i in range(k)
            ]
            D = [
                [sum(PA[i][t] * Q[t][j] for t in range(g)) % R.n for j in range(g)]
                for i in range(k)
            ]
            for i in range(k):
                for j in range(g):
                    if i == j and i < len(exps):
                        assert D[i][j] == pow(R.p, exps[i]) % R.n
                    else:
                        assert D[i][j] == 0

    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_smith_without_left_transform_keeps_exps_and_q(self, R):
        rng = random.Random(29 + R.n)
        for _ in range(40):
            k, g = rng.randint(1, 4), rng.randint(1, 4)
            A = [[rng.randrange(R.n) for _ in range(g)] for _ in range(k)]
            exps, _P, Q = smith_int(A, R.p, R.m)
            assert smith_int(A, R.p, R.m, left=False) == (exps, None, Q)

    @pytest.mark.parametrize("R", CHAIN_RINGS)
    def test_kernel_matches_enumeration(self, R):
        rng = random.Random(37 + R.n)
        for _ in range(20):
            k = rng.randint(1, 3)
            g = rng.randint(1, 2 if R.n > 16 else 3)
            A = [[rng.randrange(R.n) for _ in range(g)] for _ in range(k)]
            gens = kernel_int(A, R.p, R.m)
            got = additive_closure(gens, R.n) if gens else frozenset({(0,) * g})
            M = Matrix(R, A)
            expected = frozenset(
                tuple(sol) for sol in enumerate_solutions(M, [0] * k)
            )
            assert got == expected


class TestSolve:
    def test_frozen_2x_eq_2_over_z4(self):
        R = make_ring(2, 2)
        A = Matrix(R, [[2]])
        particular = solve_map(free_system(A), [2])
        assert particular is not None
        K = kernel_matrix(A)
        sols = {(particular[0] + c * K.rows[0][0]) % 4 for c in range(4)} if K.nrows else {particular[0]}
        assert sols == {1, 3}

    def test_frozen_2x_eq_1_over_z4_has_no_solution(self):
        R = make_ring(2, 2)
        assert solve_map(free_system(Matrix(R, [[2]])), [1]) is None

    def test_frozen_diag_5_1_over_z25(self):
        R = make_ring(5, 2)
        A = Matrix(R, [[5, 0], [0, 1]])
        particular = solve_map(free_system(A), [0, 3])
        assert particular is not None
        K = kernel_matrix(A)
        got = set()
        for c in range(25):
            x = particular[:]
            for row in K.rows:
                x = [(a + c * b) % 25 for a, b in zip(x, row)]
            got.add(tuple(x))
        assert got == {(5 * k % 25, 3) for k in range(5)}

    @pytest.mark.parametrize("R", RINGS)
    def test_against_exhaustive_enumeration(self, R):
        rng = random.Random(43 + R.size)
        # Domain size |R|^cols must stay within the oracle budget 2^16.
        max_cols = 1 if R.size > 256 else 2
        for _ in range(12):
            k = rng.randint(1, 2)
            g = rng.randint(1, max_cols)
            A = rand_matrix(R, rng, k, g)
            b = [R.random_element(rng) for _ in range(k)]
            expected = enumerate_solutions(A, b)
            got = solve_map(free_system(A), b)
            if not expected:
                assert got is None, f"solver found a solution where none exists: {got}"
            else:
                assert got is not None, "solver missed a solvable system"
                particular, K = got, kernel_matrix(A)
                assert A.apply(particular) == [R.reduce(x) for x in b]
                # particular + kernel span must equal the solution set.
                ker_set = span_set(R, K.rows, g) if K.nrows else frozenset(
                    {(0,) * (g * R.rank)}
                )
                base_part = tuple(vec_to_base(R, particular))
                shifted = frozenset(
                    tuple((a + bb) % R.base.n for a, bb in zip(base_part, kv))
                    for kv in ker_set
                )
                assert shifted == frozenset(
                    tuple(vec_to_base(R, s)) for s in expected
                )


class TestSolver:
    """One factorization, many right-hand sides: ``solve_map`` along a map
    of free modules must answer as a fresh elimination per right-hand
    side."""

    @staticmethod
    def _rhs(R, rng, A, count):
        # Half the right-hand sides are images (always solvable), the rest
        # random (often not, over a non-field).
        out = []
        for t in range(count):
            if t % 2:
                out.append([R.random_element(rng) for _ in range(A.nrows)])
            else:
                out.append(A.apply([R.random_element(rng) for _ in range(A.ncols)]))
        return out

    @pytest.mark.parametrize("R", CHAIN_RINGS + [make_ring(3, 2, (3,))])
    def test_many_rhs_match_solve_int(self, R):
        rng = random.Random(47 + R.size)
        base = R.base
        nones = 0
        for _ in range(10):
            A = rand_matrix(R, rng, rng.randint(1, 4), rng.randint(1, 4))
            solver = free_system(A)
            Ab = A.to_base()
            for b in self._rhs(R, rng, A, 8):
                got = solve_map(solver, b)
                want = solve_int(Ab, vec_to_base(R, b), base.p, base.m)
                if want is None:
                    nones += 1
                    assert got is None
                else:
                    assert got == vec_from_base(R, want)
                    assert A.apply(got) == [R.reduce(x) for x in b]
                assert solve_map(free_system(A), b) == got
        if base.m > 1:
            assert nones, "no unsolvable right-hand side was drawn"

    @pytest.mark.parametrize("R", RINGS)
    def test_many_rhs_against_enumeration(self, R):
        rng = random.Random(53 + R.size)
        max_cols = 1 if R.size > 256 else 2
        for _ in range(6):
            A = rand_matrix(R, rng, rng.randint(1, 2), rng.randint(1, max_cols))
            solver = free_system(A)
            K = kernel_matrix(A)
            g = A.ncols
            ker_set = span_set(R, K.rows, g) if K.nrows else frozenset(
                {(0,) * (g * R.rank)})
            for b in self._rhs(R, rng, A, 4):
                expected = enumerate_solutions(A, b)
                got = solve_map(solver, b)
                if not expected:
                    assert got is None
                    continue
                part = vec_to_base(R, got)
                shifted = frozenset(
                    tuple((a + c) % R.base.n for a, c in zip(part, kv))
                    for kv in ker_set)
                assert shifted == frozenset(
                    tuple(vec_to_base(R, s)) for s in expected)

    def test_empty_matrix_solves_everything(self):
        R = make_ring(3, 2)
        solver = free_system(Matrix.zeros(R, 0, 3))
        assert solve_map(solver, []) == [0, 0, 0]


class TestGroupRingLinear:
    def test_frozen_sigma_action_is_cyclic_permutation(self):
        G = make_ring(3, 1, (3,))
        act = G.action_matrix(G.generator(0))
        assert act == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_frozen_sigma_minus_one_action_det_zero(self):
        G = make_ring(3, 2, (3,))
        sm1 = G.sub(G.generator(0), G.one)
        act = G.action_matrix(sm1)
        assert det_int(act, 3, 2) == 0

    def test_howell_form_group_ring_uses_base(self):
        G = make_ring(3, 1, (3,))
        s = G.generator(0)
        A = Matrix(G, [[G.sub(s, G.one)]])
        H, K = howell_form(A)
        # (sigma-1) generates the augmentation ideal: dimension 2 over F_3.
        assert row_module_size(H.rows, 3, 1) == 9
        # Kernel of multiplication by (sigma-1) is the norm line (dimension 1).
        ker = span_set(G, K.rows, 1)
        assert len(ker) == 3
        norm = (1, 1, 1)
        assert norm in ker

    def test_submodule_howell_canonical_under_regeneration(self):
        G = make_ring(3, 2, (3,))
        rng = random.Random(5)
        for _ in range(15):
            vecs = [[G.random_element(rng) for _ in range(2)] for _ in range(2)]
            H1 = submodule_howell(G, vecs, 2)
            # New generating set: ring multiples and sums of the old one.
            c1, c2 = G.random_element(rng), G.random_unit(rng)
            new_vecs = [
                [G.add(G.mul(c1, a), G.mul(c2, b)) for a, b in zip(vecs[0], vecs[1])],
                [G.mul(c2, a) for a in vecs[0]],
                [G.mul(c2, a) for a in vecs[1]],
            ]
            # Unit-scaled original plus a combination spans the same module.
            assert submodule_howell(G, new_vecs, 2) == submodule_howell(
                G, [[G.mul(c2, a) for a in v] for v in vecs] + [new_vecs[0]], 2
            )


class TestSelfInjectivity:
    @pytest.mark.parametrize("R", RINGS)
    def test_double_annihilator_recovers_ideal(self, R):
        # Ann(Ann(I)) = I for 200 random ideals: the self-injectivity witness.
        rng = random.Random(1009 + R.size)
        base = R.base
        for _ in range(200):
            gens = [R.random_element(rng) for _ in range(rng.randint(1, 2))]
            I_rows = submodule_howell(R, [[g] for g in gens], 1)
            ann_rows = kernel_int(I_rows, base.p, base.m) if I_rows else None
            if I_rows:
                ann_gens = [R.from_vec(tuple(r)) for r in ann_rows]
            else:
                ann_gens = [R.one]
            # Ann as an ideal must be closed: canonicalize, then annihilate again.
            ann_canon = submodule_howell(R, [[g] for g in ann_gens], 1)
            # The annihilator of the zero ideal is the whole ring.
            back_rows = kernel_int(ann_canon, base.p, base.m) if ann_canon \
                else [[int(i == j) for j in range(R.rank)]
                      for i in range(R.rank)]
            back = submodule_howell(
                R, [[R.from_vec(tuple(r))] for r in back_rows], 1
            )
            assert back == (I_rows or []), "double annihilator failed to recover ideal"

    @pytest.mark.parametrize("R", [make_ring(2, 2), make_ring(3, 2), make_ring(2, 3)])
    def test_annihilator_matches_enumeration(self, R):
        rng = random.Random(77 + R.n)
        for _ in range(30):
            gens = [R.random_element(rng) for _ in range(rng.randint(1, 2))]
            I_rows = submodule_howell(R, [[g] for g in gens], 1)
            ann_rows = kernel_int(I_rows, R.p, R.m) if I_rows else [[1]]
            got = additive_closure(ann_rows, R.n) if ann_rows else frozenset({(0,)})
            assert got == annihilator_elements(R, gens)


class TestDeterminants:
    @pytest.mark.parametrize("R", RINGS)
    def test_against_permutation_expansion(self, R):
        rng = random.Random(3 + R.size)
        for size in (1, 2, 3):
            for _ in range(8):
                rows = [
                    [R.random_element(rng) for _ in range(size)] for _ in range(size)
                ]
                assert det_ring(R, rows) == det_permutation_expansion(R, rows)

    def test_multiplicativity_z8(self):
        R = make_ring(2, 3)
        rng = random.Random(9)
        for _ in range(20):
            A = [[rng.randrange(8) for _ in range(3)] for _ in range(3)]
            B = [[rng.randrange(8) for _ in range(3)] for _ in range(3)]
            AB = Matrix(R, A).mul(Matrix(R, B)).rows
            assert det_int(AB, 2, 3) == det_int(A, 2, 3) * det_int(B, 2, 3) % 8


class TestMatrixApi:
    def test_shape_checks(self):
        R = make_ring(3, 1)
        A = Matrix.zeros(R, 2, 3)
        B = Matrix.zeros(R, 2, 2)
        with pytest.raises(ValueError, match="inner dims"):
            A.mul(A)
        with pytest.raises(ValueError, match="shape mismatch"):
            A.sub(B)
        with pytest.raises(ValueError, match="vector length"):
            A.apply([1, 2])

    def test_ragged_rejected(self):
        R = make_ring(3, 1)
        with pytest.raises(ValueError, match="ragged"):
            Matrix(R, [[1, 2], [1]])


class TestSerialization:
    @pytest.mark.parametrize("R", RINGS)
    def test_ring_roundtrip(self, R):
        assert ring_from_json(ring_to_json(R)) == R

    @pytest.mark.parametrize("R", RINGS)
    def test_matrix_roundtrip(self, R):
        rng = random.Random(55)
        A = rand_matrix(R, rng, 2, 3)
        assert matrix_from_json(R, matrix_to_json(A)) == A


class TestIdealOracle:
    @pytest.mark.parametrize("R", [make_ring(2, 2), make_ring(3, 2), make_ring(3, 1, (3,))])
    def test_ideal_span_matches_closure(self, R):
        rng = random.Random(67)
        for _ in range(20):
            gens = [R.random_element(rng) for _ in range(2)]
            rows = submodule_howell(R, [[g] for g in gens], 1)
            got = additive_closure(rows, R.base.n) if rows else frozenset(
                {(0,) * R.rank}
            )
            assert got == ideal_elements(R, gens)


def _oracle_mul(ring, a, b):
    """Product from exponent arithmetic, independent of the group table."""
    if ring.rank == 1:
        return (a * b) % ring.n
    out = [0] * ring.rank
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            e = [u + v for u, v in zip(index_to_exp(ring, i), index_to_exp(ring, j))]
            out[ring.exp_to_index(e)] += x * y
    return tuple(c % ring.base.n for c in out)


def _naive_dot(ring, xs, ys):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = ring.add(acc, _oracle_mul(ring, x, y))
    return acc


def _unreduced(ring, rng):
    """An element with entries in [-2n, 2n]: negative and unreduced."""
    n = ring.base.n
    if ring.rank == 1:
        return rng.randint(-2 * n, 2 * n)
    return tuple(rng.choice((0, 0, rng.randint(-2 * n, 2 * n)))
                 for _ in range(ring.rank))


DOT_RINGS = [
    make_ring(3, 2),               # Z/9
    make_ring(2, 3),               # Z/8
    make_ring(3, 2, (3,)),         # (Z/9)[C3]
    make_ring(2, 3, (4,)),         # (Z/8)[C4]
    make_ring(2, 2, (2, 2)),       # (Z/4)[C2xC2]
    make_ring(3, 1, (9, 3)),       # (Z/3)[C9xC3]
]


class TestRingDot:
    """``ring.dot`` against the add/mul fold, and the products built on it."""

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_dot_matches_naive_fold(self, R):
        assert R.dot([], []) == R.zero
        rng = random.Random(4 + R.rank)
        for length in (1, 2, 5):
            for _ in range(10):
                xs = [_unreduced(R, rng) for _ in range(length)]
                ys = [_unreduced(R, rng) for _ in range(length)]
                assert R.dot(xs, ys) == _naive_dot(R, xs, ys)
                assert R.mul(xs[0], ys[0]) == _oracle_mul(R, xs[0], ys[0])

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_matrix_apply_and_mul(self, R):
        rng = random.Random(40 + R.rank)
        for k, g, h in [(2, 3, 2), (1, 1, 4), (3, 0, 2), (0, 2, 3), (2, 2, 0)]:
            A = Matrix(R, [[_unreduced(R, rng) for _ in range(g)]
                           for _ in range(k)], ncols=g)
            B = Matrix(R, [[_unreduced(R, rng) for _ in range(h)]
                           for _ in range(g)], ncols=h)
            vec = [_unreduced(R, rng) for _ in range(g)]
            assert A.apply(vec) == [_naive_dot(R, row, vec) for row in A.rows]
            AB = A.mul(B)
            assert AB.shape == (k, h)
            assert AB.rows == [
                [_naive_dot(R, row, [B.rows[i][j] for i in range(g)])
                 for j in range(h)]
                for row in A.rows
            ]

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_translates_match_mul_by_basis_elements(self, R):
        rng = random.Random(400 + R.rank)
        for length in (0, 1, 3):
            vec = [_unreduced(R, rng) for _ in range(length)]
            expected = []
            for t in range(R.rank):
                g = R.from_int(1) if R.rank == 1 else tuple(
                    int(i == t) for i in range(R.rank))
                expected.append(vec_to_base(R, [_oracle_mul(R, g, x) for x in vec]))
            assert translates_base(R, vec) == expected

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_syzygies_in_zero_ambient(self, R):
        # Every coefficient vector is a syzygy of vectors in a zero module.
        syz = syzygies(FPModule.free(R, 0), [[], [], []])
        assert all(len(v) == 3 for v in syz)
        identity = [[R.one if i == j else R.zero for j in range(3)]
                    for i in range(3)]
        assert submodule_howell(R, syz, 3) == submodule_howell(R, identity, 3)

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_kernel_with_zero_target_or_source(self, R):
        free = FPModule.free(R, 2)
        to_zero = ModuleMap(free, FPModule.free(R, 0), Matrix.zeros(R, 0, 2))
        ker, incl = kernel(to_zero)
        assert incl.matrix == Matrix.identity(R, 2)
        assert ker.size == free.size
        from_zero = ModuleMap(FPModule.free(R, 0), free, Matrix.zeros(R, 2, 0))
        ker, incl = kernel(from_zero)
        assert ker.ngens == 0 and incl.matrix.shape == (0, 0)


FAST_CHAIN_RINGS = [
    make_ring(3, 2),               # Z/9
    make_ring(2, 3),               # Z/8
    make_ring(5, 2),               # Z/25
    make_ring(3, 3),               # Z/27
]

# The paths the group rings share with them: (Z/9)[C3] and (Z/8)[C4].
FAST_PATH_RINGS = FAST_CHAIN_RINGS + DOT_RINGS[2:4]

SHAPES = [(2, 3), (1, 1), (3, 0), (0, 2), (0, 0)]


def _action_to_base(ring, rows, ncols):
    """Restriction of scalars through the action matrix of every entry."""
    d = ring.rank
    out = [[0] * (ncols * d) for _ in range(len(rows) * d)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            block = ring.action_matrix(x)
            for a in range(d):
                for b in range(d):
                    out[i * d + a][j * d + b] = block[a][b]
    return out


def _flatten_by_to_vec(ring, vec):
    return [c for x in vec for c in ring.to_vec(x)]


def _unflatten_by_from_vec(ring, flat):
    d = ring.rank
    return [ring.from_vec(tuple(flat[i * d:(i + 1) * d]))
            for i in range(len(flat) // d)]


class TestChainFastPaths:
    """Each chain-ring fast path against the construction it replaced."""

    @pytest.mark.parametrize("R", FAST_PATH_RINGS, ids=str)
    def test_restriction_of_scalars(self, R):
        rng = random.Random(71 + R.base.n)
        for k, g in SHAPES:
            rows = [[_unreduced(R, rng) for _ in range(g)] for _ in range(k)]
            A = Matrix(R, rows, ncols=g)
            assert A.to_base() == _action_to_base(R, A.rows, g)
            vec = [_unreduced(R, rng) for _ in range(g)]
            flat = vec_to_base(R, vec)
            assert flat == _flatten_by_to_vec(R, vec)
            unreduced_flat = [x + rng.randint(-3, 3) * R.base.n for x in flat]
            assert (vec_from_base(R, unreduced_flat)
                    == _unflatten_by_from_vec(R, unreduced_flat)
                    == [R.reduce(x) for x in vec])

    @pytest.mark.parametrize("R", FAST_CHAIN_RINGS, ids=str)
    def test_to_base_is_a_copy(self, R):
        A = Matrix(R, [[1, 2], [3, 4]])
        B = A.to_base()
        B[0][0] = 5
        assert A.rows[0][0] == 1

    @pytest.mark.parametrize("R", FAST_CHAIN_RINGS, ids=str)
    def test_det_ring_matches_det_int(self, R):
        rng = random.Random(29 + R.n)
        for size in range(6):
            for _ in range(25):
                rows = [[rng.randint(-2 * R.n, 2 * R.n) for _ in range(size)]
                        for _ in range(size)]
                # Singular and low-valuation cases: a multiple of p or a
                # repeated row.
                if size and rng.random() < 0.3:
                    rows[-1] = [R.p * x for x in rows[0]]
                assert det_ring(R, rows) == det_int(rows, R.p, R.m)
                assert 0 <= det_ring(R, rows) < R.n

    @pytest.mark.parametrize("R", FAST_PATH_RINGS, ids=str)
    def test_unreduced_constructors_match_a_fresh_matrix(self, R):
        rng = random.Random(83 + R.base.n)
        for k, g in SHAPES:
            A = Matrix(R, [[_unreduced(R, rng) for _ in range(g)]
                           for _ in range(k)], ncols=g)
            B = Matrix(R, [[_unreduced(R, rng) for _ in range(g)]
                           for _ in range(k)], ncols=g)
            C = Matrix(R, [[_unreduced(R, rng) for _ in range(3)]
                           for _ in range(g)], ncols=3)
            for out in (A.mul(C), A.transpose(), A.stack(B), A.sub(B)):
                assert out == Matrix(R, out.rows, ncols=out.ncols)
            assert A.transpose().shape == (g, k)
            assert A.stack(B).shape == (2 * k, g)
            assert A.mul(C).shape == (k, 3)
