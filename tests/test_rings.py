"""Ring layer: canonical forms, linear solving, restriction of scalars.

Frozen expected values were computed with the brute-force oracles in
oracles.py before the fast paths existed; the random-instance tests then pit
the two against each other on fresh inputs every run (fixed seeds).
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ekslab.rings import (
    ChainRing,
    GroupRing,
    Matrix,
    _group_table,
    back_substitute,
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
    minors,
    power_exponent,
    ring_from_json,
    ring_to_json,
    row_module_size,
    smith_int,
    solve_int,
    span_rows_base,
    submodule_howell,
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
    back_substitute_dense,
    det_permutation_expansion,
    enumerate_solutions,
    free_system,
    ideal_elements,
    index_to_exp,
    quotient_reps_int,
    replay_left_transform,
    ring_elements,
    smith_int_dense,
    span_set,
    to_base_blocks,
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

    def test_rings_compare_hash_and_print_by_parameters(self):
        # Rings built apart are equal, hash alike and print the same; test
        # ids and artifacts read ``str``, error messages ``repr``.
        assert make_ring(3, 2) == ChainRing(3, 2) != ChainRing(3, 1)
        assert hash(make_ring(3, 2)) == hash(ChainRing(3, 2))
        G = make_ring(3, 2, (3, 9))
        assert G == GroupRing(ChainRing(3, 2), (3, 9))
        assert hash(G) == hash(GroupRing(ChainRing(3, 2), (3, 9)))
        assert G != make_ring(3, 2, (9, 3)) and G != make_ring(3, 2)
        assert make_ring(3, 2) != (3, 2)
        assert str(make_ring(3, 2)) == "Z/3^2" and str(make_ring(5, 1)) == "Z/5"
        assert str(G) == "(Z/3^2)[C3xC9]"
        assert repr(G) == "GroupRing(base=ChainRing(p=3, m=2), orders=(3, 9))"
        assert {make_ring(2, 3): 1}[ChainRing(2, 3)] == 1

    def test_group_ring_identity_and_generator(self):
        G = make_ring(3, 1, (3,))
        s = G.generator(0)
        assert G.mul(s, G.mul(s, s)) == G.one
        assert G.mul(G.one, s) == s

    def test_chain_ring_is_the_group_ring_of_the_trivial_group(self):
        # One group element, at index 0, and one base coordinate per
        # element: the same reads as a group ring's.
        R = make_ring(3, 2)
        assert R.orders == () and R.rank == 1
        assert R.exp_to_index(()) == 0
        assert R.vec_to_base([10, 4]) == [1, 4]
        assert R.vec_from_base([10, 4]) == [1, 4]
        G = make_ring(3, 2, (3,))
        assert G.exp_to_index((0,)) == 0
        assert G.vec_from_base(G.vec_to_base([G.from_int(10)])) == [
            G.from_int(1)]


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
            exps, log, Q = smith_int(A, R.p, R.m)
            P = replay_left_transform(log, k, R.n)
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

    @pytest.mark.parametrize("ring", [
        make_ring(2, 3), make_ring(3, 2), make_ring(5, 2), make_ring(3, 3),
        make_ring(3, 2, (3,))], ids=str)
    def test_replayed_back_substitution_matches_dense_p(self, ring):
        # The logged row operations give the dense-P reference's exps, Q
        # and solutions exactly, on tall, square and wide systems (a group
        # ring's restricted to its base), solvable right-hand sides A.x and
        # random ones, most of them unsolvable.
        base = ring.base
        p, m, n = base.p, base.m, base.n
        rng = random.Random(41 + n * ring.rank)
        unsolvable = 0
        for k, g in [(5, 2), (4, 4), (2, 5), (6, 3), (3, 3), (1, 4), (4, 1)]:
            for _ in range(6):
                A = rand_matrix(ring, rng, k, g).to_base()
                exps, log, Q = smith_int(A, p, m)
                dense = smith_int_dense(A, p, m)
                assert (exps, Q) == (dense[0], dense[2])
                assert len(log) == len(exps)
                x = [rng.randrange(n) for _ in range(len(A[0]))]
                rhs = [[sum(a * c for a, c in zip(row, x)) % n for row in A]]
                rhs += [[rng.randrange(n) for _ in A] for _ in range(3)]
                rhs.append([p * rng.randrange(n) % n for _ in A])
                for b in rhs:
                    got = back_substitute((exps, log, Q), b, p, m)
                    assert got == back_substitute_dense(dense, b, p, m)
                    if got is None:
                        unsolvable += 1
                    else:
                        assert [sum(a * c for a, c in zip(row, got)) % n
                                for row in A] == b
        assert unsolvable > 0

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
                base_part = tuple(R.vec_to_base(particular))
                shifted = frozenset(
                    tuple((a + bb) % R.base.n for a, bb in zip(base_part, kv))
                    for kv in ker_set
                )
                assert shifted == frozenset(
                    tuple(R.vec_to_base(s)) for s in expected
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
                want = solve_int(Ab, R.vec_to_base(b), base.p, base.m)
                if want is None:
                    nones += 1
                    assert got is None
                else:
                    assert got == R.vec_from_base(want)
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
                part = R.vec_to_base(got)
                shifted = frozenset(
                    tuple((a + c) % R.base.n for a, c in zip(part, kv))
                    for kv in ker_set)
                assert shifted == frozenset(
                    tuple(R.vec_to_base(s)) for s in expected)

    def test_empty_matrix_solves_everything(self):
        R = make_ring(3, 2)
        solver = free_system(Matrix.zeros(R, 0, 3))
        assert solve_map(solver, []) == [0, 0, 0]


class TestGroupRingLinear:
    def test_frozen_sigma_action_is_cyclic_permutation(self):
        G = make_ring(3, 1, (3,))
        act = Matrix(G, [[G.generator(0)]]).to_base()
        assert act == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]

    def test_frozen_sigma_minus_one_action_det_zero(self):
        G = make_ring(3, 2, (3,))
        sm1 = G.sub(G.generator(0), G.one)
        act = Matrix(G, [[sm1]]).to_base()
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
                ann_gens = [R.vec_from_base(r)[0] for r in ann_rows]
            else:
                ann_gens = [R.one]
            # Ann as an ideal must be closed: canonicalize, then annihilate again.
            ann_canon = submodule_howell(R, [[g] for g in ann_gens], 1)
            # The annihilator of the zero ideal is the whole ring.
            back_rows = kernel_int(ann_canon, base.p, base.m) if ann_canon \
                else [[int(i == j) for j in range(R.rank)]
                      for i in range(R.rank)]
            back = submodule_howell(
                R, [[R.vec_from_base(r)[0]] for r in back_rows], 1
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


MINOR_GROUP_RINGS = [
    make_ring(3, 2, (3,)),      # (Z/9)[C3]
    make_ring(2, 3, (4,)),      # (Z/8)[C4]
    make_ring(5, 2, (5,)),      # (Z/25)[C5]
]


def _minor_rows(R, rng, k, ncols):
    """k rows of unreduced entries (see ``_unreduced``), one of them
    sometimes zero."""
    rows = [[_unreduced(R, rng) for _ in range(ncols)] for _ in range(k)]
    if k and rng.random() < 0.3:
        rows[rng.randrange(k)] = [R.zero] * ncols
    return rows


class TestMinors:
    """``minors`` against an elimination (chain rings) and a permutation
    expansion (group rings) of each minor, k = 0..4 rows on 5 columns or
    fewer."""

    @pytest.mark.parametrize("R", CHAIN_RINGS, ids=str)
    def test_chain_rings_against_det_int(self, R):
        rng = random.Random(61 + R.n)
        for k in range(5):
            for ncols in range(k, 6):
                for _ in range(6):
                    rows = _minor_rows(R, rng, k, ncols)
                    assert minors(R, rows, ncols) == [
                        det_int([[row[c] for c in C] for row in rows],
                                R.p, R.m)
                        for C in itertools.combinations(range(ncols), k)]

    @pytest.mark.parametrize("R", MINOR_GROUP_RINGS, ids=str)
    def test_group_rings_against_permutation_expansion(self, R):
        rng = random.Random(67 + R.base.n)
        for k in range(5):
            for ncols in range(k, 6):
                for _ in range(2):
                    rows = _minor_rows(R, rng, k, ncols)
                    reduced = [[R.reduce(x) for x in row] for row in rows]
                    assert minors(R, rows, ncols) == [
                        det_permutation_expansion(
                            R, [[row[c] for c in C] for row in reduced])
                        for C in itertools.combinations(range(ncols), k)]

    @pytest.mark.parametrize("R", [make_ring(3, 2), MINOR_GROUP_RINGS[0]],
                             ids=str)
    def test_no_rows_and_too_many_rows(self, R):
        assert minors(R, [], 0) == minors(R, [], 3) == [R.one]
        assert minors(R, [[R.one, R.one]] * 3, 2) == []
        assert det_ring(R, []) == R.one


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
                expected.append(R.vec_to_base([_oracle_mul(R, g, x) for x in vec]))
            assert span_rows_base(R, [vec]) == expected

    @pytest.mark.parametrize("R", DOT_RINGS, ids=str)
    def test_syzygies_in_zero_ambient(self, R):
        # Every coefficient vector is a syzygy of vectors in a zero module.
        syz = syzygies(FPModule.free(R, 0), Matrix(R, [], ncols=3))
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


# DOT_RINGS with a group of exponent 4 and two factors: (Z/8)[C4xC2].
TO_BASE_RINGS = DOT_RINGS + [make_ring(2, 3, (4, 2))]


class TestRestrictionOfScalars:
    """``Matrix.to_base``, the transpose of the translates of the columns,
    against the block construction from per-coordinate products."""

    @given(R=st.sampled_from(TO_BASE_RINGS), nrows=st.integers(0, 4),
           ncols=st.integers(0, 4), seed=st.integers(0, 1 << 16))
    @example(R=TO_BASE_RINGS[-1], nrows=3, ncols=0, seed=0)
    @example(R=TO_BASE_RINGS[-2], nrows=0, ncols=2, seed=0)
    @settings(max_examples=120, deadline=None)
    def test_to_base_matches_action_blocks(self, R, nrows, ncols, seed):
        rng = random.Random(seed)
        A = Matrix(R, [[_unreduced(R, rng) for _ in range(ncols)]
                       for _ in range(nrows)], ncols=ncols)
        B = A.to_base()
        assert B == to_base_blocks(A)
        # With no columns there are still nrows*|G| (empty) rows:
        # ``base_system`` appends the target's relation columns to them.
        assert len(B) == nrows * R.rank
        assert all(len(row) == ncols * R.rank for row in B)

    @pytest.mark.parametrize("R", TO_BASE_RINGS, ids=str)
    def test_base_matrix_applies_the_matrix(self, R):
        # B.vec(x) = vec(A.x) on random x, unreduced.
        rng = random.Random(61 + R.rank)
        A = Matrix(R, [[_unreduced(R, rng) for _ in range(3)]
                       for _ in range(2)], ncols=3)
        B = A.to_base()
        for _ in range(5):
            x = [_unreduced(R, rng) for _ in range(3)]
            flat = R.vec_to_base(x)
            got = [sum(b * c for b, c in zip(row, flat)) for row in B]
            assert R.vec_from_base(got) == A.apply(x)


FAST_CHAIN_RINGS = [
    make_ring(3, 2),               # Z/9
    make_ring(2, 3),               # Z/8
    make_ring(5, 2),               # Z/25
    make_ring(3, 3),               # Z/27
]

# The paths the group rings share with them: (Z/9)[C3] and (Z/8)[C4].
FAST_PATH_RINGS = FAST_CHAIN_RINGS + DOT_RINGS[2:4]

SHAPES = [(2, 3), (1, 1), (3, 0), (0, 2), (0, 0)]


def _flatten_by_element(ring, vec):
    return [c for x in vec for c in ring.vec_to_base([x])]


def _unflatten_by_reduce(ring, flat):
    d = ring.rank
    if d == 1:
        return [ring.reduce(x) for x in flat]
    return [ring.reduce(tuple(flat[i * d:(i + 1) * d]))
            for i in range(len(flat) // d)]


class TestChainFastPaths:
    """Each chain-ring fast path against the construction it replaced."""

    @pytest.mark.parametrize("R", FAST_PATH_RINGS, ids=str)
    def test_restriction_of_scalars(self, R):
        rng = random.Random(71 + R.base.n)
        for k, g in SHAPES:
            rows = [[_unreduced(R, rng) for _ in range(g)] for _ in range(k)]
            A = Matrix(R, rows, ncols=g)
            assert A.to_base() == to_base_blocks(A)
            vec = [_unreduced(R, rng) for _ in range(g)]
            flat = R.vec_to_base(vec)
            assert flat == _flatten_by_element(R, vec)
            unreduced_flat = [x + rng.randint(-3, 3) * R.base.n for x in flat]
            assert (R.vec_from_base(unreduced_flat)
                    == _unflatten_by_reduce(R, unreduced_flat)
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
            for out in (A.mul(C), A.transpose(), A.stack(B), A.sub(B),
                        Matrix.zeros(R, k, g), Matrix.identity(R, g)):
                assert out == Matrix(R, out.rows, ncols=out.ncols)
            assert A.columns() == [tuple(row) for row in A.transpose().rows]
            assert len(Matrix.zeros(R, 0, g).columns()) == g
            assert A.transpose().shape == (g, k)
            assert A.stack(B).shape == (2 * k, g)
            assert A.mul(C).shape == (k, 3)


# Z/8 (p = 2), Z/9, Z/25 and Z/27, at widths whose spans stay enumerable.
PIVOT_RINGS = [(make_ring(2, 3), 4), (make_ring(3, 2), 4),
               (make_ring(5, 2), 3), (make_ring(3, 3), 3)]


def _pivot_cases(R, width, rng) -> list:
    """Row sets over R: none, a lone zero row, and random sets with a zero
    row, a zero column, duplicated rows, or only non-unit entries (so no
    pivot is a unit), in turn."""
    cases = [[], [[0] * width]]
    for trial in range(16):
        rows = [[rng.randrange(R.n) for _ in range(width)]
                for _ in range(rng.randint(1, 4))]
        kind = trial % 4
        if kind == 0:
            rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        elif kind == 1:
            col = rng.randrange(width)
            for row in rows:
                row[col] = 0
        elif kind == 2:
            rows += [list(row) for row in rows]
        else:
            rows = [[R.p * x % R.n for x in row] for row in rows]
        cases.append(rows)
    return cases


def _span(R, rows, width) -> frozenset:
    return additive_closure(rows or [[0] * width], R.n)


class TestPivotsAgainstEnumeration:
    """``howell_int``, ``membership_int``, ``row_module_size`` and
    ``smith_int`` against the enumerated span and the dense Smith
    reference (tests/oracles.py)."""

    @pytest.mark.parametrize("R,width", PIVOT_RINGS, ids=lambda x: str(x))
    def test_howell_form_spans_the_rows_with_power_pivots(self, R, width):
        rng = random.Random(211 + R.n)
        for rows in _pivot_cases(R, width, rng):
            H = howell_int(rows, width, R.p, R.m)
            span = _span(R, rows, width)
            assert _span(R, H, width) == span
            assert row_module_size(H, R.p, R.m) == len(span)
            # Each row's first nonzero entry is its pivot, an exact power
            # of p, in increasing columns, and the rows above it are
            # reduced modulo it there.
            pivots = []
            for row in H:
                j = next(t for t, c in enumerate(row) if c)
                assert power_exponent(row[j], R.p) is not None
                assert not pivots or j > pivots[-1]
                pivots.append(j)
            for i, j in enumerate(pivots):
                assert all(above[j] < H[i][j] for above in H[:i])
            shuffled = [list(row) for row in rows] + [list(row) for row in H]
            rng.shuffle(shuffled)
            assert howell_int(shuffled, width, R.p, R.m) == H
            assert howell_int(H, width, R.p, R.m) == H

    @pytest.mark.parametrize("R,width", PIVOT_RINGS, ids=lambda x: str(x))
    def test_membership_matches_the_enumerated_span(self, R, width):
        rng = random.Random(223 + R.n)
        for rows in _pivot_cases(R, width, rng):
            H = howell_int(rows, width, R.p, R.m)
            span = _span(R, rows, width)
            inside = rng.sample(sorted(span), min(len(span), 40))
            vectors = [list(x) for x in inside]
            vectors += [[rng.randrange(R.n) for _ in range(width)]
                        for _ in range(40)]
            vectors += [[R.p * rng.randrange(R.n) % R.n for _ in range(width)]
                        for _ in range(20)]
            for x in vectors:
                expected = tuple(x) in span
                assert membership_int(x, H, R.p, R.m) == expected
                # Unreduced entries are read modulo p^m.
                unreduced = [c + R.n * rng.randrange(3) for c in x]
                assert membership_int(unreduced, H, R.p, R.m) == expected

    @pytest.mark.parametrize("R,width", PIVOT_RINGS, ids=lambda x: str(x))
    def test_smith_matches_the_dense_reference(self, R, width):
        rng = random.Random(227 + R.n)
        for rows in _pivot_cases(R, width, rng):
            if not rows:
                continue
            exps, log, Q = smith_int(rows, R.p, R.m)
            dense_exps, P, dense_Q = smith_int_dense(rows, R.p, R.m)
            assert (exps, Q) == (dense_exps, dense_Q)
            assert replay_left_transform(log, len(rows), R.n) == P
            assert smith_int(rows, R.p, R.m, left=False) == (exps, None, Q)
            # The diagonal counts the span: |row span| = prod p^(m - e).
            size = 1
            for e in exps:
                size *= R.p ** (R.m - e)
            assert size == len(_span(R, rows, width))
