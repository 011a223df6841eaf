"""Exterior powers, biduals, contraction calculus, induced maps.

The alternating-form oracle (a from-scratch linear model of multilinear
alternating forms on the full dual) is the independent ground truth here:
the package's wedge-presentation route must produce the same solution
spaces.  Frozen values were computed by hand or with that oracle first.
"""

import ast
import itertools
import random
from pathlib import Path

import pytest

import ekslab.biduals
from ekslab.biduals import (
    ExteriorBidual,
    ExteriorPower,
    bidual_contraction,
    bidual_functor_map,
    contract_pullback,
    contract_table,
    exterior_map,
    fitt0_via_bidual,
    interior_product,
    merge_sign,
    r_subsets,
    reduce_element,
    subset_position,
    wedge_coeffs,
)
from ekslab.modules import (
    FPModule,
    Ideal,
    ModuleMap,
    chain_invariants,
    fitting_ideal,
    is_isomorphism,
    kernel,
    present_submodule,
    solve_map,
)
from ekslab.rings import ChainRing, Matrix, det_ring, make_ring, \
    membership_int, row_module_size, vec_to_base
from oracles import (
    all_functionals,
    alternating_form_solutions,
    contraction_map,
    free_system,
    same_submodule,
    wedge_mult_matrix,
)
from propchecks import (
    BIDUAL_CHECKS,
    bidual_kernel_sides,
    check_bidual_functor_injective,
    check_bidual_kernel,
    check_contraction_into_kernel,
    check_fitt0_bidual,
    check_morph,
    check_push_preimage_membership,
    check_wedge_kernel,
    draw_module,
    quotient_by,
    random_element,
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

Z4 = make_ring(2, 2)
Z8 = make_ring(2, 3)
Z9 = make_ring(3, 2)
F3C3 = make_ring(3, 1, (3,))


class TestSubsetCalculus:
    def test_subsets_ordering(self):
        assert r_subsets(3, 2) == [(0, 1), (0, 2), (1, 2)]
        assert r_subsets(3, 0) == [()]
        assert subset_position(4, 2)[(1, 3)] == 4

    def test_merge_sign_frozen(self):
        assert merge_sign((0,), (1,)) == 1
        assert merge_sign((1,), (0,)) == -1
        assert merge_sign((0, 2), (1, 3)) == -1   # one inversion: 2 > 1
        assert merge_sign((0, 1), (0, 2)) == 0    # overlap
        assert merge_sign((), (0, 1)) == 1

    def test_merge_sign_is_shuffle_parity(self):
        # concatenating and bubble-sorting must give the same sign
        rng = random.Random(7)
        for _ in range(50):
            n = 6
            k = rng.randrange(0, 4)
            r = rng.randrange(0, 4)
            pool = list(range(n))
            rng.shuffle(pool)
            A = tuple(sorted(pool[:k]))
            B = tuple(sorted(pool[k:k + r]))
            seq = list(A + B)
            swaps = 0
            for i in range(len(seq)):
                for j in range(len(seq) - 1 - i):
                    if seq[j] > seq[j + 1]:
                        seq[j], seq[j + 1] = seq[j + 1], seq[j]
                        swaps += 1
            assert merge_sign(A, B) == (-1 if swaps % 2 else 1)

    def test_contract_is_adjoint_of_wedge_mult(self):
        # (Phi . F)(e_B) = F(Phi wedge e_B): two separately coded paths
        rng = random.Random(11)
        for ring in [Z8, F3C3]:
            n, k, r = 4, 3, 2
            for _ in range(10):
                phi = [ring.random_element(rng) for _ in r_subsets(n, r)]
                table = [ring.random_element(rng) for _ in r_subsets(n, k)]
                W = wedge_mult_matrix(ring, n, k - r, r, phi)
                assert contract_table(ring, n, k, r, phi, table) == \
                    W.transpose().apply(table)

    def test_contraction_composes_as_wedge(self):
        # contracting by A then B equals contracting by A wedge B
        rng = random.Random(13)
        for ring in [Z9, F3C3]:
            n = 4
            for _ in range(10):
                a_rows = [[ring.random_element(rng) for _ in range(n)]]
                b_rows = [[ring.random_element(rng) for _ in range(n)]]
                table = [ring.random_element(rng) for _ in r_subsets(n, 3)]
                A = wedge_coeffs(ring, a_rows, n)
                B = wedge_coeffs(ring, b_rows, n)
                AB = wedge_coeffs(ring, a_rows + b_rows, n)
                step = contract_table(ring, n, 3, 1, A, table)
                two = contract_table(ring, n, 2, 1, B, step)
                assert two == contract_table(ring, n, 3, 2, AB, table)

    def test_full_contraction_is_determinant(self):
        # (f_1 ^ ... ^ f_r)(x_1 ^ ... ^ x_r) = det [f_i(x_j)]
        rng = random.Random(17)
        for ring in [Z4, Z9, F3C3]:
            n, r = 4, 3
            for _ in range(8):
                xs = [[ring.random_element(rng) for _ in range(n)] for _ in range(r)]
                fs = [[ring.random_element(rng) for _ in range(n)] for _ in range(r)]
                table = wedge_coeffs(ring, xs, n)
                phi = wedge_coeffs(ring, fs, n)
                out = contract_table(ring, n, r, r, phi, table)
                gram = [[sum_dot(ring, f, x) for x in xs] for f in fs]
                assert out == [det_ring(ring, gram)]

    @pytest.mark.parametrize("ring", [Z9, Z8, make_ring(5, 2),
                                      make_ring(3, 3), F3C3], ids=str)
    def test_contract_table_matches_signed_sum(self, ring):
        # The precomputed plan against the signed sum over subsets.
        rng = random.Random(23)
        for n, k, r in [(4, 3, 1), (4, 3, 2), (5, 3, 3), (4, 2, 0),
                        (3, 0, 0), (6, 4, 2), (5, 5, 1)]:
            phi = [ring.random_element(rng) for _ in r_subsets(n, r)]
            phi[0] = ring.zero
            table = [ring.random_element(rng) for _ in r_subsets(n, k)]
            pos = subset_position(n, k)
            expected = []
            for B in r_subsets(n, k - r):
                acc = ring.zero
                for a, A in enumerate(r_subsets(n, r)):
                    s = merge_sign(A, B)
                    if s:
                        v = ring.mul(phi[a], table[pos[tuple(sorted(A + B))]])
                        acc = ring.add(acc, v) if s == 1 else ring.sub(acc, v)
                expected.append(acc)
            assert contract_table(ring, n, k, r, phi, table) == expected

    def test_interior_product_matches_degree_one(self):
        rng = random.Random(19)
        ring = Z8
        n, k = 4, 2
        table = [ring.random_element(rng) for _ in r_subsets(n, k)]
        ell = [ring.random_element(rng) for _ in range(n)]
        phi = wedge_coeffs(ring, [ell], n)
        assert interior_product(ring, n, k, ell, table) == \
            contract_table(ring, n, k, 1, phi, table)


def sum_dot(ring, f, x):
    acc = ring.zero
    for a, b in zip(f, x):
        acc = ring.add(acc, ring.mul(a, b))
    return acc


class TestExteriorPower:
    def test_free_module_wedge_is_free(self):
        for ring in [Z4, F3C3]:
            X = FPModule.free(ring, 3)
            W = ExteriorPower(X, 2)
            assert len(W.subsets) == 3
            assert W.module.size == ring.size ** 3

    def test_frozen_z4_mixed_square(self):
        # wedge^2 of Z/4 + Z/2 is Z/2: the single relation 2 e2 survives
        X = FPModule(Z4, 2, Matrix(Z4, [[0, 2]]))
        W = ExteriorPower(X, 2)
        assert W.module.size == 2
        assert W.module.rel_howell == [[2]]

    def test_wedge_beyond_generators_vanishes(self):
        X = FPModule(Z9, 2, Matrix(Z9, [[3, 0]]))
        W = ExteriorPower(X, 3)
        assert W.module.size == 1

    def test_degree_zero_is_the_ring(self):
        X = FPModule(Z8, 2, Matrix(Z8, [[2, 4]]))
        W = ExteriorPower(X, 0)
        assert W.module.size == Z8.size

    def test_chain_ring_invariant_oracle(self):
        # wedge^r of a sum of cyclics: one cyclic per r-subset, with the
        # minimal invariant — checked against arbitrary (non-diagonal)
        # presentations of the same module
        rng = random.Random(23)
        for ring in CHAIN_RINGS:
            for _ in range(12):
                g = rng.randrange(1, 5)
                k = rng.randrange(0, g + 2)
                rows = [[ring.random_element(rng) for _ in range(g)]
                        for _ in range(k)]
                X = FPModule(ring, g, Matrix(ring, rows, ncols=g))
                exps = chain_invariants(X)
                for r in range(1, min(3, g) + 1):
                    W = ExteriorPower(X, r)
                    expect = sorted(
                        (min(I) for I in itertools.combinations(exps, r)),
                        reverse=True)
                    expect = [e for e in expect if e > 0]
                    assert chain_invariants(W.module) == expect

    def test_exterior_map_functorial(self):
        rng = random.Random(29)
        for ring in [Z4, Z9, F3C3]:
            for _ in range(6):
                X = FPModule.free(ring, 3)
                mf = Matrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                   for _ in range(3)])
                mg = Matrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                   for _ in range(3)])
                f = ModuleMap(X, X, mf)
                g = ModuleMap(X, X, mg)
                wf = exterior_map(f, 2)
                wg = exterior_map(g, 2)
                wgf = exterior_map(g.compose(f), 2)
                assert wg.compose(wf).equals(wgf)

    def test_exterior_map_identity(self):
        X = FPModule(Z8, 3, Matrix(Z8, [[2, 0, 4]]))
        w = exterior_map(ModuleMap.identity(X), 2)
        assert w.equals(ModuleMap.identity(w.source))


class TestContractionMap:
    def test_frozen_basis_contractions(self):
        X = FPModule.free(Z9, 2)
        c1 = contraction_map(X, [[Z9.one, Z9.zero]], 2)   # e1* on e1^e2 -> e2
        assert c1.matrix.rows == [[0], [1]]
        c2 = contraction_map(X, [[Z9.zero, Z9.one]], 2)   # e2* on e1^e2 -> -e1
        assert c2.matrix.rows == [[8], [0]]

    def test_two_functionals_give_determinant(self):
        rng = random.Random(31)
        for ring in [Z4, F3C3]:
            X = FPModule.free(ring, 2)
            for _ in range(10):
                f1 = [ring.random_element(rng) for _ in range(2)]
                f2 = [ring.random_element(rng) for _ in range(2)]
                c = contraction_map(X, [f1, f2], 2)
                det = det_ring(ring, [[f1[0], f1[1]], [f2[0], f2[1]]])
                assert c.matrix.rows == [[det]]

    def test_module_and_table_contraction_agree(self):
        # on a free module the coordinate route and the table route coincide
        rng = random.Random(37)
        for ring in [Z8, F3C3]:
            n = 3
            X = FPModule.free(ring, n)
            for _ in range(6):
                phi = [ring.random_element(rng) for _ in range(n)]
                xs = [[ring.random_element(rng) for _ in range(n)]
                      for _ in range(2)]
                cm = contraction_map(X, [phi], 2)
                wedge_vec = wedge_coeffs(ring, xs, n)
                out_module = cm.matrix.apply(wedge_vec)
                bid2 = ExteriorBidual(X, 2)
                bid1 = ExteriorBidual(X, 1)
                coords = bid2.from_table(_free_table(bid2, wedge_vec))
                contr = bidual_contraction(
                    bid2, bid1, _dual_coords(bid2, phi))
                got = contr.apply(coords)
                want = bid1.from_table(_free_table(bid1, out_module))
                assert bid1.module.elements_equal(got, want)


def _dual_coords(bid, f_vec):
    """Coordinates of a functional on X in the dual generators, wedged to
    the degree needed by a one-step contraction."""
    sol = solve_map(free_system(bid.Y.transpose()), list(f_vec))
    assert sol is not None
    return wedge_coeffs(bid.X.ring, [sol], bid.dual.ngens)[: len(
        r_subsets(bid.dual.ngens, 1))]


def _free_table(bid, coeff_vec):
    """Value table of the xi-image of a wedge with these free coordinates.

    For a free module the dual generators need not be the dual basis (they
    are whatever the dual presentation produced), so evaluate honestly:
    entry A is the determinant of the dual generators at A against the
    coefficient expansion — i.e. push coeff_vec through xi.
    """
    ring = bid.X.ring
    ext = ExteriorPower(bid.X, bid.r)
    tbl = [ring.zero] * len(bid.wedge.subsets)
    for pos_i, I in enumerate(ext.subsets):
        c = coeff_vec[pos_i]
        if c == ring.zero:
            continue
        for a, A in enumerate(bid.wedge.subsets):
            sub = [[bid.Y.rows[y][i] for i in I] for y in A]
            tbl[a] = ring.add(tbl[a], ring.mul(c, det_ring(ring, sub)))
    return tbl


class TestBidualModule:
    def test_free_bidual_sizes_and_xi_iso(self):
        for ring in [Z4, Z9, F3C3]:
            X = FPModule.free(ring, 3)
            for r in range(0, 4):
                bid = ExteriorBidual(X, r)
                binom = [1, 3, 3, 1][r]
                assert bid.module.size == ring.size ** binom
                assert is_isomorphism(bid.xi())

    def test_degree_one_is_double_dual(self):
        rng = random.Random(41)
        for ring in RINGS:
            for _ in range(4):
                X = draw_module(ring, rng)
                bid = ExteriorBidual(X, 1)
                assert bid.module.size == X.size
                assert is_isomorphism(bid.xi())

    def test_frozen_cyclic_degree_one(self):
        X = FPModule(Z4, 1, Matrix(Z4, [[2]]))
        bid = ExteriorBidual(X, 1)
        assert bid.module.size == 2

    def test_frozen_xi_zero_map(self):
        # X = Z/2 + Z/2 over Z/4: wedge^2 and its bidual are both Z/2, but
        # xi pairs through det [[2,0],[0,2]] = 0 — neither injective nor
        # surjective
        X = FPModule(Z4, 2, Matrix(Z4, [[2, 0], [0, 2]]))
        W = ExteriorPower(X, 2)
        bid = ExteriorBidual(X, 2)
        assert W.module.size == 2
        assert bid.module.size == 2
        x = bid.xi()
        assert x.is_zero_map()
        assert not is_isomorphism(x)

    def test_from_table_roundtrip_and_rejection(self):
        X = FPModule(Z4, 2, Matrix(Z4, [[0, 2]]))
        bid = ExteriorBidual(X, 2)
        # the wedge of the dual is Z/2 here: tables must kill 2
        for coords in [bid.module.zero_element()] + [
            bid.module.generator(i) for i in range(bid.module.ngens)
        ]:
            tbl = bid.table(coords)
            back = bid.from_table(tbl)
            assert back is not None
            assert bid.module.elements_equal(back, coords)
        bad = [Z4.one] * len(bid.wedge.subsets)
        assert bid.from_table(bad) is None

    def test_dual_solver_matches_solve_linear(self):
        rng = random.Random(44)
        for ring in RINGS:
            X = draw_module(ring, rng)
            bid = ExteriorBidual(X, 1)
            Yt = bid.Y.transpose()
            assert bid.dual_solver.matrix == Yt
            assert bid.dual_solver.source.relations.nrows == 0
            assert bid.dual_solver.target.relations.nrows == 0
            for _ in range(4):
                f = [ring.random_element(rng) for _ in range(X.ngens)]
                assert solve_map(bid.dual_solver, f) == solve_map(
                    free_system(Yt), f)


class TestContractPullback:
    MESSAGES = ("not a functional", "escapes", "outside")

    def test_identity_inclusions_give_the_scaled_descending_contraction(self):
        rng = random.Random(71)
        for ring in [Z9, F3C3]:
            X = FPModule.free(ring, 3)
            incl = ModuleMap.identity(X)
            b3, b1 = ExteriorBidual(X, 3), ExteriorBidual(X, 1)
            f0, f2 = ([ring.random_element(rng) for _ in range(3)]
                      for _ in range(2))
            minus = ring.neg(ring.one)
            got = contract_pullback(b3, incl, {0: f0, 2: f2}, b1, incl,
                                    ExteriorBidual(X, 1), minus,
                                    self.MESSAGES)
            dual = free_system(b3.Y.transpose())
            rows = [solve_map(dual, f2), solve_map(dual, f0)]
            phi = wedge_coeffs(ring, rows, 3)
            want = bidual_contraction(b3, b1, phi)
            for b in range(b3.module.ngens):
                x = b3.module.generator(b)
                assert got.apply(x) == [ring.mul(minus, v)
                                        for v in want.apply(x)]

    def test_a_submodule_outside_raises_the_given_text(self):
        ambient = FPModule.free(Z9, 2)
        line = FPModule.free(Z9, 1)
        line_incl = ModuleMap(line, ambient, Matrix(Z9, [[1], [0]]))
        with pytest.raises(RuntimeError, match="escapes"):
            contract_pullback(
                ExteriorBidual(line, 1), line_incl, {},
                ExteriorBidual(line, 1),
                ModuleMap.identity(ambient), ExteriorBidual(ambient, 1),
                Z9.one, self.MESSAGES)


class TestBidualFunctorReuse:
    """Passing biduals the caller already holds must not change the map."""

    @staticmethod
    def _inclusion(ring, rng):
        ambient = draw_module(ring, rng, max_gens=3)
        vectors = [random_element(ambient, rng) for _ in range(2)]
        return present_submodule(ambient, vectors)[1]

    def test_cached_biduals_give_the_same_map(self):
        rng = random.Random(61)
        for ring in RINGS:
            for r in (1, 2):
                incl = self._inclusion(ring, rng)
                fresh = bidual_functor_map(incl, r)
                bs = ExteriorBidual(incl.source, r)
                bt = ExteriorBidual(incl.target, r)
                push = bidual_functor_map(incl, r, bs, bt)
                assert push.source is bs.module and push.target is bt.module
                assert push.matrix == fresh.matrix
                only_source = bidual_functor_map(incl, r, source=bs)
                assert only_source.matrix == fresh.matrix

    def test_same_presentation_is_accepted(self):
        X = FPModule(Z9, 2, Matrix(Z9, [[3, 0]]))
        twin = FPModule(Z9, 2, Matrix(Z9, [[3, 0]]))
        f = ModuleMap.identity(X)
        push = bidual_functor_map(f, 1, ExteriorBidual(twin, 1))
        assert push.matrix == bidual_functor_map(f, 1).matrix

    def test_wrong_degree_rejected(self):
        incl = self._inclusion(Z9, random.Random(62))
        with pytest.raises(ValueError, match="degree"):
            bidual_functor_map(incl, 1, source=ExteriorBidual(incl.source, 2))
        with pytest.raises(ValueError, match="degree"):
            bidual_functor_map(incl, 2, target=ExteriorBidual(incl.target, 1))

    def test_wrong_module_rejected(self):
        incl = self._inclusion(Z9, random.Random(63))
        other = FPModule(Z9, incl.source.ngens,
                         Matrix(Z9, [[3] * incl.source.ngens]))
        with pytest.raises(ValueError, match="different module"):
            bidual_functor_map(incl, 1, source=ExteriorBidual(other, 1))
        # The source's bidual is not one of the target.
        if incl.source.ngens != incl.target.ngens:
            with pytest.raises(ValueError, match="different module"):
                bidual_functor_map(
                    incl, 1, target=ExteriorBidual(incl.source, 1))
        over_z4 = FPModule.free(Z4, incl.target.ngens)
        with pytest.raises(ValueError, match="different module"):
            bidual_functor_map(incl, 1, target=ExteriorBidual(over_z4, 1))


class TestBidualContraction:
    def test_naturality_square_with_xi(self):
        # contracting coordinates then applying xi equals applying xi then
        # contracting tables, on free modules where xi is invertible
        rng = random.Random(43)
        for ring in [Z8, Z9, F3C3]:
            n = 3
            X = FPModule.free(ring, n)
            bid2 = ExteriorBidual(X, 2)
            bid1 = ExteriorBidual(X, 1)
            xi2, xi1 = bid2.xi(), bid1.xi()
            for _ in range(6):
                phi = [ring.random_element(rng) for _ in range(n)]
                cm = contraction_map(X, [phi], 2)
                contr = bidual_contraction(bid2, bid1, _dual_coords(bid2, phi))
                lhs = contr.compose(xi2)
                rhs = xi1.compose(cm)
                assert lhs.equals(rhs)

    def test_composition_matches_wedge(self):
        rng = random.Random(47)
        ring = Z9
        X = FPModule.free(ring, 3)
        b3, b2, b1 = (ExteriorBidual(X, r) for r in (3, 2, 1))
        for _ in range(6):
            f1 = [ring.random_element(rng) for _ in range(3)]
            f2 = [ring.random_element(rng) for _ in range(3)]
            c1 = bidual_contraction(b3, b2, _dual_coords(b3, f1))
            c2 = bidual_contraction(b2, b1, _dual_coords(b2, f2))
            both = _wedge_dual_coords(b3, [f1, f2])
            c12 = bidual_contraction(b3, b1, both)
            assert c2.compose(c1).equals(c12)

    def test_degree_mismatch_rejected(self):
        X = FPModule.free(Z4, 2)
        b1 = ExteriorBidual(X, 1)
        b2 = ExteriorBidual(X, 2)
        with pytest.raises(ValueError):
            bidual_contraction(b1, b2, [Z4.one])


def _wedge_dual_coords(bid, f_vecs):
    ring = bid.X.ring
    rows = []
    for f in f_vecs:
        sol = solve_map(free_system(bid.Y.transpose()), list(f))
        assert sol is not None
        rows.append(sol)
    return wedge_coeffs(ring, rows, bid.dual.ngens)


class TestMembershipCriterion:
    def test_degree_zero_always_member(self):
        # the degree-0 bidual of any submodule is the whole ring: 1 has a
        # preimage under the functor map of the inclusion
        X = FPModule(Z4, 2, Matrix(Z4, [[2, 0]]))
        bid = ExteriorBidual(X, 0)
        _sub, incl = present_submodule(X, [[Z4.zero, Z4.one]])
        push = bidual_functor_map(incl, 0, target=bid)
        assert solve_map(push, bid.module.generator(0)) is not None

    def test_frozen_plane_degree_two(self):
        # X free of rank 3 over Z/4, submodule = span(e1, e2): in degree 2
        # xi(e1 ^ e2) has a preimage, xi(e1 ^ e3) and xi(e2 ^ e3) none
        X = FPModule.free(Z4, 3)
        bid = ExteriorBidual(X, 2)
        _plane, incl = present_submodule(
            X, [[Z4.one, Z4.zero, Z4.zero], [Z4.zero, Z4.one, Z4.zero]])
        push = bidual_functor_map(incl, 2, target=bid)
        xi = bid.xi()
        wedge = ExteriorPower(X, 2)
        found = {}
        for k, I in enumerate(wedge.subsets):
            monomial = [Z4.zero] * len(wedge.subsets)
            monomial[k] = Z4.one
            found[tuple(I)] = solve_map(push, xi.apply(monomial)) is not None
        assert found == {(0, 1): True, (0, 2): False, (1, 2): False}

    def test_frozen_split_line(self):
        # X free of rank 2 over Z/4, submodule = first axis: xi(e1) has a
        # preimage under the functor map of the axis inclusion, xi(e2) none
        X = FPModule.free(Z4, 2)
        bid = ExteriorBidual(X, 1)
        _axis, incl = present_submodule(X, [[Z4.one, Z4.zero]])
        push = bidual_functor_map(incl, 1, target=bid)
        xi = bid.xi()
        assert solve_map(push, xi.apply([Z4.one, Z4.zero])) is not None
        assert solve_map(push, xi.apply([Z4.zero, Z4.one])) is None

    def test_criterion_equals_functor_image(self):
        rng = random.Random(89)
        members = non_members = 0
        for ring in RINGS + [make_ring(3, 3), make_ring(3, 1),
                             make_ring(2, 2, (2,)), make_ring(2, 1, (4,))]:
            for _ in range(8):
                inside, outside = check_push_preimage_membership(ring, rng)
                members += inside
                non_members += outside
        assert members and non_members

    def test_functor_injective(self):
        rng = random.Random(59)
        for ring in RINGS:
            for _ in range(3):
                check_bidual_functor_injective(ring, rng)


class TestBidualKernel:
    # bidual_kernel_sides returns (|embedded bidual of ker f|,
    # |kernel of contraction by f|, kernel inside the embedded bidual)
    def test_frozen_coordinate_functional(self):
        # ker(e2*) = first axis; degree 2 of a rank-1 kernel: both sides 0
        X = FPModule.free(Z4, 2)
        assert bidual_kernel_sides(X, [Z4.zero, Z4.one], 2) == (1, 1, True)

    def test_frozen_zero_functional(self):
        # both sides are the whole degree-1 bidual, of size 16
        X = FPModule.free(Z4, 2)
        assert bidual_kernel_sides(X, [Z4.zero, Z4.zero], 1) == (16, 16, True)

    def test_frozen_doubling_functional(self):
        # f = 2 e2*: kernel is Z/4 + Z/2, degree-1 bidual has size 8
        X = FPModule.free(Z4, 2)
        assert bidual_kernel_sides(X, [Z4.zero, 2], 1) == (8, 8, True)

    def test_random_kernel_identity(self):
        rng = random.Random(61)
        for ring in RINGS:
            for _ in range(3):
                check_bidual_kernel(ring, rng)


class TestWedgeKernelLemma:
    def test_frozen_quotient_square(self):
        # ambient free rank 2 over Z/4, kill 2 e1: the wedge-square kernel
        # is exactly 2 (e1 ^ e2), spanned by the submodule wedge the ambient
        ambient = FPModule.free(Z4, 2)
        vectors = [[2, Z4.zero]]
        quot, proj = quotient_by(ambient, vectors)
        ext_s = ExteriorPower(ambient, 2)
        wmap = exterior_map(proj, 2)
        ker_sub, ker_incl = kernel(wmap)
        assert ker_sub.size == 2
        kernel_gens = [ker_incl.apply(ker_sub.generator(i))
                       for i in range(ker_sub.ngens)]
        assert same_submodule(ext_s.module, kernel_gens, [[2]])

    def test_random_wedge_kernels(self):
        rng = random.Random(67)
        for ring in RINGS:
            for _ in range(3):
                check_wedge_kernel(ring, rng)


class TestInducedMaps:
    def test_group_collapse_corestriction(self):
        # (Z/9)[C3] -> Z/9 sums the coefficients
        R = make_ring(3, 2, (3,))
        S = make_ring(3, 2)
        x = R.from_vec((1, 5, 2))
        assert reduce_element(R, S, x) == 8
        with pytest.raises(ValueError):
            reduce_element(S, R, 1)

    def test_random_naturality(self):
        rng = random.Random(71)
        for ring in RINGS:
            for _ in range(4):
                check_morph(ring, rng)


class TestFittZero:
    def test_frozen_diagonal(self):
        phis = [[2, Z8.zero], [Z8.zero, 2]]
        got = fitt0_via_bidual(Z8, 2, phis)
        assert got == Ideal(Z8, [4])
        Z = FPModule(Z8, 2, Matrix(Z8, [[2, 0], [0, 2]]))
        assert got == fitting_ideal(Z, 0)

    def test_random_agreement_with_minors(self):
        rng = random.Random(73)
        for ring in RINGS:
            for _ in range(4):
                check_fitt0_bidual(ring, rng)

    def test_contraction_lands_in_kernel_bidual(self):
        rng = random.Random(79)
        for ring in RINGS:
            for _ in range(4):
                check_contraction_into_kernel(ring, rng)


ORACLE_FIXTURES = [
    # (ring, relation rows, wedge degree)
    (Z4, [[0, 2]], 2),                     # Z/4 + Z/2
    (Z4, [[2, 0], [0, 2]], 2),             # the xi-degenerate square
    (make_ring(5, 1), [], 1),              # a field line
    (Z9, [[3]], 2),                        # cyclic Z/3 over Z/9, top degree
    (F3C3, [[F3C3.sub(F3C3.generator(0), F3C3.one)]], 1),  # norm line dual
]


class TestAlternatingFormOracle:
    @pytest.mark.parametrize("case", range(len(ORACLE_FIXTURES)))
    def test_bidual_matches_scratch_forms(self, case):
        ring, rel_rows, r = ORACLE_FIXTURES[case]
        g = len(rel_rows[0]) if rel_rows else 1
        X = FPModule(ring, g, Matrix(ring, rel_rows, ncols=g))
        bid = ExteriorBidual(X, r)
        funcs = all_functionals(X)
        H, tindex = alternating_form_solutions(ring, funcs, r)
        base = ring.base
        assert row_module_size(H, base.p, base.m) == bid.module.size
        # every package element, expanded to a full tuple table, must lie in
        # the scratch solution space
        d = ring.rank
        for b in range(bid.module.ngens):
            tbl = bid.table(bid.module.generator(b))
            full = [0] * (len(tindex) * d)
            for t, a in tindex.items():
                rows = []
                for i in t:
                    sol = solve_map(free_system(bid.Y.transpose()),
                                    list(funcs[i]))
                    assert sol is not None
                    rows.append(sol)
                W = wedge_coeffs(ring, rows, bid.dual.ngens)
                val = ring.zero
                for c, v in zip(W, tbl):
                    val = ring.add(val, ring.mul(c, v))
                for e, ve in enumerate(vec_to_base(ring, [val])):
                    full[a * d + e] = ve
            assert membership_int(full, H, base.p, base.m)


class TestBatteries:
    def test_all_checks_once_per_ring(self):
        rng = random.Random(83)
        for ring in RINGS:
            for chk in BIDUAL_CHECKS:
                chk(ring, rng)


def _referenced_names(tree, skip=None) -> set:
    """Names read (as a bare name or an attribute) anywhere in the tree,
    outside the ``skip`` node."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


# Reached only from tests, on purpose: perfbench's tracer wraps howell_form,
# and chain_invariants waits for the structure report of ROADMAP item 4.
TEST_ONLY = {"howell_form", "chain_invariants"}


def _public_definitions(tree):
    """``(name, node)`` of every top-level function and every public method
    of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")):
                    yield f"{node.name}.{sub.name}", sub


def test_every_bidual_function_is_used_by_the_package():
    # Test-only helpers belong in tests/oracles.py, not in the ring, module
    # or bidual layer.  A name counts as used when it is read somewhere in
    # src/ekslab/ outside its own definition.
    package = Path(ekslab.biduals.__file__).parent
    trees = {path: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    unused = []
    for layer in ("rings", "modules", "biduals"):
        own = package / f"{layer}.py"
        for name, node in _public_definitions(trees[own]):
            short = name.rsplit(".", 1)[-1]
            if short in TEST_ONLY:
                continue
            if not any(short in _referenced_names(
                    tree, node if path == own else None)
                    for path, tree in trees.items()):
                unused.append(f"{layer}.{name}")
    assert not unused, f"reached only from outside the package: {unused}"
