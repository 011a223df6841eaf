"""Tests for the divisor-indexed system engine: relaxed modules, transition
maps and their composition law, content ideals against Fitting ideals, core
projections, and coefficient towers."""

import pytest

from ekslab.biduals import ExteriorBidual
from ekslab.modules import (
    Ideal,
    ModuleMap,
    factor_through,
    fitting_ideal,
    is_isomorphism,
)
from ekslab.rings import Matrix, make_ring
from ekslab.selmer import (
    PrimeData,
    SelmerInstance,
    core_vertices,
    frobenius_data,
    generate_instance,
    min_generators,
)
from ekslab.stark import (
    StarkData,
    StarkTower,
    canonical_basis_system,
    core_projections_bijective,
    reduce_instance,
    shadow_reduction_matches,
    stark_from_top,
    system_compatible,
    system_ideals,
    system_is_basis,
    verify_cocycle,
    verify_stark_theorem,
)
from oracles import cocycle_on_every_chain, same_submodule

Z8 = make_ring(2, 3)
Z25 = make_ring(5, 2)
F5 = make_ring(5, 1)
Z9C3 = make_ring(3, 2, (3,))
Z125 = make_ring(5, 3)
Z9 = make_ring(3, 2)

RINGS = [Z8, Z25, F5, Z9C3]


def _unit_frobenius(ring):
    return frobenius_data(ring, [[ring.one]])


def _graded_z25_instance():
    """Two primes over Z/25 with dual Selmer of graded size: the content
    ideals of the canonical system come out as (0) < (5) < (1)."""
    fr = _unit_frobenius(Z25)
    primes = [PrimeData("q1", 5, fr), PrimeData("q2", 5, fr)]
    finite = Matrix(Z25, [[5, 5, 0], [0, 5, 5]], ncols=3)
    transverse = Matrix(Z25, [[1, 0, 0], [0, 0, 1]], ncols=3)
    return SelmerInstance(Z25, 1, primes, finite, transverse)


def _graded_z125_instance():
    fr = _unit_frobenius(Z125)
    primes = [PrimeData("q1", 5, fr), PrimeData("q2", 5, fr)]
    finite = Matrix(Z125, [[25, 5, 0], [0, 25, 5]], ncols=3)
    transverse = Matrix(Z125, [[1, 0, 0], [0, 0, 1]], ncols=3)
    return SelmerInstance(Z125, 1, primes, finite, transverse)


class TestRelaxedModules:
    def test_top_divisor_is_free_ambient(self):
        inst = generate_instance(Z25, 2, 3, profile="generic", seed=0)
        data = StarkData(inst)
        module, incl = inst.relaxed_module(data.top_divisor)
        assert module.ngens == inst.ambient_rank
        assert module.relations.nrows == 0
        assert incl.matrix.rows == Matrix.identity(Z25, 5).rows

    def test_empty_divisor_matches_strict_selmer(self):
        inst = generate_instance(Z25, 1, 3, profile="generic", seed=1)
        data = StarkData(inst)
        module, incl = inst.relaxed_module(())
        sel, sel_incl = inst.selmer_module(())
        ambient, _ = inst.relaxed_module(data.top_divisor)
        gens_a = [incl.apply(module.generator(i)) for i in range(module.ngens)]
        gens_b = [sel_incl.apply(sel.generator(i)) for i in range(sel.ngens)]
        assert same_submodule(ambient, gens_a, gens_b)

    def test_inclusions_compose(self):
        inst = generate_instance(Z8, 1, 3, profile="generic", seed=2)
        data = StarkData(inst)
        n, mid, top = (), (0, 2), (0, 1, 2)

        def inclusion(small, big):
            return factor_through(data.module(small)[1], data.module(big)[1],
                                  "relaxed module escapes the more relaxed one")

        direct = inclusion(n, top)
        stepped = inclusion(mid, top).compose(inclusion(n, mid))
        assert direct.equals(stepped)

    def test_degree_counts_primes(self):
        inst = generate_instance(Z25, 2, 3, profile="generic", seed=0)
        data = StarkData(inst)
        assert data.degree(()) == 2
        assert data.degree((0, 2)) == 4
        assert data.degree(data.top_divisor) == 5


class TestTransitions:
    def test_identity_on_equal_divisors(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed=3)
        data = StarkData(inst)
        t = data.transition((0,), (0,))
        assert t.equals(t.compose(t))
        assert t.matrix.rows == Matrix.identity(Z25, t.source.ngens).rows

    def test_rejects_non_nested_divisors(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed=3)
        data = StarkData(inst)
        with pytest.raises(ValueError):
            data.transition((0,), (1,))

    def test_frozen_single_prime_contraction_value(self):
        # One prime, finite row = second coordinate functional.  The relaxed
        # module at the empty divisor is the first axis; contracting the top
        # determinant functional F by f gives (f . F)(g1) = F(f ^ g1)
        # = F(g2 ^ g1) = -F(g1 ^ g2) = -1.
        fr = _unit_frobenius(Z25)
        inst = SelmerInstance(Z25, 1, [PrimeData("q1", 5, fr)],
                              Matrix(Z25, [[0, 1]], ncols=2),
                              Matrix(Z25, [[1, 0]], ncols=2))
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        bid = data.bidual(())
        assert bid.table(basis.component(())) == [24]

    def test_canonical_basis_built_once(self, monkeypatch):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed=3)
        data = StarkData(inst)
        # A failed build caches nothing: every caller sees the failure.
        monkeypatch.setattr(ExteriorBidual, "from_table",
                            lambda self, table: None)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="not a functional"):
                canonical_basis_system(data)
        monkeypatch.undo()
        basis = canonical_basis_system(data)
        assert canonical_basis_system(data) is basis

    def test_transition_is_linear(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed=4)
        data = StarkData(inst)
        top = data.top_divisor
        t = data.transition(top, (1,))
        bid = data.bidual(top)
        u, v = [Z9C3.reduce((1, 2, 0))], [Z9C3.reduce((0, 4, 7))]
        lhs = t.apply([Z9C3.add(a, b) for a, b in zip(u, v)])
        rhs = [Z9C3.add(a, b) for a, b in zip(t.apply(u), t.apply(v))]
        assert data.bidual((1,)).module.elements_equal(lhs, rhs)


class TestCocycle:
    @pytest.mark.parametrize("ring,s,seed", [
        (Z8, 3, 0), (Z25, 3, 1), (F5, 3, 2), (Z25, 4, 3),
    ])
    def test_chain_ring_cocycle(self, ring, s, seed):
        inst = generate_instance(ring, 1, s, profile="generic", seed=seed)
        assert verify_cocycle(StarkData(inst))

    def test_group_ring_cocycle(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed=5)
        assert verify_cocycle(StarkData(inst))

    @pytest.mark.parametrize("profile", ["class-trivial", "pir-basis", "degenerate"])
    def test_cocycle_across_profiles(self, profile):
        inst = generate_instance(Z25, 2, 3, profile=profile, seed=6)
        assert verify_cocycle(StarkData(inst))

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)],
                             ids=["z9-r1-s3", "z9c3-r1-s2"])
    def test_one_prime_first_chains_decide_like_every_chain(self, ring, s):
        # Corrupt each computed transition in turn.  T(m, m) is the identity
        # by construction, which the one-prime-first check takes as given,
        # so the identity entries of the cache are left alone.
        data = StarkData(generate_instance(ring, 1, s, profile="generic",
                                           seed=0))
        assert cocycle_on_every_chain(data) and verify_cocycle(data)
        unit = ring.from_int(1 + ring.base.p)
        verdicts = []
        for (m, n), T in list(data._transition.items()):
            if m == n:
                continue
            for c in (ring.neg(ring.one), unit):
                data._transition[m, n] = ModuleMap(T.source, T.target, Matrix(
                    ring, [[ring.mul(c, x) for x in row]
                           for row in T.matrix.rows], ncols=T.matrix.ncols))
                verdict = verify_cocycle(data)
                assert verdict == cocycle_on_every_chain(data), (m, n, c)
                verdicts.append(verdict)
            data._transition[m, n] = T
        assert False in verdicts


class TestStarkSystems:
    @pytest.mark.parametrize("ring", RINGS)
    def test_canonical_system_is_compatible_basis(self, ring):
        inst = generate_instance(ring, 1, 2, profile="generic", seed=7)
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        assert system_compatible(basis)
        assert system_is_basis(basis)

    def test_from_top_commutes_with_scaling(self):
        inst = generate_instance(Z25, 1, 3, profile="generic", seed=8)
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        lam = 5
        scaled_top = [Z25.mul(lam, c) for c in basis.top_component()]
        direct = stark_from_top(data, scaled_top)
        via_scale = basis.scaled(lam)
        for d in inst.divisors():
            assert data.bidual(d).module.elements_equal(
                direct.component(d), via_scale.component(d))

    def test_scaled_by_nonunit_is_not_basis(self):
        inst = generate_instance(Z8, 1, 2, profile="generic", seed=9)
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        assert not system_is_basis(basis.scaled(2))
        assert system_is_basis(basis.scaled(3))

    def test_zero_system(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed=10)
        data = StarkData(inst)
        zero = stark_from_top(data, [Z25.zero])
        assert system_compatible(zero)
        assert all(I.is_zero() for I in system_ideals(zero))


class TestContentIdeals:
    def test_frozen_graded_instance(self):
        inst = _graded_z25_instance()
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        assert basis.top_component() == [1]
        assert basis.component(()) == [0, 0, 0]
        assert basis.component((0,)) == [0, 0, 20]
        assert [I.exponent() for I in system_ideals(basis)] == [2, 1, 0]
        assert core_vertices(inst) == [(0, 1)]

    @pytest.mark.parametrize("ring", RINGS)
    @pytest.mark.parametrize("profile", ["generic", "class-trivial", "degenerate"])
    def test_basis_ideals_equal_fitting(self, ring, profile):
        inst = generate_instance(ring, 1, 2, profile=profile, seed=11)
        data = StarkData(inst)
        ideals = system_ideals(canonical_basis_system(data))
        dual = inst.dual_selmer(())
        for i, I in enumerate(ideals):
            assert I == fitting_ideal(dual, i)

    def test_scaled_ideals_scale(self):
        inst = _graded_z25_instance()
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        dual = inst.dual_selmer(())
        for lam in (5, 7, 10):
            ideals = system_ideals(basis.scaled(lam))
            for i, I in enumerate(ideals):
                assert I == fitting_ideal(dual, i).mul(Ideal(inst.ring, [lam]))

    @pytest.mark.parametrize("ring", RINGS)
    def test_structure_theorem(self, ring):
        inst = generate_instance(ring, 1, 3, profile="generic", seed=12)
        data = StarkData(inst)
        basis = canonical_basis_system(data)
        assert all(verify_stark_theorem(basis, system_is_basis(basis)).values())
        p_elt = ring.from_int(ring.p)
        scaled = basis.scaled(p_elt)
        assert all(verify_stark_theorem(scaled, system_is_basis(scaled))
                   .values())

    def test_theorem_on_degenerate_instance(self):
        inst = generate_instance(Z25, 1, 3, profile="degenerate", seed=13)
        basis = canonical_basis_system(StarkData(inst))
        verdicts = verify_stark_theorem(basis, system_is_basis(basis))
        assert all(verdicts.values())
        # degenerate instances have non-unit intermediate ideals
        assert not system_ideals(basis)[0].is_unit()


class TestCoreProjections:
    def test_graded_instance_core(self):
        inst = _graded_z25_instance()
        data = StarkData(inst)
        assert core_projections_bijective(data)
        # the only core vertex is the full divisor; the projection to the
        # empty divisor is not even surjective
        assert not is_isomorphism(data.transition(data.top_divisor, ()))

    def test_pir_basis_profile_all_core(self):
        inst = generate_instance(Z25, 1, 3, profile="pir-basis", seed=14)
        data = StarkData(inst)
        assert core_vertices(inst) == inst.divisors()
        assert core_projections_bijective(data)
        for d in inst.divisors():
            assert is_isomorphism(data.transition(data.top_divisor, d))

    @pytest.mark.parametrize("ring,seed", [(Z8, 15), (Z25, 16), (Z9C3, 17)])
    def test_random_instances(self, ring, seed):
        inst = generate_instance(ring, 1, 2, profile="generic", seed=seed)
        assert core_projections_bijective(StarkData(inst))


def _systems_down(tower, top_system) -> dict:
    """The top-level system and its reductions down the whole tower, keyed
    by level."""
    out = {tower.top_level: top_system}
    for level in range(tower.top_level, 1, -1):
        out[level - 1] = tower.reduce_system(level, out[level])
    return out


def _exponent_table(tower, top_system) -> list:
    """Entry [i][level - 1] is the exponent of the level's i-th content
    ideal down the tower (the zero ideal reads as the level itself)."""
    systems = _systems_down(tower, top_system)
    ideals = [system_ideals(systems[level])
              for level in range(1, tower.top_level + 1)]
    return [[row[i].exponent() for row in ideals]
            for i in range(len(ideals[0]))]


def _reduce_ideal(S, ideal):
    return Ideal(S, [g % S.n for g in ideal.gens])


class TestTower:
    def test_rejects_group_rings(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed=18)
        with pytest.raises(ValueError):
            StarkTower(inst)

    def test_level_bounds(self):
        tower = StarkTower(_graded_z125_instance())
        with pytest.raises(ValueError):
            tower.instance_at(0)
        with pytest.raises(ValueError):
            tower.instance_at(4)
        with pytest.raises(ValueError):
            tower.reduce_system(1, canonical_basis_system(tower.data_at(1)))

    def test_reduced_instance_keeps_shape(self):
        inst = _graded_z125_instance()
        low = reduce_instance(inst, Z25)
        assert low.ring is Z25 or low.ring == Z25
        assert low.n_primes == inst.n_primes
        assert low.core_rank == inst.core_rank
        assert low.finite.rows == [[0, 5, 0], [0, 0, 5]]

    def test_frozen_exponent_table(self):
        tower = StarkTower(_graded_z125_instance())
        basis = canonical_basis_system(tower.data_at(3))
        assert _exponent_table(tower, basis) == [[1, 2, 2], [1, 1, 1],
                                                 [0, 0, 0]]

    def test_exponent_recurrence_and_top_limit(self):
        inst = _graded_z125_instance()
        tower = StarkTower(inst)
        basis = canonical_basis_system(tower.data_at(3))
        table = _exponent_table(tower, basis)
        for row in table:
            for level in (1, 2):
                assert row[level - 1] == min(row[level], level)
        dual = inst.dual_selmer(())
        for i, row in enumerate(table):
            assert row[-1] == fitting_ideal(dual, i).exponent()

    def test_ideal_identity_down_the_tower(self):
        tower = StarkTower(_graded_z125_instance())
        basis = canonical_basis_system(tower.data_at(3))
        systems = _systems_down(tower, basis)
        for level in (3, 2):
            S = tower.ring_at(level - 1)
            hi = system_ideals(systems[level])
            lo = system_ideals(systems[level - 1])
            assert all(_reduce_ideal(S, hi[i]) == lo[i]
                       for i in range(len(hi)))

    def test_shadow_reduction_commutes(self):
        tower = StarkTower(_graded_z125_instance())
        basis = canonical_basis_system(tower.data_at(3))
        systems = _systems_down(tower, basis)
        assert shadow_reduction_matches(tower, 3, systems[3])
        assert shadow_reduction_matches(tower, 2, systems[2])

    def test_every_bottom_system_lifts(self):
        tower = StarkTower(_graded_z125_instance())
        low_data = tower.data_at(1)
        for c in range(5):
            sys1 = stark_from_top(low_data, [c])
            # the lift reads the same integer residue one level up
            lift = stark_from_top(tower.data_at(2), [c])
            back = tower.reduce_system(2, lift)
            for d in low_data.instance.divisors():
                assert low_data.bidual(d).module.elements_equal(
                    back.component(d), sys1.component(d))

    def test_generated_instance_tower(self):
        inst = generate_instance(Z125, 2, 2, profile="generic", seed=19)
        tower = StarkTower(inst)
        basis = canonical_basis_system(tower.data_at(3))
        systems = _systems_down(tower, basis)
        for level in (3, 2):
            S = tower.ring_at(level - 1)
            hi = system_ideals(systems[level])
            lo = system_ideals(systems[level - 1])
            assert all(_reduce_ideal(S, hi[i]) == lo[i]
                       for i in range(len(hi)))
            assert shadow_reduction_matches(tower, level, systems[level])
