"""Tests for rank-r families on modified Selmer modules: the defining
relation, the regulator and its inversion at core vertices, content ideals
against Fitting ideals, generator independence, and the exhaustive
enumeration of the solution module on small instances."""

import hashlib
import json
import random

import pytest

from ekslab.biduals import interior_product
from ekslab.modules import Ideal, annihilator, fitting_ideal, \
    is_injective
from ekslab.rings import Matrix, element_to_json, make_ring, matrix_to_json
from ekslab.selmer import (
    PrimeData,
    SelmerInstance,
    core_vertices,
    frobenius_data,
    generate_instance,
)
from ekslab.stark import (
    Family,
    StarkData,
    canonical_basis_system,
    content_ideals,
    stark_from_top,
    system_ideals,
)
from ekslab.kolyvagin import (
    THEOREM_FACTS,
    KolyvaginData,
    component_from_ambient_table,
    core_projection_invert,
    divisor_sign,
    enumerate_systems,
    fitt_ind_corollary,
    kolyvagin_ideals,
    kolyvagin_to_json,
    ks_solution_report,
    main_theorem_holds,
    regulator,
    regulator_component_map,
    regulator_injectivity_certificate,
    system_from_ambient_tables,
    verify_fs,
    verify_main_theorem,
)
from oracles import (
    drop_map,
    enumerate_systems_reference,
    strict_bidual,
    verify_fs_reference,
)

Z4 = make_ring(2, 2)
Z8 = make_ring(2, 3)
Z9 = make_ring(3, 2)
Z25 = make_ring(5, 2)
Z9C3 = make_ring(3, 2, (3,))
Z8C4 = make_ring(2, 3, (4,))

RINGS = [Z8, Z25, Z9C3]


def _views(instance):
    return StarkData(instance), KolyvaginData(instance)


def _toy_instance():
    """Two primes over Z/25 with identity-like local rows and a Frobenius
    diag(1, 2) whose comparison unit is 1, so the singleton regulator
    components are plain contractions up to the divisor sign alone."""
    fr = frobenius_data(Z25, [[1, 0], [0, 2]])
    primes = [PrimeData("q1", 5, fr), PrimeData("q2", 5, fr)]
    finite = Matrix(Z25, [[1, 0, 0], [0, 1, 0]], ncols=3)
    transverse = Matrix(Z25, [[0, 0, 1], [1, 0, 1]], ncols=3)
    return SelmerInstance(Z25, 1, primes, finite, transverse)


def _z4_instance():
    """One prime over Z/4 with dual Selmer of size 2, so the zeroth content
    ideal of the regulator basis is (2)."""
    fr = frobenius_data(Z4, [[1]])
    return SelmerInstance(Z4, 1, [PrimeData("q1", 2, fr)],
                          Matrix(Z4, [[2, 0]], ncols=2),
                          Matrix(Z4, [[0, 1]], ncols=2))


class TestRegulatorBasics:
    def test_empty_divisor_component_is_the_relaxed_one(self):
        inst = _toy_instance()
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        reg = regulator(basis, kdata)
        assert reg.component(()) == basis.component(())

    def test_toy_unit_is_one(self):
        assert _toy_instance().primes[0].frobenius.fs_unit == 1

    def test_toy_singleton_components_carry_the_divisor_sign(self):
        # The defining relation forces the sign (-1)^(1+q) on singleton
        # components; with comparison unit 1, the first prime's component is
        # minus the plain contraction and the second prime's is plus.
        inst = _toy_instance()
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        assert divisor_sign(Z25, (0,)) == Z25.neg(Z25.one)
        assert divisor_sign(Z25, (1,)) == Z25.one
        assert reg.component((0,)) == [24]
        assert reg.component((1,)) == [24]
        assert kdata.bidual((0,)).table(reg.component((0,))) == [24]

    def test_divisor_sign_telescopes_with_the_relation(self):
        # s(n) - s(n minus q) = nu(n) + (number of primes before q) mod 2,
        # the increment the unsigned relation produces.
        for n in [(0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
            for q in n:
                lower = tuple(x for x in n if x != q)
                lhs = divisor_sign(Z25, n)
                rhs = divisor_sign(Z25, lower)
                inc = len(n) + sum(1 for x in range(q) if True and x < q)
                expected = rhs if (len(n) + q) % 2 == 0 else Z25.neg(rhs)
                assert lhs == expected

    def test_regulator_is_linear(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="lin-1")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        scaled = stark_from_top(sdata, [Z25.mul(7, c)
                                        for c in basis.top_component()])
        reg1 = regulator(basis, kdata)
        reg7 = regulator(scaled, kdata)
        for d in inst.divisors():
            want = [Z25.mul(7, c) for c in reg1.component(d)]
            assert kdata.bidual(d).module.elements_equal(
                reg7.component(d), want)

    def test_regulator_demands_matching_instance(self):
        a = generate_instance(Z25, 1, 1, profile="generic", seed="mm-1")
        b = generate_instance(Z25, 1, 1, profile="generic", seed="mm-2")
        with pytest.raises(ValueError):
            regulator(canonical_basis_system(StarkData(a)), KolyvaginData(b))

    def test_component_map_is_cached(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="cache-1")
        sdata, kdata = _views(inst)
        f = regulator_component_map(sdata, kdata, (0,))
        assert regulator_component_map(sdata, kdata, (0,)) is f


class TestFsRelation:
    @pytest.mark.parametrize("ring", RINGS, ids=["Z8", "Z25", "Z9C3"])
    @pytest.mark.parametrize("profile", ["generic", "class-trivial",
                                         "pir-basis"])
    def test_regulator_images_satisfy_the_relation(self, ring, profile):
        s = 2 if ring.rank > 1 else 3
        inst = generate_instance(ring, 1, s, profile=profile,
                                 seed=f"fs-{profile}")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        ok, failures = verify_fs(reg)
        assert ok and failures == []

    def test_rank_two_regulator_image(self):
        inst = generate_instance(Z25, 2, 2, profile="generic", seed="fs-r2")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        assert verify_fs(reg)[0]

    def test_zero_family_satisfies_the_relation(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="zero-1")
        _sdata, kdata = _views(inst)
        zero = Family(kdata, {
            tuple(sorted(d)): [kdata.ring.zero] * kdata.bidual(d).module.ngens
            for d in inst.divisors()})
        ok, failures = verify_fs(zero)
        assert ok and failures == []

    def test_perturbation_breaks_the_relation_with_witness(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="amb-1")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        bid = kdata.bidual((0,))
        delta = [Z25.one] + [Z25.zero] * (bid.module.ngens - 1)
        pert = dict(reg.components)
        pert[(0,)] = [Z25.add(a, b) for a, b in zip(pert[(0,)], delta)]
        ok, failures = verify_fs(Family(kdata, pert))
        assert not ok
        # the witness pairs are exactly those involving the perturbed divisor
        assert ((0,), 0) in failures
        assert all(n == (0,) or (0,) == tuple(x for x in n if x != q)
                   for n, q in failures)

    def test_scaled_regulator_still_satisfies_the_relation(self):
        inst = generate_instance(Z8, 1, 2, profile="generic", seed="sc-fs")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        scaled = stark_from_top(sdata, [Z8.mul(2, c)
                                        for c in basis.top_component()])
        assert verify_fs(regulator(scaled, kdata))[0]


class TestRelationAgainstStrictReference:
    """The relation and the enumeration against the route through the
    bidual of the module strict at q (``oracles.verify_fs_reference``,
    ``oracles.enumerate_systems_reference``), on regulator images and on
    families with one component moved."""

    @pytest.mark.parametrize("ring, r, s", [
        (Z9, 1, 3), (Z9, 2, 2), (Z8, 1, 3), (Z9C3, 1, 2), (Z8C4, 1, 2),
    ], ids=["z9-r1-s3", "z9-r2-s2", "z8-r1-s3", "z9c3-r1-s2", "z8c4-r1-s2"])
    def test_the_ambient_relation_equals_the_strict_route(self, ring, r, s):
        rng = random.Random(f"relation-{ring}-{r}-{s}")
        held = failed = 0
        for trial, profile in enumerate(["generic", "class-trivial",
                                         "generic", "pir-basis"]):
            inst = generate_instance(ring, r, s, profile=profile,
                                     seed=f"rel-{trial}")
            sdata, kdata = _views(inst)
            reg = regulator(canonical_basis_system(sdata), kdata)
            assert verify_fs(reg) == verify_fs_reference(reg) == (True, [])
            moved = dict(reg.components)
            key = rng.choice(sorted(moved))
            moved[key] = [ring.add(a, ring.random_element(rng))
                          for a in moved[key]]
            family = Family(kdata, moved)
            holds, failures = verify_fs(family)
            assert (holds, failures) == verify_fs_reference(family)
            failed += len(failures)
            held += sum(len(d) for d in inst.divisors()) - len(failures)
            assert enumerate_systems(kdata) == \
                enumerate_systems_reference(kdata)
        # the moved families hold at some pairs and fail at others
        assert held and failed


class TestAmbientTables:
    def test_round_trip_through_ambient_tables(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="amb-1")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        tables = {tuple(sorted(d)): kdata.ambient_table(d, reg.component(d))
                  for d in inst.divisors()}
        rebuilt, malformed = system_from_ambient_tables(kdata, tables)
        assert malformed == []
        for d in inst.divisors():
            assert kdata.bidual(d).module.elements_equal(
                rebuilt.component(d), reg.component(d))

    def test_malformed_table_reported_distinctly(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="amb-1")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        tables = {tuple(sorted(d)): kdata.ambient_table(d, reg.component(d))
                  for d in inst.divisors()}
        tables[(0,)] = [Z25.add(v, 1) for v in tables[(0,)]]
        rebuilt, malformed = system_from_ambient_tables(kdata, tables)
        assert rebuilt is None
        assert malformed == [(0,)]

    def test_table_outside_the_selmer_bidual_is_rejected(self):
        inst = generate_instance(Z25, 1, 1, profile="generic", seed="amb-2")
        _sdata, kdata = _views(inst)
        n = inst.ambient_rank
        # the determinant-like table of the full ambient in degree 1 is a
        # functional but need not restrict from the Selmer submodule
        table = [Z25.one] * n
        coords = component_from_ambient_table(kdata, (), table)
        if coords is not None:
            back = kdata.ambient_table((), coords)
            assert back == table


class TestSigmaIndependence:
    @pytest.mark.parametrize("exps", [{0: 2, 1: 3}, {0: 4}, {1: 2}],
                             ids=["both", "first", "second"])
    def test_rerandomized_generators_twist_but_preserve_ideals(self, exps):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="sig-1")
        sdata = StarkData(inst)
        basis = canonical_basis_system(sdata)
        plain = KolyvaginData(inst)
        twisted = KolyvaginData(inst, sigma_exponents=exps)
        reg0 = regulator(basis, plain)
        reg1 = regulator(basis, twisted)
        assert verify_fs(reg1)[0]
        assert kolyvagin_ideals(reg0) == kolyvagin_ideals(reg1)

    def test_group_ring_generator_independence(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed="sig-2")
        sdata = StarkData(inst)
        basis = canonical_basis_system(sdata)
        reg0 = regulator(basis, KolyvaginData(inst))
        reg1 = regulator(basis, KolyvaginData(inst,
                                              sigma_exponents={0: 2, 1: 2}))
        assert verify_fs(reg1)[0]
        assert kolyvagin_ideals(reg0) == kolyvagin_ideals(reg1)

    def test_non_unit_exponent_rejected(self):
        inst = generate_instance(Z25, 1, 1, profile="generic", seed="sig-3")
        with pytest.raises(ValueError):
            KolyvaginData(inst, sigma_exponents={0: 5})

    def test_components_scale_by_unit_per_divisor(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="sig-4")
        sdata = StarkData(inst)
        basis = canonical_basis_system(sdata)
        reg0 = regulator(basis, KolyvaginData(inst))
        a = {0: 2, 1: 3}
        reg1 = regulator(basis, KolyvaginData(inst, sigma_exponents=a))
        inv = {0: pow(2, -1, 25), 1: pow(3, -1, 25)}
        for d in inst.divisors():
            scale = 1
            for q in d:
                scale = (scale * inv[q]) % 25
            want = [Z25.mul(scale, c) for c in reg0.component(d)]
            assert reg1.component(d) == want


class TestMainTheorem:
    @pytest.mark.parametrize("ring", [Z8, Z9, Z25], ids=["Z8", "Z9", "Z25"])
    def test_chain_ring_basis_facts(self, ring):
        # containments and per-divisor equality are unconditional for bases;
        # the level equality holds exactly when the instance's prime supply
        # realizes the Fitting-ideal induction, so the two are asserted to
        # coincide seed by seed
        for seed in range(4):
            inst = generate_instance(ring, 1, 2, profile="generic",
                                     seed=f"mt-{seed}")
            sdata, kdata = _views(inst)
            reg = regulator(canonical_basis_system(sdata), kdata)
            facts = verify_main_theorem(reg)
            assert facts["im_in_fitt0"] and facts["levels_in_fitt"]
            assert facts["im_equals_fitt0"]
            supply = all(fitt_ind_corollary(inst, i)["equal"]
                         for i in range(1, inst.n_primes + 1))
            assert facts["levels_equal_fitt"] == supply

    def test_level_equality_on_supplied_z25_instances(self):
        # frozen seeds whose prime supply realizes the induction: the full
        # chain-ring equality of the theorem holds on the nose
        for seed in (0, 1, 3, 4, 5):
            inst = generate_instance(Z25, 1, 3, profile="generic",
                                     seed=f"acc5-3-1-{seed}")
            sdata, kdata = _views(inst)
            reg = regulator(canonical_basis_system(sdata), kdata)
            assert main_theorem_holds(verify_main_theorem(reg), is_basis=True)

    def test_supply_deficient_instance_documents_the_boundary(self):
        # frozen seed where no fixed prime set can replace an unbounded
        # supply: the induction equality fails while every containment and
        # the per-divisor equality still hold
        inst = generate_instance(Z25, 1, 3, profile="generic",
                                 seed="acc5-3-1-2")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        facts = verify_main_theorem(reg)
        assert facts["im_in_fitt0"] and facts["levels_in_fitt"]
        assert facts["im_equals_fitt0"]
        assert not facts["levels_equal_fitt"]
        assert not all(fitt_ind_corollary(inst, i)["equal"]
                       for i in range(1, 4))

    def test_group_ring_containments(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed="mt-gr")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        facts = verify_main_theorem(reg)
        assert facts["im_in_fitt0"] and facts["levels_in_fitt"]
        assert main_theorem_holds(facts, is_basis=True)

    def test_scaled_system_keeps_containments_loses_equality(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="mt-sc")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        scaled = stark_from_top(sdata, [Z25.mul(5, c)
                                        for c in basis.top_component()])
        reg = regulator(scaled, kdata)
        facts = verify_main_theorem(reg)
        assert facts["im_in_fitt0"] and facts["levels_in_fitt"]
        assert not facts["im_equals_fitt0"]
        assert main_theorem_holds(facts, is_basis=False)

    @pytest.mark.parametrize("chain_ring", [True, False])
    @pytest.mark.parametrize("is_basis", [True, False])
    def test_verdict_is_a_function_of_the_table(self, chain_ring, is_basis):
        # every containment is claimed; per-divisor equality for bases;
        # level equality for bases over chain rings only
        facts = dict.fromkeys(THEOREM_FACTS, True)
        facts["chain_ring"] = chain_ring
        assert main_theorem_holds(facts, is_basis)
        claimed = {"im_in_fitt0", "levels_in_fitt"}
        if is_basis:
            claimed.add("im_equals_fitt0")
        if is_basis and chain_ring:
            claimed.add("levels_equal_fitt")
        for key in THEOREM_FACTS:
            broken = dict(facts, **{key: False})
            assert main_theorem_holds(broken, is_basis) == (key not in claimed)

    def test_table_holds_the_ideals_it_compares(self):
        inst = generate_instance(Z9C3, 1, 2, profile="generic", seed="mt-gr")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        table = verify_main_theorem(reg)
        dual = inst.dual_selmer(())
        assert table["levels"] == kolyvagin_ideals(reg)
        assert table["fitting"] == [fitting_ideal(dual, i) for i in range(3)]
        assert table["fitt0"] == {d: fitting_ideal(inst.dual_selmer(d), 0)
                                  for d in inst.divisors()}
        assert table["contained"] == [I.leq(F) for I, F in
                                      zip(table["levels"], table["fitting"])]
        assert table["equal"] == [I == F for I, F in
                                  zip(table["levels"], table["fitting"])]
        assert not table["chain_ring"]

    def test_kolyvagin_ideals_match_contraction_system_ideals(self):
        # over a chain ring the two ideal ladders of a basis agree: both
        # equal the Fitting ideals of the dual Selmer module
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="mt-eq")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        assert kolyvagin_ideals(regulator(basis, kdata)) == \
            system_ideals(basis)

    def test_unit_content_everywhere_on_class_trivial(self):
        inst = generate_instance(Z25, 1, 2, profile="class-trivial",
                                 seed="mt-ct")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        ideals = kolyvagin_ideals(reg)
        assert all(i.is_unit() for i in ideals)


class TestKolyvaginIdeals:
    def test_frozen_z4_example(self):
        inst = _z4_instance()
        assert inst.dual_selmer(()).size == 2
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        assert verify_fs(reg)[0]
        assert reg.components == {(): [0, 2], (0,): [3]}
        ideals = kolyvagin_ideals(reg)
        assert ideals[0] == fitting_ideal(inst.dual_selmer(()), 0)
        assert [i.exponent() for i in ideals] == [1, 0]

    def test_zero_system_has_zero_ideals(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="zi-1")
        _sdata, kdata = _views(inst)
        zero = Family(kdata, {
            tuple(sorted(d)): [Z25.zero] * kdata.bidual(d).module.ngens
            for d in inst.divisors()})
        assert all(i.is_zero() for i in kolyvagin_ideals(zero))

    def test_ideals_are_ascending_for_bases(self):
        for ring, name in [(Z8, "Z8"), (Z25, "Z25")]:
            inst = generate_instance(ring, 1, 3, profile="generic",
                                     seed=f"asc-{name}")
            sdata, kdata = _views(inst)
            reg = regulator(canonical_basis_system(sdata), kdata)
            ideals = kolyvagin_ideals(reg)
            for lo, hi in zip(ideals, ideals[1:]):
                assert lo.leq(hi)


class TestCoreInversion:
    def test_round_trip_recovers_the_basis(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="invert-1")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        reg = regulator(basis, kdata)
        n = core_vertices(inst)[0]
        rebuilt = core_projection_invert(sdata, kdata, n, reg.component(n))
        for d in inst.divisors():
            assert sdata.bidual(d).module.elements_equal(
                rebuilt.component(d), basis.component(d))

    def test_regulator_of_inverse_reproduces_x(self):
        inst = generate_instance(Z8, 1, 2, profile="generic", seed="invert-2")
        sdata, kdata = _views(inst)
        reg = regulator(canonical_basis_system(sdata), kdata)
        for n in core_vertices(inst):
            x = reg.component(n)
            rebuilt = core_projection_invert(sdata, kdata, n, x)
            back = regulator(rebuilt, kdata)
            assert kdata.bidual(n).module.elements_equal(back.component(n), x)

    def test_zero_value_gives_zero_system(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="invert-1")
        sdata, kdata = _views(inst)
        n = core_vertices(inst)[0]
        g = kdata.bidual(n).module.ngens
        out = core_projection_invert(sdata, kdata, n, [Z25.zero] * g)
        for d in inst.divisors():
            assert all(c == Z25.zero for c in out.component(d))

    def test_scaled_value_gives_scaled_system(self):
        inst = generate_instance(Z25, 1, 2, profile="generic", seed="invert-1")
        sdata, kdata = _views(inst)
        basis = canonical_basis_system(sdata)
        reg = regulator(basis, kdata)
        n = core_vertices(inst)[0]
        x = [Z25.mul(3, c) for c in reg.component(n)]
        out = core_projection_invert(sdata, kdata, n, x)
        for d in inst.divisors():
            want = [Z25.mul(3, c) for c in basis.component(d)]
            assert sdata.bidual(d).module.elements_equal(
                out.component(d), want)

    def test_non_core_vertex_rejected(self):
        # the graded instance from the contraction-system tests has exactly
        # one core vertex, the top
        fr = frobenius_data(Z25, [[1]])
        primes = [PrimeData("q1", 5, fr), PrimeData("q2", 5, fr)]
        inst = SelmerInstance(
            Z25, 1, primes,
            Matrix(Z25, [[5, 5, 0], [0, 5, 5]], ncols=3),
            Matrix(Z25, [[1, 0, 0], [0, 0, 1]], ncols=3))
        sdata, kdata = _views(inst)
        assert not inst.is_core(())
        with pytest.raises(ValueError):
            core_projection_invert(sdata, kdata, (), [Z25.one])

    def test_injectivity_certificate_on_generic_instances(self):
        for ring, name in [(Z8, "Z8"), (Z25, "Z25"), (Z9C3, "Z9C3")]:
            inst = generate_instance(ring, 1, 2, profile="generic",
                                     seed=f"cert-{name}")
            sdata, kdata = _views(inst)
            assert regulator_injectivity_certificate(sdata, kdata)


def _induction_sum(inst, divisor, i):
    """The sum over primes q outside the divisor of Fitt^(i-1) of the dual
    Selmer module at divisor + q: one level of the Fitting-ideal
    induction, which sits inside Fitt^i at the divisor."""
    lhs = Ideal.zero(inst.ring)
    for q in range(inst.n_primes):
        if q not in divisor:
            bigger = tuple(sorted(divisor + (q,)))
            lhs = lhs.add(fitting_ideal(inst.dual_selmer(bigger), i - 1))
    return lhs


class TestFittingInduction:
    def test_containment_at_every_divisor_and_level(self):
        for ring, name in [(Z25, "Z25"), (Z9C3, "Z9C3")]:
            inst = generate_instance(ring, 1, 2, profile="generic",
                                     seed=f"fi-{name}")
            for d in inst.divisors():
                for i in (1, 2):
                    assert _induction_sum(inst, d, i).leq(
                        fitting_ideal(inst.dual_selmer(d), i))
            for i in (1, 2):
                assert fitt_ind_corollary(inst, i)["contained"]

    def test_equality_at_interior_divisors_of_a_frozen_instance(self):
        inst = generate_instance(Z25, 1, 3, profile="generic", seed="fi-Z25-0")
        for d in inst.divisors():
            if len(d) == inst.n_primes:
                continue
            if annihilator(inst.selmer_module(d)[0]).is_zero():
                assert _induction_sum(inst, d, 1) == fitting_ideal(
                    inst.dual_selmer(d), 1)

    def test_top_divisor_shows_the_truncation_boundary(self):
        # with no primes left outside the top divisor the left side is the
        # zero ideal, so the equality clause cannot survive truncation even
        # though the annihilator condition holds; the containment does
        inst = generate_instance(Z25, 1, 3, profile="generic", seed="fi-Z25-0")
        top = tuple(range(inst.n_primes))
        lhs = _induction_sum(inst, top, 1)
        rhs = fitting_ideal(inst.dual_selmer(top), 1)
        assert lhs.leq(rhs)
        assert annihilator(inst.selmer_module(top)[0]).is_zero()
        assert lhs != rhs

    def test_corollary_equality_on_frozen_generic_instances(self):
        for seed in range(3):
            inst = generate_instance(Z25, 1, 3, profile="generic",
                                     seed=f"fi-{seed}")
            for i in (1, 2, 3):
                facts = fitt_ind_corollary(inst, i)
                assert facts["contained"]
                if facts["ann_vanishes"]:
                    assert facts["equal"]


class TestSolutionEnumeration:
    def test_free_rank_one_on_small_frozen_instances(self):
        for ring, name, s in [(Z4, "Z4", 1), (Z4, "Z4", 2),
                              (Z9, "Z9", 1), (Z9, "Z9", 2)]:
            inst = generate_instance(ring, 1, s, profile="generic",
                                     seed=f"ks-{name}-{s}")
            sdata, kdata = _views(inst)
            report = ks_solution_report(kdata, sdata)
            assert report["count"] == ring.size
            assert report["regulator_contained"]
            assert report["regulator_generates"]
            assert report["free_rank_one"]

    def test_truncation_can_admit_extra_families(self):
        # a documented boundary of the finite model: this Z/8 instance has
        # degenerate local functionals and the solution module is strictly
        # larger than the regulator image, which still embeds
        inst = generate_instance(Z8, 1, 1, profile="generic", seed="ks-Z8-1")
        sdata, kdata = _views(inst)
        report = ks_solution_report(kdata, sdata)
        assert report["count"] == 64
        assert report["ring_size"] == 8
        assert report["regulator_contained"]
        assert not report["free_rank_one"]

    def test_enumeration_layout_is_consistent(self):
        inst = generate_instance(Z9, 1, 2, profile="generic", seed="ks-Z9-2")
        _sdata, kdata = _views(inst)
        _howell, layout, _count = enumerate_systems(kdata)
        offsets = sorted(off for off, _g in layout.values())
        assert offsets[0] == 0
        assert len(layout) == len(list(inst.divisors()))


# ---------------------------------------------------------------------------
# Pinned values.  A passing report holds only check names and verdicts, so
# these digests pin what the engines compute: every transition from the top
# divisor and the canonical basis system's components, the regulator image
# in its JSON form, and every singular-value and finite-singular matrix into
# the bidual of the module strict at the prime (``oracles.drop_map``, the
# route the package took before it compared ambient tables).  Recorded
# before the three contract-and-pull-back constructions were merged into
# ``biduals.contract_pullback``.
# ---------------------------------------------------------------------------


def _value_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_values(inst):
    def key(d):
        return ",".join(str(q) for q in d)

    ring = inst.ring
    sdata, kdata = _views(inst)
    top = sdata.top_divisor
    basis = canonical_basis_system(sdata)
    stark = {
        "transitions": {key(d): matrix_to_json(sdata.transition(top, d).matrix)
                        for d in inst.divisors()},
        "basis": {key(d): [element_to_json(ring, x) for x in basis.component(d)]
                  for d in inst.divisors()},
    }
    maps = {}
    for d in inst.divisors():
        for q in range(inst.n_primes):
            if q in d:
                maps[f"v {key(d)}@{q}"] = matrix_to_json(
                    drop_map(kdata, d, q).matrix)
            else:
                maps[f"fs {key(d)}@{q}"] = matrix_to_json(
                    drop_map(kdata, d, q).matrix)
    return (_value_digest(stark),
            _value_digest(kolyvagin_to_json(regulator(basis, kdata))),
            _value_digest(maps))


class TestPinnedValues:
    @pytest.mark.parametrize("ring, r, s, digests", [
        (Z9, 1, 3, (
            "43659fd97ce574356fccc1d665eb010da8d03e8023fec0af5bda3b58fa0bc61b",
            "88eec435e44327b826af7073d373f9b06d66fc022d0b85130d062ccb24c85183",
            "712c2bff30841e7fc2f0d8e37a866525e066771a3d728c898d0945f248e70234")),
        (Z25, 2, 3, (
            "d9190004c0d4ca58dad1e6d14bef362377079dca62bc7d899e2141a603e8f1c7",
            "dbab13ffb66fefe43d5f7d7b510caa70e997990e403eb2ae2e55c4a152884ba2",
            "aa603b49eb5c26128fc77e335170c2921414f2be36e8e7a58854b7dec741e6e1")),
        # Re-recorded when kernels and duals kept only a minimal generating
        # subset: these digests are in presentation coordinates, and the
        # ambient-table pins below, unchanged, show that no value moved.
        (Z9C3, 1, 2, (
            "d7420cf8ba6fbfff0a11da0ceca0e95e72e626c161f479b6a3bcec15d17e43fe",
            "c52116cbcf7b766795d7cb26622b5fe592d4c0b056acf8b5b49e8a554c972b26",
            "f201a19b410451d2add49d3b90213ec62d202c3572ebc3a0f1f48e6a08dee332")),
    ], ids=["z9-r1-s3", "z25-r2-s3", "z9c3-r1-s2"])
    def test_values_match_the_recorded_digests(self, ring, r, s, digests):
        inst = generate_instance(ring, r, s, profile="generic", seed=0)
        assert _pinned_values(inst) == digests


def _all_pairs_values(inst):
    """Digests of every transition T(m, n), n inside m, and of every
    regulator component map, as matrices in presentation coordinates."""
    def key(d):
        return ",".join(str(q) for q in d)

    sdata, kdata = _views(inst)
    divisors = inst.divisors()
    transitions = {
        f"{key(m)}>{key(n)}": matrix_to_json(sdata.transition(m, n).matrix)
        for m in divisors for n in divisors if set(n) <= set(m)}
    components = {
        key(d): matrix_to_json(regulator_component_map(sdata, kdata, d).matrix)
        for d in divisors}
    return _value_digest(transitions), _value_digest(components)


class TestAllPairsPins:
    # Recorded with the contraction still built in each module's own dual
    # coordinates, before it moved to the free ambient's tables.
    @pytest.mark.parametrize("ring, r, s, digests", [
        (Z9, 1, 3, (
            "df265c03030f784b91047123d213ee6404c2b939655f7f67dde24500c5570af4",
            "64c750da56359f7f643b0e8f5d3d87fdc83385b3184de95ed772d94f4d272a49")),
        (Z25, 2, 3, (
            "7ff4c96ff9cf581d478d830bc7992ddf2936c192a76f1a267671ed898e40ef51",
            "610575b19b4f0be4279471d37c7ab804953970167bc275004419dcbd9a437746")),
        (Z9C3, 1, 2, (
            "1638415e85f11d82558f83e888f1d10457c6161eb1dfe995df669d643e9614d3",
            "f9244c14b4930008160c1638abb600d73c50edb1854d58aebba04e980079f09d")),
    ], ids=["z9-r1-s3", "z25-r2-s3", "z9c3-r1-s2"])
    def test_every_transition_and_regulator_map(self, ring, r, s, digests):
        inst = generate_instance(ring, r, s, profile="generic", seed=0)
        assert _all_pairs_values(inst) == digests


# ---------------------------------------------------------------------------
# Presentation-free pins.  The digests above are written in the coordinates
# of one presentation of each module, so a change of presentation moves them
# even when no value changed.  These pin the same instances by value tables
# on the free ambient (``FamilyData.ambient_table``: the push into the
# bidual of the free module is injective, so a table determines its
# element), and the content ideals by their canonical Howell rows.  The
# ``relations`` digest, recorded from the two maps' images in the strict
# biduals pushed to the free ambient, is read off the contractions of the
# ambient tables: the push commutes with contraction.
# ---------------------------------------------------------------------------


def _ambient_pins(inst):
    def key(d):
        return ",".join(str(q) for q in d)

    ring = inst.ring
    sdata, kdata = _views(inst)
    basis = canonical_basis_system(sdata)
    reg = regulator(basis, kdata)
    divisors = inst.divisors()

    def tables(data, comps):
        return {k: [element_to_json(ring, x) for x in data.ambient_table(d, v)]
                for k, d, v in comps}

    components = {
        "basis": tables(sdata, [(key(d), d, basis.component(d))
                                for d in divisors]),
        "regulator": tables(kdata, [(key(d), d, reg.component(d))
                                    for d in divisors]),
    }
    transitions = tables(sdata, [
        (f"{key(m)}>{key(n)}", n, sdata.transition(m, n).apply(basis.component(m)))
        for m in divisors for n in divisors if set(n) < set(m)])
    relations = {}
    n, r = inst.ambient_rank, kdata.rank
    for d in divisors:
        table = kdata.ambient_table(d, reg.component(d))
        for q in range(inst.n_primes):
            if q in d:
                side, row, u = "v", inst.singular_functional(q), ring.one
            else:
                side, row, u = ("fs", inst.finite_functional(q),
                                kdata.effective_unit(q))
            relations[f"{side} {key(d)}@{q}"] = [
                element_to_json(ring, ring.mul(u, x))
                for x in interior_product(ring, n, r, row, table)]
    ideals = {}
    for name, system in (("basis", basis), ("regulator", reg)):
        contents, levels = content_ideals(system)
        ideals[name] = {
            "contents": {key(d): I.howell for d, I in contents.items()},
            "levels": [I.howell for I in levels],
        }
    return (_value_digest(components), _value_digest(transitions),
            _value_digest(relations), _value_digest(ideals))


class TestAmbientPins:
    @pytest.mark.parametrize("ring, r, s, digests", [
        (Z9, 1, 3, (
            "4e3c120d6811a2e003f363504f51525cb324a644b60fdc113b6431eec7eb2741",
            "a3eb820ea0204b641e3e812819089b70e685494ea2e47d1b216482417d7dbf8a",
            "2b4790811c420271894dba7c5f4fb82b897dc236d51054d5f50922706d425f0a",
            "6dee430f191e1f71feb59d344cfc9edc2cd452e965bf7553b0db9a8b880ee97e")),
        (Z25, 2, 3, (
            "f46cfa3337215702526bcae0b9c03d7b8df93ec4848880de5f44c8ce7dd1a54f",
            "d2846d6436e4e865272c652be98b91f3171e2698e7bb8013395da8e71d38b430",
            "956edc9063d3ad3ce8a56a5cf99c701f4cb8d88ecf93e440cd876b033551e311",
            "6dee430f191e1f71feb59d344cfc9edc2cd452e965bf7553b0db9a8b880ee97e")),
        (Z9C3, 1, 2, (
            "10bd53b312df285525465bc8911dc8a38d08596628b60d8db6a9e9ccb022a00a",
            "db5f2e0a678eb774d0c2308c766b4404f7ef63a806c4e5400e1475d364e0882b",
            "a66523e61a7461d3881922a6db5ec4f63888b3034380e65eea831567e6410eed",
            "3cdea354ecfeb994c68b7bcf622f75521695ac91f25c324561744c852bfd92f3")),
    ], ids=["z9-r1-s3", "z25-r2-s3", "z9c3-r1-s2"])
    def test_ambient_tables_match_the_recorded_digests(self, ring, r, s,
                                                       digests):
        inst = generate_instance(ring, r, s, profile="generic", seed=0)
        assert _ambient_pins(inst) == digests

    @pytest.mark.parametrize("ring, r, s", [
        (Z9, 1, 3), (Z25, 2, 3), (Z9C3, 1, 2),
    ], ids=["z9-r1-s3", "z25-r2-s3", "z9c3-r1-s2"])
    def test_every_ambient_embedding_is_injective(self, ring, r, s):
        inst = generate_instance(ring, r, s, profile="generic", seed=0)
        sdata, kdata = _views(inst)
        biduals = [data.bidual(d) for data in (sdata, kdata)
                   for d in inst.divisors()]
        biduals += [strict_bidual(kdata, d, q) for d in inst.divisors()
                    for q in d]
        for bid in biduals:
            assert is_injective(bid.embedding)
