"""Tests for class families over towers of group-ring levels: the level
maps and their adjunction identities, local factors, the corestriction
relation, derivative elements and derived classes, pair determinants and
the assembled derived vectors, rank-one reduction, the local comparison
identities over an instance, and the consistent joint generator."""

import itertools
import json
import random

import pytest

from ekslab import cli, euler
from ekslab.biduals import contract_table
from ekslab.euler import (
    EulerSystem,
    _derivative_factors,
    _times,
    EulerTower,
    canonical_system,
    consistent_instance,
    derivative_element,
    derivative_report,
    derived_class,
    derived_tables,
    derived_vector,
    fs_witness,
    invariance_holds,
    pairing_determinant,
    pairing_matrix,
    perturb,
    random_system,
    rank_one_reduction,
    rank_reduction_report,
    reduce_class,
    reduction_identity_holds,
    relation_holds,
    relation_report,
    scalar_fs_failures,
    scalar_fs_holds,
    system_from_json,
    system_to_json,
    tower_from_json,
    tower_to_json,
)
from ekslab.kolyvagin import fs_holds, relation_failures, \
    system_from_ambient_tables, verify_fs
from ekslab.rings import make_ring
from oracles import (
    corestrict_branched,
    derivative_scalar,
    derived_class_branched,
    derived_vector_by_permutations,
    euler_factor_branched,
    index_to_exp,
    inflate_branched,
    pairing_determinant_det_int,
    reduce_class_branched,
    telescoping_holds,
)


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _one_prime_tower():
    """Rank 1, one prime of order 5, working modulus 625: the default
    local polynomial is det(1 - x diag(1, 2)) = 1 - 3x + 2x^2."""
    return EulerTower(5, 1, 4, 1, (5,), [[[1, 0], [0, 2]]], [[1]])


def _two_prime_tower():
    """Rank 1, two primes of orders 5 and 25, working modulus 125."""
    fr = [[[1, 0, 0], [0, 2, 0], [0, 0, 3]],
          [[1, 0, 0], [0, 3, 0], [0, 0, 2]]]
    return EulerTower(5, 1, 3, 1, (5, 25), fr, [[1, 2], [3, 1]])


def _small_tower():
    """Rank 1, two primes of order 5, working modulus 25."""
    fr = [_eye(3) for _ in range(2)]
    for rows in fr:
        rows[1][1] = 2
    return EulerTower(5, 1, 2, 1, (5, 5), fr, [[1, 2], [3, 1]])


def _pairing_tower():
    """Four primes with local polynomial 6 - x, so every pair entry is the
    recorded image exponent itself."""
    b = [[1, 2, 3, 4], [4, 1, 2, 3], [2, 4, 1, 3], [3, 1, 4, 2]]
    return EulerTower(5, 1, 2, 1, (5, 5, 5, 5), [_eye(5)] * 4, b,
                      local_polys=[[6, -1]] * 4)


class TestDerivativeScalar:
    def test_cyclic_coefficients(self):
        for m in (1, 2):
            S = make_ring(5, m, (5,))
            assert derivative_scalar(S) == (0, 1, 2, 3, 4)

    def test_chain_ring_is_one(self):
        assert derivative_scalar(make_ring(5, 2)) == 1

    def test_product_over_factors(self):
        S = make_ring(5, 2, (5, 5))
        D = derivative_scalar(S)
        for a in range(5):
            for t in range(5):
                assert D[S.exp_to_index((a, t))] == (a * t) % 25

    def test_telescoping(self):
        for order in (5, 25, 125):
            assert telescoping_holds(5, 2, order)
        assert telescoping_holds(3, 2, 9)
        assert telescoping_holds(2, 3, 8)


def _product_first(S, factors, vec):
    """The factors multiplied out first, then into every entry."""
    prod = S.one
    for f in factors:
        prod = S.mul(f, prod)
    return [S.mul(prod, c) for c in vec]


def _lift_int(S, c):
    return c % S.n if S.rank == 1 else S.from_int(c)


FACTOR_RINGS = [make_ring(3, 2, (9, 3)), make_ring(2, 3, (4, 2)),
                make_ring(5, 2, (5,))]


class TestFactorwiseProducts:
    """Applying the factors of a level-ring operator one at a time equals
    multiplying by their product first: the ring is commutative."""

    @pytest.mark.parametrize("S", FACTOR_RINGS, ids=str)
    def test_derivative_factors(self, S):
        rng = random.Random(0)
        vec = [S.random_element(rng) for _ in range(5)]
        factors = _derivative_factors(S)
        assert len(factors) == len(S.orders)
        assert _times(S, factors, vec) == _product_first(S, factors, vec)
        assert derivative_scalar(S) == _product_first(S, factors, [S.one])[0]

    @pytest.mark.parametrize("S", FACTOR_RINGS, ids=str)
    def test_generator_minus_one_factors(self, S):
        rng = random.Random(1)
        vec = [S.random_element(rng) for _ in range(5)]
        diffs = [S.sub(S.generator(i), S.one) for i in range(len(S.orders))]
        assert _times(S, diffs, vec) == _product_first(S, diffs, vec)

    @pytest.mark.parametrize("S", FACTOR_RINGS, ids=str)
    def test_random_factors(self, S):
        rng = random.Random(2)
        for _ in range(10):
            vec = [S.random_element(rng) for _ in range(3)]
            factors = [S.random_element(rng)
                       for _ in range(rng.randrange(4))]
            assert _times(S, factors, vec) == _product_first(S, factors, vec)

    def test_level_operators_of_a_tower(self):
        tower = _two_prime_tower()
        system = random_system(tower, 3)
        for d in tower.divisors():
            S = tower.level_ring(d)
            euler = [tower.euler_factor(q, d) for q in d]
            x = [_lift_int(S, c) for c in (2, 7, 11)]
            assert canonical_system(tower, [2, 7, 11]).classes[d] == \
                _product_first(S, euler, x)
            T = tower.level_ring(d, tower.m)
            reduced = reduce_class(tower, d, system.classes[d])
            assert derivative_element(system, d) == _product_first(
                T, _derivative_factors(T), reduced)


class TestTowerValidation:
    def test_target_precision_inside_working(self):
        with pytest.raises(ValueError, match="target precision"):
            EulerTower(5, 3, 2, 1, (), [], [])

    def test_positive_wedge_degree(self):
        with pytest.raises(ValueError, match="wedge degree"):
            EulerTower(5, 1, 2, 0, (), [], [])

    def test_order_must_be_prime_power_multiple(self):
        with pytest.raises(ValueError, match="symbol group order"):
            EulerTower(5, 1, 3, 1, (6,), [_eye(2)], [[1]])
        with pytest.raises(ValueError, match="symbol group order"):
            EulerTower(5, 2, 4, 1, (5,), [_eye(2)], [[1]])

    def test_working_precision_covers_orders(self):
        with pytest.raises(ValueError, match="working precision too small"):
            EulerTower(5, 1, 2, 1, (5, 25),
                       [_eye(3), _eye(3)], [[1, 1], [1, 1]])

    def test_one_matrix_per_prime(self):
        with pytest.raises(ValueError, match="one Frobenius matrix"):
            EulerTower(5, 1, 2, 1, (5,), [], [[1]])

    def test_matrix_shape(self):
        with pytest.raises(ValueError, match="Frobenius matrices"):
            EulerTower(5, 1, 2, 1, (5,), [_eye(3)], [[1]])

    def test_image_row_shape(self):
        with pytest.raises(ValueError, match="image rows"):
            EulerTower(5, 1, 2, 1, (5,), [_eye(2)], [[1, 2]])

    def test_local_value_must_vanish(self):
        with pytest.raises(ValueError, match="nonzero value at 1"):
            EulerTower(5, 1, 2, 1, (5,), [_eye(2)], [[1]],
                       local_polys=[[1, 1]])

    def test_default_polynomial_is_characteristic(self):
        tower = _one_prime_tower()
        assert tower.local_polys == [[1, 622, 2]]


class TestLocalFactors:
    def test_values_at_one(self):
        tower = _one_prime_tower()
        assert sum(tower.local_polys[0]) % 625 == 0
        assert tower.derivative_at_one(0) == 1

    def test_factor_at_inverse_image(self):
        tower = _one_prime_tower()
        assert tower.euler_factor(0, (0,)) == (1, 0, 0, 2, 622)
        assert tower.euler_factor(0, ()) == 0

    def test_pair_entry_formula(self):
        tower = _one_prime_tower()
        assert tower.pair_entry(0, 0) == 4
        pairing = _pairing_tower()
        for q in range(4):
            for qq in range(4):
                assert pairing.pair_entry(q, qq) == pairing.images[q][qq] % 5


def _restrict(tower, small, big, y):
    """Norm spreading from a sub-level: each coordinate of the level ring at
    ``big`` is y's coordinate at its exponents on the symbol groups kept."""
    Sb, Ss = tower.level_ring(big), tower.level_ring(small)
    return tuple(y[Ss.exp_to_index(tuple(index_to_exp(Sb, i)[big.index(q)]
                                          for q in small))]
                 for i in range(Sb.rank))


class TestLevelMaps:
    def test_restrict_after_corestrict_is_norm(self):
        tower = _two_prime_tower()
        big, small = (0, 1), (1,)
        Sb = tower.level_ring(big)
        norm = [0] * Sb.rank
        for t in range(5):
            norm[Sb.exp_to_index((t, 0))] = 1
        rng = random.Random(0)
        for _ in range(10):
            x = Sb.random_element(rng)
            lhs = _restrict(tower, small, big,
                            tower.corestrict(big, small, x))
            assert lhs == Sb.mul(tuple(norm), x)

    def test_corestrict_after_restrict_is_fiber_size(self):
        tower = _two_prime_tower()
        big, small = (0, 1), (1,)
        Ss = tower.level_ring(small)
        rng = random.Random(1)
        for _ in range(10):
            y = Ss.random_element(rng)
            lhs = tower.corestrict(big, small, _restrict(tower, small, big, y))
            assert lhs == Ss.mul(Ss.from_int(5), y)

    def test_corestrict_is_multiplicative(self):
        tower = _two_prime_tower()
        big, small = (0, 1), (1,)
        Sb = tower.level_ring(big)
        rng = random.Random(2)
        for _ in range(10):
            x = Sb.random_element(rng)
            y = Sb.random_element(rng)
            lhs = tower.corestrict(big, small, Sb.mul(x, y))
            rhs = tower.level_ring(small).mul(
                tower.corestrict(big, small, x),
                tower.corestrict(big, small, y))
            assert lhs == rhs

    def test_corestrict_section(self):
        tower = _two_prime_tower()
        big, small = (0, 1), (0,)
        Ss = tower.level_ring(small)
        rng = random.Random(3)
        for _ in range(10):
            x = Ss.random_element(rng)
            assert tower.corestrict(
                big, small, tower.inflate(small, big, x)) == x

    def test_factor_corestriction_consistency(self):
        tower = _two_prime_tower()
        for q in (0, 1):
            for big, small in (((0, 1), (1,)), ((0, 1), ()), ((0,), ())):
                lhs = tower.corestrict(big, small,
                                       tower.euler_factor(q, big))
                assert lhs == tower.euler_factor(q, small)

    def test_level_maps_match_per_coordinate_reference(self):
        # Mixed orders, so the strides of the kept factors differ between
        # the two levels; the reference reads each coordinate's exponents,
        # down for corestriction and up for inflation.
        tower = EulerTower(3, 1, 3, 1, (3, 9, 3), [_eye(4)] * 3,
                           [[1, 0, 2], [0, 1, 1], [2, 1, 1]])
        rng = random.Random(4)
        levels = [d for k in range(4)
                  for d in itertools.combinations(range(3), k)]
        for big in levels:
            Sb = tower.level_ring(big)
            for small in levels:
                if not set(small) < set(big) or not small:
                    continue
                Ss = tower.level_ring(small)
                x = Sb.random_element(rng)
                down = [0] * Ss.rank
                for i, c in enumerate(x):
                    exps = index_to_exp(Sb, i)
                    j = Ss.exp_to_index(tuple(exps[big.index(q)]
                                              for q in small))
                    down[j] += c
                assert tower.corestrict(big, small, x) == tuple(
                    c % Ss.base.n for c in down)
                y = Ss.random_element(rng)
                up = [0] * Sb.rank
                for j, c in enumerate(y):
                    exps = index_to_exp(Ss, j)
                    i = Sb.exp_to_index(tuple(
                        exps[small.index(q)] if q in small else 0
                        for q in big))
                    up[i] = c
                assert tower.inflate(small, big, y) == tuple(up)

    def test_nesting_required(self):
        tower = _two_prime_tower()
        with pytest.raises(ValueError, match="corestriction goes from a "
                                             "level to a sub-level"):
            tower.corestrict((0,), (1,), tower.level_ring((0,)).one)
        with pytest.raises(ValueError, match="inflation goes from a "
                                             "sub-level to a level"):
            tower.inflate((0,), (1,), tower.level_ring((0,)).one)
        # The empty level is nested in every level, and no level in it.
        with pytest.raises(ValueError, match="corestriction goes"):
            tower.corestrict((), (0,), 1)
        with pytest.raises(ValueError, match="inflation goes"):
            tower.inflate((0,), (), tower.level_ring((0,)).one)

    def test_one_level_ring_cache(self):
        tower = _two_prime_tower()
        for d in ((), (1,), (1, 0)):
            orders = tuple(tower.orders[q] for q in sorted(d))
            assert tower.level_ring(d) is tower.level_ring(
                tuple(sorted(d)), tower.m_big)
            assert tower.level_ring(d) == make_ring(5, 3, orders)
            assert tower.level_ring(d, tower.m) is tower.level_ring(
                d, tower.m)
            assert tower.level_ring(d, tower.m) == make_ring(5, 1, orders)
        assert tower.level_ring((), tower.m) == tower.target


def _diagonal_tower(p, m, s, seed):
    """Rank 1 over Z/p^m with s primes, every symbol group of order p^m:
    each Frobenius is diag(1, 1 + p, ..., 1 + s*p) at working precision
    p^(2m), and the image exponents are drawn from the seed."""
    M = p ** m
    n = 1 + s
    rng = random.Random(seed)
    fr = [[[1 + p * i if i == j else 0 for j in range(n)] for i in range(n)]
          for _ in range(s)]
    images = [[rng.randrange(M) for _ in range(s)] for _ in range(s)]
    return EulerTower(p, m, 2 * m, 1, (M,) * s, fr, images)


class TestLevelOperationsAgainstBranched:
    """The empty level is a chain ring read through the same ring methods
    as every group level: corestriction and inflation at both ends, the
    Euler factors, reduction, derived classes and pairing determinants
    equal the branched constructions kept in tests/oracles.py."""

    @pytest.mark.parametrize("p, m", [(3, 2), (5, 2), (2, 3)])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_level_operations(self, p, m, s):
        tower = _diagonal_tower(p, m, s, seed=10 * p + s)
        rng = random.Random(p + s)
        levels = tower.divisors()
        for big in levels:
            Sb = tower.level_ring(big)
            for small in levels:
                if not set(small) <= set(big):
                    continue
                x = Sb.random_element(rng)
                assert tower.corestrict(big, small, x) == \
                    corestrict_branched(tower, big, small, x)
                y = tower.level_ring(small).random_element(rng)
                assert tower.inflate(small, big, y) == \
                    inflate_branched(tower, small, big, y)
            for q in range(s):
                assert tower.euler_factor(q, big) == \
                    euler_factor_branched(tower, q, big)
        system = random_system(tower, s)
        for d in levels:
            for exponent in (None, 1, tower.m_big):
                assert reduce_class(tower, d, system.classes[d],
                                    exponent) == reduce_class_branched(
                    tower, d, system.classes[d], exponent)
            assert derived_class(system, d) == \
                derived_class_branched(system, d)
            assert pairing_determinant(tower, d) == \
                pairing_determinant_det_int(tower, d)

    def test_pairing_determinants_of_four_primes(self):
        tower = _pairing_tower()
        for k in range(5):
            for d in itertools.permutations(range(4), k):
                assert pairing_determinant(tower, d) == \
                    pairing_determinant_det_int(tower, d)


class TestCanonicalSystem:
    def test_frozen_one_prime_family(self):
        tower = _one_prime_tower()
        system = canonical_system(tower, [3, 7])
        assert system.classes[()] == [3, 7]
        assert system.classes[(0,)] == [(3, 0, 0, 6, 616),
                                        (7, 0, 0, 14, 604)]

    def test_corestriction_matches_value_at_one(self):
        tower = _one_prime_tower()
        system = canonical_system(tower, [3, 7])
        cor = [tower.corestrict((0,), (), c) for c in system.classes[(0,)]]
        assert cor == [0, 0]
        value_at_one = sum(tower.local_polys[0]) % 625
        assert cor == [(value_at_one * c) % 625 for c in (3, 7)]

    def test_free_polynomial_corestriction(self):
        tower = EulerTower(5, 1, 4, 1, (5,), [[[1, 0], [0, 2]]], [[1]],
                           local_polys=[[6, -1]])
        system = canonical_system(tower, [1, 2])
        cor = [tower.corestrict((0,), (), c) for c in system.classes[(0,)]]
        assert cor == [5, 10]

    def test_zero_vector(self):
        tower = _small_tower()
        system = canonical_system(tower, [0, 0, 0])
        for d in tower.divisors():
            S = tower.level_ring(d)
            assert system.classes[tuple(sorted(d))] == [S.zero] * 3

    def test_width_checked(self):
        with pytest.raises(ValueError, match="wedge vector"):
            canonical_system(_small_tower(), [1, 2])


class TestPerturbAndRelations:
    def test_random_system_satisfies_relations(self):
        system = random_system(_small_tower(), 7)
        holds, failures = relation_holds(system)
        assert holds and failures == []

    def test_report_covers_all_nested_pairs(self):
        system = random_system(_small_tower(), 8)
        report = relation_report(system)
        assert len(report) == 9
        assert set(report) == {
            ">", "0>0", "0>", "1>1", "1>", "0,1>0,1", "0,1>0",
            "0,1>1", "0,1>"}
        assert all(report.values())

    def test_top_perturbation_is_local(self):
        tower = _small_tower()
        base = random_system(tower, 9)
        S = tower.level_ring((0, 1))
        rng = random.Random(10)
        z = [S.random_element(rng) for _ in range(3)]
        moved = perturb(base, (0, 1), z)
        for d in ((), (0,), (1,)):
            assert moved.classes[d] == base.classes[d]
        assert moved.classes[(0, 1)] != base.classes[(0, 1)]
        assert relation_holds(moved)[0]

    def test_middle_perturbation_compensates_upward(self):
        tower = _small_tower()
        base = random_system(tower, 11)
        S = tower.level_ring((0,))
        moved = perturb(base, (0,), [S.one, S.zero, S.generator(0)])
        assert moved.classes[()] == base.classes[()]
        assert moved.classes[(1,)] == base.classes[(1,)]
        assert moved.classes[(0,)] != base.classes[(0,)]
        assert moved.classes[(0, 1)] != base.classes[(0, 1)]
        assert relation_holds(moved)[0]

    def test_no_empty_level_perturbation(self):
        with pytest.raises(ValueError, match="nonempty"):
            perturb(random_system(_small_tower(), 12), (), [1, 1, 1])

    def test_broken_family_is_detected(self):
        tower = _small_tower()
        system = random_system(tower, 13)
        S = tower.level_ring((0, 1))
        classes = {d: list(v) for d, v in system.classes.items()}
        classes[(0, 1)][0] = S.add(classes[(0, 1)][0], S.one)
        broken = EulerSystem(tower, 1, classes)
        holds, failures = relation_holds(broken)
        assert not holds
        assert all(key.startswith("0,1>") for key in failures)

    def test_hundred_random_draws(self):
        tower = _small_tower()
        for seed in range(100):
            random_system(tower, seed)

    def test_four_prime_closure(self):
        fr = [_eye(5) for _ in range(4)]
        for rows in fr:
            rows[1][1] = 2
        tower = EulerTower(5, 1, 2, 1, (5, 5, 5, 5), fr,
                           [[1, 2, 3, 4], [2, 1, 4, 3],
                            [3, 4, 1, 2], [4, 3, 2, 1]])
        system = random_system(tower, 21)
        report = relation_report(system)
        assert len(report) == 81
        assert all(report.values())


class TestDerivedClasses:
    def test_empty_level_is_plain_reduction(self):
        tower = _small_tower()
        system = random_system(tower, 14)
        assert derived_class(system, ()) == reduce_class(
            tower, (), system.classes[()])

    def test_frozen_one_prime_values(self):
        tower = _one_prime_tower()
        system = canonical_system(tower, [3, 7])
        assert reduce_class(tower, (0,), system.classes[(0,)]) == [
            (3, 0, 0, 1, 1), (2, 0, 0, 4, 4)]
        assert derived_class(system, ()) == [3, 2]
        assert derived_class(system, (0,)) == [3, 2]

    def test_invariance_on_random_families(self):
        tower = _small_tower()
        for seed in (15, 16, 17):
            system = random_system(tower, seed)
            for d in tower.divisors():
                assert invariance_holds(system, d)
                derived_class(system, d)

    def test_non_invariant_family_raises(self):
        tower = _small_tower()
        S = tower.level_ring((0,))
        classes = {(): [1, 0, 0], (0,): [S.generator(0), S.zero, S.zero],
                   (1,): [0, 0, 0], (0, 1): [0, 0, 0]}
        classes[(1,)] = [tower.level_ring((1,)).zero] * 3
        classes[(0, 1)] = [tower.level_ring((0, 1)).zero] * 3
        bad = EulerSystem(tower, 1, classes)
        assert not invariance_holds(bad, (0,))
        with pytest.raises(ValueError, match="not invariant"):
            derived_class(bad, (0,))

    def test_reduce_at_working_precision_is_identity(self):
        tower = _small_tower()
        system = random_system(tower, 18)
        for d in tower.divisors():
            assert reduce_class(tower, d, system.classes[d],
                                m=tower.m_big) == system.classes[d]

    def test_reduction_commutes_with_contraction(self):
        fr = [_eye(4) for _ in range(2)]
        for rows in fr:
            rows[1][1] = 2
            rows[2][2] = 3
        tower = EulerTower(5, 2, 4, 2, (25, 25), fr, [[2, 3], [1, 4]])
        system = random_system(tower, 5)
        phi = [1, 7, 0, 3]
        for d in tower.divisors():
            S = tower.level_ring(d)
            T = tower.level_ring(d, tower.m)
            lift = (lambda R, a: R.from_int(a) if R.rank > 1 else a % R.n)
            one = reduce_class(tower, d, contract_table(
                S, 4, 2, 1, [lift(S, a) for a in phi], system.classes[d]))
            two = contract_table(
                T, 4, 2, 1, [lift(T, a) for a in phi],
                reduce_class(tower, d, system.classes[d]))
            assert one == two


class TestPairing:
    def test_empty_divisor(self):
        assert pairing_determinant(_small_tower(), ()) == 1

    def test_singleton_vanishes(self):
        tower = _pairing_tower()
        assert pairing_matrix(tower, (2,)) == [[0]]
        assert pairing_determinant(tower, (2,)) == 0

    def test_single_prime_vector_is_derived_class(self):
        tower = _pairing_tower()
        system = random_system(tower, 19)
        for q in range(4):
            assert derived_vector(system, (q,)) == derived_class(
                system, (q,))

    def test_two_prime_determinant(self):
        tower = _pairing_tower()
        expected = (-tower.pair_entry(0, 1) * tower.pair_entry(1, 0)) % 5
        assert pairing_determinant(tower, (0, 1)) == expected == 2

    def test_labeling_independence(self):
        tower = _pairing_tower()
        frozen = {2: 2, 3: 1, 4: 0}
        for nu in (2, 3, 4):
            values = {pairing_determinant(tower, perm)
                      for perm in itertools.permutations(range(nu))}
            assert values == {frozen[nu]}

    def test_repeated_prime_rejected(self):
        with pytest.raises(ValueError, match="repeated prime"):
            pairing_matrix(_pairing_tower(), (0, 0))

    def test_permutation_cross_check(self):
        tower = _pairing_tower()
        system = random_system(tower, 20)
        for d in ((), (1,), (0, 2), (0, 1, 3), (0, 1, 2, 3)):
            assert derived_vector(system, d) == \
                derived_vector_by_permutations(system, d)


class TestRankOneReduction:
    def test_functional_width_checked(self):
        system = random_system(_small_tower(), 22)
        with pytest.raises(ValueError, match="functional"):
            rank_one_reduction(system, [1, 2])

    def test_zero_functional(self):
        tower = _small_tower()
        system = random_system(tower, 23)
        reduced = rank_one_reduction(system, [0])
        for d in tower.divisors():
            S = tower.level_ring(d)
            assert reduced.classes[tuple(sorted(d))] == [S.zero] * 3

    def test_degree_one_contracts_by_scalar(self):
        tower = _small_tower()
        system = random_system(tower, 24)
        reduced = rank_one_reduction(system, [3])
        for d in tower.divisors():
            S = tower.level_ring(d)
            want = [S.mul(S.from_int(3), c)
                    for c in system.classes[tuple(sorted(d))]]
            assert reduced.classes[tuple(sorted(d))] == want

    def test_reduced_family_satisfies_relations(self):
        system = random_system(_small_tower(), 25)
        reduced = rank_one_reduction(system, [2])
        assert reduced.degree == 1
        assert relation_holds(reduced)[0]

    def test_fifty_random_pairs_commute(self):
        rng = random.Random(1234)
        for trial in range(50):
            b = [[rng.randrange(1, 5) for _ in range(2)] for _ in range(2)]
            fr = []
            for _q in range(2):
                rows = _eye(4)
                rows[1][1] = 2 + (trial % 3)
                fr.append(rows)
            tower = EulerTower(5, 1, 2, 2, (5, 5), fr, b)
            system = random_system(tower, 1000 + trial)
            phi = [rng.randrange(5) for _ in range(4)]
            reduced = rank_one_reduction(system, phi)
            for d in tower.divisors():
                assert reduction_identity_holds(system, reduced, phi, d)


class TestLocalComparison:
    def test_consistent_instance_report(self):
        tower, system, kdata = consistent_instance(5, 2, 2, 2, seed=11)
        report = rank_reduction_report(system, kdata)
        assert report["expansion"]
        assert report["reduction_identity"]
        assert report["equivalence"]
        assert report["fs_holds"]
        assert report["witness"] is None
        assert all(report["full_fs"].values())
        assert all(report["scalar_fs"].values())

    def test_report_runs_each_scalar_comparison_once(self, monkeypatch):
        # The consistent Z/9 r1 s3 bundle of seed 0: 12 (divisor, prime)
        # pairs and one unit functional, so one scan makes 12 comparisons.
        tower, system, kdata = consistent_instance(3, 2, 1, 3, seed=0)
        before = rank_reduction_report(system, kdata)
        calls = []
        original = euler.scalar_fs_holds

        def counted(*args):
            calls.append(args[2:4])
            return original(*args)

        monkeypatch.setattr(euler, "scalar_fs_holds", counted)
        after = rank_reduction_report(system, kdata)
        assert len(calls) == 12
        assert len(set(calls)) == 12
        assert after == before
        assert after["witness"] is None and after["fs_holds"]

    def test_consistent_instance_feeds_contraction_system(self):
        tower, system, kdata = consistent_instance(5, 2, 2, 2, seed=11)
        ksys, malformed = system_from_ambient_tables(kdata,
                                                     derived_tables(system))
        assert malformed == []
        holds, failures = verify_fs(ksys)
        assert holds and not failures

    def test_frozen_top_table(self):
        tower, system, kdata = consistent_instance(5, 2, 2, 2, seed=11)
        tables = derived_tables(system)
        assert tables[(0, 1)] == [17, 9, 10, 19, 12, 4]
        assert [kdata.effective_unit(q) for q in range(2)] == [1, 1]

    def test_determinism(self):
        first = consistent_instance(5, 2, 2, 2, seed=11)
        second = consistent_instance(5, 2, 2, 2, seed=11)
        assert tower_to_json(first[0]) == tower_to_json(second[0])
        assert derived_tables(first[1]) == derived_tables(second[1])

    def test_tail_tamper_breaks_comparison(self):
        tower, system, kdata = consistent_instance(5, 2, 2, 2, seed=11)
        tables = derived_tables(system)
        bad = {d: list(v) for d, v in tables.items()}
        bad[(0, 1)][1] = (bad[(0, 1)][1] + 1) % 25
        assert fs_witness(scalar_fs_failures(kdata, bad)) == ((0, 1), 0, (0,))
        assert not fs_holds(kdata, bad, (0, 1), 0)
        # full-degree and all-scalar forms still agree on the bad tables
        monomials = [(0,), (1,), (2,), (3,)]
        scalars_ok = all(
            scalar_fs_holds(kdata, bad, (0, 1), 0,
                            [int(i == a) for i in range(4)])
            for a in range(4))
        assert scalars_ok == fs_holds(kdata, bad, (0, 1), 0)

    def test_head_tamper_breaks_membership_only(self):
        tower, system, kdata = consistent_instance(5, 2, 2, 2, seed=11)
        tables = derived_tables(system)
        bad = {d: list(v) for d, v in tables.items()}
        bad[(0, 1)][0] = (bad[(0, 1)][0] + 1) % 25
        assert fs_witness(scalar_fs_failures(kdata, bad)) is None
        _, malformed = system_from_ambient_tables(kdata, bad)
        assert malformed == [(0, 1)]

    def test_odd_prime_required(self):
        with pytest.raises(ValueError, match="odd prime"):
            consistent_instance(2, 2, 1, 1, seed=0)

    def test_corrupted_perturbation_is_a_program_error(self, monkeypatch,
                                                       tmp_path):
        # A perturbation that misses its compensation is a bug, not an
        # unlucky draw: it is raised, never redrawn, and ``gen`` does not
        # report it as bad parameters (exit 2).
        calls = []

        def corrupt(system, divisor, z):
            calls.append(divisor)
            S = system.tower.level_ring(divisor)
            return perturb(system, divisor, [S.add(z[0], S.one)] + z[1:])

        monkeypatch.setattr(euler, "perturb", corrupt)
        with pytest.raises(AssertionError,
                           match=r"derived class at level \(\d.*\) is not its "
                                 r"target"):
            consistent_instance(5, 2, 2, 2, seed=11)
        assert len(calls) == 1
        out = tmp_path / "bundle.json"
        with pytest.raises(AssertionError, match="consistent_instance"):
            cli.main(["gen", "--ring", "5,2", "--r", "2", "--s", "2",
                      "--profile", "consistent", "--seed", "11",
                      "--out", str(out)])
        assert not out.exists()


class TestOnlyTheSolvedSystemDerives:
    """On a consistent bundle, ``derive``'s ``membership`` and
    ``comparison-relation`` hold for the family that
    ``consistent_instance`` solved for, and for no other Euler system of
    the same tower that was tried: the canonical family of each unit
    wedge vector, and two seeded perturbations of the bundle's family at
    each nonempty level.  So they check the generator and the derivative
    code, not the theorem that D sends every Euler system to a Kolyvagin
    system; the level classes carry no local conditions that would make
    that a consequence."""

    @pytest.mark.parametrize("p, m, s, tried", [(5, 1, 2, 9), (3, 2, 3, 18)])
    def test_every_other_system_fails(self, p, m, s, tried):
        tower, system, kdata = consistent_instance(p, m, 1, s, seed=0)
        others = [canonical_system(tower, [int(j == i)
                                           for j in range(tower.width)])
                  for i in range(tower.width)]
        rng = random.Random(f"other-systems-{p}-{m}-{s}")
        for d in tower.divisors()[1:]:
            ring = tower.level_ring(d)
            others += [perturb(system, d, [ring.random_element(rng)
                                           for _ in range(tower.width)])
                       for _ in range(2)]
        assert len(others) == tried
        own = cli.derivative_checks(kdata, derived_tables(system))["checks"]
        assert own["membership"] and own["comparison-relation"]
        for other in others:
            assert relation_holds(other)[0]
            assert all(invariance_holds(other, d) for d in tower.divisors())
            tables = derived_tables(other)
            derived = cli.derivative_checks(kdata, tables)
            assert not derived["checks"]["membership"]
            assert not derived["checks"]["comparison-relation"]
            assert derived["witnesses"]["membership"]
            # The relation is read on the ambient tables even though they
            # lie outside the biduals, and its witness names every failing
            # (divisor, prime) pair.
            failures = relation_failures(kdata, tables)
            assert failures
            assert derived["witnesses"]["comparison-relation"] == [
                f"{cli._level_name(d)}@{q}" for d, q in failures]


class TestSerialization:
    def test_tower_round_trip(self):
        tower = _two_prime_tower()
        data = tower_to_json(tower)
        assert data["schema"] == "euler-tower/1"
        back = tower_from_json(data)
        assert tower_to_json(back) == data
        with pytest.raises(ValueError, match="euler-tower/1"):
            tower_from_json({"schema": "nope"})

    def test_system_round_trip(self):
        system = random_system(_small_tower(), 26)
        data = system_to_json(system)
        assert data["schema"] == "euler-system/1"
        assert data["precision"] == {"working_modulus": 25,
                                     "target_modulus": 5}
        back = system_from_json(data)
        assert back.degree == system.degree
        assert back.classes == system.classes
        assert back.meta == system.meta
        with pytest.raises(ValueError, match="euler-system/1"):
            system_from_json({"schema": "nope"})

    def test_byte_stable_serialization(self):
        one = json.dumps(system_to_json(random_system(_small_tower(), 27)),
                         sort_keys=True)
        two = json.dumps(system_to_json(random_system(_small_tower(), 27)),
                         sort_keys=True)
        assert one == two

    def test_derivative_report(self):
        system = random_system(_small_tower(), 28)
        report = derivative_report(system)
        assert report["schema"] == "euler-derivative/1"
        assert report["target_modulus"] == 5
        assert report["working_modulus"] == 25
        assert all(report["relations"].values())
        assert all(report["invariance"].values())
        assert report["pair_determinants"][""] == 1
        for d in system.tower.divisors():
            key = ",".join(str(q) for q in d)
            assert report["derived_vectors"][key] == \
                derived_vector(system, d)
