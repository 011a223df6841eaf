"""Selmer structures: condition matrices, comparison sequences, Fitting
recursion, core-vertex graph, deterministic generation.

The frozen Frobenius values were computed by hand (2x2 determinants and one
polynomial division); the frozen Fitting ideals come from listing the minors
of a 3x2 matrix over Z/25.
"""

import json
import random

import pytest

from ekslab import cli
from ekslab.kolyvagin import KolyvaginData
from ekslab.modules import (
    FPModule,
    Ideal,
    ModuleMap,
    cokernel,
    fitting_ideal,
    image_order,
    kernel,
)
from ekslab import selmer
from ekslab.rings import Matrix, make_ring
from ekslab.selmer import (
    PROFILES,
    SelmerInstance,
    all_divisors,
    core_vertices,
    fitt_recursion_holds,
    five_term_data,
    five_term_exact,
    frobenius_data,
    generate_instance,
    instance_from_json,
    instance_to_json,
    min_generators,
)
from oracles import same_submodule

Z4 = make_ring(2, 2)
Z9 = make_ring(3, 2)
Z25 = make_ring(5, 2)
F5 = make_ring(5, 1)
Z9C3 = make_ring(3, 2, (3,))
F3C3 = make_ring(3, 1, (3,))

ENGINE_RINGS = [Z25, Z9C3]          # the rings the system engines target
ALL_RINGS = [Z4, Z9, Z25, F5, F3C3, Z9C3]


class TestFrobeniusData:
    def test_identity_frobenius(self):
        fd = frobenius_data(Z9, [[1]])
        assert fd.q_poly == [8]          # the constant -1
        assert fd.fs_unit == 8

    def test_frozen_two_eigenvalues(self):
        fd = frobenius_data(Z9, [[1, 0], [0, 2]])
        assert fd.q_poly == [8, 2]       # -(1 - 2x)
        assert fd.fs_unit == 1

    def test_non_triangular_determinant(self):
        # det(1 - x Fr) keeps the x on off-diagonal entries: for the
        # symmetric matrix [[2,1],[1,2]] it is (1-x)(1-3x), not (1-2x)^2 - 1.
        fd = frobenius_data(Z25, [[2, 1], [1, 2]])
        assert fd.q_poly == [24, 3]      # -(1 - 3x)
        assert fd.fs_unit == 2

    def test_rejects_no_fixed_line(self):
        with pytest.raises(ValueError, match="free of rank one"):
            frobenius_data(Z9, [[2, 0], [0, 2]])

    def test_rejects_non_free_quotient(self):
        # Fr - 1 = diag(0, 3): quotient R + Z/3 is not free
        with pytest.raises(ValueError, match="free of rank one"):
            frobenius_data(Z9, [[1, 0], [0, 4]])

    def test_quotient_polynomial_reconstructs(self):
        # (x - 1) * q_poly must reproduce det(1 - x Fr)
        rng = random.Random(3)
        for ring in [Z25, Z9C3]:
            for _ in range(5):
                inst = generate_instance(ring, 1, 1, "generic",
                                         rng.randrange(1000))
                fd = inst.primes[0].frobenius
                q = fd.q_poly
                prod = [ring.neg(q[0])]
                for k in range(1, len(q) + 1):
                    below = q[k - 1]
                    above = ring.neg(q[k]) if k < len(q) else ring.zero
                    prod.append(ring.add(below, above))
                a = fd.matrix.nrows
                char = _char_poly(ring, fd.matrix)
                width = max(len(prod), len(char))
                pad = lambda v: v + [ring.zero] * (width - len(v))
                assert pad(prod) == pad(char)
                assert ring.is_unit(fd.fs_unit)


def _char_poly(ring, fr):
    """det(1 - x Fr) by cofactor expansion for sizes one and two."""
    a = fr.nrows
    if a == 1:
        return [ring.one, ring.neg(fr.rows[0][0])]
    x2 = ring.sub(ring.mul(fr.rows[0][0], fr.rows[1][1]),
                  ring.mul(fr.rows[0][1], fr.rows[1][0]))
    x1 = ring.neg(ring.add(fr.rows[0][0], fr.rows[1][1]))
    return [ring.one, x1, x2]


class TestInstanceShape:
    def test_constructor_validation(self):
        fin = Matrix(Z25, [[1, 0, 0]], ncols=3)
        with pytest.raises(ValueError, match="per prime"):
            SelmerInstance(Z25, 2, [], fin, fin)
        inst = generate_instance(Z25, 2, 1, "generic", 0)
        with pytest.raises(ValueError, match="width"):
            SelmerInstance(Z25, 1, inst.primes, inst.finite, inst.transverse)
        with pytest.raises(ValueError, match="core rank"):
            SelmerInstance(Z25, 0, inst.primes,
                           Matrix(Z25, [[1]], ncols=1),
                           Matrix(Z25, [[1]], ncols=1))

    def test_divisor_enumeration(self):
        ds = all_divisors(3)
        assert len(ds) == 8
        assert ds[0] == ()
        assert ds[-1] == (0, 1, 2)
        assert (0, 2) in ds

    def test_condition_matrix_row_selection(self):
        inst = generate_instance(Z25, 1, 3, "generic", 11)
        V = inst.condition_matrix((1,))
        assert V.rows[0] == list(inst.finite.rows[0])
        assert V.rows[1] == list(inst.transverse.rows[1])
        assert V.rows[2] == list(inst.finite.rows[2])
        Vd = inst.condition_matrix((1,), drop=1)
        assert Vd.nrows == 2
        assert Vd.rows == [list(inst.finite.rows[0]), list(inst.finite.rows[2])]

    def test_selmer_and_dual_sizes_multiply(self):
        # |ker| * |im| = |R^n| and |coker| * |im| = |R^s|, so the kernel and
        # cokernel sizes determine each other through the image
        rng = random.Random(5)
        for ring in ALL_RINGS:
            inst = generate_instance(ring, 2, 2, "generic", rng.randrange(99))
            for d in inst.divisors():
                sel, _ = inst.selmer_module(d)
                dual = inst.dual_selmer(d)
                n, s = inst.ambient_rank, inst.n_primes
                assert sel.size * ring.size ** s == \
                    dual.size * ring.size ** n


def _condition_map(inst, rows):
    """The map from the free ambient by the given condition rows."""
    V = Matrix(inst.ring, rows, ncols=inst.ambient_rank)
    return ModuleMap(FPModule.free(inst.ring, inst.ambient_rank),
                     FPModule.free(inst.ring, V.nrows), V)


class TestModuleMemo:
    """Selmer and dual Selmer modules are memoized by condition key: one
    module per condition matrix, shared by every caller."""

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)])
    def test_dropped_prime_ignores_its_side(self, ring, s):
        inst = generate_instance(ring, 1, s, "generic", 0)
        for d in inst.divisors():
            for q in range(s):
                if q in d:
                    continue
                up = tuple(sorted(d + (q,)))
                assert inst.dual_selmer(d, drop=q) is \
                    inst.dual_selmer(up, drop=q)
                assert inst.selmer_module(up, drop=q) is \
                    inst.selmer_module(d, drop=q)
                # the divisor is a set of primes: its order does not matter
                assert inst.selmer_module(up[::-1]) is inst.selmer_module(up)
        assert inst.dual_selmer((), drop=0) is not inst.dual_selmer(())

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)])
    def test_memo_matches_fresh_kernel_and_cokernel(self, ring, s):
        inst = generate_instance(ring, 1, s, "generic", 0)
        for d in inst.divisors():
            for drop in (None,) + tuple(range(s)):
                cond = inst.condition_matrix(d, drop=drop).rows
                sel, incl = inst.selmer_module(d, drop=drop)
                fresh, fresh_incl = kernel(_condition_map(inst, cond))
                assert sel.relations == fresh.relations
                assert incl.matrix == fresh_incl.matrix
                dual = inst.dual_selmer(d, drop=drop)
                fresh_dual, _proj = cokernel(_condition_map(inst, cond))
                assert dual.relations == fresh_dual.relations
                assert dual.size == fresh_dual.size

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)])
    def test_relaxed_modules_share_the_selmer_memo(self, ring, s):
        inst = generate_instance(ring, 1, s, "generic", 0)
        assert inst.relaxed_module(()) is inst.selmer_module(())
        for q in range(s):
            assert inst.relaxed_module((q,)) is \
                inst.selmer_module((), drop=q)
        top, incl = inst.relaxed_module(tuple(range(s)))
        assert top.relations.nrows == 0
        assert incl.matrix == Matrix.identity(ring, inst.ambient_rank)

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)])
    def test_relaxed_module_matches_fresh_kernel(self, ring, s):
        # Finite rows outside the divisor, none inside.
        inst = generate_instance(ring, 1, s, "generic", 0)
        for d in inst.divisors():
            rows = [list(inst.finite.rows[q]) for q in range(s) if q not in d]
            module, incl = inst.relaxed_module(d)
            fresh, fresh_incl = kernel(_condition_map(inst, rows))
            assert module.relations == fresh.relations
            assert incl.matrix == fresh_incl.matrix

    @pytest.mark.parametrize("ring, s", [(Z9, 3), (Z9C3, 2)])
    def test_kolyvagin_data_reads_the_instance(self, ring, s):
        inst = generate_instance(ring, 1, s, "generic", 0)
        kdata = KolyvaginData(inst)
        for d in inst.divisors():
            assert kdata.module(d) is inst.selmer_module(d)


class TestRankIdentity:
    def test_difference_is_core_rank_everywhere(self):
        rng = random.Random(7)
        for ring in ALL_RINGS:
            for profile in PROFILES:
                r = rng.randrange(1, 4)
                s = rng.randrange(1, 4)
                inst = generate_instance(ring, r, s, profile,
                                         rng.randrange(1000))
                for d in inst.divisors():
                    lam, lam_star = inst.residue_ranks(d)
                    assert lam - lam_star == r

    def test_core_iff_residue_dual_rank_zero(self):
        rng = random.Random(9)
        for ring in [Z25, Z9C3, F5]:
            for profile in PROFILES:
                inst = generate_instance(ring, 1, 3, profile,
                                         rng.randrange(1000))
                for d in inst.divisors():
                    assert inst.is_core(d) == \
                        (inst.residue_ranks(d)[1] == 0)


class TestFiveTerm:
    def test_exact_on_random_instances(self):
        rng = random.Random(13)
        for ring in ALL_RINGS:
            for profile in PROFILES:
                inst = generate_instance(ring, rng.randrange(1, 3), 3,
                                         profile, rng.randrange(1000))
                for d in [(), (0,), (1, 2), (0, 1, 2)]:
                    for q in range(3):
                        assert five_term_exact(inst, d, q), \
                            (ring, profile, d, q)

    def test_middle_map_evaluates_dropped_row(self):
        inst = generate_instance(Z25, 2, 2, "generic", 17)
        _m1, m2, _m3, _m4 = five_term_data(inst, (), 0)
        selq, inclq = inst.selmer_module((), drop=0)
        row = inst.finite.rows[0]
        for j in range(selq.ngens):
            vec = inclq.apply(selq.generator(j))
            want = Z25.zero
            for c, x in zip(row, vec):
                want = Z25.add(want, Z25.mul(c, x))
            assert m2.matrix.rows[0][j] == want


def _exact_by_definition(maps):
    """Exactness of 0 -> A -> B -> C -> D -> E -> 0 by kernels and images:
    the first map is injective, each image is the next kernel, and the last
    map is surjective."""
    def gens(f):
        return [f.apply(f.source.generator(i)) for i in range(f.source.ngens)]

    def ker_gens(f):
        sub, incl = kernel(f)
        return [incl.apply(sub.generator(i)) for i in range(sub.ngens)]

    return (kernel(maps[0])[0].size == 1
            and all(same_submodule(f.target, gens(f), ker_gens(g))
                    for f, g in zip(maps, maps[1:]))
            and cokernel(maps[-1])[0].size == 1)


class TestFiveTermNegativeControls:
    """A sequence with one of its first three maps scaled by p, or replaced
    by zero, is no longer exact whenever that changes the map's image;
    neither is one whose middle image orders fit but whose composites do
    not vanish, or whose end maps are not injective or surjective.  The
    order-based check and the definition by kernels and images agree on
    each.  The last map is onto by construction, which the check takes as
    given and these tests confirm."""

    @pytest.mark.parametrize("ring", [Z9, Z25, Z9C3], ids=str)
    def test_scaled_or_zero_map_is_not_exact(self, ring, monkeypatch):
        inst = generate_instance(ring, 1, 3, "generic", 5)
        p = ring.p
        broken = 0
        for d in [(), (0,), (1, 2)]:
            for q in range(3):
                maps = five_term_data(inst, d, q)
                assert image_order(maps[-1]) == maps[-1].target.size
                for i, f in enumerate(maps[:-1]):
                    scaled = [[ring.mul(ring.from_int(p), x) for x in row]
                              for row in f.matrix.rows]
                    for mat in (Matrix(ring, scaled, ncols=f.matrix.ncols),
                                Matrix.zeros(ring, *f.matrix.shape)):
                        g = ModuleMap(f.source, f.target, mat)
                        if image_order(g) == image_order(f):
                            continue
                        bad = maps[:i] + (g,) + maps[i + 1:]
                        monkeypatch.setattr(selmer, "five_term_data",
                                            lambda *_args: bad)
                        assert not five_term_exact(inst, d, q)
                        assert not _exact_by_definition(bad)
                        broken += 1
                monkeypatch.undo()
                assert five_term_exact(inst, d, q)
                assert _exact_by_definition(maps)
        assert broken

    def test_orders_alone_do_not_make_a_sequence_exact(self, monkeypatch):
        # 0 -> F5 -> F5^2 -> F5 -> 0 -> 0 -> 0 with the image orders of an
        # exact sequence: only the composite of the first two maps decides.
        line, plane, zero = (FPModule.free(F5, 1), FPModule.free(F5, 2),
                             FPModule.free(F5, 0))
        first = ModuleMap(line, plane, Matrix(F5, [[1], [0]]))
        tail = (ModuleMap(line, zero, Matrix.zeros(F5, 0, 1)),
                ModuleMap(zero, zero, Matrix.zeros(F5, 0, 0)))
        for row, exact in (([0, 1], True), ([1, 0], False)):
            maps = (first, ModuleMap(plane, line, Matrix(F5, [row]))) + tail
            monkeypatch.setattr(selmer, "five_term_data",
                                lambda *_args: maps)
            assert [image_order(f) for f in maps] == [5, 5, 1, 1]
            assert five_term_exact(None, (), 0) is exact
            assert _exact_by_definition(maps) is exact

    def test_each_end_is_checked(self, monkeypatch):
        # One end map fails: the first map's injectivity at the start, the
        # last map's surjectivity through the order product at the node
        # before it, which counts the last map's image as its whole target.
        line, plane, zero = (FPModule.free(F5, 1), FPModule.free(F5, 2),
                             FPModule.free(F5, 0))
        nothing = ModuleMap(zero, zero, Matrix.zeros(F5, 0, 0))
        not_injective = (ModuleMap(plane, line, Matrix(F5, [[1, 0]])),
                         ModuleMap(line, zero, Matrix.zeros(F5, 0, 1)),
                         nothing, nothing)
        not_surjective = (nothing,
                          ModuleMap(zero, line, Matrix.zeros(F5, 1, 0)),
                          ModuleMap.identity(line),
                          ModuleMap(line, line, Matrix.zeros(F5, 1, 1)))
        for maps in (not_injective, not_surjective):
            monkeypatch.setattr(selmer, "five_term_data",
                                lambda *_args: maps)
            assert not five_term_exact(None, (), 0)
            assert not _exact_by_definition(maps)


class TestFittRecursion:
    def test_frozen_z25_chain(self):
        fin = Matrix(Z25, [[5, 5, 0], [0, 5, 5]], ncols=3)
        tra = Matrix(Z25, [[1, 0, 0], [0, 1, 0]], ncols=3)
        primes = generate_instance(Z25, 1, 2, "generic", 0).primes
        inst = SelmerInstance(Z25, 1, primes, fin, tra)
        dual = inst.dual_selmer(())
        assert fitting_ideal(dual, 0) == Ideal.zero(Z25)
        assert fitting_ideal(dual, 1) == Ideal(Z25, [5])
        assert fitting_ideal(dual, 2) == Ideal.unit(Z25)
        for i in (1, 2):
            assert fitt_recursion_holds(inst, (), i)

    def test_random_recursion(self):
        rng = random.Random(19)
        for ring in ALL_RINGS:
            inst = generate_instance(ring, rng.randrange(1, 3), 3,
                                     rng.choice(PROFILES), rng.randrange(1000))
            for d in [(), (0, 2), (0, 1, 2)]:
                for i in range(1, 4):
                    assert fitt_recursion_holds(inst, d, i)

    def test_recursion_needs_positive_index(self):
        inst = generate_instance(Z25, 1, 2, "generic", 23)
        with pytest.raises(ValueError):
            fitt_recursion_holds(inst, (), 0)


class TestProfiles:
    def test_pir_basis_everywhere_core_and_free(self):
        for ring in ENGINE_RINGS:
            inst = generate_instance(ring, 2, 3, "pir-basis", 29)
            assert len(core_vertices(inst)) == 8
            for d in inst.divisors():
                sel, _ = inst.selmer_module(d)
                assert sel.size == ring.size ** 2
                assert min_generators(sel) == 2

    def test_class_trivial_core_at_one(self):
        for ring in ENGINE_RINGS:
            inst = generate_instance(ring, 1, 3, "class-trivial", 31)
            assert inst.is_core(())

    def test_degenerate_not_core_at_one(self):
        for ring in ENGINE_RINGS:
            inst = generate_instance(ring, 1, 3, "degenerate", 37)
            assert not inst.is_core(())
            lam, lam_star = inst.residue_ranks(())
            assert lam_star == inst.n_primes

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            generate_instance(Z25, 1, 2, "weird", 0)


class TestGraph:
    """The core-vertex graph of ``ekslab graph``, the one DOT renderer."""

    def _graph(self, tmp_path, inst, name):
        artifact = tmp_path / f"{name}.json"
        artifact.write_text(json.dumps(instance_to_json(inst)))
        out = tmp_path / f"{name}.dot"
        assert cli.main(["graph", str(artifact), "--out", str(out)]) == 0
        return out.read_text()

    def test_node_and_edge_counts(self, tmp_path):
        inst = generate_instance(Z25, 1, 3, "generic", 41)
        dot = self._graph(tmp_path, inst, "g")
        cores = set(core_vertices(inst))
        edges = sum(1 for d in cores for q in range(3)
                    if q not in d and tuple(sorted(d + (q,))) in cores)
        assert dot.count("label=") == len(cores)
        assert dot.count("->") == edges
        assert f"// cores: {len(cores)}" in dot.splitlines()

    def test_graph_deterministic(self, tmp_path):
        a = self._graph(tmp_path, generate_instance(Z9C3, 1, 2, "generic", 43),
                        "a")
        b = self._graph(tmp_path, generate_instance(Z9C3, 1, 2, "generic", 43),
                        "b")
        assert a == b


class TestSerialization:
    def test_roundtrip_and_determinism(self):
        for ring in ENGINE_RINGS:
            inst = generate_instance(ring, 2, 3, "generic", 47)
            blob = json.dumps(instance_to_json(inst), sort_keys=True)
            again = json.dumps(
                instance_to_json(generate_instance(ring, 2, 3, "generic", 47)),
                sort_keys=True)
            assert blob == again
            back = instance_from_json(json.loads(blob))
            assert json.dumps(instance_to_json(back), sort_keys=True) == blob

    def test_distinct_seeds_differ(self):
        a = instance_to_json(generate_instance(Z25, 2, 3, "generic", 1))
        b = instance_to_json(generate_instance(Z25, 2, 3, "generic", 2))
        assert a != b

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="not a serialized"):
            instance_from_json({"schema": "nope"})
