"""Module layer: presentations, duality, Fitting ideals, fixed points as
kernels.

Frozen expected values were computed with the Hom-set / functional oracles
before the linear-algebra paths existed.  The random-instance tests then
compare the package against full enumeration on small presentations over all
seven standard rings.
"""

import itertools
import random
import sys

import pytest

from ekslab.modules import (
    FPModule,
    Ideal,
    ModuleMap,
    annihilator,
    chain_invariants,
    cokernel,
    dual_map,
    dual_module,
    factor_through,
    fitting_ideal,
    is_injective,
    is_isomorphism,
    is_surjective,
    kernel,
    min_generators,
    present_submodule,
    solve_map,
    syzygies,
)
from ekslab import cli
from ekslab.biduals import ExteriorBidual
from ekslab.cli import ideal_json
from ekslab.rings import (
    ChainRing,
    Matrix,
    kernel_matrix,
    make_ring,
    solve_int,
    submodule_howell,
)
from oracles import (
    all_functionals,
    all_homomorphisms,
    annihilator_elements,
    annihilator_reference,
    canonical_reps,
    cyclic,
    det_permutation_expansion,
    direct_sum,
    fitting_ideal_minors,
    from_base,
    ideal_elements,
    kernel_reference,
    module_elements,
    ring_elements,
    same_submodule,
    span_set,
    syzygies_reference,
)
from propchecks import quotient_by, random_element

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
SMALL_RINGS = [R for R in RINGS if R.size <= 81]

Z4 = make_ring(2, 2)
Z8 = make_ring(2, 3)
Z9 = make_ring(3, 2)
F3C3 = make_ring(3, 1, (3,))


def random_presentation(ring, rng, max_gens=3, max_rels=3):
    g = rng.randrange(1, max_gens + 1)
    k = rng.randrange(0, max_rels + 1)
    rows = [[ring.random_element(rng) for _ in range(g)] for _ in range(k)]
    return FPModule(ring, g, Matrix(ring, rows, ncols=g))


class TestPresentation:
    def test_size_and_reps_z4(self):
        X = FPModule(Z4, 2, Matrix(Z4, [[2, 0], [0, 2]]))
        assert X.size == 4
        reps = list(canonical_reps(X))
        assert len(reps) == 4
        assert len({tuple(r) for r in reps}) == 4

    def test_zero_and_free(self):
        Z = FPModule.free(Z4, 0)
        assert Z.size == 1
        F = FPModule.free(Z4, 2)
        assert F.size == 16
        assert not F.element_is_zero([Z4.one, Z4.zero])
        assert F.element_is_zero([Z4.zero, Z4.zero])

    def test_element_identities(self):
        X = cyclic(Z4, 2)
        assert X.element_is_zero([2])
        assert X.elements_equal([1], [3])
        assert not X.elements_equal([1], [2])

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_size_matches_enumeration(self, ring):
        rng = random.Random(101)
        for _ in range(5):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            if X.size > 1 << 10:
                continue
            elements = module_elements(X, limit=1 << 10)
            assert len(elements) == X.size
            zero_count = sum(1 for e in elements if X.element_is_zero(e))
            assert zero_count == 1

    def test_group_ring_quotient(self):
        # F3[C3] / (sigma - 1) has order 3: the augmentation quotient.
        sig = F3C3.generator(0)
        X = cyclic(F3C3, F3C3.sub(sig, F3C3.one))
        assert X.size == 3

    def test_relation_ring_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FPModule(Z4, 2, Matrix(Z4, [[1, 2, 3]]))


class TestModuleMap:
    def test_well_definedness_enforced(self):
        # Z/2 -> Z/4 sending the generator to 1 is not a map: 2*1 != 0.
        A = cyclic(Z4, 2)
        B = cyclic(Z4, 0)
        with pytest.raises(ValueError):
            ModuleMap(A, B, Matrix(Z4, [[1]]))
        ModuleMap(A, B, Matrix(Z4, [[2]]))  # x -> 2x is fine

    def test_compose_and_identity(self):
        X = cyclic(Z4, 0)
        f = ModuleMap(X, X, Matrix(Z4, [[2]]))
        ident = ModuleMap.identity(X)
        assert f.compose(ident).equals(f)
        assert ident.compose(f).equals(f)
        assert f.compose(f).is_zero_map()

    def test_compose_across_two_presentations_is_checked(self):
        # f : R/(3) -> R/(3) and g : R -> R over Z/9 have middle modules
        # with one generator each, but other relations: the composite
        # R/(3) -> R sends the relation 3 to 3, which does not die.
        A = cyclic(Z9, 3)
        B = cyclic(Z9, 3)
        f = ModuleMap(A, B, Matrix(Z9, [[1]]))
        g = ModuleMap(FPModule.free(Z9, 1), FPModule.free(Z9, 1),
                      Matrix(Z9, [[1]]))
        with pytest.raises(ValueError, match="not well defined"):
            g.compose(f)

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_maps_agree_with_hom_oracle(self, ring):
        rng = random.Random(77)
        for _ in range(3):
            src = random_presentation(ring, rng, max_gens=1, max_rels=2)
            tgt = random_presentation(ring, rng, max_gens=1, max_rels=2)
            try:
                homs = all_homomorphisms(src, tgt, limit=1 << 12)
            except RuntimeError:
                continue
            # Every oracle hom must construct; every construction must be a hom.
            for images in homs:
                mat = Matrix(ring, [[images[0][t]] for t in range(tgt.ngens)],
                             ncols=1)
                ModuleMap(src, tgt, mat)
            bad = 0
            for x in ring_elements(ring):
                mat = Matrix(ring, [[x]], ncols=1)
                try:
                    ModuleMap(src, tgt, mat)
                except ValueError:
                    bad += 1
            assert bad == ring.size - len(homs)


class TestSoundConstructions:
    """The maps that skip the well-definedness check (``ModuleMap._sound``)
    are collected over whole verifies and each one is checked in full."""

    @pytest.mark.parametrize("ring, r, s", [
        ("3,2", 1, 3), ("3,2,3", 1, 2), ("2,3,4", 1, 1)])
    def test_every_unchecked_map_is_well_defined(self, tmp_path,
                                                  monkeypatch, ring, r, s):
        artifact = tmp_path / "instance.json"
        assert cli.main(["gen", "--ring", ring, "--r", str(r), "--s", str(s),
                         "--profile", "generic", "--seed", "0",
                         "--out", str(artifact)]) == 0
        built = []
        sound = ModuleMap._sound.__func__

        def recording(cls, source, target, matrix):
            f = sound(cls, source, target, matrix)
            built.append((sys._getframe(1).f_code.co_name, f))
            return f

        monkeypatch.setattr(ModuleMap, "_sound", classmethod(recording))
        assert cli.main(["verify", str(artifact), "--suite", "all",
                         "--seed", "0", "--out",
                         str(tmp_path / "report.json")]) in (0, 1)
        assert {site for site, _ in built} == {
            "compose", "sub", "present_submodule", "cokernel",
            "contract_pullback", "five_term_data"}
        for _site, f in built:
            # The full check of the constructor: every source relation
            # dies in the target.
            ModuleMap(f.source, f.target, f.matrix)


def _fresh_solve_map(f, target_vec):
    """solve_map by one fresh elimination of [A | target relations]."""
    ring = f.source.ring
    base = ring.base
    ncols_x = f.source.ngens * ring.rank
    aug = [row + [rc[u] for rc in f.target.rel_howell]
           for u, row in enumerate(f.matrix.to_base())]
    sol = solve_int(aug, ring.vec_to_base(target_vec), base.p, base.m)
    return None if sol is None else ring.vec_from_base(sol[:ncols_x])


class TestKeptFactorization:
    """``solve_map`` factors each map once; every answer must be the
    particular solution (or None) of a fresh elimination."""

    @pytest.mark.parametrize("ring", [Z9, Z8, make_ring(5, 2), make_ring(3, 3),
                                      make_ring(3, 2, (3,))], ids=str)
    def test_solve_map_matches_fresh_solve(self, ring):
        rng = random.Random(91 + ring.size)
        nones = 0
        for _ in range(8):
            src = random_presentation(ring, rng, max_gens=3, max_rels=0)
            tgt = random_presentation(ring, rng, max_gens=3, max_rels=3)
            mat = Matrix(ring, [[ring.random_element(rng)
                                 for _ in range(src.ngens)]
                                for _ in range(tgt.ngens)], ncols=src.ngens)
            # A map into p times the target leaves most random right-hand
            # sides without a solution.
            p = ring.from_int(ring.p)
            f = ModuleMap(src, tgt, Matrix(
                ring, [[ring.mul(p, x) for x in row] for row in mat.rows],
                ncols=src.ngens))
            for t in range(8):
                if t % 2:
                    b = [ring.random_element(rng) for _ in range(tgt.ngens)]
                else:
                    b = f.apply(random_element(src, rng))
                # Unreduced and negative entries reach the same answer.
                if ring.rank == 1:
                    b = [x - rng.randint(-2, 2) * ring.n for x in b]
                want = _fresh_solve_map(f, b)
                got = solve_map(f, b)
                assert got == want
                if want is None:
                    nones += 1
                else:
                    assert tgt.elements_equal(f.apply(got), b)
        assert nones, "no unsolvable right-hand side was drawn"

    @pytest.mark.parametrize("ring", [Z9, make_ring(3, 2, (3,))], ids=str)
    def test_scaled_factor_through(self, ring):
        rng = random.Random(97)
        Y = FPModule.free(ring, 2)
        g = ModuleMap(FPModule.free(ring, 2), Y, Matrix(
            ring, [[ring.one, ring.zero], [ring.zero, ring.from_int(3)]]))
        f = ModuleMap(FPModule.free(ring, 1), Y, Matrix(
            ring, [[ring.from_int(2)], [ring.from_int(6)]]))
        c = ring.random_unit(rng)
        h = factor_through(f, g, "no lift")
        hc = factor_through(f, g, "no lift", scale=c)
        assert hc.matrix.rows == [[ring.mul(c, x) for x in row]
                                  for row in h.matrix.rows]
        assert g.compose(h).equals(f)
        bad = ModuleMap(f.source, Y, Matrix(ring, [[ring.zero], [ring.one]]))
        with pytest.raises(RuntimeError, match="no lift"):
            factor_through(bad, g, "no lift", scale=c)


def _image(f):
    """The image of f, presented on a minimal subset of its columns."""
    return present_submodule(f.target, _columns(f))


class TestSubquotients:
    def test_present_submodule_sizes(self):
        F = FPModule.free(Z4, 2)
        S, incl = present_submodule(F, [[2, 0], [0, 2]])
        assert S.size == 4
        assert incl.source is S and incl.target is F
        # Inclusion is injective by construction of the syzygy relations.
        assert is_injective(incl)

    def test_kernel_image_cokernel_exactness(self):
        X = cyclic(Z8, 0)   # Z/8
        f = ModuleMap(X, X, Matrix(Z8, [[2]]))
        K, _ = kernel(f)
        I, _ = _image(f)
        C, _ = cokernel(f)
        assert (K.size, I.size, C.size) == (2, 4, 2)
        assert X.size == K.size * I.size

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_rank_nullity_random(self, ring):
        rng = random.Random(31)
        for _ in range(6):
            src = random_presentation(ring, rng, max_gens=2, max_rels=2)
            tgt = random_presentation(ring, rng, max_gens=2, max_rels=2)
            # Build a random valid map by scaling a known one: zero always works;
            # perturb with images of source generators that satisfy relations.
            homs = None
            cols = []
            for i in range(src.ngens):
                cols.append([ring.random_element(rng) for _ in range(tgt.ngens)])
            mat = Matrix(ring, [[cols[i][t] for i in range(src.ngens)]
                                for t in range(tgt.ngens)], ncols=src.ngens)
            try:
                f = ModuleMap(src, tgt, mat)
            except ValueError:
                continue
            K, _ = kernel(f)
            I, _ = _image(f)
            assert src.size == K.size * I.size

    def test_quotient_by(self):
        F = FPModule.free(Z4, 2)
        Q, proj = quotient_by(F, [[2, 0]])
        assert Q.size == 8
        assert is_surjective(proj)

    def test_cokernel_of_diag_1_2(self):
        F = FPModule.free(Z4, 2)
        f = ModuleMap(F, F, Matrix(Z4, [[1, 0], [0, 2]]))
        C, _ = cokernel(f)
        assert C.size == 2
        assert chain_invariants(C) == [1]

    def test_syzygies_vanish(self):
        F = FPModule.free(Z4, 2)
        vectors = [[2, 0], [2, 2], [0, 2]]
        for c in syzygies(F, vectors):
            acc = [Z4.zero, Z4.zero]
            for coeff, vec in zip(c, vectors):
                acc = [Z4.add(a, Z4.mul(coeff, v)) for a, v in zip(acc, vec)]
            assert acc == [Z4.zero, Z4.zero]


# ---------------------------------------------------------------------------
# Nakayama-minimal presentations.  The rings are local with residue field
# F_p, so a submodule N keeps exactly dim N/mN of the vectors that span it.
# The residue dimension is read here from the size of N/mN, the quotient
# by p and by every sigma - 1, not from the pivots the code uses; spans are
# compared by ``same_submodule`` (Howell forms of the two spans).
# ---------------------------------------------------------------------------

GROUP_RINGS = [
    make_ring(3, 2, (3,)),      # (Z/9)[C3]
    make_ring(2, 3, (4,)),      # (Z/8)[C4]
    make_ring(3, 1, (3, 3)),    # (Z/3)[C3 x C3]
]


def _residue_dimension(module) -> int:
    """dim over F_p of N/mN, m = (p, sigma_i - 1), from its size."""
    ring = module.ring
    g = module.ngens
    maximal = [ring.from_int(ring.p)] + [
        ring.sub(ring.generator(i), ring.one) for i in range(len(ring.orders))]
    rows = [list(row) for row in module.relations.rows]
    for x in maximal:
        for j in range(g):
            rows.append([x if t == j else ring.zero for t in range(g)])
    size = FPModule(ring, g, Matrix(ring, rows, ncols=g)).size
    dim = 0
    while size > 1:
        size //= ring.p
        dim += 1
    return dim


def _columns(f):
    return [list(c) for c in f.matrix.transpose().rows]


def _is_subsequence(kept, given) -> bool:
    it = iter(given)
    return all(any(v == w for w in it) for v in kept)


def _redundant(ring, rng, vectors):
    """The vectors with two more in their span, one of them in m times it:
    a spanning set that is never minimal."""
    if not vectors:
        return vectors
    a, b = rng.choice(vectors), rng.choice(vectors)
    u = ring.random_element(rng)
    pa = [ring.mul(ring.from_int(ring.p), x) for x in a]
    mixed = [ring.add(ring.mul(u, x), y) for x, y in zip(a, b)]
    out = vectors + [pa, mixed]
    rng.shuffle(out)
    return out


def _assert_minimal(module):
    assert module.ngens == min_generators(module) == _residue_dimension(module)


class TestNakayamaMinimal:
    @pytest.mark.parametrize("ring", GROUP_RINGS, ids=repr)
    def test_image_keeps_a_minimal_subset(self, ring):
        rng = random.Random(91)
        dropped = 0
        for _ in range(6):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            cols = _redundant(ring, rng, [
                [ring.random_element(rng) for _ in range(X.ngens)]
                for _ in range(rng.randrange(1, 3))])
            f = ModuleMap(FPModule.free(ring, len(cols)), X,
                          Matrix(ring, cols, ncols=X.ngens).transpose())
            img, incl = _image(f)
            _assert_minimal(img)
            kept = _columns(incl)
            assert _is_subsequence(kept, cols)
            assert same_submodule(X, kept, cols)
            dropped += len(cols) - img.ngens
        assert dropped > 0

    @pytest.mark.parametrize("ring", GROUP_RINGS, ids=repr)
    def test_kernel_of_a_projection_is_what_it_kills(self, ring):
        # X -> X / <B> has kernel <B>: a reference that needs no kernel.
        rng = random.Random(92)
        for _ in range(6):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            B = _redundant(ring, rng, [
                [ring.random_element(rng) for _ in range(X.ngens)]
                for _ in range(rng.randrange(1, 3))])
            _quot, proj = quotient_by(X, B)
            ker, incl = kernel(proj)
            _assert_minimal(ker)
            assert incl.target is X
            assert same_submodule(X, _columns(incl), B)

    @pytest.mark.parametrize("ring", GROUP_RINGS, ids=repr)
    def test_kernel_of_a_free_map(self, ring):
        rng = random.Random(93)
        for _ in range(6):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            g = rng.randrange(1, 4)
            mat = Matrix(ring, [[ring.random_element(rng) for _ in range(g)]
                                for _ in range(X.ngens)], ncols=g)
            f = ModuleMap(FPModule.free(ring, g), X, mat)
            ker, incl = kernel(f)
            _assert_minimal(ker)
            assert f.compose(incl).is_zero_map()
            # |ker| . |im| = |source|, with the image order from Howell rows
            span = X.relations.rows + _columns(f)
            quot = FPModule(ring, X.ngens, Matrix(ring, span, ncols=X.ngens))
            assert ker.size * (X.size // quot.size) == ring.size ** g

    @pytest.mark.parametrize("ring", GROUP_RINGS, ids=repr)
    def test_dual_keeps_a_minimal_subset_of_the_functionals(self, ring):
        rng = random.Random(94)
        for _ in range(6):
            X = random_presentation(ring, rng, max_gens=2, max_rels=3)
            dual, Y = dual_module(X)
            _assert_minimal(dual)
            funcs = [list(r) for r in kernel_matrix(X.relations).rows
                     if any(x != ring.zero for x in r)]
            kept = [list(r) for r in Y.rows]
            assert Y.ncols == X.ngens
            assert _is_subsequence(kept, funcs)
            assert same_submodule(FPModule.free(ring, X.ngens), kept, funcs)

    @pytest.mark.parametrize("ring", GROUP_RINGS, ids=repr)
    def test_vectors_that_die_give_no_generators(self, ring):
        # Every vector is zero in the ambient, so the span is 0 = m.0 and
        # every generator goes; the biduals of the empty presentation are R
        # in degree 0 and 0 above.
        rng = random.Random(95)
        p = ring.from_int(ring.p)
        rels = [[ring.random_element(rng) for _ in range(2)] for _ in range(2)]
        X = FPModule(ring, 2, Matrix(ring, rels, ncols=2))
        vectors = rels + [[ring.mul(p, x) for x in rels[0]],
                          [ring.add(x, y) for x, y in zip(*rels)]]
        sub, incl = present_submodule(X, vectors)
        assert sub.ngens == 0 and incl.matrix.shape == (2, 0)
        assert sub.size == 1
        for r in range(3):
            bid = ExteriorBidual(sub, r)
            assert bid.dual.ngens == 0
            assert bid.module.size == (ring.size if r == 0 else 1)
            _assert_minimal(bid.module)


# ---------------------------------------------------------------------------
# The cocheck route (tests/oracles.py) as reference: on a free target the
# two linearizations must give the same generators, byte for byte; on
# other targets the same submodule; annihilators the same ideal.
# ---------------------------------------------------------------------------

REFERENCE_RINGS = [
    make_ring(3, 2),            # Z/9
    make_ring(2, 3),            # Z/8
    make_ring(3, 2, (3,)),      # (Z/9)[C3]
    make_ring(2, 3, (4,)),      # (Z/8)[C4]
]


def _scaled_element(ring, rng):
    """A random element times a random power of p, so that kernels and
    annihilators are neither always 0 nor always everything."""
    e = rng.randrange(ring.m + 1)
    return ring.mul(ring.from_int(ring.p ** e), ring.random_element(rng))


def _reference_cases(ring, rng):
    """Module maps of every kind the kernel route meets: free and
    presented targets, the zero module, no source generators, sources
    whose every kernel lift dies."""
    def mat(h, g):
        return Matrix(ring, [[_scaled_element(ring, rng) for _ in range(g)]
                             for _ in range(h)], ncols=g)

    pk = ring.from_int(ring.p)
    cases = []
    for _ in range(3):
        g, h = rng.randrange(1, 4), rng.randrange(1, 4)
        # Free source and target.
        cases.append(ModuleMap(FPModule.free(ring, g), FPModule.free(ring, h),
                               mat(h, g)))
        # A source killed by p into a free target: columns in p^(m-1).R.
        X = FPModule(ring, g, Matrix(ring, [[pk if i == j else ring.zero
                                             for j in range(g)]
                                            for i in range(g)], ncols=g))
        top = ring.from_int(ring.p ** (ring.m - 1))
        A = mat(h, g)
        cases.append(ModuleMap(X, FPModule.free(ring, h), Matrix(
            ring, [[ring.mul(top, x) for x in row] for row in A.rows],
            ncols=g)))
        # Free source into a presented target, a scalar endomorphism of a
        # presented module, and a projection onto a quotient.
        Y = random_presentation(ring, rng, max_gens=3, max_rels=3)
        cases.append(ModuleMap(FPModule.free(ring, g), Y, mat(Y.ngens, g)))
        c = _scaled_element(ring, rng)
        cases.append(ModuleMap(Y, Y, Matrix(
            ring, [[c if i == j else ring.zero for j in range(Y.ngens)]
                   for i in range(Y.ngens)], ncols=Y.ngens)))
        B = [[_scaled_element(ring, rng) for _ in range(Y.ngens)]
             for _ in range(rng.randrange(1, 3))]
        cases.append(quotient_by(Y, B)[1])
        # Zero targets: no generators, or every generator a relation.
        cases.append(ModuleMap(FPModule.free(ring, g), FPModule.free(ring, 0),
                               Matrix(ring, [], ncols=g)))
        Z = FPModule(ring, h, Matrix.identity(ring, h))
        cases.append(ModuleMap(Y, Z, mat(h, Y.ngens)))
        # No source generators.
        cases.append(ModuleMap(FPModule.free(ring, 0), Y,
                               Matrix.zeros(ring, Y.ngens, 0)))
        # A zero source: every kernel lift dies in it.
        W = FPModule(ring, g, Matrix.identity(ring, g))
        cases.append(ModuleMap(W, FPModule.free(ring, h),
                               Matrix.zeros(ring, h, g)))
    return cases


class TestCocheckReference:
    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
    def test_kernels_match_the_cocheck_route(self, ring):
        rng = random.Random(97)
        free_cases = 0
        for f in _reference_cases(ring, rng):
            ker, incl = kernel(f)
            ref_ker, ref_incl = kernel_reference(f)
            if not f.target.relations.rows:
                free_cases += 1
                assert incl.matrix.rows == ref_incl.matrix.rows
                # The relations are syzygies in the source: the same rows
                # when it is free too, the same relation module otherwise.
                if not f.source.relations.rows:
                    assert ker.relations.rows == ref_ker.relations.rows
                assert ker.rel_howell == ref_ker.rel_howell
            else:
                assert same_submodule(f.source, _columns(incl),
                                      _columns(ref_incl))
            assert f.compose(incl).is_zero_map()
        assert free_cases

    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
    def test_syzygies_match_the_cocheck_route(self, ring):
        rng = random.Random(98)
        for f in _reference_cases(ring, rng):
            vectors = _columns(f)
            # Vectors that all die in the target: its own relation rows.
            dead = [list(r) for r in f.target.relations.rows]
            for vecs in (vectors, dead, vectors + dead):
                got = syzygies(f.target, vecs)
                want = syzygies_reference(f.target, vecs)
                if not f.target.relations.rows:
                    assert got == want
                else:
                    t = len(vecs)
                    assert (submodule_howell(ring, got, t)
                            == submodule_howell(ring, want, t))

    @pytest.mark.parametrize("ring", REFERENCE_RINGS, ids=repr)
    def test_annihilators_match_the_cocheck_route(self, ring):
        rng = random.Random(99)
        for f in _reference_cases(ring, rng):
            for X in (f.source, f.target):
                assert annihilator(X) == annihilator_reference(X)


class TestDuality:
    def test_dual_of_z2_over_z4(self):
        # Frozen: the only functionals on Z/2 inside Z/4 are x -> 0, x -> 2x,
        # so the dual is cyclic of order 2 generated by x -> 2x.
        X = cyclic(Z4, 2)
        D, Y = dual_module(X)
        assert D.size == 2
        assert Y.rows == [[2]]
        oracle = all_functionals(X)
        assert sorted(tuple(f) for f in oracle) == [(0,), (2,)]

    def test_self_dual_z4_plus_z2(self):
        X = direct_sum(cyclic(Z4, 0), cyclic(Z4, 2))
        D, _ = dual_module(X)
        assert X.size == D.size == 8
        assert chain_invariants(X) == chain_invariants(D) == [2, 1]

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_dual_size_matches_functional_oracle(self, ring):
        rng = random.Random(13)
        for _ in range(4):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            try:
                oracle = all_functionals(X, limit=1 << 12)
            except RuntimeError:
                continue
            D, Y = dual_module(X)
            assert D.size == len(oracle)
            # every package functional (from coords) appears in the oracle set
            oracle_set = {tuple(ring.vec_to_base(f)) for f in oracle}
            for coords in [D.zero_element()] + [D.generator(i)
                                                for i in range(D.ngens)]:
                vec = [
                    ring.reduce(sum_coeff)
                    for sum_coeff in _functional_vector(ring, Y, coords)
                ]
                assert tuple(ring.vec_to_base(vec)) in oracle_set

    def test_functionals_kill_relations(self):
        for ring in RINGS:
            rng = random.Random(8)
            X = random_presentation(ring, rng)
            D, Y = dual_module(X)
            for rel in X.relations.rows:
                assert all(ring.dot(Y.rows[a], rel) == ring.zero
                           for a in range(D.ngens))

    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_bidual_is_isomorphism(self, ring):
        rng = random.Random(21)
        for _ in range(4):
            X = random_presentation(ring, rng, max_gens=2, max_rels=3)
            bid = ExteriorBidual(X, 1)
            assert X.size == bid.module.size
            assert is_isomorphism(bid.xi())

    def test_bidual_iso_group_ring_quotient(self):
        # (Z/9)[C3] / (sigma - 1): the augmentation quotient, order 9.
        R9C3 = make_ring(3, 2, (3,))
        sig = R9C3.generator(0)
        X = cyclic(R9C3, R9C3.sub(sig, R9C3.one))
        assert X.size == 9
        bid = ExteriorBidual(X, 1)
        assert bid.module.size == 9
        assert is_isomorphism(bid.xi())

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_dualizing_ses_stays_exact(self, ring):
        # 0 -> S -> X -> X/S -> 0 dualizes to an exact sequence again:
        # 0 -> (X/S)* -> X* -> S* -> 0, with exactness in the middle checked
        # as im(proj*) = ker(incl*), not just by counting.
        rng = random.Random(47)
        for _ in range(3):
            X = random_presentation(ring, rng, max_gens=2, max_rels=1)
            vectors = [random_element(X, rng)]
            S, incl = present_submodule(X, vectors)
            Q, proj = quotient_by(X, vectors)
            DS, YS = dual_module(S)
            DX, YX = dual_module(X)
            DQ, YQ = dual_module(Q)
            assert X.size == S.size * Q.size
            assert DX.size == DS.size * DQ.size
            incl_star = dual_map(incl, DS, YS, DX, YX)
            proj_star = dual_map(proj, DX, YX, DQ, YQ)
            assert is_injective(proj_star)
            assert is_surjective(incl_star)
            K, _ = kernel(incl_star)
            I, _ = _image(proj_star)
            assert K.size == I.size
            # each image generator lies in the kernel
            for i in range(DQ.ngens):
                v = proj_star.apply(DQ.generator(i))
                assert DS.element_is_zero(incl_star.apply(v))
        # The degree-1 xi(x) must act on a functional phi as phi(x).
        X = direct_sum(cyclic(Z4, 2), cyclic(Z4, 0))
        bid = ExteriorBidual(X, 1)
        xi = bid.xi()
        rng = random.Random(3)
        for _ in range(20):
            x = random_element(X, rng)
            phi = random_element(bid.dual, rng)
            # coordinates of xi(x) against YW give the action on dual coords
            w = xi.apply(x)
            lhs = Z4.dot(w, bid.YW.apply(phi))
            rhs = Z4.dot(phi, bid.Y.apply(x))
            assert lhs == rhs


def _functional_vector(ring, Y, coords):
    """Coefficient vector of the functional with the given dual coordinates."""
    out = [ring.zero] * Y.ncols
    for c, row in zip(coords, Y.rows):
        for j, v in enumerate(row):
            out[j] = ring.add(out[j], ring.mul(c, v))
    return out


class TestFittingIdeals:
    def test_frozen_diag_2_2(self):
        X = FPModule(Z4, 2, Matrix(Z4, [[2, 0], [0, 2]]))
        assert fitting_ideal(X, 0) == Ideal.zero(Z4)
        assert fitting_ideal(X, 1) == Ideal(Z4, [2])
        assert fitting_ideal(X, 2) == Ideal.unit(Z4)
        assert fitting_ideal(X, 5) == Ideal.unit(Z4)

    def test_free_module(self):
        F = FPModule.free(Z9, 2)
        assert fitting_ideal(F, 0) == Ideal.zero(Z9)
        assert fitting_ideal(F, 1) == Ideal.zero(Z9)
        assert fitting_ideal(F, 2) == Ideal.unit(Z9)

    def test_chain_ascending(self):
        rng = random.Random(17)
        for ring in CHAIN_RINGS:
            for _ in range(5):
                X = random_presentation(ring, rng)
                chain = [fitting_ideal(X, i) for i in range(X.ngens + 1)]
                for lo, hi in zip(chain, chain[1:]):
                    assert lo.leq(hi)
                assert chain[-1] == Ideal.unit(ring)

    def test_presentation_invariance(self):
        # Same module, fatter presentation: add a redundant generator.
        X = FPModule(Z8, 2, Matrix(Z8, [[2, 0], [0, 4]]))
        # New generator e3 := e1 + e2 with the defining relation folded in.
        Y = FPModule(
            Z8,
            3,
            Matrix(Z8, [[2, 0, 0], [0, 4, 0], [1, 1, 7]]),
        )
        assert X.size == Y.size
        for i in range(4):
            assert fitting_ideal(X, i) == fitting_ideal(Y, i)

    @pytest.mark.parametrize("ring", [make_ring(3, 2, (3,)),
                                      make_ring(2, 3, (4,))])
    def test_group_ring_minors_of_the_own_relations(self, ring):
        # Fitting ideals do not depend on the generators of the relations:
        # the minors of the module's own nonzero relation rows give them,
        # and appending a duplicate and a zero row changes nothing.  The
        # entries lie in the maximal ideal, so no ideal below the top is
        # the unit ideal.
        rng = random.Random(29)
        maximal = [ring.from_int(ring.base.p),
                   ring.sub(ring.generator(0), ring.one)]
        for g, k in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3)]:
            rows = [[ring.mul(rng.choice(maximal), ring.random_element(rng))
                     for _ in range(g)] for _ in range(k)]
            rows = [row for row in rows if any(c != ring.zero for c in row)]
            X = FPModule(ring, g, Matrix(ring, rows, ncols=g))
            fat = FPModule(ring, g, Matrix(
                ring, rows + rows[:1] + [[ring.zero] * g], ncols=g))
            for i in range(g + 1):
                minors = [det_permutation_expansion(
                              ring, [[rows[a][b] for b in cols] for a in sel])
                          for sel in itertools.combinations(range(len(rows)),
                                                            g - i)
                          for cols in itertools.combinations(range(g), g - i)]
                assert fitting_ideal(X, i) == Ideal(ring, minors)
                assert fitting_ideal(fat, i) == Ideal(ring, minors)

    def test_fitt0_inside_annihilator(self):
        rng = random.Random(23)
        for ring in RINGS:
            for _ in range(3):
                X = random_presentation(ring, rng, max_gens=2, max_rels=2)
                assert fitting_ideal(X, 0).leq(annihilator(X))

    @pytest.mark.parametrize("ring", [make_ring(2, 3), make_ring(3, 2),
                                      make_ring(5, 2), make_ring(3, 3)],
                             ids=str)
    def test_chain_invariants_give_the_minors(self, ring):
        # Over a chain ring every index, -1 to g + 1, is read off the
        # invariants; the minors of the relation rows agree, on
        # presentations with zero rows, more relations than generators,
        # free summands (fewer relations, or a zero column) and relation
        # entries in the maximal ideal.
        rng = random.Random(53 + ring.n)
        p = ring.p
        for _ in range(25):
            g = rng.randint(1, 4)
            k = rng.randint(0, 6)
            shape = rng.choice(["random", "maximal", "free-column"])
            rows = []
            for _ in range(k):
                row = [ring.random_element(rng) for _ in range(g)]
                if shape == "maximal":
                    row = [p * x % ring.n for x in row]
                elif shape == "free-column":
                    row[-1] = 0
                rows.append(row)
            for _ in range(rng.randint(0, 2)):
                rows.insert(rng.randint(0, len(rows)), [0] * g)
            X = FPModule(ring, g, Matrix(ring, rows, ncols=g))
            for i in range(-1, g + 2):
                got = fitting_ideal(X, i)
                assert got == fitting_ideal_minors(X, i), (rows, i)
                assert got.exponent() == fitting_ideal_minors(X, i).exponent()

    def test_chain_fitt0_exponent(self):
        # For a diagonal chain-ring presentation Fitt_i is the product of the
        # largest invariants dropped one at a time: frozen small case.
        X = FPModule(Z8, 2, Matrix(Z8, [[2, 0], [0, 4]]))
        assert fitting_ideal(X, 0).exponent() == 3
        assert fitting_ideal(X, 1).exponent() == 1
        assert fitting_ideal(X, 2).exponent() == 0


class TestAnnihilator:
    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_against_elementwise_oracle(self, ring):
        rng = random.Random(29)
        for _ in range(4):
            X = random_presentation(ring, rng, max_gens=2, max_rels=2)
            if X.size > 1 << 10:
                continue
            ann = annihilator(X)
            elements = module_elements(X, limit=1 << 10)
            expected = set()
            for a in ring_elements(ring):
                if all(X.element_is_zero([ring.mul(a, x) for x in e])
                       for e in elements):
                    expected.add(tuple(ring.vec_to_base([a])))
            got = ideal_elements(ring, ann.gens) if ann.gens else \
                span_set(ring, [], 1)
            assert got == frozenset(expected)

    def test_annihilator_of_free_is_zero(self):
        assert annihilator(FPModule.free(Z4, 1)) == Ideal.zero(Z4)

    def test_annihilator_of_zero_is_unit(self):
        assert annihilator(FPModule.free(Z4, 0)) == Ideal.unit(Z4)

    def test_frozen_annihilators(self):
        assert annihilator(cyclic(Z4, 2)) == Ideal(Z4, [2])
        mixed = direct_sum(cyclic(Z4, 2), cyclic(Z4, 0))
        assert annihilator(mixed) == Ideal.zero(Z4)


class TestIdealApi:
    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_lattice_ops(self, ring):
        rng = random.Random(41)
        for _ in range(10):
            I = Ideal(ring, [ring.random_element(rng)])
            J = Ideal(ring, [ring.random_element(rng)])
            assert I.leq(I.add(J)) and J.leq(I.add(J))
            assert I.mul(J).leq(I) and I.mul(J).leq(J)
            assert Ideal.zero(ring).leq(I)
            assert I.leq(Ideal.unit(ring))

    def test_chain_exponent_roundtrip(self):
        for ring in CHAIN_RINGS:
            for k in range(ring.m + 1):
                I = Ideal(ring, [ring.p ** k])
                assert I.exponent() == k
                assert Ideal(ring, [ring.p ** I.exponent()]) == I

    def test_equality_is_canonical(self):
        I = Ideal(Z4, [2, 2, 0])
        J = Ideal(Z4, [2])
        assert I == J and hash(I) == hash(J)
        assert I != Ideal(Z4, [1])

    @pytest.mark.parametrize("spec", [(3, 2, ()), (3, 2, (3,))], ids=str)
    def test_equal_ideals_over_rings_built_apart_hash_equal(self, spec):
        R, S = make_ring(*spec), make_ring(*spec)
        assert R is not S
        I, J = Ideal(R, [R.from_int(3)]), Ideal(S, [S.from_int(3)])
        assert I == J and hash(I) == hash(J)
        assert len({I, J}) == 1
        assert {I: 1}[J] == 1

    def test_group_ring_ideal_membership(self):
        sig = F3C3.generator(0)
        aug = F3C3.sub(sig, F3C3.one)
        I = Ideal(F3C3, [aug])
        norm = F3C3.reduce((1, 1, 1))
        # In characteristic 3, (sigma - 1)^2 = sigma^2 + sigma + 1 is exactly
        # the norm, so the norm lies in the augmentation ideal; 1 does not.
        assert F3C3.mul(aug, aug) == norm
        assert I.contains(norm)
        assert not I.contains(F3C3.one)
        assert I.size == 9
        assert ideal_elements(F3C3, I.gens) == ideal_elements(F3C3, [aug, norm])


class TestModuleSerialization:
    @pytest.mark.parametrize("ring", RINGS, ids=repr)
    def test_ideal_roundtrip(self, ring):
        rng = random.Random(71)
        I = Ideal(ring, [ring.random_element(rng) for _ in range(2)])
        # ``ideal_json`` writes the canonical base rows, one ring element each
        doc = ideal_json(I)
        back = Ideal(ring, [ring.vec_from_base(row)[0]
                            for row in doc["generators"]])
        assert back == I


def _fixed_points(B, *maps):
    """The common fixed points of endomorphisms of B: the kernel of the map
    B -> B^k stacking every sigma - 1."""
    ring = B.ring
    ident = ModuleMap.identity(B)
    rows = [row for f in maps for row in f.sub(ident).matrix.rows]
    target = direct_sum(*[B] * len(maps))
    return kernel(ModuleMap(B, target, Matrix(ring, rows, ncols=B.ngens)))


class TestFixedPoints:
    def test_frozen_group_ring_norm_line(self):
        B = FPModule.free(F3C3, 1)
        sig = ModuleMap(B, B, Matrix(F3C3, [[F3C3.generator(0)]]))
        F, incl = _fixed_points(B, sig)
        assert F.size == 3
        # the fixed line is spanned by the norm element
        gens = [incl.apply(F.generator(i)) for i in range(F.ngens)]
        target = span_set(F3C3, [[F3C3.reduce((1, 1, 1))]], 1)
        assert span_set(F3C3, gens, 1) == target

    def test_frozen_diag_action_on_z9_squared(self):
        B = FPModule.free(Z9, 2)
        g = ModuleMap(B, B, Matrix(Z9, [[1, 0], [0, 4]]))
        F, incl = _fixed_points(B, g)
        assert F.size == 27
        span = span_set(Z9, [incl.apply(F.generator(i)) for i in range(F.ngens)], 2)
        assert span == span_set(Z9, [[1, 0], [0, 3]], 2)

    def test_multiple_commuting_maps(self):
        B = FPModule.free(Z4, 2)
        a = ModuleMap(B, B, Matrix(Z4, [[3, 0], [0, 1]]))
        b = ModuleMap(B, B, Matrix(Z4, [[1, 0], [0, 3]]))
        F, _ = _fixed_points(B, a, b)
        # fixed by both: 2x = 0 and 2y = 0
        assert F.size == 4

    @pytest.mark.parametrize("ring", SMALL_RINGS, ids=repr)
    def test_fixed_points_by_enumeration(self, ring):
        rng = random.Random(59)
        for _ in range(3):
            X = random_presentation(ring, rng, max_gens=2, max_rels=1)
            if X.size > 1 << 9:
                continue
            rows = [[ring.random_element(rng) for _ in range(2)] for _ in range(2)]
            if X.ngens != 2:
                continue
            try:
                f = ModuleMap(X, X, Matrix(ring, rows))
            except ValueError:
                continue
            F, incl = _fixed_points(X, f)
            fixed = []
            for rep in canonical_reps(X):
                e = from_base(X, rep)
                if X.elements_equal(f.apply(e), e):
                    fixed.append(e)
            assert F.size == len(fixed)
            for i in range(F.ngens):
                img = incl.apply(F.generator(i))
                assert any(X.elements_equal(img, e) for e in fixed)
