"""Reusable single-instance property checks for the bidual calculus.

Each check draws one random instance from the supplied rng and asserts one
structural guarantee.  The unit tests run small counts; the acceptance suite
runs the full battery at volume.  Sizes self-adapt to the ring: group rings
get fewer generators so the wedge modules stay small.
"""

import random

from ekslab.biduals import (
    bidual_functor_map,
    bidual_kernel,
    exterior_map,
    exterior_power,
    induced_bidual_map,
    interior_product,
    merge_sign,
    r_subsets,
    reduce_element,
    submodule_bidual_membership,
    table_in_sub_bidual,
    wedge_coeffs,
    _membership_kernel,
)
from ekslab.modules import (
    FPModule,
    Ideal,
    ModuleMap,
    cokernel,
    fitting_ideal,
    is_injective,
    kernel,
    present_submodule,
    same_submodule,
)
from ekslab.rings import Matrix, kernel_matrix, make_ring


def draw_module(ring, rng, max_gens=None):
    """A random presentation sized so downstream wedge work stays desk-scale.

    Generator counts go up to 4 for every ring; over group rings the larger
    counts are drawn less often because the dual can need rank-times-more
    generators, which the degree cap then compensates for.
    """
    if max_gens is not None:
        g = rng.randrange(1, max_gens + 1)
    elif ring.rank == 1:
        g = rng.randrange(1, 5)
    else:
        g = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
    k = rng.randrange(0, g + 2)
    rows = [[ring.random_element(rng) for _ in range(g)] for _ in range(k)]
    return FPModule(ring, g, Matrix(ring, rows, ncols=g))


def quotient_by(ambient, vectors):
    """``(quotient, projection)``: the ambient modulo the span of
    ``vectors``, as the cokernel of the map from a free module sending its
    basis to them."""
    ring = ambient.ring
    images = Matrix(ring, [list(v) for v in vectors], ncols=ambient.ngens)
    return cokernel(ModuleMap(FPModule.free(ring, len(vectors)), ambient,
                              images.transpose()))


def draw_degree(rng, bid_gens_bound: int) -> int:
    """A wedge degree up to 3, backing off to 2 when the dual may be wide."""
    hi = 3 if bid_gens_bound <= 5 else 2
    return rng.randrange(1, hi + 1)


def check_bidual_functor_injective(ring, rng):
    """Inclusions induce injections on every exterior bidual degree."""
    ambient = draw_module(ring, rng)
    nvec = rng.randrange(1, 3)
    vectors = [ambient.random_element(rng) for _ in range(nvec)]
    sub, incl = present_submodule(ambient, vectors)
    r = draw_degree(rng, ambient.ngens * ring.rank)
    _bs, _bt, f = bidual_functor_map(incl, r)
    assert is_injective(f), "bidual functor lost injectivity on an inclusion"


def check_membership_reduction(ring, rng):
    """The contraction criterion carves out exactly the sub-bidual image."""
    ambient = draw_module(ring, rng)
    nvec = rng.randrange(1, 3)
    vectors = [ambient.random_element(rng) for _ in range(nvec)]
    sub, incl = present_submodule(ambient, vectors)
    r = draw_degree(rng, ambient.ngens * ring.rank)
    bs, bt, f = bidual_functor_map(incl, r)
    image_gens = [f.apply(bs.module.generator(i)) for i in range(bs.module.ngens)]
    for gen in image_gens:
        assert submodule_bidual_membership(bt, gen, vectors), \
            "an image element fails the membership criterion"
    criterion_gens = _membership_kernel(bt, vectors)
    assert same_submodule(bt.module, criterion_gens, image_gens), \
        "criterion set differs from the embedded sub-bidual"


def check_wedge_kernel(ring, rng):
    """ker(wedge^r Y -> wedge^r Z) is spanned by sub wedge (r-1)-monomials."""
    ambient = draw_module(ring, rng)
    nvec = rng.randrange(1, 3)
    vectors = [ambient.random_element(rng) for _ in range(nvec)]
    _sub, _incl = present_submodule(ambient, vectors)
    quot, proj = quotient_by(ambient, vectors)
    g = ambient.ngens
    r = rng.randrange(1, min(3, max(g, 1)) + 1)
    ext_s, _ext_t, wmap = exterior_map(proj, r)
    ker_sub, ker_incl = kernel(wmap)
    kernel_gens = [ker_incl.apply(ker_sub.generator(i))
                   for i in range(ker_sub.ngens)]
    span_gens = []
    for v in vectors:
        for K in r_subsets(g, r - 1):
            w = [ring.zero] * len(ext_s.subsets)
            for i, c in enumerate(v):
                if c == ring.zero or i in K:
                    continue
                s = merge_sign((i,), K)
                I = tuple(sorted((i,) + K))
                val = c if s == 1 else ring.neg(c)
                w[ext_s.position[I]] = ring.add(w[ext_s.position[I]], val)
            span_gens.append(w)
    assert same_submodule(ext_s.module, kernel_gens, span_gens), \
        "wedge kernel differs from the sub-wedge span"


def check_bidual_kernel(ring, rng):
    """The kernel identity for contraction by a functional."""
    X = draw_module(ring, rng, max_gens=3 if ring.rank == 1 else 2)
    r = rng.randrange(1, 3)
    # draw an honest functional: a random combination of the dual generators
    from ekslab.modules import dual_module

    dual, Y = dual_module(X)
    coords = dual.random_element(rng)
    f_vec = Y.transpose().apply(coords)
    _lhs, _rhs, equal, _bid = bidual_kernel(X, f_vec, r)
    assert equal, "kernel of contraction differs from the kernel sub-bidual"


def check_fitt0_bidual(ring, rng):
    """Top-table contraction generates the zeroth Fitting ideal."""
    from ekslab.biduals import fitt0_via_bidual

    n = rng.randrange(2, 5 if ring.rank == 1 else 4)
    s = rng.randrange(1, n + 1)
    phis = [[ring.random_element(rng) for _ in range(n)] for _ in range(s)]
    via_tables = fitt0_via_bidual(ring, n, phis)
    Z = FPModule(ring, s, Matrix(
        ring, [[phis[i][j] for i in range(s)] for j in range(n)], ncols=s))
    assert via_tables == fitting_ideal(Z, 0), \
        "bidual route and minor route disagree on Fitt0"


def check_contraction_into_kernel(ring, rng):
    """Contracted top tables land in the bidual of the common kernel."""
    n = rng.randrange(2, 5 if ring.rank == 1 else 4)
    s = rng.randrange(1, n)
    phis = [[ring.random_element(rng) for _ in range(n)] for _ in range(s)]
    table = [ring.one]
    k = n
    for phi in phis:
        table = interior_product(ring, n, k, phi, table)
        k -= 1
    K = kernel_matrix(Matrix(ring, phis, ncols=n))
    ker_gens = [list(row) for row in K.rows]
    assert table_in_sub_bidual(ring, n, n - s, table, ker_gens), \
        "contracted table escapes the kernel bidual"


MORPH_TARGETS = {}


def _morph_target(ring):
    key = (ring.p, ring.m, tuple(getattr(ring, "orders", ())))
    if key not in MORPH_TARGETS:
        p, m, orders = key
        if orders:
            # prefer dropping coefficient precision; collapse the group when
            # the coefficients are already prime
            tgt = make_ring(p, m - 1, orders) if m > 1 else make_ring(p, m)
        else:
            tgt = make_ring(p, m - 1) if m > 1 else make_ring(p, m)
        MORPH_TARGETS[key] = tgt
    return MORPH_TARGETS[key]


def check_morph(ring, rng):
    """The induced table map along a ring surjection: defined and natural."""
    S = _morph_target(ring)
    n = rng.randrange(2, 4)
    k = rng.randrange(1, n + 1)
    X_gens = [[ring.random_element(rng) for _ in range(n)] for _ in range(k)]
    Y_gens = [[reduce_element(ring, S, c) for c in v] for v in X_gens]
    r = rng.randrange(1, min(3, n) + 1)
    push = induced_bidual_map(ring, S, n, X_gens, Y_gens, r)
    rows = []
    for _ in range(r):
        coeffs = [ring.random_element(rng) for _ in range(k)]
        vec = [ring.zero] * n
        for c, v in zip(coeffs, X_gens):
            for j in range(n):
                vec[j] = ring.add(vec[j], ring.mul(c, v[j]))
        rows.append(vec)
    table = wedge_coeffs(ring, rows, n)
    out = push(table)
    # naturality: reduce-then-wedge equals wedge-then-reduce
    reduced_rows = [[reduce_element(ring, S, c) for c in row] for row in rows]
    assert out == wedge_coeffs(S, reduced_rows, n), \
        "induced map is not natural against minors"


BIDUAL_CHECKS = [
    check_bidual_functor_injective,
    check_membership_reduction,
    check_wedge_kernel,
    check_bidual_kernel,
    check_fitt0_bidual,
    check_contraction_into_kernel,
    check_morph,
]


def run_battery(ring, seed: int, count: int) -> int:
    """Run ``count`` random instances round-robin over all checks."""
    rng = random.Random(seed)
    for i in range(count):
        BIDUAL_CHECKS[i % len(BIDUAL_CHECKS)](ring, rng)
    return count
