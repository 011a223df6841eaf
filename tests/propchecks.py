"""Reusable single-instance property checks for the bidual calculus.

Each check draws one random instance from the supplied rng and asserts one
structural guarantee.  The unit tests run small counts; the acceptance suite
runs the full battery at volume.  Sizes self-adapt to the ring: group rings
get fewer generators so the wedge modules stay small.
"""

import random

from ekslab.biduals import (
    ExteriorBidual,
    ExteriorPower,
    bidual_contraction,
    bidual_functor_map,
    exterior_map,
    interior_product,
    merge_sign,
    r_subsets,
    subset_position,
)
from ekslab.modules import (
    FPModule,
    ModuleMap,
    cokernel,
    fitting_ideal,
    image_order,
    is_injective,
    kernel,
    present_submodule,
    solve_map,
)
from ekslab.rings import Matrix, kernel_matrix, make_ring
from oracles import (
    reduce_element,
    same_submodule,
    table_in_sub_bidual,
    wedge_coeffs,
)


def random_element(module, rng) -> list:
    """A random vector of ring elements, one per generator of the module."""
    return [module.ring.random_element(rng) for _ in range(module.ngens)]


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
    vectors = [random_element(ambient, rng) for _ in range(nvec)]
    sub, incl = present_submodule(ambient, vectors)
    r = draw_degree(rng, ambient.ngens * ring.rank)
    f = bidual_functor_map(incl, r)
    assert is_injective(f), "bidual functor lost injectivity on an inclusion"


def check_push_preimage_membership(ring, rng):
    """A table on a free ambient lies in the embedded bidual of a submodule
    exactly when the bidual functor map of the inclusion reaches it.

    Draws Y in R^n (its generators scaled by random powers of p) and a
    degree k, and compares the preimage criterion with the functional
    criterion of ``oracles.table_in_sub_bidual`` on the images of the
    bidual generators of Y, on random tables, and on their p-power
    multiples.  Returns ``(members, non_members)``.
    """
    p, m = ring.p, ring.m
    n = rng.randrange(1, 4 if ring.rank == 1 else 3)
    k = rng.randrange(1, n + 1)
    ambient = FPModule.free(ring, n)
    vectors = []
    for _ in range(rng.randrange(1, 3)):
        scale = ring.from_int(p ** rng.randrange(m))
        vectors.append([ring.mul(scale, c)
                        for c in random_element(ambient, rng)])
    sub, incl = present_submodule(ambient, vectors)
    bs, free = ExteriorBidual(sub, k), ExteriorBidual(ambient, k)
    push = bidual_functor_map(incl, k, bs, free)
    gens = [incl.apply(sub.generator(i)) for i in range(sub.ngens)]
    tables = [free.table(push.apply(bs.module.generator(i)))
              for i in range(bs.module.ngens)]
    width = len(r_subsets(n, k))
    for _ in range(3):
        table = [ring.random_element(rng) for _ in range(width)]
        tables += [[ring.mul(ring.from_int(p ** j), v) for v in table]
                   for j in range(m)]
    members = 0
    for table in tables:
        coords = free.from_table(table)
        assert coords is not None, "a free-ambient table is not a functional"
        inside = solve_map(push, coords) is not None
        assert inside == table_in_sub_bidual(ring, n, k, table, gens), \
            "push preimage and functional criterion disagree on membership"
        members += inside
    return members, len(tables) - members


def check_wedge_kernel(ring, rng):
    """ker(wedge^r Y -> wedge^r Z) is spanned by sub wedge (r-1)-monomials."""
    ambient = draw_module(ring, rng)
    nvec = rng.randrange(1, 3)
    vectors = [random_element(ambient, rng) for _ in range(nvec)]
    _sub, _incl = present_submodule(ambient, vectors)
    quot, proj = quotient_by(ambient, vectors)
    g = ambient.ngens
    r = rng.randrange(1, min(3, max(g, 1)) + 1)
    ext_s = ExteriorPower(ambient, r)
    wmap = exterior_map(proj, r)
    ker_sub, ker_incl = kernel(wmap)
    kernel_gens = [ker_incl.apply(ker_sub.generator(i))
                   for i in range(ker_sub.ngens)]
    position = subset_position(g, r)
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
                w[position[I]] = ring.add(w[position[I]], val)
            span_gens.append(w)
    assert same_submodule(ext_s.module, kernel_gens, span_gens), \
        "wedge kernel differs from the sub-wedge span"


def bidual_kernel_sides(X, f_vec, r: int):
    """Both sides of the kernel identity for a functional f on X.

    One side is the degree-r bidual of ker f, embedded in that of X by the
    functor map ``push`` of its inclusion; the other is the kernel of
    contraction by f from degree r to r - 1.  Returns
    ``(image_order(push), |kernel|, inside)``, where ``inside`` says that
    every kernel generator has a preimage under ``push``: the sides agree
    when the orders are equal and ``inside`` holds.
    """
    ring = X.ring
    f_map = ModuleMap(X, FPModule.free(ring, 1), Matrix(ring, [list(f_vec)]))
    _ker, ker_incl = kernel(f_map)
    bid = ExteriorBidual(X, r)
    push = bidual_functor_map(ker_incl, r, target=bid)
    phi = solve_map(bid.dual_solver, list(f_vec))
    assert phi is not None, "f is not a functional on X"
    contr = bidual_contraction(bid, ExteriorBidual(X, r - 1), phi)
    ker, incl = kernel(contr)
    inside = all(solve_map(push, incl.apply(ker.generator(i))) is not None
                 for i in range(ker.ngens))
    return image_order(push), ker.size, inside


def check_bidual_kernel(ring, rng):
    """The kernel identity for contraction by a functional."""
    X = draw_module(ring, rng, max_gens=3 if ring.rank == 1 else 2)
    r = rng.randrange(1, 3)
    # draw an honest functional: a random combination of the dual generators
    from ekslab.modules import dual_module

    dual, Y = dual_module(X)
    coords = random_element(dual, rng)
    f_vec = Y.transpose().apply(coords)
    size, ker_size, inside = bidual_kernel_sides(X, f_vec, r)
    assert inside and size == ker_size, \
        "kernel of contraction differs from the kernel sub-bidual"


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
    """Reducing tables along a ring surjection is natural against minors:
    wedge-then-reduce equals reduce-then-wedge."""
    S = _morph_target(ring)
    n = rng.randrange(2, 4)
    r = rng.randrange(1, min(3, n) + 1)
    rows = [[ring.random_element(rng) for _ in range(n)] for _ in range(r)]
    reduced_rows = [[reduce_element(ring, S, c) for c in row] for row in rows]
    assert [reduce_element(ring, S, v) for v in wedge_coeffs(ring, rows, n)] == \
        wedge_coeffs(S, reduced_rows, n), \
        "table reduction is not natural against minors"


BIDUAL_CHECKS = [
    check_bidual_functor_injective,
    check_push_preimage_membership,
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
