"""Brute-force oracles: independent ground truth for the fast algebra paths.

Everything here is deliberately naive — exhaustive enumeration, additive
closures, full Hom-set searches — so that a disagreement with the package
always indicts the clever code, not the oracle.  Guard rails raise when an
enumeration would be too large instead of silently grinding.

The small constructions the tests build and compare with live here too:
ring elements, cyclic modules and direct sums, span equality by Howell
forms, coset representatives, and a matrix as a map of free modules.
"""

from __future__ import annotations

import itertools
from operator import mul

from ekslab.biduals import (
    ExteriorPower,
    bidual_contraction,
    bidual_functor_map,
    contract_pullback,
    interior_product,
    merge_sign,
    r_subsets,
    subset_position,
)
from ekslab.euler import (
    EulerSystem,
    _derivative_factors,
    _times,
    derived_class,
)
from ekslab.modules import FPModule, Ideal, ModuleMap, factor_through, \
    kernel, residue_pivots, solve_map
from ekslab.rings import (
    Matrix,
    det_ring,
    howell_int,
    kernel_int,
    kernel_matrix,
    make_ring,
    row_module_size,
    span_rows_base,
    submodule_howell,
    vec_from_base,
)


def ring_elements(ring):
    """Every element of the ring: ints for a chain ring, coordinate tuples
    in the group basis for a group ring."""
    if ring.rank == 1:
        return range(ring.n)
    return itertools.product(range(ring.base.n), repeat=ring.rank)


def index_to_exp(ring, idx: int) -> tuple:
    """The exponent tuple of the group element at index ``idx`` of a group
    ring: mixed radix, the first cyclic factor most significant."""
    out = []
    for d in reversed(ring.orders):
        idx, e = divmod(idx, d)
        out.append(e)
    return tuple(reversed(out))


def reduce_element(R, S, x):
    """Push a ring element along the surjection R -> S onto a lower
    coefficient modulus: a group ring keeps its group, or onto a chain ring
    collapses it (the coordinates are summed)."""
    if R.rank == 1:
        return x % S.n
    if S.rank == 1:
        return sum(x) % S.n
    return tuple(c % S.base.n for c in x)


def cyclic(ring, a) -> FPModule:
    """R / (a), presented on one generator."""
    return FPModule(ring, 1, Matrix(ring, [[a]]))


def direct_sum(*modules):
    """Direct sum with block-diagonal relations; returns the new module."""
    if not modules:
        raise ValueError("direct sum of no modules")
    ring = modules[0].ring
    ngens = sum(mod.ngens for mod in modules)
    rows = []
    offset = 0
    for mod in modules:
        for rel in mod.relations.rows:
            row = [ring.zero] * ngens
            row[offset : offset + mod.ngens] = rel
            rows.append(row)
        offset += mod.ngens
    return FPModule(ring, ngens, Matrix(ring, rows, ncols=ngens))


def same_submodule(ambient: FPModule, gens_a, gens_b) -> bool:
    """Whether two generating sets span the same submodule of ``ambient``."""
    ring = ambient.ring
    rel = ambient.relations.rows
    ha = submodule_howell(ring, [list(v) for v in gens_a] + rel, ambient.ngens)
    hb = submodule_howell(ring, [list(v) for v in gens_b] + rel, ambient.ngens)
    return ha == hb


def free_system(A: Matrix) -> ModuleMap:
    """A as the map R^ncols -> R^nrows of free modules, so that
    ``solve_map`` along it solves A.x = b."""
    ring = A.ring
    return ModuleMap(FPModule.free(ring, A.ncols),
                     FPModule.free(ring, A.nrows), A)


def reduce_mod_rows(x, howell_rows, p: int, m: int) -> list:
    """Canonical representative of x modulo the row module (Howell form given).

    At each pivot column with pivot p^k the representative entry lies in
    [0, p^k); non-pivot columns are untouched.  Representatives are therefore
    unique per coset, and enumerating them enumerates the quotient.
    """
    n = p ** m
    x = [c % n for c in x]
    for row in howell_rows:
        j = next(t for t, c in enumerate(row) if c)
        pk = row[j]
        q = x[j] // pk
        if q:
            for t in range(j, len(x)):
                x[t] = (x[t] - q * row[t]) % n
    return x


def quotient_reps_int(howell_rows, ncols: int, p: int, m: int):
    """Iterate the canonical representatives of (Z/p^m)^ncols / row module."""
    n = p ** m
    bound = [n] * ncols
    for row in howell_rows:
        j = next(t for t, c in enumerate(row) if c)
        bound[j] = row[j]  # pivot p^k: residues range over [0, p^k)
    for combo in itertools.product(*(range(b) for b in bound)):
        yield reduce_mod_rows(list(combo), howell_rows, p, m)


def canonical_reps(module):
    """Iterate base-coordinate tuples, one per element of the module."""
    base = module.ring.base
    return quotient_reps_int(
        module.rel_howell, module.ngens * module.ring.rank, base.p, base.m
    )


def from_base(module, flat) -> list:
    return vec_from_base(module.ring, list(flat))


def additive_closure(rows, n: int, limit: int = 1 << 16) -> frozenset:
    """All Z-linear combinations of the given base rows modulo n (BFS)."""
    if not rows:
        return frozenset({()})
    width = len(rows[0])
    zero = (0,) * width
    seen = {zero}
    frontier = [zero]
    gens = [tuple(c % n for c in r) for r in rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % n for a, b in zip(cur, g))
            if nxt not in seen:
                if len(seen) >= limit:
                    raise RuntimeError(f"additive closure exceeds {limit} elements")
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def span_set(ring, vectors, ncols: int, limit: int = 1 << 16) -> frozenset:
    """The R-span of vectors in R^ncols, as a set of base-coordinate tuples."""
    rows = span_rows_base(ring, vectors)
    if not rows:
        return frozenset({(0,) * (ncols * ring.rank)})
    return additive_closure(rows, ring.base.n, limit)


def enumerate_solutions(A: Matrix, b, limit: int = 1 << 16) -> list:
    """All x with A.x = b, by exhausting the domain ring^ncols."""
    ring = A.ring
    total = ring.size ** A.ncols
    if total > limit:
        raise RuntimeError(f"domain of size {total} exceeds oracle limit {limit}")
    b = [ring.reduce(x) for x in b]
    out = []
    for combo in itertools.product(ring_elements(ring), repeat=A.ncols):
        if A.apply(list(combo)) == b:
            out.append(list(combo))
    return out


def annihilator_elements(ring, gens, limit: int = 1 << 14) -> frozenset:
    """All ring elements y with y*g = 0 for every generator g."""
    if ring.size > limit:
        raise RuntimeError(f"ring of size {ring.size} exceeds oracle limit {limit}")
    out = []
    for y in ring_elements(ring):
        if all(ring.mul(y, g) == ring.zero for g in gens):
            out.append(tuple(ring.to_vec(y)))
    return frozenset(out)


def det_permutation_expansion(ring, rows):
    """Leibniz-formula determinant; only sane for size <= 5."""
    size = len(rows)
    acc = ring.zero
    for perm in itertools.permutations(range(size)):
        inversions = sum(
            1
            for i in range(size)
            for j in range(i + 1, size)
            if perm[i] > perm[j]
        )
        term = ring.one
        for i in range(size):
            term = ring.mul(term, rows[i][perm[i]])
        acc = ring.add(acc, term) if inversions % 2 == 0 else ring.sub(acc, term)
    return acc


def module_elements(module, limit: int = 1 << 12) -> list:
    """All elements of a finitely presented module as canonical ambient reps."""
    if module.size > limit:
        raise RuntimeError(f"module of size {module.size} exceeds oracle limit {limit}")
    return [from_base(module, rep) for rep in canonical_reps(module)]


def all_homomorphisms(source, target, limit: int = 1 << 12) -> list:
    """Every R-homomorphism source -> target, as generator-image tuples.

    A hom is determined by the images of the source generators; the defining
    relations must map into the target's relation module.  The search space is
    |target ambient|^(source generators), so keep both modules tiny.
    """
    ring = source.ring
    total = (ring.size ** target.ngens) ** source.ngens
    if total > limit:
        raise RuntimeError(f"hom search space {total} exceeds oracle limit {limit}")
    candidates = list(itertools.product(ring_elements(ring),
                                        repeat=target.ngens))
    homs = []
    for images in itertools.product(candidates, repeat=source.ngens):
        ok = True
        for rel in source.relations.rows:
            acc = [ring.zero] * target.ngens
            for coeff, img in zip(rel, images):
                for t in range(target.ngens):
                    acc[t] = ring.add(acc[t], ring.mul(coeff, img[t]))
            if not target.element_is_zero(acc):
                ok = False
                break
        if ok:
            homs.append([list(img) for img in images])
    return homs


def all_functionals(module, limit: int = 1 << 12) -> list:
    """Every R-homomorphism module -> R, as length-ngens coefficient vectors.

    phi is determined by phi(e_i) in R subject to rel . phi = 0 for each
    defining relation row.
    """
    ring = module.ring
    total = ring.size ** module.ngens
    if total > limit:
        raise RuntimeError(f"functional search space {total} exceeds limit {limit}")
    out = []
    for combo in itertools.product(ring_elements(ring), repeat=module.ngens):
        ok = True
        for rel in module.relations.rows:
            acc = ring.zero
            for coeff, y in zip(rel, combo):
                acc = ring.add(acc, ring.mul(coeff, y))
            if acc != ring.zero:
                ok = False
                break
        if ok:
            out.append(list(combo))
    return out


def ideal_elements(ring, gens, limit: int = 1 << 14) -> frozenset:
    """All elements of the ideal generated by gens (as base tuples)."""
    return span_set(ring, [[g] for g in gens], 1, limit)


def alternating_form_solutions(ring, functionals, r: int, limit: int = 200):
    """All alternating R-multilinear forms on the full dual, from scratch.

    ``functionals`` must be the complete list of functionals on some module
    (as produced by ``all_functionals``).  A form assigns a ring value to
    every ordered r-tuple of them subject to linearity in each slot,
    antisymmetry, and vanishing on repeated arguments — the universal
    property of the wedge, chased directly.  Returns ``(howell_rows, index)``
    where the rows canonically span the solution set in base coordinates and
    ``index`` maps an r-tuple of functional positions to its slot.

    This is the fully independent ground truth for the exterior-bidual
    construction: it never touches a wedge presentation.
    """
    L = [tuple(f) for f in functionals]
    if len(L) > limit:
        raise RuntimeError(f"{len(L)} functionals exceed oracle limit {limit}")
    pos = {f: i for i, f in enumerate(L)}
    base = ring.base
    d = ring.rank
    tuples = list(itertools.product(range(len(L)), repeat=r))
    tindex = {t: a for a, t in enumerate(tuples)}
    width = len(tuples) * d
    rows = []

    def unit_rows(a, sign_b=None, b=None):
        # F[a] = 0 rows, or F[a] + sign*F[b] = 0 rows, one per base coord.
        for e in range(d):
            row = [0] * width
            row[a * d + e] = 1
            if b is not None:
                row[b * d + e] = (row[b * d + e] + sign_b) % base.n
            rows.append(row)

    add = {}
    for i, fi in enumerate(L):
        for j, fj in enumerate(L):
            s = tuple(ring.add(x, y) for x, y in zip(fi, fj))
            add[(i, j)] = pos[s]

    for t in tuples:
        a = tindex[t]
        if len(set(t)) < len(t):
            unit_rows(a)
        for u in range(r - 1):
            swapped = list(t)
            swapped[u], swapped[u + 1] = swapped[u + 1], swapped[u]
            b = tindex[tuple(swapped)]
            if b > a:
                unit_rows(a, sign_b=1, b=b)
        for u in range(r):
            i = t[u]
            for j in range(len(L)):
                k = add[(i, j)]
                tj = list(t)
                tj[u] = j
                tk = list(t)
                tk[u] = k
                bj, bk = tindex[tuple(tj)], tindex[tuple(tk)]
                for e in range(d):
                    row = [0] * width
                    row[a * d + e] = (row[a * d + e] + 1) % base.n
                    row[bj * d + e] = (row[bj * d + e] + 1) % base.n
                    row[bk * d + e] = (row[bk * d + e] - 1) % base.n
                    rows.append(row)
        if d > 1:
            for gidx in range(len(ring.orders)):
                sig = ring.generator(gidx)
                act = ring.action_matrix(sig)
                for u in range(r):
                    i = t[u]
                    fi = L[i]
                    sfi = tuple(ring.mul(sig, x) for x in fi)
                    b = tindex[tuple(list(t[:u]) + [pos[sfi]] + list(t[u + 1:]))]
                    # F[b] = sigma * F[a]: d rows via the action matrix.
                    for e in range(d):
                        row = [0] * width
                        row[b * d + e] = 1
                        for e2 in range(d):
                            row[a * d + e2] = (row[a * d + e2] - act[e][e2]) % base.n
                        rows.append(row)
    ker = kernel_int(rows, base.p, base.m) if rows else \
        [[int(i == j) for j in range(width)] for i in range(width)]
    H = howell_int(ker, width, base.p, base.m)
    return H, tindex


def perp_rows(ring, sub_gens, ncols: int) -> list:
    """Functional vectors vanishing on the span of the given vectors."""
    A = Matrix(ring, [list(v) for v in sub_gens], ncols=ncols)
    return [list(r) for r in kernel_matrix(A).rows]


def table_in_sub_bidual(ring, n: int, k: int, table, sub_gens) -> bool:
    """Free-ambient membership: does the table lie in the bidual of the span?

    A degree-k table on R^n belongs to the embedded bidual of the submodule Y
    spanned by ``sub_gens`` exactly when contraction by every functional
    vanishing on Y kills it.
    """
    for ell in perp_rows(ring, sub_gens, n):
        out = interior_product(ring, n, k, ell, table)
        if any(v != ring.zero for v in out):
            return False
    return True


def wedge_mult_matrix(ring, n: int, k: int, r: int, phi) -> Matrix:
    """Matrix of Psi -> Phi wedge Psi from degree k to degree k + r on R^n.

    ``phi`` is a coefficient vector on the r-subsets of range(n).  Columns are
    indexed by k-subsets, rows by (k+r)-subsets.
    """
    rows_idx = r_subsets(n, k + r)
    cols_idx = r_subsets(n, k)
    pos = {I: a for a, I in enumerate(rows_idx)}
    out = [[ring.zero] * len(cols_idx) for _ in rows_idx]
    for b, B in enumerate(cols_idx):
        for a, A in enumerate(r_subsets(n, r)):
            s = merge_sign(A, B)
            if s == 0 or phi[a] == ring.zero:
                continue
            C = tuple(sorted(A + B))
            coeff = phi[a] if s == 1 else ring.neg(phi[a])
            out[pos[C]][b] = ring.add(out[pos[C]][b], coeff)
    return Matrix(ring, out, ncols=len(cols_idx))



def contraction_map(X: FPModule, phi_rows, s: int) -> ModuleMap:
    """Contraction of wedge^s X by phi_1 wedge ... wedge phi_r, as a map.

    ``phi_rows`` are coefficient vectors of functionals on X (length ngens).
    A single functional acts on a wedge x_1 ... x_s by the alternating sum
    with sign (-1)^(i+1) on the term dropping x_i; a wedge of r functionals
    acts as the composite with phi_1 applied first.  The result is the map
    wedge^s X -> wedge^(s-r) X, well-definedness checked by construction.
    """
    ring = X.ring
    g = X.ngens
    r = len(phi_rows)
    if r > s:
        raise ValueError("contraction degree exceeds the wedge degree")
    ext_top = ExteriorPower(X, s)
    mats = []
    k = s
    for phi in phi_rows:
        pos_prev = subset_position(g, k)
        rows_idx = r_subsets(g, k - 1)
        out = [[ring.zero] * len(r_subsets(g, k)) for _ in rows_idx]
        pos_new = {I: a for a, I in enumerate(rows_idx)}
        for I in r_subsets(g, k):
            col = pos_prev[I]
            for t, i in enumerate(I):
                c = phi[i]
                if c == ring.zero:
                    continue
                J = I[:t] + I[t + 1 :]
                val = c if t % 2 == 0 else ring.neg(c)
                out[pos_new[J]][col] = ring.add(out[pos_new[J]][col], val)
        mats.append(Matrix(ring, out, ncols=len(r_subsets(g, k))))
        k -= 1
    total = mats[0] if mats else Matrix.identity(ring, len(ext_top.subsets))
    for M in mats[1:]:
        total = M.mul(total)
    ext_bot = ExteriorPower(X, s - r)
    return ModuleMap(ext_top.module, ext_bot.module, total)


def wedge_coeffs(ring, rows, n: int) -> list:
    """Coefficients of row_1 wedge ... wedge row_r on the r-subsets of range(n).

    The coefficient on a subset A is the r x r minor of the stacked rows at
    the columns of A.
    """
    r = len(rows)
    out = []
    for A in r_subsets(n, r):
        sub = [[row[j] for j in A] for row in rows]
        out.append(det_ring(ring, sub))
    return out


def contract_pullback_reference(big, big_incl, functionals: dict, lowered,
                                small_incl, small, scale, messages):
    """``biduals.contract_pullback`` computed in X's own dual coordinates,
    the route the package took before it contracted in the free ambient.

    ``big`` is a bidual of X with inclusion ``big_incl`` into the free
    ambient, ``lowered`` the bidual of X in the degree left after
    contracting, and ``small`` that degree's bidual of a submodule Y of X
    with inclusion ``small_incl``.  Each functional is restricted to X and
    read in X's dual generators; they are wedged in descending prime order,
    the contraction lands in ``lowered``, and its preimage under the bidual
    functor map of Y -> X, times ``scale``, is the result.  ``messages``
    are the texts for a functional outside X's dual, for Y escaping X, and
    for a contracted element outside the bidual of Y.
    """
    not_dual, escapes, outside = messages
    ring = big.X.ring
    restrict = big_incl.matrix.transpose()
    rows = []
    for q in sorted(functionals, reverse=True):
        sol = solve_map(big.dual_solver, restrict.apply(list(functionals[q])))
        if sol is None:
            raise RuntimeError(not_dual)
        rows.append(sol)
    phi = wedge_coeffs(ring, rows, big.dual.ngens)
    contr = bidual_contraction(big, lowered, phi)
    sub = factor_through(small_incl, big_incl, escapes)
    push = bidual_functor_map(sub, small.r, small, lowered)
    return factor_through(contr, push, outside, scale=scale)


def cocycle_on_every_chain(data) -> bool:
    """``stark.verify_cocycle`` over every chain of three divisors
    n inside m' inside m, the identity chains included."""
    divisors = data.instance.divisors()
    for m in divisors:
        for mp in divisors:
            if not set(mp) <= set(m):
                continue
            for n in divisors:
                if not set(n) <= set(mp):
                    continue
                direct = data.transition(m, n)
                two_step = data.transition(mp, n).compose(data.transition(m, mp))
                if not direct.equals(two_step):
                    return False
    return True


# ---------------------------------------------------------------------------
# The Kolyvagin relation in the bidual of the strict module: the route the
# package took before it compared ambient tables.
# ---------------------------------------------------------------------------

STRICT_ERRORS = (
    "functional is not in the dual of the module",
    "submodule does not sit inside the larger one",
    "contracted element does not lie in the strict bidual",
)


def strict_module(instance, divisor, q: int):
    """The module strict at q (the finite row, then the transverse row),
    transverse at the rest of the divisor and finite outside, as the
    ``kernel`` of the stacked rows: ``(module, inclusion)``."""
    rows = []
    for qq in range(instance.n_primes):
        if qq == q:
            rows.append(list(instance.finite.rows[qq]))
            rows.append(list(instance.transverse.rows[qq]))
        elif qq in divisor:
            rows.append(list(instance.transverse.rows[qq]))
        else:
            rows.append(list(instance.finite.rows[qq]))
    V = Matrix(instance.ring, rows, ncols=instance.ambient_rank)
    return kernel(ModuleMap(FPModule.free(instance.ring, instance.ambient_rank),
                            FPModule.free(instance.ring, V.nrows), V))


def strict_bidual(kdata, divisor, q: int):
    """The degree-(r-1) bidual of the module strict at q, embedded in the
    free ambient through ``FamilyData.ambient_bidual``."""
    return kdata.ambient_bidual(strict_module(kdata.instance, divisor, q),
                                kdata.rank - 1)


def drop_map(kdata, divisor, q: int, strict=None):
    """The singular-value map at q (q inside the divisor) or the
    finite-singular map at q (q outside it, scaled by the comparison unit),
    into the strict bidual at (divisor + q, q), by
    ``biduals.contract_pullback``; ``strict`` is that bidual when the
    caller holds it."""
    inst = kdata.instance
    if strict is None:
        strict = strict_bidual(kdata, tuple(sorted(set(divisor) | {q})), q)
    if q in divisor:
        row, scale = inst.singular_functional(q), kdata.ring.one
    else:
        row, scale = inst.finite_functional(q), kdata.effective_unit(q)
    return contract_pullback(kdata.bidual(divisor), {q: row}, strict, scale,
                             STRICT_ERRORS)


def verify_fs_reference(system):
    """``kolyvagin.verify_fs`` in the strict biduals: at each (divisor,
    prime) pair the two maps land in the strict bidual and the images are
    compared there."""
    data = system.data
    failures = []
    for n in data.instance.divisors():
        for q in n:
            lower = tuple(x for x in n if x != q)
            strict = strict_bidual(data, n, q)
            lhs = drop_map(data, n, q, strict).apply(system.component(n))
            rhs = drop_map(data, lower, q, strict).apply(
                system.component(lower))
            if not strict.module.elements_equal(lhs, rhs):
                failures.append((n, q))
    return not failures, failures


def enumerate_systems_reference(kdata):
    """``kolyvagin.enumerate_systems`` with each relation written through
    the cochecks of its strict bidual."""
    inst = kdata.instance
    base = kdata.ring.base
    d = kdata.ring.rank
    divisors = inst.divisors()
    layout = {}
    offset = 0
    for n in divisors:
        g = kdata.bidual(n).module.ngens
        layout[n] = (offset, g)
        offset += g * d
    width = offset
    cond_rows = []
    for n in divisors:
        for q in n:
            lower = tuple(x for x in n if x != q)
            strict = strict_bidual(kdata, n, q)
            vb = drop_map(kdata, n, q, strict).matrix.to_base()
            fb = drop_map(kdata, lower, q, strict).matrix.to_base()
            off_n, g_n = layout[n]
            off_l, g_l = layout[lower]
            for crow in cochecks_reference(strict.module):
                row = [0] * width
                for u in range(len(vb)):
                    for w in range(g_n * d):
                        row[off_n + w] = (row[off_n + w]
                                          + crow[u] * vb[u][w]) % base.n
                for u in range(len(fb)):
                    for w in range(g_l * d):
                        row[off_l + w] = (row[off_l + w]
                                          - crow[u] * fb[u][w]) % base.n
                cond_rows.append(row)
    if cond_rows:
        sol_rows = kernel_int(cond_rows, base.p, base.m)
    else:
        sol_rows = [[int(i == j) for j in range(width)] for i in range(width)]
    howell = howell_int(sol_rows, width, base.p, base.m)
    raw = row_module_size(howell, base.p, base.m)
    translates = 1
    for n in divisors:
        translates *= row_module_size(kdata.bidual(n).module.rel_howell,
                                      base.p, base.m)
    return howell, layout, raw // translates


# ---------------------------------------------------------------------------
# The cocheck route: kernels, syzygies and annihilators linearized through
# the double annihilator of the target's relations.
# ---------------------------------------------------------------------------


def cochecks_reference(module) -> list:
    """Int rows C with {x_base : C.x = 0} the relation submodule.

    Over the self-injective ring Z/p^m the double annihilator recovers a
    submodule of a free module, so the kernel rows of the relations' Howell
    form are linear membership checks; with no relations they are the
    identity."""
    base = module.ring.base
    gens = module.rel_howell
    ncols = module.ngens * module.ring.rank
    if not gens:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return kernel_int(gens, base.p, base.m)


def _cocheck_conditions(C, Mb, width: int, n: int) -> list:
    """The int rows C.Mb mod n: the cochecks C of a target applied to the
    base matrix Mb of ``width`` columns.  With no rows, Mb still has
    ``width`` (empty) columns."""
    cols = list(zip(*Mb)) if Mb else [()] * width
    return [[sum(map(mul, crow, col)) % n for col in cols] for crow in C]


def syzygies_reference(ambient: FPModule, vectors) -> list:
    """Generators of {c in R^t : sum c_i . v_i = 0 in ambient}, through the
    ambient's cochecks."""
    ring = ambient.ring
    base = ring.base
    t = len(vectors)
    if t == 0:
        return []
    V = Matrix(ring, [[vec[j] for vec in vectors] for j in range(ambient.ngens)],
               ncols=t)
    cond = _cocheck_conditions(cochecks_reference(ambient), V.to_base(),
                               t * ring.rank, base.n)
    ker = kernel_int(cond, base.p, base.m) if cond else kernel_int(
        [[0] * (t * ring.rank)], base.p, base.m
    )
    out = []
    for row in ker:
        vec = vec_from_base(ring, row)
        if any(x != ring.zero for x in vec):
            out.append(vec)
    return out


def present_submodule_reference(ambient: FPModule, vectors):
    """``modules.present_submodule`` with its syzygies taken through the
    cochecks."""
    ring = ambient.ring
    syz = syzygies_reference(ambient, vectors)
    drop = set(residue_pivots(ring, syz, len(vectors)))
    if drop:
        vectors = [v for i, v in enumerate(vectors) if i not in drop]
        syz = syzygies_reference(ambient, vectors)
    t = len(vectors)
    sub = FPModule(ring, t, Matrix(ring, syz, ncols=t))
    incl = ModuleMap(
        sub,
        ambient,
        Matrix(ring, [[vec[j] for vec in vectors] for j in range(ambient.ngens)],
               ncols=t),
    )
    return sub, incl


def kernel_reference(f: ModuleMap):
    """``(ker, incl)`` of a module map, through the target's cochecks."""
    ring = f.source.ring
    base = ring.base
    g = f.source.ngens
    cond = _cocheck_conditions(cochecks_reference(f.target), f.matrix.to_base(),
                               g * ring.rank, base.n) if g else []
    if not cond:
        # A map into the zero module (or from no generators): the kernel is
        # the whole source.
        return present_submodule_reference(
            f.source, [f.source.generator(i) for i in range(g)])
    ker_base = kernel_int(cond, base.p, base.m)
    gens = []
    for row in ker_base:
        vec = vec_from_base(ring, row)
        if not f.source.element_is_zero(vec):
            gens.append(vec)
    return present_submodule_reference(f.source, gens)


def annihilator_reference(module: FPModule) -> Ideal:
    """Ann_R(X), from the cochecks of X read on each generator's block."""
    ring = module.ring
    base = ring.base
    d = ring.rank
    if module.ngens == 0:
        return Ideal.unit(ring)
    C = cochecks_reference(module)
    stacked = []
    for i in range(module.ngens):
        for crow in C:
            stacked.append([crow[i * d + b] for b in range(d)])
    if not stacked:
        return Ideal.unit(ring)
    ker = kernel_int(stacked, base.p, base.m)
    gens = [ring.from_vec(tuple(row)) for row in ker]
    return Ideal(ring, [g for g in gens if g != ring.zero])


# ---------------------------------------------------------------------------
# The derivative's own identities: the telescoping of one symbol group, and
# the assembled derived vector as a sum over permutations.
# ---------------------------------------------------------------------------


def derivative_scalar(ring):
    """The derivative element of a group level ring: the product, over the
    cyclic factors, of the exponent-weighted sums of generator powers.

    On a chain ring (no symbol groups) it is 1.
    """
    return _times(ring, _derivative_factors(ring), [ring.from_int(1)])[0]


def telescoping_holds(p: int, m: int, order: int) -> bool:
    """(generator - 1) times the derivative element equals order minus the
    norm element, exactly, in (Z/p^m)[C_order]."""
    S = make_ring(p, m, (order,))
    D = derivative_scalar(S)
    lhs = S.mul(S.sub(S.generator(0), S.one), D)
    norm = tuple(1 for _ in range(order))
    rhs = S.sub(S.from_int(order), norm)
    return lhs == rhs


def derived_vector_by_permutations(system: EulerSystem, divisor) -> list:
    """The assembled derived vector computed the other way: a signed sum
    over the permutations of the divisor's primes, each contributing the
    derived class of its fixed-point set times the pair entries along its
    moved points.  Must agree with :func:`derived_vector`."""
    tower = system.tower
    nn = tuple(sorted(divisor))
    M = tower.p ** tower.m
    out = [0] * system.width
    for perm in itertools.permutations(range(len(nn))):
        inv = sum(1 for i in range(len(nn)) for j in range(i + 1, len(nn))
                  if perm[i] > perm[j])
        sign = -1 if inv % 2 else 1
        fixed = tuple(nn[i] for i in range(len(nn)) if perm[i] == i)
        coeff = sign
        for i in range(len(nn)):
            if perm[i] != i:
                coeff = (coeff * tower.pair_entry(nn[perm[i]], nn[i])) % M
        if coeff == 0:
            continue
        kp = derived_class(system, fixed)
        out = [(o + coeff * c) % M for o, c in zip(out, kp)]
    return out
