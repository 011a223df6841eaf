"""Exterior powers, exterior power biduals, and their contraction calculus.

The central object is the "exterior bidual" of a module X in degree r: the
dual of the r-th exterior power of the dual.  Unlike the exterior power
itself it behaves well for non-projective modules, and all the machinery
downstream (rank reduction of local conditions, derived classes, regulator
maps) lives inside these biduals.

Two representations coexist deliberately:

* every bidual is also a finitely presented module (via double dualization),
  so the generic module layer applies;
* elements are most useful as *value tables* — the values of the functional
  on the wedge monomials in the dual's generators — because contraction is a
  sparse signed sum on tables.

For a free module the dual generators are the dual basis, tables are indexed
by plain r-subsets of coordinates, and the table calculus below (subsets,
merge signs, interior products) is the workhorse the Euler/Kolyvagin/Stark
engines run on.

A submodule Y of X has one embedding of its bidual into that of X: the
bidual functor map of the inclusion (``bidual_functor_map``).  Over the
self-injective rings used here it is injective, and its image is the set of
elements that contraction by every functional vanishing on Y kills
(Burns-Sakamoto-Sano, part I).  So an element of the bidual of X lies in
that of Y exactly when it has a preimage under this map, and a preimage
solve is how the package decides it.  The engines take X to be the free
ambient: each bidual carries its one embedding there
(``ExteriorBidual.embedding``), and every contraction map between their
biduals is a contraction of ambient tables read back through those
embeddings (``contract_pullback``).
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb

from .modules import (
    FPModule,
    Ideal,
    ModuleMap,
    dual_map,
    dual_module,
    factor_through,
    free_map,
    solve_map,
)
from .rings import Matrix, minors
# Unused here: perfbench/tests checks that the tracer wraps this module's
# binding of kernel_int.
from .rings import kernel_int  # noqa: F401

# ---------------------------------------------------------------------------
# Subset combinatorics and the free wedge calculus.
# ---------------------------------------------------------------------------


def r_subsets(n: int, r: int) -> list:
    """All sorted r-subsets of range(n), lexicographically ordered."""
    return list(itertools.combinations(range(n), r))


def subset_position(n: int, r: int) -> dict:
    return {I: a for a, I in enumerate(r_subsets(n, r))}


def merge_sign(A, B) -> int:
    """Sign of sorting the concatenation A + B, or 0 when they intersect.

    Counts inversions between the two sorted tuples: the parity of moving
    every element of A past the smaller elements of B.
    """
    sa = set(A)
    if sa & set(B):
        return 0
    inv = sum(1 for a in A for b in B if a > b)
    return -1 if inv % 2 else 1


@cache
def _contraction_plan(n: int, k: int, r: int) -> tuple:
    """Per (k-r)-subset B of range(n), in order, the triples (a, sign, c)
    over the r-subsets A (index a) disjoint from B, with sign the merge sign
    of A and B and c the position of A u B among the k-subsets."""
    pos_k = subset_position(n, k)
    subsets_r = r_subsets(n, r)
    return tuple(
        tuple((a, s, pos_k[tuple(sorted(A + B))])
              for a, A in enumerate(subsets_r)
              if (s := merge_sign(A, B)))
        for B in r_subsets(n, k - r)
    )


def contract_table(ring, n: int, k: int, r: int, phi, table) -> list:
    """Value table of (Phi . F) from a degree-k table F on R^n.

    (Phi . F)(Psi) = F(Phi wedge Psi): the output table on (k-r)-subsets B is
    the signed sum over r-subsets A disjoint from B of phi_A F_{A u B}.  Over
    a chain ring each sum accumulates in one int, reduced once.
    """
    plan = _contraction_plan(n, k, r)
    if ring.rank == 1:
        modulus = ring.n
        out = []
        for terms in plan:
            acc = 0
            for a, s, c in terms:
                acc += s * phi[a] * table[c]
            out.append(acc % modulus)
        return out
    zero = ring.zero
    out = []
    for terms in plan:
        acc = zero
        for a, s, c in terms:
            if phi[a] == zero:
                continue
            v = ring.mul(phi[a], table[c])
            acc = ring.add(acc, v) if s == 1 else ring.sub(acc, v)
        out.append(acc)
    return out


def interior_product(ring, n: int, k: int, ell, table) -> list:
    """Contraction of a degree-k table by a single functional vector."""
    return contract_table(ring, n, k, 1, list(ell), table)


def contraction_rows(ring, n: int, k: int, ell) -> list:
    """The matrix of F -> ell _| F, degree-k tables on R^n to degree k - 1,
    read off the contraction plan: row B holds sign * ell_a at the column
    of {a} u B.  Degree k < 1 has nothing to contract: no rows."""
    if k < 1:
        return []
    width = comb(n, k)
    rows = []
    for terms in _contraction_plan(n, k, 1):
        row = [ring.zero] * width
        for a, s, c in terms:
            row[c] = ring.reduce(ell[a]) if s == 1 else ring.neg(ell[a])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Exterior powers of presented modules.
# ---------------------------------------------------------------------------


class ExteriorPower:
    """The r-th exterior power of a presented module, with monomial labels.

    ``subsets[a]`` names the a-th generator: the wedge of the base module's
    generators at those indices.  The presentation is the standard right-exact
    one, every relation row of the base wedged into every (r-1)-monomial:
    its relations are contraction rows, rel wedged into K being row K of the
    matrix of contraction by rel (``contraction_rows``), less zero rows.
    """

    __slots__ = ("base", "degree", "subsets", "module")

    def __init__(self, base: FPModule, degree: int):
        if degree < 0:
            raise ValueError("exterior power of negative degree")
        ring = base.ring
        zero = ring.zero
        g = base.ngens
        self.base = base
        self.degree = degree
        self.subsets = r_subsets(g, degree)
        ngens = len(self.subsets)
        rows = [row for rel in base.relations.rows
                for row in contraction_rows(ring, g, degree, rel)
                if any(x != zero for x in row)]
        self.module = FPModule(ring, ngens, Matrix(ring, rows, ncols=ngens))


def exterior_map(f: ModuleMap, r: int):
    """The induced map on r-th exterior powers (minors of the matrix).

    The map goes between the ``module``s of the degree-r exterior powers of
    f.source and f.target.  Functorial: minors compose by Cauchy-Binet, and
    the test suite checks it on random pairs.
    """
    ring = f.source.ring
    ext_s = ExteriorPower(f.source, r)
    ext_t = ExteriorPower(f.target, r)
    M = f.matrix
    rows = [minors(ring, [M.rows[j] for j in J], f.source.ngens)
            for J in ext_t.subsets]
    mat = Matrix(ring, rows, ncols=len(ext_s.subsets))
    return ModuleMap(ext_s.module, ext_t.module, mat)


# ---------------------------------------------------------------------------
# Exterior biduals.
# ---------------------------------------------------------------------------


class ExteriorBidual:
    """Degree-r exterior bidual of X: the dual of wedge^r of the dual.

    Attributes:
      X, r           — the module and the degree;
      dual, Y        — the dual of X and its functional matrix (rows are the
                       dual generators as coefficient vectors on X);
      wedge          — the exterior power of the dual whose dual we take;
      module, YW     — the bidual as a presented module, and its functional
                       matrix on the wedge monomials.

    Elements are coordinate vectors in ``module``; ``table`` and
    ``from_table`` convert to and from value tables on the wedge monomials of
    the dual generators, where contraction is cheap.  ``dual_solver`` is the
    free map Y^T, whose ``solve_map`` preimage of a functional vector on X is
    its coordinates in the dual's generators; ``table_solver``, the free map
    YW^T, plays that part for ``from_table``.  Each is built, and factored,
    once, on first use.

    A bidual of a submodule of a free ambient R^n may carry the
    ``inclusion`` X -> R^n together with ``free``, the degree-r bidual of
    R^n, which the caller's biduals of one degree share.  ``embedding``,
    the bidual functor map of the inclusion into ``free``, is then the
    module's one embedding into the free ambient, built, and factored,
    once.  The free module's bidual is presented on its value tables (its
    ``YW`` is the identity), so the embedding's columns are the value
    tables on plain r-subsets of coordinates of the generators of
    ``module``.
    """

    __slots__ = ("X", "r", "dual", "Y", "wedge", "module", "YW", "inclusion",
                 "free", "_dual_solver", "_table_solver", "_embedding")

    def __init__(self, X: FPModule, r: int, inclusion: ModuleMap | None = None,
                 free: "ExteriorBidual | None" = None):
        if r < 0:
            raise ValueError("negative bidual degree")
        if (inclusion is None) != (free is None):
            raise ValueError("an inclusion and its free bidual come together")
        self.X = X
        self.r = r
        self.dual, self.Y = dual_module(X)
        self.wedge = ExteriorPower(self.dual, r)
        self.module, self.YW = dual_module(self.wedge.module)
        self.inclusion = inclusion
        self.free = free
        self._dual_solver = None
        self._table_solver = None
        self._embedding = None

    @property
    def dual_solver(self) -> ModuleMap:
        """The free map Y^T: the ``solve_map`` preimage of a functional
        vector on X is its coordinates in the dual's generators, or None
        when it does not kill the relations."""
        if self._dual_solver is None:
            self._dual_solver = free_map(self.Y.transpose())
        return self._dual_solver

    @property
    def table_solver(self) -> ModuleMap:
        """The free map YW^T: preimages are coordinates of value tables in
        ``module``."""
        if self._table_solver is None:
            self._table_solver = free_map(self.YW.transpose())
        return self._table_solver

    @property
    def embedding(self) -> ModuleMap:
        """The bidual functor map of ``inclusion`` into ``free``: injective
        over the self-injective rings used here, and its preimages decide
        which ambient tables lie in this bidual."""
        if self._embedding is None:
            self._embedding = bidual_functor_map(
                self.inclusion, self.r, self, self.free)
        return self._embedding

    def table(self, coords) -> list:
        """Values of the functional with these coordinates on the monomials."""
        return self.YW.transpose().apply(list(coords))

    def from_table(self, table):
        """Coordinates of a value table, or None when it is not a functional.

        A table defines an element exactly when it kills the relations of the
        wedge module.  The rows of YW span exactly those tables (``module``
        is the dual of the wedge module), so the solve along
        ``table_solver`` decides membership: it returns None for the tables
        that fail, which is how malformed derived classes are detected
        downstream.
        """
        return solve_map(self.table_solver, table)

    def xi(self) -> ModuleMap:
        """The canonical map from the exterior power into the bidual.

        xi sends a wedge of module elements to the functional pairing it with
        wedges of dual elements through the determinant of the evaluation
        matrix.  Neither injective nor surjective in general; an isomorphism
        for free modules.
        """
        ring = self.X.ring
        ext = ExteriorPower(self.X, self.r)
        values = [minors(ring, [self.Y.rows[a] for a in A], self.X.ngens)
                  for A in self.wedge.subsets]
        cols = []
        for c in range(len(ext.subsets)):
            coords = self.from_table([v[c] for v in values])
            if coords is None:
                raise RuntimeError("xi value is not a functional on the wedge")
            cols.append(coords)
        mat = Matrix(
            ring,
            [[cols[c][b] for c in range(len(ext.subsets))]
             for b in range(self.module.ngens)],
            ncols=len(ext.subsets),
        )
        return ModuleMap(ext.module, self.module, mat)


def bidual_functor_map(f: ModuleMap, r: int, source=None, target=None):
    """The induced map on degree-r biduals, functorially.

    The map goes from the source bidual's ``module`` to the target bidual's.
    Built by pulling back duals, wedging the pullback, and dualizing again;
    injective whenever f is, over the self-injective rings used here.

    ``source`` and ``target`` are optional degree-r biduals of f.source and
    f.target (or of modules with the same presentation) that the caller
    already holds; they are used as they are, together with their factored
    solvers, so the map runs between their ``module``s.  A missing one is
    built.  A bidual of another degree or another module raises ValueError.
    """
    bs = _checked_bidual(f.source, r, source, "source")
    bt = _checked_bidual(f.target, r, target, "target")
    pull = dual_map(f, bs.dual, bs.Y, bt.dual, bt.Y, bs.dual_solver)
    wedge_pull = exterior_map(pull, r)
    return dual_map(wedge_pull, bt.module, bt.YW, bs.module, bs.YW,
                    bt.table_solver)


def _checked_bidual(X: FPModule, r: int, bid, role: str) -> ExteriorBidual:
    """``bid`` if it is a degree-r bidual of X's presentation, a new
    bidual when it is None."""
    if bid is None:
        return ExteriorBidual(X, r)
    if bid.r != r:
        raise ValueError(f"{role} bidual has degree {bid.r}, expected {r}")
    held = bid.X
    if held is not X and (held.ring != X.ring or held.ngens != X.ngens
                          or held.relations != X.relations):
        raise ValueError(f"{role} bidual is over a different module")
    return bid


def bidual_contraction(source: ExteriorBidual, target: ExteriorBidual, phi) -> ModuleMap:
    """Contraction map between biduals: (Phi . F)(Psi) = F(Phi wedge Psi).

    ``phi`` is a coefficient vector on the (source.r - target.r)-subsets of
    the dual generators: the minors of the stacked dual coordinate rows of
    the functionals, for a wedge of functionals.
    The map is the dual of left wedge multiplication by Phi.
    """
    if source.X is not target.X and source.X.ngens != target.X.ngens:
        raise ValueError("contraction between biduals of different modules")
    r = source.r - target.r
    if r < 0:
        raise ValueError("contraction must lower the degree")
    ring = source.X.ring
    t = source.dual.ngens
    cols = []
    for b in range(source.module.ngens):
        tbl = source.table(source.module.generator(b))
        out = contract_table(ring, t, source.r, r, phi, tbl)
        coords = target.from_table(out)
        if coords is None:
            raise RuntimeError("contracted table is not a functional")
        cols.append(coords)
    mat = Matrix(
        ring,
        [[cols[b][a] for b in range(source.module.ngens)]
         for a in range(target.module.ngens)],
        ncols=source.module.ngens,
    )
    return ModuleMap(source.module, target.module, mat)


def contract_pullback(big: ExteriorBidual, functionals: dict,
                      small: ExteriorBidual, scale, message: str) -> ModuleMap:
    """Contract by a wedge of local functionals in the free ambient and
    read the result in a smaller module's bidual: the one construction
    behind the Stark transitions, the Kolyvagin relation maps and the
    regulator.

    ``big`` and ``small`` are biduals of modules X and Y of one free ambient
    R^n, each with its ``inclusion`` and ``embedding`` (P_X, P_Y), and
    ``small.r`` the degree left after contracting ``big``.  ``functionals``
    maps prime indices to functionals on the ambient, wedged in
    *descending* prime order into phi.  The map is

        T = scale . P_Y^-1 (phi _| P_X(.)):

    each generator's ambient table (a column of P_X) is contracted by the
    ambient functionals, largest prime first, solved along P_Y, and scaled.
    It is the contraction by the restricted functionals in X's own bidual
    followed by the preimage under the bidual functor map of Y -> X: by
    naturality P_X(i*phi _| a) = phi _| P_X(a), with P_Y = P_X o (Y -> X)
    that gives P_Y(T a) = scale . phi _| P_X(a), and P_Y is injective.

    The restriction i*ell of each ambient functional ell always lies in
    X's dual: it kills every relation of X, which the inclusion sends to 0
    in R^n.  Y inside X is the caller's precondition, and each caller meets it
    by construction, since its Y is the kernel of a superset of the
    condition rows that cut out X, and a kernel of more rows lies in the
    kernel of fewer:
      * a transition from m to a subdivisor n: the relaxed module at n
        carries the finite rows at every prime outside n, a superset of
        those of the relaxed module at m;
      * the regulator at n: the Selmer module at n is the relaxed module
        at n cut by the transverse rows at the primes of n;
      * a Kolyvagin relation map at q into the module strict at q: that
        module is the Selmer module at the divisor cut by the other row
        at q.

    The callers' signs make the maps compose exactly:
      * a transition from divisor m to a subdivisor n contracts by the
        singular functionals of the primes of m outside n and is scaled by
        (-1)^t, where t counts the pairs (q, q') with q contracted, q'
        outside m and q' < q;
      * a regulator component at a divisor n contracts by the finite-part
        functionals of the primes of n and is scaled by the comparison
        units and the divisor sign (-1)^(nu(nu+1)/2 + sum of the prime
        indices of n), nu the number of primes of n; with it the
        Kolyvagin relation holds with no further factor.

    ``message`` is the ``RuntimeError`` text for a contracted element
    outside the bidual of Y, which the solve along P_Y reports.
    """
    ring = big.X.ring
    order = [functionals[q] for q in sorted(functionals, reverse=True)]
    if small.r != big.r - len(order):
        raise ValueError("the small bidual must have the contracted degree")
    n = big.free.X.ngens
    tables = []
    for col in big.embedding.matrix.columns():
        table, k = col, big.r
        for ell in order:
            table = interior_product(ring, n, k, ell, table)
            k -= 1
        tables.append(table)
    target = small.free.module
    # A contraction after the embedding, which is a map: well defined by
    # construction (``ModuleMap``).
    contracted = ModuleMap._sound(big.module, target, Matrix(
        ring, [[table[a] for table in tables] for a in range(target.ngens)],
        ncols=len(tables), reduced=True))
    return factor_through(contracted, small.embedding, message, scale=scale)


# ---------------------------------------------------------------------------
# Fitting ideals through the bidual calculus.
# ---------------------------------------------------------------------------


def content_ideal(bid: ExteriorBidual, coords) -> Ideal:
    """Ideal generated by all values of a bidual element.

    The wedge monomials span the exterior power, so the values of the
    functional on them generate the same ideal as its values on arbitrary
    arguments.
    """
    ring = bid.X.ring
    return Ideal(ring, [v for v in bid.table(coords) if v != ring.zero])


def fitt0_via_bidual(ring, rank: int, phi_rows) -> Ideal:
    """Fitting ideal of coker(phis) computed by top-table contraction.

    For a free module of the given rank and functionals phi_1..phi_s, the
    image of the top bidual under contraction by their wedge generates, by
    its table values, exactly the zeroth Fitting ideal of the cokernel of
    (phi_i) — the bidual route to minors.
    """
    s = len(phi_rows)
    if s > rank:
        raise ValueError("more functionals than the rank")
    table = [ring.one]
    k = rank
    for phi in phi_rows:
        table = interior_product(ring, rank, k, list(phi), table)
        k -= 1
    return Ideal(ring, [v for v in table if v != ring.zero])
