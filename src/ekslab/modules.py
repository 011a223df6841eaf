"""Finitely presented modules over a chain ring or group ring.

A module is presented as R^ngens modulo the row span of a relation matrix.
Because the coefficient rings here are finite, local, and self-injective,
everything downstream — duals, biduals, Fitting ideals, annihilators — reduces
to exact linear algebra over Z/p^m through restriction of scalars:

* membership in a submodule of a free module becomes a linear condition
  (the double-annihilator trick in ``cochecks_int``), so kernels and
  syzygies are plain integer kernel computations; the fixed points of an
  endomorphism sigma are the kernel of sigma - 1;
* duality is concrete: a functional on R^g/N is a vector y in R^g killed by
  every relation row, and the canonical map into the double dual can be
  written down as a matrix and checked for bijectivity.
"""

from __future__ import annotations

import itertools
from operator import mul

from .rings import (
    Matrix,
    back_substitute,
    cochecks_int,
    howell_int,
    kernel_int,
    kernel_matrix,
    membership_int,
    row_module_size,
    smith_int,
    submodule_howell,
    vec_from_base,
    vec_to_base,
)


class FPModule:
    """R^ngens / (row span of relations), with elements as coset reps.

    Elements are plain lists of ring elements of length ``ngens``; two lists
    represent the same element exactly when their difference satisfies
    ``element_is_zero``.  All canonical data lives at the base-ring level so
    chain rings and group rings share one code path.
    """

    __slots__ = ("ring", "ngens", "relations", "_rel_howell", "_cochecks", "_size")

    def __init__(self, ring, ngens: int, relations: Matrix):
        if relations.ring is not ring and relations.ring != ring:
            raise ValueError("relation matrix is over a different ring")
        if relations.ncols != ngens:
            raise ValueError(
                f"relation rows have {relations.ncols} columns, expected {ngens}"
            )
        self.ring = ring
        self.ngens = ngens
        self.relations = relations
        self._rel_howell = None
        self._cochecks = None
        self._size = None

    @classmethod
    def free(cls, ring, n: int) -> "FPModule":
        return cls(ring, n, Matrix.zeros(ring, 0, n))

    # -- canonical base-level data -------------------------------------------

    @property
    def rel_howell(self) -> list:
        """Howell form (base rows) of the relation submodule of R^ngens."""
        if self._rel_howell is None:
            self._rel_howell = submodule_howell(
                self.ring, self.relations.rows, self.ngens
            )
        return self._rel_howell

    @property
    def cochecks(self) -> list:
        """Int rows C with {x_base : C.x = 0} = the relation submodule."""
        if self._cochecks is None:
            base = self.ring.base
            self._cochecks = cochecks_int(
                self.rel_howell, self.ngens * self.ring.rank, base.p, base.m
            )
        return self._cochecks

    @property
    def size(self) -> int:
        if self._size is None:
            base = self.ring.base
            ambient = base.n ** (self.ngens * self.ring.rank)
            self._size = ambient // row_module_size(self.rel_howell, base.p, base.m)
        return self._size

    # -- elements --------------------------------------------------------------

    def zero_element(self) -> list:
        return [self.ring.zero] * self.ngens

    def generator(self, i: int) -> list:
        vec = self.zero_element()
        vec[i] = self.ring.one
        return vec

    def element_is_zero(self, vec) -> bool:
        base = self.ring.base
        return membership_int(
            vec_to_base(self.ring, vec), self.rel_howell, base.p, base.m
        )

    def elements_equal(self, u, v) -> bool:
        r = self.ring
        return self.element_is_zero([r.sub(a, b) for a, b in zip(u, v)])

    def __repr__(self):
        return f"FPModule({self.ring!r}, ngens={self.ngens}, nrels={self.relations.nrows})"


class ModuleMap:
    """An R-linear map between presented modules, given on generators.

    ``matrix`` has shape (target.ngens, source.ngens); column i is the image
    of the i-th source generator.  Construction verifies well-definedness:
    every defining relation of the source must land in the target's relation
    module, otherwise the data does not describe a map at all.

    Besides its data a map keeps, from its first ``solve_map`` on, the Smith
    data of its lifting system [A | target relations] at the base level:
    P, the exponents, and the part of Q that back-substitution reads (the
    rows of the source coordinates, the columns of the diagonal).  Every
    later ``solve_map`` and ``factor_through`` along the map is then one
    back-substitution.  This is the package's one factor-once solver: a
    plain system A.x = b is solved along ``free_map(A)``.
    """

    __slots__ = ("source", "target", "matrix", "_lift")

    def __init__(self, source: FPModule, target: FPModule, matrix: Matrix):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"map matrix shape {matrix.shape} != "
                f"({target.ngens}, {source.ngens})"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._lift = None
        for rel in source.relations.rows:
            if not target.element_is_zero(matrix.apply(rel)):
                raise ValueError("map is not well defined: a relation does not die")

    @property
    def lift_data(self):
        """Smith data (exps, P, Q cut to the source coordinates and the
        diagonal) of the base system [A | target relations], built once."""
        if self._lift is None:
            ring = self.source.ring
            base = ring.base
            ncols_x = self.source.ngens * ring.rank
            rel_cols = self.target.rel_howell
            aug = self.matrix.to_base()
            for u, row in enumerate(aug):
                row.extend([rc[u] for rc in rel_cols])
            exps, P, Q = smith_int(aug, base.p, base.m)
            self._lift = (exps, P, [row[:len(exps)] for row in Q[:ncols_x]])
        return self._lift

    @classmethod
    def identity(cls, module: FPModule) -> "ModuleMap":
        return cls(module, module, Matrix.identity(module.ring, module.ngens))

    def apply(self, vec) -> list:
        return self.matrix.apply(vec)

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self o first (apply ``first``, then self).

        The middle modules must agree as presentations (same ring, same
        generator count); the constructor re-checks well-definedness on the
        composite, so a mismatch cannot slip through silently.
        """
        if first.target.ngens != self.source.ngens:
            raise ValueError("composition shape mismatch")
        return ModuleMap(first.source, self.target, self.matrix.mul(first.matrix))

    def sub(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, self.matrix.sub(other.matrix))

    def is_zero_map(self) -> bool:
        return all(
            self.target.element_is_zero(col)
            for col in self.matrix.transpose().rows
        )

    def equals(self, other: "ModuleMap") -> bool:
        return self.sub(other).is_zero_map()

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# Submodules, kernels, images, cokernels.
# ---------------------------------------------------------------------------


def _cocheck_conditions(C, Mb, width: int, n: int) -> list:
    """The int rows C.Mb mod n: the cochecks C of a target applied to the
    base matrix Mb of ``width`` columns.  With no rows, Mb still has
    ``width`` (empty) columns."""
    cols = list(zip(*Mb)) if Mb else [()] * width
    return [[sum(map(mul, crow, col)) % n for col in cols] for crow in C]


def syzygies(ambient: FPModule, vectors) -> list:
    """Generators of {c in R^t : sum c_i . v_i = 0 in ambient}.

    The condition is linear at the base level thanks to the membership
    cochecks, so one integer kernel computation suffices.
    """
    ring = ambient.ring
    base = ring.base
    t = len(vectors)
    if t == 0:
        return []
    V = Matrix(ring, [[vec[j] for vec in vectors] for j in range(ambient.ngens)],
               ncols=t)
    cond = _cocheck_conditions(ambient.cochecks, V.to_base(), t * ring.rank,
                               base.n)
    ker = kernel_int(cond, base.p, base.m) if cond else kernel_int(
        [[0] * (t * ring.rank)], base.p, base.m
    )
    out = []
    for row in ker:
        vec = vec_from_base(ring, row)
        if any(x != ring.zero for x in vec):
            out.append(vec)
    return out


def residue_pivots(ring, rows, ncols: int) -> list:
    """Pivot columns of the rows reduced to the residue field.

    The rings are local with residue field F_p, reached by the augmentation
    mod p.  So the pivots of the reduced rows' Howell form over F_p (an
    echelon form) name a maximal set of columns that the rows can solve for
    modulo the maximal ideal; their number is the residue rank.
    """
    p = ring.p
    res = [[ring.augmentation(x) % p for x in row] for row in rows]
    return [next(j for j, c in enumerate(row) if c)
            for row in howell_int(res, ncols, p, 1)]


def min_generators(module: FPModule) -> int:
    """Minimal generator count: ambient rank minus residue relation rank."""
    return module.ngens - len(
        residue_pivots(module.ring, module.relations.rows, module.ngens))


def present_submodule(ambient: FPModule, vectors):
    """The submodule of ``ambient`` generated by ``vectors``, presented on a
    minimal generating subset of them.

    Returns ``(sub, incl)`` with ``incl`` the inclusion into ``ambient``.
    The ring is local, so by Nakayama's lemma any vectors whose images form
    a basis of N/mN generate N.  The syzygies of the given vectors, reduced
    to the residue field, are the relations of N/mN: the generators at
    their pivot columns are dropped, and the presentation generators are
    the kept vectors, in their given order, with their syzygies as
    relations.  When nothing is dropped (the vectors are already minimal)
    the first syzygies are the relations.
    """
    ring = ambient.ring
    syz = syzygies(ambient, vectors)
    drop = set(residue_pivots(ring, syz, len(vectors)))
    if drop:
        vectors = [v for i, v in enumerate(vectors) if i not in drop]
        syz = syzygies(ambient, vectors)
    t = len(vectors)
    sub = FPModule(ring, t, Matrix(ring, syz, ncols=t))
    incl = ModuleMap(
        sub,
        ambient,
        Matrix(ring, [[vec[j] for vec in vectors] for j in range(ambient.ngens)],
               ncols=t),
    )
    return sub, incl


def kernel(f: ModuleMap):
    """Kernel of a module map, as ``(ker, incl)`` with incl into the source.

    Works by linearizing "f(x) dies in the target" with the target's
    membership cochecks and taking an integer kernel.  The kernel is
    presented by ``present_submodule`` on a minimal subset of the lifted
    base-kernel generators, or of the source's generators for a map into
    the zero module.
    """
    ring = f.source.ring
    base = ring.base
    g = f.source.ngens
    cond = _cocheck_conditions(f.target.cochecks, f.matrix.to_base(),
                               g * ring.rank, base.n) if g else []
    if not cond:
        # A map into the zero module (or from no generators): the kernel is
        # the whole source.
        return present_submodule(
            f.source, [f.source.generator(i) for i in range(g)])
    ker_base = kernel_int(cond, base.p, base.m)
    # Lifts that die in the source are dropped here: the pruning would drop
    # them too, but only after a second syzygy pass.
    gens = []
    for row in ker_base:
        vec = vec_from_base(ring, row)
        if not f.source.element_is_zero(vec):
            gens.append(vec)
    return present_submodule(f.source, gens)


def cokernel(f: ModuleMap):
    """Cokernel of a module map, as ``(coker, proj)`` from the target."""
    ring = f.target.ring
    img_rows = Matrix(
        ring, [list(c) for c in f.matrix.transpose().rows], ncols=f.target.ngens
    )
    coker = FPModule(ring, f.target.ngens, f.target.relations.stack(img_rows))
    proj = ModuleMap(f.target, coker, Matrix.identity(ring, f.target.ngens))
    return coker, proj


def free_map(A: Matrix) -> ModuleMap:
    """A as the map R^ncols -> R^nrows of free modules: ``solve_map`` along
    it solves A.x = b, with A factored once for every right-hand side."""
    ring = A.ring
    return ModuleMap(FPModule.free(ring, A.ncols),
                     FPModule.free(ring, A.nrows), A)


def solve_map(f: ModuleMap, target_vec):
    """One x with f(x) = target_vec in the target module, or None.

    Equality means up to the target's relations, so the base-level system
    augments the map's matrix with the relation generators; the map factors
    that system once (``ModuleMap.lift_data``) and each call back-substitutes.
    """
    ring = f.source.ring
    base = ring.base
    if f.target.ngens == 0:
        return [ring.zero] * f.source.ngens
    sol = back_substitute(f.lift_data, vec_to_base(ring, target_vec),
                          base.p, base.m)
    return None if sol is None else vec_from_base(ring, sol)


def factor_through(f: ModuleMap, g: ModuleMap, message: str,
                   scale=None) -> ModuleMap:
    """The map h with g o h = f, solved one source generator of f at a time,
    or ``scale`` times it when a scalar is given; raises
    ``RuntimeError(message)`` when a generator's image does not lift along
    g."""
    ring = f.source.ring
    cols = []
    for i in range(f.source.ngens):
        sol = solve_map(g, [row[i] for row in f.matrix.rows])
        if sol is None:
            raise RuntimeError(message)
        if scale is not None:
            sol = [ring.mul(scale, x) for x in sol]
        cols.append(sol)
    mat = Matrix(ring, [[col[a] for col in cols] for a in range(g.source.ngens)],
                 ncols=f.source.ngens, reduced=True)
    return ModuleMap(f.source, g.source, mat)


def image_order(f: ModuleMap) -> int:
    """|im f|: the size of the span of f's columns and the target's
    relations, over the size of the target's relation module."""
    target = f.target
    ring = target.ring
    base = ring.base
    cols = [list(c) for c in f.matrix.transpose().rows]
    span = submodule_howell(ring, cols + target.relations.rows, target.ngens)
    return (row_module_size(span, base.p, base.m)
            // row_module_size(target.rel_howell, base.p, base.m))


def is_injective(f: ModuleMap) -> bool:
    return image_order(f) == f.source.size


def is_surjective(f: ModuleMap) -> bool:
    return image_order(f) == f.target.size


def is_isomorphism(f: ModuleMap) -> bool:
    return is_injective(f) and is_surjective(f)


def chain_invariants(module: FPModule) -> list:
    """Exponents e with module isomorphic to the sum of R/(p^e), descending.

    Chain rings only: the Smith form of the relation matrix diagonalizes the
    presentation.  Entries equal to the ring's nilpotency degree are free
    summands; zero entries are trivial and dropped.
    """
    ring = module.ring
    if ring.rank != 1:
        raise ValueError("invariant factors require a chain ring")
    rel = module.relations
    if rel.nrows == 0:
        return [ring.m] * module.ngens
    exps, _P, _Q = smith_int(rel.rows, ring.p, ring.m, left=False)
    full = list(exps) + [ring.m] * (module.ngens - len(exps))
    return sorted((e for e in full if e > 0), reverse=True)


# ---------------------------------------------------------------------------
# Duality.
# ---------------------------------------------------------------------------


def dual_module(module: FPModule):
    """The dual Hom_R(X, R), presented, plus its functional matrix.

    Returns ``(dual, Y)`` where Y is a (t x ngens) Matrix whose rows span the
    functionals: row a is the coefficient vector of the a-th dual generator,
    and a dual element with coordinates c evaluates on x as c . (Y . x).
    The dual is the submodule of R^ngens spanned by the kernel rows of the
    relations, presented by ``present_submodule``: its generators are a
    minimal subset of those rows, in order.
    """
    ring = module.ring
    K = kernel_matrix(module.relations)
    func_rows = [list(row) for row in K.rows
                 if any(x != ring.zero for x in row)]
    dual, incl = present_submodule(FPModule.free(ring, module.ngens),
                                   func_rows)
    return dual, incl.matrix.transpose()


def dual_map(f: ModuleMap, dual_source, Y_source, dual_target, Y_target,
             solver: ModuleMap | None = None):
    """The pullback f* : target* -> source*, phi -> phi o f.

    Takes the duals of source and target as produced by ``dual_module``.  The
    pullback of a functional with vector v is the vector M^T . v, which kills
    the source relations because f is well defined; its coordinates in the
    source dual's generators are its ``solve_map`` preimage along the free
    map ``free_map(Y_source^T)``, factored once.  A caller that already
    holds that map passes it as ``solver``.
    """
    ring = f.source.ring
    Mt = f.matrix.transpose()
    if solver is None:
        solver = free_map(Y_source.transpose())
    cols = []
    for b in range(dual_target.ngens):
        v = list(Y_target.rows[b])
        sol = solve_map(solver, Mt.apply(v))
        if sol is None:
            raise RuntimeError("pullback functional escapes the source dual")
        cols.append(sol)
    mat = Matrix(
        ring,
        [[cols[b][a] for b in range(dual_target.ngens)]
         for a in range(dual_source.ngens)],
        ncols=dual_target.ngens,
    )
    return ModuleMap(dual_target, dual_source, mat)


# ---------------------------------------------------------------------------
# Ideals.
# ---------------------------------------------------------------------------


class Ideal:
    """A finitely generated ideal with a canonical base-level normal form."""

    __slots__ = ("ring", "gens", "_howell")

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = [ring.reduce(g) for g in gens]
        self._howell = None

    @classmethod
    def zero(cls, ring) -> "Ideal":
        return cls(ring, [])

    @classmethod
    def unit(cls, ring) -> "Ideal":
        return cls(ring, [ring.one])

    @property
    def howell(self) -> list:
        if self._howell is None:
            self._howell = submodule_howell(self.ring, [[g] for g in self.gens], 1)
        return self._howell

    def contains(self, x) -> bool:
        base = self.ring.base
        return membership_int(
            vec_to_base(self.ring, [x]), self.howell, base.p, base.m
        )

    def is_zero(self) -> bool:
        return not self.howell

    def is_unit(self) -> bool:
        return self.contains(self.ring.one)

    def leq(self, other: "Ideal") -> bool:
        """Containment self <= other as subsets."""
        base = self.ring.base
        return all(
            membership_int(row, other.howell, base.p, base.m) for row in self.howell
        )

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.howell == other.howell

    def __hash__(self):
        return hash((id(self.ring), tuple(tuple(r) for r in self.howell)))

    def add(self, other: "Ideal") -> "Ideal":
        return Ideal(self.ring, self.gens + other.gens)

    def mul(self, other: "Ideal") -> "Ideal":
        r = self.ring
        return Ideal(r, [r.mul(a, b) for a in self.gens for b in other.gens])

    @property
    def size(self) -> int:
        base = self.ring.base
        return row_module_size(self.howell, base.p, base.m)

    def exponent(self) -> int:
        """k with self = (p^k) over a chain ring; the zero ideal gives m."""
        ring = self.ring
        if ring.rank != 1:
            raise ValueError("exponent form requires a chain ring")
        if not self.gens:
            return ring.m
        return min(ring.val(g) for g in self.gens)

    def __repr__(self):
        ring = self.ring
        if ring.rank == 1:
            k = self.exponent()
            if k >= ring.m:
                return f"Ideal(0) over {ring!r}"
            if k == 0:
                return f"Ideal(1) over {ring!r}"
            return f"Ideal({ring.p}^{k}) over {ring!r}"
        return f"Ideal({len(self.gens)} gens) over {ring!r}"


# ---------------------------------------------------------------------------
# Fitting ideals and annihilators.
# ---------------------------------------------------------------------------


def _relation_generators(module: FPModule) -> list:
    """A small R-generating set for the relation submodule (from Howell)."""
    ring = module.ring
    gens = []
    for row in module.rel_howell:
        vec = vec_from_base(ring, row)
        if any(x != ring.zero for x in vec):
            gens.append(vec)
    return gens


def fitting_ideal(module: FPModule, i: int = 0) -> Ideal:
    """The i-th Fitting ideal, from (ngens - i)-minors of the relations.

    Conventions: minors of non-positive size give the unit ideal; asking for
    minors larger than the relation row count gives the zero ideal.  The
    result does not depend on which generators of the relations are taken.
    The Howell rows are taken because over a chain ring they number at most
    ngens, and so give fewer minors than the raw rows; over a group ring
    they can number |G|·ngens.
    """
    from .rings import det_ring

    ring = module.ring
    g = module.ngens
    s = g - i
    if s <= 0:
        return Ideal.unit(ring)
    rel = _relation_generators(module)
    k = len(rel)
    if s > k:
        return Ideal.zero(ring)
    dets = []
    for rsel in itertools.combinations(range(k), s):
        for csel in itertools.combinations(range(g), s):
            sub = [[rel[a][b] for b in csel] for a in rsel]
            d = det_ring(ring, sub)
            if ring.is_unit(d):
                return Ideal.unit(ring)
            if d != ring.zero:
                dets.append(d)
    return Ideal(ring, dets)


def annihilator(module: FPModule) -> Ideal:
    """Ann_R(X) = {a : a.x = 0 for all x}, via linearized membership."""
    ring = module.ring
    base = ring.base
    d = ring.rank
    if module.ngens == 0:
        return Ideal.unit(ring)
    C = module.cochecks
    stacked = []
    for i in range(module.ngens):
        for crow in C:
            stacked.append([crow[i * d + b] for b in range(d)])
    if not stacked:
        return Ideal.unit(ring)
    ker = kernel_int(stacked, base.p, base.m)
    gens = [ring.from_vec(tuple(row)) for row in ker]
    return Ideal(ring, [g for g in gens if g != ring.zero])

