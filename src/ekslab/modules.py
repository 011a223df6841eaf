"""Finitely presented modules over a chain ring or group ring.

A module is presented as R^ngens modulo the row span of a relation matrix.
Because the coefficient rings here are finite, local, and self-injective,
everything downstream — duals, biduals, Fitting ideals, annihilators — reduces
to exact linear algebra over Z/p^m through restriction of scalars:

* "f(x) lies in the target's relations" is one linear system per map: the
  map's base matrix with the Howell rows of the target's relations
  appended as columns.  ``solve_map`` factors it, and its kernel cut to the
  source coordinates is the kernel of the map, so kernels, syzygies, duals
  and annihilators are plain integer kernel computations; the fixed points
  of an endomorphism sigma are the kernel of sigma - 1;
* duality is concrete: a functional on R^g/N is a vector y in R^g killed by
  every relation row, and the canonical map into the double dual can be
  written down as a matrix and checked for bijectivity.
"""

from __future__ import annotations

import itertools

from .rings import (
    Matrix,
    back_substitute,
    howell_int,
    kernel_matrix,
    kernel_vectors,
    membership_int,
    minors,
    row_module_size,
    smith_int,
    span_rows_base,
    submodule_howell,
)
# Unused here: perfbench/tests checks that the tracer wraps this module's
# binding of kernel_int.
from .rings import kernel_int  # noqa: F401


class FPModule:
    """R^ngens / (row span of relations), with elements as coset reps.

    Elements are plain lists of ring elements of length ``ngens``; two lists
    represent the same element exactly when their difference satisfies
    ``element_is_zero``.  All canonical data lives at the base-ring level so
    chain rings and group rings share one code path.
    """

    __slots__ = ("ring", "ngens", "relations", "_rel_howell", "_size",
                 "_invariants")

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
        self._size = None
        self._invariants = None

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
            self.ring.vec_to_base(vec), self.rel_howell, base.p, base.m
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

    The check is skipped, through the private ``_sound``, only where a map
    is well defined by construction:

    * ``compose`` when ``first.target is self.source``: each relation dies
      under ``first`` and its image dies under ``self``.  Between two
      presentations that only share a generator count the composite is
      checked, since nothing else rejects other middle relations;
    * ``sub`` when both maps share their source and target objects: a
      difference of two maps is a map;
    * the inclusion of ``present_submodule``: its relations are the
      syzygies of its columns, just computed, so each one dies;
    * the projection of ``cokernel``: the identity onto the same
      generators, with more relations;
    * the contracted map of ``biduals.contract_pullback``: a contraction
      after the bidual's embedding into its free ambient, a map already;
    * m2 and m4 of ``selmer.five_term_data``: m2 is a condition row after
      the inclusion into the free ambient, and m4 drops one coordinate
      from the dual Selmer module, whose relations are the columns of the
      condition matrix, onto the relaxed one, whose relations are the
      same columns without that row.

    Every other map is checked: maps read from artifacts, solved maps
    (``factor_through``, ``dual_map``) and the bidual constructions.

    One base system serves both solving and kernels: ``base_system``, the
    matrix A at the base level with the Howell rows N of the target's
    relations appended as columns.  A solution of [A | N].(x, y) = b is an
    x with f(x) = b in the target, and its kernel cut to x is the kernel of
    f: ``kernel``, ``syzygies`` and ``annihilator`` read it through
    ``rings.kernel_vectors``, as ``dual_module`` reads the kernel of a
    plain relation matrix.  From its first ``solve_map`` on, a map
    keeps the Smith data of that system: the exponents, the log of row
    operations that stands for the left transform P (``rings.smith_int``),
    and the part of Q that back-substitution reads (the rows of the source
    coordinates, the columns of the diagonal).  Every later ``solve_map`` and
    ``factor_through`` along the map is then one back-substitution.  This
    is the package's one factor-once solver: a plain system A.x = b is
    solved along ``free_map(A)``.
    """

    __slots__ = ("source", "target", "matrix", "_lift")

    def __init__(self, source: FPModule, target: FPModule, matrix: Matrix):
        self._set(source, target, matrix)
        for rel in source.relations.rows:
            if not target.element_is_zero(matrix.apply(rel)):
                raise ValueError("map is not well defined: a relation does not die")

    @classmethod
    def _sound(cls, source: FPModule, target: FPModule,
               matrix: Matrix) -> "ModuleMap":
        """The map of a construction that is well defined by itself (see
        the class docstring): the shape is checked, the relations are not."""
        f = cls.__new__(cls)
        f._set(source, target, matrix)
        return f

    def _set(self, source, target, matrix):
        if matrix.shape != (target.ngens, source.ngens):
            raise ValueError(
                f"map matrix shape {matrix.shape} != "
                f"({target.ngens}, {source.ngens})"
            )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._lift = None

    def base_system(self) -> list:
        """The int rows [A | N]: the map's matrix at the base level, with
        the base Howell rows of the target's relations as extra columns."""
        rel_cols = self.target.rel_howell
        system = self.matrix.to_base()
        for u, row in enumerate(system):
            row.extend([rc[u] for rc in rel_cols])
        return system

    @property
    def lift_data(self):
        """Smith data of ``base_system``, built once: the exponents, the
        row-operation log that ``rings.back_substitute`` replays in place
        of P, and Q cut to the source coordinates and the diagonal."""
        if self._lift is None:
            ring = self.source.ring
            base = ring.base
            ncols_x = self.source.ngens * ring.rank
            exps, log, Q = smith_int(self.base_system(), base.p, base.m)
            self._lift = (exps, log, [row[:len(exps)] for row in Q[:ncols_x]])
        return self._lift

    @classmethod
    def identity(cls, module: FPModule) -> "ModuleMap":
        return cls(module, module, Matrix.identity(module.ring, module.ngens))

    def apply(self, vec) -> list:
        return self.matrix.apply(vec)

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self o first (apply ``first``, then self).

        The middle generator counts must agree.  When ``first.target`` is
        ``self.source`` the composite is a map by construction; otherwise
        the two middle presentations may have other relations, and the
        composite is checked, so a relation of ``first.source`` that does
        not die in ``self.target`` raises ``ValueError``.
        """
        if first.target.ngens != self.source.ngens:
            raise ValueError("composition shape mismatch")
        build = ModuleMap._sound if first.target is self.source else ModuleMap
        return build(first.source, self.target, self.matrix.mul(first.matrix))

    def sub(self, other: "ModuleMap") -> "ModuleMap":
        build = (ModuleMap._sound if self.source is other.source
                 and self.target is other.target else ModuleMap)
        return build(self.source, self.target, self.matrix.sub(other.matrix))

    def is_zero_map(self) -> bool:
        return all(map(self.target.element_is_zero, self.matrix.columns()))

    def equals(self, other: "ModuleMap") -> bool:
        return self.sub(other).is_zero_map()

    def __repr__(self):
        return f"ModuleMap({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# Submodules, kernels, images, cokernels.
# ---------------------------------------------------------------------------


def syzygies(ambient: FPModule, columns: Matrix) -> list:
    """Generators of {c in R^t : sum c_i . v_i = 0 in ambient}: the kernel
    of the map R^t -> ambient whose matrix has the vectors v_i as its t
    ``columns``."""
    ring = ambient.ring
    t = columns.ncols
    if t == 0:
        return []
    f = ModuleMap(FPModule.free(ring, t), ambient, columns)
    return kernel_vectors(ring, f.base_system(), t)


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
    the first syzygies are the relations.  The matrix with the vectors as
    its columns is built once: the syzygies read it, and the inclusion is
    its selection of the kept columns.
    """
    ring = ambient.ring
    V = Matrix(ring, [[vec[j] for vec in vectors] for j in range(ambient.ngens)],
               ncols=len(vectors))
    syz = syzygies(ambient, V)
    drop = set(residue_pivots(ring, syz, V.ncols))
    if drop:
        keep = [i for i in range(V.ncols) if i not in drop]
        V = Matrix(ring, [[row[i] for i in keep] for row in V.rows],
                   ncols=len(keep), reduced=True)
        syz = syzygies(ambient, V)
    t = V.ncols
    sub = FPModule(ring, t, Matrix(ring, syz, ncols=t, reduced=True))
    incl = ModuleMap._sound(sub, ambient, V)
    return sub, incl


def kernel(f: ModuleMap):
    """Kernel of a module map, as ``(ker, incl)`` with incl into the source.

    The kernel of the map's base system (``ModuleMap.base_system``), cut
    to the source coordinates, is the set of lifts x with f(x) = 0 in the
    target.  The kernel is presented by ``present_submodule`` on a minimal
    subset of those lifts, or of the source's generators for a map into
    the zero module.
    """
    source = f.source
    g = source.ngens
    if not g or f.target.size == 1:
        # A map into the zero module (or from no generators): the kernel is
        # the whole source.
        return present_submodule(
            source, [source.generator(i) for i in range(g)])
    # Lifts that die in the source are dropped here: the pruning would drop
    # them too, but only after a second syzygy pass.
    gens = [vec for vec in kernel_vectors(source.ring, f.base_system(), g)
            if not source.element_is_zero(vec)]
    return present_submodule(source, gens)


def cokernel(f: ModuleMap):
    """Cokernel of a module map, as ``(coker, proj)`` from the target."""
    ring = f.target.ring
    img_rows = Matrix(ring, [list(c) for c in f.matrix.columns()],
                      ncols=f.target.ngens, reduced=True)
    coker = FPModule(ring, f.target.ngens, f.target.relations.stack(img_rows))
    proj = ModuleMap._sound(f.target, coker,
                            Matrix.identity(ring, f.target.ngens))
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
    sol = back_substitute(f.lift_data, ring.vec_to_base(target_vec),
                          base.p, base.m)
    return None if sol is None else ring.vec_from_base(sol)


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
    rel = target.rel_howell
    span = howell_int(span_rows_base(ring, f.matrix.columns()) + rel,
                      target.ngens * ring.rank, base.p, base.m)
    return (row_module_size(span, base.p, base.m)
            // row_module_size(rel, base.p, base.m))


def is_injective(f: ModuleMap) -> bool:
    return image_order(f) == f.source.size


def is_surjective(f: ModuleMap) -> bool:
    return image_order(f) == f.target.size


def is_isomorphism(f: ModuleMap) -> bool:
    """Injective and surjective, read off one ``image_order``."""
    return f.source.size == image_order(f) == f.target.size


def chain_invariants(module: FPModule) -> list:
    """Exponents e with module isomorphic to the sum of R/(p^e), descending.

    Chain rings only: the Smith form of the module's nonzero relation rows
    diagonalizes the presentation.  Entries equal to the ring's nilpotency
    degree (including the generators past the diagonal) are free summands;
    zero entries are trivial and dropped.  Computed once per module.
    """
    ring = module.ring
    if ring.rank != 1:
        raise ValueError("invariant factors require a chain ring")
    if module._invariants is None:
        rel = [row for row in module.relations.rows if any(row)]
        exps = smith_int(rel, ring.p, ring.m, left=False)[0]
        full = exps + [ring.m] * (module.ngens - len(exps))
        module._invariants = sorted((e for e in full if e > 0), reverse=True)
    return module._invariants


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
    dual, incl = present_submodule(FPModule.free(ring, module.ngens),
                                   kernel_matrix(module.relations).rows)
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
            self.ring.vec_to_base([x]), self.howell, base.p, base.m
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
        return hash((self.ring, tuple(tuple(r) for r in self.howell)))

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


def fitting_ideal(module: FPModule, i: int = 0) -> Ideal:
    """The i-th Fitting ideal: the ideal of the (ngens - i)-minors of the
    module's nonzero relation rows.

    Conventions: minors of non-positive size give the unit ideal; asking for
    minors larger than the relation row count, or than ngens (i < 0), gives
    the zero ideal.  The result does not depend on the presentation
    (Eisenbud, Commutative Algebra, §20.2).  Over a chain ring it is read off
    the invariants ``chain_invariants``, from one Smith form per module: with
    M = sum of R/(p^e_j) over n summands, Fitt_i(M) = (p^e), e the sum of
    the n - i smallest e_j, and e >= m gives the zero ideal.  Over a group
    ring the minors of each s-subset of the rows come from one ``minors``
    call.
    """
    ring = module.ring
    g = module.ngens
    s = g - i
    if s <= 0:
        return Ideal.unit(ring)
    if ring.rank == 1:
        if i < 0:
            return Ideal.zero(ring)
        inv = chain_invariants(module)
        e = sum(inv[i:])
        return Ideal.zero(ring) if e >= ring.m else Ideal(ring, [ring.p ** e])
    rel = [row for row in module.relations.rows
           if any(x != ring.zero for x in row)]
    k = len(rel)
    if s > k:
        return Ideal.zero(ring)
    dets = []
    for rsel in itertools.combinations(range(k), s):
        for d in minors(ring, [rel[a] for a in rsel], g):
            if ring.is_unit(d):
                return Ideal.unit(ring)
            if d != ring.zero:
                dets.append(d)
    return Ideal(ring, dets)


def annihilator(module: FPModule) -> Ideal:
    """Ann_R(X) = {a : a.x = 0 for all x}: the kernel of the map
    R -> X^n, 1 -> (e_1, ..., e_n), with X^n presented block-diagonally."""
    ring = module.ring
    n = module.ngens
    if n == 0:
        return Ideal.unit(ring)
    z = ring.zero
    rels = [[z] * (i * n) + row + [z] * ((n - 1 - i) * n)
            for i in range(n) for row in module.relations.rows]
    power = FPModule(ring, n * n, Matrix(ring, rels, ncols=n * n,
                                         reduced=True))
    diagonal = Matrix(ring, [[ring.one if a % (n + 1) == 0 else z]
                             for a in range(n * n)], ncols=1, reduced=True)
    f = ModuleMap(FPModule.free(ring, 1), power, diagonal)
    return Ideal(ring, [vec[0] for vec in
                        kernel_vectors(ring, f.base_system(), 1)])

