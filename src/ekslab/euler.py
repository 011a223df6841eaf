"""Euler systems over towers of group-ring levels, and their derived vectors.

A tower fixes a working modulus p^m_big, a target modulus M = p^m dividing
it, and per auxiliary prime: a cyclic symbol group of p-power order (each a
multiple of M), a Frobenius matrix on a free module of rank r + s at working
precision, a local polynomial whose value at 1 vanishes mod M, and the
exponents of the Frobenius image inside every symbol group.  A level is a
divisor — a subset of the primes — and a class at a level is the vector of
wedge coordinates of a degree-r element over the group ring of the product
of that divisor's symbol groups.

Corestriction (fiber summation over the collapsed symbol groups) ties the
family together; the derivative scalars collapse each class to a vector over
Z/M; the pair determinants assemble those into the derived vectors that feed
the contraction-system machinery in :mod:`ekslab.kolyvagin`.

Level rings come from one cache keyed by divisor and modulus exponent
(``EulerTower.level_ring``).  The empty level is the chain ring Z/p^m, read
through the same ring methods as every group level.
"""

import itertools
import random

from .biduals import (
    contract_table,
    contraction_rows,
    interior_product,
    r_subsets,
)
from .modules import free_map, solve_map
from .rings import (
    Matrix,
    det_ring,
    element_from_json,
    element_to_json,
    int_from_json,
    kernel_matrix,
    make_ring,
    power_exponent,
)
# Unused here: perfbench/tests checks the tracer wraps this binding too.
from .rings import kernel_int  # noqa: F401
from .selmer import (
    PrimeData,
    SelmerInstance,
    _det_one_minus_x,
    all_divisors,
    divisor_from_key,
    divisor_key,
    frobenius_data,
)


def _times(ring, factors, vec) -> list:
    """Each entry of ``vec`` multiplied by every one of ``factors`` in turn.

    The level-ring operators here are products of sparse factors (a few
    group elements each) whose product is dense; the ring is commutative,
    so applying the factors one by one gives the same entries for a fraction
    of the products, and reads only the group rows of the factors' support.
    With no factors the entries come back reduced, as multiplied by 1.
    """
    out = [ring.reduce(c) for c in vec]
    for f in factors:
        out = [ring.mul(f, c) for c in out]
    return out


# ---------------------------------------------------------------------------
# The tower.
# ---------------------------------------------------------------------------


class EulerTower:
    """The fixed data every class family over the tower shares.

    Arguments:
      p, m        — target modulus M = p^m;
      m_big       — working precision exponent, at least m + max(e_q);
      rank        — wedge degree r of the classes;
      orders      — symbol-group orders, one power of p per prime, each a
                    multiple of M;
      frobenius   — one square integer matrix of size rank + s per prime,
                    read at working precision;
      images      — integer exponent rows: images[q][qq] is the exponent of
                    the qq-th symbol generator in the group image of the
                    q-th Frobenius;
      local_polys — optional coefficient lists (low degree first) replacing
                    the characteristic polynomials det(1 - x Fr_q); each
                    value at 1 must vanish mod M.
    """

    __slots__ = ("p", "m", "m_big", "rank", "orders", "frobenius", "images",
                 "local_polys", "ring", "target", "n", "width",
                 "_levels", "_factors", "_level_maps")

    def __init__(self, p, m, m_big, rank, orders, frobenius, images,
                 local_polys=None):
        if not 1 <= m <= m_big:
            raise ValueError("target precision must sit inside the working one")
        if rank < 1:
            raise ValueError("wedge degree must be at least 1")
        orders = tuple(int(d) for d in orders)
        s = len(orders)
        exps = []
        for d in orders:
            e = power_exponent(d, p)
            if e is None or e < m:
                raise ValueError(
                    f"symbol group order {d} is not a multiple of {p**m} "
                    f"of the form {p}^e")
            exps.append(e)
        if exps and m_big < m + max(exps):
            raise ValueError(
                "working precision too small: need m_big >= m + max e_q")
        self.p = p
        self.m = m
        self.m_big = m_big
        self.rank = rank
        self.orders = orders
        self.ring = make_ring(p, m_big)
        self.target = make_ring(p, m)
        self.n = rank + s
        self.width = len(r_subsets(self.n, rank))
        if len(frobenius) != s or len(images) != s:
            raise ValueError("one Frobenius matrix and one image row per prime")
        self.frobenius = []
        for rows in frobenius:
            if len(rows) != self.n or any(len(r) != self.n for r in rows):
                raise ValueError(
                    f"Frobenius matrices must be {self.n} x {self.n}")
            self.frobenius.append([[c % self.ring.n for c in r] for r in rows])
        if any(len(row) != s for row in images):
            raise ValueError("image rows must give one exponent per prime")
        self.images = [
            tuple(b % d for b, d in zip(row, orders)) for row in images]
        if local_polys is None:
            local_polys = [
                _det_one_minus_x(self.ring, rows) for rows in self.frobenius]
        self.local_polys = [
            [c % self.ring.n for c in poly] for poly in local_polys]
        if len(self.local_polys) != s:
            raise ValueError("one local polynomial per prime")
        M = p ** m
        for q, poly in enumerate(self.local_polys):
            if sum(poly) % M:
                raise ValueError(
                    f"local polynomial of prime {q} has nonzero value at 1 "
                    f"mod {M}")
        self._levels = {}
        self._factors = {}
        self._level_maps = {}

    @property
    def n_primes(self) -> int:
        return len(self.orders)

    def divisors(self) -> list:
        return all_divisors(self.n_primes)

    def level_ring(self, divisor, m=None):
        """(Z/p^m)[G_divisor], at working precision unless another modulus
        exponent is given: the tower's one level-ring cache, keyed by the
        sorted divisor and the exponent.  The empty level is Z/p^m."""
        key = (tuple(sorted(divisor)), self.m_big if m is None else m)
        if key not in self._levels:
            self._levels[key] = make_ring(
                self.p, key[1], tuple(self.orders[q] for q in key[0]))
        return self._levels[key]

    # -- local factors ------------------------------------------------------

    def euler_factor(self, q: int, divisor):
        """P_q evaluated at the inverse Frobenius image, in the level ring.

        The image of the q-th Frobenius in the divisor's symbol groups is
        the product of the per-prime generators raised to the recorded
        exponents; the factor is the polynomial in its inverse.
        """
        key = (q, tuple(sorted(divisor)))
        if key in self._factors:
            return self._factors[key]
        S = self.level_ring(key[1])
        vec = [0] * S.rank
        image = [self.images[q][qq] for qq in key[1]]
        for k, a in enumerate(self.local_polys[q]):
            if a:
                i = S.exp_to_index(tuple(-k * b for b in image))
                vec[i] += a
        out = self._factors[key] = S.vec_from_base(vec)[0]
        return out

    def derivative_at_one(self, q: int) -> int:
        """P_q'(1) at working precision."""
        return sum(k * a for k, a in enumerate(self.local_polys[q])) % self.ring.n

    def pair_entry(self, q: int, qq: int) -> int:
        """The linearized factor of prime q at the slot of prime qq, mod M.

        Expanding P_q at the inverse image modulo squares of the
        augmentation ideal leaves -P_q'(1) times the recorded exponent on
        each generator-minus-one slot; the diagonal is excluded by the
        pairing matrix, not here.
        """
        M = self.p ** self.m
        return (-self.derivative_at_one(q) * self.images[q][qq]) % M

    # -- moving between levels ----------------------------------------------

    def corestrict(self, big, small, x):
        """Fiber summation over the symbol groups dropped from big to small.

        A ring homomorphism: each dropped generator is sent to 1.
        """
        big = tuple(sorted(big))
        small = tuple(sorted(small))
        if not set(small) <= set(big):
            raise ValueError("corestriction goes from a level to a sub-level")
        Ss = self.level_ring(small)
        out = [0] * Ss.rank
        for j, c in zip(self._level_map(big, small),
                        self.level_ring(big).vec_to_base((x,))):
            if c:
                out[j] += c
        return Ss.vec_from_base(out)[0]

    def _level_map(self, src, dst) -> list:
        """Per index of the level ring at ``src``, the index at ``dst`` of
        its exponents on the symbol groups ``dst`` keeps: the group map that
        corestriction (``dst`` inside ``src``) and inflation (``src`` inside
        ``dst``) read, built once per pair of sorted levels.  The empty
        level's ring has one index, 0, so either end may be empty."""
        key = (src, dst)
        if key not in self._level_maps:
            Sd = self.level_ring(dst)
            # The map is additive over the cyclic factors: a factor that
            # ``dst`` lacks weighs 0, a kept one its stride at ``dst``.
            # Indices run with the first factor most significant.
            weight = [Sd.exp_to_index(tuple(int(u == dst.index(q))
                                            for u in range(len(dst))))
                      if q in dst else 0 for q in src]
            index = [0]
            for d, w in zip(self.level_ring(src).orders, weight):
                index = [a + e * w for a in index for e in range(d)]
            self._level_maps[key] = index
        return self._level_maps[key]

    def inflate(self, small, big, x):
        """The section of corestriction that keeps exponents in place."""
        big = tuple(sorted(big))
        small = tuple(sorted(small))
        if not set(small) <= set(big):
            raise ValueError("inflation goes from a sub-level to a level")
        Sb = self.level_ring(big)
        out = [0] * Sb.rank
        # The level map is injective this way up: no two entries meet.
        for j, c in zip(self._level_map(small, big),
                        self.level_ring(small).vec_to_base((x,))):
            out[j] = c
        return Sb.vec_from_base(out)[0]


def _derivative_factors(ring) -> list:
    """The factors D_i = sum_t t*sigma_i^t of the derivative operator of a
    level ring, one per cyclic factor; none on a chain ring."""
    out = []
    for i, order in enumerate(ring.orders):
        vec = [0] * ring.rank
        for t in range(1, order):
            exps = [0] * len(ring.orders)
            exps[i] = t
            vec[ring.exp_to_index(tuple(exps))] = t % ring.base.n
        out.append(tuple(vec))
    return out


# ---------------------------------------------------------------------------
# Class families.
# ---------------------------------------------------------------------------


class EulerSystem:
    """A divisor-indexed family of wedge-coordinate class vectors over the
    level rings of a tower.

    ``degree`` is the wedge degree of the vectors (the tower's rank for the
    families built here, 1 after a rank-one reduction); ``meta`` carries
    construction provenance such as the seed.
    """

    __slots__ = ("tower", "degree", "classes", "meta", "_derived")

    def __init__(self, tower: EulerTower, degree: int, classes: dict,
                 meta=None):
        self.tower = tower
        self.degree = degree
        self.classes = {tuple(sorted(d)): list(v) for d, v in classes.items()}
        self.meta = dict(meta or {})
        self._derived = {}

    @property
    def width(self) -> int:
        return len(r_subsets(self.tower.n, self.degree))


def canonical_system(tower: EulerTower, x) -> EulerSystem:
    """The canonical family of a wedge vector: at each level, the integer
    coordinates scaled by the product of the divisor's local factors."""
    x = [c % tower.ring.n for c in x]
    if len(x) != tower.width:
        raise ValueError(f"wedge vector must have {tower.width} coordinates")
    classes = {}
    for d in tower.divisors():
        S = tower.level_ring(d)
        factors = [tower.euler_factor(q, d) for q in d]
        classes[d] = _times(S, factors, [S.from_int(c) for c in x])
    return EulerSystem(tower, tower.rank, classes, meta={"kind": "canonical"})


def perturb(system: EulerSystem, divisor, z) -> EulerSystem:
    """Add a compensated kernel class at one level.

    The wedge vector ``z`` over the divisor's level ring is multiplied by
    the product of the divisor's generator-minus-one elements — killing
    every corestriction out of the level — and the matching local-factor
    multiples are added at every level above, so the whole family still
    satisfies the corestriction relation exactly.  Levels not above the
    divisor, and all levels strictly below it, are untouched.
    """
    tower = system.tower
    d = tuple(sorted(divisor))
    if not d:
        raise ValueError("perturbations live at nonempty levels")
    Sd = tower.level_ring(d)
    diffs = [Sd.sub(Sd.generator(pos), Sd.one) for pos in range(len(d))]
    delta = _times(Sd, diffs, z)
    classes = {k: list(v) for k, v in system.classes.items()}
    for nn in tower.divisors():
        if not set(d) <= set(nn):
            continue
        Sn = tower.level_ring(nn)
        factors = [tower.euler_factor(q, nn) for q in nn if q not in d]
        term = _times(Sn, factors, [tower.inflate(d, nn, c) for c in delta])
        classes[nn] = [Sn.add(a, b) for a, b in zip(classes[nn], term)]
    return EulerSystem(tower, system.degree, classes, meta=dict(system.meta))


def random_system(tower: EulerTower, seed: int, x=None) -> EulerSystem:
    """Seed-deterministic random family: the canonical family of a random
    wedge vector plus an independent compensated kernel class at every
    nonempty level, verified post hoc against the corestriction relation."""
    rng = random.Random(seed)
    if x is None:
        x = [rng.randrange(tower.ring.n) for _ in range(tower.width)]
    system = canonical_system(tower, x)
    for d in tower.divisors():
        if not d:
            continue
        S = tower.level_ring(d)
        z = [S.random_element(rng) for _ in range(tower.width)]
        system = perturb(system, d, z)
    system.meta.update({"kind": "random", "seed": seed})
    holds, failures = relation_holds(system)
    if not holds:
        raise RuntimeError(f"corestriction relation broken at {failures}")
    return system


def relation_report(system: EulerSystem) -> dict:
    """Exact corestriction check for every nested divisor pair.

    Keys are "big>small" divisor strings; the value records whether the
    corestricted class equals the dropped primes' local factors times the
    class below.
    """
    tower = system.tower
    out = {}
    for nn in tower.divisors():
        for k in range(len(nn) + 1):
            for dd in itertools.combinations(nn, k):
                Ss = tower.level_ring(dd)
                lhs = [tower.corestrict(nn, dd, c)
                       for c in system.classes[nn]]
                factors = [tower.euler_factor(q, dd)
                           for q in nn if q not in dd]
                rhs = _times(Ss, factors, system.classes[dd])
                out[f"{divisor_key(nn)}>{divisor_key(dd)}"] = lhs == rhs
    return out


def relation_holds(system: EulerSystem):
    """(bool, list of failing "big>small" keys)."""
    report = relation_report(system)
    failures = sorted(k for k, ok in report.items() if not ok)
    return not failures, failures


# ---------------------------------------------------------------------------
# Reduction to the target modulus and the derivative machinery.
# ---------------------------------------------------------------------------


def reduce_class(tower: EulerTower, divisor, cls, m=None) -> list:
    """Coefficientwise reduction of a level class to precision p^m
    (the target modulus by default); the symbol groups are untouched."""
    S = tower.level_ring(divisor, tower.m if m is None else m)
    return [S.reduce(c) for c in cls]


def derivative_element(system: EulerSystem, divisor) -> list:
    """The derivative scalar times the target-reduced class at a level."""
    tower = system.tower
    d = tuple(sorted(divisor))
    S = tower.level_ring(d, tower.m)
    reduced = reduce_class(tower, d, system.classes[d])
    return _times(S, _derivative_factors(S), reduced)


def invariance_holds(system: EulerSystem, divisor) -> bool:
    """Whether the derivative element at a level is fixed by every symbol
    generator — the well-definedness condition of the derived class."""
    try:
        derived_class(system, divisor)
    except ValueError:
        return False
    return True


def derived_class(system: EulerSystem, divisor) -> list:
    """The derived class at a level: the common coefficient vector of the
    (invariant) derivative element, over Z/M.

    Raises ValueError when the derivative element is not invariant, which
    flags a family that does not satisfy the corestriction relation.
    """
    d = tuple(sorted(divisor))
    if d in system._derived:
        return list(system._derived[d])
    tower = system.tower
    S = tower.level_ring(d, tower.m)
    w = derivative_element(system, d)
    for pos in range(len(d)):
        g = S.generator(pos)
        if any(S.mul(g, c) != c for c in w):
            raise ValueError(
                f"derivative element at level {d} is not invariant: "
                "not an Euler system")
    # Each entry's identity coefficient: the first of its |G| base coordinates.
    out = S.vec_to_base(w)[::S.rank]
    system._derived[d] = list(out)
    return out


# ---------------------------------------------------------------------------
# Pair determinants and the assembled derived vectors.
# ---------------------------------------------------------------------------


def pairing_matrix(tower: EulerTower, divisor) -> list:
    """The square matrix of linearized factors over a divisor, in the given
    prime order: zero diagonal, pair entries elsewhere, over Z/M."""
    primes = tuple(divisor)
    if len(set(primes)) != len(primes):
        raise ValueError("divisor has a repeated prime")
    return [[0 if a == b else tower.pair_entry(qa, qb)
             for b, qb in enumerate(primes)]
            for a, qa in enumerate(primes)]


def pairing_determinant(tower: EulerTower, divisor) -> int:
    """Determinant of the pairing matrix over Z/M; 1 on the empty divisor,
    independent of the prime ordering."""
    return det_ring(tower.target, pairing_matrix(tower, divisor))


def derived_vector(system: EulerSystem, divisor) -> list:
    """The assembled derived vector at a divisor: the determinant-weighted
    sum of the derived classes of its sub-divisors, over Z/M."""
    tower = system.tower
    nn = tuple(sorted(divisor))
    M = tower.p ** tower.m
    out = [0] * system.width
    for k in range(len(nn) + 1):
        for dd in itertools.combinations(nn, k):
            det = pairing_determinant(tower, tuple(q for q in nn if q not in dd))
            if det == 0:
                continue
            kp = derived_class(system, dd)
            out = [(o + det * c) % M for o, c in zip(out, kp)]
    return out


# ---------------------------------------------------------------------------
# Rank-one reduction.
# ---------------------------------------------------------------------------


def rank_one_reduction(system: EulerSystem, phi) -> EulerSystem:
    """Contract every class by a fixed integer wedge functional of degree
    one less than the system's, producing a rank-one family over the same
    tower; the functional acts by the same integer coefficients at every
    level."""
    tower = system.tower
    r = system.degree
    n = tower.n
    phi = list(phi)
    if len(phi) != len(r_subsets(n, r - 1)):
        raise ValueError(
            f"functional must have {len(r_subsets(n, r - 1))} coordinates")
    classes = {}
    for d in tower.divisors():
        S = tower.level_ring(d)
        phi_S = [S.from_int(a) for a in phi]
        classes[d] = contract_table(S, n, r, r - 1, phi_S, system.classes[d])
    return EulerSystem(tower, 1, classes,
                       meta={"kind": "rank-one", "functional": phi})


def reduction_identity_holds(system: EulerSystem, reduced: EulerSystem,
                             phi, divisor) -> bool:
    """Contract-then-derive equals derive-then-contract at a divisor."""
    tower = system.tower
    phi = [tower.target.from_int(a) for a in phi]
    lhs = contract_table(tower.target, tower.n, system.degree,
                         system.degree - 1, phi,
                         derived_class(system, divisor))
    return lhs == derived_class(reduced, divisor)


# ---------------------------------------------------------------------------
# The local comparison identities over an instance.
# ---------------------------------------------------------------------------


def derived_tables(system: EulerSystem) -> dict:
    """Ambient value tables of the assembled derived vectors, one per
    divisor; over a free ambient the wedge coordinates are the tables."""
    return {d: derived_vector(system, d) for d in system.tower.divisors()}


def scalar_fs_holds(kdata, tables, divisor, q: int, phi) -> bool:
    """The rank-one comparison at (divisor, q) after contracting by phi:
    both sides collapsed to scalars through the degree-one tables."""
    inst = kdata.instance
    ring = kdata.ring
    n = inst.ambient_rank
    r = kdata.rank
    nn = tuple(sorted(divisor))
    lower = tuple(x for x in nn if x != q)
    u = kdata.effective_unit(q)
    phi = [ring.from_int(c) for c in phi]
    top = contract_table(ring, n, r, r - 1, phi, tables[nn])
    bot = contract_table(ring, n, r, r - 1, phi, tables[lower])
    return ring.dot(inst.singular_functional(q), top) == ring.mul(
        u, ring.dot(inst.finite_functional(q), bot))


def _unit_functionals(size: int) -> list:
    """The functionals that pick one of ``size`` coordinates, in order."""
    return [[int(b == a) for b in range(size)] for a in range(size)]


def scalar_fs_failures(kdata, tables) -> dict:
    """For each (divisor, prime) pair, in order, the monomial of the first
    unit functional whose rank-one comparison fails there, or None when
    every one holds: one ``scalar_fs_holds`` per functional up to the
    first failure."""
    inst = kdata.instance
    monomials = r_subsets(inst.ambient_rank, kdata.rank - 1)
    units = _unit_functionals(len(monomials))
    return {(nn, q): next((A for A, phi in zip(monomials, units)
                           if not scalar_fs_holds(kdata, tables, nn, q, phi)),
                          None)
            for nn in inst.divisors() for q in nn}


def fs_witness(failures):
    """The first failing rank-one comparison of a ``scalar_fs_failures``
    scan, as (divisor, prime, monomial), or None when every scalar
    identity holds."""
    return next(((nn, q, A) for (nn, q), A in failures.items()
                 if A is not None), None)


def rank_reduction_report(system: EulerSystem, kdata) -> dict:
    """The consistency report tying the rank-one reductions to the full
    family over an instance.

    Checks, for every generating functional: the derived vectors of the
    contracted family expand as the contractions of the full derived
    vectors; the contraction commutes with taking derived classes; and at
    every (divisor, prime) pair the full-degree local comparison
    (``kolyvagin.fs_holds``) holds exactly when all the scalar comparisons
    do, with the witness scan reporting the first scalar failure (None when
    consistent).
    """
    from .kolyvagin import fs_holds

    tower = system.tower
    n = tower.n
    r = system.degree
    units = _unit_functionals(len(r_subsets(n, r - 1)))
    tables = derived_tables(system)
    expansion = True
    identity = True
    for phi in units:
        reduced = rank_one_reduction(system, phi)
        for d in tower.divisors():
            if not reduction_identity_holds(system, reduced, phi, d):
                identity = False
            if derived_vector(reduced, d) != contract_table(
                    tower.target, n, r, r - 1, phi, tables[d]):
                expansion = False
    failures = scalar_fs_failures(kdata, tables)
    full = {}
    scalars = {}
    for (nn, q), failure in failures.items():
        key = f"{divisor_key(nn)}@{q}"
        full[key] = fs_holds(kdata, tables, nn, q)
        scalars[key] = failure is None
    return {
        "expansion": expansion,
        "reduction_identity": identity,
        "full_fs": full,
        "scalar_fs": scalars,
        "equivalence": full == scalars,
        "fs_holds": all(full.values()),
        "witness": fs_witness(failures),
    }


# ---------------------------------------------------------------------------
# Consistent generation: instance and family solved together.
# ---------------------------------------------------------------------------


def _unit_draw(rng, p, modulus):
    while True:
        c = rng.randrange(modulus)
        if c % p:
            return c


def _instance_frobenius(rng, p, m, m_big, n):
    """A diagonal Frobenius at working precision whose target reduction has
    a free rank-one fixed quotient and comparison unit 1.

    The first eigenvalue is 1 + M times a unit; the middle ones are units d
    with 1 - d a unit; the last is solved so the quotient polynomial's
    value at 1 is 1 mod M.  Returns None when the solved entry degenerates.
    """
    if p == 2:
        raise ValueError("consistent generation needs an odd prime")
    M = p ** m
    big = p ** m_big
    diag = [(1 + M * _unit_draw(rng, p, p ** (m_big - m))) % big]
    prod = 1
    for _ in range(n - 2):
        while True:
            d = rng.randrange(big)
            if d % p and (1 - d) % p:
                break
        diag.append(d)
        prod = (prod * (1 - d)) % big
    # last entry: (1 - d_last) * prod = -1 mod M makes the unit 1
    inv = pow(prod % M, -1, M)
    last = (1 + inv) % M
    if last % p == 0:
        return None
    diag.append(last)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def consistent_instance(p: int, m: int, rank: int, n_primes: int, seed: int,
                        max_tries: int = 60):
    """Draw a tower, an instance over Z/p^m, and a family whose derived
    vectors land in every divisor's modified Selmer bidual and satisfy the
    local comparison at every (divisor, prime) pair.

    The singular rows are the tail coordinate functionals, so membership
    pins each level's support; the finite-part rows are drawn at random and
    the per-level targets solved linearly, resampling whenever a draw has
    a degenerate Frobenius or makes some level unsolvable.  Returns
    ``(tower, system, kdata)``.

    The checks after the solve follow from it and from the compensated
    perturbations: a failure is a program error, raised as
    ``AssertionError`` with the stage and the level, never redrawn.
    """
    from .kolyvagin import KolyvaginData, fs_holds, system_from_ambient_tables

    M = p ** m
    m_big = 2 * m
    n = rank + n_primes
    if p == 3 and n % 2:
        # Every middle eigenvalue d of _instance_frobenius has d = 2 and
        # 1 - d = 2 mod 3, so the last one is 1 + (-1)^(n-2) = 0 mod 3.
        raise ValueError("p = 3 needs r + s even")
    orders = (M,) * n_primes
    Rbar = make_ring(p, m)
    monomials = r_subsets(n, rank)
    width = len(monomials)
    head = tuple(range(rank))
    rng = random.Random(seed)
    for _ in range(max_tries):
        frob = []
        for _q in range(n_primes):
            rows = _instance_frobenius(rng, p, m, m_big, n)
            if rows is None:
                break
            frob.append(rows)
        if len(frob) != n_primes:
            continue
        images = [[_unit_draw(rng, p, orders[qq]) for qq in range(n_primes)]
                  for _q in range(n_primes)]
        tower = EulerTower(p, m, m_big, rank, orders, frob, images)
        primes = []
        for q in range(n_primes):
            reduced = [[c % M for c in row] for row in frob[q]]
            primes.append(PrimeData(f"q{q}", orders[q],
                                    frobenius_data(Rbar, reduced)))
        finite = Matrix(Rbar, [[int(i == rank + q) for i in range(n)]
                               for q in range(n_primes)], ncols=n)
        t_rows = [[rng.randrange(M) for _ in range(n)]
                  for _q in range(n_primes)]
        transverse = Matrix(Rbar, t_rows, ncols=n)
        instance = SelmerInstance(Rbar, rank, primes, finite, transverse)
        kdata = KolyvaginData(instance)

        # Solve the target vectors level by level.
        targets = {}
        base = [0] * width
        base[monomials.index(head)] = _unit_draw(rng, p, M)
        targets[()] = base
        solved = True
        for d in instance.divisors():
            if not d:
                continue
            forbidden = {rank + q for q in range(n_primes) if q not in d}
            rows = [unit for I, unit in zip(monomials,
                                            _unit_functionals(width))
                    if set(I) & forbidden]
            rhs = [0] * len(rows)
            for q in d:
                lower = tuple(x for x in d if x != q)
                u = kdata.effective_unit(q)
                want = interior_product(Rbar, n, rank,
                                        instance.finite_functional(q),
                                        targets[lower])
                rows.extend(contraction_rows(
                    Rbar, n, rank, instance.singular_functional(q)))
                rhs.extend((u * c) % M for c in want)
                finite_rows = contraction_rows(Rbar, n, rank,
                                               instance.finite_functional(q))
                rows.extend(finite_rows)
                rhs.extend(0 for _ in finite_rows)
            A = Matrix(Rbar, rows, ncols=width)
            sol = solve_map(free_map(A), rhs)
            if sol is None:
                solved = False
                break
            for row in kernel_matrix(A).rows:
                c = rng.randrange(M)
                sol = [(a + c * b) % M for a, b in zip(sol, row)]
            targets[d] = sol
        if not solved:
            continue

        # Realize the targets with compensated kernel classes.
        system = canonical_system(tower, list(base))
        class_targets = {(): list(base)}
        for d in instance.divisors():
            if not d:
                continue
            want = list(targets[d])
            for k in range(len(d)):
                for ee in itertools.combinations(d, k):
                    det = pairing_determinant(
                        tower, tuple(q for q in d if q not in ee))
                    want = [(w - det * c) % M
                            for w, c in zip(want, class_targets[ee])]
            class_targets[d] = want
            current = derived_class(system, d)
            delta = [(a - b) % M for a, b in zip(want, current)]
            if any(delta):
                sign = -1 if len(d) % 2 else 1
                S = tower.level_ring(d)
                z = [S.from_int(sign * c) for c in delta]
                system = perturb(system, d, z)
            if derived_class(system, d) != want:
                raise AssertionError(f"consistent_instance: the derived class "
                                     f"at level {d} is not its target")
        system.meta.update({"kind": "consistent", "seed": seed})
        tables = derived_tables(system)
        for d in instance.divisors():
            if tables[d] != targets[d]:
                raise AssertionError(f"consistent_instance: the derived table "
                                     f"at level {d} is not the solved target")
        _ksys, malformed = system_from_ambient_tables(kdata, tables)
        if malformed:
            raise AssertionError(f"consistent_instance: the table at level "
                                 f"{malformed[0]} is not in its bidual")
        for d in instance.divisors():
            for q in d:
                if not fs_holds(kdata, tables, d, q):
                    raise AssertionError(f"consistent_instance: the relation "
                                         f"fails at level {d}, prime {q}")
        return tower, system, kdata
    raise RuntimeError("no consistent draw found within the retry budget")


# ---------------------------------------------------------------------------
# Serialization and the identity report.
# ---------------------------------------------------------------------------


def tower_to_json(tower: EulerTower) -> dict:
    return {
        "schema": "euler-tower/1",
        "p": tower.p,
        "m": tower.m,
        "m_big": tower.m_big,
        "rank": tower.rank,
        "orders": list(tower.orders),
        "frobenius": [[list(r) for r in rows] for rows in tower.frobenius],
        "images": [list(row) for row in tower.images],
        "local_polys": [list(poly) for poly in tower.local_polys],
    }


def tower_from_json(data: dict) -> EulerTower:
    if not isinstance(data, dict) or data.get("schema") != "euler-tower/1":
        raise ValueError("not a euler-tower/1 document")

    def ints(key, values):
        return [int_from_json(v, key) for v in values]

    return EulerTower(
        *(int_from_json(data[key], key) for key in ("p", "m", "m_big", "rank")),
        ints("orders", data["orders"]),
        [[ints("frobenius", r) for r in rows] for rows in data["frobenius"]],
        [ints("images", row) for row in data["images"]],
        [ints("local_polys", poly) for poly in data["local_polys"]],
    )


def system_to_json(system: EulerSystem) -> dict:
    tower = system.tower
    return {
        "schema": "euler-system/1",
        "tower": tower_to_json(tower),
        "degree": system.degree,
        "meta": {k: system.meta[k] for k in sorted(system.meta)},
        "precision": {
            "working_modulus": tower.p ** tower.m_big,
            "target_modulus": tower.p ** tower.m,
        },
        "classes": {
            divisor_key(d): [element_to_json(tower.level_ring(d), c)
                              for c in v]
            for d, v in sorted(system.classes.items())
        },
    }


def system_from_json(data: dict) -> EulerSystem:
    """An Euler system document, checked against its tower: the degree lies
    between 1 and the tower's rank, the classes are keyed by the tower's
    divisors, each once, and each class has C(n, degree) coordinates."""
    if not isinstance(data, dict) or data.get("schema") != "euler-system/1":
        raise ValueError("not a euler-system/1 document")
    tower = tower_from_json(data["tower"])
    degree = int_from_json(data["degree"], "degree")
    if not 1 <= degree <= tower.rank:
        raise ValueError(f"degree {degree} is not between 1 and the tower's "
                         f"rank {tower.rank}")
    if not isinstance(data["classes"], dict):
        raise ValueError(f"classes {data['classes']!r} is not an object keyed "
                         f"by divisor")
    divisors = [divisor_from_key(key) for key in data["classes"]]
    if sorted(tuple(sorted(d)) for d in divisors) != sorted(tower.divisors()):
        raise ValueError(f"class keys {sorted(data['classes'])} are not the "
                         f"tower's divisors, each once")
    width = len(r_subsets(tower.n, degree))
    classes = {}
    for d, (key, v) in zip(divisors, data["classes"].items()):
        if len(v) != width:
            raise ValueError(f"class {key!r} has {len(v)} coordinates, not "
                             f"C({tower.n}, {degree}) = {width}")
        S = tower.level_ring(d)
        classes[d] = [element_from_json(S, c) for c in v]
    return EulerSystem(tower, degree, classes, meta=data.get("meta"))


def derivative_report(system: EulerSystem) -> dict:
    """What the derivative of a family rests on, listed one by one: the
    corestriction relations, the invariance of each level's derivative
    element, the derived classes, the pair determinants and the assembled
    derived vectors.

    A level whose derivative element is not invariant has no derived class,
    and a divisor with such a level inside it has no derived vector; the
    report leaves out the derived class and the vector at every such
    divisor."""
    tower = system.tower
    report = {
        "schema": "euler-derivative/1",
        "target_modulus": tower.p ** tower.m,
        "working_modulus": tower.p ** tower.m_big,
        "relations": relation_report(system),
        "invariance": {},
        "derived_classes": {},
        "pair_determinants": {},
        "derived_vectors": {},
    }
    broken = [set(d) for d in tower.divisors()
              if not invariance_holds(system, d)]
    for d in tower.divisors():
        key = divisor_key(d)
        report["invariance"][key] = set(d) not in broken
        report["pair_determinants"][key] = pairing_determinant(tower, d)
        if any(b <= set(d) for b in broken):
            continue
        report["derived_classes"][key] = derived_class(system, d)
        report["derived_vectors"][key] = derived_vector(system, d)
    return report
