"""Synthetic Selmer structures on a free ambient module.

An instance fixes a free module of rank (core_rank + #primes) and, for each
auxiliary prime, two local condition functionals on it: the everyday
("finite") one and the alternative ("transverse") one.  A divisor is a subset
of the primes; its condition matrix keeps the finite row at primes outside
the divisor and swaps in the transverse row at primes inside.  The Selmer
module at a divisor is the kernel of that matrix, the dual Selmer module is
its cokernel — one matrix drives both, which is what makes the comparison
sequences and Fitting-ideal identities below exact by construction.

Each prime also carries a Frobenius matrix whose fixed-line data (the
quotient by Frobenius-minus-one must be free of rank one) produces the
comparison unit used by the derived-class engines.
"""

from __future__ import annotations

import itertools
import random

from .modules import (
    FPModule,
    Ideal,
    ModuleMap,
    cokernel,
    factor_through,
    fitting_ideal,
    image_order,
    kernel,
    min_generators,
    residue_pivots,
)
from .rings import (
    Matrix,
    det_ring,
    int_from_json,
    matrix_from_json,
    matrix_to_json,
    power_exponent,
    ring_from_json,
    ring_to_json,
)

PROFILES = ("generic", "class-trivial", "pir-basis", "degenerate")


# ---------------------------------------------------------------------------
# Frobenius data: the free rank-one quotient and the comparison unit.
# ---------------------------------------------------------------------------


def _poly_eval(ring, poly, x):
    powers = [ring.one]
    for _ in poly[1:]:
        powers.append(ring.mul(powers[-1], x))
    return ring.dot(poly, powers)


def _det_one_minus_x(ring, rows):
    """det(1 - x M) as a coefficient list: the coefficient of x^k is (-1)^k
    times the sum of the principal k x k minors of M."""
    a = len(rows)
    out = []
    for k in range(a + 1):
        total = ring.zero
        for S in itertools.combinations(range(a), k):
            principal = [[rows[i][j] for j in S] for i in S]
            total = ring.add(total, det_ring(ring, principal))
        out.append(ring.neg(total) if k % 2 else total)
    return out


def _divide_by_x_minus_one(ring, poly):
    """Quotient and remainder of poly by (x - 1)."""
    rem = _poly_eval(ring, poly, ring.one)
    q = [ring.zero] * max(len(poly) - 1, 0)
    carry = ring.zero
    for k in range(len(poly) - 1, 0, -1):
        carry = ring.add(poly[k], carry)
        q[k - 1] = carry
    return q, rem


class FrobeniusData:
    """The data a useful prime carries: a Frobenius matrix on a small free
    module whose quotient by (Frobenius - 1) is free of rank one, plus the
    quotient polynomial of det(1 - x Fr) by (x - 1) and its value at 1 — the
    comparison unit between the everyday and transverse local pictures."""

    __slots__ = ("ring", "matrix", "q_poly", "fs_unit")

    def __init__(self, ring, matrix: Matrix, q_poly, fs_unit):
        self.ring = ring
        self.matrix = matrix
        self.q_poly = q_poly
        self.fs_unit = fs_unit


def frobenius_data(ring, rows) -> FrobeniusData:
    """Build the prime-local data, rejecting unusable Frobenius matrices.

    The quotient of the free module by (Frobenius - 1) must be free of rank
    one; since the rings here are local, that is exactly "one minimal
    generator and the size of the ring".
    """
    a = len(rows)
    fr = Matrix(ring, [list(r) for r in rows], ncols=a)
    free = FPModule.free(ring, a)
    delta = fr.sub(Matrix.identity(ring, a))
    quot, _proj = cokernel(ModuleMap(free, free, delta))
    if not (min_generators(quot) == 1 and quot.size == ring.size):
        raise ValueError(
            "quotient by (Frobenius - 1) is not free of rank one")
    char = _det_one_minus_x(ring, fr.rows)
    q_poly, rem = _divide_by_x_minus_one(ring, char)
    if rem != ring.zero:
        raise ValueError("det(1 - x Fr) is not divisible by (x - 1)")
    return FrobeniusData(ring, fr, q_poly, _poly_eval(ring, q_poly, ring.one))


class PrimeData:
    """One auxiliary prime: a label, the order of its residue symbol group,
    and its Frobenius data."""

    __slots__ = ("label", "group_order", "frobenius")

    def __init__(self, label: str, group_order: int, frobenius: FrobeniusData):
        self.label = label
        self.group_order = group_order
        self.frobenius = frobenius


# ---------------------------------------------------------------------------
# The instance.
# ---------------------------------------------------------------------------


# The local condition at one prime, as the condition rows it imposes there.
_FINITE = ("finite",)
_TRANSVERSE = ("transverse",)
_RELAXED = ()


def all_divisors(n_primes: int) -> list:
    """Every subset of prime indices as a sorted tuple, by size then lex."""
    out = []
    for k in range(n_primes + 1):
        out.extend(itertools.combinations(range(n_primes), k))
    return out


class SelmerInstance:
    __slots__ = ("ring", "core_rank", "primes", "finite", "transverse",
                 "_modules", "_fitting", "_state_memo")

    def __init__(self, ring, core_rank: int, primes, finite: Matrix,
                 transverse: Matrix):
        s = len(primes)
        n = core_rank + s
        if core_rank < 1:
            raise ValueError("core rank must be at least 1")
        if finite.nrows != s or transverse.nrows != s:
            raise ValueError("one finite and one transverse row per prime")
        if finite.ncols != n or transverse.ncols != n:
            raise ValueError(f"condition rows must have width {n}")
        self.ring = ring
        self.core_rank = core_rank
        self.primes = list(primes)
        self.finite = finite
        self.transverse = transverse
        self._modules = {}
        self._fitting = {}
        self._state_memo = {}

    @property
    def n_primes(self) -> int:
        return len(self.primes)

    @property
    def ambient_rank(self) -> int:
        return self.core_rank + len(self.primes)

    def divisors(self) -> list:
        return all_divisors(self.n_primes)

    def singular_functional(self, q: int) -> list:
        """The functional measuring the singular part at prime q; its
        vanishing is the finite (everyday) local condition."""
        return list(self.finite.rows[q])

    def finite_functional(self, q: int) -> list:
        """The functional measuring the finite part at prime q; its
        vanishing is the transverse local condition."""
        return list(self.transverse.rows[q])

    def condition_matrix(self, divisor, drop=None) -> Matrix:
        """The stacked local conditions at a divisor.

        Transverse rows at primes inside the divisor, finite rows outside;
        ``drop`` removes the row of one prime entirely (the relaxed
        structure used by the comparison sequence).

        Every module cut out of the ambient by local conditions is built
        from one such matrix, with one of three states at each prime:
        finite (the finite row), transverse (the transverse row) or relaxed
        (no row).  The Selmer modules are transverse inside the divisor and
        finite outside, and ``relaxed_module`` is relaxed inside.  The
        Kolyvagin relation also concerns the module strict at a prime (both
        rows there); it is compared in the free ambient, so that module is
        never built.
        """
        return self._conditions(self._states(divisor, drop))

    def _states(self, divisor, drop=None, inside=_TRANSVERSE) -> tuple:
        """The state of each prime: ``inside`` at the primes of the divisor,
        finite outside, relaxed at ``drop``; built once per arguments."""
        key = (tuple(divisor), drop, inside)
        states = self._state_memo.get(key)
        if states is None:
            primes = set(divisor)
            states = self._state_memo[key] = tuple(
                _RELAXED if q == drop else inside if q in primes
                else _FINITE for q in range(self.n_primes))
        return states

    def _conditions(self, states) -> Matrix:
        rows = [list(getattr(self, side).rows[q])
                for q, state in enumerate(states) for side in state]
        return Matrix(self.ring, rows, ncols=self.ambient_rank, reduced=True)

    def _memo(self, kind, build, states):
        """``build(condition map)``, once per kind and tuple of prime
        states, so every caller shares one module (and its lazily computed
        Howell data): ``(d, drop=q)`` and ``(d + (q,), drop=q)`` share one,
        and so do the relaxed module at ``(q,)`` and ``((), drop=q)``."""
        key = (kind, states)
        if key not in self._modules:
            V = self._conditions(states)
            self._modules[key] = build(ModuleMap(
                FPModule.free(self.ring, self.ambient_rank),
                FPModule.free(self.ring, V.nrows), V))
        return self._modules[key]

    def selmer_module(self, divisor, drop=None):
        """The Selmer module at a divisor: ``(module, inclusion)`` into the
        free ambient."""
        return self._memo("kernel", kernel, self._states(divisor, drop))

    def relaxed_module(self, divisor):
        """The module relaxed at the primes of the divisor and finite
        outside: ``(module, inclusion)`` into the free ambient; at the
        divisor of all primes it is the free ambient itself."""
        return self._memo("kernel", kernel,
                          self._states(divisor, inside=_RELAXED))

    def dual_selmer(self, divisor, drop=None) -> FPModule:
        """The dual Selmer module: cokernel of the same condition matrix,
        presented on one generator per kept prime."""
        return self._memo("cokernel", lambda f: cokernel(f)[0],
                          self._states(divisor, drop))

    def dual_fitting(self, i: int, divisor=(), drop=None) -> Ideal:
        """The i-th Fitting ideal of ``dual_selmer(divisor, drop)``, by
        default of the unmodified dual Selmer module: computed once per
        instance and module, so the Fitting recursion, the structure
        theorems of both sides and the bidual suite share them."""
        key = (i, self._states(divisor, drop))
        if key not in self._fitting:
            self._fitting[key] = fitting_ideal(self.dual_selmer(divisor, drop),
                                               i)
        return self._fitting[key]

    def residue_ranks(self, divisor):
        """(Selmer rank, dual Selmer rank) of the reduction to the residue
        field; their difference is the core rank at every divisor."""
        V = self.condition_matrix(divisor)
        rank = len(residue_pivots(self.ring, V.rows, self.ambient_rank))
        return self.ambient_rank - rank, self.n_primes - rank

    def is_core(self, divisor) -> bool:
        """Core divisors are those whose dual Selmer module vanishes."""
        return self.dual_selmer(divisor).size == 1


# ---------------------------------------------------------------------------
# The comparison sequence and the Fitting-ideal recursion.
# ---------------------------------------------------------------------------


def five_term_data(instance: SelmerInstance, divisor, q: int):
    """The five-term comparison between a structure and its q-relaxation.

    Returns the four maps of

        0 -> Sel -> Sel(relaxed at q) -> R -> dualSel -> dualSel(relaxed) -> 0

    where the middle map evaluates the dropped condition row and the last
    two modules are cokernels of the condition matrices.
    """
    ring = instance.ring
    _sel, incl = instance.selmer_module(divisor)
    selq, inclq = instance.selmer_module(divisor, drop=q)
    m1 = factor_through(incl, inclq,
                        "stricter Selmer module escapes the relaxed one")

    inside = set(divisor)
    row_q = (instance.transverse if q in inside else instance.finite).rows[q]
    line = FPModule.free(ring, 1)
    vals = [ring.dot(row_q, col) for col in inclq.matrix.columns()]
    # m2 and m4 are well defined by construction (``ModuleMap``): m2 is a
    # condition row after the inclusion into the free ambient, and m4
    # drops coordinate q, the row that the relaxed dual's relations lack.
    m2 = ModuleMap._sound(selq, line, Matrix(ring, [vals], ncols=selq.ngens,
                                             reduced=True))

    dual = instance.dual_selmer(divisor)
    dualq = instance.dual_selmer(divisor, drop=q)
    col = [ring.one if i == q else ring.zero for i in range(instance.n_primes)]
    m3 = ModuleMap(line, dual, Matrix(ring, [[c] for c in col], ncols=1,
                                      reduced=True))
    drop_rows = []
    for i in range(instance.n_primes):
        if i == q:
            continue
        drop_rows.append([ring.one if j == i else ring.zero
                          for j in range(instance.n_primes)])
    m4 = ModuleMap._sound(dual, dualq, Matrix(
        ring, drop_rows, ncols=instance.n_primes, reduced=True))
    return m1, m2, m3, m4


def five_term_exact(instance: SelmerInstance, divisor, q: int) -> bool:
    """Exactness of the comparison sequence at every node, by orders.

    The modules are finite.  Where each composite of consecutive maps
    vanishes, im f_i sits inside ker f_(i+1), whose order is |B|/|im f_(i+1)|
    for the middle node B; so the two agree exactly when
    |im f_i| * |im f_(i+1)| = |B|.  At the start, the first map is injective
    exactly when its image is as large as its source.  The last map is onto
    by construction: it sends each generator of the dual Selmer module at a
    kept prime to the same generator of the relaxed one, so its image order
    is the order of its target, and surjectivity at the end needs no check.
    """
    maps = five_term_data(instance, divisor, q)
    if not all(g.compose(f).is_zero_map() for f, g in zip(maps, maps[1:])):
        return False
    orders = [image_order(f) for f in maps[:-1]] + [maps[-1].target.size]
    return (
        orders[0] == maps[0].source.size
        and all(a * b == f.target.size
                for a, b, f in zip(orders, orders[1:], maps))
    )


def fitt_recursion_holds(instance: SelmerInstance, divisor, i: int) -> bool:
    """The Fitting-ideal recursion for the dual Selmer module.

    For i >= 1, the i-th Fitting ideal at a divisor is the sum, over the
    primes, of the (i-1)-st Fitting ideals of the one-row-relaxed modules.
    """
    if i < 1:
        raise ValueError("the recursion starts at the first Fitting ideal")
    lhs = instance.dual_fitting(i, divisor)
    total = Ideal.zero(instance.ring)
    for q in range(instance.n_primes):
        total = total.add(instance.dual_fitting(i - 1, divisor, drop=q))
    return lhs == total


# ---------------------------------------------------------------------------
# The divisor graph.
# ---------------------------------------------------------------------------


def core_vertices(instance: SelmerInstance) -> list:
    return [d for d in instance.divisors() if instance.is_core(d)]


def divisor_key(divisor) -> str:
    """The divisor's prime indices in order, joined by commas: the key of
    its entry in serialized families."""
    return ",".join(str(q) for q in sorted(divisor))


def divisor_from_key(key: str) -> tuple:
    return tuple(int(q) for q in key.split(",")) if key else ()


def divisor_name(instance: SelmerInstance, divisor) -> str:
    """The divisor's prime labels in index order, joined by dots; "1" when
    it is empty."""
    if not divisor:
        return "1"
    return ".".join(instance.primes[q].label for q in sorted(divisor))


# ---------------------------------------------------------------------------
# Instance generation and serialization.
# ---------------------------------------------------------------------------


def _draw_frobenius(ring, rng) -> FrobeniusData:
    if rng.randrange(3) == 0:
        return frobenius_data(ring, [[ring.one]])
    # companion-style 2x2 block: fixed line plus a unit-shifted second
    # eigenvalue, so the rank-one quotient and the unit are automatic
    while True:
        d = ring.random_element(rng)
        if ring.is_unit(ring.sub(d, ring.one)):
            break
    c = ring.random_element(rng)
    return frobenius_data(
        ring, [[ring.one, ring.zero], [c, d]])


def _draw_rows(ring, rng, profile: str, core_rank: int, s: int):
    n = core_rank + s
    finite, transverse = [], []
    for q in range(s):
        frow = [ring.random_element(rng) for _ in range(n)]
        trow = [ring.random_element(rng) for _ in range(n)]
        if profile == "class-trivial":
            frow[q] = ring.random_unit(rng)
        elif profile == "pir-basis":
            frow = [ring.zero] * n
            frow[q] = ring.one
            trow = [ring.zero] * n
            trow[q] = ring.random_unit(rng)
            for j in range(s, n):
                trow[j] = ring.random_element(rng)
        elif profile == "degenerate":
            p_elt = ring.from_int(ring.p)
            frow = [ring.mul(p_elt, c) for c in frow]
            trow = [ring.mul(p_elt, c) for c in trow]
            if rng.randrange(2):
                frow = [ring.zero] * n
        finite.append(frow)
        transverse.append(trow)
    return (Matrix(ring, finite, ncols=n), Matrix(ring, transverse, ncols=n))


def generate_instance(ring, core_rank: int, n_primes: int,
                      profile: str = "generic", seed: int = 0) -> SelmerInstance:
    """A deterministic random instance: same arguments, same instance."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {PROFILES}")
    rng = random.Random(
        f"selmer/{ring}/{core_rank}/{n_primes}/{profile}/{seed}")
    primes = []
    for q in range(n_primes):
        order = ring.p ** rng.randrange(1, 4)
        primes.append(PrimeData(f"q{q + 1}", order, _draw_frobenius(ring, rng)))
    finite, transverse = _draw_rows(ring, rng, profile, core_rank, n_primes)
    return SelmerInstance(ring, core_rank, primes, finite, transverse)


def instance_to_json(instance: SelmerInstance) -> dict:
    ring = instance.ring
    return {
        "schema": "selmer-instance/1",
        "ring": ring_to_json(ring),
        "core_rank": instance.core_rank,
        "primes": [
            {
                "label": pd.label,
                "group_order": pd.group_order,
                "frobenius": matrix_to_json(pd.frobenius.matrix),
            }
            for pd in instance.primes
        ],
        "finite": matrix_to_json(instance.finite),
        "transverse": matrix_to_json(instance.transverse),
    }


def _group_order(ring, value) -> int:
    """A symbol-group order as serialized: an int p^k with k >= 1, the rule
    ``generate_instance`` draws from."""
    if type(value) is not int or not power_exponent(value, ring.p):
        raise ValueError(
            f"group_order {value!r} is not a positive power of p = {ring.p}")
    return value


def _check_labels(primes) -> None:
    """The prime labels as serialized: distinct non-empty strings without
    '.' or '@', the separators of divisor names and check keys."""
    labels = [pd["label"] for pd in primes]
    for label in labels:
        if type(label) is not str or not label or "." in label or "@" in label:
            raise ValueError(
                f"prime label {label!r} is not a non-empty string "
                f"without '.' or '@'")
    if len(set(labels)) != len(labels):
        raise ValueError(f"prime labels {labels!r} are not distinct")


def instance_from_json(data: dict) -> SelmerInstance:
    if not isinstance(data, dict) or data.get("schema") != "selmer-instance/1":
        raise ValueError("not a serialized Selmer instance")
    ring = ring_from_json(data["ring"])
    core_rank = int_from_json(data["core_rank"], "core_rank")
    _check_labels(data["primes"])
    primes = [
        PrimeData(
            pd["label"],
            _group_order(ring, pd["group_order"]),
            frobenius_data(ring, matrix_from_json(ring, pd["frobenius"]).rows),
        )
        for pd in data["primes"]
    ]
    return SelmerInstance(
        ring,
        core_rank,
        primes,
        matrix_from_json(ring, data["finite"]),
        matrix_from_json(ring, data["transverse"]),
    )
