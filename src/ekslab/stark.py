"""Divisor-indexed systems of bidual elements under singular contraction.

The relaxed module at a divisor imposes the finite local condition at every
prime outside the divisor and nothing at the primes inside; the fully
relaxed module is the free ambient itself, whose top-degree bidual is free
of rank one.  A system is a family of elements, one per divisor, compatible
under the transition maps that contract by wedges of singular-part
functionals (``biduals.contract_pullback``, which states the wedge order
and the sign that make the transitions compose exactly; the tests check it
on every chain of divisors).  Because the top bidual is free of rank one,
each system is determined by its top component.

The value-content ideals of a system, summed over divisors with a fixed
number of primes, recover the Fitting ideals of the dual Selmer module
scaled by the content of the top component — the structure theorem this
module exists to demonstrate.
"""

from __future__ import annotations

from .biduals import (
    ExteriorBidual,
    bidual_functor_map,
    content_ideal,
    contract_pullback,
    reduce_element,
    reduce_table,
)
from .modules import (
    FPModule,
    Ideal,
    ModuleMap,
    is_isomorphism,
    is_surjective,
)
from .rings import Matrix, make_ring
from .selmer import PrimeData, SelmerInstance, core_vertices, frobenius_data, min_generators


class FamilyData:
    """What a divisor-indexed family lives on.  A subclass supplies, at
    each divisor, ``module(divisor)``: a module cut out of the free ambient
    with its inclusion, and ``degree(divisor)``: a bidual degree.

    Cached here: the biduals per (divisor, degree), one bidual of the free
    ambient per degree, and per divisor the bidual functor map of the
    inclusion into it (``ambient_push``), where components become
    presentation-free value tables.  Divisors are sorted tuples of prime
    indices.
    """

    __slots__ = ("instance", "ring", "_bidual", "_free", "_push")

    def __init__(self, instance: SelmerInstance):
        self.instance = instance
        self.ring = instance.ring
        self._bidual = {}
        self._free = {}
        self._push = {}

    @property
    def top_divisor(self) -> tuple:
        return tuple(range(self.instance.n_primes))

    def bidual(self, divisor, degree=None) -> ExteriorBidual:
        key = tuple(sorted(divisor))
        deg = self.degree(key) if degree is None else degree
        if (key, deg) not in self._bidual:
            self._bidual[(key, deg)] = ExteriorBidual(self.module(key)[0], deg)
        return self._bidual[(key, deg)]

    def ambient_push(self, divisor):
        """``(free, push)``: the bidual of the free ambient in the divisor's
        degree, and the bidual functor map into it of the divisor's
        inclusion."""
        key = tuple(sorted(divisor))
        if key not in self._push:
            deg = self.degree(key)
            if deg not in self._free:
                self._free[deg] = ExteriorBidual(
                    FPModule.free(self.ring, self.instance.ambient_rank), deg)
            push = bidual_functor_map(
                self.module(key)[1], deg, self.bidual(key), self._free[deg])
            self._push[key] = (self._free[deg], push)
        return self._push[key]

    def ambient_table(self, divisor, coords) -> list:
        """The value table of a component pushed into the bidual of the free
        ambient: indexed by plain subsets of coordinates, so it compares
        components across presentations and coefficient rings."""
        free, push = self.ambient_push(divisor)
        return free.table(push.apply(list(coords)))

    def record_to_json(self) -> dict:
        """Document fields, besides the instance, that record this data's
        own choices."""
        return {}


_TRANSITION_ERRORS = (
    "a singular functional is not in the dual of the relaxed module",
    "relaxed module escapes the more relaxed one",
    "a contracted element does not lie in the smaller bidual",
)


class StarkData(FamilyData):
    """The relaxed modules' biduals, the transition maps, and the canonical
    basis system of an instance.

    The relaxed modules are the instance's own (``relaxed_module`` memoizes
    them with the Selmer modules they coincide with); a divisor's degree is
    the core rank plus its prime count.  Cached here besides the biduals:
    the transitions, and the canonical basis system and whether it is a
    basis, which the kolyvagin and stark suites share.
    """

    __slots__ = ("_transition", "_canonical", "_is_basis")

    schema = "stark-system/1"

    def __init__(self, instance: SelmerInstance):
        super().__init__(instance)
        self._transition = {}
        self._canonical = None
        self._is_basis = None

    def module(self, divisor):
        return self.instance.relaxed_module(divisor)

    def degree(self, divisor) -> int:
        """Bidual degree attached to a divisor: core rank + prime count."""
        return self.instance.core_rank + len(divisor)

    def transition(self, m_div, n_div) -> ModuleMap:
        """The transition from the bidual at the larger divisor to the one at
        the smaller: contract by the singular wedge, pull back, sign."""
        m_key, n_key = tuple(sorted(m_div)), tuple(sorted(n_div))
        if not set(n_key) <= set(m_key):
            raise ValueError("transitions go from a divisor to its subdivisors")
        if (m_key, n_key) not in self._transition:
            self._transition[(m_key, n_key)] = self._build_transition(m_key, n_key)
        return self._transition[(m_key, n_key)]

    def _build_transition(self, m_key, n_key) -> ModuleMap:
        ring = self.ring
        if m_key == n_key:
            return ModuleMap.identity(self.bidual(m_key).module)
        inst = self.instance
        qs = set(m_key) - set(n_key)
        t = sum(1 for q in qs for qp in range(inst.n_primes)
                if qp not in m_key and qp < q)
        return contract_pullback(
            self.bidual(m_key), self.module(m_key)[1],
            {q: inst.singular_functional(q) for q in qs},
            self.bidual(m_key, self.degree(n_key)), self.module(n_key)[1],
            self.bidual(n_key), ring.one if t % 2 == 0 else ring.neg(ring.one),
            _TRANSITION_ERRORS)


class Family:
    """A divisor-indexed family of bidual elements on a ``FamilyData``: a
    Stark system on ``StarkData``, a Kolyvagin system on ``KolyvaginData``.
    ``components`` maps each sorted divisor tuple to the coordinate vector
    of its element in the data's bidual at that divisor."""

    __slots__ = ("data", "components")

    def __init__(self, data: FamilyData, components: dict):
        self.data = data
        self.components = {tuple(sorted(d)): list(v)
                           for d, v in components.items()}

    def component(self, divisor) -> list:
        return list(self.components[tuple(sorted(divisor))])

    def top_component(self) -> list:
        return self.component(self.data.top_divisor)

    def scaled(self, c) -> "Family":
        ring = self.data.ring
        return Family(self.data, {
            d: [ring.mul(c, x) for x in v] for d, v in self.components.items()})


def stark_from_top(data: StarkData, top_coords) -> Family:
    """The system with the given top component: every other component is the
    image under the transition from the top divisor."""
    top = data.top_divisor
    comps = {}
    for d in data.instance.divisors():
        comps[d] = data.transition(top, d).apply(list(top_coords))
    return Family(data, comps)


def canonical_basis_system(data: StarkData) -> Family:
    """The system whose top component is the canonical generator of the top
    bidual of the free ambient: the functional with value one on the single
    top wedge monomial.  Built once per ``StarkData``; a failure caches
    nothing, so every caller sees it."""
    if data._canonical is None:
        bid = data.bidual(data.top_divisor)
        coords = bid.from_table([data.ring.one])
        if coords is None:
            raise RuntimeError("the canonical top table is not a functional")
        data._canonical = stark_from_top(data, coords)
    return data._canonical


def system_is_basis(system: Family) -> bool:
    """Whether the system generates the module of all systems, i.e. whether
    its top component generates the (free rank one) top bidual."""
    data = system.data
    module = data.bidual(data.top_divisor).module
    ring = data.ring
    span = ModuleMap(FPModule.free(ring, 1), module,
                     Matrix(ring, [[c] for c in system.top_component()], ncols=1))
    return is_surjective(span)


def canonical_is_basis(data: StarkData) -> bool:
    """``system_is_basis`` of the canonical basis system, computed once per
    ``StarkData``."""
    if data._is_basis is None:
        data._is_basis = system_is_basis(canonical_basis_system(data))
    return data._is_basis


def system_compatible(system: Family) -> bool:
    """Every transition carries the larger component to the smaller one."""
    data = system.data
    divisors = data.instance.divisors()
    for m in divisors:
        m_set = set(m)
        for n in divisors:
            if not set(n) <= m_set:
                continue
            img = data.transition(m, n).apply(system.component(m))
            if not data.bidual(n).module.elements_equal(img, system.component(n)):
                return False
    return True


def content_ideals(system):
    """``(contents, levels)``: the content ideal of each component (the
    ideal generated by all its values) keyed by divisor, and their sums by
    level, the i-th over the divisors with i primes."""
    data = system.data
    contents = {}
    levels = [Ideal.zero(data.ring)] * (data.instance.n_primes + 1)
    for d in data.instance.divisors():
        contents[d] = content_ideal(data.bidual(d), system.component(d))
        levels[len(d)] = levels[len(d)].add(contents[d])
    return contents, levels


def system_ideals(system) -> list:
    """The content ideals of the system, one per level: the i-th entry is
    generated by all values of all components at divisors with i primes.

    Any family of bidual elements indexed by divisors works: a Stark
    system, or a Kolyvagin system (``kolyvagin.kolyvagin_ideals``)."""
    return content_ideals(system)[1]


def verify_cocycle(data: StarkData) -> bool:
    """Transition maps compose exactly along every chain of three divisors."""
    divisors = data.instance.divisors()
    for m in divisors:
        m_set = set(m)
        for mp in divisors:
            if not set(mp) <= m_set:
                continue
            mp_set = set(mp)
            for n in divisors:
                if not set(n) <= mp_set:
                    continue
                direct = data.transition(m, n)
                two_step = data.transition(mp, n).compose(data.transition(m, mp))
                if not direct.equals(two_step):
                    return False
    return True


def core_projections_bijective(data: StarkData) -> bool:
    """At every core divisor (vanishing dual Selmer of the modified
    structure) the projection from the top bidual is an isomorphism."""
    top = data.top_divisor
    return all(is_isomorphism(data.transition(top, d))
               for d in core_vertices(data.instance))


def verify_stark_theorem(system: Family, is_basis: bool) -> dict:
    """The structure theorem for the content ideals of a system.

    Returns named boolean verdicts: the ideals ascend with the level,
    stabilize from the minimal generator count of the dual Selmer module
    on, the system is a basis (``is_basis``, the caller's
    ``system_is_basis``) exactly when the final ideal is the unit ideal,
    and every ideal is the final one times the matching Fitting ideal of
    the dual Selmer module (``SelmerInstance.dual_fitting``).
    """
    instance = system.data.instance
    ideals = system_ideals(system)
    top = ideals[-1]
    mu = min_generators(instance.dual_selmer(()))
    return {
        "ascending": all(ideals[i].leq(ideals[i + 1])
                         for i in range(len(ideals) - 1)),
        "stabilizes": all(ideals[i] == top
                          for i in range(min(mu, len(ideals) - 1), len(ideals))),
        "basis_iff_unit_content": is_basis == top.is_unit(),
        "factors_through_top": all(I == top.mul(instance.dual_fitting(i))
                                   for i, I in enumerate(ideals)),
    }


# ---------------------------------------------------------------------------
# Coefficient towers (chain rings only).
# ---------------------------------------------------------------------------


def reduce_instance(instance: SelmerInstance, S) -> SelmerInstance:
    """The instance with every coefficient reduced along R -> S."""
    R = instance.ring

    def red_matrix(M):
        return Matrix(S, [[reduce_element(R, S, c) for c in row]
                          for row in M.rows], ncols=M.ncols)

    primes = [
        PrimeData(pd.label, pd.group_order,
                  frobenius_data(S, red_matrix(pd.frobenius.matrix).rows))
        for pd in instance.primes
    ]
    return SelmerInstance(S, instance.core_rank, primes,
                          red_matrix(instance.finite),
                          red_matrix(instance.transverse))


def reduce_ideal(R, S, ideal: Ideal) -> Ideal:
    """The image ideal under coefficient reduction R -> S."""
    return Ideal(S, [reduce_element(R, S, g) for g in ideal.gens])


class StarkTower:
    """One instance over Z/p^m together with its reductions to every lower
    power of p, and the induced reduction and lifting of systems.

    Chain-ring coefficients only; the top coordinate of a system is a plain
    integer residue, so lifting means reading the same integer in the next
    ring up and reducing means taking it mod the smaller power.
    """

    __slots__ = ("top_level", "p", "_instances", "_data")

    def __init__(self, instance: SelmerInstance):
        ring = instance.ring
        if ring.rank != 1:
            raise ValueError("towers require chain-ring coefficients")
        self.top_level = ring.m
        self.p = ring.p
        self._instances = {ring.m: instance}
        self._data = {}

    @property
    def levels(self) -> list:
        return list(range(1, self.top_level + 1))

    def ring_at(self, level: int):
        return make_ring(self.p, level)

    def instance_at(self, level: int) -> SelmerInstance:
        if level < 1 or level > self.top_level:
            raise ValueError("level outside the tower")
        if level not in self._instances:
            upper = self.instance_at(level + 1)
            self._instances[level] = reduce_instance(upper, self.ring_at(level))
        return self._instances[level]

    def data_at(self, level: int) -> StarkData:
        if level not in self._data:
            self._data[level] = StarkData(self.instance_at(level))
        return self._data[level]

    def reduce_system(self, level: int, system: Family) -> Family:
        """The system one level down with the reduced top coordinate."""
        if level <= 1:
            raise ValueError("nothing below the first level")
        R = self.ring_at(level)
        S = self.ring_at(level - 1)
        top = [reduce_element(R, S, c) for c in system.top_component()]
        return stark_from_top(self.data_at(level - 1), top)

    def lift_system(self, level: int, system: Family) -> Family:
        """A system one level up reducing to the given one: the top
        coordinate lifts as the same integer residue."""
        if level >= self.top_level:
            raise ValueError("nothing above the top level")
        top = [int(c) for c in system.top_component()]
        return stark_from_top(self.data_at(level + 1), top)

    def systems_from_top(self, top_system: Family) -> dict:
        """The compatible family obtained by reducing a top-level system
        down the whole tower, keyed by level."""
        out = {self.top_level: top_system}
        for level in range(self.top_level, 1, -1):
            out[level - 1] = self.reduce_system(level, out[level])
        return out


def shadow_reduction_matches(tower: StarkTower, level: int,
                             system: Family) -> bool:
    """Componentwise check that reduction commutes with the construction:
    the free-ambient value table of every component, reduced entrywise,
    equals the table of the reduced system's component."""
    low = tower.reduce_system(level, system)
    R = tower.ring_at(level)
    S = tower.ring_at(level - 1)
    data_hi = tower.data_at(level)
    data_lo = tower.data_at(level - 1)
    for d in data_hi.instance.divisors():
        hi = data_hi.ambient_table(d, system.component(d))
        lo = data_lo.ambient_table(d, low.component(d))
        if reduce_table(R, S, hi) != lo:
            return False
    return True


def tower_exponent_table(tower: StarkTower, top_system: Family) -> list:
    """Exponents of the content ideals down the tower.

    Entry [i][level - 1] is the exponent k with the level's i-th content
    ideal equal to (p^k) — the zero ideal giving the level itself.  The
    recurrence k(level) = min(k(level + 1), level) holds row by row, which
    is how the limits stabilize.
    """
    systems = tower.systems_from_top(top_system)
    s = tower.instance_at(tower.top_level).n_primes
    table = [[0] * tower.top_level for _ in range(s + 1)]
    for level in tower.levels:
        ideals = system_ideals(systems[level])
        for i in range(s + 1):
            table[i][level - 1] = ideals[i].exponent()
    return table
