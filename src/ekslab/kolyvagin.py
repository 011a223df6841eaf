"""Rank-r families on the modified Selmer modules and the regulator map.

A component at a divisor lives in the degree-r bidual of the modified
Selmer module (transverse conditions inside the divisor, finite outside).
The defining relation compares, for each prime q dividing the divisor, the
singular value of the component with the finite-singular image of the
component one prime down.  The finite-singular map on the identified
rank-one local lines is multiplication by the comparison unit carried by
the prime's Frobenius data, optionally twisted by the chosen generator of
the prime's symbol group.

Every bidual here sits in the bidual of the free ambient through its one
embedding, and every map here is a contraction there.  Both sides of the
relation lie in the degree-(r-1) bidual of the module strict at q, which
embeds injectively in that of the free ambient, so the relation is an
equality of contracted ambient tables (``fs_holds``):

    singular_q _| T_n = u_q . (finite_q _| T_(n/q)),

with T_d the ambient table of the component at d and u_q the comparison
unit.  The regulator sends a divisor-indexed contraction system to such a
family: it contracts the ambient table of each relaxed component by the
wedge of the finite-part functionals of the primes in the divisor, reads
the result in the bidual of the modified Selmer module by its preimage
under that module's embedding, and scales by the comparison units and a
divisor sign.  The wedge order and the sign, which make the relation above
hold without any further factors, are stated once in
``biduals.contract_pullback``.

The value-content ideals of such a family, summed over divisors with a
fixed number of primes, sit inside the matching Fitting ideals of the dual
Selmer module, with equality for bases over chain rings.
"""

from __future__ import annotations

from math import comb

from .biduals import contract_pullback, interior_product
from .modules import (
    Ideal,
    ModuleMap,
    annihilator,
    is_injective,
    solve_map,
)
from .rings import (
    Matrix,
    element_to_json,
    howell_int,
    kernel_int,
    membership_int,
    row_module_size,
)
from .selmer import (
    SelmerInstance,
    core_vertices,
    divisor_key,
    instance_to_json,
)
from .stark import Family, FamilyData, StarkData, canonical_basis_system, \
    content_ideals, stark_from_top
from .stark import system_ideals as kolyvagin_ideals


def divisor_sign(ring, divisor):
    """The global sign carried by a regulator component at a divisor."""
    nu = len(divisor)
    total = nu * (nu + 1) // 2 + sum(divisor)
    return ring.one if total % 2 == 0 else ring.neg(ring.one)


class KolyvaginData(FamilyData):
    """Biduals of the modified Selmer modules of an instance, the regulator
    maps into them, and the comparison units of the defining relation.

    The Selmer modules are the instance's own (``selmer_module`` memoizes
    them); every divisor's degree is the core rank r.  The biduals and the
    regulator maps are cached here.  The relation is compared on the
    components' ambient tables (``fs_holds``), so it needs no bidual of its
    own.

    ``sigma_exponents`` records the chosen generator of each prime's symbol
    group as a unit exponent relative to the default choice; it twists the
    effective comparison units but nothing else.
    """

    __slots__ = ("rank", "sigma_exponents", "_reg_map")

    schema = "kolyvagin-system/1"

    def __init__(self, instance: SelmerInstance, sigma_exponents=None):
        super().__init__(instance)
        self.rank = instance.core_rank
        exps = dict(sigma_exponents or {})
        for q, a in exps.items():
            if a % instance.ring.p == 0:
                raise ValueError("generator exponent must be a unit")
        self.sigma_exponents = exps
        self._reg_map = {}

    def module(self, divisor):
        return self.instance.selmer_module(divisor)

    def degree(self, divisor) -> int:
        return self.rank

    def record_to_json(self) -> dict:
        return {"sigma_exponents": {
            str(q): a for q, a in sorted(self.sigma_exponents.items())}}

    def effective_unit(self, q: int):
        """The comparison unit at q for the chosen symbol-group generator."""
        u = self.instance.primes[q].frobenius.fs_unit
        a = self.sigma_exponents.get(q, 1)
        if a == 1:
            return u
        n = self.ring.base.n
        return self.ring.mul(u, self.ring.from_int(pow(a % n, -1, n)))


def _contract(data: KolyvaginData, row, table) -> list:
    """A degree-r table on the free ambient contracted by one functional."""
    return interior_product(data.ring, data.instance.ambient_rank, data.rank,
                            row, table)


def fs_holds(data: KolyvaginData, tables: dict, divisor, q: int) -> bool:
    """The defining relation at (divisor, q), q inside the divisor, on the
    ambient value tables of the components (keyed by sorted divisor): the
    singular contraction of the divisor's table equals the comparison unit
    times the finite-part contraction of the table one prime down.

    This is the comparison in the bidual of the module strict at q: both
    sides lie there, and its embedding in the bidual of the free ambient is
    injective and commutes with contraction.
    """
    inst = data.instance
    ring = data.ring
    key = tuple(sorted(divisor))
    lower = tuple(x for x in key if x != q)
    u = data.effective_unit(q)
    lhs = _contract(data, inst.singular_functional(q), tables[key])
    rhs = _contract(data, inst.finite_functional(q), tables[lower])
    return lhs == [ring.mul(u, c) for c in rhs]


def relation_failures(data: KolyvaginData, tables: dict) -> list:
    """The (divisor, prime) pairs at which ``fs_holds`` fails on ambient
    tables keyed by sorted divisor, in divisor order, then prime order."""
    return [(n, q) for n in data.instance.divisors() for q in n
            if not fs_holds(data, tables, n, q)]


def verify_fs(system: Family):
    """Check the defining relation at every (divisor, prime) pair.

    Returns ``(holds, failures)`` where failures lists the pairs at which
    the singular value of the component does not match the finite-singular
    image of the component one prime down (``relation_failures`` on the
    components' ambient tables).
    """
    data = system.data
    tables = {n: data.ambient_table(n, system.component(n))
              for n in data.instance.divisors()}
    failures = relation_failures(data, tables)
    return not failures, failures


def component_from_ambient_table(data: KolyvaginData, divisor, table):
    """Coordinates of a component given as a degree-r value table on the
    free ambient module, or None when the table is malformed.

    The table is malformed when it is not a functional, or when it has no
    preimage under the modified Selmer module's bidual ``embedding``: the
    embedding is injective, so the preimage decides membership."""
    bid = data.bidual(divisor)
    coords = bid.free.from_table(list(table))
    if coords is None:
        return None
    return solve_map(bid.embedding, coords)


def system_from_ambient_tables(data: KolyvaginData, tables: dict):
    """Assemble a system from ambient value tables, reporting malformed
    divisors separately from everything else.

    Returns ``(system, malformed)``; the system is None when any divisor's
    table fails to define an element of the right bidual.
    """
    comps = {}
    malformed = []
    for d in data.instance.divisors():
        coords = component_from_ambient_table(data, d, tables[tuple(sorted(d))])
        if coords is None:
            malformed.append(tuple(sorted(d)))
        else:
            comps[tuple(sorted(d))] = coords
    if malformed:
        return None, malformed
    return Family(data, comps), []


def regulator_component_map(sdata: StarkData, kdata: KolyvaginData,
                            divisor) -> ModuleMap:
    """The per-divisor linear map applied by the regulator.

    From the degree-(r + nu) bidual of the relaxed module to the degree-r
    bidual of the modified Selmer module: contraction by the wedge of the
    divisor's finite-part functionals in the free ambient, read in the
    modified bidual through its embedding, and scaled by the comparison
    units and the divisor sign.
    """
    key = tuple(sorted(divisor))
    if key not in kdata._reg_map:
        ring = kdata.ring
        inst = kdata.instance
        scale = divisor_sign(ring, key)
        for q in key:
            scale = ring.mul(scale, kdata.effective_unit(q))
        kdata._reg_map[key] = contract_pullback(
            sdata.bidual(key), {q: inst.finite_functional(q) for q in key},
            kdata.bidual(key), scale,
            "regulator component does not lie in the modified bidual")
    return kdata._reg_map[key]


def regulator(stark_system: Family, kdata: KolyvaginData) -> Family:
    """The regulator image of a divisor-indexed contraction system.

    Each component is the image of the relaxed component under
    ``regulator_component_map``.
    """
    sdata = stark_system.data
    if sdata.instance is not kdata.instance:
        raise ValueError("regulator needs both views of one instance")
    comps = {}
    for n in kdata.instance.divisors():
        key = tuple(sorted(n))
        f = regulator_component_map(sdata, kdata, key)
        comps[key] = f.apply(stark_system.component(key))
    return Family(kdata, comps)


def regulator_injectivity_certificate(sdata: StarkData,
                                      kdata: KolyvaginData) -> bool:
    """Whether some core vertex certifies injectivity of the regulator.

    At a core vertex the projection from the top is bijective, so an
    injective per-divisor regulator map there forces the whole regulator to
    be injective on divisor-indexed contraction systems.
    """
    for n in core_vertices(kdata.instance):
        if is_injective(regulator_component_map(sdata, kdata, n)):
            return True
    return False


def core_projection_invert(sdata: StarkData, kdata: KolyvaginData,
                           divisor, x) -> Family:
    """The contraction system whose regulator hits x at a core vertex.

    Solves the per-divisor regulator map for the relaxed component, lifts
    it to the top along the bijective core projection, and rebuilds the
    unique system through that vertex.  Composing with the regulator
    reproduces x at the vertex.
    """
    key = tuple(sorted(divisor))
    if not kdata.instance.is_core(key):
        raise ValueError("inversion needs a core vertex")
    f = regulator_component_map(sdata, kdata, key)
    eps_n = solve_map(f, list(x))
    if eps_n is None:
        raise RuntimeError(
            "value outside the regulator image at a core vertex: "
            "model violation")
    proj = sdata.transition(sdata.top_divisor, key)
    top = solve_map(proj, eps_n)
    if top is None:
        raise RuntimeError(
            "core projection failed to invert: model violation")
    return stark_from_top(sdata, top)


def level_table(system: Family) -> dict:
    """The per-level part of the structure theorem's fact table, which
    ``derive`` reports: ``contents``, each divisor's content ideal;
    ``levels``, their sums over the divisors with i primes (the
    ``kolyvagin_ideals``); ``fitting``, the Fitting ideals of the
    unmodified dual Selmer module; and per level i, whether ``levels[i]``
    sits inside (``contained``) and equals (``equal``) ``fitting[i]``."""
    inst = system.data.instance
    contents, levels = content_ideals(system)
    fitts = [inst.dual_fitting(i) for i in range(len(levels))]
    return {
        "contents": contents,
        "levels": levels,
        "fitting": fitts,
        "contained": [I.leq(F) for I, F in zip(levels, fitts)],
        "equal": [I == F for I, F in zip(levels, fitts)],
    }


THEOREM_FACTS = ("im_in_fitt0", "im_equals_fitt0", "levels_in_fitt",
                 "levels_equal_fitt")


def verify_main_theorem(system: Family) -> dict:
    """The fact table of the structural comparison with Fitting ideals of
    dual Selmer modules, each content and Fitting ideal computed once.

    Holds the entries of ``level_table``; ``fitt0``, the zeroth Fitting
    ideal of the dual Selmer module modified at each divisor;
    ``chain_ring``; and the four raw facts of ``THEOREM_FACTS``: whether
    every component's content sits inside (``im_in_fitt0``) and equals
    (``im_equals_fitt0``) its ``fitt0``, and whether every level ideal sits
    inside (``levels_in_fitt``) and equals (``levels_equal_fitt``) its
    ``fitting``.  ``failing`` names, per fact, the divisors d (the ``im_*``
    facts) or the levels i (the ``levels_*`` facts) where it fails, so a
    fact holds exactly when its list is empty.  The containments hold for
    every system in the defining-relation module; the equalities are the
    claims for bases, the level one over chain rings
    (``main_theorem_holds``).
    """
    inst = system.data.instance
    table = level_table(system)
    contents = table["contents"]
    fitt0 = table["fitt0"] = {d: inst.dual_fitting(0, d) for d in contents}
    failing = table["failing"] = {
        "im_in_fitt0": [d for d in contents if not contents[d].leq(fitt0[d])],
        "im_equals_fitt0": [d for d in contents if contents[d] != fitt0[d]],
        "levels_in_fitt": [i for i, ok in enumerate(table["contained"])
                           if not ok],
        "levels_equal_fitt": [i for i, ok in enumerate(table["equal"])
                              if not ok],
    }
    table["chain_ring"] = system.data.ring.rank == 1
    table.update((key, not failing[key]) for key in THEOREM_FACTS)
    return table


def main_theorem_holds(facts: dict, is_basis: bool) -> bool:
    """The theorem's verdict, read from a ``verify_main_theorem`` table:
    the containments ``im_in_fitt0`` and ``levels_in_fitt`` always, the
    per-divisor equality ``im_equals_fitt0`` for bases, and the level
    equality ``levels_equal_fitt`` for bases over chain rings
    (``chain_ring``)."""
    claimed = ["im_in_fitt0", "levels_in_fitt"]
    if is_basis:
        claimed.append("im_equals_fitt0")
        if facts["chain_ring"]:
            claimed.append("levels_equal_fitt")
    return all(facts[key] for key in claimed)


def fitt_ind_corollary(instance: SelmerInstance, i: int) -> dict:
    """The summed form of the Fitting-ideal induction.

    The sum over divisors with i primes of the zeroth Fitting ideals of
    their dual Selmer modules sits inside the i-th Fitting ideal of the
    unmodified dual Selmer module; equality is reported together with the
    annihilator condition (every divisor's Selmer module must have
    vanishing annihilator) that the theory pairs with it.
    """
    lhs = Ideal.zero(instance.ring)
    for d in instance.divisors():
        if len(d) == i:
            lhs = lhs.add(instance.dual_fitting(0, d))
    rhs = instance.dual_fitting(i)
    ann_all = all(
        annihilator(instance.selmer_module(d)[0]).is_zero()
        for d in instance.divisors())
    return {
        "contained": lhs.leq(rhs),
        "equal": lhs == rhs,
        "ann_vanishes": ann_all,
    }


# ---------------------------------------------------------------------------
# Exhaustive enumeration of the solution module (small instances only).
# ---------------------------------------------------------------------------


def enumerate_systems(kdata: KolyvaginData):
    """Solve the defining relations exactly as one base-level linear system.

    Each relation is the equality of ``fs_holds`` written on coordinates:
    the contractions of the columns of each bidual's ``embedding`` (the
    ambient tables of its generators) give base-level rows over the free
    target, where an element is zero exactly when its coordinates are.

    Returns ``(howell_rows, layout, size)``: the Howell rows of the raw
    coordinate solution space, the per-divisor slice layout, and the number
    of distinct systems (raw solutions divided by the relation translates
    of every component's presentation).
    """
    inst = kdata.instance
    ring = kdata.ring
    base = ring.base
    d = ring.rank
    divisors = inst.divisors()
    layout = {}
    offset = 0
    for n in divisors:
        g = kdata.bidual(n).module.ngens
        layout[n] = (offset, g)
        offset += g * d
    width = offset
    t = comb(inst.ambient_rank, kdata.rank - 1)

    def contracted(divisor, row, scale) -> list:
        """The base matrix of x -> scale . (row _| P x), P the divisor's
        embedding."""
        embedding = kdata.bidual(divisor).embedding.matrix
        cols = [[ring.mul(scale, c) for c in _contract(kdata, row, col)]
                for col in embedding.transpose().rows]
        return Matrix(ring, [[col[a] for col in cols] for a in range(t)],
                      ncols=len(cols)).to_base()

    cond_rows = []
    for n in divisors:
        for q in n:
            lower = tuple(x for x in n if x != q)
            vb = contracted(n, inst.singular_functional(q), ring.one)
            fb = contracted(lower, inst.finite_functional(q),
                            kdata.effective_unit(q))
            off_n, g_n = layout[n]
            off_l, g_l = layout[lower]
            for v_row, f_row in zip(vb, fb):
                row = [0] * width
                row[off_n:off_n + g_n * d] = v_row
                row[off_l:off_l + g_l * d] = [-x % base.n for x in f_row]
                cond_rows.append(row)

    if cond_rows:
        sol_rows = kernel_int(cond_rows, base.p, base.m)
    else:
        sol_rows = [[int(i == j) for j in range(width)] for i in range(width)]
    howell = howell_int(sol_rows, width, base.p, base.m)
    raw = row_module_size(howell, base.p, base.m)

    translates = 1
    for n in divisors:
        module = kdata.bidual(n).module
        translates *= row_module_size(module.rel_howell, base.p, base.m)
    return howell, layout, raw // translates


def system_coordinate_vector(system: Family, layout, width=None) -> list:
    """The flat base-coordinate vector of a system in an enumeration layout."""
    ring = system.data.ring
    d = ring.rank
    if width is None:
        width = sum(g * d for _off, g in layout.values())
    vec = [0] * width
    for key, (off, g) in layout.items():
        flat = ring.vec_to_base(system.component(key))
        vec[off:off + g * d] = flat
    return vec


def ks_solution_report(kdata: KolyvaginData, sdata: StarkData) -> dict:
    """Empirical structure of the full solution module (small instances).

    The solution module of the defining relations in a finite truncation
    may be larger than the regulator image; this report gives the exact
    count of distinct solutions, whether the regulator image of the
    canonical basis lies in it (it always must), and whether it generates
    everything — i.e. whether the solution module is free of rank one.
    """
    ring = kdata.ring
    base = ring.base
    howell, layout, count = enumerate_systems(kdata)
    reg = regulator(canonical_basis_system(sdata), kdata)
    width = sum(g * ring.rank for _off, g in layout.values())
    vec = system_coordinate_vector(reg, layout, width)
    contained = bool(membership_int(vec, howell, base.p, base.m))
    span = []
    for k in range(ring.rank):
        unit_vec = (0,) * k + (1,) + (0,) * (ring.rank - 1 - k)
        e_k = unit_vec if ring.rank > 1 else 1
        scaled = reg.scaled(e_k)
        span.append(system_coordinate_vector(scaled, layout, width))
    for key, (off, g) in layout.items():
        module = kdata.bidual(key).module
        for rel in module.rel_howell:
            row = [0] * width
            row[off:off + g * ring.rank] = rel
            span.append(row)
    generates = howell_int(span, width, base.p, base.m) == howell
    return {
        "count": count,
        "ring_size": ring.size,
        "regulator_contained": contained,
        "regulator_generates": generates,
        "free_rank_one": count == ring.size and contained and generates,
    }


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def family_to_json(system: Family) -> dict:
    """Self-contained JSON form of a Stark or Kolyvagin system: the schema
    of its data, the instance, the components and the data's own record
    (for Kolyvagin data, the generator record)."""
    data = system.data
    ring = data.ring
    doc = {
        "schema": data.schema,
        "instance": instance_to_json(data.instance),
        "components": {
            divisor_key(d): [element_to_json(ring, x) for x in v]
            for d, v in sorted(system.components.items())
        },
    }
    doc.update(data.record_to_json())
    return doc


# The writer's traced name (perfbench/tracer.py): ``derive`` writes the
# Kolyvagin system it reads off the derived classes.
kolyvagin_to_json = family_to_json
