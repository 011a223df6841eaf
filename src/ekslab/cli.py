"""Command-line harness: deterministic artifact generation, verification
suites, the derivation pipeline, the core-vertex graph, and report
formatting.

Artifacts and reports are schema-versioned JSON written canonically
(sorted keys, fixed separators), so identical configurations produce
byte-identical files.  Suites run one after another in the calling
thread, in the fixed order bidual, selmer, kolyvagin, stark, euler,
whatever order ``--suite`` names them in.  The kolyvagin and stark suites
share one ``StarkData``, with its canonical basis system and whether that
is a basis (and both read the instance's memoized Selmer modules and
Fitting ideals), so kolyvagin runs first: it needs only the transitions
from the top divisor and frees its own data before stark builds every
transition.
Every cached object is a deterministic function of the instance, so the
order changes which suite builds it, never its value; the report is
assembled in sorted order and ``config.suites`` keeps the requested list,
so the bytes do not depend on the order either.  The recorded timings are
deterministic work counts (checks run per suite), never wall-clock
readings, keeping reports byte-stable.

The euler suite of a bundle runs ``derive``'s checks of the derivative
over the bundle's instance (``derivative_checks``), so ``verify`` and
``derive`` of one bundle agree on them.  Both read a bundle through
``_load_pair``, which rejects parts that do not fit each other.

Exit codes: 0 when every selected check passes, 1 when at least one
check fails (the report is still written), 2 for invalid parameters (an
empty suite list among them), unreadable artifacts, a bundle whose parts
do not fit (a group-ring instance, or another modulus, ambient rank or
degree than the family's) or an output path that cannot be written.
``derive`` also exits 2, writing nothing, when the family is not an Euler
system (a level's derivative element is not invariant), where ``verify``
reports that as failed checks and skips derive's checks.  ``report``
takes its exit code from the report's checks, and exits 2 when the
report's ``passed`` flag disagrees with them.
"""

import argparse
import json
import random
import sys

from .biduals import ExteriorBidual, fitt0_via_bidual, r_subsets
from .euler import (
    EulerTower,
    consistent_instance,
    derivative_report,
    derived_tables,
    invariance_holds,
    random_system,
)
from .euler import system_from_json as euler_system_from_json
from .euler import system_to_json as euler_system_to_json
from .kolyvagin import (
    THEOREM_FACTS,
    KolyvaginData,
    family_to_json,
    level_table,
    main_theorem_holds,
    regulator,
    system_from_ambient_tables,
    verify_fs,
    verify_main_theorem,
)
from .modules import FPModule, Ideal, dual_module
from .rings import make_ring
from .selmer import (
    PROFILES,
    core_vertices,
    divisor_name,
    five_term_exact,
    fitt_recursion_holds,
    generate_instance,
    instance_from_json,
    instance_to_json,
)
from .stark import (
    StarkData,
    canonical_basis_system,
    canonical_is_basis,
    core_projections_bijective,
    system_compatible,
    verify_cocycle,
    verify_stark_theorem,
)


class CommandError(Exception):
    """Invalid configuration, unreadable artifact or unwritable output;
    exits with code 2."""


# ---------------------------------------------------------------------------
# Canonical serialization and small helpers.
# ---------------------------------------------------------------------------


def canonical_json(doc) -> str:
    """The one serialized form every artifact and report uses."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path: str, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CommandError(f"{path} is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise CommandError(f"{path} is not a JSON object")
    return doc


def _parse_artifact(parse, doc, part=None):
    """``parse(doc)``, or ``parse(doc[part])`` for one part of a bundle, with
    the errors of malformed data (missing keys, wrong types, ragged rows,
    bad ring parameters) reported as a CommandError."""
    try:
        return parse(doc if part is None else doc[part])
    except (KeyError, TypeError, IndexError, ValueError,
            ArithmeticError) as exc:
        where = f" (part {part!r})" if part is not None else ""
        raise CommandError(
            f"malformed artifact{where}: {type(exc).__name__}: {exc}")


def parse_ring_spec(spec: str):
    """A ring from "p,m" or "p,m,order,..." (group-ring factors)."""
    try:
        parts = [int(x) for x in spec.split(",")]
    except ValueError:
        raise CommandError(f"malformed ring spec {spec!r}")
    if len(parts) < 2:
        raise CommandError("ring spec needs at least p,m")
    p, m, orders = parts[0], parts[1], tuple(parts[2:])
    try:
        return make_ring(p, m, orders)
    except (ValueError, ArithmeticError) as exc:
        raise CommandError(f"bad ring parameters: {exc}")


def _level_name(divisor) -> str:
    if not divisor:
        return "()"
    return ".".join(str(q) for q in sorted(divisor))


def ideal_json(ideal: Ideal) -> dict:
    """Canonical generator rows; chain-ring ideals also carry the p-power
    exponent (the modulus exponent encodes the zero ideal)."""
    doc = {"generators": [list(row) for row in ideal.howell]}
    if ideal.ring.rank == 1:
        doc["exponent"] = ideal.exponent()
    return doc


# ---------------------------------------------------------------------------
# Verification suites.  Each returns {"checks": {...}, "witnesses": {...},
# "data": {...}} with deterministic, JSON-ready values.
# ---------------------------------------------------------------------------


def _suite_result(checks, witnesses=None, data=None):
    return {"checks": checks, "witnesses": witnesses or {}, "data": data or {}}


def suite_bidual(instance, seed: int):
    """Identities of the bidual layer over the artifact's ring: the wedge
    map is an isomorphism on the free ambient, double duals recover the
    module presented by the finite rows, and the top-contraction route
    to the zeroth Fitting ideal matches the minors route."""
    ring = instance.ring
    n = instance.ambient_rank
    rng = random.Random(f"bidual/{seed}")
    checks = {}
    for r in range(1, min(3, n) + 1):
        width = len(r_subsets(n, r))
        if width > 35:
            break
        bid = ExteriorBidual(FPModule.free(ring, n), r)
        wedge_map = bid.xi()
        vectors = [[ring.one if i == 0 else ring.zero for i in range(width)]]
        for _ in range(3):
            vectors.append([ring.random_element(rng) for _ in range(width)])
        checks[f"free-wedge-roundtrip/r{r}"] = all(
            bid.table(wedge_map.apply(list(w))) == list(w) for w in vectors)
    presented = FPModule(ring, n, instance.finite)
    first, _ = dual_module(presented)
    second, _ = dual_module(first)
    checks["double-dual-size"] = presented.size == second.size
    rows = [list(r) for r in instance.condition_matrix(()).rows]
    if rows:
        checks["fitt0-contraction-route"] = (
            fitt0_via_bidual(ring, n, rows) == instance.dual_fitting(0))
    return _suite_result(checks)


def suite_selmer(instance):
    """Exactness and rank bookkeeping of the local-condition model: the
    five-term comparison sequence at every (divisor, prime), the
    Fitting-ideal recursion, and the constant residue-rank difference."""
    checks = {}
    for d in instance.divisors():
        name = divisor_name(instance, d)
        lam, lam_star = instance.residue_ranks(d)
        checks[f"rank-difference/{name}"] = (
            lam - lam_star == instance.core_rank)
        for q in range(instance.n_primes):
            label = instance.primes[q].label
            checks[f"five-term/{name}@{label}"] = five_term_exact(
                instance, d, q)
        for i in range(1, instance.n_primes + 1):
            checks[f"fitt-recursion/{name}/i{i}"] = fitt_recursion_holds(
                instance, d, i)
    return _suite_result(checks)


def suite_stark(data: StarkData):
    """The transition-compatible side: cocycle identity of the transition
    maps, bijectivity of the core projections, and the structure theorem
    for the canonical basis family's content ideals."""
    checks, witnesses = {}, {}
    checks["cocycle"] = verify_cocycle(data)
    checks["core-projections"] = core_projections_bijective(data)
    try:
        system = canonical_basis_system(data)
    except (ValueError, RuntimeError) as exc:
        checks["canonical-basis"] = False
        witnesses["canonical-basis"] = str(exc)
        return _suite_result(checks, witnesses)
    checks["canonical-basis"] = True
    checks["compatible"] = system_compatible(system)
    checks["basis"] = is_basis = canonical_is_basis(data)
    for key, value in verify_stark_theorem(system, is_basis).items():
        checks[f"theorem/{key.replace('_', '-')}"] = value
    return _suite_result(checks, witnesses)


def suite_kolyvagin(sdata: StarkData):
    """The contraction side: the comparison relation for the regulator
    image of the canonical basis family, and the Fitting-ideal facts of
    the structure theorem."""
    checks, witnesses, data = {}, {}, {}
    instance = sdata.instance
    kdata = KolyvaginData(instance)
    try:
        ksystem = regulator(canonical_basis_system(sdata), kdata)
    except (ValueError, RuntimeError) as exc:
        checks["regulator"] = False
        witnesses["regulator"] = str(exc)
        return _suite_result(checks, witnesses)
    checks["regulator"] = True
    holds, failures = verify_fs(ksystem)
    checks["comparison-relation"] = holds
    if failures:
        witnesses["comparison-relation"] = [
            f"{divisor_name(instance, d)}@{instance.primes[q].label}"
            for d, q in failures]
    facts = verify_main_theorem(ksystem)
    for key in THEOREM_FACTS:
        checks[f"theorem/{key.replace('_', '-')}"] = facts[key]
    checks["theorem-verdict"] = main_theorem_holds(
        facts, canonical_is_basis(sdata))
    data["level-ideals"] = [ideal_json(I) for I in facts["levels"]]
    return _suite_result(checks, witnesses, data)


def derivative_checks(system, instance):
    """``derive``'s checks of the derivative D(c) of an Euler system over an
    instance whose ring, modulus, ambient rank and core rank it fits (see
    ``_load_pair``), every level's derivative element invariant.

    ``membership``: every derived table lies in the degree-r bidual of the
    Selmer module at its divisor; ``comparison-relation``: the tables satisfy the
    Kolyvagin relation at every (divisor, prime); ``containment/i*``: each
    level ideal of the Kolyvagin system lies in the Fitting ideal of the
    same index.  Returns the checks and witnesses with the ambient
    ``tables``, the Kolyvagin system ``ksystem`` and its ``level_table``
    (both None when a table is not in its bidual)."""
    kdata = KolyvaginData(instance)
    tables = derived_tables(system)
    ksystem, malformed = system_from_ambient_tables(kdata, tables)
    checks, witnesses, table = {"membership": not malformed}, {}, None
    if malformed:
        witnesses["membership"] = [_level_name(d) for d in malformed]
        checks["comparison-relation"] = False
    else:
        checks["comparison-relation"], failures = verify_fs(ksystem)
        if failures:
            witnesses["comparison-relation"] = [
                f"{_level_name(d)}@{q}" for d, q in failures]
        table = level_table(ksystem)
        checks.update({f"containment/i{i}": ok
                       for i, ok in enumerate(table["contained"])})
    return {"checks": checks, "witnesses": witnesses, "tables": tables,
            "ksystem": ksystem, "level_table": table}


def suite_euler(system, instance=None):
    """The tower layer's identities, flattened from the derivative report:
    corestriction relations and invariance of every level's derivative
    element.  With the instance of a bundle, and every derivative element
    invariant, also ``derive``'s checks of D(c) over that instance."""
    report = derivative_report(system)
    checks, witnesses = {}, {}
    checks["relations"] = all(report["relations"].values())
    bad = sorted(k for k, ok in report["relations"].items() if not ok)
    if bad:
        witnesses["relations"] = bad
    for key in sorted(report["invariance"]):
        checks[f"invariance/{key or '()'}"] = report["invariance"][key]
    if instance is not None and all(report["invariance"].values()):
        derived = derivative_checks(system, instance)
        checks.update(derived["checks"])
        witnesses.update(derived["witnesses"])
    data = {
        "derived-vectors": report["derived_vectors"],
        "pair-determinants": report["pair_determinants"],
    }
    return _suite_result(checks, witnesses, data)


SUITE_NAMES = ("bidual", "selmer", "stark", "kolyvagin", "euler")
RUN_ORDER = ("bidual", "selmer", "kolyvagin", "stark", "euler")


def _applicable_suites(schema: str):
    if schema == "selmer-instance/1":
        return ("bidual", "selmer", "stark", "kolyvagin")
    if schema == "euler-system/1":
        return ("euler",)
    if schema == "eks-bundle/1":
        return SUITE_NAMES
    raise CommandError(f"unsupported artifact schema {schema!r}")


def _select_suites(requested: str, schema: str):
    applicable = _applicable_suites(schema)
    if requested == "all":
        return list(applicable)
    names = [s for s in requested.split(",") if s]
    if not names:
        raise CommandError("no suite selected")
    for name in names:
        if name not in SUITE_NAMES:
            raise CommandError(f"unknown suite {name!r}")
        if name not in applicable:
            raise CommandError(
                f"suite {name!r} does not apply to a {schema} artifact")
    return names


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _check_modulus_flag(args, p: int, m: int) -> None:
    if args.M is not None and args.M != p ** m:
        raise CommandError(
            f"--M {args.M} does not match the ring modulus {p ** m}")


def _gen_tower(p, m, m_big, rank, s, seed) -> EulerTower:
    """A deterministic tower: diagonal Frobenius with a fixed line plus
    unit eigenvalues (so every local value at 1 vanishes exactly), and
    unit image exponents."""
    rng = random.Random(f"tower/{p}/{m}/{m_big}/{rank}/{s}/{seed}")
    n = rank + s
    big = p ** m_big
    frobenius = []
    for _ in range(s):
        rows = [[0] * n for _ in range(n)]
        rows[0][0] = 1
        for i in range(1, n):
            while True:
                u = rng.randrange(2, big)
                if u % p:
                    break
            rows[i][i] = u
        frobenius.append(rows)
    orders = (p ** m,) * s
    images = []
    for _ in range(s):
        row = []
        for order in orders:
            while True:
                b = rng.randrange(1, order)
                if b % p:
                    break
            row.append(b)
        images.append(row)
    return EulerTower(p, m, m_big, rank, orders, frobenius, images)


def cmd_gen(args) -> int:
    ring = parse_ring_spec(args.ring)
    if args.r < 1:
        raise CommandError("--r must be at least 1")
    if args.s < 1:
        raise CommandError("--s must be at least 1")
    _check_modulus_flag(args, ring.p, ring.m)
    profile = args.profile
    if profile in PROFILES:
        instance = generate_instance(ring, args.r, args.s,
                                     profile=profile, seed=args.seed)
        doc = instance_to_json(instance)
    elif profile == "tower":
        if ring.rank != 1:
            raise CommandError("profile 'tower' needs a chain ring spec p,m")
        m_big = args.mbig if args.mbig is not None else 2 * ring.m
        if m_big < 2 * ring.m:
            raise CommandError(
                "--mbig must be at least twice the target exponent")
        tower = _gen_tower(ring.p, ring.m, m_big, args.r, args.s, args.seed)
        doc = euler_system_to_json(random_system(tower, args.seed))
    elif profile == "consistent":
        if ring.rank != 1:
            raise CommandError(
                "profile 'consistent' needs a chain ring spec p,m")
        if args.mbig is not None and args.mbig != 2 * ring.m:
            raise CommandError(
                "profile 'consistent' fixes --mbig at twice the target "
                "exponent")
        try:
            tower, system, kdata = consistent_instance(
                ring.p, ring.m, args.r, args.s, seed=args.seed)
        except (ValueError, RuntimeError) as exc:
            raise CommandError(f"consistent generation failed: {exc}")
        doc = {
            "schema": "eks-bundle/1",
            "euler": euler_system_to_json(system),
            "instance": instance_to_json(kdata.instance),
        }
    else:
        raise CommandError(
            f"unknown profile {profile!r}; choose from "
            f"{PROFILES + ('tower', 'consistent')}")
    _write_text(args.out, canonical_json(doc))
    return 0


def cmd_verify(args) -> int:
    artifact = _load_json(args.artifact)
    schema = artifact.get("schema")
    suites = _select_suites(args.suite, schema)

    instance = None
    euler_system = None
    if schema == "selmer-instance/1":
        instance = _parse_artifact(instance_from_json, artifact)
    elif schema == "euler-system/1":
        euler_system = _parse_artifact(euler_system_from_json, artifact)
    elif schema == "eks-bundle/1":
        euler_system, instance = _load_pair([artifact])

    sdata = None
    if {"stark", "kolyvagin"} & set(suites):
        sdata = StarkData(instance)
    runners = {
        "bidual": lambda: suite_bidual(instance, args.seed),
        "selmer": lambda: suite_selmer(instance),
        "kolyvagin": lambda: suite_kolyvagin(sdata),
        "stark": lambda: suite_stark(sdata),
        "euler": lambda: suite_euler(euler_system, instance),
    }
    results = {name: runners[name]() for name in RUN_ORDER if name in suites}

    checks, witnesses, data, timings = {}, {}, {}, {}
    for name in sorted(results):
        result = results[name]
        for key, value in result["checks"].items():
            checks[f"{name}/{key}"] = value
        for key, value in result["witnesses"].items():
            witnesses[f"{name}/{key}"] = value
        if result["data"]:
            data[name] = result["data"]
        timings[name] = len(result["checks"])
    doc = {
        "schema": "eks-report/1",
        "config": {
            "command": "verify",
            "suites": suites,
            "seed": args.seed,
            "artifact_schema": schema,
        },
        "checks": checks,
        "witnesses": witnesses,
        "data": data,
        "timings": timings,
        "passed": all(checks.values()),
    }
    _write_text(args.out, canonical_json(doc))
    return 0 if doc["passed"] else 1


def _load_pair(docs):
    """The Euler system and the instance of a bundle (one document) or of
    an euler-system/1 plus a selmer-instance/1 artifact (two), checked to
    fit each other: chain-ring coefficients, and the family's target
    modulus, ambient rank and degree equal to the instance's modulus,
    ambient rank and core rank."""
    if len(docs) == 1:
        if docs[0].get("schema") != "eks-bundle/1":
            raise CommandError(
                "derive needs a bundle artifact or a tower-family artifact "
                "plus an instance artifact")
        system = _parse_artifact(euler_system_from_json, docs[0], "euler")
        instance = _parse_artifact(instance_from_json, docs[0], "instance")
    elif len(docs) == 2:
        by_schema = {doc.get("schema"): doc for doc in docs}
        if ("euler-system/1" not in by_schema
                or "selmer-instance/1" not in by_schema):
            raise CommandError(
                "derive needs one euler-system/1 and one selmer-instance/1 "
                "artifact")
        system = _parse_artifact(euler_system_from_json,
                                 by_schema["euler-system/1"])
        instance = _parse_artifact(instance_from_json,
                                   by_schema["selmer-instance/1"])
    else:
        raise CommandError("derive takes one bundle or exactly two artifacts")
    tower = system.tower
    ring = instance.ring
    if ring.rank != 1:
        raise CommandError(
            "derive needs chain-ring coefficients Z/p^m; the instance ring "
            "is a group ring")
    if ring.n != tower.p ** tower.m:
        raise CommandError(
            f"mismatched target modulus: family reduces to "
            f"{tower.p ** tower.m}, instance ring has modulus {ring.n}")
    if tower.n != instance.ambient_rank:
        raise CommandError(
            f"mismatched ambient rank: family width fits rank {tower.n}, "
            f"instance has {instance.ambient_rank}")
    if system.degree != instance.core_rank:
        raise CommandError(
            f"mismatched degree: family has degree {system.degree}, "
            f"instance core rank is {instance.core_rank}")
    return system, instance


def cmd_derive(args) -> int:
    system, instance = _load_pair([_load_json(p) for p in args.artifacts])
    tower = system.tower
    for d in tower.divisors():
        if not invariance_holds(system, d):
            raise CommandError(
                f"not an Euler system: the derivative element at level "
                f"{_level_name(d)} is not invariant")

    derived = derivative_checks(system, instance)
    tables, ksystem, table = (derived[key] for key in
                              ("tables", "ksystem", "level_table"))
    doc = {
        "schema": "eks-derive/1",
        "target_modulus": tower.p ** tower.m,
        "kappa": {_level_name(d): list(v)
                  for d, v in sorted(tables.items())},
        "checks": derived["checks"],
        "witnesses": derived["witnesses"],
        "ideals": {},
    }
    if ksystem is not None:
        ring = instance.ring
        doc["kolyvagin_system"] = family_to_json(ksystem)
        doc["ideals"] = {key: [ideal_json(I) for I in table[key]]
                         for key in ("levels", "fitting")}
        doc["verdicts"] = {f"equality/i{i}": ok
                           for i, ok in enumerate(table["equal"])}
        base_content = Ideal(ring, [c for c in tables[()] if c % ring.n])
        doc["verdicts"]["i0-equals-base-content"] = (
            table["levels"][0] == base_content)
    doc["passed"] = all(doc["checks"].values())
    _write_text(args.out, canonical_json(doc))
    return 0 if doc["passed"] else 1


def cmd_graph(args) -> int:
    artifact = _load_json(args.artifact)
    if artifact.get("schema") != "selmer-instance/1":
        raise CommandError("graph needs a selmer-instance/1 artifact")
    instance = _parse_artifact(instance_from_json, artifact)
    cores = core_vertices(instance)
    core_set = set(cores)
    edges = []
    for d in cores:
        for q in range(instance.n_primes):
            if q in d:
                continue
            up = tuple(sorted(d + (q,)))
            if up in core_set:
                edges.append((d, up))
    neighbors = {d: set() for d in cores}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen = set()
    components = 0
    for start in cores:
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(neighbors[node] - seen)
    connected = components == 1
    isolated = sorted(d for d in cores
                      if not neighbors[d]) if len(cores) > 1 else []

    lines = [
        "// schema: eks-graph/1",
        f"// cores: {len(cores)}",
        f"// connected: {'true' if connected else 'false'}",
        "// isolated: " + (",".join(divisor_name(instance, d)
                                    for d in isolated) or "none"),
        "digraph core_vertices {",
        "  rankdir=BT;",
    ]
    for d in cores:
        lam, lam_star = instance.residue_ranks(d)
        style = ', color="red", peripheries=3' if d in isolated else ""
        lines.append(
            f'  "{divisor_name(instance, d)}" '
            f'[label="{divisor_name(instance, d)}\\n{lam}/{lam_star}"'
            f'{style}];')
    for a, b in edges:
        lines.append(f'  "{divisor_name(instance, a)}" -> '
                     f'"{divisor_name(instance, b)}";')
    lines.append("}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_report(args) -> int:
    doc = _load_json(args.artifact)
    if doc.get("schema") != "eks-report/1":
        raise CommandError("report needs an eks-report/1 document")
    checks = doc.get("checks", {})
    witnesses = doc.get("witnesses", {})
    if not (isinstance(checks, dict) and isinstance(witnesses, dict)
            and all(type(v) is bool for v in checks.values())):
        raise CommandError(
            f"malformed report {args.artifact}: 'checks' must map names to "
            "booleans and 'witnesses' must be an object")
    passed = all(checks.values())
    if doc.get("passed") is not passed:
        raise CommandError(
            f"malformed report {args.artifact}: 'passed' is "
            f"{doc.get('passed')!r} but the checks give {passed!r}")
    lines = []
    for name in sorted(checks):
        if checks[name]:
            lines.append(f"PASS {name}")
        else:
            extra = f"  witness: {witnesses[name]}" if name in witnesses else ""
            lines.append(f"FAIL {name}{extra}")
    count = sum(1 for v in checks.values() if v)
    lines.append(f"{count}/{len(checks)} checks passed")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ekslab",
        description="Deterministic generation, verification, derivation, "
                    "and reporting for the exact system laboratory.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a deterministic artifact")
    gen.add_argument("--ring", required=True,
                     help="p,m or p,m,order,... for group-ring factors")
    gen.add_argument("--r", type=int, default=1, help="core rank / degree")
    gen.add_argument("--s", type=int, default=1, help="number of primes")
    gen.add_argument("--M", type=int, default=None,
                     help="target modulus cross-check (must equal p^m)")
    gen.add_argument("--mbig", type=int, default=None,
                     help="working precision exponent for tower profiles")
    gen.add_argument("--profile", default="generic",
                     help="generic | class-trivial | pir-basis | degenerate "
                          "| tower | consistent")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")

    verify = sub.add_parser(
        "verify", help="run verification suites; the report's 'timings' "
                       "holds per-suite check counts, not seconds; a "
                       "bundle's euler suite runs derive's checks, and a "
                       "bundle whose parts do not fit exits 2")
    verify.add_argument("artifact")
    verify.add_argument("--suite", default="all",
                        help="comma-separated: bidual,selmer,stark,"
                             "kolyvagin,euler; 'all' for every applicable "
                             "suite")
    verify.add_argument("--seed", type=int, default=0,
                        help="seed for the sampled identity checks")
    verify.add_argument("--out", default="-")

    derive = sub.add_parser(
        "derive", help="derive the contraction-side family and its ideals")
    derive.add_argument("artifacts", nargs="+",
                        help="a bundle artifact, or a tower-family artifact "
                             "and an instance artifact")
    derive.add_argument("--out", default="-")

    graph = sub.add_parser("graph", help="core-vertex graph as DOT")
    graph.add_argument("artifact")
    graph.add_argument("--out", default="-")

    report = sub.add_parser("report", help="format a report for reading")
    report.add_argument("artifact")
    report.add_argument("--out", default="-")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "verify": cmd_verify,
        "derive": cmd_derive,
        "graph": cmd_graph,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except CommandError as exc:
        print(f"ekslab {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
