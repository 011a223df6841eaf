"""Per-layer tracing of ekslab from outside the package.

A ``Tracer`` counts calls and times spans around the public entry points of
each ``ekslab`` module.  ``installed(tracer)`` swaps wrappers into every
ekslab namespace that holds a target (``from .rings import kernel_int``
binds the function in the importing module too) and onto the owning class
for methods; leaving the block puts the original objects back.

Each span belongs to a layer.  A layer's self time is the time inside its
spans minus the time inside spans nested in them, so the self times of all
layers never add up to more than the traced wall time.  Work the tracer does
for its own bookkeeping (the generator counts behind ``gens_ratio``) runs
with the tracer suspended and is subtracted from every open span.
"""

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

TIMED = "timed"
COUNTED = "counted"


class Tracer:
    """Call counts, inclusive span seconds, layer self seconds, and named
    counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counters = Counter()
        self.suspended = False
        self._stack = []
        self._depth = Counter()
        self._excluded = 0.0

    def active(self, name: str) -> bool:
        """Whether a span of ``name`` is open."""
        return self._depth[name] > 0

    def span(self, name: str, layer: str, fn, args, kwargs):
        """Run ``fn`` as a span of ``layer``.  Nested calls of the same name
        add to ``seconds`` only once, at the outermost call."""
        self.calls[name] += 1
        child = [0.0]
        self._stack.append(child)
        depth = self._depth[name]
        self._depth[name] = depth + 1
        excluded = self._excluded
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start - (self._excluded - excluded)
            self._depth[name] = depth
            self._stack.pop()
            self.self_seconds[layer] += elapsed - child[0]
            if self._stack:
                self._stack[-1][0] += elapsed
            if depth == 0:
                self.seconds[name] += elapsed

    @contextmanager
    def bookkeeping(self):
        """Tracer-side work: wrappers pass through, and the time spent is
        excluded from every open span."""
        start = self.clock()
        self.suspended = True
        try:
            yield
        finally:
            self.suspended = False
            self._excluded += self.clock() - start

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counters": dict(self.counters),
        }


# ---------------------------------------------------------------------------
# What is wrapped.  Each target is (layer, module, attribute, mode, hook):
# the attribute is a module-level name or "Class.method"; the span name is
# "<module>.<attribute>", with "__init__" dropped for constructors.
# ---------------------------------------------------------------------------


def _gens_hook(name):
    """Record Σ ngens and Σ min_generators of a (module, ...) result."""
    def hook(tracer, args, result):
        from ekslab.selmer import min_generators
        module = result[0]
        with tracer.bookkeeping():
            tracer.counters[f"{name}.ngens"] += module.ngens
            tracer.counters[f"{name}.min_generators"] += min_generators(module)
    return hook


def _bidual_width(tracer, args, result):
    tracer.counters["biduals.ExteriorBidual.width"] += args[0].module.ngens


def _consistent_draw(tracer, args, result):
    # Every draw of consistent_instance either builds one tower or stops at
    # a degenerate Frobenius, so these two events count the draws.
    if tracer.active("euler.consistent_instance"):
        tracer.counters["euler.consistent_instance.draws"] += 1


def _frobenius_draw(tracer, args, result):
    if result is None:
        _consistent_draw(tracer, args, result)


TARGETS = (
    ("rings", "rings", "howell_int", TIMED, None),
    ("rings", "rings", "smith_int", TIMED, None),
    ("rings", "rings", "kernel_int", TIMED, None),
    ("rings", "rings", "solve_int", TIMED, None),
    ("rings", "rings", "det_int", TIMED, None),
    ("rings", "rings", "det_ring", TIMED, None),
    ("rings", "rings", "howell_form", TIMED, None),
    ("rings", "rings", "Matrix.to_base", TIMED, None),
    ("rings", "rings", "Matrix.__init__", COUNTED, None),
    ("rings", "rings", "GroupRing.mul", TIMED, None),
    ("modules", "modules", "kernel", TIMED, _gens_hook("modules.kernel")),
    ("modules", "modules", "dual_module", TIMED,
     _gens_hook("modules.dual_module")),
    ("modules", "modules", "syzygies", TIMED, None),
    ("modules", "modules", "fitting_ideal", TIMED, None),
    ("modules", "modules", "solve_map", TIMED, None),
    ("biduals", "biduals", "ExteriorBidual.__init__", TIMED, _bidual_width),
    ("biduals", "biduals", "bidual_contraction", TIMED, None),
    ("biduals", "biduals", "bidual_functor_map", TIMED, None),
    ("biduals", "biduals", "fitt0_via_bidual", TIMED, None),
    ("selmer", "selmer", "five_term_exact", TIMED, None),
    ("selmer", "selmer", "fitt_recursion_holds", TIMED, None),
    ("selmer", "selmer", "generate_instance", TIMED, None),
    ("selmer", "selmer", "SelmerInstance.residue_ranks", TIMED, None),
    ("selmer", "selmer", "SelmerInstance.dual_selmer", TIMED, None),
    ("selmer", "selmer", "instance_to_json", TIMED, None),
    ("stark", "stark", "StarkData.__init__", COUNTED, None),
    ("stark", "stark", "StarkData._build_transition", TIMED, None),
    ("stark", "stark", "canonical_basis_system", TIMED, None),
    ("stark", "stark", "verify_cocycle", TIMED, None),
    ("stark", "stark", "core_projections_bijective", TIMED, None),
    ("stark", "stark", "system_compatible", TIMED, None),
    ("stark", "stark", "system_is_basis", TIMED, None),
    ("stark", "stark", "verify_stark_theorem", TIMED, None),
    ("kolyvagin", "kolyvagin", "KolyvaginData.__init__", COUNTED, None),
    ("kolyvagin", "kolyvagin", "regulator", TIMED, None),
    ("kolyvagin", "kolyvagin", "verify_fs", TIMED, None),
    ("kolyvagin", "kolyvagin", "system_from_ambient_tables", TIMED, None),
    ("kolyvagin", "kolyvagin", "verify_main_theorem", TIMED, None),
    ("kolyvagin", "kolyvagin", "main_theorem_holds", TIMED, None),
    ("kolyvagin", "kolyvagin", "kolyvagin_ideals", TIMED, None),
    ("kolyvagin", "kolyvagin", "kolyvagin_to_json", TIMED, None),
    ("euler", "euler", "derived_tables", TIMED, None),
    ("euler", "euler", "derivative_report", TIMED, None),
    ("euler", "euler", "consistent_instance", TIMED, None),
    ("euler", "euler", "random_system", TIMED, None),
    ("euler", "euler", "system_to_json", TIMED, None),
    ("euler", "euler", "_instance_frobenius", COUNTED, _frobenius_draw),
    ("euler", "euler", "EulerTower.__init__", COUNTED, _consistent_draw),
    ("cli", "cli", "suite_bidual", TIMED, None),
    ("cli", "cli", "suite_selmer", TIMED, None),
    ("cli", "cli", "suite_stark", TIMED, None),
    ("cli", "cli", "suite_kolyvagin", TIMED, None),
    ("cli", "cli", "suite_euler", TIMED, None),
    ("cli", "cli", "_load_json", TIMED, None),
    ("cli", "selmer", "instance_from_json", TIMED, None),
    ("cli", "euler", "system_from_json", TIMED, None),
    ("cli", "cli", "canonical_json", TIMED, None),
    ("cli", "cli", "_write_text", TIMED, None),
)


def span_name(module: str, attribute: str) -> str:
    if attribute.endswith(".__init__"):
        attribute = attribute[: -len(".__init__")]
    return f"{module}.{attribute}"


def _wrap(tracer, name, layer, mode, hook, fn):
    if mode == COUNTED:
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            if tracer.suspended:
                return fn(*args, **kwargs)
            result = tracer.span(name, layer, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
    return functools.update_wrapper(wrapper, fn)


def _ekslab_modules():
    return [mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "ekslab" or key.startswith("ekslab."))]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Install wrappers for ``targets`` for the duration of the block."""
    importlib.import_module("ekslab.cli")  # imports every ekslab module
    namespaces = _ekslab_modules()
    undo = []
    try:
        for layer, module, attribute, mode, hook in targets:
            owner = importlib.import_module(f"ekslab.{module}")
            name = span_name(module, attribute)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method,
                        _wrap(tracer, name, layer, mode, hook, original))
                undo.append((cls, method, original))
                continue
            original = getattr(owner, attribute)
            wrapper = _wrap(tracer, name, layer, mode, hook, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        undo.append((namespace, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
