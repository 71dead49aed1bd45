"""Per-layer tracing by wrapping bluefive's public functions from outside.

A Tracer replaces each public function of a layer module, and each public
method of the layer's classes, with a wrapper that counts the call and
accumulates its inclusive and self time under a key such as
``configuration.pairs_with_dist2``.  Self time is the call's duration
minus the time spent in wrapped calls beneath it, so the self times of
all keys add up to the traced wall time.

Field and geometry calls number in the millions per run, so they are
aggregate counters and timers: nothing is kept per call.

Module functions are rebound in every loaded ``bluefive`` module that
bound them with ``from ... import``, so ``lemmata.match_template`` and
``figures.dist2`` are wrapped as well.  A public name that no longer
exists raises at install time instead of reading as zero.

A light tracer wraps only ``run_script``, ``uniqueness_enumeration`` and
``emit_clauses`` (a few hundred calls per run), which leaves the run at
untraced speed and gives inclusive per-script and emission times.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

LAYERS = ("field", "geometry", "configuration", "solver", "lemmata",
          "figures", "tilings")

# Hot methods, grouped into the counters the benchmark reports.
FIELD_GROUPS = {
    "__mul__": "mul", "__rmul__": "mul", "__pow__": "mul",
    "__add__": "addsub", "__radd__": "addsub", "__sub__": "addsub",
    "__rsub__": "addsub", "__neg__": "addsub",
    "inverse": "inverse", "__truediv__": "inverse", "__rtruediv__": "inverse",
    "sign": "sign", "__lt__": "sign", "__le__": "sign", "__gt__": "sign",
    "__ge__": "sign", "is_zero": "sign", "is_rational": "sign",
    "__eq__": "eq_hash", "__hash__": "eq_hash",
    "__float__": "float",
}
POINT_GROUPS = {
    "__eq__": "point_hash_eq", "__hash__": "point_hash_eq",
    "__add__": "point_arith", "__sub__": "point_arith",
}


def public_functions(module):
    """(owner, name) for the public functions defined in the module and
    the public plain methods of the public classes it defines."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name))
        elif inspect.isclass(obj):
            out.extend((obj, m) for m, meth in vars(obj).items()
                       if not m.startswith("_") and inspect.isfunction(meth))
    return out


class Tracer:
    """Calls, self seconds and inclusive seconds per key, plus named counts."""

    def __init__(self, light: bool = False, clock=time.perf_counter) -> None:
        self.light = light
        self.clock = clock
        self.stats: dict[str, list] = {}   # key -> [calls, self_s, total_s]
        self.counts: dict[str, float] = {}
        # child-time accumulator of each open call; index 0 is the caller
        self._stack: list[list[float]] = [[0.0]]
        # (script, patch radius) of each run_script / stretch call in progress
        self.context: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- reading -----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def total_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.startswith(layer + "."))

    def count(self, key: str) -> float:
        return self.counts.get(key, 0)

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- timing ------------------------------------------------------------

    def _acc(self, key: str) -> list:
        acc = self.stats.get(key)
        if acc is None:
            acc = self.stats[key] = [0, 0.0, 0.0]
        return acc

    def timed(self, fn, key):
        """Wrap fn so each call counts under key, which may also be a
        function of the call's positional arguments."""
        stack, clock = self._stack, self.clock
        fixed = self._acc(key) if isinstance(key, str) else None
        acc_of = self._acc

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = fixed or acc_of(key(args))
            acc[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][0] += dt
                acc[1] += dt - frame[0]
                acc[2] += dt
        return wrapper

    # -- installing --------------------------------------------------------

    def patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def wrap(self, owner, name: str, key) -> None:
        """Time owner.name under key (also used for the benchmark's own helpers)."""
        self.patch(owner, name, self.timed(getattr(owner, name), key))

    def _install(self, owner, name: str, wrapper, modules) -> None:
        if inspect.isclass(owner):
            self.patch(owner, name, wrapper)
            return
        original = getattr(owner, name)
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, bound, wrapper)

    def install(self) -> "Tracer":
        try:
            self._install_all()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_all(self) -> None:
        import bluefive.configuration as configuration
        import bluefive.field as field
        import bluefive.figures  # noqa: F401  (every layer must be in sys.modules)
        import bluefive.geometry as geometry
        import bluefive.lemmata as lemmata
        import bluefive.solver as solver
        import bluefive.tilings  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bluefive" or n.startswith("bluefive."))]
        special = {
            (lemmata, "run_script"): self._script_wrapper,
            (lemmata, "uniqueness_enumeration"): self._stretch_wrapper,
            (configuration, "emit_clauses"): self._emit_wrapper,
        }
        if not self.light:
            special.update({
                (configuration.Configuration, "pairs_with_dist2"): self._pairs_wrapper,
                (configuration, "match_template"): self._match_wrapper,
                (configuration, "ell_chains"): self._chains_wrapper,
                (lemmata, "write_certificates"): self._certs_wrapper,
                (solver, "solve"): self._solve_wrapper,
                (solver, "enumerate_models"): self._models_wrapper,
                (solver, "replay_unsat_trace"): self._replay_wrapper,
            })
        for (owner, name), make in special.items():
            self._install(owner, name, make(getattr(owner, name)), modules)
        if self.light:
            return

        grouped = {(field.FieldElement, n) for n in FIELD_GROUPS}
        grouped |= {(geometry.Point, n) for n in POINT_GROUPS}
        for layer in LAYERS:
            for owner, name in public_functions(sys.modules[f"bluefive.{layer}"]):
                if (owner, name) not in special and (owner, name) not in grouped:
                    self._install(owner, name,
                                  self.timed(getattr(owner, name), f"{layer}.{name}"),
                                  modules)
        for name, group in FIELD_GROUPS.items():
            self.wrap(field.FieldElement, name, f"field.{group}")
        deserialize = vars(field.FieldElement)["deserialize"].__func__
        self.patch(field.FieldElement, "deserialize",
                   staticmethod(self.timed(deserialize, "field.deserialize")))
        for name, group in POINT_GROUPS.items():
            self.wrap(geometry.Point, name, f"geometry.{group}")
        self.wrap(solver.ColoringProblem, "__post_init__", "solver.problem_check")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers that also record what the call produced --------------------

    def _scoped(self, fn, key, radius_of):
        """Keep the script id and patch radius in context during the call."""
        timed = self.timed(fn, key)
        context = self.context

        @functools.wraps(fn)
        def wrapper(script_id, options=None, *args, **kwargs):
            context.append((script_id, radius_of(options)))
            try:
                return timed(script_id, options, *args, **kwargs)
            finally:
                context.pop()
        return wrapper

    def _script_wrapper(self, fn):
        return self._scoped(fn, lambda args: f"lemmata.run_script.{args[0]}",
                            lambda options: options.patch_radius if options else 7)

    def _stretch_wrapper(self, fn):
        return self._scoped(fn, "lemmata.uniqueness_enumeration",
                            lambda options: options.stretch_radius)

    def _emit_wrapper(self, fn):
        context = self.context

        def key(args=()):
            return "configuration.emit_clauses." + (context[-1][0] if context else "other")
        timed = self.timed(fn, key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc = self._acc(key())
            before = acc[2]
            out = timed(*args, **kwargs)
            self.add("configuration.emit_clauses.clauses", len(out.clauses))
            if context:
                script, radius = context[-1]
                self.add(f"configuration.emit_clauses.{script}.R{radius}", acc[2] - before)
            return out
        return wrapper

    def _pairs_wrapper(self, fn):
        timed = self.timed(fn, "configuration.pairs_with_dist2")
        dist2 = self._acc("geometry.dist2")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = dist2[0]
            out = timed(*args, **kwargs)
            self.add("configuration.pairs_with_dist2.returned", len(out))
            if dist2[0] != before:  # a cached answer confirms nothing
                self.add("configuration.pairs_with_dist2.pairs", len(out))
                self.add("configuration.pairs_with_dist2.confirmations", dist2[0] - before)
            return out
        return wrapper

    def _match_wrapper(self, fn):
        timed = self.timed(fn, lambda args: f"configuration.match_template.{args[1].id}")
        pairs = self._acc("configuration.pairs_with_dist2")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            searches = pairs[0]
            returned = self.count("configuration.pairs_with_dist2.returned")
            out = timed(*args, **kwargs)
            if pairs[0] != searches:  # not answered from the cache
                self.add("configuration.match_template.embeddings", len(out))
                self.add("configuration.match_template.anchor_pairs",
                         self.count("configuration.pairs_with_dist2.returned") - returned)
            return out
        return wrapper

    def _chains_wrapper(self, fn):
        timed = self.timed(fn, "configuration.ell_chains")
        directions = self._acc("configuration.unit_directions")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = directions[0]
            out = timed(*args, **kwargs)
            if directions[0] != before:  # not answered from the cache
                self.add("configuration.ell_chains.chains", len(out))
            return out
        return wrapper

    def _certs_wrapper(self, fn):
        timed = self.timed(fn, "lemmata.write_certificates")

        @functools.wraps(fn)
        def wrapper(run, outdir):
            manifest = timed(run, outdir)
            names = list(manifest["files"]) + ["manifest.json"]
            self.add("lemmata.certs.files", len(names))
            self.add("lemmata.certs.bytes", sum(
                os.path.getsize(os.path.join(outdir, n)) for n in names))
            return manifest
        return wrapper

    def _solve_wrapper(self, fn):
        timed = self.timed(fn, "solver.solve")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = timed(*args, **kwargs)
            for ev in verdict.trace or ():
                self.add(f"solver.trace.{ev[0]}", 1)
            return verdict
        return wrapper

    def _models_wrapper(self, fn):
        timed = self.timed(fn, "solver.enumerate_models")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            models, exhausted = timed(*args, **kwargs)
            self.add("solver.enumerate_models.models", len(models))
            return models, exhausted
        return wrapper

    def _replay_wrapper(self, fn):
        timed = self.timed(fn, "solver.replay_unsat_trace")

        @functools.wraps(fn)
        def wrapper(clauses, trace):
            self.add("solver.replay_unsat_trace.events", len(trace))
            return timed(clauses, trace)
        return wrapper
