"""Spans around the public calls of every `cvplab` module, from outside it.

`Tracer.install` replaces each public function defined in a `cvplab`
module, in every `cvplab` module that bound it by name, with a wrapper
that records a span (name, start, end and parent span).  Modules are
reached through `sys.modules`, because the package re-exports functions
under the names of modules (`cvplab.action` is the function there).
`Tracer.restore` puts every original back.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

PACKAGE = "cvplab"


def _observe_pair_tables(tracer, args, kwargs, result):
    n, m = args[2].shape
    tracer.extra["kernels.pair_tables.points"] += n
    # L, G and H11 as returned: n^2 (1 + m + m^2) float64 values.
    tracer.extra["kernels.pair_tables.bytes_computed"] += 8 * n * n * (1 + m + m * m)


def _observe_minimize(tracer, args, kwargs, result):
    trace = result[1]
    tracer.extra["optimizer.minimize.iterations"] += trace.rows[-1][0]
    tracer.extra["optimizer.minimize.status." + trace.status.replace("-", "_")] += 1


def _observe_gram_spectrum(tracer, args, kwargs, result):
    dim = result.matrix.shape[0]
    tracer.extra["jets.gram_spectrum.gram_dim"] = max(
        tracer.extra["jets.gram_spectrum.gram_dim"], dim)


def _observe_stability_probe(tracer, args, kwargs, result):
    tracer.extra["variations.stability_probe.trials"] += len(result.fits)


def _observe_save_state(tracer, args, kwargs, result):
    tracer.extra["config.save_state.state_bytes"] += Path(args[1]).stat().st_size


def _observe_run(tracer, args, kwargs, result):
    out_dir = Path(args[2])
    tracer.extra["cli.run.output_bytes"] += sum(
        p.stat().st_size for p in out_dir.iterdir() if p.is_file())


_OBSERVERS = {
    "kernels.pair_tables": _observe_pair_tables,
    "optimizer.minimize": _observe_minimize,
    "jets.gram_spectrum": _observe_gram_spectrum,
    "variations.stability_probe": _observe_stability_probe,
    "config.save_state": _observe_save_state,
    "cli.run": _observe_run,
}

# Methods traced besides the module functions: (module, class, attribute, span name).
_METHODS = (
    ("cvplab.geometry", "ChartManifold", "displacement", "geometry.displacement"),
    ("cvplab.jets", "FormEvaluator", "__init__", "jets.FormEvaluator"),
)


class Tracer:
    """In-memory spans and per-name call statistics for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.calls_by_parent: Counter = Counter()  # (name, parent name) -> calls
        self.extra: defaultdict = defaultdict(float)
        self._stack: list[list] = []   # [span id, name, child seconds]
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[2]
                if parent is None:
                    tracer.spans.append((span_id, -1, name, start, end))
                else:
                    parent[2] += duration
                    tracer.calls_by_parent[(name, parent[1])] += 1
                    tracer.spans.append((span_id, parent[0], name, start, end))
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every loaded `cvplab` module."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        for modname, cls_name, attr, name in _METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._patched.append((cls, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, handle, label: str) -> None:
        """Write the spans as CSV rows: label, id, parent id, name, start, end."""
        for span_id, parent, name, start, end in self.spans:
            handle.write(f"{label},{span_id},{parent},{name},{start!r},{end!r}\n")


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, by name, with units."""
    def ratio(a, b):
        return a / b if b else 0.0

    iterations = t.extra["optimizer.minimize.iterations"]
    tables = t.calls["kernels.pair_tables"]
    regions = t.calls["linfield.surface_layer_integral"]
    return {
        "kernels.pair_tables.calls": (tables, "count"),
        "kernels.pair_tables.self_s": (t.self_s["kernels.pair_tables"], "s"),
        "kernels.pair_tables.s_per_call":
            (ratio(t.self_s["kernels.pair_tables"], tables), "s"),
        "kernels.pair_tables.mean_n":
            (ratio(t.extra["kernels.pair_tables.points"], tables), "count"),
        "kernels.pair_tables.bytes_computed":
            (t.extra["kernels.pair_tables.bytes_computed"], "B"),
        "geometry.displacement.calls": (t.calls["geometry.displacement"], "count"),
        "geometry.displacement.self_s": (t.self_s["geometry.displacement"], "s"),
        "action.action.calls": (t.calls["action.action"], "count"),
        "action.action.total_s": (t.total_s["action.action"], "s"),
        "action.el_report.total_s": (t.total_s["action.el_report"], "s"),
        "optimizer.minimize.total_s": (t.total_s["optimizer.minimize"], "s"),
        "optimizer.minimize.self_s": (t.self_s["optimizer.minimize"], "s"),
        "optimizer.project_volume.calls":
            (t.calls["optimizer.project_volume"], "count"),
        "optimizer.project_volume.self_s":
            (t.self_s["optimizer.project_volume"], "s"),
        "optimizer.minimize.iterations": (iterations, "count"),
        "optimizer.minimize.s_per_iteration":
            (ratio(t.total_s["optimizer.minimize"], iterations), "s"),
        "optimizer.minimize.status.converged":
            (t.extra["optimizer.minimize.status.converged"], "count"),
        "optimizer.minimize.status.stalled":
            (t.extra["optimizer.minimize.status.stalled"], "count"),
        "optimizer.minimize.status.budget_exhausted":
            (t.extra["optimizer.minimize.status.budget_exhausted"], "count"),
        "optimizer.minimize.tables_per_iteration": (ratio(
            t.calls_by_parent[("kernels.pair_tables", "optimizer.minimize")],
            iterations), "ratio"),
        "jets.gram_spectrum.total_s": (t.total_s["jets.gram_spectrum"], "s"),
        "jets.gram_spectrum.self_s": (t.self_s["jets.gram_spectrum"], "s"),
        "jets.gram_spectrum.gram_dim": (t.extra["jets.gram_spectrum.gram_dim"], "count"),
        "jets.FormEvaluator.calls": (t.calls["jets.FormEvaluator"], "count"),
        "variations.stability_probe.total_s":
            (t.total_s["variations.stability_probe"], "s"),
        "variations.stability_probe.s_per_trial": (ratio(
            t.total_s["variations.stability_probe"],
            t.extra["variations.stability_probe.trials"]), "s"),
        "variations.frag_second_variation.total_s":
            (t.total_s["variations.frag_second_variation"], "s"),
        "variations.fragment_deform.self_s":
            (t.self_s["variations.fragment_deform"], "s"),
        "variations.sample_scheme.self_s": (t.self_s["variations.sample_scheme"], "s"),
        "linfield.assemble_linfield.total_s":
            (t.total_s["linfield.assemble_linfield"], "s"),
        "linfield.solve_linfield.self_s": (t.self_s["linfield.solve_linfield"], "s"),
        "linfield.osi_report.total_s": (t.total_s["linfield.osi_report"], "s"),
        "linfield.surface_layer_integral.calls": (regions, "count"),
        "linfield.surface_layer_integral.s_per_region":
            (ratio(t.total_s["linfield.surface_layer_integral"], regions), "s"),
        "linfield.arc_regions.self_s": (t.self_s["linfield.arc_regions"], "s"),
        "config.load_config.self_s": (t.self_s["config.load_config"], "s"),
        "config.save_state.self_s": (t.self_s["config.save_state"], "s"),
        "config.save_state.state_bytes": (t.extra["config.save_state.state_bytes"], "B"),
        "cli.run.self_s": (t.self_s["cli.run"], "s"),
        "cli.run.output_bytes": (t.extra["cli.run.output_bytes"], "B"),
        "trace.spans": (len(t.spans), "count"),
    }
