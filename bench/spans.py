"""Layer spans recorded around calls into arstat's public functions.

The recorder wraps, from outside the package, every public module-level
function of each layer module, in every ``arstat.*`` namespace that binds
that function object (``starprod`` imports ``coherent_vector`` from
``bargmann``; patching only ``arstat.bargmann`` would miss those calls).
A function's layer is the module that defines it.

A call whose caller is in another layer (or is the benchmark itself) opens
a layer span.  ``L.total_s`` sums those spans, ``L.self_s`` subtracts the
layer spans of other layers nested directly inside them, ``L.calls`` counts
them and ``L.errors`` counts ``ArstatError``s that leave them.  Function
metrics count every call; ``F.total_s`` sums the outermost call of ``F``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("algebra", "bargmann", "droplet", "starprod", "edge", "cli")

# Per-cell CSV formatter: about four calls per written row.  A span per
# call would cost more than the formatting it times and bury cli.self_s.
UNWRAPPED = {"cli.fmt"}

# Function-level metrics: (function, metric suffix, unit).
FUNCTION_METRICS = (
    ("algebra.verify_triple_relations", "total_s", "s"),
    ("algebra.ladder_matrices", "total_s", "s"),
    ("algebra.enumerate_basis", "total_s", "s"),
    ("bargmann.coherent_vector", "calls", "count"),
    ("bargmann.coherent_vector", "total_s", "s"),
    ("bargmann.log_coefficient", "calls", "count"),
    ("bargmann.orthonormality_gram", "total_s", "s"),
    ("bargmann.build_quadrature", "total_s", "s"),
    ("starprod.star_first_order", "total_s", "s"),
    ("starprod.moyal_bracket", "total_s", "s"),
    ("droplet.droplet_profile", "total_s", "s"),
    ("droplet.step_profile_check", "total_s", "s"),
    ("droplet.crossing_rho", "calls", "count"),
    ("edge.mode_commutator_residual", "total_s", "s"),
    ("edge.build_mode_algebra", "total_s", "s"),
    ("edge.sample_field", "total_s", "s"),
    ("cli.write_csv", "total_s", "s"),
)

# Sizes read from return values or arguments: gauge -> (function, unit).
GAUGES = {
    "algebra.dim": ("algebra.enumerate_basis", "count"),
    "algebra.nnz": ("algebra.ladder_matrices", "count"),
    "bargmann.quad_points": ("bargmann.build_quadrature", "count"),
    "starprod.vectors_per_point": ("starprod.convergence_study", "count"),
    "edge.algebra_dim": ("edge.build_mode_algebra", "count"),
    "cli.csv_rows": ("cli.write_csv", "count"),
}


def _ladder_nnz(ladders) -> int:
    # getattr: ladders may be wrapper objects holding ``.matrix`` or plain CSR
    return sum(getattr(op, "matrix", op).nnz for op in (*ladders.minus, *ladders.plus))


class _Span:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class Recorder:
    """Installs wrappers on the loaded ``arstat`` modules; removes them on exit."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.fn_total: defaultdict = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.layer_total: defaultdict = defaultdict(float)
        self.layer_self: defaultdict = defaultdict(float)
        self.layer_errors: Counter = Counter()
        self.sizes: defaultdict = defaultdict(int)
        self.study_units = 0
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Recorder":
        from arstat.errors import ArstatError

        self._error_type = ArstatError
        namespaces = [m for name, m in sys.modules.items() if name == "arstat" or name.startswith("arstat.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"arstat.{layer}")
            if module is None:
                continue
            for name, fn in vars(module).items():
                key = f"{layer}.{name}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and key not in UNWRAPPED
                ):
                    wrappers[id(fn)] = (fn, self._wrap(layer, key, fn))
                    self.wrapped.add(key)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((namespace, attr, value))
                    setattr(namespace, attr, entry[1])
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, value in reversed(self._restore):
            setattr(namespace, attr, value)
        self._restore.clear()

    def _wrap(self, layer: str, key: str, fn):
        observe = _OBSERVERS.get(key)
        signature = inspect.signature(fn) if observe else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack
            boundary = not stack or stack[-1].layer != layer
            if boundary:
                span = _Span(layer)
                stack.append(span)
            self.depth[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except self._error_type:
                if boundary:
                    self.layer_errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                self.depth[key] -= 1
                self.calls[key] += 1
                if not self.depth[key]:
                    self.fn_total[key] += elapsed
                if boundary:
                    stack.pop()
                    self.layer_calls[layer] += 1
                    self.layer_total[layer] += elapsed
                    self.layer_self[layer] += elapsed - span.child_s
                    if stack:
                        stack[-1].child_s += elapsed
            if observe is not None:
                observe(self, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # ------------------------------------------------------------ metrics

    def metrics(self) -> tuple[dict, list[str]]:
        """Every per-layer metric by name, and the names absent in this build."""
        out = {}
        absent = []
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
            out[f"{layer}.total_s"] = (self.layer_total[layer], "s")
            out[f"{layer}.self_s"] = (self.layer_self[layer], "s")
            out[f"{layer}.errors"] = (self.layer_errors[layer], "count")
        for fn, suffix, unit in FUNCTION_METRICS:
            name = f"{fn}.{suffix}"
            if fn not in self.wrapped:
                absent.append(name)
            elif suffix == "calls":
                out[name] = (self.calls[fn], unit)
            else:
                out[name] = (self.fn_total[fn], unit)
        for gauge, (fn, unit) in GAUGES.items():
            if fn not in self.wrapped:
                absent.append(gauge)
            elif gauge == "starprod.vectors_per_point":
                vectors = self.calls["bargmann.coherent_vector"]
                out[gauge] = (vectors / self.study_units if self.study_units else 0, unit)
            else:
                out[gauge] = (self.sizes[gauge], unit)
        return out, absent


def _keep_max(recorder: Recorder, gauge: str, value: int) -> None:
    recorder.sizes[gauge] = max(recorder.sizes[gauge], int(value))


def _study(recorder: Recorder, args: dict, result) -> None:
    # coherent vectors per (k, point) of a convergence sweep
    recorder.study_units += len(args["k_values"]) * len(args["points"])


def _csv_rows(recorder: Recorder, args: dict, result) -> None:
    rows = args.get("rows")
    if hasattr(rows, "__len__") and result is not None:
        recorder.sizes["cli.csv_rows"] += len(rows)


_OBSERVERS = {
    "algebra.enumerate_basis": lambda rec, args, res: _keep_max(rec, "algebra.dim", res.dim),
    "algebra.ladder_matrices": lambda rec, args, res: _keep_max(rec, "algebra.nnz", _ladder_nnz(res)),
    "bargmann.build_quadrature": lambda rec, args, res: _keep_max(rec, "bargmann.quad_points", len(res.weights)),
    "edge.build_mode_algebra": lambda rec, args, res: _keep_max(rec, "edge.algebra_dim", res.dim),
    "starprod.convergence_study": _study,
    "cli.write_csv": _csv_rows,
}
