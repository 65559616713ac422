"""Spans around calls into eigenpoly's public functions, recorded from outside.

``Tracer.install`` replaces every public function of the package's modules
with a timing wrapper, in every module namespace that holds it, so that
names re-imported elsewhere (``eigenpoly.solver.realize``, ``cli.solve``)
are traced too.  Each call records a span: name, start, end, parent span,
operation id, and traced memory (start, peak above start, end) when
tracemalloc is running.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

MODULES = ("structures", "eigendata", "solver", "verify", "jsonio", "fixtures", "cli")
MIB = 2.0**20


@dataclass
class Span:
    id: int
    name: str
    op: object
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0
    mem_start: int = 0
    mem_peak: int = 0
    mem_end: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.children_s


def _extra(name: str, result) -> dict:
    """Counts read off a layer's return value at its boundary."""
    if name == "solver.assemble":
        rows, cols = result.U.shape
        return {"u_rows": rows, "u_cols": cols}
    if name == "solver.analyze":
        return {"rank": result.rank}
    if name == "solver.solve":
        family = result[1]
        held = sum(v.nbytes for v in vars(family).values() if hasattr(v, "nbytes"))
        return {"family_bytes": held}
    if name == "jsonio.dumps":
        return {"out_bytes": len(result)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list = []
        self._saved: list = []
        self._wrappers: dict = {}

    def install(self) -> None:
        """Put the wrappers in place; a no-op while they are installed."""
        if self._saved:
            return
        modules = [importlib.import_module(f"eigenpoly.{m}") for m in MODULES]
        if not self._wrappers:
            for short, mod in zip(MODULES, modules):
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                        self._wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules + [importlib.import_module("eigenpoly")]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, self._wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            memory = tracemalloc.is_tracing()
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), name, tracer.op, parent.id if parent else None, 0.0)
            tracer.spans.append(span)
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent.mem_peak = max(parent.mem_peak, peak)
                span.mem_start = span.mem_peak = current
                tracemalloc.reset_peak()
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.seconds
                if memory:
                    current, peak = tracemalloc.get_traced_memory()
                    span.mem_end = current
                    span.mem_peak = max(span.mem_peak, peak)
                    if parent is not None:
                        parent.mem_peak = max(parent.mem_peak, span.mem_peak)
            span.extra = _extra(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                row = asdict(s)
                row.pop("children_s")
                row["self"] = s.self_seconds
                fh.write(json.dumps(row) + "\n")


def _median(values):
    return statistics.median(values) if values else None


def _by_name(spans) -> dict:
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    return by


def layer_metrics(time_spans, memory_spans) -> dict:
    """Per-layer figures: times and counts from spans recorded without
    tracemalloc, memory from spans recorded with it.  A figure whose layer
    was not called is None."""
    by, mem = _by_name(time_spans), _by_name(memory_spans)

    def ms(names, self_time=False):
        picked = [s for n in names for s in by.get(n, [])]
        return _median([1e3 * (s.self_seconds if self_time else s.seconds) for s in picked])

    def mib(name, what):
        values = [(s.mem_peak - s.mem_start) if what == "peak" else (s.mem_end - s.mem_start) for s in mem.get(name, [])]
        return _median([v / MIB for v in values])

    def extra(name, key, scale=1.0):
        return _median([s.extra[key] / scale for s in by.get(name, []) if key in s.extra])

    loads = [n for n in by if n.startswith("jsonio.load_")]
    fixtures = [n for n in by if n.startswith("fixtures.example") and n.endswith("_eigenpairs")]
    return {
        "structures.build_basis.ms": ms(["structures.build_basis"]),
        "structures.build_basis.peak_mib": mib("structures.build_basis", "peak"),
        "structures.basis_mib": mib("structures.build_basis", "held"),
        "structures.realize.ms": ms(["structures.realize"]),
        "eigendata.encode.ms": ms(["eigendata.encode"]),
        "solver.assemble.ms": ms(["solver.assemble"], self_time=True),
        "solver.assemble.peak_mib": mib("solver.assemble", "peak"),
        "solver.analyze.ms": ms(["solver.analyze"]),
        "solver.analyze.peak_mib": mib("solver.analyze", "peak"),
        "solver.family_mib": extra("solver.solve", "family_bytes", MIB),
        "solver.solve.self_ms": ms(["solver.solve"], self_time=True),
        "solver.u_rows": extra("solver.assemble", "u_rows"),
        "solver.u_cols": extra("solver.assemble", "u_cols"),
        "solver.rank": extra("solver.analyze", "rank"),
        "verify.residual.ms": ms(["verify.residual"]),
        "verify.companion_eigs.ms": ms(["verify.companion_eigs"]),
        "jsonio.load.ms": ms(loads),
        "jsonio.dumps.ms": ms(["jsonio.dumps"]),
        "jsonio.out_kib": extra("jsonio.dumps", "out_bytes", 1024.0),
        "cli.main.self_ms": ms(["cli.main"], self_time=True),
        "fixtures.eigenpairs.ms": ms(fixtures),
    }


UNITS = {
    "ms": "ms",
    "self_ms": "ms",
    "peak_mib": "MiB",
    "basis_mib": "MiB",
    "family_mib": "MiB",
    "out_kib": "KiB",
    "u_rows": "count",
    "u_cols": "count",
    "rank": "count",
    "import_ms": "ms",
    "overhead_pct": "%",
}


def unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[-1]]
