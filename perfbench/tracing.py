"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` wraps every public function of the modules in ``LAYERS``,
plus the methods in ``METHODS``, and puts the wrapper wherever the package
looks the original up: ``monad`` imports ``derive_bA`` from ``adhm`` by name,
so both ``adhm.derive_bA`` and ``monad.derive_bA`` are replaced.  Each span
records its name, start, end and parent span; spans stay in memory in flat
arrays until ``write`` saves them.  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

PACKAGE = "adhm_blowup_kit"
LAYERS = ("cli", "config_io", "adhm", "monad", "sections", "linalg")
METHODS = {
    ("linalg", "Matrix"): ("__mul__", "rank", "nullity", "nullspace", "det",
                           "inverse", "solve"),
    ("sections", "SectionPoly"): ("__mul__", "eval_generic", "eval_exceptional"),
    ("monad", "MonadRep"): ("alpha_at", "beta_at"),
}

#: Per-layer metrics: inclusive seconds in the named spans.
TIME_METRICS = {
    "config_io.parse_s": ("config_io.config_from_json",),
    "config_io.emit_s": ("config_io.config_to_json", "config_io.report_to_json",
                         "config_io.dump_canonical"),
    "adhm.sample_s": ("adhm.sample_config",),
    "adhm.stabilizer_s": ("adhm.stabilizer_dim",),
    "adhm.tangent_s": ("adhm.tangent_dims",),
    "adhm.residual_s": ("adhm.constraint_residual",),
    "monad.scan_s": ("monad.singular_scan",),
    "monad.build_s": ("monad.build_monad",),
    "monad.compose_s": ("monad.check_monad_condition",),
    "monad.framing_s": ("monad.framing_verdicts", "monad.framing_check"),
    "monad.fiber_s": ("monad.fiber_data",),
    "monad.validate_s": ("monad.validate_config",),
    "sections.mul_s": ("sections.SectionPoly.__mul__",),
    "sections.eval_s": ("sections.SectionPoly.eval_generic",
                        "sections.SectionPoly.eval_exceptional"),
    "linalg.rank_s": ("linalg.Matrix.rank",),
    "linalg.inverse_s": ("linalg.Matrix.inverse",),
    "linalg.det_s": ("linalg.Matrix.det",),
    "linalg.matmul_s": ("linalg.Matrix.__mul__",),
}
#: Per-layer metrics: span time minus the time of its child spans.
SELF_METRICS = {
    "adhm.tangent_self_s": "adhm.tangent_dims",
    "monad.scan_self_s": "monad.singular_scan",
}
#: Per-layer metrics: exact call counts.
CALL_METRICS = {
    "adhm.sample.calls": ("adhm.sample_config",),
    "adhm.stabilizer.calls": ("adhm.stabilizer_dim",),
    "adhm.residual.calls": ("adhm.constraint_residual",),
    "adhm.derive_bA.calls": ("adhm.derive_bA",),
    "monad.build.calls": ("monad.build_monad",),
    "monad.fiber.calls": ("monad.fiber_data",),
    "sections.mul.calls": ("sections.SectionPoly.__mul__",),
    "sections.eval.calls": ("sections.SectionPoly.eval_generic",
                            "sections.SectionPoly.eval_exceptional"),
    "linalg.rank.calls": ("linalg.Matrix.rank",),
    "linalg.inverse.calls": ("linalg.Matrix.inverse",),
    "linalg.det.calls": ("linalg.Matrix.det",),
    "linalg.matmul.calls": ("linalg.Matrix.__mul__",),
}
#: Per-layer metrics: a number taken from the results of the named spans.
VALUE_METRICS = {
    "monad.scan_uncertified": ("monad.singular_scan",
                               lambda result: 0 if result.complete else 1),
    "config_io.report_bytes": ("config_io.dump_canonical",
                               lambda result: len(result.encode("utf-8"))),
}
UNITS = {"_s": "s", "calls": "count", "uncertified": "count", "bytes": "bytes"}


def unit_of(metric: str) -> str:
    return next(u for suffix, u in UNITS.items() if metric.endswith(suffix))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, int] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        value_of = next((f for span, f in VALUE_METRICS.values() if span == name), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if value_of is not None:
                self.values[idx] = value_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is obj:
                                self._undo.append((m, key, obj))
                                setattr(m, key, wrapper)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def __len__(self) -> int:
        return len(self.start)

    def metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics over the spans with index in [lo, hi)."""
        ids = {name: i for i, name in enumerate(self.names)}
        by_name: dict[int, list[int]] = {}
        child_time: dict[int, float] = {}
        for j in range(lo, hi):
            by_name.setdefault(self.name[j], []).append(j)
            p = self.parent[j]
            if p >= 0:
                child_time[p] = child_time.get(p, 0.0) + self.end[j] - self.start[j]

        def spans(names) -> list[int]:
            return sorted(j for n in names if n in ids for j in by_name.get(ids[n], ()))

        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            # union of the intervals, so a span nested in another of the same
            # metric is not counted twice
            total, covered = 0.0, float("-inf")
            for j in spans(names):
                s, e = self.start[j], self.end[j]
                if e > covered:
                    total += e - max(s, covered)
                    covered = e
            out[metric] = total
        for metric, name in SELF_METRICS.items():
            out[metric] = sum(self.end[j] - self.start[j] - child_time.get(j, 0.0)
                              for j in spans((name,)))
        for metric, names in CALL_METRICS.items():
            out[metric] = len(spans(names))
        for metric, (name, _) in VALUE_METRICS.items():
            out[metric] = sum(self.values.get(j, 0) for j in spans((name,)))
        return out

    def op_times(self, lo: int, hi: int, names: tuple[str, ...]) -> dict[str, dict[str, float]]:
        """Inclusive seconds in each of ``names`` below every root span in [lo, hi)."""
        root: dict[int, int] = {}
        out: dict[str, dict[str, float]] = {}
        for j in range(lo, hi):
            p = self.parent[j]
            root[j] = j if p < 0 else root[p]
            name = self.names[self.name[j]]
            op = out.setdefault(self.names[self.name[root[j]]], dict.fromkeys(names, 0.0))
            if name in names and (p < 0 or self.names[self.name[p]] != name):
                op[name] += self.end[j] - self.start[j]
        return out

    def write(self, path: Path) -> None:
        """Save every span as a tab-separated line: id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for j in range(len(self.start)):
                fh.write(f"{j}\t{self.parent[j]}\t{self.names[self.name[j]]}\t"
                         f"{self.start[j]:.9f}\t{self.end[j]:.9f}\n")
