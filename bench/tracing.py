"""Span tracing of the package's public functions, from outside the package.

While a :class:`Tracer` is installed, every binding of each traced function
in the loaded ``shadowctl`` modules is replaced by a wrapper that records one
span per call: name, start, end and parent.  Spans live in flat arrays in
memory, are summarised per name after the command, and can be saved with
:meth:`Tracer.save`.  A span's self time is its duration minus the durations
of its direct children.  The tracer keeps one stack, so it assumes a single
thread: the benchmark always runs commands with ``--jobs 1``.

The per-step methods ``StepOperators.step_forward``/``step_adjoint`` are not
traced: a span per step would add about 200k spans to one command and most
of their cost would land in the parent spans.  The step layer is measured as
the self time of the marchers that call them.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "cli.main"

# (module that binds the function, attribute, span name).  Every binding of
# the same object in any shadowctl module is patched, so a function imported
# by name into several modules is traced wherever it is called from.
FUNCTIONS = (
    ("shadowctl.config", "load_config", "config.load_config"),
    ("shadowctl.hum", "hum_solve", "hum.hum_solve"),
    ("shadowctl.hum", "gramian_apply", "hum.gramian_apply"),
    ("shadowctl.semilinear", "fixed_point_control", "semilinear.fixed_point_control"),
    ("shadowctl.semilinear", "linearized_coefficients",
     "semilinear.linearized_coefficients"),
    ("shadowctl.experiments", "sigma_sweep", "experiments.sigma_sweep"),
    ("shadowctl.pde", "solve_forward_linear", "pde.solve_forward_linear"),
    ("shadowctl.pde", "solve_adjoint", "pde.solve_adjoint"),
    ("shadowctl.pde", "solve_forward_semilinear", "pde.solve_forward_semilinear"),
    ("shadowctl.pde", "solve_shadow", "pde.solve_shadow"),
    ("shadowctl.pde", "splu", "pde.splu"),
    ("shadowctl.io", "write_json_report", "io.write_json_report"),
    ("shadowctl.io", "write_trajectory_csv", "io.write_trajectory_csv"),
    ("shadowctl.io", "write_control_csv", "io.write_control_csv"),
    ("shadowctl.io", "write_fields_binary", "io.write_fields_binary"),
    ("shadowctl.io", "write_series_dat", "io.write_series_dat"),
)
# (module, class, method, span name)
METHODS = (
    ("shadowctl.pde", "StepOperators", "__init__", "pde.StepOperators"),
)
REACTION_CALLABLES = ("value", "d_dy", "d_dz")


def span_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-span duration, and duration minus that of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    return dur, dur - covered


def load_spans(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent, duration, self time) per span of a file :meth:`Tracer.save` wrote."""
    with np.load(path) as spans:
        parent = spans["parent"]
        return (parent, *span_times(parent, spans["start"], spans["end"]))


@dataclasses.dataclass(frozen=True)
class Layer:
    """Calls to one span name within one command."""

    count: int
    total_s: float
    self_s: float


class Tracer:
    """Span recorder for one command at a time; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.reaction_evals = 0
        self.missing: list[str] = []

    def reset(self) -> None:
        """Forget the spans of the previous command."""
        for arr in (self._name, self._parent, self._start, self._end):
            del arr[:]
        self._stack.clear()
        self.reaction_evals = 0

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        traced.__doc__ = fn.__doc__
        return traced

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.reaction_evals += 1
            return fn(*args, **kwargs)
        return counted

    def _counting_pair(self, pair):
        def count(nl):
            return dataclasses.replace(
                nl, **{k: self._counting(getattr(nl, k)) for k in REACTION_CALLABLES})
        return dataclasses.replace(pair, f=count(pair.f), g=count(pair.g))

    @contextmanager
    def installed(self):
        """Patch the traced functions for the duration of the block."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "shadowctl" or k.startswith("shadowctl."))]
        saved = []

        def patch_everywhere(orig, replacement):
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        saved.append((mod, key, val))
                        setattr(mod, key, replacement)

        try:
            for modname, attr, name in FUNCTIONS:
                orig = getattr(sys.modules.get(modname), attr, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                patch_everywhere(orig, self.wrap(orig, name))
            for modname, clsname, meth, name in METHODS:
                cls = getattr(sys.modules.get(modname), clsname, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is None:
                    self.missing.append(name)
                    continue
                saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(orig, name))
            build_pair = getattr(sys.modules.get("shadowctl.config"), "build_pair", None)
            if build_pair is None:
                self.missing.append("nonlinear.reaction_evals")
            else:
                patch_everywhere(build_pair,
                                 lambda cfg: self._counting_pair(build_pair(cfg)))
            self.missing = sorted(set(self.missing))
            yield self
        finally:
            for obj, key, val in reversed(saved):
                setattr(obj, key, val)

    def _arrays(self):
        # copies, so no numpy view keeps the arrays from being cleared
        return (np.frombuffer(self._name, dtype=np.uint16).copy(),
                np.frombuffer(self._parent, dtype=np.int64).copy(),
                np.frombuffer(self._start).copy(),
                np.frombuffer(self._end).copy())

    def layers(self) -> dict[str, Layer]:
        """Count, total time and self time per span name for the last command."""
        if self._stack:
            raise RuntimeError("spans still open")
        name, parent, start, end = self._arrays()
        dur, self_s = span_times(parent, start, end)
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_s, minlength=k)
        return {n: Layer(int(counts[i]), float(totals[i]), float(selfs[i]))
                for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        """Write the last command's spans as a compressed numpy archive."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)
