"""Span tracer that measures the qpd_rde layers from outside the package.

``Tracer.install`` replaces every public function bound in a package module
namespace with a timing wrapper, so calls that go through a ``from .x import
y`` binding are caught as well as calls through ``module.y``. The
``PayoffMatrix2x2`` constructor and the ``cli.cmd_*`` entry points are
wrapped too. Each span adds its duration to its parent's child time, which
gives self time; per-name aggregates are kept for the whole run and the first
KEEP_SPANS spans are kept verbatim, each tagged with the id of the root
span (one workload pass, oracle run or query) that caused it.
"""

from __future__ import annotations

import functools
import json
import time
import types

_clock = time.perf_counter_ns
KEEP_SPANS = 50_000


class Stat:
    __slots__ = ("calls", "errors", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []  # (root_id, span_id, parent_id, name, start_ns, end_ns)
        self._stack: list[list] = []  # [span_id, child_ns]
        self._next_id = 0
        self._root_id = 0
        self._undo: list[tuple] = []

    def _enter(self) -> list:
        self._next_id += 1
        frame = [self._next_id, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: int, failed: bool) -> None:
        end = _clock()
        self._stack.pop()
        dur = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.errors += failed
        stat.total_ns += dur
        stat.self_ns += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if len(self.spans) < KEEP_SPANS:
            parent = self._stack[-1][0] if self._stack else 0
            self.spans.append((self._root_id, frame[0], parent, name, start, end))

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so every call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter()
            start = _clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._exit(name, frame, start, failed)

        return traced

    def root(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a new root span; its descendants share its id."""
        self._root_id = self._next_id + 1
        return self.span(name, fn)(*args)

    def install(self) -> None:
        """Wrap the public functions of every qpd_rde module namespace."""
        import qpd_rde
        from qpd_rde import cli, ewl, game_core, quantum_rde, risk_dominance

        modules = (game_core, risk_dominance, ewl, quantum_rde, cli, qpd_rde)
        wrapped = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                if not value.__module__.startswith("qpd_rde."):
                    continue
                if attr.startswith("_") or (module is cli and not attr.startswith("cmd_")):
                    continue
                if value not in wrapped:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrapped[value] = self.span(f"{layer}.{attr}", value)
                self._patch(module, attr, wrapped[value])
        ctor = game_core.PayoffMatrix2x2
        self._patch(ctor, "__init__", self.span("game_core.PayoffMatrix2x2", ctor.__init__))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Calls and self time summed per layer (the module part of a span name)."""
        totals: dict[str, dict[str, int]] = {}
        for name, stat in self.stats.items():
            layer = totals.setdefault(name.split(".", 1)[0], {"calls": 0, "self_ns": 0})
            layer["calls"] += stat.calls
            layer["self_ns"] += stat.self_ns
        return totals

    def dump(self, path) -> None:
        """Write aggregates and kept spans as JSON."""
        payload = {
            "aggregates": {name: {"calls": s.calls, "errors": s.errors,
                                  "total_ns": s.total_ns, "self_ns": s.self_ns}
                           for name, s in sorted(self.stats.items())},
            "span_fields": ["root_id", "span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
