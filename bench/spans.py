"""Span recorder that wraps the public functions of w9periods from outside.

Every public function of the layer modules is replaced, in every
w9periods module namespace that holds it, by a wrapper that records a
span (name, start, end, parent span, item).  Wrapping where a name is
looked up matters: `periods` calls its own imported copies of
`integrate_levels` and `tanh_sinh_nodes`, `w9` its copy of `theta_char`,
and `geodesic._series_value` resolves the module global `main_series`.

Self time (duration minus the time covered by child spans) and call
counts are aggregated as spans close, so the aggregates cover every
traced item; the raw spans are kept in memory up to a cap and written out
by the caller at the end of the run.

A few layers also get counters read at the call boundary:

- quadrature: levels per integral (by wrapping the `eval_terms` argument
  of `integrate_levels`) and nodes per level (from the arrays that
  `tanh_sinh_nodes(level)` returns);
- theta: the return value of `truncation_radius` inside each
  `theta_char` call, giving the cube size (2R+1)^g;
- geodesic: `solve_y` split into cold (no `scan_window`) and warm calls,
  `main_series` evaluations per solve, and warm calls that raised
  `BracketError` and were retried cold.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("quadrature", "periods", "siegel", "theta", "w9", "geodesic", "cli")
SPAN_CAP = 200_000  # raw spans kept in memory; the aggregates cover them all
ROOT = "item"


class _Frame:
    __slots__ = ("sid", "parent", "name", "start", "child", "radius",
                 "series", "g", "t")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0
        self.radius = None
        self.series = 0
        self.g = 0
        self.t = None


class Recorder:
    """Spans and per-name aggregates for one traced phase."""

    def __init__(self, child_dir=None):
        self.child_dir = child_dir  # where traced CLI children leave their dumps
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[_Frame] = []
        self.next_id = 0
        self.item = -1
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.radii: list[int] = []
        self.node_counts: dict[int, int] = {}
        self.item_walls: list[float] = []
        self.item_self_sums: list[float] = []
        self._item_self = 0.0
        self._fallback_t = None

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> _Frame:
        parent = self.stack[-1].sid if self.stack else None
        frame = _Frame(self.next_id, parent, name, perf_counter())
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = perf_counter()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        dur = end - frame.start
        own = dur - frame.child
        self.calls[frame.name] += 1
        self.total[frame.name] += dur
        self.self_time[frame.name] += own
        if self.stack:
            self.stack[-1].child += dur
        if frame.name == ROOT:
            self.item_walls.append(dur)
            self.item_self_sums.append(self._item_self)
        else:
            self._item_self += own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame.sid, frame.parent, self.item, frame.name,
                               frame.start, end))
        else:
            self.dropped += 1

    def begin_item(self, item_id: int) -> _Frame:
        self.item = item_id
        self._item_self = 0.0
        return self.enter(ROOT)

    def _enclosing(self, prefix: str):
        for frame in reversed(self.stack):
            if frame.name.startswith(prefix):
                return frame
        return None

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn):
        """A wrapper recording one span per call, with the layer hooks."""
        rec = self
        short = name.split(".", 1)[1]

        def wrapper(*args, **kwargs):
            frame = rec.enter(name)
            if short == "integrate_levels" and args:
                args = (rec.wrap_eval_terms(args[0]),) + args[1:]
            elif short == "solve_y":
                rec.begin_solve(frame, args, kwargs)
            elif short == "theta_char" and args:
                frame.g = len(args[0].m)
                frame.radius = kwargs.get("radius", args[4] if len(args) > 4 else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if short == "solve_y":
                    rec.end_solve(frame, exc)
                rec.exit(frame)
                raise
            if short == "tanh_sinh_nodes":
                rec.node_counts[args[0] if args else kwargs["level"]] = len(result[0])
            elif short == "truncation_radius":
                rec.radii.append(result)
                owner = rec._enclosing("theta.theta_char")
                if owner is not None and owner.radius is None:
                    owner.radius = result
            elif short == "theta_char" and frame.radius is not None:
                rec.counts["theta.cube_terms"] += (2 * frame.radius + 1) ** frame.g
            elif short == "main_series":
                solve = rec._enclosing("geodesic.solve_y")
                if solve is not None:
                    solve.series += 1
            elif short == "solve_y":
                rec.end_solve(frame, None)
            rec.exit(frame)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", short)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def wrap_eval_terms(self, eval_terms):
        rec = self

        def estimate(level):
            frame = rec.enter("periods.estimate")
            try:
                return eval_terms(level)
            finally:
                rec.counts["quadrature.levels"] += 1
                rec.counts["quadrature.nodes"] += rec.node_counts.get(level, 0)
                rec.exit(frame)

        return estimate

    def begin_solve(self, frame: _Frame, args, kwargs) -> None:
        window = args[3] if len(args) > 3 else kwargs.get("scan_window")
        frame.t = args[0] if args else kwargs.get("t")
        frame.name = "geodesic.solve_y." + ("cold" if window is None else "warm")
        if window is None and self._fallback_t is not None \
                and frame.t == self._fallback_t:
            self.counts["geodesic.warm_fallbacks"] += 1
        self._fallback_t = None

    def end_solve(self, frame: _Frame, exc) -> None:
        kind = frame.name.rsplit(".", 1)[1]
        self.counts[f"geodesic.series.{kind}"] += frame.series
        if kind == "warm" and type(exc).__name__ == "BracketError":
            self._fallback_t = frame.t

    # -- CLI items run in child processes (see tracecli.py) ---------------

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": dict(self.counts),
                "radii": self.radii, "item_walls": self.item_walls,
                "item_self_sums": self.item_self_sums, "spans": self.spans,
                "dropped": self.dropped}

    def child_path(self, item: int) -> str:
        return str(self.child_dir / f"child-{item}.json")

    def merge_child(self, item: int) -> None:
        """Fold a child's dump into this recorder, under item `item`."""
        path = self.child_dir / f"child-{item}.json"
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError:
            return
        finally:
            path.unlink(missing_ok=True)
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        for name, v in data["total"].items():
            self.total[name] += v
        for name, v in data["self"].items():
            self.self_time[name] += v
        self.radii += data["radii"]
        self.item_walls += data["item_walls"]
        self.item_self_sums += data["item_self_sums"]
        self.dropped += data["dropped"]
        offset = self.next_id
        for sid, parent, _, name, start, end in data["spans"]:
            if len(self.spans) >= SPAN_CAP:
                self.dropped += 1
                continue
            self.spans.append((sid + offset, None if parent is None else parent + offset,
                               item, name, start, end))
        self.next_id += len(data["spans"])


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "w9periods" or name.startswith("w9periods.")]


def install(rec: Recorder):
    """Wrap every public function of the layer modules; returns an undo."""
    targets = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"w9periods.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            targets[id(obj)] = rec.wrap(f"{layer}.{attr}", obj)
    undo = []
    for mod in _library_modules():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in targets:
                undo.append((mod, attr, obj))
                setattr(mod, attr, targets[id(obj)])

    def restore():
        for mod, attr, obj in undo:
            setattr(mod, attr, obj)

    return restore
