"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps every public function of the qubitvar layer modules at
each name a layer module binds it to: ``tightness.variance`` and
``relations.variance`` both get a ``core.variance`` span, because the
modules import these names at load time and wrapping the defining module
alone would miss those calls.  Each span records its function, parent,
start and end in memory.  When a span at depth FOLD_DEPTH or shallower
closes, its finished subtree is folded into per-function totals: calls,
inclusive time, and self time (duration minus the time its child spans
cover).  Folding keeps memory bounded on runs with millions of calls.
Nothing under ``src/`` is modified; ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from array import array

LAYERS = ("cli", "core", "relations", "feedback", "tightness", "serialize", "verify")
FOLD_DEPTH = 3
STEP_EPS = 1e-12  # the integrators' "time left to step" threshold
COUNTERS = ("rk4_steps", "points", "ti1_undefined", "ti2_undefined", "ti3_undefined", "bytes")


def evolve_steps(sample_times, h: float) -> int:
    """RK4 steps feedback.evolve_to_times takes: full steps of h plus a remainder per target."""
    t, steps = 0.0, 0
    for target in sample_times:
        target = float(target)
        remaining = target - t
        while remaining > STEP_EPS:
            t += h if remaining >= h else remaining
            remaining = target - t
            steps += 1
        t = target
    return steps


class Tracer:
    def __init__(self, qubitvar):
        self.qubitvar = qubitvar
        # unwrapped, so counting steps adds no spans
        self._step_times = qubitvar.feedback.step_times
        self.labels: list[str] = []
        self.label_layer: list[str] = []
        self._label_ids: dict[str, int] = {}
        # open and unfolded spans, in start order
        self._name = array("h")
        self._parent = array("l")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._folded_child: dict[int, float] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.check_seconds: dict[str, float] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []

    # -- results -------------------------------------------------------

    def reset(self) -> None:
        """Zero the totals between units; wrappers stay installed."""
        self.calls[:] = [0] * len(self.labels)
        self.total[:] = [0.0] * len(self.labels)
        self.self_time[:] = [0.0] * len(self.labels)
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        self.check_seconds.clear()

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """label -> (calls, inclusive seconds, self seconds), for labels called."""
        return {
            label: (self.calls[i], self.total[i], self.self_time[i])
            for i, label in enumerate(self.labels) if self.calls[i]
        }

    # -- spans ---------------------------------------------------------

    def _label(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.label_layer.append(label.split(".", 1)[0])
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._label_ids[label]

    def _fold(self, first: int) -> None:
        """Fold the finished subtree starting at span `first` into the totals."""
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        child = [0.0] * (len(names) - first)
        # children start after their parent, so a reverse sweep sees every
        # child before its parent
        for i in range(len(names) - 1, first - 1, -1):
            dur = ends[i] - starts[i]
            label = names[i]
            self.calls[label] += 1
            self.total[label] += dur
            self.self_time[label] += dur - child[i - first] - self._folded_child.pop(i, 0.0)
            p = parents[i]
            if p >= first:
                child[p - first] += dur
            elif p >= 0:
                self._folded_child[p] = self._folded_child.get(p, 0.0) + dur
        del names[first:], parents[first:], starts[first:], ends[first:]

    def wrap(self, label: str, fn, on_return=None):
        label_id = self._label(label)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        fold = self._fold

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(label_id)
            parents.append(stack[-1] if stack else -1)
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                duration = ends[idx] - starts[idx]
                if len(stack) <= FOLD_DEPTH:
                    fold(idx)
            if on_return is not None:
                on_return(args, kwargs, result, duration)
            return result

        return traced

    # -- per-function hooks --------------------------------------------

    def _hook(self, label: str, fn):
        counters = self.counters
        layer = label.split(".", 1)[0]
        name = label.split(".", 1)[1]
        if label in ("feedback.evolve_to_times", "feedback.integrate"):
            signature = inspect.signature(fn)
            step_times = self._step_times

            def steps(args, kwargs, result, duration):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if name == "integrate":
                    n = len(step_times(a["t_end"], a["h"])) - 1
                else:
                    n = evolve_steps(a["sample_times"], a["h"])
                counters["rk4_steps"] += n
            return steps
        if label in ("tightness.ti1", "tightness.ti2", "tightness.ti3"):
            key = f"{name}_undefined"

            def undefined(args, kwargs, result, duration):
                if result is None:
                    counters[key] += 1
            return undefined
        if label == "tightness.sweep":
            def points(args, kwargs, result, duration):
                counters["points"] += len(result)
            return points
        if layer == "serialize":
            stack, names, label_layer = self._stack, self._name, self.label_layer

            def nbytes(args, kwargs, result, duration):
                # count whole documents only, not the cells nested inside them
                outer = not stack or label_layer[names[stack[-1]]] != "serialize"
                if outer and isinstance(result, str):
                    counters["bytes"] += len(result.encode())
            return nbytes
        if layer == "verify" and name.startswith("check_"):
            def check_time(args, kwargs, result, duration):
                seconds = self.check_seconds
                seconds[result.name] = seconds.get(result.name, 0.0) + duration
            return check_time
        return None

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Wrap public layer functions at every layer-module binding."""
        modules = {layer: getattr(self.qubitvar, layer) for layer in LAYERS}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                home = fn.__module__.rsplit(".", 1)[-1]
                if not fn.__module__.startswith("qubitvar.") or home not in modules:
                    continue
                label = f"{home}.{fn.__name__}"
                self._saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(label, fn, self._hook(label, fn)))
        checks = modules["verify"].CHECKS
        self._saved.append((checks, None, list(checks)))
        checks[:] = [(getattr(modules["verify"], fn.__name__), n) for fn, n in checks]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()
