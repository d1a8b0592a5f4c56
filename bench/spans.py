"""Outside-in span tracer for the ellsov layers.

The tracer wraps, from outside the package, every public function and
every public method of the public classes in each ellsov module, plus
the public functions of ``numpy.linalg`` (the dense linear-algebra layer).
Nothing under ``src/ellsov`` is edited: wrappers are installed by
rebinding module and class attributes and removed again by ``uninstall``.

A span is one call of a wrapped function.  The layer of a span is the
module it belongs to (``theta``, ``spaces``, ``jets``, ``params``,
``gaudin``, ``eqg``, ``irf``, ``cli`` or ``linalg``).  Self time is the
span's duration minus the time covered by its child spans.

Spans are aggregated in memory per task and per (parent span, span)
edge, not stored one record per call: a single two-site RLL check emits
several hundred thousand theta spans.  Every span of one task shares the
task's id, and ``end_task`` returns the task's edge table for the trace
file written when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("theta", "spaces", "jets", "params", "gaudin", "eqg", "irf", "cli")

# the leaf every theta, zeta_bar, wp_bar and sigma evaluation reaches
THETA_LEAF = "theta.ThetaEvaluator.theta_taylor"

# spans whose return value carries a Newton iteration count
ITERATION_SPANS = ("spaces.solve_difference_bethe", "gaudin.solve_gaudin_bethe")

# Hot methods called only from inside their own layer, so a span would
# add overhead and no layer information: Lattice.reduce runs inside every
# theta_taylor call, and BoltzmannWeights.value_doubled runs about 1.8
# million times per 9-site build_T_irf_paths pass.  Their time counts as
# self time of the calling span in the same layer.
SKIP = {"theta.Lattice.reduce", "irf.BoltzmannWeights.value_doubled"}

_ROOT = "task"


class _Edge:
    __slots__ = ("calls", "total", "self", "theta", "errors", "iterations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.theta = 0  # theta_taylor calls at or below this span
        self.errors = 0
        self.iterations = 0


class Tracer:
    """Aggregating span recorder; create one per traced run."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._edges: dict[tuple[str, str], _Edge] = {}
        self._distinct: set = set()
        self._stage_distinct: dict[str, set] = {}
        self.tasks: list[dict] = []
        self.theta_errors = 0
        self._task_id = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: importlib.import_module("ellsov." + name) for name in LAYERS
        }
        rebind: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    wrapped = self._span(obj, "%s.%s" % (layer, attr))
                    rebind[id(obj)] = wrapped
        # rebind every module-level reference, including `from .x import f`
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in rebind and inspect.isfunction(obj):
                    self._patch(mod, attr, rebind[id(obj)])
        linalg = importlib.import_module("numpy.linalg")
        for attr in linalg.__all__:
            obj = getattr(linalg, attr)
            if callable(obj) and not inspect.isclass(obj):
                self._patch(linalg, attr, self._span(obj, "linalg." + attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if name in SKIP:
                continue
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._span(raw.__func__, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._span(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._span(raw, name))

    # -- the span wrapper -----------------------------------------------

    def _span(self, fn, name: str):
        perf = time.perf_counter
        stack = self._stack
        edges = self._edges
        is_theta = name.startswith("theta.")
        is_leaf = name == THETA_LEAF
        has_iterations = name in ITERATION_SPANS
        distinct = self._distinct
        stage_distinct = self._stage_distinct
        tracer = self

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]  # name, child seconds, theta calls below
            stack.append(frame)
            failed = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                dur = perf() - t0
                stack.pop()
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = _Edge()
                edge.calls += 1
                edge.total += dur
                edge.self += dur - frame[1]
                theta = frame[2]
                if is_leaf:
                    theta += 1
                    degree = args[2] if len(args) > 2 else kwargs["degree"]
                    arg = (complex(args[1]), degree)
                    distinct.add(arg)
                    if len(stack) > 2:  # task root, cli.main, the stage below it
                        stage = stack[2][0]
                        if stage not in stage_distinct:
                            stage_distinct[stage] = set()
                        stage_distinct[stage].add(arg)
                edge.theta += theta
                parent[1] += dur
                parent[2] += theta
                if failed:
                    edge.errors += 1
                    if is_theta and not parent[0].startswith("theta."):
                        tracer.theta_errors += 1
            if has_iterations:
                edge.iterations += int(result.iterations)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    # -- per-task bookkeeping -------------------------------------------

    def begin_task(self, task_id: str) -> None:
        self.theta_errors = 0
        self._stack[:] = [[_ROOT, 0.0, 0]]
        self._task_id = task_id

    def end_task(self) -> dict:
        """Close the current task and return its aggregated span table."""
        edges = {
            "%s>%s" % key: {
                "calls": e.calls,
                "total_s": e.total,
                "self_s": e.self,
                "theta_calls": e.theta,
                "errors": e.errors,
                "iterations": e.iterations,
            }
            for key, e in sorted(self._edges.items())
        }
        task = {
            "task_id": self._task_id,
            "theta_distinct": len(self._distinct),
            # distinct theta arguments below each span called by cli.main
            "stage_theta_distinct": {k: len(v) for k, v in sorted(self._stage_distinct.items())},
            "theta_errors": self.theta_errors,
            "spans": edges,
        }
        self.tasks.append(task)
        self._edges.clear()
        self._distinct.clear()
        self._stage_distinct.clear()
        return task
