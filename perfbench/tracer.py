"""In-memory span tracer that wraps the program's public functions from outside.

The benchmark never edits ``src/``: a traced run rebinds every module
attribute (and class attribute) that holds one of the functions listed in
:data:`TARGETS` to a thin wrapper that records one span per call.  A span is
``(id, parent, name, start, end, count)``; spans stay in a list in memory and
are written out once, when the traced process is done.

Self time of a span is its duration minus the durations of its direct
children, so the self times of every span of one thread add up to the
duration of that thread's root spans.  Private per-replica helpers
(``_select_device``, ``_split_evenly_batched``) are deliberately left
unwrapped: they are called ~10^5 times per run and their time lands in the
self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, float, float, float]  # id, parent, name, t0, t1, n
CountFn = Callable[[tuple, Any], float]


def _one(args: tuple, result: Any) -> float:
    return 1.0


def _num_layouts(args: tuple, result: Any) -> float:
    return float(len(args[1]))           # lite_route_batch(routing, layouts, ..)


def _num_results(args: tuple, result: Any) -> float:
    return float(len(result))            # MoECostModel.evaluate_batch


def _replicas(args: tuple, result: Any) -> float:
    return float(sum(int(r) for r in args[0]))   # relocate_experts(replicas, ..)


def _candidates(args: tuple, result: Any) -> float:
    return float(result.candidates_evaluated)    # ExpertLayoutTuner.solve


def _decisions(args: tuple, result: Any) -> float:
    return float(len(args[2]))           # simulate_iteration(self, it, decisions)


def _zero(args: tuple, result: Any) -> float:
    return 0.0


#: (module, attribute or Class.method, span name, count of work per call).
#: Module-level functions are rebound in every loaded module that imported
#: them; ``Class.method`` entries are patched on the class.
TARGETS: Tuple[Tuple[str, str, str, CountFn], ...] = (
    ("repro.workloads.routing_traces", "draw_routing_frame",
     "workloads.draw", _one),
    ("repro.core.planner", "LoadBalancingPlanner.dispatch",
     "core.planner.dispatch", _one),
    ("repro.core.planner", "LoadBalancingPlanner.observe",
     "core.planner.tune", _zero),
    ("repro.core.planner", "LoadBalancingPlanner.tune_layout",
     "core.planner.tune", _one),
    ("repro.core.layout_tuner", "ExpertLayoutTuner.solve",
     "core.layout_tuner.solve", _candidates),
    ("repro.core.relocation", "relocate_experts",
     "core.relocation.relocate", _replicas),
    ("repro.core.lite_routing", "lite_route",
     "core.lite_routing.route", _one),
    ("repro.core.lite_routing", "lite_route_batch",
     "core.lite_routing.route_batch", _num_layouts),
    ("repro.core.cost_model", "MoECostModel.evaluate",
     "core.cost_model.eval", _one),
    ("repro.core.cost_model", "MoECostModel.evaluate_batch",
     "core.cost_model.eval", _num_results),
    ("repro.sim.iteration", "IterationSimulator.simulate_iteration",
     "sim.iteration.simulate", _decisions),
    ("repro.cluster.collectives", "CollectiveCostModel.all_to_all",
     "cluster.collectives.a2a", _one),
    ("repro.sim.systems", "make_system", "api.build", _one),
    ("repro.api.runner", "ExperimentRunner.run", "api.run", _one),
    ("repro.serve.daemon", "ServeApp.submit_payload", "serve.app", _one),
    ("repro.serve.daemon", "parse_submission", "serve.parse", _one),
    ("repro.serve.daemon", "ServeApp.lookup", "serve.lookup", _one),
    ("repro.serve.daemon", "ServeApp._describe", "serve.describe", _one),
    ("repro.serve.executor", "PoolExecutor._run", "serve.exec", _one),
    ("repro.store.result_store", "ResultStore.put", "store.put", _one),
    ("repro.store.result_store", "ResultStore.compact_index",
     "store.compact", _one),
    ("repro.study.spec", "StudySpec.expand", "study.expand", _one),
    ("repro.study.runner", "split_resumable_cells", "study.split", _one),
    ("repro.fleet.worker", "launch_fleet", "fleet.launch", _one),
    ("repro.fleet.queue", "WorkQueue.populate", "fleet.populate", _one),
    ("repro.fleet.queue", "WorkQueue.claim", "fleet.claim", _one),
    ("repro.fleet.queue", "WorkQueue.complete", "fleet.complete", _one),
)



class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, count: CountFn = _one) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = clock()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end,
                                     count(args, result) if ok else 0.0))

        return traced

    def forget(self) -> None:
        """Drop inherited spans and open stacks (called in a forked child)."""
        self.spans = []
        self._local = threading.local()

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        """Wrap every target, rebinding each function wherever it is bound.

        The wrappers stay for the life of the process.
        """
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method,
                        self.wrap(cls.__dict__[method], name, count))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, count)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and loaded.__dict__.get(attr) is original):
                    setattr(loaded, attr, wrapped)
        self._install_policies()

    def _install_policies(self) -> None:
        """Wrap each policy class's ``decide_layer`` and ``decide_iteration``.

        ``decide_iteration`` is defined once, on the base class; wrapping it
        per subclass names LAER's iteration decisions apart (hidden ratio).
        """
        from repro.baselines import LoadBalancingPolicy

        decide_iteration = LoadBalancingPolicy.__dict__["decide_iteration"]
        pending = list(LoadBalancingPolicy.__subclasses__())
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            if "decide_layer" in cls.__dict__:
                setattr(cls, "decide_layer", self.wrap(
                    cls.__dict__["decide_layer"], "baselines.decide_layer"))
            setattr(cls, "decide_iteration", self.wrap(
                decide_iteration,
                f"baselines.decide_iteration:{cls.__name__}", _zero))

    # -- output ---------------------------------------------------------
    def dump(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write this process's spans (plus ``extra`` facts) as one JSON file."""
        payload = {"pid": os.getpid(), "spans": self.spans,
                   "extra": extra or {}}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def wrapper_cost_s(samples: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5 batches)."""
    tracer = Tracer()

    def noop(*args):
        return 1

    traced = tracer.wrap(noop, "calibrate")
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(samples):
            noop(1)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            traced(1)
        costs.append((time.perf_counter() - start - bare) / samples)
        tracer.spans.clear()
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)


def load_dumps(paths: Iterable[Path]) -> List[Dict[str, Any]]:
    return [json.loads(Path(p).read_text()) for p in paths]


def subtree(spans: Iterable[Span], root: str) -> List[Span]:
    """The spans named ``root`` and everything that ran beneath them."""
    spans = sorted(spans, key=lambda span: span[0])   # parents before children
    kept: set = set()
    out = []
    for span in spans:
        if span[2] == root or span[1] in kept:
            kept.add(span[0])
            out.append(span)
    return out


def aggregate(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and ``count``.

    Names of the form ``base:qualifier`` are also folded into ``base``.
    """
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for span_id, _, name, start, end, count in spans:
        keys = [name] + ([name.split(":", 1)[0]] if ":" in name else [])
        for key in keys:
            row = out.setdefault(key, {"calls": 0.0, "total_s": 0.0,
                                       "self_s": 0.0, "count": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            row["count"] += count
    return out
