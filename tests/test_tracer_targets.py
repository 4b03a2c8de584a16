"""perfbench's tracer finds every entry point it rebinds.

The repository benchmark (``perfbench/``) times the program from outside: its
tracer rebinds each ``perfbench/tracer.py::TARGETS`` name to a wrapper,
``Class.method`` entries through the class's own ``__dict__``, and each
policy's ``decide_iteration`` through ``LoadBalancingPolicy``'s.  A renamed or
deleted entry point fails the traced run's ``install()``, and one moved to a
base class raises ``KeyError`` there, so these tests read ``TARGETS``
(without importing ``perfbench`` as a package or writing into it) and check
each name against the program.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import LoadBalancingPolicy
from repro.core.layout_tuner import ExpertLayoutTuner

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets():
    """``(module, attribute)`` of every ``TARGETS`` entry, read from the
    tracer's source (compiled in memory, so no bytecode is written)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return [(module_name, attr) for module_name, attr, _, _ in module.TARGETS]


TARGETS = tracer_targets()


@pytest.mark.parametrize("module_name,attr", TARGETS,
                         ids=[attr for _, attr in TARGETS])
def test_target_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(method)), attr
    else:
        function = getattr(module, attr)
        assert callable(function) and function.__module__ == module_name


def test_policies_share_one_decide_iteration():
    assert callable(LoadBalancingPolicy.__dict__["decide_iteration"])


def test_tuner_result_counts_its_candidates(small_topology, small_cost_model):
    """The tracer counts ``ExpertLayoutTuner.solve``'s work as its result's
    ``candidates_evaluated``."""
    routing = np.random.default_rng(0).integers(0, 500, size=(8, 8))
    result = ExpertLayoutTuner(small_topology, small_cost_model,
                               2).solve(routing)
    assert result.candidates_evaluated == len(result.candidate_costs) == 2
