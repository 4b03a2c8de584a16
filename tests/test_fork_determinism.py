"""Cross-process fork() determinism audit of the scenario registry.

Fleet workers simulate cells in other processes, and their stores must match
the in-process ``StudyRunner``'s byte for byte, so a ``TraceSource.fork()``
must replay the exact trace the parent would have produced in whatever
process consumes it.  This regression matrix covers every registered runnable
scenario plus ``compose`` with each registered wrapper: a forked source
iterated in a child process must yield frames bit-identical to the parent's.
"""

import concurrent.futures

import numpy as np
import pytest

from repro.workloads.scenarios import (
    ScenarioContext,
    available_scenario_wrappers,
    default_runnable_scenarios,
    make_scenario,
)

CTX = ScenarioContext(num_devices=4, num_experts=8, num_layers=2,
                      tokens_per_device=512, top_k=2, iterations=6, seed=5)


def collect_frames(source):
    return [np.array(frame, copy=True) for frame in source.iter_iterations()]


def scenario_matrix():
    cases = [(name, {}) for name in default_runnable_scenarios()]
    for wrapper in available_scenario_wrappers():
        cases.append(("compose", {"base": "drifting", "wrappers": [wrapper]}))
    return cases


def case_id(case):
    name, params = case
    wrappers = params.get("wrappers")
    return f"{name}+{wrappers[0]}" if wrappers else name


@pytest.mark.parametrize("case", scenario_matrix(), ids=case_id)
class TestForkDeterminism:
    def test_fork_is_bit_identical_across_processes(self, case):
        name, params = case
        source = make_scenario(name, CTX, **params)
        local = collect_frames(source.fork())
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(collect_frames, source.fork()).result()
        assert len(local) == len(remote) == CTX.iterations
        for ours, theirs in zip(local, remote):
            assert ours.dtype == theirs.dtype
            assert ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)

    def test_fork_does_not_perturb_the_parent(self, case):
        name, params = case
        source = make_scenario(name, CTX, **params)
        before = collect_frames(source)
        collect_frames(source.fork())  # consuming a fork is side-effect free
        after = collect_frames(source)
        for ours, theirs in zip(before, after):
            assert np.array_equal(ours, theirs)
