"""Table 4 (Appendix D) -- simulated MLP speedup on growing clusters.

Replays the same routing distribution on clusters of 8 to 128 GPUs and
reports the speedup of the MoE-layer (MLP) time of LAER-MoE's re-layout over
the static FSDP+EP placement.  The paper reports a stable ~1.49x from 8 to
128 GPUs.

The grid is now driven by the study subsystem: the registered
``sweep-cluster-sizes`` study expands the cluster-size axis into experiment
specs, the study runner executes them into a :class:`repro.store.ResultStore`
(in a scratch directory) and the table is rebuilt *from the stored runs* --
so this benchmark also exercises the persist-then-report path the
``repro study`` CLI uses.  Weak scaling as in the paper's Appendix D: the
per-GPU batch stays constant while the cluster grows, and every cell replays
the statistically identical routing distribution (same scenario, same seed).
"""

from __future__ import annotations

import tempfile

from repro.analysis.reporting import format_table, print_report
from repro.store import ResultStore
from repro.study import make_study, run_study

from conftest import BENCH_WARMUP, TOKENS_PER_DEVICE

#: Node counts; with 8 devices per node this spans 8 to 128 GPUs.
CLUSTER_SIZES = [1, 2, 4, 8, 16]


def _mlp_time(system_result) -> float:
    breakdown = system_result.breakdown_s
    return (breakdown["expert_compute"] + breakdown["all_to_all"]
            + breakdown["exposed_comm"])


def run_scalability():
    study = make_study(
        "sweep-cluster-sizes", sizes=CLUSTER_SIZES, devices_per_node=8,
        tokens_per_device=TOKENS_PER_DEVICE, layers=2, iterations=6,
        warmup=BENCH_WARMUP, skew=0.45, seed=51)
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        store = ResultStore(scratch)
        report = run_study(study, store)
        assert len(report.executed) == len(CLUSTER_SIZES)
        for outcome in report.cells:
            result = store.get_result(outcome.run_id)
            fsdp_ms = 1000 * _mlp_time(result.systems["fsdp_ep"])
            laer_ms = 1000 * _mlp_time(result.systems["laer"])
            rows.append({
                "num_gpus": result.spec.cluster.num_devices,
                "fsdp_ep_mlp_ms": round(fsdp_ms, 1),
                "laer_mlp_ms": round(laer_ms, 1),
                "mlp_speedup": round(fsdp_ms / laer_ms, 3),
            })
        # Resume across the whole grid is a no-op (nothing recomputed).
        assert not run_study(study, store).executed
    return sorted(rows, key=lambda row: row["num_gpus"])


def test_tab4_scalability():
    rows = run_scalability()
    print_report(format_table(
        rows, title="Table 4: simulated MLP speedup of LAER-MoE re-layout vs "
                    "static FSDP+EP, 8 to 128 GPUs (paper: ~1.49x, stable)"))

    speedups = [row["mlp_speedup"] for row in rows]
    assert all(s > 1.1 for s in speedups)
    # Stability: the spread across cluster sizes stays small.
    assert max(speedups) - min(speedups) < 0.5
