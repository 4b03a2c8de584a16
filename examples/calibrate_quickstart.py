#!/usr/bin/env python
"""Calibration quickstart: the README "Calibration" section, runnable.

Walks the whole measure -> fit -> report -> apply loop in-process:

1. **measure** -- run the seeded microbenchmark schedule (pairwise
   transfers, per-device compute kernels, uniform All-to-All exchanges)
   against a hidden machine, a calibration profile drawn from a seed.  In
   a real campaign these timings come off the cluster; here they are
   synthesized so the script is self-contained and the truth is known;
2. **fit** -- recover per-link bandwidth scales, latency intercepts, the
   sustained-FLOPs efficiency and the per-token byte overhead from the
   observations alone, and print the recovered vs hidden parameters;
3. **report** -- render the goodness-of-fit report (per-term R2, MAPE,
   worst-fit links);
4. **apply** -- embed the fitted profile in an ``ExperimentSpec`` and run
   the same comparison nominal vs calibrated: the calibrated machine is
   strictly slower, and the simulated throughput drops accordingly.

Run with::

    python examples/calibrate_quickstart.py
"""

from __future__ import annotations

from repro.api import ClusterSpec, ExperimentSpec, WorkloadSpec
from repro.api.runner import run_experiment
from repro.calib import (
    draw_machine,
    fit_calibration,
    fit_report,
    fit_summary_line,
    run_microbenchmarks,
)
from repro.cluster.topology import ClusterTopology

NUM_NODES = 2
DEVICES_PER_NODE = 4
SEED = 42


def main() -> int:
    # -- 1. measure ----------------------------------------------------
    # The operator believes the cluster is its spec sheet; the hidden
    # machine is what the microbenchmarks actually see.
    nominal = ClusterTopology(num_nodes=NUM_NODES,
                              devices_per_node=DEVICES_PER_NODE)
    truth = draw_machine(SEED)
    observations = run_microbenchmarks(nominal, truth, seed=SEED)
    counts = observations.counts()
    print(f"measured {counts['comm']} transfers, {counts['compute']} "
          f"kernels, {counts['all_to_all']} All-to-All exchanges on the "
          f"hidden machine\n")

    # -- 2. fit --------------------------------------------------------
    fit = fit_calibration(observations)
    print(fit_summary_line(fit))
    print(f"{'parameter':28s} {'hidden':>10s} {'recovered':>10s}")
    for label, expected, actual in (
            ("intra_node_bandwidth_scale", truth.intra_node_bandwidth_scale,
             fit.profile.intra_node_bandwidth_scale),
            ("inter_node_bandwidth_scale", truth.inter_node_bandwidth_scale,
             fit.profile.inter_node_bandwidth_scale),
            ("intra_node_latency_s", truth.intra_node_latency_s,
             fit.profile.intra_node_latency_s),
            ("inter_node_latency_s", truth.inter_node_latency_s,
             fit.profile.inter_node_latency_s),
            ("flops_scale", truth.flops_scale, fit.profile.flops_scale),
            ("comm_bytes_scale", truth.comm_bytes_scale,
             fit.profile.comm_bytes_scale)):
        print(f"{label:28s} {expected:10.4g} {actual:10.4g}")
    print()

    # -- 3. report -----------------------------------------------------
    print(fit_report(fit, title="quickstart"))
    print()

    # -- 4. apply ------------------------------------------------------
    spec = ExperimentSpec(
        name="calibrate-quickstart",
        cluster=ClusterSpec(num_nodes=NUM_NODES,
                            devices_per_node=DEVICES_PER_NODE),
        workload=WorkloadSpec(tokens_per_device=4096, layers=2,
                              iterations=6, warmup=2, seed=SEED),
        systems=("fsdp_ep", "laer"),
        reference="fsdp_ep",
    )
    nominal_result = run_experiment(spec)
    calibrated_result = run_experiment(spec.with_calibration(fit.profile))
    print(f"{'system':10s} {'nominal tok/s':>14s} {'calibrated tok/s':>17s}")
    for key in nominal_result.systems:
        before = nominal_result.systems[key].throughput
        after = calibrated_result.systems[key].throughput
        print(f"{key:10s} {before:14.1f} {after:17.1f}")
    print("\nthe calibrated machine is strictly degraded (slower links, "
          "added latency,\nlower MFU, byte overhead), so simulated "
          "throughput drops for every system.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
