"""Figure 12 -- ablation study on Mixtral-8x7B e8k2.

Compares full LAER-MoE against variants that disable one design component:

* ``laer_pq_only``  -- only the priority-queue proportional replica scheme;
* ``laer_even_only`` -- only the even replica scheme;
* ``laer_no_comm_opt`` -- without the Fig. 5 communication-scheduling
  optimisations;
* ``fsdp_ep`` -- the static baseline for reference.

The ablations are parameterized entries of the system registry
(:mod:`repro.sim.systems`), so the whole study is one declarative
:class:`repro.api.ExperimentSpec` executed by the shared runner.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table, print_report
from repro.api import run_experiment

from conftest import experiment_spec

SYSTEMS = ("fsdp_ep", "laer_even_only", "laer_pq_only", "laer_no_comm_opt",
           "laer")


def run_ablation(paper_cluster):
    spec = experiment_spec("mixtral-8x7b-e8k2", SYSTEMS, reference="fsdp_ep",
                           topology=paper_cluster, dataset="wikitext",
                           name="fig12-ablation")
    return run_experiment(spec)


def test_fig12_ablation(paper_cluster):
    result = run_ablation(paper_cluster)

    speedups = result.format_speedups(
        title="Figure 12: ablation of the layout solver schemes and the "
              "communication optimisations (Mixtral-8x7B e8k2)")
    balance = format_table([
        {"system": key,
         "relative_max_tokens": round(res.mean_relative_max_tokens, 3),
         "exposed_comm_ms": round(1000 * res.breakdown_s.get("exposed_comm",
                                                             0.0), 1)}
        for key, res in result.systems.items()
    ], title="Balance and exposed communication per variant")
    print_report(speedups, balance)

    throughputs = result.throughputs()
    full = throughputs["laer"]
    # The full solver (both schemes) is at least as good as either single
    # scheme, and disabling the communication optimisations costs throughput.
    assert full >= throughputs["laer_pq_only"] * 0.99
    assert full >= throughputs["laer_even_only"] * 0.99
    assert full > throughputs["laer_no_comm_opt"]
    # Every variant still beats the static baseline.
    assert all(throughputs[name] > throughputs["fsdp_ep"]
               for name in ("laer", "laer_pq_only", "laer_even_only",
                            "laer_no_comm_opt"))
