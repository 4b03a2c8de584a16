"""Time a simulator user's set-up in a fresh process: imports + system build.

Usage: ``python3 perfbench/setup_probe.py '<ExperimentSpec JSON>'``.  Prints
the seconds from the first line of this script until every system of the
spec is built and its routing source is ready to draw the first frame.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.specs import ExperimentSpec  # noqa: E402
from repro.sim.systems import make_system  # noqa: E402


def main() -> None:
    spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))
    topology = spec.cluster.to_topology()
    config = spec.workload.model_config()
    spec.workload.make_source(topology.num_devices)
    for system in spec.systems:
        make_system(system.name, config, topology,
                    spec.workload.tokens_per_device, **system.options)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))


if __name__ == "__main__":
    main()
