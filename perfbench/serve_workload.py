"""``serve-mixed``: a ``repro serve`` daemon driven by two closed-loop clients.

The daemon runs in its own process (``serve_daemon.py``) with the pool
executor and one worker, over a store pre-filled with a few hundred runs
stored three ways, one per lookup tier:

* ``exact``       -- stored under the client's own tags, so the exact
  (spec, tags) run id answers;
* ``untagged``    -- stored without tags, reached because the request's
  client tag makes the exact id miss;
* ``fingerprint`` -- stored under tags no request carries, found through the
  daemon's fingerprint map.

Two client threads, each with one keep-alive connection, submit back to
back (closed loop: ``repro submit`` callers wait for their reply) for the
run's duration.  19 of every 20 submissions resubmit a stored spec, drawn
uniformly; the 20th, at a seeded position in the block, is a fresh small
``laer`` + ``fsdp_ep`` spec that misses, executes and writes.

The run is cut into phases of ``PHASE_S`` seconds.  Between phases both
connections are idle and the host-speed probe runs; a phase's wall time and
round trips are scaled by the mean of the probes before and after it.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from common import (BENCH_DIR, emit_info, geomean, median,
                    process_peak_rss_mb, work_dir)
from hostspeed import host_scale

from repro.api.runner import run_experiment
from repro.api.specs import ClusterSpec, ExperimentSpec, SystemSpec, WorkloadSpec
from repro.chaos import verify_store
from repro.serve import ServeClient
from repro.store import ResultStore, run_id_for

CLIENT = "perfbench"
CONNECTIONS = 2
PREFILL_RUNS = 300
MISS_EVERY = 20  # one miss at a seeded position in every block of 20
SETUP_SPAWNS = 5
PHASE_S = 2.0

#: tier -> (tags the run is stored under, tags the request carries).
TIERS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "exact": ((f"client:{CLIENT}", "tier:exact"), ("tier:exact",)),
    "untagged": ((), ()),
    "fingerprint": (("origin:study",), ()),
}
TIER_NAMES = tuple(TIERS)


class Request(NamedTuple):
    """One client round trip and whether its reply was the expected one."""

    tier: str          # lookup tier of a hit, or "miss"
    seconds: float
    ok: bool
    expected: str      # the run id the reply must carry
    error: str
    phase: int


def prefill_spec(seed: int, index: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"perfbench-prefill-{index}",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=8),
        workload=WorkloadSpec(layers=1, iterations=1, warmup=0,
                              tokens_per_device=1024,
                              seed=seed * PREFILL_RUNS + index),
        systems=(SystemSpec(name="laer"),), reference="laer")


def fresh_spec(seed: int, connection: int, index: int) -> ExperimentSpec:
    """A spec no other request ever sends: it misses and executes."""
    return ExperimentSpec(
        name="perfbench-fresh",
        cluster=ClusterSpec(num_nodes=2, devices_per_node=8),
        workload=WorkloadSpec(layers=2, iterations=4, warmup=2,
                              tokens_per_device=8192,
                              seed=(seed * CONNECTIONS + connection) * 100000
                              + index),
        systems=(SystemSpec(name="laer"), SystemSpec(name="fsdp_ep")),
        reference="fsdp_ep")


def prefill(store: ResultStore, seed: int) -> List[Tuple[str, ExperimentSpec, str]]:
    """Store ``PREFILL_RUNS`` real runs, a third per lookup tier."""
    entries = []
    for index in range(PREFILL_RUNS):
        tier = TIER_NAMES[index % len(TIER_NAMES)]
        spec = prefill_spec(seed, index)
        stored = store.put(run_experiment(spec, parallel=False),
                           tags=TIERS[tier][0])
        entries.append((tier, spec, stored.run_id))
    store.compact_index()
    return entries


class Daemon:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, store_root: Path, spans: Path, trace: bool,
                 log: Path) -> None:
        start = time.perf_counter()
        self._log = log.open("w")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_daemon.py"),
             "--trace", str(int(trace)), "--spans", str(spans),
             "--", "serve", "--store", str(store_root), "--port", "0",
             "--executor", "pool", "--max-workers", "1"],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.address = f"{match.group(1)}:{match.group(2)}"
            control = ServeClient(self.address, client="perfbench-control")
            control.wait_ready(timeout=60.0, interval=0.002)
            self.setup_s = time.perf_counter() - start
            control.close()
        except BaseException:
            self.stop()
            raise

    def metrics(self) -> Dict[str, float]:
        """The daemon's ``/metrics`` counters, summed over label sets."""
        with urllib.request.urlopen(f"http://{self.address}/metrics",
                                    timeout=30) as reply:
            text = reply.read().decode()
        totals: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                name = name.split("{", 1)[0]
                totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def stop(self) -> None:
        """Graceful shutdown; waits until the process has exited."""
        try:
            if self.proc.poll() is None:
                if hasattr(self, "address"):
                    ServeClient(self.address, client="perfbench-control",
                                timeout=60.0).shutdown()
                else:  # never came up: nothing to drain
                    self.proc.kill()
            self.proc.communicate(timeout=90)
        except Exception:
            self.proc.kill()
            self.proc.communicate()
            raise
        finally:
            self._log.close()


class Connection:
    """One closed-loop client on its own keep-alive connection."""

    def __init__(self, address: str, entries, seed: int, index: int) -> None:
        self.entries = entries
        self.seed = seed
        self.index = index
        self.rng = np.random.default_rng([seed, index])
        self.client = ServeClient(address, client=CLIENT, timeout=120.0)
        self.sent = self.fresh = self.miss_at = 0
        self.broken = False

    def drive(self, deadline: float, phase: int, records: list) -> None:
        """Submit, check, repeat until ``deadline``; stop at the first error."""
        while not self.broken and time.perf_counter() < deadline:
            if self.sent % MISS_EVERY == 0:
                self.miss_at = self.sent + int(self.rng.integers(MISS_EVERY))
            if self.sent == self.miss_at:
                spec = fresh_spec(self.seed, self.index, self.fresh)
                self.fresh += 1
                tier, tags, cache = "miss", (), "miss"
                expected = run_id_for(spec, (f"client:{CLIENT}",))
            else:
                tier, spec, expected = self.entries[
                    int(self.rng.integers(len(self.entries)))]
                tags, cache = TIERS[tier][1], "hit"
            self.sent += 1
            start = time.perf_counter()
            try:
                reply = self.client.submit(spec, tags=tags)
            except Exception as error:  # counted as a failed request
                records.append(Request(tier, time.perf_counter() - start,
                                       False, expected, repr(error), phase))
                self.broken = True
                return
            ok = (reply.done and reply.cache == cache
                  and reply.run_id == expected)
            records.append(Request(tier, time.perf_counter() - start, ok,
                                   expected, "", phase))

    def close(self) -> None:
        self.client.close()


def drive_phases(address: str, entries, seed: int, seconds: float
                 ) -> Tuple[List[Request], List[float], List[float]]:
    """Both connections for ``seconds``, in phases; requests, walls, scales."""
    connections = [Connection(address, entries, seed, index)
                   for index in range(CONNECTIONS)]
    records: List[Request] = []
    walls: List[float] = []
    scales = [host_scale()]
    try:
        while sum(walls) < seconds and not any(c.broken for c in connections):
            phase = len(walls)
            start = time.perf_counter()
            deadline = start + min(PHASE_S, seconds - sum(walls))
            per_thread: List[list] = [[] for _ in connections]
            threads = [threading.Thread(target=c.drive,
                                        args=(deadline, phase, out))
                       for c, out in zip(connections, per_thread)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - start)
            scales.append(host_scale())
            records.extend(r for out in per_thread for r in out)
    finally:
        for connection in connections:
            connection.close()
    return records, walls, scales


def run(seed: int, seconds: float, trace: bool):
    """One run; attempts are the requests plus the final store check."""
    with work_dir("serve-mixed") as work:
        store_root = work / "store"
        entries = prefill(ResultStore(store_root), seed)
        setups = []
        setup_scales = [host_scale()]
        for spawn in range(SETUP_SPAWNS):
            daemon = Daemon(store_root, work / f"spans-{spawn}.json", trace,
                            work / f"daemon-{spawn}.log")
            setups.append(daemon.setup_s)
            setup_scales.append(host_scale())
            if spawn < SETUP_SPAWNS - 1:
                daemon.stop()
        try:
            flat, walls, scales = drive_phases(daemon.address, entries, seed,
                                               seconds)
            counters = daemon.metrics()
            peak_rss = process_peak_rss_mb(daemon.proc.pid)
        finally:
            daemon.stop()
        invariants = verify_store(store_root)
        failed = sum(not r.ok for r in flat) + (not invariants.ok)
        store = ResultStore(store_root)
        results = [store.get_result(r.expected) for r in flat
                   if r.tier == "miss" and r.ok]
        wall = sum(walls)
        phase_scale = [(a + b) / 2.0 for a, b in zip(scales, scales[1:])]
        emit_info("serve", {"requests": len(flat), "wall_s": wall,
                            "store_invariants_ok": invariants.ok,
                            "errors": [r.error for r in flat if r.error][:3],
                            "req_per_phase": [
                                sum(r.phase == i for r in flat)
                                for i in range(len(walls))],
                            "phase_wall_s": walls, "host_scale": scales,
                            **summarize_latency(flat)})
        if not trace:
            metrics = {
                "setup_s": median(setups) * statistics.mean(setup_scales),
                "units_per_s": len(flat) / sum(
                    w * k for w, k in zip(walls, phase_scale)),
                "op_p50_ms": median(r.seconds * phase_scale[r.phase]
                                    for r in flat) * 1000.0,
                "peak_rss_mb": peak_rss,
                "sim_tokens_per_s": geomean(
                    s.throughput for r in results for s in r.systems.values()),
            }
            return len(flat) + 1, failed, metrics
        return len(flat) + 1, failed, traced_metrics(
            work / f"spans-{SETUP_SPAWNS - 1}.json", flat, wall, counters)


def summarize_latency(flat: List[Request]) -> Dict[str, object]:
    """Hit and miss round-trip percentiles, each with its sample count.

    Each class reports the highest percentile that leaves at least ten
    samples beyond it in a full-length run (~6000 hits, ~250 misses).
    """
    out: Dict[str, object] = {}
    for label, is_miss, points in (("hot", False, (50, 99)),
                                   ("cold", True, (50, 90))):
        values = [r.seconds * 1000.0 for r in flat
                  if (r.tier == "miss") == is_miss]
        out[f"{label}_samples"] = len(values)
        cuts = (statistics.quantiles(values, n=100, method="inclusive")
                if len(values) > 1 else None)
        for point in points:
            out[f"{label}_p{point}_ms"] = cuts[point - 1] if cuts else None
    return out


def traced_metrics(spans_path: Path, flat: List[Request], wall: float,
                   counters: Dict[str, float]) -> Dict[str, float]:
    from tracer import aggregate, load_dumps, wrapper_cost_s

    dump = load_dumps([spans_path])[0]
    rows = aggregate(tuple(span) for span in dump["spans"])

    def total(name: str) -> float:
        return rows.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return rows.get(name, {}).get("calls", 0.0)

    requests = len(flat)
    round_trips = sum(r.seconds for r in flat)
    app = total("serve.app")
    index_hits = counters.get("repro_store_index_cache_hits_total", 0.0)
    index_misses = counters.get("repro_store_index_cache_misses_total", 0.0)
    connection_s = CONNECTIONS * wall
    metrics = {
        "serve.http_ms": (round_trips - app) / requests * 1000.0,
        "serve.app_ms": app / requests * 1000.0,
        "serve.parse_ms": total("serve.parse") / requests * 1000.0,
        "serve.lookup_ms": total("serve.lookup") / requests * 1000.0,
        "serve.describe_ms": total("serve.describe") / requests * 1000.0,
        "serve.exec_ms": (total("serve.exec") / calls("serve.exec") * 1000.0
                          if calls("serve.exec") else 0.0),
        "serve.misses": float(sum(r.tier == "miss" for r in flat)),
        "serve.coalesced": counters.get("repro_serve_coalesced_total", 0.0),
        "store.put_ms": (total("store.put") / calls("store.put") * 1000.0
                         if calls("store.put") else 0.0),
        "store.puts": counters.get("repro_store_puts_total", 0.0),
        "store.index_cache_hit_ratio": (
            index_hits / (index_hits + index_misses)
            if index_hits + index_misses else 0.0),
        "store.journal_appends": counters.get(
            "repro_store_journal_appends_total", 0.0),
        "store.compact_s": total("store.compact"),
        "workload.traced_wall_s": connection_s,
        "workload.unattributed_s": connection_s - round_trips,
        "workload.attributed_frac": round_trips / connection_s,
        "workload.tracing_overhead_s": len(dump["spans"]) * wrapper_cost_s(),
    }
    for tier in TIER_NAMES:
        metrics[f"serve.hits_{tier}"] = float(
            sum(r.tier == tier and r.ok for r in flat))
    return metrics
