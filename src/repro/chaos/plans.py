"""Executable chaos plans: seeded fault campaigns that grade themselves.

A plan is a reproducible experiment about *our own* robustness: build a
:class:`~repro.chaos.FaultPlan` from ``(plan name, seed)``, run the real
store/fleet/serve stack under it, then assert the crash-consistency
invariants (:mod:`repro.chaos.verify`) and the plan's own expectations
(a worker really was killed, a torn journal line really was skipped).
The result is a :class:`ChaosReport` whose :meth:`~ChaosReport.summary`
carries the greppable ``invariants: ok`` / ``invariants: VIOLATED`` line
CI keys on, and whose :attr:`~ChaosReport.ok` drives the CLI exit code.

Built-in plans:

``worker-crash``
    One fleet round per entry of
    :data:`~repro.chaos.injection.WORKER_CRASH_POINTS`: the first worker
    to reach the round's protocol point is SIGKILLed there (torn-write at
    the journal point), the supervisor respawns it, survivors take over
    expired leases, and the store/queue invariants are checked after every
    round.  All runs are stamped with a fixed ``created_at`` so the final
    store digest is byte-identical to an injection-disabled run.

``torn-journal``
    A child process persists runs while faults corrupt the first run file
    and tear the journal line of the last put (SIGKILL mid-write).  The
    parent verifies quarantine + recovery, then replays the child without
    faults to prove the store heals to a complete state.

``serve-degradation``
    A serve stack whose primary executor is a fleet queue *with no workers
    attached*: the circuit breaker must open and the pool fallback must
    answer every request.  A second leg starts a real daemon and drives a
    retry-enabled :class:`~repro.serve.ServeClient` through injected
    connection drops, then checks ``GET /health``.

``serve-latency``
    Latency, not loss: a real daemon (stuck fleet-queue primary behind a
    one-strike breaker) is driven by *concurrent* retry-enabled clients
    while ``slow`` faults delay every client request and ``stall`` faults
    delay the executor pre-execute hook.  Every submission must still
    complete, the breaker must end up open, and ``GET /health`` must
    report ``degraded`` — slowness may shed performance, never answers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.chaos.injection import (
    CHAOS_PLAN_ENV,
    FAULT_POINTS,
    WORKER_CRASH_POINTS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active,
    install,
    uninstall,
)
from repro.telemetry.metrics import gauge as _metrics_gauge
from repro.chaos.retry import CircuitBreaker, RetryPolicy
from repro.chaos.verify import (
    InvariantReport,
    store_digest,
    verify_queue,
    verify_store,
)
from repro.store.result_store import FIXED_CREATED_AT_ENV, ResultStore

__all__ = ["PLAN_NAMES", "PLAN_DESCRIPTIONS", "ChaosReport", "build_plan",
           "run_chaos"]

PLAN_DESCRIPTIONS: Dict[str, str] = {
    "worker-crash": "SIGKILL a fleet worker at every worker-reachable "
                    "protocol point; supervisor + lease takeover must "
                    "lose nothing",
    "torn-journal": "corrupt a run file and tear a journal line mid-write; "
                    "verify quarantine + recovery heal the store",
    "serve-degradation": "stuck fleet queue behind the daemon: breaker "
                         "opens, pool fallback answers, client retries "
                         "ride out dropped connections",
    "serve-latency": "slow/stall faults on the serve client and executor "
                     "under concurrent load: every submission completes, "
                     "breaker opens, /health reports degraded",
}

PLAN_NAMES = tuple(PLAN_DESCRIPTIONS)

#: The worker-crash plan must observe kills at at least this many distinct
#: protocol points, or it grades itself a failure: fewer means the plan
#: exercised too little of the claim/run/persist/ack handshake to trust.
MIN_KILLED_POINTS = 6

#: Fixed run timestamp (offset by the chaos seed) so injected and
#: fault-free executions of the same plan produce byte-identical stores.
_FIXED_EPOCH = 1_600_000_000.0

# Chaos coverage as a tracked metric: how many of the registered protocol
# points the most recent plan run actually exercised (ROADMAP item 6
# follow-up; CI greps the matching summary line).
_M_POINTS_REGISTERED = _metrics_gauge(
    "repro_chaos_points_registered",
    "fault-injection protocol points registered in the codebase")
_M_POINTS_EXERCISED = _metrics_gauge(
    "repro_chaos_points_exercised",
    "distinct protocol points exercised by the last chaos run")


@dataclass
class ChaosReport:
    """Everything one chaos run learned, gradeable and serializable."""

    plan: str
    seed: int
    injected: bool
    quick: bool
    store_root: str
    rounds: List[Dict[str, Any]] = field(default_factory=list)
    invariants: InvariantReport = field(
        default_factory=lambda: InvariantReport(subject="chaos"))
    failures: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    points_exercised: List[str] = field(default_factory=list)
    digest: str = ""
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.invariants.ok and not self.failures

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def exercised(self, *points: str) -> None:
        """Record protocol points this run demonstrably reached."""
        for point in points:
            if point not in self.points_exercised:
                self.points_exercised.append(point)

    @property
    def coverage(self) -> "tuple[int, int]":
        """``(exercised, registered)`` protocol-point coverage."""
        return len(set(self.points_exercised)), len(FAULT_POINTS)

    def summary(self) -> str:
        mode = "on" if self.injected else "off"
        extras = ", ".join(f"{key}={value}" for key, value
                           in sorted(self.counters.items()))
        extras = f"; {extras}" if extras else ""
        exercised, registered = self.coverage
        lines = [
            f"chaos plan '{self.plan}' (seed {self.seed}, injection {mode}"
            f"{', quick' if self.quick else ''}): "
            f"{len(self.rounds)} round(s){extras}",
            f"chaos coverage: {exercised}/{registered} point(s) exercised",
            self.invariants.summary(),
            f"store digest {self.digest}" if self.digest else "store digest -",
        ]
        if self.failures:
            lines.append(f"chaos result: FAIL ({len(self.failures)} "
                         f"expectation failure(s))")
            lines.extend(f"  - {failure}" for failure in self.failures)
        else:
            lines.append("chaos result: PASS")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan, "seed": self.seed, "injected": self.injected,
            "quick": self.quick, "store_root": self.store_root,
            "ok": self.ok, "rounds": list(self.rounds),
            "invariants": self.invariants.to_dict(),
            "failures": list(self.failures),
            "counters": dict(self.counters),
            "points_exercised": sorted(set(self.points_exercised)),
            "points_registered": len(FAULT_POINTS),
            "digest": self.digest, "elapsed_s": self.elapsed_s,
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        return path


def build_plan(name: str, seed: int = 0) -> FaultPlan:
    """The canonical :class:`FaultPlan` for a built-in plan name.

    Deterministic in ``(name, seed)`` — the same pair always yields the
    same faults, which is what makes a chaos run reproducible.
    """
    if name == "worker-crash":
        faults = []
        for point in WORKER_CRASH_POINTS:
            kind = "torn-write" if point == "store.mid-journal-line" \
                else "crash"
            # at=1, any scope: the first worker to reach the point dies
            # there (every worker's own first hit fires, so two workers
            # may both die — the supervisor absorbs either outcome).
            faults.append(FaultSpec(point=point, kind=kind, at=1))
        return FaultPlan(name=name, seed=seed, faults=tuple(faults))
    if name == "torn-journal":
        return FaultPlan(name=name, seed=seed, faults=(
            FaultSpec(point="store.post-run-file", kind="corrupt-file", at=1),
            FaultSpec(point="store.mid-journal-line", kind="torn-write",
                      at=3),
        ))
    if name == "serve-degradation":
        return FaultPlan(name=name, seed=seed, faults=(
            FaultSpec(point="serve.client-request", kind="drop", at=1,
                      times=2),
        ))
    if name == "serve-latency":
        return FaultPlan(name=name, seed=seed, faults=(
            FaultSpec(point="serve.client-request", kind="slow", at=1,
                      times=3, delay_s=0.05),
            FaultSpec(point="serve.pre-execute", kind="stall", at=1,
                      times=2, delay_s=0.2),
        ))
    raise ValueError(f"unknown chaos plan {name!r}; "
                     f"known: {', '.join(PLAN_NAMES)}")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
@contextmanager
def _env(**pairs: Optional[str]) -> Iterator[None]:
    """Set/unset environment variables, restoring the previous values."""
    saved = {key: os.environ.get(key) for key in pairs}
    try:
        for key, value in pairs.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _tiny_spec(name: str, index: int, seed: int):
    """A sub-second single-system experiment for store/serve plans."""
    from repro.api.specs import ClusterSpec, ExperimentSpec, WorkloadSpec
    return ExperimentSpec(
        name=f"{name}-{index}",
        cluster=ClusterSpec(num_nodes=1, devices_per_node=4),
        workload=WorkloadSpec(tokens_per_device=512, layers=1, iterations=2,
                              warmup=1, seed=seed + index),
        systems=("fsdp_ep",),
        reference="fsdp_ep",
    )


def _crash_study(quick: bool, seed: int):
    from repro.study.registry import make_study
    return make_study(
        "sweep-cluster-sizes",
        sizes=(1, 2),
        devices_per_node=4,
        tokens_per_device=1024 if quick else 4096,
        layers=1,
        iterations=2 if quick else 4,
        warmup=1,
        seed=seed + 11,
    )


def _log_via(log: Optional[Callable[[str], None]]) -> Callable[[str], None]:
    return log if log is not None else (lambda message: None)


# ----------------------------------------------------------------------
# worker-crash
# ----------------------------------------------------------------------
def _run_worker_crash(report: ChaosReport, store: ResultStore,
                      plan: FaultPlan, inject_faults: bool,
                      log: Callable[[str], None]) -> None:
    from repro.fleet.worker import launch_fleet

    study = _crash_study(report.quick, report.seed)
    chaos_dir = Path(store.root) / "chaos"
    chaos_dir.mkdir(parents=True, exist_ok=True)
    killed_points: List[str] = []

    for index, fault in enumerate(plan.faults):
        round_plan = FaultPlan(name=f"{plan.name}-r{index}", seed=plan.seed,
                               faults=(fault,))
        plan_path = round_plan.save(str(chaos_dir / f"plan-r{index}.json"))
        queue_root = chaos_dir / f"queue-r{index}"
        with _env(**{CHAOS_PLAN_ENV: plan_path if inject_faults else None}):
            fleet = launch_fleet(
                study, store, workers=2,
                tags=(f"chaos-{plan.name}-r{index}",),
                lease_timeout=1.0, queue_root=queue_root,
                poll_interval=0.05, progress_interval=3600.0,
                check=False, respawn_limit=2,
            )
        kills = sum(fleet.respawns.values())
        if kills:
            killed_points.append(fault.point)
            report.count("kills", kills)
            report.count("respawns", kills)
        if fleet.failures:
            report.failures.append(
                f"round {index} ({fault.point}): {len(fleet.failures)} "
                f"cell(s) failed despite supervision: "
                f"{[f.key for f in fleet.failures]!r}")
        report.invariants.merge(verify_store(store))
        report.invariants.merge(verify_queue(queue_root, store=store))
        report.rounds.append({
            "round": index, "point": fault.point, "kind": fault.kind,
            "kills": kills, "respawns": dict(fleet.respawns),
            "executed": len(fleet.executed), "skipped": len(fleet.skipped),
            "failed": len(fleet.failures), "wall_time_s": fleet.wall_time_s,
        })
        status = f"killed x{kills}" if kills else (
            "no kill" if inject_faults else "fault-free")
        log(f"round {index}: {fault.kind} at {fault.point} -- {status}, "
            f"executed {len(fleet.executed)}, failed {len(fleet.failures)}")

    if inject_faults:
        distinct = len(set(killed_points))
        report.count("points_killed", distinct)
        report.exercised(*killed_points)
        if distinct < MIN_KILLED_POINTS:
            report.failures.append(
                f"workers were killed at only {distinct} distinct protocol "
                f"point(s) (need >= {MIN_KILLED_POINTS}): "
                f"{sorted(set(killed_points))!r}")


# ----------------------------------------------------------------------
# torn-journal
# ----------------------------------------------------------------------
_TORN_RUNS = 3


def _torn_journal_child(store_root: str,
                        plan_payload: Optional[Dict[str, Any]],
                        created_at: float, seed: int) -> None:
    """Child process: persist runs with (optionally) an injector installed."""
    from repro.api.runner import run_experiment
    os.environ[FIXED_CREATED_AT_ENV] = repr(created_at)
    if plan_payload is not None:
        install(FaultInjector(FaultPlan.from_dict(plan_payload)))
    store = ResultStore(store_root)
    for index in range(_TORN_RUNS):
        result = run_experiment(_tiny_spec("chaos-torn", index, seed))
        store.put(result, tags=("chaos", "torn-journal"))


def _run_torn_journal(report: ChaosReport, store: ResultStore,
                      plan: FaultPlan, inject_faults: bool,
                      log: Callable[[str], None]) -> None:
    payload = plan.to_dict() if inject_faults else None
    child = multiprocessing.Process(
        target=_torn_journal_child,
        args=(str(store.root), payload, _FIXED_EPOCH + report.seed,
              report.seed))
    child.start()
    child.join(timeout=120)
    if child.is_alive():  # pragma: no cover - hung child
        child.terminate()
        child.join()
        report.failures.append("torn-journal child hung and was terminated")
        return
    log(f"writer child exited with code {child.exitcode}"
        + (" (SIGKILLed by torn-write, as planned)"
           if child.exitcode not in (0, None) and inject_faults else ""))
    if inject_faults and child.exitcode == 0:
        report.failures.append(
            "torn-write fault never fired: the writer child exited cleanly")

    first = verify_store(store)
    report.invariants.merge(first)
    report.rounds.append({"round": 0, "stage": "after-faults",
                          "child_exitcode": child.exitcode,
                          "counters": dict(first.counters)})
    if inject_faults:
        for key, minimum in (("corrupt_run_files", 1), ("quarantined", 1),
                             ("journal_skipped_lines", 1)):
            if first.counters.get(key, 0) < minimum:
                report.failures.append(
                    f"expected {key} >= {minimum} after the fault run, "
                    f"got {first.counters.get(key, 0)}")
        # The verified damage is the evidence the faults actually fired
        # at their protocol points -- count them as exercised coverage.
        if first.counters.get("corrupt_run_files", 0):
            report.exercised("store.post-run-file")
        if first.counters.get("journal_skipped_lines", 0):
            report.exercised("store.mid-journal-line")
        log("verified: " + ", ".join(
            f"{key}={value}" for key, value in sorted(first.counters.items())))

    if child.exitcode != 0 or inject_faults:
        # Heal: replay the same puts fault-free; quarantined and torn runs
        # are re-persisted (puts are idempotent by content-hashed run id).
        repair = multiprocessing.Process(
            target=_torn_journal_child,
            args=(str(store.root), None, _FIXED_EPOCH + report.seed,
                  report.seed))
        repair.start()
        repair.join(timeout=120)
        if repair.exitcode != 0:
            report.failures.append(
                f"repair child exited with code {repair.exitcode}")
        second = verify_store(store)
        report.invariants.merge(second)
        report.rounds.append({"round": 1, "stage": "after-repair",
                              "child_exitcode": repair.exitcode,
                              "counters": dict(second.counters)})
    if len(store) != _TORN_RUNS:
        report.failures.append(
            f"store holds {len(store)} run(s) after repair, "
            f"expected {_TORN_RUNS}")
    else:
        log(f"store healed: all {_TORN_RUNS} runs present")


# ----------------------------------------------------------------------
# serve-degradation
# ----------------------------------------------------------------------
def _run_serve_degradation(report: ChaosReport, store: ResultStore,
                           plan: FaultPlan, inject_faults: bool,
                           log: Callable[[str], None]) -> None:
    from repro.fleet.queue import WorkQueue
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproServer
    from repro.serve.executor import (
        FallbackExecutor,
        FleetQueueExecutor,
        PoolExecutor,
    )

    # Leg 1: a fleet-queue primary with no workers attached. Every miss
    # must stall, trip the breaker, and be answered by the pool fallback.
    queue_root = Path(store.root) / "chaos" / "serve-queue"
    primary = FleetQueueExecutor(
        store, WorkQueue(queue_root, lease_timeout=0.5),
        poll_interval=0.05, stuck_timeout=0.6)
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
    executor = FallbackExecutor(primary, PoolExecutor(store), breaker)
    try:
        for index in range(2):
            spec = _tiny_spec("chaos-serve", index, report.seed)
            run = executor.submit(spec, tags=("chaos", "serve")).result(
                timeout=60)
            log(f"submission {index}: stored run {run.run_id} "
                f"(breaker {breaker.state}, fell_back={executor.fell_back})")
        health = executor.health()
        report.rounds.append({"round": 0, "stage": "fallback",
                              "fell_back": executor.fell_back,
                              "breaker": breaker.to_dict(),
                              "health": health})
        if executor.fell_back < 2:
            report.failures.append(
                f"expected both submissions to fall back to the pool, "
                f"only {executor.fell_back} did")
        if breaker.state != "open":
            report.failures.append(
                f"circuit breaker should be open after a stuck queue, "
                f"is {breaker.state!r}")
        if not health.get("degraded"):
            report.failures.append(
                "executor health should report degraded=true while the "
                "breaker is open")
        report.count("fell_back", executor.fell_back)
    finally:
        executor.shutdown()
    report.invariants.merge(verify_queue(queue_root, store=store))

    # Leg 2: a real daemon and a retry-enabled client that must ride out
    # injected connection drops, then a clean GET /health.
    server = ReproServer(store, host="127.0.0.1", port=0).start()
    client = ServeClient(server.address, client="chaos",
                         retry=RetryPolicy(retries=4, base_delay_s=0.01,
                                           max_delay_s=0.05,
                                           seed=report.seed))
    try:
        client.wait_ready()
        if inject_faults:
            install(FaultInjector(plan))
        try:
            reply = client.submit(_tiny_spec("chaos-serve", 2, report.seed),
                                  tags=("chaos", "serve"))
        finally:
            if inject_faults:
                injector = active()
                report.count("client_drops",
                             len(injector.fired) if injector else 0)
                if injector is not None and injector.fired:
                    report.exercised("serve.client-request")
                uninstall()
        if not reply.done:
            report.failures.append(
                f"retry-enabled client submission did not complete: "
                f"status={reply.status!r} error={reply.error!r}")
        else:
            log(f"client survived injected drops: run {reply.run_id} "
                f"({reply.cache})")
        status, body = client.health()
        report.rounds.append({"round": 1, "stage": "daemon",
                              "submit_status": reply.status,
                              "health_status": status, "health": body})
        if status != 200 or body.get("status") != "ok":
            report.failures.append(
                f"healthy daemon reported GET /health -> {status} "
                f"{body.get('status')!r}, expected 200 'ok'")
        if inject_faults and report.counters.get("client_drops", 0) < 2:
            report.failures.append(
                "injected connection drops never fired against the client")
    finally:
        client.close()
        server.close()
    report.invariants.merge(verify_store(store))


# ----------------------------------------------------------------------
# serve-latency
# ----------------------------------------------------------------------
_LATENCY_CLIENTS = 3


def _run_serve_latency(report: ChaosReport, store: ResultStore,
                       plan: FaultPlan, inject_faults: bool,
                       log: Callable[[str], None]) -> None:
    import threading

    from repro.fleet.queue import WorkQueue
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ReproServer
    from repro.serve.executor import (
        FallbackExecutor,
        FleetQueueExecutor,
        PoolExecutor,
    )

    # A real daemon whose primary executor is a workerless fleet queue
    # behind a one-strike breaker with a cooldown far longer than the run:
    # the first miss must fall back and leave the breaker open, so every
    # later assertion sees the degraded-but-answering steady state.
    queue_root = Path(store.root) / "chaos" / "latency-queue"
    primary = FleetQueueExecutor(
        store, WorkQueue(queue_root, lease_timeout=0.5),
        poll_interval=0.05, stuck_timeout=0.6)
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=3600.0)
    executor = FallbackExecutor(primary, PoolExecutor(store), breaker)
    server = ReproServer(store, host="127.0.0.1", port=0,
                         executor=executor).start()

    replies: List[Any] = [None] * _LATENCY_CLIENTS
    errors: List[Optional[str]] = [None] * _LATENCY_CLIENTS

    def _submit(index: int) -> None:
        client = ServeClient(
            server.address, client=f"chaos-latency-{index}",
            retry=RetryPolicy(retries=4, base_delay_s=0.01,
                              max_delay_s=0.05, seed=report.seed + index))
        try:
            replies[index] = client.submit(
                _tiny_spec("chaos-latency", index, report.seed),
                tags=("chaos", "latency"))
        except Exception as error:  # noqa: BLE001 - graded, not crashed
            errors[index] = f"{type(error).__name__}: {error}"
        finally:
            client.close()

    try:
        probe = ServeClient(server.address, client="chaos-latency-probe")
        try:
            probe.wait_ready()
            if inject_faults:
                install(FaultInjector(plan))
            try:
                threads = [threading.Thread(target=_submit, args=(index,),
                                            name=f"chaos-latency-{index}")
                           for index in range(_LATENCY_CLIENTS)]
                started = time.time()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                elapsed = time.time() - started
            finally:
                if inject_faults:
                    injector = active()
                    fired = list(injector.fired) if injector else []
                    uninstall()
                else:
                    fired = []

            slow_hits = sum(1 for event in fired
                            if event["point"] == "serve.client-request")
            stall_hits = sum(1 for event in fired
                             if event["point"] == "serve.pre-execute")
            report.count("client_slow", slow_hits)
            report.count("executor_stalls", stall_hits)
            if slow_hits:
                report.exercised("serve.client-request")
            if stall_hits:
                report.exercised("serve.pre-execute")

            completed = 0
            for index, reply in enumerate(replies):
                if errors[index]:
                    report.failures.append(
                        f"concurrent client {index} raised under latency "
                        f"faults: {errors[index]}")
                elif reply is None or not reply.done:
                    status = getattr(reply, "status", None)
                    error = getattr(reply, "error", None)
                    report.failures.append(
                        f"concurrent client {index} did not complete: "
                        f"status={status!r} error={error!r}")
                else:
                    completed += 1
            report.count("completed", completed)
            log(f"{completed}/{_LATENCY_CLIENTS} concurrent submissions "
                f"completed in {elapsed:.2f}s under "
                f"{slow_hits} slow + {stall_hits} stall fault(s) "
                f"(breaker {breaker.state})")
            if inject_faults and slow_hits < 1:
                report.failures.append(
                    "slow faults never fired at serve.client-request")
            if inject_faults and stall_hits < 1:
                report.failures.append(
                    "stall faults never fired at serve.pre-execute")

            if breaker.state != "open":
                report.failures.append(
                    f"circuit breaker should be open after the stuck "
                    f"primary queue, is {breaker.state!r}")
            status, body = probe.health()
            executor_health = body.get("executor", {})
            report.rounds.append({
                "round": 0, "stage": "concurrent-latency",
                "elapsed_s": elapsed, "completed": completed,
                "slow_hits": slow_hits, "stall_hits": stall_hits,
                "breaker": breaker.to_dict(),
                "health_status": status, "health": body,
            })
            if status != 200 or body.get("status") != "degraded":
                report.failures.append(
                    f"GET /health should answer 200 'degraded' while the "
                    f"breaker is open, got {status} "
                    f"{body.get('status')!r}")
            if not executor_health.get("degraded"):
                report.failures.append(
                    "executor health should report degraded=true while "
                    "the breaker is open")
        finally:
            probe.close()
    finally:
        server.close()
    report.invariants.merge(verify_queue(queue_root, store=store))
    report.invariants.merge(verify_store(store))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
_PLAN_RUNNERS = {
    "worker-crash": _run_worker_crash,
    "torn-journal": _run_torn_journal,
    "serve-degradation": _run_serve_degradation,
    "serve-latency": _run_serve_latency,
}


def run_chaos(plan: str, store_root: Union[str, Path], seed: int = 0,
              quick: bool = False, inject_faults: bool = True,
              log: Optional[Callable[[str], None]] = None) -> ChaosReport:
    """Execute a built-in chaos plan against a scratch store.

    Args:
        plan: One of :data:`PLAN_NAMES`.
        store_root: Scratch store directory; must be new or empty (chaos
            runs grade exactly the state they created).
        seed: Plan seed; also offsets the fixed run timestamp, so two runs
            of the same ``(plan, seed)`` — injected or not — produce
            byte-identical stores.
        quick: Shrink workloads for CI smoke runs.
        inject_faults: ``False`` runs the identical campaign with no
            injector installed — the no-op acceptance check: the resulting
            :attr:`ChaosReport.digest` must equal the injected run's.
        log: Optional progress sink (the CLI passes ``print``).

    Returns:
        A :class:`ChaosReport`; ``report.ok`` is the pass/fail verdict.
    """
    if plan not in _PLAN_RUNNERS:
        raise ValueError(f"unknown chaos plan {plan!r}; "
                         f"known: {', '.join(PLAN_NAMES)}")
    store_root = Path(store_root)
    store = ResultStore(store_root)
    if len(store):
        raise ValueError(
            f"chaos store {store_root} already holds {len(store)} run(s); "
            f"point --store at a fresh scratch directory")
    fault_plan = build_plan(plan, seed=seed)
    report = ChaosReport(plan=plan, seed=seed, injected=bool(inject_faults),
                         quick=bool(quick), store_root=str(store_root))
    report.invariants.subject = f"chaos[{plan}] store+queue"
    emit = _log_via(log)
    emit(f"chaos plan '{plan}': seed {seed}, injection "
         f"{'on' if inject_faults else 'off'}, store {store_root}")
    started = time.time()
    with _env(**{FIXED_CREATED_AT_ENV: repr(_FIXED_EPOCH + seed)}):
        _PLAN_RUNNERS[plan](report, store, fault_plan, bool(inject_faults),
                            emit)
    report.elapsed_s = time.time() - started
    report.digest = store_digest(store)
    exercised, registered = report.coverage
    _M_POINTS_EXERCISED.set(exercised)
    _M_POINTS_REGISTERED.set(registered)
    return report
