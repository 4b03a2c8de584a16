"""Deterministic fault injection for the store/fleet/serve stack.

The protocol code under test (``repro.store``, ``repro.fleet``,
``repro.serve``) calls :func:`inject` at *named protocol points* — e.g.
``queue.post-claim`` fires after a lease file has been O_EXCL-created but
before its payload is written.  When no injector is installed (the normal
case) the hook is a single global ``None`` check.  A :class:`FaultPlan`
names which points misbehave, how (crash, torn write, ENOSPC, ...), and on
which hit, so a chaos run is fully reproducible from ``(plan, seed)``.

Cross-process propagation: a coordinator writes the plan to a JSON file and
exports ``REPRO_CHAOS_PLAN=<path>``; worker processes call
:func:`maybe_install_from_env` at startup with their own scope (worker id)
and incarnation (respawn count), so a fault aimed at ``worker-1``'s first
life fires exactly there and nowhere else.

This module is intentionally stdlib-only: the store and queue import it at
module load, so it must never import back into ``repro``.
"""

from __future__ import annotations

import errno
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "FAULT_POINTS",
    "WORKER_CRASH_POINTS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "install",
    "uninstall",
    "active",
    "inject",
    "maybe_install_from_env",
    "CHAOS_PLAN_ENV",
    "CHAOS_INCARNATION_ENV",
]

# Environment variables used to propagate a plan into worker processes.
CHAOS_PLAN_ENV = "REPRO_CHAOS_PLAN"
CHAOS_SCOPE_ENV = "REPRO_CHAOS_SCOPE"
CHAOS_INCARNATION_ENV = "REPRO_CHAOS_INCARNATION"

# Registry of every named protocol point that calls ``inject``.  The point
# name is ``<layer>.<step>``; descriptions say *when* in the protocol the
# hook fires, which is what makes a crash there meaningful.
FAULT_POINTS: Dict[str, str] = {
    "store.pre-run-file": "before the run envelope file is written",
    "store.post-run-file": "after the run file lands, before the journal append",
    "store.mid-journal-line": "before the journal line bytes are written "
                              "(torn-write capable: ctx carries fd + data)",
    "store.post-journal": "after the journal append, before the lock is released",
    "queue.post-claim": "after the lease file is O_EXCL-created, "
                        "before its payload is written",
    "queue.heartbeat": "inside a lease heartbeat refresh",
    "queue.pre-outcome": "before the outcome record is written",
    "queue.post-outcome": "after the outcome record, before the lease release",
    "worker.pre-run": "after a cell is claimed, before it executes",
    "worker.post-run": "after a cell executes, before the store put",
    "serve.client-request": "before the serve client sends an HTTP request",
    "serve.pre-execute": "before a serve executor runs a submitted spec",
}

# Points reachable from inside a fleet worker process: SIGKILL at any of
# these must be survivable via lease takeover + journal recovery.
WORKER_CRASH_POINTS: Tuple[str, ...] = (
    "worker.pre-run",
    "worker.post-run",
    "store.pre-run-file",
    "store.post-run-file",
    "store.mid-journal-line",
    "store.post-journal",
    "queue.post-claim",
    "queue.pre-outcome",
    "queue.post-outcome",
    "queue.heartbeat",
)

FAULT_KINDS: Tuple[str, ...] = (
    "crash",         # SIGKILL the current process, no cleanup
    "torn-write",    # write half of ctx[data] to ctx[fd], fsync, SIGKILL
    "corrupt-file",  # truncate ctx[path] to half its size, then continue
    "enospc",        # raise OSError(ENOSPC)
    "slow",          # sleep delay_s, then continue
    "stall",         # alias of slow (semantically: a stalled heartbeat)
    "refuse",        # raise ConnectionRefusedError
    "drop",          # raise ConnectionResetError
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: fire ``kind`` at the ``at``-th hit of ``point``.

    ``at`` is 1-based; ``times`` consecutive hits fire.  ``scope`` restricts
    the fault to one injector scope (e.g. a worker id); empty matches any.
    ``max_incarnation`` keeps a respawned worker from re-arming the same
    fault forever: with the default of 1 the fault only fires in a scope's
    first life (incarnation 0), so supervised respawns make progress.
    """

    point: str
    kind: str = "crash"
    at: int = 1
    times: int = 1
    scope: str = ""
    max_incarnation: int = 1
    delay_s: float = 0.05

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {self.point!r}; "
                             f"known: {', '.join(sorted(FAULT_POINTS))}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if self.at < 1:
            raise ValueError("FaultSpec.at is 1-based and must be >= 1")
        if self.times < 1:
            raise ValueError("FaultSpec.times must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point, "kind": self.kind, "at": self.at,
            "times": self.times, "scope": self.scope,
            "max_incarnation": self.max_incarnation, "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSpec":
        return cls(point=str(payload["point"]),
                   kind=str(payload.get("kind", "crash")),
                   at=int(payload.get("at", 1)),
                   times=int(payload.get("times", 1)),
                   scope=str(payload.get("scope", "")),
                   max_incarnation=int(payload.get("max_incarnation", 1)),
                   delay_s=float(payload.get("delay_s", 0.05)))


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults — the unit a chaos run executes."""

    name: str
    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "seed": self.seed,
                "faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(name=str(payload["name"]), seed=int(payload.get("seed", 0)),
                   faults=tuple(FaultSpec.from_dict(f)
                                for f in payload.get("faults", ())))

    def save(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


@dataclass
class FaultInjector:
    """Counts hits per point and executes matching faults.

    One injector is installed per process (see :func:`install`).  ``scope``
    identifies this process (worker id or ``""``); ``incarnation`` counts
    respawns of the same scope.  ``fired`` records every fault that actually
    executed — survivable kinds (slow, enospc, ...) append before returning,
    so post-mortems can see what was injected.
    """

    plan: FaultPlan
    scope: str = ""
    incarnation: int = 0
    enabled: bool = True
    hits: Dict[str, int] = field(default_factory=dict)
    fired: List[Dict[str, Any]] = field(default_factory=list)

    def fire(self, point: str, ctx: Mapping[str, Any]) -> None:
        if not self.enabled:
            return
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        for fault in self.plan.faults:
            if fault.point != point:
                continue
            if fault.scope and fault.scope != self.scope:
                continue
            if self.incarnation >= fault.max_incarnation:
                continue
            if not (fault.at <= count < fault.at + fault.times):
                continue
            self.fired.append({"point": point, "kind": fault.kind,
                               "hit": count, "scope": self.scope,
                               "incarnation": self.incarnation})
            self._execute(fault, ctx)

    def _execute(self, fault: FaultSpec, ctx: Mapping[str, Any]) -> None:
        kind = fault.kind
        if kind == "crash":
            _die()
        elif kind == "torn-write":
            fd, data = ctx.get("fd"), ctx.get("data")
            if fd is not None and data:
                os.write(fd, bytes(data)[: max(1, len(data) // 2)])
                os.fsync(fd)
            _die()
        elif kind == "corrupt-file":
            path = ctx.get("path")
            if path is not None and os.path.exists(path):
                size = os.path.getsize(path)
                with open(path, "r+b") as handle:
                    handle.truncate(max(1, size // 2))
        elif kind == "enospc":
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        elif kind in ("slow", "stall"):
            time.sleep(fault.delay_s)
        elif kind == "refuse":
            raise ConnectionRefusedError("connection refused (injected)")
        elif kind == "drop":
            raise ConnectionResetError("connection dropped (injected)")


def _die() -> None:
    """SIGKILL ourselves: no atexit, no finally blocks, no flushing."""
    sys.stdout.flush()
    sys.stderr.flush()
    os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)  # pragma: no cover - the signal is not interceptible


_ACTIVE: Optional[FaultInjector] = None


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    return _ACTIVE


def inject(point: str, **ctx: Any) -> None:
    """Protocol hook.  A no-op (one global read) unless an injector is live."""
    if _ACTIVE is None:
        return
    _ACTIVE.fire(point, ctx)


def maybe_install_from_env(scope: str = "",
                           incarnation: Optional[int] = None,
                           environ: Optional[Mapping[str, str]] = None,
                           ) -> Optional[FaultInjector]:
    """Install an injector if ``REPRO_CHAOS_PLAN`` points at a plan file.

    Called by worker entry points so faults cross process boundaries.
    Returns the installed injector, or None when chaos is inactive.
    """
    env = os.environ if environ is None else environ
    plan_path = env.get(CHAOS_PLAN_ENV)
    if not plan_path:
        return None
    scope = scope or env.get(CHAOS_SCOPE_ENV, "")
    if incarnation is None:
        incarnation = int(env.get(CHAOS_INCARNATION_ENV, "0"))
    try:
        plan = FaultPlan.load(plan_path)
    except (OSError, ValueError, KeyError):
        return None
    return install(FaultInjector(plan, scope=scope, incarnation=incarnation))
