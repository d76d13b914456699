"""Pluggable I/O scheduling at the host→device boundary.

One :class:`Scheduler` instance runs per device.  The serving loop
(:mod:`repro.cluster.serve`) asks it which backlogged tenant's request
to grant the next device slot, at a *decision instant* ``t_dec`` — the
earliest virtual time at which both a request and a device queue slot
exist.  Policies:

* **fifo** — grant in arrival order (ties by tenant index).  This is
  the no-QoS baseline: a flooding tenant's backlog is served strictly
  before later arrivals.
* **drr** — deficit round robin over per-tenant queues, weighted.  Each
  tenant's turn grants it ``quantum_ns * weight`` of device service;
  actual (measured) service time is charged against the deficit after
  each op.  Work-conserving, starvation-free: a backlogged tenant is
  served at least once per round regardless of its neighbours' backlog.
* **token-bucket** — per-tenant rate caps (``limit_ops_s`` /
  ``burst_ops`` on the :class:`~repro.cluster.tenant.TenantSpec`).
  Deliberately *not* work-conserving: a tenant past its rate is held
  until its bucket refills, even if the device is idle.

Admission to the device is modelled by :class:`AdmissionQueue` — one
slot per queue-depth entry, implemented with the same
:class:`~repro.sim.resources.Resource` busy-until timelines the device
itself uses, so queueing delay at the host boundary lands in the same
wait-attribution machinery (``trace.note_wait``) as channel and link
contention, under a per-device contention group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

# The admission queue is boundary infrastructure (it *is* the modelled
# host→device submission queue), so it shares the device's resource
# primitive for busy-until bookkeeping and wait attribution.
from repro.sim.resources import Resource  # repro: allow[LAY001]


class AdmissionQueue:
    """Per-device submission-queue model with ``depth`` slots.

    A request granted at time ``t`` takes the earliest-free slot (the
    lowest-numbered on a tie) and holds it for its whole service; if all
    slots are busy the grant waits, and the wait is attributed to the
    queue's contention group.  The serve kernel
    (:func:`repro.cluster.kernel.serve_device`) picks, grants and
    occupies the slot in its own frame.
    """

    def __init__(self, device: int, depth: int) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.device = device
        self.group = f"dev{device}.nvmeq"
        self.slots: List[Resource] = [
            Resource(f"dev{device}.nvmeq{i}", group=self.group)
            for i in range(depth)
        ]

    @property
    def depth(self) -> int:
        return len(self.slots)

    def outage_until(self, t_up: float) -> None:
        """The submission queue did not survive a power cycle: no grant
        may start before the shard is back at ``t_up``.  (Never
        :meth:`reset` here — that would rewind the busy-until
        timelines.)"""
        for slot in self.slots:
            if slot.busy_until < t_up:
                slot.busy_until = t_up

    def reset(self) -> None:
        for slot in self.slots:
            slot.reset()


class Scheduler:
    """Base policy: one instance per device, over that device's tenants.

    ``tenants`` are the runtime tenant states of this device (objects
    with ``index``, ``spec``, ``queue`` — a deque of arrival times —
    and a mutable ``deficit`` float the DRR policy uses).  ``pick`` is
    handed the schedulable ones keyed by ``index`` and must not mutate
    the mapping (it may be the kernel's own backlog).
    """

    name = "base"

    def __init__(self, tenants: List) -> None:
        self.tenants = list(tenants)

    def pick(self, queued: Dict[int, object], t_dec: float):
        """Choose which backlogged tenant's head request to grant next."""
        raise NotImplementedError

    def release(self, tenant, t_dec: float) -> float:
        """Earliest time policy allows ``tenant`` to start (throttling)."""
        return t_dec

    def on_dispatch(self, tenant, begin: float) -> None:
        """Notification that ``tenant``'s request was granted at ``begin``."""

    def charge(self, tenant, service_ns: float) -> None:
        """Account measured service time after the op completes."""

    def on_outage(self, t_down: float, t_up: float) -> None:
        """The device power-cycled during ``[t_down, t_up)``.

        Policies may reset in-round state here; the default keeps
        everything (token buckets, for instance, refill across the
        outage exactly as they would across any idle period).
        """

    def config_json(self) -> Dict:
        return {"policy": self.name}


class FIFOScheduler(Scheduler):
    """Grant strictly in arrival order (ties broken by tenant index)."""

    name = "fifo"

    def pick(self, queued: Dict[int, object], t_dec: float):
        return min(queued.values(), key=lambda t: (t.queue[0], t.index))


class DRRScheduler(Scheduler):
    """Weighted deficit round robin over per-tenant queues.

    The ring holds every tenant in index order.  When the round pointer
    reaches a backlogged tenant it earns ``quantum_ns * weight`` of
    deficit; it keeps the device while its deficit is positive, then the
    pointer moves on.  A tenant whose queue drains forfeits its leftover
    deficit (classic DRR), so an idle period never banks service.
    """

    name = "drr"

    def __init__(self, tenants: List, quantum_ns: float = 500_000.0) -> None:
        super().__init__(tenants)
        if quantum_ns <= 0:
            raise ValueError("quantum must be positive")
        self.quantum_ns = quantum_ns
        self._ring = sorted(self.tenants, key=lambda t: t.index)
        self._ptr = 0
        self._holder = None  # tenant currently spending its deficit

    def pick(self, queued: Dict[int, object], t_dec: float):
        holder = self._holder
        if holder is not None:
            if holder.index not in queued:
                holder.deficit = 0.0  # forfeit on queue drain
            elif holder.deficit > 0:
                return holder
        # The holder is done (deficit spent or queue drained): walk the
        # ring for the next backlogged tenant, granting each visited
        # tenant a fresh turn.  Bounded: some tenant in `queued` is in
        # the ring, and a visit always yields a positive deficit.
        self._holder = None
        n = len(self._ring)
        for _ in range(n + 1):
            self._ptr = (self._ptr + 1) % n
            cand = self._ring[self._ptr]
            if cand.index not in queued:
                cand.deficit = 0.0
                continue
            if cand.deficit <= 0:
                cand.deficit += self.quantum_ns * max(1, cand.spec.weight)
            self._holder = cand
            return cand
        raise RuntimeError("DRR ring scan found no backlogged tenant")

    def charge(self, tenant, service_ns: float) -> None:
        tenant.deficit -= service_ns

    def on_outage(self, t_down: float, t_up: float) -> None:
        # The round in progress died with the device: recovery starts a
        # fresh round rather than letting the pre-crash holder spend a
        # stale deficit earned before the power loss.
        self._holder = None
        for t in self._ring:
            t.deficit = 0.0

    def config_json(self) -> Dict:
        return {"policy": self.name, "quantum_ns": self.quantum_ns}


class TokenBucketScheduler(Scheduler):
    """Per-tenant rate caps: dispatch spends one token, tokens refill at
    ``limit_ops_s`` up to ``burst_ops``.  Tenants without a limit behave
    as under FIFO.  Among throttled tenants the earliest releasable
    request wins (ties by arrival, then index)."""

    name = "token-bucket"

    def __init__(self, tenants: List) -> None:
        super().__init__(tenants)
        self._tokens: Dict[int, float] = {
            t.index: float(t.spec.burst_ops) for t in self.tenants
        }
        self._refilled_at: Dict[int, float] = {
            t.index: 0.0 for t in self.tenants
        }

    def _refill(self, tenant, t: float) -> float:
        limit = tenant.spec.limit_ops_s
        tokens = self._tokens[tenant.index]
        last = self._refilled_at[tenant.index]
        if limit and t > last:
            tokens = min(
                float(tenant.spec.burst_ops),
                tokens + (t - last) * (limit / 1e9),
            )
            self._tokens[tenant.index] = tokens
            self._refilled_at[tenant.index] = t
        return tokens

    def release(self, tenant, t_dec: float) -> float:
        limit = tenant.spec.limit_ops_s
        if not limit:
            return t_dec
        tokens = self._refill(tenant, t_dec)
        if tokens >= 1.0:
            return t_dec
        return t_dec + (1.0 - tokens) / (limit / 1e9)

    def pick(self, queued: Dict[int, object], t_dec: float):
        return min(
            queued.values(),
            key=lambda t: (
                max(self.release(t, t_dec), t.queue[0]),
                t.queue[0],
                t.index,
            ),
        )

    def on_dispatch(self, tenant, begin: float) -> None:
        if tenant.spec.limit_ops_s:
            self._refill(tenant, begin)
            self._tokens[tenant.index] -= 1.0


#: Policy registry: ``repro serve --sched <name>``.
SCHEDULERS: Dict[str, Type[Scheduler]] = {
    "fifo": FIFOScheduler,
    "drr": DRRScheduler,
    "token-bucket": TokenBucketScheduler,
}


def make_scheduler(
    name: str, tenants: List, quantum_ns: Optional[float] = None
) -> Scheduler:
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from "
            f"{', '.join(sorted(SCHEDULERS))}"
        )
    if name == "drr" and quantum_ns is not None:
        return DRRScheduler(tenants, quantum_ns=quantum_ns)
    return SCHEDULERS[name](tenants)
