"""Per-tenant model state behind an LRU cache with sharded locks.

A multi-tenant deployment cannot keep a fitted LOF bank per tenant in
memory forever, and it must not fit the same bank twice because two
sessions of one tenant raced through admission.  This module owns both
problems:

* an **LRU cache** of :class:`_TenantEntry` (fitted
  :class:`~repro.core.detector.LivenessDetector` plus a pool of recycled
  :class:`~repro.core.streaming.StreamingVerifier`\\ s), bounded by
  ``capacity``;
* **sharded locks**: a tenant's fit runs under its shard's
  :class:`~repro.service.scheduler.ServiceLock`, so concurrent sessions
  of the same tenant fit once (double-checked inside the lock) while
  tenants on different shards never contend.  Sharding uses
  ``zlib.crc32`` — the builtin ``hash`` is salted per process, which
  would make shard assignment (and hence lock-contention order)
  nondeterministic.

Verifier recycling leans on the session lifecycle:
``StreamingVerifier.reset()`` is bit-identical to construction, so a
session cannot tell whether its verifier is fresh or recycled — which is
exactly what keeps the pool-vs-serial identity check honest.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Callable

from ..core.config import DetectorConfig
from ..core.detector import LivenessDetector
from ..core.streaming import StreamingVerifier
from ..obs.instrument import Instrumentation
from .scheduler import Scheduler, ServiceLock

__all__ = ["TenantBankCache"]


class _TenantEntry:
    __slots__ = ("detector", "free", "leases")

    def __init__(self, detector: LivenessDetector) -> None:
        self.detector = detector
        self.free: list[StreamingVerifier] = []
        self.leases = 0  # verifiers currently held by running sessions


class TenantBankCache:
    """LRU of fitted tenant models with a recycled-verifier pool.

    Parameters
    ----------
    scheduler:
        Time regime; the shard locks park through it.
    bank_provider:
        ``tenant_id -> bank`` callable (a ``(n, 4)`` array or a list of
        :class:`~repro.core.features.FeatureVector`).  Called at most
        once per cache residency of a tenant; stands in for the
        enrollment store.
    capacity:
        Maximum resident tenants; the least recently used entry is
        evicted on overflow.  Evicting a tenant with live sessions is
        safe — those sessions keep their verifier, only the pool and the
        cached fit are dropped.
    shards:
        Number of fit locks.  More shards, less cross-tenant contention.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        bank_provider: Callable[[str], object],
        capacity: int,
        shards: int = 4,
        detector_config: DetectorConfig | None = None,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("tenant cache capacity must be >= 1")
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        self._scheduler = scheduler
        self._bank_provider = bank_provider
        self._capacity = capacity
        self._config = detector_config or DetectorConfig()
        self._instr = Instrumentation.ensure(instrumentation)
        self._locks = [ServiceLock(scheduler) for _ in range(shards)]
        self._entries: OrderedDict[str, _TenantEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _shard_of(self, tenant_id: str) -> ServiceLock:
        return self._locks[zlib.crc32(tenant_id.encode()) % len(self._locks)]

    async def acquire(self, tenant_id: str) -> StreamingVerifier:
        """Lease a verifier for one session of ``tenant_id``.

        Misses fit the tenant's bank under the shard lock (double-checked
        so a raced second session reuses the first fit).  Return the
        lease with :meth:`release` when the session ends.
        """
        entry = self._entries.get(tenant_id)
        if entry is None:
            async with self._shard_of(tenant_id):
                entry = self._entries.get(tenant_id)
                if entry is None:
                    self._instr.count("service_tenant_cache_total", event="miss")
                    detector = LivenessDetector(self._config)
                    detector.fit(self._bank_provider(tenant_id))
                    entry = _TenantEntry(detector)
                    self._entries[tenant_id] = entry
                    self._evict_over_capacity(protect=tenant_id)
                else:
                    self._instr.count("service_tenant_cache_total", event="hit")
        else:
            self._instr.count("service_tenant_cache_total", event="hit")
        self._entries.move_to_end(tenant_id)
        entry.leases += 1
        if entry.free:
            return entry.free.pop()
        return StreamingVerifier(entry.detector)

    def release(self, tenant_id: str, verifier: StreamingVerifier) -> None:
        """Return a leased verifier; reset() makes it fresh for the next
        session.  If the tenant was evicted meanwhile, the verifier is
        simply dropped."""
        entry = self._entries.get(tenant_id)
        if entry is None or entry.detector is not verifier.detector:
            return
        entry.leases -= 1
        verifier.reset()
        entry.free.append(verifier)

    def _evict_over_capacity(self, protect: str) -> None:
        while len(self._entries) > self._capacity:
            evicted = None
            for tid, entry in self._entries.items():
                # Never evict the entry being inserted (``protect``):
                # when every older resident is leased it would be the
                # only leases==0 entry — and evicting it would orphan
                # the acquire in flight.
                if entry.leases == 0 and tid != protect:
                    evicted = tid
                    break
            if evicted is None:
                # Every resident tenant has live sessions; allow the
                # temporary overshoot rather than orphaning leases.
                return
            del self._entries[evicted]
            self._instr.count("service_tenant_cache_total", event="eviction")
