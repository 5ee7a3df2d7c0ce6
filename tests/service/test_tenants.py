"""TenantBankCache: LRU residency, sharded single-fit, verifier reuse."""

import pytest

from repro.obs import Instrumentation
from repro.service import TenantBankCache

from .conftest import run_guarded, synthetic_bank


def counting_provider(calls: dict):
    def provider(tenant_id: str):
        calls[tenant_id] = calls.get(tenant_id, 0) + 1
        return synthetic_bank(tenant_id)

    return provider


class TestResidency:
    def test_miss_then_hit(self, sched):
        calls = {}
        instr = Instrumentation.enabled()
        cache = TenantBankCache(
            sched, counting_provider(calls), capacity=4, instrumentation=instr
        )

        async def main():
            v1 = await cache.acquire("tenant-a")
            cache.release("tenant-a", v1)
            v2 = await cache.acquire("tenant-a")
            cache.release("tenant-a", v2)
            return v1, v2

        v1, v2 = run_guarded(sched, main())
        assert calls == {"tenant-a": 1}  # one fit per residency
        assert v2 is v1  # the released verifier was recycled
        snapshot = instr.snapshot()
        assert snapshot.counter_value("service_tenant_cache_total", event="miss") == 1
        assert snapshot.counter_value("service_tenant_cache_total", event="hit") == 1

    def test_concurrent_sessions_of_one_tenant_fit_once(self, sched):
        calls = {}
        cache = TenantBankCache(sched, counting_provider(calls), capacity=4)

        async def session():
            verifier = await cache.acquire("tenant-a")
            await sched.sleep(1.0)
            cache.release("tenant-a", verifier)

        async def main():
            handles = [sched.spawn(session(), name=f"s{i}") for i in range(3)]
            for handle in handles:
                await handle.join()

        run_guarded(sched, main())
        assert calls == {"tenant-a": 1}

    def test_lru_eviction_at_capacity(self, sched):
        calls = {}
        instr = Instrumentation.enabled()
        cache = TenantBankCache(
            sched, counting_provider(calls), capacity=2, instrumentation=instr
        )

        async def main():
            for tid in ("tenant-a", "tenant-b", "tenant-c"):
                verifier = await cache.acquire(tid)
                cache.release(tid, verifier)
            return tuple(cache._entries)

        resident = run_guarded(sched, main())
        assert resident == ("tenant-b", "tenant-c")  # a was least recent
        assert (
            instr.snapshot().counter_value(
                "service_tenant_cache_total", event="eviction"
            )
            == 1
        )

    def test_leased_tenants_survive_eviction(self, sched):
        cache = TenantBankCache(sched, counting_provider({}), capacity=1)

        async def main():
            held = await cache.acquire("tenant-a")  # never released
            other = await cache.acquire("tenant-b")  # would evict a, but
            cache.release("tenant-b", other)  # a is leased: overshoot
            resident = tuple(cache._entries)
            cache.release("tenant-a", held)
            return resident

        resident = run_guarded(sched, main())
        assert "tenant-a" in resident and "tenant-b" in resident
        assert len(cache) == 2  # tolerated overshoot, no orphaned lease

    def test_release_after_eviction_drops_the_verifier(self, sched):
        cache = TenantBankCache(sched, counting_provider({}), capacity=1)

        async def main():
            v_a = await cache.acquire("tenant-a")
            cache.release("tenant-a", v_a)
            v_b = await cache.acquire("tenant-b")  # evicts idle tenant-a
            cache.release("tenant-b", v_b)
            # Late release of a verifier whose tenant is gone: dropped.
            cache.release("tenant-a", v_a)
            v_a2 = await cache.acquire("tenant-a")  # refit, fresh pool
            cache.release("tenant-a", v_a2)
            return v_a, v_a2

        v_a, v_a2 = run_guarded(sched, main())
        assert v_a2 is not v_a

    def test_capacity_validation(self, sched):
        with pytest.raises(ValueError):
            TenantBankCache(sched, counting_provider({}), capacity=0)
        with pytest.raises(ValueError):
            TenantBankCache(sched, counting_provider({}), capacity=1, shards=0)
