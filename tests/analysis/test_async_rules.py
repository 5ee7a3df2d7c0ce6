"""reproasync: the concurrency-safety rules R012-R016.

Every firing fixture here is a small multi-file project that the
per-file rules provably report nothing on; the async layer must find
the hazard interprocedurally and anchor it with a spawn/run chain
(``task root 'x' spawned at file:line``) in the evidence.  Each rule
also gets a non-firing twin — the blessed spelling of the same code —
because a concurrency linter that cannot stay quiet on correct code
would just get suppressed wholesale.
"""

import textwrap

from repro.analysis import LintConfig, analyze_source

from .test_graph import graph_lint, write_tree


def assert_per_file_clean(files):
    for name, source in files.items():
        assert analyze_source(textwrap.dedent(source), path=name) == [], name


def rule_findings(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


# ---------------------------------------------------------------------------
# R012: foreign await inside a scheduler task
# ---------------------------------------------------------------------------

R012_FILES = {
    "app.py": """
        import asyncio

        async def worker(n):
            await asyncio.sleep(0.01)
            return n

        def main(sched):
            sched.spawn(worker(1))
            return sched.run(worker(2), wall_guard_s=5.0)
        """,
}


class TestR012ForeignAwait:
    def test_per_file_rules_miss_it(self):
        assert_per_file_clean(R012_FILES)

    def test_fires_with_spawn_chain_evidence(self, tmp_path):
        write_tree(tmp_path, R012_FILES)
        result = graph_lint(tmp_path)
        findings = rule_findings(result, "R012")
        assert findings, [f"{f.rule} {f.message}" for f in result.findings]
        finding = findings[0]
        assert "asyncio.sleep" in finding.message
        assert finding.path == "app.py"
        assert any("task root" in hop for hop in finding.evidence)
        assert any("app.py:" in hop for hop in finding.evidence)

    def test_primitive_allowlist_blesses_it(self, tmp_path):
        write_tree(tmp_path, R012_FILES)
        config = LintConfig(
            rule_options=(("R012", (("primitive-allowlist", ("asyncio.sleep",)),)),)
        )
        result = graph_lint(tmp_path, config=config)
        assert rule_findings(result, "R012") == []

    def test_scheduler_module_itself_is_blessed(self, tmp_path):
        files = {"sched.py": R012_FILES["app.py"]}
        write_tree(tmp_path, files)
        config = LintConfig(scheduler_modules=("sched.py",))
        result = graph_lint(tmp_path, config=config)
        assert rule_findings(result, "R012") == []

    def test_await_on_parameter_method_is_not_foreign(self, tmp_path):
        # `await q.get(...)` on a parameter cannot be resolved statically;
        # treating it as external would flag every scheduler-queue read.
        files = {
            "app.py": """
                async def worker(q):
                    return await q.get(5.0)

                def main(sched, q):
                    sched.spawn(worker(q))
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R012") == []

    def test_inline_suppression_works(self, tmp_path):
        files = {
            "app.py": """
                import asyncio

                async def worker(n):
                    await asyncio.sleep(0.01)  # reprolint: disable=R012
                    return n

                def main(sched):
                    sched.spawn(worker(1))
                """,
        }
        write_tree(tmp_path, files)
        result = graph_lint(tmp_path)
        assert rule_findings(result, "R012") == []
        # ... and the suppression counts as used: no W001 either.
        assert rule_findings(result, "W001") == []


# ---------------------------------------------------------------------------
# R013: lock-order inversion
# ---------------------------------------------------------------------------

R013_FILES = {
    "svc.py": """
        from locks import ServiceLock

        class Pair:
            def __init__(self, scheduler):
                self.transfer_lock = ServiceLock(scheduler)
                self.audit_lock = ServiceLock(scheduler)

            async def transfer(self):
                async with self.transfer_lock:
                    async with self.audit_lock:
                        return 1

            async def audit(self):
                async with self.audit_lock:
                    async with self.transfer_lock:
                        return 2
        """,
    "locks.py": """
        class ServiceLock:
            def __init__(self, scheduler):
                self.scheduler = scheduler

            async def __aenter__(self):
                return self

            async def __aexit__(self, *exc):
                return False
        """,
}


class TestR013LockOrderInversion:
    def test_fires_with_both_acquisition_sites(self, tmp_path):
        write_tree(tmp_path, R013_FILES)
        findings = rule_findings(graph_lint(tmp_path), "R013")
        assert findings, "inversion not detected"
        finding = findings[0]
        assert "lock-order inversion" in finding.message
        assert "transfer_lock" in finding.message
        assert "audit_lock" in finding.message
        assert len(finding.evidence) == 2
        assert all("svc.py:" in hop for hop in finding.evidence)

    def test_consistent_order_is_clean(self, tmp_path):
        files = dict(R013_FILES)
        files["svc.py"] = """
            from locks import ServiceLock

            class Pair:
                def __init__(self, scheduler):
                    self.transfer_lock = ServiceLock(scheduler)
                    self.audit_lock = ServiceLock(scheduler)

                async def transfer(self):
                    async with self.transfer_lock:
                        async with self.audit_lock:
                            return 1

                async def audit(self):
                    async with self.transfer_lock:
                        async with self.audit_lock:
                            return 2
            """
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R013") == []

    def test_inversion_across_call_boundary(self, tmp_path):
        # Lock B is taken in a helper called while A is held; the cycle
        # only exists in the interprocedural lock-set dataflow.
        files = {
            "svc.py": """
                from locks import ServiceLock

                class Bank:
                    def __init__(self, scheduler):
                        self.cache_lock = ServiceLock(scheduler)
                        self.flush_lock = ServiceLock(scheduler)

                    async def _flush(self):
                        async with self.flush_lock:
                            return 0

                    async def read(self):
                        async with self.cache_lock:
                            return await self._flush()

                    async def write(self):
                        async with self.flush_lock:
                            async with self.cache_lock:
                                return 1
                """,
            "locks.py": R013_FILES["locks.py"],
        }
        write_tree(tmp_path, files)
        findings = rule_findings(graph_lint(tmp_path), "R013")
        assert findings, "cross-function inversion not detected"


# ---------------------------------------------------------------------------
# R014: blocking under a lock / inside a task
# ---------------------------------------------------------------------------

R014_FILES = {
    "svc.py": """
        import time

        from locks import ServiceLock

        class Service:
            def __init__(self, scheduler):
                self.commit_lock = ServiceLock(scheduler)

            async def commit(self):
                async with self.commit_lock:
                    time.sleep(0.5)
                    return 1
        """,
    "locks.py": R013_FILES["locks.py"],
}


class TestR014BlockingCalls:
    def test_sleep_under_lock_fires(self, tmp_path):
        write_tree(tmp_path, R014_FILES)
        findings = rule_findings(graph_lint(tmp_path), "R014")
        assert findings
        finding = findings[0]
        assert "time.sleep" in finding.message
        assert "commit_lock" in finding.message

    def test_sleep_inside_spawned_task_fires_with_chain(self, tmp_path):
        files = {
            "app.py": """
                import time

                async def worker(n):
                    time.sleep(0.1)
                    return n

                def main(sched):
                    sched.spawn(worker(1))
                """,
        }
        write_tree(tmp_path, files)
        findings = rule_findings(graph_lint(tmp_path), "R014")
        assert findings
        finding = findings[0]
        assert "scheduler task" in finding.message
        assert any("task root" in hop for hop in finding.evidence)

    def test_sleep_outside_locks_and_tasks_is_fine(self, tmp_path):
        files = {
            "tool.py": """
                import time

                def backoff(n):
                    time.sleep(n)
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R014") == []

    def test_engine_map_under_lock_fires(self, tmp_path):
        files = {
            "svc.py": """
                from locks import ServiceLock

                def work(x):
                    return x + 1

                class Service:
                    def __init__(self, scheduler, engine):
                        self.batch_lock = ServiceLock(scheduler)
                        self.engine = engine

                    async def run_batch(self, items):
                        async with self.batch_lock:
                            return self.engine.map_batches(work, items)
                """,
            "locks.py": R013_FILES["locks.py"],
        }
        write_tree(tmp_path, files)
        findings = rule_findings(graph_lint(tmp_path), "R014")
        assert findings
        assert "ExecutionEngine.map" in findings[0].message


# ---------------------------------------------------------------------------
# R015: unbounded waits
# ---------------------------------------------------------------------------

R015_FILES = {
    "app.py": """
        async def waiter(q):
            return await q.get()

        def main(sched, q):
            return sched.run(waiter(q))
        """,
}


class TestR015UnboundedWait:
    def test_unguarded_run_and_unbounded_park_both_fire(self, tmp_path):
        write_tree(tmp_path, R015_FILES)
        findings = rule_findings(graph_lint(tmp_path), "R015")
        messages = [f.message for f in findings]
        assert any("without" in m and "wall_guard_s" in m for m in messages)
        assert any("awaits get()" in m for m in messages)
        park = next(f for f in findings if "awaits get()" in f.message)
        assert any("no wall_guard_s" in hop for hop in park.evidence)

    def test_guarded_run_blesses_the_park(self, tmp_path):
        files = {
            "app.py": """
                async def waiter(q):
                    return await q.get()

                def main(sched, q):
                    return sched.run(waiter(q), wall_guard_s=30.0)
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R015") == []

    def test_timeout_on_the_wait_itself_is_enough(self, tmp_path):
        files = {
            "app.py": """
                async def waiter(q):
                    return await q.get(5.0)

                def main(sched, q):
                    return sched.run(waiter(q), wall_guard_s=30.0)
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R015") == []

    def test_forwarded_guard_keyword_counts(self, tmp_path):
        # run_workload-style delegation: the wrapper exposes wall_guard_s
        # and forwards it, so the call site is the caller's decision.
        files = {
            "app.py": """
                async def waiter(q):
                    return await q.get()

                def drive(sched, q, wall_guard_s=None):
                    return sched.run(waiter(q), wall_guard_s=wall_guard_s)
                """,
        }
        write_tree(tmp_path, files)
        findings = rule_findings(graph_lint(tmp_path), "R015")
        assert not any("drives a scheduler run" in f.message for f in findings)


# ---------------------------------------------------------------------------
# R016: cross-task shared-state races
# ---------------------------------------------------------------------------

R016_FILES = {
    "app.py": """
        TOTAL = 0

        async def bump_fast(sched):
            global TOTAL
            await sched.sleep(0.01)
            TOTAL = TOTAL + 1

        async def bump_slow(sched):
            global TOTAL
            await sched.sleep(0.05)
            TOTAL = TOTAL + 1

        def main(sched):
            sched.spawn(bump_fast(sched))
            sched.spawn(bump_slow(sched))
        """,
}


class TestR016SharedStateRace:
    def test_two_spawn_sites_no_lock_fires(self, tmp_path):
        write_tree(tmp_path, R016_FILES)
        findings = rule_findings(graph_lint(tmp_path), "R016")
        assert findings
        finding = findings[0]
        assert "TOTAL" in finding.message
        assert "distinct spawn sites" in finding.message
        # Both writers and both spawn chains appear in the evidence.
        writes = [hop for hop in finding.evidence if "writes" in hop]
        roots = [hop for hop in finding.evidence if "task root" in hop]
        assert len(writes) == 2
        assert len(roots) == 2

    def test_common_lock_blesses_it(self, tmp_path):
        files = {
            "app.py": """
                from threading import RLock

                TOTAL = 0
                TOTAL_LOCK = RLock()

                async def bump_fast(sched):
                    global TOTAL
                    await sched.sleep(0.01)
                    with TOTAL_LOCK:
                        TOTAL = TOTAL + 1

                async def bump_slow(sched):
                    global TOTAL
                    await sched.sleep(0.05)
                    with TOTAL_LOCK:
                        TOTAL = TOTAL + 1

                def main(sched):
                    sched.spawn(bump_fast(sched))
                    sched.spawn(bump_slow(sched))
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R016") == []

    def test_single_spawn_site_is_not_a_pair(self, tmp_path):
        files = {
            "app.py": """
                TOTAL = 0

                async def bump(sched):
                    global TOTAL
                    await sched.sleep(0.01)
                    TOTAL = TOTAL + 1

                def main(sched):
                    sched.spawn(bump(sched))
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R016") == []

    def test_writer_without_suspension_is_exempt(self, tmp_path):
        files = {
            "app.py": """
                TOTAL = 0

                def bump_a():
                    global TOTAL
                    TOTAL = TOTAL + 1

                def bump_b():
                    global TOTAL
                    TOTAL = TOTAL + 2

                async def task_a(sched):
                    bump_a()

                async def task_b(sched):
                    bump_b()

                def main(sched):
                    sched.spawn(task_a(sched))
                    sched.spawn(task_b(sched))
                """,
        }
        write_tree(tmp_path, files)
        assert rule_findings(graph_lint(tmp_path), "R016") == []

    def test_ignore_attrs_option(self, tmp_path):
        write_tree(tmp_path, R016_FILES)
        config = LintConfig(
            rule_options=(("R016", (("ignore-attrs", ("TOTAL",)),)),)
        )
        result = graph_lint(tmp_path, config=config)
        assert rule_findings(result, "R016") == []
