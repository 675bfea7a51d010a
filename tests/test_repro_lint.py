"""Unit tests for the repro-lint framework and every rule.

Each rule gets a known-bad fixture snippet that must fire and a close
clean variant that must not; suppression handling and report plumbing
are covered on top.  Fixtures are strings (not files), so the
self-host run over ``tests/`` does not see them as code.
"""

import textwrap

from repro.analysis.lint import (
    PARSE_ERROR,
    all_rules,
    lint_paths,
    lint_source,
)

from .test_static_analysis import KEPT_RULES


def findings(src, path="src/repro/module.py"):
    return [f for f in lint_source(textwrap.dedent(src), path) if not f.suppressed]


def rule_ids(src, path="src/repro/module.py"):
    return {f.rule for f in findings(src, path)}


class TestFramework:
    def test_all_rules_registered(self):
        # One catalogue: the per-file rules plus the package rule.
        assert {r.id for r in all_rules()} == set(KEPT_RULES)

    def test_parse_error_is_a_finding(self):
        found = lint_source("def broken(:\n")
        assert [f.rule for f in found] == [PARSE_ERROR]

    def test_clean_realistic_fixture_no_false_positives(self):
        assert not findings(
            """
            import threading

            import numpy as np

            class Sampler:
                def __init__(self, seed):
                    self.rng = np.random.default_rng(seed)
                    self._lock = threading.Lock()
                    self._counts = {}  # guarded-by: _lock

                def draw(self, n):
                    with self._lock:
                        self._counts[n] = self._counts.get(n, 0) + 1
                    return self.rng.normal(size=n)

                def safe_compare(self, x, tol=1e-9):
                    try:
                        return abs(x - 1.0) < tol
                    except TypeError:
                        return False
            """
        )

    def test_lint_paths_report(self, tmp_path):
        (tmp_path / "bad.py").write_text(
            "try:\n    f()\nexcept:\n    pass\n"
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        report = lint_paths([tmp_path])
        assert report.files_checked == 2
        assert not report.ok
        assert [f.rule for f in report.unsuppressed] == ["broad-except"]
        payload = report.to_json()
        assert payload["unsuppressed"] == 1
        assert payload["findings"][0]["line"] == 3
        assert "bad.py" in report.render()


class TestSuppression:
    @staticmethod
    def bad(comment=""):
        """A bare except; ``comment`` trails the flagged ``except:`` line."""
        return f"try:\n    f()\nexcept:{comment}\n    pass\n"

    def test_rule_scoped_suppression(self):
        src = self.bad("  # repro-lint: ignore[broad-except]")
        assert not [f for f in lint_source(src) if not f.suppressed]
        # ... but the waiver stays visible as a suppressed finding.
        assert [f.rule for f in lint_source(src) if f.suppressed] == ["broad-except"]

    def test_wrong_rule_does_not_suppress(self):
        src = self.bad("  # repro-lint: ignore[guarded-by]")
        assert [f.rule for f in lint_source(src) if not f.suppressed] == [
            "broad-except"
        ]

    def test_blanket_suppression(self):
        src = self.bad("  # repro-lint: ignore")
        assert not [f for f in lint_source(src) if not f.suppressed]

    def test_suppression_is_line_scoped(self):
        src = self.bad("  # repro-lint: ignore[broad-except]") + self.bad()
        unsuppressed = [f for f in lint_source(src) if not f.suppressed]
        assert len(unsuppressed) == 1 and unsuppressed[0].line == 7


class TestUnseededRng:
    def test_unseeded_default_rng(self):
        assert rule_ids("import numpy as np\nr = np.random.default_rng()\n") == {
            "unseeded-rng"
        }

    def test_seeded_default_rng_clean(self):
        assert not findings("import numpy as np\nr = np.random.default_rng(7)\n")

    def test_legacy_global_numpy(self):
        assert rule_ids("import numpy as np\nx = np.random.normal(0.0, 1.0)\n") == {
            "unseeded-rng"
        }

    def test_stdlib_global_rng(self):
        assert rule_ids("import random\nx = random.random()\n") == {"unseeded-rng"}

    def test_stdlib_from_import(self):
        assert rule_ids("from random import shuffle\nshuffle([1, 2])\n") == {
            "unseeded-rng"
        }

    def test_unseeded_random_instance(self):
        assert rule_ids("import random\nr = random.Random()\n") == {"unseeded-rng"}

    def test_seeded_random_instance_clean(self):
        assert not findings("import random\nr = random.Random(3)\n")

    def test_alias_resolution(self):
        assert rule_ids("import numpy\nnumpy.random.rand(3)\n") == {"unseeded-rng"}

    def test_unrelated_module_named_random_clean(self):
        # Attribute access on a non-RNG object is not flagged.
        assert not findings("obj = get()\nobj.random.shuffle(x)\n")


class TestBroadExcept:
    def test_bare_except(self):
        assert rule_ids("try:\n    f()\nexcept:\n    pass\n") == {"broad-except"}

    def test_base_exception(self):
        assert rule_ids("try:\n    f()\nexcept BaseException:\n    raise\n") == {
            "broad-except"
        }

    def test_exception_swallow(self):
        assert rule_ids("try:\n    f()\nexcept Exception:\n    pass\n") == {
            "broad-except"
        }

    def test_handled_exception_clean(self):
        assert not findings(
            "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n    raise\n"
        )

    def test_narrow_except_clean(self):
        assert not findings("try:\n    f()\nexcept ValueError:\n    pass\n")


class TestGuardedBy:
    GOOD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}  # guarded-by: _lock

        def put(self, k, v):
            with self._lock:
                self._items[k] = v

        def merge(self, k, v):
            assert_holds(self._lock)
            self._items[k] = self._items.get(k, 0) + v
    """

    def test_clean_class(self):
        assert not findings(self.GOOD)

    def test_unlocked_access_fires(self):
        src = """
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}  # guarded-by: _lock

            def leak(self):
                return self._items
        """
        found = findings(src)
        assert [f.rule for f in found] == ["guarded-by"]
        assert "_items" in found[0].message and "_lock" in found[0].message

    def test_init_exempt(self):
        src = """
        class Store:
            def __init__(self):
                self._lock = object()
                self._items = {}  # guarded-by: _lock
                self._items["warm"] = 1
        """
        assert not findings(src)

    def test_wrong_lock_fires(self):
        src = """
        class Store:
            def __init__(self):
                self._a = object()
                self._b = object()
                self._items = {}  # guarded-by: _a

            def bad(self):
                with self._b:
                    return self._items
        """
        assert [f.rule for f in findings(src)] == ["guarded-by"]

    def test_unannotated_class_ignored(self):
        src = """
        class Plain:
            def __init__(self):
                self._items = {}

            def get(self):
                return self._items
        """
        assert not findings(src)


class TestUnboundedRetry:
    # The shape the hardened proxy replaced: a closure that bumps a
    # retry counter and re-schedules forever with no bound in sight.
    def test_unbounded_reschedule_fires(self):
        src = """
        class Proxy:
            def submit(self, batch, on_ack):
                def handle(ack):
                    if not ack.ok:
                        self.retried += 1
                        self.metrics.counter("proxy.retries").inc()
                        self.sim.schedule(self.retry_delay, self._enqueue, batch)
                self.sim.schedule(0.0, self._dispatch, batch, handle)
        """
        assert rule_ids(src) == {"unbounded-retry"}

    def test_retry_named_function_fires(self):
        src = """
        class Client:
            def _retry_put(self, cells):
                self.sim.schedule(self.backoff_base, self._send_put, cells)
        """
        assert rule_ids(src) == {"unbounded-retry"}

    def test_bounded_retry_clean(self):
        src = """
        class Proxy:
            def _retry_later(self, state):
                if state.attempts >= self.max_batch_retries:
                    self._finish(state, ok=False)
                    return
                state.attempts += 1
                self.retried += 1
                self.sim.schedule(self.retry_delay, self._enqueue, state)
        """
        assert not findings(src)

    def test_bound_in_enclosing_function_counts_for_closure(self):
        src = """
        class Client:
            def _send(self, cells, attempt):
                def resend():
                    self.sim.schedule(self.delay, self._submit, cells)
                if attempt < self.max_retries:
                    self.sim.schedule(0.0, resend)
        """
        assert not findings(src)

    def test_periodic_self_reschedule_clean(self):
        src = """
        class Driver:
            def _tick(self, interval):
                self.offered += 1
                self.sim.schedule(interval, self._tick, interval)
        """
        assert not findings(src)

    def test_while_true_spin_fires(self):
        src = """
        def resend_forever(sock, batch):
            while True:
                resend(sock, batch)
        """
        assert rule_ids(src) == {"unbounded-retry"}

    def test_while_true_with_break_clean(self):
        src = """
        def resend_until_acked(sock, batch):
            while True:
                if resend(sock, batch):
                    break
        """
        assert not findings(src)

    def test_non_retry_schedule_clean(self):
        src = """
        class Flusher:
            def _arm(self, bucket):
                self.timers[bucket] = self.sim.schedule(0.15, self._flush, bucket)
        """
        assert not findings(src)

    def test_suppression_applies(self):
        src = """
        class Proxy:
            def _retry(self, batch):
                self.sim.schedule(0.1, self._enqueue, batch)  # repro-lint: ignore[unbounded-retry] -- bounded upstream
        """
        assert not findings(src)


class TestUnboundedCache:
    def test_growing_cache_without_eviction_fires(self):
        src = """
        class Engine:
            def __init__(self):
                self._results_cache = {}

            def lookup(self, key):
                if key not in self._results_cache:
                    self._results_cache[key] = self._compute(key)
                return self._results_cache[key]
        """
        assert rule_ids(src) == {"unbounded-cache"}

    def test_memo_dict_fires(self):
        src = """
        class Planner:
            def __init__(self):
                self._memo = dict()
        """
        assert rule_ids(src) == {"unbounded-cache"}

    def test_eviction_via_popitem_clean(self):
        src = """
        from collections import OrderedDict

        class Engine:
            def __init__(self):
                self._cache = OrderedDict()

            def put(self, key, value):
                self._cache[key] = value
                while len(self._cache) > 64:
                    self._cache.popitem(last=False)
        """
        assert not findings(src)

    def test_eviction_via_del_clean(self):
        src = """
        class Engine:
            def __init__(self):
                self._cache = {}

            def drop(self, key):
                del self._cache[key]
        """
        assert not findings(src)

    def test_capacity_bound_word_clean(self):
        src = """
        class Engine:
            def __init__(self, capacity):
                self.capacity = capacity
                self._cache = {}
        """
        assert not findings(src)

    def test_non_container_cache_attr_clean(self):
        src = """
        class Engine:
            def __init__(self):
                self._cached = False
        """
        assert not findings(src)

    def test_non_cache_named_container_clean(self):
        src = """
        class Engine:
            def __init__(self):
                self._results = {}
        """
        assert not findings(src)

    def test_suppression_applies(self):
        src = """
        class Engine:
            def __init__(self):
                self._cache = {}  # repro-lint: ignore[unbounded-cache] -- bounded by caller
        """
        assert not findings(src)


class TestUnsuppressedAlertEmit:
    def test_incident_construction_fires(self):
        src = """
        def page(unit, now):
            return Incident("i-1", "unit", unit, now, now)
        """
        assert rule_ids(src) == {"unsuppressed-alert-emit"}

    def test_qualified_incident_construction_fires(self):
        src = """
        def page(alerting, unit, now):
            return alerting.Incident("i-1", "unit", unit, now, now)
        """
        assert rule_ids(src) == {"unsuppressed-alert-emit"}

    def test_alert_series_datapoint_fires(self):
        src = """
        def emit(now):
            return DataPoint("alert.incident", now, 9.0, ())
        """
        assert rule_ids(src) == {"unsuppressed-alert-emit"}

    def test_alert_series_keyword_metric_fires(self):
        src = """
        def emit(ts, vals):
            return SeriesBlock.from_columns(
                metric="alert.resolve", tags=(), timestamps=ts, values=vals
            )
        """
        assert rule_ids(src) == {"unsuppressed-alert-emit"}

    def test_direct_store_write_fires(self):
        src = """
        def publish(store, incident):
            store.record_incident(incident)
        """
        assert rule_ids(src) == {"unsuppressed-alert-emit"}

    def test_data_series_datapoint_clean(self):
        src = """
        def emit(now):
            return DataPoint("energy", now, 9.0, ())
        """
        assert not findings(src)

    def test_inside_alerting_package_clean(self):
        src = """
        def page(unit, now):
            return Incident("i-1", "unit", unit, now, now)
        """
        assert not findings(src, "src/repro/alerting/manager.py")

    def test_outside_package_clean(self):
        src = """
        def page(unit, now):
            return Incident("i-1", "unit", unit, now, now)
        """
        assert not findings(src, "tests/test_x.py")

    def test_suppression_applies(self):
        src = """
        def page(unit, now):
            return Incident("i-1", "unit", unit, now, now)  # repro-lint: ignore[unsuppressed-alert-emit] -- replay tool
        """
        assert not findings(src)


class TestUnboundedTimeRange:
    def test_literal_sentinel_fires(self):
        src = """
        def scan(engine):
            return engine.run(TsdbQuery("energy", 0, 2**31 - 1))
        """
        assert rule_ids(src) == {"unbounded-time-range"}

    def test_module_constant_fires(self):
        src = """
        HORIZON = 2**31 - 1

        def scan(engine):
            return engine.run(TsdbQuery(metric="energy", start=0, end=HORIZON))
        """
        assert rule_ids(src) == {"unbounded-time-range"}

    def test_conditional_local_fires(self):
        # The dashboard shape: one branch of the conditional is open.
        src = """
        HORIZON = 2**31 - 1

        def scan(engine, end=None):
            horizon = HORIZON if end is None else end
            return engine.run(TsdbQuery("energy", 0, horizon))
        """
        assert rule_ids(src) == {"unbounded-time-range"}

    def test_bounded_end_clean(self):
        src = """
        def scan(engine, now):
            return engine.run(TsdbQuery("energy", now - 3600, now))
        """
        assert not findings(src)

    def test_unfoldable_end_assumed_bounded(self):
        src = """
        def scan(engine, end):
            return engine.run(TsdbQuery("energy", 0, end))
        """
        assert not findings(src)

    def test_tests_and_bench_exempt(self):
        src = """
        def probe(engine):
            return engine.run(TsdbQuery("energy", 0, 2**31 - 1))
        """
        assert not findings(src, "tests/test_x.py")
        assert not findings(src, "src/repro/bench/experiments.py")

    def test_suppression_applies(self):
        src = """
        def scan(engine):
            return engine.run(TsdbQuery("energy", 0, 2**31 - 1))  # repro-lint: ignore[unbounded-time-range] -- axis probe
        """
        assert not findings(src)
