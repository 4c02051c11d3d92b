"""Tests for the campaign work-queue, workers, supervisor and resume.

Covers the queue protocol (exclusive-create claims, lease expiry and
steal, idempotent commits, O(n) draining), the worker loop (cache
short-circuit, quarantine, multi-worker contention with exactly-once
execution), and the proof that there is one result however a campaign
is executed: in-process, worker processes, external
``repro campaign-worker`` processes and a killed-then-resumed run all
produce byte-identical payloads and aggregate.

Cell functions live at module level so forked worker processes resolve
them by reference; multi-process scenarios use ``subprocess.Popen`` (not
shell backgrounding) and the SIGKILL shape kills the whole supervisor
process group so anything it spawned dies with it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    DEFAULT_LEASE_TTL,
    MANIFEST_FILENAME,
    Campaign,
    RunSpec,
    WorkQueue,
    CampaignAggregate,
    canonical_json,
    execute_cell,
    flow_grid,
    run_campaign,
    run_worker,
    spec_from_json_dict,
    spec_key,
)
from repro.campaign.queue import _LEASE_DIRNAME
from repro.errors import ConfigError
from repro.experiments.config import MacroConfig
from repro.faults.plan import FaultPlan, LinkDegrade, LinkDown, MessageLoss
from repro.telemetry import MetricsRegistry

TINY = MacroConfig(
    pods=1, racks_per_pod=2, hosts_per_rack=4,
    workload="websearch", num_arrivals=50,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tiny_grid(**overrides) -> Campaign:
    options = dict(
        base_config=TINY,
        seeds=[1, 2],
        network_policies=["fair"],
        loads=[0.5, 0.7],
        placements=("minload", "mindist"),
    )
    options.update(overrides)
    return flow_grid(**options)


def _scratch() -> Path:
    return Path(os.environ["REPRO_TEST_SCRATCH"])


@pytest.fixture
def scratch(tmp_path, monkeypatch) -> Path:
    monkeypatch.setenv("REPRO_TEST_SCRATCH", str(tmp_path))
    return tmp_path


# ----------------------------------------------------------------------
# Injectable cell functions (module-level: picklable / importable)
# ----------------------------------------------------------------------
def _echo_cell(spec: RunSpec) -> dict:
    return {"seed": spec.config.seed, "label": spec.describe()}


def _raise_cell(spec: RunSpec) -> dict:
    raise ValueError(f"boom seed={spec.config.seed}")


def _synthetic_cell(spec: RunSpec) -> dict:
    """A pure function of the spec shaped like a real flow-macro payload.

    Deterministic floats exercise the full aggregation surface (grid
    stats, blame shares, merged metric registries) without running the
    simulator, so byte-identity assertions are meaningful *and* fast.
    """
    seed = spec.config.seed
    load = spec.config.load
    registry = MetricsRegistry()
    registry.counter("cells.run").inc()
    for i in range(5):
        registry.histogram("synthetic.gap").observe(
            (seed * 7 + i * 3) % 11 + load
        )
    gap = 1.0 + 0.25 * seed + load
    return {
        "network_policy": spec.network_policy,
        "load": load,
        "per_placement": {
            "minload": {
                "average_gap": gap,
                "blame": {
                    "fabric": {"mean": gap / 3.0},
                    "queue": {"mean": gap / 5.0},
                },
            },
            "mindist": {"average_gap": gap * 1.125},
        },
        "metrics": registry.as_dict(),
    }


def _exactly_once_cell(spec: RunSpec) -> dict:
    """Fails loudly if any cell body runs twice (exclusive marker file)."""
    marker = _scratch() / f"exec-{spec.config.seed}-{spec.config.load!r}"
    fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    os.close(fd)
    return _synthetic_cell(spec)


# ----------------------------------------------------------------------
# Manifest: seeding, opening, integrity
# ----------------------------------------------------------------------
class TestManifest:
    def test_seed_then_open_round_trips_the_campaign(self, tmp_path):
        campaign = _tiny_grid()
        seeded = WorkQueue.seed(tmp_path / "q", campaign, lease_ttl=7.5)
        opened = WorkQueue.open(tmp_path / "q")
        assert opened.campaign.name == campaign.name
        assert opened.lease_ttl == 7.5
        assert opened.keys == [spec_key(s) for s in campaign.cells]
        assert [s.to_json_dict() for s in opened.campaign.cells] == [
            s.to_json_dict() for s in campaign.cells
        ]
        assert seeded.keys == opened.keys

    def test_spec_json_round_trip_preserves_faults_figures_labels(self):
        plan = FaultPlan(
            events=(
                LinkDown(time=1.0, link="L1"),
                LinkDegrade(time=2.0, link="L2", factor=0.5),
                MessageLoss(start=0.0, p=0.25, until=9.0, kinds=("all",)),
            ),
            seed=3,
            name="brownout",
        )
        specs = [
            RunSpec(kind="flow_macro", config=TINY, faults=plan,
                    label="faulty"),
            RunSpec(kind="figure", config=TINY, figure="fig5"),
            RunSpec(kind="coflow_macro", config=TINY,
                    network_policy="sebf", predictor="oracle"),
        ]
        for spec in specs:
            restored = spec_from_json_dict(spec.to_json_dict())
            assert restored.to_json_dict() == spec.to_json_dict()
            assert spec_key(restored) == spec_key(spec)
            assert restored.label == spec.label
            assert restored.describe() == spec.describe()

    def test_reseeding_same_campaign_is_idempotent(self, tmp_path):
        campaign = _tiny_grid()
        WorkQueue.seed(tmp_path / "q", campaign)
        before = (tmp_path / "q" / MANIFEST_FILENAME).read_bytes()
        again = WorkQueue.seed(tmp_path / "q", campaign)
        assert (tmp_path / "q" / MANIFEST_FILENAME).read_bytes() == before
        assert again.keys == [spec_key(s) for s in campaign.cells]

    def test_reseeding_a_different_campaign_is_refused(self, tmp_path):
        WorkQueue.seed(tmp_path / "q", _tiny_grid())
        other = _tiny_grid(seeds=[7, 8])
        with pytest.raises(ConfigError, match="different campaign"):
            WorkQueue.seed(tmp_path / "q", other)

    def test_open_rejects_non_queue_directory(self, tmp_path):
        with pytest.raises(ConfigError, match="not a campaign queue"):
            WorkQueue.open(tmp_path)

    def test_open_rejects_version_mismatch(self, tmp_path):
        WorkQueue.seed(tmp_path / "q", _tiny_grid())
        path = tmp_path / "q" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["version"] = "0.0.0-other"
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="not be comparable"):
            WorkQueue.open(tmp_path / "q")

    def test_open_rejects_a_1_4_1_manifest_by_version(self, tmp_path):
        # 1.4.1 configs carry a field MacroConfig dropped in 1.5.0: the
        # typed version refusal must come before the cells are parsed,
        # not a TypeError from MacroConfig(**config).
        WorkQueue.seed(tmp_path / "q", _tiny_grid())
        path = tmp_path / "q" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["version"] = "1.4.1"
        for cell in manifest["cells"]:
            cell["config"]["dropped_in_1_5_0"] = None
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="seeded by repro 1.4.1"):
            WorkQueue.open(tmp_path / "q")

    def test_open_rejects_tampered_cells(self, tmp_path):
        WorkQueue.seed(tmp_path / "q", _tiny_grid())
        path = tmp_path / "q" / MANIFEST_FILENAME
        manifest = json.loads(path.read_text())
        manifest["cells"][0]["config"]["seed"] = 999  # key no longer matches
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigError, match="does not hash"):
            WorkQueue.open(tmp_path / "q")


# ----------------------------------------------------------------------
# Claiming: exclusivity, expiry, steal
# ----------------------------------------------------------------------
class TestClaiming:
    def test_claims_are_exclusive_and_index_ordered(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        first = queue.claim("a")
        second = queue.claim("b")
        assert first.index == 0 and first.attempt == 1
        assert second.index == 1  # cell 0 is leased, not re-claimable
        for expected in (2, 3):
            assert queue.claim("c").index == expected
        assert queue.claim("d") is None  # everything leased

    def test_fresh_lease_is_not_stolen(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid(), lease_ttl=30)
        queue.claim("a")
        reclaim = queue.claim("b")
        assert reclaim.index == 1

    def test_expired_lease_is_stolen_with_bumped_attempt(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid(), lease_ttl=5)
        claim = queue.claim("a")
        lease = tmp_path / "q" / _LEASE_DIRNAME / f"{claim.index:05d}.json"
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        stolen = queue.claim("b")
        assert stolen.index == 0
        assert stolen.attempt == 2  # the abandoned claim consumed one

    def test_renew_keeps_a_slow_cell_from_being_stolen(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid(), lease_ttl=5)
        claim = queue.claim("a")
        lease = tmp_path / "q" / _LEASE_DIRNAME / f"{claim.index:05d}.json"
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        queue.renew(claim.index)  # heartbeat lands just before the stealer
        assert queue.claim("b").index == 1

    def test_steal_backs_off_when_owner_committed_meanwhile(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid(), lease_ttl=5)
        claim = queue.claim("a")
        queue.commit(claim, "ok", {"x": 1}, worker="a")
        # Lease is gone and the marker exists: the cell must not be
        # claimable again, by anyone, ever.
        assert queue.claim("b").index == 1
        assert queue.done_marker(0)["status"] == "ok"

    def test_release_makes_a_cell_claimable_again(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        claim = queue.claim("a")
        queue.release(claim.index)
        assert queue.claim("b").index == 0

    def test_expired_lease_is_stealable_at_once(self, tmp_path):
        # What a supervisor does to a dead worker's lease: no TTL wait,
        # and the attempt the dead worker spent stays counted.
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid(), lease_ttl=3600)
        claim = queue.claim("a")
        assert queue.leases()[0]["worker"] == "a"
        queue.expire(claim.index)
        stolen = queue.claim("b")
        assert (stolen.index, stolen.attempt) == (0, 2)


# ----------------------------------------------------------------------
# Commit, results, progress
# ----------------------------------------------------------------------
class TestCommit:
    def test_ok_commit_requires_a_payload(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        claim = queue.claim("a")
        with pytest.raises(ConfigError, match="needs a payload"):
            queue.commit(claim, "ok")
        with pytest.raises(ConfigError, match="cannot commit"):
            queue.commit(claim, "running")

    def test_commit_releases_lease_and_exposes_the_result(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        claim = queue.claim("a")
        queue.commit(claim, "ok", {"answer": 42}, worker="a")
        marker = queue.done_marker(claim.index)
        assert marker["status"] == "ok"
        assert marker["worker"] == "a"
        assert marker["key"] == claim.key
        assert queue.result_for(claim.index) == {"answer": 42}
        lease = tmp_path / "q" / _LEASE_DIRNAME / f"{claim.index:05d}.json"
        assert not lease.exists()

    def test_duplicate_commit_is_byte_idempotent(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        claim = queue.claim("a")
        queue.commit(claim, "ok", {"answer": 42}, worker="a")
        blob = queue.cache._path(claim.key).read_bytes()
        # A stolen-then-finished race: the "crashed" owner commits too.
        queue.commit(claim, "ok", {"answer": 42}, worker="ghost")
        assert queue.cache._path(claim.key).read_bytes() == blob
        assert queue.result_for(claim.index) == {"answer": 42}
        # First terminal marker wins: the late loser cannot rewrite the
        # recorded outcome, not even to a different status.
        assert queue.done_marker(claim.index)["worker"] == "a"
        queue.commit(claim, "failed", worker="ghost", error="late loser")
        assert queue.done_marker(claim.index)["status"] == "ok"

    def test_failed_cells_have_no_result(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        claim = queue.claim("a")
        queue.commit(claim, "failed", worker="a", error="boom")
        assert queue.result_for(claim.index) is None
        assert queue.done_marker(claim.index)["error"] == "boom"

    def test_result_for_unfinished_cell_raises(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        with pytest.raises(ConfigError, match="has not finished"):
            queue.result_for(0)

    def test_progress_counts(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        done = queue.claim("a")
        queue.commit(done, "ok", {"x": 1}, worker="a")
        failed = queue.claim("a")
        queue.commit(failed, "failed", worker="a", error="boom")
        queue.claim("a")  # held lease
        assert queue.progress() == {
            "total": 4, "done": 2, "failed": 1, "leased": 1, "pending": 1,
        }
        assert not queue.is_complete()


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------
class TestRunWorker:
    def test_single_worker_drains_the_queue(self, tmp_path):
        queue = WorkQueue.seed(tmp_path / "q", _tiny_grid())
        summary = run_worker(
            tmp_path / "q", worker_id="w0", cell_fn=_echo_cell
        )
        assert summary.claimed == 4
        assert summary.ok == 4
        assert summary.failed == 0
        assert queue.is_complete()
        assert all(
            queue.done_marker(i)["worker"] == "w0" for i in range(4)
        )

    def test_draining_costs_a_linear_number_of_done_checks(
        self, tmp_path, monkeypatch
    ):
        # Done markers only ever appear, so a worker never needs to look
        # again at a cell it has seen done: draining n cells must touch
        # done paths O(n) times in total, not O(n) times per claim.
        touches = []
        done_path = WorkQueue._done_path

        def counting(self, index):
            touches.append(index)
            return done_path(self, index)

        monkeypatch.setattr(WorkQueue, "_done_path", counting)

        def drained(cells: int) -> int:
            specs = tuple(
                RunSpec(kind="flow_macro", config=TINY, label=str(i),
                        predictor=f"p{i}")
                for i in range(cells)
            )
            directory = tmp_path / f"q{cells}"
            queue = WorkQueue.seed(directory, Campaign("noop", specs))
            del touches[:]
            summary = run_worker(directory, cell_fn=_echo_cell)
            assert summary.ok == cells and queue.is_complete()
            return len(touches)

        small, large = drained(100), drained(400)
        assert large <= 6 * 400
        assert large <= 4.5 * small  # 4x the cells, ~4x the checks

    def test_cache_short_circuit_commits_cached(self, tmp_path):
        campaign = _tiny_grid()
        queue = WorkQueue.seed(tmp_path / "q", campaign)
        queue.cache.store(queue.keys[0], _echo_cell(campaign.cells[0]))
        summary = run_worker(tmp_path / "q", cell_fn=_echo_cell)
        assert summary.cached == 1
        assert summary.ok == 3
        assert queue.done_marker(0)["status"] == "cached"

    def test_raising_cells_are_quarantined_after_retries(self, tmp_path):
        queue = WorkQueue.seed(
            tmp_path / "q", _tiny_grid(seeds=[1], loads=[0.5])
        )
        summary = run_worker(
            tmp_path / "q", cell_fn=_raise_cell, retries=1
        )
        assert summary.failed == 1
        marker = queue.done_marker(0)
        assert marker["status"] == "failed"
        assert "boom" in marker["error"]

    def test_abandoned_lease_attempts_count_toward_quarantine(
        self, tmp_path
    ):
        queue = WorkQueue.seed(
            tmp_path / "q", _tiny_grid(), lease_ttl=5
        )
        # A "crashed" predecessor burned through the attempt budget.
        queue._try_exclusive_lease(0, "ghost", 5)
        lease = tmp_path / "q" / _LEASE_DIRNAME / "00000.json"
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        summary = run_worker(
            tmp_path / "q", cell_fn=_echo_cell, retries=1
        )
        marker = queue.done_marker(0)
        assert marker["status"] == "failed"
        assert "quarantined" in marker["error"]
        assert summary.failed == 1
        assert summary.ok == 3  # other cells unaffected

    def test_expired_lease_is_stolen_and_executed(self, tmp_path, scratch):
        queue = WorkQueue.seed(
            tmp_path / "q", _tiny_grid(), lease_ttl=5
        )
        queue._try_exclusive_lease(0, "ghost", 1)
        lease = tmp_path / "q" / _LEASE_DIRNAME / "00000.json"
        stale = time.time() - 60
        os.utime(lease, (stale, stale))
        summary = run_worker(
            tmp_path / "q", cell_fn=_exactly_once_cell, retries=1
        )
        assert summary.ok == 4
        assert queue.done_marker(0)["attempts"] == 2

    def test_contending_workers_execute_every_cell_exactly_once(
        self, tmp_path, scratch
    ):
        campaign = _tiny_grid(seeds=[1, 2, 3, 4])  # 8 cells
        # A huge TTL keeps lease *stealing* out of this test: on a
        # starved single-CPU runner a thread can stall past a realistic
        # TTL mid-cell, and a steal would make the claim ledger
        # timing-dependent.  The steal path has its own tests above.
        queue = WorkQueue.seed(tmp_path / "q", campaign, lease_ttl=3600)
        summaries = []
        lock = threading.Lock()

        def drain(worker: str) -> None:
            result = run_worker(
                tmp_path / "q",
                worker_id=worker,
                cell_fn=_exactly_once_cell,
                wait=True,
                poll=0.01,
                idle_timeout=30,
            )
            with lock:
                summaries.append(result)

        threads = [
            threading.Thread(target=drain, args=(f"w{i}",))
            for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

        # _exactly_once_cell raises on a second execution of any cell,
        # so every ok proves exactly-once execution.  A claim can
        # legitimately exceed the cell count: a worker that passed the
        # done check may win the lease right after the committing
        # worker released it — that benign re-claim resolves as a cache
        # hit, so the ledger must balance as ok + cached == claimed.
        assert queue.is_complete()
        ok = sum(s.ok for s in summaries)
        cached = sum(s.cached for s in summaries)
        claimed = sum(s.claimed for s in summaries)
        assert ok == len(campaign)
        assert claimed >= len(campaign)
        assert ok + cached == claimed
        assert sum(s.failed for s in summaries) == 0
        for index in range(len(campaign)):
            assert queue.done_marker(index)["status"] == "ok"
            assert queue.result_for(index) is not None

    def test_overlapping_cells_each_report_their_own_profiler(
        self, tmp_path
    ):
        """Two in-process workers' cells overlap, ordered by events and a
        barrier: A installs its profiler first, B second, A leaves first.
        Each finished record carries the spans of the profiler its own
        attempt installed, neither attempt raises, and nothing is left
        installed in this thread.  (With one ambient slot per process, A
        restored ``None`` over B's profiler and reported B's spans, then
        B restored A's profiler and raised on ``None.paths()``.)"""
        from repro.campaign.cells import run_cell
        from repro.campaign.status import StatusWriter, read_status
        from repro.telemetry.profiler import current_profiler

        status = StatusWriter(tmp_path / "status.jsonl")
        a_inside, a_done = threading.Event(), threading.Event()
        both_inside = threading.Barrier(2, timeout=30)
        errors = []

        def cell(label):
            def body(spec):
                with current_profiler().span(label):
                    if label == "a":
                        a_inside.set()
                    both_inside.wait()
                    if label == "b":
                        assert a_done.wait(30)
                return {"label": label}

            return body

        def attempt(index, label):
            try:
                run_cell(cell(label), index, _tiny_grid().cells[index], 1, status)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                if label == "a":
                    a_done.set()

        a = threading.Thread(target=attempt, args=(0, "a"))
        b = threading.Thread(target=attempt, args=(1, "b"))
        a.start()
        assert a_inside.wait(30)
        b.start()
        for t in (a, b):
            t.join(timeout=60)
        assert not a.is_alive() and not b.is_alive()
        assert errors == []
        finished = {
            r["cell"]: r for r in read_status(status.path)
            if r.get("state") == "finished"
        }
        assert set(finished[0]["spans"]["labels"]) == {"a"}
        assert set(finished[1]["spans"]["labels"]) == {"b"}
        assert current_profiler() is None


# ----------------------------------------------------------------------
# One result, however the campaign is executed
# ----------------------------------------------------------------------
def _matrix_grid() -> Campaign:
    return _tiny_grid(network_policies=["fair", "las"])  # 8 real cells


_SUPERVISOR_SCRIPT = """
import sys
from test_campaign_queue import _matrix_grid
from repro.campaign import run_campaign

# A short TTL: the resumed run steals the killed worker's lease after
# one second instead of the default thirty.
run_campaign(_matrix_grid(), jobs=1, directory=sys.argv[1], lease_ttl=1.0)
"""


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
    )
    return env


def _run_with_external_workers(queue_dir: Path):
    """jobs=0: the supervisor only coordinates two real
    ``repro campaign-worker`` subprocesses."""
    box = {}
    supervisor = threading.Thread(
        target=lambda: box.update(
            report=run_campaign(_matrix_grid(), jobs=0, directory=queue_dir)
        ),
        daemon=True,
    )
    supervisor.start()
    deadline = time.time() + 30
    while not (queue_dir / MANIFEST_FILENAME).exists():
        assert time.time() < deadline, "supervisor never seeded the queue"
        time.sleep(0.005)
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign-worker",
                str(queue_dir), "--wait", "--idle-timeout", "60",
                "--worker-id", f"cli-{i}", "--poll", "0.05",
            ],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(2)
    ]
    try:
        supervisor.join(timeout=120)
        assert not supervisor.is_alive(), "external workers never finished"
        for proc in workers:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            assert "claimed=" in out
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
    markers = [
        WorkQueue.open(queue_dir).done_marker(i)["worker"] for i in range(8)
    ]
    assert set(markers) <= {"cli-0", "cli-1"}
    return box["report"]


def _kill_supervisor_then_resume(queue_dir: Path):
    """SIGKILL an in-flight supervisor, then resume its queue."""
    # New session => one process group holding the supervisor and
    # anything it spawned, so killpg stops all execution dead.
    proc = subprocess.Popen(
        [sys.executable, "-c", _SUPERVISOR_SCRIPT, str(queue_dir)],
        env=_subprocess_env(),
        start_new_session=True,
    )
    try:
        done_dir = queue_dir / "done"
        deadline = time.time() + 60
        while time.time() < deadline:
            markers = (
                len(list(done_dir.glob("*.json")))
                if done_dir.exists()
                else 0
            )
            if 1 <= markers < 8:
                break
            time.sleep(0.005)
        else:
            pytest.fail("supervisor never made partial progress")
    finally:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

    partial = WorkQueue.open(queue_dir).progress()
    assert 0 < partial["done"] < 8  # genuinely mid-flight
    resumed = run_campaign(jobs=2, directory=queue_dir, resume=True)
    # The pre-kill cells folded from disk, the rest were executed.
    assert resumed.cache_stats.hits >= partial["done"]
    assert resumed.cache_stats.hits + resumed.cache_stats.misses == 8
    return resumed


class TestExecutionShapes:
    @pytest.fixture(scope="class")
    def reference(self):
        """What the campaign must produce, computed with no queue, no
        worker and no supervisor: each cell run once, folded in order."""
        campaign = _matrix_grid()
        aggregate = CampaignAggregate(campaign.name, len(campaign))
        blobs = []
        for index, spec in enumerate(campaign.cells):
            payload = execute_cell(spec)
            aggregate.fold(index, "ok", payload)
            blobs.append(canonical_json(payload))
        return canonical_json(aggregate.payload()), blobs

    @pytest.mark.parametrize(
        "shape", ["jobs1", "jobs2", "external_workers", "killed_resumed"]
    )
    def test_every_execution_shape_is_byte_identical(
        self, tmp_path, reference, shape
    ):
        if shape == "external_workers":
            report = _run_with_external_workers(tmp_path / "q")
        elif shape == "killed_resumed":
            report = _kill_supervisor_then_resume(tmp_path / "q")
        else:
            report = run_campaign(_matrix_grid(), jobs=int(shape[-1]))
        aggregate, blobs = reference
        assert not report.quarantined, report.failure_report()
        assert canonical_json(report.aggregate_payload()) == aggregate
        assert [canonical_json(p) for p in report.payloads()] == blobs


# ----------------------------------------------------------------------
# Kept queues: resume and failure folding
# ----------------------------------------------------------------------
class TestDistributed:
    def test_resume_of_a_finished_queue_is_all_cache_hits(self, tmp_path):
        campaign = _tiny_grid()
        first = run_campaign(
            campaign, jobs=2, cell_fn=_synthetic_cell,
            directory=tmp_path / "q",
        )
        resumed = run_campaign(
            jobs=1, cell_fn=_raise_cell,  # any re-execution would fail
            directory=tmp_path / "q", resume=True,
        )
        assert canonical_json(
            resumed.aggregate_payload()
        ) == canonical_json(first.aggregate_payload())
        # Every cell folds straight from disk: no re-execution at all.
        assert resumed.cache_stats.misses == 0
        assert resumed.cache_stats.hits == len(campaign)
        assert all(o.status != "failed" for o in resumed.outcomes)

    def test_resume_rejects_a_mismatched_campaign(self, tmp_path):
        run_campaign(
            _tiny_grid(), jobs=1, cell_fn=_synthetic_cell,
            directory=tmp_path / "q",
        )
        with pytest.raises(ConfigError, match="does not match"):
            run_campaign(
                _tiny_grid(seeds=[9]), directory=tmp_path / "q", resume=True
            )

    def test_resume_requires_an_existing_queue(self, tmp_path):
        with pytest.raises(ConfigError, match="not a campaign queue"):
            run_campaign(directory=tmp_path / "empty", resume=True)
        with pytest.raises(ConfigError, match="needs the queue directory"):
            run_campaign(resume=True)
        with pytest.raises(ConfigError, match="needs the queue directory"):
            run_campaign(_tiny_grid(), jobs=0)

    def test_failed_cells_reach_the_aggregate(self, tmp_path):
        report = run_campaign(
            _tiny_grid(), jobs=1, cell_fn=_raise_cell, retries=0,
            directory=tmp_path / "q",
        )
        payload = report.aggregate_payload()
        assert payload["failed"] == 4
        assert payload["failed_cells"] == [0, 1, 2, 3]
        assert payload["completed"] == 0

    def test_caller_cache_and_status_are_recorded_in_the_manifest(
        self, tmp_path
    ):
        # Worker processes (and external workers) learn where results
        # and the status stream live from the manifest alone.
        queue = WorkQueue.seed(
            tmp_path / "q", _tiny_grid(),
            cache=tmp_path / "shared-cache", status=None,
        )
        opened = WorkQueue.open(tmp_path / "q")
        assert opened.cache.root == queue.cache.root == tmp_path / "shared-cache"
        assert opened.status_path is None
        run_worker(tmp_path / "q", cell_fn=_echo_cell)
        assert len(opened.cache) == 4
        assert not (tmp_path / "q" / "status.jsonl").exists()


# ----------------------------------------------------------------------
# Real `repro campaign-worker` subprocesses against a shared queue
# ----------------------------------------------------------------------
class TestWorkerCli:
    def test_worker_cli_rejects_a_non_queue(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "campaign-worker",
                str(tmp_path),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "not a campaign queue" in proc.stderr
