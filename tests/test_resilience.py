"""Fault-tolerance chaos suite.

Every recovery path must uphold the repo-wide contract: a run that
*survives* injected faults — worker exceptions, killed pool processes,
mid-checkpoint crashes, failed service refreshes — produces output
byte-identical to a fault-free run.  This suite injects deterministic
fault schedules (:mod:`repro.resilience.faults`) across the executor ×
overlap-mode matrix and compares S/R/contig/tracker digests against
fault-free baselines, plus kill-and-resume checkpoint tests and
service rollback-at-every-version tests.
"""

import hashlib
import json
import os
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import candidate_overlaps_blocked
from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.exec import (ProcessExecutor, SerialExecutor, ThreadExecutor,
                        get_executor)
from repro.resilience import (DEFAULT_RETRY, CheckpointMismatch,
                              FaultInjected, FaultPlan, InjectedWorkerCrash,
                              RetryPolicy, StripCheckpoint, active_plan,
                              current_plan)
from repro.resilience.checkpoint import MANIFEST_VERSION
from repro.seqs import ErrorModel, GenomeSpec, ReadSimSpec, simulate_reads
from repro.seqs.dna import decode
from repro.service import (AssemblyService, RefreshFailed, ServiceConfig,
                           make_server)

K = 17
NPROCS = 4
KMER_UPPER = 12


# ---------------------------------------------------------------------------
# digest helpers (mirroring tests/test_golden_pipeline.py)

def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sha_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _contig_digest(graph) -> str:
    canon = sorted((tuple(c.reads), tuple(c.orientations))
                   for c in extract_contigs(graph))
    return _sha_text(repr(canon))


def _tracker_digest(tracker) -> str:
    summary = tracker.summary()
    lines = [f"{stage}:{rec['total_bytes']:.0f}:{rec['max_bytes']:.0f}:"
             f"{rec['total_messages']}:{rec['max_messages']}"
             for stage, rec in sorted(summary.items())]
    return _sha_text("|".join(lines))


def _digests(result) -> dict:
    return {
        "S": _sha(result.S.row, result.S.col, result.S.vals),
        "R": _sha(result.R.row, result.R.col, result.R.vals),
        "contigs": _contig_digest(result.string_graph),
        "tracker": _tracker_digest(result.tracker),
        "counts": (result.nnz_a, result.nnz_c, result.nnz_r, result.nnz_s),
    }


@pytest.fixture(scope="module")
def chaos_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=4_500, seed=31), depth=8,
                    mean_len=600, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=32))
    return reads


def _config(executor="serial", workers=1, overlap_mode="monolithic",
            fault_plan="", fuzz=60, **kw):
    # fault_plan="" pins fault-free even under a global REPRO_FAULT_SPEC
    # (the chaos CI leg) — the baseline must stay clean.
    return PipelineConfig(k=K, nprocs=NPROCS, align_mode="xdrop", fuzz=fuzz,
                          kmer_upper=KMER_UPPER, executor=executor,
                          workers=workers, overlap_mode=overlap_mode,
                          n_strips=3 if overlap_mode == "blocked" else None,
                          fault_plan=fault_plan, **kw)


@pytest.fixture(scope="module")
def baseline(chaos_reads):
    """Fault-free digests per overlap mode (the chaos oracle)."""
    return {mode: _digests(run_pipeline(chaos_reads,
                                        _config(overlap_mode=mode)))
            for mode in ("monolithic", "blocked")}


# ---------------------------------------------------------------------------
# fault-plan grammar

def test_fault_plan_parses_and_counts():
    plan = FaultPlan("exec.chunk:crash@3;summa.block:exc@2,5;"
                     "service.refresh:exc@4+")
    assert plan.sites() == ["exec.chunk", "service.refresh", "summa.block"]
    assert bool(plan)
    assert [plan.check("exec.chunk") for _ in range(4)] == \
        [None, None, "crash", None]
    assert [plan.check("summa.block") for _ in range(5)] == \
        [None, "exc", None, None, "exc"]
    assert [plan.check("service.refresh") for _ in range(5)] == \
        [None, None, None, "exc", "exc"]
    assert plan.check("unknown.site") is None
    assert ("exec.chunk", "crash", 3) in plan.fired


def test_fault_plan_star_and_empty():
    assert not FaultPlan("")
    assert FaultPlan("").check("exec.chunk") is None
    star = FaultPlan("exec.chunk:exc@*")
    assert all(star.check("exec.chunk") == "exc" for _ in range(5))


@pytest.mark.parametrize("bad", [
    "exec.chunk", "exec.chunk:exc", "exec.chunk:boom@1",
    "exec.chunk:exc@0", "exec.chunk:exc@0+", "exec.chunk:exc@x",
])
def test_fault_plan_rejects_bad_clauses(bad):
    with pytest.raises(ValueError):
        FaultPlan(bad)


def test_active_plan_nesting():
    outer = FaultPlan("exec.chunk:exc@1")
    with active_plan(outer):
        assert current_plan() is outer
        with active_plan(None):        # None leaves the armed plan alone
            assert current_plan() is outer
        inner = FaultPlan("")
        with active_plan(inner):       # empty plan shadows the armed one
            assert current_plan() is inner
        assert current_plan() is outer
    assert current_plan() is not outer


# ---------------------------------------------------------------------------
# retry policy

def test_retry_policy_schedule():
    policy = RetryPolicy(max_attempts=4, backoff_base=0.1,
                         backoff_factor=2.0, backoff_max=0.3)
    assert policy.schedule() == [0.1, 0.2, 0.3]
    assert policy.delay(10) == 0.3
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        policy.delay(0)


# ---------------------------------------------------------------------------
# executor recovery units

def _double(ctx, x):
    return x * 2


def _fail_on_three(ctx, x):
    if x == 3:
        raise ValueError("exploded")
    return x


TASKS = list(range(12))
WANT = [x * 2 for x in TASKS]


@pytest.mark.parametrize("make", [
    lambda: SerialExecutor(1),
    lambda: ThreadExecutor(3),
    lambda: ProcessExecutor(2),
], ids=["serial", "thread", "process"])
@pytest.mark.parametrize("kind", ["exc", "crash"])
def test_executor_survives_single_fault(make, kind):
    # @1 fires on the very first chunk check of every executor (the serial
    # executor makes exactly one check per run call).
    with make() as ex, active_plan(FaultPlan(f"exec.chunk:{kind}@1")):
        assert ex.run(_double, TASKS) == WANT
    assert any(e["event"] in ("retry", "respawn") for e in ex.recovery)


def test_process_pool_respawns_after_crash():
    with ProcessExecutor(2) as ex:
        with active_plan(FaultPlan("exec.chunk:crash@1")):
            assert ex.run(_double, TASKS) == WANT
        assert any(e["event"] == "respawn" for e in ex.recovery)
        # The respawned pool keeps serving fault-free calls.
        assert ex.run(_double, TASKS) == WANT


def test_thread_executor_degrades_to_serial_under_persistent_faults():
    with ThreadExecutor(3) as ex, \
            active_plan(FaultPlan("exec.chunk:exc@*")):
        assert ex.run(_double, TASKS) == WANT
    events = [e["event"] for e in ex.recovery]
    assert "downgrade" in events
    downgrades = [e for e in ex.recovery if e["event"] == "downgrade"]
    assert downgrades[-1]["tier"] == "serial"


def test_process_executor_degrades_through_thread_to_serial():
    with ProcessExecutor(2) as ex, \
            active_plan(FaultPlan("exec.chunk:exc@*")):
        assert ex.run(_double, TASKS) == WANT
    tiers = [e["tier"] for e in ex.recovery if e["event"] == "downgrade"]
    assert tiers == ["thread", "serial"]


def test_backoff_is_recorded_not_slept():
    assert DEFAULT_RETRY.sleep is False
    with ThreadExecutor(2) as ex, \
            active_plan(FaultPlan("exec.chunk:exc@1,2")):
        ex.run(_double, TASKS)
    retries = [e for e in ex.recovery if e["event"] == "retry"]
    assert retries, "expected recorded retry events"
    for e in retries:
        assert e["delay"] == DEFAULT_RETRY.delay(e["attempt"])


def test_real_task_exception_still_propagates_everywhere():
    # Bounded retry must not swallow genuine, deterministic task bugs.
    for make in (lambda: SerialExecutor(1), lambda: ThreadExecutor(3),
                 lambda: ProcessExecutor(2)):
        with make() as ex:
            with pytest.raises(ValueError, match="exploded"):
                ex.run(_fail_on_three, [1, 2, 3, 4])


def test_serial_executor_retries_injected_crash_in_parent():
    ex = SerialExecutor(1)
    with active_plan(FaultPlan("exec.chunk:crash@1")):
        assert ex.run(_double, TASKS) == WANT
    assert [e["event"] for e in ex.recovery] == ["retry"]
    # In the parent process a crash injection degenerates to an exception
    # (the parent must survive to recover) …
    with active_plan(FaultPlan("exec.chunk:crash@1,2,3,4")):
        with pytest.raises(InjectedWorkerCrash):
            SerialExecutor(1).run(_double, TASKS)


def test_close_is_idempotent_and_reusable_via_context():
    ex = ProcessExecutor(2)
    assert ex.run(_double, TASKS) == WANT
    ex.close()
    ex.close()  # second close is a no-op, not an error
    with ThreadExecutor(2) as ex2:
        assert ex2.run(_double, TASKS) == WANT
    ex2.close()


def test_custom_retry_policy_is_honored():
    policy = RetryPolicy(max_attempts=1)
    ex = ThreadExecutor(3, retry=policy)
    with active_plan(FaultPlan("exec.chunk:exc@1")):
        # One attempt per tier: thread fails once, serial finishes.
        assert ex.run(_double, TASKS) == WANT
    assert [e["event"] for e in ex.recovery] == ["downgrade"]
    ex.close()


# ---------------------------------------------------------------------------
# chaos: injected faults leave pipeline output byte-identical

CHAOS_SPECS = [
    "exec.chunk:exc@2",
    "exec.chunk:crash@3",
    "summa.block:exc@1",
    "exec.chunk:exc@1;summa.block:exc@2",
]
CHAOS_EXECUTORS = [("serial", 1), ("thread", 3), ("process", 2)]


@pytest.mark.parametrize("executor,workers", CHAOS_EXECUTORS,
                         ids=[f"{e}{w}" for e, w in CHAOS_EXECUTORS])
@pytest.mark.parametrize("overlap_mode", ["monolithic", "blocked"])
@pytest.mark.parametrize("spec", CHAOS_SPECS)
def test_chaos_pipeline_byte_identical(chaos_reads, baseline, spec,
                                       overlap_mode, executor, workers):
    result = run_pipeline(chaos_reads,
                          _config(executor, workers, overlap_mode,
                                  fault_plan=spec))
    assert _digests(result) == baseline[overlap_mode], (
        f"faulted run drifted under spec={spec!r} executor={executor}/"
        f"{workers} overlap={overlap_mode}")


@settings(max_examples=5, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["exec.chunk", "summa.block"]),
              st.sampled_from(["exc", "crash"]),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=3))
def test_chaos_hypothesis_schedules(chaos_reads, baseline, clauses):
    spec = ";".join(f"{site}:{kind}@{count}"
                    for site, kind, count in clauses)
    result = run_pipeline(chaos_reads,
                          _config("thread", 3, "blocked", fault_plan=spec))
    assert _digests(result) == baseline["blocked"], (
        f"faulted run drifted under generated spec {spec!r}")


def test_fault_spec_env_is_honored(chaos_reads, baseline, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.chunk:exc@2")
    result = run_pipeline(chaos_reads,
                          _config("thread", 2, fault_plan=None))
    assert _digests(result) == baseline["monolithic"]


# ---------------------------------------------------------------------------
# strip checkpoint / resume

def test_strip_checkpoint_store_roundtrip(tmp_path):
    ckpt = StripCheckpoint(str(tmp_path / "ck"), "fp", 4).open()
    assert ckpt.completed() == []
    payload = (np.arange(5), {"a": 1})
    ckpt.save(2, payload)
    assert ckpt.has(2) and not ckpt.has(0)
    assert ckpt.completed() == [2]
    loaded = ckpt.load(2)
    np.testing.assert_array_equal(loaded[0], payload[0])
    assert loaded[1] == payload[1]
    # Reopening with the same fingerprint resumes; a different one refuses.
    StripCheckpoint(str(tmp_path / "ck"), "fp", 4).open()
    with pytest.raises(CheckpointMismatch):
        StripCheckpoint(str(tmp_path / "ck"), "other", 4).open()
    with pytest.raises(CheckpointMismatch):
        StripCheckpoint(str(tmp_path / "ck"), "fp", 5).open()


def test_strip_checkpoint_rejects_future_manifest(tmp_path):
    d = tmp_path / "ck"
    StripCheckpoint(str(d), "fp", 2).open()
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format"] = MANIFEST_VERSION + 1
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatch):
        StripCheckpoint(str(d), "fp", 2).open()


def test_strip_checkpoint_refuses_format_2(tmp_path):
    """Format-2 strips hold R without its containment pairs; resuming from
    one would silently reduce a different R, so the manifest is refused."""
    assert MANIFEST_VERSION == 3
    d = tmp_path / "ck"
    StripCheckpoint(str(d), "fp", 2).open()
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format"] = 2
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatch, match="format 2"):
        StripCheckpoint(str(d), "fp", 2).open()


def test_checkpointed_run_matches_plain_run(chaos_reads, baseline, tmp_path):
    result = run_pipeline(chaos_reads,
                          _config(overlap_mode="blocked",
                                  checkpoint_dir=str(tmp_path / "ck")))
    assert _digests(result) == baseline["blocked"]
    saved = [p for p in os.listdir(tmp_path / "ck")
             if p.startswith("strip_")]
    assert len(saved) == result.n_strips


def test_kill_and_resume_is_byte_identical(chaos_reads, baseline, tmp_path):
    ckdir = str(tmp_path / "ck")
    cfg_killed = _config(overlap_mode="blocked", checkpoint_dir=ckdir,
                         fault_plan="strip.checkpoint:exc@2")
    with pytest.raises(FaultInjected):
        run_pipeline(chaos_reads, cfg_killed)
    # The crash landed after at least one strip was persisted …
    done = [p for p in os.listdir(ckdir) if p.startswith("strip_")]
    assert 1 <= len(done) < 3
    # … and a fault-free re-run against the same directory resumes the
    # missing strips and produces byte-identical output.
    resumed = run_pipeline(chaos_reads,
                           _config(overlap_mode="blocked",
                                   checkpoint_dir=ckdir))
    assert _digests(resumed) == baseline["blocked"]
    # A second resume loads every strip from disk — still identical.
    again = run_pipeline(chaos_reads,
                         _config(overlap_mode="blocked",
                                 checkpoint_dir=ckdir))
    assert _digests(again) == baseline["blocked"]


def test_checkpoint_refuses_mismatched_config(chaos_reads, tmp_path):
    ckdir = str(tmp_path / "ck")
    run_pipeline(chaos_reads, _config(overlap_mode="blocked",
                                      checkpoint_dir=ckdir))
    with pytest.raises(CheckpointMismatch):
        run_pipeline(chaos_reads, _config(overlap_mode="blocked",
                                          checkpoint_dir=ckdir, fuzz=61))


def test_checkpoint_resume_under_executor(chaos_reads, baseline, tmp_path):
    """A parallel run killed mid-checkpoint resumes under a different
    executor with identical bytes (strips are executor-independent)."""
    ckdir = str(tmp_path / "ck")
    with pytest.raises(FaultInjected):
        run_pipeline(chaos_reads,
                     _config("thread", 2, "blocked", checkpoint_dir=ckdir,
                             fault_plan="strip.checkpoint:exc@1"))
    resumed = run_pipeline(chaos_reads,
                           _config("process", 2, "blocked",
                                   checkpoint_dir=ckdir))
    assert _digests(resumed) == baseline["blocked"]


# ---------------------------------------------------------------------------
# crash-safe service commits

@pytest.fixture(scope="module")
def service_reads():
    _genome, reads, _layout = simulate_reads(
        ReadSimSpec(GenomeSpec(length=4_000, seed=41), depth=8,
                    mean_len=550, min_len=350, sigma_len=0.2,
                    error=ErrorModel(rate=0.0), seed=42))
    return reads


def _service(fault_spec=""):
    return AssemblyService(ServiceConfig(
        refresh_mode="incremental",
        pipeline=PipelineConfig(k=K, nprocs=NPROCS, kmer_upper=KMER_UPPER,
                                fuzz=60, fault_plan="")),
        fault_spec=fault_spec)


def _batches(reads, n=3):
    bounds = np.linspace(0, len(reads), n + 1).astype(int)
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sub = reads.subset(np.arange(lo, hi))
        out.append((list(sub.names), [decode(s) for s in sub.seqs]))
    return out


def _service_digests(service):
    state = service.store.current()
    return {
        "version": state.version,
        "R": _sha(state.R.row, state.R.col, state.R.vals),
        "S": _sha(state.S.row, state.S.col, state.S.vals),
        "contigs": _contig_digest(state.graph),
    }


@pytest.fixture(scope="module")
def service_golden(service_reads):
    """Fault-free final state after ingesting all batches in order."""
    svc = _service()
    for names, seqs in _batches(service_reads):
        svc.ingest(names, seqs)
    return _service_digests(svc)


@pytest.mark.parametrize("fail_at", [1, 2, 3])
def test_service_rollback_at_every_version(service_reads, service_golden,
                                           fail_at):
    svc = _service(fault_spec=f"service.refresh:exc@{fail_at}")
    batches = _batches(service_reads)
    for i, (names, seqs) in enumerate(batches, start=1):
        if i == fail_at:
            before_version = svc.store.current().version
            cache_entries = svc.cache.stats()["entries"]
            with pytest.raises(RefreshFailed) as err:
                svc.ingest(names, seqs)
            # Nothing committed: old version, cache unswept.
            assert svc.store.current().version == before_version
            assert err.value.version == before_version
            assert svc.cache.stats()["entries"] == cache_entries
            svc.ingest(names, seqs)  # the retry succeeds …
        else:
            svc.ingest(names, seqs)
    # … and the final state is byte-identical to the never-faulted run.
    assert _service_digests(svc) == service_golden


def test_service_cache_survives_failed_refresh(service_reads):
    svc = _service(fault_spec="service.refresh:exc@2")
    names, seqs = _batches(service_reads, n=1)[0]
    svc.ingest(names, seqs)
    svc.contigs()                              # fills the v1 cache
    hits_before = svc.cache.stats()["hits"]
    with pytest.raises(RefreshFailed):
        svc.ingest(names, seqs)
    svc.contigs()                              # still served from cache
    assert svc.cache.stats()["hits"] == hits_before + 1


def test_service_http_503_then_retry(service_reads):
    svc = _service(fault_spec="service.refresh:exc@2")
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        names, seqs = _batches(service_reads, n=1)[0]
        payload = {"reads": [{"name": n, "seq": s}
                             for n, s in zip(names, seqs)]}
        req = urllib.request.Request(
            f"{base}/reads", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"}, method="POST")
        with urllib.request.urlopen(req) as resp:
            assert json.loads(resp.read())["version"] == 1
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(urllib.request.Request(
                f"{base}/reads", data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST"))
        assert err.value.code == 503
        body = json.loads(err.value.read())
        assert body["code"] == "refresh-failed"
        assert body["retryable"] is True
        assert body["version"] == 1
        with urllib.request.urlopen(f"{base}/version") as resp:
            assert json.loads(resp.read())["version"] == 1
        with urllib.request.urlopen(req) as resp:  # retry commits v2
            assert json.loads(resp.read())["version"] == 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_service_bad_batch_is_client_error(service_reads):
    # A structurally invalid batch (mismatched names/seqs) is the client's
    # fault — BadBatch (HTTP 400), and nothing is committed.  (Non-ACGT
    # characters are *not* an error: encode() substitutes them, matching
    # long-read N handling.)
    svc = _service()
    from repro.service import BadBatch
    with pytest.raises(BadBatch):
        svc.ingest(["r0", "r1"], ["ACGT"])
    assert svc.store.current().version == 0


# ---------------------------------------------------------------------------
# blocked path: checkpoint + injected executor faults together

def test_chaos_checkpoint_and_executor_faults(chaos_reads, baseline,
                                              tmp_path):
    """The full gauntlet: a parallel checkpointed run survives chunk
    faults, dies mid-checkpoint, resumes, and still matches the golden."""
    ckdir = str(tmp_path / "ck")
    with pytest.raises(FaultInjected):
        run_pipeline(chaos_reads,
                     _config("thread", 2, "blocked", checkpoint_dir=ckdir,
                             fault_plan="exec.chunk:exc@1;"
                                        "strip.checkpoint:exc@2"))
    resumed = run_pipeline(chaos_reads,
                           _config("thread", 2, "blocked",
                                   checkpoint_dir=ckdir,
                                   fault_plan="exec.chunk:exc@2"))
    assert _digests(resumed) == baseline["blocked"]
