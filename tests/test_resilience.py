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
import pickle
import socket
import threading
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import candidate_overlaps_blocked
from repro.core.contigs import extract_contigs
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.exec import ProcessExecutor, SerialExecutor, get_executor
from repro.exec.executor import MAX_ATTEMPTS
from repro.resilience import (CheckpointMismatch, FaultInjected, FaultPlan,
                              InjectedWorkerCrash, StripCheckpoint,
                              active_plan, current_plan)
from repro.resilience.checkpoint import MANIFEST_VERSION
from repro.seqs import (ErrorModel, GenomeSpec, ReadSet, ReadSimSpec,
                        simulate_reads)
from repro.seqs.dna import decode, encode
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


@pytest.mark.parametrize("cls", [FaultInjected, InjectedWorkerCrash])
def test_injected_faults_survive_pickling(cls):
    # A process worker's exception reaches the parent through pickle.
    err = pickle.loads(pickle.dumps(cls("summa.block", "exc", 1)))
    assert type(err) is cls
    assert (err.site, err.kind, err.count) == ("summa.block", "exc", 1)
    assert str(err) == str(cls("summa.block", "exc", 1))


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
    lambda: ProcessExecutor(2),
], ids=["serial", "process"])
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


def test_process_worker_exception_is_a_failed_chunk_not_a_broken_pool():
    # An injected exception pickles back to the parent intact, so the
    # chunk is retried on the same pool instead of respawning it.
    with ProcessExecutor(2) as ex, \
            active_plan(FaultPlan("exec.chunk:exc@1")):
        assert ex.run(_double, TASKS) == WANT
    events = [e["event"] for e in ex.recovery]
    assert "retry" in events and "respawn" not in events


def test_process_executor_degrades_to_serial():
    with ProcessExecutor(2) as ex, \
            active_plan(FaultPlan("exec.chunk:exc@*")):
        assert ex.run(_double, TASKS) == WANT
    tiers = [e["tier"] for e in ex.recovery if e["event"] == "downgrade"]
    assert tiers == ["serial"]
    retries = [e for e in ex.recovery if e["event"] == "retry"]
    assert [e["attempt"] for e in retries] == [1, 2]


def test_real_task_exception_still_propagates_everywhere():
    # Bounded retry must not swallow genuine, deterministic task bugs.
    for make in (lambda: SerialExecutor(1), lambda: ProcessExecutor(2)):
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
    with ProcessExecutor(2) as ex2:
        assert ex2.run(_double, TASKS) == WANT
    ex2.close()


# ---------------------------------------------------------------------------
# chaos: injected faults leave pipeline output byte-identical

CHAOS_SPECS = [
    "exec.chunk:exc@2",
    "exec.chunk:crash@3",
    "summa.block:exc@1",
    "exec.chunk:exc@1;summa.block:exc@2",
]
CHAOS_EXECUTORS = [("serial", 1), ("process", 2)]


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


def _absorbable(clauses) -> bool:
    """At most ``MAX_ATTEMPTS - 1`` clauses per site: more can land on one
    chunk's in-place attempts and exhaust them (see the test below)."""
    return max(Counter(site for site, _, _ in clauses).values()) < \
        MAX_ATTEMPTS


@settings(max_examples=5, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["exec.chunk", "summa.block"]),
              st.sampled_from(["exc", "crash"]),
              st.integers(min_value=1, max_value=4)),
    min_size=1, max_size=3).filter(_absorbable))
def test_chaos_hypothesis_schedules(chaos_reads, baseline, clauses):
    spec = ";".join(f"{site}:{kind}@{count}"
                    for site, kind, count in clauses)
    result = run_pipeline(chaos_reads,
                          _config("process", 3, "blocked", fault_plan=spec))
    assert _digests(result) == baseline["blocked"], (
        f"faulted run drifted under generated spec {spec!r}")


def test_chaos_three_faults_at_one_site_exhaust_the_retries(chaos_reads):
    """Three ``summa.block`` faults on consecutive checks: every pool
    attempt loses its chunks, and the parent's in-place retries of one
    chunk meet checks 1, 2 and 3 — one per attempt — so the last fault
    escapes by name instead of the run drifting."""
    spec = ("summa.block:exc@1;summa.block:exc@2;summa.block:crash@3")
    with pytest.raises(InjectedWorkerCrash,
                       match=r"crash at summa\.block \(check #3\)"):
        run_pipeline(chaos_reads,
                     _config("process", 3, "blocked", fault_plan=spec))


def test_fault_spec_env_is_honored(chaos_reads, baseline, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "exec.chunk:exc@2")
    result = run_pipeline(chaos_reads,
                          _config("process", 2, fault_plan=None))
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
    assert MANIFEST_VERSION > 2
    d = tmp_path / "ck"
    StripCheckpoint(str(d), "fp", 2).open()
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format"] = 2
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatch, match="format 2"):
        StripCheckpoint(str(d), "fp", 2).open()


def test_strip_checkpoint_refuses_format_3(tmp_path):
    """Format-3 strip payloads carry no row census, so the parent could not
    count the SpGEMM peak from them; the manifest is refused."""
    assert MANIFEST_VERSION == 4
    d = tmp_path / "ck"
    StripCheckpoint(str(d), "fp", 2).open()
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["format"] = 3
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatch, match="format 3"):
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


def test_checkpoint_refuses_changed_bases(chaos_reads, tmp_path):
    """A resume against the same reads with one base changed is refused.
    The base sits in a read shorter than k: it seeds nothing, so A (which
    the fingerprint also covers) is the same both times, and only the
    fingerprint of the bases themselves tells the runs apart."""
    short = encode("ACGTACGTAC")
    changed = short.copy()
    changed[4] ^= 1

    def with_short(codes):
        return ReadSet([*chaos_reads.names, "short"], [*chaos_reads, codes])

    before, after = with_short(short), with_short(changed)
    assert before.content_fingerprint() != after.content_fingerprint()
    ckdir = str(tmp_path / "ck")
    cfg = _config(overlap_mode="blocked", checkpoint_dir=ckdir)
    first = run_pipeline(before, cfg)
    with pytest.raises(CheckpointMismatch):
        run_pipeline(after, cfg)
    # The same bases resume from every strip on disk.
    assert _digests(run_pipeline(before, cfg)) == _digests(first)


def test_checkpoint_resume_under_executor(chaos_reads, baseline, tmp_path):
    """A parallel run killed mid-checkpoint resumes under a different
    executor with identical bytes (strips are executor-independent)."""
    ckdir = str(tmp_path / "ck")
    with pytest.raises(FaultInjected):
        run_pipeline(chaos_reads,
                     _config("process", 2, "blocked", checkpoint_dir=ckdir,
                             fault_plan="strip.checkpoint:exc@1"))
    resumed = run_pipeline(chaos_reads,
                           _config("serial", 1, "blocked",
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
                     _config("process", 2, "blocked", checkpoint_dir=ckdir,
                             fault_plan="exec.chunk:exc@1;"
                                        "strip.checkpoint:exc@2"))
    resumed = run_pipeline(chaos_reads,
                           _config("process", 2, "blocked",
                                   checkpoint_dir=ckdir,
                                   fault_plan="exec.chunk:exc@2"))
    assert _digests(resumed) == baseline["blocked"]
