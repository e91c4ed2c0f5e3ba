"""Checks of the benchmark itself (``python -m pytest bench -q``).

Not collected by tier-1 (``pytest.ini`` pins collection to ``tests/``).
The smoke runs are shared across tests: two at one seed, one at another.
"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
         "--seed", str(seed)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs():
    return smoke(14), smoke(14), smoke(15)


def test_contract_names_and_workloads():
    from workloads import WORKLOADS
    doc = contract()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in doc["end_to_end"] if m["name"] == "setup_s").items()
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_smoke_emits_every_declared_metric(smoke_runs):
    doc = contract()
    report = smoke_runs[0]
    assert set(report["workloads"]) == {w["name"] for w in doc["workloads"]}
    for name, w in report["workloads"].items():
        assert w["correct"], (name, w["problems"])
        assert w["attempted"] >= 1 and w["failed"] == 0
        for section in ("end_to_end", "per_layer"):
            for m in doc[section]:
                got = w[section][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], float)
        for m in doc["end_to_end"]:
            assert w["end_to_end"][m["name"]]["value"] > 0, (name, m["name"])


def test_exact_metrics_repeat_at_a_seed_and_move_with_it(smoke_runs):
    from run import EXACT
    first, again, other = smoke_runs
    for name in first["workloads"]:
        a, b, c = (r["workloads"][name] for r in (first, again, other))
        assert a["digests"] == b["digests"]
        assert a["digests"] != c["digests"]
        for metric in EXACT:
            va, vb, vc = (w["end_to_end"][metric]["value"] for w in (a, b, c))
            assert va == vb, (name, metric)
            assert va != vc, (name, metric)
        counts = [k for k, m in a["per_layer"].items()
                  if m["unit"] == "count" and not k.startswith("svc.")
                  and k != "iters_failed"]
        assert all(a["per_layer"][k] == b["per_layer"][k] for k in counts)


@pytest.mark.parametrize("name", ["clr_xdrop", "chain_wide", "hifi_deep",
                                  "service_stream"])
def test_staged_driver_matches_run_pipeline(name):
    """The traced driver must not drift from ``_run_pipeline_inner``."""
    from repro.core.pipeline import run_pipeline
    from spans import Tracer
    from staged import run_staged
    from workloads import (WORKLOADS, Outcome, dataset, digests,
                           pipeline_config)
    wl = WORKLOADS[name]
    reads, _layout = dataset(wl, 14, smoke=True)
    cfg = pipeline_config(wl)
    ref = run_pipeline(reads, cfg)
    staged = run_staged(cfg, Tracer(name), reads=reads)
    want = digests(Outcome(S=ref.S, R=ref.R, tracker=ref.tracker,
                           graph=ref.string_graph, cp={}))
    assert digests(staged.outcome) == want
    assert staged.layers["spmat.nnz_a"] == ref.nnz_a
    assert staged.layers["spgemm.nnz_c"] == ref.nnz_c
    assert staged.layers["tr.rounds"] == ref.tr_rounds
    assert staged.layers["spgemm.peak_live_mb"] * 1e6 == \
        ref.peak_bytes["SpGEMM"]
