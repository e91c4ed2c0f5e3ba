#!/usr/bin/env python3
"""The repo's benchmark: four workloads, one command.

    python bench/run.py                      # all workloads, one by one
    python bench/run.py --seed 15            # a held-out seed
    python bench/run.py --smoke              # tenth-size, one round, <30 s
    python bench/run.py --aa 3               # same code 3x: spread vs bound
    python bench/run.py --workload W --seed N --seconds S --trace 0|1
                                             # one result line (the driver)

Names, units, directions and bounds live in ``BENCHMARK.json``; this file
measures.  See ``bench/README.md`` for the protocol and its reasons.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Seconds one timed iteration was sized to on the recording host;
#: ``--seconds`` divided by this is the number of timed rounds (18 -> R = 7).
ITER_NOMINAL_S = 2.5
#: Set-ups per run whose median is ``setup_s``.
SETUP_SAMPLES = 3
#: End-to-end metrics that are counts: identical on every run at one seed.
EXACT = ("comm_mbytes",)
#: ``<layer>.cp_s`` <- the paper stage whose critical-path seconds it is.
CP_STAGES = {"kmer": "CountKmer", "spmat": "CreateSpMat", "spgemm": "SpGEMM",
             "align": "Alignment", "tr": "TrReduction"}


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def worker_env(scratch: str) -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` switch, one thread
    per BLAS, a fixed hash seed, temp files under our scratch.  One malloc
    arena: glibc's per-thread arenas made the service's peak RSS depend on
    thread scheduling (266-279 MB at one seed; 208.6-209.9 MB with one)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0", TMPDIR=scratch,
               PYTHONDONTWRITEBYTECODE="1", MALLOC_ARENA_MAX="1")
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """A ``worker.py`` subprocess; only one is alive at a time."""

    def __init__(self, name: str, seed: int, smoke: bool, scratch: str):
        self.name = name
        cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
               "--workload", name, "--seed", str(seed), "--scratch", scratch]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + (["--smoke"] if smoke else []), env=worker_env(scratch),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"worker {self.name} exited with code "
                               f"{self.proc.returncode} before replying")
        return json.loads(line)

    def ask(self, cmd: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def fastest_mean(walls: list[float]) -> float:
    """Mean of the fastest 4 of 7 (same share of any other round count).

    Slow episodes on a shared host only ever add time, so the fast end of
    the sample is the stable one; averaging four of them keeps more
    information than the single minimum.
    """
    keep = max(1, round(len(walls) * 4 / 7))
    return statistics.fmean(sorted(walls)[:keep])


def measure(name: str, seed: int, rounds: int, smoke: bool,
            setup_samples: int, traced: bool, scratch: str) -> dict:
    """Measure one workload: set-ups, ``rounds`` timed iterations back to
    back in one worker, re-score, and (``traced``) the traced pass."""
    setups = []
    for _ in range(setup_samples - 1):
        spare = Worker(name, seed, smoke, scratch)
        spare.close()
        setups.append(spare.setup_s)
    w = Worker(name, seed, smoke, scratch)
    try:
        setups.append(w.setup_s)
        rec = {"setups": setups, "walls": [], "attempted": w.ready["attempted"],
               "failed": w.ready["failed"], "problems": [],
               "digests": w.ready["digests"]}
        cps = []
        for _ in range(rounds):
            got = w.ask("iter")
            rec["attempted"] += got["attempted"]
            rec["failed"] += got["failed"]
            if got.get("error"):
                rec["problems"].append(got["error"])
            if got["wall"] is not None:
                rec["walls"].append(got["wall"])
                cps.append(got["cp"])
        walls = rec["walls"]
        if not walls:
            raise RuntimeError(f"{name}: every timed iteration failed")
        got = w.ask("finish")
        first = w.ready["exact"]
        for key, value in got["exact"].items():
            if value != first[key] or math.isnan(value):
                rec["problems"].append(
                    f"exact metric {key} drifted between iterations: "
                    f"{first[key]!r} -> {value!r}")
        rec["e2e"] = {"wall_s": fastest_mean(walls),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": got["rss_mb"], **got["exact"]}
        if traced:
            got = w.ask("trace")
            rec["attempted"] += 1
            rec["failed"] += bool(got["problems"])
            rec["problems"] += got["problems"]
            rec["spans"] = got["spans"]
            rec["layers"] = {
                **got["layers"],
                **{f"{layer}.cp_s": statistics.median(
                    cp.get(stage, 0.0) for cp in cps)
                   for layer, stage in CP_STAGES.items()},
                "trace.overhead_ratio": got["wall"] / rec["e2e"]["wall_s"],
                "wall_med_s": statistics.median(walls),
                "wall_min_s": min(walls), "wall_max_s": max(walls),
                "iters_failed": rounds - len(walls),
            }
    finally:
        w.close()
    return rec


def declared(rec: dict, section: list[dict], source: dict) -> dict:
    """``{name: {value, unit}}`` for every declared metric; a metric the
    run did not produce is a problem, not a silent omission."""
    out = {}
    for m in section:
        if m["name"] in source:
            out[m["name"]] = {"value": float(source[m["name"]]),
                              "unit": m["unit"]}
        else:
            rec["problems"].append(f"metric {m['name']} was not measured")
    return out


def host_block() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "cpu": model, "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def print_table(name: str, rec: dict, contract: dict) -> None:
    print(f"\n== {name}: {len(rec['walls'])} timed iterations, "
          f"{rec['attempted']} operations, {rec['failed']} failed ==")
    print("  walls (s): " + " ".join(f"{w:.3f}" for w in rec["walls"]))
    for m in contract["end_to_end"]:
        v = rec["e2e"].get(m["name"])
        if v is not None:
            print(f"  {m['name']:<22}{v:>14.6g} {m['unit']:<6}"
                  f"({m['better']} is better, bound {m['bound']:.0%})")
    if "layers" in rec:
        layers = rec["layers"]
        traced_wall = layers["trace.overhead_ratio"] * rec["e2e"]["wall_s"]
        print(f"  traced pass {traced_wall:.3f} s "
              f"(x{layers['trace.overhead_ratio']:.3f} of wall_s); "
              f"self time per layer:")
        total = sum(v for k, v in layers.items() if k.endswith(".s"))
        for key in sorted((k for k in layers if k.endswith(".s")),
                          key=lambda k: -layers[k]):
            print(f"    {key:<12}{layers[key]:>9.4f} s "
                  f"{layers[key] / total:>7.1%}")
        for m in contract["per_layer"]:
            if not m["name"].endswith(".s") and m["name"] in layers:
                print(f"  {m['name']:<26}{layers[m['name']]:>14.6g} "
                      f"{m['unit']}")
    for problem in rec["problems"]:
        print(f"  PROBLEM: {problem}")


def run_once(args, contract: dict, names: list[str], scratch: str,
             traced: bool, setup_samples: int) -> dict:
    rounds = 1 if args.smoke else max(1, round(args.seconds / ITER_NOMINAL_S))
    report = {"seed": args.seed, "rounds": rounds, "smoke": args.smoke,
              "host": host_block(), "workloads": {}}
    spans = []
    for name in names:
        rec = measure(name, args.seed, rounds, args.smoke,
                      1 if args.smoke else setup_samples, traced, scratch)
        e2e = declared(rec, contract["end_to_end"], rec["e2e"])
        layers = (declared(rec, contract["per_layer"],
                           {**rec["e2e"], **rec["layers"]})
                  if traced else {})
        print_table(name, rec, contract)
        spans += rec.get("spans", [])
        report["workloads"][name] = {
            "correct": not rec["problems"], "problems": rec["problems"],
            "attempted": rec["attempted"], "failed": rec["failed"],
            "end_to_end": e2e, "per_layer": layers,
            "walls_s": rec["walls"], "setups_s": rec["setups"],
            "digests": rec["digests"]}
    if traced:
        with open(os.path.join(OUT_DIR, "trace.json"), "w") as fh:
            json.dump(spans, fh)
    return report


def aa(args, contract: dict, names: list[str], scratch: str) -> int:
    """Same code, ``--aa`` sets: every cell's spread against its bound."""
    sets = [run_once(args, contract, names, scratch, traced=False,
                     setup_samples=SETUP_SAMPLES) for _ in range(args.aa)]
    bad = 0
    print(f"\n== A/A over {args.aa} sets: (max-min)/median per cell ==")
    for name in names:
        for m in contract["end_to_end"]:
            vals = [s["workloads"][name]["end_to_end"][m["name"]]["value"]
                    for s in sets]
            spread = (max(vals) - min(vals)) / statistics.median(vals)
            limit = 0.0 if m["name"] in EXACT else m["bound"]
            ok = spread <= limit
            bad += not ok
            print(f"  {name:<16}{m['name']:<20}{spread:>8.2%}  "
                  f"limit {limit:.0%}  {'ok' if ok else 'EXCEEDED'}   "
                  + " ".join(f"{v:.6g}" for v in vals))
    correct = all(w["correct"] for s in sets for w in s["workloads"].values())
    print(json.dumps({"aa_sets": sets, "cells_exceeded": bad}))
    return 0 if bad == 0 and correct else 1


def main() -> int:
    contract = load_contract()
    all_names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=all_names)
    ap.add_argument("--seed", type=int, default=14)
    ap.add_argument("--seconds", type=float, default=contract["run_seconds"],
                    help="timed measuring per workload; sets the round "
                         f"count at {ITER_NOMINAL_S} s per iteration")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="print one result line for --workload: 0 = "
                         "end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--aa", type=int, nargs="?", const=3, metavar="SETS")
    args = ap.parse_args()
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    names = [args.workload] if args.workload else all_names

    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    os.makedirs(scratch)
    # A terminated run still stops its workers and removes its scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.aa:
            return aa(args, contract, names, scratch)
        if args.trace is None:
            report = run_once(args, contract, names, scratch, traced=True,
                              setup_samples=SETUP_SAMPLES)
            print(json.dumps(report))
            return 0 if all(w["correct"]
                            for w in report["workloads"].values()) else 1
        # One result line; the traced run needs no repeated set-up because
        # it does not report setup_s.
        report = run_once(args, contract, names, scratch,
                          traced=bool(args.trace),
                          setup_samples=1 if args.trace else SETUP_SAMPLES)
        w = report["workloads"][args.workload]
        print(json.dumps({
            "correct": w["correct"], "attempted": w["attempted"],
            "failed": w["failed"],
            "metrics": w["per_layer"] if args.trace else w["end_to_end"]}))
        return 0 if w["correct"] else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
