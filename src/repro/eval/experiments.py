"""Experiment drivers — one function per paper table/figure.

Each driver returns plain row dictionaries, so the claims tests
(``tests/test_paper_claims.py``) and the printed report
(``python -m repro.eval.report``) share one code path.  The mapping to the
paper:

=====================================  ======================================
driver                                 paper artifact
=====================================  ======================================
:func:`table1_comm_costs`              Table I  (communication costs 1D vs 2D)
:func:`table3_sparsity`                Table III (densities c, c/2d, r)
:func:`table4_datasets`                Table IV (dataset statistics)
:func:`table6_tr_vs_sora`              Table VI (TR: diBELLA 2D vs SORA)
:func:`fig4_strong_scaling`            Fig. 4  (strong scaling, 2 machines)
:func:`fig5to8_breakdown`              Figs. 5–8 (runtime breakdowns)
:func:`fig9_paper_scale_projection`    Fig. 9  (2D vs 1D, Section V-C model)
:func:`accuracy_table`                 overlap accuracy vs ground truth
:func:`seed_mode_table`                sketched seeding vs the full-k oracle
=====================================  ======================================
"""

from __future__ import annotations

import math

import numpy as np

from ..baselines.dibella1d import run_dibella1d
from ..baselines.sora import sora_transitive_reduction
from ..core.pipeline import PipelineConfig, PipelineResult, run_pipeline
from ..core.string_graph import StringGraph
from ..mpisim.machine import CORI_HASWELL, MACHINES
from ..seqs.fasta import ReadSet
from .datasets import PRESETS, load_preset
from .metrics import parallel_efficiency

__all__ = [
    "pipeline_for_preset", "table1_comm_costs", "table3_sparsity",
    "table4_datasets", "table6_tr_vs_sora", "fig4_strong_scaling",
    "fig5to8_breakdown", "fig9_paper_scale_projection",
    "accuracy_table", "seed_mode_table",
]

_CACHE: dict = {}


def _dataset(name: str):
    """Simulate (and memoize) a preset's reads within one process."""
    if name not in _CACHE:
        _CACHE[name] = load_preset(name)
    return _CACHE[name]


def pipeline_for_preset(name: str, nprocs: int, align_mode: str = "chain",
                        **overrides) -> tuple[PipelineResult, ReadSet]:
    """Run diBELLA 2D on a preset (chain alignment by default for speed).

    Seeding and the overlap mode default to the paper's — every k-mer, one
    product — whatever the environment says: the strip-mined mode
    (Section VIII) broadcasts A once per strip, so its traffic is not the
    one Table I analyzes.
    """
    preset, _genome, reads, _layout = _dataset(name)
    overrides.setdefault("overlap_mode", "monolithic")
    overrides.setdefault("seed_mode", "full")
    cfg = PipelineConfig(k=17, nprocs=nprocs, align_mode=align_mode,
                         depth_hint=preset.depth,
                         error_hint=preset.error_rate, **overrides)
    key = ("pipe", name, nprocs, align_mode, tuple(sorted(overrides.items())))
    if key not in _CACHE:
        _CACHE[key] = run_pipeline(reads, cfg)
    return _CACHE[key], reads


# ---------------------------------------------------------------------------
# Table I — communication costs
# ---------------------------------------------------------------------------

def table1_comm_costs(name: str = "ecoli_like",
                      procs: tuple[int, ...] = (4, 16)) -> list[dict]:
    """Measured per-rank words/messages vs the paper's analytic formulas.

    For each P, runs both pipelines and reports, per stage, the measured
    max-per-rank word count ``W`` and message count ``Y`` next to the
    Table I prediction evaluated with the run's own dataset parameters
    (n, l, k, a, m, c).  TR runs on the dovetails between non-contained
    reads only, so its row is predicted from their count ``d`` and the
    run's round count ``t``, not from Table I's ``rn/√P`` over all of R.
    """
    _preset, _genome, reads, _layout = _dataset(name)
    rows: list[dict] = []
    n = len(reads)
    l = float(np.mean(reads.lengths))
    k = 17
    word = 8.0
    for P in procs:
        res, _ = pipeline_for_preset(name, P)
        oned = _dibella1d_for(name, P)
        m = res.n_kmers
        a = res.a_density
        c = res.c_density
        t = res.tr_rounds
        # What TR squares: the dovetails between non-contained reads.
        d = StringGraph.from_coomat(res.R).without_contained().n_edges
        sq = math.sqrt(P)

        def w(stage, tracker):
            return tracker.words(stage, word_bytes=8)

        rows.append({
            "P": P, "task": "K-mer Counting",
            "measured_W_2d": w("CountKmer", res.tracker),
            "predicted_W": n * l * k / 4 / P / word,
            "measured_Y_2d": res.tracker.messages("CountKmer"),
            "predicted_Y_2d": 2 * P,  # two passes, b=1 each
        })
        rows.append({
            "P": P, "task": "Overlap Detection",
            "measured_W_2d": w("SpGEMM", res.tracker),
            # 4 words per shipped A entry (row, col, pos, flip).
            "predicted_W": a * m / sq * 4,
            "measured_Y_2d": res.tracker.messages("SpGEMM"),
            "predicted_Y_2d": sq,
            "measured_W_1d": oned.tracker.words("Overlap1D"),
            # 5 words per shipped 1D candidate pair tuple.
            "predicted_W_1d": a * a * m / P * 5,
            "measured_Y_1d": oned.tracker.messages("Overlap1D"),
            "predicted_Y_1d": P,
        })
        rows.append({
            "P": P, "task": "Read Exchange",
            "measured_W_2d": w("ExchangeRead", res.tracker),
            "predicted_W": 2 * n * l / sq / word,
            "measured_Y_2d": res.tracker.messages("ExchangeRead"),
            "predicted_Y_2d": sq,
            "measured_W_1d": oned.tracker.words("ExchangeRead1D"),
            "predicted_W_1d": c * n * l / P / word,
            "measured_Y_1d": oned.tracker.messages("ExchangeRead1D"),
            "predicted_Y_1d": min(c * n * l / P, P),
        })
        rows.append({
            "P": P, "task": "Transitive Reduction",
            "measured_W_2d": w("TrReduction", res.tracker),
            # Contained reads leave first: a row reduce (n/√P words) and an
            # allgather of the container vector (n).  Then each of the t
            # rounds squares the d dovetails (4 payload words each) and
            # takes a row max (n/√P).
            "predicted_W": t * (4 * d + n) / sq + n / sq + n,
            "measured_Y_2d": res.tracker.messages("TrReduction"),
            # 1 + (P - 1) messages before the loop; per round √P for the
            # squaring, one for the row max and one for the nnz allreduce.
            "predicted_Y_2d": P + t * (sq + 2),
        })
    return rows


def _dibella1d_for(name: str, P: int):
    preset, _genome, reads, _layout = _dataset(name)
    key = ("1d", name, P)
    if key not in _CACHE:
        _CACHE[key] = run_dibella1d(
            reads, k=17, nprocs=P, align_mode="chain",
            depth_hint=preset.depth, error_hint=preset.error_rate)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Table III / Table IV
# ---------------------------------------------------------------------------

def table3_sparsity(names: tuple[str, ...] = ("ecoli_like", "celegans_like",
                                              "hsapiens_like"),
                    nprocs: int = 4) -> list[dict]:
    """Densities c, inefficiency c/2d, and r for each dataset (Table III)."""
    rows = []
    for name in names:
        preset, _genome, reads, _layout = _dataset(name)
        res, _ = pipeline_for_preset(name, nprocs)
        rows.append({
            "dataset": preset.paper_name,
            "depth": preset.depth,
            "c_density": res.c_density,
            "inefficiency": res.inefficiency(preset.depth),
            "r_density": res.r_density,
            "s_density": res.s_density,
        })
    return rows


def table4_datasets(names: tuple[str, ...] = ("ecoli_like", "celegans_like",
                                              "hsapiens_like")) -> list[dict]:
    """Dataset statistics (Table IV) for the scaled presets."""
    rows = []
    for name in names:
        preset, genome, reads, _layout = _dataset(name)
        rows.append({
            "label": preset.paper_name,
            "depth": preset.depth,
            "reads_K": len(reads) / 1e3,
            "mean_length": float(np.mean(reads.lengths)),
            "input_MB": reads.total_bases() / 1e6,
            "genome_size_Kb": genome.shape[0] / 1e3,
            "error": preset.error_rate,
        })
    return rows


# ---------------------------------------------------------------------------
# Table VI — transitive reduction vs SORA
# ---------------------------------------------------------------------------

def table6_tr_vs_sora(names: tuple[str, ...] = ("celegans_like",
                                                "hsapiens_like"),
                      node_counts: tuple[int, ...] = (1, 4, 9),
                      ranks_per_node: int = 4) -> list[dict]:
    """diBELLA 2D TR vs SORA runtimes and speedups (Table VI).

    ``node_counts × ranks_per_node`` gives the P grid (paper: 32 ranks/node
    at 32–338 nodes; scaled here).  SORA consumes diBELLA's overlap graph R,
    exactly as the paper feeds SORA the 2D pipeline's output.
    """
    rows = []
    for name in names:
        # SORA gets the same overlap graph R, built once on one rank (R is
        # P-invariant).
        graph = StringGraph.from_coomat(pipeline_for_preset(name, 1)[0].R)
        for nodes in node_counts:
            P = nodes * ranks_per_node
            res, _reads = pipeline_for_preset(name, P)
            # diBELLA TR modeled time on Cori (Table VI is Cori-only).
            tr_time = (res.timer.stage_seconds.get("TrReduction", 0.0)
                       * CORI_HASWELL.compute_scale
                       + res.tracker.stage_comm_time("TrReduction",
                                                     CORI_HASWELL))
            sora = sora_transitive_reduction(graph, nodes=nodes,
                                             cores_per_node=32)
            rows.append({
                "dataset": PRESETS[name].paper_name,
                "nodes": nodes,
                "sora_seconds": sora.modeled_seconds,
                "dibella_seconds": tr_time,
                "speedup": sora.modeled_seconds / tr_time if tr_time else
                float("inf"),
                "edges": graph.n_edges,
            })
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — strong scaling; Figs. 5–8 — breakdowns
# ---------------------------------------------------------------------------

def fig4_strong_scaling(name: str = "celegans_like",
                        procs: tuple[int, ...] = (1, 4, 16, 36),
                        machines: tuple[str, ...] = ("cori", "summit")
                        ) -> list[dict]:
    """Strong scaling of the full pipeline on both machine models (Fig. 4)."""
    rows = []
    for mname in machines:
        machine = MACHINES[mname]
        times = []
        for P in procs:
            res, _ = pipeline_for_preset(name, P)
            times.append(res.modeled_total(machine))
        effs = parallel_efficiency(list(procs), times)
        for P, t, e in zip(procs, times, effs):
            rows.append({"dataset": PRESETS[name].paper_name,
                         "machine": machine.name, "P": P,
                         "seconds": t, "efficiency": e})
    return rows


def fig5to8_breakdown(name: str = "celegans_like",
                      procs: tuple[int, ...] = (4, 16, 36),
                      machine_name: str = "cori") -> list[dict]:
    """Per-stage runtime breakdown with and without alignment (Figs. 5–8)."""
    machine = MACHINES[machine_name]
    rows = []
    for P in procs:
        res, _ = pipeline_for_preset(name, P)
        stages = res.modeled_time(machine, include_alignment=True)
        for stage, secs in stages.items():
            rows.append({"dataset": PRESETS[name].paper_name,
                         "machine": machine.name, "P": P,
                         "stage": stage, "seconds": secs})
    return rows


# ---------------------------------------------------------------------------
# Fig. 9 — 2D vs 1D at the paper's scale
# ---------------------------------------------------------------------------

#: The paper's dataset constants (Tables III–IV) used by the projection.
PAPER_DATASETS = {
    "C. elegans": {"n": 420_700, "l": 11_241, "c": 1_579.7, "a": 2.5},
    "H. sapiens": {"n": 4_421_600, "l": 7_401, "c": 1_207.7, "a": 2.5},
}


def fig9_paper_scale_projection(machine_name: str = "summit",
                                procs: tuple[int, ...] = (1024, 4096, 10816),
                                align_rate: float = 1e4,
                                proc_rate: float = 5e7) -> list[dict]:
    """Fig. 9's regime projected with the paper's dataset constants.

    Evaluates the Table I volume formulas with the *paper's* n, l, c (and a
    reliable-k-mer density a ≈ 2.5, the BELLA multiplicity window) at the
    paper's concurrencies, on the α–β machine model, adding a per-word
    processing cost (``proc_rate`` words/s for dedup/merge work — measured
    numpy throughput order) and a common alignment term (``align_rate``
    pairs/s/rank).  This is where the 1D read exchange's ``cnl/P`` with
    c ≈ 1200–1600 — versus 2D's ``2nl/√P`` — puts diBELLA 2D ahead until
    the ``P > c²/4`` crossover (Section V-C), reproducing the paper's
    1.2–1.9× shape from its own cost analysis.
    """
    machine = MACHINES[machine_name]
    rows = []
    for ds, p in PAPER_DATASETS.items():
        n, l, c, a = p["n"], p["l"], p["c"], p["a"]
        m = c * n / (a * a)  # from nnz(C) = m·a²/2 = c·n/2
        for P in procs:
            sq = P ** 0.5
            # --- 1D: candidate pairs (5 words each) + read exchange cnl/P.
            w1_pairs = c * n / (2 * P) * 5
            w1_reads = c * n * l / P / 8  # bytes -> words
            t1 = (machine.comm_time((w1_pairs + w1_reads) * 8, 2 * P)
                  + (w1_pairs + w1_reads) / proc_rate
                  + c * n / (2 * P) / align_rate)
            # --- 2D: SUMMA input blocks (4 words/entry) + 2nl/√P reads.
            w2_spgemm = a * m / sq * 4
            w2_reads = 2 * n * l / sq / 8
            t2 = (machine.comm_time((w2_spgemm + w2_reads) * 8, 2 * sq)
                  + (w2_spgemm + w2_reads) / proc_rate
                  + c * n / (2 * P) / align_rate)
            rows.append({"dataset": ds, "P": P,
                         "dibella1d_seconds": t1, "dibella2d_seconds": t2,
                         "speedup_2d_over_1d": t1 / t2})
    return rows


def accuracy_table(names: tuple[str, ...] = ("toy", "ecoli_like"),
                   min_overlap: int = 500, nprocs: int = 4) -> list[dict]:
    """Overlap-detection accuracy vs ground truth (BELLA-style evaluation).

    The paper defers accuracy numbers to the single-node BELLA paper
    (Section VI); with simulated reads we can score the candidate set
    directly: recall/precision of nnz(C) pairs against true pairs
    overlapping >= ``min_overlap`` bp, plus the string-graph contiguity
    metrics of the final layout.
    """
    from ..core.contigs import extract_contigs
    from .assembly_metrics import (contig_spans, genome_coverage,
                                   misjoin_count, n50)
    from .metrics import overlap_recall_precision

    rows = []
    for name in names:
        preset, genome, reads, layout = _dataset(name)
        res, _ = pipeline_for_preset(name, nprocs)
        found = _candidate_pairs_for(name)
        # BELLA's convention: recall against long true overlaps, precision
        # judged with a permissive truth (short true overlaps found by the
        # detector are correct detections, not false positives).
        recall, _ = overlap_recall_precision(found, layout, min_overlap)
        _, precision = overlap_recall_precision(found, layout, 100)
        contigs = extract_contigs(res.string_graph)
        spans = [hi - lo for lo, hi in contig_spans(contigs, layout)]
        rows.append({
            "dataset": preset.paper_name,
            "recall": recall,
            "precision": precision,
            "contig_n50_bp": n50(spans),
            "genome_coverage": genome_coverage(contigs, layout,
                                               genome.shape[0]),
            "misjoins": misjoin_count(contigs, layout),
        })
    return rows


def seed_mode_table(name: str = "ecoli_like",
                    modes: tuple[str, ...] = ("full", "minimizer", "syncmer"),
                    seed_w: int = 8, min_overlap: int = 500,
                    nprocs: int = 4) -> list[dict]:
    """Sketched seeding modes scored against the full-k oracle.

    Runs the pipeline once per seeding mode on the same reads and reports,
    per mode: the seed matrix / candidate matrix sizes (nnz(A), nnz(C) —
    the quantities sketching exists to shrink), recall of true overlaps
    (overlap-graph pairs vs layout pairs >= ``min_overlap`` bp), recall of
    the *full-k* mode's correctly-detected true overlaps (what sketching
    loses relative to every-window seeding, scored on the pairs that
    matter — full-k also finds shallow sub-``min_overlap`` pairs whose
    loss is the point of sketching), and the downstream layout quality
    (contig N50, genome coverage, misjoins).  ``modes`` must start with
    ``"full"`` so the oracle row exists before the sketched rows
    reference it.
    """
    from ..core.contigs import extract_contigs
    from .assembly_metrics import (contig_spans, genome_coverage,
                                   misjoin_count, n50, pair_recall)

    preset, genome, _reads, layout = _dataset(name)
    truth = layout.overlap_pairs(min_overlap)
    rows: list[dict] = []
    full_true: set[tuple[int, int]] = set()
    for mode in modes:
        sketch = {} if mode == "full" else {"seed_w": seed_w}
        res, _ = pipeline_for_preset(name, nprocs, seed_mode=mode, **sketch)
        R = res.R
        pairs = set(zip(np.minimum(R.row, R.col).tolist(),
                        np.maximum(R.row, R.col).tolist()))
        if mode == "full":
            full_true = pairs & {(min(a, b), max(a, b)) for a, b in truth}
        contigs = extract_contigs(res.string_graph)
        spans = [hi - lo for lo, hi in contig_spans(contigs, layout)]
        rows.append({
            "dataset": preset.paper_name,
            "seed_mode": mode,
            "seed_w": seed_w if mode != "full" else "-",
            "nnz_a": res.nnz_a,
            "nnz_c": res.nnz_c,
            "recall_truth": pair_recall(pairs, truth),
            "recall_vs_full": (pair_recall(pairs, full_true)
                               if full_true else float("nan")),
            "contig_n50_bp": n50(spans),
            "genome_coverage": genome_coverage(contigs, layout,
                                               genome.shape[0]),
            "misjoins": misjoin_count(contigs, layout),
        })
    return rows


def _candidate_pairs_for(name: str) -> set[tuple[int, int]]:
    """Candidate pair set nnz(C) for a dataset (cached)."""
    from ..core.overlap import build_a_matrix, candidate_overlaps
    from ..mpisim.comm import SimComm
    from ..mpisim.grid import ProcessGrid2D
    from ..mpisim.tracker import CommTracker, StageTimer
    from ..seqs.kmer_counter import count_kmers, reliable_upper_bound

    key = ("cpairs", name)
    if key in _CACHE:
        return _CACHE[key]
    preset, _genome, reads, _layout = _dataset(name)
    comm = SimComm(1, CommTracker(1))
    timer = StageTimer()
    upper = reliable_upper_bound(preset.depth, preset.error_rate, 17)
    table = count_kmers(reads, 17, comm, timer, upper=upper)
    A = build_a_matrix(reads, table, ProcessGrid2D(1), comm, timer)
    C = candidate_overlaps(A, comm, timer).to_global()
    pairs = set(zip(C.row.tolist(), C.col.tolist()))
    _CACHE[key] = pairs
    return pairs
