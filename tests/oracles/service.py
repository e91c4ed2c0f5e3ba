"""The incremental service's reference engine and its all-fields digest.

:func:`recompute` builds the state a refresh must produce the slow way: a
from-scratch :func:`~repro.core.pipeline.run_pipeline` on the
concatenated reads, with every cached intermediate the delta engine keeps
(histogram, occurrence table and its key-major index, routing census,
candidate pair list) derived from the whole read set, and C's pattern
formed in full by scipy.  :func:`state_fields` lists every field of an
:class:`~repro.service.state.AssemblyState` but its timer and refresh
time, so two states compare field by field (:func:`differing_fields`).  Test-only: nothing under
``src/`` imports them.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.core.contigs import extract_contigs
from repro.core.pipeline import run_pipeline
from repro.seqs.fasta import ReadSet
from repro.seqs.kmer_counter import table_from_histogram
from repro.seqs.kmers import splitmix64
from repro.seqs.seeding import make_scheme
from repro.service import AssemblyState, ServiceConfig
from repro.service.incremental import (_basis, batch_occurrences,
                                       service_pipeline)

from oracles.kmers import kmer_histogram


def key_index(hist_keys: np.ndarray, occ_key: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Key-major CSR ``(key_ptr, key_occ)`` of an occurrence table.

    The occurrences of ``hist_keys[h]`` are ``key_occ[key_ptr[h]:
    key_ptr[h + 1]]``, ascending — hence in ascending read order, one per
    read.
    """
    h = np.searchsorted(hist_keys, occ_key)
    key_ptr = np.zeros(hist_keys.shape[0] + 1, np.int64)
    np.cumsum(np.bincount(h, minlength=hist_keys.shape[0]), out=key_ptr[1:])
    return key_ptr, np.argsort(h, kind="stable").astype(np.int64)


def recompute(state: AssemblyState, batch: ReadSet,
              config: ServiceConfig) -> AssemblyState:
    """Version ``v + 1`` of ``state`` plus ``batch``, from scratch."""
    pcfg = service_pipeline(config)
    combined = state.reads.concat(batch)
    n = len(combined)
    if n == 0:
        return replace(AssemblyState.initial(), version=state.version + 1)
    result = run_pipeline(combined, pcfg)
    basis = _basis(pcfg)
    scheme = make_scheme(pcfg.seed_mode, pcfg.k, pcfg.seed_w)
    hist_keys, hist_counts = kmer_histogram(combined, pcfg.k, scheme)
    table = table_from_histogram(hist_keys, hist_counts, pcfg.k,
                                 lower=basis.lower, upper=basis.upper)
    seeds = scheme.seeds_of_block(*combined.soa())
    occ_key, occ_read, occ_pos, occ_flip = batch_occurrences(seeds)
    occ_col = table.lookup(occ_key)
    key_ptr, key_occ = key_index(hist_keys, occ_key)
    # Each read's seed windows per hash owner (CountKmer's routing).
    P = pcfg.nprocs
    route_counts = np.zeros((n, P), np.int64)
    np.add.at(route_counts, (seeds[1].astype(np.int64),
                             (splitmix64(seeds[0]) % np.uint64(P))
                             .astype(np.int64)), 1)
    # C's strict-upper pattern, formed in full.
    has = occ_col >= 0
    A = sp.csr_matrix((np.ones(int(has.sum()), np.int64),
                       (occ_read[has], occ_col[has])), shape=(n, len(table)))
    C = sp.triu(A @ A.T, k=1).tocoo()
    order = np.lexsort((C.col, C.row))
    graph = result.string_graph
    return AssemblyState(
        version=state.version + 1, reads=combined,
        hist_keys=hist_keys, hist_counts=hist_counts, table=table,
        occ_read=occ_read, occ_pos=occ_pos, occ_flip=occ_flip,
        occ_col=occ_col, key_ptr=key_ptr, key_occ=key_occ,
        R=result.R, S=result.S, graph=graph,
        contigs=extract_contigs(graph),
        c_ri=C.row[order].astype(np.int64),
        c_rj=C.col[order].astype(np.int64),
        route_counts=route_counts,
        counts={"n_reads": n, "n_kmers": result.n_kmers,
                "nnz_a": result.nnz_a, "nnz_c": result.nnz_c,
                "nnz_r": result.nnz_r, "nnz_s": result.nnz_s,
                "tr_rounds": result.tr_rounds},
        tracker=result.tracker, timer=result.timer, basis=basis)


def _array(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def state_fields(state: AssemblyState) -> dict:
    """Every field of ``state`` but ``timer`` and ``refresh_seconds``, in
    comparable form (arrays as dtype, shape and bytes).

    The timer is left out on purpose: it holds wall times, and its kernel
    counters count SUMMA's ``q³`` block products on a scratch run but one
    masked product on a delta.
    """
    out = {"version": state.version, "basis": state.basis,
           "names": tuple(state.reads.names),
           "reads": tuple(_array(a) for a in state.reads.soa()),
           "counts": dict(state.counts)}
    for name in ("hist_keys", "hist_counts", "occ_read", "occ_pos",
                 "occ_flip", "occ_col", "key_ptr", "key_occ", "c_ri",
                 "c_rj", "route_counts"):
        out[name] = _array(getattr(state, name))
    t = state.table
    out["table"] = None if t is None else (
        t.k, t.lower, t.upper, t.seeds, _array(t.kmers), _array(t.counts))
    for name in ("R", "S"):
        mat = getattr(state, name)
        out[name] = None if mat is None else (
            mat.shape, _array(mat.row), _array(mat.col), _array(mat.vals))
    g = state.graph
    out["graph"] = None if g is None else (g.n_reads, *(
        _array(getattr(g, f)) for f in ("src", "dst", "suffix", "end_src",
                                        "end_dst", "overlap_len",
                                        "container")))
    out["contigs"] = [(tuple(c.reads), tuple(c.orientations),
                       tuple(c.contained)) for c in state.contigs]
    out["tracker"] = None if state.tracker is None else (
        state.tracker.nprocs, sorted(
            (stage, _array(rec.bytes_per_rank),
             _array(rec.messages_per_rank))
            for stage, rec in state.tracker.records.items()))
    return out


def differing_fields(a: AssemblyState, b: AssemblyState) -> list[str]:
    """Names of the :func:`state_fields` on which ``a`` and ``b`` differ."""
    fa, fb = state_fields(a), state_fields(b)
    return [name for name in fa if fa[name] != fb[name]]
