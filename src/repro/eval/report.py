"""The paper's tables and figures as plain text.

``python -m repro.eval.report`` (no options) runs every driver of
:mod:`repro.eval.experiments` on the scaled presets and prints its rows:
Tables I, III, IV and VI, Figs. 4–8, the Fig. 9 projection, and the
accuracy and seeding-mode tables.  Seconds columns are modeled (measured
compute scaled to the machine model, plus α–β communication), so they vary
run to run; the exact counts behind them are asserted in
``tests/test_paper_claims.py``.  The formatting helpers keep columns fixed
width with 3 significant digits for floats, so output diffs cleanly.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["format_table", "format_value", "main", "print_table"]


def format_value(v) -> str:
    """Human formatting: 3-significant-digit floats, plain ints/strings."""
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        if v != v:  # NaN
            return "nan"
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)


def format_table(rows: Sequence[dict], columns: Sequence[str] | None = None,
                 title: str | None = None) -> str:
    """Render row dicts as a fixed-width text table."""
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    cells = [[format_value(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells))
              for i, c in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def print_table(rows: Sequence[dict], columns: Sequence[str] | None = None,
                title: str | None = None) -> None:
    print(format_table(rows, columns, title))


def _section(rows: Sequence[dict], title: str,
             columns: Sequence[str] | None = None) -> None:
    print()
    print_table(rows, columns, title)


def main() -> None:
    """Print every table and figure the experiment drivers regenerate."""
    from ..mpisim.machine import CORI_HASWELL, SUMMIT_CPU
    from . import experiments as ex

    print("Table V machine models:")
    for m in (CORI_HASWELL, SUMMIT_CPU):
        print(f"  {m.name}: {m.cores_per_node} cores/node, "
              f"alpha={m.alpha:.2e}s, beta={m.beta:.2e}B/s, "
              f"compute_scale={m.compute_scale}")
    _section(ex.table1_comm_costs(),
             "Table I: per-rank communication costs (words W / messages Y), "
             "E. coli-like",
             ["P", "task", "measured_W_2d", "predicted_W", "measured_Y_2d",
              "predicted_Y_2d", "measured_W_1d", "predicted_W_1d",
              "measured_Y_1d", "predicted_Y_1d"])
    _section(ex.table3_sparsity(),
             "Table III: sparsity (c, inefficiency c/2d, r)")
    _section(ex.table4_datasets(), "Table IV: datasets (scaled presets)")
    _section(ex.table6_tr_vs_sora(),
             "Table VI: transitive reduction, SORA vs diBELLA 2D (Cori)")
    for name in ("celegans_like", "hsapiens_like"):
        _section(ex.fig4_strong_scaling(name),
                 f"Fig. 4: strong scaling, {name}")
    for fig, name, machine in ((5, "celegans_like", "cori"),
                               (6, "celegans_like", "summit"),
                               (7, "hsapiens_like", "cori"),
                               (8, "hsapiens_like", "summit")):
        _section(ex.fig5to8_breakdown(name, machine_name=machine),
                 f"Fig. {fig}: runtime breakdown, {name} on {machine}")
    _section(ex.fig9_paper_scale_projection(),
             "Fig. 9: diBELLA 2D vs 1D, projected at the paper's dataset "
             "constants and concurrencies (Summit)")
    _section(ex.accuracy_table(),
             "Accuracy: overlap detection + layout vs ground truth")
    for name in ("toy", "ecoli_like"):
        _section(ex.seed_mode_table(name),
                 f"Seeding modes vs the full-k oracle ({name}, w=8)")


if __name__ == "__main__":
    main()
