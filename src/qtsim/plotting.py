"""Render sweep CSVs as curves: ``python -m qtsim.plotting out.csv [...]``.

Thin, out-of-process viewer for the three standard figures: classical
BER comparison, QBER-vs-SNR error floors, and the decoded-error curve.
Needs matplotlib (``pip install qtsim[plot]``).
"""
from __future__ import annotations

import csv
import sys
from collections import defaultdict


def _load(path: str) -> list[dict]:
    """The rows of a sweep CSV, without its error rows."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(lines)
    if "sweep_kind" not in (reader.fieldnames or ()):
        raise ValueError(f"{path} is not a sweep CSV: it has no sweep_kind column")
    return [row for row in reader if not row.get("error")]


def _f(row, key):
    return float(row[key]) if row.get(key) else None


def plot_file(path: str, ax) -> None:
    _plot_rows(_load(path), ax)


def _plot_rows(rows: list[dict], ax) -> None:
    if not rows:
        return
    kind = rows[0]["sweep_kind"]
    if kind == "classical_ber":
        by_variant = defaultdict(list)
        for r in rows:
            by_variant[r["variant"]].append((_f(r, "snr_db"), _f(r, "ber")))
        for variant, pts in sorted(by_variant.items()):
            pts.sort()
            ax.semilogy(*zip(*pts), marker="o", label=f"{variant} QPSK")
        ax.set_xlabel("Es/N0 [dB]")
        ax.set_ylabel("BER")
    elif kind in ("qber_vs_snr", "teleport_demo"):
        by_p = defaultdict(list)
        for r in rows:
            by_p[r["p_eq"]].append((_f(r, "snr_db"), max(_f(r, "qber") or 0, 1e-12)))
        for p_eq, pts in sorted(by_p.items(), key=lambda kv: -float(kv[0] or 0)):
            pts.sort()
            ax.semilogy(*zip(*pts), marker="s", label=f"P_eq = {p_eq}")
        ax.set_xlabel("Es/N0 [dB]")
        ax.set_ylabel("QBER")
    elif kind == "shor_curve":
        pts = sorted((_f(r, "p_eq"), _f(r, "p_shor"), _f(r, "p_shor_exact")) for r in rows)
        xs = [p[0] for p in pts]
        ax.loglog(xs, [p[1] for p in pts], "o", label="decoded (Monte Carlo)")
        ax.loglog(xs, [p[2] for p in pts], "-", label="decoded (exact)")
        ax.loglog(xs, xs, "--", color="gray", label="unencoded")
        ax.set_xlabel("channel error probability")
        ax.set_ylabel("error probability after decoding")
    ax.grid(True, which="both", alpha=0.3)
    ax.legend()
    ax.set_title(kind)


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m qtsim.plotting <sweep.csv> [...]", file=sys.stderr)
        return 1
    try:
        tables = [_load(path) for path in paths]
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install qtsim[plot]", file=sys.stderr)
        return 1
    fig, axes = plt.subplots(1, len(paths), figsize=(6 * len(paths), 4.5))
    if len(paths) == 1:
        axes = [axes]
    for rows, ax in zip(tables, axes):
        _plot_rows(rows, ax)
    fig.tight_layout()
    out = "qtsim_curves.png"
    fig.savefig(out, dpi=150)
    print(f"saved {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
