"""Evaluation metrics and benchmark tables.

Turns solved deployments into the queue-measure audit (per-station M/M/s
figures and probability-weighted averages) and renders benchmark rows as an
aligned text table plus CSV.  Waiting times are reported in minutes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .evcec import Deployment, station_rates
from .instance import Instance
from .queueing import QueueMeasures, mms_measures

CSV_COLUMNS = [
    "instance_id",
    "algo",
    "M",
    "b",
    "alpha",
    "t_s",
    "z",
    "lb",
    "gap",
    "ts_pct",
    "avg_wait_min",
    "avg_queue_len",
    "service_ok",
]


@dataclass(frozen=True)
class StationReportRow:
    node: int
    location: int
    lam: float
    posts: int
    measures: QueueMeasures


@dataclass(frozen=True)
class QueueReport:
    rows: tuple[StationReportRow, ...]
    avg_wait_min: float
    avg_queue_len: float
    service_ok: bool
    unstable: tuple[tuple[int, int], ...]


def queue_report(inst: Instance, dep: Deployment, b: int | None = None) -> QueueReport:
    """Per-station steady-state measures plus probability-weighted averages.

    Closed stations are excluded.  Averages weight each open (node, station)
    pair by the node probability.  ``service_ok`` records whether every open
    station meets P(queue <= b) >= alpha - 1e-6; solutions of the congestion
    model satisfy it by construction, capacity-blind baselines may not.
    """
    b_eff = inst.queue.b if b is None else b
    rows = []
    unstable = []
    wsum = 0.0
    wait_acc = 0.0
    len_acc = 0.0
    ok = True
    for n in inst.node_ids():
        node = inst.node(n)
        rates = station_rates(inst, dep.open[n], n)
        for j in range(inst.n_locations):
            if not dep.open[n][j]:
                continue
            meas = mms_measures(rates[j], inst.queue.mu, dep.posts[n][j], b_eff)
            rows.append(StationReportRow(n, j, rates[j], dep.posts[n][j], meas))
            if not meas.stable:
                unstable.append((n, j))
                ok = False
                continue
            wsum += node.prob
            wait_acc += node.prob * meas.wq * 60.0
            len_acc += node.prob * meas.lq
            if meas.p_le_b < inst.queue.alpha - 1e-6:
                ok = False
    return QueueReport(
        rows=tuple(rows),
        avg_wait_min=wait_acc / wsum if wsum > 0 else 0.0,
        avg_queue_len=len_acc / wsum if wsum > 0 else 0.0,
        service_ok=ok,
        unstable=tuple(unstable),
    )


def compare_metrics(t_star: float, z_star: float, t_alg: float, z_alg: float,
                    lb_alg: float | None = None) -> dict:
    """Time savings (percent) and objective gaps against the exact baseline:
    ts = (t* - t)/t* * 100, gap = (z - z*)/z, gap_lb = (z - lb)/z.

    ``gap_lb_star`` = (z* - lb)/z* is the same bound gap normalised by the
    exact optimum instead of the algorithm's own value; some benchmark tables
    quote that variant, so both are reported.
    """
    if t_star <= 0:
        raise ValueError(f"baseline time must be positive, got {t_star}")
    if z_star <= 0 or z_alg <= 0:
        raise ValueError("objective values must be positive")
    out = {
        "ts": (t_star - t_alg) / t_star * 100.0,
        "gap": (z_alg - z_star) / z_alg,
    }
    if lb_alg is not None:
        out["gap_lb"] = (z_alg - lb_alg) / z_alg
        out["gap_lb_star"] = (z_star - lb_alg) / z_star
    return out


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return ""
        return f"{value:.6g}"
    return str(value)


def render_tables(rows: list[dict]) -> tuple[str, str]:
    """(aligned text table, CSV) over CSV_COLUMNS, ordered by instance, M, b, algo.

    Missing keys render empty; the CSV re-parses to exactly the formatted cells.
    """
    ordered = sorted(
        rows,
        key=lambda r: (
            str(r.get("instance_id", "")),
            str(r.get("M", "")),
            str(r.get("b", "")),
            str(r.get("algo", "")),
        ),
    )
    table = [[_fmt(r.get(col)) for col in CSV_COLUMNS] for r in ordered]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(table)
    csv_text = buf.getvalue()

    widths = [
        max(len(CSV_COLUMNS[c]), max((len(row[c]) for row in table), default=0))
        for c in range(len(CSV_COLUMNS))
    ]
    lines = [
        "  ".join(CSV_COLUMNS[c].ljust(widths[c]) for c in range(len(CSV_COLUMNS))),
        "  ".join("-" * widths[c] for c in range(len(CSV_COLUMNS))),
    ]
    for row in table:
        lines.append("  ".join(row[c].ljust(widths[c]) for c in range(len(CSV_COLUMNS))))
    return "\n".join(lines) + "\n", csv_text


def parse_csv(text: str) -> list[dict]:
    """Inverse of render_tables' CSV half (cells come back as strings)."""
    reader = csv.DictReader(io.StringIO(text))
    return [dict(row) for row in reader]


def render_cg_log(stats: dict) -> str:
    """Text view of a branch-and-price run log: a header per branch node with
    its depth, the open flags its branching decides and the (node, location)
    post intervals it narrows below [0, m_max], then one line per
    column-generation round with the master's simplex pivots and the
    per-node reduced costs.  A Farkas round, priced while the master is
    infeasible, shows ``rmp=infeasible lb=-`` and the reduced costs of its
    ray.  Wall times stay out, so the text is the same on every run."""
    lines = []
    for entry in stats.get("log", []):
        lines.append(
            f"branch node depth={entry['branch_depth']} "
            f"fixed_flags={entry['fixings']} post_bounds={entry['post_bounds']} "
            f"-> {entry['status']}"
        )
        for rec in entry["cg"]:
            rcs = " ".join(
                f"{n}:{rc:.4g}"
                for n, rc in sorted(rec.get("reduced_costs", {}).items())
            )
            lb, value = rec["lagrangian_lb"], rec["rmp_value"]
            lb_txt = f"{lb:.6g}" if lb > -math.inf else "-"
            value_txt = f"{value:.6g}" if value < math.inf else "infeasible"
            lines.append(
                f"  round {rec['round']:3d}  rmp={value_txt}  "
                f"lb={lb_txt}  piv={rec['pivots']}  "
                f"cols+{rec['columns_added']}  rc[{rcs}]"
            )
    return "\n".join(lines) + ("\n" if lines else "")
