"""Self-contained HTML run reports from campaign observability output.

:func:`build_report` reads the files a :class:`CampaignMonitor` left
behind (``summary.json`` and ``status.json`` when the campaign
finished, ``events.jsonl`` always) and renders one static HTML
page — inline CSS, inline SVG, zero external assets — that answers the
operator's post-run questions:

* how reliable was each policy? (per-policy MTTDL / P(loss) table,
  Monte-Carlo CI next to the closed-form prediction);
* how did the run behave? (shard duration histogram, retry /
  timeout / stall / speculation counters, worker utilization);
* where did the time go? (kernel-phase wall-time table).

Everything is computed from JSON on disk, so reports can be built long
after the campaign, on a different machine, with no simulator import.
"""

from __future__ import annotations

import html
import json
import os
from typing import List, Optional

from repro.obs.export import atomic_write

__all__ = ["build_report", "load_obs_dir", "render_html"]


def load_obs_dir(obs_dir: str) -> dict:
    """Load whatever observability output exists in ``obs_dir``.

    Returns ``{"summary": ..., "status": ..., "events": [...]}`` with
    ``None`` / ``[]`` for missing pieces; raises ``FileNotFoundError``
    only when none of the three files exists.  A running, killed or
    cancelled campaign has written only ``events.jsonl``.
    """
    data = {"summary": None, "status": None, "events": []}
    summary_path = os.path.join(obs_dir, "summary.json")
    status_path = os.path.join(obs_dir, "status.json")
    events_path = os.path.join(obs_dir, "events.jsonl")
    if not any(map(os.path.exists, (summary_path, status_path, events_path))):
        raise FileNotFoundError(
            f"no summary.json, status.json or events.jsonl under {obs_dir!r} "
            "(run the campaign with --monitor first)"
        )
    if os.path.exists(summary_path):
        with open(summary_path, encoding="utf-8") as handle:
            data["summary"] = json.load(handle)
    if os.path.exists(status_path):
        with open(status_path, encoding="utf-8") as handle:
            data["status"] = json.load(handle)
    if os.path.exists(events_path):
        with open(events_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data["events"].append(json.loads(line))
                except ValueError:
                    continue  # torn tail line from a crash: skip
    return data


def _svg_histogram(values: List[float]) -> str:
    """A dependency-free 640 x 180 SVG bar histogram of shard durations
    in 24 bins."""
    width, height, bins = 640, 180, 24
    if not values:
        return "<p class='empty'>no shard durations recorded</p>"
    low = min(values)
    high = max(values)
    span = (high - low) or max(high, 1e-9)
    counts = [0] * bins
    for value in values:
        index = min(bins - 1, int((value - low) / span * bins))
        counts[index] += 1
    peak = max(counts)
    bar_w = width / bins
    bars = []
    for index, count in enumerate(counts):
        if not count:
            continue
        bar_h = (count / peak) * (height - 30)
        x = index * bar_w
        y = height - 20 - bar_h
        lo = low + span * index / bins
        hi = low + span * (index + 1) / bins
        bars.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w - 2:.1f}" '
            f'height="{bar_h:.1f}" class="bar">'
            f"<title>{count} shard(s) in [{lo:.3f}s, {hi:.3f}s)</title></rect>"
        )
    labels = (
        f'<text x="2" y="{height - 6}" class="axis">{low:.3f}s</text>'
        f'<text x="{width - 4}" y="{height - 6}" class="axis" '
        f'text-anchor="end">{high:.3f}s</text>'
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">{"".join(bars)}{labels}</svg>'
    )


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "∞"
    if isinstance(value, float):
        if value != value:  # NaN
            return "—"
        return f"{value:.{digits}g}"
    return html.escape(str(value))


def _policy_table(policies: List[dict]) -> str:
    if not policies:
        return "<p class='empty'>no policy estimates</p>"
    rows = []
    for policy in policies:
        ci = policy.get("mttdl_ci_years") or [None, None]
        p_ci = policy.get("p_loss_ci") or [None, None]
        modes = policy.get("losses_by_mode") or {}
        mode_text = ", ".join(
            f"{mode}={count}" for mode, count in sorted(modes.items()) if count
        ) or "—"
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(policy.get('name', '?')))}</td>"
            f"<td class='num'>{policy.get('groups', 0):,}</td>"
            f"<td class='num'>{_fmt(policy.get('drive_years'), 6)}</td>"
            f"<td class='num'>{policy.get('losses', 0):,}</td>"
            f"<td>{mode_text}</td>"
            f"<td class='num'>{_fmt(policy.get('mttdl_years'))}</td>"
            f"<td class='num'>[{_fmt(ci[0])}, {_fmt(ci[1])}]</td>"
            f"<td class='num'>{_fmt(policy.get('p_loss_mission'))}</td>"
            f"<td class='num'>[{_fmt(p_ci[0])}, {_fmt(p_ci[1])}]</td>"
            f"<td class='num'>{_fmt(policy.get('closed_form_p_loss'))}</td>"
            f"<td class='num'>{_fmt(policy.get('latent_window_hours'))}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th>policy</th><th>groups</th><th>drive-years</th><th>losses</th>"
        "<th>by mode</th><th>MTTDL (y)</th><th>95% CI</th>"
        "<th>P(loss)</th><th>95% CI</th><th>closed-form P</th>"
        "<th>latent window (h)</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


def _phase_table(phases: List[dict]) -> str:
    if not phases:
        return "<p class='empty'>no phase timings recorded</p>"
    rows = [
        "<tr>"
        f"<td>{html.escape(str(phase.get('name', '?')))}</td>"
        f"<td class='num'>{phase.get('count', 0):,}</td>"
        f"<td class='num'>{_fmt(phase.get('total_s'))}</td>"
        f"<td class='num'>{_fmt(phase.get('mean_s'))}</td>"
        f"<td class='num'>{_fmt(phase.get('max_s'))}</td>"
        "</tr>"
        for phase in phases
    ]
    return (
        "<table><thead><tr>"
        "<th>phase</th><th>spans</th><th>total (s)</th>"
        "<th>mean (s)</th><th>max (s)</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>"
    )


_CSS = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem;
       color: #1a1a2e; background: #fafafa; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a2e; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; background: #fff; }
th, td { border: 1px solid #ccc; padding: .3rem .55rem; text-align: left; }
th { background: #eef; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { fill: #4a6fa5; } .bar:hover { fill: #c0504d; }
.axis { font-size: 11px; fill: #555; }
.kpis { display: flex; flex-wrap: wrap; gap: .8rem; margin: 1rem 0; }
.kpi { background: #fff; border: 1px solid #ccc; border-radius: 6px;
       padding: .5rem .9rem; }
.kpi b { display: block; font-size: 1.25rem; }
.degraded { color: #c0504d; font-weight: 600; }
.empty { color: #777; font-style: italic; }
footer { margin-top: 2rem; color: #777; font-size: .85rem; }
"""


def render_html(data: dict) -> str:
    """Render loaded observability data as one self-contained page."""
    summary = data.get("summary") or {}
    status = data.get("status") or {}
    final = summary.get("final") or status.get("final") or {}
    digest = summary.get("campaign") or status.get("campaign") or "?"
    state = summary.get("state") or status.get("state") or "?"
    elapsed = summary.get("elapsed_s", status.get("elapsed_s", 0.0))
    drive_years = summary.get(
        "drive_years", (status.get("throughput") or {}).get("drive_years", 0.0)
    )
    utilization = summary.get(
        "utilization", (status.get("workers") or {}).get("utilization", 0.0)
    )
    supervision = summary.get("supervision") or status.get("supervision") or {}
    durations = summary.get("shard_durations_s") or []
    policies = final.get("policies") or []
    completeness = final.get("completeness")
    state_class = "degraded" if state == "degraded" else ""
    rate = drive_years / elapsed if elapsed else 0.0

    kpis = [
        ("state", f"<span class='{state_class}'>{html.escape(state)}</span>"),
        ("wall time", f"{elapsed:,.1f}s"),
        ("drive-years", f"{drive_years:,.0f}"),
        ("drive-years/s", f"{rate:,.0f}"),
        ("utilization", f"{utilization * 100:.0f}%"),
        (
            "shards",
            f"{final.get('shards_completed', '?')}"
            f"/{final.get('shards_total', '?')}"
            + (
                f" ({final.get('shards_resumed')} resumed)"
                if final.get("shards_resumed")
                else ""
            ),
        ),
    ]
    if completeness is not None:
        kpis.append(("completeness", f"{completeness * 100:.2f}%"))
    kpi_html = "".join(
        f"<div class='kpi'><b>{value}</b>{html.escape(label)}</div>"
        for label, value in kpis
    )

    sup_items = " · ".join(
        f"{html.escape(key)}: {value:,}"
        for key, value in sorted(supervision.items())
    ) or "none recorded"

    failed = final.get("failed_shards") or [
        row["index"]
        for row in status.get("per_shard") or []
        if row.get("state") == "failed"
    ]
    errors = {
        row["index"]: row["error"]
        for row in status.get("per_shard") or []
        if row.get("state") == "failed" and row.get("error")
    }
    failed_html = (
        "<p class='degraded'>failed shards: "
        + ", ".join(
            f"{index}"
            + (f" ({html.escape(errors[index])})" if index in errors else "")
            for index in failed
        )
        + "</p>"
        if failed
        else ""
    )

    return f"""<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>repro campaign report — {html.escape(digest[:12])}</title>
<style>{_CSS}</style></head><body>
<h1>Fleet campaign report <code>{html.escape(digest[:16])}</code></h1>
<div class="kpis">{kpi_html}</div>
{failed_html}
<h2>Per-policy reliability</h2>
{_policy_table(policies)}
<h2>Shard durations</h2>
{_svg_histogram(durations)}
<h2>Supervision</h2>
<p>{sup_items}</p>
<h2>Kernel phase timings</h2>
{_phase_table(summary.get("phases") or [])}
<footer>generated from {html.escape(str(len(data.get("events", []))))}
logged events · repro.obs report</footer>
</body></html>
"""


def build_report(obs_dir: str, out_path: Optional[str] = None) -> str:
    """Build the HTML report for ``obs_dir``; returns the output path.

    Writes atomically (temp + rename) so a half-generated report never
    replaces a good one.
    """
    data = load_obs_dir(obs_dir)
    target = out_path or os.path.join(obs_dir, "report.html")
    text = render_html(data)
    with atomic_write(target) as handle:
        handle.write(text)
    return target
