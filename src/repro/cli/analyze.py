"""``repro analyze``: Section V-A statistics for a trace (idle-interval
summary, autocorrelation, tail share, expected remaining idle time and,
from two days up, the ANOVA period)."""

from ._shared import add_trace_source, idle_positioning, load_trace


def register(subparsers) -> None:
    parser = subparsers.add_parser(
        "analyze", help="workload statistics (Section V-A)"
    )
    add_trace_source(parser)
    parser.set_defaults(func=run)


def run(args) -> int:
    import numpy as np

    from repro.stats import (
        anova_period, expected_remaining, has_significant_autocorrelation,
        summarize_idle, usable_fraction,
    )
    from repro.stats.tails import idle_share_of_largest
    from repro.traces.idle import idle_intervals_from_trace

    trace = load_trace(args)
    _, durations = idle_intervals_from_trace(
        trace, positioning=idle_positioning(args)
    )
    if len(durations) == 0:
        print("no idle intervals found (trace saturated under this service model)")
        return 1
    stats = summarize_idle(durations, span=trace.duration)
    print(f"trace: {trace.name or '<unnamed>'}")
    print(f"  requests: {len(trace):,} over {trace.duration / 3600:.2f} h")
    print(
        f"  idle: {stats.count:,} intervals, mean {stats.mean * 1e3:.2f} ms, "
        f"CoV {stats.cov:.1f} ({'~memoryless' if stats.is_memoryless_like else 'heavy-tailed'})"
    )
    print(f"  autocorrelated: {has_significant_autocorrelation(durations)}")
    print(
        f"  idle share of largest 15% of intervals: "
        f"{idle_share_of_largest(durations, 0.15):.0%}"
    )
    taus = np.array([1e-3, 1e-2, 1e-1, 1.0])
    remaining = expected_remaining(durations, taus)
    usable = usable_fraction(durations, taus)
    for tau, rem, use in zip(taus, remaining, usable):
        rem_txt = f"{rem:9.3f} s" if np.isfinite(rem) else "      n/a"
        print(
            f"  after {tau * 1e3:7.1f} ms idle: expect {rem_txt} more, "
            f"{use:.0%} usable"
        )
    if trace.duration >= 2 * 86400:
        result = anova_period(trace.requests_per_bin(3600.0))
        label = f"{result.period} h" if result.period > 1 else "none"
        print(f"  ANOVA period: {label}")
    return 0
