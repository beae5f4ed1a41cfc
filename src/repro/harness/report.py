"""Rendering experiment results as paper-style tables.

The benchmark scripts print these tables (one per figure) so the repository
output can be compared line-by-line with the paper's plots, and
EXPERIMENTS.md embeds the same renderings.
"""

from __future__ import annotations

from repro.harness.experiments import ExperimentResult


def _format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_series_table(result: ExperimentResult, *, x_key: str | None = None) -> str:
    """Render an experiment's series as an aligned text table.

    The first column is the x-axis (``x_key`` or the first series entry);
    the remaining columns are the measured series, one per system.
    """
    keys = list(result.series)
    x = x_key or keys[0]
    columns = [x] + [key for key in keys if key != x]
    rows = len(result.series[x])
    widths = {}
    rendered: dict[str, list[str]] = {}
    for column in columns:
        cells = [_format_value(v) for v in result.series[column]]
        rendered[column] = cells
        widths[column] = max(len(column), *(len(c) for c in cells)) if cells else len(column)
    lines = [f"# {result.experiment}: {result.description}"]
    if result.parameters:
        lines.append(
            "# parameters: "
            + ", ".join(f"{k}={v}" for k, v in result.parameters.items())
        )
    header = "  ".join(column.rjust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for row in range(rows):
        lines.append(
            "  ".join(rendered[column][row].rjust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _within_band(measured, expected, tolerance: float) -> bool:
    if isinstance(expected, bool):
        return measured == expected
    if isinstance(expected, dict):
        return all(
            _within_band(measured.get(key), value, tolerance)
            for key, value in expected.items()
        )
    if isinstance(expected, tuple):
        low, high = expected
        m_low, m_high = measured if isinstance(measured, tuple) else (measured, measured)
        span = max(abs(low), abs(high), 1e-9)
        return (
            m_low >= low - tolerance * span and m_high <= high + tolerance * span
        )
    span = max(abs(expected), 1e-9)
    return abs(measured - expected) <= tolerance * span


def summarize_bands(result: ExperimentResult, *, tolerance: float = 0.5) -> str:
    """Paper-vs-measured comparison for each published ratio.

    ``tolerance`` is the relative slack applied to the paper's value — the
    reproduction targets shape, not absolute equality (see DESIGN.md
    Sec. 6).
    """
    lines = [f"# {result.experiment}: paper vs. measured"]
    for key, expected in result.paper_expectation.items():
        measured = result.ratios.get(key)
        if measured is None:
            lines.append(f"  {key:32s} paper={expected!r}  measured=MISSING")
            continue
        verdict = "OK" if _within_band(measured, expected, tolerance) else "DIVERGES"
        lines.append(
            f"  {key:32s} paper={_render(expected):24s} "
            f"measured={_render(measured):24s} [{verdict}]"
        )
    return "\n".join(lines)


def _render(value) -> str:
    if isinstance(value, tuple):
        return f"({_format_value(value[0])}, {_format_value(value[1])})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}:{_render(v)}" for k, v in value.items()) + "}"
    return _format_value(value)
