"""Rendering experiment results as paper-style tables.

``repro run`` prints these tables (one per figure) so the repository
output can be compared line-by-line with the paper's plots.
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


def render_series_table(result: ExperimentResult) -> str:
    """Render an experiment's series as an aligned text table.

    The first column is the x-axis (every experiment lists it first); the
    remaining columns are the measured series, one per system.  Series
    of different lengths render as many rows as the longest, with blank
    cells below the shorter ones.
    """
    columns = list(result.series)
    rendered = {
        column: [_format_value(v) for v in result.series[column]]
        for column in columns
    }
    rows = max(len(cells) for cells in rendered.values())
    for cells in rendered.values():
        cells += [""] * (rows - len(cells))
    widths = {
        column: max([len(column), *map(len, cells)])
        for column, cells in rendered.items()
    }
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


#: relative slack :func:`summarize_bands` applies to the paper's value —
#: the reproduction targets shape, not absolute equality
TOLERANCE = 0.5


def _within_band(measured, expected) -> bool:
    if isinstance(expected, bool):
        return measured == expected
    if isinstance(expected, dict):
        return all(
            _within_band(measured.get(key), value)
            for key, value in expected.items()
        )
    if isinstance(expected, tuple):
        low, high = expected
        m_low, m_high = measured if isinstance(measured, tuple) else (measured, measured)
        span = max(abs(low), abs(high), 1e-9)
        return (
            m_low >= low - TOLERANCE * span and m_high <= high + TOLERANCE * span
        )
    span = max(abs(expected), 1e-9)
    return abs(measured - expected) <= TOLERANCE * span


def summarize_bands(result: ExperimentResult) -> str:
    """Paper-vs-measured comparison for each published ratio, within
    :data:`TOLERANCE`, then the measured ratios no expectation covers."""
    lines = [f"# {result.experiment}: paper vs. measured"]
    for key, expected in result.paper_expectation.items():
        measured = result.ratios.get(key)
        if measured is None:
            lines.append(f"  {key:32s} paper={expected!r}  measured=MISSING")
            continue
        verdict = "OK" if _within_band(measured, expected) else "DIVERGES"
        lines.append(
            f"  {key:32s} paper={_render(expected):24s} "
            f"measured={_render(measured):24s} [{verdict}]"
        )
    for key, measured in result.ratios.items():
        if key not in result.paper_expectation:
            lines.append(f"  {key:32s} measured={_render(measured)}")
    return "\n".join(lines)


def failed_gates(result: ExperimentResult) -> list[str]:
    """The boolean expectations the measured ratios miss, booleans inside
    a dict expectation included (as ``key.name``): the pass/fail bars,
    which no tolerance widens."""
    failed = []
    for key, expected in result.paper_expectation.items():
        measured = result.ratios.get(key)
        if isinstance(expected, bool):
            if measured != expected:
                failed.append(key)
        elif isinstance(expected, dict):
            measured = measured if isinstance(measured, dict) else {}
            failed += [
                f"{key}.{name}"
                for name, value in expected.items()
                if isinstance(value, bool) and measured.get(name) != value
            ]
    return failed


def _render(value) -> str:
    if isinstance(value, tuple):
        return f"({_format_value(value[0])}, {_format_value(value[1])})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}:{_render(v)}" for k, v in value.items()) + "}"
    return _format_value(value)
