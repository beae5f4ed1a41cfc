"""Report rendering: tables and band comparisons."""

from repro.harness.experiments import ExperimentResult
from repro.harness.report import (
    failed_gates,
    render_series_table,
    summarize_bands,
)


def make_result():
    return ExperimentResult(
        experiment="figX",
        description="demo experiment",
        parameters={"clients": [1, 2]},
        series={"clients": [1, 2], "sgx": [1000.0, 2000.0], "lcm": [900.0, 1800.0]},
        ratios={"lcm_vs_sgx": (0.9, 0.9), "flat": True},
        paper_expectation={"lcm_vs_sgx": (0.85, 0.95), "flat": True},
    )


class TestRenderSeriesTable:
    def test_contains_header_and_rows(self):
        table = render_series_table(make_result())
        lines = table.splitlines()
        assert any("demo experiment" in line for line in lines)
        assert any("sgx" in line and "lcm" in line for line in lines)
        assert any("1,000" in line for line in lines)

    def test_row_count_matches_series(self):
        table = render_series_table(make_result())
        data_lines = [
            line for line in table.splitlines() if line and line[0] not in "#-" and "clients" not in line
        ]
        assert len(data_lines) == 2

    def test_first_series_is_the_x_axis(self):
        table = render_series_table(make_result())
        header = [
            line
            for line in table.splitlines()
            if "clients" in line and not line.startswith("#")
        ][0]
        assert header.split()[0] == "clients"

    def test_ragged_series_render_every_row(self):
        """A shorter column (two faults, three shards) gets blank cells
        instead of cutting the longer one off."""
        result = make_result()
        result.series = {
            "fault": ["crash-at-prepare", "crash-after-decision"],
            "violations_by_shard": [0, 0, 7],
        }
        lines = render_series_table(result).splitlines()
        assert lines[-1].split() == ["7"]
        assert len(lines) == 2 + 2 + 3     # titles, header + rule, rows

    def test_empty_x_column_still_renders_the_rest(self):
        result = make_result()
        result.series = {"fault": [], "violations_by_shard": [0, 0, 0]}
        lines = render_series_table(result).splitlines()
        assert [line.split() for line in lines[-3:]] == [["0"]] * 3


class TestSummarizeBands:
    def test_ok_verdict_inside_band(self):
        summary = summarize_bands(make_result())
        assert "[OK]" in summary
        assert "DIVERGES" not in summary

    def test_diverges_verdict_outside_band(self):
        result = make_result()
        result.ratios["lcm_vs_sgx"] = (0.2, 0.3)
        summary = summarize_bands(result)
        assert "DIVERGES" in summary

    def test_missing_measurement_flagged(self):
        result = make_result()
        del result.ratios["flat"]
        assert "MISSING" in summarize_bands(result)

    def test_boolean_expectations(self):
        result = make_result()
        result.ratios["flat"] = False
        assert "DIVERGES" in summarize_bands(result)

    def test_ratios_without_expectation_listed_last(self):
        result = make_result()
        result.ratios["conflict_retries"] = 124
        lines = summarize_bands(result).splitlines()
        assert lines[-1].split() == ["conflict_retries", "measured=124"]


class TestFailedGates:
    def test_clean_result_passes(self):
        assert failed_gates(make_result()) == []

    def test_booleans_fail_but_bands_do_not(self):
        result = make_result()
        result.ratios.update(flat=False, lcm_vs_sgx=(0.1, 0.1))
        assert failed_gates(result) == ["flat"]

    def test_missing_boolean_fails(self):
        result = make_result()
        del result.ratios["flat"]
        assert failed_gates(result) == ["flat"]

    def test_booleans_inside_a_dict_expectation(self):
        result = make_result()
        result.paper_expectation["flat_systems"] = {"sgx": True, "lcm": True}
        result.ratios["flat_systems"] = {"sgx": True, "lcm": False}
        assert failed_gates(result) == ["flat_systems.lcm"]
