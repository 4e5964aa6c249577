"""Tests for the benchmark harness and report formatting."""

import pytest

from repro.benchmarks_data import isaplanner_problems, mutual_problems
from repro.harness import (
    ascii_cumulative_plot,
    cumulative_curve,
    format_table,
    isaplanner_summary_table,
    run_suite,
    tool_comparison_table,
    unsolved_classification,
)
from repro.search import ProverConfig


@pytest.fixture(scope="module")
def small_suite_result():
    """Run a small, fast subset of the IsaPlanner suite once for all tests."""
    problems = [p for p in isaplanner_problems() if p.name in {
        "prop_01", "prop_05", "prop_11", "prop_40", "prop_46", "prop_54",
    }]
    # No effective node budget: prop_54 must run out of wall clock, not race
    # the default 4000-node budget to it.
    config = ProverConfig(timeout=1.5, max_nodes=1_000_000)
    return run_suite(problems, config, suite_name="subset")


class TestRunner:
    def test_records_cover_every_problem(self, small_suite_result):
        assert small_suite_result.total == 6
        assert {r.name for r in small_suite_result.records} == {
            "prop_01", "prop_05", "prop_11", "prop_40", "prop_46", "prop_54",
        }

    def test_statuses_are_as_expected(self, small_suite_result):
        record = {r.name: r for r in small_suite_result.records}
        assert record["prop_01"].proved
        assert record["prop_11"].proved
        assert record["prop_40"].proved
        assert record["prop_05"].status == "out-of-scope"
        # prop_54 needs a commutativity lemma: its search burns the whole
        # wall-clock budget, which since the timeout-status split is reported
        # as a distinct ``timeout`` rather than a generic ``failed``.
        assert record["prop_54"].status == "timeout"
        assert record["prop_54"].timed_out
        assert record["prop_54"] in small_suite_result.failed  # still counts as unsolved

    def test_timing_fields_populated_for_attempted_problems(self, small_suite_result):
        for record in small_suite_result.records:
            if record.status != "out-of-scope":
                assert record.seconds >= 0
                assert record.milliseconds == pytest.approx(record.seconds * 1000)

    def test_summary_aggregates(self, small_suite_result):
        summary = small_suite_result.summary()
        assert summary["total"] == 6
        assert summary["solved"] == len(small_suite_result.solved)
        assert summary["out_of_scope"] == 1
        assert summary["timeout"] == len(small_suite_result.timed_out)
        assert summary["average_solved_ms"] >= 0
        # timeouts are part of the "failed" (unsolved) aggregate
        assert summary["failed"] >= summary["timeout"]

    def test_record_lookup(self, small_suite_result):
        assert small_suite_result.record("prop_01").name == "prop_01"
        with pytest.raises(KeyError):
            small_suite_result.record("prop_99")

    def test_record_lookup_sees_later_appends(self):
        from repro.harness import SolveRecord, SuiteResult

        result = SuiteResult(suite="s")
        result.records.append(SolveRecord(name="a", suite="s", status="proved"))
        assert result.record("a").name == "a"  # builds the index
        result.records.append(SolveRecord(name="b", suite="s", status="failed"))
        assert result.record("b").name == "b"  # index refreshed after append

    def test_hypotheses_can_be_supplied_per_problem(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_54"]
        program = problems[0].program
        hints = {"prop_54": [program.parse_equation("add a b === add b a")]}
        result = run_suite(problems, ProverConfig(timeout=5.0), hypotheses=hints)
        assert result.record("prop_54").proved

    def test_progress_callback_invoked(self):
        problems = [p for p in mutual_problems()[:2]]
        seen = []
        run_suite(problems, ProverConfig(timeout=2.0), progress=seen.append)
        assert [r.name for r in seen] == [p.name for p in problems]


class TestCumulativeCurve:
    def test_curve_is_monotone(self, small_suite_result):
        curve = cumulative_curve(small_suite_result)
        assert len(curve) == len(small_suite_result.solved)
        times = [t for t, _ in curve]
        counts = [c for _, c in curve]
        assert times == sorted(times)
        assert counts == list(range(1, len(curve) + 1))

    def test_solved_within_bound(self, small_suite_result):
        assert len(small_suite_result.solved_within(10_000.0)) == len(small_suite_result.solved)
        assert small_suite_result.solved_within(0.0) == []

    def test_curve_on_empty_suite(self):
        from repro.harness import SuiteResult

        assert cumulative_curve(SuiteResult(suite="empty")) == []
        assert ascii_cumulative_plot(SuiteResult(suite="empty")) == "(no problems solved)"

    def test_curve_on_all_failed_suite(self):
        from repro.harness import SolveRecord, SuiteResult

        result = SuiteResult(
            suite="sad",
            records=[
                SolveRecord(name="a", suite="sad", status="failed", seconds=0.1),
                SolveRecord(name="b", suite="sad", status="timeout", seconds=1.0),
                SolveRecord(name="c", suite="sad", status="out-of-scope"),
            ],
        )
        assert cumulative_curve(result) == []
        assert ascii_cumulative_plot(result) == "(no problems solved)"
        assert result.summary()["solved"] == 0
        assert result.summary()["timeout"] == 1


class TestReports:
    def test_format_table_aligns_columns(self):
        table = format_table(("a", "metric"), [("x", 1), ("longer", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_summary_table_contains_paper_numbers(self, small_suite_result):
        table = isaplanner_summary_table(small_suite_result)
        assert "44" in table and "measured" in table

    def test_tool_comparison_table(self):
        table = tool_comparison_table(41)
        assert "HipSpec" in table and "this reproduction" in table and "41" in table

    def test_ascii_plot_renders(self, small_suite_result):
        plot = ascii_cumulative_plot(small_suite_result)
        assert "solved:" in plot
        assert "*" in plot

    def test_unsolved_classification_mentions_hints(self, small_suite_result):
        text = unsolved_classification(small_suite_result)
        assert "prop_54" in text
        assert "add a b" in text or "needs" in text
