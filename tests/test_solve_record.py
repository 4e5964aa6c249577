"""Tests for the one attempt → record path and the record wire codec.

``SolveRecord.to_wire`` is what crosses the worker pipe and lands in store
lines; ``SolveRecord.from_wire`` is the one decoder of both.  The fixture
store ``fixtures/parent_store.jsonl`` was written by ``solve_suite`` before
the codec existed (each run below once cold, once warm), and
``fixtures/parent_store_records.json`` holds the records its warm replay
produced then (``dataclasses.asdict``, minus the per-run ``store`` phase).
"""

import json
import shutil
from dataclasses import asdict, fields
from pathlib import Path

import pytest

from repro.benchmarks_data import false_conjectures_problems, isaplanner_problems
from repro.engine import ResultStore, solve_suite
from repro.engine.store import OUTCOME_FIELDS
from repro.harness import SolveRecord, run_suite
from repro.search import ProverConfig
from repro.search.prover import Prover

FIXTURES = Path(__file__).parent / "fixtures"

#: Record fields a store line does not persist: the goal's identity is key
#: material, queue wait and worker slot belong to one run, and ``cached`` is
#: what replaying a line means.
NOT_PERSISTED = {"name", "suite", "queued_seconds", "worker", "cached"}


def _sample_record() -> SolveRecord:
    """A record with every field off its default."""
    return SolveRecord(
        name="prop_01",
        suite="isaplanner",
        status="proved",
        seconds=0.25,
        nodes=12,
        subst_attempts=3,
        soundness_violations=1,
        normalizer_hits=40,
        normalizer_misses=9,
        reason="because",
        strategy="iddfs",
        max_agenda_size=7,
        choice_points=5,
        worker=1,
        variant="default",
        cached=True,
        certificate={"format": "cycleq.preproof", "nodes": [{"id": 0}]},
        certificate_seconds=0.002,
        counterexample={"goal": "prop_01", "bindings": {"n": "Z"}},
        falsify_seconds=0.003,
        compile_seconds=0.004,
        compiled_steps=30,
        fallback_steps=2,
        hot_symbols={"add": 9, "app": 4},
        hints_offered=2,
        hint_steps=1,
        queued_seconds=0.005,
        phase_seconds={"soundness": 0.125, "normalise": 0.0625},
        phase_counts={"soundness": 3, "normalise": 8},
    )


class TestCodec:
    def test_every_field_survives_a_round_trip(self):
        record = _sample_record()
        for spec in fields(SolveRecord):
            if spec.name not in ("name", "suite", "status"):
                default = spec.default_factory() if callable(spec.default_factory) else spec.default
                assert getattr(record, spec.name) != default, f"sample leaves {spec.name} at its default"
        decoded = SolveRecord.from_wire(record.name, record.suite, record.to_wire())
        assert decoded == record

    def test_only_the_wire_trims_hot_symbols_to_the_top_eight(self):
        heads = {f"f{i}": count for i, count in enumerate([5, 1, 9, 3, 9, 7, 2, 8, 6, 4])}
        record = SolveRecord("g", "s", "proved", hot_symbols=dict(heads))
        wire = record.to_wire()
        # Descending by count; ties keep their first-seen order.
        assert wire["hot_symbols"] == {
            "f2": 9, "f4": 9, "f7": 8, "f5": 7, "f8": 6, "f0": 5, "f9": 4, "f3": 3,
        }
        assert record.hot_symbols == heads
        assert SolveRecord.from_wire("g", "s", wire).hot_symbols == wire["hot_symbols"]

    def test_phase_totals_are_rounded_on_the_wire_only(self):
        record = SolveRecord("g", "s", "proved", phase_seconds={"soundness": 0.1234567891})
        assert record.to_wire()["phase_seconds"] == {"soundness": 0.123457}
        assert record.phase_seconds == {"soundness": 0.1234567891}

    def test_defaults_stay_off_the_wire_but_status_never_does(self):
        assert SolveRecord("g", "s", "failed").to_wire() == {"status": "failed"}

    def test_decoding_defaults_absent_and_null_fields(self):
        line = {
            "schema": 3, "program": "p", "goal": "isaplanner/prop_01", "equation": "e",
            "config": "c", "status": "timeout", "nodes": None, "hot_symbols": None,
            "seconds": 1,
        }
        record = SolveRecord.from_wire("prop_01", "isaplanner", line, cached=True)
        assert record == SolveRecord(
            "prop_01", "isaplanner", "timeout", seconds=1.0, cached=True
        )
        assert SolveRecord.from_wire("g", "s", {}).status == "failed"

    def test_provenance_overrides_the_payload(self):
        record = SolveRecord.from_wire("g", "s", {"status": "proved", "variant": "a"}, variant="b")
        assert record.variant == "b"

    def test_outcome_fields_are_the_codec_fields_a_line_persists(self):
        codec = {spec.name for spec in fields(SolveRecord)}
        assert len(OUTCOME_FIELDS) == len(set(OUTCOME_FIELDS))
        assert set(OUTCOME_FIELDS) == codec - NOT_PERSISTED


class TestAttempt:
    def test_serial_records_keep_every_hot_symbol(self):
        problem = next(p for p in isaplanner_problems() if p.name == "prop_74")
        config = ProverConfig(timeout=None, max_nodes=100, compile_rules=True)
        record = run_suite([problem], config).records[0]
        statistics = Prover(problem.program, config).prove(problem.goal.equation).statistics
        assert record.hot_symbols == statistics.rewrite_head_counts
        assert len(record.hot_symbols) > 1

    def test_conditional_goal_is_out_of_scope_without_the_falsifier(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_05"]
        record = run_suite(problems, ProverConfig(timeout=1.0)).records[0]
        assert record == SolveRecord(
            "prop_05", "isaplanner", "out-of-scope", reason="conditional goal"
        )


@pytest.fixture
def parent_store(tmp_path):
    # Copied: opening a store takes a lock file next to it.
    path = tmp_path / "store.jsonl"
    shutil.copy(FIXTURES / "parent_store.jsonl", path)
    return str(path)


class TestParentStore:
    def test_replays_into_identical_records(self, parent_store):
        # compile_rules is spelled out: the lines were written under the
        # default, and REPRO_NO_COMPILE_RULES would change the config key.
        isa = {p.name: p for p in isaplanner_problems()}
        runs = [
            (
                [isa[n] for n in ("prop_01", "prop_05", "prop_06", "prop_54", "prop_20")],
                ProverConfig(timeout=2.0, emit_proofs=True, compile_rules=True),
                {"prop_54": ["add a b === add b a"]},
                "repro.benchmarks_data.registry:isaplanner_problems",
            ),
            (
                false_conjectures_problems()[:3],
                ProverConfig(timeout=2.0, falsify_first=True, compile_rules=True),
                None,
                "repro.benchmarks_data.registry:false_conjectures_problems",
            ),
        ]
        replayed = []
        for problems, config, hints, resolver in runs:
            result = solve_suite(
                problems, config, hypotheses=hints, jobs=1, store=parent_store,
                resolver=resolver,
            )
            assert result.engine.worker_stats == {}  # nothing was re-solved
            for record in result.records:
                values = asdict(record)
                values["phase_seconds"].pop("store", None)
                replayed.append(values)
        expected = json.loads((FIXTURES / "parent_store_records.json").read_text())
        assert replayed == expected

    def test_report_keeps_hint_accounting(self, parent_store):
        from repro.cli import _records_from_store

        store = ResultStore(parent_store, lock=False)
        records = {r.name: r for r in _records_from_store(store, "isaplanner")["isaplanner"]}
        assert (records["prop_54"].hints_offered, records["prop_54"].hint_steps) == (1, 1)
        assert all(r.cached for r in records.values())
