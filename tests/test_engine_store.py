"""Tests for the persistent result store and the stable program fingerprint."""

import json
import os

import pytest

from repro.benchmarks_data import isaplanner_problems, isaplanner_program, mutual_program
from repro.engine import STORE_SCHEMA_VERSION, ResultStore, config_fingerprint, solve_suite
from repro.harness.runner import SolveRecord
from repro.search import ProverConfig


class TestProgramFingerprint:
    def test_stable_across_rebuilds(self):
        assert isaplanner_program().fingerprint() == isaplanner_program().fingerprint()

    def test_distinguishes_programs(self):
        assert isaplanner_program().fingerprint() != mutual_program().fingerprint()

    def test_goals_do_not_affect_the_fingerprint(self):
        from repro import load_program
        from repro.program import Goal

        # A private program, NOT the lru-cached isaplanner_program(): adding
        # a goal to the shared instance would leak an 86th problem into every
        # later isaplanner_problems() call in the test session.
        program = load_program(
            "data Nat = Z | S Nat\n"
            "add :: Nat -> Nat -> Nat\n"
            "add Z y = y\n"
            "add (S x) y = S (add x y)\n"
        )
        before = program.fingerprint()
        equation = program.parse_equation("add a b === add b a")
        program.add_goal(Goal(name="extra", equation=equation))
        assert program.fingerprint() == before

    def test_added_rules_invalidate_the_cached_fingerprint(self):
        from repro import load_program

        source = (
            "data Nat = Z | S Nat\n"
            "add :: Nat -> Nat -> Nat\n"
            "add Z y = y\n"
            "add (S x) y = S (add x y)\n"
        )
        extension = (
            "double :: Nat -> Nat\n"
            "double Z = Z\n"
            "double (S x) = S (S (double x))\n"
        )
        assert load_program(source + extension).fingerprint() != load_program(source).fingerprint()


class TestConfigFingerprint:
    def test_stable(self):
        assert config_fingerprint(ProverConfig()) == config_fingerprint(ProverConfig())

    def test_default_key_is_pinned(self):
        # Store lines written by earlier builds are keyed by this digest; a
        # change here makes every existing store a cold run.
        assert config_fingerprint(ProverConfig()) == "d78f4d51d57f2c77"

    def test_every_budget_field_matters(self):
        base = ProverConfig()
        for changes in ({"timeout": 1.0}, {"max_nodes": 7}, {"max_depth": 3},
                        {"lemma_restriction": "all"}):
            assert config_fingerprint(base.with_(**changes)) != config_fingerprint(base)


class TestResultStore:
    def key(self):
        return ResultStore.make_key("prog", "suite/goal", "lhs ≈ rhs", "cfg")

    def test_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        assert len(store) == 0
        store.put(self.key(), {"status": "proved", "seconds": 0.5, "reason": ""})
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        outcome = reloaded.get(self.key())
        assert outcome["status"] == "proved"
        assert outcome["seconds"] == 0.5
        assert reloaded.hits == 1

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.jsonl"))
        assert store.get(self.key()) is None
        assert store.misses == 1

    def test_last_write_wins(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put(self.key(), {"status": "failed", "reason": "first"})
        store.put(self.key(), {"status": "proved", "reason": "second"})
        assert ResultStore(path).get(self.key())["status"] == "proved"

    def test_identical_put_does_not_grow_the_file(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put(self.key(), {"status": "proved", "seconds": 0.5})
        size = os.path.getsize(path)
        store.put(self.key(), {"status": "proved", "seconds": 0.5})
        assert os.path.getsize(path) == size

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put(self.key(), {"status": "proved"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{torn wri\n")
            handle.write(json.dumps({"not": "an entry"}) + "\n")
        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(self.key())["status"] == "proved"

    def test_compact_rewrites_one_line_per_key(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put(self.key(), {"status": "failed"})
        store.put(self.key(), {"status": "proved"})
        store.compact()
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 1
        assert ResultStore(path).get(self.key())["status"] == "proved"

    def test_certificates_round_trip_through_disk(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        certificate = {"format": "cycleq.preproof", "version": 1, "nodes": [{"id": 0}]}
        store = ResultStore(path)
        store.put(self.key(), {"status": "proved", "certificate": certificate,
                               "certificate_seconds": 0.001})
        outcome = ResultStore(path).get(self.key())
        assert outcome["certificate"] == certificate
        assert outcome["certificate_seconds"] == 0.001


class TestStoreSchema:
    def key(self):
        return ResultStore.make_key("prog", "suite/goal", "lhs ≈ rhs", "cfg")

    def test_every_line_carries_the_schema_version(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        ResultStore(path).put(self.key(), {"status": "proved"})
        with open(path, encoding="utf-8") as handle:
            entry = json.loads(handle.readline())
        assert entry["schema"] == STORE_SCHEMA_VERSION

    def test_foreign_schema_lines_are_skipped_with_a_warning(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = ResultStore(path)
        store.put(self.key(), {"status": "proved"})
        stale = {"schema": STORE_SCHEMA_VERSION + 1, "program": "prog", "goal": "suite/other",
                 "equation": "a ≈ b", "config": "cfg", "status": "proved"}
        legacy = {"program": "prog", "goal": "suite/legacy",  # pre-versioning: schema 1
                  "equation": "a ≈ b", "config": "cfg", "status": "proved"}
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stale) + "\n")
            handle.write(json.dumps(legacy) + "\n")
        with pytest.warns(RuntimeWarning, match="schema"):
            reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.schema_skipped == 2
        assert reloaded.get(self.key())["status"] == "proved"

    def test_retired_compile_counters_decode_and_drop_on_rewrite(self, tmp_path):
        retired = ("compile_seconds", "compiled_steps", "fallback_steps")
        line = {"schema": STORE_SCHEMA_VERSION, "program": "prog", "goal": "suite/goal",
                "equation": "lhs ≈ rhs", "config": "cfg", "status": "proved", "nodes": 7,
                "compile_seconds": 0.002, "compiled_steps": 9, "fallback_steps": 1,
                "hot_symbols": {"add": 9}}
        old = tmp_path / "old.jsonl"
        old.write_text(json.dumps(line) + "\n", encoding="utf-8")
        payload = ResultStore(str(old), lock=False).get(self.key())
        record = SolveRecord.from_wire("goal", "suite", payload, cached=True)
        assert (record.status, record.nodes, record.hot_symbols) == ("proved", 7, {"add": 9})
        assert SolveRecord.from_wire("goal", "suite", line) == SolveRecord.from_wire(
            "goal", "suite", payload
        )
        path = str(tmp_path / "store.jsonl")
        ResultStore(path).put(self.key(), record.to_wire())
        with open(path, encoding="utf-8") as handle:
            rewritten = json.loads(handle.readline())
        assert not set(retired) & set(rewritten)
        assert rewritten == {k: v for k, v in line.items() if k not in retired}

    def test_compact_drops_stale_schema_lines(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        ResultStore(path).put(self.key(), {"status": "proved"})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"schema": 1, "program": "p", "goal": "s/g",
                                     "equation": "a ≈ b", "config": "c",
                                     "status": "failed"}) + "\n")
        with pytest.warns(RuntimeWarning):
            store = ResultStore(path)
        store.compact()
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert len(lines) == 1
        assert lines[0]["schema"] == STORE_SCHEMA_VERSION
        # A reload after compaction is warning-free.
        assert ResultStore(path).schema_skipped == 0


class TestWarmStoreRuns:
    @pytest.fixture()
    def problems(self):
        return [p for p in isaplanner_problems() if p.name in ("prop_01", "prop_06", "prop_11")]

    def test_second_run_resolves_nothing(self, problems, tmp_path):
        path = str(tmp_path / "store.jsonl")
        config = ProverConfig(timeout=2.0)
        cold = solve_suite(problems, config, jobs=1, store=path)
        assert not any(r.cached for r in cold.records)
        warm = solve_suite(problems, config, jobs=1, store=path)
        assert all(r.cached for r in warm.records)
        assert [r.status for r in warm.records] == [r.status for r in cold.records]
        # nothing was dispatched: the scheduler never spawned a worker
        assert warm.engine.worker_stats == {}

    def test_changed_config_invalidates_the_store(self, problems, tmp_path):
        path = str(tmp_path / "store.jsonl")
        solve_suite(problems, ProverConfig(timeout=2.0), jobs=1, store=path)
        rerun = solve_suite(problems, ProverConfig(timeout=3.0), jobs=1, store=path)
        assert not any(r.cached for r in rerun.records)

    def test_hints_are_part_of_the_store_identity(self, tmp_path):
        """A hintless outcome must never be replayed for a hinted run."""
        path = str(tmp_path / "store.jsonl")
        problems = [p for p in isaplanner_problems() if p.name == "prop_54"]
        config = ProverConfig(timeout=0.5)
        hintless = solve_suite(problems, config, jobs=1, store=path)
        assert not hintless.record("prop_54").proved
        # Same config, hints added: must be attempted (and proved via the
        # hint), not replayed from the hintless "timeout" entry.
        hints = {"prop_54": ["add a b === add b a"]}
        hinted = solve_suite(problems, config, jobs=1, store=path, hypotheses=hints)
        assert not hinted.record("prop_54").cached
        assert hinted.record("prop_54").proved
        # And the hinted outcome replays only for hinted re-runs.
        rerun = solve_suite(problems, config, jobs=1, store=path, hypotheses=hints)
        assert rerun.record("prop_54").cached
        assert rerun.record("prop_54").proved
        hintless_rerun = solve_suite(problems, config, jobs=1, store=path)
        assert hintless_rerun.record("prop_54").cached
        assert not hintless_rerun.record("prop_54").proved


class TestPhaseProfileRoundTrip:
    """The phase profiler's accounting must survive the store round trip,
    and stores written before the profiler existed must replay benignly."""

    @pytest.fixture()
    def problems(self):
        return [p for p in isaplanner_problems() if p.name in ("prop_01", "prop_06")]

    def test_phase_seconds_survive_the_store_round_trip(self, problems, tmp_path):
        path = str(tmp_path / "store.jsonl")
        config = ProverConfig(timeout=2.0)
        cold = solve_suite(problems, config, jobs=1, store=path)
        assert any(sum(r.phase_seconds.values()) > 0 for r in cold.records)
        assert any(r.phase_counts for r in cold.records)

        warm = solve_suite(problems, config, jobs=1, store=path)
        assert all(r.cached for r in warm.records)
        for before, after in zip(cold.records, warm.records):
            # The "store" phase is accounted per run (probe/put time of *this*
            # run), so it is the one phase allowed to differ between the cold
            # run and its warm replay; everything else must round-trip intact.
            before_phases = {k: v for k, v in before.phase_seconds.items() if k != "store"}
            after_phases = {k: v for k, v in after.phase_seconds.items() if k != "store"}
            assert after_phases == before_phases
            assert after.phase_counts == before.phase_counts

    def test_pre_profiler_store_lines_replay_benignly(self, problems, tmp_path):
        from repro.harness import hot_symbol_table, phase_profile_table

        path = str(tmp_path / "store.jsonl")
        config = ProverConfig(timeout=2.0)
        solve_suite(problems, config, jobs=1, store=path)

        # Rewrite every line to the pre-profiler shape: no phase_seconds, no
        # phase_counts, no hot_symbols — exactly what an old store contains.
        with open(path, encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        with open(path, "w", encoding="utf-8") as handle:
            for entry in lines:
                for field in ("phase_seconds", "phase_counts", "hot_symbols"):
                    entry.pop(field, None)
                handle.write(json.dumps(entry) + "\n")

        warm = solve_suite(problems, config, jobs=1, store=path)
        assert all(r.cached for r in warm.records)
        for record in warm.records:
            assert not record.phase_counts
            assert not record.hot_symbols
            # Only the warm run's own store accounting may appear.
            assert set(record.phase_seconds) <= {"store"}
        # The report tables must render, not KeyError, on the old shape.
        assert "phase" in phase_profile_table(warm)
        assert "no per-symbol data" in hot_symbol_table(warm)
