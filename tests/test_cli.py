"""Tests for the ``python -m repro`` command line."""

import subprocess
import sys
import os

import pytest

from repro.cli import _prover_config, build_parser, main
from repro.search import LEMMAS_ALL, ProverConfig

_FULL_SOLVE = ["--timeout", "3", "--max-depth", "5", "--lemmas", LEMMAS_ALL,
               "--strategy", "iddfs", "--falsify"]


class TestProverFlags:
    """solve, bench and profile map their prover flags onto one ProverConfig."""

    @pytest.mark.parametrize("argv, expected", [
        (["solve"], ProverConfig()),
        (["solve", *_FULL_SOLVE], ProverConfig(
            timeout=3.0, max_depth=5, lemma_restriction=LEMMAS_ALL, strategy="iddfs",
            falsify_first=True)),
        (["solve", "--emit-proofs"], ProverConfig(emit_proofs=True)),
        (["solve", "--proof-dir", "certs"], ProverConfig(emit_proofs=True)),
        (["bench"], ProverConfig()),
        (["bench", "--timeout", "1", "--strategy", "best-first", "--emit-proofs",
          "--falsify"], ProverConfig(
            timeout=1.0, strategy="best-first", emit_proofs=True, falsify_first=True)),
        (["profile"], ProverConfig()),
        (["profile", "--max-nodes", "200"], ProverConfig(max_nodes=200, timeout=None)),
        (["profile", "--max-nodes", "200", "--timeout", "2"],
         ProverConfig(max_nodes=200, timeout=2.0)),
        (["profile", "--timeout", "2", "--strategy", "dfs", "--falsify"],
         ProverConfig(timeout=2.0, strategy="dfs", falsify_first=True)),
    ])
    def test_flags_map_onto_one_config(self, argv, expected):
        assert _prover_config(build_parser().parse_args(argv)) == expected

    @pytest.mark.parametrize("argv", [
        ["bench", "--max-nodes", "5"],
        ["bench", "--lemmas", LEMMAS_ALL],
        ["profile", "--emit-proofs"],
        ["profile", "--max-depth", "5"],
        ["solve", "--max-nodes", "5"],
        ["solve", "--no-compile-rules"],
        ["bench", "--no-compile-rules"],
    ])
    def test_commands_keep_their_own_flags(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSolve:
    def test_solve_proved_goal_exits_zero(self, capsys):
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_01"]) == 0
        out = capsys.readouterr().out
        assert "prop_01" in out and "proved" in out

    def test_solve_unproved_goal_exits_one(self, capsys):
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_54",
                     "--timeout", "0.2"]) == 1
        assert "prop_54" in capsys.readouterr().out

    def test_solve_with_hint(self, capsys):
        code = main(["solve", "--suite", "isaplanner", "--goal", "prop_54",
                     "--timeout", "10", "--hint", "add a b === add b a"])
        assert code == 0
        assert "proved" in capsys.readouterr().out

    def test_unknown_goal_is_a_usage_error(self, capsys):
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_999"]) == 2
        assert "unknown goal" in capsys.readouterr().err

    def test_goal_required_with_suite(self, capsys):
        assert main(["solve", "--suite", "isaplanner"]) == 2


class TestBench:
    def test_bench_serial_slice(self, capsys):
        assert main(["bench", "--suite", "isaplanner", "--serial",
                     "--names", "prop_01,prop_06", "--timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "solved" in out and "wall-clock" in out

    def test_bench_parallel_with_store_and_warm_rerun(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        args = ["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                "--names", "prop_01,prop_06,prop_11", "--store", store]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "replayed from store: 0/3" in cold
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "replayed from store: 3/3" in warm

    def test_bench_portfolio(self, capsys):
        assert main(["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                     "--names", "prop_01", "--portfolio"]) == 0
        assert "portfolio winners" in capsys.readouterr().out

    def test_bench_empty_selection_is_a_usage_error(self, capsys):
        assert main(["bench", "--suite", "isaplanner", "--names", "nope"]) == 2


class TestEmitProofs:
    def test_solve_emit_proofs_prints_certificate(self, capsys):
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_11",
                     "--emit-proofs"]) == 0
        out = capsys.readouterr().out
        assert "certificate:" in out and "sha256" in out

    def test_solve_proof_dir_writes_self_contained_files(self, tmp_path, capsys):
        import json

        proof_dir = str(tmp_path / "certs")
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_11",
                     "--proof-dir", proof_dir]) == 0
        path = os.path.join(proof_dir, "prop_11.cert.json")
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["program_source"]
        assert payload["certificate"]["nodes"]
        capsys.readouterr()
        # The file embeds everything `check` needs.
        assert main(["check", path]) == 0
        assert "verified" in capsys.readouterr().out

    def test_bench_emit_proofs_prints_size_table(self, capsys):
        assert main(["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                     "--names", "prop_01,prop_11", "--emit-proofs"]) == 0
        out = capsys.readouterr().out
        assert "proof certificates" in out and "shared terms" in out


class TestCheck:
    def _bench(self, store, extra=()):
        return main(["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                     "--names", "prop_01,prop_06,prop_11", "--store", store,
                     "--emit-proofs", *extra])

    def test_check_verifies_a_certified_store(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        capsys.readouterr()
        assert main(["check", "--store", store, "--require-certificates"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "0 rejected" in out

    def test_check_rejects_a_tampered_store(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        entries = []
        with open(store, encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                cert = entry.get("certificate")
                if cert and len(cert["nodes"]) > 2:
                    victim = cert["nodes"][1]
                    victim["premises"] = []
                entries.append(entry)
        with open(store, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
        capsys.readouterr()
        assert main(["check", "--store", store]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_check_flags_missing_certificates_only_when_required(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert main(["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                     "--names", "prop_01,prop_11", "--store", store]) == 0  # no --emit-proofs
        capsys.readouterr()
        assert main(["check", "--store", store]) == 0
        assert "without certificate" in capsys.readouterr().out
        assert main(["check", "--store", store, "--require-certificates"]) == 1

    def test_check_missing_store_is_a_friendly_error(self, tmp_path, capsys):
        assert main(["check", "--store", str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_check_without_inputs_is_a_usage_error(self, capsys):
        assert main(["check"]) == 2

    def test_check_unreadable_program_override_is_a_usage_error(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        capsys.readouterr()
        assert main(["check", "--store", store, "--file", str(tmp_path / "typo.eq")]) == 2
        err = capsys.readouterr().err
        assert "cannot read program" in err

    def test_hinted_proofs_need_allow_hypotheses(self, tmp_path, capsys):
        proof_dir = str(tmp_path / "certs")
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_54",
                     "--timeout", "20", "--hint", "add a b === add b a",
                     "--proof-dir", proof_dir]) == 0
        path = os.path.join(proof_dir, "prop_54.cert.json")
        capsys.readouterr()
        # A certificate file must not grant its own hypotheses...
        assert main(["check", path]) == 1
        assert "does not grant" in capsys.readouterr().out
        # ...but the caller may opt in explicitly.
        assert main(["check", path, "--allow-hypotheses"]) == 0
        assert "1 hyp" in capsys.readouterr().out

    def test_self_hinted_hyp_only_certificate_is_rejected(self, tmp_path, capsys):
        """A hand-crafted wrapper cannot 'prove' a goal via a single Hyp vertex."""
        import json

        from repro.benchmarks_data import isaplanner_problems
        from repro.proofs.certificate import encode
        from repro.proofs.preproof import RULE_HYP, Preproof

        problem = next(p for p in isaplanner_problems() if p.name == "prop_54")
        proof = Preproof()
        proof.add_node(problem.goal.equation, rule=RULE_HYP)
        payload = {
            "format": "cycleq.certificate-file",
            "version": 1,
            "program_source": problem.program.source,
            "hints": [str(problem.goal.equation)],
            "certificate": encode(
                proof, program_fingerprint=problem.program.fingerprint()
            ).to_dict(),
        }
        path = str(tmp_path / "vacuous.cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert main(["check", path]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_garbage_embedded_program_source_is_a_friendly_error(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "bad-source.cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "cycleq.certificate-file", "version": 1,
                       "program_source": "garbage {", "certificate": {}}, handle)
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert "does not elaborate" in err and "Traceback" not in err

    def test_unparseable_program_override_is_a_friendly_error(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        bad = tmp_path / "bad.eq"
        bad.write_text("garbage {")
        capsys.readouterr()
        # The override fails to elaborate: a usage error up front, never a
        # traceback and never a spurious REJECTED verdict.
        assert main(["check", "--store", store, "--file", str(bad)]) == 2
        assert "does not elaborate" in capsys.readouterr().err

    def test_stale_program_fingerprint_entries_are_skipped_not_rejected(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        entries = []
        with open(store, encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                if entry.get("status") == "proved" and entry.get("goal", "").endswith("prop_01"):
                    entry["program"] = "0" * 64  # predates the current program
                entries.append(entry)
        with open(store, "w", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry) + "\n")
        capsys.readouterr()
        assert main(["check", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "skipped (stale program)" in out and "0 rejected" in out
        # Strict mode refuses to call an unverified store green.
        assert main(["check", "--store", store, "--require-certificates"]) == 1

    def test_check_unknown_suite_filter_is_a_usage_error(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        capsys.readouterr()
        assert main(["check", "--store", store, "--suite", "isaplaner",
                     "--require-certificates"]) == 2
        assert "no entries for suite" in capsys.readouterr().err

    def test_explicit_suite_beats_embedded_program_source(self, tmp_path, capsys):
        proof_dir = str(tmp_path / "certs")
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_11",
                     "--proof-dir", proof_dir]) == 0
        path = os.path.join(proof_dir, "prop_11.cert.json")
        capsys.readouterr()
        # Checked against the *mutual* program as requested — the embedded
        # isaplanner source must not silently win — so the fingerprint differs.
        assert main(["check", path, "--suite", "mutual"]) == 1
        assert "different program" in capsys.readouterr().out

    def test_check_files_with_unknown_suite_is_a_usage_error(self, tmp_path, capsys):
        proof_dir = str(tmp_path / "certs")
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_11",
                     "--proof-dir", proof_dir]) == 0
        capsys.readouterr()
        # A typo'd suite must not fall back to the file's embedded source.
        assert main(["check", os.path.join(proof_dir, "prop_11.cert.json"),
                     "--suite", "isaplaner"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_check_files_print_the_vouching_fingerprint(self, tmp_path, capsys):
        proof_dir = str(tmp_path / "certs")
        assert main(["solve", "--suite", "isaplanner", "--goal", "prop_11",
                     "--proof-dir", proof_dir]) == 0
        capsys.readouterr()
        assert main(["check", os.path.join(proof_dir, "prop_11.cert.json")]) == 0
        assert "fingerprint" in capsys.readouterr().out

    def test_certificate_claiming_a_different_equation_is_rejected(self, tmp_path, capsys):
        """A file whose root proves x ≈ x must not verify under prop_54's name."""
        import json

        from repro.benchmarks_data import isaplanner_problems
        from repro.core.terms import Var
        from repro.core.types import DataTy
        from repro.core.equations import Equation
        from repro.proofs.certificate import encode
        from repro.proofs.preproof import RULE_REFL, Preproof

        problem = next(p for p in isaplanner_problems() if p.name == "prop_54")
        proof = Preproof()
        x = Var("x", DataTy("Nat"))
        proof.add_node(Equation(x, x), rule=RULE_REFL)
        cert = encode(proof, program_fingerprint=problem.program.fingerprint(),
                      goal_name="prop_54").to_dict()
        cert["goal"] = "prop_54"
        cert["equation"] = str(problem.goal.equation)  # forged provenance
        path = str(tmp_path / "forged.cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "cycleq.certificate-file", "version": 1,
                       "program_source": problem.program.source,
                       "certificate": cert}, handle)
        assert main(["check", path]) == 1
        assert "REJECTED" in capsys.readouterr().out
        # Scrubbing the equation provenance must not bypass the binding...
        cert["equation"] = ""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "cycleq.certificate-file", "version": 1,
                       "program_source": problem.program.source,
                       "certificate": cert}, handle)
        assert main(["check", path]) == 1
        assert "does not state the equation" in capsys.readouterr().out
        # ...and neither must smuggling the certificate as JSON text.
        cert["equation"] = str(problem.goal.equation)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "cycleq.certificate-file", "version": 1,
                       "program_source": problem.program.source,
                       "certificate": json.dumps(cert)}, handle)
        assert main(["check", path]) == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_wrong_file_override_on_store_is_a_usage_error(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert self._bench(store) == 0
        other = tmp_path / "other.eq"
        other.write_text(
            "data Nat = Z | S Nat\n"
            "add :: Nat -> Nat -> Nat\n"
            "add Z y = y\n"
            "add (S x) y = S (add x y)\n"
        )
        capsys.readouterr()
        assert main(["check", "--store", store, "--file", str(other)]) == 2
        assert "match the program" in capsys.readouterr().err

    def test_unsupported_certificate_file_format_is_an_error(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "future.cert.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"format": "cycleq.certificate-file", "version": 99,
                       "certificate": {}}, handle)
        assert main(["check", path]) == 2
        assert "unsupported certificate-file format" in capsys.readouterr().err


class TestStoreMaintenance:
    def test_store_compact_dedups_superseded_lines(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store.jsonl")
        args = ["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                "--names", "prop_01,prop_11", "--store", store]
        assert main(args) == 0
        # Duplicate every line to simulate superseded appends.
        with open(store, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(store, "a", encoding="utf-8") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        assert main(["store", "compact", "--store", store]) == 0
        assert "compacted" in capsys.readouterr().out
        with open(store, encoding="utf-8") as handle:
            remaining = [json.loads(line) for line in handle if line.strip()]
        assert len(remaining) == len(lines)

    def test_store_compact_missing_path_is_a_friendly_error(self, tmp_path, capsys):
        assert main(["store", "compact", "--store", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err


class TestReport:
    def test_report_renders_store(self, tmp_path, capsys):
        store = str(tmp_path / "store.jsonl")
        assert main(["bench", "--suite", "isaplanner", "--jobs", "2", "--timeout", "1",
                     "--names", "prop_01,prop_06", "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "isaplanner" in out and "solved" in out

    def test_report_missing_store_is_an_error(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_report_malformed_store_is_a_friendly_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\x00" * 16)
        assert main(["report", "--store", str(path)]) == 2
        err = capsys.readouterr().err
        assert "report:" in err and "Traceback" not in err

    def test_report_store_path_that_is_a_directory_is_a_friendly_error(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path)]) == 2
        assert "cannot read store" in capsys.readouterr().err

    def test_report_degrades_gracefully_on_pre_profiler_store_lines(self, tmp_path, capsys):
        """Old-shape lines (no phase_seconds/phase_counts/hot_symbols) must
        render as absent data, never KeyError."""
        import json

        store = str(tmp_path / "store.jsonl")
        assert main(["bench", "--suite", "isaplanner", "--timeout", "1",
                     "--names", "prop_01,prop_06", "--store", store]) == 0
        capsys.readouterr()
        with open(store, encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        with open(store, "w", encoding="utf-8") as handle:
            for entry in entries:
                for field in ("phase_seconds", "phase_counts", "hot_symbols"):
                    entry.pop(field, None)
                handle.write(json.dumps(entry) + "\n")
        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "isaplanner" in out and "KeyError" not in out


class TestProfile:
    def test_profile_prints_ranked_phase_breakdown(self, capsys):
        assert main(["profile", "--suite", "isaplanner", "--limit", "2",
                     "--timeout", "1"]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        assert "soundness" in out or "normalise" in out

    def test_profile_cprofile_escape_hatch(self, capsys):
        assert main(["profile", "--suite", "isaplanner", "--limit", "1",
                     "--timeout", "1", "--cprofile", "5"]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # pstats header

    def test_profile_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--suite", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_python_dash_m_entry_point():
    """``python -m repro`` resolves through __main__.py in a fresh process."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    process = subprocess.run(
        [sys.executable, "-m", "repro", "solve", "--suite", "isaplanner", "--goal", "prop_11"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert "proved" in process.stdout


class TestDisprove:
    def test_disprove_false_conjectures_all_refuted(self, capsys):
        assert main(["disprove", "--suite", "false_conjectures", "--replay"]) == 0
        out = capsys.readouterr().out
        assert "disproved 12/12" in out

    def test_disprove_true_goal_exits_one(self, capsys):
        assert main(["disprove", "--suite", "isaplanner", "--goal", "prop_01"]) == 1
        out = capsys.readouterr().out
        assert "no counterexample" in out
        assert "disproved 0/1" in out

    def test_disprove_unknown_goal_is_a_usage_error(self, capsys):
        assert main(["disprove", "--suite", "false_conjectures", "--goal", "nope"]) == 2
        assert "unknown goal" in capsys.readouterr().err

    def test_disprove_conditional_goal_with_premises(self, capsys):
        assert main(["disprove", "--suite", "false_conjectures", "--goal", "fc_12"]) == 0
        assert "disproved 1/1" in capsys.readouterr().out

    def test_disprove_program_file(self, tmp_path, capsys):
        path = tmp_path / "prog.cq"
        path.write_text(
            "data Nat = Z | S Nat\n"
            "add :: Nat -> Nat -> Nat\n"
            "add Z y = y\n"
            "add (S x) y = S (add x y)\n"
            "bogus x y = add x y === x\n"
        )
        assert main(["disprove", "--file", str(path)]) == 0
        assert "disproved 1/1" in capsys.readouterr().out

    def test_disprove_seed_and_budget_flags(self, capsys):
        code = main(["disprove", "--suite", "false_conjectures", "--goal", "fc_02",
                     "--depth", "3", "--samples", "20", "--seed", "99"])
        assert code == 0


class TestFalsifyFlag:
    def test_solve_falsify_reports_disproved_with_counterexample(self, capsys):
        assert main(["solve", "--suite", "false_conjectures", "--goal", "fc_02",
                     "--falsify"]) == 0
        out = capsys.readouterr().out
        assert "disproved" in out and "counterexample" in out
        assert "cycleq.counterexample" in out

    def test_solve_without_falsify_still_fails_false_goals(self, capsys):
        assert main(["solve", "--suite", "false_conjectures", "--goal", "fc_02",
                     "--timeout", "0.5"]) == 1

    def test_bench_serial_falsify_prints_counterexample_table(self, capsys):
        assert main(["bench", "--suite", "false_conjectures", "--serial",
                     "--names", "fc_02,fc_10", "--falsify", "--timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "counterexamples:" in out
        assert "fc_02" in out and "fc_10" in out

    def test_bench_parallel_falsify_with_store_replays_counterexamples(self, tmp_path, capsys):
        store = str(tmp_path / "fc.jsonl")
        args = ["bench", "--suite", "false_conjectures", "--jobs", "2",
                "--timeout", "2", "--names", "fc_02,fc_10,fc_12", "--falsify",
                "--store", store]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "replayed from store: 0/3" in cold
        before = open(store).read()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "replayed from store: 3/3" in warm
        assert "counterexamples:" in warm
        # byte-for-byte: the warm run appends nothing, the witnesses round-trip
        assert open(store).read() == before

    def test_report_renders_counterexamples_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "fc.jsonl")
        assert main(["bench", "--suite", "false_conjectures", "--jobs", "2",
                     "--timeout", "2", "--names", "fc_02", "--falsify",
                     "--store", store]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "disproved" in out and "counterexamples:" in out

    def test_disprove_race_portfolio_preset(self, capsys):
        assert main(["bench", "--suite", "false_conjectures", "--jobs", "2",
                     "--timeout", "2", "--names", "fc_02", "--portfolio",
                     "disprove-race"]) == 0
        out = capsys.readouterr().out
        assert "disproved" in out
