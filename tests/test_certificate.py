"""Portable proof certificates: encoding, independent checking, tampering.

Covers the whole pipeline of ``repro.proofs.certificate`` /
``repro.proofs.checker``: prover-found proofs round-trip through canonical
JSON into a fresh term bank; the independent checker (fresh elaboration of the
program source, from-scratch global condition) accepts genuine proofs and
rejects tampered or unsound ones; and certificates survive the parallel
engine, the result store, and the portfolio unchanged.
"""

import json

import pytest

from repro.benchmarks_data import isaplanner_problems, mutual_problems
from repro.core.equations import Equation
from repro.core.exceptions import CertificateError
from repro.core.interning import TermBank, use_bank
from repro.core.terms import Sym, Var, apply_term
from repro.core.types import DataTy
from repro.engine import solve_suite
from repro.harness import run_suite
from repro.proofs.certificate import (
    CERTIFICATE_VERSION,
    ProofCertificate,
    decode,
    encode,
)
from repro.proofs.checker import CertificateChecker, check_certificate
from repro.proofs.preproof import RULE_REFL, RULE_SUBST, Preproof
from repro.proofs.render import render_certificate
from repro.search.config import ProverConfig
from repro.search.prover import Prover

EMIT = ProverConfig(timeout=5.0, emit_proofs=True)


@pytest.fixture(scope="module")
def problems():
    return {p.name: p for p in isaplanner_problems()}


def _prove(problems, name, hypotheses=()):
    problem = problems[name]
    result = Prover(problem.program, EMIT).prove(
        problem.goal.equation, goal_name=name, hypotheses=hypotheses
    )
    assert result.proved, f"{name} should be provable"
    return problem, result


# ---------------------------------------------------------------------------
# Encoding and round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["prop_01", "prop_06", "prop_10", "prop_11", "prop_21"])
    def test_prover_proof_round_trips_into_a_fresh_bank(self, problems, name):
        problem, result = _prove(problems, name)
        cert = result.certificate
        assert cert is not None
        proof = result.proof
        rebuilt = decode(cert, bank=TermBank("round-trip"))
        assert len(rebuilt) == len(proof)
        assert rebuilt.root == proof.root
        for node in proof.nodes:
            twin = rebuilt.node(node.ident)
            assert twin.rule == node.rule
            assert twin.premises == node.premises
            assert twin.equation == node.equation  # structural, cross-bank
            assert twin.case_constructors == node.case_constructors
            assert twin.position == node.position
            assert twin.side == node.side
            assert twin.lemma_flipped == node.lemma_flipped
            if node.subst is None:
                assert twin.subst is None
            else:
                assert twin.subst == node.subst

    def test_round_trip_preserves_dataclass_equality(self, problems):
        # prop_01 mentions parameterised datatypes, whose type-table entries
        # nest an argument list — the shape most likely to drift between the
        # tuple (in-memory) and list (JSON) forms.
        _problem, result = _prove(problems, "prop_01")
        cert = result.certificate
        assert ProofCertificate.from_json(cert.to_json()) == cert
        assert ProofCertificate.from_dict(cert.to_dict()) == cert

    def test_canonical_json_is_stable(self, problems):
        _problem, result = _prove(problems, "prop_01")
        cert = result.certificate
        text = cert.to_json()
        again = ProofCertificate.from_json(text)
        assert again.to_json() == text
        assert again.digest() == cert.digest()
        # encoding the same proof twice is deterministic
        assert encode(result.proof, program_fingerprint=cert.program,
                      goal_name=cert.goal, equation=cert.equation).to_json() == text

    def test_shared_subterms_are_encoded_once(self, problems):
        _problem, result = _prove(problems, "prop_01")
        cert = result.certificate
        seen = set()
        for entry in cert.terms:
            assert entry not in seen or entry[0] == "v", entry
            seen.add(entry)

    def test_term_table_references_are_back_references(self, problems):
        _problem, result = _prove(problems, "prop_06")
        cert = result.certificate
        for index, entry in enumerate(cert.terms):
            if entry[0] == "a":
                assert entry[1] < index and entry[2] < index

    def test_version_and_format_are_checked(self):
        with pytest.raises(CertificateError):
            ProofCertificate.from_dict({"format": "something-else", "version": 1})
        with pytest.raises(CertificateError):
            ProofCertificate.from_dict(
                {"format": "cycleq.preproof", "version": CERTIFICATE_VERSION + 1}
            )
        with pytest.raises(CertificateError):
            ProofCertificate.from_json("{not json")

    def test_decode_rejects_forward_references(self):
        broken = {
            "format": "cycleq.preproof",
            "version": CERTIFICATE_VERSION,
            "types": [["v", "a"]],
            "terms": [["a", 0, 1], ["s", "Z"]],  # forward/self reference
            "nodes": [],
            "root": None,
        }
        with pytest.raises(CertificateError):
            decode(broken, bank=TermBank("bad"))

    def test_non_object_node_entries_are_rejected(self):
        with pytest.raises(CertificateError):
            ProofCertificate.from_dict(
                {"format": "cycleq.preproof", "version": CERTIFICATE_VERSION,
                 "nodes": ["oops"]}
            )

    def test_to_dict_shares_no_mutable_state(self, problems):
        _problem, result = _prove(problems, "prop_06")
        cert = result.certificate
        digest = cert.digest()
        exported = cert.to_dict()
        for node in exported["nodes"]:
            node["premises"] = [999]
            if "eq" in node:
                node["eq"].reverse()
        assert cert.digest() == digest  # the frozen certificate is unaffected

    def test_decode_rejects_duplicate_vertices(self):
        nat = DataTy("Nat")
        proof = Preproof()
        x = Var("x", nat)
        proof.add_node(Equation(x, x), rule=RULE_REFL)
        cert = encode(proof).to_dict()
        cert["nodes"].append(dict(cert["nodes"][0]))
        with pytest.raises(CertificateError):
            decode(cert, bank=TermBank("dup"))


# ---------------------------------------------------------------------------
# The independent checker
# ---------------------------------------------------------------------------


class TestChecker:
    @pytest.mark.parametrize("name", ["prop_01", "prop_06", "prop_11"])
    def test_real_proofs_verify_against_fresh_elaboration(self, problems, name):
        problem, result = _prove(problems, name)
        report = check_certificate(
            problem.program.source,
            result.certificate.to_json(),
            goal_equation=str(problem.goal.equation),
        )
        assert report.ok, report.issues
        assert report.locally_sound and report.globally_sound and report.closed
        assert report.nodes == len(result.proof)
        assert not report.hypotheses

    def test_mutual_suite_proofs_verify(self):
        problems = [p for p in mutual_problems() if not p.goal.is_conditional]
        source = problems[0].program.source
        checker = CertificateChecker(source, name="mutual")
        checked = 0
        for problem in problems:
            result = Prover(problem.program, EMIT).prove(
                problem.goal.equation, goal_name=problem.name
            )
            if not result.proved:
                continue
            report = checker.check(
                result.certificate, goal_equation=str(problem.goal.equation)
            )
            assert report.ok, (problem.name, report.issues)
            checked += 1
        assert checked >= 2

    def test_fingerprint_mismatch_is_rejected(self, problems):
        problem, result = _prove(problems, "prop_11")
        source = [p for p in mutual_problems()][0].program.source
        report = check_certificate(source, result.certificate)
        assert not report.ok
        assert not report.fingerprint_ok
        assert any("different program" in issue for issue in report.issues)

    def test_goal_mismatch_is_rejected(self, problems):
        problem, result = _prove(problems, "prop_11")
        report = check_certificate(
            problem.program.source,
            result.certificate,
            goal_equation="drop Z xs === Cons x xs",
        )
        assert not report.ok
        assert any("does not match" in issue for issue in report.issues)

    def test_hypotheses_must_be_granted(self, problems):
        problem = problems["prop_54"]
        hint = "add a b === add b a"
        result = Prover(problem.program, EMIT.with_(timeout=20.0)).prove(
            problem.goal.equation,
            goal_name="prop_54",
            hypotheses=(problem.program.parse_equation(hint),),
        )
        assert result.proved
        source = problem.program.source
        granted = check_certificate(source, result.certificate, hypotheses=[hint])
        assert granted.ok, granted.issues
        assert len(granted.hypotheses) == 1
        ungranted = check_certificate(source, result.certificate)
        assert not ungranted.ok
        assert any("does not grant" in issue for issue in ungranted.issues)

    def test_malformed_certificate_reports_instead_of_raising(self, problems):
        problem = problems["prop_11"]
        report = check_certificate(problem.program.source, "{broken json")
        assert not report.ok and report.issues


# ---------------------------------------------------------------------------
# Tampering: a certificate must not survive modification
# ---------------------------------------------------------------------------


class TestTampering:
    @pytest.fixture()
    def certified(self, problems):
        problem, result = _prove(problems, "prop_06")
        return problem.program.source, result.certificate.to_dict()

    def test_mutated_equation_is_rejected(self, certified):
        source, cert = certified
        # Point some justified node's conclusion at a different stored term.
        victim = next(n for n in cert["nodes"] if n["rule"] not in (None, "Refl"))
        lhs, rhs = victim["eq"]
        victim["eq"] = [rhs, lhs - 1 if lhs else lhs + 1]
        report = check_certificate(source, cert)
        assert not report.ok
        assert not report.locally_sound

    def test_dropped_premise_edge_is_rejected(self, certified):
        source, cert = certified
        victim = next(n for n in cert["nodes"] if len(n["premises"]) >= 1 and n["rule"] != "Subst")
        victim["premises"] = victim["premises"][:-1]
        report = check_certificate(source, cert)
        assert not report.ok
        assert not report.locally_sound

    def test_tampered_substitution_is_rejected(self, certified):
        source, cert = certified
        victim = next(n for n in cert["nodes"] if n["rule"] == "Subst" and n.get("subst"))
        # Rebind every substitution entry to the root equation's lhs: the
        # recorded lemma instance no longer matches the redex.
        root_lhs = cert["nodes"][0]["eq"][0]
        victim["subst"] = {name: root_lhs for name in victim["subst"]}
        report = check_certificate(source, cert)
        assert not report.ok

    def test_unsound_cycle_lacking_a_progress_point_is_rejected(self, problems):
        """Example 3.2: locally fine, but the cycle has no progressing trace.

        This is what makes the *from-scratch* global check of the checker
        essential: every vertex is a well-formed rule instance, only the
        size-change condition can reject the proof.
        """
        problem = problems["prop_01"]
        program = problem.program
        with use_bank(TermBank("ex32")):
            nat = DataTy("Nat")
            x = Var("x", nat)
            xs = Var("xs", DataTy("List", (nat,)))
            cons_x_xs = apply_term(Sym("Cons"), x, xs)
            nil = Sym("Nil")
            proof = Preproof()
            root = proof.add_node(Equation(cons_x_xs, nil))
            refl = proof.add_node(Equation(nil, nil), rule=RULE_REFL)
            root.rule = RULE_SUBST
            root.premises = [root.ident, refl.ident]
            cert = encode(proof, program_fingerprint=program.fingerprint())
        report = check_certificate(program.source, cert)
        assert report.locally_sound, report.issues
        assert not report.globally_sound
        assert not report.ok
        assert any("global condition" in issue for issue in report.issues)

    def test_dangling_premise_reports_instead_of_raising(self, certified):
        source, cert = certified
        victim = next(n for n in cert["nodes"] if n["premises"])
        victim["premises"] = [9999]
        report = check_certificate(source, cert)
        assert not report.ok
        assert any("dangling premise" in issue for issue in report.issues)

    def test_non_iterable_constructors_report_instead_of_raising(self, certified):
        source, cert = certified
        victim = next(n for n in cert["nodes"] if n["rule"] == "Case")
        victim["cons"] = 5
        report = check_certificate(source, cert)
        assert not report.ok
        victim["cons"] = ["Z"]
        victim["side"] = {"not": "a side"}
        report = check_certificate(source, cert)
        assert not report.ok

    def test_open_subgoal_is_rejected(self, certified):
        source, cert = certified
        victim = next(n for n in cert["nodes"] if n["rule"] is not None)
        victim["rule"] = None
        victim["premises"] = []
        report = check_certificate(source, cert)
        assert not report.ok
        assert not report.closed


# ---------------------------------------------------------------------------
# Certificates across the engine: workers, store, portfolio
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    @pytest.fixture()
    def slice_problems(self):
        wanted = ("prop_01", "prop_06", "prop_11", "prop_54")
        return [p for p in isaplanner_problems() if p.name in wanted]

    def test_serial_suite_attaches_certificates(self, slice_problems):
        result = run_suite(slice_problems, EMIT.with_(timeout=2.0))
        for record in result.records:
            if record.proved:
                assert record.certificate is not None
                assert record.certificate["nodes"]
            else:
                assert record.certificate is None

    def test_parallel_certificates_survive_store_replay_bit_for_bit(
        self, slice_problems, tmp_path
    ):
        config = EMIT.with_(timeout=2.0)
        path = str(tmp_path / "store.jsonl")
        cold = solve_suite(slice_problems, config, jobs=2, store=path)
        source = slice_problems[0].program.source
        checker = CertificateChecker(source, name="isaplanner")
        proved = [r for r in cold.records if r.proved]
        assert proved, "slice should prove something"
        for record in proved:
            assert record.certificate is not None, record.name
            report = checker.check(record.certificate)
            assert report.ok, (record.name, report.issues)
        # Warm replay: identical certificate bytes, no workers spawned.
        warm = solve_suite(slice_problems, config, jobs=2, store=path)
        assert warm.engine.worker_stats == {}
        for record in proved:
            twin = warm.record(record.name)
            assert twin.cached
            assert json.dumps(twin.certificate, sort_keys=True) == json.dumps(
                record.certificate, sort_keys=True
            )

    def test_portfolio_winner_keeps_its_certificate(self, slice_problems):
        from repro.engine.portfolio import default_portfolio

        result = solve_suite(
            [p for p in slice_problems if p.name == "prop_01"],
            EMIT.with_(timeout=2.0),
            jobs=2,
            variants=default_portfolio(EMIT.with_(timeout=2.0)),
        )
        record = result.record("prop_01")
        assert record.proved and record.variant
        assert record.certificate is not None
        assert record.certificate["goal"] == "prop_01"

    def test_emitting_config_has_a_distinct_fingerprint(self):
        from repro.engine.store import config_fingerprint

        base = ProverConfig(timeout=2.0)
        assert config_fingerprint(base) != config_fingerprint(base.with_(emit_proofs=True))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class TestRendering:
    def test_render_from_certificate_alone(self, problems):
        problem, result = _prove(problems, "prop_01")
        text = render_certificate(result.certificate.to_json())
        assert str(problem.goal.equation) in text
        assert "Case" in text or "Subst" in text
        dot = render_certificate(result.certificate, dot=True)
        assert dot.startswith("digraph")
