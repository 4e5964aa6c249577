"""Tests for the theory-exploration extension (the paper's stated future work)."""

import pytest

from repro.core.terms import term_size
from repro.exploration import (
    ExplorationConfig,
    TemplateConfig,
    TheoryExplorer,
    candidate_equations,
    enumerate_terms,
)
from repro.core.types import DataTy
from repro.program import check_equation
from repro.search import ProverConfig

NAT = DataTy("Nat")


class TestTemplateEnumeration:
    def test_enumerated_terms_are_well_typed(self, nat_program):
        config = TemplateConfig(max_term_size=5, symbols=("add",))
        by_type = enumerate_terms(nat_program, config)
        assert NAT in by_type
        for term in by_type[NAT]:
            assert nat_program.signature.infer_type(term) == NAT
            assert term_size(term) <= config.max_term_size

    def test_variables_and_constructors_are_seeded(self, nat_program):
        by_type = enumerate_terms(nat_program, TemplateConfig(symbols=("add",)))
        rendered = {str(t) for t in by_type[NAT]}
        assert "Z" in rendered
        assert any(name.startswith("n") for name in rendered)

    def test_candidates_are_semantically_valid(self, nat_program):
        config = TemplateConfig(max_term_size=5, symbols=("add",), max_candidates=40)
        candidates = candidate_equations(nat_program, config)
        assert candidates, "expected some candidate lemmas about add"
        for equation in candidates:
            assert check_equation(nat_program, equation, depth=3, limit=100)

    def test_candidates_include_commutativity_shaped_lemmas(self, nat_program):
        config = TemplateConfig(max_term_size=5, symbols=("add",), max_candidates=80)
        rendered = {str(e) for e in candidate_equations(nat_program, config)}
        assert any(
            text in rendered
            for text in ("add n1 n2 ≈ add n2 n1", "add n2 n1 ≈ add n1 n2")
        )

    def test_sides_share_their_variables(self, nat_program):
        config = TemplateConfig(max_term_size=5, symbols=("add",), max_candidates=60)
        for equation in candidate_equations(nat_program, config):
            lhs_vars = set(v.name for v in equation.variables() if str(equation.lhs).find(v.name) >= 0)
            assert lhs_vars  # candidates are not ground


class TestTheoryExplorer:
    @pytest.fixture(scope="class")
    def explorer(self, nat_program):
        config = ExplorationConfig(
            templates=TemplateConfig(max_term_size=5, symbols=("add",), max_candidates=60),
            lemma_timeout=0.75,
            goal_timeout=3.0,
            max_lemmas=8,
            total_budget=30.0,
        )
        return TheoryExplorer(nat_program, config, ProverConfig(timeout=0.75))

    def test_explore_builds_a_library_of_proved_lemmas(self, explorer, nat_program):
        library = explorer.explore()
        assert library
        for lemma in library:
            assert check_equation(nat_program, lemma, depth=3, limit=100)

    def test_directly_provable_goal_needs_no_lemmas(self, explorer, nat_program):
        outcome = explorer.prove(nat_program.parse_equation("add x Z === x"))
        assert outcome.proved
        assert outcome.lemmas == ()

    def test_goal_needing_a_lemma_is_recovered(self, explorer, nat_program):
        # (m + n) - n = m is IsaPlanner prop 54 in miniature: unprovable for the
        # bare prover, provable once exploration supplies commutativity-style lemmas.
        equation = nat_program.parse_equation("double x === add x x")
        outcome = explorer.prove(equation)
        assert outcome.proved
        assert outcome.lemmas_proved >= 1

    def test_conditional_goal_stays_out_of_scope(self, isaplanner):
        explorer = TheoryExplorer(isaplanner, ExplorationConfig(total_budget=1.0))
        outcome = explorer.prove_goal(isaplanner.goal("prop_05"))
        assert not outcome.proved


class TestCandidateFalsification:
    def test_refuted_candidates_are_skipped_without_a_proof_attempt(self, nat_program, monkeypatch):
        import repro.exploration.explorer as explorer_module
        from repro.exploration.explorer import ExplorationConfig, TheoryExplorer

        false_candidate = nat_program.parse_equation("add x y === x")
        true_candidate = nat_program.parse_equation("add x Z === x")
        monkeypatch.setattr(
            explorer_module,
            "candidate_equations",
            lambda program, config: [false_candidate, true_candidate],
        )
        explorer = TheoryExplorer(
            nat_program, ExplorationConfig(total_budget=10.0, lemma_timeout=1.0)
        )
        library = explorer.explore()
        assert explorer._candidates_refuted == 1
        assert false_candidate not in library
        assert true_candidate in library

    def test_filter_can_be_disabled(self, nat_program, monkeypatch):
        import repro.exploration.explorer as explorer_module
        from repro.exploration.explorer import ExplorationConfig, TheoryExplorer

        false_candidate = nat_program.parse_equation("add x y === x")
        monkeypatch.setattr(
            explorer_module, "candidate_equations", lambda program, config: [false_candidate]
        )
        explorer = TheoryExplorer(
            nat_program,
            ExplorationConfig(total_budget=5.0, lemma_timeout=0.2, falsify_candidates=False),
        )
        explorer.explore()
        assert explorer._candidates_refuted == 0

    def test_exploration_result_reports_the_refuted_counter(self, nat_program, monkeypatch):
        import repro.exploration.explorer as explorer_module
        from repro.exploration.explorer import ExplorationConfig, TheoryExplorer

        false_candidate = nat_program.parse_equation("add x y === S x")
        monkeypatch.setattr(
            explorer_module, "candidate_equations", lambda program, config: [false_candidate]
        )
        # The goal is true, so the direct attempt must fail on its node
        # budget (deterministically), not on the wall clock, for exploration
        # to run at all.
        explorer = TheoryExplorer(
            nat_program,
            ExplorationConfig(total_budget=5.0, lemma_timeout=0.2),
            prover_config=ProverConfig().with_(max_nodes=100, timeout=None),
        )
        unprovable = nat_program.parse_equation("add x y === add y (add x Z)")
        outcome = explorer.prove(unprovable)
        assert outcome.candidates_refuted == 1
