"""Tests for portfolio racing: variants, first-winner semantics, cancellation."""

import multiprocessing

import pytest

from repro.benchmarks_data import isaplanner_problems
from repro.engine import (
    PortfolioVariant,
    default_portfolio,
    select_winner,
    single_variant,
    solve_suite,
)
from repro.harness import portfolio_winner_table
from repro.search import LEMMAS_ALL, LEMMAS_NONE, ProverConfig

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


class TestPortfolioConstruction:
    def test_default_portfolio_shape(self):
        base = ProverConfig(timeout=1.0)
        variants = default_portfolio(base)
        names = [v.name for v in variants]
        assert names[0] == "paper-default"
        assert len(set(names)) == len(names)
        assert variants[0].config == base
        deep = next(v for v in variants if v.name == "deep-search")
        assert deep.config.max_depth == base.max_depth * 2
        assert all(v.config.timeout == base.timeout for v in variants)
        lemmas = next(v for v in variants if v.name == "lemmas-all")
        assert lemmas.config.lemma_restriction == LEMMAS_ALL

    def test_single_variant(self):
        config = ProverConfig()
        (variant,) = single_variant(config)
        assert variant.config is config

    def test_variants_validate_their_config(self):
        with pytest.raises(ValueError):
            PortfolioVariant("bad", ProverConfig(max_depth=0))
        with pytest.raises(ValueError):
            PortfolioVariant("", ProverConfig())

    def test_duplicate_variant_names_rejected(self):
        config = ProverConfig(timeout=1.0)
        variants = (PortfolioVariant("same", config), PortfolioVariant("same", config))
        with pytest.raises(ValueError):
            solve_suite([], config, variants=variants)


class TestSelectWinner:
    def test_first_proof_by_arrival_order(self):
        outcomes = {
            "a": {"status": "proved", "seconds": 2.0},
            "b": {"status": "proved", "seconds": 1.0},
        }
        name, outcome = select_winner(outcomes, ["a", "b"], arrival_order=["b", "a"])
        assert name == "b"

    def test_variant_order_breaks_ties_without_arrival_data(self):
        outcomes = {
            "a": {"status": "proved"},
            "b": {"status": "proved"},
        }
        name, _ = select_winner(outcomes, ["a", "b"])
        assert name == "a"

    def test_base_variant_reports_the_failure(self):
        outcomes = {
            "base": {"status": "timeout", "reason": "t"},
            "other": {"status": "failed", "reason": "f"},
        }
        name, outcome = select_winner(outcomes, ["base", "other"])
        assert name == "base"
        assert outcome["status"] == "timeout"

    def test_cancelled_attempts_never_win(self):
        outcomes = {
            "base": {"status": "cancelled"},
            "other": {"status": "failed", "reason": "f"},
        }
        name, outcome = select_winner(outcomes, ["base", "other"])
        assert name == "other"
        assert outcome["status"] == "failed"


@pytest.mark.skipif(not FORK_AVAILABLE, reason="engine tests rely on the fork start method")
class TestPortfolioRacing:
    def test_losing_base_variant_is_rescued_by_a_sibling(self):
        problems = [p for p in isaplanner_problems() if p.name == "prop_01"]
        config = ProverConfig(timeout=5.0)
        variants = (
            PortfolioVariant("no-lemmas", config.with_(lemma_restriction=LEMMAS_NONE)),
            PortfolioVariant("paper-default", config),
        )
        result = solve_suite(problems, config, jobs=2, variants=variants)
        record = result.record("prop_01")
        assert record.proved
        assert record.variant == "paper-default"

    def test_one_record_per_goal_with_racing_variants(self):
        wanted = ("prop_01", "prop_06", "prop_11")
        problems = [p for p in isaplanner_problems() if p.name in wanted]
        config = ProverConfig(timeout=5.0)
        result = solve_suite(
            problems, config, jobs=2, variants=default_portfolio(config)
        )
        assert [r.name for r in result.records] == [p.name for p in problems]
        assert all(r.proved for r in result.records)
        assert all(r.variant in {"paper-default", "deep-search", "lemmas-all"}
                   for r in result.records)

    def test_winner_table_renders(self):
        problems = [p for p in isaplanner_problems() if p.name in ("prop_01", "prop_06")]
        config = ProverConfig(timeout=5.0)
        result = solve_suite(
            problems, config, jobs=2, variants=default_portfolio(config)
        )
        table = portfolio_winner_table(result)
        assert "variant" in table and "wins" in table
