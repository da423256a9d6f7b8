"""Unit tests for the shared matcher interface layer."""

import time

import pytest

from dataclasses import fields

from repro import DAFMatcher, Graph, MatchResult, SearchStats, is_embedding
from repro.interfaces import (
    Deadline,
    MatchOptions,
    MatchRequest,
    TimeoutSignal,
    WorkerOutcome,
    validate_inputs,
)


class TestIsEmbedding:
    def test_valid(self, edge_query, triangle_data):
        assert is_embedding((0, 1), edge_query, triangle_data)

    def test_wrong_length(self, edge_query, triangle_data):
        assert not is_embedding((0,), edge_query, triangle_data)

    def test_not_injective(self, triangle_data):
        query = Graph(labels=["B", "B"], edges=[])
        assert not is_embedding((1, 1), query, triangle_data)

    def test_label_mismatch(self, edge_query, triangle_data):
        assert not is_embedding((1, 0), edge_query, triangle_data)

    def test_missing_edge(self):
        data = Graph(labels=["A", "B", "B"], edges=[(0, 1)])
        query = Graph(labels=["A", "B"], edges=[(0, 1)])
        assert not is_embedding((0, 2), query, data)


class TestDeadline:
    def test_no_deadline_never_fires(self):
        deadline = Deadline(None, check_interval=1)
        for _ in range(100):
            deadline.tick()
        assert not deadline.expired()

    def test_expired_deadline_raises_on_tick(self):
        deadline = Deadline(0.0, check_interval=1)
        time.sleep(0.01)
        with pytest.raises(TimeoutSignal):
            deadline.tick()

    def test_expired_query(self):
        assert Deadline(0.0).expired() or True  # may race; just exercise
        assert not Deadline(100.0).expired()

    def test_interval_batches_checks(self):
        deadline = Deadline(0.0, check_interval=10)
        time.sleep(0.01)
        for _ in range(9):
            deadline.tick()  # under the interval: no check yet
        with pytest.raises(TimeoutSignal):
            deadline.tick()


class TestMatchOptionsValidation:
    @pytest.mark.parametrize("bad", [-1, -0.001, float("nan")])
    def test_negative_time_limit_rejected(self, bad):
        with pytest.raises(ValueError, match="time_limit must be >= 0"):
            MatchOptions(time_limit=bad)

    def test_zero_time_limit_is_an_immediate_deadline(self, edge_query, triangle_data):
        options = MatchOptions(time_limit=0)
        result = DAFMatcher().match(MatchRequest(edge_query, triangle_data, options=options))
        assert result.count <= 2


class TestResultObjects:
    def test_stats_elapsed_is_sum(self):
        stats = SearchStats(preprocess_seconds=1.0, search_seconds=2.0)
        assert stats.elapsed_seconds == pytest.approx(3.0)

    def test_result_flags_in_repr(self):
        result = MatchResult()
        result.limit_reached = True
        assert "limit" in repr(result)
        result.timed_out = True
        assert "timeout" in repr(result)

    def test_solved_is_not_timed_out(self):
        result = MatchResult()
        assert result.solved
        result.timed_out = True
        assert not result.solved

    def test_time_breach_without_timeout_flag_still_rendered(self):
        # Regression: a budget_breach == "time" result whose timed_out flag
        # is False (e.g. the budget fired between deadline polls) used to
        # render with no flag at all, hiding the breach.
        result = MatchResult(budget_breach="time")
        assert "budget:time" in repr(result)

    def test_time_breach_with_timeout_flag_renders_once(self):
        result = MatchResult(budget_breach="time", timed_out=True)
        text = repr(result)
        assert "timeout" in text
        assert "budget:time" not in text

    def test_non_time_breach_renders_alongside_timeout(self):
        result = MatchResult(budget_breach="memory", timed_out=True)
        text = repr(result)
        assert "timeout" in text
        assert "budget:memory" in text


class TestSearchStatsMerge:
    def test_merge_covers_every_numeric_field(self):
        # Build two stats records where every numeric field has a distinct
        # nonzero value, merge, and check each field summed.  Iterating the
        # dataclass fields (rather than naming them) makes this test fail
        # loudly if a new numeric field is added without a merge rule.
        numeric = [
            f.name
            for f in fields(SearchStats)
            if f.name not in ("worker_outcomes", "metrics")
        ]
        assert numeric  # sanity: the dataclass has numeric fields
        a = SearchStats(**{name: i + 1 for i, name in enumerate(numeric)})
        b = SearchStats(**{name: 10 * (i + 1) for i, name in enumerate(numeric)})
        merged = a.merge(b)
        assert merged is a  # in-place, returns self
        for i, name in enumerate(numeric):
            assert getattr(a, name) == (i + 1) + 10 * (i + 1), name

    def test_merge_concatenates_worker_outcomes(self):
        a = SearchStats(worker_outcomes=[WorkerOutcome(0, 5, "ok")])
        b = SearchStats(worker_outcomes=[WorkerOutcome(1, 5, "crashed")])
        a.merge(b)
        assert [o.slice_index for o in a.worker_outcomes] == [0, 1]

    def test_merge_metrics_sums_counters_and_concats_lists(self):
        a = SearchStats(
            metrics={"counters": {"prune_conflict": 2}, "candidate_sizes": [1, 2]}
        )
        b = SearchStats(
            metrics={"counters": {"prune_conflict": 3}, "candidate_sizes": [9]}
        )
        a.merge(b)
        assert a.metrics["counters"]["prune_conflict"] == 5
        assert a.metrics["candidate_sizes"] == [1, 2, 9]

    def test_merge_metrics_none_on_either_side(self):
        a = SearchStats()
        a.merge(SearchStats(metrics={"counters": {"fs_cuts": 1}}))
        assert a.metrics == {"counters": {"fs_cuts": 1}}
        a.merge(SearchStats())  # other side None leaves payload alone
        assert a.metrics == {"counters": {"fs_cuts": 1}}


class TestMatcherConvenience:
    def test_count_and_exists(self, edge_query, triangle_data):
        matcher = DAFMatcher()
        assert matcher.count(edge_query, triangle_data) == 2
        assert matcher.exists(edge_query, triangle_data)

    def test_exists_overrides_limit_kwarg(self, edge_query, triangle_data):
        assert DAFMatcher().exists(edge_query, triangle_data, limit=999)

    def test_validate_inputs(self, triangle_data):
        with pytest.raises(ValueError):
            validate_inputs(Graph().freeze(), triangle_data)

    def test_matcher_repr(self):
        assert "DAF-path" in repr(DAFMatcher())
