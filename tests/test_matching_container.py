"""Tests for the Matching / MatchingResult containers."""

from __future__ import annotations

import pytest

from repro.matching import UNMATCHABLE, UNMATCHED, Matching, MatchingResult


def test_empty_matching(tiny_graph):
    m = Matching.empty(tiny_graph)
    assert m.cardinality == 0
    assert len(m.unmatched_rows()) == 4
    assert len(m.unmatched_columns()) == 4


def test_from_pairs(tiny_graph):
    m = Matching.from_pairs(tiny_graph, [(0, 0), (2, 1)])
    assert m.cardinality == 2
    assert m.row_match[0] == 0
    assert m.col_match[1] == 2
    assert set(m.pairs()) == {(0, 0), (2, 1)}


def test_from_pairs_conflict(tiny_graph):
    with pytest.raises(ValueError):
        Matching.from_pairs(tiny_graph, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        Matching.from_pairs(tiny_graph, [(0, 0), (1, 0)])


def test_from_pairs_rejects_out_of_range_indices(tiny_graph):
    # Regression: numpy indexing silently wraps negative indices, so (-1, 0)
    # used to corrupt the *last* row instead of raising.
    with pytest.raises(ValueError, match=r"row index -1 out of range"):
        Matching.from_pairs(tiny_graph, [(-1, 0)])
    with pytest.raises(ValueError, match=r"column index -2 out of range"):
        Matching.from_pairs(tiny_graph, [(0, -2)])
    with pytest.raises(ValueError, match=r"row index 4 out of range"):
        Matching.from_pairs(tiny_graph, [(4, 0)])
    with pytest.raises(ValueError, match=r"column index 7 out of range"):
        Matching.from_pairs(tiny_graph, [(0, 7)])


def test_from_pairs_enforce_edges(tiny_graph):
    # (1, 2) is not an edge of the tiny fixture; (1, 0) is.
    assert Matching.from_pairs(tiny_graph, [(1, 0)], enforce_edges=True).cardinality == 1
    with pytest.raises(ValueError, match=r"\(1, 2\) is not an edge"):
        Matching.from_pairs(tiny_graph, [(1, 2)], enforce_edges=True)


def test_check_compatible_accepts_own_graph(tiny_graph):
    Matching.empty(tiny_graph).check_compatible(tiny_graph)  # no raise


def test_check_compatible_rejects_wrong_lengths(tiny_graph, perfect_graph):
    with pytest.raises(ValueError, match="different graph"):
        Matching.empty(perfect_graph).check_compatible(tiny_graph)


def test_check_compatible_rejects_out_of_range_entries(tiny_graph):
    m = Matching.empty(tiny_graph)
    m.row_match[0] = 9
    with pytest.raises(ValueError, match="outside .* column range"):
        m.check_compatible(tiny_graph)
    m = Matching.empty(tiny_graph)
    m.col_match[1] = 12
    with pytest.raises(ValueError, match="outside .* row range"):
        m.check_compatible(tiny_graph)


def test_canonical_resolves_inconsistencies(tiny_graph):
    m = Matching.empty(tiny_graph)
    # Row 0 matched to column 1, but column 0 *thinks* it is matched to row 0
    # (the inconsistency the GPU kernels leave behind) and column 2 is marked
    # unmatchable.
    m.row_match[0] = 1
    m.col_match[1] = 0
    m.col_match[0] = 0
    m.col_match[2] = UNMATCHABLE
    fixed = m.canonical()
    assert fixed.cardinality == 1
    assert fixed.col_match[0] == UNMATCHED
    assert fixed.col_match[2] == UNMATCHED
    assert fixed.col_match[1] == 0


def test_matched_columns_ignores_stale_pointers(tiny_graph):
    m = Matching.empty(tiny_graph)
    m.row_match[1] = 0
    m.col_match[0] = 1
    m.col_match[3] = 2  # stale: row 2 does not point back
    assert list(m.matched_columns()) == [0]
    assert 3 in m.unmatched_columns()


def test_deficiency(tiny_graph):
    m = Matching.from_pairs(tiny_graph, [(0, 0)])
    assert m.deficiency(3) == 2


def test_copy_is_deep(tiny_graph):
    m = Matching.from_pairs(tiny_graph, [(0, 0)])
    c = m.copy()
    c.row_match[0] = UNMATCHED
    assert m.row_match[0] == 0


def test_equality(tiny_graph):
    a = Matching.from_pairs(tiny_graph, [(0, 0)])
    b = Matching.from_pairs(tiny_graph, [(0, 0)])
    c = Matching.from_pairs(tiny_graph, [(0, 1)])
    assert a == b
    assert a != c
    assert a != "not a matching"


def test_matching_result_create(tiny_graph):
    m = Matching.from_pairs(tiny_graph, [(0, 0), (2, 2)])
    result = MatchingResult.create(
        "test", m, counters={"pushes": 3}, modeled_time=1, wall_time=0.5
    )
    assert result.algorithm == "test"
    assert result.cardinality == 2
    assert result.counters == {"pushes": 3}
    assert result.wall_time == 0.5
    assert result.modeled_time == 1.0 and isinstance(result.modeled_time, float)
    with pytest.raises(TypeError):
        MatchingResult.create("test", m, counters={"pushes": 3})
    with pytest.raises(TypeError):
        MatchingResult.create("test", m, modeled_time=None)
