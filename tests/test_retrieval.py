"""Exact nearest-neighbor search checked against a naive full scan."""
import numpy as np
import pytest
from conftest import knn_brute_force

from negmine.kb import Phrase
from negmine.retrieval import build_index, knn


def phrases(n):
    return [Phrase.parse(f"p{i}") for i in range(n)]


def fixed_embed(table):
    return lambda p: np.asarray(table[p], dtype=np.float64)


class TestBuildIndex:
    def test_singleton(self):
        (p,) = phrases(1)
        index = build_index([p], fixed_embed({p: [1.0, 2.0]}))
        assert len(index) == 1
        np.testing.assert_array_equal(index.matrix, [[1.0, 2.0]])

    def test_hand_norms(self):
        p1, p2, p3 = phrases(3)
        table = {p1: [0.0], p2: [1.0], p3: [5.0]}
        index = build_index([p1, p2, p3], fixed_embed(table))
        np.testing.assert_array_equal(index.norms, [0.0, 1.0, 25.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_index([], lambda p: np.zeros(2))

    def test_duplicates_rejected(self):
        p = Phrase.parse("dup")
        with pytest.raises(ValueError, match="duplicate"):
            build_index([p, p], lambda q: np.zeros(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
    def test_non_finite_embedding_or_norm_rejected(self, value):
        p1, p2 = phrases(2)
        table = {p1: [0.0, 1.0], p2: [value, 0.0]}
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            build_index([p1, p2], fixed_embed(table))

    def test_deterministic(self):
        ps = phrases(5)
        rng = np.random.default_rng(0)
        table = {p: rng.normal(size=4) for p in ps}
        a = build_index(ps, fixed_embed(table))
        b = build_index(ps, fixed_embed(table))
        np.testing.assert_array_equal(a.matrix, b.matrix)
        assert a.phrases == b.phrases


class TestKnn:
    def _line_index(self):
        p1, p2, p3 = phrases(3)
        return (p1, p2, p3), build_index(
            [p1, p2, p3], fixed_embed({p1: [0.0], p2: [1.0], p3: [5.0]})
        )

    def test_k_zero_empty(self):
        (p1, _, _), index = self._line_index()
        assert knn(index, p1, 0) == []

    def test_hand_one_dimensional(self):
        (p1, p2, _), index = self._line_index()
        assert knn(index, p1, 1) == [(p2, 1.0)]

    def test_self_excluded_and_truncated(self):
        (p1, p2, p3), index = self._line_index()
        result = knn(index, p1, 10)
        assert [p for p, _ in result] == [p2, p3]
        assert all(p != p1 for p, _ in result)

    def test_distances_non_decreasing(self):
        ps = phrases(50)
        rng = np.random.default_rng(1)
        table = {p: rng.normal(size=6) for p in ps}
        index = build_index(ps, fixed_embed(table))
        for q in ps[:10]:
            dists = [d for _, d in knn(index, q, 20)]
            assert dists == sorted(dists)

    def test_ties_break_by_insertion_order(self):
        p1, p2, p3, p4 = phrases(4)
        # p2 and p3 equidistant from p1; p3 was inserted before p2.
        table = {p1: [0.0, 0.0], p3: [1.0, 0.0], p2: [-1.0, 0.0], p4: [3.0, 0.0]}
        index = build_index([p1, p3, p2, p4], fixed_embed(table))
        result = knn(index, p1, 2)
        assert [p for p, _ in result] == [p3, p2]

    def test_overflowing_distance_rejected(self):
        # Both squared norms are finite, but 2 * (matrix @ q) overflows.
        p1, p2 = phrases(2)
        index = build_index([p1, p2], fixed_embed({p1: [1.2e154], p2: [-1.2e154]}))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            knn(index, p1, 1)

    def test_negative_k_rejected(self):
        (p1, _, _), index = self._line_index()
        with pytest.raises(ValueError):
            knn(index, p1, -1)

    def test_unindexed_query_rejected(self):
        (_, _, _), index = self._line_index()
        with pytest.raises(ValueError, match="not in index"):
            knn(index, Phrase.parse("stranger"), 1)

    def test_matches_brute_force_oracle(self):
        ps = phrases(200)
        rng = np.random.default_rng(7)
        table = {p: rng.normal(size=8) for p in ps}
        index = build_index(ps, fixed_embed(table))
        for q in [ps[i] for i in rng.integers(0, len(ps), size=25)]:
            fast = knn(index, q, 10)
            slow = knn_brute_force(index, q, 10)
            assert [p for p, _ in fast] == [p for p, _ in slow]
            np.testing.assert_allclose(
                [d for _, d in fast], [d for _, d in slow], rtol=1e-9, atol=1e-12
            )
