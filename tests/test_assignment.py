import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seldeval.assignment import (
    Assignment,
    DistanceMatrix,
    assign_batch,
    build_distance_matrix,
    hungarian,
    within_threshold,
)
from seldeval.geometry import Direction


def brute_force_min_cost(values, m, n):
    """Exhaustive minimum over all maximal matchings; the independent oracle."""
    if m == 0 or n == 0:
        return 0.0
    if m <= n:
        return min(
            sum(values[i][perm[i]] for i in range(m))
            for perm in itertools.permutations(range(n), m)
        )
    return min(
        sum(values[perm[j]][j] for j in range(n))
        for perm in itertools.permutations(range(m), n)
    )


def random_matrix(rng, m, n):
    return tuple(tuple(rng.uniform(0.0, 180.0) for _ in range(n)) for _ in range(m))


class TestDistanceMatrix:
    def test_empty_prediction_side(self):
        d = build_distance_matrix([], [Direction(0, 0)])
        assert d.rows == 0 and d.cols == 1

    def test_single_identical_pair(self):
        d = build_distance_matrix([Direction(5, 5)], [Direction(5, 5)])
        assert d.values == ((0.0,),)

    def test_equator_distances_are_azimuth_differences(self):
        d = build_distance_matrix(
            [Direction(0, 0), Direction(90, 0)],
            [Direction(10, 0), Direction(100, 0)],
        )
        expect = ((10.0, 100.0), (80.0, 10.0))
        for i in range(2):
            for j in range(2):
                assert d.values[i][j] == pytest.approx(expect[i][j], abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DistanceMatrix(values=((181.0,),))
        with pytest.raises(ValueError):
            DistanceMatrix(values=((float("nan"),),))


class TestHungarian:
    def test_single_cell(self):
        assert hungarian(DistanceMatrix(values=((0.0,),))).pairs == ((0, 0),)

    def test_two_by_two_prefers_cheaper_permutation(self):
        d = DistanceMatrix(values=((1.0, 2.0), (2.0, 1.0)))
        a = hungarian(d)
        assert a.pairs == ((0, 0), (1, 1))
        assert a.cost(d) == 2.0

    def test_single_row_minimum(self):
        assert hungarian(DistanceMatrix(values=((5.0, 3.0),))).pairs == ((0, 1),)

    def test_empty(self):
        a = hungarian(build_distance_matrix([], []))
        assert a.pairs == () and a.k == 0

    def test_lexicographic_tie_break(self):
        # all-equal costs: identity pairing is the lexicographically
        # smallest optimum
        for size in (2, 3, 4, 5):
            values = tuple(tuple(7.0 for _ in range(size)) for _ in range(size))
            got = hungarian(DistanceMatrix(values=values)).pairs
            assert got == tuple((i, i) for i in range(size))
        assert hungarian(DistanceMatrix(values=((5.0,), (5.0,), (5.0,)))).pairs == ((0, 0),)
        assert hungarian(DistanceMatrix(values=((4.0, 4.0, 4.0),))).pairs == ((0, 0),)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            values = random_matrix(rng, m, n)
            d = DistanceMatrix(values=values if m else ())
            a = hungarian(d)
            assert a.k == min(m, n)
            assert len({i for i, _ in a.pairs}) == a.k
            assert len({j for _, j in a.pairs}) == a.k
            assert a.cost(d) == pytest.approx(brute_force_min_cost(values, m, n), abs=1e-12)

    def test_cost_invariant_under_permutation(self):
        rng = random.Random(11)
        for _ in range(50):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            values = random_matrix(rng, m, n)
            base = hungarian(DistanceMatrix(values=values)).cost(DistanceMatrix(values=values))
            rows = list(range(m))
            cols = list(range(n))
            rng.shuffle(rows)
            rng.shuffle(cols)
            perm = tuple(tuple(values[i][j] for j in cols) for i in rows)
            d2 = DistanceMatrix(values=perm)
            assert hungarian(d2).cost(d2) == pytest.approx(base, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_cost_matches_scipy_past_brute_force(self, seed):
        # 7 x 7 to 12 x 12 and rectangular shapes with a side of 7 or more,
        # beyond test_matches_brute_force; cost only, scipy breaks ties its own way
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(seed)
        blocks = []
        for _ in range(rng.randint(1, 4)):
            big, other = rng.randint(7, 12), rng.choice([rng.randint(2, 12), rng.randint(7, 12)])
            m, n = (big, other) if rng.random() < 0.5 else (other, big)
            blocks.append(tuple(tuple(rng.choice([rng.uniform(0, 180), 10.0 * rng.randint(0, 18)])
                                      for _ in range(n)) for _ in range(m)))
            # and a small block, which assign_batch enumerates, in the same batch
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            blocks.append(tuple(tuple(rng.uniform(0, 180) for _ in range(n)) for _ in range(m)))
        shapes = np.array([(len(b), len(b[0])) for b in blocks])
        group, _, _, dist = assign_batch(np.array([v for b in blocks for r in b for v in r]),
                                         shapes[:, 0], shapes[:, 1])
        for g, values in enumerate(blocks):
            arr = np.array(values)
            rows, cols = linear_sum_assignment(arr)
            want = float(arr[rows, cols].sum())
            d = DistanceMatrix(values=values)
            assert hungarian(d).cost(d) == pytest.approx(want, abs=1e-9)
            assert float(dist[group == g].sum()) == pytest.approx(want, abs=1e-9)

    def test_deterministic_across_calls(self):
        rng = random.Random(3)
        values = random_matrix(rng, 5, 4)
        d = DistanceMatrix(values=values)
        assert hungarian(d).pairs == hungarian(d).pairs


class TestThresholdMask:
    """Inclusive threshold masks over a distance matrix, built with
    `within_threshold` as the pipeline applies it."""

    @staticmethod
    def mask(d, theta):
        return tuple(tuple(within_threshold(v, theta) for v in row) for row in d.values)

    def test_maximal_threshold_all_true(self):
        d = DistanceMatrix(values=((10.0, 170.0), (45.0, 180.0)))
        assert all(all(row) for row in self.mask(d, 180.0))

    def test_boundary_inclusive(self):
        d = DistanceMatrix(values=((10.0, 100.0), (80.0, 10.0)))
        assert self.mask(d, 10.0) == ((True, False), (False, True))

    def test_strictly_above_boundary_excluded(self):
        assert self.mask(DistanceMatrix(values=((10.0001,),)), 10.0) == ((False,),)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_monotone_in_theta(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        d = DistanceMatrix(values=random_matrix(rng, m, n))
        theta = rng.uniform(0, 90)
        small = self.mask(d, theta)
        large = self.mask(d, theta + rng.uniform(0, 90))
        for i in range(m):
            for j in range(n):
                assert not small[i][j] or large[i][j]

    def test_k_theta_non_decreasing_for_fixed_assignment(self):
        rng = random.Random(99)
        d = DistanceMatrix(values=random_matrix(rng, 4, 4))
        a = hungarian(d)
        counts = [sum(within_threshold(d.values[i][j], t) for i, j in a.pairs)
                  for t in (0, 20, 60, 120, 180)]
        assert counts == sorted(counts)
        assert counts[-1] == a.k
