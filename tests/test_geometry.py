import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seldeval.errors import DegenerateMean, InvalidDirection, SeldEvalError
from seldeval.geometry import (
    Direction,
    angular_distance,
    mean_unit_vectors,
    spherical_mean,
)

directions = st.builds(
    Direction,
    st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False),
    st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
)


class TestDirection:
    def test_azimuth_normalized_into_range(self):
        assert Direction(180.0, 0.0).azimuth == -180.0
        assert Direction(540.0, 0.0).azimuth == -180.0
        assert Direction(-190.0, 0.0).azimuth == 170.0
        assert Direction(0.0, 0.0).azimuth == 0.0

    def test_elevation_out_of_range_rejected_not_clamped(self):
        with pytest.raises(ValueError):
            Direction(0.0, 90.0001)
        with pytest.raises(ValueError):
            Direction(0.0, -91.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Direction(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, float("inf"))

    @pytest.mark.parametrize("make", [
        lambda: Direction(0.0, 91.0),
        lambda: Direction(float("nan"), 0.0),
        lambda: Direction.from_unit_vector(0.0, 0.0, 0.0),
    ])
    def test_invalid_direction_error_type(self, make):
        with pytest.raises(InvalidDirection) as info:
            make()
        assert isinstance(info.value, SeldEvalError) and isinstance(info.value, ValueError)

    @given(directions)
    @settings(max_examples=200)
    def test_unit_vector_round_trip(self, d):
        back = Direction.from_unit_vector(*d.unit)
        if 90.0 - abs(d.elevation) < 1e-9:
            assert back.azimuth == 0.0
        else:
            assert abs(back.azimuth - d.azimuth) < 1e-9
        assert abs(back.elevation - d.elevation) < 1e-9

    def test_pole_azimuth_canonicalized(self):
        pole = Direction(123.0, 90.0)
        assert Direction.from_unit_vector(*pole.unit).azimuth == 0.0

    @given(directions)
    @settings(max_examples=100)
    def test_unit_norm_within_1e12(self, d):
        assert abs(math.sqrt(sum(c * c for c in d.unit)) - 1.0) < 1e-12


class TestAngularDistance:
    def test_identity(self):
        assert angular_distance(Direction(0, 0), Direction(0, 0)) == 0.0

    def test_antipodal(self):
        assert angular_distance(Direction(0, 0), Direction(180, 0)) == pytest.approx(180.0, abs=1e-9)

    def test_pinned_value(self):
        # arccos(sin 40 sin 20 + cos 40 cos 20 cos 30) evaluated at 40-digit
        # precision before the implementation existed.
        got = angular_distance(Direction(30, 40), Direction(60, 20))
        assert got == pytest.approx(32.51492007556037, abs=1e-6)

    @given(directions, directions)
    @settings(max_examples=300)
    def test_symmetry_exact(self, a, b):
        assert angular_distance(a, b) == angular_distance(b, a)

    @given(directions, directions, directions)
    @example(Direction(-82, 0), Direction(0, 1e-06), Direction(1e-06, 1e-06))
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        assert angular_distance(a, c) <= angular_distance(a, b) + angular_distance(b, c) + 1e-6

    @given(directions, directions)
    @settings(max_examples=300)
    def test_range(self, a, b):
        d = angular_distance(a, b)
        assert 0.0 <= d <= 180.0

    def test_zero_iff_equal_unit_vectors(self):
        a = Direction(33.0, -12.0)
        assert angular_distance(a, Direction(33.0, -12.0)) == 0.0
        # separation above the arccos resolution limit (~1e-6 deg)
        assert angular_distance(a, Direction(33.0, -12.0001)) > 0.0

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    def test_tiny_and_near_antipodal_angles_exact(self, delta):
        # below the arccos resolution limit, on both sides of the sphere
        assert angular_distance(Direction(0, 0), Direction(0, delta)) == pytest.approx(delta, rel=1e-6)
        assert angular_distance(Direction(0, 0), Direction(180, delta)) == pytest.approx(
            180.0 - delta, abs=1e-12)

    @given(
        st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False),
        st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_equator_equals_wrapped_azimuth_difference(self, az1, az2):
        d = angular_distance(Direction(az1, 0.0), Direction(az2, 0.0))
        diff = abs(az1 - az2) % 360.0
        if diff > 180.0:
            diff = 360.0 - diff
        assert d == pytest.approx(diff, abs=1e-6)


class TestSphericalMean:
    def test_singleton(self):
        mean = spherical_mean([Direction(10, 0)])
        assert mean.azimuth == pytest.approx(10.0, abs=1e-9)
        assert mean.elevation == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_equator_pair(self):
        mean = spherical_mean([Direction(10, 0), Direction(30, 0)])
        assert mean.azimuth == pytest.approx(20.0, abs=1e-9)
        assert mean.elevation == pytest.approx(0.0, abs=1e-9)

    def test_antipodal_pair_degenerate(self):
        with pytest.raises(DegenerateMean):
            spherical_mean([Direction(0, 0), Direction(180, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spherical_mean([])

    @given(
        st.lists(directions, min_size=1, max_size=6),
        st.floats(min_value=-179.0, max_value=179.0, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_rotation_equivariance(self, dirs, shift):
        try:
            mean = spherical_mean(dirs)
        except DegenerateMean:
            return
        rotated = [Direction(d.azimuth + shift, d.elevation) for d in dirs]
        try:
            rotated_mean = spherical_mean(rotated)
        except DegenerateMean:
            return
        expected = Direction(mean.azimuth + shift, mean.elevation)
        # tolerance floor: arccos of a float dot product resolves ~1e-6 deg
        assert angular_distance(rotated_mean, expected) < 5e-6


signed_zero = st.sampled_from([0.0, -0.0])
component = signed_zero | st.floats(-3.0, 3.0)
near_pole = st.builds(  # within ~1e-9 deg of a pole: |x|, |y| up to 3e-11 |z|
    lambda z, a, b: (z * a, z * b, z),
    st.floats(0.5, 3.0) | st.floats(-3.0, -0.5),
    signed_zero | st.floats(-3e-11, 3e-11), signed_zero | st.floats(-3e-11, 3e-11))
tiny = st.builds(  # a norm at or just above 1e-9
    lambda d, norm: tuple(norm * u for u in d.unit),
    directions, st.sampled_from([1e-9, math.nextafter(1e-9, 1.0)]) | st.floats(1e-9, 1.2e-9))
sums = st.tuples(component, component, component) | near_pole | tiny


class TestMeanUnitVectors:
    @given(st.lists(sums, min_size=1, max_size=8))
    @settings(max_examples=300)
    @example([(0.0, -0.0, 1.0), (-0.0, 0.0, -2.0), (-0.0, -0.0, 0.5), (-1.0, -0.0, 0.0),
              (-1.0, 0.0, 0.0), (0.0, 0.0, 1e-9), (0.0, 0.0, 0.0)])
    def test_equals_from_unit_vector_bit_for_bit(self, rows):
        got, degenerate = mean_unit_vectors(np.array(rows, dtype=float).reshape(-1, 3))
        for s, unit, flagged in zip(rows, got, degenerate):
            assert flagged == (math.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2]) <= 1e-9)
            if not flagged:
                want = np.array(Direction.from_unit_vector(*s).unit)
                assert (unit.view(np.int64) == want.view(np.int64)).all(), s

    @given(st.lists(st.lists(directions, min_size=1, max_size=4), min_size=1, max_size=6),
           st.data())
    @settings(max_examples=200)
    def test_flags_the_pools_spherical_mean_refuses(self, pools, data):
        # an antipode added to some pools makes their sums cancel
        pools = [pool + [Direction(d.azimuth + 180.0, -d.elevation) for d in pool]
                 if data.draw(st.booleans()) else pool for pool in pools]
        rows = []
        for pool in pools:  # summed one unit after another, as spherical_mean sums them
            s = [0.0, 0.0, 0.0]
            for d in pool:
                s = [a + b for a, b in zip(s, d.unit)]
            rows.append(s)
        got, degenerate = mean_unit_vectors(np.array(rows))
        for pool, unit, flagged in zip(pools, got, degenerate):
            try:
                want = spherical_mean(pool).unit
            except DegenerateMean:
                assert flagged
                continue
            assert not flagged
            assert (unit.view(np.int64) == np.array(want).view(np.int64)).all()
