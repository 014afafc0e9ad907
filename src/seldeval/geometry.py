"""Directions on the unit sphere and angular distances.

Conventions used throughout the package: azimuth is in degrees,
counter-clockwise positive with 0 pointing front, normalized to
[-180, 180); elevation is in degrees in [-90, 90], positive up. All
public angles are degrees; radians never appear in the API. The metric
values themselves are rotation-invariant, so the convention only matters
for interpreting input files.

`unit_vectors` and `angles_between` equal `Direction.unit` and
`angular_distance` bit for bit: numpy's +, *, % round as Python's do, and
cos, sin and acos come from `math` (`np.arccos` is 1 ulp off on ~9% of inputs).
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import DegenerateMean, InvalidDirection

# Elevation this close to +/-90 deg is treated as a pole when converting
# back from a unit vector (azimuth is then meaningless and canonicalized).
_POLE_EPS_DEG = 1e-9


class Direction:
    """A direction of arrival given as an azimuth/elevation pair.

    The Cartesian unit vector is precomputed on construction since every
    distance computation needs it.
    """

    __slots__ = ("azimuth", "elevation", "unit")

    def __init__(self, azimuth: float, elevation: float):
        azimuth = float(azimuth)
        elevation = float(elevation)
        if not (math.isfinite(azimuth) and math.isfinite(elevation)):
            raise InvalidDirection(f"direction angles must be finite, got ({azimuth}, {elevation})")
        if abs(elevation) > 90.0:
            raise InvalidDirection(f"elevation {elevation} outside [-90, 90]")
        azimuth = ((azimuth + 180.0) % 360.0) - 180.0
        if azimuth >= 180.0:  # float wrap can land exactly on 180
            azimuth -= 360.0
        self.azimuth = azimuth
        self.elevation = elevation
        az = math.radians(azimuth)
        el = math.radians(elevation)
        cos_el = math.cos(el)
        self.unit = (cos_el * math.cos(az), cos_el * math.sin(az), math.sin(el))

    @classmethod
    def from_unit_vector(cls, x: float, y: float, z: float) -> "Direction":
        """Build a Direction from a (not necessarily unit) Cartesian vector."""
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0 or not math.isfinite(norm):
            raise InvalidDirection("cannot derive a direction from a zero or non-finite vector")
        zc = z / norm
        zc = max(-1.0, min(1.0, zc))
        elevation = math.degrees(math.asin(zc))
        if 90.0 - abs(elevation) < _POLE_EPS_DEG:
            return cls(0.0, elevation)
        return cls(math.degrees(math.atan2(y, x)), elevation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Direction):
            return NotImplemented
        return self.azimuth == other.azimuth and self.elevation == other.elevation

    def __hash__(self) -> int:
        return hash((self.azimuth, self.elevation))

    def __repr__(self) -> str:
        return f"Direction({self.azimuth:g}, {self.elevation:g})"


# Beyond this |dot| the angle is within ~3e-3 deg of 0 or 180, where
# arccos loses half its digits (errors up to ~1e-6 deg); there the angle
# comes from the chord between the vectors instead.
_ACOS_DOT_LIMIT = 1.0 - 1e-9


def _angle_between_units(ua: tuple, ub: tuple) -> float:
    # Shared by angular_distance and the distance-matrix builder so both
    # produce bitwise-identical values for the same pair. Equal vectors,
    # the common case for exact predictions, short-circuit to exactly 0.
    if ua == ub:
        return 0.0
    dot = ua[0] * ub[0] + ua[1] * ub[1] + ua[2] * ub[2]
    if -_ACOS_DOT_LIMIT <= dot <= _ACOS_DOT_LIMIT:
        return math.degrees(math.acos(dot))
    # |ua - sign * ub| = 2 sin(angle / 2) for the angle to sign * ub
    sign = 1.0 if dot > 0 else -1.0
    chord = math.sqrt((ua[0] - sign * ub[0]) ** 2 + (ua[1] - sign * ub[1]) ** 2
                      + (ua[2] - sign * ub[2]) ** 2)
    angle = math.degrees(2.0 * math.asin(min(1.0, chord / 2.0)))
    return angle if dot > 0 else 180.0 - angle


def sorted_unique(x: np.ndarray) -> tuple:
    """The sorted distinct values of x, the index of each element's value
    among them (np.unique(x, return_inverse=True), without importing
    numpy.ma), and the stable order that sorts x."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(x), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse, order


def _math_map(x: np.ndarray, *fns) -> list:
    # Each fn once per distinct bit pattern of x (so -0.0 keeps its sign), sorted once.
    keys, inverse, _ = sorted_unique(np.ascontiguousarray(x, dtype=float).view(np.int64))
    keys = keys.view(float).tolist()
    return [np.array(list(map(fn, keys)), dtype=float)[inverse] for fn in fns]


def unit_vectors(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    """Rows of `Direction(az, el).unit` for arrays of valid angles."""
    az = np.mod(azimuth + 180.0, 360.0) - 180.0
    az = np.where(az >= 180.0, az - 360.0, az) * (math.pi / 180.0)  # math.radians
    el = elevation * (math.pi / 180.0)
    cos_az, sin_az = _math_map(az, math.cos, math.sin)
    cos_el, sin_el = _math_map(el, math.cos, math.sin)
    return np.stack([cos_el * cos_az, cos_el * sin_az, sin_el], axis=1)


def mean_unit_vectors(sums: np.ndarray) -> tuple:
    """Rows of `Direction.from_unit_vector(*s).unit` for rows s of vector
    sums, and a mask of the rows whose norm is <= 1e-9, of which
    `spherical_mean` takes no mean; their rows are no mean."""
    x, y, z = sums.T
    norm = np.sqrt(x * x + y * y + z * z)
    degenerate = norm <= 1e-9
    zc = np.clip(z / np.where(degenerate, 1.0, norm), -1.0, 1.0)
    el = _math_map(zc, math.asin)[0] * (180.0 / math.pi)  # math.degrees
    az = np.array(list(map(math.atan2, y.tolist(), x.tolist())), dtype=float) * (180.0 / math.pi)
    return unit_vectors(np.where(90.0 - np.abs(el) < _POLE_EPS_DEG, 0.0, az), el), degenerate


def angles_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`angular_distance` between the unit vectors of rows u[k] and v[k]."""
    dot = u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]
    out = _math_map(np.clip(dot, -1.0, 1.0), math.acos)[0] * (180.0 / math.pi)  # math.degrees
    equal = (u == v).all(axis=1)
    out[equal] = 0.0
    for k in np.flatnonzero(~equal & (np.abs(dot) > _ACOS_DOT_LIMIT)):
        out[k] = _angle_between_units(tuple(u[k].tolist()), tuple(v[k].tolist()))
    return out


def angular_distance(a: Direction, b: Direction) -> float:
    """Great-circle angle between two directions, in degrees in [0, 180].

    Computed as the arccosine of the dot product of the two unit vectors,
    or from their chord within ~3e-3 deg of 0 or 180, where arccos is
    inexact. Symmetric in its arguments.
    """
    return _angle_between_units(a.unit, b.unit)


def spherical_mean(directions: Iterable[Direction]) -> Direction:
    """Direction of the normalized sum of unit vectors.

    Raises DegenerateMean when the vector sum has norm <= 1e-9 (for
    example an exactly antipodal pair), in which case callers are expected
    to fall back to the first element and record a warning.
    """
    sx = sy = sz = 0.0
    count = 0
    for d in directions:
        ux, uy, uz = d.unit
        sx += ux
        sy += uy
        sz += uz
        count += 1
    if count == 0:
        raise ValueError("spherical_mean needs at least one direction")
    norm = math.sqrt(sx * sx + sy * sy + sz * sz)
    if norm <= 1e-9:
        raise DegenerateMean(f"unit vectors of {count} directions cancel out (norm {norm:.3e})")
    return Direction.from_unit_vector(sx, sy, sz)
