"""Minimum-cost association between predicted and reference directions.

Builds the M x N angular-distance matrix, solves the rectangular
assignment problem with a Hungarian kernel, and compares distances with
inclusive thresholds (`within_threshold`). Rectangular inputs are padded to a square matrix with a
sentinel cost strictly greater than 180 * max(M, N); sentinel pairs are
dropped from the result, so exactly min(M, N) predictions end up
associated with references.

Ties between equal-cost matchings are broken deterministically: among
cost-equal optima the pairing whose sorted (pred_index, ref_index) list
is lexicographically smallest is returned (exact whenever the tied costs
are exactly representable, which covers grid-valued fixtures; the result
is a pure function of the input either way).

`assign_batch` solves many problems at once and returns what `hungarian`
returns for each, pair for pair. It groups the problems by shape, a x b
with a <= b (an M > N block is read transposed); a 1 x 1 problem needs no
work. Each shape with a = 1, or with at most MAX_INJECTIONS injections
b! / (b - a)! of rows into columns, has a table of them in
`itertools.permutations` order, built on first use and cached. Past that
count (6 x 7, 7 x 7, 3 x 15, 2 x 51) enumeration is slower than the exact
kernel, which solves every problem of the shape. A bucket's pairing
totals are summed column after column and the first smallest is taken,
for every problem together, in chunks of at most CHUNK_TOTALS totals, so
memory does not grow with the bucket.

For 1 x b and 2 x 2 the first smallest total is `hungarian`'s own
choice: the first minimum of its line, and the identity unless the swap
costs strictly less, the two totals added as `hungarian` adds them. Of
the other shapes, a problem whose runner-up total is within TIE_MARGIN
of its best goes to the exact kernel `_solve_padded` too. Every other
problem has one optimum, ahead of all other pairings by far more than
float rounding, so it is found by both the enumeration and the Hungarian
kernel, whatever the order of enumeration: the enumeration never has to
reproduce the tie-break.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Direction, _angle_between_units, sorted_unique

# Thresholds are inclusive; distances travel through arccos and carry
# ~1e-14 relative rounding, so a mathematically-on-the-boundary distance
# (e.g. exactly 10 deg against theta = 10) must not be rejected for
# floating-point noise. 1e-9 deg is far below any meaningful resolution.
THRESHOLD_EPS = 1e-9

# `assign_batch` enumerates every pairing of a block with a single row or
# column, or with at most MAX_INJECTIONS pairings (5 x 7, 4 x 8, 3 x 14),
# holding at most CHUNK_TOTALS pairing totals at once, and hands a block to
# the exact kernel when its runner-up pairing costs less than TIE_MARGIN
# more than its best.
MAX_INJECTIONS = 2520
CHUNK_TOTALS = 1 << 14
TIE_MARGIN = 1e-9


def within_threshold(distance: float, theta: float) -> bool:
    """Inclusive threshold comparison with the rounding guard."""
    return distance <= theta + THRESHOLD_EPS


class DistanceMatrix:
    """M x N matrix of angular distances in degrees, entry (i, j) being
    the distance from prediction i to reference j. `cols` only needs to
    be passed for degenerate matrices with zero rows."""

    __slots__ = ("values", "rows", "cols")

    def __init__(self, values, cols: int | None = None):
        self.values = tuple(tuple(row) for row in values)
        self.rows = len(self.values)
        self.cols = len(self.values[0]) if self.values else int(cols or 0)
        for row in self.values:
            if len(row) != self.cols:
                raise ValueError("ragged distance matrix")
            for v in row:
                if not (math.isfinite(v) and 0.0 <= v <= 180.0):
                    raise ValueError(f"distance entry {v} outside [0, 180]")


class Assignment(NamedTuple):
    """Binary matching between predictions and references.

    `pairs` holds (pred_index, ref_index) tuples sorted by prediction
    index; each index appears at most once and len(pairs) = min(M, N).
    """

    pairs: tuple

    @property
    def k(self) -> int:
        return len(self.pairs)

    def cost(self, d: DistanceMatrix) -> float:
        return sum(d.values[i][j] for i, j in self.pairs)


def build_distance_matrix(preds: Sequence[Direction], refs: Sequence[Direction]) -> DistanceMatrix:
    """Angular distances between every prediction/reference combination.

    Either side may be empty, yielding a degenerate 0-row or 0-column
    matrix.
    """
    values = tuple(
        tuple(_angle_between_units(p.unit, r.unit) for r in refs) for p in preds
    )
    return DistanceMatrix(values, cols=len(refs))


def hungarian(d: DistanceMatrix) -> Assignment:
    """Minimum-total-cost matching of size min(M, N).

    Small shapes are special-cased (a single row or column reduces to an
    argmin, 2 x 2 to a comparison of the two permutations); everything
    else goes through the square Hungarian kernel.
    """
    m, n = d.rows, d.cols
    if m == 0 or n == 0:
        return Assignment(pairs=())
    v = d.values
    if m == 1:
        row = v[0]
        j = min(range(n), key=lambda jj: (row[jj], jj))
        return Assignment(pairs=((0, j),))
    if n == 1:
        i = min(range(m), key=lambda ii: (v[ii][0], ii))
        return Assignment(pairs=((i, 0),))
    if m == 2 and n == 2:
        if v[0][0] + v[1][1] <= v[0][1] + v[1][0]:
            return Assignment(pairs=((0, 0), (1, 1)))
        return Assignment(pairs=((0, 1), (1, 0)))
    return Assignment(pairs=_solve_padded(v, m, n))


def ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for every c in `counts`, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def assign_batch(dist: np.ndarray, m: np.ndarray, n: np.ndarray) -> tuple:
    """Pairs (problem, pred, ref, distance) by problem, then pred, of the
    row-major m[g] x n[g] blocks (sides >= 1, values unchecked) in `dist`."""
    size = m * n
    start = np.cumsum(size) - size
    k = np.minimum(m, n)
    first = np.cumsum(k) - k
    group = np.repeat(np.arange(len(m)), k)
    i = ragged_arange(k)
    j = np.zeros_like(i)
    b = np.maximum(m, n)
    multi = np.flatnonzero(b > 1)  # 1 x 1: (0, 0)
    width = int(b.max(initial=0)) + 1  # b < width: one key per shape
    shapes, bucket, by_shape = sorted_unique(k[multi] * width + b[multi])
    members = multi[by_shape]
    count = np.bincount(bucket, minlength=len(shapes))
    ends = np.cumsum(count)
    exact = []
    for key, lo, hi in zip(shapes.tolist(), (ends - count).tolist(), ends.tolist()):
        g = members[lo:hi]
        short, long = divmod(key, width)
        if short > 1 and math.perm(long, short) > MAX_INJECTIONS:
            exact += g.tolist()
            continue
        f = m[g] > n[g]
        pick, tied = _enumerate_bucket(dist, start[g], n[g], f, short, long)
        at = first[g][:, None] + np.arange(pick.shape[1])
        j[at] = pick
        # a transposed block picked a prediction per reference: sort by it
        order = np.argsort(pick[f], 1, kind="stable")
        i[at[f]] = np.take_along_axis(pick[f], order, 1)
        j[at[f]] = order
        exact += g[tied].tolist()
    for g in exact:
        rows, cols = int(m[g]), int(n[g])
        block = dist[start[g]:start[g] + size[g]].reshape(rows, cols).tolist()
        pairs = np.array(_solve_padded(block, rows, cols))
        i[first[g]:first[g] + k[g]] = pairs[:, 0]
        j[first[g]:first[g] + k[g]] = pairs[:, 1]
    return group, i, j, dist[start[group] + i * n[group] + j]


@functools.lru_cache(maxsize=None)
def _injections(a: int, b: int) -> np.ndarray:
    """Every injection of a rows into b columns in `itertools.permutations`
    order, one per table row, which holds the column of each of the a rows
    (in the smallest type that holds b - 1: 5 x 7 takes 12.6 KB)."""
    perms = itertools.chain.from_iterable(itertools.permutations(range(b), a))
    return np.fromiter(perms, dtype=np.min_scalar_type(b - 1)).reshape(-1, a)


def _enumerate_bucket(dist, start, width, flip, a: int, b: int) -> tuple:
    """Column of each row of the cheapest injection of every a x b block
    (a <= b), and whether it must go to the exact kernel: another injection
    came within TIE_MARGIN of it. A 1 x b or 2 x 2 block never must, as the
    first cheapest injection is `hungarian`'s own choice. Block g is stored
    at start[g] in `dist` with rows width[g] apart, and is read transposed
    where flip[g] is set."""
    cols = _injections(a, b)
    cells = cols + np.arange(a) * b  # the cell of each row; intp, so gathers need no cast
    r, c = np.divmod(np.arange(a * b), b)
    pick = np.empty((len(start), a), dtype=np.intp)
    tied = np.zeros(len(start), dtype=bool)
    step = max(1, CHUNK_TOTALS // len(cols))
    for lo in range(0, len(start), step):
        s, w, f = (x[lo:lo + step, None] for x in (start, width, flip))
        block = dist[s + np.where(f, c * w + r, r * w + c)]
        totals = block[:, cells[:, 0]]
        for q in range(1, a):
            totals += block[:, cells[:, q]]
        best = totals.argmin(1)
        pick[lo:lo + step] = cols[best]
        if a > 1 and b > 2:
            low = totals[np.arange(len(best)), best]
            totals[np.arange(len(best)), best] = np.inf
            tied[lo:lo + step] = ~(totals.min(1) - low > TIE_MARGIN)
    return pick, tied


def _solve_padded(v, m: int, n: int) -> tuple:
    size = max(m, n)
    sentinel = 180.0 * size + 1.0
    cost = [[v[i][j] if i < m and j < n else sentinel for j in range(size)] for i in range(size)]
    # Exact integer tie-break component: presence of cell (i, j) earns a
    # bonus that dominates every later cell combined, which makes the
    # combined optimum the lexicographically-smallest pairing.
    top = size * size - 1
    bonus = [[-(1 << (top - (i * size + j))) for j in range(size)] for i in range(size)]
    col_of_row = _square_kernel(cost, bonus, size)
    pairs = sorted(
        (i, col_of_row[i]) for i in range(size) if i < m and col_of_row[i] < n
    )
    return tuple(pairs)


def _square_kernel(cost, bonus, size: int):
    """O(n^3) potentials-and-augmenting-path assignment on a square matrix.

    Costs are (float, int) pairs ordered lexicographically; the integer
    part only separates exact float ties. Arrays are 1-indexed with
    column 0 as the virtual start of each augmenting path.
    """
    inf = math.inf
    uf = [0.0] * (size + 1)
    ui = [0] * (size + 1)
    vf = [0.0] * (size + 1)
    vi = [0] * (size + 1)
    match_row = [0] * (size + 1)  # match_row[j] = row matched to column j
    way = [0] * (size + 1)
    for i in range(1, size + 1):
        match_row[0] = i
        j0 = 0
        min_f = [inf] * (size + 1)
        min_i = [0] * (size + 1)
        used = [False] * (size + 1)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            row_f = cost[i0 - 1]
            row_b = bonus[i0 - 1]
            cur_uf = uf[i0]
            cur_ui = ui[i0]
            delta_f = inf
            delta_i = 0
            j1 = -1
            for j in range(1, size + 1):
                if used[j]:
                    continue
                cf = row_f[j - 1] - cur_uf - vf[j]
                ci = row_b[j - 1] - cur_ui - vi[j]
                if cf < min_f[j] or (cf == min_f[j] and ci < min_i[j]):
                    min_f[j] = cf
                    min_i[j] = ci
                    way[j] = j0
                if min_f[j] < delta_f or (min_f[j] == delta_f and min_i[j] < delta_i):
                    delta_f = min_f[j]
                    delta_i = min_i[j]
                    j1 = j
            for j in range(size + 1):
                if used[j]:
                    uf[match_row[j]] += delta_f
                    ui[match_row[j]] += delta_i
                    vf[j] -= delta_f
                    vi[j] -= delta_i
                else:
                    min_f[j] -= delta_f
                    min_i[j] -= delta_i
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    col_of_row = [0] * size
    for j in range(1, size + 1):
        col_of_row[match_row[j] - 1] = j - 1
    return col_of_row
