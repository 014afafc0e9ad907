"""Resampling and ranking statistics: jackknife intervals, cumulative
challenge ranks, and Spearman rank correlation.

Ties are handled by average rank everywhere (both in the challenge-style
ranking and inside Spearman), and jackknife bounds use the Student-t
quantile with n - 1 degrees of freedom since per-file sample sizes are
small.

The t quantile is ``scipy.special.stdtrit``, the inverse Student-t CDF
that ``scipy.stats.t.ppf`` evaluates internally, so intervals are
bit-identical to it. Importing ``scipy.special`` takes about 0.33 s on
a 2-core VM, longer than the rest of a jackknife over eight 60 s files,
so the default level is served from a table: when ``(1 + confidence) / 2`` is exactly 0.975 and
n - 1 is at most 200, the quantile is read from `_tquantile.T975`, which
holds ``stdtrit(df, 0.975)`` for df 1..200 bit for bit. Any other level,
or more than 201 files, imports ``stdtrit`` inside `jackknife_ci`. The
table is loaded only by `jackknife_ci` too, so no command imports it or
scipy at start-up.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import (
    DegenerateRanks,
    LengthMismatch,
    TooFewFiles,
    UndefinedPartial,
    UndefinedValue,
)


def jackknife_ci(point: float, partials: dict, confidence: float = 0.95) -> tuple:
    """The (low, high) bounds of the confidence interval around `point`,
    the metric on all n files.

    `partials` maps each file to the metric on the other n - 1 files
    (None where it is undefined there), in file order. Pseudo-values are
    phi_i = n*point - (n-1)*partial_i and the bounds are
    mean(phi) +/- t_{(1+c)/2, n-1} * sd(phi) / sqrt(n).
    """
    n = len(partials)
    if n < 2:
        raise TooFewFiles(f"jackknife needs at least 2 files, got {n}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    for name, partial in partials.items():
        if partial is None:
            raise UndefinedPartial(f"metric undefined when leaving out {name!r}")
    pseudo = [n * point - (n - 1) * partial for partial in partials.values()]
    mean = sum(pseudo) / n
    var = sum((p - mean) ** 2 for p in pseudo) / (n - 1)
    q = (1.0 + confidence) / 2.0
    from ._tquantile import T975

    if q == 0.975 and n - 1 <= len(T975):
        t = T975[n - 2]
    else:
        from scipy.special import stdtrit

        t = float(stdtrit(n - 1, q))
    half = t * math.sqrt(var / n)
    return mean - half, mean + half


def _average_ranks(keys: Sequence) -> list:
    """Rank 1 for the smallest key; tied keys share the average rank."""
    n = len(keys)
    order = sorted(range(n), key=lambda i: (keys[i], i))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in order[i: j + 1]:
            ranks[t] = avg
        i = j + 1
    return ranks


def metric_ranks(values: Sequence[float], higher_better: bool) -> list:
    """Challenge-style ranks: 1 is best, ties averaged."""
    for v in values:
        if v is None or (isinstance(v, float) and math.isnan(v)):
            raise UndefinedValue("cannot rank systems with an undefined metric value")
    keys = [-v for v in values] if higher_better else list(values)
    return _average_ranks(keys)


def cumulative_rank(rank_lists: Sequence[Sequence[float]]) -> tuple:
    """Final ordering from per-metric ranks.

    Returns (rank_sums, final_ranks) where the final rank is the
    tie-averaged rank of each system's rank sum.
    """
    if not rank_lists:
        raise ValueError("no rank lists given")
    n = len(rank_lists[0])
    for ranks in rank_lists:
        if len(ranks) != n:
            raise LengthMismatch("rank lists cover different numbers of systems")
    sums = [sum(ranks[i] for ranks in rank_lists) for i in range(n)]
    return sums, _average_ranks(sums)


def spearman(values_a: Sequence[float], values_b: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of the tie-averaged ranks.

    Reduces to 1 - 6*sum(d^2) / (n*(n^2-1)) when there are no ties.
    """
    if len(values_a) != len(values_b):
        raise LengthMismatch(
            f"rank vectors differ in length: {len(values_a)} vs {len(values_b)}"
        )
    n = len(values_a)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    return rank_correlation(rank_moments(values_a), rank_moments(values_b))


def rank_moments(values: Sequence[float]) -> tuple:
    """The tie-averaged ranks of `values` less their mean, and the sum of
    their squares: what `rank_correlation` needs of one side."""
    ranks = _average_ranks(list(values))
    mean = sum(ranks) / len(ranks)
    return [x - mean for x in ranks], sum((x - mean) ** 2 for x in ranks)


def rank_correlation(a: tuple, b: tuple) -> float:
    """Pearson correlation of two equally long `rank_moments`; a side whose
    ranks are all equal raises DegenerateRanks."""
    (dev_a, var_a), (dev_b, var_b) = a, b
    if var_a == 0 or var_b == 0:
        raise DegenerateRanks("rank vector is constant; correlation undefined")
    cov = sum(x * y for x, y in zip(dev_a, dev_b))
    return cov / math.sqrt(var_a * var_b)


def build_rank_table(metric_values: dict, higher_better: dict) -> tuple:
    """Rank the systems on every metric and sum each system's ranks.

    `metric_values` maps each metric name to its values, one per system in
    one order. Returns (ranks, rank_sums, final_ranks): each metric name's
    `metric_ranks`, and the `cumulative_rank` of those lists.
    """
    ranks = {name: metric_ranks(values, higher_better[name])
             for name, values in metric_values.items()}
    return (ranks, *cumulative_rank(list(ranks.values())))
