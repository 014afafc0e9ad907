"""Resampling and ranking statistics: jackknife intervals, cumulative
challenge ranks, and Spearman rank correlation.

Ties are handled by average rank everywhere (both in the challenge-style
ranking and inside Spearman), and jackknife bounds use the Student-t
quantile with n - 1 degrees of freedom since per-file sample sizes are
small.

The t quantile is ``scipy.special.stdtrit``, the inverse Student-t CDF
that ``scipy.stats.t.ppf`` evaluates internally, so intervals are
bit-identical to it. It is imported inside `jackknife_ci` rather than at
module load: ``scipy.stats`` takes over a second to import, and only the
jackknife needs a quantile, so every other command starts without scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DegenerateRanks,
    LengthMismatch,
    TooFewFiles,
    UndefinedPartial,
    UndefinedValue,
)


@dataclass
class JackknifeEstimate:
    """Leave-one-out confidence interval around a metric."""

    point: float
    low: float
    high: float
    confidence: float
    n: int


def jackknife_ci(point: float, partials: dict, confidence: float = 0.95) -> JackknifeEstimate:
    """Confidence interval around `point`, the metric on all n files.

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
    from scipy.special import stdtrit

    half = float(stdtrit(n - 1, (1.0 + confidence) / 2.0)) * math.sqrt(var / n)
    return JackknifeEstimate(
        point=point, low=mean - half, high=mean + half, confidence=confidence, n=n
    )


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
    ra = _average_ranks(list(values_a))
    rb = _average_ranks(list(values_b))
    mean_a = sum(ra) / n
    mean_b = sum(rb) / n
    var_a = sum((x - mean_a) ** 2 for x in ra)
    var_b = sum((x - mean_b) ** 2 for x in rb)
    if var_a == 0 or var_b == 0:
        raise DegenerateRanks("rank vector is constant; correlation undefined")
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(ra, rb))
    return cov / math.sqrt(var_a * var_b)


@dataclass
class RankTable:
    """Per-metric values and ranks plus the cumulative final ranking."""

    systems: list
    values: dict   # metric name -> list of values, one per system
    ranks: dict    # metric name -> list of ranks
    rank_sums: list
    final_ranks: list


def build_rank_table(
    systems: Sequence[str],
    metric_values: dict,
    higher_better: dict,
) -> RankTable:
    """Rank every system on every metric and sum the individual ranks."""
    ranks = {}
    for name, values in metric_values.items():
        if len(values) != len(systems):
            raise LengthMismatch(f"metric {name!r} has {len(values)} values for {len(systems)} systems")
        ranks[name] = metric_ranks(values, higher_better[name])
    sums, final = cumulative_rank(list(ranks.values()))
    return RankTable(
        systems=list(systems),
        values=dict(metric_values),
        ranks=ranks,
        rank_sums=sums,
        final_ranks=final,
    )
