"""The Wilcoxon signed-rank test, kept as a checked reference beside its
tests: no command runs it (the paper ranks systems and summaries by
correlation), so it lives here rather than in the package.

It drops zero differences, ranks the absolute values with average ranks,
reports W = min(W+, W-), and computes the two-sided p exactly by
enumerating all sign assignments up to n = 12 (normal approximation with
tie correction above that).
"""

import math
import random

import pytest

from autopyramid.data import is_finite_number
from autopyramid.errors import DegenerateInput, InputError, LengthMismatch
from autopyramid.stats import average_ranks

from oracles import wilcoxon_oracle

WILCOXON_EXACT_LIMIT = 12


class AllZeroDifferences(InputError):
    """Signed-rank test input where every paired difference is zero."""


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_signed_rank(x, y) -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Returns ``(W, p)`` with W = min(W+, W-). Zero differences are dropped
    first; if nothing remains, :class:`AllZeroDifferences` is raised. For
    n <= 12 the p-value enumerates all 2^n sign assignments exactly; for
    larger n a normal approximation with tie correction is used. Raises
    :class:`DegenerateInput` on non-finite input or differences.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"inputs have lengths {len(x)} and {len(y)}")
    if not all(map(is_finite_number, x)) or not all(map(is_finite_number, y)):
        raise DegenerateInput("the signed-rank test needs finite inputs")
    diffs = [a - b for a, b in zip(x, y) if a - b != 0]
    n = len(diffs)
    if n == 0:
        raise AllZeroDifferences("all paired differences are zero")
    ranks = average_ranks([abs(d) for d in diffs])
    w_plus = math.fsum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = math.fsum(r for d, r in zip(diffs, ranks) if d < 0)
    statistic = min(w_plus, w_minus)

    if n <= WILCOXON_EXACT_LIMIT:
        # doubled ranks are integers even with ties, so the enumeration
        # compares exactly
        doubled = [round(2 * r) for r in ranks]
        total = sum(doubled)
        observed = round(2 * statistic)
        hits = 0
        for mask in range(1 << n):
            positive = 0
            for i in range(n):
                if mask >> i & 1:
                    positive += doubled[i]
            if min(positive, total - positive) <= observed:
                hits += 1
        p = hits / (1 << n)
    else:
        mean = n * (n + 1) / 4.0
        variance = n * (n + 1) * (2 * n + 1) / 24.0
        counts: dict[float, int] = {}
        for d in diffs:
            counts[abs(d)] = counts.get(abs(d), 0) + 1
        variance -= math.fsum(t**3 - t for t in counts.values()) / 48.0
        if variance <= 0:
            raise DegenerateInput("tie correction removed all variance")
        z = (statistic - mean) / math.sqrt(variance)
        p = min(1.0, 2.0 * _normal_cdf(z))
    return statistic, p


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_wilcoxon_refuses_non_finite_input(bad):
    with pytest.raises(DegenerateInput, match="signed-rank test needs finite"):
        wilcoxon_signed_rank([bad, 1, 2, 3], [0, 0, 0, 0])
    with pytest.raises(DegenerateInput, match="signed-rank test needs finite"):
        wilcoxon_signed_rank([0, 1, 2], [bad, 0, 0])


def test_wilcoxon_refuses_infinite_pairs_and_overflowing_differences():
    # inf - inf is NaN, not a zero difference to drop
    with pytest.raises(DegenerateInput, match="signed-rank test needs finite"):
        wilcoxon_signed_rank([math.inf, 1, 2], [math.inf, 0, 0])
    # finite inputs whose difference overflows
    with pytest.raises(DegenerateInput, match="finite"):
        wilcoxon_signed_rank([1e308, 1, 2], [-1e308, 0, 0])


def test_wilcoxon_all_positive_five():
    x = [2, 3, 4, 5, 6]
    y = [1, 1, 1, 1, 1]
    statistic, p = wilcoxon_signed_rank(x, y)
    assert statistic == 0
    assert p == 0.0625


def test_wilcoxon_all_negative_three():
    statistic, p = wilcoxon_signed_rank([0, 0, 0], [1, 2, 3])
    assert statistic == 0
    assert p == 0.25


def test_wilcoxon_identical_inputs():
    with pytest.raises(AllZeroDifferences):
        wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])
    with pytest.raises(LengthMismatch):
        wilcoxon_signed_rank([1, 2], [1])


def test_wilcoxon_matches_enumeration_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 8)
        diffs = [rng.choice([-3, -2, -1, 1, 2, 3]) * rng.choice([1, 1, 0.5]) for _ in range(n)]
        x = list(diffs)
        y = [0.0] * n
        statistic, p = wilcoxon_signed_rank(x, y)
        expect_w, expect_p = wilcoxon_oracle(diffs)
        assert statistic == expect_w
        assert p == expect_p


def test_wilcoxon_normal_approximation_close_to_exact():
    rng = random.Random(5)
    diffs = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(14)]
    statistic, p = wilcoxon_signed_rank(diffs, [0.0] * 14)
    expect_w, expect_p = wilcoxon_oracle(diffs)
    assert statistic == expect_w
    assert abs(p - expect_p) < 0.05
    assert 0.0 < p <= 1.0
