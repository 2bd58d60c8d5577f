import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from autopyramid.data import Reference, ReferenceEntry, SystemSummary
from autopyramid.errors import DegenerateInput, EmptyDataset, LengthMismatch, NoGoldUnits
from autopyramid.stats import (
    average_ranks,
    cohen_kappa,
    corpus_stats,
    easiness,
    pearson,
    spearman,
    summary_level,
    system_level,
)
from autopyramid.text import rouge1_f1


from oracles import (
    ranks_oracle,
    summary_level_oracle,
    system_level_oracle,
)


def units_of(*texts):
    return list(texts)


# --------------------------------------------------------------------------
# easiness


def test_easiness_identity():
    gold = units_of("the cat sat", "a dog barked")
    report = easiness(gold, gold)
    assert report.easiness_r == 1.0
    assert report.easiness_p == 1.0
    assert report.gold_best_match == (0, 1)
    assert report.approx_best_match == (0, 1)


def test_easiness_derived_case():
    gold = units_of("the cat sat")
    approx = units_of("the cat", "a dog")
    report = easiness(gold, approx)
    assert report.easiness_r == pytest.approx(0.8, abs=1e-12)
    assert report.easiness_p == pytest.approx(0.4, abs=1e-12)
    assert report.gold_best_match == (0,)
    assert report.approx_best_match == (0, 0)


def test_easiness_empty_approx_flags_degenerate():
    report = easiness(units_of("gold"), [])
    assert report.easiness_r == 0.0
    assert report.easiness_p == 0.0
    assert report.degenerate


def test_easiness_requires_gold():
    with pytest.raises(NoGoldUnits):
        easiness([], units_of("x"))


def test_easiness_r_never_drops_when_approx_grows():
    rng = random.Random(4)
    vocab = ["cat", "dog", "sat", "ran", "the", "big"]
    for _ in range(30):
        gold = units_of(*(" ".join(rng.sample(vocab, 3)) for _ in range(3)))
        approx = units_of(*(" ".join(rng.sample(vocab, 2)) for _ in range(2)))
        before = easiness(gold, approx).easiness_r
        extra = approx + units_of(" ".join(rng.sample(vocab, 2)))
        after = easiness(gold, extra).easiness_r
        assert after >= before - 1e-15


def test_easiness_matches_bruteforce_means():
    gold = units_of("a b c", "c d")
    approx = units_of("a b", "d e", "c")
    report = easiness(gold, approx)
    expect_r = sum(
        max(rouge1_f1(g, a) for a in approx) for g in gold
    ) / len(gold)
    expect_p = sum(
        max(rouge1_f1(a, g) for g in gold) for a in approx
    ) / len(approx)
    assert report.easiness_r == pytest.approx(expect_r, abs=1e-15)
    assert report.easiness_p == pytest.approx(expect_p, abs=1e-15)


# --------------------------------------------------------------------------
# correlations


def test_pearson_examples():
    assert pearson([1, 2, 3], [2, 4, 6]) == 1.0
    assert pearson([1, 2, 3], [3, 2, 1]) == -1.0
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-15)


def test_pearson_errors():
    with pytest.raises(DegenerateInput):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(DegenerateInput):
        pearson([5], [5])
    with pytest.raises(LengthMismatch):
        pearson([1, 2], [1, 2, 3])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_correlations_refuse_non_finite_input(bad):
    # max(-1, min(1, nan)) is 1.0: a NaN must not pass as a perfect correlation
    for correlate in (pearson, spearman):
        with pytest.raises(DegenerateInput):
            correlate([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, bad])
        with pytest.raises(DegenerateInput):
            correlate([bad, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])


def test_pearson_refuses_overflowing_input():
    # finite inputs whose squares overflow would otherwise correlate as 0.0
    with pytest.raises(DegenerateInput):
        pearson([1e200, -1e200, 3.0, 4.0], [1, 2, 3, 4])
    with pytest.raises(DegenerateInput):
        pearson([1e308, 1e308, -1e308, 5.0], [1, 2, 3, 4])


def test_pearson_affine_invariance():
    rng = random.Random(8)
    for _ in range(30):
        xs = [rng.random() for _ in range(6)]
        ys = [rng.random() for _ in range(6)]
        base = pearson(xs, ys)
        scaled = [3.5 * v + 2 for v in xs]
        assert pearson(scaled, ys) == pytest.approx(base, abs=1e-12)
        assert pearson(ys, xs) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("k", [1e-200, 1e-160, 1e100, 1e150])
def test_pearson_scale_invariance_outside_the_normal_range(k):
    # squares that underflow, or a product of sums that overflows, must not
    # change the value
    rng = random.Random(11)
    for _ in range(30):
        xs = [rng.random() for _ in range(6)]
        ys = [rng.random() for _ in range(6)]
        base = pearson(xs, ys)
        scaled = [k * v for v in xs]
        assert pearson(scaled, ys) == pytest.approx(base, abs=1e-12)
        assert pearson(scaled, [k * v for v in ys]) == pytest.approx(base, abs=1e-12)
    assert pearson([1e100, -1e100, 0], [1e100, -1e100, 0]) == 1.0


def test_pearson_constant_input_whose_mean_does_not_round_back():
    # fsum([0.1] * 3) / 3 is not 0.1, so the deviations are rounding noise
    with pytest.raises(DegenerateInput, match="constant"):
        pearson([0.1] * 3, [1, 2, 3])


def test_average_ranks_with_ties():
    assert average_ranks([10, 20, 20, 30]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([3, 1, 2]) == [3.0, 1.0, 2.0]
    assert average_ranks([]) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_rank_statistics_refuse_non_finite_input(bad):
    # NaN compares unequal to everything, so it would sort and rank anywhere
    with pytest.raises(DegenerateInput, match="finite"):
        average_ranks([bad, 1, 0, 2])


def test_spearman_examples():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0


def test_spearman_equals_pearson_on_ranks_including_ties():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 10)
        xs = [rng.choice([1.0, 2.0, 2.0, 3.0, 5.0]) for _ in range(n)]
        ys = [rng.choice([0.1, 0.4, 0.4, 0.9]) for _ in range(n)]
        rx, ry = ranks_oracle(xs), ranks_oracle(ys)
        assert average_ranks(xs) == rx
        assert average_ranks(ys) == ry
        try:
            expected = pearson(rx, ry)
        except DegenerateInput:
            with pytest.raises(DegenerateInput):
                spearman(xs, ys)
            continue
        assert spearman(xs, ys) == expected


def test_spearman_monotone_transform_invariance():
    rng = random.Random(13)
    for _ in range(20):
        xs = random.sample(range(100), 6)
        ys = [rng.random() for _ in range(6)]
        base = spearman(xs, ys)
        warped = [math.exp(v / 25) for v in xs]
        assert spearman(warped, ys) == pytest.approx(base, abs=1e-12)


def test_system_level_examples():
    metric = [[0.1, 0.9], [0.2, 0.8]]
    assert system_level(metric, metric, "pearson").value == 1.0
    assert system_level(metric, metric, "spearman").value == 1.0

    report = system_level([[0, 1], [0, 1]], [[1, 0], [1, 0]], "pearson")
    assert report.value == -1.0
    assert report.examples == 2
    assert report.systems == 2

    with pytest.raises(DegenerateInput):
        system_level([[1, 1], [2, 2]], [[0, 1], [1, 0]], "pearson")
    with pytest.raises(LengthMismatch):
        system_level([[1, 2]], [[1, 2], [3, 4]], "pearson")
    with pytest.raises(LengthMismatch):
        system_level([[1], [2]], [[1], [2]], "pearson")
    with pytest.raises(ValueError):
        system_level([[1, 2]], [[1, 2]], "kendall")


@pytest.mark.parametrize("correlate", [system_level, summary_level])
def test_matrices_without_rows_or_with_uneven_rows_and_unknown_kinds_are_refused(correlate):
    with pytest.raises(LengthMismatch, match=r"^need at least one example row$"):
        correlate([], [], "pearson")
    for metric, human in [([[1, 2], [1, 2, 3]], [[1, 2], [1, 2]]), ([[1, 2]], [[1, 2, 3]])]:
        with pytest.raises(LengthMismatch, match=r"^matrix rows have uneven lengths$"):
            correlate(metric, human, "pearson")
    with pytest.raises(ValueError, match=r"^unknown correlation kind 'kendall'$"):
        correlate([[1, 2]], [[1, 2]], "kendall")


def test_summary_level_examples():
    metric = [[0.1, 0.9], [0.3, 0.7]]
    assert summary_level(metric, metric, "pearson").value == 1.0

    # one row correlates +1, the other -1
    metric = [[0, 1], [0, 1]]
    human = [[0, 1], [1, 0]]
    report = summary_level(metric, human, "pearson")
    assert report.value == 0.0
    assert report.skipped == 0

    skipping = summary_level([[1, 1], [0, 1]], [[0, 1], [0, 1]], "pearson")
    assert skipping.skipped == 1
    assert skipping.value == 1.0

    with pytest.raises(DegenerateInput):
        summary_level([[1, 1], [2, 2]], [[0, 1], [0, 1]], "pearson")


def test_levels_match_transcription_oracle():
    rng = random.Random(55)
    for _ in range(25):
        metric = [[rng.random() for _ in range(4)] for _ in range(5)]
        human = [[rng.random() for _ in range(4)] for _ in range(5)]
        for kind in ("pearson", "spearman"):
            assert system_level(metric, human, kind).value == pytest.approx(
                system_level_oracle(metric, human, kind), abs=1e-12
            )
            assert summary_level(metric, human, kind).value == pytest.approx(
                summary_level_oracle(metric, human, kind), abs=1e-12
            )


# --------------------------------------------------------------------------
# agreement and significance


def test_cohen_kappa_examples():
    assert cohen_kappa([1, 2, 1, 2], [1, 2, 1, 2]) == 1.0
    assert cohen_kappa([1, 2, 1, 2], [1, 1, 2, 2]) == pytest.approx(0.0, abs=1e-12)
    assert cohen_kappa([1, 1, 1, 1], [1, 1, 1, 1]) == 1.0


def test_cohen_kappa_errors_and_range():
    with pytest.raises(LengthMismatch):
        cohen_kappa([1], [1, 2])
    with pytest.raises(LengthMismatch):
        cohen_kappa([], [])
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 12)
        a = [rng.choice("xyz") for _ in range(n)]
        b = [rng.choice("xyz") for _ in range(n)]
        assert -1.0 <= cohen_kappa(a, b) <= 1.0


KAPPA_PROBE = """
from autopyramid.stats import cohen_kappa
a = "l0 l2 l4 l3 l3 l2 l3 l2 l4 l1 l4 l1 l2 l1 l0 l4 l2 l4".split()
b = "l5 l4 l1 l2 l0 l5 l0 l5 l2 l3 l4 l0 l2 l3 l2 l4 l5 l1".split()
print(repr(cohen_kappa(a, b)))
"""


def test_cohen_kappa_is_the_same_float_under_any_hash_seed():
    # string labels hash differently under each seed, so a sum taken in
    # set order would differ in its last bits
    src = str(Path(__file__).resolve().parent.parent / "src")
    values = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", KAPPA_PROBE], env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        values.add(done.stdout)
    assert len(values) == 1, values


# --------------------------------------------------------------------------
# corpus statistics


def entry(example_id, texts, scu_lists=None, n_systems=0):
    scu_lists = scu_lists or [[] for _ in texts]
    return ReferenceEntry(
        example_id=example_id,
        references=tuple(
            Reference(text=t, scus=tuple(s)) for t, s in zip(texts, scu_lists)
        ),
        systems=tuple(
            SystemSummary(system_id=f"s{i}", summary="x") for i in range(n_systems)
        ),
    )


def test_corpus_stats_hand_count():
    stats = corpus_stats([entry("e1", ["a b c. d e."])])
    assert stats.avg_sentences == 2
    assert stats.avg_words == 5
    assert stats.avg_words_per_sentence == 2.5
    assert stats.refs_per_example == 1
    assert stats.avg_scus == 0


def test_corpus_stats_multi_reference():
    dataset = [
        entry("e1", ["a b.", "c d. e f."], [["u1"], ["u2", "u3"]]),
        entry("e2", ["g h i."], [["u4"]]),
    ]
    stats = corpus_stats(dataset)
    assert stats.refs_per_example == 1.5
    assert stats.avg_sentences == pytest.approx(4 / 3)
    assert stats.avg_words == pytest.approx(9 / 3)
    assert stats.avg_scus == 2.0
    assert stats.examples == 2


def test_corpus_stats_empty_dataset():
    with pytest.raises(EmptyDataset):
        corpus_stats([])
