import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpora import EVENT_COUNTS, pheme_shaped_corpus
from rumourmtl.analysis import (
    DatasetStats,
    LabelDistribution,
    analyze_corpus,
    entropy,
    kurtosis,
    stats_csv,
    ttr,
)
from rumourmtl.corpus import GeneratorSpec, generate_synthetic


def veracity_dist(event):
    # benchmark counts are (true, false, unverified); label order is alphabetical
    n_true, n_false, n_unv = EVENT_COUNTS[event][3:]
    return LabelDistribution(task="veracity", event=event,
                             counts=(n_false, n_true, n_unv))


def detection_dist(event):
    _, n_rum, n_non, *_ = EVENT_COUNTS[event]
    return LabelDistribution(task="detection", event=event, counts=(n_non, n_rum))


class TestEntropy:
    def test_single_class_zero(self):
        dist = LabelDistribution(task="veracity", event="e", counts=(0, 14, 0))
        assert entropy(dist) == 0.0

    def test_uniform_is_log_k(self):
        dist = LabelDistribution(task="veracity", event="e", counts=(5, 5, 5))
        assert entropy(dist) == pytest.approx(math.log(3), abs=1e-12)

    def test_benchmark_veracity_cells(self):
        assert entropy(veracity_dist("charliehebdo")) == pytest.approx(1.08, abs=5e-3)
        assert entropy(veracity_dist("sydneysiege")) == pytest.approx(0.76, abs=5e-3)
        assert entropy(veracity_dist("ferguson")) == pytest.approx(0.28, abs=5e-3)

    def test_benchmark_detection_cells(self):
        assert entropy(detection_dist("ottawashooting")) == pytest.approx(0.69, abs=5e-3)
        assert entropy(detection_dist("charliehebdo")) == pytest.approx(0.53, abs=5e-3)
        assert entropy(detection_dist("germanwings-crash")) == pytest.approx(0.69, abs=5e-3)

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=5)
           .filter(lambda c: sum(c) > 0))
    def test_permutation_invariant_and_bounded(self, counts):
        dist = LabelDistribution(task="stance", event="e", counts=tuple(counts))
        rev = LabelDistribution(task="stance", event="e", counts=tuple(reversed(counts)))
        assert entropy(dist) == pytest.approx(entropy(rev), abs=1e-12)
        assert 0.0 <= entropy(dist) <= math.log(len(counts)) + 1e-12


class TestKurtosis:
    def test_benchmark_veracity_cells(self):
        assert kurtosis(veracity_dist("charliehebdo")) == pytest.approx(-1.25, abs=5e-3)
        assert kurtosis(veracity_dist("sydneysiege")) == pytest.approx(0.71, abs=5e-3)
        assert kurtosis(veracity_dist("ferguson")) == pytest.approx(17.44, abs=5e-3)

    def test_benchmark_detection_cells(self):
        assert kurtosis(detection_dist("ottawashooting")) == pytest.approx(-1.99, abs=5e-3)
        assert kurtosis(detection_dist("charliehebdo")) == pytest.approx(-0.18, abs=5e-3)
        # the exact value is -1.9991; reported as -1.99 by truncation
        assert kurtosis(detection_dist("germanwings-crash")) == pytest.approx(-1.99, abs=1e-2)

    def test_two_class_closed_form(self):
        # excess kurtosis of a Bernoulli(p) variable is (1 - 6pq) / (pq)
        for n1, n2 in ((3, 7), (50, 50), (1, 99)):
            dist = LabelDistribution(task="detection", event="e", counts=(n1, n2))
            p = n2 / (n1 + n2)
            q = 1.0 - p
            assert kurtosis(dist) == pytest.approx((1 - 6 * p * q) / (p * q), abs=1e-12)

    def test_single_class_is_none(self):
        dist = LabelDistribution(task="veracity", event="e", counts=(0, 9, 0))
        assert kurtosis(dist) is None

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=5)
           .filter(lambda c: sum(1 for x in c if x > 0) >= 2))
    def test_reversal_invariant(self, counts):
        # reversing the coding is an affine map, which kurtosis ignores
        dist = LabelDistribution(task="stance", event="e", counts=tuple(counts))
        rev = LabelDistribution(task="stance", event="e", counts=tuple(reversed(counts)))
        assert kurtosis(dist) == pytest.approx(kurtosis(rev), abs=1e-9)

    @settings(max_examples=100)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=5)
           .filter(lambda c: sum(1 for x in c if x > 0) >= 2))
    def test_lower_bound(self, counts):
        dist = LabelDistribution(task="stance", event="e", counts=tuple(counts))
        assert kurtosis(dist) >= -2.0


class TestTtr:
    def test_example(self):
        assert ttr([["the", "fire"], ["the", "truth"]]) == pytest.approx(3 / 4)

    def test_all_distinct(self):
        assert ttr([["a", "b"], ["c"]]) == 1.0

    def test_repetition_lowers_ratio(self):
        assert ttr([["x"] * 10]) == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no tokens"):
            ttr([[], []])


class TestAnalyzeCorpus:
    def test_benchmark_shaped_corpus_cells(self):
        table = analyze_corpus(pheme_shaped_corpus())
        cell = table["charliehebdo"]["veracity"]
        assert cell.entropy == pytest.approx(1.08, abs=5e-3)
        assert cell.kurtosis == pytest.approx(-1.25, abs=5e-3)
        det = table["germanwings-crash"]["detection"]
        assert det.kurtosis == pytest.approx(-1.99, abs=1e-2)

    def test_stance_cell_none_without_annotations(self):
        table = analyze_corpus(pheme_shaped_corpus())
        assert all(table[event]["stance"] is None for event in table)

    def test_synthetic_corpus_full_table(self):
        corpus = generate_synthetic(GeneratorSpec(events=2, threads_per_event=12), 3)
        table = analyze_corpus(corpus)
        assert set(table) == set(corpus.events)
        for row in table.values():
            assert set(row) == {"stance", "veracity", "detection"}
            assert row["detection"] is not None
            assert 0.0 < row["detection"].ttr <= 1.0

    def test_single_class_entropy_is_positive_zero(self):
        """An event of rumours only: its detection entropy is +0.0 and
        prints as 0.00, not -0.00."""
        corpus = generate_synthetic(GeneratorSpec(events=2, nonrumour_fraction=0.0), 3)
        table = analyze_corpus(corpus)
        assert math.copysign(1.0, table["event00"]["detection"].entropy) == 1.0
        header, row = stats_csv(table).splitlines()[:2]
        assert row.split(",")[header.split(",").index("detection_entropy")] == "0.00"


class TestStatsCsv:
    def test_layout_and_degenerate_marker(self):
        table = {
            "ev1": {
                "stance": None,
                "veracity": DatasetStats(entropy=0.0, kurtosis=None, ttr=0.5),
                "detection": DatasetStats(entropy=0.69, kurtosis=-1.99, ttr=0.25),
            },
        }
        doc = stats_csv(table)
        lines = doc.splitlines()
        assert lines[0].split(",")[:4] == ["event", "stance_entropy",
                                           "stance_kurtosis", "stance_ttr"]
        cells = lines[1].split(",")
        assert cells[0] == "ev1"
        assert cells[1:4] == ["-", "-", "-"]
        assert cells[4:7] == ["0.00", "-3 (degenerate)", "0.50"]
        assert cells[7:10] == ["0.69", "-1.99", "0.25"]

    def test_events_sorted(self):
        stats = DatasetStats(entropy=0.1, kurtosis=0.0, ttr=0.1)
        table = {e: {"stance": None, "veracity": stats, "detection": stats}
                 for e in ("zeta", "alpha")}
        lines = stats_csv(table).splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["alpha", "zeta"]
