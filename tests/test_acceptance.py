"""Acceptance suite.

Criteria 1-4 check published reference targets and need the public benchmark
dataset (465 labeled citing/cited pairs over ACL full texts). Point the
CITEGAUGE_DATASET environment variable at a directory containing a ``corpus``
(or ``papers``) subdirectory of document JSON files and a ``pairs.tsv`` label
file; without it those criteria are skipped and the property-based substitute
battery (criterion 5) is the gate.

Run with ``pytest tests/test_acceptance.py -v -s`` for one verdict line per
criterion.
"""

import math
import os
import random
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from citegauge.cli import main as cli_main
from citegauge.citeparse import find_in_text_citations, parse_bib_entry
from citegauge.corpus import (
    CitationPair,
    filter_valid_pairs,
    load_corpus,
    load_pairs,
    pair_key,
    paper_from_dict,
)
from citegauge.evaluation import (
    cross_validate,
    interpolated_precision,
    mean_average_precision,
    pearson,
    pr_curve,
    run_evaluation,
    stratified_folds,
)
from citegauge.features import (
    author_overlap,
    compute_feature_matrix,
    cosine_similarity,
)
from citegauge.forest import derive_seed, train

from conftest import assert_same_model, make_corpus, make_paper, xy
from fixture_corpus import (
    EXPECTED_TARGET_COUNTS,
    citing_papers,
    target_paper,
    write_dataset,
)
from oracles import SplitMix64, brute_force_best_split

# Reference targets for the public benchmark distribution.
REFERENCE_TOTAL = 465
REFERENCE_INCIDENTAL = 396
REFERENCE_INFLUENTIAL = 69
REFERENCE_POSITIVES_AFTER_FILTER = 61
REFERENCE_POSITIVE_TOLERANCE = 3
REFERENCE_CORRELATIONS = {"f1": 0.281, "f4": 0.132, "f9": 0.373}
CORRELATION_TOLERANCE = 0.06
REFERENCE_ALL_GRID = {0.05: 0.50, 0.1: 0.38, 0.3: 0.37, 0.5: 0.37, 0.7: 0.29, 0.9: 0.23}
GRID_TOLERANCE = 0.08
GRID_SEEDS = (42, 43, 44, 45, 46)


def _verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def _skip(name, reason):
    print(f"[acceptance] {name}: SKIPPED ({reason})")
    pytest.skip(reason)


def _reference_dataset():
    root = os.environ.get("CITEGAUGE_DATASET")
    if not root:
        return None
    root = Path(root)
    for sub in ("corpus", "papers"):
        if (root / sub).is_dir() and (root / "pairs.tsv").is_file():
            return root / sub, root / "pairs.tsv"
    return None


@pytest.fixture(scope="module")
def reference_features():
    """Loaded reference dataset with extracted features, cached per module."""
    located = _reference_dataset()
    if located is None:
        return None
    corpus_dir, pairs_file = located
    corpus = load_corpus(corpus_dir)
    pairs, stats, _ = load_pairs(pairs_file, corpus)
    valid = filter_valid_pairs(pairs, corpus, stats)
    rows, _ = compute_feature_matrix(corpus, valid)
    return stats, rows


class TestReferenceDatasetCriteria:
    def test_criterion_1_dataset_statistics(self):
        name = "1 dataset statistics"
        located = _reference_dataset()
        if located is None:
            _skip(name, "reference dataset not available; criterion 5 substitutes apply")
        started = time.monotonic()
        corpus = load_corpus(located[0])
        pairs, stats, _ = load_pairs(located[1], corpus)
        filter_valid_pairs(pairs, corpus, stats)
        elapsed = time.monotonic() - started
        ok = (
            stats.total_pairs == REFERENCE_TOTAL
            and stats.incidental_count == REFERENCE_INCIDENTAL
            and stats.influential_count == REFERENCE_INFLUENTIAL
            and abs(stats.positive_after_filter - REFERENCE_POSITIVES_AFTER_FILTER)
            <= REFERENCE_POSITIVE_TOLERANCE
            and elapsed < 60.0
        )
        _verdict(
            name,
            ok,
            f"{stats.total_pairs} pairs, {stats.incidental_count}/"
            f"{stats.influential_count}, {stats.positive_after_filter} after filter, "
            f"{elapsed:.1f}s",
        )

    def test_criterion_2_correlation_reproduction(self, reference_features):
        name = "2 correlation reproduction"
        if reference_features is None:
            _skip(name, "reference dataset not available; criterion 5 substitutes apply")
        _, rows = reference_features
        labels = [p.label for p, _ in rows]
        ok = True
        details = []
        for j, feature in enumerate(("f1", "f4", "f9")):
            result = pearson([v[j] for _, v in rows], labels)
            details.append(f"{feature} r={result.r:.3f} p={result.p_value:.2g}")
            if abs(result.r - REFERENCE_CORRELATIONS[feature]) > CORRELATION_TOLERANCE:
                ok = False
            if result.p_value >= 0.01:
                ok = False
        _verdict(name, ok, ", ".join(details))

    def test_criterion_3_precision_grid_reproduction(self, reference_features):
        name = "3 precision grid reproduction"
        if reference_features is None:
            _skip(name, "reference dataset not available; criterion 5 substitutes apply")
        _, rows = reference_features
        # pair-id order, as run_evaluation puts them
        X, y = xy([(vec, pair.label) for pair, vec in sorted(rows, key=lambda r: pair_key(r[0]))])
        levels = sorted(REFERENCE_ALL_GRID)
        sums = {level: 0.0 for level in levels}
        for seed in GRID_SEEDS:
            scores = cross_validate(X, y, 100, k=10, seed=seed)
            grid = interpolated_precision(pr_curve(scores, y), levels)
            for level in levels:
                sums[level] += grid[level]
        means = {level: sums[level] / len(GRID_SEEDS) for level in levels}
        ok = all(
            abs(means[level] - REFERENCE_ALL_GRID[level]) <= GRID_TOLERANCE for level in levels
        )
        _verdict(
            name, ok, ", ".join(f"P@R={level:g}: {means[level]:.2f}" for level in levels)
        )

    def test_criterion_4_feature_ordering(self, reference_features):
        name = "4 feature ordering"
        if reference_features is None:
            _skip(name, "reference dataset not available; criterion 5 substitutes apply")
        _, rows = reference_features
        labels = [p.label for p, _ in rows]
        r = {
            feature: pearson([v[j] for _, v in rows], labels).r
            for j, feature in enumerate(("f1", "f4", "f9"))
        }
        ok = r["f9"] > r["f1"] > r["f4"]
        _verdict(name, ok, f"f9={r['f9']:.3f}, f1={r['f1']:.3f}, f4={r['f4']:.3f}")

    def test_criterion_6_external_comparisons_excluded(self):
        print(
            "[acceptance] 6 external-system comparisons: NOT APPLICABLE "
            "(out of scope by design)"
        )


def _scored(ranking):
    """(scores, labels) arrays from a list of (score, label)."""
    return np.array([score for score, _ in ranking]), np.array([label for _, label in ranking])


class TestSubstituteCriterion5:
    def test_5a_module_invariants(self):
        # corpus round-trip identity
        record = make_paper(
            "rt", title="Tïtle", authors=["Ada Byron"], abstract="A", body="B",
            references=["[1] X. 2000. Y."],
        )
        assert paper_from_dict(asdict(record)) == record

        # filter idempotence
        corpus = make_corpus(
            make_paper("a", abstract="x"), make_paper("b"), make_paper("c", abstract="y")
        )
        pairs = [CitationPair("a", "b", 1), CitationPair("a", "c", 0)]
        once = filter_valid_pairs(pairs, corpus)
        assert filter_valid_pairs(once, corpus) == once

        # no dangling citation links; per-entry counts sum to detections
        rng = random.Random(1)
        for _ in range(25):
            n = rng.randint(2, 7)
            entries = [
                parse_bib_entry(f"[{i}] Name{i}, Q. {2000 + i}. Work {i}.", i)
                for i in range(1, n + 1)
            ]
            keys = [rng.randint(1, n) for _ in range(rng.randint(1, 8))]
            text = " ".join(f"claim [{k}]." for k in keys)
            cites, unresolved = find_in_text_citations(text, entries)
            assert unresolved == []
            assert len(cites) == len(keys)
            assert all(1 <= c.entry_index <= n for c in cites)

        # cosine symmetry, scale invariance, self-similarity
        for _ in range(50):
            a = {i: rng.uniform(0.1, 4) for i in rng.sample(range(8), 3)}
            b = {i: rng.uniform(0.1, 4) for i in rng.sample(range(8), 3)}
            assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-12)
            assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)
            scaled = {k: 3.7 * v for k, v in a.items()}
            assert cosine_similarity(scaled, b) == pytest.approx(
                cosine_similarity(a, b), abs=1e-9
            )

        # author overlap symmetry and duplicate invariance
        a_names = ["John Smith", "Anna Jones", "john smith"]
        b_names = ["Anna Jones", "Ken Lee"]
        assert author_overlap(a_names, b_names) == author_overlap(b_names, a_names)
        assert author_overlap(a_names, b_names) == author_overlap(a_names[:2], b_names)

        # forest: determinism, non-worsening Gini
        X, y = xy([((float(i), i % 3 / 3, (i * 7 % 10) / 10), int(i >= 5)) for i in range(10)])
        model_a = train(X, y, 10, 31)
        assert_same_model(train(X, y, 10, 31), model_a)

        def gini(c0, c1):
            n = c0 + c1
            return 0.0 if n == 0 else 1.0 - ((c0 / n) ** 2 + (c1 / n) ** 2)

        for tree in model_a.trees:
            for node in tree.nodes:
                if node.feature == -1:
                    continue
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                n = node.count0 + node.count1
                weighted = (
                    (left.count0 + left.count1) * gini(left.count0, left.count1)
                    + (right.count0 + right.count1) * gini(right.count0, right.count1)
                ) / n
                assert weighted <= gini(node.count0, node.count1) + 1e-12

        # cross-validation partition: every pair in one fold, scored once
        X, y = xy([((float(i % 2), 0.1 * i, 0.2), i % 2) for i in range(12)])
        assert sorted(set(stratified_folds(y, 3, seed=2).tolist())) == [0, 1, 2]
        scores = cross_validate(X, y, 4, 3, 2)
        assert scores.shape == y.shape and np.isfinite(scores).all()

        # evaluation: permutation invariance of the pair rows
        pairs = [CitationPair(f"p{i:02d}", "t", i % 2) for i in range(12)]
        rows = [(p, (float(p.label) + i % 3, 0.1 * (i % 4), 0.2)) for i, p in enumerate(pairs)]
        shuffled = list(rows)
        random.Random(3).shuffle(shuffled)
        a, b = (run_evaluation(r, 4, k=3, seed=2)
                for r in (rows, shuffled))
        assert (a.pr_grid, a.pr_points, a.map_score) == (b.pr_grid, b.pr_points, b.map_score)

        # stratification balance
        folds = stratified_folds(y, 3, seed=5)
        for label in (0, 1):
            sizes = Counter(folds[y == label].tolist()).values()
            assert max(sizes) - min(sizes) <= 1

        _verdict("5a module invariants", True)

    def test_5b_metric_oracles(self):
        # Pearson vs direct formula to 1e-12
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(4, 20)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            values = [y * 2.0 + rng.uniform(-1, 1) for y in labels]
            mx, my = sum(values) / n, sum(labels) / n
            cov = sum((x - mx) * (y - my) for x, y in zip(values, labels))
            sx = math.sqrt(sum((x - mx) ** 2 for x in values))
            sy = math.sqrt(sum((y - my) ** 2 for y in labels))
            assert pearson(values, labels).r == pytest.approx(cov / (sx * sy), abs=1e-12)

        # AP and P/R against hand-enumerated tables (fixtures of <= 10 elements)
        table = [
            # (ranked labels best-score-first, expected AP)
            ([1, 0, 1, 0], (1 + 2 / 3) / 2),
            ([1, 1, 0, 0], 1.0),
            ([0, 0, 1], 1 / 3),
            ([1], 1.0),
            ([0, 1, 0, 1, 1, 0, 0, 0, 1, 0], (1 / 2 + 2 / 4 + 3 / 5 + 4 / 9) / 4),
        ]
        for ranked_labels, want_ap in table:
            ranking = [(1.0 - 0.05 * i, label) for i, label in enumerate(ranked_labels)]
            curve = pr_curve(*_scored(ranking))
            assert mean_average_precision(curve) == pytest.approx(want_ap, abs=1e-12)
            positives = sum(ranked_labels)
            true_pos = 0
            for rank, label in enumerate(ranked_labels, start=1):
                true_pos += label
                assert curve[rank - 1] == (
                    pytest.approx(true_pos / positives),
                    pytest.approx(true_pos / rank),
                )

        # interpolated precision monotone over 1000 random score lists
        for _ in range(1000):
            n = rng.randint(1, 25)
            ranking = [(rng.random(), rng.randint(0, 1)) for _ in range(n)]
            if not any(label for _, label in ranking):
                ranking[0] = (ranking[0][0], 1)
            curve = pr_curve(*_scored(ranking))
            levels = sorted(rng.uniform(0.01, 1.0) for _ in range(6))
            grid = interpolated_precision(curve, levels)
            values = [grid[level] for level in levels]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

        _verdict("5b metric oracles", True)

    def test_5c_forest_split_oracle(self):
        rng = random.Random(13)
        for case in range(8):
            data = []
            for _ in range(20):  # two features, so the root scores both (k = d = 2)
                f1 = float(rng.randint(0, 6))
                f4 = rng.random()
                label = int((f1 >= 3) != (f4 > 0.7))
                data.append(((f1, f4), label))
            if len({label for _, label in data}) < 2:
                data[0] = (data[0][0], 1 - data[0][1])

            seed = 100 + case
            model = train(*xy(data), 1, seed)
            stream = SplitMix64(derive_seed(seed, 0))
            boot = [stream.randbelow(len(data)) for _ in range(len(data))]
            want = brute_force_best_split(
                [data[i][0] for i in boot], [data[i][1] for i in boot]
            )
            root = model.trees[0].nodes[0]
            if want is None:
                assert root.feature == -1
            else:
                assert root.feature == want[1]
                assert root.threshold == pytest.approx(want[2], abs=1e-12)
        _verdict("5c forest split oracle", True)

    def test_5d_parsing_golden_documents(self):
        target = target_paper()
        docs = citing_papers()
        assert len(docs) == 10
        pairs = [CitationPair(doc.id, target.id, 0) for doc in docs]
        rows, _ = compute_feature_matrix(make_corpus(target, *docs), pairs)
        counts = {pair.citing_id: vec.f1_direct_count for pair, vec in rows}
        mismatches = [
            (doc.id, counts.get(doc.id), EXPECTED_TARGET_COUNTS[doc.id])
            for doc in docs
            if counts.get(doc.id) != EXPECTED_TARGET_COUNTS[doc.id]
        ]
        _verdict("5d parsing golden documents", not mismatches, str(mismatches))

    def test_5e_end_to_end_determinism(self, tmp_path, monkeypatch):
        artifacts = (
            "ingest_report.json",
            "features.csv",
            "features_warnings.json",
            "report.json",
            "pr_grid.csv",
            "correlations.csv",
            "pr_points.csv",
        )
        digests = []
        for run in ("one", "two"):
            workdir = tmp_path / run
            workdir.mkdir()
            write_dataset(workdir)
            monkeypatch.chdir(workdir)
            args = ["--corpus", "corpus", "--pairs", "pairs.tsv", "--output", "out",
                    "--folds", "3", "--trees", "20", "--seed", "42"]
            assert cli_main(["ingest", *args]) == 0
            assert cli_main(["features", *args]) == 0
            assert cli_main(["evaluate", *args]) == 0
            digests.append([(workdir / "out" / name).read_bytes() for name in artifacts])
        _verdict("5e end-to-end determinism", digests[0] == digests[1])
