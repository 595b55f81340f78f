import math
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import citegauge
from citegauge import evaluation, forest
from citegauge.corpus import CitationPair, filter_valid_pairs, load_corpus, load_pairs, pair_key
from citegauge.errors import ConfigurationError, EvaluationError, TrainingError
from citegauge.evaluation import (
    build_report,
    cross_validate,
    interpolated_precision,
    mean_average_precision,
    pearson,
    pr_curve,
    report_to_dict,
    run_evaluation,
    stratified_folds,
)
from citegauge.features import compute_feature_matrix
from citegauge.forest import derive_seed, predict_proba, train

from conftest import xy
from oracles import oracle_pearson_p, oracle_pearson_p_closed_form, oracle_stratified_folds


def _pairs(labels):
    return [CitationPair(f"c{i:03d}", "t", label) for i, label in enumerate(labels)]


def _scored(ranking):
    """(scores, labels) arrays from a list of (score, label)."""
    return np.array([score for score, _ in ranking]), np.array([label for _, label in ranking])


def _curve(ranking):
    return pr_curve(*_scored(ranking))


class TestStratifiedFolds:
    def test_balanced_exact_division(self):
        labels = np.array([0] * 10 + [1] * 10)
        folds = stratified_folds(labels, 10, seed=1)
        for fold in range(10):
            members = labels[folds == fold]
            assert len(members) == 2
            assert members.sum() == 1

    def test_61_positives_round_robin(self):
        labels = np.array([1] * 61 + [0] * 200)
        folds = stratified_folds(labels, 10, seed=3)
        counts = Counter(folds[labels == 1].tolist())
        # 61 = 6*10 + 1: one fold of 7, nine folds of 6
        assert sorted(counts.values()) == [6] * 9 + [7]

    def test_deterministic(self):
        labels = np.array([0, 1] * 15)
        a = stratified_folds(labels, 5, seed=9)
        b = stratified_folds(labels, 5, seed=9)
        assert a.tolist() == b.tolist()

    def test_partition_and_balance(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(8, 60)
            labels = np.array([int(rng.random() < 0.3) for _ in range(n)])
            k = rng.randint(2, min(8, n))
            folds = stratified_folds(labels, k, seed=rng.randint(0, 999))
            assert len(folds) == n
            assert set(folds.tolist()) <= set(range(k))
            for label in (0, 1):
                counts = Counter(folds[labels == label].tolist())
                if counts:
                    sizes = [counts.get(f, 0) for f in range(k)]
                    assert max(sizes) - min(sizes) <= 1

    def test_small_class_spreads_one_per_fold(self):
        labels = np.array([0] * 12 + [1] * 3)
        folds = stratified_folds(labels, 5, seed=2)
        assert len(set(folds[labels == 1].tolist())) == 3

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            stratified_folds(np.array([0, 1]), 1, seed=0)
        with pytest.raises(ConfigurationError):
            stratified_folds(np.array([0, 1]), 3, seed=0)

    def test_matches_a_scalar_shuffle(self):
        rng = random.Random(23)
        seeds = [0, 1, -1, -(2**70), 2**63, 2**64 - 1, 2**64, 2**64 + 7, 3 * 2**80]
        seeds += [rng.getrandbits(64) for _ in range(60)]
        for seed in seeds:
            n = rng.randint(2, 80)
            positives = rng.choice([0, 1, n - 1, n, rng.randint(0, n)])
            labels = [1] * positives + [0] * (n - positives)
            rng.shuffle(labels)
            k = rng.randint(2, min(12, n))
            got = stratified_folds(np.array(labels), k, seed).tolist()
            assert got == oracle_stratified_folds(labels, k, seed), (seed, labels, k)

    @pytest.mark.parametrize(
        "labels, row", [([0, 1, 2] * 4, 2), ([0, 1, 0.5, 1], 2), ([-1, 0, 1], 0)]
    )
    def test_label_other_than_0_1_rejected_naming_row(self, labels, row):
        # Only classes 0 and 1 are dealt, so any other label would keep no fold.
        with pytest.raises(EvaluationError, match=f"row {row}$"):
            stratified_folds(np.array(labels), 3, seed=5)


def _features_for(pairs, spread=5.0):
    return [
        (
            p,
            (
                float(p.label) * spread + 0.1 * (i % 3),
                float(p.label),
                0.1 * (i % 4) + 0.5 * p.label,
            ),
        )
        for i, p in enumerate(pairs)
    ]


def _arrays(labels):
    """Cross-validation inputs (X, y) for pairs with these labels."""
    return xy([(vec, pair.label) for pair, vec in _features_for(_pairs(labels))])


class SlowGrowerFailing:
    """Stands in for ``forest._grow_trees`` and raises TrainingError: at once
    for the forest whose first seed is ``first``, after half a second for any
    other. A module-level class, so a pool can pickle it."""

    def __init__(self, first):
        self.first = first

    def __call__(self, X, y, seeds):
        if seeds[0] != self.first:
            time.sleep(0.5)
        raise TrainingError("grower failed in a worker")


class TestCrossValidate:
    def test_separable_pooled_accuracy(self):
        X, y = _arrays([0, 1] * 10)
        scores = cross_validate(X, y, 15, k=4, seed=11)
        assert ((scores >= 0.5) == (y == 1)).all()

    def test_each_pair_scored_exactly_once_in_input_order(self):
        X, y = _arrays([0, 1] * 6)
        scores = cross_validate(X, y, 5, 3, 2)
        assert scores.shape == y.shape
        folds = stratified_folds(y, 3, 2)
        for fold in range(3):
            test = folds == fold
            model = train(X[~test], y[~test], 5, derive_seed(2, 1000 + fold))
            assert scores[test].tolist() == predict_proba(model, X[test]).tolist()

    def test_fold_isolation(self, monkeypatch):
        X, y = _arrays([0, 1] * 6)
        trained_on = []
        real_train = evaluation.train

        def spy(X, y, trees, seed, pool=None):
            trained_on.append(X.tolist())
            return real_train(X, y, trees, seed, pool=pool)

        monkeypatch.setattr(evaluation, "train", spy)
        cross_validate(X, y, 3, k=3, seed=5)
        folds = stratified_folds(y, 3, 5)
        assert trained_on == [X[folds != fold].tolist() for fold in range(3)]

    def test_previous_fold_model_freed_before_next_trains(self, monkeypatch):
        # A fold's forest must not sit under the next fold's grower peak.
        X, y = _arrays([0, 1] * 6)
        real_train = evaluation.train
        models = []

        def spy(X, y, trees, seed, pool=None):
            assert all(model() is None for model in models)
            model = real_train(X, y, trees, seed, pool=pool)
            models.append(weakref.ref(model))
            return model

        monkeypatch.setattr(evaluation, "train", spy)
        cross_validate(X, y, 3, k=3, seed=5)
        assert len(models) == 3

    def test_deterministic(self):
        X, y = _arrays([0, 1, 0, 1, 0, 1, 1, 0])
        assert cross_validate(X, y, 8, 4, 13).tolist() == cross_validate(X, y, 8, 4, 13).tolist()

    @pytest.mark.usefixtures("two_cpus")
    def test_empty_folds_leave_no_row_unscored(self):
        # Five rows in five folds, dealt class by class: folds 3 and 4 stay empty.
        X, y = _arrays([0, 0, 0, 1, 1])
        folds = stratified_folds(y, 5, 4)
        assert sorted(set(folds.tolist())) == [0, 1, 2]
        scores = cross_validate(X, y, 5, 5, 4)
        for fold in range(3):
            test = folds == fold
            model = train(X[~test], y[~test], 5, derive_seed(4, 1000 + fold))
            assert scores[test].tolist() == predict_proba(model, X[test]).tolist()
        # Two workers over three non-empty folds score them alike.
        assert cross_validate(X, y, 5, 5, 4, workers=2).tobytes() == scores.tobytes()
        assert multiprocessing.active_children() == []

    def test_single_class_training_split_aborts(self):
        # one positive: the fold that holds it trains on negatives only
        X, y = _arrays([0, 0, 0, 1])
        with pytest.raises(EvaluationError, match="single class"):
            cross_validate(X, y, 2, 2, 3)

    @pytest.mark.usefixtures("two_cpus")
    def test_pooled_folds_train_in_the_parent_at_most_two_at_once(self, monkeypatch):
        X, y = _arrays([0, 1] * 10)
        serial = cross_validate(X, y, 15, 4, 11)
        real_train = evaluation.train
        lock, in_flight, calls = threading.Lock(), [0], []
        # Two threads take four folds in pairs: each pair meets here, or the
        # wait times out and the fold fails.
        pair_up = threading.Barrier(2, timeout=60)

        def spy(X, y, trees, seed, pool=None):
            with lock:
                in_flight[0] += 1
                calls.append((os.getpid(), in_flight[0]))
            try:
                pair_up.wait()
                return real_train(X, y, trees, seed, pool=pool)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(evaluation, "train", spy)
        pooled = cross_validate(X, y, 15, 4, 11, workers=2)
        assert multiprocessing.active_children() == []
        assert [pid for pid, _ in calls] == [os.getpid()] * 4
        assert max(count for _, count in calls) == 2
        assert pooled.tobytes() == serial.tobytes()

    @pytest.mark.usefixtures("two_cpus")
    def test_pooled_worker_error_waits_for_the_folds_growing(self, monkeypatch):
        X, y = _arrays([0, 1] * 10)
        first = derive_seed(derive_seed(5, 1000), 0)  # fold 0's first tree seed
        monkeypatch.setattr(forest, "_grow_trees", SlowGrowerFailing(first))  # workers fork after it
        threads = threading.active_count()
        with pytest.raises(TrainingError, match="in a worker"):
            cross_validate(X, y, 3, 4, 5, workers=2)
        # No fold thread is left waiting on a worker the pool's exit stopped.
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("two_cpus")
    def test_pooled_failure_trains_no_fold_not_started(self, monkeypatch):
        X, y = _arrays([0, 1] * 10)
        fold_of = {derive_seed(5, 1000 + fold): fold for fold in range(4)}
        real_train, trained, failed = evaluation.train, [], threading.Event()

        def spy(X, y, trees, seed, pool=None):
            trained.append(fold_of[seed])
            if fold_of[seed] == 1:
                failed.set()
                raise TrainingError("fold 1 failed")
            if fold_of[seed] == 0:  # still growing, and awaited, while fold 1's thread is free
                assert failed.wait(60)
                time.sleep(0.3)
            return real_train(X, y, trees, seed, pool=pool)

        monkeypatch.setattr(evaluation, "train", spy)
        with pytest.raises(TrainingError, match="fold 1 failed"):
            cross_validate(X, y, 3, 4, 5, workers=2)
        assert sorted(trained) == [0, 1]
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("two_cpus")
    def test_pooled_forks_on_the_main_thread_before_any_fold_thread(self, monkeypatch):
        # A fork while another thread runs can copy a lock that thread holds.
        X, y = _arrays([0, 1] * 10)
        real_fork, real_train, forks, folds = os.fork, evaluation.train, [], []

        def fork():
            forks.append((threading.current_thread() is threading.main_thread(),
                          threading.active_count()))
            return real_fork()

        def spy(X, y, trees, seed, pool=None):
            folds.append((threading.current_thread() is threading.main_thread(), len(forks)))
            return real_train(X, y, trees, seed, pool=pool)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(evaluation, "train", spy)
        threads = threading.active_count()
        pooled = cross_validate(X, y, 5, 4, 11, workers=2)
        assert forks == [(True, threads)] * 2
        assert folds == [(False, 2)] * 4
        assert pooled.tobytes() == cross_validate(X, y, 5, 4, 11).tobytes()

    def test_killed_worker_fails_instead_of_hanging(self):
        # A fresh interpreter with a time limit, so that a pool which waits on
        # a dead worker fails this test instead of hanging the suite.
        script = textwrap.dedent(
            """
            import multiprocessing, os
            import numpy as np
            from citegauge import evaluation, forest

            def die(*args):  # pickled by name; the forked worker finds it in __main__
                os._exit(9)

            os.sched_getaffinity = lambda pid: {0, 1}
            forest._grow_trees = die
            X, y = np.arange(40.0).reshape(20, 2), np.arange(20) % 2
            try:
                evaluation.cross_validate(X, y, 3, 4, 5, workers=2)
            except RuntimeError as exc:
                print(type(exc).__name__, multiprocessing.active_children())
            """
        )
        env = {**os.environ, "PYTHONPATH": str(Path(citegauge.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "BrokenProcessPool []\n"), result.stderr

    # A lone positive is dealt to fold 0; with one class, every split is single-class.
    @pytest.mark.parametrize("labels", [[0, 0, 0, 1, 0, 0], [1] * 6])
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.usefixtures("two_cpus")
    def test_single_class_split_raises_before_any_forest_grows(self, monkeypatch, labels, pooled):
        X, y = _arrays(labels)
        trained = []
        monkeypatch.setattr(evaluation, "train", lambda *args, **kwargs: trained.append(args))
        with pytest.raises(EvaluationError, match="^fold 0: training split contains a single"):
            cross_validate(X, y, 2, 3, 3, workers=2 if pooled else 1)
        assert trained == []

    @pytest.mark.usefixtures("two_cpus")
    def test_single_class_split_forks_no_process(self, monkeypatch):
        # The pool opens only once every training split has two classes.
        import concurrent.futures

        real_pool, opened = concurrent.futures.ProcessPoolExecutor, []

        def spy(*args, **kwargs):
            opened.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        rows = _features_for(_pairs([0, 0, 0, 1, 0, 0]))  # fold 0 holds the lone positive
        with pytest.raises(EvaluationError, match="^fold 0: training split contains a single"):
            run_evaluation(rows, 2, k=3, seed=3, workers=2)
        assert opened == []
        assert multiprocessing.active_children() == []


class TestPrCurve:
    def test_perfect_ranking(self):
        points = _curve([(0.9, 1), (0.8, 1), (0.3, 0), (0.2, 0)])
        assert (0.5, 1.0) in points
        assert (1.0, 1.0) in points

    def test_worst_ranking(self):
        points = _curve([(0.9, 0), (0.8, 0), (0.3, 1), (0.2, 1)])
        assert points[-1] == (1.0, 0.5)

    def test_singleton_positive(self):
        assert _curve([(0.4, 1)]) == [(1.0, 1.0)]

    def test_no_positives_raises(self):
        with pytest.raises(EvaluationError):
            _curve([(0.5, 0), (0.1, 0)])

    def test_tie_break_by_pair_id(self):
        # Tied scores keep row order, which run_evaluation makes pair-id order.
        assert _curve([(0.2, 0), (0.5, 1), (0.5, 0)])[0] == (1.0, 1.0)
        assert _curve([(0.2, 1), (0.5, 0), (0.5, 1)])[0] == (0.0, 0.0)

    def test_curve_length_equals_input(self):
        rng = random.Random(1)
        assert len(_curve([(rng.random(), i % 2) for i in range(9)])) == 9


class TestInterpolatedPrecision:
    def test_perfect_curve_is_one_everywhere(self):
        curve = _curve([(0.9, 1), (0.8, 1), (0.3, 0), (0.2, 0)])
        grid = interpolated_precision(curve, [0.05, 0.5, 0.9, 1.0])
        assert all(v == 1.0 for v in grid.values())

    def test_hand_curve(self):
        curve = [(0.5, 1.0), (1.0, 0.4)]
        grid = interpolated_precision(curve, [0.3, 0.9])
        assert grid[0.3] == 1.0
        assert grid[0.9] == 0.4

    def test_level_beyond_curve_maps_to_zero(self):
        assert interpolated_precision([(0.5, 1.0)], [0.9])[0.9] == 0.0

    def test_monotone_on_random_score_lists(self):
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randint(1, 30)
            ranking = [(rng.random(), rng.randint(0, 1)) for _ in range(n)]
            if not any(label for _, label in ranking):
                ranking[0] = (ranking[0][0], 1)
            curve = _curve(ranking)
            levels = sorted(rng.uniform(0.01, 1.0) for _ in range(5))
            grid = interpolated_precision(curve, levels)
            values = [grid[lv] for lv in levels]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def _values_with_r(r, n):
    """n labels, a third of them 0, and values whose Pearson r with the labels
    is r up to rounding: sqrt(1 - r^2) times a vector of alternating +1/-1
    within each class, which is centred and orthogonal to the labels, plus r
    times the centred labels scaled to that vector's length."""
    zeros = max(1, n // 3)
    labels = [0] * zeros + [1] * (n - zeros)
    centred = [y - (n - zeros) / n for y in labels]
    other = [0.0] * n
    for start, size in ((0, zeros), (zeros, n - zeros)):
        for i in range(size - size % 2):
            other[start + i] = 1.0 if i % 2 == 0 else -1.0
    a = r * math.sqrt(sum(v * v for v in other) / sum(v * v for v in centred))
    b = math.sqrt(1.0 - r * r)
    return [a * c + b * o for c, o in zip(centred, other)], labels


class TestPearson:
    def test_identity(self):
        result = pearson([0, 1, 0, 1, 1], [0, 1, 0, 1, 1])
        assert result.r == pytest.approx(1.0)
        assert result.p_value == pytest.approx(0.0, abs=1e-10)

    def test_anticorrelation(self):
        labels = [0, 1, 0, 1, 1, 0]
        values = [1 - y for y in labels]
        assert pearson(values, labels).r == pytest.approx(-1.0)

    def test_eight_point_brute_force(self):
        values = [0.2, 1.4, 0.3, 2.2, 1.9, 0.1, 2.8, 0.6]
        labels = [0, 1, 0, 1, 1, 0, 1, 0]
        n = len(values)
        mx = sum(values) / n
        my = sum(labels) / n
        cov = sum((x - mx) * (y - my) for x, y in zip(values, labels))
        sx = math.sqrt(sum((x - mx) ** 2 for x in values))
        sy = math.sqrt(sum((y - my) ** 2 for y in labels))
        want = cov / (sx * sy)
        assert pearson(values, labels).r == pytest.approx(want, abs=1e-12)

    def test_p_value_matches_scipy(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(5, 40)
            labels = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[0]
            values = [y * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1) for y in labels]
            got = pearson(values, labels)
            want_r, want_p = scipy.stats.pearsonr(values, labels)
            assert got.r == pytest.approx(want_r, abs=1e-12)
            assert got.p_value == pytest.approx(want_p, abs=1e-10)
            assert got.n == n

    @pytest.mark.parametrize("n", [3, 465, 640, 5000])
    def test_p_value_relative_accuracy(self, n):
        rng = random.Random(n)
        targets = [i / 100 for i in range(100)] + [0.995, 0.999, 0.9999]
        targets += [10 ** rng.uniform(-6, -2) for _ in range(20)] + [1e-6]
        checked = []
        for target in targets:
            for sign in (1, -1):
                got = pearson(*_values_with_r(sign * target, n))
                want = oracle_pearson_p(got.r, n - 2)
                if want < 1e-300:
                    continue
                assert got.p_value == pytest.approx(want, rel=1e-9, abs=0), (n, got.r)
                checked.append(want)
        assert max(checked) > 1 - 1e-5
        assert min(checked) < (1e-2 if n == 3 else 1e-280)

    @pytest.mark.parametrize("n", [3, 4])
    def test_p_value_matches_closed_form(self, n):
        for target in (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 0.9999999):
            for sign in (1, -1):
                got = pearson(*_values_with_r(sign * target, n))
                want = oracle_pearson_p_closed_form(got.r, n - 2)
                assert got.p_value == pytest.approx(want, rel=1e-12, abs=0), (n, got.r)

    @pytest.mark.parametrize("n", [3, 4, 465, 5000])
    def test_p_value_is_one_at_zero_r(self, n):
        got = pearson(*_values_with_r(0.0, n))
        if n < 5:  # every product and sum is exact, so r is exactly 0
            assert (got.r, got.p_value) == (0.0, 1.0)
        assert abs(got.r) < 1e-15
        assert got.p_value == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 465])
    def test_p_value_is_zero_as_r_nears_one(self, n):
        labels = [0, 1] * (n // 2) + [1] * (n % 2)
        assert pearson(labels, labels).p_value == 0.0
        assert pearson([1 - y for y in labels], labels).p_value == 0.0
        ruled = set()
        for k in range(12):
            for sign in (1, -1):
                got = pearson(*_values_with_r(sign * (1 - k * 1e-16), n))
                near_one = 1.0 - got.r * got.r < 1e-15
                ruled.add(near_one)
                if near_one:
                    assert got.p_value == 0.0, got.r
                elif n < 5:
                    assert got.p_value > 0.0, got.r
        assert ruled == {True, False}

    @pytest.mark.parametrize("dof", [10**4, 10**5, 10**6])
    def test_p_value_relative_accuracy_at_large_dof(self, dof):
        # pearson's own call, p = I_x(dof/2, 1/2), without a million-row input.
        checked = []
        for t in (1e-6, 1e-3, 0.1, 0.5, 1, 2, 3, 5, 8, 12, 20, 30, 36):
            r = t / math.sqrt(dof + t * t)
            t_sq = r * r * dof / (1.0 - r * r)
            got = evaluation._betainc(dof / 2.0, 0.5, dof / (dof + t_sq), t_sq / (dof + t_sq))
            want = oracle_pearson_p(r, dof)
            if want < 1e-300:
                continue
            assert got == pytest.approx(want, rel=1e-12, abs=0), (dof, t)
            checked.append(want)
        assert max(checked) > 1 - 1e-5
        assert min(checked) < 1e-190

    def test_unconverged_fraction_raises(self):
        with pytest.raises(EvaluationError, match="did not converge"):
            evaluation._betainc(1.5, 0.5, math.nan, math.nan)

    def test_affine_invariance(self):
        rng = random.Random(15)
        values = [rng.uniform(0, 3) for _ in range(12)]
        labels = [rng.randint(0, 1) for _ in range(12)]
        labels[0], labels[1] = 0, 1
        base = pearson(values, labels).r
        for a, b in [(2.0, 0.0), (0.5, 3.0), (10.0, -7.0)]:
            transformed = [a * v + b for v in values]
            assert pearson(transformed, labels).r == pytest.approx(base, abs=1e-12)

    def test_zero_variance(self):
        with pytest.raises(EvaluationError):
            pearson([1.0, 1.0, 1.0], [0, 1, 0])
        with pytest.raises(EvaluationError):
            pearson([1.0, 2.0, 3.0], [1, 1, 1])

    def test_too_few_points(self):
        with pytest.raises(EvaluationError):
            pearson([1.0, 2.0], [0, 1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(EvaluationError, match="non-finite"):
            pearson([1.0, bad, 2.0], [0, 1, 1])


class TestMeanAveragePrecision:
    def test_single_positive_first(self):
        assert mean_average_precision(_curve([(0.9, 1), (0.5, 0), (0.1, 0)])) == 1.0

    def test_single_positive_last(self):
        curve = _curve([(0.9, 0), (0.5, 0), (0.2, 0), (0.1, 1)])
        assert mean_average_precision(curve) == pytest.approx(1 / 4)

    def test_positives_at_ranks_one_and_three(self):
        curve = _curve([(0.9, 1), (0.7, 0), (0.5, 1), (0.2, 0)])
        assert mean_average_precision(curve) == pytest.approx((1 + 2 / 3) / 2)

    def test_equals_mean_precision_at_positive_curve_points(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(2, 25)
            ranking = [(rng.random(), rng.randint(0, 1)) for _ in range(n)]
            if not any(label for _, label in ranking):
                ranking[0] = (ranking[0][0], 1)
            ranked = sorted(range(n), key=lambda i: (-ranking[i][0], i))
            curve = _curve(ranking)
            positive_points = [
                precision
                for (recall, precision), i in zip(curve, ranked)
                if ranking[i][1] == 1
            ]
            want = sum(positive_points) / len(positive_points)
            assert mean_average_precision(curve) == pytest.approx(want, abs=1e-12)

    def test_no_positives_raises(self):
        with pytest.raises(EvaluationError):
            mean_average_precision([(0.0, 0.0), (0.0, 0.0)])


class TestDirectRankScores:
    """Direct rank scores each single feature by its raw value."""

    def test_ranks_by_raw_value(self):
        rows = _features_for(_pairs([0, 1, 0, 1, 1, 0]))
        rows[3] = (rows[3][0], (-2.0, *rows[3][1][1:]))  # negative values rank last
        report = run_evaluation(rows, 3, k=2, seed=1)
        X, y = xy([(vec, pair.label) for pair, vec in rows])
        for j, name in enumerate(("f1", "f4", "f9")):
            assert report.pr_points[name] == pr_curve(X[:, j], y)

    def test_all_zero_feature(self):
        # every pair ties on f4, so its ranking is pair-id order
        pairs = _pairs([0, 1, 1, 0, 1, 0])
        rows = [(p, (float(i), 0.0, float(i % 2))) for i, p in enumerate(pairs)]
        rows.reverse()
        report = run_evaluation(rows, 3, k=2, seed=1)
        assert report.pr_points["f4"] == pr_curve(np.zeros(6), np.array([0, 1, 1, 0, 1, 0]))

    def test_rank_metrics_invariant_under_monotone_transform(self):
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0])
        raw = np.array([float(i % 5) for i in range(len(labels))])
        squashed = np.tanh(raw) + 1.0
        curve_a = pr_curve(raw, labels)
        curve_b = pr_curve(squashed, labels)
        assert curve_a == curve_b
        assert mean_average_precision(curve_a) == mean_average_precision(curve_b)


class TestBuildReport:
    def _inputs(self):
        return _features_for(_pairs([0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1]))

    def test_report_contents(self):
        features = self._inputs()
        report = run_evaluation(
            features,
            10,
            k=3,
            seed=3,
            recall_levels=(0.1, 0.5, 0.9),
        )
        assert set(report.pr_grid) == {"f1", "f4", "f9", "all"}
        assert set(report.correlations) == {"f1", "f4", "f9"}
        assert 0.0 <= report.map_score <= 1.0
        for grid in report.pr_grid.values():
            levels = sorted(grid)
            values = [grid[lv] for lv in levels]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_separable_grid_is_all_ones(self):
        features = self._inputs()
        report = run_evaluation(features, 10, k=3, seed=7)
        assert all(v == 1.0 for v in report.pr_grid["f1"].values())
        assert all(v == 1.0 for v in report.pr_grid["all"].values())
        assert report.map_score == 1.0

    def test_hand_computed_grid(self):
        # ranking by f1 gives positives at ranks 1 and 3 of 4
        pairs = _pairs([1, 0, 1, 0])
        features = [
            (pairs[0], (4.0, 0.0, 0.0)),
            (pairs[1], (3.0, 0.0, 0.0)),
            (pairs[2], (2.0, 0.0, 0.0)),
            (pairs[3], (1.0, 0.0, 0.0)),
        ]
        X, y = xy([(vec, pair.label) for pair, vec in features])
        report = build_report(X, y, {"f1": X[:, 0]}, recall_levels=(0.5, 1.0))
        # P@R=0.5: best precision with recall >= 0.5 is 1/1; P@R=1.0 is 2/3
        assert report.pr_grid["f1"][0.5] == 1.0
        assert report.pr_grid["f1"][1.0] == pytest.approx(2 / 3)
        assert report.map_score == pytest.approx((1 + 2 / 3) / 2)
        # constant features have no defined correlation; f1 varies so it does
        assert report.correlations["f1"] is not None
        assert report.correlations["f4"] is None
        assert report.correlations["f9"] is None

    def test_forest_single_feature_mode(self):
        features = self._inputs()
        report = run_evaluation(
            features,
            5,
            k=3,
            seed=19,
            single_feature_mode="forest",
        )
        assert set(report.pr_grid) == {"f1", "f4", "f9", "all"}
        # Feature j's forests cross-validate the pairs in pair-id order with
        # seed derive_seed(seed, 2000 + j). Noisy rows, so the seed shows.
        rng = random.Random(19)
        rows = [
            (p, (float(rng.randint(0, 3)), rng.random(), rng.random() + 0.3 * p.label))
            for p in _pairs([i % 2 for i in range(30)])
        ]
        rng.shuffle(rows)
        report = run_evaluation(rows, 5, k=3, seed=19, single_feature_mode="forest")
        X, y = xy([(vec, pair.label) for pair, vec in sorted(rows, key=lambda r: pair_key(r[0]))])
        for j, name in enumerate(("f1", "f4", "f9")):
            scores = cross_validate(X[:, [j]], y, 5, 3, derive_seed(19, 2000 + j))
            assert report.pr_points[name] == pr_curve(scores, y)

    @pytest.mark.parametrize("mode", ["direct_rank", "forest"])
    def test_row_order_invariance(self, demo_dataset, mode):
        corpus = load_corpus(demo_dataset[0])
        pairs, stats, _ = load_pairs(demo_dataset[1], corpus)
        rows, _ = compute_feature_matrix(corpus, filter_valid_pairs(pairs, corpus, stats))
        shuffled = list(rows)
        random.Random(5).shuffle(shuffled)
        assert [pair_key(p) for p, _ in shuffled] != [pair_key(p) for p, _ in rows]
        a, b = (
            run_evaluation(r, 12, k=3, seed=7,
                           single_feature_mode=mode)
            for r in (rows, shuffled)
        )
        assert (a.pr_grid, a.pr_points, a.map_score) == (b.pr_grid, b.pr_points, b.map_score)
        assert a.correlations == b.correlations

    def test_correlations_do_not_depend_on_row_order(self):
        # Values spread over nine decades: their float sums change with the
        # order they are added in, so equal bits need one summation order.
        rng = random.Random(3)
        rows = [
            (pair, (float(rng.randrange(5)), rng.random() * 10.0 ** -rng.randrange(9),
                    rng.random() * 10.0 ** -rng.randrange(9)))
            for pair in _pairs([int(i % 3 == 0) for i in range(60)])
        ]
        shuffled = list(rows)
        random.Random(5).shuffle(shuffled)
        a, b = (run_evaluation(r, 5, k=3, seed=7)
                for r in (rows, shuffled))
        assert all(corr is not None for corr in a.correlations.values())
        assert a.correlations == b.correlations

    @pytest.mark.parametrize("mode", ["direct_rank", "forest"])
    def test_workers_do_not_change_the_report(self, demo_dataset, mode, monkeypatch):
        corpus = load_corpus(demo_dataset[0])
        pairs, stats, _ = load_pairs(demo_dataset[1], corpus)
        rows, _ = compute_feature_matrix(corpus, filter_valid_pairs(pairs, corpus, stats))
        build = evaluation.build_report

        def build_after_reaping(*args, **kwargs):
            assert multiprocessing.active_children() == []  # workers reaped first
            return build(*args, **kwargs)

        monkeypatch.setattr(evaluation, "build_report", build_after_reaping)
        reports = [
            report_to_dict(run_evaluation(
                rows, 12,
                k=3, seed=7, single_feature_mode=mode, workers=workers,
            ))
            for workers in (1, 2)
        ]
        assert reports[0] == reports[1]
        assert multiprocessing.active_children() == []

    def test_workers_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity is Linux-only; elsewhere the pool is capped by os.cpu_count()
        features = self._inputs()
        serial = report_to_dict(run_evaluation(features, 6, k=3, seed=4))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        pooled = report_to_dict(run_evaluation(features, 6, k=3, seed=4, workers=2))
        assert pooled == serial
        assert multiprocessing.active_children() == []

    def test_unknown_mode_rejected(self):
        features = self._inputs()
        with pytest.raises(ConfigurationError):
            run_evaluation(features, 100, k=3, seed=1, single_feature_mode="direct")
