import hashlib
import math
import multiprocessing
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citegauge import forest
from citegauge.corpus import filter_valid_pairs, load_corpus, load_pairs
from citegauge.errors import ConfigurationError, DataError, TrainingError
from citegauge.features import FeatureVector, compute_feature_matrix
from conftest import FailingGrower, assert_same_model, xy
from oracles import SplitMix64, brute_force_best_split, choose
from citegauge.forest import (
    DecisionTree,
    ForestModel,
    _choose_many,
    _streams,
    derive_seed,
    predict_proba,
    train,
)


def _rows(points):
    return [((float(a), float(b), float(c)), y) for a, b, c, y in points]


SEPARABLE = _rows(
    [
        (0, 0.1, 0.2, 0),
        (1, 0.2, 0.1, 0),
        (2, 0.0, 0.3, 0),
        (3, 0.1, 0.1, 0),
        (4, 0.3, 0.2, 0),
        (10, 0.2, 0.9, 1),
        (11, 0.1, 0.8, 1),
        (12, 0.3, 0.7, 1),
        (13, 0.2, 0.6, 1),
        (14, 0.0, 0.9, 1),
    ]
)


class TestTrainBasics:
    def test_two_point_separable(self):
        data = [((0.0, 0.0, 0.0), 0), ((5.0, 0.0, 0.0), 1)]
        for seed in (0, 1, 7, 12345):
            model = train(*xy(data), 25, seed)
            assert predict_proba(model, (0.0, 0.0, 0.0)) < 0.5
            assert predict_proba(model, (5.0, 0.0, 0.0)) >= 0.5

    def test_deterministic_given_seed(self):
        model_a = train(*xy(SEPARABLE), 20, 99)
        model_b = train(*xy(SEPARABLE), 20, 99)
        assert_same_model(model_a, model_b)
        queries = [(x / 2, 0.1, 0.5) for x in range(10)]
        assert [predict_proba(model_a, q) for q in queries] == [
            predict_proba(model_b, q) for q in queries
        ]

    def test_accepts_feature_vectors(self):
        data = [
            (FeatureVector(0, 0.0, 0.1), 0),
            (FeatureVector(4, 0.5, 0.9), 1),
            (FeatureVector(1, 0.1, 0.2), 0),
            (FeatureVector(5, 0.4, 0.8), 1),
        ]
        model = train(*xy(data), 10, 3)
        assert predict_proba(model, FeatureVector(5, 0.5, 0.9)) >= 0.5

    def test_single_class_rejected(self):
        data = [((1.0, 0.0, 0.0), 1), ((2.0, 0.0, 0.0), 1)]
        with pytest.raises(TrainingError, match="single class"):
            train(*xy(data), 2, 1)

    def test_nan_rejected_naming_row(self):
        data = [((1.0, 0.0, 0.0), 0), ((float("nan"), 0.0, 0.0), 1)]
        with pytest.raises(TrainingError, match="row 1$"):
            train(*xy(data), 2, 1)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_infinite_value_rejected_naming_row(self, bad):
        data = [((1.0, 0.0, 0.0), 0), ((2.0, 0.0, 0.0), 1), ((3.0, bad, 0.0), 1)]
        with pytest.raises(TrainingError, match="row 2$"):
            train(*xy(data), 2, 1)

    @pytest.mark.parametrize(
        "labels, row",
        [([0, 2, 0, 2, 2, 0], 1), ([0, 0.7, 1, 0, 1, 0], 1), ([0, 1, 0, 1, 1, -1], 5)],
    )
    def test_label_other_than_0_1_rejected_naming_row(self, labels, row):
        X = np.arange(12.0).reshape(6, 2)
        with pytest.raises(TrainingError, match=f"row {row}$"):
            train(X, labels, 2, 1)

    def test_empty_data_rejected(self):
        with pytest.raises(TrainingError):
            train(*xy([]), 100, 42)

    def test_too_many_rows_rejected(self):
        X = np.zeros((forest._MAX_ROWS + 1, 1))
        y = np.arange(len(X)) % 2
        with pytest.raises(TrainingError, match=f"at most {forest._MAX_ROWS}"):
            train(X, y, 1, 1)

    @pytest.mark.parametrize(
        "X, y, shape",
        [
            (np.zeros(4), [0, 1, 0, 1], r"\(4,\)"),
            (np.zeros((4, 0)), [0, 1, 0, 1], r"\(4, 0\)"),
            (np.zeros((4, 2, 1)), [0, 1, 0, 1], r"\(4, 2, 1\)"),
            (np.zeros((4, 2)), [[0], [1], [0], [1]], r"\(4, 1\)"),
        ],
        ids=["1-D X", "no features", "3-D X", "2-D y"],
    )
    def test_malformed_shape_rejected_naming_it(self, X, y, shape):
        with pytest.raises(ConfigurationError, match=f"shape {shape}"):
            train(X, y, 2, 1)

    @pytest.mark.parametrize("trees", [0, -1])
    def test_fewer_than_one_tree_rejected(self, trees):
        with pytest.raises(ConfigurationError, match=f"trees must be >= 1, got {trees}$"):
            train(*xy(SEPARABLE), trees, 1)

    @pytest.mark.parametrize("trees", [2.5, True, "3"])
    def test_non_integer_tree_count_rejected_before_the_data(self, trees):
        # the data is malformed too: the tree count is checked first
        with pytest.raises(ConfigurationError, match=f"trees must be an integer, got {trees!r}$"):
            train(np.zeros(4), [0, 1], trees, 1)

    def test_numpy_integer_tree_count_accepted(self):
        assert_same_model(train(*xy(SEPARABLE), np.int64(3), 1), train(*xy(SEPARABLE), 3, 1))

    def test_label_count_must_match_rows(self):
        X, y = xy(SEPARABLE)
        with pytest.raises(ConfigurationError, match="10 training rows but 9 labels"):
            train(X, y[:-1], 2, 1)

    def test_monotone_sanity_full_training_accuracy(self):
        model = train(*xy(SEPARABLE), 100, 42)
        for row, label in SEPARABLE:
            assert (predict_proba(model, row) >= 0.5) == bool(label)


@pytest.fixture(scope="class", autouse=True)
def bin_rows(request):
    """Sets ``forest._BIN_ROWS`` to the test class's ``BIN_ROWS``, if it has one,
    for the class's tests. Class scope, so Hypothesis tests may use it."""
    value = getattr(request.cls, "BIN_ROWS", None)
    saved = forest._BIN_ROWS
    if value is not None:
        forest._BIN_ROWS = value
    yield
    forest._BIN_ROWS = saved


EVERY_FEATURE_SORTED = forest._MAX_ROWS + 1  # more rows per value than any column has
EVERY_FEATURE_BINNED = 0


class TestEveryNodeOracle:
    """Every node of every tree against exhaustive enumeration, with the node's
    rows and sampled features recomputed from the documented seed derivation.
    Every column is split from a sorted row order here; the subclass below runs
    the same tests with every column split from value histograms."""

    BIN_ROWS = EVERY_FEATURE_SORTED

    def _data(self, seed, size=40, d=3):
        """Rows of d features: f1-, f4- and f9-like, then coarse noise columns."""
        rng = random.Random(seed)
        data = []
        for _ in range(size):
            f1 = float(rng.randint(0, 6))
            f4 = round(rng.random(), 2)
            f9 = rng.random()
            label = int((f1 >= 3) != (f9 > 0.75))
            noise = tuple(round(rng.random(), 1) for _ in range(d - 3))
            data.append(((f1, f4, f9, *noise)[:d], label))
        if len({label for _, label in data}) < 2:
            data[0] = (data[0][0], 1 - data[0][1])
        return data

    def _check_tree(self, tree, data, tree_seed):
        n = len(data)
        d = len(data[0][0])
        k = int(math.log2(d)) + 1  # Breiman's F = int(log2(M) + 1)
        stream = SplitMix64(tree_seed)
        boot = [stream.randbelow(n) for _ in range(n)]
        X = [data[i][0] for i in boot]
        y = [data[i][1] for i in boot]
        nodes = tree.nodes
        pending = [(0, list(range(n)), stream.next_u64())]  # node, rows, seed
        seen = 0
        while pending:
            index, rows, seed = pending.pop()
            node = nodes[index]
            seen += 1
            labels = [y[r] for r in rows]
            assert (node.count0, node.count1) == (labels.count(0), labels.count(1))
            feats = choose(SplitMix64(seed), k, d)
            want = None
            if 0 < sum(labels) < len(labels):
                want = brute_force_best_split([[X[r][f] for f in feats] for r in rows], labels)
            if want is None:
                assert node.feature == -1
                continue
            assert node.feature == feats[want[1]]
            assert node.threshold == want[2]
            left = [r for r in rows if X[r][node.feature] <= node.threshold]
            right = [r for r in rows if X[r][node.feature] > node.threshold]
            pending.append((node.left, left, derive_seed(seed, 0)))
            pending.append((node.right, right, derive_seed(seed, 1)))
        assert seen == len(nodes)

    @pytest.mark.parametrize("seed, d", [(1, 3), (2, 1), (3, 2), (4, 3), (5, 6), (6, 8)])
    def test_every_node_matches_enumeration(self, seed, d):
        data = self._data(seed, d=d)
        model = train(*xy(data), 7, seed)
        for index, tree in enumerate(model.trees):
            self._check_tree(tree, data, derive_seed(seed, index))

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_every_node_on_repeated_rows(self, seed):
        # Eight distinct rows, each repeated four to eight times: a tree's
        # rows carry large draw counts, which node counts and gains must count.
        rng = random.Random(seed)
        data = [row for row in self._data(seed, size=8) for _ in range(rng.randint(4, 8))]
        rng.shuffle(data)
        model = train(*xy(data), 15, seed)
        for index, tree in enumerate(model.trees):
            self._check_tree(tree, data, derive_seed(seed, index))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_node_on_generated_data(self, draw):
        self._check_generated(draw)

    def _check_generated(self, draw):
        d = draw.draw(st.integers(1, 3))
        rows = draw.draw(st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=2, max_size=30))
        labels = draw.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        data = [(tuple(map(float, row)), label) for row, label in zip(rows, labels)]
        trees, seed = draw.draw(st.integers(1, 30)), draw.draw(st.integers(0, 2**64 - 1))
        model = train(*xy(data), trees, seed)
        for index, tree in enumerate(model.trees):
            self._check_tree(tree, data, derive_seed(seed, index))

    # Below 11 trees, later trees join the level passes while earlier ones grow.
    @pytest.mark.parametrize("batch", [1, 3, 64, 2, 5, 7])
    def test_model_independent_of_batch_size(self, batch, monkeypatch):
        data = self._data(9, size=60)
        default = train(*xy(data), 11, 9)
        monkeypatch.setattr(forest, "_BATCH_TREES", batch)
        monkeypatch.setattr(forest, "_PASS_SLOTS", 0)  # pass width: the first batch's roots
        assert_same_model(train(*xy(data), 11, 9), default)

    def test_vectorised_choose_matches_scalar(self):
        seeds = [derive_seed(77, i) for i in range(40)] + [0, 2**64 - 1]
        for k, d in [(1, 1), (1, 3), (2, 3), (3, 3), (3, 8), (5, 6)]:
            got = _choose_many(_streams(np.array(seeds, dtype=np.uint64), k), k, d).tolist()
            assert got == [choose(SplitMix64(seed), k, d) for seed in seeds]

    def test_unequal_gains_sharing_one_float(self):
        # A node of 50 000 draws whose one cut on each of two features gives
        # (neg, pos) left counts (15005, 10003) and (15007, 10005). The second
        # cut's S is larger by about 3e-17 of itself, under half an ulp, so the
        # two S round to one float; the lower feature wins only an exact tie.
        Xb = np.array([[0, 0], [0, 0], [1, 0], [1, 0], [1, 1], [1, 1]], dtype=np.float64)
        weight = np.array([15005, 10003, 2, 2, 14993, 9995])
        positive = weight * np.array([0, 1, 0, 1, 0, 1])
        cuts = [(15005, 10003), (15007, 10005)]

        def score(l0, l1):
            r0, r1 = 30000 - l0, 20000 - l1
            return Fraction(l0 * l0 + l1 * l1, l0 + l1) + Fraction(r0 * r0 + r1 * r1, r0 + r1)

        exact = [score(*cut) for cut in cuts]
        assert float(exact[0]) == float(exact[1]) and exact[0] < exact[1]
        bins = [forest._bins(column) for column in Xb.T]
        assert [b is None for b in bins] == [self.BIN_ROWS == EVERY_FEATURE_SORTED] * 2
        split, feature, threshold = forest._best_splits(
            Xb, bins, np.arange(6), weight, positive, 0, np.zeros(6, dtype=np.int64),
            np.array([50000]), np.array([20000]), np.array([[0, 1]]),
        )
        assert (split.tolist(), feature.tolist(), threshold.tolist()) == ([True], [1], [0.5])
        assert np.count_nonzero(Xb[:, 1] <= threshold[0]) == 4  # the left child's slots

    def _check_forest(self, data, trees, seed):
        model = train(*xy(data), trees, seed)
        for index, tree in enumerate(model.trees):
            self._check_tree(tree, data, derive_seed(seed, index))
        return model

    def test_threshold_between_adjacent_floats(self):
        # (a + b) / 2 rounds to b when a and b are adjacent floats and a's last
        # mantissa bit is 1; the cut must then fall back to a, so a ≤ t < b.
        a = 1 + 2.0**-52
        b = float(np.nextafter(a, 2))
        data = [((v,), label) for v, label in zip([a, a, b, b, 3, 3], [0, 0, 1, 1, 1, 1])]
        model = self._check_forest(data, 3, 1)
        assert model.trees[0].threshold[0] == a
        assert predict_proba(model, np.array([[b]])).tolist() == [1.0]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_threshold_past_overflow(self, sign):
        # (a + b) / 2 overflows to ±inf past ±8.99e307; the cut falls back to a.
        values = [sign * 1.6e308] * 2 + [sign * 1.7e308] * 2
        data = [((v,), label) for v, label in zip(values, [0, 0, 1, 1])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            model = self._check_forest(data, 1, 1)
            scores = predict_proba(model, xy(data)[0])
        assert model.trees[0].threshold[0] == min(values)
        assert scores.tolist() == [0.0, 0.0, 1.0, 1.0]


class TestEveryNodeOracleBinned(TestEveryNodeOracle):
    BIN_ROWS = EVERY_FEATURE_BINNED

    # Hypothesis keeps one example database per test function, so the
    # subclass gets its own.
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_every_node_on_generated_data(self, draw):
        self._check_generated(draw)


class TestSplitPaths:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_split_paths_grow_the_same_trees(self, draw):
        # Columns of 1-200 distinct values over up to 400 rows, so some fall on
        # each side of the default cut-off, and rows repeated.
        n = draw.draw(st.integers(2, 400))
        d = draw.draw(st.integers(1, 3))
        distinct = [draw.draw(st.integers(1, 200)) for _ in range(d)]
        rng = np.random.default_rng(draw.draw(st.integers(0, 2**32 - 1)))
        pools = [np.round(rng.random(v) * 10, 3) for v in distinct]
        base = np.column_stack([p[rng.integers(0, len(p), n)] for p in pools])
        X = base[rng.integers(0, draw.draw(st.integers(1, n)), n)]
        y = rng.integers(0, 2, n)
        y[0] = 1 - y[-1]
        trees = draw.draw(st.integers(1, 30))
        seed = int(rng.integers(2**63))
        default = train(X, y, trees, seed)
        saved = forest._BIN_ROWS
        try:
            for cut_off in (EVERY_FEATURE_SORTED, EVERY_FEATURE_BINNED):
                forest._BIN_ROWS = cut_off
                assert_same_model(train(X, y, trees, seed), default)
        finally:
            forest._BIN_ROWS = saved

    def test_cut_off_counts_distinct_values_per_row(self):
        column = np.repeat(np.arange(4.0), forest._BIN_ROWS)  # 4 values, 16 rows each
        codes, values = forest._bins(column)
        assert values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert codes.tolist() == np.repeat(np.arange(4), forest._BIN_ROWS).tolist()
        assert forest._bins(column[1:]) is None


# Grows one 100-tree range on the fold saved in argv[1] in a forked child and
# prints the growth of the child's max RSS in KiB. A one-tree range on a few
# rows first pays the grower's one-time costs.
_RSS_GROWTH_CHILD = """
import os, resource, sys
import numpy as np
from citegauge import forest

X, y = (np.load(os.path.join(sys.argv[1], name)) for name in ("X.npy", "y.npy"))
seeds = [forest.derive_seed(7, i) for i in range(100)]
forest._grow_trees(X[:40], y[:40], seeds[:1])
read, write = os.pipe()
if os.fork() == 0:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    forest._grow_trees(X, y, seeds)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    os.write(write, str(after - before).encode())
    os._exit(0)
os.close(write)
growth = os.read(read, 64).decode()
os.wait()
print(int(growth))
"""


class TestGrowerMemory:
    @staticmethod
    def _fold(n):
        # A seeded fold shaped like a 465-pair evaluation's at n = 418: f1 a
        # skewed count of 0-10, f4 in eighths, f9 continuous.
        rng = np.random.default_rng(418)
        f1 = np.minimum(rng.geometric(0.35, n) - 1, 10).astype(np.float64)
        X = np.column_stack([f1, rng.integers(0, 9, n) / 8, rng.random(n)])
        y = (rng.random(n) < 0.1 + 0.05 * f1 + 0.2 * X[:, 2]).astype(np.int64)
        assert [forest._bins(X[:, f]) is None for f in range(3)] == [False, False, True]
        return X, y

    def _peak(self, n):
        X, y = self._fold(n)
        seeds = [derive_seed(7, i) for i in range(100)]
        tracemalloc.start()
        try:
            counts, _ = forest._grow_trees(X, y, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == 100
        return peak

    # Each bound is the peak of level passes 25 trees wide with 64-bit slot
    # arrays, rounded up at 418 rows; the comment on forest._BATCH_TREES gives
    # today's figures.
    def test_one_range_peak(self):
        assert self._peak(418) <= 2.7 * 2**20

    def test_one_range_peak_at_4500_rows(self):
        assert self._peak(4500) <= 24.8 * 2**20

    def test_one_range_rss_growth_at_4500_rows(self, tmp_path):
        # tracemalloc does not see the scratch buffers numpy's sorts take from
        # plain malloc; the process's max RSS does. A process started with exec
        # inherits its parent's max RSS, so the range grows in a child forked
        # by a fresh interpreter: a forked child's max RSS starts at its RSS.
        # One BLAS thread, so that the interpreter forks with no other thread.
        X, y = self._fold(4500)
        np.save(tmp_path / "X.npy", X)
        np.save(tmp_path / "y.npy", y)
        src = str(Path(forest.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        result = subprocess.run(
            [sys.executable, "-c", _RSS_GROWTH_CHILD, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        growth_kib = int(result.stdout.split()[-1])
        # The bound is the largest of sixteen readings when this test was
        # added, 25.0 MiB, plus a 15% margin. Before the grower's slot arrays
        # were 32-bit and its passes wider, the growth read 32.6 MiB.
        assert growth_kib <= 28.8 * 1024

    def test_level_passes(self, monkeypatch):
        # Each level pass calls _best_splits once. Passes 25 trees wide took 54.
        X, y = self._fold(418)
        passes = []
        best_splits = forest._best_splits

        def count(*args):
            passes.append(1)
            return best_splits(*args)

        monkeypatch.setattr(forest, "_best_splits", count)
        forest._grow_trees(X, y, [derive_seed(7, i) for i in range(100)])
        assert len(passes) == 39


class SubmitOnlyPool:
    """Offers only the ``submit`` that ``train`` may call, pickles each task's
    function, arguments and result as a process pool would, and counts the tasks."""

    def __init__(self):
        self.tasks = 0

    def submit(self, func, *args):
        self.tasks += 1
        func, args = pickle.loads(pickle.dumps((func, args)))
        future = Future()
        future.set_result(pickle.loads(pickle.dumps(func(*args))))
        return future


def _fork_executor(workers):
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))


@pytest.fixture(scope="module", params=[2, 3, "submit-only"])
def pool(request):
    if request.param == "submit-only":
        yield SubmitOnlyPool()
        return
    with _fork_executor(request.param) as workers:
        yield workers


class TestTrainOnPool:
    def _data(self):
        rng = random.Random(31)
        rows = [(float(rng.randint(0, 9)), rng.random(), rng.random()) for _ in range(70)]
        return [(row, int((row[0] > 4) != (row[2] > 0.8))) for row in rows]

    @pytest.mark.parametrize("trees", [1, 5, 11, 100])
    def test_node_arrays_equal_serial(self, pool, trees):
        data = self._data()
        pooled = train(*xy(data), trees, trees, pool=pool)
        assert len(pooled.trees) == trees
        assert_same_model(pooled, train(*xy(data), trees, trees))

    def test_whole_forest_is_one_task(self):
        # The trees grow in one worker, in passes as full as the serial path's.
        pool, data = SubmitOnlyPool(), self._data()
        pooled = train(*xy(data), 100, 5, pool=pool)
        assert pool.tasks == 1
        assert_same_model(pooled, train(*xy(data), 100, 5))

    def test_worker_error_keeps_its_type(self, monkeypatch):
        monkeypatch.setattr(forest, "_grow_trees", FailingGrower(TrainingError))
        with _fork_executor(2) as workers:  # forks at its first task, after the patch
            with pytest.raises(TrainingError, match="in a worker"):
                train(*xy(self._data()), 4, 1, pool=workers)


class TestPredictProba:
    def _leaf_tree(self, count0, count1):
        row = (-1, 0.0, -1, -1, count0, count1)  # a root that is a leaf
        return DecisionTree(*(np.array([value]) for value in row))

    def test_bad_rows_rejected_naming_the_first(self):
        # The root splits on feature 1 at 0.5: a NaN there would be routed right.
        root = (1, 0.5, 1, 2, 5, 5), (-1, 0.0, -1, -1, 5, 0), (-1, 0.0, -1, -1, 0, 5)
        model = ForestModel([DecisionTree(*(np.array(column) for column in zip(*root)))])
        assert predict_proba(model, [[0.0, 0.0], [0.0, 1.0]]).tolist() == [0.0, 1.0]
        bad = [
            ([0.0, float("nan")], "non-finite .* row 0$"),
            ([[0.0, 0.0], [0.0, 1.0], [float("-inf"), 1.0]], "non-finite .* row 2$"),
            ([0.0], "1 feature values but a split on feature 1: row 0$"),
            ([[0.0], [1.0]], "1 feature values but a split on feature 1: row 0$"),
        ]
        for rows, message in bad:
            with pytest.raises(DataError, match=message):
                predict_proba(model, rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[0.0, 1.0], [0.0]], "not one row or an n × d batch: .*shape"),
            (np.zeros((2, 2, 2)), r"shape \(2, 2, 2\), not one row or n × d$"),
        ],
        ids=["ragged", "3-D"],
    )
    def test_malformed_batch_rejected_naming_its_shape(self, rows, message):
        model = ForestModel(trees=[self._leaf_tree(1, 1)])
        with pytest.raises(DataError, match=message):
            predict_proba(model, rows)

    def test_pure_negative_leaf(self):
        model = ForestModel(trees=[self._leaf_tree(5, 0)])
        assert predict_proba(model, (1.0,)) == 0.0

    def test_three_tree_mean(self):
        model = ForestModel(trees=[self._leaf_tree(c0, c1) for c0, c1 in [(0, 4), (2, 2), (3, 0)]])
        assert predict_proba(model, (0.0,)) == pytest.approx(0.5)

    def test_batch_equals_per_row_leaf_walk(self):
        model = train(*xy(SEPARABLE), 40, 12)
        rng = random.Random(4)
        queries = [(rng.uniform(-1, 15), rng.random(), rng.random()) for _ in range(60)]
        queries += [row for row, _ in SEPARABLE]

        def walk(tree, row):
            node = tree.nodes[0]
            while node.feature != -1:
                node = tree.nodes[node.left if row[node.feature] <= node.threshold else node.right]
            return node.count1 / (node.count0 + node.count1)

        batch = predict_proba(model, queries)
        for row, got in zip(queries, batch.tolist()):
            total = 0.0
            for tree in model.trees:  # tree order, one addition at a time
                total += walk(tree, row)
            assert got == total / len(model.trees)
            assert predict_proba(model, row) == got

    def test_training_point_consistency(self):
        model = train(*xy(SEPARABLE), 50, 5)
        for row, label in SEPARABLE:
            proba = predict_proba(model, row)
            assert (proba >= 0.5) == bool(label)


class TestForestInvariants:
    def test_gini_never_worsens_along_any_split(self):
        def gini(c0, c1):
            n = c0 + c1
            if n == 0:
                return 0.0
            return 1.0 - ((c0 / n) ** 2 + (c1 / n) ** 2)

        model = train(*xy(SEPARABLE), 30, 8)
        for tree in model.trees:
            for node in tree.nodes:
                if node.feature == -1:
                    continue
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                parent_n = node.count0 + node.count1
                weighted = (
                    (left.count0 + left.count1) * gini(left.count0, left.count1)
                    + (right.count0 + right.count1) * gini(right.count0, right.count1)
                ) / parent_n
                assert weighted <= gini(node.count0, node.count1) + 1e-12

    def test_children_counts_sum_to_parent(self):
        model = train(*xy(SEPARABLE), 10, 21)
        for tree in model.trees:
            for node in tree.nodes:
                if node.feature == -1:
                    continue
                left, right = tree.nodes[node.left], tree.nodes[node.right]
                assert left.count0 + right.count0 == node.count0
                assert left.count1 + right.count1 == node.count1


class TestGoldenModel:
    """The node tables a forest grows on the fixture corpus's feature rows, pinned
    by digest. A refactor that moves any model bit fails here; a deliberate
    re-baseline updates the constants and says why."""

    ALL_FEATURES = "2f6fe3a0b9da6ec53cff36a3d30c4f6fe26b020c00a4547fb5781d7b4f551c83"
    F1_ONLY = "69f56904a5af6d46c9f880636cd00afcced9ad7dcb343ed51c8f45c9a31a64cb"
    JOINING_TREES = "297cb27979c2867be8c24939e5df2a2a99282cc0c5c75e40808de1803f48988d"

    @staticmethod
    def _digest(model):
        # .tolist() gives Python ints and floats, whose reprs agree across numpy 1 and 2
        columns = ("feature", "threshold", "left", "right", "count0", "count1")
        text = repr([[getattr(tree, c).tolist() for c in columns] for tree in model.trees])
        return hashlib.sha256(text.encode()).hexdigest()

    def test_node_tables_are_pinned(self, demo_dataset):
        corpus_dir, pairs_file = demo_dataset
        corpus = load_corpus(corpus_dir)
        pairs, stats, _ = load_pairs(pairs_file, corpus)
        rows, _ = compute_feature_matrix(corpus, filter_valid_pairs(pairs, corpus, stats))
        X, y = xy([(vec, pair.label) for pair, vec in rows])
        assert self._digest(train(X, y, 30, 42)) == self.ALL_FEATURES
        assert self._digest(train(X[:, [0]], y, 30, 42)) == self.F1_ONLY

    def test_joining_trees_are_pinned(self):
        # 300 rows, two continuous columns and one of 4 values (binned): the two
        # continuous columns are both scored from sorted slots, and with 100
        # trees later trees join level passes while earlier ones grow. The
        # values come from splitmix64, so the data do not depend on numpy's
        # generators.
        draws = _streams(np.array([2024], dtype=np.uint64), 4 * 300).reshape(300, 4)
        unit = (draws >> np.uint64(11)).astype(np.float64) * 2.0**-53
        X = np.column_stack((unit[:, 0], unit[:, 1], np.floor(unit[:, 2] * 4)))
        y = (X[:, 0] + X[:, 1] / 2 + X[:, 2] / 8 + unit[:, 3] / 2 > 1.2).astype(np.int64)
        assert [forest._bins(column) is None for column in X.T] == [True, True, False]
        model = train(X, y, 100, 42)
        assert self._digest(model) == self.JOINING_TREES


class TestSplitMix64:
    def test_reference_first_output(self):
        # splitmix64 with state 0 must emit 0xE220A8397B1DCDAF first
        assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF
        assert _streams(np.zeros(1, dtype=np.uint64), 1).tolist() == [[0xE220A8397B1DCDAF]]

    def test_streams_are_reproducible(self):
        a = SplitMix64(123)
        b = SplitMix64(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_choose_returns_sorted_distinct(self):
        rng = SplitMix64(5)
        for _ in range(50):
            picked = choose(rng, 2, 3)
            assert picked == sorted(set(picked))
            assert len(picked) == 2

    def test_vectorised_stream_matches_scalar(self):
        seeds = [0, 1, 123, 2**63 - 1, 2**63, 2**64 - 1, derive_seed(42, 7)]
        rows = _streams(np.array(seeds, dtype=np.uint64), 50).tolist()
        for seed, row in zip(seeds, rows):
            scalar = SplitMix64(seed)
            assert row == [scalar.next_u64() for _ in range(50)]
            assert row == [derive_seed(seed, i) for i in range(50)]

    def test_derive_seed_varies_by_index(self):
        seeds = {derive_seed(42, i) for i in range(100)}
        assert len(seeds) == 100
