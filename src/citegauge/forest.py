"""Bagged decision-tree ensemble (random forest) for binary classification.

Every random draw flows from splitmix64, a published 64-bit generator chosen so
that trained models reproduce bit-for-bit anywhere the same integer arithmetic
exists:

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = (state XOR (state >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z       = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output  = z XOR (z >> 31)

Bounded draws use plain modulo (bias is negligible for the tiny ranges used
here and keeps the sequence portable). Tree t draws from
``SplitMix64(tree_seed)`` with ``tree_seed = derive_seed(seed, t)``: its first
n outputs draw the bootstrap, and the next one, ``derive_seed(tree_seed, n)``,
seeds the root. Every node has its own seed: its children's are
``derive_seed(node_seed, 0)`` (left) and ``derive_seed(node_seed, 1)``
(right). A node scores k = floor(log2(d)) + 1 of the d features (Breiman's
F = int(log2(M) + 1)): with ``SplitMix64(node_seed)`` it runs the first k
steps of a Fisher-Yates shuffle of ``range(d)`` (step i swaps position i with
``i + randbelow(d - i)``) and sorts the first k.
No draw depends on the order nodes or trees are grown in, so trees grow level
by level, a batch of trees at a time, with the frontier of every tree in the
batch advanced by the same array operations, and the batches may grow in
separate worker processes. A tree grows on its distinct bootstrap rows, each
carrying its draw count: node counts and the gains are in draws, so the tree
is the one its n draws would grow. A node is split when it holds both classes
and some cut strictly lowers its Gini impurity. The bootstrap draws row
indices, so the model depends on the order of the training rows; evaluation
puts them in pair-id order before any forest is trained.

Each tree is a node table of parallel arrays, numbered breadth first from the
root at row 0. Prediction walks every (tree, row) pair of a batch down the
trees' concatenated node tables at once, then sums the leaf fractions in tree
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, TrainingError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Most training rows: a node of N draws keeps its split sums below N³/4 < 2⁵³.
_MAX_ROWS = 1 << 18

# Trees grown together, and one task when `train` runs on a pool. It bounds
# the grower's working memory; the trees do not depend on it. At 25 trees the
# grower's tracemalloc peak is 2.7 MiB on a 418-row training fold and 3.6 MiB
# on a 576-row one, 1 MiB of each the block `_grow_trees` allocates first.
_BATCH_TREES = 25


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Deterministic per-stream seed from a master seed and a stream index."""
    return _mix64((master + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """Minimal splitmix64 stream; see the module docstring for the algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randbelow(self, n: int) -> int:
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array. Every operand is an explicit ``np.uint64``,
    so the bits do not depend on numpy's integer promotion rules."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _streams(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``SplitMix64(seed)`` for each uint64 seed,
    one row per seed. Column i is also ``derive_seed(seed, i)``."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_array(seeds[:, None] + steps)


def _choose_many(seeds: np.ndarray, k: int, n: int) -> np.ndarray:
    """The k features a node with each seed scores, out of ``range(n)``: a
    partial Fisher-Yates shuffle (see the module docstring), one sorted row per
    seed."""
    draws = _streams(seeds, k)
    rows = np.arange(len(seeds))
    pool = np.zeros((len(seeds), 1), dtype=np.int64) + np.arange(n)
    for i in range(k):
        j = i + (draws[:, i] % np.uint64(n - i)).astype(np.int64)
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    return np.sort(pool[:, :k], axis=1)


@dataclass
class ForestConfig:
    tree_count: int = 100
    seed: int = 42

    def validate(self) -> None:
        if self.tree_count < 1:
            raise ConfigurationError("tree_count must be >= 1")


@dataclass(frozen=True)
class TreeNode:
    """One row of a tree's node table. feature == -1 marks a leaf; children are
    row indices. count0/count1 are the training-instance class counts reaching
    the node."""

    feature: int
    threshold: float
    left: int
    right: int
    count0: int
    count1: int


_COLUMNS = ("feature", "threshold", "left", "right", "count0", "count1")


@dataclass(eq=False)
class DecisionTree:
    """A tree stored as parallel node arrays, one per TreeNode field; row 0 is
    the root."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    count0: np.ndarray
    count1: np.ndarray

    @property
    def nodes(self) -> list[TreeNode]:
        """The node table as read-only rows."""
        return [TreeNode(*row) for row in zip(*(getattr(self, c).tolist() for c in _COLUMNS))]


@dataclass
class ForestModel:
    trees: list[DecisionTree]


def _best_splits(Xb, weight, positive, order, starts, sizes, total, count1, feats):
    """Best cut of each node: (split, feature, left size, threshold).

    Node i owns positions ``starts[i]:starts[i] + sizes[i]`` of every row order
    in ``order`` (one per feature, the node's distinct rows sorted by that
    feature), and only the features ``feats[i]`` (ascending) are scored. Row r
    stands for ``weight[r]`` draws, ``positive[r]`` of them positive; node i
    holds ``total[i]`` draws, ``count1[i]`` of them positive. The gains count
    draws; the left size counts positions. Candidate thresholds are midpoints
    between consecutive distinct values. Ties resolve to the lowest feature,
    then the lowest threshold. ``split[i]`` is true when node i's best cut
    strictly lowers its Gini impurity.

    Within a node the gain rises with S = (l0² + l1²)/ln + (r0² + r1²)/rn in
    the draws left and right of a cut, and S = num/den in integers exact in
    float64 (``_MAX_ROWS``). One correctly rounded division keeps every exact
    best cut at the node's top float; unequal S sharing that float are ordered
    by exact integer products. A cut lowers the impurity unless l1·rn = r1·ln.
    """
    nodes, k = feats.shape
    positions = order.shape[1]
    # Segment j * nodes + i holds node i's rows sorted by its j-th sampled feature.
    segment = np.repeat(np.arange(k * nodes), sizes[np.arange(k * nodes) % nodes])
    seg_starts = (starts + positions * np.arange(k)[:, None]).ravel()
    node = segment % nodes
    feature = feats.T.ravel()[segment]
    at = np.arange(k * positions)
    rows = order[feature, at % positions]
    values = Xb[rows, feature]

    def through(counts):  # running sum of counts within each segment
        before = np.cumsum(counts) - counts
        return before - before[seg_starts][segment] + counts

    left_n, left1 = through(weight[rows]), through(positive[rows])
    right_n = total[node] - left_n
    valid = right_n > 0  # every left side holds a draw; this drops each segment's last row
    valid[:-1] &= values[:-1] < values[1:]

    at, node = at[valid], node[valid]
    ln, rn, l1 = left_n[valid], right_n[valid], left1[valid]
    r1 = count1[node] - l1
    l0, r0 = ln - l1, rn - r1
    num = (l0 * l0 + l1 * l1) * rn + (r0 * r0 + r1 * r1) * ln
    den = ln * rn
    s = num / den
    score = np.full(k * positions, -np.inf)
    score[at] = s
    top = np.maximum.reduceat(score, seg_starts).reshape(k, nodes).max(axis=0)

    # Each node's first cut at its top float, in (feature, threshold) order.
    # Other cuts at that float with another num or den are compared exactly.
    tied = np.flatnonzero(s == top[node])
    first = np.full(k * positions, k * positions)
    first[at[tied]] = at[tied]
    first = np.minimum.reduceat(first, seg_starts).reshape(k, nodes).min(axis=0)
    best = np.searchsorted(at, first)  # len(s) where a node has no valid cut
    lead = best[node[tied]]
    for c in tied[(num[tied] != num[lead]) | (den[tied] != den[lead])].tolist():
        b = best[node[c]]
        if int(num[c]) * int(den[b]) > int(num[b]) * int(den[c]):
            best[node[c]] = c

    has = best < len(s)  # the node has a valid cut
    b = best[has]
    cut = at[b]
    split, chosen = np.zeros(nodes, dtype=bool), feats[:, 0].copy()
    left_size, threshold = np.zeros(nodes, dtype=np.int64), np.zeros(nodes)
    split[has] = l1[b] * rn[b] != r1[b] * ln[b]
    chosen[has] = feats[has, cut // positions]
    left_size[has] = cut % positions - starts[has] + 1
    threshold[has] = (values[cut] + values[cut + 1]) / 2.0  # both classes: at least 2 rows
    return split, chosen, left_size, threshold


def _grow_trees(
    X: np.ndarray, y: np.ndarray, tree_seeds: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Grow one tree per seed, level by level, advancing all their frontiers at
    once, each on its distinct bootstrap rows weighted by their draw counts;
    the seeds are derived as the module docstring says. Nodes are
    numbered breadth first within each tree.

    Returns the batch's node table: each tree's node count, and the six node
    columns (``_COLUMNS``) with the trees' tables one after another in seed
    order. Top level, so a process pool can run it on one batch of a forest's
    seeds and send back six arrays, not six per tree."""
    # The grower frees many mid-size temporaries at once. glibc malloc returns
    # a freed heap top above its trim threshold (128 KiB at start) to the
    # system, and the next batch faults the pages in again: about 70 000 minor
    # faults, 0.1 s of the 1.4 s CV of a 465-pair `evaluate`. Freeing one
    # untouched block above the mmap threshold raises both thresholds (mmap to
    # the block's size, trim to twice that) for the rest of the process.
    np.empty(1 << 20, dtype=np.uint8)
    n, d = X.shape
    trees = len(tree_seeds)
    draws = _streams(np.asarray(tree_seeds, dtype=np.uint64), n + 1)
    boot = (draws[:, :n] % np.uint64(n)).astype(np.int64)
    drawn = np.bincount((boot + (np.arange(trees) * n)[:, None]).ravel(), minlength=trees * n)
    # Batch rows: tree t's distinct drawn rows, in row order, each with its draw count.
    tree_row = np.flatnonzero(drawn)
    tree_of_row, row = np.divmod(tree_row, n)
    Xb, weight = X[row], drawn[tree_row]
    positive = weight * y[row]
    # order[f]: batch rows grouped by frontier node, sorted by feature f within each
    order = np.stack([np.lexsort((Xb[:, f], tree_of_row)) for f in range(d)])
    go_right = np.zeros(len(row), dtype=bool)

    tree_of, seeds = np.arange(trees), draws[:, n]
    sizes = np.bincount(tree_of_row, minlength=trees)  # in positions (distinct rows)
    levels = []  # per level: the node columns, with children as batch-wide ids
    next_id, k = 0, d.bit_length()  # features per node: floor(log2(d)) + 1
    while len(sizes):
        starts = np.cumsum(sizes) - sizes
        total = np.add.reduceat(weight[order[0]], starts)
        count1 = np.add.reduceat(positive[order[0]], starts)
        split_feature, split_threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
        left, right = np.full(len(sizes), -1), np.full(len(sizes), -1)
        levels.append(
            (tree_of, split_feature, split_threshold, left, right, total - count1, count1)
        )
        next_id += len(sizes)

        grow = (count1 > 0) & (count1 < total)
        order = order[:, np.repeat(grow, sizes)]
        ids, tree_of, seeds, sizes = np.nonzero(grow)[0], tree_of[grow], seeds[grow], sizes[grow]
        if not len(sizes):
            break
        starts = np.cumsum(sizes) - sizes
        feats = _choose_many(seeds, k, d)
        split, feature, left_n, threshold = _best_splits(
            Xb, weight, positive, order, starts, sizes, total[grow], count1[grow], feats
        )
        children = next_id + 2 * np.arange(np.count_nonzero(split))
        at = ids[split]
        split_feature[at], split_threshold[at] = feature[split], threshold[split]
        left[at], right[at] = children, children + 1

        # Regroup every row order stably into the children: each split node's
        # left rows, then its right rows.
        node = np.repeat(np.arange(len(sizes)), sizes)
        rows = order[0]
        go_right[rows] = Xb[rows, feature[node]] > threshold[node]
        keep = split[node]
        kept = order[:, keep]
        child = 2 * (np.cumsum(split) - 1)[node[keep]] + go_right[kept]
        child += 2 * len(sizes) * np.arange(d)[:, None]  # keep the features apart
        order = kept.ravel()[np.argsort(child.ravel(), kind="stable")].reshape(d, -1)
        sizes = np.column_stack([left_n[split], sizes[split] - left_n[split]]).ravel()
        seeds = _streams(seeds[split], 2).ravel()
        tree_of = np.repeat(tree_of[split], 2)

    tree, feature, threshold, left, right, count0, count1 = map(np.concatenate, zip(*levels))
    by_tree = np.argsort(tree, kind="stable")  # breadth first within each tree
    counts = np.bincount(tree, minlength=trees)
    local = np.empty(len(tree), dtype=np.int64)
    local[by_tree] = np.arange(len(tree)) - (np.cumsum(counts) - counts)[tree[by_tree]]
    left, right = (np.where(c >= 0, local[c], -1) for c in (left, right))
    return counts, [c[by_tree] for c in (feature, threshold, left, right, count0, count1)]


def train(X: np.ndarray, y: np.ndarray, config: ForestConfig, pool=None) -> ForestModel:
    """Train a bagged forest on the rows of ``X`` (n × d) with labels ``y``.

    Each tree trains on an n-sized bootstrap sample drawn with replacement from
    its own splitmix64 stream (seeded from config.seed and the tree index);
    node splits minimize Gini impurity over floor(log2(d)) + 1 of the d
    features, sampled with the node's own seed (see the module docstring).
    Fully deterministic given the seed and the row order.

    Trees grow ``_BATCH_TREES`` at a time. ``pool``, a ``multiprocessing``
    pool, grows each batch as one task on its workers; the batches come back
    in seed order, so the model is the same with or without it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not len(X):
        raise TrainingError("training data is empty")
    if len(y) != len(X):
        raise ConfigurationError(f"{len(X)} training rows but {len(y)} labels")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise TrainingError(f"non-finite feature value (NaN or ±inf) in training data: row {bad}")
    if len(X) > _MAX_ROWS:
        raise TrainingError(f"{len(X)} training rows; the forest takes at most {_MAX_ROWS}")
    config.validate()
    if len(set(y.tolist())) < 2:
        raise TrainingError("training data contains a single class")

    seeds = [derive_seed(config.seed, i) for i in range(config.tree_count)]
    batches = [seeds[i : i + _BATCH_TREES] for i in range(0, len(seeds), _BATCH_TREES)]
    grow = partial(_grow_trees, X, y)
    grown = map(grow, batches) if pool is None else pool.map(grow, batches, chunksize=1)
    trees = []
    for counts, columns in grown:  # each tree's arrays are views into its batch's table
        trees += map(DecisionTree, *(np.split(c, np.cumsum(counts)[:-1]) for c in columns))
    return ForestModel(trees=trees)


def predict_proba(model: ForestModel, x):
    """Positive-class probability: mean over trees of the leaf positive fraction.

    ``x`` is one row (a sequence of values, such as a FeatureVector), which
    gives a float, or a 2-D batch of rows, which gives one probability per
    row. Every (tree, row) pair is walked down at once; the fractions are then
    summed in tree order, so a row's score does not depend on the batch it is
    scored in.
    """
    rows = np.asarray(x, dtype=np.float64)
    batch = np.atleast_2d(rows)
    n = len(batch)
    sizes = [len(tree.feature) for tree in model.trees]
    first = np.cumsum(sizes) - sizes
    feature, threshold, left, right, count0, count1 = (
        np.concatenate([getattr(tree, c) for tree in model.trees]) for c in _COLUMNS
    )
    offset = np.repeat(first, sizes)  # children as rows of the joint table
    left, right = left + offset, right + offset  # a leaf's are never read
    node = np.repeat(first, n)  # pair t * n + i: tree t, row i
    active = np.arange(len(node))
    while len(active):
        at = node[active]
        inner = feature[at] != -1
        active, at = active[inner], at[inner]
        go_left = batch[active % n, feature[at]] <= threshold[at]
        node[active] = np.where(go_left, left[at], right[at])
    positives = count1[node]
    reached = count0[node] + positives
    fractions = np.divide(positives, reached, out=np.zeros(len(node)), where=reached > 0)
    total = np.zeros(n)
    for fraction in fractions.reshape(len(model.trees), n):
        total += fraction
    proba = total / len(model.trees)
    return float(proba[0]) if rows.ndim == 1 else proba

