"""Bagged decision-tree ensemble (random forest) for binary classification.

Every random draw flows from splitmix64, a published 64-bit generator chosen so
that trained models reproduce bit-for-bit anywhere the same integer arithmetic
exists:

    state   = (state + 0x9E3779B97F4A7C15) mod 2^64
    z       = (state XOR (state >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z       = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output  = z XOR (z >> 31)

Bounded draws use plain modulo (bias is negligible for the tiny ranges used
here and keeps the sequence portable). The stream seeded s starts from state
s mod 2^64, and its output i (from 0) is ``derive_seed(s, i)``. Tree t draws
from the stream seeded ``tree_seed = derive_seed(seed, t)``: its first n
outputs draw the bootstrap, and the next one, ``derive_seed(tree_seed, n)``,
seeds the root. Every node has its own seed: its children's are
``derive_seed(node_seed, 0)`` (left) and ``derive_seed(node_seed, 1)``
(right). A node scores k = floor(log2(d)) + 1 of the d features (Breiman's
F = int(log2(M) + 1)): from the stream seeded ``node_seed`` it runs the first
k steps of a Fisher-Yates shuffle of ``range(d)`` (step i swaps position i with
``i + output_i mod (d - i)``) and sorts the first k.
No draw depends on the order nodes or trees are grown in, so trees grow level
by level, with the frontier of every growing tree advanced by the same array
operations. A forest grows in level passes of a fixed width: the next trees
join a pass as roots while earlier ones are still growing, and the whole
forest may grow in a worker process. A tree grows on its distinct bootstrap
rows, each carrying its draw count: node counts and the gains are in draws, so
the tree is the one its n draws would grow. A node is split when it holds both
classes and some cut strictly lowers its Gini impurity. A column with few
distinct training values (such as f1, an in-text citation count) is split
from per-node counts of draws and positives per value; any other from the
node's rows sorted by it. Both give the same cuts, so the same trees. The
bootstrap draws row indices, so the model depends on the order of the training
rows; evaluation puts them in pair-id order before any forest is trained.

Each tree is a node table of parallel arrays, numbered breadth first from the
root at row 0. Prediction walks every (tree, row) pair of a batch down the
trees' concatenated node tables at once, then sums the leaf fractions in tree
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DataError, TrainingError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Most training rows: a node of N draws keeps its split sums below N³/4 < 2⁵³.
_MAX_ROWS = 1 << 18

# The first level pass holds the first _BATCH_TREES trees, or as many as fill
# _PASS_SLOTS slots where that is more, and its width caps every later pass
# (`_grow_trees`). The width bounds the grower's working memory; the trees do
# not depend on it. Each pass costs about 0.5 ms however narrow, and 13 000
# slots (about 50 trees) take a 418-row `paper` fold from 40 passes to 26;
# 20 000 slots (21 passes) were not measurably faster. Growing a forest of
# 100 trees peaks (tracemalloc) at 1.9 MiB on the tests' seeded 418-row
# f1/f4/f9-like fold, 1.7 MiB on a 418-row `paper` fold, 1.9 MiB on a
# 575-row `forest` one and 14.7 MiB on the tests' 4 500-row fold, where 25
# trees fill 71 000 slots. Passes of 25 trees with 64-bit slot arrays peaked
# at 2.5, 2.1, 3.0 and 24.8 MiB.
_BATCH_TREES = 25
_PASS_SLOTS = 13_000

# A column with at most one distinct training value per this many rows is
# split from value histograms. Measured on 100-tree forests with one such
# column beside a continuous and a 9-valued one: histograms were 3-8% faster
# down to 6.5 rows per value at 418 rows and to 31 at 2 000 rows, 4% slower at
# 16 rows per value at 2 000 rows, and 47% slower at 1.6 and 3.9.
_BIN_ROWS = 16


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Deterministic per-stream seed from a master seed and a stream index."""
    return _mix64((master + (index + 1) * _GOLDEN) & _MASK64)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``_mix64`` over a uint64 array. Every operand is an explicit ``np.uint64``,
    so the bits do not depend on numpy's integer promotion rules."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _streams(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of the stream seeded by each uint64 seed, one
    row per seed (see the module docstring): column i is ``derive_seed(seed, i)``."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    return _mix64_array(seeds[:, None] + steps)


def _choose_many(draws: np.ndarray, k: int, n: int) -> np.ndarray:
    """The k features each node scores, out of ``range(n)``, from the first k
    columns of its seed's ``_streams`` row: a partial Fisher-Yates shuffle (see
    the module docstring), one sorted row per node."""
    rows = np.arange(len(draws))
    pool = np.zeros((len(draws), 1), dtype=np.int64) + np.arange(n)
    for i in range(k):
        j = i + (draws[:, i] % np.uint64(n - i)).astype(np.int64)
        pool[rows, i], pool[rows, j] = pool[rows, j], pool[rows, i]
    return np.sort(pool[:, :k], axis=1)


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


def _bins(column: np.ndarray):
    """``(codes, values)`` when a training column is split from value histograms:
    ``values`` are its distinct values ascending and ``codes`` each row's index
    into them. None when the column has more than one distinct value per
    ``_BIN_ROWS`` rows; its nodes are then split from a sorted row order."""
    order = np.argsort(column, kind="stable")
    values = column[order]
    first = np.concatenate(([True], values[1:] != values[:-1]))  # of a run of equal values
    if np.count_nonzero(first) * _BIN_ROWS > len(column):
        return None
    codes = np.empty(len(column), dtype=np.int64)
    codes[order] = np.cumsum(first) - 1
    return codes, values[first]


def _feature_cuts(f, X, bins, row, weight, positive, layout, node_of, total, count1, scored):
    """Feature f's cuts in the nodes ``scored`` marks, in (node, threshold)
    order: each cut's node, the draws and positives left of it, and the values
    either side. ``_best_splits`` gives the arguments."""
    if f == layout:  # the slots as they lie, already in f's order within each node
        node, value, w, p = node_of, X[row, f], weight, positive
    elif bins[f] is None:  # the scoring nodes' slots, sorted by f within each node
        slots = np.flatnonzero(scored[node_of])
        slots = slots[np.lexsort((X[row[slots], f], node_of[slots]))]
        node, value, w, p = node_of[slots], X[row[slots], f], weight[slots], positive[slots]
        total, count1 = total * scored, count1 * scored  # the other nodes hold no item
    else:  # one item per value present in a node
        codes, values = bins[f]
        key = node_of * len(values) + codes[row]
        w = np.bincount(key, weight)  # float64 sums, exact below 2⁵³
        present = np.flatnonzero(w)  # (node, value) keys holding a slot, as weights are ≥ 1
        w, p = (c[present].astype(np.int64) for c in (w, np.bincount(key, positive)))
        node, value = np.divmod(present, len(values))
        value = values[value]
    # A cut between a node's consecutive items of distinct values, in a node scoring f.
    at = np.flatnonzero((node[:-1] == node[1:]) & (value[:-1] < value[1:]))
    at = at[scored[node[at]]]
    node = node[at]
    # Running sums over every item, less those of the nodes before the cut's.
    left = (
        np.cumsum(c, dtype=np.int64)[at] - (np.cumsum(t, dtype=np.int64) - t)[node]
        for c, t in ((w, total), (p, count1))
    )
    return (node, *left, value[at], value[at + 1])


def _best_splits(X, bins, row, weight, positive, layout, node_of, total, count1, feats):
    """Best cut of each node: (split, feature, threshold).

    Slot s holds training row ``row[s]``, standing for ``weight[s]`` draws,
    ``positive[s]`` of them positive, in node ``node_of[s]``; a node's slots
    are consecutive. Node i holds ``total[i]`` draws, ``count1[i]`` of them
    positive, and scores only the features ``feats[i]`` (ascending; -1 pads a
    node that is not split). A feature with ``bins[f]`` (``_bins``) is scored
    from each node's draw and positive counts per value; any other from the
    node's slots sorted by it: held in feature ``layout``'s order, they are
    sorted for any other f. The gains count draws. A cut between a node's
    consecutive distinct values a < b sits at their midpoint, or at a where
    that is not below b (adjacent floats) or overflows. Ties resolve to the
    lowest feature, then the lowest threshold. ``split[i]`` is true when node
    i's best cut strictly lowers its Gini impurity.

    Within a node the gain rises with S = (l0² + l1²)/ln + (r0² + r1²)/rn in
    the draws left and right of a cut, and S = num/den in integers exact in
    float64 (``_MAX_ROWS``). One correctly rounded division keeps every exact
    best cut at the node's top float; unequal S sharing that float are ordered
    by exact integer products. A cut lowers the impurity unless l1·rn = r1·ln.
    """
    nodes = len(total)
    # Per column, each scored feature's part, joined and freed one column at a time.
    cuts = {c: [] for c in ("node", "ln", "l1", "lo", "hi")}
    scored_features = []
    scores = np.zeros((nodes, X.shape[1] + 1), dtype=bool)  # the last column takes the -1 pads
    scores[np.arange(nodes)[:, None], feats] = True
    for f in range(X.shape[1]):
        scored = scores[:, f]
        if scored.any():
            found = _feature_cuts(
                f, X, bins, row, weight, positive, layout, node_of, total, count1, scored
            )
            for column, part in zip(cuts.values(), found):
                column.append(part)
            scored_features.append(f)
    ends = np.cumsum([len(part) for part in cuts["node"]])  # of each feature's cuts
    empty = np.zeros(0, dtype=np.int64)
    node, ln, l1, lo, hi = (np.concatenate(cuts.pop(c) or [empty]) for c in list(cuts))
    rn, r1 = total[node] - ln, count1[node] - l1  # int64, as ln and l1 are
    num = (np.square(ln - l1) + l1 * l1) * rn
    num += (np.square(rn - r1) + r1 * r1) * ln
    den = ln * rn
    del rn, r1  # not to sit under the peak below
    s = num / den
    top = np.full(nodes, -np.inf)
    np.maximum.at(top, node, s)

    # Each node's first cut at its top float, in (feature, threshold) order.
    # Other cuts at that float with another num or den are compared exactly.
    tied = np.flatnonzero(s == top[node])
    best = np.full(nodes, len(s))  # len(s) where a node has no cut
    np.minimum.at(best, node[tied], tied)
    lead = best[node[tied]]
    for c in tied[(num[tied] != num[lead]) | (den[tied] != den[lead])].tolist():
        b = best[node[c]]
        if int(num[c]) * int(den[b]) > int(num[b]) * int(den[c]):
            best[node[c]] = c

    has = best < len(s)
    b = best[has]
    split, chosen, cut = np.zeros(nodes, dtype=bool), feats[:, 0].copy(), np.zeros(nodes)
    rn, r1 = total[node[b]] - ln[b], count1[node[b]] - l1[b]
    split[has] = l1[b] * rn != r1 * ln[b]
    with np.errstate(over="ignore"):  # a + b is ±inf past ±8.99e307
        mid = (lo[b] + hi[b]) / 2.0
    cut[has] = np.where((lo[b] <= mid) & (mid < hi[b]), mid, lo[b])
    chosen[has] = np.array(scored_features)[np.searchsorted(ends, b, side="right")]
    return split, chosen, cut


def _grow_trees(
    X: np.ndarray, y: np.ndarray, tree_seeds: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Grow one tree per seed, level by level, each on its distinct bootstrap
    rows weighted by their draw counts; the seeds are derived as the module
    docstring says. Nodes are numbered breadth first within each tree.

    Every level pass advances the frontier of every tree growing at once. The
    first ``_BATCH_TREES`` trees, or as many as fill ``_PASS_SLOTS`` slots
    (distinct rows) where that is more, start together, and their root pass's
    width in slots caps every later pass: before each pass the next trees, in
    seed order, join as roots while the frontier has room for them.

    Returns the forest's node table: each tree's node count, and the six node
    columns (``_COLUMNS``) with the trees' tables one after another in seed
    order. Top level, so a process pool can run it on a forest's seeds and
    send back six arrays, not six per tree."""
    # The grower frees many mid-size temporaries at once. glibc malloc returns
    # a freed heap top above its trim threshold (128 KiB at start) to the
    # system, and the next pass faults the pages in again: about 70 000 minor
    # faults, 0.1 s of the 1.4 s CV of a 465-pair `evaluate`. Freeing one
    # untouched block above the mmap threshold raises both thresholds (mmap to
    # the block's size, trim to twice that) for the rest of the process.
    np.empty(1 << 20, dtype=np.uint8)
    n, d = X.shape
    trees = len(tree_seeds)
    bins = [_bins(X[:, f]) for f in range(d)]
    # A tree's slots start, and stay within each node, in the order of the first
    # feature without bins, its layout.
    layout = next((f for f in range(d) if bins[f] is None), -1)
    by_row = np.argsort(X[:, layout], kind="stable") if layout >= 0 else np.arange(n)
    by_row, y = by_row.astype(np.int32), y.astype(np.int32)  # slot arrays are int32: n ≤ 2¹⁸
    # Each tree's draw count per row, in by_row order, and its root's seed,
    # drawn a batch of trees at a time to bound the temporaries.
    drawn = np.empty((trees, n), dtype=np.int32)  # counts up to n ≤ 2¹⁸
    roots = np.empty(trees, dtype=np.uint64)
    for a in range(0, trees, _BATCH_TREES):
        draws = _streams(np.asarray(tree_seeds[a : a + _BATCH_TREES], dtype=np.uint64), n + 1)
        m = len(draws)
        roots[a : a + m] = draws[:, n]
        boot = (draws[:, :n] % np.uint64(n)).astype(np.int64) + (np.arange(m) * n)[:, None]
        drawn[a : a + m] = np.bincount(boot.ravel(), minlength=m * n).reshape(m, n)[:, by_row]
    del draws, boot  # not to sit under the level passes
    tree_sizes = np.count_nonzero(drawn, axis=1)
    width = max(int(tree_sizes[:_BATCH_TREES].sum()), _PASS_SLOTS)
    joined = 0

    row, weight = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32)
    tree_of, seeds = np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.uint64)
    sizes = np.zeros(0, dtype=np.int64)  # in slots (distinct rows)
    # Per column, its level arrays; a right child's id is its sibling's plus 1.
    levels = {c: [] for c in ("tree",) + _COLUMNS if c != "right"}
    next_id, k = 0, d.bit_length()  # features per node: floor(log2(d)) + 1
    while True:
        room = np.cumsum(tree_sizes[joined:]) <= width - len(row)
        join = joined + max(int(np.count_nonzero(room)), int(not len(sizes) and joined < trees))
        if join > joined:
            block = drawn[joined:join]
            row = np.concatenate((row, by_row[np.nonzero(block)[1]]))
            weight = np.concatenate((weight, block[block > 0]))
            tree_of = np.concatenate((tree_of, np.arange(joined, join, dtype=np.int32)))
            seeds = np.concatenate((seeds, roots[joined:join]))
            sizes = np.concatenate((sizes, tree_sizes[joined:join]))
            joined = join
        if not len(sizes):
            break
        positive = weight * y[row]
        node_of = np.repeat(np.arange(len(sizes)), sizes)
        starts = np.cumsum(sizes) - sizes
        total = np.add.reduceat(weight, starts, dtype=np.int32)
        count1 = np.add.reduceat(positive, starts, dtype=np.int32)
        split_feature, split_threshold = np.full(len(sizes), -1), np.zeros(len(sizes))
        left = np.full(len(sizes), -1)
        level = (tree_of, split_feature, split_threshold, left, total - count1, count1)
        for column, value in zip(levels.values(), level):  # children as forest-wide ids
            column.append(value)
        next_id += len(sizes)

        # Each node's stream gives its feature draws and, as columns 0 and 1,
        # its children's seeds.
        draws = _streams(seeds, max(k, 2))
        grow = (count1 > 0) & (count1 < total)
        feats = np.full((len(sizes), k), -1)
        feats[grow] = _choose_many(draws[grow], k, d)
        split, feature, threshold = _best_splits(
            X, bins, row, weight, positive, layout, node_of, total, count1, feats
        )
        children = next_id + 2 * np.arange(np.count_nonzero(split))
        split_feature[split], split_threshold[split] = feature[split], threshold[split]
        left[split] = children

        # Regroup the slots stably into the children, left then right, by the
        # thresholds; as a ≤ t < b, neither is empty. As child < len(keep), a
        # 16-bit key takes numpy's radix sort.
        keep = np.flatnonzero(split[node_of])
        node = node_of[keep]
        child = 2 * (np.cumsum(split) - 1)[node] + (X[row[keep], feature[node]] > threshold[node])
        moved = keep[np.argsort(child.astype(np.min_scalar_type(len(keep))), kind="stable")]
        row, weight = row[moved], weight[moved]
        sizes = np.bincount(child, minlength=2 * np.count_nonzero(split))
        del keep, node, child, moved  # not to sit under the next pass
        seeds = draws[split, :2].ravel()
        tree_of = np.repeat(tree_of[split], 2)

    # One column at a time, so the levels, not three copies of them, set the peak.
    tree = np.concatenate(levels.pop("tree"))
    by_tree = np.argsort(tree, kind="stable")  # breadth first within each tree
    counts = np.bincount(tree, minlength=trees)
    local = np.empty(len(tree), dtype=np.int64)
    local[by_tree] = np.arange(len(tree)) - (np.cumsum(counts) - counts)[tree[by_tree]]
    columns = []
    for name in _COLUMNS:
        if name == "right":  # siblings keep adjacent ids within their tree
            columns.append(np.where(columns[-1] >= 0, columns[-1] + 1, -1))
            continue
        column = np.concatenate(levels.pop(name))
        if name == "left":
            column = np.where(column >= 0, local[column], -1)
        columns.append(column[by_tree])
    return counts, columns


def train(X: np.ndarray, y: np.ndarray, trees: int, seed: int, pool=None) -> ForestModel:
    """Train a bagged forest of ``trees`` trees on the rows of ``X`` (n × d)
    with labels ``y``, each 0 or 1.

    Each tree trains on an n-sized bootstrap sample drawn with replacement from
    its own splitmix64 stream (seeded from ``seed`` and the tree index); node
    splits minimize Gini impurity over floor(log2(d)) + 1 of the d features,
    sampled with the node's own seed (see the module docstring). Fully
    deterministic given the seed and the row order.

    The trees grow together, in level passes as wide as the first
    ``_BATCH_TREES`` trees' roots or ``_PASS_SLOTS`` slots, whichever is more
    (``_grow_trees``). ``pool``, a ``concurrent.futures`` executor, grows the
    whole forest as one task in one of its workers, in passes as full as here,
    so the model is the same with or without it.
    """
    if isinstance(trees, bool) or not isinstance(trees, (int, np.integer)):
        raise ConfigurationError(f"trees must be an integer, got {trees!r}")
    if trees < 1:
        raise ConfigurationError(f"trees must be >= 1, got {trees}")
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    if X.ndim and not len(X):
        raise TrainingError("training data is empty")
    if X.ndim != 2 or not X.shape[1]:
        raise ConfigurationError(f"training data has shape {X.shape}, not n × d with d ≥ 1")
    if y.ndim != 1:
        raise ConfigurationError(f"labels have shape {y.shape}, not one per row")
    if len(y) != len(X):
        raise ConfigurationError(f"{len(X)} training rows but {len(y)} labels")
    binary = (y == 0) | (y == 1)
    if not binary.all():
        raise TrainingError(f"label other than 0 or 1 in training data: row {np.argmin(binary)}")
    y = y.astype(np.int64)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise TrainingError(f"non-finite feature value (NaN or ±inf) in training data: row {bad}")
    if len(X) > _MAX_ROWS:
        raise TrainingError(f"{len(X)} training rows; the forest takes at most {_MAX_ROWS}")
    if len(set(y.tolist())) < 2:
        raise TrainingError("training data contains a single class")

    args = (X, y, [derive_seed(seed, i) for i in range(trees)])
    counts, columns = pool.submit(_grow_trees, *args).result() if pool else _grow_trees(*args)
    ends = np.cumsum(counts).tolist()  # each tree's arrays are views into the forest's table
    return ForestModel([DecisionTree(*(c[a:b] for c in columns)) for a, b in zip([0] + ends, ends)])


def predict_proba(model: ForestModel, x):
    """Positive-class probability: mean over trees of the leaf positive fraction.

    ``x`` is one row (a sequence of values, such as a FeatureVector), which
    gives a float, or a 2-D batch of rows, which gives one probability per
    row. Every (tree, row) pair is walked down at once; the fractions are then
    summed in tree order, so a row's score does not depend on the batch it is
    scored in. A row with a non-finite value, or narrower than a feature the
    trees split on, raises DataError naming the first such row; so does any
    other shape, such as rows of unequal length, naming the shape.
    """
    try:
        rows = np.asarray(x, dtype=np.float64)
    except ValueError as exc:  # rows of unequal length, or a value that is not a number
        raise DataError(f"prediction data is not one row or an n × d batch: {exc}") from None
    if rows.ndim not in (1, 2):
        raise DataError(f"prediction data has shape {rows.shape}, not one row or n × d")
    batch = np.atleast_2d(rows)
    n = len(batch)
    sizes = [len(tree.feature) for tree in model.trees]
    first = np.cumsum(sizes) - sizes
    feature, threshold, left, right, count0, count1 = (
        np.concatenate([getattr(tree, c) for tree in model.trees]) for c in _COLUMNS
    )
    finite = np.isfinite(batch).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DataError(f"non-finite feature value (NaN or ±inf) in prediction data: row {bad}")
    widest = int(feature.max(initial=-1))
    if n and widest >= batch.shape[1]:
        raise DataError(f"{batch.shape[1]} feature values but a split on feature {widest}: row 0")
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

