"""Cross-validated scoring and the metric battery: interpolated precision at
fixed recall levels, Pearson correlation with two-tailed significance, and
mean average precision.

``run_evaluation`` puts the pairs in pair-id order once; the folds, the
forests, the rankings and the correlation sums all work on arrays in that
order, so no bit of the report depends on the order of the input rows, and
rankings break score ties by ascending pair id. Interpolated precision rows
are checked for monotonicity every time a report is assembled.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import CitationPair, CorpusStats, pair_key
from .errors import ConfigurationError, EvaluationError
from .features import DEFAULT_RECALL_LEVELS, FEATURE_NAMES, feature_set_order
from .forest import _streams, derive_seed, predict_proba, train

logger = logging.getLogger(__name__)

FEATURE_SET_ALL = "all"

# (pair, feature vector) rows, as compute_feature_matrix returns them.
FeatureRows = Sequence[tuple[CitationPair, Sequence[float]]]


@dataclass
class CorrelationResult:
    r: float
    p_value: float
    n: int


@dataclass
class EvaluationReport:
    pr_grid: dict[str, dict[float, float]]  # feature set -> recall level -> precision
    correlations: dict[str, CorrelationResult | None]
    map_score: float
    stats: CorpusStats
    config: dict
    pr_points: dict[str, list[tuple[float, float]]] = field(default_factory=dict)


def stratified_folds(labels: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Partition rows into k folds, stratified by label (0 or 1); gives each
    row's fold.

    Within each class, rows are taken in row order, shuffled by a seeded
    stream, and dealt round-robin, so per-fold class counts differ by at most
    1. Classes smaller than k simply spread one per fold until exhausted.
    """
    if k < 2:
        raise ConfigurationError(f"fold count must be >= 2, got {k}")
    if k > len(labels):
        raise ConfigurationError(f"fold count {k} exceeds pair count {len(labels)}")
    binary = (labels == 0) | (labels == 1)
    if not binary.all():
        raise EvaluationError(f"label other than 0 or 1: row {np.argmin(binary)}")

    folds = np.empty(len(labels), dtype=np.int64)
    for label in (0, 1):
        members = np.flatnonzero(labels == label).tolist()
        # Fisher-Yates from the top: position i swaps with draw len - 1 - i modulo i + 1.
        draws = _streams(np.array([derive_seed(seed, label)], dtype=np.uint64), len(members))
        for i, draw in zip(range(len(members) - 1, 0, -1), draws[0].tolist()):
            j = draw % (i + 1)
            members[i], members[j] = members[j], members[i]
        folds[members] = np.arange(len(members)) % k
    return folds


def cross_validate(
    X: np.ndarray, y: np.ndarray, trees: int, k: int, seed: int, workers: int = 1
) -> np.ndarray:
    """Stratified k-fold cross-validation: each fold is scored by a forest of
    ``trees`` trees trained on the other k-1 folds. Returns one score per row.
    ``seed`` draws the folds, and fold i's forest has seed
    ``derive_seed(seed, 1000 + i)``. Every training split is
    checked before any forest grows. With ``workers`` above 1 (capped at the
    usable CPUs and at the non-empty folds), a pool of that many forked
    processes then opens, and up to that many folds grow at once, each whole
    in one worker from its own thread; both pools are reaped before this
    returns, and the scores do not depend on them."""
    folds = stratified_folds(y, k, seed)
    splits = [(fold, test) for fold in range(k) if (test := folds == fold).any()]
    for fold, test in splits:
        labels = sorted(set(y[~test].tolist()))
        if len(labels) < 2:
            raise EvaluationError(
                f"fold {fold}: training split contains a single class "
                f"({np.count_nonzero(~test)} rows, labels {labels})"
            )

    def fold_model(split):
        return train(X[~split[1]], y[~split[1]], trees, derive_seed(seed, 1000 + split[0]), pool)

    pool = None  # the process pool the fold threads train on, if any
    if workers > 1:  # sched_getaffinity is Linux-only; elsewhere count every CPU
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        workers = min(workers, cpus or 1, len(splits))
    scores = np.empty(len(y))
    if workers <= 1:
        for split in splits:  # no name holds a forest: each is freed before the next grows
            scores[split[1]] = predict_proba(fold_model(split), X[split[1]])
        return scores
    import multiprocessing.pool  # deferred: the serial path never needs it

    # Forked before the fold threads start; the pool's exit terminates and joins its workers.
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        threads = multiprocessing.pool.ThreadPool(workers)
        try:
            for (_, test), model in zip(splits, threads.imap(fold_model, splits)):
                scores[test] = predict_proba(model, X[test])
        except Exception:  # not an interrupt, which can stop a worker that then never answers
            threads.terminate()  # drops the folds not started,
            threads.join()  # and waits for those growing
            raise
        threads.close()
        threads.join()
    return scores


def pr_curve(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """Precision/recall points, one per ranking prefix. Ties keep row order."""
    positives = int(np.count_nonzero(labels))
    if positives == 0:
        raise EvaluationError("precision/recall undefined: no positive pairs")
    points = []
    true_pos = 0
    for rank, label in enumerate(labels[np.argsort(-scores, kind="stable")].tolist(), start=1):
        true_pos += label
        points.append((true_pos / positives, true_pos / rank))
    return points


def interpolated_precision(
    curve: Sequence[tuple[float, float]], recall_levels: Sequence[float]
) -> dict[float, float]:
    """Max precision over all curve points with recall >= each level (0 if none)."""
    result = {}
    for level in recall_levels:
        eligible = [prec for recall, prec in curve if recall >= level - 1e-12]
        result[level] = max(eligible) if eligible else 0.0
    return result


def pearson(values: Sequence[float], labels: Sequence[int]) -> CorrelationResult:
    """Sample Pearson r with a two-tailed p-value from the t distribution
    (n-2 degrees of freedom, via the regularized incomplete beta function)."""
    n = len(values)
    if n != len(labels):
        raise ConfigurationError("values and labels must have equal length")
    if n < 3:
        raise EvaluationError(f"correlation needs n >= 3, got {n}")
    x = np.asarray(values, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise EvaluationError("correlation undefined: non-finite value")
    dx = x - x.mean()
    dy = y - y.mean()
    var_x = float(dx @ dx)
    var_y = float(dy @ dy)
    if var_x == 0.0 or var_y == 0.0:
        raise EvaluationError("correlation undefined: zero variance")
    r = float(dx @ dy) / math.sqrt(var_x * var_y)
    r = max(-1.0, min(1.0, r))

    dof = n - 2
    if 1.0 - r * r < 1e-15:
        p_value = 0.0
    else:
        t_sq = r * r * dof / (1.0 - r * r)
        p_value = _betainc(dof / 2.0, 0.5, dof / (dof + t_sq), t_sq / (dof + t_sq))
    return CorrelationResult(r=r, p_value=p_value, n=n)


_BETA_MAX_TERMS = 10_000  # far above need: at most 110 terms for dof up to 1e7


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b). The caller passes y = 1 - x
    computed on its own, since ``1 - x`` keeps few digits when x is near 1.

    The continued fraction in x (Numerical Recipes, 3rd ed., 6.4) converges
    fast for x < (a+1)/(a+b+2); above that, I_x(a, b) = 1 - I_y(b, a). Near
    x = 1 its odd terms nearly cancel the 1 they are added to, which costs
    about log10(1/y) digits, so from x = 1/2 on the second fraction of Cephes'
    ``incbet``, in z = x/y, takes its place: with b < 1, as in every call
    here, its terms are all positive. Either is evaluated by the modified
    Lentz method, and a fraction that does not converge raises
    EvaluationError rather than return a value."""
    flip = x >= (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    if x == 0.0:
        return 1.0 if flip else 0.0
    # log(x) from y when x is near 1: a rounding of x costs a times more there.
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(a * log_x + b * log_y - _log_beta(a, b)) / a
    if x < 0.5:
        fraction = _lentz(_x_fraction_terms(a, b, x))
    else:
        fraction = _lentz(_z_fraction_terms(a, b, x / y))
        front /= y
    if fraction is None:
        raise EvaluationError(f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge")
    part = front * fraction
    return 1.0 - part if flip else part


def _x_fraction_terms(a: float, b: float, x: float):
    """Partial numerators of I_x(a, b)'s fraction in x (Numerical Recipes 6.4.5)."""
    for m in range(_BETA_MAX_TERMS // 2):
        yield -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        yield (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))


def _z_fraction_terms(a: float, b: float, z: float):
    """Partial numerators of the fraction in z = x/(1-x) (Cephes ``incbd``)."""
    for m in range(_BETA_MAX_TERMS // 2):
        yield -z * (a + m) * (b - 1 - m) / ((a + 2 * m) * (a + 2 * m + 1))
        yield z * (m + 1) * (a + b + m) / ((a + 2 * m + 1) * (a + 2 * m + 2))


def _lentz(terms) -> float | None:
    """1/(1 + t1/(1 + t2/(1 + ...))) over odd-even pairs of terms, or None
    when the terms run out first."""
    h, c, d = 1.0, math.inf, 1.0
    for k, num in enumerate(terms, 1):
        d = 1.0 / ((1.0 + num * d) or 1e-300)
        c = (1.0 + num / c) or 1e-300
        h *= c * d
        # At large a an even term alone can change h by less than the
        # tolerance long before the fraction has converged, so the test takes
        # each odd term and the even term after it together.
        pair = c * d if k % 2 else pair * c * d
        if not k % 2 and abs(pair - 1.0) < 1e-15:
            return h
    return None


# Stirling's series: lgamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + tail(z), with
# tail(z) = sum of B_2k / (2k (2k - 1) z^(2k - 1)). From z = 10 on, these seven
# terms leave under 1e-16 out.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_tail(z: float) -> float:
    w = 1.0 / (z * z)
    return sum(c * w**k for k, c in enumerate(_STIRLING)) / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). For a large parameter, lgamma(a) + lgamma(b) - lgamma(a+b)
    cancels: each lgamma term is far larger than the sum, so the sum keeps
    only the digits the terms leave. There lgamma(big + small) - lgamma(big)
    comes from Stirling's series, whose terms are of the sum's own size."""
    small, big = sorted((a, b))
    if big < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rise = (
        (big - 0.5) * math.log1p(small / big)
        + small * math.log(big + small)
        - small
        + (_stirling_tail(big + small) - _stirling_tail(big))
    )
    return math.lgamma(small) - rise


def mean_average_precision(curve: Sequence[tuple[float, float]]) -> float:
    """Average over positives of the precision at each positive's rank, read
    off a ``pr_curve``: a positive is a point where recall rises."""
    total = 0.0
    positives = 0
    previous = 0.0
    for recall, precision in curve:
        if recall > previous:
            positives += 1
            total += precision
            previous = recall
    if positives == 0:
        raise EvaluationError("average precision undefined: no positive pairs")
    return total / positives


def build_report(
    X: np.ndarray,
    labels: np.ndarray,
    score_sets: Mapping[str, np.ndarray],
    recall_levels: Sequence[float] = DEFAULT_RECALL_LEVELS,
    stats: CorpusStats | None = None,
    config_echo: dict | None = None,
) -> EvaluationReport:
    """Assemble the full evaluation report.

    ``X`` holds one row of ``FEATURE_NAMES`` values per label, and
    ``score_sets`` maps feature-set names (single features plus "all") to one
    score per row; ties rank in that row order. Correlations are computed
    feature-vs-label from the columns of ``X``; the MAP figure comes from the
    "all" set when present, else the first set.
    """
    pr_grid: dict[str, dict[float, float]] = {}
    pr_points: dict[str, list[tuple[float, float]]] = {}
    for name, scores in score_sets.items():
        curve = pr_curve(scores, labels)
        grid = interpolated_precision(curve, recall_levels)
        ordered = [grid[level] for level in sorted(grid)]
        if any(a < b - 1e-12 for a, b in zip(ordered, ordered[1:])):
            raise EvaluationError(f"interpolated precision not monotone for {name}")
        pr_grid[name] = grid
        pr_points[name] = curve

    correlations: dict[str, CorrelationResult | None] = {}
    for j, name in enumerate(FEATURE_NAMES):
        try:
            correlations[name] = pearson(X[:, j], labels)
        except EvaluationError as exc:
            logger.warning("correlation for %s undefined: %s", name, exc)
            correlations[name] = None

    map_curve = pr_points.get(FEATURE_SET_ALL)
    if map_curve is None:
        map_curve = next(iter(pr_points.values()))
    return EvaluationReport(
        pr_grid=pr_grid,
        correlations=correlations,
        map_score=mean_average_precision(map_curve),
        stats=stats or CorpusStats(),
        config=dict(config_echo or {}),
        pr_points=pr_points,
    )


def run_evaluation(
    rows: FeatureRows,
    trees: int,
    k: int,
    seed: int,
    recall_levels: Sequence[float] = DEFAULT_RECALL_LEVELS,
    single_feature_mode: str = "direct_rank",
    stats: CorpusStats | None = None,
    config_echo: dict | None = None,
    workers: int = 1,
) -> EvaluationReport:
    """Cross-validate the all-features forest (``cross_validate`` with ``trees``,
    ``k`` and ``seed``), rank each single feature by its raw value, and build
    the report. single_feature_mode "forest" scores feature j with its own
    one-feature cross-validation, seeded ``derive_seed(seed, 2000 + j)``, instead.

    The pairs are put in pair-id order once, here; the folds, the forests,
    the rankings and the correlations see them only in that order, so the
    report does not depend on the order of ``rows``.

    ``workers`` goes to each cross-validation, which opens and reaps its own
    pool; the report does not depend on it."""
    if single_feature_mode not in ("direct_rank", "forest"):
        raise ConfigurationError(f"unknown single-feature mode: {single_feature_mode!r}")

    by_id = sorted(rows, key=lambda row: pair_key(row[0]))
    # reshape: no rows still gives X two axes, so the fold check reports them
    X = np.array([vec for _, vec in by_id], dtype=np.float64).reshape(-1, len(FEATURE_NAMES))
    y = np.array([pair.label for pair, _ in by_id], dtype=np.int64)

    score_sets: dict[str, np.ndarray] = {}
    for j, name in enumerate(FEATURE_NAMES):
        if single_feature_mode == "direct_rank":
            score_sets[name] = X[:, j]
        else:
            feature_seed = derive_seed(seed, 2000 + j)
            score_sets[name] = cross_validate(X[:, [j]], y, trees, k, feature_seed, workers)
    score_sets[FEATURE_SET_ALL] = cross_validate(X, y, trees, k, seed, workers)

    return build_report(
        X, y, score_sets, recall_levels=recall_levels, stats=stats, config_echo=config_echo
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "pr_grid": {
            name: {f"{level:g}": precision for level, precision in grid.items()}
            for name, grid in report.pr_grid.items()
        },
        "correlations": {
            name: asdict(corr) if corr is not None else None
            for name, corr in report.correlations.items()
        },
        "map_score": report.map_score,
        "stats": asdict(report.stats),
        "config": report.config,
        "pr_points": {
            name: [[recall, precision] for recall, precision in points]
            for name, points in report.pr_points.items()
        },
    }


def write_report_json(report: EvaluationReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def write_pr_grid_csv(report: EvaluationReport, path: str | Path) -> None:
    """One row per feature set, one column per recall level."""
    levels = sorted({level for grid in report.pr_grid.values() for level in grid})
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["feature_set"] + [f"p_at_r{level:g}" for level in levels])
        for name in feature_set_order(report.pr_grid):
            grid = report.pr_grid[name]
            writer.writerow([name] + [f"{grid[level]:.6f}" if level in grid else "" for level in levels])


def write_correlations_csv(report: EvaluationReport, path: str | Path) -> None:
    """One row per single feature: precision at recall 0.9 plus the Pearson result."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["feature", "p_at_r0.9", "pearson_r", "p_value", "n"])
        for name in feature_set_order(report.correlations):
            p_at_90 = ""
            if name in report.pr_points:
                p_at_90 = f"{interpolated_precision(report.pr_points[name], [0.9])[0.9]:.6f}"
            corr = report.correlations[name]
            if corr is None:
                writer.writerow([name, p_at_90, "", "", ""])
            else:
                writer.writerow([name, p_at_90, f"{corr.r:.6f}", f"{corr.p_value:.6g}", corr.n])


def write_pr_points_csv(report: EvaluationReport, path: str | Path) -> None:
    """Plot-ready curve points: recall,precision,feature_set."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["recall", "precision", "feature_set"])
        for name in feature_set_order(report.pr_grid):
            for recall, precision in report.pr_points.get(name, []):
                writer.writerow([f"{recall:.6f}", f"{precision:.6f}", name])
