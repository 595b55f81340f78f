"""Command-line interface wiring corpus -> parsing -> features -> training -> evaluation.

Every command is deterministic given its configuration (including the seed);
re-running a command produces byte-identical artifacts. Exit codes: 0 success,
1 usage or configuration error, 2 data error, 3 internal error. The
CITEGAUGE_LOG environment variable (DEBUG/INFO/WARNING/ERROR) controls log
verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import citeparse, corpus as corpus_mod, features as features_mod
from .errors import ConfigurationError, DataError

logger = logging.getLogger(__name__)


def _is_number(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


@dataclass
class RunConfig:
    corpus_dir: str | None = None
    pairs_file: str | None = None
    seed: int = 42
    trees: int = 100
    folds: int = 10
    recall_levels: list[float] = field(
        default_factory=lambda: list(features_mod.DEFAULT_RECALL_LEVELS)
    )
    f4_mode: str = "jaccard"
    single_feature_mode: str = "direct_rank"
    threads: int = 1
    output_dir: str = "citegauge-out"

    def validate(self) -> None:
        for name in ("seed", "trees", "folds", "threads"):
            if not _is_number(getattr(self, name), int):
                raise ConfigurationError(f"{name} must be an integer")
        inputs = ("corpus_dir", "pairs_file")  # may be None; _require_inputs checks them
        for name in inputs + ("f4_mode", "single_feature_mode", "output_dir"):
            value = getattr(self, name)
            if not (isinstance(value, str) or value is None and name in inputs):
                raise ConfigurationError(f"{name} must be a string")
        if not self.output_dir:  # "" would write the artifacts into the current directory
            raise ConfigurationError("--output must not be empty")
        if not isinstance(self.recall_levels, list) or not all(
            _is_number(r, (int, float)) for r in self.recall_levels
        ):
            raise ConfigurationError("recall_levels must be a list of numbers")
        if self.folds < 2:
            raise ConfigurationError("--folds must be >= 2")
        if self.trees < 1:
            raise ConfigurationError("--trees must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("--threads must be >= 1")
        if self.f4_mode not in ("jaccard", "boolean"):
            raise ConfigurationError("--f4-mode must be jaccard or boolean")
        if self.single_feature_mode not in ("direct_rank", "forest"):
            raise ConfigurationError("--single-feature-mode must be direct_rank or forest")
        levels = self.recall_levels
        if not levels or any(not 0.0 < r <= 1.0 for r in levels):
            raise ConfigurationError("recall levels must lie in (0, 1]")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ConfigurationError("recall levels must be strictly increasing")
        if len({f"{r:g}" for r in levels}) < len(levels):  # artifacts key levels by :g
            raise ConfigurationError("recall levels must differ in 6 significant digits")


_CONFIG_FIELDS = tuple(f.name for f in fields(RunConfig))


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--corpus", dest="corpus_dir", metavar="DIR")
    common.add_argument("--pairs", dest="pairs_file", metavar="FILE")
    common.add_argument("--seed", type=int)
    common.add_argument("--trees", type=int)
    common.add_argument("--folds", type=int)
    common.add_argument("--recall-levels", dest="recall_levels", metavar="CSV")
    common.add_argument("--f4-mode", dest="f4_mode", choices=["jaccard", "boolean"])
    common.add_argument(
        "--single-feature-mode",
        dest="single_feature_mode",
        choices=["direct_rank", "forest"],
    )
    common.add_argument("--threads", type=int)
    common.add_argument("--output", dest="output_dir", metavar="DIR")
    common.add_argument("--config", dest="config_file", metavar="JSON")

    parser = _Parser(prog="citegauge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[common], help="load and validate corpus and pairs")
    sub.add_parser("features", parents=[common], help="write the feature matrix CSV")
    sub.add_parser("evaluate", parents=[common], help="cross-validate and write the report")
    report = sub.add_parser("report", help="render a report JSON as aligned tables")
    report.add_argument("report_path", metavar="REPORT_JSON")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Flags beat the --config file, which beats the defaults."""
    file_values = {}
    if args.config_file:
        config_path = Path(args.config_file)
        if not config_path.is_file():
            raise ConfigurationError(f"config file not found: {config_path}")
        try:
            loaded = json.loads(config_path.read_text(encoding="utf-8-sig"))
        except ValueError as exc:
            raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {', '.join(sorted(unknown))}")
        file_values = loaded

    flags = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    if "recall_levels" in flags:
        try:
            levels = flags["recall_levels"].split(",")
            flags["recall_levels"] = [float(level) for level in levels if level.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"bad --recall-levels: {exc}") from exc
    merged = RunConfig(**{**file_values, **flags})
    merged.validate()
    return merged


def _load_dataset(config: RunConfig, nothing_to: str | None = None):
    """Check the inputs, create the output directory, then load the dataset and
    filter its pairs: (out, corpus, pairs, valid pairs, stats, pair issues).
    The directory comes first, so a bad --output fails before any work. With
    ``nothing_to``, a dataset whose pairs all fail the abstract filter is a
    data error."""
    if not config.corpus_dir or not config.pairs_file:
        raise ConfigurationError("--corpus and --pairs are required")
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc
    corpus = corpus_mod.load_corpus(config.corpus_dir)
    pairs, stats, issues = corpus_mod.load_pairs(config.pairs_file, corpus)
    valid = corpus_mod.filter_valid_pairs(pairs, corpus, stats)
    if nothing_to and not valid:
        raise DataError(f"no pairs survived the abstract filter; nothing to {nothing_to}")
    return out, corpus, pairs, valid, stats, issues


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def cmd_ingest(config: RunConfig) -> int:
    out, corpus, pairs, _, stats, issues = _load_dataset(config)

    unresolved_by_paper = {}
    unparseable = []
    for citing_id in sorted({p.citing_id for p in pairs}):
        index = citeparse.index_citing_paper(corpus[citing_id])
        if not index.entries:
            unparseable.append(citing_id)
        elif index.unresolved:
            unresolved_by_paper[citing_id] = len(index.unresolved)

    _write_json(
        out / "ingest_report.json",
        {
            "stats": asdict(stats),
            "load_issues": [asdict(i) for i in corpus.load_report],
            "pair_issues": [asdict(i) for i in issues],
            "unresolved_markers": unresolved_by_paper,
            "unparseable_bibliographies": unparseable,
        },
    )

    print(f"papers loaded: {len(corpus)} ({len(corpus.load_report)} malformed skipped)")
    print(
        f"pairs loaded: {stats.total_pairs} "
        f"({stats.incidental_count} incidental / {stats.influential_count} influential)"
    )
    print(
        f"pairs after abstract filter: {stats.filtered_pairs} "
        f"({stats.positive_after_filter} influential)"
    )
    if issues:
        print(f"dropped pair rows: {len(issues)}")
    total_unresolved = sum(unresolved_by_paper.values())
    print(
        f"unresolved citation markers: {total_unresolved} across "
        f"{len(unresolved_by_paper)} paper(s); unparseable bibliographies: {len(unparseable)}"
    )
    print(f"report written to {out / 'ingest_report.json'}")
    return 0


def cmd_features(config: RunConfig) -> int:
    out, corpus, _, valid, _, _ = _load_dataset(config, "extract")
    rows, notes = features_mod.compute_feature_matrix(corpus, valid, config.f4_mode, config.threads)
    features_mod.write_feature_matrix(rows, out / "features.csv")
    _write_json(out / "features_warnings.json", notes)
    print(f"feature matrix: {len(rows)} pairs -> {out / 'features.csv'}")
    print(f"warnings: {len(notes)} -> {out / 'features_warnings.json'}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    out, corpus, _, valid, stats, _ = _load_dataset(config, "evaluate")
    rows, _ = features_mod.compute_feature_matrix(corpus, valid, config.f4_mode, config.threads)
    del corpus, valid  # rows and stats hold no reference to them; free the texts

    # Only evaluate loads numpy (through forest and evaluation), and only now, into
    # the memory the texts held. Its one BLAS call is a dot product over the pairs,
    # so one OpenBLAS thread will do, and the training pool forks no BLAS threads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import evaluation

    report = evaluation.run_evaluation(
        rows,
        trees=config.trees,
        k=config.folds,
        seed=config.seed,
        recall_levels=config.recall_levels,
        single_feature_mode=config.single_feature_mode,
        stats=stats,
        config_echo={name: getattr(config, name) for name in _CONFIG_FIELDS},
        workers=config.threads,
    )

    evaluation.write_report_json(report, out / "report.json")
    evaluation.write_pr_grid_csv(report, out / "pr_grid.csv")
    evaluation.write_correlations_csv(report, out / "correlations.csv")
    evaluation.write_pr_points_csv(report, out / "pr_points.csv")

    for name in features_mod.FEATURE_NAMES:
        corr = report.correlations[name]
        if corr is None:
            print(f"pearson {name}: undefined (zero variance)")
        else:
            print(f"pearson {name}: r={corr.r:.4f} p={corr.p_value:.4g} n={corr.n}")
    print(f"MAP (all-features forest): {report.map_score:.4f}")
    print(f"report written to {out / 'report.json'}")
    return 0


def _render_report(data: dict) -> str:
    for required in ("pr_grid", "correlations", "map_score"):
        if required not in data:
            raise DataError(f"report missing '{required}'")

    grid = {}  # feature set -> recall level (parsed once) -> precision
    for name, row in data["pr_grid"].items():
        grid[name] = {float(level): value for level, value in row.items()}
        if len(grid[name]) < len(row) or not all(0.0 < level <= 1.0 for level in grid[name]):
            raise DataError(f"pr_grid row {name!r} names a recall level twice or outside (0, 1]")
    levels = sorted({level for row in grid.values() for level in row})
    table = [["feature_set"] + [f"P@R={level:g}" for level in levels]]
    for name in features_mod.feature_set_order(grid):
        values = [grid[name].get(level) for level in levels]
        table.append([name] + ["-" if v is None else f"{v:.2f}" for v in values])
    corr_table = [["feature", "pearson_r", "p_value", "n"]]
    for name, corr in data["correlations"].items():
        if corr is None:
            corr_table.append([name, "undefined", "-", "-"])
        else:
            corr_table.append(
                [name, f"{corr['r']:.3f}", f"{corr['p_value']:.3g}", str(corr["n"])]
            )
    return "\n".join(
        ["interpolated precision at recall levels", *_aligned(table), ""]
        + ["feature correlations with the gold labels", *_aligned(corr_table), ""]
        + [f"MAP: {data['map_score']:.4f}"]
    )


def _aligned(table: list[list[str]]) -> list[str]:
    """The rows of a table of strings, each column left-aligned to its widest cell."""
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in table]


def cmd_report(report_path: str) -> int:
    path = Path(report_path)
    if not path.is_file():
        raise DataError(f"report not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:
        raise DataError(f"report is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DataError("report is not a JSON object")
    try:
        rendered = _render_report(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed report: {exc!r}") from exc
    print(rendered)
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "report":
        return cmd_report(args.report_path)
    command = {"ingest": cmd_ingest, "features": cmd_features, "evaluate": cmd_evaluate}
    return command[args.command](_merge_config(args))


def main(argv: list[str] | None = None) -> int:
    level = getattr(logging, os.environ.get("CITEGAUGE_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed stdout raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`citegauge report REPORT_JSON | head -1`).
        # Every command writes its artifacts before it prints, so this ends the
        # output and is no failure. Point stdout at the null device so that the
        # interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - exit-code contract
        logger.debug("internal error", exc_info=True)
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
