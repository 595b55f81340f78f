"""Output checker: does one citegauge run's artifact set look right?

A run fails when its exit code is non-zero, an artifact is missing or does not
parse, a row count differs from the number of valid pairs, or its artifacts
differ from the first run of the same code and seed (compared by digest).
Every run of one workload writes to the same output path, so the
``output_dir`` that ``report.json`` echoes cannot make equal runs differ.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

ARTIFACTS = {
    "features": ("features.csv", "features_warnings.json"),
    "evaluate": ("report.json", "pr_grid.csv", "correlations.csv", "pr_points.csv"),
}

_FEATURE_SETS = ("f1", "f4", "f9", "all")


def _csv_rows(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0][: len(header)] != header:
        raise ValueError(f"unexpected header {rows[:1]}")
    return rows[1:]


def _expect(problems: list[str], name: str, what: str, got: int, want: int) -> None:
    if got != want:
        problems.append(f"{name}: {what} {got}, expected {want}")


def _check_one(name: str, path: Path, valid_pairs: int, problems: list[str]) -> None:
    if name == "features.csv":
        rows = _csv_rows(path, ["citing_id", "cited_id", "f1", "f4", "f9", "label"])
        _expect(problems, name, "rows", len(rows), valid_pairs)
        for row in rows:
            int(row[2]), float(row[3]), float(row[4])
    elif name == "features_warnings.json":
        if not isinstance(json.loads(path.read_text(encoding="utf-8")), list):
            problems.append(f"{name}: not a JSON list")
    elif name == "report.json":
        report = json.loads(path.read_text(encoding="utf-8"))
        _expect(problems, name, "filtered_pairs", report["stats"]["filtered_pairs"], valid_pairs)
        for feature_set in _FEATURE_SETS:
            _expect(problems, name, f"{feature_set} curve points",
                    len(report["pr_points"][feature_set]), valid_pairs)
        float(report["map_score"])
    elif name == "pr_points.csv":
        rows = _csv_rows(path, ["recall", "precision", "feature_set"])
        _expect(problems, name, "rows", len(rows), len(_FEATURE_SETS) * valid_pairs)
    elif name == "pr_grid.csv":
        _expect(problems, name, "rows", len(_csv_rows(path, ["feature_set"])), len(_FEATURE_SETS))
    elif name == "correlations.csv":
        _expect(problems, name, "rows", len(_csv_rows(path, ["feature"])), 3)


def check_artifacts(command: str, out_dir: str | Path, valid_pairs: int) -> tuple[list[str], str]:
    """Problems found in ``out_dir`` for ``command``, and a digest of its artifacts."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    digest = hashlib.sha256()
    for name in ARTIFACTS[command]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        digest.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
        try:
            _check_one(name, path, valid_pairs, problems)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"{name}: unparseable ({exc!r})")
    return problems, digest.hexdigest()


def f1_exact_share(features_csv: str | Path, planted: list[list]) -> float:
    """Share of planted pairs whose f1 in ``features_csv`` equals the planted count.

    A planted pair missing from the CSV counts as a miss.
    """
    with open(features_csv, newline="", encoding="utf-8") as handle:
        found = {(r["citing_id"], r["cited_id"]): r["f1"] for r in csv.DictReader(handle)}
    exact = sum(1 for citing, cited, k in planted if found.get((citing, cited)) == str(k))
    return exact / len(planted)
