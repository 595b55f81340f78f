"""Tiny-scale self-test of the benchmark: generator, one run per workload,
checker and traced run. It checks that the harness works, not how fast the
program is.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from check import check_artifacts  # noqa: E402
from gen import generate  # noqa: E402

SEED = 3

TINY = {
    "paper": dict(citing=12, cited_pool=30, body_words=300, bib_size=8, filler_markers=10),
    "fulltext": dict(citing=3, pairs_per_citing=5, cited_pool=30, body_words=300, bib_size=10,
                     filler_markers=10),
    "forest": dict(citing=40, cited_pool=30, body_words=100),
}


def tiny(name: str) -> run.Workload:
    workload = run.WORKLOADS[name]
    return replace(workload, gen=replace(workload.gen, **TINY[name]), trees=5, folds=3)


@pytest.fixture(scope="module", params=sorted(TINY))
def generated(request):
    name = f"selftest-{request.param}"
    workload = tiny(request.param)
    data = run.ROOT / run.WORK / name
    generate(workload.gen, SEED, data)
    yield name, workload, data
    shutil.rmtree(data, ignore_errors=True)


def test_generator_is_seeded_and_keeps_planted_counts_out_of_the_corpus(tmp_path):
    config = tiny("paper").gen
    first, second, other = (generate(config, seed, tmp_path / str(i))
                            for i, seed in enumerate((SEED, SEED, SEED + 1)))
    assert (first / "pairs.tsv").read_bytes() == (second / "pairs.tsv").read_bytes()
    assert (first / "corpus" / "C00000.json").read_bytes() == (
        second / "corpus" / "C00000.json").read_bytes()
    assert (first / "corpus" / "C00000.json").read_bytes() != (
        other / "corpus" / "C00000.json").read_bytes()
    planted = json.loads((first / "planted.json").read_text())["f1"]
    assert len(planted) == config.pairs
    assert not list((first / "corpus").glob("planted*"))


def test_end_to_end_run_is_checked_and_reports_every_metric(generated):
    name, workload, _ = generated
    runs, values = run.measure(name, workload, seconds=0)
    assert [r for r in runs if r.failed] == []
    end_to_end, _ = run.load_spec()
    assert set(end_to_end) <= set(values)
    assert all(values[m] > 0 for m in end_to_end)
    assert 0 < values["f1_exact_share"] <= 1
    assert ("map" in values) == (workload.command == "evaluate")


def test_traced_run_reports_every_layer(generated):
    name, workload, _ = generated
    runs, values = run.trace(name, workload)
    assert [r for r in runs if r.failed] == []
    assert set(run.load_spec()[1]) <= set(values)
    assert values["citeparse.parses_per_citing_paper"] == workload.gen.pairs_per_citing
    assert values["forest.train_calls"] == (workload.folds if workload.command == "evaluate" else 0)
    assert values["trace.layers_absent"] == 0
    spans = json.loads((run.ROOT / run.WORK / name / "spans.json").read_text())
    assert spans[0]["name"] == "pipeline" and spans[0]["parent"] is None
    assert all(s["end_s"] >= s["start_s"] for s in spans)


def test_checker_flags_missing_and_short_artifacts(generated):
    name, workload, data = generated
    if workload.command != "features":
        pytest.skip("one command is enough to exercise the checker")
    run.measure(name, workload, seconds=0)
    out, expect = data / "out", workload.gen.pairs
    assert check_artifacts("features", out, expect)[0] == []
    lines = (out / "features.csv").read_text().splitlines(keepends=True)
    (out / "features.csv").write_text("".join(lines[:-1]))
    assert any("rows" in p for p in check_artifacts("features", out, expect)[0])
    (out / "features_warnings.json").unlink()
    assert any("missing" in p for p in check_artifacts("features", out, expect)[0])


def test_benchmark_json_names_the_harness_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert "setup_s" in run.load_spec()[0]


def test_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
