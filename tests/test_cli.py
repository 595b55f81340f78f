import json
import multiprocessing
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import citegauge
import citegauge.cli as cli_module
from citegauge import evaluation, features as features_mod, forest
from citegauge.cli import RunConfig, main
from citegauge.errors import ConfigurationError, TrainingError

from fixture_corpus import (
    EXPECTED_AUX_COUNTS,
    EXPECTED_STATS,
    EXPECTED_TARGET_COUNTS,
    PAIR_ROWS,
    TARGET_ID,
    all_papers,
    write_dataset,
)
from conftest import FailingGrower, make_paper
from oracles import oracle_author_jaccard, oracle_cosine, oracle_tfidf_vector


def _run(*argv):
    return main(list(argv))


def _python(script, *argv, **kwargs):
    """Run script in a fresh interpreter that imports this checkout's package."""
    env = {**os.environ, "PYTHONPATH": str(Path(citegauge.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, **kwargs)


_FEATURE_ARTIFACTS = ("features.csv", "features_warnings.json")


def _evaluate_args(corpus_dir, pairs_file, out_dir, *extra):
    return [
        "evaluate",
        "--corpus", str(corpus_dir),
        "--pairs", str(pairs_file),
        "--output", str(out_dir),
        "--folds", "3",
        "--trees", "12",
        "--seed", "7",
        *extra,
    ]


class TestIngest:
    def test_reports_stats(self, tmp_path, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path, include_malformed=True)
        out = tmp_path / "out"
        code = _run(
            "ingest", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(out),
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert f"pairs loaded: {EXPECTED_STATS['total_pairs']}" in captured
        assert (
            f"({EXPECTED_STATS['incidental_count']} incidental / "
            f"{EXPECTED_STATS['influential_count']} influential)" in captured
        )
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["stats"]["filtered_pairs"] == EXPECTED_STATS["filtered_pairs"]
        assert report["stats"]["positive_after_filter"] == EXPECTED_STATS["positive_after_filter"]
        assert len(report["load_issues"]) == 1  # the malformed file
        assert report["unparseable_bibliographies"] == ["c09"]
        assert report["unresolved_markers"].get("c02") == 1

    def test_reads_each_citing_file_once_after_loading(self, tmp_path, file_reads):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        code = _run(
            "ingest", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"),
        )
        assert code == 0
        # Every file at load, then each citing paper's in id order; the
        # cited-only p-target and p-aux are not read again.
        names = sorted(path.name for path in corpus_dir.glob("*.json"))
        citing = sorted({f"{citing_id}.json" for citing_id, _, _ in PAIR_ROWS})
        assert file_reads() == names + citing

    def test_empty_pairs_file(self, tmp_path, capsys):
        corpus_dir, _ = write_dataset(tmp_path)
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code = _run(
            "ingest", "--corpus", str(corpus_dir), "--pairs", str(empty),
            "--output", str(tmp_path / "out"),
        )
        assert code == 0
        assert "pairs loaded: 0" in capsys.readouterr().out

    def test_missing_corpus_dir_exits_2(self, tmp_path, capsys):
        _, pairs_file = write_dataset(tmp_path)
        code = _run(
            "ingest", "--corpus", str(tmp_path / "nope"), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_required_flags_exits_1(self, tmp_path, capsys):
        code = _run("ingest", "--output", str(tmp_path / "out"))
        assert code == 1


class TestFeaturesCommand:
    def test_writes_matrix_and_sidecar(self, tmp_path, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = _run(
            "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(out),
        )
        assert code == 0
        lines = (out / "features.csv").read_text().splitlines()
        assert lines[0] == "citing_id,cited_id,f1,f4,f9,label"
        assert len(lines) == 1 + EXPECTED_STATS["filtered_pairs"]
        assert (out / "features_warnings.json").is_file()

    def test_byte_identical_reruns(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert _run(
                "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
                "--output", str(out), "--threads", "3" if out is out2 else "1",
            ) == 0
        assert (out1 / "features.csv").read_bytes() == (out2 / "features.csv").read_bytes()

    def test_matrix_equals_golden_content(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        assert _run(
            "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(out),
        ) == 0

        papers = {p.id: p for p in all_papers()}
        abstracts = [p.abstract for p in papers.values() if p.abstract]
        lines = ["citing_id,cited_id,f1,f4,f9,label"]
        for citing, cited, label in PAIR_ROWS:
            if not papers[citing].abstract or not papers[cited].abstract:
                continue
            counts = EXPECTED_TARGET_COUNTS if cited == TARGET_ID else EXPECTED_AUX_COUNTS
            f4 = oracle_author_jaccard(papers[citing].authors, papers[cited].authors)
            f9 = oracle_cosine(
                oracle_tfidf_vector(abstracts, papers[citing].abstract),
                oracle_tfidf_vector(abstracts, papers[cited].abstract),
            )
            lines.append(f"{citing},{cited},{counts[citing]},{f4:.6f},{f9:.6f},{label}")
        golden = "\n".join(lines) + "\n"
        assert (out / "features.csv").read_text(encoding="utf-8") == golden

    @pytest.mark.usefixtures("two_cpus")
    def test_threads_do_not_change_artifacts_or_stdout(self, tmp_path, capsys, fork_calls):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            assert _run(
                "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
                "--output", str(out), "--threads", threads,
            ) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            artifacts = [(out / name).read_bytes() for name in _FEATURE_ARTIFACTS]
            outputs[threads] = stdout, artifacts
        assert outputs["1"] == outputs["2"]
        assert fork_calls == ["fork"]  # --threads 2 forked the f4/f9 child

    def test_debug_lines_keep_their_order_across_threads(self, tmp_path, monkeypatch):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        script = "import os; os.sched_getaffinity = lambda pid: {0, 1}\n" + _MAIN
        monkeypatch.setenv("CITEGAUGE_LOG", "DEBUG")
        lines = {}
        for threads in ("1", "2"):
            args = ["features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
                    "--output", str(tmp_path / "out"), "--threads", threads]
            result = _python(script, *args, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            lines[threads] = [
                line for line in result.stderr.splitlines()
                if line.startswith("DEBUG:citegauge.features:")
            ]
        assert len(lines["1"]) >= 3  # one per warning in features_warnings.json
        assert lines["1"] == lines["2"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.usefixtures("two_cpus")
    def test_too_few_abstracts_exits_1(self, tmp_path, monkeypatch, capsys, threads):
        # Every pair that passes the abstract filter brings two abstracts, so the
        # filter is bypassed: "b" has none, and the tf-idf fit sees one document.
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for record in (
            make_paper("a", "A", ["A B"], abstract="the only abstract", body="text"),
            make_paper("b", "B", ["C D"], body="text"),
        ):
            (corpus_dir / f"{record.id}.json").write_text(json.dumps(asdict(record)))
        pairs_file = tmp_path / "pairs.tsv"
        pairs_file.write_text("citing_id\tcited_id\tlabel\na\tb\t0\n", encoding="utf-8")
        monkeypatch.setattr(cli_module.corpus_mod, "filter_valid_pairs", lambda pairs, *_: pairs)
        code = _run(
            "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"), "--threads", threads,
        )
        assert code == 1
        assert "tf-idf needs at least 2 documents, got 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    def test_all_pairs_filtered_out_exits_2(self, tmp_path, command):
        corpus_dir, _ = write_dataset(tmp_path)
        pairs = tmp_path / "only_c09.tsv"
        pairs.write_text("c09\tp-target\t0\n", encoding="utf-8")
        code = _run(
            command, "--corpus", str(corpus_dir), "--pairs", str(pairs),
            "--output", str(tmp_path / "out"),
        )
        assert code == 2

    def test_citing_file_changed_since_loading_exits_2(self, tmp_path, monkeypatch, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        compute = features_mod.compute_feature_matrix

        def delete_then_compute(*args):
            (corpus_dir / "c03.json").unlink()
            return compute(*args)

        monkeypatch.setattr(features_mod, "compute_feature_matrix", delete_then_compute)
        code = _run(
            "features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"),
        )
        assert code == 2
        assert f"changed since it was loaded: {corpus_dir / 'c03.json'}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "features.csv").exists()


class TestEvaluateCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = _run(*_evaluate_args(corpus_dir, pairs_file, out))
        assert code == 0
        for artifact in ("report.json", "pr_grid.csv", "correlations.csv", "pr_points.csv"):
            assert (out / artifact).is_file(), artifact
        report = json.loads((out / "report.json").read_text())
        assert set(report["pr_grid"]) == {"f1", "f4", "f9", "all"}
        assert report["stats"]["total_pairs"] == EXPECTED_STATS["total_pairs"]
        assert report["config"]["seed"] == 7
        captured = capsys.readouterr().out
        assert "pearson f1" in captured
        assert "MAP" in captured

    def test_deterministic_artifacts(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert _run(*_evaluate_args(corpus_dir, pairs_file, out1)) == 0
        assert _run(*_evaluate_args(corpus_dir, pairs_file, out2)) == 0
        for name in ("report.json", "pr_grid.csv", "correlations.csv", "pr_points.csv"):
            a = (out1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            # the output dir is echoed into the report config; normalize it
            assert a.replace(b"o1", b"oX") == b.replace(b"o2", b"oX"), name

    def test_custom_recall_levels(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = _run(
            *_evaluate_args(corpus_dir, pairs_file, out, "--recall-levels", "0.2,0.8")
        )
        assert code == 0
        grid = json.loads((out / "report.json").read_text())["pr_grid"]
        assert set(grid["all"]) == {"0.2", "0.8"}

    def test_bad_recall_levels_exit_1(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        code = _run(
            *_evaluate_args(corpus_dir, pairs_file, tmp_path / "out", "--recall-levels", "0.9,0.2")
        )
        assert code == 1

    def test_single_feature_forest_mode(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = _run(
            *_evaluate_args(
                corpus_dir, pairs_file, out, "--single-feature-mode", "forest"
            )
        )
        assert code == 0

    @pytest.mark.parametrize("mode", ["direct_rank", "forest"])
    def test_threads_do_not_change_artifacts(self, tmp_path, mode):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = {}
        for threads in ("1", "2"):
            out[threads] = tmp_path / f"o{threads}"
            code = _run(*_evaluate_args(
                corpus_dir, pairs_file, out[threads], "--threads", threads,
                "--single-feature-mode", mode,
            ))
            assert code == 0
        for name in ("pr_grid.csv", "correlations.csv", "pr_points.csv"):
            assert (out["1"] / name).read_bytes() == (out["2"] / name).read_bytes(), name
        reports = [json.loads((out[t] / "report.json").read_text()) for t in ("1", "2")]
        assert [r["config"].pop("threads") for r in reports] == [1, 2]
        assert [r["config"].pop("output_dir") for r in reports] == [str(out["1"]), str(out["2"])]
        assert reports[0] == reports[1]

    def test_boolean_f4_mode(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        inputs = ("--corpus", str(corpus_dir), "--pairs", str(pairs_file), "--output", str(out))
        assert _run("features", *inputs, "--f4-mode", "boolean") == 0
        rows = (out / "features.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert {row.split(",")[3] for row in rows} == {"0.000000", "1.000000"}
        assert _run(*_evaluate_args(corpus_dir, pairs_file, out, "--f4-mode", "boolean")) == 0
        assert json.loads((out / "report.json").read_text())["config"]["f4_mode"] == "boolean"

    def test_zero_variance_feature_is_undefined(self, tmp_path, monkeypatch, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        compute = features_mod.compute_feature_matrix

        def flat_f4(*args, **kwargs):
            rows, warnings = compute(*args, **kwargs)
            return [(pair, vec._replace(f4_author_overlap=0.0)) for pair, vec in rows], warnings

        monkeypatch.setattr(cli_module.features_mod, "compute_feature_matrix", flat_f4)
        out = tmp_path / "out"
        assert _run(*_evaluate_args(corpus_dir, pairs_file, out)) == 0
        rows = (out / "correlations.csv").read_text(encoding="utf-8").splitlines()
        cells = {row.split(",")[0]: row.split(",")[2:] for row in rows[1:]}
        assert cells["f4"] == ["", "", ""]
        assert all(cell for name in ("f1", "f9") for cell in cells[name])
        printed = capsys.readouterr().out.splitlines()
        assert "pearson f4: undefined (zero variance)" in printed
        assert json.loads((out / "report.json").read_text())["correlations"]["f4"] is None

    @pytest.mark.parametrize("error, code", [(TrainingError, 2), (RuntimeError, 3)])
    def test_worker_error_keeps_the_exit_code(self, tmp_path, monkeypatch, capsys, error, code):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        monkeypatch.setattr(forest, "_grow_trees", FailingGrower(error))  # patched before the fork
        args = _evaluate_args(corpus_dir, pairs_file, tmp_path / "out", "--threads", "2")
        assert _run(*args) == code
        assert "grower failed in a worker" in capsys.readouterr().err


# Importing numpy in a script that starts with this raises ImportError.
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"
_MAIN = "import sys; from citegauge import cli; sys.exit(cli.main(sys.argv[1:]))"


class TestImport:
    def test_package_import_skips_scipy_and_multiprocessing(self):
        script = (
            "import sys, citegauge; "
            "print(sorted({'scipy', 'multiprocessing'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(citegauge.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "extra", [("--threads", "1"), ("--threads", "2", "--single-feature-mode", "forest")]
    )
    def test_evaluate_runs_with_scipy_blocked(self, tmp_path, extra):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        normal, blocked = tmp_path / "normal", tmp_path / "blocked"
        assert _run(*_evaluate_args(corpus_dir, pairs_file, normal, *extra)) == 0
        script = (
            "import sys; sys.modules['scipy'] = None; "
            "from citegauge import cli; sys.exit(cli.main(sys.argv[1:]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(citegauge.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", script, *_evaluate_args(corpus_dir, pairs_file, blocked, *extra)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        for name in ("correlations.csv", "pr_grid.csv", "pr_points.csv"):
            assert (blocked / name).read_bytes() == (normal / name).read_bytes(), name

    def test_features_on_two_threads_loads_no_numpy(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        script = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from citegauge import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy' in sys.modules, 'multiprocessing' in sys.modules)\n"
        )
        args = ["features", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
                "--output", str(tmp_path / "out"), "--threads", "2"]
        result = _python(script, *args, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        # the f4/f9 child was forked (multiprocessing loaded), and numpy never loaded
        assert result.stdout.splitlines()[-1] == "0 False True"

    def test_package_import_skips_numpy(self):
        script = "import sys, citegauge, citegauge.cli; print('numpy' in sys.modules)"
        result = _python(script, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_evaluate_loads_numpy_after_features(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        script = (
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "from citegauge import cli, features\n"
            "compute, seen = features.compute_feature_matrix, []\n"
            "def spy(*args, **kwargs):\n"
            "    seen.append('numpy' in sys.modules)\n"
            "    result = compute(*args, **kwargs)\n"
            "    seen.append('numpy' in sys.modules)\n"
            "    return result\n"
            "features.compute_feature_matrix = spy\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(code, seen, 'numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        )
        args = _evaluate_args(corpus_dir, pairs_file, tmp_path / "out", "--threads", "2")
        result = _python(script, *args, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        # numpy is first imported after features, with OpenBLAS held to one thread
        assert result.stdout.splitlines()[-1] == "0 [False, False] True 1"

    def test_package_imports_with_numpy_blocked(self):
        script = _BLOCK_NUMPY + "import citegauge, citegauge.cli"
        result = _python(script, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_loaders_import_without_features_or_numpy(self):
        # perfbench's setup names; the features and citeparse modules load on
        # first use, and a submodule import falls through the lazy names
        script = (
            "import sys\n"
            "from citegauge import filter_valid_pairs, load_corpus, load_pairs\n"
            "heavy = {f'citegauge.{m}' for m in ('features', 'citeparse', 'textnorm')} | {'numpy'}\n"
            "print(sorted(heavy & set(sys.modules)))\n"
            "from citegauge import features\n"
            "import citegauge, citegauge.textnorm as textnorm\n"
            "print(features.__name__, citegauge.tokenize is textnorm.tokenize,\n"
            "      citegauge.FeatureVector is features.FeatureVector)\n"
        )
        result = _python(script, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["[]", "citegauge.features True True"]

    def test_every_public_name_resolves(self):
        for name in citegauge.__all__:
            value = getattr(citegauge, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert citegauge.train is forest.train
        assert citegauge.run_evaluation is evaluation.run_evaluation
        from citegauge import evaluation as submodule

        assert submodule is evaluation
        with pytest.raises(AttributeError, match="no_such_name"):
            citegauge.no_such_name

    @pytest.mark.parametrize(
        "command, artifacts",
        [
            ("ingest", ["ingest_report.json"]),
            ("features", ["features.csv", "features_warnings.json"]),
        ],
    )
    def test_command_runs_with_numpy_blocked(self, tmp_path, command, artifacts):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        normal, blocked = tmp_path / "normal", tmp_path / "blocked"
        args = [command, "--corpus", str(corpus_dir), "--pairs", str(pairs_file), "--output"]
        assert _run(*args, str(normal)) == 0
        result = _python(_BLOCK_NUMPY + _MAIN, *args, str(blocked), capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        for name in artifacts:
            assert (blocked / name).read_bytes() == (normal / name).read_bytes(), name

    def test_report_runs_with_numpy_blocked(self, tmp_path, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        assert _run(*_evaluate_args(corpus_dir, pairs_file, tmp_path)) == 0
        capsys.readouterr()
        assert _run("report", str(tmp_path / "report.json")) == 0
        normal = capsys.readouterr().out
        args = ["report", str(tmp_path / "report.json")]
        result = _python(_BLOCK_NUMPY + _MAIN, *args, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == normal


class TestConfigFile:
    def test_flags_beat_config_file(self, tmp_path):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        config_path = tmp_path / "run.json"
        config = {
            "corpus_dir": str(corpus_dir),
            "pairs_file": str(pairs_file),
            "folds": 3,
            "trees": 4,
            "seed": 1,
            "output_dir": str(tmp_path / "from_config"),
        }
        for bom in ("", "\ufeff"):  # a leading byte-order mark is ignored
            config_path.write_text(bom + json.dumps(config), encoding="utf-8")
            out = tmp_path / f"from_flag{len(bom)}"
            code = _run("evaluate", "--config", str(config_path), "--output", str(out))
            assert code == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["trees"] == 4       # from file
            assert report["config"]["output_dir"] == str(out)  # flag wins

    def test_unknown_config_key_exits_1(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"bogus": 1}', encoding="utf-8")
        assert _run("evaluate", "--config", str(config_path)) == 1

    @pytest.mark.parametrize(
        "text",
        [
            '{"trees": "5"}',
            '{"trees": 2.5}',
            '{"seed": true}',
            '{"folds": null}',
            '{"recall_levels": "0.5"}',
            '{"recall_levels": [0.5, "0.9"]}',
            '{"recall_levels": [true]}',
            '{"recall_levels": [0.1234561, 0.1234562, 0.9]}',  # one level under f"{r:g}"
            '{"single_feature_mode": 3}',
            '{"f4_mode": ["jaccard"]}',
            '["trees"]',
            "[]",
            "5",
        ],
    )
    def test_mistyped_config_file_exits_1(self, tmp_path, monkeypatch, capsys, text):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        ran = []
        monkeypatch.setattr(cli_module.corpus_mod, "load_corpus", ran.append)
        config_path = tmp_path / "run.json"
        config_path.write_text(text, encoding="utf-8")
        code = _run(
            "evaluate", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"), "--config", str(config_path),
        )
        assert code == 1
        assert "internal error" not in capsys.readouterr().err
        assert ran == []  # rejected before anything is loaded

    @pytest.mark.parametrize(
        "name, value",
        [("seed", True), ("trees", 2.5), ("threads", "2"), ("recall_levels", (0.5,)),
         ("recall_levels", [0.5, None]), ("pairs_file", Path("pairs.tsv")),
         ("single_feature_mode", None)],
    )
    def test_validate_checks_types(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            RunConfig(**{name: value}).validate()


class TestReportCommand:
    def test_renders_tables(self, tmp_path, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        assert _run(*_evaluate_args(corpus_dir, pairs_file, out)) == 0
        capsys.readouterr()
        code = _run("report", str(out / "report.json"))
        assert code == 0
        rendered = capsys.readouterr().out
        for name in ("f1", "f4", "f9", "all"):
            assert name in rendered
        assert "MAP" in rendered
        assert "P@R=" in rendered

    def test_golden_rendering(self, tmp_path, capsys):
        report = {
            "pr_grid": {
                "f1": {"0.5": 1.0, "0.9": 0.25},
                "all": {"0.5": 0.875, "0.9": 0.5},
            },
            "correlations": {"f1": {"r": 0.5, "p_value": 0.0123, "n": 12}, "f4": None},
            "map_score": 0.75,
        }
        path = tmp_path / "report.json"
        golden = (
            "interpolated precision at recall levels\n"
            "feature_set  P@R=0.5  P@R=0.9\n"
            "f1           1.00     0.25\n"
            "all          0.88     0.50\n"
            "\n"
            "feature correlations with the gold labels\n"
            "feature  pearson_r  p_value  n\n"
            "f1       0.500      0.0123   12\n"
            "f4       undefined  -        -\n"
            "\n"
            "MAP: 0.7500\n"
        )
        for bom in ("", "\ufeff"):  # a leading byte-order mark is ignored
            path.write_text(bom + json.dumps(report), encoding="utf-8")
            assert _run("report", str(path)) == 0
            assert capsys.readouterr().out == golden

    def test_level_keys_are_read_as_numbers(self, tmp_path, capsys):
        report = {
            "pr_grid": {"all": {"0.50": 0.75, "0.9": 0.5}},
            "correlations": {},
            "map_score": 0.5,
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        assert _run("report", str(path)) == 0
        table = capsys.readouterr().out.splitlines()[1:3]
        assert table == ["feature_set  P@R=0.5  P@R=0.9", "all          0.75     0.50"]

    def test_closed_stdout_ends_the_output(self, tmp_path):
        # `citegauge report REPORT_JSON | head -1`, with head already gone.
        path = tmp_path / "report.json"
        path.write_text(
            json.dumps({"pr_grid": {"all": {"0.5": 0.75}}, "correlations": {}, "map_score": 0.5}),
            encoding="utf-8",
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            script = "from citegauge.cli import entrypoint; entrypoint()"
            result = _python(script, "report", str(path), stdout=write_end,
                             stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, b"")

    def test_missing_report_exits_2(self, tmp_path):
        assert _run("report", str(tmp_path / "none.json")) == 2

    def test_report_missing_correlations_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pr_grid": {}, "map_score": 0.5}), encoding="utf-8")
        assert _run("report", str(bad)) == 2

    @pytest.mark.parametrize(
        "report",
        [
            {"pr_grid": [["f1", 0.5]], "correlations": {}, "map_score": 0.5},
            {"pr_grid": {"f1": {"0.5": "high"}}, "correlations": {}, "map_score": 0.5},
            {"pr_grid": {}, "correlations": {"f1": {"r": 0.5, "n": 3}}, "map_score": 0.5},
            {"pr_grid": {}, "correlations": {}, "map_score": "0.5"},
            {"pr_grid": {"f1": {"high": 0.5}}, "correlations": {}, "map_score": 0.5},
            {"pr_grid": {"f1": {"0.5": 0.5, "0.50": 0.4}}, "correlations": {}, "map_score": 0.5},
            {"pr_grid": {"f1": {"1.5": 0.5}}, "correlations": {}, "map_score": 0.5},
            {"pr_grid": {"f1": {"nan": 0.5}}, "correlations": {}, "map_score": 0.5},
            [],
        ],
        ids=[
            "pr_grid-list",
            "precision-string",
            "correlation-no-p_value",
            "map_score-string",
            "level-not-a-number",
            "level-twice",
            "level-above-one",
            "level-nan",
            "array",
        ],
    )
    def test_malformed_report_exits_2(self, tmp_path, capsys, report):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report), encoding="utf-8")
        assert _run("report", str(bad)) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert _run("report", str(bad)) == 2


class TestUsage:
    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_internal_error_exits_3(self, tmp_path, monkeypatch, capsys):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        import citegauge.cli as cli_module

        def boom(path):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(cli_module.corpus_mod, "load_corpus", boom)
        code = _run(
            "ingest", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"),
        )
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "features", "evaluate"])
    @pytest.mark.parametrize("output", ["taken", "taken/out"])  # a file; a path under it
    def test_unusable_output_exits_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, output
    ):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory", encoding="utf-8")

        def extract(*args, **kwargs):
            raise AssertionError("features were extracted")

        monkeypatch.setattr(cli_module.features_mod, "compute_feature_matrix", extract)
        code = _run(
            command, "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / output),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "output directory" in err and "internal error" not in err

    @pytest.mark.parametrize("command", ["ingest", "features", "evaluate"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_output_exits_1_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, source
    ):
        # An empty path would otherwise write the artifacts into the current directory.
        corpus_dir, pairs_file = write_dataset(tmp_path / "data")
        config_path = tmp_path / "data" / "run.json"
        config_path.write_text(json.dumps({"output_dir": ""}), encoding="utf-8")
        extra = ("--output", "") if source == "flag" else ("--config", str(config_path))
        monkeypatch.chdir(tmp_path)

        def load(path):
            raise AssertionError("the corpus was loaded")

        monkeypatch.setattr(cli_module.corpus_mod, "load_corpus", load)
        code = _run(command, "--corpus", str(corpus_dir), "--pairs", str(pairs_file), *extra)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --output must not be empty")
        assert [path.name for path in tmp_path.iterdir()] == ["data"]

    @pytest.mark.parametrize("command", ["ingest", "features", "evaluate"])
    @pytest.mark.parametrize(
        "extra",
        [("--folds", "1"), ("--trees", "0"), ("--threads", "0"),
         ("--recall-levels", "0,0.5"), ("--recall-levels", "0.5,x")],
    )
    def test_bad_setting_exits_1_before_the_output_exists(self, tmp_path, capsys, command, extra):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        out = tmp_path / "out"
        code = _run(
            command, "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(out), *extra,
        )
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "invalid-json"])
    def test_bad_config_file_exits_1_before_the_output_exists(self, tmp_path, capsys, text):
        corpus_dir, pairs_file = write_dataset(tmp_path)
        config_path = tmp_path / "run.json"
        if text is not None:
            config_path.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = _run(
            "evaluate", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(out), "--config", str(config_path),
        )
        assert code == 1
        assert not out.exists()
        expected = "config file not found" if text is None else "config file is not valid JSON"
        assert capsys.readouterr().err.startswith(f"error: {expected}")

    @pytest.mark.parametrize("value", ["BASIC_FORMAT", "_styles", "no-such-level"])
    def test_log_variable_naming_no_level_falls_back(self, tmp_path, value):
        # A fresh interpreter: under pytest the root logger has handlers already,
        # which makes basicConfig a no-op.
        corpus_dir, pairs_file = write_dataset(tmp_path)
        script = f"import os; os.environ['CITEGAUGE_LOG'] = {value!r}\n" + _MAIN
        result = _python(
            script, "ingest", "--corpus", str(corpus_dir), "--pairs", str(pairs_file),
            "--output", str(tmp_path / "out"), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
