"""Traced in-process run: per-layer metrics for one generated workload.

Runs, in this process, ``cli.cmd_features`` / ``cli.cmd_evaluate`` themselves.
With ``--spans`` the pass is traced: spans are recorded around each layer call,
from here, by wrapping the module-level names that citegauge looks up at call
time, so the program itself is not changed. Spans stay in memory and are
written to the ``--spans`` file once the pass ends. A wrapped name that no
longer exists is reported as absent, and its layer reads zero.

The last stdout line is a JSON object: the pass's seconds, the checker's
problems, the artifact digest and, when traced, the per-layer values. The
benchmark runs one untraced and one traced pass, each in a fresh process, and
reports the difference of their seconds as the tracing overhead.

    python3 perfbench/trace.py --command evaluate --corpus DIR --pairs FILE \\
        --output DIR --expect-pairs N [--threads N] [--trees N] [--folds N] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from check import check_artifacts

from citegauge import citeparse, cli, evaluation
from citegauge import corpus as corpus_mod
from citegauge import features as features_mod

# (module, looked-up name, span name). The span is named after the module that
# defines the function, which is the layer its time belongs to.
WRAPPED = (
    (corpus_mod, "load_corpus", "corpus.load_corpus"),
    (corpus_mod, "load_pairs", "corpus.load_pairs"),
    (corpus_mod, "filter_valid_pairs", "corpus.filter_valid_pairs"),
    (citeparse, "paper_bibliography", "citeparse.paper_bibliography"),
    (citeparse, "find_in_text_citations", "citeparse.find_in_text_citations"),
    (citeparse, "match_entry_to_paper", "citeparse.match_entry_to_paper"),
    (features_mod, "analyze_citations", "citeparse.analyze_citations"),
    (features_mod, "fit_corpus_tfidf", "features.fit_corpus_tfidf"),
    (features_mod, "compute_feature_matrix", "features.compute_feature_matrix"),
    (features_mod, "write_feature_matrix", "features.write"),
    (evaluation, "run_evaluation", "evaluation.run_evaluation"),
    (evaluation, "cross_validate", "evaluation.cross_validate"),
    (evaluation, "train", "forest.train"),
    (evaluation, "predict_proba", "forest.predict_proba"),
    (evaluation, "build_report", "evaluation.build_report"),
    (evaluation, "write_report_json", "evaluation.write"),
    (evaluation, "write_pr_grid_csv", "evaluation.write"),
    (evaluation, "write_correlations_csv", "evaluation.write"),
    (evaluation, "write_pr_points_csv", "evaluation.write"),
)

COMMANDS = {"features": "cmd_features", "evaluate": "cmd_evaluate"}

LAYERS = ("corpus", "citeparse", "features", "forest", "evaluation")


class Tracer:
    """In-memory spans (name, start, end, parent). Each thread keeps its own
    stack of open spans; a span opened on a worker thread with nothing open
    there takes the innermost span open on the main thread as its parent."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []  # [name, start, end, parent index, thread name]
        self._local = threading.local()
        self._main: list[int] = []
        self._lock = threading.Lock()
        self.unreadable: set[str] = set()  # wrapped names whose results could not be read

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        record = [name, time.perf_counter(), None, parent, threading.current_thread().name]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def wrap(self, module, attr: str, name: str, on_call=None) -> bool:
        """Replace ``module.attr`` by a spanning wrapper; False if it is gone."""
        original = getattr(module, attr, None)
        if original is None:
            return False

        def wrapper(*args, **kwargs):
            record = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(record)
            if on_call is not None:
                try:
                    on_call(args, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.unreadable.add(name)  # the result changed shape
            return result

        setattr(module, attr, wrapper)
        return True

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[span[3]].append((span[1], span[2]))
        result = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children[index]):
                child_start, child_end = max(child_start, reach), min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            result.append((end - start) - covered)
        return result

    def write(self, path: str | Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        Path(path).write_text(
            json.dumps(
                [
                    {"trace_id": self.trace_id, "id": i, "name": name, "parent": parent,
                     "thread": thread, "start_s": start - origin, "end_s": end - origin}
                    for i, (name, start, end, parent, thread) in enumerate(self.spans)
                ]
            ),
            encoding="utf-8",
        )


def _tree_shape(tree) -> tuple[int, int]:
    """(node count, depth) of one tree, read from its node table."""
    nodes = tree.nodes
    depth, frontier = 0, [0]
    while frontier:
        depth += 1
        frontier = [c for i in frontier if nodes[i].feature != -1
                    for c in (nodes[i].left, nodes[i].right)]
    return len(nodes), depth - 1


def traced_run(command: str, config: cli.RunConfig, spans_path: str | Path) -> tuple[float, dict]:
    """One traced pass: (its pipeline seconds, per-layer metric values).

    The values lack the ``trace.*_s`` metrics, which compare two processes.
    """
    tracer = Tracer(trace_id=f"{command}:{config.pairs_file}")
    texts: dict[tuple[int, int], tuple[int, int]] = {}
    scanned_bytes = [0]
    models = []
    seen = {}  # counts read from the results of wrapped calls

    def on_scan(args, result):
        text = args[0]
        scanned_bytes[0] += len(text.encode("utf-8"))
        texts[(len(text), hash(text))] = (len(result[0]), len(result[1]))

    def on_valid(args, valid):
        seen["valid"] = len(valid)
        seen["citing"] = len({pair.citing_id for pair in valid})

    hooks = {
        "corpus.load_corpus": lambda args, corpus: seen.update(docs=len(corpus)),
        "corpus.filter_valid_pairs": on_valid,
        "citeparse.find_in_text_citations": on_scan,
        "features.compute_feature_matrix": lambda args, result: seen.update(warnings=len(result[1])),
        "forest.train": lambda args, model: models.append(model),
    }
    absent = [f"{module.__name__}.{attr}" for module, attr, name in WRAPPED
              if not tracer.wrap(module, attr, name, hooks.get(name))]

    with tracer.span("pipeline"):
        getattr(cli, COMMANDS[command])(config)
    absent += [f"{name} result" for name in sorted(tracer.unreadable)]
    traced_s = tracer.spans[0][2] - tracer.spans[0][1]
    tracer.write(spans_path)
    valid_pairs = seen.get("valid", 0)

    # Aggregate spans by name, and self time by name and by layer.
    total, calls = defaultdict(float), defaultdict(int)
    own_total, layer_self = defaultdict(float), defaultdict(float)
    for (name, start, end, _, _), own in zip(tracer.spans, tracer.self_times()):
        total[name] += end - start
        calls[name] += 1
        own_total[name] += own
        layer_self[name.split(".")[0]] += own

    def per_call(name: str) -> float:
        return total[name] * 1e6 / calls[name] if calls[name] else 0.0

    shapes = []
    try:
        shapes = [_tree_shape(tree) for model in models for tree in model.trees]
    except (AttributeError, TypeError, IndexError):
        absent.append("forest.train model node table")
    nodes = sum(n for n, _ in shapes)

    citing = seen.get("citing", 0)
    corpus_bytes = sum(p.stat().st_size for p in Path(config.corpus_dir).glob("*.json"))
    kib = scanned_bytes[0] / 1024
    values = {
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.load_pairs_s": total["corpus.load_pairs"],
        "corpus.docs": seen.get("docs", 0),
        "corpus.bytes": corpus_bytes,
        "citeparse.bib_parse_calls": calls["citeparse.paper_bibliography"],
        "citeparse.bib_parse_us": per_call("citeparse.paper_bibliography"),
        "citeparse.marker_scan_calls": calls["citeparse.find_in_text_citations"],
        "citeparse.marker_scan_us_per_kb": (
            total["citeparse.find_in_text_citations"] * 1e6 / kib if kib else 0.0),
        "citeparse.match_calls": calls["citeparse.match_entry_to_paper"],
        "citeparse.match_us": per_call("citeparse.match_entry_to_paper"),
        "citeparse.markers_resolved": sum(r for r, _ in texts.values()),
        "citeparse.markers_unresolved": sum(u for _, u in texts.values()),
        "citeparse.parses_per_citing_paper": (
            calls["citeparse.paper_bibliography"] / citing if citing else 0.0),
        "features.fit_tfidf_s": total["features.fit_corpus_tfidf"],
        "features.matrix_s": total["features.compute_feature_matrix"],
        "features.pair_us": (
            total["features.compute_feature_matrix"] * 1e6 / valid_pairs if valid_pairs else 0.0),
        "features.warnings": seen.get("warnings", 0),
        "forest.train_calls": calls["forest.train"],
        "forest.train_s": total["forest.train"],
        "forest.trees": len(shapes),
        "forest.nodes": nodes,
        "forest.max_depth": max((d for _, d in shapes), default=0),
        "forest.train_us_per_node": total["forest.train"] * 1e6 / nodes if nodes else 0.0,
        "forest.predict_calls": calls["forest.predict_proba"],
        "forest.predict_us": per_call("forest.predict_proba"),
        "evaluation.cv_s": total["evaluation.cross_validate"],
        "evaluation.cv_self_s": own_total["evaluation.cross_validate"],
        "evaluation.report_s": total["evaluation.build_report"],
        "evaluation.write_s": total["evaluation.write"],
        "trace.layers_absent": len(absent),
        "trace.spans": len(tracer.spans),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return traced_s, {"values": values, "absent": absent}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one in-process citegauge pass")
    parser.add_argument("--command", choices=("features", "evaluate"), required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--pairs", required=True)
    parser.add_argument("--output", required=True)
    parser.add_argument("--expect-pairs", type=int, required=True)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--spans", metavar="FILE", help="trace the pass, write spans here")
    args = parser.parse_args(argv)
    config = cli.RunConfig(corpus_dir=args.corpus, pairs_file=args.pairs, threads=args.threads,
                           trees=args.trees, folds=args.folds, output_dir=args.output)
    config.validate()

    out = Path(config.output_dir)
    if out.is_dir():
        for path in out.iterdir():
            path.unlink()
    result = {}
    if args.spans:
        result["seconds"], result["layers"] = traced_run(args.command, config, args.spans)
    else:
        started = time.perf_counter()
        getattr(cli, COMMANDS[args.command])(config)
        result["seconds"] = time.perf_counter() - started
    result["problems"], result["digest"] = check_artifacts(args.command, out, args.expect_pairs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
