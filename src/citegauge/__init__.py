"""citegauge: classify citations as incidental or influential from full texts."""

import importlib

from .corpus import (
    CitationPair,
    Corpus,
    CorpusStats,
    PaperRecord,
    filter_valid_pairs,
    load_corpus,
    load_pairs,
)

# Names outside the loader are imported on first access (PEP 562): features
# brings the citation parser, and forest and evaluation bring numpy, which
# only training and evaluation need. So importing the package loads only the
# corpus loader, and the ingest, features and report commands never load numpy.
_LAZY = {
    **dict.fromkeys(
        ("FeatureVector", "author_overlap", "cosine_similarity", "fit_tfidf", "tokenize",
         "vectorize"),
        "features",
    ),
    **dict.fromkeys(("ForestModel", "predict_proba", "train"), "forest"),
    **dict.fromkeys(
        (
            "EvaluationReport",
            "cross_validate",
            "interpolated_precision",
            "mean_average_precision",
            "pearson",
            "pr_curve",
            "run_evaluation",
            "stratified_folds",
        ),
        "evaluation",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "CitationPair",
    "Corpus",
    "CorpusStats",
    "EvaluationReport",
    "FeatureVector",
    "ForestModel",
    "PaperRecord",
    "author_overlap",
    "cosine_similarity",
    "cross_validate",
    "filter_valid_pairs",
    "fit_tfidf",
    "interpolated_precision",
    "load_corpus",
    "load_pairs",
    "mean_average_precision",
    "pearson",
    "pr_curve",
    "predict_proba",
    "run_evaluation",
    "stratified_folds",
    "tokenize",
    "train",
    "vectorize",
]
