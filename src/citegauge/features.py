"""The three per-pair predictors: direct-citation count, author overlap,
and abstract tf-idf cosine similarity."""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import citeparse
from .citeparse import analyze_citations
from .corpus import CitationPair, Corpus, has_abstract
from .errors import ConfigurationError
from .textnorm import normalize_author, tokenize

logger = logging.getLogger(__name__)

FEATURE_NAMES = ("f1", "f4", "f9")

# The recall levels of the P@R grid. evaluation reads them from here, so that the
# CLI's defaults load without numpy.
DEFAULT_RECALL_LEVELS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)


class FeatureVector(NamedTuple):
    """One pair's features; being a tuple, it is also the pair's training row."""

    f1_direct_count: int
    f4_author_overlap: float
    f9_abstract_sim: float


@dataclass
class TfidfModel:
    """Vocabulary, document frequencies, and document count fitted on a collection.

    Immutable after fitting. ``weights`` holds each vocabulary term's
    (dimension, idf), computed once, for ``vectorize``.
    """

    vocabulary: dict[str, int]
    document_frequency: dict[str, int]
    document_count: int
    weights: dict[str, tuple[int, float]] = field(init=False)

    def __post_init__(self) -> None:
        self.weights = {term: (dim, self.idf(term)) for term, dim in self.vocabulary.items()}

    def idf(self, term: str) -> float:
        # smoothed idf: ln((1 + N) / (1 + df)) + 1
        df = self.document_frequency[term]
        return math.log((1 + self.document_count) / (1 + df)) + 1.0


def fit_tfidf(abstracts: Sequence[str]) -> TfidfModel:
    """Fit a tf-idf model over a document collection (at least 2 documents).

    The vocabulary covers every term in any document and is sorted
    lexicographically, so the model is independent of document order.
    """
    if len(abstracts) < 2:
        raise ConfigurationError(
            f"tf-idf needs at least 2 documents, got {len(abstracts)}"
        )
    document_frequency: dict[str, int] = {}
    for text in abstracts:
        for term in set(tokenize(text)):
            document_frequency[term] = document_frequency.get(term, 0) + 1
    vocabulary = {term: dim for dim, term in enumerate(sorted(document_frequency))}
    return TfidfModel(vocabulary, document_frequency, len(abstracts))


def vectorize(model: TfidfModel, text: str) -> dict[int, float]:
    """Sparse tf-idf vector of a text: raw term frequency times idf, by dimension.

    Out-of-vocabulary terms are ignored; empty or fully out-of-vocabulary text
    gives the zero vector.
    """
    weights = model.weights
    vector: dict[int, float] = {}
    for term, tf in Counter(tokenize(text)).items():
        weight = weights.get(term)
        if weight is not None:
            vector[weight[0]] = tf * weight[1]
    return vector


def cosine_similarity(a: Mapping, b: Mapping) -> float:
    """Cosine of two nonnegative sparse vectors (dimension -> weight mappings, as
    ``vectorize`` gives them), clamped to [0, 1]. Zero-norm inputs give 0."""
    norm_sq_a = sum(v * v for v in a.values())
    norm_sq_b = sum(v * v for v in b.values())
    if norm_sq_a == 0.0 or norm_sq_b == 0.0:
        return 0.0
    dot = sum(v * b[k] for k, v in a.items() if k in b)
    return min(1.0, max(0.0, dot / math.sqrt(norm_sq_a * norm_sq_b)))


def author_overlap(
    citing_authors: Iterable[str], cited_authors: Iterable[str], mode: str = "jaccard"
) -> float:
    """Jaccard overlap of normalized author-name sets, in [0, 1].

    Names reduce to "surname first-initial" labels; duplicates and ordering are
    irrelevant. mode="boolean" collapses any overlap to 1.0. Either side empty
    gives 0.
    """
    return _label_overlap(_author_labels(citing_authors), _author_labels(cited_authors), mode)


def _author_labels(authors: Iterable[str]) -> frozenset[str]:
    """The normalized "surname first-initial" labels of an author list, blanks dropped."""
    return frozenset(normalize_author(a) for a in authors) - {""}


def _label_overlap(set_a: frozenset[str], set_b: frozenset[str], mode: str) -> float:
    if mode not in ("jaccard", "boolean"):
        raise ConfigurationError(f"unknown author-overlap mode: {mode!r}")
    if not set_a or not set_b:
        return 0.0
    shared = len(set_a & set_b)
    if mode == "boolean":
        return 1.0 if shared else 0.0
    return shared / len(set_a | set_b)


def fit_corpus_tfidf(corpus: Corpus) -> TfidfModel:
    """Fit tf-idf over every abstract present in the corpus (not just paired papers)."""
    abstracts = [r.abstract for r in corpus.values() if has_abstract(r)]
    return fit_tfidf(abstracts)


def compute_feature_matrix(
    corpus: Corpus,
    pairs: Sequence[CitationPair],
    tfidf: TfidfModel | None = None,
    f4_mode: str = "jaccard",
) -> tuple[list[tuple[CitationPair, FeatureVector]], list[dict]]:
    """Extract features for every pair, collecting per-pair warnings.

    Pairs are grouped by citing paper. Each citing paper is indexed once
    (bibliography parsed, markers linked), all of its pairs are scored against
    that index, and the index and the paper's tf-idf vector are dropped before
    the next paper is indexed; of the vectors, only cited papers' are kept.
    Rows and warnings keep the input pair order. Pairs that fail extraction
    are excluded and reported in the warnings list. One WARNING log line
    counts the pairs with problems by reason; the per-pair detail is logged
    at DEBUG level.
    """
    if tfidf is None:
        tfidf = fit_corpus_tfidf(corpus)

    @cache  # cited papers recur across citing papers, so their vectors are kept
    def cited_vector(paper_id: str) -> dict[int, float]:
        return vectorize(tfidf, corpus[paper_id].abstract or "")

    @cache
    def match_keys(paper_id: str) -> citeparse.CitedKeys:
        return citeparse.cited_keys(corpus[paper_id])

    @cache
    def labels(paper_id: str) -> frozenset[str]:
        return _author_labels(corpus[paper_id].authors)

    results: list = [None] * len(pairs)
    reasons: Counter[str] = Counter()  # pairs per problem

    def score_citing_paper(citing_id: str, positions: list[int]) -> None:
        # The index and the tf-idf vector live in this frame only, so they are freed on return.
        citing = corpus.get(citing_id)
        index = citeparse.index_citing_paper(citing) if citing is not None else None
        citing_vector = vectorize(tfidf, citing.abstract or "") if citing is not None else None
        for position in positions:
            pair = pairs[position]
            cited = corpus.get(pair.cited_id)
            if citing is None or cited is None:
                reasons["missing record"] += 1
                results[position] = None, [_note(pair, "extraction-error", "missing record")]
                continue
            analysis = analyze_citations(citing, cited, index=index, keys=match_keys(cited.id))
            if not analysis.bibliography_parsed:
                reasons["unparseable bibliography"] += 1
            elif analysis.warnings:
                reasons["no matching bibliography entry"] += 1
            notes = [_note(pair, "warning", w) for w in analysis.warnings]
            if analysis.unresolved:
                reasons["unresolved markers"] += 1
                detail = f"{len(analysis.unresolved)} marker(s) could not be linked"
                notes.append(_note(pair, "unresolved-markers", detail))
            f4 = _label_overlap(labels(citing.id), labels(cited.id), f4_mode)
            f9 = cosine_similarity(citing_vector, cited_vector(cited.id))
            results[position] = FeatureVector(analysis.count, f4, f9), notes

    by_citing: dict[str, list[int]] = {}
    for position, pair in enumerate(pairs):
        by_citing.setdefault(pair.citing_id, []).append(position)
    for citing_id, positions in by_citing.items():
        score_citing_paper(citing_id, positions)
    if reasons:
        summary = ", ".join(f"{reason}: {count}" for reason, count in sorted(reasons.items()))
        logger.warning("feature extraction problems by pair count (of %d): %s", len(pairs), summary)

    rows: list[tuple[CitationPair, FeatureVector]] = []
    warnings: list[dict] = []
    for pair, (vector, notes) in zip(pairs, results):
        warnings.extend(notes)
        if vector is not None:
            rows.append((pair, vector))
    return rows, warnings


def _note(pair: CitationPair, kind: str, detail: str) -> dict:
    return {"citing_id": pair.citing_id, "cited_id": pair.cited_id, "type": kind, "detail": detail}


def write_feature_matrix(
    rows: Sequence[tuple[CitationPair, FeatureVector]], path: str | Path
) -> None:
    """Write the feature matrix CSV: citing_id,cited_id,f1,f4,f9,label (floats at 6 dp)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["citing_id", "cited_id", "f1", "f4", "f9", "label"])
        for pair, vec in rows:
            writer.writerow(
                [
                    pair.citing_id,
                    pair.cited_id,
                    vec.f1_direct_count,
                    f"{vec.f4_author_overlap:.6f}",
                    f"{vec.f9_abstract_sim:.6f}",
                    pair.label,
                ]
            )
