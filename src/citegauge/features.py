"""The three per-pair predictors: direct-citation count, author overlap,
and abstract tf-idf cosine similarity."""

from __future__ import annotations

import csv
import logging
import math
import sys
from collections import Counter
from functools import cache
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

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


def feature_set_order(names: Iterable[str]) -> list[str]:
    """Feature sets in report order: the single features in ``FEATURE_NAMES``
    order, then the others (such as "all") in the order given."""
    names = list(names)
    return [n for n in FEATURE_NAMES if n in names] + [n for n in names if n not in FEATURE_NAMES]


class FeatureVector(NamedTuple):
    """One pair's features; being a tuple, it is also the pair's training row."""

    f1_direct_count: int
    f4_author_overlap: float
    f9_abstract_sim: float


def fit_tfidf(abstracts: Sequence[str]) -> dict[str, float]:
    """Fit tf-idf over a document collection (at least 2 documents): each term of
    any document, in lexicographic order, mapped to its smoothed idf
    ln((1 + N) / (1 + df)) + 1. The result is independent of document order.
    """
    return _fit_idf(set(tokenize(text)) for text in abstracts)


def _fit_idf(term_sets: Iterable[Iterable[str]]) -> dict[str, float]:
    """``fit_tfidf``'s idf, from each document's distinct terms."""
    document_frequency: Counter[str] = Counter()
    n = 0
    for terms in term_sets:
        document_frequency.update(terms)
        n += 1
    if n < 2:
        raise ConfigurationError(f"tf-idf needs at least 2 documents, got {n}")
    return {t: math.log((1 + n) / (1 + df)) + 1.0 for t, df in sorted(document_frequency.items())}


def vectorize(idf: Mapping[str, float], text: str) -> dict[str, float]:
    """Sparse tf-idf vector of a text: raw term frequency times idf, by term, in
    the order of each term's first occurrence in the text.

    Terms without an idf are ignored; empty or fully out-of-vocabulary text
    gives the zero vector.
    """
    return {term: tf * idf[term] for term, tf in Counter(tokenize(text)).items() if term in idf}


def cosine_similarity(a: Mapping, b: Mapping) -> float:
    """Cosine of two nonnegative sparse vectors (term -> weight mappings, as
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


def fit_corpus_tfidf(
    corpus: Corpus, keep: Container[str]
) -> tuple[dict[str, float], dict[str, Counter[str]]]:
    """Fit tf-idf over every abstract present in the corpus (not just paired
    papers), tokenizing each abstract once. Also returns the term counts of the
    abstracts of the papers in ``keep``, by paper id, each in the order its
    terms first occur; the terms are interned, so the counts share their
    strings with the vocabulary."""
    kept: dict[str, Counter[str]] = {}

    def term_sets() -> Iterable[Iterable[str]]:
        for record in corpus.values():
            if has_abstract(record):
                counts = Counter(map(sys.intern, tokenize(record.abstract)))
                if record.id in keep:
                    kept[record.id] = counts
                yield counts.keys()

    return _fit_idf(term_sets()), kept


def _pop_vector(idf: Mapping[str, float], counts: dict, paper_id: str) -> dict[str, float]:
    """A paper's tf-idf vector from the term counts the fit kept: ``vectorize``'s
    vector of its abstract, without tokenizing it again. The counts are taken
    out of ``counts`` and become the vector, so no second table is allocated.
    A paper with no abstract has no counts and gets the zero vector."""
    vector = counts.pop(paper_id, {})
    for term, tf in vector.items():
        vector[term] = tf * idf[term]
    return vector


def compute_feature_matrix(
    corpus: Corpus, pairs: Sequence[CitationPair], f4_mode: str = "jaccard"
) -> tuple[list[tuple[CitationPair, FeatureVector]], list[dict]]:
    """Extract features for every pair, collecting per-pair warnings.

    Pairs are grouped by citing paper. Each citing paper is indexed once
    (bibliography parsed, markers counted), all of its pairs are scored against
    that index, and the index, the paper's author labels and its tf-idf vector
    are dropped before the next paper is indexed. Each cited paper's match
    keys, author labels and tf-idf vector are built once and kept. Each
    abstract is tokenized once, by the tf-idf fit, which keeps the paired
    papers' term counts until each one's vector is built.
    Rows and warnings keep the input pair order. Pairs that fail extraction
    are excluded and reported in the warnings list. One WARNING log line
    counts the pairs with problems by reason, and each warning is logged at
    DEBUG level, in the same order.
    """
    cited_ids = {pair.cited_id for pair in pairs}
    idf, counts = fit_corpus_tfidf(corpus, cited_ids | {pair.citing_id for pair in pairs})

    @cache  # cited papers recur across citing papers
    def cited_side(paper_id: str) -> tuple[citeparse.CitedKeys, frozenset[str], dict[str, float]]:
        cited = corpus[paper_id]
        keys = citeparse.cited_keys(cited)
        return keys, _author_labels(cited.authors), _pop_vector(idf, counts, paper_id)

    results: list = [None] * len(pairs)
    reasons: Counter[str] = Counter()  # pairs per problem

    def score_citing_paper(citing_id: str, positions: list[int]) -> None:
        # The index, labels and tf-idf vector live in this frame only, so they are freed on return.
        citing = corpus.get(citing_id)
        if citing is not None:
            index = citeparse.index_citing_paper(citing)
            labels = _author_labels(citing.authors)
            # A citing paper that is also cited shares its cached vector.
            shared = citing_id in cited_ids
            vector = cited_side(citing_id)[2] if shared else _pop_vector(idf, counts, citing_id)
        for position in positions:
            pair = pairs[position]
            cited = corpus.get(pair.cited_id)
            if citing is None or cited is None:
                reasons["missing record"] += 1
                results[position] = None, [_note(pair, "extraction-error", "missing record")]
                continue
            keys, cited_labels, cited_vector = cited_side(cited.id)
            analysis = analyze_citations(citing, cited, index=index, keys=keys)
            if not analysis.bibliography_parsed:
                reasons["unparseable bibliography"] += 1
            elif analysis.warnings:
                reasons["no matching bibliography entry"] += 1
            notes = [_note(pair, "warning", w) for w in analysis.warnings]
            if analysis.unresolved:
                reasons["unresolved markers"] += 1
                detail = f"{len(analysis.unresolved)} marker(s) could not be linked"
                notes.append(_note(pair, "unresolved-markers", detail))
            f4 = _label_overlap(labels, cited_labels, f4_mode)
            f9 = cosine_similarity(vector, cited_vector)
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
        for note in notes:
            logger.debug("%(citing_id)s -> %(cited_id)s %(type)s: %(detail)s", note)
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
