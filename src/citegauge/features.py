"""The three per-pair predictors: direct-citation count, author overlap,
and abstract tf-idf cosine similarity."""

from __future__ import annotations

import csv
import logging
import math
import os
import sys
from collections import Counter
from functools import cache, partial
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping, NamedTuple, Sequence

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
    if mode not in ("jaccard", "boolean"):
        raise ConfigurationError(f"unknown author-overlap mode: {mode!r}")
    return _label_overlap(_author_labels(citing_authors), _author_labels(cited_authors), mode)


def _author_labels(authors: Iterable[str]) -> frozenset[str]:
    """The normalized "surname first-initial" labels of an author list, blanks dropped."""
    return frozenset(normalize_author(a) for a in authors) - {""}


def _label_overlap(set_a: frozenset[str], set_b: frozenset[str], mode: str) -> float:
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


def usable_workers(workers: int, tasks: int) -> int:
    """``workers`` capped at ``tasks`` and at the CPUs this process may use."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux-only; elsewhere count every CPU
    return min(workers, len(affinity(0)) if affinity else os.cpu_count() or 1, tasks)


def _by_citing(pairs: Sequence[CitationPair]) -> dict[str, list[int]]:
    groups: dict[str, list[int]] = {}  # pair positions by citing paper, in first-seen order
    for position, pair in enumerate(pairs):
        groups.setdefault(pair.citing_id, []).append(position)
    return groups


def metadata_features(corpus: Corpus, pairs: Sequence[CitationPair], f4_mode: str) -> list:
    """Each pair's (f4, f9), or None where a record is missing, from abstracts
    and authors only. A cited paper's author labels and tf-idf vector are kept;
    a citing paper's are dropped after its pairs, unless it is also cited."""
    cited_ids = {pair.cited_id for pair in pairs}
    idf, counts = fit_corpus_tfidf(corpus, cited_ids | {pair.citing_id for pair in pairs})

    def side(paper_id: str) -> tuple[frozenset[str], dict[str, float]]:
        return _author_labels(corpus[paper_id].authors), _pop_vector(idf, counts, paper_id)

    cited_side = cache(side)  # cited papers recur across citing papers
    results: list[tuple[float, float] | None] = [None] * len(pairs)
    for citing_id, positions in _by_citing(pairs).items():
        if citing_id in corpus:
            labels, vector = (cited_side if citing_id in cited_ids else side)(citing_id)
            for position in positions:
                if pairs[position].cited_id in corpus:
                    cited_labels, cited_vector = cited_side(pairs[position].cited_id)
                    f4 = _label_overlap(labels, cited_labels, f4_mode)
                    results[position] = f4, cosine_similarity(vector, cited_vector)
    return results


def _alongside(here: Callable[[], None], there: Callable[[], object]):
    """Run ``here()`` while a forked child runs ``there()``; return what the
    child sends back over a one-way pipe, or raise what it raised, once it is reaped."""
    import multiprocessing  # deferred: only a run with two usable CPUs forks

    def send() -> None:  # in the child, which inherits what ``there`` reads
        try:
            sender.send((True, there()))
        except Exception as exc:  # raised again in the parent
            sender.send((False, exc))

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=send)
    child.start()
    sender.close()  # the child holds the only write end, so its exit ends the pipe
    try:
        here()
        ok, result = receiver.recv()  # before the join: a large result blocks the child
    except EOFError:
        raise RuntimeError("the feature worker exited without sending a result") from None
    finally:
        receiver.close()
        child.terminate()  # stops a child whose result is not wanted; harmless once it has sent
        child.join()
    if not ok:
        raise result
    return result


def compute_feature_matrix(
    corpus: Corpus, pairs: Sequence[CitationPair], f4_mode: str = "jaccard", workers: int = 1
) -> tuple[list[tuple[CitationPair, FeatureVector]], list[dict]]:
    """Extract features for every pair, collecting per-pair warnings.

    f1 is counted per citing paper, against one index of its bibliography and
    markers, built once and dropped before the next paper's. f4 and f9 come
    from ``metadata_features``: in a forked child while f1 is counted here if
    ``usable_workers`` allows two, else after f1, so the two memory peaks do
    not add up. Rows and warnings keep the input pair order; pairs that fail
    extraction are only in the warnings. One WARNING log line counts the pairs
    with problems by reason, and each warning is logged at DEBUG level, in order.
    """
    author_overlap((), (), f4_mode)  # rejects an unknown mode before any work
    keys_of = cache(lambda paper_id: citeparse.cited_keys(corpus[paper_id]))  # cited papers recur
    results: list = [None] * len(pairs)  # (f1 or None, notes) per pair
    reasons: Counter[str] = Counter()  # pairs per problem

    def citation_counts() -> None:
        for citing_id, positions in _by_citing(pairs).items():
            citing = corpus.get(citing_id)
            index = None if citing is None else citeparse.index_citing_paper(citing)
            for position in positions:
                pair = pairs[position]
                cited = corpus.get(pair.cited_id)
                if citing is None or cited is None:
                    reasons["missing record"] += 1
                    results[position] = None, [_note(pair, "extraction-error", "missing record")]
                    continue
                analysis = analyze_citations(citing, cited, index=index, keys=keys_of(cited.id))
                if not analysis.bibliography_parsed:
                    reasons["unparseable bibliography"] += 1
                elif analysis.warnings:
                    reasons["no matching bibliography entry"] += 1
                notes = [_note(pair, "warning", w) for w in analysis.warnings]
                if analysis.unresolved:
                    reasons["unresolved markers"] += 1
                    detail = f"{len(analysis.unresolved)} marker(s) could not be linked"
                    notes.append(_note(pair, "unresolved-markers", detail))
                results[position] = analysis.count, notes
            del index  # one citing paper's index at a time

    if usable_workers(workers, 2) > 1:
        f4_f9 = _alongside(citation_counts, partial(metadata_features, corpus, pairs, f4_mode))
    else:
        citation_counts()
        f4_f9 = metadata_features(corpus, pairs, f4_mode)
    if reasons:
        summary = ", ".join(f"{reason}: {count}" for reason, count in sorted(reasons.items()))
        logger.warning("feature extraction problems by pair count (of %d): %s", len(pairs), summary)

    rows: list[tuple[CitationPair, FeatureVector]] = []
    warnings: list[dict] = []
    for pair, (f1, notes), f4_and_f9 in zip(pairs, results, f4_f9):
        for note in notes:
            logger.debug("%(citing_id)s -> %(cited_id)s %(type)s: %(detail)s", note)
        warnings.extend(notes)
        if f1 is not None:
            rows.append((pair, FeatureVector(f1, *f4_and_f9)))
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
