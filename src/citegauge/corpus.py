"""Load and validate the paper corpus and the labeled citation-pair dataset.

A corpus is a directory of UTF-8 JSON documents, one object per file, with keys
``id``, ``title``, ``authors``, ``abstract`` (string or null), ``body`` and
``references`` (array of strings or null). Labels come from a TSV file with one
``citing_id<TAB>cited_id<TAB>label`` row per pair. The first row is a header
when its third column is not numeric and its first two are not both corpus ids.

A loaded corpus keeps each record's metadata, not its body: ``Corpus.with_body``
reads a body again from its file when it is needed, so a run holds one body at
a time. Records are treated as immutable after loading and are safe to share
across threads read-only.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import DataError

logger = logging.getLogger(__name__)


@dataclass
class PaperRecord:
    """One publication: identity, metadata, and full running text. ``body`` is
    None on a record from ``load_corpus``; ``Corpus.with_body`` gives it."""

    id: str
    title: str
    authors: list[str]
    abstract: str | None = None
    body: str | None = ""
    references: list[str] | None = None


@dataclass
class CitationPair:
    """A labeled citing -> cited relation. Label 0 is incidental, 1 influential."""

    citing_id: str
    cited_id: str
    label: int


def pair_key(pair: CitationPair) -> tuple[str, str]:
    return (pair.citing_id, pair.cited_id)


@dataclass
class CorpusStats:
    """Raw and post-filter label counts for one dataset load."""

    total_pairs: int = 0
    incidental_count: int = 0
    influential_count: int = 0
    filtered_pairs: int = 0
    positive_after_filter: int = 0

    def check(self) -> None:
        """Raise DataError if the count arithmetic does not add up."""
        if self.incidental_count + self.influential_count != self.total_pairs:
            raise DataError(
                f"corpus stats inconsistent: {self.incidental_count} + "
                f"{self.influential_count} != {self.total_pairs}"
            )
        if self.filtered_pairs > self.total_pairs:
            raise DataError("filtered_pairs exceeds total_pairs")
        if self.positive_after_filter > self.influential_count:
            raise DataError("positive_after_filter exceeds influential_count")


@dataclass
class LoadIssue:
    """One recoverable problem encountered while loading (file- or row-level)."""

    source: str
    message: str


class Corpus(dict[str, PaperRecord]):
    """Immutable paper index: a dict from id to record, plus the per-file load report."""

    def __init__(self, papers=(), load_report: list[LoadIssue] | None = None):
        super().__init__(papers)
        self.load_report = [] if load_report is None else load_report
        self._files: dict[str, tuple[str, tuple[int, int]]] = {}  # loaded id -> file, identity

    def with_body(self, paper_id: str) -> PaperRecord:
        """The record of ``paper_id`` with its body. A loaded record's file is
        read again, and must hold what was loaded: a file that is gone, no
        longer parses, has another size or mtime, or holds other metadata is a
        DataError naming it. A record built in memory is returned as it is."""
        record = self[paper_id]
        if paper_id not in self._files:
            return record
        path, identity = self._files[paper_id]
        try:
            data, now = _read_document(path)
            fresh = paper_from_dict(data, source=path)
        except (OSError, ValueError) as exc:
            raise DataError(f"corpus file changed since it was loaded: {path}: {exc}") from None
        except DataError as exc:  # its message starts with the path
            raise DataError(f"corpus file changed since it was loaded: {exc}") from None
        if now != identity:
            detail = "its size or modification time differs"
        elif replace(fresh, body=None) != record:
            detail = "its metadata differs"
        else:
            return fresh
        raise DataError(f"corpus file changed since it was loaded: {path}: {detail}")


def has_abstract(record: PaperRecord | None) -> bool:
    """True when the record exists and carries a non-blank abstract."""
    return record is not None and bool(record.abstract and record.abstract.strip())


def paper_from_dict(data: dict, source: str = "<dict>") -> PaperRecord:
    """Build a validated PaperRecord from a decoded document object.

    Normalization: the id and author strings are stripped and blank authors
    dropped, a whitespace-only abstract becomes None, an empty references list
    becomes None. Violating the schema, or an id that no pairs row could name
    (one holding a tab or a line break), raises DataError.
    """
    if not isinstance(data, dict):
        raise DataError(f"{source}: document is not a JSON object")

    paper_id = data.get("id")
    if not isinstance(paper_id, str) or not paper_id.strip():
        raise DataError(f"{source}: missing or empty 'id'")
    paper_id = paper_id.strip()
    if "\t" in paper_id or paper_id.splitlines() != [paper_id]:
        raise DataError(f"{source}: 'id' holds a tab or a line break: {paper_id!r}")

    title = data.get("title")
    if not isinstance(title, str):
        raise DataError(f"{source}: 'title' must be a string")

    raw_authors = data.get("authors")
    if not isinstance(raw_authors, list) or any(not isinstance(a, str) for a in raw_authors):
        raise DataError(f"{source}: 'authors' must be an array of strings")
    authors = [a.strip() for a in raw_authors if a.strip()]

    abstract = data.get("abstract")
    if abstract is not None and not isinstance(abstract, str):
        raise DataError(f"{source}: 'abstract' must be a string or null")
    if abstract is not None and not abstract.strip():
        abstract = None

    body = data.get("body")
    if not isinstance(body, str):
        raise DataError(f"{source}: 'body' must be a string")

    references = data.get("references")
    if references is not None:
        if not isinstance(references, list) or any(not isinstance(r, str) for r in references):
            raise DataError(f"{source}: 'references' must be an array of strings or null")
        references = [r for r in references if r.strip()] or None

    return PaperRecord(
        id=paper_id,
        title=title,
        authors=authors,
        abstract=abstract,
        body=body,
        references=references,
    )


def _read_document(path: str) -> tuple[object, tuple[int, int]]:
    """A corpus file's decoded JSON and its identity (size, mtime in ns), from
    one open file. The bytes are decoded as UTF-8 (a leading byte-order mark
    dropped) before parsing, so a lone surrogate is an error, not a string."""
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        raw = handle.read()
    return json.loads(raw.decode("utf-8-sig")), (stat.st_size, stat.st_mtime_ns)


def load_corpus(path: str | Path) -> Corpus:
    """Load every ``*.json`` document under ``path`` into an id-keyed index of
    records without their bodies (``Corpus.with_body`` reads one again).

    Malformed files are collected into the corpus load report and skipped;
    an unreadable directory or a duplicated id is fatal.
    """
    directory = Path(path)
    try:  # names sort as strings: sorting Path objects compares them in Python code
        names = sorted(e.name for e in os.scandir(directory) if e.name.endswith(".json"))
    except OSError:  # missing, not a directory, or not listable
        raise DataError(f"corpus directory not readable: {directory}") from None

    corpus = Corpus()
    for name in names:
        doc_path = os.path.join(directory, name)
        try:
            data, identity = _read_document(doc_path)
            record = paper_from_dict(data, source=name)
        except DataError as exc:
            corpus.load_report.append(LoadIssue(name, str(exc)))
            continue
        except (OSError, ValueError) as exc:
            corpus.load_report.append(LoadIssue(name, f"unreadable document: {exc}"))
            continue
        if record.id in corpus:
            first = os.path.basename(corpus._files[record.id][0])
            raise DataError(f"duplicate paper id '{record.id}' in {first} and {name}")
        record.body = None  # read again when it is needed
        corpus[record.id] = record
        corpus._files[record.id] = doc_path, identity

    if corpus.load_report:
        logger.warning("corpus load skipped %d malformed document(s)", len(corpus.load_report))
    return corpus


def _looks_numeric(text: str) -> bool:
    try:
        int(text)
        return True
    except ValueError:
        return False


def load_pairs(
    path: str | Path, corpus: Corpus
) -> tuple[list[CitationPair], CorpusStats, list[LoadIssue]]:
    """Load labeled citation pairs from a TSV file against a loaded corpus.

    Rows referencing ids absent from the corpus, malformed rows, and rows whose
    stripped label cell is not exactly "0" or "1" are reported and dropped. A
    (citing, cited) pair on more than one row keeps its first row when every
    row has the same label and loses all its rows when the labels conflict;
    each dropped row is reported. Issues come in line order. The returned
    stats reflect raw label counts of the kept pairs, before any abstract
    filtering.
    """
    pairs_path = Path(path)
    if not pairs_path.is_file():
        raise DataError(f"pairs file not readable: {pairs_path}")

    try:
        text = pairs_path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataError(f"pairs file is not UTF-8 text: {pairs_path}: {exc}") from exc

    rows: list[tuple[int, CitationPair]] = []
    problems: list[tuple[int, str]] = []  # (line number, message)
    first_data_row = True
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cols = [c.strip() for c in line.split("\t")]
        header = first_data_row and len(cols) >= 3 and not _looks_numeric(cols[2])
        if header and not (cols[0] in corpus and cols[1] in corpus):
            first_data_row = False
            continue
        first_data_row = False
        if len(cols) != 3 or not cols[0] or not cols[1]:
            problems.append((lineno, f"malformed row: {line!r}"))
            continue
        citing_id, cited_id, label_text = cols
        if label_text not in ("0", "1"):
            problems.append((lineno, f"label outside {{0,1}}: {label_text!r}"))
            continue
        if citing_id == cited_id:
            problems.append((lineno, f"self-pair rejected: {citing_id}"))
            continue
        missing = [p for p in (citing_id, cited_id) if p not in corpus]
        if missing:
            problems.append((lineno, f"dropped pair with unknown id(s): {', '.join(missing)}"))
            continue
        rows.append((lineno, CitationPair(citing_id, cited_id, int(label_text))))

    lines: dict[tuple[str, str], list[int]] = {}
    labels: dict[tuple[str, str], set[int]] = {}
    for lineno, pair in rows:
        lines.setdefault(pair_key(pair), []).append(lineno)
        labels.setdefault(pair_key(pair), set()).add(pair.label)
    pairs: list[CitationPair] = []
    for lineno, pair in rows:
        key = pair_key(pair)
        if len(labels[key]) > 1:
            where = ", ".join(str(n) for n in lines[key])
            problems.append(
                (lineno, f"conflicting labels for {key[0]} -> {key[1]} on lines {where}: dropped")
            )
        elif lineno != lines[key][0]:
            problems.append(
                (lineno, f"duplicate of line {lines[key][0]} dropped: {key[0]} -> {key[1]}")
            )
        else:
            pairs.append(pair)
    issues = [LoadIssue(f"line {lineno}", message) for lineno, message in sorted(problems)]

    influential = sum(p.label for p in pairs)
    stats = CorpusStats(
        total_pairs=len(pairs),
        incidental_count=len(pairs) - influential,
        influential_count=influential,
        filtered_pairs=len(pairs),
        positive_after_filter=influential,
    )
    stats.check()
    if issues:
        logger.warning("pair load dropped %d row(s)", len(issues))
    return pairs, stats, issues


def filter_valid_pairs(
    pairs: list[CitationPair], corpus: Corpus, stats: CorpusStats | None = None
) -> list[CitationPair]:
    """Keep only pairs where both endpoints have a non-empty abstract.

    Ordering is preserved and the filter is idempotent. When ``stats`` is
    given, its filtered counts are updated in place.
    """
    kept = [
        p
        for p in pairs
        if has_abstract(corpus.get(p.citing_id)) and has_abstract(corpus.get(p.cited_id))
    ]
    if stats is not None:
        stats.filtered_pairs = len(kept)
        stats.positive_after_filter = sum(p.label for p in kept)
        stats.check()
    return kept
