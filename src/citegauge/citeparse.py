"""Reference-section segmentation, bibliography parsing, and in-text citation counting.

Parsing has no side effects: each ``BibliographyEntry`` gets its folded match
keys when it is parsed. Detection failures never raise: an unparseable
bibliography or an unlinkable marker degrades to a warning and a zero count.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

from .corpus import PaperRecord
from .textnorm import fold, surname_key, tokenize

# Reference-section heading on a line of its own; the *last* occurrence wins.
# "$" matches only before "\n", so a CRLF line end needs the optional "\r".
# segment_references searches "\n" + body, so that every line, the first one
# too, follows a "\n": a pattern that starts with a literal is found by a fast
# scan, where "^" or an alternation of keywords is tried at every character.
# Each whitespace run in the tail can be read one way only, so a long run
# after the keyword costs linear time.
_HEADING_RE = re.compile(
    r"\n[ \t]*(?:References|REFERENCES|Bibliography|BIBLIOGRAPHY)[ \t]*(?::[ \t]*)?\r?$",
    re.MULTILINE,
)

# Entry-start keys inside the reference block: "[7] ..." or "7. ..."
_BRACKET_KEY_RE = re.compile(r"^[ \t]*\[(\d{1,3})\]")
_DOTTED_KEY_RE = re.compile(r"^[ \t]*(\d{1,3})\.(?=\s)")

# A year, and its suffix: one lowercase letter right after it with no letter
# after that, as in "2010a" ("2010ab" has none).
_YEAR_RE = re.compile(r"(?<!\d)(1[89]\d{2}|20\d{2}|2100)(?!\d)([a-z](?![^\W\d_]))?")
_PERIOD_RE = re.compile(r"\.")

# Name token for author-year markers; capitalization is checked in code because
# the class must stay unicode-friendly.
_NAME = r"[^\W\d_][\w'’\-]+"
_NAME_RE = re.compile(_NAME)

# Numeric in-text markers: [3], [2,5], [1-4], [2, 7; 9]. \s spans line breaks.
_NUM_MARKER_RE = re.compile(r"\[\s*\d{1,3}(?:\s*(?:[,;]|[-–])\s*\d{1,3})*\s*\]")
_RANGE_ITEM_RE = re.compile(r"(\d{1,3})\s*[-–]\s*(\d{1,3})|(\d{1,3})")

# A marker's year with its suffix letter, and each further year of a year list
# after one set of names, as in "Smith (2010, 2012)"; the comma between two
# years lets their gap be read one way only. After a suffixed year, a lone
# suffix letter is shorthand for that year with it ("2010a, b").
_MARKER_YEAR = r"(?:1[89]|20)\d{2}[a-z]?"
_MORE_YEARS = rf"(?:\s*,\s*{_MARKER_YEAR}|(?<=[a-z])\s*,\s*[a-z])"

# Parenthetical author-year: one "(...)" group, split on ';' into segments like
# "Smith, 2010", "Smith and Lee, 2011", "Smith et al., 2012", "see Smith 2013".
# The gap before "and" is a comma in optional whitespace or whitespace alone,
# so a whitespace run can be read one way only and a long one costs linear time.
# A segment may end in a year list ("Smith, 2010, 2012") and then one page or
# chapter locator (", p. 4", ", pp. 4-5"), which the lookahead leaves out of the
# match; as "$" does, it lets one "\n" end the years. A segment may also be a
# year list alone ("2012" in "(Smith, 2010; 2012)"); then the names are None.
_PAREN_RE = re.compile(r"\(([^()]{1,300})\)", re.DOTALL)
_PAREN_SEG_RE = re.compile(
    rf"^(?:(?:(?:see|cf|e\.g|i\.e)\.?,?\s+)?"
    rf"({_NAME})(?:(?:\s*,\s*|\s+)(?:and|&)\s+({_NAME}))?"
    rf"(?:,?\s+et\s+al\.?)?,?\s+)?"
    rf"({_MARKER_YEAR}{_MORE_YEARS}*)"
    r"(?=\n?,\s*(?:pp?|ch)\.\s*\d+(?:\s*[-–]\s*\d+)?\Z|$)",
    re.DOTALL,
)

# Narrative author-year: "Smith (2010)", "Smith and Lee (2011)", "Smith et al. (2012)",
# "Smith (2010, 2012)". The names contain no parenthesis, so a marker ends at
# the first "(year)" or "(year, year)" after its start. The scan finds those
# year anchors first, then matches the names backwards from each anchor's "("
# over the reversed text, where a name reads "[\w'’\-]+" then a letter with no
# word character after it (the forward "\b"). Trying "et al.", then the second
# name, then the longest first name finds the longest reversed match, which is
# the regex's leftmost start. No pattern part can cross a parenthesis, and each
# of the few alternatives walks each character a bounded number of times, so
# the scan is linear.
_YEAR_ANCHOR_RE = re.compile(rf"\(\s*({_MARKER_YEAR}{_MORE_YEARS}*)\s*\)")
_NARRATIVE_NAMES_REVERSED_RE = re.compile(
    r"\s*(?:\.?la\s+te\s+,?)?"
    r"(?:([\w'’\-]+[^\W\d_])\s+(?:dna|&)(?:\s*,\s*|\s+))?"
    r"([\w'’\-]+[^\W\d_])(?!\w)"
)

# "et al." inside an author-year marker: the cited work has three or more authors.
_ET_AL_RE = re.compile(r"\bet\s+al\b")

# Capitalized tokens that are never surnames in author position.
_SURNAME_STOP = frozenset({"and", "et", "al", "in", "ed", "eds", "the"})

# The f1 match rule: an entry scores TITLE_WEIGHT x (cited-title token share) +
# SURNAME_WEIGHT x (cited-surname share); the best entries count if >= MATCH_THRESHOLD.
MATCH_THRESHOLD = 0.5
TITLE_WEIGHT = 0.7
SURNAME_WEIGHT = 0.3


@dataclass
class BibliographyEntry:
    """One parsed reference-list entry.

    The folded match keys are computed once, when the entry is built, so an
    entry shared by many pairs is tokenized and folded once:

    - ``raw_tokens``: the entry's terms (``tokenize``), what cited titles match;
    - ``surnames``: folded surname tokens, the keys author-year markers link on;
    - ``first_author``: the folded first surname, or None when none was found;
    - ``name_keys``: folded surnames plus folded raw tokens, what cited
      surnames match against.
    """

    index: int
    raw: str
    surname_tokens: list[str] = field(default_factory=list)
    year: int | None = None
    numeric_key: int | None = None
    year_suffix: str = ""
    raw_tokens: frozenset[str] = field(init=False)
    surnames: frozenset[str] = field(init=False)
    first_author: str | None = field(init=False)
    name_keys: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        folded = [fold(t) for t in self.surname_tokens]
        self.raw_tokens = frozenset(tokenize(self.raw))
        self.surnames = frozenset(folded)
        self.first_author = folded[0] if folded else None
        # tokenize lower-cases, and fold changes nothing else in ASCII text.
        tokens = self.raw_tokens
        if not self.raw.isascii():
            tokens = {t if t.isascii() else fold(t) for t in tokens}
        self.name_keys = self.surnames | tokens


@dataclass(frozen=True)
class CitedKeys:
    """Match keys of a cited paper: its title tokens and folded author surnames."""

    title_tokens: frozenset[str]
    surnames: frozenset[str]


def cited_keys(cited: PaperRecord) -> CitedKeys:
    """Compute a cited paper's match keys; callers scoring many pairs compute them once."""
    return CitedKeys(
        frozenset(tokenize(cited.title)),
        frozenset(surname_key(a) for a in cited.authors) - {""},
    )


@dataclass
class InTextCitation:
    """A detected citation marker linked to a bibliography entry."""

    offset: int
    marker: str
    entry_index: int


@dataclass
class UnresolvedMarker:
    """A citation-shaped span that could not be linked to any entry."""

    offset: int
    marker: str
    detail: str


@dataclass
class CitingIndex:
    """One citing paper's parsed bibliography and marker counts.

    Built once per citing paper and shared by every pair it is the citing side
    of. It keeps no body text. An empty entry list means the bibliography could
    not be located, and then no markers were scanned. ``marker_counts`` maps
    each cited entry's index to its number of linked markers.
    """

    entries: list[BibliographyEntry]
    marker_counts: Counter[int]
    unresolved: list[UnresolvedMarker]


@dataclass
class CitationAnalysis:
    """Full result of counting one citing paper's direct citations of a target."""

    count: int
    best_score: float
    matched_entry_indices: list[int]
    unresolved: list[UnresolvedMarker]
    bibliography_parsed: bool
    warnings: list[str] = field(default_factory=list)


def segment_references(body: str) -> tuple[str, list[str]]:
    """Split body text into (main_text, reference entry strings).

    The reference section starts at the last heading line; an empty entry list
    means the bibliography could not be located. main_text is a prefix of body,
    so character offsets into it are valid body offsets.
    """
    headings = list(_HEADING_RE.finditer("\n" + body))
    if not headings:
        return body, []
    last = headings[-1]
    # Offset i of "\n" + body is offset i - 1 of body, so the heading's
    # "\n" sits where its line starts in body.
    return body[: last.start()], _split_entries(body[last.end() - 1 :])


def _split_entries(block: str) -> list[str]:
    lines = block.splitlines()
    bracket_starts = [i for i, ln in enumerate(lines) if _BRACKET_KEY_RE.match(ln)]
    dotted_starts = [i for i, ln in enumerate(lines) if _DOTTED_KEY_RE.match(ln)]

    if bracket_starts:
        starts = bracket_starts
    elif dotted_starts:
        starts = dotted_starts
    else:
        # No numeric keys: blank lines separate paragraphs; within a paragraph,
        # year-bearing lines start entries and yearless lines are wraps.
        entries = []
        paragraph: list[str] = []
        for ln in [ln.strip() for ln in lines] + [""]:
            if ln:
                paragraph.append(ln)
            elif paragraph:
                entries.extend(_split_unkeyed(paragraph))
                paragraph = []
        return entries

    entries = []
    for pos, start in enumerate(starts):
        end = starts[pos + 1] if pos + 1 < len(starts) else len(lines)
        joined = " ".join(ln.strip() for ln in lines[start:end] if ln.strip())
        if joined:
            entries.append(joined)
    return entries


def _split_unkeyed(paragraph: list[str]) -> list[str]:
    year_flags = [bool(_YEAR_RE.search(ln)) for ln in paragraph]
    if sum(year_flags) < 2:
        return [" ".join(paragraph)]
    entries, buf = [], []
    for ln, has_year in zip(paragraph, year_flags):
        if has_year and buf:
            entries.append(" ".join(buf))
            buf = [ln]
        else:
            buf.append(ln)
    entries.append(" ".join(buf))
    return entries


def _author_segment(text: str, year: re.Match | None) -> str:
    """Author-position prefix of an entry: everything before the year (``year``
    is ``_YEAR_RE.search(text)``), or before the first period that does not
    terminate a single-letter initial."""
    if year:
        return text[: year.start()]
    for match in _PERIOD_RE.finditer(text):
        # Step back over the whitespace before this period to the word before it.
        end = match.start()
        while end and text[end - 1].isspace():
            end -= 1
        if end and text[end - 1].isalpha() and (end == 1 or text[end - 2].isspace()):
            continue  # initial like "J."
        return text[: match.start()]
    return ""


def parse_bib_entry(raw: str, index: int) -> BibliographyEntry:
    """Extract numeric key, year, and author surnames from one raw entry string.

    Entries with no detectable authors or year come back with empty
    surname_tokens and year None; they stay linkable by numeric key only.
    """
    rest, numeric_key = raw, None
    key_match = _BRACKET_KEY_RE.match(raw) or _DOTTED_KEY_RE.match(raw)
    if key_match:
        numeric_key = int(key_match.group(1))
        rest = raw[key_match.end() :]

    year_match = _YEAR_RE.search(rest)
    surnames = [
        token
        for token in _NAME_RE.findall(_author_segment(rest, year_match))
        if token[0].isupper() and fold(token) not in _SURNAME_STOP
    ]
    return BibliographyEntry(
        index=index,
        raw=raw,
        surname_tokens=surnames,
        year=int(year_match.group(1)) if year_match else None,
        numeric_key=numeric_key,
        year_suffix=(year_match.group(2) or "") if year_match else "",
    )


def match_entry_to_paper(entry: BibliographyEntry, cited: PaperRecord) -> float:
    """Score how well a bibliography entry refers to a given paper, in [0, 1].

    Weighted sum of the fraction of the cited title's tokens found in the raw
    entry and the fraction of the cited authors' surnames found among the
    entry's surnames (folded; the raw entry text is a fallback source).
    """
    return _entry_score(entry, cited_keys(cited))


def _entry_score(entry: BibliographyEntry, keys: CitedKeys) -> float:
    title, surnames = keys.title_tokens, keys.surnames
    title_score = len(title & entry.raw_tokens) / len(title) if title else 0.0
    surname_score = len(surnames & entry.name_keys) / len(surnames) if surnames else 0.0
    return TITLE_WEIGHT * title_score + SURNAME_WEIGHT * surname_score


def _link_author_year(
    same_year: list[BibliographyEntry], name1: str, name2: str | None, et_al: bool
) -> BibliographyEntry | None:
    first = fold(name1)
    candidates = [e for e in same_year if e.first_author == first] or [
        e for e in same_year if first in e.surnames
    ]
    if name2:
        second = fold(name2)
        narrowed = [e for e in candidates if second in e.surnames]
        candidates = narrowed or candidates
    # The marker's shape implies an author count: one name 1, two names 2,
    # "et al." 3 or more. Entries with that many surnames go first.
    implied = 3 if et_al else 1 + bool(name2)
    candidates = [e for e in candidates if min(len(e.surname_tokens), 3) == implied] or candidates
    if not candidates:
        return None
    return min(candidates, key=lambda e: e.index)


def _numeric_links(
    marker: str, by_key: dict[int, BibliographyEntry]
) -> tuple[list[int], list[int]]:
    """(linked entry indices, keys with no entry) of one numeric marker, in marker
    order; a descending range "[5-2]" counts as its first key, missing."""
    linked: list[int] = []
    missing: list[int] = []
    for item in _RANGE_ITEM_RE.finditer(marker):
        if item.group(3) is not None:
            keys = [int(item.group(3))]
        else:
            lo, hi = int(item.group(1)), int(item.group(2))
            if lo > hi:
                missing.append(lo)
                continue
            keys = range(lo, hi + 1)
        for key in keys:
            entry = by_key.get(key)
            if entry is None:
                missing.append(key)
            else:
                linked.append(entry.index)
    return linked, missing


def narrative_markers(text: str) -> list[tuple[int, str, str, str | None, str]]:
    """Narrative author-year markers as (offset, marker, name1, name2, years), in
    text order; years is the year or the comma-separated year list in the
    parentheses, each year with its suffix ("2010b"), and name2 is None for a
    one-name marker. Names are not case-checked."""
    reversed_text = text[::-1]
    markers = []
    for anchor in _YEAR_ANCHOR_RE.finditer(text):
        names = _NARRATIVE_NAMES_REVERSED_RE.match(reversed_text, len(text) - anchor.start())
        if names:
            start = len(text) - names.end()
            marker = text[start : anchor.end()]
            name2 = names.group(1)[::-1] if names.group(1) else None
            markers.append((start, marker, names.group(2)[::-1], name2, anchor.group(1)))
    return markers


def find_in_text_citations(
    main_text: str, entries: list[BibliographyEntry]
) -> tuple[list[InTextCitation], list[UnresolvedMarker]]:
    """Detect numeric and author-year citation markers and link them to entries.

    Numeric markers link via numeric_key, ranges expand inclusively, and each
    linked entry yields one InTextCitation. Author-year markers link via
    first-author surname plus year and year suffix ("2010b"; the suffix is
    ignored when no entry of that year has one), falling back to an entry with
    that surname anywhere in its author list only when no entry has it first.
    A second name narrows the candidates to those listing it, then the author
    count the marker implies (one name: 1, two: 2, "et al.": 3 or more) narrows
    them to the entries with that many surnames; either step is skipped when
    no candidate passes it. Ties go to the lowest entry index. A parenthetical
    marker may end in one page or chapter locator (", p. 4"), which it omits.
    A marker may give a list of years after its names ("Smith (2010, 2012)"):
    each year links, or is reported, as a one-year marker's would. After a
    suffixed year, a lone suffix letter is that year with the letter
    ("2010a, b" lists 2010a and 2010b). Within one parenthetical group, a
    segment that is a year list alone takes the names and "et al." of the
    segment before it, if that one is a marker or takes them in turn ("2012"
    in "(Smith, 2010; 2012)" is Smith's); it keeps its own offset and marker.
    Citation-shaped spans that link to nothing are reported as unresolved.
    """
    citations: list[InTextCitation] = []
    unresolved: list[UnresolvedMarker] = []

    by_key: dict[int, BibliographyEntry] = {}
    for entry in entries:
        if entry.numeric_key is not None:
            by_key.setdefault(entry.numeric_key, entry)

    numeric: dict[str, tuple[list[int], str | None]] = {}  # per marker, its links and detail
    for match in _NUM_MARKER_RE.finditer(main_text):
        offset, marker = match.start(), match.group(0)
        if marker not in numeric:
            linked, missing = _numeric_links(marker, by_key)
            detail = f"no entry for key(s) {', '.join(map(str, missing))}" if missing else None
            numeric[marker] = linked, detail
        linked, detail = numeric[marker]
        citations += [InTextCitation(offset, marker, index) for index in linked]
        if detail:
            unresolved.append(UnresolvedMarker(offset, marker, detail))

    by_year: dict[int, list[BibliographyEntry]] = {}
    for entry in entries:
        if entry.year is not None:
            by_year.setdefault(entry.year, []).append(entry)
    links: dict[tuple[str, str | None, str, bool], BibliographyEntry | None] = {}

    def handle_author_year(
        offset: int, marker: str, name1: str, name2: str | None, et_al: bool, years: str
    ):
        if not name1[0].isupper() or (name2 and not name2[0].isupper()):
            return
        missing, year = [], ""
        for item in map(str.strip, years.split(",")):  # one link per year of a year list
            year = item if len(item) > 1 else year[:4] + item  # "2010a, b": b is 2010b
            key = (name1, name2, year, et_al)
            if key not in links:
                same_year = by_year.get(int(year[:4]), [])
                if any(e.year_suffix for e in same_year):
                    same_year = [e for e in same_year if e.year_suffix == year[4:]]
                links[key] = _link_author_year(same_year, name1, name2, et_al)
            entry = links[key]
            if entry is None:
                missing.append(year)
            else:
                citations.append(InTextCitation(offset, marker, entry.index))
        if missing:  # one report per marker, as for a numeric marker
            unresolved.append(
                UnresolvedMarker(offset, marker, f"no entry for {name1} {', '.join(missing)}")
            )

    for paren in _PAREN_RE.finditer(main_text):
        offset, names = paren.start(1), None
        for segment in paren.group(1).split(";"):
            match = _PAREN_SEG_RE.match(segment.strip())
            if match is None or match.group(1):  # a year list alone keeps the names
                names = match and (*match.group(1, 2), bool(_ET_AL_RE.search(match.group(0))))
            if names:
                lead = len(segment) - len(segment.lstrip())
                handle_author_year(offset + lead, match.group(0), *names, match.group(3))
            offset += len(segment) + 1

    for offset, marker, name1, name2, year in narrative_markers(main_text):
        if name2 and not name1[0].isupper():
            # "larone and Veregada (2015)": a lowercase word before "and" is no
            # name, so the marker is the second name's alone. The rest of the
            # marker holds no capital letter, so a capitalized name's last
            # occurrence is its own (a lowercase one is dropped all the same).
            cut = marker.rindex(name2)
            offset, marker, name1, name2 = offset + cut, marker[cut:], name2, None
        handle_author_year(offset, marker, name1, name2, bool(_ET_AL_RE.search(marker)), year)

    citations.sort(key=lambda c: (c.offset, c.entry_index))
    unresolved.sort(key=lambda u: (u.offset, u.marker))
    return citations, unresolved


def paper_bibliography(record: PaperRecord) -> tuple[str, list[BibliographyEntry]]:
    """Bibliography entries for a paper, parsed from its explicit reference list
    when present, otherwise segmented out of the body. Returns (main_text, entries)."""
    if record.body is None:
        raise TypeError(f"{record.id}: no body; a loaded corpus gives it by Corpus.with_body")
    if record.references:
        raws = list(record.references)
        main_text = record.body
    else:
        main_text, raws = segment_references(record.body)
    return main_text, [parse_bib_entry(raw, i) for i, raw in enumerate(raws, start=1)]


def index_citing_paper(citing: PaperRecord) -> CitingIndex:
    """Parse a citing paper's bibliography and link its in-text markers, once."""
    main_text, entries = paper_bibliography(citing)
    if not entries:
        return CitingIndex([], Counter(), [])
    citations, unresolved = find_in_text_citations(main_text, entries)
    return CitingIndex(entries, Counter(c.entry_index for c in citations), unresolved)


def analyze_citations(
    citing: PaperRecord,
    cited: PaperRecord,
    index: CitingIndex | None = None,
    keys: CitedKeys | None = None,
) -> CitationAnalysis:
    """Count in-text citations of ``cited`` within ``citing`` with full diagnostics.

    The target entry is the bibliography entry with the best match score; every
    detected marker linked to a best-scoring entry counts, provided the best
    score reaches ``MATCH_THRESHOLD``. Failures degrade to count 0 with a
    warning, returned in the analysis; the caller logs it.
    ``index`` (``citing``'s) and ``keys`` (``cited``'s) may be passed prebuilt
    by a caller that scores many pairs; each is built here when absent.
    """
    if index is None:
        index = index_citing_paper(citing)
    if not index.entries:
        warning = f"{citing.id}: bibliography unparseable, direct-citation count forced to 0"
        return CitationAnalysis(0, 0.0, [], [], False, [warning])

    if keys is None:
        keys = cited_keys(cited)
    # An entry that shares no title term and no surname key with the cited
    # paper scores 0.0, so only the others are scored.
    title, surnames = keys.title_tokens, keys.surnames
    scores = {
        e.index: _entry_score(e, keys)
        for e in index.entries
        if not (title.isdisjoint(e.raw_tokens) and surnames.isdisjoint(e.name_keys))
    }
    best_score = max(scores.values(), default=0.0)
    if best_score < MATCH_THRESHOLD:
        warning = (
            f"{citing.id} -> {cited.id}: no bibliography entry matches the cited paper "
            f"(best score {best_score:.3f})"
        )
        return CitationAnalysis(0, best_score, [], index.unresolved, True, [warning])

    matched = sorted(idx for idx, s in scores.items() if s == best_score)
    count = sum(index.marker_counts[idx] for idx in matched)
    return CitationAnalysis(count, best_score, matched, index.unresolved, True)
