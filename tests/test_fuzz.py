"""Hypothesis fuzzing of the loaders and the citation parser.

Five properties: hostile input raises nothing but DataError, every reported
marker sits at its offset in the main text, f1 counts exactly the markers
linked to the matched entries, inserting marker-free text between markers
changes no f1 count, and the parenthetical-segment pattern matches as its
former, ambiguous version did.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

from citegauge import citeparse
from citegauge.citeparse import (
    analyze_citations,
    find_in_text_citations,
    index_citing_paper,
    parse_bib_entry,
    segment_references,
)
from citegauge.corpus import load_pairs, paper_from_dict
from citegauge.errors import DataError

from conftest import make_corpus, make_paper
from oracles import oracle_paren_segment

_FUZZ = settings(max_examples=150, deadline=None)

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_strings = st.lists(st.text(max_size=8), max_size=4)
_document = st.fixed_dictionaries(
    {},
    optional={
        "id": st.text(max_size=6) | _json,
        "title": st.text(max_size=12) | _json,
        "authors": _strings | _json,
        "abstract": st.none() | st.text(max_size=12) | _json,
        "body": st.text(max_size=40) | _json,
        "references": st.none() | _strings | _json,
    },
)

# Documents of the right shape, so the checks on a returned record run often.
_typed_document = st.fixed_dictionaries(
    {
        "id": st.text(max_size=6),
        "title": st.text(max_size=12),
        "authors": _strings,
        "abstract": st.none() | st.text(max_size=12),
        "body": st.text(max_size=40),
        "references": st.none() | _strings,
    }
)


@_FUZZ
@given(_document | _typed_document | _json)
def test_paper_from_dict_raises_only_data_error(data):
    try:
        record = paper_from_dict(data)
    except DataError:
        return
    assert record.id and record.id == record.id.strip()
    assert "\t" not in record.id and record.id.splitlines() == [record.id]
    assert all(author and author == author.strip() for author in record.authors)
    assert record.abstract is None or record.abstract.strip()
    assert record.references is None or all(ref.strip() for ref in record.references)


_IDS = ("a", "b", "c", "zz")
_cell = st.sampled_from(_IDS + ("0", "1", "2", "-1", "label", "", " 1 ", "1.0", "١")) | st.text(
    max_size=3
)
_line = st.lists(_cell, max_size=4).map("\t".join)
_pairs_bytes = st.lists(_line, max_size=8).flatmap(
    lambda lines: st.sampled_from(["\n", "\r\n", "\r"]).map(lambda end: end.join(lines))
).map(str.encode) | st.binary(max_size=40)


@_FUZZ
@given(_pairs_bytes)
def test_load_pairs_raises_only_data_error(raw):
    corpus = make_corpus(*(make_paper(i, abstract="x") for i in _IDS[:3]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        path.write_bytes(raw)
        try:
            pairs, stats, issues = load_pairs(path, corpus)
        except DataError:
            return
    keys = [(p.citing_id, p.cited_id) for p in pairs]
    assert len(keys) == len(set(keys))
    assert all(p.citing_id in corpus and p.cited_id in corpus for p in pairs)
    assert all(p.label in (0, 1) and p.citing_id != p.cited_id for p in pairs)
    assert stats.total_pairs == len(pairs)
    stats.check()


_BODY_PIECES = (
    "References", "REFERENCES", "Bibliography:", "\n", "\r\n", "\n\n", " ", "\t",
    "[1] Smith, J. 2010. A paper.", "2. Lee, K. 2011.", "Wong 1999", "A. B.", "[", "]",
    "(", ")", "Smith (2010)", "(Lee, 2011; Wong 1999)", "[1-3]", "[2,\n4]", "et al.", ".",
)  # fmt: skip
_body = st.lists(st.sampled_from(_BODY_PIECES) | st.text(max_size=4), max_size=30).map("".join)


def _assert_markers_in_place(main_text, entries, cites, unresolved):
    indices = {e.index for e in entries}
    for marker in [*cites, *unresolved]:
        assert 0 <= marker.offset < len(main_text)
        assert main_text.startswith(marker.marker, marker.offset)
    assert all(c.entry_index in indices for c in cites)


@_FUZZ
@given(_body)
def test_segment_and_link_hostile_bodies(body):
    main_text, raws = segment_references(body)
    assert body.startswith(main_text)
    assert all(raw and raw == raw.strip() for raw in raws)
    entries = [parse_bib_entry(raw, i) for i, raw in enumerate(raws, start=1)]
    cites, unresolved = find_in_text_citations(main_text, entries)
    _assert_markers_in_place(main_text, entries, cites, unresolved)


@_FUZZ
@given(_body, st.lists(st.sampled_from(_BODY_PIECES[6:]) | st.text(max_size=12), max_size=6))
def test_find_in_text_citations_offsets(text, raws):
    entries = [parse_bib_entry(raw, i) for i, raw in enumerate(raws, start=1)]
    cites, unresolved = find_in_text_citations(text, entries)
    _assert_markers_in_place(text, entries, cites, unresolved)


# Hostile main text before a reference list whose entries can tie on the
# match score, each with markers of its own.
_TIED_ENTRIES = (
    "[1] Smith, J. 2010. A paper.", "[2] Smith, J. 2010. A paper.", "[3] Lee, K. 2011. Results.",
)  # fmt: skip
_linked_body = st.builds(
    lambda main, entries: main + "\nReferences\n" + "\n".join(entries),
    st.lists(
        st.sampled_from(_BODY_PIECES + ("[1]", "[2]", "[1-3]", "(Smith, 2010)"))
        | st.text(max_size=4),
        max_size=20,
    ).map("".join),
    st.lists(st.sampled_from(_TIED_ENTRIES), min_size=1, max_size=3),
)


@_FUZZ
@given(
    _body | _linked_body,
    st.sampled_from(["A paper", "Smith", "Lee", "Results", ""]),
    st.lists(st.sampled_from(["J. Smith", "K. Lee", "Wong", "Zoë B"]), max_size=2),
)
def test_f1_counts_markers_of_matched_entries(body, title, authors):
    citing = make_paper("c", body=body)
    index = index_citing_paper(citing)
    analysis = analyze_citations(citing, make_paper("d", title=title, authors=authors), index=index)
    matched = set(analysis.matched_entry_indices)
    citations, _ = find_in_text_citations(*citeparse.paper_bibliography(citing))
    assert analysis.count == sum(1 for c in citations if c.entry_index in matched)


_SEGMENT_PIECES = (
    "see ", "cf.", "e.g.,", "Smith", "Lee", "Zoë", "and", "&", "et", "al.", "et al.",
    "2010", "1999b", ",", " ", "  ", "\t", "\n", ".", "x", "p.", "pp.", "ch.", "4", "-", "–",
)  # fmt: skip
_segment = st.lists(st.sampled_from(_SEGMENT_PIECES) | st.text(max_size=3), max_size=14).map(
    "".join
) | st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["", "see ", "cf., "]),
        st.sampled_from(["Smith", "Zoë"]),
        st.sampled_from(["", ",", " ", ", ", " ,", " , \n", "\t\t"]),
        st.sampled_from(["", "and", "&"]),
        st.sampled_from(["", " ", "\n "]),
        st.sampled_from(["", "Lee"]),
        st.sampled_from(["", " et al.", ", et al"]),
        st.sampled_from([" ", ", ", ",", "\n"]),
        st.sampled_from(["2010", "1999b", "x"]),
        st.sampled_from(["", ", p. 4", ",pp.4 – 5", ", ch.12", ", p.", ", p. 4\n", ", q. 4"]),
    ),
)


@settings(max_examples=500, deadline=None)
@given(_segment)
def test_parenthetical_segment_pattern_matches_oracle(segment):
    match = citeparse._PAREN_SEG_RE.match(segment)
    assert (match and (match.span(), match.groups())) == oracle_paren_segment(segment)


_BIBLIOGRAPHY = (
    "[1] Smith, J., Lee, K. 2010. Alpha results.",
    "[2] Wong, A. 2011. Beta results.",
    "[3] Smith, J. 2012. Gamma results.",
    "[4] Zoë, B., Smith, J. 2011. Delta results.",
)
_MARKERS = (
    "[1]", "[2,3]", "[1-4]", "[3;\n4]", "[9]", "(Smith, 2010)", "(Wong, 2011; Smith, 2012)",
    "(see Zoë et al., 2011)", "Smith and Lee (2010)", "Wong (2011)", "Smith et al. (2012)",
    "Smith (2011)", "Nguyen (2009)", "smith (2010)", "(Smith, 2012, p. 4)", "(Wong, 2011, pp. 2-3)",
)  # fmt: skip
# Marker-free text: words of either case ending in a period, with no digit,
# bracket or parenthesis, so it cannot join a marker next to it.
_filler = st.lists(
    st.sampled_from(["we", "show", "and", "et", "al", "Results", "Smith", "the", "model,"]),
    min_size=1,
    max_size=5,
).map(lambda words: " ".join(words) + ".")


@_FUZZ
@given(
    st.lists(st.sampled_from(_MARKERS) | _filler, max_size=12),
    st.lists(st.tuples(st.integers(0, 12), _filler), max_size=4),
    st.sampled_from([" ", "\n"]),
)
def test_f1_unchanged_by_marker_free_text(segments, insertions, gap):
    def citation_counts(parts):
        body = gap.join(parts) + "\n\nReferences\n" + "\n".join(_BIBLIOGRAPHY)
        main_text, entries = citeparse.paper_bibliography(make_paper("c", body=body))
        assert len(entries) == len(_BIBLIOGRAPHY)
        citations, unresolved = find_in_text_citations(main_text, entries)
        return (
            Counter((c.entry_index, c.marker) for c in citations),
            Counter((u.marker, u.detail) for u in unresolved),
        )

    padded = list(segments)
    for position, filler in insertions:
        padded.insert(min(position, len(padded)), filler)
    assert citation_counts(padded) == citation_counts(segments)
