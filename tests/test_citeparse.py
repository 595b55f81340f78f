import random
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from citegauge import citeparse
from citegauge.citeparse import (
    analyze_citations,
    find_in_text_citations,
    match_entry_to_paper,
    narrative_markers,
    parse_bib_entry,
    paper_bibliography,
    segment_references,
)
from citegauge.textnorm import fold, tokenize

from conftest import make_paper
from oracles import (
    oracle_author_segment,
    oracle_direct_count,
    oracle_entry_scores,
    oracle_link_author_year,
    oracle_narrative_markers,
    oracle_paren_segment,
    oracle_reference_split,
    oracle_year_list,
)
from fixture_corpus import (
    EXPECTED_TARGET_COUNTS,
    aux_paper,
    citing_papers,
    target_paper,
)


# Bodies of heading-like lines: each keyword with spaces, tabs, a colon or
# other text around it, between ordinary lines, joined by "\n" or "\r\n", with
# or without a line end after the last line.
_heading_line = st.tuples(
    st.sampled_from(["", " ", "\t", " \t ", "x", "See "]),
    st.sampled_from(
        ["References", "REFERENCES", "Bibliography", "BIBLIOGRAPHY", "references", "Reference"]
    ),
    st.sampled_from(
        ["", ":", " :", ": ", " \t:\t ", " ", "\t", "\r", " x", ":x", "::", " References"]
    ),
).map("".join)
_other_line = st.sampled_from(
    ["", " ", "Body text.", "[1] Smith, J. 2010. A paper.", "2. Lee, K. 2011. Another."]
) | st.text(alphabet=" \t\r:xRB", max_size=4)
_heading_body = st.builds(
    lambda lines, end, closed: end.join(lines) + (end if closed else ""),
    st.lists(_heading_line | _other_line, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


class TestSegmentReferences:
    @settings(max_examples=500, deadline=None)
    @given(_heading_body)
    def test_same_split_as_anchored_oracle(self, body):
        split = oracle_reference_split(body)
        expected = (body, []) if split is None else (split[0], citeparse._split_entries(split[1]))
        assert segment_references(body) == expected

    def test_basic_split(self):
        body = "Main text cites [1].\n\nReferences\n[1] Smith 2010. A paper.\n[2] Jones 2012. Another."
        main, entries = segment_references(body)
        assert entries == ["[1] Smith 2010. A paper.", "[2] Jones 2012. Another."]
        assert "References" not in main
        assert "[1]." in main  # marker stays in the main text

    def test_no_heading_gives_empty_block(self):
        main, entries = segment_references("Text with no bibliography at all.")
        assert entries == []
        assert main == "Text with no bibliography at all."

    def test_last_heading_wins(self):
        body = (
            "We discuss References handling.\n"
            "References\n[1] Early stub.\n"
            "More prose in an appendix.\n"
            "References\n[1] Real entry one.\n[2] Real entry two."
        )
        _, entries = segment_references(body)
        assert entries == ["[1] Real entry one.", "[2] Real entry two."]

    def test_heading_must_be_alone_on_line(self):
        body = "See the References section for details. No split here."
        _, entries = segment_references(body)
        assert entries == []

    def test_wrapped_entries_are_joined(self):
        body = "Text.\nReferences\n[1] A very long entry\nthat wraps onto another line.\n[2] Short."
        _, entries = segment_references(body)
        assert entries == [
            "[1] A very long entry that wraps onto another line.",
            "[2] Short.",
        ]

    def test_blank_line_separated_entries(self):
        body = "Text.\nBibliography\nAlpha, A. 2001. One.\nStill entry one.\n\nBeta, B. 2002. Two."
        _, entries = segment_references(body)
        assert entries == ["Alpha, A. 2001. One. Still entry one.", "Beta, B. 2002. Two."]

    def test_crlf_line_endings(self):
        body = "Main text cites [1].\r\n\r\nReferences\r\n[1] Smith 2010. A paper.\r\n[2] Jones 2012. Another."
        main, entries = segment_references(body)
        assert entries == ["[1] Smith 2010. A paper.", "[2] Jones 2012. Another."]
        assert main == "Main text cites [1].\r\n\r\n"

    def test_explicit_list_passthrough(self):
        record = make_paper(
            "x", body="Body with no heading. Cites [1].", references=["[1] Given entry. 2001."]
        )
        main, entries = paper_bibliography(record)
        assert main == record.body
        assert [e.raw for e in entries] == ["[1] Given entry. 2001."]

    @pytest.mark.parametrize("references", [None, ["[1] Given entry. 2001."]])
    def test_record_without_its_body_is_refused(self, references):
        # A loaded corpus keeps no body: the record comes from Corpus.with_body.
        with pytest.raises(TypeError, match="x: no body; .*Corpus.with_body"):
            paper_bibliography(make_paper("x", body=None, references=references))


class TestParseBibEntry:
    def test_bracket_key_authors_year(self):
        entry = parse_bib_entry("[3] Brennan, M., Ng, V., Osei, O. 2015. Identifying users.", 3)
        assert entry.numeric_key == 3
        assert entry.year == 2015
        assert entry.surname_tokens == ["Brennan", "Ng", "Osei"]

    def test_paren_year_single_author(self):
        entry = parse_bib_entry("Smith, J. (2010). Title of work.", 1)
        assert entry.numeric_key is None
        assert entry.year == 2010
        assert entry.surname_tokens == ["Smith"]

    def test_degenerate_entry(self):
        entry = parse_bib_entry("Untitled manuscript", 1)
        assert entry.year is None
        assert entry.surname_tokens == []
        assert entry.numeric_key is None

    def test_dotted_key(self):
        entry = parse_bib_entry("7. Varga, K. 1998. Numerical methods.", 7)
        assert entry.numeric_key == 7
        assert entry.year == 1998
        assert entry.surname_tokens == ["Varga"]

    @pytest.mark.parametrize(
        "raw, suffix",
        [
            ("Smith, J. 2010b. A title.", "b"),
            ("Smith, J. (2010a). A title.", "a"),
            ("[4] Smith, J. 2010c, A title.", "c"),
            ("Smith, J. 2010. A title.", ""),
            ("Smith, J. 2010ab. A title.", ""),  # a word, not a suffix
            ("Smith, J. 2010B. A title.", ""),
        ],
    )
    def test_year_suffix(self, raw, suffix):
        entry = parse_bib_entry(raw, 1)
        assert (entry.year, entry.year_suffix) == (2010, suffix)

    def test_year_outside_plausible_range_ignored(self):
        entry = parse_bib_entry("Doe, J. 1542. An old tract.", 1)
        assert entry.year is None

    def test_index_is_kept(self):
        assert parse_bib_entry("anything", 9).index == 9

    def test_match_keys_keep_their_definitions(self):
        # "ℌ" survives lower-casing and folds to "h": an unfolded "ℌilbert"
        # must not stand in for "hilbert" among the name keys.
        entry = parse_bib_entry(
            "[1] Müller, ℌ., Ødegård, K. 2010. Ångström ﬁne structure of ℌilbert spaces.", 1
        )
        assert entry.surname_tokens == ["Müller", "Ødegård"]
        assert entry.raw_tokens == frozenset(tokenize(entry.raw))
        assert entry.surnames == frozenset(fold(t) for t in entry.surname_tokens)
        assert entry.first_author == fold(entry.surname_tokens[0])
        assert entry.name_keys == entry.surnames | {fold(t) for t in entry.raw_tokens}
        assert {"muller", "hilbert", "fine"} <= entry.name_keys


class TestMatchEntryToPaper:
    cited = make_paper(
        "t",
        title="Adaptive Convolution Networks for Robust Image Restoration",
        authors=["Elena Marchetti", "Tomas Novak"],
        abstract="x",
    )

    def test_full_overlap_scores_one(self):
        entry = parse_bib_entry(
            "[2] Marchetti, E., Novak, T. 2019. Adaptive Convolution Networks "
            "for Robust Image Restoration.",
            2,
        )
        assert match_entry_to_paper(entry, self.cited) == pytest.approx(1.0)

    def test_disjoint_scores_zero(self):
        entry = parse_bib_entry("[1] Quist, R. 2011. Sparse coding dictionaries.", 1)
        assert match_entry_to_paper(entry, self.cited) == 0.0

    def test_title_only_scores_title_weight(self):
        entry = parse_bib_entry(
            "Adaptive Convolution Networks for Robust Image Restoration. Signal Press.",
            1,
        )
        assert match_entry_to_paper(entry, self.cited) == pytest.approx(0.7)

    def test_diacritics_fold_for_surnames(self):
        cited = make_paper("t2", title="Zzz Qqq", authors=["José Muñoz"], abstract="x")
        entry = parse_bib_entry("Munoz, J. 2014. Unrelated words entirely.", 1)
        score = match_entry_to_paper(entry, cited)
        assert score == pytest.approx(0.3)


class TestMatchPolicy:
    """f1's rule: 0.7 x title-token share + 0.3 x surname share, best score >= 0.5."""

    cited = make_paper(
        "t", title="Quantum Lattices", authors=["Elena Marchetti", "Tomas Novak"], abstract="x"
    )

    def _citing(self, main, *entries):
        body = main + "\n\nReferences\n" + "\n".join(entries) + "\n"
        return make_paper("c", body=body, abstract="a")

    def test_score_at_threshold_counts(self):
        # one of two title tokens and one of two surnames: 0.7 * 0.5 + 0.3 * 0.5
        entry = "[1] Marchetti, E. 2019. Quantum methods."
        assert match_entry_to_paper(parse_bib_entry(entry, 1), self.cited) == 0.5
        citing = self._citing(
            "We build on [1], then again on [1].",
            entry,
            "[2] Quist, R. 2011. Sparse coding dictionaries.",
        )
        analysis = analyze_citations(citing, self.cited)
        assert (analysis.count, analysis.best_score, analysis.matched_entry_indices) == (
            2,
            0.5,
            [1],
        )
        assert analysis.warnings == []

    def test_score_below_threshold_counts_nothing(self):
        entry = "[1] Quist, R. 2011. Quantum dictionaries."  # title share only: 0.35
        analysis = analyze_citations(self._citing("We build on [1].", entry), self.cited)
        assert analysis.count == 0
        assert analysis.best_score == pytest.approx(0.35)
        assert "no bibliography entry matches" in analysis.warnings[0]

    def test_markers_of_every_tied_best_entry_count(self):
        citing = self._citing(
            "We build on [1] and on [2].",
            "[1] Marchetti, E. 2019. Quantum methods.",
            "[2] Novak, T. 2018. Lattices revisited.",
        )
        analysis = analyze_citations(citing, self.cited)
        assert analysis.count == 2
        assert analysis.matched_entry_indices == [1, 2]


# Surnames and title words, some of them non-ASCII: a non-ASCII term is kept
# unfolded among an entry's terms but folded among its name keys ("über" and
# "uber"), and "Østby" folds to a non-ASCII key. "Lee" and "Graph" are both
# surnames and title words.
_SURNAMES = ("Smith", "Lee", "Novak", "Müller", "Zoë", "Ångström", "Østby", "Graph")
_TITLE_WORDS = ("quantum", "lattice", "graph", "lee", "über", "café", "naïve", "øre", "müller")
_match_case = st.tuples(
    st.lists(  # entries: surnames, year, title words, markers in the body
        st.tuples(
            st.lists(st.sampled_from(_SURNAMES), max_size=3),
            st.integers(1990, 2020),
            st.lists(st.sampled_from(_TITLE_WORDS), min_size=1, max_size=4),
            st.integers(0, 3),
        ),
        max_size=8,
    ),
    st.lists(st.sampled_from(_TITLE_WORDS), max_size=4).map(" ".join),  # cited title
    st.lists(st.sampled_from(_SURNAMES), max_size=3),  # cited authors' surnames
)


def _match_pair(case):
    """(citing paper, cited paper, the citing paper's index) of a ``_match_case``."""
    bib, title, surnames = case
    references, body = [], []
    for key, (names, year, words, markers) in enumerate(bib, start=1):
        authors = ", ".join(f"{name}, A." for name in names)
        references.append(f"[{key}] {authors} {year}. {' '.join(words).capitalize()}.")
        body += [f"See [{key}]."] * markers
    citing = make_paper("c", body=" ".join(body), references=references, abstract="a")
    cited = make_paper("t", title=title, authors=[f"Anna {s}" for s in surnames])
    return citing, cited, citeparse.index_citing_paper(citing)


class TestCandidateEntries:
    """analyze_citations scores only the entries that share a title term or a
    surname key with the cited paper; the others score 0.0."""

    # The cited title's one shared term is non-ASCII: "über" is among entry
    # 1's terms, while its name keys hold "uber".
    @example(([(["Smith"], 2010, ["über", "quantum"], 2)], "Über", ["Novak"]))
    @example(([(["Østby"], 2010, ["lattice"], 1), (["Lee"], 2011, ["graph"], 1)], "", ["Østby"]))
    @example(([], "quantum", ["Smith"]))
    @settings(max_examples=300, deadline=None)
    @given(_match_case)
    def test_equals_scoring_every_entry(self, case):
        citing, cited, index = _match_pair(case)
        analysis = analyze_citations(citing, cited, index=index)
        count, best, matched = oracle_direct_count(
            index.entries, index.marker_counts, cited.title, cited.authors
        )
        if not index.entries:
            warnings = ["c: bibliography unparseable, direct-citation count forced to 0"]
        elif best < 0.5:
            warnings = [
                "c -> t: no bibliography entry matches the cited paper "
                f"(best score {best:.3f})"
            ]
        else:
            warnings = []
        got = (analysis.count, analysis.best_score, analysis.matched_entry_indices)
        assert got == (count, best, matched)
        assert analysis.warnings == warnings

    @settings(max_examples=100, deadline=None)
    @given(_match_case)
    def test_scores_only_entries_sharing_a_key(self, case):
        citing, cited, index = _match_pair(case)
        scored = []
        entry_score = citeparse._entry_score

        def counting(entry, keys):
            scored.append(entry.index)
            return entry_score(entry, keys)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(citeparse, "_entry_score", counting)
            analyze_citations(citing, cited, index=index)
        scores = oracle_entry_scores(index.entries, cited.title, cited.authors)
        assert scored == [i for i, score in scores.items() if score > 0.0]


def _entries(*raws):
    return [parse_bib_entry(raw, i) for i, raw in enumerate(raws, start=1)]


FIVE = _entries(
    "[1] Aa, Bb. 2001. One.",
    "[2] Cc, Dd. 2002. Two.",
    "[3] Ee, Ff. 2003. Three.",
    "[4] Gg, Hh. 2004. Four.",
    "[5] Ii, Jj. 2005. Five.",
)


class TestFindInTextCitations:
    def test_comma_list(self):
        cites, unresolved = find_in_text_citations("as shown in [2,3]", FIVE)
        assert [c.entry_index for c in cites] == [2, 3]
        assert unresolved == []

    def test_author_year_narrative(self):
        entries = _entries("Smith, J. 2010. A paper about things.")
        cites, unresolved = find_in_text_citations("Smith et al. (2010) argue this.", entries)
        assert len(cites) == 1
        assert cites[0].entry_index == 1
        assert unresolved == []

    @pytest.mark.parametrize("text", ["see (Smith, 2010b).", "Smith (2010b) shows."])
    def test_year_suffix_links_its_own_entry(self, text):
        entries = _entries("Smith, J. 2010a. A first paper.", "Smith, J. 2010b. A second paper.")
        cites, unresolved = find_in_text_citations(text, entries)
        assert [c.entry_index for c in cites] == [2]
        assert unresolved == []

    def test_year_suffix_falls_back_to_the_year_without_suffixed_entries(self):
        entries = _entries("Lee, K. 2010. A paper.", "Smith, J. 2010. Another.")
        cites, _ = find_in_text_citations("(Smith, 2010b) and Lee (2010a)", entries)
        assert [c.entry_index for c in cites] == [2, 1]

    def test_marker_without_suffix_misses_suffixed_entries(self):
        # Entries of 2010 carry suffixes, so "2010" alone names none of them.
        entries = _entries("Smith, J. 2010a. A first paper.", "Smith, J. 2010b. A second paper.")
        cites, unresolved = find_in_text_citations("(Smith, 2010)", entries)
        assert cites == []
        assert [(u.marker, u.detail) for u in unresolved] == [
            ("Smith, 2010", "no entry for Smith 2010")
        ]

    @pytest.mark.parametrize(
        "text, marker",
        [
            ("(Smith et al., 2013, p. 4)", "Smith et al., 2013"),
            ("(Smith et al. 2013, pp. 4-5)", "Smith et al. 2013"),
            ("(see Smith et al., 2013,pp.12 – 14)", "see Smith et al., 2013"),
            ("(Lee, 2010; Smith et al., 2013, ch. 3)", "Smith et al., 2013"),
        ],
    )
    def test_page_or_chapter_locator_is_stripped(self, text, marker):
        entries = _entries("Lee, K. 2010. A paper.", "Smith, J., Lee, K., Wu, T. 2013. Another.")
        cites, unresolved = find_in_text_citations(text, entries)
        assert (cites[-1].entry_index, cites[-1].marker) == (2, marker)
        assert cites[-1].offset == text.index(marker)
        assert unresolved == []

    @pytest.mark.parametrize(
        "text", ["(Smith et al., 2013, p.)", "(Smith et al., 2013, p. 4, p. 5)"]
    )
    def test_only_one_numbered_locator_is_stripped(self, text):
        entries = _entries("Smith, J., Lee, K., Wu, T. 2013. Another.")
        assert find_in_text_citations(text, entries) == ([], [])

    # A four-entry bibliography: Lee 2010, then Smith 2010, 2011 and 2012.
    SMITH = _entries(
        "Lee, K. 2010. A paper.",
        "Smith, J. 2010. One.",
        "Smith, J. 2011. Two.",
        "Smith, J. 2012. Three.",
    )

    @pytest.mark.parametrize(
        "text, marker",
        [
            ("(Smith, 2010, 2012)", "Smith, 2010, 2012"),
            ("Smith (2010, 2012)", "Smith (2010, 2012)"),
            ("(see Smith 2010 ,2012)", "see Smith 2010 ,2012"),
            ("as Smith ( 2010,\n 2012 ) shows", "Smith ( 2010,\n 2012 )"),
            ("(Lee, 2010; Smith, 2010, 2012, p. 4)", "Smith, 2010, 2012"),
        ],
    )
    def test_year_list_after_one_name_links_each_year(self, text, marker):
        cites, unresolved = find_in_text_citations(text, self.SMITH)
        # One citation per year, all of the one marker, as "[2,4]" gives.
        offset = text.index(marker)
        assert [(c.offset, c.marker, c.entry_index) for c in cites][-2:] == [
            (offset, marker, 2),
            (offset, marker, 4),
        ]
        assert unresolved == []

    @pytest.mark.parametrize(
        "text, linked, detail",
        [
            ("(Smith, 2011, 2013, 2010)", [2, 3], "no entry for Smith 2013"),
            ("Smith (2011, 2013, 2010)", [2, 3], "no entry for Smith 2013"),
            ("(Smith, 2013, 2010, 2014)", [2], "no entry for Smith 2013, 2014"),
            ("Smith (2013, 2014)", [], "no entry for Smith 2013, 2014"),
        ],
    )
    def test_year_list_reports_its_unlinked_years_once(self, text, linked, detail):
        # One unresolved report per marker, listing its years, as "[2, 7, 9]"
        # gives one report listing keys 7 and 9.
        cites, unresolved = find_in_text_citations(text, self.SMITH)
        marker = text.strip("()") if text.startswith("(") else text
        assert [(c.marker, c.entry_index) for c in cites] == [(marker, i) for i in linked]
        assert [(u.offset, u.marker, u.detail) for u in unresolved] == [
            (text.index(marker), marker, detail)
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(
            "".join,
            st.tuples(
                st.sampled_from(["", "see ", "cf., "]),
                st.sampled_from(["Smith", "Smith and Lee", "Smith et al.", "x"]),
                st.sampled_from([" ", ", ", ",", "\n"]),
                st.sampled_from(["2010", "1999b", "x"]),
                st.lists(
                    st.tuples(
                        st.sampled_from([",", ", ", " ,", ",\n", " ", ";"]),
                        st.sampled_from(["2010", "2011a", "b", "x"]),
                    ).map("".join),
                    max_size=3,
                ).map("".join),
                st.sampled_from(["", ", p. 4", "\n", " "]),
            ),
        )
    )
    def test_year_list_segments_match_the_oracle(self, segment):
        # Year lists, one-year markers and locators, beside the one-year sweep
        # in test_fuzz.py.
        match = citeparse._paren_segment(segment)
        assert (match and (match.span(), match.groups())) == oracle_paren_segment(segment)

    def test_year_list_keeps_suffixes_and_the_implied_author_count(self):
        entries = _entries(
            "Smith, J. 2010a. One.",
            "Smith, J., Lee, K., Wu, T. 2010a. Two.",
            "Smith, J., Lee, K., Wu, T. 2010b. Three.",
        )
        cites, unresolved = find_in_text_citations("Smith et al. (2010a, 2010b)", entries)
        assert [c.entry_index for c in cites] == [2, 3]
        assert unresolved == []

    # Two entries of one author and year, told apart by their suffixes.
    SUFFIXED = _entries("Smith, J. 2010a. One.", "Smith, J. 2010b. Two.")

    @pytest.mark.parametrize(
        "text, marker",
        [
            ("(Smith, 2010a, b)", "Smith, 2010a, b"),
            ("Smith (2010a, b)", "Smith (2010a, b)"),
            ("(see Smith 2010a,b)", "see Smith 2010a,b"),
            ("as Smith ( 2010a ,\n b ) shows", "Smith ( 2010a ,\n b )"),
            ("(e.g. Smith, 2010a, b, p. 4; Lee)", "e.g. Smith, 2010a, b"),
        ],
    )
    def test_suffix_letter_after_a_suffixed_year_links_as_that_year(self, text, marker):
        # "2010a, b" is shorthand for "2010a, 2010b".
        cites, unresolved = find_in_text_citations(text, self.SUFFIXED)
        offset = text.index(marker)
        assert [(c.offset, c.marker, c.entry_index) for c in cites] == [
            (offset, marker, 1),
            (offset, marker, 2),
        ]
        assert unresolved == []

    @pytest.mark.parametrize(
        "text, linked, detail",
        [
            ("(Smith, 2010a, c)", [1], "no entry for Smith 2010c"),
            ("Smith (2010b, c, a)", [1, 2], "no entry for Smith 2010c"),
            ("(Smith, 2011a, b, 2010b)", [2], "no entry for Smith 2011a, 2011b"),
            ("Smith (2009c, 2010a, d)", [1], "no entry for Smith 2009c, 2010d"),
        ],
    )
    def test_suffix_letter_takes_the_year_before_it(self, text, linked, detail):
        cites, unresolved = find_in_text_citations(text, self.SUFFIXED)
        marker = text.strip("()") if text.startswith("(") else text
        assert [(c.marker, c.entry_index) for c in cites] == [(marker, i) for i in linked]
        assert [(u.marker, u.detail) for u in unresolved] == [(marker, detail)]

    @pytest.mark.parametrize(
        "text", ["(Smith, 2010, b)", "Smith (2010, b)", "(Smith, 2010a, bc)", "Smith (2010a, B)"]
    )
    def test_suffix_letter_needs_a_suffixed_year_before_it(self, text):
        # A lone letter after a bare year, a word or a capital is no year.
        assert find_in_text_citations(text, self.SUFFIXED) == ([], [])

    def test_no_markers(self):
        cites, unresolved = find_in_text_citations("Plain text, notably without brackets.", FIVE)
        assert cites == []
        assert unresolved == []

    def test_range_expansion_inclusive(self):
        cites, _ = find_in_text_citations("Methods [2-4] agree.", FIVE)
        assert [c.entry_index for c in cites] == [2, 3, 4]

    def test_descending_range_links_nothing(self):
        cites, unresolved = find_in_text_citations("Methods [5-2] agree.", FIVE)
        assert cites == []
        assert [(u.marker, u.detail) for u in unresolved] == [("[5-2]", "no entry for key(s) 5")]

    def test_repeated_marker_builds_its_detail_once(self):
        # 2 000 copies of "[1-999]" before a 10-entry bibliography: keys 11-999
        # have no entry, so each copy is unresolved with the same 4 874-character
        # detail. One string per distinct marker keeps the index small; one per
        # copy would hold about 10 MiB.
        bib = "".join(f"[{k}] Aa{k}, Bb. {2000 + k}. Title {k}.\n" for k in range(1, 11))
        citing = make_paper("c", body="See [1-999]. " * 2_000 + "\nReferences\n" + bib)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = citeparse.index_citing_paper(citing)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(index.entries) == 10 and len(index.unresolved) == 2_000
        assert {len(u.detail) for u in index.unresolved} == {4_874}
        assert retained <= 1 << 20

    def test_line_break_inside_marker(self):
        broken, _ = find_in_text_citations("See [2,\n3] for proofs.", FIVE)
        straight, _ = find_in_text_citations("See [2,3] for proofs.", FIVE)
        assert [c.entry_index for c in broken] == [c.entry_index for c in straight] == [2, 3]

    def test_unmatched_key_reported(self):
        cites, unresolved = find_in_text_citations("An odd claim [7].", FIVE)
        assert cites == []
        assert len(unresolved) == 1
        assert "7" in unresolved[0].detail

    def test_parenthetical_multi_segment(self):
        entries = _entries(
            "Smith, J. 2010. First paper.",
            "Jones, K. 2012. Second paper.",
        )
        cites, _ = find_in_text_citations("Seen before (Smith, 2010; Jones et al., 2012).", entries)
        assert [c.entry_index for c in cites] == [1, 2]

    def test_author_year_without_entry_is_unresolved(self):
        cites, unresolved = find_in_text_citations("Nguyen (2009) disagrees.", FIVE)
        assert cites == []
        assert len(unresolved) == 1

    def test_two_author_narrative(self):
        entries = _entries(
            "Smith, J., Jones, K. 2011. Joint work.",
            "Smith, J. 2011. Solo work but different.",
        )
        cites, _ = find_in_text_citations("Smith and Jones (2011) report gains.", entries)
        assert [c.entry_index for c in cites] == [1]

    def test_author_year_prefers_first_author(self):
        entries = _entries(
            "Jones, A., Smith, J. 2010. Smith as second author.",
            "Smith, J. 2010. Smith as first author.",
        )
        cites, _ = find_in_text_citations("As shown (Smith, 2010) and by Smith (2010).", entries)
        assert [c.entry_index for c in cites] == [2, 2]

    def test_author_year_falls_back_to_any_author(self):
        entries = _entries(
            "Brown, B. 2010. Unrelated work.",
            "Jones, A., Smith, J. 2010. Smith only as second author.",
        )
        cites, unresolved = find_in_text_citations("As shown (Smith, 2010).", entries)
        assert [c.entry_index for c in cites] == [2]
        assert unresolved == []

    def test_author_year_prefers_the_author_count_of_the_marker(self):
        # One name means one author, two names two, "et al." three or more;
        # the lowest index wins among the entries that fit.
        entries = _entries(
            "Veniso, Q., Kunisusa, D. 2013. Two authors.",
            "Veniso, S., Lee, K., Wong, A. 2013. Three authors.",
            "Veniso, S. 2013. One author.",
            "Veniso, T., Bebe, A., Lee, K., Ono, B. 2013. Four authors.",
        )
        text = (
            "Veniso (2013) and (Veniso, 2013) differ from Veniso et al. (2013), "
            "(Veniso et al., 2013) and Veniso and Kunisusa (2013)."
        )
        cites, unresolved = find_in_text_citations(text, entries)
        assert [c.entry_index for c in cites] == [3, 3, 2, 2, 1]
        assert unresolved == []

    def test_author_count_falls_back_when_no_entry_fits(self):
        entries = _entries(
            "Veniso, Q., Kunisusa, D. 2013. Two authors.",
            "Veniso, S. 2013. One author.",
            "Veniso, T., Bebe, A., Lee, K. 2013. Three authors.",
        )
        text = "Veniso et al. (2012) (Veniso et al., 2013) Veniso and Ono (2013)"
        cites, unresolved = find_in_text_citations(text, entries[:2])
        assert [c.entry_index for c in cites] == [1, 1]  # nothing fits: the lowest index
        assert [u.marker for u in unresolved] == ["Veniso et al. (2012)"]
        cites, _ = find_in_text_citations("Veniso and Bebe (2013)", entries)
        assert [c.entry_index for c in cites] == [3]  # the second name narrows first

    def test_offsets_are_positions_in_text(self):
        text = "Start. See [3] here."
        cites, _ = find_in_text_citations(text, FIVE)
        assert text[cites[0].offset :].startswith("[3]")


class TestCountDirectCitations:
    def test_golden_counts_on_marker_corpus(self):
        target = target_paper()
        for record in citing_papers():
            assert (
                analyze_citations(record, target).count == EXPECTED_TARGET_COUNTS[record.id]
            ), record.id

    def test_cited_absent_from_bibliography(self):
        citing = citing_papers()[0]
        analysis = analyze_citations(citing, aux_paper())
        assert analysis.count == 0
        assert analysis.warnings  # no-match warning
        assert analysis.bibliography_parsed

    def test_unparseable_bibliography_warns(self):
        citing = make_paper("x", body="No references here.", abstract="a")
        analysis = analyze_citations(citing, target_paper())
        assert analysis.count == 0
        assert analysis.bibliography_parsed is False
        assert analysis.warnings

    def test_reference_block_markers_do_not_count(self):
        by_id = {p.id: p for p in citing_papers()}
        assert analyze_citations(by_id["c08"], target_paper()).count == 0

    def test_count_invariant_under_crlf_line_endings(self):
        target = target_paper()
        for record in citing_papers():
            crlf = make_paper(
                record.id,
                title=record.title,
                authors=record.authors,
                abstract=record.abstract,
                body=record.body.replace("\n", "\r\n"),
                references=record.references,
            )
            assert analyze_citations(crlf, target).count == EXPECTED_TARGET_COUNTS[record.id], (
                record.id
            )

    def test_count_invariant_under_text_after_references(self):
        target = target_paper()
        for record in citing_papers():
            if record.references:
                continue
            before = analyze_citations(record, target).count
            extended = make_paper(
                record.id,
                title=record.title,
                authors=record.authors,
                abstract=record.abstract,
                body=record.body + "\nTrailing note. Unrelated words only here.",
            )
            assert analyze_citations(extended, target).count == before, record.id


class TestParsingProperties:
    def test_no_dangling_links_on_random_fixtures(self):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(1, 8)
            entries = _entries(
                *[f"[{i}] Name{i}, X. {2000 + i}. Work number {i}." for i in range(1, n + 1)]
            )
            mentions = [f"[{rng.randint(1, n + 2)}]" for _ in range(rng.randint(0, 6))]
            text = "Filler. " + " more ".join(mentions)
            cites, _ = find_in_text_citations(text, entries)
            valid = {e.index for e in entries}
            assert all(c.entry_index in valid for c in cites)

    def test_counts_sum_to_total_detections(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 6)
            entries = _entries(
                *[f"[{i}] Name{i}, X. {2000 + i}. Work number {i}." for i in range(1, n + 1)]
            )
            keys = [str(rng.randint(1, n)) for _ in range(rng.randint(1, 10))]
            text = "Start " + " mid ".join(f"[{k}]" for k in keys) + " end"
            cites, unresolved = find_in_text_citations(text, entries)
            assert len(cites) == len(keys)
            assert unresolved == []
            per_entry = {}
            for c in cites:
                per_entry[c.entry_index] = per_entry.get(c.entry_index, 0) + 1
            assert sum(per_entry.values()) == len(cites)

    def test_range_markers_expand_to_every_key(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(3, 7)
            entries = _entries(
                *[f"[{i}] Name{i}, X. {2000 + i}. Work number {i}." for i in range(1, n + 1)]
            )
            lo = rng.randint(1, n - 1)
            hi = rng.randint(lo, n)
            cites, _ = find_in_text_citations(f"Ranges [{lo}-{hi}] expand.", entries)
            assert [c.entry_index for c in cites] == list(range(lo, hi + 1))


# Pieces of narrative-marker text: names in both cases, joiners, "et al.",
# hyphen, apostrophe, underscore and digit prefixes, whitespace, and year
# parentheses (with suffix letters, inner whitespace and newlines, out of range).
_NARRATIVE_PIECES = (
    "Smith", "smith", "Lee", "Wong", "O'Neil", "D’Arcy", "Zoë", "Ab", "a", "X",
    "and", "&", "et", "al", "al.", "et al.", ", et al.", "and Lee",
    " ", "  ", "\n", "\t", ",", ".", ";", "-", "'", "’", "_", "3",
    "3-Smith", "'Smith", "_Smith", "2Smith", "Ab-Ab-",
    "(", ")", "[1]", "2010", "(2010)", "( 2011a )", "(\n1999\n)", "(2010b)", "(1850)",
    "(2100)", "(2010) (2011)", "Smith (2010)", "Smith (2010b)", "Lee (2011a)",
    "(2010, 2011a)", "(2010 ,\n2012,2011)", "Wong (2011,2010b)", "(2010,)", "(2010, x)",
    "(2010a, b)", "Smith (2011a,b ,c)", "(2010, b)", "(2010b, a, 2011)", ", b", "c)",
)  # fmt: skip
_narrative_text = st.lists(
    st.sampled_from(_NARRATIVE_PIECES) | st.text(max_size=2), max_size=30
).map("".join)


class TestNarrativeScan:
    @settings(max_examples=400, deadline=None)
    @given(_narrative_text)
    def test_same_markers_as_regex_oracle(self, text):
        assert narrative_markers(text) == oracle_narrative_markers(text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            # A lowercase name still consumes the anchor; no later start is tried.
            ("smith and Lee (2010)", [(0, "smith and Lee (2010)", "smith", "Lee", "2010")]),
            ("x a-Smith (2010)", [(2, "a-Smith (2010)", "a-Smith", None, "2010")]),
            # Starts inside a hyphen or apostrophe run.
            ("see 3-Smith (2010)", [(6, "Smith (2010)", "Smith", None, "2010")]),
            ("'Smith (2010)", [(1, "Smith (2010)", "Smith", None, "2010")]),
            # "_" or a digit right before a letter leaves no word boundary.
            ("_Smith (2010)", []),
            ("2Smith (2010)", []),
            ("Smith and Lee and Wong (2011)", [(10, "Lee and Wong (2011)", "Lee", "Wong", "2011")]),
            ("Smith, et al. (2012)", [(0, "Smith, et al. (2012)", "Smith", None, "2012")]),
            ("Smith ( \n2010b\n )", [(0, "Smith ( \n2010b\n )", "Smith", None, "2010b")]),
            ("Smith (2010) (2011)", [(0, "Smith (2010)", "Smith", None, "2010")]),
        ],
    )
    def test_marker_shapes(self, text, expected):
        assert narrative_markers(text) == expected == oracle_narrative_markers(text)

    def test_lowercase_name_links_nothing(self):
        entries = _entries("Lee, K. 2010. A paper.", "Smith, J. 2010. Another.")
        # A lowercase word before "and" is no name; the capitalized name after it
        # is a one-name marker of its own.
        cites, unresolved = find_in_text_citations("smith and Lee (2010)", entries)
        assert [(c.offset, c.marker, c.entry_index) for c in cites] == [(10, "Lee (2010)", 1)]
        assert unresolved == []
        assert find_in_text_citations("x a-Smith (2010)", entries) == ([], [])

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("as lalyralu and Bebe et al. (2004) show", (16, "Bebe et al. (2004)")),
            ("larone and Veregada (2015)", (11, "Veregada (2015)")),
            ("next, and Bebe (2004)", (10, "Bebe (2004)")),
            ("text & Bebe (2004)", (7, "Bebe (2004)")),
            ("mcBebe and Bebe (2004)", (11, "Bebe (2004)")),
        ],
    )
    def test_word_before_and_leaves_second_name_marker(self, text, expected):
        entries = _entries("Veregada, P. 2015. A study.", "Bebe, A., Lee, K. 2004. A paper.")
        cites, unresolved = find_in_text_citations(text, entries)
        assert [(c.offset, c.marker) for c in cites] == [expected]
        assert unresolved == []

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(["Smith", "Lee", "Wong", "Zoë", "Ab"]), max_size=3),
                st.sampled_from(["2010", "2010a", "2010b", "2011", "2011a", "2012"]),
            ),
            max_size=6,
        ),
        st.randoms(use_true_random=False),
        _narrative_text,
    )
    def test_links_match_a_scan_of_every_entry(self, bib, rng, text):
        entries = [
            parse_bib_entry(f"{', '.join(names)}. {year}. Work.", i)
            for i, (names, year) in enumerate(bib, start=1)
        ]
        rng.shuffle(entries)  # the tie-break is the lowest index, not list order
        expected_cites, expected_unresolved = [], []
        for offset, marker, name1, name2, year in oracle_narrative_markers(text):
            if name2 and not name1[0].isupper():
                # A lowercase word before "and" is no name: the marker is the first
                # one found in the text that follows that word.
                cut = offset + len(name1)
                offset, marker, name1, name2, year = oracle_narrative_markers(text[cut:])[0]
                offset += cut
            if not name1[0].isupper() or (name2 and not name2[0].isupper()):
                continue
            et_al = "et" in marker.replace(",", " ").split()  # a name is capitalized
            missing = []
            for year in oracle_year_list(year):  # each year of a year list
                entry = oracle_link_author_year(
                    entries, name1, name2, int(year[:4]), et_al, year[4:]
                )
                if entry is None:
                    missing.append(year)
                else:
                    expected_cites.append((offset, marker, entry.index))
            if missing:  # one report per marker
                expected_unresolved.append(
                    (offset, marker, f"no entry for {name1} {', '.join(missing)}")
                )
        # Only narrative markers end in ")"; numeric and parenthetical ones do not.
        cites, unresolved = find_in_text_citations(text, entries)
        narrative = [(c.offset, c.marker, c.entry_index) for c in cites if c.marker.endswith(")")]
        assert narrative == sorted(expected_cites, key=lambda c: (c[0], c[2]))
        assert [
            (u.offset, u.marker, u.detail) for u in unresolved if u.marker.endswith(")")
        ] == expected_unresolved


_AUTHOR_PIECES = (
    "A.", "J.", "Smith", "ab", "x", "é", "3", "_", ",", ".", " ", "  ", "\t", "\n",
    "\u2003", "\x1c", "2010", "1999.", "A. B.", "et al.",
)  # fmt: skip


class TestAuthorSegment:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_AUTHOR_PIECES) | st.text(max_size=2), max_size=25).map("".join))
    def test_same_as_resplitting_oracle(self, text):
        year = citeparse._YEAR_RE.search(text)
        assert citeparse._author_segment(text, year) == oracle_author_segment(text)

    def test_initials_are_skipped(self):
        assert citeparse._author_segment("Smith, J. K. Lee. A title", None) == "Smith, J. K. Lee"


# Parsing must run in time linear in the input. Each case times one input and
# one four times as long (best of three calls each): quadratic time would take
# 16 times as long, and the absolute ceiling catches a blow-up on a slow runner.
_CEILING_S = 0.5


def _best_seconds(call, arg):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        call(arg)
        best = min(best, time.perf_counter() - start)
        if best > _CEILING_S:
            break
    return best


def _assert_linear(call, make_input, n):
    small = _best_seconds(call, make_input(n))
    assert small < _CEILING_S
    large = _best_seconds(call, make_input(4 * n))
    assert large < _CEILING_S
    assert large < 8 * small + 0.005, (small, large)


class TestLinearTime:
    @pytest.mark.parametrize("tail", ["", " (2010)", ". (2010)"])
    def test_marker_scan_on_hyphenated_run(self, tail):
        # 24 KB and 96 KB of "Ab-Ab-...": a word boundary after every hyphen.
        _assert_linear(lambda text: find_in_text_citations(text, FIVE), lambda n: "Ab-" * n + tail, 8_000)

    def test_yearless_entry_of_initials(self):
        # 6 KB and 24 KB entries of "A. A. ...": no year, and every period follows an initial.
        _assert_linear(lambda raw: parse_bib_entry(raw, 1), lambda n: "A. " * n, 2_000)

    def test_spaces_after_heading_keyword(self):
        # 4 000 and 16 000 spaces between "References" and the "x" that makes
        # the line no heading.
        _assert_linear(
            segment_references,
            lambda n: "Body.\nReferences" + " " * n + "x\n[1] Smith 2010. A paper.\n",
            4_000,
        )

    def test_parenthetical_whitespace_runs(self):
        # 282 KB of "(Smith", 280 spaces, "x)": no segment matches, and the
        # whitespace before a possible "and" must be read one way only.
        text = ("(Smith" + " " * 280 + "x) ") * 1_000
        assert _best_seconds(lambda t: find_in_text_citations(t, FIVE), text) < 0.25

    def test_blank_lines_after_heading(self):
        _assert_linear(
            segment_references,
            lambda n: "Body.\nReferences\n" + "\n" * n + "[1] Smith 2010. A paper.\n",
            50_000,
        )
