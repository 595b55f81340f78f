import random

import pytest

from citegauge.citeparse import (
    BibliographyEntry,
    analyze_citations,
    count_direct_citations,
    find_in_text_citations,
    match_entry_to_paper,
    parse_bib_entry,
    paper_bibliography,
    segment_references,
)

from conftest import make_paper
from fixture_corpus import (
    EXPECTED_TARGET_COUNTS,
    aux_paper,
    citing_papers,
    target_paper,
)


class TestSegmentReferences:
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

    def test_year_outside_plausible_range_ignored(self):
        entry = parse_bib_entry("Doe, J. 1542. An old tract.", 1)
        assert entry.year is None

    def test_index_is_kept(self):
        assert parse_bib_entry("anything", 9).index == 9


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

    def test_no_markers(self):
        cites, unresolved = find_in_text_citations("Plain text, notably without brackets.", FIVE)
        assert cites == []
        assert unresolved == []

    def test_range_expansion_inclusive(self):
        cites, _ = find_in_text_citations("Methods [2-4] agree.", FIVE)
        assert [c.entry_index for c in cites] == [2, 3, 4]

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

    def test_offsets_are_positions_in_text(self):
        text = "Start. See [3] here."
        cites, _ = find_in_text_citations(text, FIVE)
        assert text[cites[0].offset :].startswith("[3]")


class TestCountDirectCitations:
    def test_golden_counts_on_marker_corpus(self):
        target = target_paper()
        for record in citing_papers():
            assert (
                count_direct_citations(record, target) == EXPECTED_TARGET_COUNTS[record.id]
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
        assert count_direct_citations(by_id["c08"], target_paper()) == 0

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
            assert count_direct_citations(crlf, target) == EXPECTED_TARGET_COUNTS[record.id], (
                record.id
            )

    def test_count_invariant_under_text_after_references(self):
        target = target_paper()
        for record in citing_papers():
            if record.references:
                continue
            before = count_direct_citations(record, target)
            extended = make_paper(
                record.id,
                title=record.title,
                authors=record.authors,
                abstract=record.abstract,
                body=record.body + "\nTrailing note. Unrelated words only here.",
            )
            assert count_direct_citations(extended, target) == before, record.id


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
