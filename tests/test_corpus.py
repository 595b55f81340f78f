import json
import random
from dataclasses import asdict, replace

import pytest

from citegauge.corpus import (
    CitationPair,
    Corpus,
    LoadIssue,
    filter_valid_pairs,
    has_abstract,
    load_corpus,
    load_pairs,
    paper_from_dict,
)
from citegauge.errors import DataError

from conftest import change_file, make_corpus, make_paper


def _doc(paper_id, abstract="An abstract.", **extra):
    doc = {
        "id": paper_id,
        "title": f"Title {paper_id}",
        "authors": ["Ada Byron"],
        "abstract": abstract,
        "body": "Body text.",
        "references": None,
    }
    doc.update(extra)
    return doc


def _write_docs(directory, docs):
    directory.mkdir(exist_ok=True)
    for i, doc in enumerate(docs):
        (directory / f"doc{i}.json").write_text(json.dumps(doc), encoding="utf-8")


class TestLoadCorpus:
    def test_three_valid_docs(self, tmp_path):
        _write_docs(tmp_path / "c", [_doc("a"), _doc("b"), _doc("c")])
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus) == 3
        assert set(corpus) == {"a", "b", "c"}
        assert corpus.load_report == []

    def test_empty_directory(self, tmp_path):
        (tmp_path / "c").mkdir()
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus) == 0
        assert corpus.load_report == []

    def test_malformed_doc_is_reported_and_skipped(self, tmp_path):
        _write_docs(tmp_path / "c", [_doc("a"), _doc("b")])
        (tmp_path / "c" / "zz.json").write_text("{oops", encoding="utf-8")
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus) == 2
        assert len(corpus.load_report) == 1
        assert corpus.load_report[0].source == "zz.json"

    def test_byte_order_mark_is_ignored(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "a.json").write_text("\ufeff" + json.dumps(_doc("a")), encoding="utf-8")
        corpus = load_corpus(tmp_path / "c")
        assert list(corpus) == ["a"]
        assert corpus.load_report == []

    def test_bytes_are_decoded_as_utf8_before_parsing(self, tmp_path):
        # json.loads on bytes would read a UTF-8-encoded lone surrogate as
        # "\ud800"; UTF-8 text holds no surrogates, so the document is unreadable.
        d = tmp_path / "c"
        d.mkdir()
        raw = json.dumps(_doc("a", title="X")).encode("utf-8")
        (d / "a.json").write_bytes(raw.replace(b'"X"', b'"\xed\xa0\x80"'))
        (d / "b.json").write_bytes(b"\xef\xbb\xbf" + json.dumps(_doc("b")).encode("utf-8"))
        corpus = load_corpus(d)
        assert list(corpus) == ["b"]
        assert [i.source for i in corpus.load_report] == ["a.json"]
        assert corpus.load_report[0].message.startswith("unreadable document:")

    def test_missing_directory_is_fatal(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "nope")

    def test_file_path_is_fatal(self, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps(_doc("a")), encoding="utf-8")
        with pytest.raises(DataError, match="corpus directory not readable"):
            load_corpus(tmp_path / "a.json")

    def test_which_files_load_and_in_what_order(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        names = ["b.json", "a.json", "Z.json", "é.json", "10.json", "9.json", ".h.json", "a b.json"]
        for name in names:
            (d / name).write_text(json.dumps(_doc(name)), encoding="utf-8")
        (d / "B.JSON").write_text("{not read", encoding="utf-8")
        (d / "notes.txt").write_text("{not read", encoding="utf-8")
        (d / "d.json").mkdir()
        corpus = load_corpus(d)
        # The order of sorted Path objects, as the names sort as strings.
        by_path = [path.name for path in sorted(d.glob("*.json")) if path.name != "d.json"]
        assert list(corpus) == by_path == sorted(names)
        assert [i.source for i in corpus.load_report] == ["d.json"]
        assert corpus.load_report[0].message.startswith("unreadable document:")

    def test_duplicate_id_is_fatal_and_names_both_files(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "one.json").write_text(json.dumps(_doc("same")), encoding="utf-8")
        (d / "two.json").write_text(json.dumps(_doc("same")), encoding="utf-8")
        with pytest.raises(DataError, match="one.json.*two.json"):
            load_corpus(d)

    def test_schema_violations_are_per_file_issues(self, tmp_path):
        bad = [
            _doc("", abstract="x"),                      # empty id
            _doc("ok1", authors=["x", 3]),               # non-string author
            _doc("ok2", body=None),                      # body not a string
        ]
        _write_docs(tmp_path / "c", bad)
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus) == 0
        assert len(corpus.load_report) == 3

    @pytest.mark.parametrize("paper_id", ["P\t1", "P\n1", "P\r1", "P\x1c1", "P\u20281"])
    def test_id_no_pairs_row_can_name_is_reported(self, tmp_path, paper_id):
        # A pairs row cannot hold a tab or a line break inside one cell.
        _write_docs(tmp_path / "c", [_doc(paper_id), _doc("P2")])
        corpus = load_corpus(tmp_path / "c")
        assert list(corpus) == ["P2"]
        assert [i.source for i in corpus.load_report] == ["doc0.json"]


class TestCorpusMapping:
    def test_load_corpus_gives_an_id_keyed_mapping_in_file_order(self, tmp_path):
        _write_docs(tmp_path / "c", [_doc("b"), _doc("a"), _doc("c")])
        corpus = load_corpus(tmp_path / "c")
        assert len(corpus) == 3
        assert "a" in corpus and "zz" not in corpus
        assert corpus["a"].id == "a"
        assert corpus.get("a") is corpus["a"]
        assert corpus.get("zz") is None
        assert list(corpus) == ["b", "a", "c"]
        assert [record.id for record in corpus.values()] == ["b", "a", "c"]

    def test_each_corpus_has_its_own_load_report(self):
        first, second = Corpus(), Corpus()
        first.load_report.append(LoadIssue("x.json", "bad"))
        assert second.load_report == []

    def test_papers_and_load_report_can_be_given(self):
        record = make_paper("a")
        issues = [LoadIssue("x.json", "bad")]
        corpus = Corpus({"a": record}, load_report=issues)
        assert corpus["a"] is record
        assert corpus.load_report == issues


class TestBodies:
    def test_loaded_records_hold_no_body(self, demo_dataset):
        corpus = load_corpus(demo_dataset[0])
        assert len(corpus) == 12
        assert all(record.body is None for record in corpus.values())

    def test_with_body_reads_the_file_again(self, tmp_path, file_reads):
        _write_docs(tmp_path / "c", [_doc("a", body="Body of a."), _doc("b")])
        corpus = load_corpus(tmp_path / "c")
        assert file_reads() == ["doc0.json", "doc1.json"]
        record = corpus.with_body("a")
        assert file_reads()[2:] == ["doc0.json"]
        assert record == replace(corpus["a"], body="Body of a.")
        assert corpus["a"].body is None  # the corpus still holds no body

    def test_record_built_in_memory_is_returned_as_it_is(self):
        record = make_paper("a", body="Body text.")
        assert make_corpus(record).with_body("a") is record

    @pytest.mark.parametrize(
        "how, detail",
        [
            ("deleted", "No such file"),
            ("truncated", "(char "),  # a JSON error and where it is
            ("touched", "its size or modification time differs"),
            ("rewritten", "its metadata differs"),
        ],
    )
    def test_file_changed_since_loading_is_a_data_error_naming_it(self, tmp_path, how, detail):
        _write_docs(tmp_path / "c", [_doc("a", body="A body of some length.")])
        corpus = load_corpus(tmp_path / "c")
        path = tmp_path / "c" / "doc0.json"
        change_file(path, how)
        with pytest.raises(DataError) as raised:
            corpus.with_body("a")
        assert str(raised.value).startswith(f"corpus file changed since it was loaded: {path}: ")
        assert detail in str(raised.value)


class TestPaperNormalization:
    def test_blank_abstract_becomes_absent(self):
        record = paper_from_dict(_doc("a", abstract="   \n "))
        assert record.abstract is None

    def test_blank_authors_dropped(self):
        record = paper_from_dict(_doc("a", authors=[" Ada Byron ", "  ", ""]))
        assert record.authors == ["Ada Byron"]

    def test_id_is_stripped(self):
        assert paper_from_dict(_doc(" \u00a0P1\t ")).id == "P1"

    def test_empty_references_become_absent(self):
        record = paper_from_dict(_doc("a", references=[]))
        assert record.references is None

    def test_round_trip_identity(self, tmp_path):
        rng = random.Random(7)
        titles = ["Ünïcode Títle", "plain", "tabs\tand\nnewlines"]
        for i in range(20):
            record = paper_from_dict(
                _doc(
                    f"id{i}",
                    title=rng.choice(titles),
                    abstract=rng.choice(["Some abstract.", None]),
                    references=rng.choice([None, ["[1] A ref. 2001."]]),
                )
            )
            path = tmp_path / "roundtrip.json"
            path.write_text(json.dumps(asdict(record)), encoding="utf-8")
            reloaded = paper_from_dict(json.loads(path.read_text(encoding="utf-8")))
            assert reloaded == record
            assert paper_from_dict(asdict(record)) == record


def _pair_corpus():
    return make_corpus(
        make_paper("A", abstract="alpha"),
        make_paper("B", abstract="beta"),
        make_paper("C", abstract=None),
        make_paper("D", abstract="delta"),
    )


class TestLoadPairs:
    def test_single_row(self, tmp_path):
        f = tmp_path / "p.tsv"
        for bom in ("", "\ufeff"):  # a leading byte-order mark is not part of the first id
            f.write_text(f"{bom}A\tB\t1\n", encoding="utf-8")
            pairs, stats, issues = load_pairs(f, _pair_corpus())
            assert pairs == [CitationPair("A", "B", 1)]
            assert stats.total_pairs == 1
            assert stats.influential_count == 1
            assert stats.incidental_count == 0
            assert issues == []

    def test_unknown_id_dropped_with_report(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tZZ\t0\n", encoding="utf-8")
        pairs, stats, issues = load_pairs(f, _pair_corpus())
        assert pairs == []
        assert stats.total_pairs == 0
        assert len(issues) == 1
        assert "ZZ" in issues[0].message

    def test_pairs_of_a_padded_id_are_kept(self, tmp_path):
        _write_docs(tmp_path / "c", [_doc(" P1 "), _doc("P2")])
        f = tmp_path / "p.tsv"
        f.write_text("P1\tP2\t1\n P2 \t P1 \t0\n", encoding="utf-8")
        corpus = load_corpus(tmp_path / "c")
        pairs, _, issues = load_pairs(f, corpus)
        assert list(corpus) == ["P1", "P2"]
        assert pairs == [CitationPair("P1", "P2", 1), CitationPair("P2", "P1", 0)]
        assert issues == []

    def test_header_row_detected(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("citing_id\tcited_id\tlabel\nA\tB\t0\n", encoding="utf-8")
        pairs, _, issues = load_pairs(f, _pair_corpus())
        assert len(pairs) == 1
        assert issues == []

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\t1\nA-only-col\nA\tB\t7\nA\tA\t0\n", encoding="utf-8")
        pairs, stats, issues = load_pairs(f, _pair_corpus())
        assert len(pairs) == 1
        assert stats.total_pairs == 1
        assert [i.source for i in issues] == ["line 2", "line 3", "line 4"]

    @pytest.mark.parametrize("label", ["0_1", "+1", "01", "١", "-0", "1.0", "00"])
    def test_label_other_than_exact_0_or_1_is_reported(self, tmp_path, label):
        f = tmp_path / "p.tsv"
        f.write_text(f"A\tD\t0\nA\tB\t{label}\nB\tA\t 1 \n", encoding="utf-8")
        pairs, stats, issues = load_pairs(f, _pair_corpus())
        assert pairs == [CitationPair("A", "D", 0), CitationPair("B", "A", 1)]
        assert (stats.total_pairs, stats.influential_count) == (2, 1)
        assert [(i.source, i.message) for i in issues] == [
            ("line 2", f"label outside {{0,1}}: {label!r}")
        ]

    def test_malformed_label_on_first_row_is_not_a_header(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\t+1\nA\tD\t0\n", encoding="utf-8")
        pairs, _, issues = load_pairs(f, _pair_corpus())
        assert pairs == [CitationPair("A", "D", 0)]
        assert [i.source for i in issues] == ["line 1"]

    def test_word_label_on_first_row_of_corpus_ids_is_not_a_header(self, tmp_path):
        # A header is only a row whose ids are not both in the corpus.
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\tyes\nA\tD\t0\n", encoding="utf-8")
        pairs, _, issues = load_pairs(f, _pair_corpus())
        assert pairs == [CitationPair("A", "D", 0)]
        assert [(i.source, i.message) for i in issues] == [("line 1", "label outside {0,1}: 'yes'")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_pairs(tmp_path / "nope.tsv", _pair_corpus())

    def test_non_utf8_file_is_a_data_error(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_bytes("A\tB\t1\nA\tD\t0\n".encode("utf-16"))
        with pytest.raises(DataError, match="UTF-8"):
            load_pairs(f, _pair_corpus())

    def test_exact_repeat_kept_once_and_reported(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\t1\nA\tD\t0\nA\tB\t1\nA\tB\t1\nB\tA\t1\n", encoding="utf-8")
        pairs, stats, issues = load_pairs(f, _pair_corpus())
        assert pairs == [CitationPair("A", "B", 1), CitationPair("A", "D", 0), CitationPair("B", "A", 1)]
        assert (stats.total_pairs, stats.influential_count) == (3, 2)
        assert [i.source for i in issues] == ["line 3", "line 4"]
        assert all("duplicate" in i.message and "line 1" in i.message for i in issues)

    def test_conflicting_labels_drop_every_row_of_the_key(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\t1\nA\tD\t0\nA\tB\t0\nBAD\nA\tB\t1\n", encoding="utf-8")
        pairs, stats, issues = load_pairs(f, _pair_corpus())
        assert pairs == [CitationPair("A", "D", 0)]
        assert (stats.total_pairs, stats.influential_count) == (1, 0)
        assert [i.source for i in issues] == ["line 1", "line 3", "line 4", "line 5"]
        conflicts = [i for i in issues if i.source != "line 4"]
        assert all("conflicting labels" in i.message for i in conflicts)

    def test_stats_arithmetic(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tB\t1\nB\tA\t0\nA\tD\t0\nD\tB\t1\n", encoding="utf-8")
        _, stats, _ = load_pairs(f, _pair_corpus())
        assert stats.incidental_count + stats.influential_count == stats.total_pairs
        assert stats.total_pairs == 4


class TestFilterValidPairs:
    def test_pair_missing_abstract_excluded(self):
        corpus = _pair_corpus()
        pairs = [CitationPair("A", "C", 1), CitationPair("A", "B", 0)]
        assert filter_valid_pairs(pairs, corpus) == [CitationPair("A", "B", 0)]

    def test_all_abstracts_present_is_identity(self):
        corpus = _pair_corpus()
        pairs = [CitationPair("A", "B", 1), CitationPair("B", "D", 0)]
        assert filter_valid_pairs(pairs, corpus) == pairs

    def test_idempotent(self):
        corpus = _pair_corpus()
        pairs = [
            CitationPair("A", "C", 1),
            CitationPair("A", "B", 0),
            CitationPair("C", "D", 1),
        ]
        once = filter_valid_pairs(pairs, corpus)
        assert filter_valid_pairs(once, corpus) == once

    def test_whitespace_only_abstract_is_absent(self):
        blank = make_paper("W", abstract=" \t\n ")
        assert not has_abstract(blank)
        corpus = make_corpus(make_paper("A", abstract="alpha"), blank)
        assert filter_valid_pairs([CitationPair("A", "W", 1)], corpus) == []

    def test_updates_stats(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("A\tC\t1\nA\tB\t1\nB\tD\t0\n", encoding="utf-8")
        corpus = _pair_corpus()
        pairs, stats, _ = load_pairs(f, corpus)
        kept = filter_valid_pairs(pairs, corpus, stats)
        assert len(kept) == 2
        assert stats.filtered_pairs == 2
        assert stats.positive_after_filter == 1
        assert stats.total_pairs == 3  # raw counts untouched


class TestDemoDataset:
    def test_counts(self, demo_dataset):
        corpus_dir, pairs_file = demo_dataset
        corpus = load_corpus(corpus_dir)
        assert len(corpus) == 12
        pairs, stats, issues = load_pairs(pairs_file, corpus)
        assert issues == []
        filter_valid_pairs(pairs, corpus, stats)
        from fixture_corpus import EXPECTED_STATS

        assert stats.total_pairs == EXPECTED_STATS["total_pairs"]
        assert stats.incidental_count == EXPECTED_STATS["incidental_count"]
        assert stats.influential_count == EXPECTED_STATS["influential_count"]
        assert stats.filtered_pairs == EXPECTED_STATS["filtered_pairs"]
        assert stats.positive_after_filter == EXPECTED_STATS["positive_after_filter"]
