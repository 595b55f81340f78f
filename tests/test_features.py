import logging
import math
import multiprocessing
import os
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from citegauge import citeparse, features as features_mod
from citegauge.citeparse import analyze_citations
from citegauge.corpus import (
    CitationPair,
    filter_valid_pairs,
    has_abstract,
    load_corpus,
    load_pairs,
)
from citegauge.errors import ConfigurationError, DataError
from citegauge.textnorm import fold, normalize_author, surname_key
from citegauge.features import (
    FeatureVector,
    author_overlap,
    compute_feature_matrix,
    cosine_similarity,
    fit_corpus_tfidf,
    fit_tfidf,
    tokenize,
    vectorize,
)

from conftest import change_file, make_corpus, make_paper
from oracles import oracle_author_jaccard, oracle_fold, oracle_tfidf_vector
from fixture_corpus import EXPECTED_TARGET_COUNTS, all_papers, PAIR_ROWS, TARGET_ID


class TestTokenize:
    def test_words_only(self):
        assert tokenize("Citation counts, counted!") == ["citation", "counts", "counted"]

    def test_empty(self):
        assert tokenize("") == []

    def test_short_tokens_and_numbers_dropped(self):
        assert tokenize("TF-IDF in 2015") == ["tf", "idf", "in"]

    def test_no_stopword_removal(self):
        assert "the" in tokenize("the model")


class TestFold:
    def test_examples(self):
        assert [fold(s) for s in ("Smith", "Zoë", "MUÑOZ", "ﬁne")] == ["smith", "zoe", "munoz", "fine"]

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=12) | st.text(st.characters(max_codepoint=127), max_size=12))
    def test_same_as_nfkd_oracle(self, text):
        assert fold(text) == oracle_fold(text)


class TestNormalizeAuthor:
    @pytest.mark.parametrize(
        "name, label, key",
        [
            ("Ludwig van Beethoven", "van beethoven l", "beethoven"),  # particle kept
            ("Jan de la Cruz", "de la cruz j", "cruz"),  # particle run kept
            ("Smith, J.", "smith j", "smith"),
            ("J. Smith", "smith j", "smith"),
            ("Smith J", "smith j", "smith"),  # trailing initial
            ("Plato", "plato", "plato"),  # no given name
            (" . ", "", ""),
        ],
    )
    def test_examples(self, name, label, key):
        assert (normalize_author(name), surname_key(name)) == (label, key)


class TestFitTfidf:
    def test_term_in_every_document(self):
        idf = fit_tfidf([f"alpha word{i}" for i in range(10)])
        assert idf["alpha"] == pytest.approx(1.0)

    def test_rare_term(self):
        idf = fit_tfidf(["unique term here", "other words", "more words"])
        # ln(4/2) + 1
        assert idf["unique"] == pytest.approx(1.6931471805599454)

    def test_identical_abstracts_identical_vectors(self):
        text = "same words in both"
        idf = fit_tfidf([text, text])
        assert vectorize(idf, text) == vectorize(idf, text)

    def test_requires_two_documents(self):
        with pytest.raises(ConfigurationError):
            fit_tfidf(["only one"])

    def test_vocabulary_sorted_and_order_independent(self):
        docs = ["zebra apple", "mango zebra", "apple pear"]
        forward = fit_tfidf(docs)
        backward = fit_tfidf(list(reversed(docs)))
        assert forward == backward
        assert list(forward) == list(backward) == sorted(forward)


class TestVectorize:
    DOCS = ["cat cat dog", "cat fish", "bird bird"]

    def test_empty_text(self):
        assert vectorize(fit_tfidf(self.DOCS), "") == {}

    def test_out_of_vocabulary_only(self):
        assert vectorize(fit_tfidf(self.DOCS), "zebra quagga") == {}

    def test_against_oracle(self):
        idf = fit_tfidf(self.DOCS)
        for text in self.DOCS + ["cat cat dog", "dog dog dog fish"]:
            got = vectorize(idf, text)
            want = oracle_tfidf_vector(self.DOCS, text)
            assert got.keys() == want.keys()
            for term in want:
                assert got[term] == pytest.approx(want[term], rel=1e-12)

    def test_frozen_hand_values(self):
        # df(cat)=2, df(dog)=1, N=3
        vec = vectorize(fit_tfidf(self.DOCS), "cat cat dog")
        assert vec["cat"] == pytest.approx(2 * (math.log(4 / 3) + 1))
        assert vec["dog"] == pytest.approx(1 * (math.log(4 / 2) + 1))
        assert set(vec) == {"cat", "dog"}


class TestCorpusTfidf:
    def test_kept_counts_give_each_abstracts_vector(self):
        extra = [make_paper("blank", abstract=" "), make_paper("Ü", abstract="Über über dog")]
        corpus = make_corpus(*all_papers(), *extra)
        keep = {"c01", TARGET_ID, "blank", "Ü", "ghost"}
        idf, counts = fit_corpus_tfidf(corpus, keep)
        abstracts = [r.abstract for r in corpus.values() if has_abstract(r)]
        assert idf == fit_tfidf(abstracts)
        assert set(counts) == {"c01", TARGET_ID, "Ü"}
        vocabulary = {term: term for term in idf}
        for paper_id in sorted(keep):
            kept = counts.get(paper_id, {})
            assert all(vocabulary[term] is term for term in kept)  # one string per term
            vector = features_mod._pop_vector(idf, counts, paper_id)
            abstract = corpus[paper_id].abstract if paper_id in corpus else None
            assert list(vector.items()) == list(vectorize(idf, abstract or "").items())
            assert paper_id not in counts  # dropped once its vector is built


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = {0: 1.0, 3: 2.5}
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity({0: 1.0}, {1: 2.0}) == 0.0

    def test_hand_value(self):
        # (1,2,0) . (2,1,1) = 4; norms sqrt(5), sqrt(6)
        assert cosine_similarity({0: 1, 1: 2}, {0: 2, 1: 1, 2: 1}) == pytest.approx(
            4 / math.sqrt(30), abs=1e-12
        )

    def test_zero_vector(self):
        assert cosine_similarity({}, {0: 1.0}) == 0.0
        assert cosine_similarity({0: 0.0, 1: 0.0}, {0: 0.0, 1: 0.0}) == 0.0

    def test_symmetry_and_scale_invariance(self):
        rng = random.Random(11)
        for _ in range(100):
            a = {i: rng.uniform(0, 5) for i in rng.sample(range(10), rng.randint(1, 6))}
            b = {i: rng.uniform(0, 5) for i in rng.sample(range(10), rng.randint(1, 6))}
            lam = rng.uniform(0.01, 100)
            ab = cosine_similarity(a, b)
            assert ab == pytest.approx(cosine_similarity(b, a), abs=1e-12)
            scaled = {k: lam * v for k, v in a.items()}
            assert cosine_similarity(scaled, b) == pytest.approx(ab, abs=1e-9)
            assert 0.0 <= ab <= 1.0


class TestAuthorOverlap:
    def test_identical_lists(self):
        authors = ["John Smith", "Anna Jones"]
        assert author_overlap(authors, list(authors)) == 1.0

    def test_disjoint_lists(self):
        assert author_overlap(["John Smith"], ["Ken Lee"]) == 0.0

    def test_jaccard_hand_value(self):
        a = ["John Smith", "Anna Jones"]
        b = ["J. Smith", "Ken Lee", "Sora Park"]
        assert author_overlap(a, b) == pytest.approx(0.25)

    def test_symmetric_reorder_duplicates(self):
        a = ["John Smith", "Anna Jones", "john smith"]
        b = ["Anna Jones", "Sora Park"]
        assert author_overlap(a, b) == author_overlap(b, a)
        assert author_overlap(a, b) == author_overlap(["Anna Jones", "John Smith"], b)

    def test_comma_and_initial_forms_match(self):
        assert author_overlap(["Smith, John"], ["J. Smith"]) == 1.0

    def test_diacritics_folded(self):
        assert author_overlap(["José Muñoz"], ["Jose Munoz"]) == 1.0

    def test_empty_sides(self):
        assert author_overlap([], ["A B"]) == 0.0
        assert author_overlap([], []) == 0.0

    def test_boolean_mode(self):
        a = ["John Smith", "Anna Jones"]
        b = ["J. Smith", "Ken Lee", "Sora Park"]
        assert author_overlap(a, b, mode="boolean") == 1.0
        assert author_overlap(["X Y"], ["Z W"], mode="boolean") == 0.0

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            author_overlap(["A B"], ["A B"], mode="dice")


def _maximal_pair_corpus():
    shared_abstract = "Overlapping abstract text about adaptive convolution restoration."
    cited = make_paper(
        "cited",
        title="Adaptive Convolution Networks",
        authors=["Elena Marchetti", "Tomas Novak"],
        abstract=shared_abstract,
        body="irrelevant",
    )
    citing = make_paper(
        "citing",
        title="A follow-up",
        authors=["Elena Marchetti", "Tomas Novak"],
        abstract=shared_abstract,
        body=(
            "We build on [1] twice: first [1] here.\n\n"
            "References\n"
            "[1] Marchetti, E., Novak, T. 2019. Adaptive Convolution Networks.\n"
        ),
    )
    return make_corpus(cited, citing)


class TestExtractFeatures:
    def test_maximal_synthetic_pair(self):
        corpus = _maximal_pair_corpus()
        [(_, vec)], _ = compute_feature_matrix(corpus, [CitationPair("citing", "cited", 1)])
        assert vec.f1_direct_count == 2
        assert vec.f4_author_overlap == 1.0
        assert vec.f9_abstract_sim == pytest.approx(1.0, abs=1e-12)

    def test_minimal_pair(self):
        cited = make_paper(
            "cited", title="Entirely Different Topic", authors=["Q W"],
            abstract="unrelated vocabulary entirely", body="x",
        )
        citing = make_paper(
            "citing", title="Another", authors=["Z Y"],
            abstract="separate disjoint wording", body="No references here.",
        )
        corpus = make_corpus(cited, citing)
        [(_, vec)], _ = compute_feature_matrix(corpus, [CitationPair("citing", "cited", 0)])
        assert vec.f1_direct_count == 0
        assert vec.f4_author_overlap == 0.0
        assert vec.f9_abstract_sim == 0.0

    @pytest.mark.parametrize("pairs", [[], [CitationPair("citing", "cited", 1)]])
    def test_unknown_f4_mode_rejected_before_any_work(self, monkeypatch, pairs):
        fitted = []
        monkeypatch.setattr(features_mod, "fit_corpus_tfidf", lambda *args: fitted.append(args))
        with pytest.raises(ConfigurationError, match="'dice'"):
            compute_feature_matrix(_maximal_pair_corpus(), pairs, f4_mode="dice")
        assert fitted == []

    def test_self_similarity_is_one_with_in_vocab_term(self):
        rng = random.Random(3)
        words = ["alpha", "beta", "gamma", "delta"]
        docs = [" ".join(rng.choices(words, k=5)) for _ in range(6)]
        idf = fit_tfidf(docs)
        for doc in docs:
            vec = vectorize(idf, doc)
            assert cosine_similarity(vec, vec) == pytest.approx(1.0, abs=1e-12)


class TestFeatureMatrixOracle:
    def test_fixture_corpus_matches_oracle(self):
        papers = {p.id: p for p in all_papers()}
        corpus = make_corpus(*papers.values())
        pairs = [
            CitationPair(c, t, label)
            for c, t, label in PAIR_ROWS
            if papers[c].abstract and papers[t].abstract
        ]
        rows, _ = compute_feature_matrix(corpus, pairs)
        assert len(rows) == len(pairs)

        abstracts = [p.abstract for p in papers.values() if p.abstract]
        for pair, vec in rows:
            if pair.cited_id == TARGET_ID:
                assert vec.f1_direct_count == EXPECTED_TARGET_COUNTS[pair.citing_id]
            citing, cited = papers[pair.citing_id], papers[pair.cited_id]
            assert vec.f4_author_overlap == pytest.approx(
                oracle_author_jaccard(citing.authors, cited.authors)
            )
            want_f9 = cosine_similarity(
                oracle_tfidf_vector(abstracts, citing.abstract),
                oracle_tfidf_vector(abstracts, cited.abstract),
            )
            assert vec.f9_abstract_sim == pytest.approx(want_f9, abs=1e-12)
            assert 0.0 <= vec.f9_abstract_sim <= 1.0
            assert 0.0 <= vec.f4_author_overlap <= 1.0

    @pytest.mark.usefixtures("two_cpus")
    def test_reproducible_across_runs_and_threads(self, fork_calls):
        corpus = make_corpus(*all_papers())
        # c09's bibliography does not parse, and "ghost" is no record
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        pairs.insert(3, CitationPair("c01", "ghost", 0))
        serial = compute_feature_matrix(corpus, pairs, workers=1)
        assert fork_calls == []
        assert compute_feature_matrix(corpus, pairs, workers=1) == serial
        assert compute_feature_matrix(corpus, pairs, workers=2) == serial
        assert fork_calls == ["fork"]
        rows, warnings = serial
        assert len(rows) == len(pairs) - 1
        kinds = {"warning", "unresolved-markers", "extraction-error"}
        assert {w["type"] for w in warnings} == kinds
        assert any("bibliography" in w["detail"] for w in warnings if w["citing_id"] == "c09")

    def test_missing_record_collects_warning(self):
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair("c01", "ghost", 0), CitationPair("c01", TARGET_ID, 1)]
        rows, warnings = compute_feature_matrix(corpus, pairs)
        assert len(rows) == 1
        assert any(w["type"] == "extraction-error" for w in warnings)


    def test_problems_logged_once_counted_by_reason(self, caplog):
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        pairs.append(CitationPair("c01", "ghost", 0))
        with caplog.at_level(logging.DEBUG, logger="citegauge"):
            _, warnings = compute_feature_matrix(corpus, pairs)

        loud = [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert [r.name for r in loud] == ["citegauge.features"]
        message = loud[0].getMessage()
        assert f"(of {len(pairs)})" in message
        for reason, count in [
            ("missing record", 1),
            ("no matching bibliography entry", 2),  # c01 and c04 -> p-aux
            ("unparseable bibliography", 2),  # c09's two pairs
            ("unresolved markers", 1),  # c02 -> p-target
        ]:
            assert f"{reason}: {count}" in message

    def test_each_warning_logged_at_debug_in_order(self, caplog):
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        pairs.append(CitationPair("c01", "ghost", 0))
        with caplog.at_level(logging.DEBUG, logger="citegauge"):
            _, warnings = compute_feature_matrix(corpus, pairs)

        debug = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert {w["type"] for w in warnings} == {"warning", "unresolved-markers", "extraction-error"}
        assert [r.args for r in debug] == warnings
        for record, w in zip(debug, warnings):
            assert record.name == "citegauge.features"
            assert record.getMessage() == (
                f"{w['citing_id']} -> {w['cited_id']} {w['type']}: {w['detail']}"
            )

    def test_no_problem_no_warning_log(self, caplog):
        corpus = make_corpus(*all_papers())
        with caplog.at_level(logging.DEBUG, logger="citegauge"):
            rows, warnings = compute_feature_matrix(corpus, [CitationPair("c01", TARGET_ID, 1)])
        assert len(rows) == 1 and warnings == []
        assert caplog.records == []


def _per_pair_reference(corpus, pairs):
    """Rows and warnings built pair by pair, each pair parsing its citing paper
    afresh and vectorizing both abstracts."""
    idf = fit_tfidf([r.abstract for r in corpus.values() if has_abstract(r)])
    rows, warnings = [], []
    for pair in pairs:
        ids = {"citing_id": pair.citing_id, "cited_id": pair.cited_id}
        citing, cited = corpus.get(pair.citing_id), corpus.get(pair.cited_id)
        if citing is None or cited is None:
            warnings.append({**ids, "type": "extraction-error", "detail": "missing record"})
            continue
        analysis = analyze_citations(citing, cited)
        warnings += [{**ids, "type": "warning", "detail": w} for w in analysis.warnings]
        if analysis.unresolved:
            detail = f"{len(analysis.unresolved)} marker(s) could not be linked"
            warnings.append({**ids, "type": "unresolved-markers", "detail": detail})
        f4 = author_overlap(citing.authors, cited.authors)
        f9 = cosine_similarity(
            vectorize(idf, citing.abstract or ""), vectorize(idf, cited.abstract or "")
        )
        rows.append((pair, FeatureVector(analysis.count, f4, f9)))
    return rows, warnings


_FIXTURE_CORPUS = make_corpus(*all_papers())
_PAIR_IDS = sorted(_FIXTURE_CORPUS) + ["ghost"]


class TestStreamedFeatureMatrix:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_PAIR_IDS), st.sampled_from(_PAIR_IDS), st.integers(0, 1)),
            max_size=25,
        )
    )
    def test_equals_per_pair_analysis_in_input_order(self, rows):
        pairs = [CitationPair(c, t, label) for c, t, label in rows]
        assert compute_feature_matrix(_FIXTURE_CORPUS, pairs) == _per_pair_reference(
            _FIXTURE_CORPUS, pairs
        )

    def test_each_citing_paper_parsed_once(self, monkeypatch):
        parsed = []
        original = citeparse.paper_bibliography

        def counting(record):
            parsed.append(record.id)
            return original(record)

        monkeypatch.setattr(citeparse, "paper_bibliography", counting)
        forward = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        pairs = forward + forward[::-1]
        rows, _ = compute_feature_matrix(_FIXTURE_CORPUS, pairs)
        assert len(rows) == len(pairs)
        assert sorted(parsed) == sorted({p.citing_id for p in pairs})

    def test_each_paper_keyed_and_vectorized_once(self, monkeypatch):
        # Each abstract is tokenized once, by the tf-idf fit, and each paired
        # paper's vector is built once, from the term counts the fit kept; c01
        # is both a citing and a cited paper.
        keyed, tokenized, built = [], [], []
        cited_keys, tokenize_ = citeparse.cited_keys, features_mod.tokenize
        pop_vector = features_mod._pop_vector

        def counting_keys(record):
            keyed.append(record.id)
            return cited_keys(record)

        def counting_tokenize(text):
            tokenized.append(text)
            return tokenize_(text)

        def counting_pop_vector(idf, counts, paper_id):
            built.append(paper_id)
            return pop_vector(idf, counts, paper_id)

        monkeypatch.setattr(citeparse, "cited_keys", counting_keys)
        monkeypatch.setattr(features_mod, "tokenize", counting_tokenize)
        monkeypatch.setattr(features_mod, "_pop_vector", counting_pop_vector)
        forward = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        pairs = forward + forward[::-1] + [CitationPair("c02", "c01", 0)]
        cited = {p.cited_id for p in pairs}
        abstracts = [r.abstract for r in _FIXTURE_CORPUS.values() if has_abstract(r)]
        for _ in range(2):  # per call
            for calls in (keyed, tokenized, built):
                calls.clear()
            rows, _ = compute_feature_matrix(_FIXTURE_CORPUS, pairs)
            assert len(rows) == len(pairs)
            assert sorted(keyed) == sorted(cited)
            assert sorted(tokenized) == sorted(abstracts)
            assert sorted(built) == sorted(cited | {p.citing_id for p in pairs})


def _loaded(corpus_dir, pairs_file):
    """A loaded corpus and its valid pairs."""
    corpus = load_corpus(corpus_dir)
    pairs, stats, _ = load_pairs(pairs_file, corpus)
    return corpus, filter_valid_pairs(pairs, corpus, stats)


class TestBodiesFromFiles:
    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_citing_file_read_once_after_loading(self, demo_dataset, file_reads, workers):
        corpus_dir, pairs_file = demo_dataset
        corpus, valid = _loaded(corpus_dir, pairs_file)
        loaded = file_reads()
        assert loaded == sorted(path.name for path in corpus_dir.glob("*.json"))
        compute_feature_matrix(corpus, valid, workers=workers)
        # In first-pair order; the cited-only p-target and p-aux are not read.
        citing = dict.fromkeys(pair.citing_id for pair in valid)
        assert file_reads()[len(loaded) :] == [f"{paper_id}.json" for paper_id in citing]

    @pytest.mark.usefixtures("two_cpus")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("how", ["deleted", "truncated", "rewritten"])
    def test_citing_file_changed_since_loading_is_a_data_error(self, demo_dataset, how, workers):
        corpus_dir, pairs_file = demo_dataset
        corpus, valid = _loaded(corpus_dir, pairs_file)
        path = corpus_dir / "c03.json"
        change_file(path, how)
        with pytest.raises(DataError, match=f"changed since it was loaded: {re.escape(str(path))}"):
            compute_feature_matrix(corpus, valid, workers=workers)

    def test_rows_and_warnings_equal_those_of_records_in_memory(self, demo_dataset):
        corpus, valid = _loaded(*demo_dataset)
        in_memory = make_corpus(*map(corpus.with_body, corpus))
        assert all(record.body for record in in_memory.values())
        rows, warnings = compute_feature_matrix(corpus, valid)
        assert (rows, warnings) == compute_feature_matrix(in_memory, valid)
        assert len(rows) == len(valid) and warnings


class TestForkedMetadataFeatures:
    """At ``workers`` >= 2, f4 and f9 come from a forked child while the parent
    counts f1; every outcome must match the inline run, and no child outlives
    the call."""

    @staticmethod
    def _one_abstract_corpus():
        return make_corpus(
            make_paper("a", authors=["A B"], abstract="only abstract here", body="text"),
            make_paper("b", authors=["C D"], body="text"),
        )

    @pytest.mark.usefixtures("two_cpus")
    def test_child_error_is_raised_with_its_type_and_message(self, fork_calls):
        corpus, pairs = self._one_abstract_corpus(), [CitationPair("a", "b", 0)]
        raised = []
        for workers in (1, 2):
            with pytest.raises(ConfigurationError, match="at least 2 documents") as info:
                compute_feature_matrix(corpus, pairs, workers=workers)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert fork_calls == ["fork"]
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("two_cpus")
    def test_child_exit_without_a_result_raises(self, monkeypatch):
        monkeypatch.setattr(features_mod, "metadata_features", lambda *args: os._exit(3))
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        with pytest.raises(RuntimeError, match="without sending a result"):
            compute_feature_matrix(corpus, pairs, workers=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("two_cpus")
    def test_parent_error_stops_the_child(self, monkeypatch):
        def fail(*args, **kwargs):
            raise KeyError("parent side failed")

        monkeypatch.setattr(features_mod, "analyze_citations", fail)
        monkeypatch.setattr(features_mod, "metadata_features", lambda *args: time.sleep(60))
        pairs = [CitationPair("citing", "cited", 1)]
        started = time.perf_counter()
        with pytest.raises(KeyError, match="parent side failed"):
            compute_feature_matrix(_maximal_pair_corpus(), pairs, workers=2)
        assert time.perf_counter() - started < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("two_cpus")
    def test_success_leaves_no_child(self, fork_calls):
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        serial = compute_feature_matrix(corpus, pairs)
        assert compute_feature_matrix(corpus, pairs, workers=2) == serial
        assert fork_calls == ["fork"]
        assert multiprocessing.active_children() == []

    def test_result_larger_than_the_pipe_buffer(self):
        # the parent reads before it joins, so a child blocked on a full pipe is drained
        big = ["x" * 1000] * 1000
        assert features_mod._alongside(lambda: None, lambda: big) == big
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_forks_nothing(self, monkeypatch, fork_calls):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        corpus = make_corpus(*all_papers())
        pairs = [CitationPair(c, t, label) for c, t, label in PAIR_ROWS]
        serial = compute_feature_matrix(corpus, pairs)
        assert compute_feature_matrix(corpus, pairs, workers=4) == serial
        assert fork_calls == []

    @pytest.mark.usefixtures("two_cpus")
    def test_unknown_f4_mode_rejected_before_any_fork(self, fork_calls):
        with pytest.raises(ConfigurationError, match="'dice'"):
            compute_feature_matrix(
                _maximal_pair_corpus(), [CitationPair("citing", "cited", 1)], "dice", workers=2
            )
        assert fork_calls == []

    @pytest.mark.parametrize(
        "workers, tasks, cpus, want",
        [(1, 10, {0, 1}, 1), (2, 10, {0, 1}, 2), (4, 10, {0, 1}, 2), (4, 3, {0, 1, 2, 3}, 3),
         (2, 10, {0}, 1)],
    )
    def test_usable_workers(self, monkeypatch, workers, tasks, cpus, want):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        assert features_mod.usable_workers(workers, tasks) == want
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # the count is unknown: one CPU
        assert features_mod.usable_workers(workers, tasks) == 1
