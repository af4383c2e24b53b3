"""Explicit-semantic-analysis indexing and cosine relatedness."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet.relatedness import (
    EsaRelatedness,
    build_esa_index,
    load_documents,
)

from conftest import (
    TableRelatedness,
    bundled,
    check_refusal,
    edited_lines,
    esa_score_oracle,
    esa_vectors_oracle,
    file_reader,
)


class TestBuildIndex:
    def test_raw_counts_direct_example(self):
        index = build_esa_index([("A", "pan pan pot"), ("B", "pot")])
        assert index.vector("pan") == [(0, 2.0)]
        assert index.vector("pot") == [(0, 1.0), (1, 1.0)]
        assert all(type(w) is float for vec in index.vectors.values() for _, w in vec)

    def test_counts_match_independent_recount(self, documents, stopwords, esa_index):
        """Every stored weight re-derived with a separate tokenizer pass."""
        token_re = re.compile(r"[a-z0-9]+")
        for doc_idx, (_, text) in enumerate(documents):
            counts = {}
            for token in token_re.findall(text.lower()):
                if len(token) >= 2 and token not in stopwords:
                    counts[token] = counts.get(token, 0) + 1
            for word, count in counts.items():
                stored = dict(esa_index.vector(word))
                assert stored[doc_idx] == count, (word, doc_idx)

    def test_vectors_sorted_positive_unique(self, esa_index):
        for word in esa_index.vectors:
            vec = esa_index.vector(word)
            indexes = [i for i, _ in vec]
            assert indexes == sorted(set(indexes))
            assert all(w > 0 for _, w in vec)
            assert all(i < len(esa_index.concepts) for i in indexes)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_esa_index([])


    def test_bundled_index_equals_per_word_sort_oracle(self, documents, stopwords, esa_index):
        expected = esa_vectors_oracle(documents, stopwords)
        assert esa_index.vectors == expected
        assert list(esa_index.vectors) == list(expected)  # first-occurrence key order

    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.sampled_from(["A", "B"]),
                              st.lists(st.sampled_from(["pan", "Pot", "of", "x", "stove-top",
                                                        "2nd", "pan,", "  ", "sock"]),
                                       max_size=8).map(" ".join)),
                    min_size=1, max_size=6))
    def test_index_equals_per_word_sort_oracle(self, documents):
        """Counting each document once, in document order, gives the sorted vectors."""
        index = build_esa_index(documents, frozenset({"of"}))
        expected = esa_vectors_oracle(documents, frozenset({"of"}))
        assert index.vectors == expected
        assert list(index.vectors) == list(expected)
        assert index.concepts == [title for title, _ in documents]


class TestLoadDocuments:
    def test_line_without_tab_names_its_line(self, tmp_path):
        # spaces typed in place of the tab would otherwise give an empty document
        path = tmp_path / "corpus.tsv"
        path.write_text("# corpus\nKitchen\tpan pot stove\nLaundry washer dryer\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="bad document record on line 3"):
            load_documents(path)


def dense_cosine(index, a, b):
    va = np.zeros(len(index.concepts))
    vb = np.zeros(len(index.concepts))
    for i, w in index.vector(a):
        va[i] = w
    for i, w in index.vector(b):
        vb[i] = w
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return 0.0
    return float(va @ vb / (na * nb))


class TestRelatedness:
    def test_self_similarity_is_one(self, esa_index, provider):
        for word in esa_index.vectors:
            assert provider.score(word, word) == 1.0

    def test_disjoint_support_is_zero(self):
        index = build_esa_index([("A", "pan"), ("B", "sock")])
        assert EsaRelatedness(index).score("pan", "sock") == 0.0

    def test_unknown_word_scores_zero(self, provider):
        assert provider.score("pan", "zzz") == 0.0

    def test_hundred_random_pairs_match_dense_oracle(self, esa_index, provider):
        rng = np.random.default_rng(6)
        words = sorted(esa_index.vectors)
        for _ in range(100):
            a, b = rng.choice(words, size=2)
            assert provider.score(a, b) == pytest.approx(dense_cosine(esa_index, a, b),
                                                         abs=1e-9)

    def test_symmetry(self, esa_index, provider):
        rng = np.random.default_rng(7)
        words = sorted(esa_index.vectors)
        for _ in range(100):
            a, b = rng.choice(words, size=2)
            assert provider.score(a, b) == provider.score(b, a)

    def test_range_zero_to_one(self, esa_index, provider):
        rng = np.random.default_rng(8)
        words = sorted(esa_index.vectors)
        for _ in range(200):
            a, b = rng.choice(words, size=2)
            assert 0.0 <= provider.score(a, b) <= 1.0

    def test_duplicating_corpus_preserves_scores(self, documents, stopwords):
        base = build_esa_index(documents, stopwords)
        doubled = build_esa_index(documents + documents, stopwords)
        rng = np.random.default_rng(9)
        words = sorted(base.vectors)
        for _ in range(100):
            a, b = rng.choice(words, size=2)
            assert EsaRelatedness(base).score(a, b) == pytest.approx(
                EsaRelatedness(doubled).score(a, b), abs=1e-12)


    def test_every_ordered_pair_equals_rebuilt_vector_oracle(self, esa_index):
        """One provider keeps each term's vector; every score stays ``==`` to a rebuild.

        The vocabulary holds index words, multiword terms whose parts are
        indexed, unknown terms, and spellings that normalize to the same
        term, so a kept vector must be the one of the term as normalized.
        """
        indexed = sorted(esa_index.vectors)[:20]
        vocabulary = indexed + [
            "kitchen", "sink", "cooking", "utensil", "laundry", "basket", "sock", "towel",
            "cooking_utensil", "Cooking Utensil", " cooking utensil ", "kitchen_sink",
            "Kitchen Sink", "paper_towel", "sock_zzz", "zzz_qqq", "zzz", "", "PAN", " pan",
            "pan", "laundry basket", "laundry_basket"]
        provider = EsaRelatedness(esa_index)
        for a in vocabulary:
            for b in vocabulary:
                assert provider.score(a, b) == esa_score_oracle(esa_index, a, b), (a, b)


class TestProviders:
    def test_esa_provider_resolves_compounds(self, provider):
        # cooking_utensil is not a corpus token; its parts carry the signal
        assert provider.score("kitchen", "cooking_utensil") > 0.0
        assert provider.score("cooking_utensil", "kitchen") == \
            provider.score("kitchen", "cooking_utensil")

    def test_esa_provider_self_score(self, provider):
        assert provider.score("pan", "pan") == 1.0

    def test_table_provider_contract(self):
        table = TableRelatedness({("stove", "pan"): 0.8})
        assert table.score("pan", "stove") == 0.8
        assert table.score("stove", "pan") == 0.8
        assert table.score("stove", "stove") == 1.0
        assert table.score("x", "y") == 0.0


@settings(max_examples=200)
@given(data=st.data())
def test_document_reader_refuses_with_a_line_number(data, tmp_path_factory):
    with open(bundled("esa_corpus.tsv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()[:4]
    lines = data.draw(edited_lines(lines, ["Kitchen", "pan pot", "", " ", "#x"]))
    read = file_reader(load_documents, tmp_path_factory.getbasetemp() / "esa_corpus.tsv")
    check_refusal(read, lines, ValueError, r"^bad document record on line (\d+): ")
