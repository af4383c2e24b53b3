"""Explicit-semantic-analysis word relatedness over a document corpus.

Each indexed word is represented as a sparse vector of its raw counts
per document; relatedness is the cosine similarity of two such vectors.
The index counts each document's tokens once, in document order, so each
vector comes out sorted by document.  A term's vector depends on the term
alone, so a provider builds it once and keeps it for the provider's life.
Any object with a ``score(word_a, word_b) -> float in [0, 1]`` method can
stand in as a relatedness provider.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .lexicon import normalize_lemma, tokenize


@dataclass
class EsaIndex:
    """Sparse word-by-document matrix.

    ``vectors`` maps each word to a list of (concept index, weight) pairs
    sorted by concept index with strictly positive weights.  Immutable
    after construction; queries are safe to run concurrently.
    """

    concepts: list[str]
    vectors: dict[str, list[tuple[int, float]]]

    def vector(self, word: str) -> list[tuple[int, float]]:
        return self.vectors.get(word, [])


def build_esa_index(documents, stopwords=frozenset()) -> EsaIndex:
    """Index a sequence of (title, text) documents.

    Texts are tokenized with the shared lexicon tokenization rule.  An
    entry is the count of the word in the document, as a float.
    """
    documents = list(documents)
    if not documents:
        raise ValueError("at least one document is required")

    concepts = [title for title, _ in documents]
    vectors: dict[str, list[tuple[int, float]]] = {}
    # documents come in index order, so appending keeps each vector sorted
    for doc_idx, (_, text) in enumerate(documents):
        for word, count in Counter(tokenize(text, stopwords)).items():
            entries = vectors.get(word)
            if entries is None:
                vectors[word] = [(doc_idx, float(count))]
            else:
                entries.append((doc_idx, float(count)))
    return EsaIndex(concepts=concepts, vectors=vectors)


class EsaRelatedness:
    """Relatedness provider backed by an :class:`EsaIndex`.

    A term scores by the cosine of its index vector; an unknown term
    scores 0 against every term.

    Multiword terms (underscore compounds) that are not indexed directly
    are scored through the sum of their constituent token vectors, so
    lexicon lemmas like ``cooking_utensil`` still relate to plain words.

    A term's vector depends on the term alone (Gabrilovich & Markovitch
    2007), so the provider builds each term's vector, its lookup dict and
    its sum of squares on the term's first score and keeps them for its
    own life, which is one command.
    """

    def __init__(self, index: EsaIndex):
        self.index = index
        self._terms: dict[str, tuple[list, dict, float]] = {}

    def score(self, word_a: str, word_b: str) -> float:
        terms = self._terms
        a, _, ssq_a = terms.get(word_a) or self._term(word_a)
        b, b_dict, ssq_b = terms.get(word_b) or self._term(word_b)
        if not a or not b:
            return 0.0
        dot = 0.0
        for idx, w in a:
            w2 = b_dict.get(idx)
            if w2 is not None:
                dot += w * w2
        if ssq_a == 0.0 or ssq_b == 0.0 or dot == 0.0:
            return 0.0
        # sqrt of the product keeps cos(v, v) at exactly 1.0
        return min(1.0, dot / math.sqrt(ssq_a * ssq_b))

    def _term(self, text):
        """Build and keep the (vector, its dict, sum of squares) of a term as given."""
        vector = self._term_vector(normalize_lemma(text))
        entry = self._terms[text] = (vector, dict(vector), sum(w * w for _, w in vector))
        return entry

    def _term_vector(self, term):
        direct = self.index.vector(term)
        if direct or "_" not in term:
            return direct
        combined: dict[int, float] = {}
        for token in term.split("_"):
            for idx, w in self.index.vector(token):
                combined[idx] = combined.get(idx, 0.0) + w
        return sorted(combined.items())


def load_documents(path) -> list[tuple[str, str]]:
    """Read a ``title<TAB>text`` corpus file, one document per line.

    A line without a tab raises ``ValueError`` with its line number.
    """
    docs = []
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            title, tab, text = line.partition("\t")
            if not tab:
                raise ValueError(f"bad document record on line {line_no}: {raw!r}")
            docs.append((title, text))
    return docs
