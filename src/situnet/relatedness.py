"""Explicit-semantic-analysis word relatedness over a document corpus.

Each indexed word is represented as a sparse vector of its raw counts
per document; relatedness is the cosine similarity of two such vectors.
Any object with a ``score(word_a, word_b) -> float in [0, 1]`` method can
stand in as a relatedness provider, which is how the table-driven test
providers plug into the same pipeline slots.
"""

from __future__ import annotations

import math
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

    def words(self):
        return self.vectors.keys()


def build_esa_index(documents, stopwords=frozenset()) -> EsaIndex:
    """Index a sequence of (title, text) documents.

    Texts are tokenized with the shared lexicon tokenization rule.  An
    entry is the count of the word in the document, as a float.
    """
    documents = list(documents)
    if not documents:
        raise ValueError("at least one document is required")

    concepts = [title for title, _ in documents]
    counts: dict[str, dict[int, int]] = {}
    for doc_idx, (_, text) in enumerate(documents):
        for token in tokenize(text, stopwords):
            counts.setdefault(token, {}).setdefault(doc_idx, 0)
            counts[token][doc_idx] += 1

    vectors = {word: [(idx, float(count)) for idx, count in sorted(per_doc.items())]
               for word, per_doc in counts.items()}
    return EsaIndex(concepts=concepts, vectors=vectors)


def _sparse_cosine(a, b) -> float:
    if not a or not b:
        return 0.0
    dot = 0.0
    b_dict = dict(b)
    for idx, w in a:
        w2 = b_dict.get(idx)
        if w2 is not None:
            dot += w * w2
    ssq_a = sum(w * w for _, w in a)
    ssq_b = sum(w * w for _, w in b)
    if ssq_a == 0.0 or ssq_b == 0.0 or dot == 0.0:
        return 0.0
    # sqrt of the product keeps cos(v, v) at exactly 1.0
    return min(1.0, dot / math.sqrt(ssq_a * ssq_b))


class EsaRelatedness:
    """Relatedness provider backed by an :class:`EsaIndex`.

    A term scores by the cosine of its index vector; an unknown term
    scores 0 against every term.

    Multiword terms (underscore compounds) that are not indexed directly
    are scored through the sum of their constituent token vectors, so
    lexicon lemmas like ``cooking_utensil`` still relate to plain words.
    """

    def __init__(self, index: EsaIndex):
        self.index = index

    def score(self, word_a: str, word_b: str) -> float:
        return _sparse_cosine(self._term_vector(word_a), self._term_vector(word_b))

    def _term_vector(self, term):
        term = normalize_lemma(term)
        direct = self.index.vector(term)
        if direct or "_" not in term:
            return direct
        combined: dict[int, float] = {}
        for token in term.split("_"):
            for idx, w in self.index.vector(token):
                combined[idx] = combined.get(idx, 0.0) + w
        return sorted(combined.items())


class TableRelatedness:
    """Fixed-table provider for tests and controlled experiments.

    The table is symmetrized on construction; unknown pairs score 0 and
    identical known words score 1.
    """

    def __init__(self, table: dict[tuple[str, str], float], default: float = 0.0):
        self.table = {}
        for (a, b), value in table.items():
            a, b = normalize_lemma(a), normalize_lemma(b)
            self.table[(a, b)] = value
            self.table[(b, a)] = value
        self.default = default
        self._known = {a for a, _ in self.table}

    def score(self, word_a: str, word_b: str) -> float:
        a, b = normalize_lemma(word_a), normalize_lemma(word_b)
        if a == b:
            return 1.0 if a in self._known else self.default
        return self.table.get((a, b), self.default)


class ConstantRelatedness:
    """Provider returning one fixed score for distinct words."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def score(self, word_a: str, word_b: str) -> float:
        if normalize_lemma(word_a) == normalize_lemma(word_b):
            return 1.0
        return self.value


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
