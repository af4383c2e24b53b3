"""Ingestion and indexing of a ConceptNet-style relation dump.

Two line layouts are accepted, auto-detected per line by column count:

* the public CSV dump layout,
  ``assertion_uri<TAB>relation_uri<TAB>start_uri<TAB>end_uri<TAB>metadata``
  where metadata is a JSON object that may carry ``weight``;
* a simplified fixture layout, ``relation<TAB>start<TAB>end<TAB>weight``.

Only the four relation types used by the network survive ingestion; all
other labels are dropped silently, as are URI-layout lines whose terms are
not English (``/c/en/``).  Malformed lines are skipped and counted, never
fatal; a weight that does not read as a finite number >= 0 (``null``, a
list, ``NaN``, ``Infinity``, ``-1``) makes its line malformed.  A relation
whose kept weights are all 0 has no strength to scale, so its edges are
dropped and counted with the skipped lines, as if its lines were absent.

A dump names few distinct relations, concepts and weights on many lines,
so :func:`ingest_edges` parses each distinct column text once per stream
and makes an edge only for the line that wins its merge.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .lexicon import normalize_lemma

log = logging.getLogger(__name__)


class RelationType(Enum):
    IsA = "IsA"
    AtLocation = "AtLocation"
    HasProperty = "HasProperty"
    UsedFor = "UsedFor"

    # members are singletons that compare by identity, so the identity hash
    # agrees with equality, and store keys skip Enum's Python-level __hash__
    __hash__ = object.__hash__


ATTRIBUTE_RELATIONS = (RelationType.UsedFor, RelationType.HasProperty, RelationType.AtLocation)

_RELATION_LOOKUP = {r.value.lower(): r for r in RelationType}


class DegenerateScaleError(ValueError):
    """Weight normalization is impossible: the relation's max weight is 0."""


@dataclass(frozen=True)
class ConceptEdge:
    """A typed, weighted relation between two normalized concept terms."""

    start: str
    relation: RelationType
    end: str
    weight: float = 1.0


class EdgeStore:
    """Edge multiset indexed by start term and relation.

    Iteration order everywhere is first-occurrence order from the source
    stream, so identical streams produce identical stores.  Stores are
    immutable after construction.
    """

    def __init__(self, edges):
        self.edges: list[ConceptEdge] = list(edges)
        self.by_start: dict[tuple[str, RelationType], list[ConceptEdge]] = {}
        self.max_weight: dict[RelationType, float] = {}
        self.skipped_lines = 0
        by_start, max_weight = self.by_start, self.max_weight
        for edge in self.edges:
            relation = edge.relation
            bucket = by_start.get((edge.start, relation))
            if bucket is None:
                by_start[edge.start, relation] = [edge]
            else:
                bucket.append(edge)
            top = max_weight.get(relation)
            if top is None or edge.weight > top:
                max_weight[relation] = max(0.0, edge.weight)

    def __len__(self):
        return len(self.edges)

    def starting_at(self, term: str, relation: RelationType) -> list[ConceptEdge]:
        return self.by_start.get((normalize_lemma(term), relation), [])

    def has_edge(self, start: str, relation: RelationType, end: str) -> bool:
        end = normalize_lemma(end)
        return any(e.end == end for e in self.starting_at(start, relation))


def ingest_edges(source) -> EdgeStore:
    """Build an :class:`EdgeStore` from a delimited text stream.

    ``source`` is an iterable of lines or a whole string.  Keeps edges
    whose relation is one of the four known types and, in the URI layout,
    whose terms are English (the fixture layout carries no language tag).
    Terms are normalized to lowercase underscore form with URI prefixes
    stripped.  Duplicate assertions of the same (start, relation, end) are
    merged keeping the largest weight, at the position of their first line.

    Each distinct relation label, concept URI or term, and metadata or
    weight text is parsed once per stream, and an edge is made only for
    the line that wins its merge.  Every edge of a relation whose merged
    weights are all 0 is dropped and counted with the skipped lines: such
    a relation has no strength to scale.
    """
    merged: dict[tuple[str, RelationType, str], float] = {}
    skipped = 0
    parse = _LineParser()
    lines = source.splitlines() if isinstance(source, str) else source
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parsed = parse(line)
        if parsed is _SKIP:
            skipped += 1
            continue
        if parsed is None:
            continue
        key, weight = parsed
        existing = merged.get(key)
        if existing is None or weight > existing:
            merged[key] = weight
    if skipped:
        log.warning("ingest: skipped %d malformed or invalid lines", skipped)
    return _store([ConceptEdge(start, relation, end, weight)
                   for (start, relation, end), weight in merged.items()], skipped)


def _store(edges, skipped) -> EdgeStore:
    """The store of ``edges`` less the edges of relations whose weights are all 0.

    Those edges add to the ``skipped`` count, which becomes the store's
    ``skipped_lines``.
    """
    store = EdgeStore(edges)
    weightless = [relation for relation, top in store.max_weight.items() if top <= 0]
    if weightless:
        kept = [edge for edge in store.edges if edge.relation not in weightless]
        log.warning("edges: dropped %d edges of %s, a relation whose weights are all 0",
                    len(store) - len(kept), ", ".join(r.value for r in weightless))
        skipped += len(store) - len(kept)
        store = EdgeStore(kept)
    store.skipped_lines = skipped
    return store


_SKIP = object()  # sentinel: line malformed or violates an edge invariant


class _Memo(dict):
    """text -> ``parse(text)``, each distinct text parsed on its first lookup."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text):
        value = self[text] = self.parse(text)
        return value


class _LineParser:
    """Parses the lines of one stream, each distinct column text once.

    A line parses to ``((start, relation, end), weight)``, to ``None``
    when it is dropped silently, or to :data:`_SKIP` when it is malformed.
    """

    def __init__(self):
        self.relations = _Memo(_parse_relation)
        self.concepts = _Memo(_parse_concept_uri)
        self.terms = _Memo(normalize_lemma)
        self.metadata = _Memo(_metadata_weight)
        self.weights = _Memo(_weight)

    def __call__(self, line):
        cols = line.split("\t")
        if len(cols) == 5:
            relation = self.relations[cols[1]]
            if relation is None:
                return None
            start = self.concepts[cols[2]]
            end = self.concepts[cols[3]]
            if start is _SKIP or end is _SKIP:
                return _SKIP
            if start is None or end is None:
                return None
            weight = self.metadata[cols[4]]
        elif len(cols) == 4:
            relation = self.relations[cols[0]]
            if relation is None:
                return None
            start = self.terms[cols[1]]
            end = self.terms[cols[2]]
            weight = self.weights[cols[3]]
        else:
            return _SKIP
        if weight is _SKIP or not start or not end:
            return _SKIP
        if relation is RelationType.AtLocation and start == end:
            return _SKIP
        return (start, relation, end), weight


def _parse_relation(text):
    name = text.strip()
    if name.startswith("/r/"):
        name = name[3:]
    return _RELATION_LOOKUP.get(name.strip("/").lower())


def _parse_concept_uri(uri):
    parts = uri.strip().strip("/").split("/")
    # layout: c/<lang>/<term>[/<pos>[/<sense>]]
    if len(parts) < 3 or parts[0] != "c":
        return _SKIP
    if parts[1] != "en":
        return None
    return normalize_lemma(parts[2])


def _metadata_weight(metadata):
    """The ``weight`` of a JSON metadata object, 1.0 when absent, else :data:`_SKIP`."""
    try:
        meta = json.loads(metadata) if metadata.strip() else {}
        return _checked(float(meta.get("weight", 1.0)))
    except (ValueError, TypeError, AttributeError, OverflowError):
        return _SKIP


def _weight(text):
    try:
        return _checked(float(text))
    except ValueError:
        return _SKIP


def _checked(weight):
    return weight if math.isfinite(weight) and weight >= 0 else _SKIP


def filter_multiword(store: EdgeStore, lexicon) -> EdgeStore:
    """Drop edges whose end term is a free multiword phrase.

    An end term counts as multiword when an underscore separates two
    alphabetic tokens; terms that exist verbatim as lexicon lemmas (e.g.
    ``paper_towel``) name single concepts and are kept.  Start terms are
    never filtered.  Idempotent.
    """
    kept = [e for e in store.edges if not _is_free_phrase(e.end, lexicon)]
    return _store(kept, store.skipped_lines)


def _is_free_phrase(term, lexicon):
    if "_" not in term:
        return False
    tokens = term.split("_")
    multi = any(a.isalpha() and b.isalpha() for a, b in zip(tokens, tokens[1:]))
    return multi and not lexicon.has_lemma(term)


def normalized_weight(edge: ConceptEdge, store: EdgeStore) -> float:
    """Edge weight scaled into [0, 1] by its relation's max observed weight."""
    scale = store.max_weight.get(edge.relation, 0.0)
    if scale <= 0:
        raise DegenerateScaleError(f"max weight for {edge.relation.value} is 0")
    return edge.weight / scale


def load_edges(path) -> EdgeStore:
    with open(path, encoding="utf-8") as handle:
        return ingest_edges(handle)
