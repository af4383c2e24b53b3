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
list, ``NaN``, ``Infinity``, ``-1``) makes its line malformed.
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
        for edge in self.edges:
            self.by_start.setdefault((edge.start, edge.relation), []).append(edge)
            current = self.max_weight.get(edge.relation, 0.0)
            self.max_weight[edge.relation] = max(current, edge.weight)

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
    merged keeping the largest weight.
    """
    merged: dict[tuple[str, RelationType, str], ConceptEdge] = {}
    skipped = 0
    lines = source.splitlines() if isinstance(source, str) else source
    for raw in lines:
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parsed = _parse_line(line)
        if parsed is _SKIP:
            skipped += 1
            continue
        if parsed is None:
            continue
        key = (parsed.start, parsed.relation, parsed.end)
        existing = merged.get(key)
        if existing is None or parsed.weight > existing.weight:
            merged[key] = parsed
    if skipped:
        log.warning("ingest: skipped %d malformed or invalid lines", skipped)
    store = EdgeStore(merged.values())
    store.skipped_lines = skipped
    return store


_SKIP = object()  # sentinel: line malformed or violates an edge invariant


def _parse_line(line):
    cols = line.split("\t")
    if len(cols) == 5:
        _, rel_uri, start_uri, end_uri, metadata = cols
        relation = _parse_relation(rel_uri)
        if relation is None:
            return None
        start = _parse_concept_uri(start_uri)
        end = _parse_concept_uri(end_uri)
        if start is _SKIP or end is _SKIP:
            return _SKIP
        if start is None or end is None:
            return None
        try:
            meta = json.loads(metadata) if metadata.strip() else {}
            weight = float(meta.get("weight", 1.0))
        except (ValueError, TypeError, AttributeError, OverflowError):
            return _SKIP
    elif len(cols) == 4:
        rel, start, end, weight_text = cols
        relation = _parse_relation(rel)
        if relation is None:
            return None
        start = normalize_lemma(start)
        end = normalize_lemma(end)
        try:
            weight = float(weight_text)
        except ValueError:
            return _SKIP
    else:
        return _SKIP
    if not math.isfinite(weight) or weight < 0 or not start or not end:
        return _SKIP
    if relation is RelationType.AtLocation and start == end:
        return _SKIP
    return ConceptEdge(start=start, relation=relation, end=end, weight=weight)


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


def filter_multiword(store: EdgeStore, lexicon) -> EdgeStore:
    """Drop edges whose end term is a free multiword phrase.

    An end term counts as multiword when an underscore separates two
    alphabetic tokens; terms that exist verbatim as lexicon lemmas (e.g.
    ``paper_towel``) name single concepts and are kept.  Start terms are
    never filtered.  Idempotent.
    """
    kept = [e for e in store.edges if not _is_free_phrase(e.end, lexicon)]
    out = EdgeStore(kept)
    out.skipped_lines = store.skipped_lines
    return out


def _is_free_phrase(term, lexicon):
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
