"""Situated concept graph construction.

The graph grows in three stages, mirroring the generation pipeline:

1. :func:`add_isa_paths` walks every hypernym path from the disambiguated
   seed senses to the hierarchy roots, adding IsA edges (child -> parent,
   strength 1).
2. :func:`compress` prunes very general and redundant taxonomy nodes with
   three rules applied to a fixpoint.
3. :func:`attach_relations` / :func:`attach_locations_two_hop` add
   UsedFor, HasProperty, and AtLocation edges from the relation store,
   keeping only edges whose sense disambiguation agrees with the node's
   sense, and only locations contained in the current environment.

:data:`KIND_FOR_RELATION`, the kind of node each relation's edges end at,
is the one relation table; the model's vocabulary is read from it.

All stages are pure: they return new graphs and never mutate their
inputs, so a finished graph can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dag import CycleError, reachable, topological_order
from .disambiguation import SenseAssignment, disambiguate_edge
from .edges import ATTRIBUTE_RELATIONS, EdgeStore, RelationType, normalized_weight
from .lexicon import CorpusFrequencies, LexiconIndex, normalize_lemma

DEFAULT_BLOCKLIST = frozenset({"entity", "abstraction", "physical_entity"})

KIND_FOR_RELATION = {
    RelationType.IsA: "concept",
    RelationType.UsedFor: "affordance",
    RelationType.HasProperty: "property",
    RelationType.AtLocation: "location",
}


@dataclass(frozen=True)
class ConceptNode:
    """A graph node: a concept with a sense, or a bare attribute term."""

    id: str
    kind: str  # a value of KIND_FOR_RELATION
    term: str
    synset: str | None = None
    is_seed: bool = False


@dataclass(frozen=True)
class RelationEdge:
    src: str
    relation: RelationType
    dst: str
    strength: float


@dataclass
class ConceptGraph:
    """Nodes plus typed weighted edges; the IsA subgraph is a DAG."""

    nodes: dict[str, ConceptNode] = field(default_factory=dict)
    edges: list[RelationEdge] = field(default_factory=list)
    environment: str = ""
    # sense-gate drops of attach_relations; copy() carries the count to later graphs
    dropped_edges: int = field(default=0, compare=False)

    def copy(self) -> "ConceptGraph":
        return ConceptGraph(dict(self.nodes), list(self.edges), self.environment,
                            self.dropped_edges)

    def node_ids(self, kind: str | None = None) -> list[str]:
        if kind is None:
            return sorted(self.nodes)
        return sorted(i for i, n in self.nodes.items() if n.kind == kind)

    def seeds(self) -> list[ConceptNode]:
        return [self.nodes[i] for i in sorted(self.nodes) if self.nodes[i].is_seed]

    def edges_by_relation(self, relation: RelationType) -> list[RelationEdge]:
        return [e for e in self.edges if e.relation is relation]

    def isa_parents(self) -> dict[str, list[str]]:
        """Map node id -> hypernym-side neighbor ids (IsA edges only)."""
        out: dict[str, list[str]] = {i: [] for i in self.nodes}
        for e in self.edges:
            if e.relation is RelationType.IsA:
                out[e.src].append(e.dst)
        return out

    def incoming(self) -> dict[str, list[RelationEdge]]:
        out: dict[str, list[RelationEdge]] = {i: [] for i in self.nodes}
        for e in self.edges:
            out[e.dst].append(e)
        return out


# ---------------------------------------------------------------------------
# Stage 1: IsA extraction
# ---------------------------------------------------------------------------


def add_isa_paths(assignment: SenseAssignment, lexicon: LexiconIndex) -> ConceptGraph:
    """Grow the IsA skeleton from the assigned seed senses.

    Every synset on every hypernym path from a seed sense to a root
    becomes a concept node named by its first lemma; shared ancestors are
    merged by synset id.  When two distinct synsets share a first lemma,
    both node ids get the synset id as a suffix to stay unambiguous.
    """
    if not assignment.choices:
        raise ValueError("assignment is empty")

    seed_synsets = {}
    closure: set[str] = set()
    for word, (sid, _) in assignment.choices.items():
        seed_synsets[sid] = word
        closure.update(lexicon.ancestors(sid))

    by_term: dict[str, list[str]] = {}
    for sid in sorted(closure):
        by_term.setdefault(lexicon.get(sid).name, []).append(sid)

    node_id_of: dict[str, str] = {}
    nodes: dict[str, ConceptNode] = {}
    for term, sids in sorted(by_term.items()):
        for sid in sids:
            node_id = term if len(sids) == 1 else f"{term}_{sid}"
            node_id_of[sid] = node_id
            nodes[node_id] = ConceptNode(
                id=node_id, kind="concept", term=term, synset=sid,
                is_seed=sid in seed_synsets,
            )

    edges = []
    seen = set()
    for sid in sorted(closure):
        child = node_id_of[sid]
        for parent_sid in lexicon.get(sid).hypernyms:
            if parent_sid not in node_id_of:
                continue
            key = (child, node_id_of[parent_sid])
            if key not in seen:
                seen.add(key)
                edges.append(RelationEdge(child, RelationType.IsA, node_id_of[parent_sid], 1.0))

    graph = ConceptGraph(nodes=nodes, edges=edges)
    graph.nodes = {i: graph.nodes[i] for i in sorted(graph.nodes)}
    return graph


# ---------------------------------------------------------------------------
# Stage 2: compression
# ---------------------------------------------------------------------------


def compress(graph: ConceptGraph, freq: CorpusFrequencies, min_children: int = 2,
             ic_threshold: float = 5.0, blocklist=DEFAULT_BLOCKLIST) -> ConceptGraph:
    """Prune the IsA taxonomy with three rules, repeated to a fixpoint.

    1. Delete non-seed concepts that are too general: information content
       below ``ic_threshold`` or term in ``blocklist``.  Children
       reconnect to the deleted node's parents.
    2. Bottom-up, delete non-seed non-root parents with fewer than
       ``min_children`` children, reconnecting the same way.
    3. Delete a non-seed child whose name appears, underscore-token-wise,
       inside its parent's name; the child's children transfer to that
       parent.

    Seeds are never deleted.  Concept nodes left unreachable from every
    seed (possible after rule 3's targeted reconnection) are dropped at
    the end so the no-orphans invariant survives.  The operation is
    idempotent.
    """
    state = _CompressState(graph)
    changed = True
    while changed:
        changed = False
        changed |= state.apply_rule1(freq, ic_threshold, blocklist)
        changed |= state.apply_rule2(min_children)
        changed |= state.apply_rule3()
        # dropping an orphan can thin a surviving parent below min_children,
        # so the cleanup participates in the fixpoint
        changed |= state.drop_unreachable()
    return state.to_graph(graph)


class _CompressState:
    """Mutable IsA adjacency used only inside :func:`compress`."""

    def __init__(self, graph: ConceptGraph):
        self.nodes = dict(graph.nodes)
        self.parents: dict[str, set[str]] = {i: set() for i in self.nodes}
        self.children: dict[str, set[str]] = {i: set() for i in self.nodes}
        self.other_edges = []
        for e in graph.edges:
            if e.relation is RelationType.IsA and self.nodes[e.src].kind == "concept" \
                    and self.nodes[e.dst].kind == "concept":
                self.parents[e.src].add(e.dst)
                self.children[e.dst].add(e.src)
            else:
                self.other_edges.append(e)

    def concept_ids(self):
        return sorted(i for i, n in self.nodes.items() if n.kind == "concept")

    def delete(self, node_id, reconnect_to=None):
        """Remove a node, wiring its children to ``reconnect_to`` (default:
        all of its parents)."""
        targets = self.parents[node_id] if reconnect_to is None else set(reconnect_to)
        for child in self.children[node_id]:
            self.parents[child].discard(node_id)
            for parent in targets:
                if parent != child:
                    self.parents[child].add(parent)
                    self.children[parent].add(child)
        for parent in self.parents[node_id]:
            self.children[parent].discard(node_id)
        del self.nodes[node_id]
        del self.parents[node_id]
        del self.children[node_id]

    def apply_rule1(self, freq, ic_threshold, blocklist):
        changed = False
        for node_id in self.concept_ids():
            node = self.nodes.get(node_id)
            if node is None or node.is_seed:
                continue
            if node.term in blocklist or freq.information_content(node.term) < ic_threshold:
                self.delete(node_id)
                changed = True
        return changed

    def apply_rule2(self, min_children):
        changed = False
        swept = True
        while swept:
            swept = False
            # leaves up: each concept after its children
            for node_id in topological_order(self.concept_ids(), self.children):
                node = self.nodes.get(node_id)
                if node is None or node.is_seed or node.kind != "concept":
                    continue
                if not self.parents[node_id]:  # the root is exempt
                    continue
                n_children = len(self.children[node_id])
                if 0 < n_children < min_children:
                    self.delete(node_id)
                    swept = changed = True
        return changed

    def apply_rule3(self):
        changed = True
        any_change = False
        while changed:
            changed = False
            for child_id in self.concept_ids():
                child = self.nodes.get(child_id)
                if child is None or child.is_seed or child.kind != "concept":
                    continue
                matching = sorted(
                    p for p in self.parents[child_id]
                    if _token_contained(child.term, self.nodes[p].term)
                )
                if matching:
                    self.delete(child_id, reconnect_to=matching)
                    changed = any_change = True
                    break
        return any_change

    def drop_unreachable(self):
        seeds = [i for i, n in self.nodes.items() if n.is_seed]
        if not seeds:  # seedless graphs occur only in synthetic tests
            return False
        kept = reachable(seeds, self.parents)
        changed = False
        for node_id in self.concept_ids():
            if node_id not in kept:
                self.delete(node_id, reconnect_to=())
                changed = True
        return changed

    def to_graph(self, original: ConceptGraph) -> ConceptGraph:
        nodes = {i: self.nodes[i] for i in sorted(self.nodes)}
        edges = []
        for child in sorted(self.parents):
            for parent in sorted(self.parents[child]):
                edges.append(RelationEdge(child, RelationType.IsA, parent, 1.0))
        for e in self.other_edges:
            if e.src in nodes and e.dst in nodes:
                edges.append(e)
        return ConceptGraph(nodes=nodes, edges=edges, environment=original.environment)


def _token_contained(child_name: str, parent_name: str) -> bool:
    """True when the child's tokens appear contiguously in the parent's."""
    child_tokens = child_name.split("_")
    parent_tokens = parent_name.split("_")
    n = len(child_tokens)
    if n > len(parent_tokens):
        return False
    if child_tokens == parent_tokens:
        return False
    return any(parent_tokens[i:i + n] == child_tokens
               for i in range(len(parent_tokens) - n + 1))


# ---------------------------------------------------------------------------
# Stage 3: relation attachment
# ---------------------------------------------------------------------------


def _attribute_node_id(graph_nodes, term, kind):
    if term not in graph_nodes:
        return term
    existing = graph_nodes[term]
    if existing.kind == kind:
        return term
    return f"{term}@{kind}"


def attach_relations(graph: ConceptGraph, store: EdgeStore, lexicon: LexiconIndex,
                     provider, assignment: SenseAssignment,
                     stopwords=frozenset()) -> ConceptGraph:
    """Attach UsedFor/HasProperty/AtLocation edges to matching concepts.

    For each concept node and each store edge starting at its term, the
    node's term is disambiguated against the edge's end word; the edge is
    added only when the chosen sense matches the node's sense (for seeds,
    that sense is the one fixed by the seed assignment).  Edges that fail
    disambiguation are dropped and counted in the result's ``dropped_edges``.
    Each sense's word sense profile is built once per call and shared by
    every edge that the gate weighs against it.
    """
    out = graph.copy()
    dropped = 0
    profiles: dict[str, list[str]] = {}  # synset id -> its word sense profile
    for node_id in graph.node_ids("concept"):
        node = graph.nodes[node_id]
        gated = node.synset is not None and len(lexicon.senses(node.term, "n")) > 1
        for relation in ATTRIBUTE_RELATIONS:
            kind = KIND_FOR_RELATION[relation]
            for edge in store.starting_at(node.term, relation):
                if gated:
                    chosen, _ = disambiguate_edge(edge.end, node.term, lexicon,
                                                  provider, stopwords, profiles)
                    if chosen != node.synset:
                        dropped += 1
                        continue
                dst_term = normalize_lemma(edge.end)
                dst_id = _attribute_node_id(out.nodes, dst_term, kind)
                if dst_id not in out.nodes:
                    out.nodes[dst_id] = ConceptNode(id=dst_id, kind=kind, term=dst_term)
                out.edges.append(RelationEdge(node_id, relation, dst_id,
                                              normalized_weight(edge, store)))
    out.dropped_edges = dropped
    return out


def attach_locations_two_hop(graph: ConceptGraph, store: EdgeStore,
                             environment: str) -> ConceptGraph:
    """Expand AtLocation one more hop, then prune by environment.

    Hop-2 edges run location -> location with strength equal to the
    product of the hop-1 strength (max over incoming, when a location was
    reached from several concepts) and the normalized hop-2 weight.  A
    location survives only if it is the environment itself or the store
    asserts it is located in the environment; pruned nodes take their
    incident edges with them, and locations left unreachable are dropped
    too.
    """
    environment = normalize_lemma(environment)
    out = graph.copy()
    incoming = out.incoming()

    # (source, target) of every AtLocation edge, so a repeated hop-2 edge is found at once
    located = {(e.src, e.dst) for e in out.edges if e.relation is RelationType.AtLocation}
    for loc_id in out.node_ids("location"):
        loc = out.nodes[loc_id]
        strength_in = max((e.strength for e in incoming[loc_id]
                           if e.relation is RelationType.AtLocation), default=1.0)
        for edge in store.starting_at(loc.term, RelationType.AtLocation):
            dst_term = normalize_lemma(edge.end)
            if dst_term == loc.term:
                continue
            dst_id = _attribute_node_id(out.nodes, dst_term, "location")
            if dst_id not in out.nodes:
                out.nodes[dst_id] = ConceptNode(id=dst_id, kind="location", term=dst_term)
            if (loc_id, dst_id) not in located:
                located.add((loc_id, dst_id))
                out.edges.append(RelationEdge(
                    loc_id, RelationType.AtLocation, dst_id,
                    strength_in * normalized_weight(edge, store)))

    def contained(term):
        return term == environment or store.has_edge(term, RelationType.AtLocation, environment)

    doomed = {i for i in out.node_ids("location") if not contained(out.nodes[i].term)}
    _drop_nodes(out, doomed)

    # hop-2 survivors whose only path in came through a pruned location
    while True:
        reachable_in = {e.dst for e in out.edges}
        orphans = {i for i in out.node_ids("location") if i not in reachable_in}
        if not orphans:
            break
        _drop_nodes(out, orphans)

    out.environment = environment
    return out


def _drop_nodes(graph: ConceptGraph, doomed: set[str]):
    if not doomed:
        return
    graph.nodes = {i: n for i, n in graph.nodes.items() if i not in doomed}
    graph.edges = [e for e in graph.edges if e.src not in doomed and e.dst not in doomed]


# ---------------------------------------------------------------------------
# Validation and serialization
# ---------------------------------------------------------------------------


def validate_graph(graph: ConceptGraph) -> None:
    """Assert the structural invariants; raises ValueError on violation."""
    for e in graph.edges:
        if e.src not in graph.nodes or e.dst not in graph.nodes:
            raise ValueError(f"dangling edge {e}")
        if not 0.0 <= e.strength <= 1.0:
            raise ValueError(f"strength out of range: {e}")
        dst_kind = graph.nodes[e.dst].kind
        if e.relation is RelationType.IsA:
            if graph.nodes[e.src].kind != "concept" or dst_kind != "concept":
                raise ValueError(f"IsA edge between non-concepts: {e}")
        elif KIND_FOR_RELATION[e.relation] != dst_kind:
            raise ValueError(f"{e.relation.value} edge into kind {dst_kind}: {e}")

    try:
        topological_order(graph.nodes, graph.isa_parents())
    except CycleError as error:
        raise ValueError(f"IsA cycle through {error.cycle[0]}") from None

    adjacency: dict[str, list[str]] = {i: [] for i in graph.nodes}
    for e in graph.edges:
        adjacency[e.src].append(e.dst)
    orphans = set(graph.nodes) - reachable([n.id for n in graph.seeds()], adjacency)
    if orphans:
        raise ValueError(f"orphan nodes not reachable from any seed: {sorted(orphans)}")


def serialize_graph(graph: ConceptGraph) -> str:
    """Stable text serialization: NODE records then EDGE records."""
    lines = []
    for node_id in sorted(graph.nodes):
        n = graph.nodes[node_id]
        lines.append(f"NODE\t{n.id}\t{n.kind}\t{n.synset or '-'}\t{int(n.is_seed)}")
    for e in sorted(graph.edges, key=lambda e: (e.relation.value, e.src, e.dst)):
        lines.append(f"EDGE\t{e.relation.value}\t{e.src}\t{e.dst}\t{e.strength!r}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> ConceptGraph:
    """Read :func:`serialize_graph` text.

    A malformed record, a node declared twice, a kind that is no value of
    :data:`KIND_FOR_RELATION`, an ``is_seed`` other than 0 or 1, or an edge
    whose source or target has no ``NODE`` record raises ``ValueError``
    naming its line.
    """
    graph = ConceptGraph()
    edge_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        cols = raw.split("\t")
        if cols[0] == "NODE" and len(cols) == 5:
            _, node_id, kind, synset, is_seed = cols
            if node_id in graph.nodes:
                problem = f"node {node_id!r} declared twice"
            elif kind not in KIND_FOR_RELATION.values():
                problem = f"unknown node kind {kind!r}"
            elif is_seed not in ("0", "1"):
                problem = f"is_seed must be 0 or 1, got {is_seed!r}"
            else:
                problem = None
            if problem:
                raise ValueError(f"bad graph record on line {line_no}: {problem}")
            term = node_id.split("@")[0]
            if synset != "-" and f"_{synset}" in node_id:
                term = node_id[: node_id.rindex(f"_{synset}")]
            graph.nodes[node_id] = ConceptNode(
                id=node_id, kind=kind, term=term,
                synset=None if synset == "-" else synset,
                is_seed=is_seed == "1")
        elif cols[0] == "EDGE" and len(cols) == 5:
            _, rel, src, dst, strength = cols
            try:
                edge = RelationEdge(src, RelationType(rel), dst, float(strength))
            except ValueError as error:
                raise ValueError(f"bad graph record on line {line_no}: {error}") from None
            graph.edges.append(edge)
            edge_lines.append(line_no)
        else:
            raise ValueError(f"bad graph record on line {line_no}: {raw!r}")
    for line_no, edge in zip(edge_lines, graph.edges):
        for end, node_id in (("source", edge.src), ("target", edge.dst)):
            if node_id not in graph.nodes:
                raise ValueError(f"bad graph record on line {line_no}: "
                                 f"edge {end} {node_id!r} has no NODE record")
    return graph


def save_graph(graph: ConceptGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(serialize_graph(graph))


def load_graph(path) -> ConceptGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())
