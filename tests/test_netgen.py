"""Concept graph generation: IsA extraction, compression, relation attachment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet.disambiguation import SenseAssignment, build_wsp, disambiguate_edge, disambiguate_seeds
from situnet.edges import ConceptEdge, EdgeStore, RelationType
from situnet.lexicon import CorpusFrequencies, parse_lexicon
from situnet.netgen import (
    ConceptGraph,
    ConceptNode,
    RelationEdge,
    add_isa_paths,
    attach_locations_two_hop,
    attach_relations,
    compress,
    parse_graph,
    serialize_graph,
    validate_graph,
)

from conftest import TableRelatedness, check_refusal, edited_lines


def assignment_for(lexicon, words):
    return disambiguate_seeds(words, lexicon)


class TestAddIsaPaths:
    def test_root_seed_gives_single_node(self):
        data = "00000001 03 n 01 thing 0 000 | the root\n"
        index = parse_lexicon("", data)
        assignment = SenseAssignment({"thing": ("00000001-n", 0.0)}, 0.0, "thing")
        graph = add_isa_paths(assignment, index)
        assert len(graph.nodes) == 1
        assert graph.edges == []
        assert graph.nodes["thing"].is_seed

    def test_garlic_flavorer_edge_present(self, lexicon):
        graph = add_isa_paths(assignment_for(lexicon, ["garlic"]), lexicon)
        assert any(e.src == "garlic" and e.dst == "flavorer"
                   and e.relation is RelationType.IsA for e in graph.edges)

    def test_nodes_match_ancestor_closure_oracle(self, lexicon):
        words = ["pan", "pot", "garlic", "towel"]
        assignment = assignment_for(lexicon, words)
        graph = add_isa_paths(assignment, lexicon)

        def closure(sid):
            out = {sid}
            for parent in lexicon.get(sid).hypernyms:
                out |= closure(parent)
            return out

        expected = set()
        for word, (sid, _) in assignment.choices.items():
            expected |= closure(sid)
        assert {n.synset for n in graph.nodes.values()} == expected

    def test_edges_point_child_to_parent_with_strength_one(self, lexicon):
        graph = add_isa_paths(assignment_for(lexicon, ["pan", "garlic"]), lexicon)
        for e in graph.edges:
            assert e.relation is RelationType.IsA
            assert e.strength == 1.0
            child = graph.nodes[e.src].synset
            parent = graph.nodes[e.dst].synset
            assert parent in lexicon.get(child).hypernyms

    def test_shared_ancestors_merged(self, lexicon):
        graph = add_isa_paths(assignment_for(lexicon, ["fork", "spoon"]), lexicon)
        cutlery_nodes = [n for n in graph.nodes.values() if n.term == "cutlery"]
        assert len(cutlery_nodes) == 1

    def test_first_lemma_collision_suffixed(self):
        data = (
            "00000001 03 n 01 root 0 000 | the root\n"
            "00000002 03 n 02 twin 0 alpha 0 001 @ 00000001 n 0000 | first twin\n"
            "00000003 03 n 02 twin 0 beta 0 001 @ 00000002 n 0000 | second twin\n"
        )
        index = parse_lexicon("", data)
        assignment = SenseAssignment({"beta": ("00000003-n", 0.0)}, 0.0, "beta")
        graph = add_isa_paths(assignment, index)
        assert "twin_00000002-n" in graph.nodes
        assert "twin_00000003-n" in graph.nodes
        assert graph.nodes["twin_00000002-n"].term == "twin"


def make_chain_graph(lexicon, seeds):
    return add_isa_paths(assignment_for(lexicon, seeds), lexicon)


def build_graph(nodes, edges):
    """nodes: (id, kind, seed) triples; edges: (src, dst) IsA pairs."""
    graph = ConceptGraph()
    for node_id, kind, seed in nodes:
        graph.nodes[node_id] = ConceptNode(id=node_id, kind=kind, term=node_id,
                                           synset=f"{node_id}-syn" if kind == "concept" else None,
                                           is_seed=seed)
    for src, dst in edges:
        graph.edges.append(RelationEdge(src, RelationType.IsA, dst, 1.0))
    return graph


def oracle_compress(graph, freq, min_children, ic_threshold, blocklist):
    """Naive from-scratch re-statement of the three rules to a fixpoint."""
    nodes = {i: n for i, n in graph.nodes.items()}
    parents = {i: set() for i in nodes}
    children = {i: set() for i in nodes}
    for e in graph.edges:
        if e.relation is RelationType.IsA:
            parents[e.src].add(e.dst)
            children[e.dst].add(e.src)

    def remove(victim, targets):
        for child in list(children[victim]):
            parents[child].discard(victim)
            for t in targets:
                if t != child:
                    parents[child].add(t)
                    children[t].add(child)
        for parent in list(parents[victim]):
            children[parent].discard(victim)
        for mapping in (nodes, parents, children):
            del mapping[victim]

    def contained(child, parent):
        ct, pt = child.split("_"), parent.split("_")
        if ct == pt or len(ct) > len(pt):
            return False
        return any(pt[i:i + len(ct)] == ct for i in range(len(pt) - len(ct) + 1))

    def sweep_unreachable():
        reachable = {i for i in nodes if nodes[i].is_seed}
        frontier = list(reachable)
        while frontier:
            cur = frontier.pop()
            for p in parents[cur]:
                if p not in reachable:
                    reachable.add(p)
                    frontier.append(p)
        victims = sorted(set(nodes) - reachable)
        if not any(nodes[i].is_seed for i in nodes):
            return False
        hit = False
        for i in victims:
            if nodes[i].kind == "concept":
                remove(i, set())
                hit = True
        return hit

    while True:
        moved = False
        # rule 1: over-general terms
        for i in sorted(nodes):
            n = nodes.get(i)
            if n is None or n.is_seed or n.kind != "concept":
                continue
            if n.term in blocklist or freq.information_content(n.term) < ic_threshold:
                remove(i, set(parents[i]))
                moved = True
        # rule 2: thin parents, leaves upward, rescanning until stable
        thinning = True
        while thinning:
            thinning = False
            by_height = sorted(nodes, key=lambda i: (_height(i, children), i))
            for i in by_height:
                n = nodes.get(i)
                if n is None or n.is_seed or n.kind != "concept" or not parents[i]:
                    continue
                if 0 < len(children[i]) < min_children:
                    remove(i, set(parents[i]))
                    thinning = moved = True
        # rule 3: child name inside parent name
        renaming = True
        while renaming:
            renaming = False
            for i in sorted(nodes):
                n = nodes.get(i)
                if n is None or n.is_seed or n.kind != "concept":
                    continue
                hits = sorted(p for p in parents[i]
                              if contained(n.term, nodes[p].term))
                if hits:
                    remove(i, set(hits))
                    renaming = moved = True
                    break
        moved |= sweep_unreachable()
        if not moved:
            break

    edges = {(c, p) for c in parents for p in parents[c]}
    return set(nodes), edges


def _height(node, children):
    seen = set()
    frontier = [(node, 0)]
    best = 0
    while frontier:
        cur, d = frontier.pop()
        best = max(best, d)
        for c in children.get(cur, ()):
            if c not in seen:
                seen.add(c)
                frontier.append((c, d + 1))
    return best


def graph_isa_sets(graph):
    nodes = set(graph.nodes)
    edges = {(e.src, e.dst) for e in graph.edges if e.relation is RelationType.IsA}
    return nodes, edges


def random_hierarchy(rng, freq):
    """Random DAG over corpus-flavored names with random seed marking."""
    vocabulary = sorted(freq.counts)
    n = int(rng.integers(5, 25))
    names = list(rng.choice(vocabulary, size=n, replace=False))
    nodes = []
    edges = []
    for i, name in enumerate(names):
        is_seed = bool(rng.random() < 0.3) or i == 0
        nodes.append((name, "concept", is_seed))
        if i > 0:
            n_parents = 1 + int(rng.random() < 0.2)
            for p in rng.choice(i, size=min(n_parents, i), replace=False):
                edges.append((names[i], names[int(p)]))
    # edges currently point child -> earlier node; earlier = more general
    return build_graph(nodes, edges)


class TestCompress:
    def test_seeds_only_graph_unchanged(self, frequencies):
        graph = build_graph([("pan", "concept", True), ("pot", "concept", True)],
                            [("pan", "pot")])
        out = compress(graph, frequencies)
        assert graph_isa_sets(out) == graph_isa_sets(graph)

    def test_figure_chain_with_sibling_keeps_three_levels(self, lexicon, frequencies):
        # garlic and salt share flavorer, so the default child minimum
        # leaves the expected garlic -> flavorer -> ingredient chain
        graph = make_chain_graph(lexicon, ["garlic", "salt"])
        out = compress(graph, frequencies, min_children=2)
        assert set(out.nodes) == {"garlic", "salt", "flavorer", "ingredient"}
        _, edges = graph_isa_sets(out)
        assert ("garlic", "flavorer") in edges
        assert ("flavorer", "ingredient") in edges

    def test_pure_chain_compresses_to_three_nodes(self, lexicon, frequencies):
        # with the child-count rule disabled the over-generality rule alone
        # trims garlic -> ... -> entity down to the three-node chain
        graph = make_chain_graph(lexicon, ["garlic"])
        chain = [graph.nodes[i].term for i in graph.nodes]
        assert set(chain) == {"garlic", "flavorer", "ingredient", "substance",
                              "matter", "entity"}
        out = compress(graph, frequencies, min_children=1)
        assert set(out.nodes) == {"garlic", "flavorer", "ingredient"}

    def test_name_containment_rule(self, frequencies):
        graph = build_graph(
            [("cooking_utensil", "concept", False), ("utensil", "concept", False),
             ("ladle", "concept", True)],
            [("ladle", "utensil"), ("utensil", "cooking_utensil")])
        out = compress(graph, frequencies, min_children=1)
        # utensil sits under cooking_utensil, so rule 3 removes it and
        # reconnects the seed upward
        assert set(out.nodes) == {"cooking_utensil", "ladle"}
        assert ("ladle", "cooking_utensil") in graph_isa_sets(out)[1]

    def test_containment_is_token_aware(self, frequencies):
        graph = build_graph(
            [("pancake", "concept", False), ("pan", "concept", False),
             ("crepe", "concept", True)],
            [("crepe", "pan"), ("pan", "pancake")])
        out = compress(graph, frequencies, min_children=1)
        assert "pan" in out.nodes  # 'pan' is not a token of 'pancake'... it is not removed

    def test_seeds_never_deleted_even_below_threshold(self, lexicon, frequencies):
        # milk's corpus count puts it under the threshold; the seed flag wins
        assert frequencies.information_content("milk") < 5.0
        graph = make_chain_graph(lexicon, ["milk", "butter"])
        out = compress(graph, frequencies)
        assert "milk" in out.nodes and out.nodes["milk"].is_seed

    def test_matches_rule_engine_oracle_on_scenarios(self, scenario_products,
                                                     frequencies, lexicon):
        from situnet.netgen import DEFAULT_BLOCKLIST
        for name, (config, products) in scenario_products.items():
            graph = add_isa_paths(products.assignment, lexicon)
            out = compress(graph, frequencies, config.min_children,
                           config.ic_threshold)
            expected = oracle_compress(graph, frequencies, config.min_children,
                                       config.ic_threshold, DEFAULT_BLOCKLIST)
            assert graph_isa_sets(out) == expected, name

    def test_matches_rule_engine_oracle_on_random_graphs(self, frequencies):
        from situnet.netgen import DEFAULT_BLOCKLIST
        rng = np.random.default_rng(21)
        for trial in range(30):
            graph = random_hierarchy(rng, frequencies)
            min_children = int(rng.integers(1, 4))
            out = compress(graph, frequencies, min_children)
            expected = oracle_compress(graph, frequencies, min_children, 5.0,
                                       DEFAULT_BLOCKLIST)
            assert graph_isa_sets(out) == expected, trial

    def test_idempotent_on_random_graphs(self, frequencies):
        rng = np.random.default_rng(33)
        for _ in range(25):
            graph = random_hierarchy(rng, frequencies)
            min_children = int(rng.integers(1, 4))
            once = compress(graph, frequencies, min_children)
            twice = compress(once, frequencies, min_children)
            assert graph_isa_sets(once) == graph_isa_sets(twice)


class TestAttachRelations:
    def test_broom_sweep_added(self, scenario_products):
        _, products = scenario_products["cleaning"]
        graph = products.graph
        assert any(e.src == "broom" and e.dst == "sweep"
                   and e.relation is RelationType.UsedFor for e in graph.edges)

    def test_edge_with_unknown_start_ignored(self, lexicon, frequencies, stopwords):
        graph = compress(make_chain_graph(lexicon, ["garlic", "salt"]), frequencies)
        store = EdgeStore([ConceptEdge("zeppelin", RelationType.UsedFor, "fly", 2.0)])
        out = attach_relations(graph, store, lexicon, TableRelatedness({}),
                               assignment_for(lexicon, ["garlic", "salt"]), stopwords)
        assert graph_isa_sets(out)[0] == graph_isa_sets(graph)[0]
        assert len(out.edges) == len(graph.edges)

    def test_wrong_sense_edges_dropped_and_counted(self, scenario_products):
        _, products = scenario_products["recipe"]
        graph = products.graph
        assert graph.dropped_edges == 2  # pan->worship, pan->hairy
        assert not any(n.term == "worship" for n in graph.nodes.values())
        assert not any(n.term == "hairy" for n in graph.nodes.values())

    def test_final_graph_carries_the_dropped_count(self, scenario_products):
        _, products = scenario_products["mini"]
        assert products.graph.dropped_edges == 2

    def test_added_set_matches_filter_chain_oracle(self, scenario_products, lexicon,
                                                   store, stopwords, provider):
        from situnet.edges import ATTRIBUTE_RELATIONS, normalized_weight
        _, products = scenario_products["cleaning"]
        graph = products.graph
        concept_ids = graph.node_ids("concept")

        expected = set()
        for node_id in concept_ids:
            node = graph.nodes[node_id]
            for relation in ATTRIBUTE_RELATIONS:
                for edge in store.starting_at(node.term, relation):
                    chosen, _ = disambiguate_edge(edge.end, node.term, lexicon,
                                                  provider, stopwords)
                    if node.synset is not None and chosen != node.synset:
                        continue
                    expected.add((node_id, relation, edge.end,
                                  normalized_weight(edge, store)))

        actual = {(e.src, e.relation, graph.nodes[e.dst].term, e.strength)
                  for e in graph.edges
                  if e.relation is not RelationType.IsA
                  and graph.nodes[e.src].kind == "concept"}
        assert actual == expected

    def test_attribute_kinds_and_strengths(self, scenario_products):
        from situnet.netgen import KIND_FOR_RELATION
        for name, (_, products) in scenario_products.items():
            for e in products.graph.edges:
                assert 0.0 <= e.strength <= 1.0
                if e.relation is RelationType.IsA:
                    assert e.strength == 1.0
                else:
                    assert products.graph.nodes[e.dst].kind == \
                        KIND_FOR_RELATION[e.relation]

    def test_shared_term_gets_kind_qualified_node(self, scenario_products):
        _, products = scenario_products["recipe"]
        graph = products.graph
        assert graph.nodes["container"].kind == "concept"
        assert graph.nodes["container@location"].kind == "location"
        assert graph.nodes["container@location"].term == "container"


class TestTwoHopLocations:
    def test_store_not_in_kitchen_pruned(self, scenario_products, store):
        config, products = scenario_products["recipe"]
        graph = products.graph
        assert store.has_edge("food", RelationType.AtLocation, "store")
        assert not store.has_edge("store", RelationType.AtLocation, "kitchen")
        assert not any(n.term == "store" for n in graph.nodes.values()
                       if n.kind == "location")

    def test_environment_itself_kept(self, scenario_products):
        config, products = scenario_products["recipe"]
        assert any(n.term == "kitchen" and n.kind == "location"
                   for n in products.graph.nodes.values())

    def test_every_surviving_location_contained(self, scenario_products, store):
        for name, (config, products) in scenario_products.items():
            env = config.environment
            for n in products.graph.nodes.values():
                if n.kind != "location":
                    continue
                assert n.term == env or \
                    store.has_edge(n.term, RelationType.AtLocation, env), (name, n)

    def test_kept_locations_match_bfs_oracle(self, scenario_products, store,
                                             lexicon, frequencies, stopwords,
                                             provider):
        for name, (config, products) in scenario_products.items():
            env = config.environment
            # hop 1: locations attached from concepts that survive the gate
            before = attach_relations(
                compress(add_isa_paths(products.assignment, lexicon), frequencies,
                         config.min_children, config.ic_threshold),
                store, lexicon, provider, products.assignment, stopwords)
            hop1 = {n.term for n in before.nodes.values() if n.kind == "location"}
            hop2 = set()
            for term in hop1:
                for edge in store.starting_at(term, RelationType.AtLocation):
                    hop2.add(edge.end)
            contained = {t for t in hop1 | hop2
                         if t == env or store.has_edge(t, RelationType.AtLocation, env)}
            reached = set()
            frontier = sorted(t for t in hop1 & contained)
            while frontier:
                cur = frontier.pop()
                if cur in reached:
                    continue
                reached.add(cur)
                for edge in store.starting_at(cur, RelationType.AtLocation):
                    if edge.end in contained and edge.end not in reached:
                        frontier.append(edge.end)
            actual = {n.term for n in products.graph.nodes.values()
                      if n.kind == "location"}
            assert actual == reached, name

    def test_hop2_strength_is_product(self, scenario_products, store):
        from situnet.edges import normalized_weight
        _, products = scenario_products["cleaning"]
        graph = products.graph
        incoming = graph.incoming()
        for e in graph.edges:
            if e.relation is RelationType.AtLocation and \
                    graph.nodes[e.src].kind == "location":
                store_edge = next(
                    s for s in store.starting_at(graph.nodes[e.src].term,
                                                 RelationType.AtLocation)
                    if s.end == graph.nodes[e.dst].term)
                hop1 = max(x.strength for x in incoming[e.src]
                           if x.relation is RelationType.AtLocation
                           and graph.nodes[x.src].kind != "location")
                assert e.strength == pytest.approx(
                    hop1 * normalized_weight(store_edge, store))


class TestGraphStructure:
    def test_validate_all_scenarios(self, scenario_products):
        for _, products in scenario_products.values():
            validate_graph(products.graph)

    @pytest.mark.parametrize("nodes, edges, message", [
        ([], [("a", RelationType.IsA, "ghost", 1.0)], "dangling edge"),
        ([], [("a", RelationType.IsA, "b", 1.5)], "strength out of range"),
        ([("p", "location")], [("a", RelationType.IsA, "p", 1.0)],
         "IsA edge between non-concepts"),
        ([("p", "property")], [("a", RelationType.UsedFor, "p", 0.5)],
         "UsedFor edge into kind property"),
        ([], [("b", RelationType.IsA, "a", 1.0)], "IsA cycle through"),
        ([("c", "concept")], [], r"orphan nodes not reachable from any seed: \['c'\]"),
    ])
    def test_validate_rejects(self, nodes, edges, message):
        graph = build_graph([("a", "concept", True), ("b", "concept", False)], [("a", "b")])
        for node_id, kind in nodes:
            graph.nodes[node_id] = ConceptNode(id=node_id, kind=kind, term=node_id)
        graph.edges.extend(RelationEdge(*edge) for edge in edges)
        with pytest.raises(ValueError, match=message):
            validate_graph(graph)

    def test_serialization_round_trip(self, scenario_products):
        for _, products in scenario_products.values():
            text = serialize_graph(products.graph)
            again = parse_graph(text)
            assert serialize_graph(again) == text
            assert set(again.nodes) == set(products.graph.nodes)
            for node_id, node in products.graph.nodes.items():
                restored = again.nodes[node_id]
                assert (restored.kind, restored.term, restored.synset,
                        restored.is_seed) == \
                    (node.kind, node.term, node.synset, node.is_seed)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_generated_graph_round_trip(self, data):
        kinds = st.sampled_from(("concept", "property", "location", "affordance"))
        synsets = st.none() | st.from_regex(r"[0-9]{8}-n", fullmatch=True)
        graph = ConceptGraph()
        for node_id in data.draw(st.lists(st.text("abz_@-.09", min_size=1, max_size=8),
                                          unique=True, min_size=1, max_size=8), label="ids"):
            graph.nodes[node_id] = ConceptNode(
                id=node_id, kind=data.draw(kinds, label="kind"), term=node_id,
                synset=data.draw(synsets, label="synset"),
                is_seed=data.draw(st.booleans(), label="is_seed"))
        ends = st.sampled_from(sorted(graph.nodes))
        graph.edges = data.draw(st.lists(st.builds(
            RelationEdge, ends, st.sampled_from(RelationType), ends, st.floats()),
            max_size=12), label="edges")
        text = serialize_graph(graph)
        assert serialize_graph(parse_graph(text)) == text

    def test_generation_is_reproducible(self, scenario_products):
        from situnet.cli import run_generation
        config, products = scenario_products["mini"]
        again = run_generation(config)
        assert serialize_graph(again.graph) == serialize_graph(products.graph)

    @pytest.mark.parametrize("record, reason", [
        ("EDGE\tMadeOf\ta\tb\t1.0", "'MadeOf' is not a valid RelationType"),
        ("EDGE\tIsA\ta\tb\tstrong", "could not convert"),
        ("NODE\ta\tconcept\t-\t0", "node 'a' declared twice"),
        ("NODE\tb\tconcept\t-\t2", "is_seed must be 0 or 1, got '2'"),
        ("NODE\tb\tcolor\t-\t0", "unknown node kind 'color'"),
        ("EDGE\tIsA\ta\tb\t1.0", "edge target 'b' has no NODE record"),
        ("EDGE\tUsedFor\tb\ta\t1.0", "edge source 'b' has no NODE record"),
    ])
    def test_malformed_record_names_its_line(self, record, reason):
        text = f"NODE\ta\tconcept\t-\t1\n\n{record}\n"
        with pytest.raises(ValueError, match=f"bad graph record on line 3: .*{reason}"):
            parse_graph(text)


@settings(max_examples=200)
@given(data=st.data())
def test_graph_reader_refuses_with_a_line_number(data, scenario_products):
    lines = serialize_graph(scenario_products["mini"][1].graph).splitlines()
    fields = ["NODE", "EDGE", "pan", "garlic", "ghost", "concept", "location", "color", "-",
              "0", "1", "2", "IsA", "UsedFor", "MadeOf", "0.5", "nan", "strong", ""]
    lines = data.draw(edited_lines(lines, fields))
    # an edge may name a node whose record comes after it, so a prefix need not read
    check_refusal(lambda lines: parse_graph("\n".join(lines)), lines, ValueError,
                  r"^bad graph record on line (\d+): ", prefix_reads=False)
