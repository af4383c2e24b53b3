"""Bayesian Logic Network: model building, learning, grounding, inference."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from situnet import bln
from situnet.bln import (
    AbstractVar,
    Declaration,
    DenseModelError,
    ErgodicityError,
    EvidenceSet,
    Fragment,
    GroundNetwork,
    GroundingCycleError,
    ZeroWeightWarning,
    ground,
    infer_exact,
    infer_gibbs,
    infer_lw,
    learn_cpfs,
    model_from_graph,
    read_model,
    simulate_evidence,
    write_model,
)
from situnet.evaluation import OBJECT, load_gold, run_scenario
from situnet.edges import RelationType
from situnet.netgen import ConceptGraph, ConceptNode, RelationEdge

from conftest import (
    ConstantRelatedness,
    TableRelatedness,
    ancestral_closure,
    check_refusal,
    edited_lines,
    file_reader,
    gibbs_estimates_oracle,
    joint_table_oracle,
    learn_cpfs_oracle,
    lw_estimates_oracle,
    lw_sample_oracle,
    noisy_or_cpfs_oracle,
    noisy_or_table_oracle,
    reduced_oracle,
    simulate_evidence_oracle,
    split_vars_oracle,
)


def var(text):
    return AbstractVar.parse(text)


def column(evidence, variable):
    """The sampled states of ``variable``, one per world."""
    return evidence.worlds[:, evidence.variables.index(variable)]


def graph_of(nodes, edges):
    """nodes: (id, kind, seed); edges: (src, relation, dst, strength)."""
    graph = ConceptGraph()
    for node_id, kind, seed in nodes:
        graph.nodes[node_id] = ConceptNode(id=node_id, kind=kind, term=node_id,
                                           synset="s-" + node_id if kind == "concept" else None,
                                           is_seed=seed)
    for src, rel, dst, strength in edges:
        graph.edges.append(RelationEdge(src, rel, dst, strength))
    return graph


def hub_graph(n_sources):
    """Seed concepts ``seed00``, ``seed01``, ... all IsA one ``hub`` concept."""
    nodes = [("hub", "concept", False)]
    edges = []
    for i in range(n_sources):
        nodes.append((f"seed{i:02d}", "concept", True))
        edges.append((f"seed{i:02d}", RelationType.IsA, "hub", 1.0))
    return graph_of(nodes, edges)


DIAMOND = graph_of(
    [("garlic", "concept", True), ("salt", "concept", True),
     ("flavorer", "concept", False), ("season", "affordance", False)],
    [("garlic", RelationType.IsA, "flavorer", 1.0),
     ("salt", RelationType.IsA, "flavorer", 1.0),
     ("garlic", RelationType.UsedFor, "season", 0.8),
     ("salt", RelationType.UsedFor, "season", 0.6)])


class TestModelFromGraph:
    def test_isa_edge_becomes_parent_link(self, scenario_products):
        _, products = scenario_products["recipe"]
        frag = next(f for f in products.fragments
                    if str(f.child) == "IsA(x,flavorer)")
        assert "IsA(x,garlic)" in [str(p) for p in frag.parents]

    def test_isolated_node_gets_prior_fragment(self):
        graph = graph_of([("pan", "concept", True)], [])
        _, fragments = model_from_graph(graph, ConstantRelatedness(0.0), 0.5, 0.3)
        assert len(fragments) == 1
        assert fragments[0].parents == []
        assert fragments[0].cpf.tolist() == [0.3]

    def test_parents_match_transposition_oracle(self, scenario_products):
        from situnet.bln import variable_for_node
        for _, products in scenario_products.values():
            graph = products.graph
            decl, fragments = model_from_graph(graph, ConstantRelatedness(0.0), 0.5, 0.5)
            expected = {}
            for e in graph.edges:
                child = str(variable_for_node(graph.nodes[e.dst]))
                expected.setdefault(child, set()).add(
                    str(variable_for_node(graph.nodes[e.src])))
            for frag in fragments:
                assert {str(p) for p in frag.parents} == \
                    expected.get(str(frag.child), set())

    def test_parents_sorted_by_text(self, scenario_products):
        for _, products in scenario_products.values():
            for frag in model_from_graph(products.graph, ConstantRelatedness(0.0), 0.5,
                                         0.5)[1]:
                texts = [str(p) for p in frag.parents]
                assert texts == sorted(texts)

    def test_every_cpf_is_a_full_leaky_table(self):
        _, fragments = model_from_graph(DIAMOND, ConstantRelatedness(1.0), 0.5, 0.2)
        for frag in fragments:
            assert frag.cpf.shape == (2 ** len(frag.parents),)
            assert np.all((frag.cpf > 0.0) & (frag.cpf < 1.0)), str(frag.child)

    def test_entities_typed_by_kind(self):
        decl, _ = model_from_graph(DIAMOND, ConstantRelatedness(0.0), 0.5, 0.5)
        assert decl.entities["flavorer"] == frozenset({"concept"})
        assert decl.entities["season"] == frozenset({"affordance"})

    def test_too_many_parents_rejected(self):
        graph = hub_graph(bln.MAX_PARENTS + 1)
        # "a00" sorts before "hub", so a table built node by node would come first
        graph.nodes["a00"] = ConceptNode(id="a00", kind="affordance", term="a00",
                                         synset=None, is_seed=False)
        graph.edges.append(RelationEdge("seed00", RelationType.UsedFor, "a00", 1.0))
        scored = []

        class Recording:
            def score(self, a, b):
                scored.append((a, b))
                return 0.0

        with pytest.raises(DenseModelError, match=r"node 'hub' has 17 parents \(max 16\)"):
            model_from_graph(graph, Recording(), 0.5, 0.5)
        assert scored == []

    @pytest.mark.parametrize("alpha, root_prior", [(-0.1, 0.5), (1.5, 0.5), (0.5, float("nan"))])
    def test_alpha_or_root_prior_outside_unit_interval_rejected(self, alpha, root_prior):
        with pytest.raises(ValueError, match=r"alpha and root_prior must lie in \[0, 1\]"):
            model_from_graph(DIAMOND, ConstantRelatedness(0.0), alpha, root_prior)


class TestSimulateEvidence:
    def test_alpha_one_strength_one_is_implication(self):
        graph = graph_of(
            [("a", "concept", True), ("b", "concept", False)],
            [("a", RelationType.IsA, "b", 1.0)])
        ev = simulate_evidence(graph, ConstantRelatedness(0.0), alpha=1.0,
                               n_worlds=2000, seed=3)
        a = column(ev, "IsA(x,a)")
        b = column(ev, "IsA(x,b)")
        assert np.all(b[a])          # child true whenever parent true
        assert not np.any(b[~a])     # and never without its only cause

    def test_alpha_zero_provider_zero_keeps_attributes_false(self):
        ev = simulate_evidence(DIAMOND, ConstantRelatedness(0.0), alpha=0.0,
                               n_worlds=2000, seed=4)
        assert not np.any(column(ev, "UsedFor(x,season)"))
        assert not np.any(column(ev, "IsA(x,flavorer)"))
        assert 0.3 < column(ev, "IsA(x,garlic)").mean() < 0.7  # root prior

    def test_empirical_frequencies_within_three_sigma(self):
        provider = TableRelatedness({("garlic", "flavorer"): 0.5,
                                     ("salt", "flavorer"): 0.3,
                                     ("garlic", "season"): 0.4,
                                     ("salt", "season"): 0.2})
        alpha = 0.5
        n = 20000
        ev = simulate_evidence(DIAMOND, provider, alpha=alpha, n_worlds=n, seed=5)

        p_edge = {
            ("garlic", "flavorer"): alpha * 1.0 + (1 - alpha) * 0.5,
            ("salt", "flavorer"): alpha * 1.0 + (1 - alpha) * 0.3,
            ("garlic", "season"): alpha * 0.8 + (1 - alpha) * 0.4,
            ("salt", "season"): alpha * 0.6 + (1 - alpha) * 0.2,
        }
        garlic = column(ev, "IsA(x,garlic)")
        salt = column(ev, "IsA(x,salt)")
        for child, parents in (("IsA(x,flavorer)", ("flavorer",)),
                               ("UsedFor(x,season)", ("season",))):
            child_col = column(ev, child)
            for g_val, s_val in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                mask = (garlic == g_val) & (salt == s_val)
                count = int(mask.sum())
                miss = 1.0
                if g_val:
                    miss *= 1 - p_edge[("garlic", parents[0])]
                if s_val:
                    miss *= 1 - p_edge[("salt", parents[0])]
                expected = 1 - miss
                sigma = np.sqrt(max(expected * (1 - expected), 1e-9) / max(count, 1))
                observed = child_col[mask].mean() if count else 0.0
                assert abs(observed - expected) <= 3 * sigma + 1e-9

    def test_root_prior_parameter(self):
        graph = graph_of([("a", "concept", True)], [])
        ev = simulate_evidence(graph, ConstantRelatedness(0.0), 0.5, 20000, 6,
                               root_prior=0.2)
        assert column(ev, "IsA(x,a)").mean() == pytest.approx(0.2, abs=0.02)

    def test_seeded_runs_identical(self):
        first = simulate_evidence(DIAMOND, ConstantRelatedness(0.3), 0.5, 500, 7)
        second = simulate_evidence(DIAMOND, ConstantRelatedness(0.3), 0.5, 500, 7)
        assert np.array_equal(first.worlds, second.worlds)

    def test_too_many_sources_rejected(self):
        with pytest.raises(DenseModelError, match=r"node 'hub' has 17 sources \(max 16\)"):
            simulate_evidence(hub_graph(bln.MAX_PARENTS + 1), ConstantRelatedness(0.3),
                              0.5, 10, 7)

    @pytest.mark.parametrize("root_prior", [-0.1, 1.5, float("nan")])
    def test_root_prior_outside_unit_interval_rejected(self, root_prior):
        with pytest.raises(ValueError, match="root_prior"):
            simulate_evidence(DIAMOND, ConstantRelatedness(0.3), 0.5, 10, 7, root_prior)

    @pytest.mark.parametrize("n_sources", [9, 12])
    def test_wide_and_repeated_sources_equal_oracle(self, n_sources):
        seeds = [f"seed{i:02d}" for i in range(n_sources)]
        # repeated source -> target edges multiply their miss factors twice
        graph = graph_of(
            [("hub", "concept", False), ("tool", "affordance", False)]
            + [(seed, "concept", True) for seed in seeds],
            [(seed, RelationType.IsA, "hub", 0.05 + 0.07 * i) for i, seed in enumerate(seeds)]
            + [("seed01", RelationType.IsA, "hub", 0.3),
               ("hub", RelationType.UsedFor, "tool", 0.6),
               ("seed00", RelationType.UsedFor, "tool", 0.2),
               ("hub", RelationType.UsedFor, "tool", 0.9)])
        args = (graph, ConstantRelatedness(0.2), 0.6, 3000, 13, 0.3)
        ours, reference = simulate_evidence(*args), simulate_evidence_oracle(*args)
        assert ours.variables == reference.variables
        assert np.array_equal(ours.worlds, reference.worlds)


class TestLearnCpfs:
    def test_always_true_child_unsmoothed(self):
        worlds = np.array([[1, 1], [1, 1], [0, 0], [0, 1]], dtype=bool)
        evidence = EvidenceSet(["P(x,a)", "P(x,b)"], worlds)
        frag = Fragment(var("P(x,b)"), [var("P(x,a)")], np.array([0.5, 0.5]))
        learned = learn_cpfs([frag], evidence, pseudocount=0.0)[0]
        assert learned.cpf[1] == 1.0   # b always true when a true
        assert learned.cpf[0] == 0.5   # one of two a-false worlds

    def test_unobserved_config_smoothed_to_half(self):
        worlds = np.array([[0, 0]], dtype=bool)
        evidence = EvidenceSet(["P(x,a)", "P(x,b)"], worlds)
        frag = Fragment(var("P(x,b)"), [var("P(x,a)")], np.array([0.5, 0.5]))
        learned = learn_cpfs([frag], evidence, pseudocount=1.0)[0]
        assert learned.cpf[1] == 0.5   # (0 + 1) / (0 + 2)

    def test_zero_count_zero_pseudocount_falls_back(self):
        worlds = np.array([[0, 0]], dtype=bool)
        evidence = EvidenceSet(["P(x,a)", "P(x,b)"], worlds)
        frag = Fragment(var("P(x,b)"), [var("P(x,a)")], np.array([0.5, 0.5]))
        learned = learn_cpfs([frag], evidence, pseudocount=0.0)[0]
        assert learned.cpf[1] == 0.5

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(8)
        names = ["P(x,a)", "P(x,b)", "P(x,c)"]
        worlds = rng.random((400, 3)) < 0.5
        evidence = EvidenceSet(names, worlds)
        frag = Fragment(var("P(x,c)"), [var("P(x,a)"), var("P(x,b)")],
                        np.full(4, 0.5))
        for pseudocount in (0.0, 1.0, 2.5):
            learned = learn_cpfs([frag], evidence, pseudocount)[0]
            for config in range(4):
                a_val, b_val = (config >> 1) & 1, config & 1
                rows = [w for w in worlds
                        if w[0] == a_val and w[1] == b_val]
                trues = sum(1 for w in rows if w[2])
                denom = len(rows) + 2 * pseudocount
                expected = 0.5 if denom == 0 else (trues + pseudocount) / denom
                assert learned.cpf[config] == pytest.approx(expected)

    def test_learning_recovers_generating_probabilities(self):
        provider = TableRelatedness({("garlic", "flavorer"): 0.6,
                                     ("salt", "flavorer"): 0.4})
        ev = simulate_evidence(DIAMOND, provider, alpha=0.5, n_worlds=100_000,
                               seed=9)
        _, fragments = model_from_graph(DIAMOND, provider, 0.5, 0.5)
        learned = {str(f.child): f for f in learn_cpfs(fragments, ev, 0.0)}
        flavorer = learned["IsA(x,flavorer)"]
        p_garlic = 0.5 * 1.0 + 0.5 * 0.6
        p_salt = 0.5 * 1.0 + 0.5 * 0.4
        # parent order is sorted: IsA(x,garlic), IsA(x,salt)
        expected = [0.0, p_salt, p_garlic, 1 - (1 - p_garlic) * (1 - p_salt)]
        assert np.allclose(flavorer.cpf, expected, atol=0.02)


@st.composite
def noisy_or_graphs(draw):
    """Small DAGs of mixed kinds, with roots and repeated edges in any order."""
    n_nodes = draw(st.integers(1, 7))
    kinds = ("concept", "property", "location", "affordance")
    nodes = [(f"n{i}", draw(st.sampled_from(kinds)), False) for i in range(n_nodes)]
    pairs = st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1),
                      st.sampled_from([0.0, 0.3, 0.8, 1.0]))
    edges = [(f"n{min(a, b)}", RelationType.IsA, f"n{max(a, b)}", strength)
             for a, b, strength in draw(st.lists(pairs, max_size=12)) if a != b]
    return graph_of(nodes, edges)


class TestNoisyOrCpfs:
    """Closed-form leaky noisy-OR tables, the CPFs that ``generate`` writes."""

    @settings(max_examples=80)
    @given(graph=noisy_or_graphs(),
           alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           score=st.sampled_from([0.0, 0.35, 1.0]), root_prior=st.floats(0.0, 1.0))
    def test_equals_per_cell_oracle(self, graph, alpha, score, root_prior):
        args = (graph, ConstantRelatedness(score), alpha, root_prior)
        _, ours = model_from_graph(*args)
        expected = noisy_or_cpfs_oracle(ours, *args)
        # per node in id order, its distinct sources' variables sorted by text
        structure = []
        for node_id in sorted(graph.nodes):
            sources = {str(bln.variable_for_node(graph.nodes[e.src]))
                       for e in graph.edges if e.dst == node_id}
            structure.append((str(bln.variable_for_node(graph.nodes[node_id])), sorted(sources)))
        assert [(str(f.child), [str(p) for p in f.parents]) for f in ours] == structure
        assert [f.cpf.tobytes() for f in ours] == [f.cpf.tobytes() for f in expected]

    @settings(max_examples=150)
    @given(sources=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1,
                            max_size=5, unique=True),
           picks=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0)), min_size=1,
                          max_size=10),
           alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           leak=st.sampled_from([0.0, bln.LEAK]))
    def test_table_equals_masked_oracle(self, sources, picks, alpha, leak):
        """Strided in-place products equal one masked multiply per edge, bit for bit.

        Edges come in any source order, and a source may have several
        edges, which multiply in edge order.
        """
        edges = [(sources[i % len(sources)], RelationType.IsA, "hub", strength)
                 for i, strength in picks]
        graph = graph_of([("hub", "concept", False)]
                         + [(name, "concept", True) for name in sources], edges)
        provider = TableRelatedness({(name, "hub"): 0.1 * (k + 1)
                                     for k, name in enumerate(sources)})
        args = (graph, graph.edges, sources, provider, alpha, leak)
        assert bln._noisy_or_table(*args).tobytes() == noisy_or_table_oracle(*args).tobytes()

    def test_strength_one_edge_is_capped_below_one(self):
        graph = graph_of([("a", "concept", True), ("b", "concept", False)],
                         [("a", RelationType.IsA, "b", 1.0)])
        _, fragments = model_from_graph(graph, ConstantRelatedness(0.0), 1.0, 0.3)
        cpfs = {str(f.child): f.cpf.tolist() for f in fragments}
        assert cpfs == {"IsA(x,a)": [0.3],
                        "IsA(x,b)": [1.0 - (1.0 - bln.LEAK), 1.0 - (1.0 - bln.LEAK) * bln.LEAK]}

    def test_widest_node_gets_a_full_table(self):
        graph = hub_graph(bln.MAX_PARENTS)
        hub = model_from_graph(graph, ConstantRelatedness(0.2), 0.5, 0.1)[1][0]
        assert str(hub.child) == "IsA(x,hub)"
        assert hub.cpf.shape == (2 ** 16,)
        assert hub.cpf[0] == 1.0 - (1.0 - bln.LEAK)
        assert hub.cpf[-1] == pytest.approx(1.0 - (1.0 - bln.LEAK) * 0.4 ** 16)

    @pytest.mark.parametrize("name", ["recipe", "laundry", "cleaning"])
    def test_learned_tables_agree_on_well_observed_rows(self, scenario_products, provider,
                                                        name):
        config, products = scenario_products[name]
        n_worlds = 20000
        evidence = simulate_evidence(products.graph, provider, config.alpha, n_worlds,
                                     config.seed + 1, config.root_prior)
        _, exact = model_from_graph(products.graph, provider, config.alpha, config.root_prior)
        learned = learn_cpfs(exact, evidence, 0.0)
        checked = 0
        for estimate, table in zip(learned, exact):
            row_of_world = np.zeros(n_worlds, dtype=int)
            for parent in table.parents:
                row_of_world = 2 * row_of_world + column(evidence, str(parent))
            worlds = np.bincount(row_of_world, minlength=len(table.cpf))
            well = worlds >= 200
            sigma = np.sqrt(table.cpf * (1.0 - table.cpf) / np.maximum(worlds, 1))
            # the leak and the cap each move a cell by at most LEAK
            assert np.all(np.abs(estimate.cpf - table.cpf)[well]
                          <= 4.0 * sigma[well] + 2.0 * bln.LEAK), str(table.child)
            checked += int(well.sum())
        assert checked >= len(exact)

    def test_bundled_models_have_no_certain_cell_and_run_gibbs(self, scenario_products):
        for name in ("mini", "recipe", "laundry", "cleaning"):
            config, products = scenario_products[name]
            cells = np.concatenate([f.cpf for f in products.fragments])
            assert np.all((cells > 0.0) & (cells < 1.0)), name
            results = run_scenario(products.declaration, products.fragments,
                                   list(products.assignment.choices), load_gold(config.gold),
                                   "gibbs", 2560, 5, config.seed + 100)
            assert results, name


def simple_fragments():
    return [
        Fragment(var("IsA(x,a)"), [], np.array([0.7])),
        Fragment(var("IsA(x,b)"), [var("IsA(x,a)")], np.array([0.2, 0.9])),
        Fragment(var("UsedFor(x,u)"), [var("IsA(x,a)"), var("IsA(x,b)")],
                 np.array([0.05, 0.5, 0.4, 0.95])),
    ]


# a model file's declaration and one fragment; a record after it is on line HEAD_LINES + 1
MODEL_HEAD = ("# comment\nTYPE\tobject\nTYPE\tconcept\nTYPE\taffordance\n"
              "SIG\tIsA\tobject\tconcept\nSIG\tUsedFor\tobject\taffordance\n"
              "ENTITY\ta\tconcept\nENTITY\tb\tconcept\nENTITY\tc\tconcept\n"
              "ENTITY\to\tobject\nENTITY\tu\taffordance\nFRAGMENT\tIsA(x,b)\t-\t0.5\t-\n")
HEAD_LINES = MODEL_HEAD.count("\n")


@st.composite
def typed_models(draw):
    """A declaration and fragments whose every variable fits its signature.

    A variable's first argument is ``x`` or an entity of its signature's
    first type, and each other argument an entity of the type at its
    position.
    """
    names = st.text("abcdefghijklmnopqrstuvwyz_", min_size=1, max_size=8)  # no x
    types = sorted(draw(st.frozensets(names, min_size=1, max_size=4)))
    entities = draw(st.dictionaries(names, st.frozensets(st.sampled_from(types), min_size=1,
                                                         max_size=3), max_size=8))
    signatures = draw(st.dictionaries(names, st.lists(st.sampled_from(types), min_size=1,
                                                      max_size=3).map(tuple),
                                      min_size=1, max_size=3))

    def slots(signature):
        return [[*(["x"] if position == 0 else []),
                 *(e for e in sorted(entities) if type_name in entities[e])]
                for position, type_name in enumerate(signature)]

    fillable = [(p, slots(sig)) for p, sig in sorted(signatures.items()) if all(slots(sig))]
    assume(fillable)
    variable = st.sampled_from(fillable).flatmap(lambda pair: st.tuples(
        *map(st.sampled_from, pair[1])).map(lambda args: AbstractVar(pair[0], args)))
    variables = draw(st.lists(variable, unique=True, min_size=1, max_size=8))
    fragments = []
    for child in draw(st.lists(st.sampled_from(variables), unique=True, min_size=1,
                               max_size=6)):
        parents = draw(st.lists(st.sampled_from(variables), unique=True, max_size=6))
        cpf = draw(st.lists(st.floats(0.0, 1.0), min_size=2 ** len(parents),
                            max_size=2 ** len(parents)))
        fragments.append(Fragment(child, parents, np.array(cpf)))
    decl = Declaration(types=frozenset(types), signatures=signatures, entities=entities)
    return decl, fragments


def simple_declaration():
    return Declaration(
        types=frozenset({"object", "concept", "affordance"}),
        signatures={"IsA": ("object", "concept"), "UsedFor": ("object", "affordance")},
        entities={"a": frozenset({"concept"}), "b": frozenset({"concept"}),
                  "u": frozenset({"affordance"})})


def impossible_evidence_net():
    """:func:`simple_fragments` grounded for ``o1`` with ``UsedFor(x,u)`` never
    true, and evidence that clamps it true."""
    fragments = simple_fragments()
    fragments[2] = Fragment(var("UsedFor(x,u)"), [var("IsA(x,a)"), var("IsA(x,b)")],
                            np.zeros(4))
    net = ground(simple_declaration(), fragments, ["o1"])
    return net, {"UsedFor(o1,u)": True}


class TestGenerationOracle:
    """Evidence simulation and CPF learning reproduce the reference byte for byte."""

    @pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
    def test_bundled_scenario_equals_oracle(self, scenario_products, provider, name):
        config, products = scenario_products[name]
        args = (products.graph, provider, config.alpha, 20000, config.seed + 1,
                config.root_prior)
        ours, reference = simulate_evidence(*args), simulate_evidence_oracle(*args)
        assert ours.variables == reference.variables
        assert np.array_equal(ours.worlds, reference.worlds)
        assert ours.worlds.T.flags.c_contiguous
        learned = learn_cpfs(products.fragments, ours, 1.0)
        expected = learn_cpfs_oracle(products.fragments, reference, 1.0)
        assert [str(f.child) for f in learned] == [str(f.child) for f in expected]
        assert [f.cpf.tobytes() for f in learned] == [f.cpf.tobytes() for f in expected]

    @pytest.mark.parametrize("n_worlds", [0, 1, 37])
    def test_unobserved_configurations_equal_oracle(self, n_worlds):
        rng = np.random.default_rng(41)
        names = [f"P(x,v{i})" for i in range(14)]
        # rare parents leave most configurations unobserved
        sample_major = rng.random((n_worlds, 6)) < [0.05, 0.1, 0.5, 0.9, 0.5, 0.3]
        sample_major = np.hstack([sample_major, rng.random((n_worlds, 8)) < 0.5])
        fragments = [Fragment(var(names[5]), [], np.array([0.5])),
                     Fragment(var(names[4]), [var(names[0])], np.full(2, 0.5)),
                     Fragment(var(names[3]), [var(n) for n in names[:3]], np.full(8, 0.5)),
                     Fragment(var(names[2]), [var(n) for n in (names[5], names[0], names[1],
                                                              names[4])], np.full(16, 0.5))]
        # keys of 8, 9, 10 and 13 rows: both sides of the uint8 and uint16 widths
        for k, child in ((7, 13), (8, 6), (9, 7), (12, 8)):
            parents = [var(n) for i, n in enumerate(names) if i != child][-k:]
            fragments.append(Fragment(var(names[child]), parents, np.full(2 ** k, 0.5)))
        for worlds in (sample_major, np.ascontiguousarray(sample_major.T).T):
            evidence = EvidenceSet(names, worlds)
            for pseudocount in (0.0, 1.0, 0.25):
                learned = learn_cpfs(fragments, evidence, pseudocount)
                expected = learn_cpfs_oracle(fragments, evidence, pseudocount)
                assert [f.cpf.tobytes() for f in learned] == \
                    [f.cpf.tobytes() for f in expected]
        assert 0.5 in learn_cpfs(fragments, EvidenceSet(names, sample_major), 0.0)[3].cpf


class TestGround:
    def test_replication_count(self):
        graph_nodes = [(f"n{i}", "concept", i == 0) for i in range(10)]
        edges = [(f"n{i}", RelationType.IsA, "n0", 1.0) for i in range(1, 10)]
        decl, fragments = model_from_graph(graph_of(graph_nodes, edges),
                                           ConstantRelatedness(0.0), 0.5, 0.5)
        net = ground(decl, fragments, ["obj1", "obj2"])
        assert len(net) == 20
        assert len(net.components()) == 2

    def test_matches_per_object_union_oracle(self):
        decl, fragments = simple_declaration(), simple_fragments()
        net = ground(decl, fragments, ["o1", "o2", "o3"])
        expected = {f"{frag.child.predicate}({obj},{frag.child.args[1]})"
                    for obj in ("o1", "o2", "o3") for frag in fragments}
        assert set(net.names) == expected
        for v, ps in enumerate(net.parents):
            obj = net.names[v].split("(")[1].split(",")[0]
            for p in ps:
                assert net.names[p].split("(")[1].split(",")[0] == obj

    def test_cyclic_fragments_rejected(self):
        decl = simple_declaration()
        loop = [
            Fragment(var("IsA(x,a)"), [var("IsA(x,b)")], np.array([0.1, 0.9])),
            Fragment(var("IsA(x,b)"), [var("IsA(x,a)")], np.array([0.1, 0.9])),
        ]
        with pytest.raises(GroundingCycleError):
            ground(decl, loop, ["o1"])

    def test_deep_cycle_named_as_closed_cycle(self):
        n = 3000
        net = GroundNetwork(names=[f"v{i}" for i in range(n)],
                            parents=[[(i + 1) % n] for i in range(n)],
                            cpfs=[np.array([0.5, 0.5])] * n)
        with pytest.raises(GroundingCycleError) as err:
            net.topo_order()
        cycle = err.value.cycle
        assert len(cycle) == n + 1 and cycle[0] == cycle[-1]

    def test_objects_required(self):
        with pytest.raises(ValueError):
            ground(simple_declaration(), simple_fragments(), [])

    def test_copies_share_the_read_only_table(self):
        fragments = simple_fragments()
        net = ground(simple_declaration(), fragments, ["o1", "o2"])
        for v, cpf in enumerate(net.cpfs):  # one block of the fragments per object
            assert cpf is fragments[v % len(fragments)].cpf
        with pytest.raises(ValueError, match="read-only"):
            net.cpfs[0][0] = 0.5

    def test_parent_repeated_after_grounding_rejected(self):
        fragments = [Fragment(var("IsA(x,a)"), [], np.array([0.3])),
                     Fragment(var("IsA(x,c)"), [var("IsA(x,a)"), var("IsA(o,a)")],
                              np.array([0.1, 0.5, 0.6, 0.9]))]
        with pytest.raises(ValueError,
                           match=r"^ground variable IsA\(o,c\): parent IsA\(o,a\) is listed twice$"):
            ground(simple_declaration(), fragments, ["o"])
        with pytest.raises(ValueError, match=r"IsA\(o,c\): parent IsA\(o,a\) is listed twice"):
            ground(simple_declaration(), fragments, ["p", "o"])
        # for another object, o's variable is a second, distinct parent
        net = ground(simple_declaration(),
                     [*fragments, Fragment(var("IsA(o,a)"), [], np.array([0.6]))], ["p"])
        c = net.index["IsA(p,c)"]
        assert [net.names[p] for p in net.parents[c]] == ["IsA(p,a)", "IsA(o,a)"]
        assert infer_exact(net, "IsA(p,c)") == pytest.approx(
            0.7 * 0.4 * 0.1 + 0.7 * 0.6 * 0.5 + 0.3 * 0.4 * 0.6 + 0.3 * 0.6 * 0.9)

    def test_undeclared_parent_named(self):
        fragments = [Fragment(var("IsA(x,c)"), [var("IsA(x,z)")], np.array([0.1, 0.9]))]
        with pytest.raises(ValueError,
                           match=r"^variable IsA\(o1,c\) has undeclared parent 'IsA\(o1,z\)'$"):
            ground(simple_declaration(), fragments, ["o1"])

    def test_duplicate_ground_variable_rejected(self):
        decl, fragments = simple_declaration(), simple_fragments()
        with pytest.raises(ValueError, match=r"ground variable IsA\(o1,a\) is defined twice"):
            ground(decl, [*fragments, fragments[0]], ["o1"])
        with pytest.raises(ValueError, match=r"ground variable IsA\(o2,a\) is defined twice"):
            ground(decl, fragments, ["o2", "o1", "o2"])


def random_net(rng, max_vars=12):
    n = int(rng.integers(3, max_vars + 1))
    names = [f"IsA(o,v{i})" for i in range(n)]
    parents = []
    for v in range(n):
        pool = list(range(v))
        k = min(len(pool), int(rng.integers(0, 4)))
        chosen = sorted(rng.choice(pool, size=k, replace=False).tolist()) if k else []
        parents.append([int(p) for p in chosen])
    cpfs = [rng.uniform(0.05, 0.95, size=2 ** len(parents[v])) for v in range(n)]
    return GroundNetwork(names=names, parents=parents, cpfs=cpfs)


def random_query_evidence(rng, net):
    n = len(net.names)
    ids = rng.permutation(n)
    query = net.names[int(ids[0])]
    evidence = {net.names[int(v)]: bool(rng.random() < 0.5) for v in ids[1:3]}
    return query, evidence


class TestInferExact:
    def test_query_in_evidence(self):
        net = ground(simple_declaration(), simple_fragments(), ["o1"])
        assert infer_exact(net, "IsA(o1,a)", {"IsA(o1,a)": True}) == 1.0
        assert infer_exact(net, "IsA(o1,a)", {"IsA(o1,a)": False}) == 0.0

    def test_single_node_prior(self):
        net = GroundNetwork(names=["IsA(o,a)"], parents=[[]],
                            cpfs=[np.array([0.7])])
        assert infer_exact(net, "IsA(o,a)") == pytest.approx(0.7)

    def test_matches_joint_table_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            net = random_net(rng, max_vars=10)
            query, evidence = random_query_evidence(rng, net)
            ours = infer_exact(net, query, evidence)
            oracle = joint_table_oracle(net, query, evidence)
            assert abs(ours - oracle) < 1e-12

    def test_normalization(self):
        rng = np.random.default_rng(12)
        net = random_net(rng, max_vars=8)
        query, evidence = random_query_evidence(rng, net)
        p = infer_exact(net, query, evidence)
        q = 1.0 - infer_exact(net, query, dict(evidence))
        # complement computed through the joint directly
        flipped = joint_table_oracle(net, query, evidence)
        assert p + (1 - flipped) == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(1 - q, abs=1e-12)

    def test_many_roots_return_the_prior(self):
        n = 26
        priors = np.linspace(0.05, 0.95, n)
        net = GroundNetwork(names=[f"IsA(o,v{i})" for i in range(n)],
                            parents=[[] for _ in range(n)],
                            cpfs=[np.array([p]) for p in priors])
        assert [infer_exact(net, name) for name in net.names] == priors.tolist()

    def test_deterministic_factors_match_joint_table_oracle(self):
        # sampler_net: a child of ten parents, and a deterministic ``a and b`` child clamped true
        rng = np.random.default_rng(25)
        for _ in range(3):
            net, evidence = sampler_net(rng)
            for query in net.names:
                assert abs(infer_exact(net, query, evidence) -
                           joint_table_oracle(net, query, evidence)) < 1e-12, query

    def test_contradictory_evidence_raises(self):
        net, evidence = impossible_evidence_net()
        with pytest.raises(ValueError, match="^evidence has probability zero$"):
            infer_exact(net, "IsA(o1,b)", evidence)
        with pytest.raises(ValueError, match="^evidence has probability zero$"):
            bln.estimates(net, net.names, evidence, "exact")


class TestInferLw:
    def test_converges_to_exact_without_evidence(self):
        rng = np.random.default_rng(20)
        for _ in range(3):
            net = random_net(rng, max_vars=10)
            query = net.names[int(rng.integers(len(net.names)))]
            expected = infer_exact(net, query)
            estimate = infer_lw(net, query, n_samples=50_000, seed=77)
            assert abs(estimate - expected) < 0.02

    def test_matches_exact_on_random_nets(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            net = random_net(rng, max_vars=10)
            query, evidence = random_query_evidence(rng, net)
            expected = infer_exact(net, query, evidence)
            estimate = infer_lw(net, query, evidence, n_samples=50_000, seed=99)
            assert abs(estimate - expected) < 0.02

    def test_deterministic_row_estimated_exactly(self):
        decl, fragments = simple_declaration(), simple_fragments()
        fragments[2] = Fragment(var("UsedFor(x,u)"),
                                [var("IsA(x,a)"), var("IsA(x,b)")],
                                np.array([0.05, 0.5, 0.4, 1.0]))
        net = ground(decl, fragments, ["o1"])
        estimate = infer_lw(net, "UsedFor(o1,u)",
                            {"IsA(o1,a)": True, "IsA(o1,b)": True},
                            n_samples=2000, seed=1)
        assert estimate == 1.0

    def test_contradictory_evidence_flags_zero_weight(self):
        net, evidence = impossible_evidence_net()
        with pytest.warns(ZeroWeightWarning):
            result = infer_lw(net, "IsA(o1,b)", evidence,
                              n_samples=500, seed=2)
        assert result == 0.5

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(14)
        net = random_net(rng)
        query, evidence = random_query_evidence(rng, net)
        a = infer_lw(net, query, evidence, n_samples=5000, seed=42)
        b = infer_lw(net, query, evidence, n_samples=5000, seed=42)
        assert a == b


class TestInferGibbs:
    def test_single_node_prior(self):
        net = GroundNetwork(names=["IsA(o,a)"], parents=[[]],
                            cpfs=[np.array([0.7])])
        estimate = infer_gibbs(net, "IsA(o,a)", burn_in=200, n_samples=20_000,
                               seed=15)
        assert estimate == pytest.approx(0.7, abs=0.02)

    def test_matches_exact_on_random_nets(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            net = random_net(rng, max_vars=10)
            query, evidence = random_query_evidence(rng, net)
            expected = infer_exact(net, query, evidence)
            estimate = infer_gibbs(net, query, evidence, burn_in=500,
                                   n_samples=50_000, seed=17)
            assert abs(estimate - expected) < 0.02

    def test_deterministic_row_rejected(self):
        decl, fragments = simple_declaration(), simple_fragments()
        fragments[1] = Fragment(var("IsA(x,b)"), [var("IsA(x,a)")],
                                np.array([0.2, 1.0]))
        net = ground(decl, fragments, ["o1"])
        with pytest.raises(ErgodicityError):
            infer_gibbs(net, "UsedFor(o1,u)", {}, burn_in=10, n_samples=10)

    def test_ergodicity_checked_per_call_on_one_network(self):
        decl, fragments = simple_declaration(), simple_fragments()
        fragments[1] = Fragment(var("IsA(x,b)"), [var("IsA(x,a)")],
                                np.array([0.2, 1.0]))
        net = ground(decl, fragments, ["o1"])
        infer_gibbs(net, "UsedFor(o1,u)", {"IsA(o1,b)": True}, burn_in=2, n_samples=10)
        with pytest.raises(ErgodicityError, match=r"^variable IsA\(o1,b\) has a deterministic"):
            infer_gibbs(net, "UsedFor(o1,u)", {}, burn_in=2, n_samples=10)

    def test_error_names_the_lowest_deterministic_variable(self):
        # IsA(o,late) and IsA(o,early) are both drawn and deterministic; the
        # sweep visits early first, but late has the lower index
        net = GroundNetwork(
            names=["IsA(o,r)", "IsA(o,late)", "IsA(o,early)", "IsA(o,d)"],
            parents=[[], [2], [0], [1]],
            cpfs=[np.array([0.5]), np.array([0.3, 1.0]), np.array([0.0, 0.6]),
                  np.array([0.2, 0.7])])
        with pytest.raises(ErgodicityError,
                           match=r"^variable IsA\(o,late\) has a deterministic CPF row "
                                 r"and is not clamped by evidence; use infer_lw instead$"):
            bln.gibbs_estimates(net, ["IsA(o,r)", "IsA(o,d)"], {}, burn_in=2, n_samples=10)

    @pytest.mark.parametrize("n_chains", [0, -2])
    def test_fewer_than_one_chain_rejected(self, n_chains):
        net = GroundNetwork(names=["IsA(o,a)"], parents=[[]], cpfs=[np.array([0.7])])
        with pytest.raises(ValueError, match="n_chains must be >= 1"):
            infer_gibbs(net, "IsA(o,a)", burn_in=2, n_samples=20, n_chains=n_chains)

    def test_negative_burn_in_rejected(self):
        net = GroundNetwork(names=["IsA(o,a)"], parents=[[]], cpfs=[np.array([0.7])])
        with pytest.raises(ValueError, match="burn_in must be >= 0"):
            infer_gibbs(net, "IsA(o,a)", burn_in=-3, n_samples=20, n_chains=4)

    def test_deterministic_row_outside_the_closure_allowed(self):
        decl, fragments = simple_declaration(), simple_fragments()
        fragments[2] = Fragment(var("UsedFor(x,u)"), [var("IsA(x,a)"), var("IsA(x,b)")],
                                np.array([0.0, 0.5, 0.4, 1.0]))
        net = ground(decl, fragments, ["o1"])
        # UsedFor(o1,u) is a leaf query: the chains never draw it, they average its row
        queries = ["IsA(o1,b)", "UsedFor(o1,u)"]
        batch = bln.gibbs_estimates(net, queries, {}, burn_in=200, n_samples=20_000, seed=18)
        for q in queries:
            assert batch[q] == pytest.approx(infer_exact(net, q, {}), abs=0.02)

    def test_clamped_deterministic_row_allowed(self):
        decl, fragments = simple_declaration(), simple_fragments()
        fragments[1] = Fragment(var("IsA(x,b)"), [var("IsA(x,a)")],
                                np.array([0.2, 1.0]))
        net = ground(decl, fragments, ["o1"])
        estimate = infer_gibbs(net, "UsedFor(o1,u)", {"IsA(o1,b)": True},
                               burn_in=200, n_samples=20_000, seed=18)
        expected = infer_exact(net, "UsedFor(o1,u)", {"IsA(o1,b)": True})
        assert estimate == pytest.approx(expected, abs=0.02)

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(19)
        net = random_net(rng)
        query, evidence = random_query_evidence(rng, net)
        a = infer_gibbs(net, query, evidence, burn_in=100, n_samples=2000, seed=7)
        b = infer_gibbs(net, query, evidence, burn_in=100, n_samples=2000, seed=7)
        assert a == b


class TestEstimates:
    """``estimates`` answers a query batch exactly as per-query calls do (exact), or
    as the sampler oracles on the batch's reduced network do (LW, Gibbs)."""

    def batches(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            net = random_net(rng, max_vars=10)
            _, evidence = random_query_evidence(rng, net)
            yield net, evidence

    def test_lw_equals_per_query_infer_lw(self):
        # which variables are drawn depends on the batch, so a query asked
        # alone is compared with the oracle on that query alone
        for net, evidence in self.batches(21):
            batch = bln.estimates(net, net.names, evidence, "lw", n_samples=3000, seed=5)
            assert batch == lw_estimates_oracle(net, net.names, evidence, 3000, 5)
            for q in net.names:
                assert infer_lw(net, q, evidence, n_samples=3000, seed=5) == \
                    lw_estimates_oracle(net, [q], evidence, 3000, 5)[q]

    def test_gibbs_equals_oracle_on_the_ancestral_closure(self):
        # the chains run on the reduced closure of the queries and the evidence,
        # so a query asked alone can get another estimate than in a larger batch
        rng = np.random.default_rng(25)
        run = dict(burn_in=20, n_samples=1000, seed=6, n_chains=64)
        pruned_any = False
        for net, evidence in self.batches(22):
            queries = [net.names[int(v)] for v in rng.choice(len(net), size=2, replace=False)]
            closure = ancestral_closure(net, [*queries, *evidence])
            pruned_any |= len(closure) < len(net)
            batch = bln.estimates(net, queries, evidence, "gibbs", **run)
            assert batch == gibbs_estimates_oracle(net, queries, evidence, 20, 1000, 6, 64)
            for q in queries:
                assert infer_gibbs(net, q, evidence, **run) == \
                    gibbs_estimates_oracle(net, [q], evidence, 20, 1000, 6, 64)[q]
            wider = [net.names[v] for v in sorted(closure)]
            assert bln.estimates(net, wider, evidence, "gibbs", **run) == \
                gibbs_estimates_oracle(net, wider, evidence, 20, 1000, 6, 64)
        assert pruned_any

    def test_exact_equals_per_query_infer_exact(self):
        for net, evidence in self.batches(23):
            assert bln.estimates(net, net.names, evidence, "exact") == \
                {q: infer_exact(net, q, evidence) for q in net.names}

    @pytest.mark.parametrize("method", bln.METHODS)
    def test_unknown_names_raise_and_clamped_queries_are_exact(self, method):
        net = ground(simple_declaration(), simple_fragments(), ["o1"])
        run = dict(n_samples=200, burn_in=2, seed=3)
        with pytest.raises(KeyError, match=re.escape("unknown query variable 'IsA(o1,z)'")):
            bln.estimates(net, ["IsA(o1,b)", "IsA(o1,z)"], {}, method, **run)
        with pytest.raises(KeyError,
                           match=re.escape("unknown evidence variable 'IsA(o1,z)'")):
            bln.estimates(net, ["IsA(o1,b)"], {"IsA(o1,z)": True}, method, **run)
        queries = ["IsA(o1,a)", "UsedFor(o1,u)", "IsA(o1,b)"]
        answers = bln.estimates(net, queries, {"IsA(o1,a)": True, "IsA(o1,b)": False},
                                method, **run)
        assert list(answers) == queries
        assert answers["IsA(o1,a)"] == 1.0 and answers["IsA(o1,b)"] == 0.0
        assert 0.0 < answers["UsedFor(o1,u)"] < 1.0

    @pytest.mark.parametrize("method", ["lw", "gibbs"])
    def test_query_named_twice(self, method):
        # UsedFor(o1,u) is a leaf query, answered by its averaged row
        net = ground(simple_declaration(), simple_fragments(), ["o1"])
        run = dict(n_samples=500, burn_in=2, seed=3)
        once = bln.estimates(net, ["IsA(o1,b)", "UsedFor(o1,u)"], {}, method, **run)
        twice = bln.estimates(net, ["UsedFor(o1,u)", "IsA(o1,b)", "UsedFor(o1,u)"], {},
                              method, **run)
        assert twice == once

    def test_unknown_method_rejected(self):
        net = random_net(np.random.default_rng(24))
        with pytest.raises(ValueError, match="unknown inference method"):
            bln.estimates(net, net.names[:1], {}, "annealing")


AND_CHILD = "And(o)"  # sampler_net's deterministic child


def sampler_net(rng):
    """``random_net`` plus the structures the samplers index specially.

    Appends a child of ten parents, two children of one shared parent
    pair and :data:`AND_CHILD`, whose deterministic rows make it true
    exactly when both of its two free parents are.  Evidence clamps
    :data:`AND_CHILD` true, so Gibbs meets chains where both states of a
    parent have zero weight, and clamps one of the appended non-root
    children.
    """
    base = random_net(rng, max_vars=8)
    names, parents, cpfs = list(base.names), list(base.parents), list(base.cpfs)

    def add(ps, cpf, name=None):
        names.append(name or f"IsA(o,v{len(names)})")
        parents.append(sorted(int(p) for p in ps))
        cpfs.append(cpf)
        return names[-1]

    while len(names) < 10:
        add([], rng.uniform(0.05, 0.95, size=1))
    pool = len(names)
    wide = add(rng.choice(pool, size=10, replace=False), rng.uniform(0.05, 0.95, size=2 ** 10))
    shared = rng.choice(pool, size=2, replace=False)
    add(shared, rng.uniform(0.05, 0.95, size=4))
    sibling = add(shared, rng.uniform(0.05, 0.95, size=4))
    add(rng.choice(pool, size=2, replace=False), np.array([0.0, 0.0, 0.0, 1.0]), AND_CHILD)
    net = GroundNetwork(names=names, parents=parents, cpfs=cpfs)
    clamped = wide if rng.random() < 0.5 else sibling
    return net, {AND_CHILD: True, clamped: bool(rng.random() < 0.5)}


class TestSamplerOracle:
    """The variable-major samplers reproduce the sample-major reference value for value."""

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        return [sampler_net(rng) for _ in range(4)]

    def test_lw_equals_oracle(self):
        for net, evidence in self.cases(31):
            assert bln.lw_estimates(net, net.names, evidence, n_samples=3001, seed=8) == \
                lw_estimates_oracle(net, net.names, evidence, 3001, 8)

    def test_gibbs_equals_oracle(self):
        for net, evidence in self.cases(32):
            # 1000 samples over 96 chains: the last kept sweep overshoots
            ours = bln.gibbs_estimates(net, net.names, evidence, burn_in=15, n_samples=1000,
                                       seed=9, n_chains=96)
            assert ours == gibbs_estimates_oracle(net, net.names, evidence, 15, 1000, 9, 96)

    def test_gibbs_tables_shared_across_calls(self):
        net, evidence = sampler_net(np.random.default_rng(34))
        for seed in (9, 10):
            ours = bln.gibbs_estimates(net, net.names, evidence, burn_in=5, n_samples=500,
                                       seed=seed, n_chains=64)
            assert ours == gibbs_estimates_oracle(net, net.names, evidence, 5, 500, seed, 64)

    @pytest.mark.parametrize("method", ["lw", "gibbs"])
    def test_bundled_model_equals_oracle(self, scenario_products, method):
        _, products = scenario_products["mini"]
        net = ground(products.declaration, products.fragments, ["obj1"])
        seed_word = next(iter(products.assignment.choices))
        evidence = {f"IsA(obj1,{seed_word})": True}
        ours = bln.estimates(net, net.names, evidence, method, n_samples=2000, burn_in=3,
                             seed=4, n_chains=128)
        if method == "lw":
            assert ours == lw_estimates_oracle(net, net.names, evidence, 2000, 4)
        else:
            assert ours == gibbs_estimates_oracle(net, net.names, evidence, 3, 2000, 4, 128)

    def test_lw_estimates_samples_through_module_attribute(self, monkeypatch):
        net, evidence = sampler_net(np.random.default_rng(33))
        real = bln.lw_sample
        shapes = []

        def spy(*args):
            states, weights = real(*args)
            shapes.append((states.shape, weights.shape))
            return states, weights

        monkeypatch.setattr(bln, "lw_sample", spy)
        bln.lw_estimates(net, net.names, evidence, n_samples=777, seed=1)
        sampled, _ = reduced_oracle(net, net.names, evidence)
        rows, _ = lw_sample_oracle(sampled, {sampled.index[name]: value
                                             for name, value in evidence.items()},
                                   777, np.random.default_rng(1))
        assert shapes == [((len(rows), len(sampled)), (len(rows),))]


class TestGibbsSweep:
    """The keyed Gibbs sweep equals the per-site oracle value for value."""

    @settings(max_examples=40)
    @given(net_seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_random_evidence_equals_oracle(self, net_seed, data):
        rng = np.random.default_rng(net_seed)
        if data.draw(st.booleans(), label="sampler_net"):
            # clamps its deterministic AND child true and one non-root child
            net, evidence = sampler_net(rng)
        else:
            net, evidence = random_net(rng), {}
        extra = data.draw(st.dictionaries(st.sampled_from(net.names), st.booleans(),
                                          max_size=3), label="extra evidence")
        evidence = {**extra, **evidence}
        burn_in = data.draw(st.integers(0, 3), label="burn_in")
        n_chains = data.draw(st.sampled_from([1, 7, 64]), label="n_chains")
        # a remainder of 1 .. n_chains - 1 overshoots the last kept sweep
        n_samples = n_chains * data.draw(st.integers(0, 2)) + \
            data.draw(st.integers(1, max(1, n_chains - 1)))
        seed = data.draw(st.integers(0, 1000), label="seed")
        assert bln.gibbs_estimates(net, net.names, evidence, burn_in, n_samples, seed,
                                   n_chains) == \
            gibbs_estimates_oracle(net, net.names, evidence, burn_in, n_samples, seed, n_chains)

    def test_widest_child_equals_oracle(self):
        # a clamped child of MAX_PARENTS free roots: its keys and each root's link
        # table span 2^17 entries; every root is queried, so none is summed into it
        rng = np.random.default_rng(37)
        width = bln.MAX_PARENTS
        names = [f"IsA(o,r{i})" for i in range(width)] + ["IsA(o,wide)"]
        net = GroundNetwork(
            names=names, parents=[[] for _ in range(width)] + [list(range(width))],
            cpfs=[rng.uniform(0.05, 0.95, size=1) for _ in range(width)]
            + [rng.uniform(0.05, 0.95, size=2 ** width)])
        evidence = {"IsA(o,wide)": True}
        for burn_in, n_samples, n_chains in [(2, 20, 8), (0, 9, 3)]:
            assert bln.gibbs_estimates(net, names, evidence, burn_in, n_samples, 11,
                                       n_chains) == \
                gibbs_estimates_oracle(net, names, evidence, burn_in, n_samples, 11, n_chains)


class TestBurnIn:
    """Gibbs runs no warm-up sweep when every evidence variable's parents are evidence."""

    def test_evidence_with_clamped_parents_needs_no_burn_in(self):
        rng = np.random.default_rng(35)
        clamped_child = False
        for _ in range(6):
            net, _ = sampler_net(rng)
            roots = [v for v, ps in enumerate(net.parents) if not ps]
            clamped = {int(v) for v in rng.choice(roots, size=int(rng.integers(1, len(roots))),
                                                   replace=False)}
            # a child whose parents are all clamped may be clamped too
            children = {v for v, ps in enumerate(net.parents)
                        if ps and set(ps) <= clamped and net.names[v] != AND_CHILD}
            clamped_child |= bool(children)
            evidence = {net.names[v]: bool(rng.random() < 0.5) for v in clamped | children}
            queries = [name for name in net.names if name != AND_CHILD]
            run = dict(n_samples=300, seed=int(rng.integers(1000)), n_chains=32)
            cold = bln.gibbs_estimates(net, queries, evidence, burn_in=0, **run)
            assert bln.gibbs_estimates(net, queries, evidence, burn_in=7, **run) == cold
        assert clamped_child

    def test_evidence_with_a_free_parent_burns_in(self):
        rng = np.random.default_rng(36)
        differs = False
        for _ in range(4):
            # sampler_net clamps its deterministic AND child of two free variables
            net, evidence = sampler_net(rng)
            seed = int(rng.integers(1000))
            warm = bln.gibbs_estimates(net, net.names, evidence, 7, 300, seed, 32)
            assert warm == gibbs_estimates_oracle(net, net.names, evidence, 7, 300, seed, 32)
            differs |= warm != bln.gibbs_estimates(net, net.names, evidence, 0, 300, seed, 32)
        assert differs


class TestPrunedLw:
    """LW equals the oracle's count pass over the reduced network: the closure
    of the queries and the evidence, less the leaf queries and the single-child
    roots summed into their child."""

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(6):
            net, evidence = sampler_net(rng)
            size = int(rng.integers(0, 4))
            queries = [net.names[int(v)] for v in rng.choice(len(net), size=size, replace=False)]
            out.append((net, evidence, queries))
        return out

    @pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
    def test_family_queries_equal_full_pass(self, scenario_products, name):
        _, products = scenario_products[name]
        net = ground(products.declaration, products.fragments, [OBJECT])
        for seed, word in enumerate(products.assignment.choices):
            evidence = {f"IsA({OBJECT},{word})": True}
            for family in bln.SIGNATURES:
                queries = [q for q in net.names if q.startswith(f"{family}({OBJECT},")]
                assert bln.lw_estimates(net, queries, evidence, n_samples=600, seed=seed) == \
                    lw_estimates_oracle(net, queries, evidence, 600, seed), (word, family)

    def test_query_subsets_equal_full_pass(self):
        # sampler_net clamps its deterministic AND child and a non-root child
        for net, evidence, queries in self.cases(41):
            assert bln.lw_estimates(net, queries, evidence, n_samples=1001, seed=5) == \
                lw_estimates_oracle(net, queries, evidence, 1001, 5)

    def test_zero_total_weight_equals_full_pass(self):
        net, evidence = sampler_net(np.random.default_rng(42))
        both = net.index[AND_CHILD]
        evidence = {**evidence, net.names[net.parents[both][0]]: False}
        queries = net.names[:3]
        with pytest.warns(ZeroWeightWarning):
            ours = bln.lw_estimates(net, queries, evidence, n_samples=500, seed=2)
        assert ours == lw_estimates_oracle(net, queries, evidence, 500, 2) == \
            {q: 0.5 for q in queries}

    def test_sample_draws_every_variable(self):
        for net, evidence, _ in self.cases(43):
            oracle_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
            expected_states, expected_weights = lw_sample_oracle(
                net, {net.index[name]: value for name, value in evidence.items()}, 900,
                oracle_rng)
            states, weights = bln.lw_sample(net, evidence, 900, rng)
            assert np.array_equal(states, expected_states)
            assert np.array_equal(weights, expected_weights)
            assert np.array_equal(rng.random(16), oracle_rng.random(16))

    @settings(max_examples=60)
    @given(net_seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_random_net_queries_equal_full_pass(self, net_seed, data):
        net = random_net(np.random.default_rng(net_seed))
        queries = data.draw(st.lists(st.sampled_from(net.names), unique=True,
                                     max_size=len(net)))
        evidence = data.draw(st.dictionaries(st.sampled_from(net.names), st.booleans(),
                                             max_size=3))
        seed = data.draw(st.integers(0, 1000))
        assert bln.lw_estimates(net, queries, evidence, n_samples=257, seed=seed) == \
            lw_estimates_oracle(net, queries, evidence, 257, seed)


class TestCountPass:
    """LW's rows are distinct configurations whose weights are count times evidence weight."""

    @settings(max_examples=60)
    @given(net_seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_rows_are_weighted_configuration_counts(self, net_seed, data):
        net = random_net(np.random.default_rng(net_seed))
        evidence = data.draw(st.dictionaries(st.sampled_from(net.names), st.booleans(),
                                             max_size=3), label="evidence")
        ev = {net.index[name]: value for name, value in evidence.items()}
        # so many samples per configuration that the pass never expands them
        n_samples = data.draw(st.integers(2 ** (len(net) - len(ev) + 4), 2 ** 20),
                              label="n_samples")
        seed = data.draw(st.integers(0, 1000), label="seed")
        states, weights = bln.lw_sample(net, evidence, n_samples, np.random.default_rng(seed))
        assert states.shape == (len(weights), len(net))
        assert len({row.tobytes() for row in states}) == len(states)
        for v, value in ev.items():
            assert (states[:, v] == value).all()
        likelihood = np.ones(len(states))
        for v in net.topo_order():
            if v in ev:
                ps = net.parents[v]
                p_true = net.cpfs[v][states[:, ps].astype(int) @ (1 << np.arange(len(ps))[::-1])]
                likelihood *= p_true if ev[v] else 1.0 - p_true
        counts = np.rint(weights / likelihood).astype(np.int64)
        assert counts.min() >= 1 and counts.sum() == n_samples
        assert np.array_equal(weights, counts * likelihood)


class TestReducedNetwork:
    """The network the samplers draw implies the exact answers, and is small."""

    @settings(max_examples=40)
    @given(net_seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_implied_answers_equal_exact(self, net_seed, data):
        rng = np.random.default_rng(net_seed)
        if data.draw(st.booleans(), label="sampler_net"):
            net, evidence = sampler_net(rng)
        else:
            net, evidence = random_net(rng), {}
        queries = data.draw(st.lists(st.sampled_from(net.names), min_size=1, max_size=6),
                            label="queries")
        sampled, leaves = bln._reduced(net, [net.index[q] for q in queries],
                                       {net.index[name]: v for name, v in evidence.items()})
        # each leaf query rejoins the sampled network as a child of its parents there
        implied = GroundNetwork(names=[*sampled.names, *leaves],
                                parents=[*sampled.parents, *(ps for ps, _ in leaves.values())],
                                cpfs=[*sampled.cpfs, *(cpf for _, cpf in leaves.values())])
        assert set(queries) <= set(implied.names)
        for name in implied.names:
            assert infer_exact(implied, name, evidence) == \
                pytest.approx(infer_exact(net, name, evidence), abs=1e-12), name

    @pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
    def test_samplers_draw_at_most_half_the_closure(self, scenario_products, name):
        # per seed, the batch run_scenario asks: that seed's gold-labelled variables
        config, products = scenario_products[name]
        gold = load_gold(config.gold)
        net = ground(products.declaration, products.fragments, [OBJECT])
        closure_free = sampled_free = 0
        for word in products.assignment.choices:
            ids = [v for v, q in enumerate(net.names)
                   if (word, RelationType(var(q).predicate), var(q).args[1])
                   in gold.relation_labels]
            if ids:
                ev = {net.index[f"IsA({OBJECT},{word})"]: True}
                closure_free += len(ancestral_closure(net, [net.names[v] for v in ids])
                                    | set(ev)) - 1
                sampled_free += len(bln._reduced(net, ids, ev)[0]) - 1
        assert closure_free > 0
        assert sampled_free <= closure_free / 2


class TestPack:
    @settings(max_examples=30)
    @given(n_cols=st.sampled_from([0, 1, 37]), density=st.sampled_from([0.5, 1.0]),
           data=st.data())
    def test_equals_intp_shift_or(self, n_cols, density, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        rows = rng.random((20, n_cols)) < density
        for n_rows in range(1, 19):  # both sides of the uint8 and uint16 widths
            ids = data.draw(st.lists(st.integers(0, 19), min_size=n_rows, max_size=n_rows))
            expected = np.zeros(n_cols, dtype=np.intp)
            for i in ids:
                expected = (expected << 1) | rows[i]
            assert np.array_equal(bln._pack(rows, ids), expected)
            assert np.array_equal(bln._pack(np.ascontiguousarray(rows.T).T, ids), expected)


class TestModelSerialization:
    def test_round_trip(self, tmp_path, scenario_products):
        _, products = scenario_products["mini"]
        path = tmp_path / "model.tsv"
        write_model(products.declaration, products.fragments, path)
        decl, fragments = read_model(path)
        assert decl.types == products.declaration.types
        assert decl.signatures == products.declaration.signatures
        assert decl.entities == products.declaration.entities
        assert len(fragments) == len(products.fragments)
        for ours, restored in zip(products.fragments, fragments):
            assert str(restored.child) == str(ours.child)
            assert [str(p) for p in restored.parents] == \
                [str(p) for p in ours.parents]
            assert np.array_equal(restored.cpf, ours.cpf)

    def test_write_is_deterministic(self, tmp_path, scenario_products):
        _, products = scenario_products["mini"]
        write_model(products.declaration, products.fragments, tmp_path / "a.tsv")
        write_model(products.declaration, products.fragments, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @settings(max_examples=60)
    @given(data=st.data())
    def test_generated_model_round_trip(self, tmp_path_factory, data):
        decl, fragments = data.draw(typed_models(), label="model")
        path = tmp_path_factory.mktemp("model") / "model.tsv"
        write_model(decl, fragments, path)
        restored_decl, restored = read_model(path)
        assert restored_decl == decl
        assert len(restored) == len(fragments)
        for ours, back in zip(fragments, restored):
            assert back.child == ours.child
            assert back.parents == ours.parents
            assert back.cpf.tobytes() == ours.cpf.tobytes()

    @pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
    def test_write_read_write_is_byte_identical(self, tmp_path, scenario_products, name):
        _, products = scenario_products[name]
        write_model(products.declaration, products.fragments, tmp_path / "a.tsv")
        write_model(*read_model(tmp_path / "a.tsv"), tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    @settings(max_examples=300)
    @given(data=st.data())
    def test_split_vars_equals_character_loop(self, data):
        names = st.text("abxo_ 1", max_size=4)
        variable = st.builds(lambda p, args: f"{p}({','.join(args)})", names,
                             st.lists(names, max_size=3))
        well_formed = st.lists(variable, min_size=1, max_size=5).map(",".join)
        malformed = st.text("ab,() x-", max_size=16)
        text = data.draw(st.one_of(well_formed, malformed, st.just("-")), label="text")
        parts = bln._split_vars(text)
        assert parts == split_vars_oracle(text)

        def parsed(parts):
            try:
                return [AbstractVar.parse(p) for p in parts]
            except ValueError as error:
                return str(error)

        assert parsed(parts) == parsed(split_vars_oracle(text))

    @pytest.mark.parametrize("k", [0, 2, 5, 6])  # tables of 1 to 64 rows
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_table_outside_unit_interval_refused(self, k, bad):
        parents = [var(f"IsA(x,p{i})") for i in range(k)]
        for at in (0, 2 ** k - 1):
            table = np.full(2 ** k, 0.5)
            table[at] = bad
            with pytest.raises(ValueError, match=r"^fragment IsA\(x,c\): probabilities "
                                                 r"outside \[0, 1\]$"):
                Fragment(var("IsA(x,c)"), parents, table)

    def test_table_is_a_read_only_copy(self):
        table = np.array([0.2, 0.9])
        frag = Fragment(var("IsA(x,b)"), [var("IsA(x,a)")], table)
        table[0] = 0.5
        assert frag.cpf.tolist() == [0.2, 0.9] and not frag.cpf.flags.writeable

    @pytest.mark.parametrize("fragment, reason", [
        ("FRAGMENT\tIsA(x,a)\t-\tabc\t-", "could not convert"),
        ("FRAGMENT\tIsA(x,a)\t-\t0.5 0.5\t-", "must have 1 rows"),
        ("FRAGMENT\tIsA(x,a\t-\t0.5\t-", "bad variable syntax"),
        ("FRAGMENT\tIsA(x,a)\t-\tnan\t-", "outside \\[0, 1\\]"),
        ("FRAGMENT\tIsA(x,b)\t-\t0.5\t-", "fragment IsA\\(x,b\\) declared twice"),
        ("FRAGMENT\tIsA(x,c)\tIsA(x,b),IsA(x,b)\t0.1 0.5 0.6 0.9\t-",
         "fragment IsA\\(x,c\\): parent IsA\\(x,b\\) is listed twice"),
        ("FRAGMENT\tIsA(x,a)\t-\t0.5\tfrozen", "flag must be '-', got 'frozen'"),
        ("FRAGMENT\tIsA(x,a)\t-\t0.5\tx", "flag must be '-', got 'x'"),
    ])
    def test_malformed_fragment_names_its_line(self, tmp_path, fragment, reason):
        path = tmp_path / "model.tsv"
        path.write_text(f"{MODEL_HEAD}{fragment}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"bad model record on line {HEAD_LINES + 1}: "
                                             f".*{reason}"):
            read_model(path)

    @pytest.mark.parametrize("record, reason", [
        # a fragment variable whose predicate has no SIG record, or another arity
        ("FRAGMENT\tMadeOf(x,a)\t-\t0.5\t-", "MadeOf\\(x,a\\): predicate 'MadeOf' has no SIG record"),
        ("FRAGMENT\tIsA(x,a,b)\t-\t0.5\t-", "IsA\\(x,a,b\\): IsA takes 2 arguments"),
        ("FRAGMENT\tIsA(x)\t-\t0.5\t-", "IsA\\(x\\): IsA takes 2 arguments"),
        # a first argument that is neither x nor an entity of the first type
        ("FRAGMENT\tIsA(a,b)\t-\t0.5\t-", "IsA\\(a,b\\): 'a' is no entity of type 'object'"),
        ("FRAGMENT\tIsA(y,b)\t-\t0.5\t-", "IsA\\(y,b\\): 'y' is no entity of type 'object'"),
        # another argument that is x, no entity, or an entity of another type
        ("FRAGMENT\tIsA(x,x)\t-\t0.5\t-", "IsA\\(x,x\\): 'x' is no entity of type 'concept'"),
        ("FRAGMENT\tIsA(x,z)\t-\t0.5\t-", "IsA\\(x,z\\): 'z' is no entity of type 'concept'"),
        ("FRAGMENT\tIsA(x,u)\t-\t0.5\t-", "IsA\\(x,u\\): 'u' is no entity of type 'concept'"),
        ("FRAGMENT\tUsedFor(o,a)\t-\t0.5\t-",
         "UsedFor\\(o,a\\): 'a' is no entity of type 'affordance'"),
        # a parent is checked as a child is
        ("FRAGMENT\tIsA(x,c)\tIsA(x,z)\t0.1 0.9\t-", "IsA\\(x,z\\): 'z' is no entity"),
        # a declaration must name declared types and be new
        ("ENTITY\tq\tgadget", "entity 'q' has undeclared type 'gadget'"),
        ("ENTITY\tq\tconcept,", "entity 'q' has undeclared type ''"),
        ("SIG\tMadeOf\tobject\tstuff", "predicate 'MadeOf' has undeclared type 'stuff'"),
        ("ENTITY\ta\tconcept", "entity 'a' declared twice"),
        ("SIG\tIsA\tobject\tconcept", "predicate 'IsA' declared twice"),
    ])
    def test_declaration_break_names_its_line(self, tmp_path, record, reason):
        path = tmp_path / "model.tsv"
        path.write_text(f"{MODEL_HEAD}{record}\nFRAGMENT\tIsA(x,c)\t-\t0.5\t-\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"^bad model record on line {HEAD_LINES + 1}: "
                                             f"{reason}"):
            read_model(path)

    def test_record_may_use_only_what_is_declared_above_it(self, tmp_path):
        path = tmp_path / "model.tsv"
        path.write_text(f"{MODEL_HEAD}FRAGMENT\tIsA(x,c)\tIsA(x,d)\t0.1 0.9\t-\n"
                        "ENTITY\td\tconcept\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^bad model record on line {HEAD_LINES + 1}: "
                                             "IsA\\(x,d\\): 'd' is no entity of type"):
            read_model(path)
        path.write_text(f"{MODEL_HEAD}ENTITY\td\tconcept\n"
                        "FRAGMENT\tIsA(x,c)\tIsA(x,d)\t0.1 0.9\t-\n"
                        "FRAGMENT\tIsA(o,a)\t-\t0.5\t-\n", encoding="utf-8")
        decl, fragments = read_model(path)
        assert decl.entities["d"] == frozenset({"concept"})
        assert [str(f.child) for f in fragments] == ["IsA(x,b)", "IsA(x,c)", "IsA(o,a)"]


@settings(max_examples=300)
@given(data=st.data())
def test_model_reader_refuses_with_a_line_number(data, tmp_path_factory):
    """Malformed records and declaration breaks alike name their line."""
    lines = [*MODEL_HEAD.splitlines(), "FRAGMENT\tIsA(x,c)\tIsA(x,b)\t0.1 0.9\t-",
             "FRAGMENT\tUsedFor(x,u)\tIsA(x,b),IsA(x,c)\t0.1 0.2 0.3 0.4\t-"]
    fields = ["TYPE", "SIG", "ENTITY", "FRAGMENT", "object", "concept", "room", "a", "u", "x",
              "z", "concept,affordance", "IsA(x,a)", "IsA(a,x)", "IsA(o,a)", "IsA(x,a,b)",
              "MadeOf(x,a)", "UsedFor(x,a)", "IsA(x,a", "IsA(x,a),IsA(x,b)", "-", "0.5",
              "0.5 0.5", "nan", "2", "abc", "frozen", ""]
    lines = data.draw(edited_lines(lines, fields))
    read = file_reader(read_model, tmp_path_factory.getbasetemp() / "model.tsv")
    check_refusal(read, lines, ValueError, r"^bad model record on line (\d+): ")
