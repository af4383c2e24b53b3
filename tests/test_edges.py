"""Relation dump ingestion, filtering, and weight normalization."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet.edges import (
    ConceptEdge,
    DegenerateScaleError,
    EdgeStore,
    RelationType,
    filter_multiword,
    ingest_edges,
    normalized_weight,
)

from conftest import bundled, ingest_edges_oracle


def uri_line(rel, start, end, weight=None, lang="en"):
    meta = json.dumps({"weight": weight}) if weight is not None else "{}"
    return (f"/a/[/r/{rel}/,/c/{lang}/{start}/,/c/{lang}/{end}/]"
            f"\t/r/{rel}\t/c/{lang}/{start}\t/c/{lang}/{end}\t{meta}")


class TestIngest:
    def test_used_for_line(self):
        store = ingest_edges(uri_line("UsedFor", "stove", "heat", 2.0))
        assert len(store) == 1
        edge = store.edges[0]
        assert edge.start == "stove"
        assert edge.relation is RelationType.UsedFor
        assert edge.end == "heat"
        assert edge.weight == 2.0

    def test_unknown_relation_dropped(self):
        store = ingest_edges(uri_line("Antonym", "hot", "cold", 1.0))
        assert len(store) == 0
        assert store.skipped_lines == 0  # silent drop, not an error

    def test_language_filter(self):
        lines = "\n".join([uri_line("UsedFor", "pan", "fry", 1.0),
                           uri_line("UsedFor", "poele", "frire", 1.0, lang="fr")])
        store = ingest_edges(lines)
        assert [edge.start for edge in store.edges] == ["pan"]
        assert store.skipped_lines == 0  # a non-English line is dropped, not malformed

    def test_simplified_four_column_layout(self):
        store = ingest_edges("AtLocation\tSock Drawer\tdresser\t1.5")
        edge = store.edges[0]
        assert edge.start == "sock_drawer"  # spaces normalized
        assert edge.weight == 1.5

    def test_default_weight_when_metadata_lacks_it(self):
        store = ingest_edges(uri_line("IsA", "pan", "cookware"))
        assert store.edges[0].weight == 1.0

    def test_malformed_lines_skipped_and_counted(self):
        lines = "\n".join([
            "/a/x\t/r/UsedFor\t/c/en/a",          # too few columns
            uri_line("UsedFor", "a", "b", 1.0) + "x",  # broken json
            uri_line("UsedFor", "pan", "fry", 2.0),
        ])
        store = ingest_edges(lines)
        assert len(store) == 1
        assert store.skipped_lines == 2

    @pytest.mark.parametrize("weight", ["null", "[2.0]", "Infinity", "NaN",
                                        pytest.param("1" + "0" * 400, id="huge-int")])
    def test_bad_metadata_weight_skipped_and_counted(self, weight):
        bad = uri_line("UsedFor", "a", "b").replace("{}", f'{{"weight": {weight}}}')
        store = ingest_edges([bad, uri_line("UsedFor", "pan", "fry", 2.0)])
        assert [edge.start for edge in store.edges] == ["pan"]
        assert store.skipped_lines == 1
        assert normalized_weight(store.edges[0], store) == 1.0

    @pytest.mark.parametrize("weight", ["inf", "nan", "1e400"])
    def test_bad_four_column_weight_skipped_and_counted(self, weight):
        store = ingest_edges([f"UsedFor\ta\tb\t{weight}", "UsedFor\tpan\tfry\t2.0"])
        assert [edge.start for edge in store.edges] == ["pan"]
        assert store.skipped_lines == 1
        assert normalized_weight(store.edges[0], store) == 1.0

    def test_self_located_concept_rejected(self):
        store = ingest_edges(uri_line("AtLocation", "box", "box", 1.0))
        assert len(store) == 0
        assert store.skipped_lines == 1

    def test_duplicates_merge_keeping_max_weight(self):
        lines = "\n".join([uri_line("UsedFor", "broom", "sweep", 3.0),
                           uri_line("UsedFor", "broom", "sweep", 6.0),
                           uri_line("UsedFor", "broom", "sweep", 4.0)])
        store = ingest_edges(lines)
        assert len(store) == 1
        assert store.edges[0].weight == 6.0

    def test_bundled_dump_matches_grep_oracle(self, raw_store):
        """Retained-edge count re-derived by a minimal line scan."""
        keep = {"IsA", "AtLocation", "HasProperty", "UsedFor"}
        triples = set()
        with open(bundled("conceptnet.tsv"), encoding="utf-8") as handle:
            for line in handle:
                cols = line.rstrip("\n").split("\t")
                if len(cols) == 5:
                    rel = cols[1].removeprefix("/r/")
                    start, end = cols[2].split("/"), cols[3].split("/")
                    if (rel in keep and len(start) > 3 and len(end) > 3
                            and start[2] == "en" and end[2] == "en"):
                        try:
                            json.loads(cols[4])
                        except ValueError:
                            continue
                        if not (rel == "AtLocation" and start[3] == end[3]):
                            triples.add((rel, start[3], end[3]))
                elif len(cols) == 4 and cols[0] in keep:
                    triples.add((cols[0], cols[1], cols[2]))
        assert len(raw_store) == len(triples)

    def test_ingest_deterministic(self):
        text = open(bundled("conceptnet.tsv"), encoding="utf-8").read()
        first = ingest_edges(text)
        second = ingest_edges(text)
        assert first.edges == second.edges


# Random dump lines: both layouts with drawn columns, metadata of any JSON type
# (weights among them: NaN and Infinity as Python's json module writes them,
# null, lists, huge integers), and free text of any column count.  Valid
# values are drawn more often than junk, so that most lists keep some edges.
def mostly(valid, junk):
    return st.one_of(*[valid] * 7, junk)


TERMS = mostly(st.sampled_from(["pan", "stove", "sock_drawer", "Kitchen Sink", "x"]),
               st.text(max_size=8))
RELATION_NAMES = mostly(st.sampled_from(["IsA", "AtLocation", "HasProperty", "UsedFor"]),
                        st.sampled_from(["Antonym", ""]) | st.text(max_size=6))
LANGUAGES = mostly(st.just("en"), st.sampled_from(["fr", ""]) | st.text(max_size=3))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6)
METADATA = mostly(
    mostly(st.fixed_dictionaries({"weight": mostly(st.floats(0, 10), JSON_VALUES)}),
           JSON_VALUES).map(json.dumps),
    st.text(max_size=8))
WEIGHT_TEXTS = mostly(st.floats(0, 10).map(repr),
                      st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "null", "-1",
                                       "1e400", ""]) | st.floats().map(repr) | st.text(max_size=6))


@st.composite
def dump_lines(draw):
    layout = draw(st.sampled_from(["uri", "uri", "fixture", "fixture", "free"]))
    if layout == "uri":
        lang = draw(LANGUAGES)
        cols = ["/a/x", f"/r/{draw(RELATION_NAMES)}", f"/c/{lang}/{draw(TERMS)}",
                f"/c/{lang}/{draw(TERMS)}", draw(METADATA)]
    elif layout == "fixture":
        cols = [draw(RELATION_NAMES), draw(TERMS), draw(TERMS), draw(WEIGHT_TEXTS)]
    else:
        cols = draw(st.lists(st.text(max_size=8), max_size=6))
    return "\t".join(cols)


@settings(max_examples=200)
@given(st.lists(dump_lines(), max_size=12))
def test_ingest_never_raises_and_keeps_finite_weights(lines):
    store = ingest_edges("\n".join(lines))
    for edge in store.edges:
        assert math.isfinite(edge.weight) and edge.weight >= 0
        if store.max_weight[edge.relation] > 0:
            assert 0.0 <= normalized_weight(edge, store) <= 1.0
        else:  # every edge of the relation weighs 0: the typed refusal, not a NaN
            with pytest.raises(DegenerateScaleError):
                normalized_weight(edge, store)


# Dumps drawn from small pools of relation labels, concept URIs and weight or
# metadata texts, so the same token recurs across lines, as in a real dump;
# malformed lines (wrong column counts, bad URIs, bad JSON) are mixed in.
POOL_RELATIONS = ["/r/UsedFor", "/r/IsA", "/r/Antonym", "UsedFor", " usedfor ", "/r/IsA/"]
POOL_URIS = ["/c/en/pan", "/c/en/stove", "/c/en/pan/n", "/c/en/Stove", "/c/fr/poele",
             "/c/en/", "/x/en/pan"]
POOL_TERMS = ["pan", "stove", "Stove", " pan", "", "x"]
POOL_METADATA = ['{"weight": 2.0}', '{"weight": 1.0}', '{"weight": 0.0}', '{}', "",
                 '{"weight": null}', '{"weight": 3}', "[1]", "{broken", '{"weight": 2}']
POOL_WEIGHTS = ["2.0", "1", "0", "3", "-1", "nan", "inf", "two", ""]


@st.composite
def pooled_lines(draw):
    layout = draw(st.sampled_from(["uri", "uri", "uri", "fixture", "fixture", "junk"]))
    if layout == "uri":
        cols = [draw(st.sampled_from(["/a/1", "/a/2"])), draw(st.sampled_from(POOL_RELATIONS)),
                draw(st.sampled_from(POOL_URIS)), draw(st.sampled_from(POOL_URIS)),
                draw(st.sampled_from(POOL_METADATA))]
    elif layout == "fixture":
        cols = [draw(st.sampled_from(POOL_RELATIONS)), draw(st.sampled_from(POOL_TERMS)),
                draw(st.sampled_from(POOL_TERMS)), draw(st.sampled_from(POOL_WEIGHTS))]
    else:
        cols = draw(st.sampled_from([["# comment"], ["", ""], ["/a/x", "/r/IsA", "/c/en/pan"],
                                     ["IsA", "a", "b", "1", "extra", "cols"], ["   "]]))
    return "\t".join(cols)


@settings(max_examples=150)
@given(st.lists(pooled_lines(), max_size=25))
def test_ingest_equals_line_by_line_oracle(lines):
    """Parsing each distinct token once gives the edges, order and counts of a full parse."""
    text = "\n".join(lines)
    edges, skipped = ingest_edges_oracle(text)
    store = ingest_edges(text)
    assert store.edges == edges
    assert store.skipped_lines == skipped
    by_start = {}
    for edge in edges:
        by_start.setdefault((edge.start, edge.relation), []).append(edge)
    assert store.by_start == by_start
    assert list(store.by_start) == list(by_start)
    assert store.max_weight == {r: max(e.weight for e in edges if e.relation is r)
                                for r in dict.fromkeys(e.relation for e in edges)}


def test_bundled_dump_equals_line_by_line_oracle(raw_store):
    with open(bundled("conceptnet.tsv"), encoding="utf-8") as handle:
        edges, skipped = ingest_edges_oracle(handle.read())
    assert raw_store.edges == edges
    assert raw_store.skipped_lines == skipped == 2


class TestWeightlessRelation:
    """A relation whose kept weights are all 0 has no strength to scale."""

    def test_dropped_and_counted(self):
        store = ingest_edges([uri_line("UsedFor", "pan", "fry", 0.0),
                              uri_line("UsedFor", "pot", "boil", 0.0),
                              uri_line("IsA", "pan", "cookware", 0.0),
                              uri_line("IsA", "pot", "cookware", 2.0),
                              "broken line"])
        assert [(e.start, e.relation) for e in store.edges] == [("pan", RelationType.IsA),
                                                                ("pot", RelationType.IsA)]
        assert store.skipped_lines == 3
        assert RelationType.UsedFor not in store.max_weight
        assert normalized_weight(store.edges[0], store) == 0.0

    def test_dropped_when_multiword_filter_leaves_only_zeros(self, lexicon):
        store = ingest_edges([uri_line("UsedFor", "food", "satisfy_hunger", 3.0),
                              uri_line("UsedFor", "food", "eat", 0.0)])
        assert len(store) == 2
        kept = filter_multiword(store, lexicon)
        assert kept.edges == []
        assert kept.skipped_lines == 1


class TestFilterMultiword:
    def test_free_phrase_removed(self, lexicon):
        store = ingest_edges(uri_line("UsedFor", "food", "satisfy_hunger", 1.0))
        assert len(filter_multiword(store, lexicon)) == 0

    def test_lexicon_lemma_kept(self, lexicon):
        store = ingest_edges(uri_line("IsA", "kitchen_roll", "paper_towel", 1.0))
        kept = filter_multiword(store, lexicon)
        assert len(kept) == 1  # paper_towel is a single lexicon concept

    def test_start_terms_never_filtered(self, lexicon):
        store = ingest_edges(uri_line("AtLocation", "paper_towel", "kitchen", 1.0))
        assert len(filter_multiword(store, lexicon)) == 1

    def test_numeric_token_not_a_phrase(self, lexicon):
        store = ingest_edges(uri_line("IsA", "x", "route_66", 1.0))
        assert not lexicon.has_lemma("route_66")
        assert len(filter_multiword(store, lexicon)) == 1

    def test_removed_set_matches_predicate_oracle(self, raw_store, lexicon):
        kept = filter_multiword(raw_store, lexicon)
        kept_keys = {(e.start, e.relation, e.end) for e in kept.edges}
        for e in raw_store.edges:
            tokens = e.end.split("_")
            phrase = any(a.isalpha() and b.isalpha()
                         for a, b in zip(tokens, tokens[1:]))
            expect_removed = phrase and not lexicon.has_lemma(e.end)
            assert ((e.start, e.relation, e.end) not in kept_keys) == expect_removed

    def test_idempotent(self, raw_store, lexicon):
        once = filter_multiword(raw_store, lexicon)
        twice = filter_multiword(once, lexicon)
        assert once.edges == twice.edges

    def test_bundled_dump_content(self, store):
        assert not store.has_edge("food", RelationType.UsedFor, "satisfy_hunger")
        assert store.has_edge("food", RelationType.AtLocation, "store")
        assert store.has_edge("broom", RelationType.UsedFor, "sweep")


class TestNormalizedWeight:
    def test_max_weight_edge_scores_one(self, store):
        for relation, scale in store.max_weight.items():
            tops = [e for e in store.edges
                    if e.relation is relation and e.weight == scale]
            assert tops
            assert normalized_weight(tops[0], store) == 1.0

    def test_forced_ratio(self):
        store = EdgeStore([
            ConceptEdge("a", RelationType.UsedFor, "b", 1.0),
            ConceptEdge("c", RelationType.UsedFor, "d", 4.0),
        ])
        assert normalized_weight(store.edges[0], store) == 0.25

    def test_all_bundled_edges_in_unit_range(self, store):
        for e in store.edges:
            value = normalized_weight(e, store)
            assert 0.0 <= value <= 1.0
            assert value == pytest.approx(e.weight / store.max_weight[e.relation])

    def test_zero_scale_rejected(self):
        store = EdgeStore([ConceptEdge("a", RelationType.IsA, "b", 0.0)])
        with pytest.raises(DegenerateScaleError):
            normalized_weight(store.edges[0], store)
