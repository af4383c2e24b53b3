"""Seed-word and relation-endpoint disambiguation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet.cli import load_seed_words
from situnet.disambiguation import (
    UnknownSeedError,
    UnknownTermError,
    build_wsp,
    disambiguate_edge,
    disambiguate_seeds,
)
from situnet.lexicon import parse_lexicon
from situnet.relatedness import EsaRelatedness, build_esa_index

from conftest import (
    WSP_SOURCE_KINDS,
    TableRelatedness,
    bundled,
    disambiguate_seeds_oracle,
    edge_cost,
    wsp_source_oracle,
)


def load_seed_file(name):
    path = bundled("seeds", name)
    return [w.strip() for w in open(path, encoding="utf-8") if w.strip()]


def oracle_greedy_tree(lexicon, words, start_sense_rank):
    """Independent re-statement of the greedy growth, O(n^3) rescans."""
    sense_lists = {w: lexicon.senses(w) for w in words}
    start = min(words, key=lambda w: (len(sense_lists[w]), words.index(w)))
    chosen = {start: sense_lists[start][start_sense_rank]}
    costs = {start: 0.0}
    while len(chosen) < len(words):
        candidates = []
        for w_pos, word in enumerate(words):
            if word in chosen:
                continue
            for rank, sense in enumerate(sense_lists[word]):
                best_anchor = min(edge_cost(lexicon, sense, anchor)
                                  for anchor in chosen.values())
                candidates.append((best_anchor, w_pos, rank, word, sense))
        candidates.sort(key=lambda c: c[:3])
        cost, _, _, word, sense = candidates[0]
        chosen[word] = sense
        costs[word] = cost
    return chosen, sum(costs.values())


def oracle_best_over_start_senses(lexicon, words):
    sense_lists = {w: lexicon.senses(w) for w in words}
    start = min(words, key=lambda w: (len(sense_lists[w]), words.index(w)))
    best = None
    for rank in range(len(sense_lists[start])):
        chosen, total = oracle_greedy_tree(lexicon, words, rank)
        if best is None or total < best[1]:
            best = (chosen, total)
    return best


def mst_cost_for_fixed_senses(lexicon, senses):
    """Prim over a complete graph with all senses pinned."""
    nodes = list(senses)
    in_tree = {nodes[0]}
    total = 0.0
    while len(in_tree) < len(nodes):
        cost, nxt = min(
            (min(edge_cost(lexicon, senses[a], senses[b]) for b in in_tree), a)
            for a in nodes if a not in in_tree)
        total += cost
        in_tree.add(nxt)
    return total


SMALL_SETS = ("wsd_kitchen.txt", "wsd_laundry.txt", "wsd_cleaning.txt", "wsd_mixed.txt")


class TestDisambiguateSeeds:
    def test_single_seed_single_sense(self, lexicon):
        assignment = disambiguate_seeds(["garlic"], lexicon)
        assert assignment.total_cost == 0.0
        assert assignment.sense_of("garlic") == lexicon.senses("garlic")[0].id

    def test_pan_stove_garlic_resolves_cooking_sense(self, lexicon):
        assignment = disambiguate_seeds(["pan", "stove", "garlic"], lexicon)
        chosen = lexicon.get(assignment.sense_of("pan"))
        assert "cooking utensil" in chosen.gloss

    def test_recipe_scenario_resolves_pan_to_cooking(self, lexicon):
        assignment = disambiguate_seeds(load_seed_file("recipe.txt"), lexicon)
        chosen = lexicon.get(assignment.sense_of("pan"))
        assert "cooking utensil" in chosen.gloss

    @pytest.mark.parametrize("seed_file", SMALL_SETS)
    def test_small_sets_match_exhaustive_oracle(self, lexicon, seed_file):
        words = load_seed_file(seed_file)
        assert len(words) <= 5
        assignment = disambiguate_seeds(words, lexicon)
        chosen, total = oracle_best_over_start_senses(lexicon, words)
        assert assignment.total_cost == pytest.approx(total)
        assert {w: s.id for w, s in chosen.items()} == \
            {w: assignment.sense_of(w) for w in words}

    @pytest.mark.parametrize("seed_file", SMALL_SETS)
    def test_cost_not_above_any_full_combination(self, lexicon, seed_file):
        words = load_seed_file(seed_file)
        assignment = disambiguate_seeds(words, lexicon)
        sense_lists = [lexicon.senses(w) for w in words]
        for combo in itertools.product(*sense_lists):
            senses = dict(zip(words, combo))
            assert assignment.total_cost <= \
                mst_cost_for_fixed_senses(lexicon, senses) + 1e-12

    def test_unknown_seed_raises_with_name(self, lexicon):
        with pytest.raises(UnknownSeedError) as err:
            disambiguate_seeds(["pan", "zzz"], lexicon)
        assert err.value.word == "zzz"

    def test_choices_carry_attachment_costs(self, lexicon):
        assignment = disambiguate_seeds(["pan", "pot", "garlic"], lexicon)
        non_start = [c for w, (s, c) in assignment.choices.items()
                     if w != assignment.start_word]
        assert assignment.total_cost == pytest.approx(sum(non_start))
        assert assignment.choices[assignment.start_word][1] == 0.0

    def test_chosen_synsets_list_their_seed(self, lexicon):
        assignment = disambiguate_seeds(load_seed_file("recipe.txt"), lexicon)
        for word, (sid, _) in assignment.choices.items():
            assert word in lexicon.get(sid).lemmas

    def test_deterministic(self, lexicon):
        words = load_seed_file("cleaning.txt")
        first = disambiguate_seeds(words, lexicon)
        second = disambiguate_seeds(words, lexicon)
        assert first.choices == second.choices

    def test_permutation_keeps_total_cost(self, lexicon):
        # pot is the unique single-sense minimum here, so the start word
        # survives any permutation and the attachment cost set is stable
        words = ["pan", "washer", "pot"]
        base = disambiguate_seeds(words, lexicon)
        for perm in itertools.permutations(words):
            other = disambiguate_seeds(list(perm), lexicon)
            assert other.start_word == "pot"
            assert other.total_cost == pytest.approx(base.total_cost)
            assert sorted(c for _, c in other.choices.values()) == \
                pytest.approx(sorted(c for _, c in base.choices.values()))


# every word of the three scenario seed files; mixes of up to 45 words
# reach the tie order of large seed trees
SEED_POOL = list(dict.fromkeys(
    w for name in ("recipe.txt", "laundry.txt", "cleaning.txt") for w in load_seed_file(name)))


class TestSeedTreeOracle:
    """Incremental seed-tree growth reproduces the cubic reference exactly."""

    @pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
    def test_bundled_scenario_equals_oracle(self, scenario_products, lexicon, name):
        config, products = scenario_products[name]
        reference = disambiguate_seeds_oracle(load_seed_words(config.seeds), lexicon)
        assert products.assignment.choices == reference.choices
        assert repr(products.assignment.total_cost) == repr(reference.total_cost)
        assert products.assignment.start_word == reference.start_word

    @settings(max_examples=80)
    @given(st.integers(3, len(SEED_POOL)).flatmap(
        lambda size: st.permutations(SEED_POOL).map(lambda words: words[:size])))
    def test_seed_mixes_equal_oracle(self, lexicon, seeds):
        ours = disambiguate_seeds(seeds, lexicon)
        reference = disambiguate_seeds_oracle(seeds, lexicon)
        assert ours.choices == reference.choices
        assert repr(ours.total_cost) == repr(reference.total_cost)
        assert ours.start_word == reference.start_word


class TestBuildWsp:
    def test_all_stopword_gloss_and_no_links(self):
        data = "00000001 03 n 01 thing 0 000 | a b\n"
        index = parse_lexicon("", data)
        assert build_wsp("00000001-n", index, stopwords={"a", "b", "thing"}) == []

    def test_pan_cooking_profile_contents(self, lexicon, stopwords):
        pan = lexicon.senses("pan")[0]
        profile = build_wsp(pan, lexicon, stopwords)
        assert "cooking_utensil" in profile  # hypernym lemma
        assert "metal" in profile            # gloss word
        assert "handle" in profile           # meronym lemma
        assert "frying_pan" in profile       # hyponym lemma

    def test_no_stopwords_or_empties(self, lexicon, stopwords):
        for word in ("pan", "iron", "sponge", "washer"):
            for sense in lexicon.senses(word):
                profile = build_wsp(sense, lexicon, stopwords)
                assert all(w and w not in stopwords for w in profile)
                assert len(profile) == len(set(profile))

    def test_equals_source_union_oracle(self, lexicon, stopwords):
        for sid in lexicon.synsets:
            expected = []
            for kind in WSP_SOURCE_KINDS:
                for w in wsp_source_oracle(lexicon, sid, kind, stopwords):
                    if w not in expected and w not in stopwords:
                        expected.append(w)
            assert build_wsp(sid, lexicon, stopwords) == expected


class TestDisambiguateEdge:
    def test_single_sense_needs_no_provider(self, lexicon):
        chosen, _ = disambiguate_edge("anything", "garlic", lexicon,
                                      TableRelatedness({}))
        assert chosen == lexicon.senses("garlic")[0].id

    def test_kitchen_provider_selects_cooking_pan(self, lexicon, stopwords):
        kitchen_words = ["cooking", "utensil", "metal", "vessel", "cooking_utensil",
                         "frying_pan", "saucepan", "cookware"]
        provider = TableRelatedness({("stove", w): 1.0 for w in kitchen_words})
        chosen, score = disambiguate_edge("stove", "pan", lexicon, provider, stopwords)
        assert "cooking utensil" in lexicon.get(chosen).gloss
        assert score > 0

    def test_unknown_term_raises(self, lexicon):
        with pytest.raises(UnknownTermError):
            disambiguate_edge("stove", "zzz", lexicon, TableRelatedness({}))

    def test_matches_argmax_oracle(self, lexicon, stopwords, provider):
        pairs = [("fry", "pan"), ("worship", "pan"), ("kitchen", "pan"),
                 ("press", "iron"), ("bond", "iron"), ("scrub", "sponge"),
                 ("filter", "sponge"), ("hide", "brush"), ("wash", "washer"),
                 ("seal", "washer")]
        for context, term in pairs:
            chosen, score = disambiguate_edge(context, term, lexicon,
                                              provider, stopwords)
            scores = {}
            for sense in lexicon.senses(term):
                scores[sense.id] = sum(provider.score(context, w)
                                       for w in build_wsp(sense, lexicon, stopwords))
            best = max(scores.values())
            expected = next(s.id for s in lexicon.senses(term)
                            if scores[s.id] == best)
            assert chosen == expected
            assert score == pytest.approx(scores[chosen])

    def test_returned_score_is_profile_sum(self, lexicon, stopwords, provider):
        chosen, score = disambiguate_edge("fry", "pan", lexicon, provider, stopwords)
        assert score == pytest.approx(sum(provider.score("fry", w)
                                          for w in build_wsp(chosen, lexicon, stopwords)))

    def test_scaling_provider_keeps_argmax(self, lexicon, stopwords, provider):
        class Scaled:
            def __init__(self, base, factor):
                self.base, self.factor = base, factor

            def score(self, a, b):
                return self.factor * self.base.score(a, b)

        for term, context in (("pan", "fry"), ("iron", "press"), ("washer", "seal")):
            base_choice, _ = disambiguate_edge(context, term, lexicon,
                                               provider, stopwords)
            for factor in (0.25, 3.0):
                scaled_choice, _ = disambiguate_edge(
                    context, term, lexicon, Scaled(provider, factor), stopwords)
                assert scaled_choice == base_choice


class TestStopwords:
    """What the stopword list does: it drops words from the ESA index and the profiles."""

    def test_listed_word_gets_no_vector_and_leaves_every_profile(self, lexicon, documents,
                                                                 stopwords):
        # the bundled corpus holds no listed word, so one more document holds them all
        documents = [*documents, ("listed", "kitchen " + " ".join(sorted(stopwords)))]
        plain = build_esa_index(documents)
        index = build_esa_index(documents, stopwords=stopwords)
        assert {w for w in stopwords if len(w) > 1} <= set(plain.vectors)
        assert index.vectors == {word: vector for word, vector in plain.vectors.items()
                                 if word not in stopwords}
        reached = set()
        for sid in lexicon.synsets:
            profile = build_wsp(sid, lexicon)
            reached |= stopwords & set(profile)
            assert build_wsp(sid, lexicon, stopwords) == [w for w in profile
                                                          if w not in stopwords]
        assert reached  # the bundled glosses hold listed words

    def test_one_stopword_in_a_gloss_flips_the_edge_sense(self):
        # "bank" is money (rank 1) or an edge, whose gloss holds "the"; the corpus
        # relates "water" to "the" more than to "money"
        data = ("00000001 03 n 01 bank 0 000 | money\n"
                "00000002 03 n 01 bank 0 000 | the edge\n")
        lexicon = parse_lexicon("bank n 2 0 2 0 00000001 00000002\n", data)
        documents = [("d0", "water the the"), ("d1", "money vault"), ("d2", "water money")]
        chosen = {}
        for label, stopwords in (("none", frozenset()), ("the", frozenset({"the"}))):
            provider = EsaRelatedness(build_esa_index(documents, stopwords=stopwords))
            chosen[label], _ = disambiguate_edge("water", "bank", lexicon, provider, stopwords)
        assert chosen == {"none": "00000002-n", "the": "00000001-n"}
