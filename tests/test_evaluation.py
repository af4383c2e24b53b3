"""Scenario queries, thresholding, and accuracy scoring."""

import re
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet import bln
from situnet.bln import AbstractVar, Declaration, Fragment, ground
from situnet.edges import RelationType
from situnet.evaluation import (
    OBJECT,
    AccuracyReport,
    GoldCoverageError,
    GoldStandard,
    MissingVariableError,
    format_report,
    load_gold,
    machine_report,
    run_scenario,
    score,
)

from conftest import (
    ancestral_closure,
    bundled,
    check_refusal,
    edited_lines,
    every_variable_gold,
    file_reader,
    gibbs_estimates_oracle,
    lw_estimates_oracle,
)


def var(text):
    return AbstractVar.parse(text)


def food_container_model():
    """IsA(x,food) drives AtLocation(x,container) with a certain rule."""
    decl = Declaration(
        types=frozenset({"object", "concept", "location"}),
        signatures={"IsA": ("object", "concept"),
                    "AtLocation": ("object", "location")},
        entities={"food": frozenset({"concept"}),
                  "container": frozenset({"location"})})
    fragments = [
        Fragment(var("IsA(x,food)"), [], np.array([0.3])),
        Fragment(var("AtLocation(x,container)"), [var("IsA(x,food)")],
                 np.array([0.0, 1.0])),
    ]
    return decl, fragments


FOOD_GOLD = GoldStandard({("food", RelationType.IsA, "food"): True,
                          ("food", RelationType.AtLocation, "container"): True}, {})


def restricted(results, gold):
    return {key: prob for key, prob in results.items() if key in gold.relation_labels}


def triple(seed_word, name):
    var = AbstractVar.parse(name)
    return seed_word, RelationType(var.predicate), var.args[1]


def sampler_oracle_results(model, seeds, gold, run):
    """``run_scenario``'s LW or Gibbs results by the sampler oracles, and a gold
    that also labels every other variable of each seed's closure."""
    net = ground(*model, [OBJECT])
    n_samples = run.get("n_samples", 20_000)
    results, wider = {}, dict(gold.relation_labels)
    for position, word in enumerate(seeds):
        queries = [name for name in net.names if triple(word, name) in gold.relation_labels]
        if not queries:
            continue
        evidence = {f"IsA({OBJECT},{word})": True}
        seed = run["seed"] + position
        if run["method"] == "lw":
            oracle = lw_estimates_oracle(net, queries, evidence, n_samples, seed)
        else:
            oracle = gibbs_estimates_oracle(net, queries, evidence, run["burn_in"], n_samples,
                                            seed, 512)
        results.update((triple(word, q), oracle[q]) for q in queries)
        for v in ancestral_closure(net, [*queries, *evidence]):
            wider.setdefault(triple(word, net.names[v]), True)
    return results, GoldStandard(wider, gold.sense_labels)


class TestRunScenario:
    def test_evidence_variable_scores_one(self):
        results = run_scenario(*food_container_model(), ["food"], FOOD_GOLD, method="exact")
        assert results[("food", RelationType.IsA, "food")] == 1.0

    def test_certain_rule_transfers_probability_one(self):
        results = run_scenario(*food_container_model(), ["food"], FOOD_GOLD, method="exact")
        assert results[("food", RelationType.AtLocation, "container")] == 1.0

    def test_missing_seed_variable_named(self):
        gold = every_variable_gold(*food_container_model(), ["zeppelin"])
        with pytest.raises(MissingVariableError) as err:
            run_scenario(*food_container_model(), ["zeppelin"], gold, method="exact")
        assert err.value.seed == "zeppelin"

    def test_unlabeled_seed_without_variable_still_named(self):
        with pytest.raises(MissingVariableError) as err:
            run_scenario(*food_container_model(), ["food", "zeppelin"], FOOD_GOLD,
                         method="exact")
        assert err.value.seed == "zeppelin"

    def test_labeled_triple_outside_network_fails_scoring(self):
        missing = ("food", RelationType.AtLocation, "moon")
        gold = GoldStandard({**FOOD_GOLD.relation_labels, missing: True}, {})
        results = run_scenario(*food_container_model(), ["food"], gold, method="exact")
        assert list(results) == list(FOOD_GOLD.relation_labels)
        with pytest.raises(GoldCoverageError) as err:
            score(results, gold)
        assert err.value.missing == {missing}
        assert "(food, AtLocation, moon)" in str(err.value)

    def test_matches_per_query_oracle_exact(self, scenario_products):
        # oracle: one grounding, queried variable by variable
        _, products = scenario_products["mini"]
        seeds = list(products.assignment.choices)
        gold = every_variable_gold(products.declaration, products.fragments, seeds)
        results = run_scenario(products.declaration, products.fragments, seeds, gold,
                               method="exact")
        solo = ground(products.declaration, products.fragments, ["obj1"])
        assert len(results) == len(seeds) * len(solo)
        for (seed, relation, target), prob in results.items():
            name = f"{relation.value}(obj1,{target})"
            direct = bln.infer_exact(solo, name, {f"IsA(obj1,{seed})": True})
            assert prob == pytest.approx(direct, abs=1e-12)

    def test_lw_and_gibbs_agree_with_exact(self, scenario_products):
        _, products = scenario_products["mini"]
        model = (products.declaration, products.fragments)
        seeds = list(products.assignment.choices)
        gold = every_variable_gold(*model, seeds)
        exact = run_scenario(*model, seeds, gold, method="exact")
        lw = run_scenario(*model, seeds, gold, method="lw", n_samples=50_000, seed=1)
        gibbs = run_scenario(*model, seeds, gold, method="gibbs", n_samples=50_000,
                             burn_in=500, seed=1)
        assert len(exact) == len(gold.relation_labels)
        for key in exact:
            assert abs(lw[key] - exact[key]) < 0.02, key
            assert abs(gibbs[key] - exact[key]) < 0.02, key

    @pytest.mark.parametrize("name, method, settings", [
        ("mini", "lw", {}),
        ("mini", "gibbs", {"n_samples": 1000, "burn_in": 0}),
        ("mini", "exact", {}),
        ("recipe", "lw", {}),
        ("laundry", "lw", {}),
        ("cleaning", "lw", {}),
    ])
    def test_gold_results_equal_every_variable_results(self, scenario_products, name,
                                                       method, settings):
        # oracle: for exact, every variable estimated for every seed, then
        # restricted; for the samplers, each seed's labelled variables asked
        # of the sampler oracle, which reduces the network by that batch
        config, products = scenario_products[name]
        model = (products.declaration, products.fragments)
        seeds = list(products.assignment.choices)
        gold = load_gold(config.gold)
        run = dict(method=method, seed=config.seed + 100, **settings)
        results = run_scenario(*model, seeds, gold, **run)
        if method != "exact":
            expected, wider = sampler_oracle_results(model, seeds, gold, run)
            assert len(wider.relation_labels) > len(gold.relation_labels)
            # labelling more of each closure asks the oracle the larger batch
            assert list(run_scenario(*model, seeds, wider, **run).items()) == \
                list(sampler_oracle_results(model, seeds, wider, run)[0].items())
        else:
            everything = run_scenario(*model, seeds, every_variable_gold(*model, seeds), **run)
            expected = restricted(everything, gold)
        assert list(results.items()) == list(expected.items())
        score(results, gold)  # every labeled triple is estimated

    def test_unlabeled_seed_keeps_the_others_offsets(self, scenario_products):
        config, products = scenario_products["recipe"]
        model = (products.declaration, products.fragments)
        seeds = list(products.assignment.choices)
        gold = load_gold(config.gold)
        dropped = GoldStandard({key: label for key, label in gold.relation_labels.items()
                                if key[0] != seeds[0]}, gold.sense_labels)
        assert len(dropped.relation_labels) < len(gold.relation_labels)
        full = run_scenario(*model, seeds, gold, seed=config.seed + 100)
        results = run_scenario(*model, seeds, dropped, seed=config.seed + 100)
        assert all(key[0] != seeds[0] for key in results)
        assert list(results.items()) == list(restricted(full, dropped).items())


# LW's largest error against exact on a gold-labelled triple, measured at
# the bundled 20 000 samples: 0.0072 / 0.0055 / 0.0040 (recipe / laundry / cleaning)
LW_ERROR_BOUND = 0.03


@pytest.mark.parametrize("name", ["recipe", "laundry", "cleaning"])
def test_lw_stays_near_exact_on_gold_triples(scenario_products, name):
    config, products = scenario_products[name]
    model = (products.declaration, products.fragments)
    seeds = list(products.assignment.choices)
    gold = load_gold(config.gold)
    assert config.samples == 20_000
    exact = run_scenario(*model, seeds, gold, method="exact")
    lw = run_scenario(*model, seeds, gold, method="lw", n_samples=config.samples,
                      seed=config.seed + 100)
    assert list(lw) == list(exact) and len(exact) == len(gold.relation_labels)
    worst = max(abs(lw[key] - exact[key]) for key in exact)
    assert worst < LW_ERROR_BOUND, worst


@pytest.mark.parametrize("name", ["mini", "recipe", "laundry", "cleaning"])
def test_lw_draws_few_configurations_on_gold_batches(scenario_products, name, monkeypatch):
    # LW's count pass keeps one row per distinct configuration; at the bundled
    # 20 000 samples a gold batch's median is 1 / 54 / 11 / 14 rows
    config, products = scenario_products[name]
    real, rows = bln.lw_sample, []

    def spy(*args):
        states, weights = real(*args)
        rows.append(len(states))
        return states, weights

    monkeypatch.setattr(bln, "lw_sample", spy)
    run_scenario(products.declaration, products.fragments, list(products.assignment.choices),
                 load_gold(config.gold), method="lw", n_samples=config.samples,
                 seed=config.seed + 100)
    assert rows and statistics.median(rows) <= config.samples / 100, sorted(rows)


# Gibbs's largest error against exact on a gold-labelled triple at 512
# chains, 2 560 samples and 5 burn-in sweeps: 0.0274 / 0.0294 / 0.0069
# (recipe / laundry / cleaning) at this seed, and at most 0.0452 / 0.0412 /
# 0.0222 over the master seeds seed + 100 + 1000 k, k = 0 .. 19
GIBBS_ERROR_BOUND = 0.06


@pytest.mark.parametrize("name", ["recipe", "laundry", "cleaning"])
def test_gibbs_stays_near_exact_on_gold_triples(scenario_products, name):
    config, products = scenario_products[name]
    model = (products.declaration, products.fragments)
    seeds = list(products.assignment.choices)
    gold = load_gold(config.gold)
    exact = run_scenario(*model, seeds, gold, method="exact")
    gibbs = run_scenario(*model, seeds, gold, method="gibbs", n_samples=2560, burn_in=5,
                         seed=config.seed + 100, n_chains=512)
    assert list(gibbs) == list(exact) and len(exact) == len(gold.relation_labels)
    worst = max(abs(gibbs[key] - exact[key]) for key in exact)
    assert worst < GIBBS_ERROR_BOUND, worst


def tiny_results():
    return {
        ("pan", RelationType.IsA, "utensil"): 0.9,
        ("pan", RelationType.IsA, "deity"): 0.2,
        ("pan", RelationType.UsedFor, "fry"): 0.7,
        ("pan", RelationType.AtLocation, "cupboard"): 0.5,
        ("garlic", RelationType.HasProperty, "pungent"): 0.6,
    }


class TestScore:
    def test_all_match_is_hundred(self):
        gold = GoldStandard({
            ("pan", RelationType.IsA, "utensil"): True,
            ("pan", RelationType.IsA, "deity"): False,
            ("pan", RelationType.UsedFor, "fry"): True,
        }, {})
        report = score(tiny_results(), gold)
        assert report.per_relation[RelationType.IsA] == 100.0
        assert report.per_relation[RelationType.UsedFor] == 100.0
        assert report.counts[RelationType.IsA] == (2, 2)

    def test_exactly_half_counts_as_false(self):
        gold = GoldStandard({("pan", RelationType.AtLocation, "cupboard"): False}, {})
        report = score(tiny_results(), gold)
        assert report.per_relation[RelationType.AtLocation] == 100.0
        gold_true = GoldStandard({("pan", RelationType.AtLocation, "cupboard"): True}, {})
        assert score(tiny_results(), gold_true).per_relation[RelationType.AtLocation] == 0.0

    def test_matches_hand_counted_oracle(self):
        gold = GoldStandard({
            ("pan", RelationType.IsA, "utensil"): True,    # 0.9 -> true, hit
            ("pan", RelationType.IsA, "deity"): True,      # 0.2 -> false, miss
            ("pan", RelationType.UsedFor, "fry"): False,   # 0.7 -> true, miss
            ("garlic", RelationType.HasProperty, "pungent"): True,  # hit
        }, {})
        report = score(tiny_results(), gold)
        assert report.per_relation[RelationType.IsA] == pytest.approx(50.0)
        assert report.per_relation[RelationType.UsedFor] == pytest.approx(0.0)
        assert report.per_relation[RelationType.HasProperty] == pytest.approx(100.0)
        assert report.counts[RelationType.IsA] == (1, 2)

    def test_missing_triples_reported(self):
        gold = GoldStandard({("pan", RelationType.IsA, "nonexistent"): True}, {})
        with pytest.raises(GoldCoverageError) as err:
            score(tiny_results(), gold)
        assert ("pan", RelationType.IsA, "nonexistent") in err.value.missing

    def test_iteration_order_invariance(self):
        gold = GoldStandard({
            ("pan", RelationType.IsA, "utensil"): True,
            ("pan", RelationType.IsA, "deity"): False,
        }, {})
        forward = score(tiny_results(), gold)
        reversed_results = dict(reversed(list(tiny_results().items())))
        backward = score(reversed_results, gold)
        assert forward.per_relation == backward.per_relation
        assert forward.counts == backward.counts

    def test_wsd_accuracy_from_assignment(self, scenario_products):
        _, products = scenario_products["recipe"]
        gold = load_gold(bundled("gold", "recipe.tsv"))
        results = {key: 1.0 if label else 0.0
                   for key, label in gold.relation_labels.items()}
        report = score(results, gold, products.assignment)
        assert report.wsd_accuracy == 100.0

    def test_wsd_counts_mismatches(self, scenario_products):
        _, products = scenario_products["recipe"]
        gold = load_gold(bundled("gold", "recipe.tsv"))
        wrong = dict(gold.sense_labels)
        wrong["pan"] = "bogus-synset"
        gold_wrong = GoldStandard(gold.relation_labels, wrong)
        results = {key: 1.0 if label else 0.0
                   for key, label in gold.relation_labels.items()}
        report = score(results, gold_wrong, products.assignment)
        expected = 100.0 * (len(wrong) - 1) / len(wrong)
        assert report.wsd_accuracy == pytest.approx(expected)


class TestReports:
    def make_reports(self):
        return {
            "recipe": AccuracyReport(
                per_relation={RelationType.IsA: 97.6, RelationType.AtLocation: 86.8,
                              RelationType.HasProperty: 82.0, RelationType.UsedFor: 88.1},
                wsd_accuracy=73.7,
                counts={r: (1, 1) for r in RelationType}),
            "laundry": AccuracyReport(
                per_relation={RelationType.IsA: 98.3, RelationType.AtLocation: 77.3,
                              RelationType.HasProperty: 88.9, RelationType.UsedFor: 89.5},
                wsd_accuracy=80.0,
                counts={r: (1, 1) for r in RelationType}),
            "cleaning": AccuracyReport(
                per_relation={RelationType.IsA: 98.6, RelationType.AtLocation: 72.7,
                              RelationType.HasProperty: 94.7, RelationType.UsedFor: 79.2},
                wsd_accuracy=81.8,
                counts={r: (1, 1) for r in RelationType}),
        }

    def test_table_layout(self):
        table = format_report(self.make_reports())
        lines = table.strip().splitlines()
        assert len(lines) == 4  # header plus one row per scenario
        assert lines[0].split() == ["Scenario", "IsA", "AtLocation",
                                    "HasProperty", "UsedFor", "WSD"]
        assert lines[1].split() == ["recipe", "97.6", "86.8", "82.0", "88.1", "73.7"]

    def test_machine_lines(self):
        lines = machine_report(self.make_reports()).strip().splitlines()
        assert "recipe\tIsA\t97.6" in lines
        assert "cleaning\tWSD\t81.8" in lines
        assert len(lines) == 15  # 3 scenarios x (4 relations + wsd)

    @pytest.mark.parametrize("record, reason", [
        ("REL\tpan\tMadeOf\tmetal\t1", "'MadeOf' is not a valid RelationType"),
        ("REL\tpan\tIsA\tutensil", "'REL"),
        ("REL\tpan\tIsA\tdeity\tyes", "label 'yes' is not 0 or 1"),
        ("REL\tpan\tIsA\tdeity\t0\nREL\tpan\tIsA\tdeity\t1",
         "(pan, IsA, deity) is labeled twice"),
        ("SENSE\tpan\tpan-2-n", "sense of 'pan' is labeled twice"),
    ])
    def test_malformed_gold_record_names_its_line(self, tmp_path, record, reason):
        path = tmp_path / "gold.tsv"
        path.write_text(f"SENSE\tpan\tpan-1-n\n{record}\n", encoding="utf-8")
        line = 2 + record.count("\n")  # the malformed record is the file's last line
        message = f"bad gold record on line {line}: {reason}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_gold(path)

    def test_gold_loader(self):
        gold = load_gold(bundled("gold", "recipe.tsv"))
        assert gold.relation_labels[("pan", RelationType.IsA, "cooking_utensil")] is True
        assert gold.relation_labels[("pan", RelationType.IsA, "cutlery")] is False
        assert gold.sense_labels["pan"].endswith("-n")


@settings(max_examples=200)
@given(data=st.data())
def test_gold_reader_refuses_with_a_line_number(data, tmp_path_factory):
    with open(bundled("gold", "mini.tsv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()[:6] + ["SENSE\tpan\tpan-1-n"]
    fields = ["REL", "SENSE", "pan", "IsA", "UsedFor", "MadeOf", "utensil", "0", "1", "2",
              "pan-1-n", "", "#x"]
    lines = data.draw(edited_lines(lines, fields))
    read = file_reader(load_gold, tmp_path_factory.getbasetemp() / "gold.tsv")
    check_refusal(read, lines, ValueError, r"^bad gold record on line (\d+): ")
