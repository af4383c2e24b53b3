"""Scoring the three bundled household scenarios against gold labels.

For each scenario the model is grounded once for a single object; every
seed word in turn is clamped as that object's category, and the
category, location, property, and affordance variables that the gold
file labels for that seed are queried from one shared sample set.
Predictions (probability strictly above 0.5) are compared with the hand
labels, and the seed sense choices are scored against the labeled
senses.
"""

from situnet import data_path, evaluation
from situnet.cli import load_config, run_generation

reports = {}
for name in ("recipe", "laundry", "cleaning"):
    config, _ = load_config(data_path("configs", f"{name}.cfg"))
    products = run_generation(config)
    seeds = list(products.assignment.choices)
    gold = evaluation.load_gold(config.gold)
    results = evaluation.run_scenario(products.declaration, products.fragments,
                                      seeds, gold, config.method, config.samples,
                                      config.burn_in, config.seed + 100)
    reports[name] = evaluation.score(results, gold, products.assignment)
    print(f"{name}: {len(seeds)} seeds, {len(results)} estimated gold-labeled triples")

print()
print(evaluation.format_report(reports))
print("machine-readable form:")
print(evaluation.machine_report(reports))
