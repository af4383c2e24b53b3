"""Scenario evaluation: per-seed inference, thresholding, accuracy scoring.

The model template is grounded once for a single object; for every seed
word the evidence ``IsA(obj1, seed) = true`` is clamped and the
variables the hand-labeled gold standard labels for that seed are
queried from one sample set.  A query counts as predicted true when its
probability strictly exceeds 0.5; accuracies are reported per relation
against the gold labels, alongside the seed-sense disambiguation
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bln
from .disambiguation import SenseAssignment
from .edges import RelationType

OBJECT = "obj1"  # the one object every scenario query is grounded for


class MissingVariableError(KeyError):
    def __init__(self, seed):
        super().__init__(f"no IsA variable for seed {seed!r} in the network")
        self.seed = seed


class GoldCoverageError(ValueError):
    def __init__(self, missing):
        keys = ", ".join(f"({s}, {r.value}, {t})" for s, r, t in sorted(
            missing, key=lambda k: (k[0], k[1].value, k[2])))
        super().__init__(f"gold triples missing from results: {keys}")
        self.missing = missing


@dataclass
class GoldStandard:
    """Hand labels: boolean relation triples plus the correct seed senses."""

    relation_labels: dict[tuple[str, RelationType, str], bool]
    sense_labels: dict[str, str]


@dataclass
class AccuracyReport:
    per_relation: dict[RelationType, float]  # percentages, unrounded
    wsd_accuracy: float | None
    counts: dict[RelationType, tuple[int, int]]  # correct, total


def run_scenario(declaration, fragments, seeds, gold: GoldStandard, method: str = "lw",
                 n_samples: int = 20_000, burn_in: int = 1000, seed: int = 0,
                 n_chains: int = 512) -> dict[tuple[str, RelationType, str], float]:
    """Query the gold-labeled variables of one object once per seed word.

    The template is grounded once for the single object ``obj1``; the
    i-th seed clamps ``IsA(obj1, seed) = true`` and samples with
    ``seed + i``, asking only for the variables ``gold`` labels for that
    seed, in network order.  A seed with no labeled variable is not
    sampled, but its ``IsA`` variable must still exist.  Labeled triples
    whose variable is not in the network are left out; :func:`score`
    reports them.  Returns (seed, relation, target entity) -> probability.
    """
    net = bln.ground(declaration, fragments, [OBJECT])
    # for one object, the i-th ground variable is the i-th fragment's child
    keys = [(name, RelationType(frag.child.predicate), frag.child.args[1])
            for name, frag in zip(net.names, fragments)]
    results: dict[tuple[str, RelationType, str], float] = {}
    for position, seed_word in enumerate(seeds):
        ev_name = f"IsA({OBJECT},{seed_word})"
        if ev_name not in net.index:
            raise MissingVariableError(seed_word)
        labeled = {name: (seed_word, relation, target) for name, relation, target in keys
                   if (seed_word, relation, target) in gold.relation_labels}
        if not labeled:
            continue
        estimates = bln.estimates(net, list(labeled), {ev_name: True}, method, n_samples,
                                  burn_in, seed + position, n_chains)
        for name, key in labeled.items():
            results[key] = estimates[name]
    return results


def score(results, gold: GoldStandard, assignment: SenseAssignment | None = None) -> AccuracyReport:
    """Threshold results at 0.5 (strictly) and compare against gold labels.

    Every gold triple must be present in the results.  When a sense
    assignment is supplied and the gold carries sense labels, the WSD
    accuracy is the fraction of seeds assigned their labeled sense.
    """
    missing = set(gold.relation_labels) - set(results)
    if missing:
        raise GoldCoverageError(missing)

    counts: dict[RelationType, list[int]] = {}
    for key, label in gold.relation_labels.items():
        prediction = results[key] > 0.5
        cell = counts.setdefault(key[1], [0, 0])
        cell[0] += int(prediction == label)
        cell[1] += 1

    per_relation = {rel: 100.0 * correct / total for rel, (correct, total) in counts.items()}

    wsd = None
    if assignment is not None and gold.sense_labels:
        hits = sum(1 for word, sid in gold.sense_labels.items()
                   if assignment.sense_of(word) == sid)
        wsd = 100.0 * hits / len(gold.sense_labels)

    return AccuracyReport(
        per_relation=per_relation, wsd_accuracy=wsd,
        counts={rel: (c, t) for rel, (c, t) in counts.items()})


# ---------------------------------------------------------------------------
# Gold file and report formats
# ---------------------------------------------------------------------------


def load_gold(path) -> GoldStandard:
    """Read ``REL seed relation target 0|1`` and ``SENSE seed synset`` lines."""
    relation_labels: dict[tuple[str, RelationType, str], bool] = {}
    sense_labels: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            if cols[0] == "REL" and len(cols) == 5:
                _, seed, rel, target, label = cols
                try:
                    relation = RelationType(rel)
                except ValueError as error:
                    raise ValueError(f"bad gold record on line {line_no}: {error}") from None
                if label not in ("0", "1"):
                    raise ValueError(f"bad gold record on line {line_no}: "
                                     f"label {label!r} is not 0 or 1")
                key = (seed, relation, target)
                if key in relation_labels:
                    raise ValueError(f"bad gold record on line {line_no}: "
                                     f"({seed}, {rel}, {target}) is labeled twice")
                relation_labels[key] = label == "1"
            elif cols[0] == "SENSE" and len(cols) == 3:
                if cols[1] in sense_labels:
                    raise ValueError(f"bad gold record on line {line_no}: "
                                     f"sense of {cols[1]!r} is labeled twice")
                sense_labels[cols[1]] = cols[2]
            else:
                raise ValueError(f"bad gold record on line {line_no}: {raw!r}")
    return GoldStandard(relation_labels=relation_labels, sense_labels=sense_labels)


RELATION_COLUMNS = tuple(RelationType)  # in the order the relations are declared


def format_report(reports: dict[str, AccuracyReport]) -> str:
    """Aligned table, one scenario per row, the four relations as columns."""
    header = ["Scenario"] + [r.value for r in RELATION_COLUMNS] + ["WSD"]
    rows = [header]
    for name, report in reports.items():
        row = [name]
        for rel in RELATION_COLUMNS:
            value = report.per_relation.get(rel)
            row.append("-" if value is None else f"{value:.1f}")
        row.append("-" if report.wsd_accuracy is None else f"{report.wsd_accuracy:.1f}")
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def machine_report(reports: dict[str, AccuracyReport]) -> str:
    """One ``scenario<TAB>relation<TAB>accuracy`` line per reported cell."""
    lines = []
    for name, report in reports.items():
        for rel in RELATION_COLUMNS:
            if rel in report.per_relation:
                lines.append(f"{name}\t{rel.value}\t{report.per_relation[rel]:.1f}")
        if report.wsd_accuracy is not None:
            lines.append(f"{name}\tWSD\t{report.wsd_accuracy:.1f}")
    return "\n".join(lines) + "\n"
