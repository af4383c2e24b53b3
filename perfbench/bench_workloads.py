"""Workloads: seeded op lists, the command each op runs, and its output check.

Every op is one ``situnet`` command run in-process through
``situnet.cli.main``.  Ops come in cycles whose composition is fixed per
workload (which scenarios, seed-set sizes or relation families) while
the content is drawn from the workload seed; a run measures whole cycles,
so every run measures the same mix of work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
from pathlib import Path

SCENARIOS = ("recipe", "laundry", "cleaning")
ENVIRONMENT = {"recipe": "kitchen", "laundry": "house", "cleaning": "house"}
FAMILIES = ("IsA", "UsedFor", "HasProperty", "AtLocation")
OTHER_RELATIONS = ("AtLocation", "HasProperty", "UsedFor")

SUBSET_SIZES = (3, 7, 11)      # subsets of one scenario (the smallest has 11 words)
MIX_SIZES = (15, 25, 35, 45)   # cross-scenario mixes, each in both environments
GIBBS_BURN_IN = 5              # cut from the configured 1000; sized in README.md
GIBBS_SAMPLES = 2560           # cut from the configured 20 000 (5 kept sweeps of 512 chains)
INFER_SAMPLES = 20_000
IS_A_GATE, OTHER_GATE = 90.0, 70.0   # acceptance criterion 8
GOLD_MARGIN = 0.05             # infer estimates this close to 0.5 are not gold-checked
MAX_SEED = 1_000_000


class OpFailed(Exception):
    """An op's output failed its check; the message says why."""


def workload_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def op_cycles(workload: str, seed: int, words: dict[str, list[str]]):
    """Endless cycles of a workload's ops, each cycle a list of op dicts.

    ``words`` maps each scenario to its seed words.  The same seed gives
    the same sequence; every op is a plain dict of command inputs.
    """
    rng = workload_rng(workload, seed)
    make = {"generate": _generate_cycle, "eval-lw": _eval_cycle,
            "eval-gibbs": _eval_cycle, "infer-lw": _infer_cycle}[workload]
    while True:
        yield make(rng, words)


def _generate_cycle(rng, words):
    ops = [{"scenario": name} for name in SCENARIOS]
    for size in SUBSET_SIZES:
        name = rng.choice(SCENARIOS)
        ops.append({"words": rng.sample(words[name], size),
                    "environment": ENVIRONMENT[name]})
    pool = [w for name in SCENARIOS for w in words[name]]
    for size in MIX_SIZES:
        for environment in ("kitchen", "house"):
            ops.append({"words": rng.sample(pool, size), "environment": environment})
    rng.shuffle(ops)
    return ops


def _eval_cycle(rng, words):
    names = list(SCENARIOS)
    rng.shuffle(names)
    return [{"scenario": name, "seed": rng.randrange(MAX_SEED)} for name in names]


def _infer_cycle(rng, words):
    ops = [{"scenario": name, "family": family} for name in SCENARIOS for family in FAMILIES]
    rng.shuffle(ops)
    for op in ops:
        op["word"] = rng.choice(words[op["scenario"]])
        op["seed"] = rng.randrange(MAX_SEED)
    return ops


def digest(*paths) -> str:
    sha = hashlib.sha256()
    for path in paths:
        sha.update(Path(path).read_bytes())
    return sha.hexdigest()[:16]


def absolute_config(source: Path, target: Path, overrides: dict[str, str]) -> None:
    """Copy a config with its relative paths made absolute, then override keys."""
    lines = []
    for line in source.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or line.lstrip().startswith("#") or key in overrides:
            continue
        if value.startswith("."):
            value = str((source.parent / value).resolve())
        lines.append(f"{key}={value}")
    lines.extend(f"{key}={value}" for key, value in overrides.items())
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    """Base: ``prepare`` sets up, ``argv`` builds an op's command (writing any
    input file it needs), ``check`` verifies the op's output."""

    def __init__(self, data_dir: Path, work: Path):
        from situnet import cli

        self.data = data_dir
        self.work = work
        self.out = work / "out"
        self.words = {name: cli.load_seed_words(data_dir / "seeds" / f"{name}.txt")
                      for name in SCENARIOS}

    def prepare(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    def reset(self) -> None:
        """Remove the previous op's outputs, so each check sees fresh ones."""
        shutil.rmtree(self.out, ignore_errors=True)

    def queries(self, op, stdout: str) -> int:
        """Query variables the op answered (0 where the command answers none)."""
        return 0

    def accuracy(self) -> float | None:
        return None

    def record(self) -> dict:
        return {}


class GenerateWorkload(Workload):
    def __init__(self, data_dir, work):
        super().__init__(data_dir, work)
        self.digests: dict[tuple, str] = {}

    def argv(self, op):
        if "scenario" in op:
            config = self.data / "configs" / f"{op['scenario']}.cfg"
            return ["generate", "--config", str(config), "--out-dir", str(self.out)]
        seeds = self.work / "seeds.txt"
        seeds.write_text("\n".join(op["words"]) + "\n", encoding="utf-8")
        return ["generate", "--config", str(self.data / "configs" / "recipe.cfg"),
                "--seeds", str(seeds), "--environment", op["environment"],
                "--out-dir", str(self.out)]

    def check(self, op, stdout):
        from situnet import netgen

        artifacts = [self.out / f for f in ("graph.tsv", "model.tsv", "assignment.tsv")]
        for path in artifacts:
            if not path.is_file() or path.stat().st_size == 0:
                raise OpFailed(f"artifact {path.name} missing or empty")
        try:
            netgen.validate_graph(netgen.load_graph(artifacts[0]))
        except ValueError as error:
            raise OpFailed(f"reloaded graph is invalid: {error}") from None
        key = (op["scenario"],) if "scenario" in op else (tuple(op["words"]), op["environment"])
        value = digest(*artifacts)
        if self.digests.setdefault(key, value) != value:
            raise OpFailed("artifacts differ from an earlier run of the same seed set")

    def record(self):
        return {"bundled_digests": {key[0]: value for key, value in self.digests.items()
                                    if len(key) == 1}}


class EvalWorkload(Workload):
    """``situnet evaluate`` on one scenario of ``eval_all.cfg`` per op."""

    def __init__(self, data_dir, work, method):
        super().__init__(data_dir, work)
        self.method = method
        self.configs = {name: work / f"{name}.cfg" for name in SCENARIOS}
        self.query_counts: dict[str, int] = {}
        self.min_accuracy = None

    def prepare(self):
        from situnet import bln, cli

        super().prepare()
        overrides = {"method": self.method}
        if self.method == "gibbs":
            overrides.update(burn_in=str(GIBBS_BURN_IN), samples=str(GIBBS_SAMPLES))
        for name, path in self.configs.items():
            absolute_config(self.data / "configs" / "eval_all.cfg", path,
                            {"scenarios": name, **overrides})
            # one object's component sizes give the query count of a scenario
            config, _ = cli.load_config(self.data / "configs" / f"{name}.cfg")
            with contextlib.redirect_stderr(io.StringIO()):
                products = cli.run_generation(config)
            net = bln.ground(products.declaration, products.fragments, ["obj1"])
            sizes = {v: len(c) for c in net.components() for v in c}
            self.query_counts[name] = sum(sizes[net.index[f"IsA(obj1,{word})"]]
                                          for word in products.assignment.choices)

    def argv(self, op):
        return ["evaluate", "--config", str(self.configs[op["scenario"]]),
                "--out-dir", str(self.out), "--seed", str(op["seed"])]

    def check(self, op, stdout):
        report = self.out / "report.tsv"
        if not report.is_file():
            raise OpFailed("report.tsv missing")
        cells = {}
        for line in report.read_text(encoding="utf-8").splitlines():
            parts = line.split("\t")
            if len(parts) != 3 or parts[0] != op["scenario"]:
                raise OpFailed(f"bad report.tsv line {line!r}")
            try:
                cells[parts[1]] = float(parts[2])
            except ValueError:
                raise OpFailed(f"bad accuracy in report.tsv line {line!r}") from None
        missing = {"IsA", *OTHER_RELATIONS} - set(cells)
        if missing:
            raise OpFailed(f"report.tsv lacks {sorted(missing)}")
        lowest = min(cells.values())
        self.min_accuracy = lowest if self.min_accuracy is None else min(self.min_accuracy, lowest)
        if cells["IsA"] < IS_A_GATE or any(cells[r] < OTHER_GATE for r in OTHER_RELATIONS):
            raise OpFailed(f"accuracy below the criterion-8 gates: {cells}")

    def queries(self, op, stdout):
        return self.query_counts[op["scenario"]]

    def accuracy(self):
        return self.min_accuracy

    def record(self):
        record = {"queries_per_op": self.query_counts}
        return record


class InferWorkload(Workload):
    """Ad-hoc ``situnet infer --method lw`` requests on models built in set-up."""

    def __init__(self, data_dir, work):
        super().__init__(data_dir, work)
        self.models = {name: work / name / "model.tsv" for name in SCENARIOS}
        self.expansions: dict[tuple[str, str], set[str]] = {}
        self.gold = {}

    def prepare(self):
        from situnet import bln, cli, evaluation

        super().prepare()
        for name, model in self.models.items():
            config = self.data / "configs" / f"{name}.cfg"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["generate", "--config", str(config), "--out-dir", str(model.parent)])
            if code != 0:
                raise RuntimeError(f"set-up could not generate the {name} model")
            _, fragments = bln.read_model(model)
            for family in FAMILIES:
                self.expansions[name, family] = {
                    f"{family}(obj1,{f.child.args[1]})" for f in fragments
                    if f.child.predicate == family}
            self.gold[name] = evaluation.load_gold(self.data / "gold" / f"{name}.tsv")

    def argv(self, op):
        return ["infer", "--model", str(self.models[op["scenario"]]),
                "--evidence", f"IsA(obj1,{op['word']})=true",
                "--query", f"{op['family']}(obj1,*)",
                "--method", "lw", "--samples", str(INFER_SAMPLES), "--seed", str(op["seed"])]

    def check(self, op, stdout):
        from situnet.edges import RelationType

        answers = {}
        for line in stdout.splitlines():
            prob, sep, name = line.partition("\t")
            try:
                p = float(prob)
            except ValueError:
                p = -1.0
            if not sep or not name or not 0.0 <= p <= 1.0:
                raise OpFailed(f"bad infer output line {line!r}")
            answers[name] = p
        expected = self.expansions[op["scenario"], op["family"]]
        if set(answers) != expected:
            raise OpFailed(f"answered {len(answers)} variables, the pattern expands to {len(expected)}")
        labels = self.gold[op["scenario"]].relation_labels
        relation = RelationType(op["family"])
        for name, p in answers.items():
            label = labels.get((op["word"], relation, name[name.index(",") + 1:-1]))
            if label is not None and abs(p - 0.5) > GOLD_MARGIN and (p > 0.5) != label:
                raise OpFailed(f"{name}={p} disagrees with gold label {int(label)}")

    def queries(self, op, stdout):
        return len(stdout.splitlines())


def make_workload(name: str, data_dir: Path, work: Path) -> Workload:
    if name == "generate":
        return GenerateWorkload(data_dir, work)
    if name in ("eval-lw", "eval-gibbs"):
        return EvalWorkload(data_dir, work, name.split("-")[1])
    if name == "infer-lw":
        return InferWorkload(data_dir, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("generate", "eval-lw", "eval-gibbs", "infer-lw")
