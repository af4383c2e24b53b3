"""Batch command-line driver: ``generate``, ``infer``, ``evaluate``.

Configuration is a flat ``key=value`` text file, one key per field of
:class:`PipelineConfig`; one file serves all three commands.  The
tunable keys fall in two groups, :data:`GENERATION_KEYS` (``seeds``,
``environment``, ``min_children``, ``ic_threshold``, ``alpha``,
``root_prior``) and :data:`SAMPLER_KEYS` (``samples``, ``method``,
``seed``, ``burn_in``).  ``generate`` reads the generation group,
``infer`` the sampler group and ``evaluate`` both.  A command takes a
flag such as ``--min-children``, which wins over the file, and checks
the value, only of the keys it reads; ``burn_in``, ``scenarios`` and the
data paths such as ``lexicon``, ``edges`` and ``gold`` are set in the
file only.  ``evaluate`` runs each scenario listed in ``scenarios`` with
its ``<scenario>.<key>`` lines applied, and a flag over those, and
checks each scenario's values.  An unknown key or a key set twice is
refused at ``path:line``.  Paths in a config file resolve relative to
the file's own directory, so the bundled scenario configs work from any
working directory.

``infer`` grounds the model for each object its evidence and queries
name.  A query is a variable name or a pattern whose every ``*`` stands
for any run of characters, matched against whole names; an object slot
that holds ``*`` names no object.

Generation draws no random number: the model's CPFs are written down in
closed form (:func:`situnet.bln.model_from_graph`).  One master seed drives
the samplers through fixed offsets: ad-hoc inference uses ``seed + 2``
and scenario evaluation ``seed + 100 + i`` for the i-th seed word.
Rerunning a command with the same config and seed reproduces its outputs
byte for byte.
"""

from __future__ import annotations

import argparse
import difflib
import re
import sys
from dataclasses import dataclass, replace
from math import isnan
from pathlib import Path
from typing import get_type_hints

from . import bln, evaluation, netgen
from .disambiguation import disambiguate_seeds, save_assignment
from .edges import EdgeStore, filter_multiword, load_edges
from .lexicon import (
    CorpusFrequencies,
    LexiconIndex,
    load_frequencies,
    load_lexicon,
    load_stopwords,
)
from .relatedness import EsaRelatedness, build_esa_index, load_documents

INFER_SEED_OFFSET = 2
SCENARIO_SEED_OFFSET = 100


class ConfigError(ValueError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage, error):
        super().__init__(f"stage {stage!r} failed: {error}")
        self.stage = stage


@dataclass
class PipelineConfig:
    """All inputs and tunables of one generation/evaluation run."""

    lexicon: str = ""
    edges: str = ""
    corpus: str = ""
    stopwords: str = ""
    esa_corpus: str = ""
    seeds: str = ""
    gold: str = ""
    blocklist: str = ""
    environment: str = ""
    min_children: int = 2
    ic_threshold: float = 5.0
    alpha: float = 0.5
    root_prior: float = 0.15
    method: str = "exact"
    samples: int = 20000
    burn_in: int = 1000
    seed: int = 7
    scenarios: str = ""

    def validate(self, keys):
        """Check the values of ``keys``, a group such as :data:`SAMPLER_KEYS`.

        The first value that fails its check raises :class:`ConfigError`
        with that key's refusal.  A negative ``ic_threshold`` is accepted:
        no information content is below it, so only the blocklist prunes
        in compression's rule 1.
        """
        for key, (_, valid, refusal) in keys.items():
            if valid and not valid(value := getattr(self, key)):
                raise ConfigError(refusal.format(value))
        return self


_TYPES = get_type_hints(PipelineConfig)  # key -> int, float or str
_PATH_KEYS = ("lexicon", "edges", "corpus", "stopwords", "esa_corpus",
              "seeds", "gold", "blocklist")
# keys a scenario of ``evaluate`` can override as ``<scenario>.<key>``
SCOPED_KEYS = ("seeds", "gold", "environment", "alpha", "root_prior",
               "min_children", "ic_threshold", "samples")


# Each tunable key once, in the group of the commands that read it, as
# key -> (the keywords of its flag ``--key`` with ``-`` for ``_``, or None
# for a file-only key; the check its value must pass, and the refusal if not).
GENERATION_KEYS = {
    "seeds": ({"help": "seed word file (one word per line)"}, None, ""),
    "environment": ({"help": "current environment term"}, None, ""),
    "min_children": ({}, lambda n: n >= 1, "min_children must be >= 1"),
    "ic_threshold": ({}, lambda x: not isnan(x), "ic_threshold must be a number, got {}"),
    "alpha": ({"help": "weight of relation strength vs relatedness"},
              lambda x: 0.0 <= x <= 1.0, "alpha must be in [0, 1], got {}"),
    "root_prior": ({}, lambda x: 0.0 <= x <= 1.0, "root_prior must be in [0, 1], got {}"),
}
SAMPLER_KEYS = {
    "samples": ({}, lambda n: n >= 1, "samples must be >= 1"),
    "method": ({"choices": bln.METHODS}, lambda m: m in bln.METHODS,
               f"method must be one of {', '.join(bln.METHODS)}, got {{!r}}"),
    "seed": ({"help": "master random seed"}, lambda n: n >= 0, "seed must be >= 0"),
    "burn_in": (None, lambda n: n >= 0, "burn_in must be >= 0"),
}
_EVALUATE_KEYS = {**GENERATION_KEYS, **SAMPLER_KEYS}


def load_config(path) -> tuple[PipelineConfig, dict[str, dict[str, object]]]:
    """Parse a key=value config file into a config and per-scenario overrides.

    A scenario-scoped line ``recipe.seeds=...`` goes to
    ``overrides["recipe"]["seeds"]``; its key must be in
    :data:`SCOPED_KEYS`.  Every value, scoped or not, is converted once to
    its field's type, and a relative path resolves against the file's
    directory.  A malformed number raises :class:`ConfigError` at
    ``path:line``, as do an unknown key and a key set a second time.
    """
    values: dict[str, object] = {}
    overrides: dict[str, dict[str, object]] = {}
    set_on: dict[str, int] = {}  # key -> line of its setting
    base = Path(path).parent
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key in set_on:
                raise ConfigError(f"{path}:{line_no}: {key!r} is already set on line "
                                  f"{set_on[key]}")
            set_on[key] = line_no
            scenario, scoped, field = key.rpartition(".")
            if scoped and field not in SCOPED_KEYS:
                raise ConfigError(f"{path}:{line_no}: {key!r} cannot be scoped to a "
                                  f"scenario; scopable keys: {', '.join(SCOPED_KEYS)}")
            if field not in _TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            kind = _TYPES[field]
            try:
                typed = kind(value)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: {key} must be "
                                  f"{'an integer' if kind is int else 'a number'}, "
                                  f"got {value!r}") from None
            if field in _PATH_KEYS and value and not Path(value).is_absolute():
                typed = str(base / value)
            (overrides.setdefault(scenario, {}) if scoped else values)[field] = typed
    return PipelineConfig(**values), overrides


def _flags(args) -> dict[str, object]:
    """The config keys given as command-line flags; a flag wins over the file."""
    return {key: value for key in _TYPES if (value := getattr(args, key, None)) is not None}


def load_seed_words(path) -> list[str]:
    words = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            word = line.split("#", 1)[0].strip()
            if word:
                words.append(word)
    return words


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


def _stage(name, func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except StageError:
        raise
    except Exception as error:
        raise StageError(name, error) from error


@dataclass
class PipelineProducts:
    assignment: object
    graph: object
    declaration: object
    fragments: list


@dataclass
class _Inputs:
    """The loaded data files, none of which a scenario can override."""

    lexicon: LexiconIndex
    freq: CorpusFrequencies
    stopwords: frozenset[str]
    store: EdgeStore
    provider: EsaRelatedness
    blocklist: frozenset[str]


def _load_inputs(config: PipelineConfig) -> _Inputs:
    lexicon = _stage("lexicon", load_lexicon, config.lexicon)
    freq = _stage("corpus", load_frequencies, Path(config.corpus))
    stopwords = _stage("stopwords", load_stopwords, Path(config.stopwords))
    store = _stage("edges", lambda: filter_multiword(load_edges(config.edges), lexicon))
    documents = _stage("esa", load_documents, config.esa_corpus)
    index = _stage("esa", build_esa_index, documents, stopwords=stopwords)
    blocklist = netgen.DEFAULT_BLOCKLIST
    if config.blocklist:
        blocklist = frozenset(load_stopwords(Path(config.blocklist)))
    return _Inputs(lexicon, freq, stopwords, store, EsaRelatedness(index), blocklist)


def run_generation(config: PipelineConfig) -> PipelineProducts:
    """The full generation pipeline, in memory."""
    config.validate(GENERATION_KEYS)
    return _generate(config, _load_inputs(config))


def _generate(config: PipelineConfig, inputs: _Inputs) -> PipelineProducts:
    """The pipeline from the seed words on, over data files already loaded."""
    lexicon, provider = inputs.lexicon, inputs.provider
    seeds = _stage("seeds", load_seed_words, config.seeds)
    if not seeds:
        raise ConfigError(f"seeds file {config.seeds} is empty")

    assignment = _stage("disambiguation", disambiguate_seeds, seeds, lexicon)
    graph = _stage("isa", netgen.add_isa_paths, assignment, lexicon)
    graph = _stage("compress", netgen.compress, graph, inputs.freq, config.min_children,
                   config.ic_threshold, inputs.blocklist)
    graph = _stage("relations", netgen.attach_relations, graph, inputs.store, lexicon,
                   provider, assignment, inputs.stopwords)
    graph = _stage("locations", netgen.attach_locations_two_hop, graph, inputs.store,
                   config.environment)
    _stage("validate", netgen.validate_graph, graph)
    declaration, fragments = _stage("model", bln.model_from_graph, graph, provider,
                                    config.alpha, config.root_prior)
    return PipelineProducts(assignment=assignment, graph=graph,
                            declaration=declaration, fragments=fragments)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    config = replace(load_config(args.config)[0], **_flags(args))
    products = run_generation(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    netgen.save_graph(products.graph, out_dir / "graph.tsv")
    bln.write_model(products.declaration, products.fragments, out_dir / "model.tsv")
    save_assignment(products.assignment, out_dir / "assignment.tsv")

    graph = products.graph
    print(f"nodes: {len(graph.nodes)}")
    print(f"edges: {len(graph.edges)}")
    print(f"fragments: {len(products.fragments)}")
    print(f"relations dropped by sense gate: {graph.dropped_edges}")
    print(f"wrote graph.tsv, model.tsv, assignment.tsv to {out_dir}")
    return 0


def cmd_infer(args) -> int:
    config = load_config(args.config)[0] if args.config else PipelineConfig()
    config = replace(config, **_flags(args)).validate(SAMPLER_KEYS)
    declaration, fragments = bln.read_model(args.model)

    evidence = _parse_evidence(part for chunk in args.evidence
                               for part in map(str.strip, chunk.split(";")) if part)
    # each object once, in the order the evidence and then the queries name them
    objects = list(dict.fromkeys(filter(None, map(_object_of, [*evidence, *args.query]))))
    if not objects:
        raise ConfigError("no objects named in evidence or queries")

    net = bln.ground(declaration, fragments, objects)
    for name in evidence:
        if name not in net.index:
            raise ConfigError(_unknown_variable(name, net))

    queries = []
    for pattern in args.query:
        queries.extend(_expand_query(pattern, net))

    results = bln.estimates(net, queries, evidence, config.method, config.samples,
                            config.burn_in, config.seed + INFER_SEED_OFFSET)
    for name, prob in sorted(results.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{prob:.6f}\t{name}")
    return 0


def _parse_evidence(items):
    evidence = {}
    for item in items:
        name, _, value = item.partition("=")
        name = name.strip()
        value = value.strip().lower()
        if value not in ("true", "false", "1", "0"):
            raise ConfigError(f"evidence {item!r} needs =true or =false")
        if name in evidence:
            raise ConfigError(f"evidence names {name!r} twice")
        evidence[name] = value in ("true", "1")
    return evidence


def _object_of(variable_text):
    """The object a variable or query pattern names; None if its object slot holds ``*``."""
    try:
        obj = bln.AbstractVar.parse(variable_text).args[0]
    except ValueError:
        return None
    return None if "*" in obj else obj


def _expand_query(pattern, net):
    """The variables a query names, in network order: each ``*`` stands for any run of
    characters, and a name must match the whole pattern."""
    rule = re.compile(".*".join(map(re.escape, pattern.split("*"))))
    matches = [name for name in net.names if rule.fullmatch(name)]
    if not matches:
        raise ConfigError(f"query pattern {pattern!r} matches no variables" if "*" in pattern
                          else _unknown_variable(pattern, net))
    return matches


def _unknown_variable(name, net):
    near = difflib.get_close_matches(name, net.names, n=3)
    hint = f"; near matches: {', '.join(near)}" if near else ""
    return f"unknown variable {name!r}{hint}"


def cmd_evaluate(args) -> int:
    config, overrides = load_config(args.config)
    flags = _flags(args)
    config = replace(config, **flags)

    # a scenario's own keys win over the file's, and a flag over both
    runs = [(name, replace(config, **{**overrides.get(name, {}), **flags}))
            for name in map(str.strip, config.scenarios.split(",")) if name]
    if not runs:
        runs.append((Path(config.seeds).stem or "scenario", config))
    for _, sub in runs:
        sub.validate(_EVALUATE_KEYS)

    # no data path can be scoped, so every scenario shares one load of the data
    inputs = _load_inputs(config)
    reports: dict[str, evaluation.AccuracyReport] = {}
    for name, sub in runs:
        if not sub.gold:
            raise ConfigError(f"scenario {name!r} has no gold file configured")
        gold = evaluation.load_gold(sub.gold)
        products = _generate(sub, inputs)
        results = _stage("scenario", evaluation.run_scenario, products.declaration,
                         products.fragments, list(products.assignment.choices), gold,
                         sub.method, sub.samples, sub.burn_in,
                         sub.seed + SCENARIO_SEED_OFFSET)
        reports[name] = _stage("score", evaluation.score, results, gold,
                               products.assignment)

    table = evaluation.format_report(reports)
    machine = evaluation.machine_report(reports)
    print(table, end="")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(table, encoding="utf-8")
        (out_dir / "report.tsv").write_text(machine, encoding="utf-8")
        print(f"wrote report.txt and report.tsv to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _key_arguments(p, keys):
    """A flag for each key of ``keys`` that has one, in the group's order."""
    for key, (flag, _, _) in keys.items():
        if flag is not None:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=_TYPES[key], **flag)


def _generate_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default="out")
    _key_arguments(p, GENERATION_KEYS)
    p.set_defaults(func=cmd_generate)


def _infer_arguments(p):
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--evidence", action="append", default=[],
                   help="assignments like 'IsA(obj1,sock)=true'; repeatable")
    p.add_argument("--query", action="append", required=True,
                   help="variable or pattern like 'AtLocation(obj1,*)'; repeatable")
    _key_arguments(p, SAMPLER_KEYS)
    p.set_defaults(func=cmd_infer)


def _evaluate_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    _key_arguments(p, _EVALUATE_KEYS)
    p.set_defaults(func=cmd_evaluate)


# subcommand -> (its line in the top-level help, the function adding its arguments)
COMMANDS = {
    "generate": ("build graph, model, and assignment files", _generate_arguments),
    "infer": ("answer queries against a model file", _infer_arguments),
    "evaluate": ("score scenarios against gold labels", _evaluate_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``situnet`` parser, with every subcommand of :data:`COMMANDS` or only ``command``.

    With only ``command``, a metavar keeps every command in the top-level
    usage that its errors print.  Options are matched whole, so ``generate
    --seed`` is refused rather than read as ``--seeds``.
    """
    parser = argparse.ArgumentParser(
        prog="situnet",
        description="Generate and query situated commonsense knowledge networks.")
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_line, add_arguments) in COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line, allow_abbrev=False))
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names; its parser holds only that command."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StageError, ConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except Exception as error:  # surface anything else with a nonzero exit
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
