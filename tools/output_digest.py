#!/usr/bin/env python3
"""Print a SHA-256 digest for each user-visible output of the pipeline.

Run it on two source trees and diff the listings; equal lines mean
byte-identical outputs.  It covers:

- the ``generate`` artifacts (graph, model, assignment and the printed
  summary) of every bundled scenario config;
- ``generate`` on fixed, seeded cross-scenario mixes of 15, 25, 35 and
  45 seed words in the kitchen and the house environment, plus a second
  draw of 25 and 35 words in each: exit code, stdout and stderr (so
  refusals such as ``DenseModelError`` count), and the artifacts where
  the run wrote them;
- ``report.txt`` and ``report.tsv`` from ``evaluate eval_all.cfg``, with
  LW and with Gibbs at samples=2560 burn_in=5; and ``report.tsv`` with
  LW where the file scopes two numbers to laundry (``laundry.samples``,
  ``laundry.alpha``), so a scenario's typed overrides count too;
- the ``evaluation.run_scenario`` result dicts (keys, order and float
  reprs) of every bundled scenario, restricted to the triples its gold
  file labels, with the same two method settings, with Gibbs at
  samples=1000 burn_in=0: the initial state plus two kept sweeps of 512
  chains, a sample count that is not a multiple of the chain count, and
  with Gibbs on 2 048 chains at samples=4096 burn_in=2.
  ``run_scenario`` gets the gold when it takes a ``gold`` parameter, so
  trees from before and after that parameter give comparable lines;
- for each of those sampler settings, one ``error/<scenario>/<setting>``
  line with the largest error and the RMSE of its gold-labelled results
  against ``method=exact``, to 4 decimals, in place of a digest.  The
  reports read 100.0 under any sampler change that keeps each triple on
  its side of 0.5; these lines show how far the estimates moved;
- a fixed set of ``infer`` requests: LW, Gibbs and exact on every
  bundled model, one- and two-pattern queries; and one LW request per
  relation family (``IsA(obj1,*)`` and so on) on every bundled model,
  which LW answers from the network reduced for that family alone; and an LW, a Gibbs and an exact ``AtLocation(obj1,*)``
  request on the ``mix-house-45`` model, whose ``closet`` has 13 parents
  (exit code and output, so a missing model or a refusal counts too);
  an LW ``IsA(obj1,*)`` request on that model, the largest LW request,
  whose 20 000 samples fall into about 8 800 configurations, so LW's
  count pass expands them to single samples part-way; and a Gibbs ``AtLocation(obj1,*)`` request on laundry with the evidence
  ``IsA(obj1,basket)``, the one bundled seed whose variable has a parent,
  ``hamper``.  ``hamper`` has a second child in that request's closure,
  so the samplers keep drawing it and the chains still run their burn-in
  sweeps (for ``basket``'s gold triples it is summed into ``basket``);
- ``infer`` query patterns on the ``mini`` model with exact inference
  and the evidence ``IsA(obj1,pan)``: a ``*`` in the object slot
  (``IsA(*,pan)``), two ``*`` (``IsA(*,*)``) and a prefix and suffix that
  overlap in a name (``IsA(obj1,pan*an)``); and ``IsA(*,pan)`` with no
  evidence, which names no object (exit code and output);
- ``situnet --help`` and ``situnet <command> --help`` for each command:
  exit code and output, at a fixed width of 80 columns;
- each command on a copy of ``mini.cfg`` with one checked key set to a
  value its check refuses (``config/<command>/<key>=<value>``): exit code,
  stdout and stderr, so a command that refuses or answers differently
  shows.  ``infer`` runs one exact request on the ``mini`` model;
- ``wsp/bundled``: the word sense profile (``build_wsp``) of every synset
  of the bundled lexicon, in id order, with the bundled stopwords;
- ``esa/bundled``: the concepts and vectors of the ESA index built from
  the bundled corpus, and ``EsaRelatedness.score`` over every ordered pair
  of the words of all bundled seed files.  Generation reaches both only
  through the sense gate of ``attach_relations``.

The listing opens with a ``#`` line naming the Python and numpy
versions: the sampler lines depend on numpy's random streams.

Usage, from the repository root:

    python tools/output_digest.py > new.txt
    python tools/output_digest.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

``--src`` picks the source tree whose ``situnet`` package (and bundled
data) is imported; it defaults to this checkout's ``src/``.  The whole
run takes a few seconds.  ``DIGEST.txt`` at the repository root is this
listing for the committed tree, and ``tests/test_digest.py`` checks it
line by line; a change that moves an output updates it with

    python tools/output_digest.py > DIGEST.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import itertools
import math
import os
import platform
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

SCENARIOS = ("mini", "recipe", "laundry", "cleaning")
METHODS = {"lw": {"method": "lw"},
           "gibbs": {"method": "gibbs", "samples": "2560", "burn_in": "5"}}
INFER_METHODS = {**METHODS, "exact": {"method": "exact"}}
# laundry's report moves with each of the two scoped numbers, and differs
# from the plain LW report, so a dropped or mistyped override shows
SCOPED = {"method": "lw", "laundry.samples": "20", "laundry.alpha": "0.5"}
# run_scenario also checks Gibbs with no burn-in and an overshooting last sweep,
# and Gibbs on many chains
SCENARIO_METHODS = {**METHODS,
                    "gibbs-b0-s1000": {"method": "gibbs", "samples": "1000", "burn_in": "0"},
                    "gibbs-c2048": {"method": "gibbs", "samples": "4096", "burn_in": "2"}}
SCENARIO_CHAINS = {"gibbs-c2048": 2048}  # n_chains is no config key; the rest use the default
SEEDS_PER_MODEL = 3
# (evidence, query pattern) on the mini model: * in the object slot, two *, overlapping
# prefix and suffix, and an object-slot * with no object to ground
PATTERN_REQUESTS = ((["--evidence", "IsA(obj1,pan)=true"], "IsA(*,pan)"),
                    (["--evidence", "IsA(obj1,pan)=true"], "IsA(*,*)"),
                    (["--evidence", "IsA(obj1,pan)=true"], "IsA(obj1,pan*an)"),
                    ([], "IsA(*,pan)"))
QUERIES = (("*",), ("AtLocation(obj1,*)", "UsedFor(obj1,*)"))  # one- and two-pattern requests
FAMILY_QUERIES = tuple(f"{family}(obj1,*)"
                       for family in ("IsA", "UsedFor", "HasProperty", "AtLocation"))
# larger than any bundled seed file (at most 19 words), so they reach the
# tie order of large seed trees.  A second draw of 25 and 35 words reaches
# other shapes, such as a node of 12 parents (mix2-house-35); the widest
# node is mix-house-45's closet, of 13 parents (WIDE_MIX).
MIX_ENVIRONMENTS = ("kitchen", "house")
MIXES = ([(f"mix-{environment}-{size}", environment, size)
          for environment in MIX_ENVIRONMENTS for size in (15, 25, 35, 45)]
         + [(f"mix2-{environment}-{size}", environment, size)
            for environment in MIX_ENVIRONMENTS for size in (25, 35)])
MIX_SEED_FILES = ("recipe", "laundry", "cleaning")
WIDE_MIX = "mix-house-45"
ARTIFACTS = ("graph.tsv", "model.tsv", "assignment.tsv")
HELP_COMMANDS = ("generate", "infer", "evaluate")
# one value per checked config key that its check refuses
BAD_VALUES = (("min_children", "0"), ("ic_threshold", "nan"), ("alpha", "2"),
              ("root_prior", "-0.5"), ("samples", "0"), ("method", "bogus"),
              ("seed", "-5"), ("burn_in", "-1"))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def copy_config(source: Path, target: Path, overrides: dict[str, str]) -> Path:
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
    return target


def run_cli(main, argv) -> bytes:
    """Exit code, stdout and stderr of one in-process ``situnet`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse ends --help and usage errors
            code = stop.code
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()


def digests(work: Path):
    """Yield (label, digest) for every covered output, in a fixed order."""
    from situnet import cli, data_path, evaluation

    configs = Path(str(data_path("configs")))

    models = {}
    for name in SCENARIOS:
        out_dir = work / "generate" / name
        printed = run_cli(cli.main, ["generate", "--config", str(configs / f"{name}.cfg"),
                                     "--out-dir", str(out_dir)])
        yield f"generate/{name}/stdout", sha(printed.replace(str(out_dir).encode(), b"OUT"))
        for artifact in ARTIFACTS:
            yield f"generate/{name}/{artifact}", sha((out_dir / artifact).read_bytes())
        models[name] = out_dir / "model.tsv"

    pool = [word for name in MIX_SEED_FILES
            for word in cli.load_seed_words(data_path("seeds", f"{name}.txt"))]
    for name, environment, size in MIXES:
        label = f"generate/{name}"
        seeds = work / f"{name}.txt"
        seeds.write_text("\n".join(random.Random(label).sample(pool, size)) + "\n",
                         encoding="utf-8")
        out_dir = work / label
        printed = run_cli(cli.main, ["generate", "--config", str(configs / "recipe.cfg"),
                                     "--seeds", str(seeds), "--environment", environment,
                                     "--out-dir", str(out_dir)])
        yield f"{label}/run", sha(printed.replace(str(work).encode(), b"WORK"))
        for artifact in ARTIFACTS:
            path = out_dir / artifact
            yield f"{label}/{artifact}", sha(path.read_bytes() if path.exists() else b"")

    for label, overrides in METHODS.items():
        config = copy_config(configs / "eval_all.cfg", work / f"eval_{label}.cfg", overrides)
        out_dir = work / "evaluate" / label
        run_cli(cli.main, ["evaluate", "--config", str(config), "--out-dir", str(out_dir)])
        for report in ("report.txt", "report.tsv"):
            yield f"evaluate/{label}/{report}", sha((out_dir / report).read_bytes())
    config = copy_config(configs / "eval_all.cfg", work / "eval_lw_scoped.cfg", SCOPED)
    out_dir = work / "evaluate" / "lw-scoped"
    run_cli(cli.main, ["evaluate", "--config", str(config), "--out-dir", str(out_dir)])
    yield "evaluate/lw-scoped/report.tsv", sha((out_dir / "report.tsv").read_bytes())

    takes_gold = "gold" in inspect.signature(evaluation.run_scenario).parameters

    def scenario_results(name, label, overrides):
        """``run_scenario``'s (key, probability) pairs for the gold-labelled triples."""
        config, _ = cli.load_config(copy_config(configs / f"{name}.cfg",
                                                work / f"{name}_{label}.cfg", overrides))
        with contextlib.redirect_stderr(io.StringIO()):
            products = cli.run_generation(config)
        gold = evaluation.load_gold(config.gold)
        results = evaluation.run_scenario(
            products.declaration, products.fragments, list(products.assignment.choices),
            *([gold] if takes_gold else []), config.method, config.samples,
            config.burn_in, config.seed + cli.SCENARIO_SEED_OFFSET,
            **({"n_chains": SCENARIO_CHAINS[label]} if label in SCENARIO_CHAINS else {}))
        return [(key, prob) for key, prob in results.items() if key in gold.relation_labels]

    for name in SCENARIOS:
        exact = dict(scenario_results(name, "exact", {"method": "exact"}))
        for label, overrides in SCENARIO_METHODS.items():
            labeled = scenario_results(name, label, overrides)
            yield f"run_scenario/{name}/{label}", sha(repr(labeled).encode())
            gaps = [abs(prob - exact[key]) for key, prob in labeled]
            rmse = math.sqrt(sum(gap * gap for gap in gaps) / len(gaps))
            yield f"error/{name}/{label}", f"max {max(gaps):.4f} rmse {rmse:.4f}"

    for name in SCENARIOS:
        seeds = cli.load_seed_words(cli.load_config(configs / f"{name}.cfg")[0].seeds)
        for label, overrides in INFER_METHODS.items():
            config = copy_config(configs / f"{name}.cfg", work / f"infer_{name}_{label}.cfg",
                                 overrides)
            for word in seeds[:SEEDS_PER_MODEL]:
                for number, patterns in enumerate(QUERIES):
                    argv = ["infer", "--config", str(config), "--model", str(models[name]),
                            "--evidence", f"IsA(obj1,{word})=true"]
                    for pattern in patterns:
                        argv += ["--query", pattern]
                    yield f"infer/{name}/{label}/{word}/{number}", sha(run_cli(cli.main, argv))
        for pattern in FAMILY_QUERIES:
            argv = ["infer", "--config", str(work / f"infer_{name}_lw.cfg"),
                    "--model", str(models[name]), "--evidence", f"IsA(obj1,{seeds[0]})=true",
                    "--query", pattern]
            yield f"infer/{name}/lw/{seeds[0]}/{pattern}", sha(run_cli(cli.main, argv))

    word = cli.load_seed_words(work / f"{WIDE_MIX}.txt")[0]
    for label in INFER_METHODS:
        argv = ["infer", "--config", str(work / f"infer_recipe_{label}.cfg"),
                "--model", str(work / "generate" / WIDE_MIX / "model.tsv"),
                "--evidence", f"IsA(obj1,{word})=true", "--query", "AtLocation(obj1,*)"]
        printed = run_cli(cli.main, argv).replace(str(work).encode(), b"WORK")
        yield f"infer/{WIDE_MIX}/{label}/{word}/AtLocation(obj1,*)", sha(printed)
    argv = ["infer", "--config", str(work / "infer_recipe_lw.cfg"),
            "--model", str(work / "generate" / WIDE_MIX / "model.tsv"),
            "--evidence", f"IsA(obj1,{word})=true", "--query", "IsA(obj1,*)"]
    printed = run_cli(cli.main, argv).replace(str(work).encode(), b"WORK")
    yield f"infer/{WIDE_MIX}/lw/{word}/IsA(obj1,*)", sha(printed)

    argv = ["infer", "--config", str(work / "infer_laundry_gibbs.cfg"),
            "--model", str(models["laundry"]), "--evidence", "IsA(obj1,basket)=true",
            "--query", "AtLocation(obj1,*)"]
    yield "infer/laundry/gibbs/basket/AtLocation(obj1,*)", sha(run_cli(cli.main, argv))

    for evidence, pattern in PATTERN_REQUESTS:
        argv = ["infer", "--model", str(models["mini"]), "--method", "exact", *evidence,
                "--query", pattern]
        label = "pan" if evidence else "no-evidence"
        yield f"infer/mini/exact/{label}/{pattern}", sha(run_cli(cli.main, argv))

    with mock.patch.dict(os.environ, COLUMNS="80"):  # argparse wraps help to the terminal
        yield "help", sha(run_cli(cli.main, ["--help"]))
        for command in HELP_COMMANDS:
            yield f"help/{command}", sha(run_cli(cli.main, [command, "--help"]))

    for key, value in BAD_VALUES:
        config = copy_config(configs / "mini.cfg", work / f"bad_{key}.cfg", {key: value})
        for command in HELP_COMMANDS:
            argv = [command, "--config", str(config)]
            if command == "infer":
                argv += ["--model", str(models["mini"]), "--evidence", "IsA(obj1,garlic)=true",
                         "--query", "UsedFor(obj1,*)"]
            else:
                argv += ["--out-dir", str(work / "config" / command / key)]
            printed = run_cli(cli.main, argv).replace(str(work).encode(), b"WORK")
            yield f"config/{command}/{key}={value}", sha(printed)

    yield from input_layer_digests()


def input_layer_digests():
    """The word sense profiles and the ESA index of the bundled data."""
    from situnet import cli, data_path
    from situnet.disambiguation import build_wsp
    from situnet.lexicon import load_lexicon, load_stopwords
    from situnet.relatedness import EsaRelatedness, build_esa_index, load_documents

    lexicon = load_lexicon(data_path("lexicon"))
    stopwords = load_stopwords(str(data_path("stopwords.txt")))
    profiles = [build_wsp(sid, lexicon, stopwords) for sid in sorted(lexicon.synsets)]
    # older trees returned a profile object holding the list as ``.words``
    profiles = [getattr(profile, "words", profile) for profile in profiles]
    yield "wsp/bundled", sha(repr(profiles).encode())

    index = build_esa_index(load_documents(str(data_path("esa_corpus.tsv"))),
                            stopwords=stopwords)
    seeds = Path(str(data_path("seeds")))
    words = sorted({word for path in sorted(seeds.glob("*.txt"))
                    for word in cli.load_seed_words(path)})
    provider = EsaRelatedness(index)
    scores = [provider.score(a, b) for a, b in itertools.product(words, repeat=2)]
    yield "esa/bundled", sha(repr((index.concepts, list(index.vectors.items()), words,
                                   scores)).encode())


def header() -> str:
    """The versions that the listing depends on, as one ``#`` line."""
    import numpy

    return f"# python {platform.python_version()}, numpy {numpy.__version__}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="source tree to import situnet from (default: this checkout)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    print(header(), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        for label, digest in digests(Path(tmp)):
            print(f"{digest}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
