"""End-to-end command-line driver tests."""

import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet import cli, evaluation, netgen
from situnet.bln import ground, read_model
from situnet.edges import ingest_edges
from situnet.cli import (
    INFER_SEED_OFFSET,
    ConfigError,
    PipelineConfig,
    load_config,
    main,
    run_generation,
)

from conftest import (
    bundled,
    check_refusal,
    edited_lines,
    file_reader,
    gibbs_estimates_oracle,
    lw_estimates_oracle,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_recipe_scenario_writes_outputs(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["generate", "--config", bundled("configs", "recipe.cfg"),
             "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err
        for name in ("graph.tsv", "model.tsv", "assignment.tsv"):
            assert (tmp_path / name).exists(), name
        assert "nodes:" in out and "fragments:" in out
        graph = netgen.load_graph(tmp_path / "graph.tsv")
        assert len(graph.seeds()) == 19

    def test_empty_seeds_file_is_usage_error(self, tmp_path, capsys):
        seeds = tmp_path / "empty.txt"
        seeds.write_text("# nothing here\n", encoding="utf-8")
        code, _, err = run_cli(
            ["generate", "--config", bundled("configs", "mini.cfg"),
             "--seeds", str(seeds), "--out-dir", str(tmp_path / "out")], capsys)
        assert code != 0
        assert "empty" in err

    def test_reruns_byte_identical(self, tmp_path, capsys):
        config = bundled("configs", "mini.cfg")
        code1, _, _ = run_cli(["generate", "--config", config,
                               "--out-dir", str(tmp_path / "a")], capsys)
        code2, _, _ = run_cli(["generate", "--config", config,
                               "--out-dir", str(tmp_path / "b")], capsys)
        assert code1 == code2 == 0
        for name in ("graph.tsv", "model.tsv", "assignment.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_changed_seed_changes_no_artifact(self, tmp_path, capsys):
        config = load_config(bundled("configs", "mini.cfg"))[0]
        for seed, out in ((7, "a"), (8, "b")):
            path = tmp_path / f"{out}.cfg"  # mini.cfg, its paths absolute, with this seed
            path.write_text("".join(f"{key}={value}\n" for key, value in
                                    asdict(replace(config, seed=seed)).items()),
                            encoding="utf-8")
            code, _, err = run_cli(["generate", "--config", str(path),
                                    "--out-dir", str(tmp_path / out)], capsys)
            assert code == 0, err
        for name in ("graph.tsv", "model.tsv", "assignment.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name

    def test_bad_weight_lines_change_no_artifact(self, tmp_path, capsys):
        # each line below once failed generate: a TypeError in the edges stage,
        # or a NaN strength in validate; now each is skipped like any malformed line
        dump = tmp_path / "conceptnet.tsv"
        bad = [f"/a/x\t/r/{rel}\t/c/en/pan\t/c/en/{end}\t{{\"weight\": {weight}}}"
               for rel, end, weight in (("UsedFor", "fry", "null"), ("UsedFor", "cook", "[1.0]"),
                                        ("AtLocation", "kitchen", "Infinity"),
                                        ("IsA", "cookware", "NaN"))]
        bad += ["HasProperty\tpan\thot\tinf", "UsedFor\tstove\tcook\tnan"]
        with open(bundled("conceptnet.tsv"), encoding="utf-8") as source:
            dump.write_text(source.read() + "\n".join(bad) + "\n", encoding="utf-8")
        config = load_config(bundled("configs", "recipe.cfg"))[0]
        for edges, out in ((config.edges, "bundled"), (str(dump), "bad")):
            path = tmp_path / f"{out}.cfg"  # recipe.cfg, its paths absolute, with this dump
            path.write_text("".join(f"{key}={value}\n" for key, value in
                                    asdict(replace(config, edges=edges)).items()),
                            encoding="utf-8")
            code, _, err = run_cli(["generate", "--config", str(path),
                                    "--out-dir", str(tmp_path / out)], capsys)
            assert code == 0, err
        for name in ("graph.tsv", "model.tsv", "assignment.tsv"):
            assert (tmp_path / "bundled" / name).read_bytes() == \
                (tmp_path / "bad" / name).read_bytes(), name

    def test_stage_error_named_and_no_partial_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            ["generate", "--config", bundled("configs", "mini.cfg"),
             "--seeds", bundled("seeds", "recipe.txt").replace("recipe", "missing"),
             "--out-dir", str(out_dir)], capsys)
        assert code != 0
        assert "seeds" in err
        assert not out_dir.exists()  # failures leave no partial artifacts


ARTIFACTS = ("graph.tsv", "model.tsv", "assignment.tsv")


def bundled_lines(*parts):
    with open(bundled(*parts), encoding="utf-8") as handle:
        return handle.read().splitlines()


def bundled_dump_lines():
    return bundled_lines("conceptnet.tsv")


def generate_on(work, name, scenario="recipe", **inputs):
    """The artifacts of ``generate`` on ``<scenario>.cfg`` with each data file named by a
    key of ``inputs``, such as ``edges``, replaced by a file of the given lines, or a
    data directory, such as ``lexicon``, by one of the given files and their lines."""
    config, _ = load_config(bundled("configs", f"{scenario}.cfg"))
    paths = {}
    for key, lines in inputs.items():
        paths[key] = str(work / f"{name}.{key}")
        files = {Path(paths[key]): lines}
        if isinstance(lines, dict):
            Path(paths[key]).mkdir()
            files = {Path(paths[key]) / file: file_lines for file, file_lines in lines.items()}
        for path, file_lines in files.items():
            path.write_text("\n".join(file_lines) + "\n", encoding="utf-8")
    path = work / f"{name}.cfg"
    path.write_text("".join(f"{key}={value}\n"
                            for key, value in asdict(replace(config, **paths)).items()),
                    encoding="utf-8")
    out_dir = work / name
    assert main(["generate", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


def with_weight(line, scale):
    """A dump line with its weight times ``scale`` (a missing URI-layout weight is 1.0)."""
    cols = line.split("\t")
    if len(cols) == 5:
        meta = json.loads(cols[4]) if cols[4].strip() else {}
        cols[4] = json.dumps({**meta, "weight": float(meta.get("weight", 1.0)) * scale})
    else:
        cols[3] = repr(float(cols[3]) * scale)
    return "\t".join(cols)


@pytest.fixture(scope="module")
def bundled_dump_artifacts(tmp_path_factory):
    return generate_on(tmp_path_factory.mktemp("dump"), "bundled", edges=bundled_dump_lines())


class TestRelationDump:
    """``generate`` over edited copies of the bundled relation dump."""

    def test_weightless_relation_dropped_like_its_deleted_lines(self, tmp_path, caplog):
        """Every HasProperty weight at 0: the run goes on as if those lines were gone."""
        lines = bundled_dump_lines()

        def has_property(line):
            cols = line.split("\t")
            return len(cols) in (4, 5) and cols[-4].removeprefix("/r/") == "HasProperty"

        assert sum(map(has_property, lines)) == 39
        zeroed = [with_weight(line, 0.0) if has_property(line) else line for line in lines]
        deleted = [line for line in lines if not has_property(line)]
        assert generate_on(tmp_path, "zeroed", edges=zeroed) == \
            generate_on(tmp_path, "deleted", edges=deleted)
        assert "dropped 39 edges of HasProperty" in caplog.text

    @settings(max_examples=20)
    @given(data=st.data())
    def test_line_order_and_weaker_repeats_change_no_artifact(
            self, data, bundled_dump_artifacts, tmp_path_factory):
        """Permuted lines, some repeated at a lower weight, give the bundled artifacts."""
        lines = bundled_dump_lines()
        edge_lines = [i for i, line in enumerate(lines) if ingest_edges([line]).edges]
        repeats = data.draw(st.lists(st.tuples(st.sampled_from(edge_lines),
                                               st.sampled_from([0.0, 0.5, 0.999])),
                                     max_size=20))
        edited = data.draw(st.permutations(
            lines + [with_weight(lines[i], scale) for i, scale in repeats]))
        work = tmp_path_factory.mktemp("permuted")
        assert generate_on(work, "permuted", edges=edited) == bundled_dump_artifacts


@pytest.fixture(scope="module")
def scenario_artifacts(tmp_path_factory):
    """The ``generate`` artifacts of the three bundled scenarios, on the bundled files."""
    work = tmp_path_factory.mktemp("scenarios")
    return {name: generate_on(work, name, name) for name in ("recipe", "laundry", "cleaning")}


# config key -> its bundled file; the reader of each ignores the order of its lines
ORDER_FREE_INPUTS = {"esa_corpus": "esa_corpus.tsv", "corpus": "frequencies.tsv",
                     "stopwords": "stopwords.txt"}


@settings(max_examples=25)
@given(data=st.data())
def test_input_line_order_changes_no_artifact(data, scenario_artifacts, tmp_path_factory):
    """Permuted ESA corpus, frequency and stopword files give the bundled artifacts."""
    inputs = {key: data.draw(st.permutations(bundled_lines(name)), label=key)
              for key, name in ORDER_FREE_INPUTS.items()}
    work = tmp_path_factory.mktemp("permuted")
    for scenario, artifacts in scenario_artifacts.items():
        assert generate_on(work, scenario, scenario, **inputs) == artifacts, scenario


@settings(max_examples=20)
@given(data=st.data())
def test_lexicon_line_order_changes_no_artifact(data, scenario_artifacts, tmp_path_factory):
    """Permuted ``index.noun`` and ``data.noun`` lines give the bundled artifacts."""
    lexicon = {name: data.draw(st.permutations(bundled_lines("lexicon", name)), label=name)
               for name in ("index.noun", "data.noun")}
    work = tmp_path_factory.mktemp("lexicon")
    for scenario, artifacts in scenario_artifacts.items():
        assert generate_on(work, scenario, scenario, lexicon=lexicon) == artifacts, scenario


@pytest.fixture(scope="module")
def laundry_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("laundry")
    code = main(["generate", "--config", bundled("configs", "laundry.cfg"),
                 "--out-dir", str(out)])
    assert code == 0
    return out / "model.tsv"


@pytest.fixture(scope="module")
def mini_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    code = main(["generate", "--config", bundled("configs", "mini.cfg"),
                 "--out-dir", str(out)])
    assert code == 0
    return out / "model.tsv"


@pytest.fixture
def certain_model(mini_model, tmp_path):
    """The mini model with both rows of ``AtLocation(x,cupboard)``, whose one
    parent is ``IsA(x,pan)``, edited to 1.0 by hand."""
    text = mini_model.read_text(encoding="utf-8")
    edited = re.sub(r"^(FRAGMENT\tAtLocation\(x,cupboard\)\tIsA\(x,pan\)\t)[^\t]*",
                    r"\g<1>1.0 1.0", text, flags=re.M)
    assert edited != text
    path = tmp_path / "model.tsv"
    path.write_text(edited, encoding="utf-8")
    return path


class TestInfer:
    def test_sock_location_ranking(self, laundry_model, capsys):
        code, out, err = run_cli(
            ["infer", "--model", str(laundry_model),
             "--evidence", "IsA(obj1,sock)=true",
             "--query", "AtLocation(obj1,*)",
             "--method", "lw", "--samples", "20000", "--seed", "3"], capsys)
        assert code == 0, err
        lines = [l.split("\t") for l in out.strip().splitlines()]
        ranked = {name: float(p) for p, name in lines}
        assert ranked["AtLocation(obj1,dresser)"] > 0.5
        probs = [float(l[0]) for l in lines]
        assert probs == sorted(probs, reverse=True)

    def test_exact_lists_every_location(self, laundry_model, capsys):
        code, out, err = run_cli(
            ["infer", "--model", str(laundry_model),
             "--evidence", "IsA(obj1,sock)=true",
             "--query", "AtLocation(obj1,*)", "--method", "exact"], capsys)
        assert code == 0, err
        _, fragments = read_model(laundry_model)
        locations = {f"AtLocation(obj1,{f.child.args[1]})" for f in fragments
                     if f.child.predicate == "AtLocation"}
        ranked = {name: float(p) for p, name in (l.split("\t") for l in out.splitlines())}
        assert len(ranked) == len(out.splitlines())
        assert set(ranked) == locations
        assert ranked["AtLocation(obj1,dresser)"] > 0.5

    def test_query_equal_to_evidence_is_one(self, laundry_model, capsys):
        code, out, _ = run_cli(
            ["infer", "--model", str(laundry_model),
             "--evidence", "IsA(obj1,sock)=true",
             "--query", "IsA(obj1,sock)"], capsys)
        assert code == 0
        prob, name = out.strip().split("\t")
        assert float(prob) == 1.0 and name == "IsA(obj1,sock)"

    def test_exact_and_lw_agree(self, mini_model, capsys):
        args = ["infer", "--model", str(mini_model),
                "--evidence", "IsA(obj1,garlic)=true",
                "--query", "UsedFor(obj1,*)", "--seed", "5"]
        code, out_exact, _ = run_cli(args + ["--method", "exact"], capsys)
        assert code == 0
        code, out_lw, _ = run_cli(args + ["--method", "lw", "--samples", "50000"],
                                  capsys)
        assert code == 0

        def parse(text):
            return {name: float(p) for p, name in
                    (line.split("\t") for line in text.strip().splitlines())}

        exact, lw = parse(out_exact), parse(out_lw)
        assert set(exact) == set(lw)
        for name in exact:
            assert abs(exact[name] - lw[name]) < 0.02, name

    @pytest.mark.parametrize("evidence", [["IsA(obj1,stove)=true;IsA(obj1,stove)=false"],
                                          ["IsA(obj1,stove)=true", " IsA(obj1,stove) = 1"]])
    def test_variable_named_twice_in_evidence_refused(self, mini_model, capsys, evidence):
        code, out, err = run_cli(
            ["infer", "--model", str(mini_model), "--query", "UsedFor(obj1,heat)",
             *(arg for item in evidence for arg in ("--evidence", item))], capsys)
        assert code == 1 and out == ""
        assert err == "error: evidence names 'IsA(obj1,stove)' twice\n"

    def test_unknown_variable_lists_near_matches(self, mini_model, capsys):
        code, _, err = run_cli(
            ["infer", "--model", str(mini_model),
             "--evidence", "IsA(obj1,garlik)=true",
             "--query", "UsedFor(obj1,*)"], capsys)
        assert code != 0
        assert "IsA(obj1,garlic)" in err

    def test_gibbs_method(self, mini_model, capsys):
        code, out, _ = run_cli(
            ["infer", "--model", str(mini_model),
             "--evidence", "IsA(obj1,stove)=true",
             "--query", "UsedFor(obj1,heat)",
             "--method", "gibbs", "--samples", "20000", "--seed", "4"], capsys)
        assert code == 0
        prob = float(out.strip().split("\t")[0])
        assert prob > 0.5

    @pytest.mark.parametrize("method", ["exact", "lw"])
    def test_hand_edited_certain_row_answers_one(self, certain_model, capsys, method):
        code, out, err = run_cli(
            ["infer", "--model", str(certain_model), "--evidence", "IsA(obj1,pan)=true",
             "--query", "AtLocation(obj1,cupboard)", "--method", method,
             "--samples", "2000"], capsys)
        assert code == 0, err
        assert out == "1.000000\tAtLocation(obj1,cupboard)\n"

    def test_hand_edited_certain_row_stops_gibbs(self, certain_model, capsys):
        # queried with its child AtLocation(obj1,kitchen), the cupboard is drawn
        code, out, err = run_cli(
            ["infer", "--model", str(certain_model), "--evidence", "IsA(obj1,stove)=true",
             "--query", "AtLocation(obj1,*)", "--method", "gibbs", "--samples", "2000"],
            capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ErgodicityError: variable AtLocation(obj1,cupboard) "
                              "has a deterministic CPF row")

    @pytest.mark.parametrize("flag", ["frozen", "x"])
    def test_flag_other_than_dash_exits_naming_its_line(self, mini_model, tmp_path, capsys,
                                                        flag):
        lines = mini_model.read_text(encoding="utf-8").splitlines(keepends=True)
        at = max(i for i, line in enumerate(lines) if line.startswith("FRAGMENT"))
        assert lines[at].endswith("\t-\n")
        lines[at] = lines[at][:-2] + flag + "\n"
        path = tmp_path / "model.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        code, out, err = run_cli(["infer", "--model", str(path), "--query", "IsA(obj1,pan)"],
                                 capsys)
        assert code == 1 and out == ""
        assert err == (f"error: ValueError: bad model record on line {at + 1}: "
                       f"flag must be '-', got '{flag}'\n")

    @pytest.mark.parametrize("pattern, same_as", [
        ("IsA(*,pan)", "IsA(obj1,pan)"),  # no phantom object for the * slot
        ("IsA(*,*)", "IsA(obj1,*)"),  # a * in the object slot, and a second *
        ("IsA(obj*,*n*)", "IsA(obj1,*n*)"),
    ])
    def test_star_in_the_object_slot_names_no_object(self, mini_model, capsys, pattern,
                                                     same_as):
        args = ["infer", "--model", str(mini_model), "--evidence", "IsA(obj1,pan)=true",
                "--method", "exact", "--query"]
        code, expected, err = run_cli(args + [same_as], capsys)
        assert code == 0 and expected, err
        assert run_cli(args + [pattern], capsys) == (0, expected, "")

    @pytest.mark.parametrize("args, error", [
        # a prefix and a suffix that overlap in the name match no variable
        (["--evidence", "IsA(obj1,pan)=true", "--query", "IsA(obj1,pan*an)"],
         "query pattern 'IsA(obj1,pan*an)' matches no variables"),
        (["--query", "IsA(*,pan)"], "no objects named in evidence or queries"),
        (["--evidence", "IsA(obj1,pan)=true", "--query", "IsA(obj1,pann)"],
         "unknown variable 'IsA(obj1,pann)'; near matches: IsA(obj1,pan), "
         "IsA(obj1,garlic), IsA(obj1,utensil)"),
    ])
    def test_pattern_refusals(self, mini_model, capsys, args, error):
        code, out, err = run_cli(["infer", "--model", str(mini_model), "--method", "exact",
                                  *args], capsys)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    @settings(max_examples=200)
    @given(data=st.data())
    def test_pattern_matches_as_shell_star(self, mini_model, data):
        """Each ``*`` stands for any run of characters, and the whole name must match."""
        from fnmatch import fnmatchcase

        net = ground(*read_model(mini_model), ["obj1", "obj2"])
        name = data.draw(st.sampled_from(net.names), label="name")
        cuts = sorted(data.draw(st.lists(st.integers(0, len(name)), max_size=6), label="cuts"))
        pieces = [name[i:j] for i, j in zip([0, *cuts], [*cuts, len(name)])]
        # drop some pieces and join the rest by *, so the name is sure to match
        kept = [piece if data.draw(st.booleans()) else "" for piece in pieces]
        pattern = data.draw(st.sampled_from(["*".join(kept), "*".join(kept) + "x"]),
                            label="pattern")
        matches = [n for n in net.names if fnmatchcase(n, pattern)]
        if matches:
            assert cli._expand_query(pattern, net) == matches
        else:
            with pytest.raises(ConfigError):
                cli._expand_query(pattern, net)

    @pytest.mark.parametrize("edit, query, line_holds, reason", [
        (("SIG\tAtLocation\tobject\tlocation\n", ""), "AtLocation(obj1,laundry)",
         "AtLocation(", "predicate 'AtLocation' has no SIG record"),
        (("(x,laundry)", "(x,laundry,laundry)"), "AtLocation(obj1,laundry,laundry)",
         "(x,laundry,laundry)", "AtLocation takes 2 arguments"),
        (("(x,laundry)", "(laundry,x)"), "AtLocation(laundry,obj1)",
         "(laundry,x)", "'laundry' is no entity of type 'object'"),
        (("ENTITY\tlaundry\tlocation\n", ""), "AtLocation(obj1,laundry)",
         "(x,laundry)", "'laundry' is no entity of type 'location'"),
        (("ENTITY\tlaundry\tlocation", "ENTITY\tlaundry\troom"), "AtLocation(obj1,laundry)",
         "ENTITY\tlaundry\t", "entity 'laundry' has undeclared type 'room'"),
    ], ids=["no-sig", "third-argument", "x-second", "no-entity", "undeclared-type"])
    def test_model_that_breaks_its_declaration_exits_naming_its_line(
            self, laundry_model, tmp_path, capsys, edit, query, line_holds, reason):
        """Hand edits of every occurrence that an unchecked model would answer with
        the unedited model's 0.850879."""
        text = laundry_model.read_text(encoding="utf-8")
        assert edit[0] in text
        path = tmp_path / "model.tsv"
        path.write_text(text.replace(*edit), encoding="utf-8")
        line_no = next(number for number, line in enumerate(path.read_text().splitlines(), 1)
                       if line_holds in line and line.startswith(("FRAGMENT", "ENTITY")))
        code, out, err = run_cli(["infer", "--model", str(path), "--method", "exact",
                                  "--evidence", "IsA(obj1,washer)=true", "--query", query],
                                 capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: ValueError: bad model record on line {line_no}: ")
        assert err.endswith(f"{reason}\n")

    @pytest.mark.parametrize("method", ["lw", "gibbs", "exact"])
    def test_two_patterns_print_the_lines_of_separate_runs(self, mini_model, capsys,
                                                            method):
        args = ["infer", "--model", str(mini_model), "--evidence", "IsA(obj1,stove)=true",
                "--method", method, "--samples", "2000", "--seed", "6"]
        patterns = ["--query", "AtLocation(obj1,*)"], ["--query", "UsedFor(obj1,*)"]
        separate = []
        for pattern in patterns:
            code, out, err = run_cli(args + pattern, capsys)
            assert code == 0, err
            separate += out.splitlines()
        code, out, err = run_cli(args + patterns[0] + patterns[1], capsys)
        assert code == 0, err
        if method != "exact":
            # the samplers draw the network reduced for every query of the run,
            # Gibbs with the default burn-in and chain count
            net = ground(*read_model(mini_model), ["obj1"])
            queries = [line.split("\t")[1] for line in separate]
            evidence, seed = {"IsA(obj1,stove)": True}, 6 + INFER_SEED_OFFSET
            joint = (lw_estimates_oracle(net, queries, evidence, 2000, seed) if method == "lw"
                     else gibbs_estimates_oracle(net, queries, evidence,
                                                 PipelineConfig().burn_in, 2000, seed, 512))
            separate = [f"{prob:.6f}\t{name}" for name, prob in joint.items()]
        ranked = sorted(separate, key=lambda line: (-float(line.split("\t")[0]),
                                                    line.split("\t")[1]))
        assert out.splitlines() == ranked


def exit_of(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that ends the program."""
    with pytest.raises(SystemExit) as stop:
        parse(argv)
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


class TestParser:
    """``main`` builds only the invoked subcommand's arguments."""

    @pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"], ["infer", "--help"],
                                      ["evaluate", "--help"]])
    def test_help_equals_full_parser(self, argv, capsys):
        expected = exit_of(cli.build_parser().parse_args, argv, capsys)
        assert expected[0] == 0 and expected[1]
        assert exit_of(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--model", "m.tsv"], ["infer"],
                                      ["infer", "--model", "m.tsv", "--out-dir", "x"],
                                      ["infer", "--model", "m.tsv", "--query", "q",
                                       "--alpha", "0.5"]])
    def test_usage_error_equals_full_parser(self, argv, capsys):
        expected = exit_of(cli.build_parser().parse_args, argv, capsys)
        assert expected[0] == 2 and expected[2]
        assert exit_of(main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", [
        ["generate", "--config", "a.cfg", "--alpha", "0.9"],
        ["infer", "--model", "m.tsv", "--query", "IsA(o,*)", "--evidence", "IsA(o,a)=true",
         "--method", "lw", "--seed", "3"],
        ["evaluate", "--config", "a.cfg", "--out-dir", "out", "--samples", "10"],
    ])
    def test_partial_parser_reads_the_same_arguments(self, argv):
        full = cli.build_parser().parse_args(argv)
        assert cli.build_parser(argv[0]).parse_args(argv) == full

    @pytest.mark.parametrize("argv", [
        *(["generate", "--config", "a.cfg", flag, value]
          for flag, value in (("--samples", "10"), ("--method", "lw"), ("--seed", "3"))),
        *(["infer", "--model", "m.tsv", "--query", "q", flag, value]
          for flag, value in (("--seeds", "s.txt"), ("--environment", "house"),
                              ("--min-children", "99"), ("--ic-threshold", "1.0"),
                              ("--alpha", "0.1"), ("--root-prior", "0.9"))),
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_flag_the_command_does_not_read_is_refused(self, argv, capsys):
        # options match whole: generate's --seed is not taken for --seeds
        code, out, err = exit_of(main, argv, capsys)
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {argv[-2]} {argv[-1]}\n")

    def test_other_subcommands_get_no_arguments(self):
        # given a command, the parser registers only it, and its usage names all three
        full = cli.build_parser()
        for command in cli.COMMANDS:
            parser = cli.build_parser(command)
            assert parser.format_usage() == full.format_usage()
            listed = [name for name, (help_line, _) in cli.COMMANDS.items()
                      if help_line in parser.format_help()]
            assert listed == [command]


class TestLoadConfig:
    def write(self, tmp_path, lines):
        path = tmp_path / "eval.cfg"
        path.write_text("\n".join(["seed=3", "scenarios=cleaning", *lines]) + "\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("key", ["cleaning.method", "cleaning.sedes", "recipe.burn_in"])
    def test_unscopable_dotted_key_rejected_with_line(self, tmp_path, key):
        path = self.write(tmp_path, ["cleaning.seeds=s.txt", f"{key}=bogus"])
        with pytest.raises(ConfigError, match=re.escape(f"{path}:4: '{key}' cannot be scoped")):
            load_config(path)

    @pytest.mark.parametrize("line, message", [
        ("samples=abc", "samples must be an integer, got 'abc'"),
        ("alpha=0.x", "alpha must be a number, got '0.x'"),
        ("recipe.samples=abc", "recipe.samples must be an integer, got 'abc'"),
    ])
    def test_malformed_number_rejected_with_line(self, tmp_path, line, message):
        path = self.write(tmp_path, [line])
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: {message}")):
            load_config(path)

    def test_malformed_scoped_number_fails_evaluate_cleanly(self, tmp_path, capsys):
        path = self.write(tmp_path, ["cleaning.min_children=many"])
        code, _, err = run_cli(["evaluate", "--config", str(path)], capsys)
        assert code == 1
        assert err == f"error: {path}:3: cleaning.min_children must be an integer, got 'many'\n"

    @pytest.mark.parametrize("line", ["n_worlds=20000", "pseudocount=1.0", "language=en",
                                      "min_doc_freq=1", "esa_weighting=raw_count"])
    def test_removed_sampling_keys_are_unknown(self, tmp_path, line):
        path = self.write(tmp_path, [line])
        key = line.partition("=")[0]
        with pytest.raises(ConfigError, match=re.escape(f"{path}:3: unknown key '{key}'")):
            load_config(path)

    @pytest.mark.parametrize("key, first, second", [
        ("samples", "20000", "20000"),
        ("method", "lw", "gibbs"),
        ("cleaning.seeds", "a.txt", "b.txt"),
    ])
    def test_key_set_twice_names_its_first_line(self, tmp_path, key, first, second):
        path = self.write(tmp_path, [f"{key}={first}", "# a comment", f"{key} = {second}"])
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}:5: '{key}' is already set on line 3")):
            load_config(path)

    def test_scoped_keys_kept_for_unlisted_scenarios(self, tmp_path):
        path = self.write(tmp_path, ["cleaning.samples=10", "recipe.seeds=r.txt"])
        config, overrides = load_config(path)
        assert config.scenarios == "cleaning"
        assert overrides["cleaning"]["samples"] == 10
        assert overrides["recipe"]["seeds"] == str(tmp_path / "r.txt")


class TestEvaluate:
    def test_flag_wins_over_scoped_key(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "eval.cfg"
        data = (("lexicon", "lexicon"), ("edges", "conceptnet.tsv"),
                ("corpus", "frequencies.tsv"), ("stopwords", "stopwords.txt"),
                ("esa_corpus", "esa_corpus.tsv"), ("cleaning.seeds", "seeds/cleaning.txt"),
                ("cleaning.gold", "gold/cleaning.tsv"))
        path.write_text("\n".join([*(f"{key}={bundled(name)}" for key, name in data),
                                   "scenarios=cleaning", "cleaning.environment=house",
                                   "cleaning.samples=300"]) + "\n", encoding="utf-8")
        samples = []
        run_scenario = evaluation.run_scenario
        monkeypatch.setattr(evaluation, "run_scenario",
                            lambda *args: samples.append(args[5]) or run_scenario(*args))
        code, _, err = run_cli(["evaluate", "--config", str(path), "--samples", "50"],
                               capsys)
        assert code == 0, err
        assert samples == [50]

    def test_three_bundled_scenarios(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["evaluate", "--config", bundled("configs", "eval_all.cfg"),
             "--out-dir", str(tmp_path)], capsys)
        assert code == 0, err
        lines = out.strip().splitlines()
        header = lines[0].split()
        assert header == ["Scenario", "IsA", "AtLocation", "HasProperty",
                          "UsedFor", "WSD"]
        names = [line.split()[0] for line in lines[1:4]]
        assert names == ["recipe", "laundry", "cleaning"]
        assert (tmp_path / "report.txt").exists()
        machine = (tmp_path / "report.tsv").read_text(encoding="utf-8")
        assert len(machine.strip().splitlines()) == 15

    def test_data_files_loaded_once_for_all_scenarios(self, tmp_path, capsys, monkeypatch):
        calls = []
        for loader in ("load_lexicon", "load_frequencies", "load_stopwords", "load_edges",
                       "load_documents", "build_esa_index"):
            real = getattr(cli, loader)
            monkeypatch.setattr(cli, loader, lambda *args, real=real, loader=loader, **kw:
                                calls.append(loader) or real(*args, **kw))
        code, _, err = run_cli(["evaluate", "--config", bundled("configs", "eval_all.cfg"),
                                "--out-dir", str(tmp_path / "all")], capsys)
        assert code == 0, err
        assert sorted(calls) == ["build_esa_index", "load_documents", "load_edges",
                                 "load_frequencies", "load_lexicon", "load_stopwords"]
        # each scenario on its own config loads its own data
        single = b""
        for name in ("recipe", "laundry", "cleaning"):
            code, _, err = run_cli(["evaluate", "--config", bundled("configs", f"{name}.cfg"),
                                    "--out-dir", str(tmp_path / name)], capsys)
            assert code == 0, err
            single += (tmp_path / name / "report.tsv").read_bytes()
        assert (tmp_path / "all" / "report.tsv").read_bytes() == single

    def test_single_scenario_single_row(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--config", bundled("configs", "mini.cfg"),
             "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 2
        assert lines[1].split()[0] == "wsd_kitchen"

    def test_report_matches_module_level_pipeline(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["evaluate", "--config", bundled("configs", "mini.cfg")], capsys)
        assert code == 0
        cli_row = out.strip().splitlines()[1].split()

        config, _ = load_config(bundled("configs", "mini.cfg"))
        products = run_generation(config)
        gold = evaluation.load_gold(config.gold)
        results = evaluation.run_scenario(products.declaration, products.fragments,
                                          list(products.assignment.choices), gold,
                                          config.method, config.samples, config.burn_in,
                                          config.seed + 100)
        report = evaluation.score(results, gold, products.assignment)
        from situnet.evaluation import RELATION_COLUMNS
        expected = [f"{report.per_relation[r]:.1f}" for r in RELATION_COLUMNS]
        assert cli_row[1:5] == expected


# each checked key, a value its check refuses, and the refusal
BAD_VALUES = [
    ("min_children", "0", "min_children must be >= 1"),
    ("ic_threshold", "nan", "ic_threshold must be a number, got nan"),
    ("alpha", "2", "alpha must be in [0, 1], got 2.0"),
    ("root_prior", "-0.5", "root_prior must be in [0, 1], got -0.5"),
    ("samples", "0", "samples must be >= 1"),
    ("method", "bogus", "method must be one of exact, lw, gibbs, got 'bogus'"),
    ("seed", "-5", "seed must be >= 0"),
    ("burn_in", "-1", "burn_in must be >= 0"),
]
GENERATION = {"min_children", "ic_threshold", "alpha", "root_prior"}
SAMPLER = {"samples", "method", "seed", "burn_in"}
READS = {"generate": GENERATION, "infer": SAMPLER, "evaluate": GENERATION | SAMPLER}


class TestValidate:
    """A command refuses a bad value of a key it reads, and ignores a key it does not."""

    def config(self, path, **overrides):
        """mini.cfg with its paths absolute and ``overrides`` written over its keys."""
        values = {**asdict(load_config(bundled("configs", "mini.cfg"))[0]), **overrides}
        path.write_text("".join(f"{key}={value}\n" for key, value in values.items()),
                        encoding="utf-8")
        return path

    def run(self, command, config, out_dir, model, capsys, *flags):
        """Exit code, stdout, stderr and written files of ``command`` on ``config``."""
        argv = {"generate": ["--out-dir", str(out_dir)],
                "infer": ["--model", str(model), "--evidence", "IsA(obj1,garlic)=true",
                          "--query", "UsedFor(obj1,*)"],
                "evaluate": ["--out-dir", str(out_dir)]}[command]
        code, out, err = run_cli([command, "--config", str(config), *argv, *flags], capsys)
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        return code, out.replace(str(out_dir), "OUT"), err, files

    @pytest.mark.parametrize("command", ["generate", "infer", "evaluate"])
    @pytest.mark.parametrize("key, value, refusal", BAD_VALUES,
                             ids=[f"{key}={value}" for key, value, _ in BAD_VALUES])
    def test_command_checks_only_the_keys_it_reads(self, tmp_path, mini_model, capsys,
                                                   command, key, value, refusal):
        bad = self.run(command, self.config(tmp_path / "bad.cfg", **{key: value}),
                       tmp_path / "bad", mini_model, capsys)
        if key in READS[command]:
            assert bad == (1, "", f"error: {refusal}\n", {})
        else:
            good = self.run(command, self.config(tmp_path / "mini.cfg"), tmp_path / "good",
                            mini_model, capsys)
            assert good[0] == 0 and good[1], good
            assert bad == good

    @pytest.mark.parametrize("command, flags, refusal", [
        ("generate", ["--ic-threshold", "nan"], "ic_threshold must be a number, got nan"),
        ("infer", ["--method", "lw", "--seed", "-5"], "seed must be >= 0"),
        ("evaluate", ["--seed", "-200"], "seed must be >= 0"),
    ])
    def test_flag_value_checked_like_the_file(self, tmp_path, mini_model, capsys,
                                              command, flags, refusal):
        assert self.run(command, bundled("configs", "mini.cfg"), tmp_path / "out", mini_model,
                        capsys, *flags) == (1, "", f"error: {refusal}\n", {})

    def test_negative_ic_threshold_prunes_by_blocklist_alone(self, tmp_path, capsys):
        # no information content is negative, so -1 and 0 prune the same nodes
        for threshold in ("-1", "0"):
            config = self.config(tmp_path / f"{threshold}.cfg", ic_threshold=threshold)
            code, _, err = run_cli(["generate", "--config", str(config),
                                    "--out-dir", str(tmp_path / threshold)], capsys)
            assert code == 0, err
        for name in ("graph.tsv", "model.tsv", "assignment.tsv"):
            assert (tmp_path / "-1" / name).read_bytes() == \
                (tmp_path / "0" / name).read_bytes(), name


@settings(max_examples=200)
@given(data=st.data())
def test_config_reader_refuses_with_a_line_number(data, tmp_path_factory):
    lines = bundled_lines("configs", "eval_all.cfg")
    fields = ["samples=abc", "samples=5", "alpha=nan", "alpha=0.x", "seed=-1", "method=lw",
              "recipe.samples=x", "recipe.alpha=2", "recipe.lexicon=x", "bogus=1", "seeds",
              "=", "=1", "a.b.seeds=s", "ic_threshold=1e999", "min_children=1_0", "#x", ""]
    lines = data.draw(edited_lines(lines, fields))
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    check_refusal(file_reader(load_config, path), lines, ConfigError,
                  rf"^{re.escape(str(path))}:(\d+): ")
