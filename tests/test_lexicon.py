"""Lexicon parsing, taxonomy metrics, and profile sources."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from situnet.disambiguation import build_wsp
from situnet.lexicon import (
    CorpusFrequencies,
    HierarchyCycleError,
    LexiconIndex,
    LexiconParseError,
    Synset,
    UndefinedSimilarityError,
    load_frequencies,
    load_stopwords,
    parse_lexicon,
    tokenize,
    write_lexicon,
)

from situnet.dag import CycleError

from conftest import bundled, check_refusal, edited_lines, file_reader, parse_lexicon_oracle


def make_index(index_text, data_text):
    return parse_lexicon(index_text, data_text)


TINY_INDEX = """\
entity n 1 0 1 0 00000001
tool n 1 1 @ 1 0 00000002
hammer n 1 1 @ 1 0 00000003
"""

TINY_DATA = """\
00000001 03 n 01 entity 0 000 | that which exists
00000002 03 n 01 tool 0 001 @ 00000001 n 0000 | a thing used to do work
00000003 03 n 01 hammer 0 001 @ 00000002 n 0000 | a tool used to drive nails
"""


class TestParsing:
    def test_pan_has_four_noun_senses(self, lexicon):
        senses = lexicon.senses("pan", "n")
        assert len(senses) == 4
        glosses = [s.gloss for s in senses]
        assert any("cooking utensil" in g for g in glosses)
        assert any("Greek mythology" in g for g in glosses)
        assert any("shallow container" in g for g in glosses)
        assert any("chimpanzees" in g for g in glosses)

    def test_empty_data_stream(self):
        index = parse_lexicon("", "")
        assert len(index) == 0
        assert index.roots == []

    def test_counts_match_text_scan_oracle(self, lexicon):
        """Synset, root, and link counts recomputed by a raw line scan."""
        n_synsets = n_hyper = n_hypo = n_roots = 0
        with open(bundled("lexicon", "data.noun"), encoding="utf-8") as handle:
            for line in handle:
                if not line.strip() or line.startswith(" "):
                    continue
                n_synsets += 1
                pointers = line.split("|")[0]
                hyper = len(re.findall(r" @ ", pointers))
                n_hyper += hyper
                n_hypo += len(re.findall(r" ~ ", pointers))
                if hyper == 0:
                    n_roots += 1
        assert len(lexicon) == n_synsets
        assert len(lexicon.roots) == n_roots
        assert sum(len(s.hypernyms) for s in lexicon.synsets.values()) == n_hyper
        assert sum(len(s.hyponyms) for s in lexicon.synsets.values()) == n_hypo

    def test_sense_counts_match_index_file(self, lexicon):
        with open(bundled("lexicon", "index.noun"), encoding="utf-8") as handle:
            for line in handle:
                if not line.strip() or line.startswith(" "):
                    continue
                fields = line.split()
                lemma, declared = fields[0], int(fields[2])
                assert len(lexicon.senses(lemma, "n")) == declared, lemma

    def test_unknown_word_gives_empty_list(self, lexicon):
        assert lexicon.senses("zzz", "n") == []

    def test_inverse_links_reconstructed(self):
        # data carries only the upward direction; hyponyms must appear anyway
        index = make_index(TINY_INDEX, TINY_DATA)
        entity = index.senses("entity")[0]
        assert entity.hyponyms == ["00000002-n"]
        tool = index.senses("tool")[0]
        assert tool.hyponyms == ["00000003-n"]

    def test_hyponyms_exact_inverse_of_hypernyms(self, lexicon):
        for syn in lexicon.synsets.values():
            for parent in syn.hypernyms:
                assert syn.id in lexicon.get(parent).hyponyms
            for child in syn.hyponyms:
                assert syn.id in lexicon.get(child).hypernyms

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(LexiconParseError) as err:
            parse_lexicon("", "00000001 03 n zz entity 0 000 | broken")
        assert err.value.line_number == 1

    def test_cycle_detected_and_named(self):
        data = (
            "00000001 03 n 01 a 0 001 @ 00000002 n 0000 | one\n"
            "00000002 03 n 01 b 0 001 @ 00000001 n 0000 | two\n"
        )
        with pytest.raises(HierarchyCycleError) as err:
            parse_lexicon("", data)
        assert set(err.value.cycle) >= {"00000001-n", "00000002-n"}
        assert err.value.cycle[0] == err.value.cycle[-1]

    def test_deep_chain_listed_leaf_first(self):
        n = 3000
        data = "".join(f"{i:08d} 03 n 01 w{i} 0 001 @ {i + 1:08d} n 0000 | link\n"
                       for i in range(1, n))
        data += f"{n:08d} 03 n 01 w{n} 0 000 | root\n"
        index = parse_lexicon("", data)
        assert index._depths["00000001-n"] == n
        assert index._depths[f"{n:08d}-n"] == 1

    def test_parse_write_parse_round_trip(self, lexicon):
        index_text, data_text = write_lexicon(lexicon)
        again = parse_lexicon(index_text, data_text)
        assert again.lemma_index == lexicon.lemma_index
        assert set(again.synsets) == set(lexicon.synsets)
        for sid, syn in lexicon.synsets.items():
            assert again.synsets[sid] == syn
        assert write_lexicon(again) == (index_text, data_text)


@st.composite
def lexicons(draw):
    """Hypernym DAGs with meronyms and lemmas shared across synsets.

    Every link has its inverse and every lemma lists each synset that holds
    it, as in a parsed lexicon; each link list and sense ranking comes in
    any order, and synset ids are unrelated to the hierarchy's order.
    """
    n = draw(st.integers(1, 10))
    ids = [f"{offset:08d}-n" for offset in draw(st.permutations(range(1, n + 1)))]
    # hypernyms among the synsets drawn before, so the hierarchy is a DAG
    hypernyms = {sid: draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=3))
                 if i else [] for i, sid in enumerate(ids)}
    meronyms = {sid: draw(st.lists(st.sampled_from(ids), unique=True, max_size=2))
                for sid in ids}
    hyponyms = {sid: [c for c in ids if sid in hypernyms[c]] for sid in ids}
    holonyms = {sid: [w for w in ids if sid in meronyms[w]] for sid in ids}
    lemma = st.sampled_from(["pan", "pot", "iron", "cooking_pan", "a", "washer"])
    synsets = {}
    for sid in ids:
        synsets[sid] = Synset(
            sid, "n", draw(st.lists(lemma, min_size=1, max_size=3, unique=True)),
            draw(st.text("ab |", max_size=8)).strip(), hypernyms[sid],
            draw(st.permutations(hyponyms[sid])), meronyms[sid],
            draw(st.permutations(holonyms[sid])))
    holders = {}
    for sid in ids:
        for word in synsets[sid].lemmas:
            holders.setdefault((word, "n"), []).append(sid)
    lemma_index = {key: draw(st.permutations(sids)) for key, sids in holders.items()}
    return LexiconIndex(synsets, lemma_index)


@settings(max_examples=60)
@given(index=lexicons())
def test_generated_lexicon_round_trip(index):
    texts = write_lexicon(index)
    again = parse_lexicon(*texts)
    assert again.synsets == index.synsets  # every link list, in its order
    assert again.lemma_index == index.lemma_index  # every sense ranking
    assert write_lexicon(again) == texts


def assert_equals_parse_oracle(index_text, data_text):
    """``parse_lexicon`` gives the oracle's synsets, index and depths, or its error."""
    try:
        synsets, lemma_index, depths = parse_lexicon_oracle(index_text, data_text)
    except LexiconParseError as expected:
        with pytest.raises(LexiconParseError) as err:
            parse_lexicon(index_text, data_text)
        assert (str(err.value), err.value.line_number) == (str(expected), expected.line_number)
        return
    except CycleError as expected:
        with pytest.raises(HierarchyCycleError) as err:
            parse_lexicon(index_text, data_text)
        assert err.value.cycle == expected.cycle
        return
    index = parse_lexicon(index_text, data_text)
    assert list(index.synsets.items()) == list(synsets.items())
    assert list(index.lemma_index.items()) == list(lemma_index.items())
    assert {sid: index._depths[sid] for sid in index.synsets} == depths
    assert index.roots == [sid for sid, syn in synsets.items() if not syn.hypernyms]


OFFSETS = ["00000001", "00000002", "00000003", "00000004", "00000005"]
POINTER_SYMBOLS = ["@", "@", "~", "%p", "%m", "%s", "#p", "#m", "#s", "!", "+"]


@st.composite
def lexicon_texts(draw):
    """An index/data text pair over a few offsets, with repeated and reordered
    pointers, and now and then a malformed field or line."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))

    def mostly(valid, *junk):
        return rnd.choice(junk) if rnd.random() < 0.03 else valid

    offsets = rnd.sample(OFFSETS, rnd.randint(1, len(OFFSETS)))
    data = []
    for offset in offsets:
        lemmas = rnd.choices(["pan", "Pot", "cooking_pan", "x"], k=rnd.randint(1, 3))
        links = [" ".join([rnd.choice(POINTER_SYMBOLS), rnd.choice(offsets), mostly("n", "v"),
                           "0000"])
                 for _ in range(rnd.randint(0, 5))]
        line = " ".join([mostly(offset, "0000000x"), "03", "n",
                         mostly(f"{len(lemmas):02x}", "zz", "00", "09"),
                         *[f"{lemma} 0" for lemma in lemmas],
                         mostly(f"{len(links):03d}", "-01", "-02", "-09", "009", "abc"), *links])
        gloss = rnd.choice(["a pan", "", "a | b"])
        data.append(mostly(f"{line} | {gloss}", "  header", "", "00000001 03 n"))
    index = []
    for lemma in rnd.choices(["pan", "pot", "Cooking_Pan"], k=rnd.randint(0, 4)):
        senses = rnd.choices(offsets, k=rnd.randint(1, 3))
        count = mostly(str(len(senses)), "0", "x", "9")
        line = " ".join([lemma, "n", count, "1 @", count, "0",
                         *[mostly(sid, "00000009", "0x") for sid in senses]])
        index.append(mostly(line, "  header", "", "pan n"))
    return "\n".join(index), "\n".join(data)


@settings(max_examples=300)
@given(lexicon_texts())
def test_parse_equals_quadruple_oracle(texts):
    """Strided pointer slices give the links, order, depths and errors of a per-quadruple parse."""
    assert_equals_parse_oracle(*texts)


@pytest.mark.parametrize("count", ["-01", "-02", "-09"])
def test_negative_pointer_count_reads_as_no_pointers(count):
    data = (f"00000001 03 n 01 pan 0 {count} @ 00000002 n 0000 ~ 00000002 n 0000 | a pan\n"
            "00000002 03 n 01 ware 0 000 | goods\n")
    assert_equals_parse_oracle("", data)
    assert parse_lexicon("", data).get("00000001-n").hypernyms == []


def test_bundled_lexicon_equals_quadruple_oracle(lexicon):
    with open(bundled("lexicon", "index.noun"), encoding="utf-8") as idx, \
            open(bundled("lexicon", "data.noun"), encoding="utf-8") as dat:
        index_text, data_text = idx.read(), dat.read()
    assert_equals_parse_oracle(index_text, data_text)
    synsets, lemma_index, _ = parse_lexicon_oracle(index_text, data_text)
    assert list(lexicon.synsets.items()) == list(synsets.items())
    assert list(lexicon.lemma_index.items()) == list(lemma_index.items())


def all_path_depth(lexicon, sid):
    """Oracle depth: longest root path by explicit path enumeration."""
    syn = lexicon.get(sid)
    parents = [p for p in syn.hypernyms if p in lexicon.synsets]
    if not parents:
        return 1
    return 1 + max(all_path_depth(lexicon, p) for p in parents)


def oracle_ancestor_sets(lexicon):
    """Ancestor sets derived the other way round: by descendant scans."""
    ancestors = {sid: {sid} for sid in lexicon.synsets}
    for top in lexicon.synsets:
        for below in _descendants(lexicon, top):
            ancestors[below].add(top)
    return ancestors


def oracle_wup(lexicon, a, b, ancestors=None):
    """Brute force: test every shared ancestor as the subsumer candidate."""
    if ancestors is None:
        ancestors = oracle_ancestor_sets(lexicon)
    common = ancestors[a] & ancestors[b]
    if not common:
        return None
    lcs_depth = max(all_path_depth(lexicon, s) for s in common)
    return 2.0 * lcs_depth / (all_path_depth(lexicon, a) + all_path_depth(lexicon, b))


def _descendants(lexicon, sid):
    out = {sid}
    frontier = [sid]
    while frontier:
        cur = frontier.pop()
        for child in lexicon.get(cur).hyponyms:
            if child in lexicon.synsets and child not in out:
                out.add(child)
                frontier.append(child)
    return out


class TestWuPalmer:
    def test_identity_is_one(self, lexicon):
        for sid in list(lexicon.synsets)[::7]:
            assert lexicon.wup_similarity(sid, sid) == 1.0

    def test_child_parent_forced_value(self):
        # hammer at depth 3 under tool at depth 2: 2*2 / (3+2)
        index = make_index(TINY_INDEX, TINY_DATA)
        hammer = index.senses("hammer")[0]
        tool = index.senses("tool")[0]
        assert index.wup_similarity(hammer, tool) == pytest.approx(0.8)

    def test_matches_bruteforce_oracle_on_all_fixture_pairs(self, lexicon):
        ancestors = oracle_ancestor_sets(lexicon)
        ids = sorted(lexicon.synsets)
        for i, a in enumerate(ids):
            for b in ids[i:]:
                expected = oracle_wup(lexicon, a, b, ancestors)
                if expected is None:
                    with pytest.raises(UndefinedSimilarityError):
                        lexicon.wup_similarity(a, b)
                else:
                    assert lexicon.wup_similarity(a, b) == pytest.approx(expected)

    def test_symmetry_and_bounds(self, lexicon):
        rng = np.random.default_rng(11)
        ids = sorted(lexicon.synsets)
        for _ in range(200):
            a, b = rng.choice(ids, size=2)
            v = lexicon.wup_similarity(a, b)
            assert 0.0 < v <= 1.0
            assert v == lexicon.wup_similarity(b, a)

    def test_monotone_along_ancestor_path(self, lexicon):
        # walking a single hypernym path upward can only lower similarity
        sid = lexicon.senses("garlic")[0].id
        path = [sid]
        while lexicon.get(path[-1]).hypernyms:
            path.append(lexicon.get(path[-1]).hypernyms[0])
        values = [lexicon.wup_similarity(sid, anc) for anc in path]
        assert all(x >= y for x, y in zip(values, values[1:]))

    def test_disjoint_roots_undefined(self):
        data = ("00000001 03 n 01 a 0 000 | one\n"
                "00000002 03 n 01 b 0 000 | two\n")
        index = parse_lexicon("", data)
        with pytest.raises(UndefinedSimilarityError):
            index.wup_similarity("00000001-n", "00000002-n")


class TestInformationContent:
    def test_certain_word_is_zero(self):
        freq = CorpusFrequencies.from_counts({"only": 10})
        assert freq.information_content("only") == pytest.approx(0.0)

    def test_forced_value_under_threshold(self):
        freq = CorpusFrequencies.from_counts({"w": 100, "rest": 9900})
        assert freq.information_content("w") == pytest.approx(-math.log(0.01))
        assert freq.information_content("w") < 5.0

    def test_matches_arithmetic_oracle(self, frequencies):
        for word, count in frequencies.counts.items():
            expected = -math.log(count / frequencies.total)
            assert frequencies.information_content(word) == pytest.approx(expected)

    def test_unseen_word_never_top_level(self, frequencies):
        ic = frequencies.information_content("zyzzogeton")
        assert ic == pytest.approx(math.log(frequencies.total + 1))
        assert ic > 5.0

    def test_strictly_decreasing_in_count(self):
        freq = CorpusFrequencies.from_counts({"a": 1, "b": 10, "c": 100, "pad": 389})
        values = [freq.information_content(w) for w in ("a", "b", "c")]
        assert values[0] > values[1] > values[2]

    def test_loader_round_trip(self, frequencies):
        assert frequencies.total == sum(frequencies.counts.values())
        assert all(c >= 1 for c in frequencies.counts.values())

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_count_below_one_names_its_line(self, tmp_path, count):
        path = tmp_path / "frequencies.tsv"
        path.write_text(f"a\t3\nb\t{count}\n", encoding="utf-8")
        with pytest.raises(LexiconParseError, match="line 2: count below 1") as err:
            load_frequencies(path)
        assert err.value.line_number == 2


class TestLoaders:
    @pytest.mark.parametrize("loader, name", [(load_frequencies, "no_such_file.tsv"),
                                              (load_stopwords, "no_such_file.txt")])
    def test_missing_path_raises(self, tmp_path, loader, name):
        # a loader opens the path it is given, never reads the string as file text
        with pytest.raises(FileNotFoundError):
            loader(str(tmp_path / name))


class TestWspNeighbors:
    """Each profile source, read through the profile :func:`build_wsp` builds."""

    def test_synonyms_are_all_lemmas(self, lexicon):
        pan = lexicon.senses("pan")[0]
        assert pan.lemmas == ["pan", "cooking_pan"]
        assert build_wsp(pan, lexicon)[:2] == ["pan", "cooking_pan"]

    def test_gloss_words_tokenization(self):
        data = ("00000001 03 n 01 pan 0 000 "
                "| cooking utensil consisting of wide metal vessel\n")
        index = parse_lexicon("", data)
        words = build_wsp("00000001-n", index, {"of"})
        assert words == ["pan", "cooking", "utensil", "consisting", "wide", "metal", "vessel"]

    def test_empty_for_missing_links(self):
        index = make_index(TINY_INDEX, TINY_DATA)
        hammer = index.senses("hammer")[0]
        assert hammer.meronyms == hammer.holonyms == []
        # lemma, gloss words and the hypernym's lemma: no part or whole adds a word
        assert build_wsp(hammer, index) == ["hammer", "tool", "used", "to", "drive", "nails"]

    def test_link_kinds_return_linked_lemmas(self, lexicon):
        pan = lexicon.senses("pan")[0]
        profile = build_wsp(pan, lexicon)
        # no gloss holds an underscore compound or "handgrip": these are link lemmas
        assert "cooking_utensil" in profile
        assert "frying_pan" in profile
        assert "handle" in profile
        assert "handgrip" in profile


class TestTokenize:
    def test_splits_on_non_alphanumeric(self):
        assert tokenize("Wide-metal vessel, 2nd edition!") == \
            ["wide", "metal", "vessel", "2nd", "edition"]

    def test_drops_short_tokens_and_stopwords(self):
        assert tokenize("a b of the pan", {"of", "the"}) == ["pan"]


@settings(max_examples=200)
@given(data=st.data())
def test_frequency_reader_refuses_with_a_line_number(data, tmp_path_factory):
    with open(bundled("frequencies.tsv"), encoding="utf-8") as handle:
        lines = handle.read().splitlines()[:6]
    lines = data.draw(edited_lines(lines, ["pan", "5", "0", "-2", "1.5", "1e3", "", "#x"]))
    read = file_reader(load_frequencies, tmp_path_factory.getbasetemp() / "frequencies.tsv")
    check_refusal(read, lines, LexiconParseError, r"^line (\d+): ")
