"""Shared fixtures: the bundled miniature datasets, loaded once per session.

Also two fixed relatedness providers, :class:`TableRelatedness` and
:class:`ConstantRelatedness`, which stand in for the ESA provider
wherever a test needs known scores.

Also the reference oracles that tests compare against: a 2^n joint
table, and LW's count pass over a list of configuration bins and the
per-site Gibbs sweep from a sample-major forward pass, which the
library's samplers must reproduce value for value, both on the reduced
network of :func:`reduced_oracle`; and, for
generation, the cubic seed-tree growth, the word sense profile's five
sources taken one at a time, the per-cell leaky noisy-OR
tables, the sample-major evidence simulation and the per-row CPF
learning that the library must reproduce byte for byte; and the
character loop that ``read_model``'s parent-list split must agree with.
The input readers and generation hot paths have step-by-step oracles
too: the relation dump parsed line by line in full, the ESA index by
per-word sorts, relatedness with both vectors rebuilt per call, the
lexicon pair one pointer quadruple at a time, and the noisy-OR table with
a row mask per edge.
``every_variable_gold`` labels every variable of the one-object network,
so ``run_scenario`` estimates them all.

Also the reader fuzz: :func:`edited_lines` draws random line edits of a
valid input file, and :func:`check_refusal` requires a reader to return
or raise its typed error naming an existing line.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from situnet import data_path
from situnet.bln import (
    _MIN_MEAN_COUNT,
    LEAK,
    AbstractVar,
    EvidenceSet,
    GroundNetwork,
    _graph_topo_order,
    ground,
    variable_for_node,
)
from situnet.cli import load_config, run_generation
from situnet.dag import topological_order
from situnet.disambiguation import SenseAssignment, UnknownSeedError
from situnet.edges import ConceptEdge, RelationType, filter_multiword, load_edges
from situnet.evaluation import OBJECT, GoldStandard
from situnet.lexicon import (
    LexiconParseError,
    Synset,
    UndefinedSimilarityError,
    load_frequencies,
    load_lexicon,
    load_stopwords,
    normalize_lemma,
    tokenize,
)
from situnet.relatedness import EsaRelatedness, build_esa_index, load_documents

# property tests draw the same examples on every run and store none
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def bundled(*parts) -> str:
    return str(data_path(*parts))


class TableRelatedness:
    """Fixed-table provider for tests and controlled experiments.

    The table is symmetrized on construction; unknown pairs score 0 and
    identical known words score 1.
    """

    def __init__(self, table: dict[tuple[str, str], float], default: float = 0.0):
        self.table = {}
        for (a, b), value in table.items():
            a, b = normalize_lemma(a), normalize_lemma(b)
            self.table[(a, b)] = value
            self.table[(b, a)] = value
        self.default = default
        self._known = {a for a, _ in self.table}

    def score(self, word_a: str, word_b: str) -> float:
        a, b = normalize_lemma(word_a), normalize_lemma(word_b)
        if a == b:
            return 1.0 if a in self._known else self.default
        return self.table.get((a, b), self.default)


class ConstantRelatedness:
    """Provider returning one fixed score for distinct words."""

    def __init__(self, value: float = 0.0):
        self.value = value

    def score(self, word_a: str, word_b: str) -> float:
        if normalize_lemma(word_a) == normalize_lemma(word_b):
            return 1.0
        return self.value


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(bundled("lexicon"))


@pytest.fixture(scope="session")
def frequencies():
    return load_frequencies(bundled("frequencies.tsv"))


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords(bundled("stopwords.txt"))


@pytest.fixture(scope="session")
def raw_store():
    return load_edges(bundled("conceptnet.tsv"))


@pytest.fixture(scope="session")
def store(raw_store, lexicon):
    return filter_multiword(raw_store, lexicon)


@pytest.fixture(scope="session")
def documents():
    return load_documents(bundled("esa_corpus.tsv"))


@pytest.fixture(scope="session")
def esa_index(documents, stopwords):
    return build_esa_index(documents, stopwords)


@pytest.fixture(scope="session")
def provider(esa_index):
    return EsaRelatedness(esa_index)


@pytest.fixture(scope="session")
def scenario_products():
    """Full pipeline products for every bundled scenario config."""
    out = {}
    for name in ("mini", "recipe", "laundry", "cleaning"):
        config, _ = load_config(bundled("configs", f"{name}.cfg"))
        out[name] = (config, run_generation(config))
    return out


def every_variable_gold(declaration, fragments, seeds) -> GoldStandard:
    """A gold that labels every variable of the one-object network for every seed."""
    names = ground(declaration, fragments, [OBJECT]).names
    labels = {}
    for seed in seeds:
        for name in names:
            var = AbstractVar.parse(name)
            labels[(seed, RelationType(var.predicate), var.args[1])] = True
    return GoldStandard(labels, {})


def joint_table_oracle(net, query, evidence):
    """Explicit 2^n joint enumeration with numpy."""
    n = len(net.names)
    configs = np.arange(2 ** n)
    bits = ((configs[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    joint = np.ones(2 ** n)
    for v in range(n):
        ps = net.parents[v]
        if ps:
            weights = 1 << np.arange(len(ps) - 1, -1, -1)
            rows = bits[:, ps].astype(int) @ weights
            p_true = net.cpfs[v][rows]
        else:
            p_true = np.full(2 ** n, net.cpfs[v][0])
        joint *= np.where(bits[:, v], p_true, 1.0 - p_true)
    mask = np.ones(2 ** n, dtype=bool)
    for name, value in evidence.items():
        mask &= bits[:, net.index[name]] == value
    denom = joint[mask].sum()
    numer = joint[mask & bits[:, net.index[query]]].sum()
    return numer / denom


def forward_sample_oracle(net, ev, n_samples, rng):
    """Sample-major ancestral pass: (n_samples, n_vars) states, clamped or drawn."""
    states = np.zeros((n_samples, len(net.names)), dtype=bool)
    return _sample_major_pass(net, ev, net.topo_order(), states, np.ones(n_samples), rng)[0]


def _sample_major_pass(net, ev, order, states, weights, rng):
    """Clamp and weight, or draw one uniform per sample, each variable of ``order``."""
    for v in order:
        ps = net.parents[v]
        if ps:
            bits = 1 << np.arange(len(ps) - 1, -1, -1)
            config = states[:, ps].astype(int) @ bits
            p_true = net.cpfs[v][config]
        else:
            p_true = np.full(len(states), net.cpfs[v][0])
        if v in ev:
            states[:, v] = ev[v]
            weights *= p_true if ev[v] else 1.0 - p_true
        else:
            states[:, v] = rng.random(len(states)) < p_true
    return states, weights


def lw_sample_oracle(net, ev, n_samples, rng):
    """LW's count pass over a Python list of (configuration, count, weight) bins.

    Bins are split one by one in list order, each by its own
    ``rng.binomial(count, p)`` call, into the bin with the variable false
    and the one with it true; bins of count zero are dropped.  Before a
    free variable where the bins average fewer than ``_MIN_MEAN_COUNT``
    samples, each bin becomes ``count`` single samples, and the rest of the
    pass is sample-major.  Returns sample-major states, one row per bin
    (or sample), and each row's count times its evidence weight.
    """
    order = net.topo_order()
    bins = [([False] * len(net.names), n_samples, 1.0)]
    for position, v in enumerate(order):
        if v not in ev and len(bins) * _MIN_MEAN_COUNT > n_samples:
            counts = [count for _, count, _ in bins]
            states = np.repeat(np.array([config for config, _, _ in bins]), counts, axis=0)
            weights = np.repeat([weight for _, _, weight in bins], counts)
            return _sample_major_pass(net, ev, order[position:], states, weights, rng)
        split = []
        for config, count, weight in bins:
            row = sum(config[p] << k for k, p in enumerate(reversed(net.parents[v])))
            p_true = net.cpfs[v][row]
            if v in ev:
                config = config.copy()
                config[v] = ev[v]
                split.append((config, count, weight * (p_true if ev[v] else 1.0 - p_true)))
                continue
            true = int(rng.binomial(count, p_true))
            for state, part in ((False, count - true), (True, true)):
                if part:
                    config = config.copy()
                    config[v] = state
                    split.append((config, part, weight))
        bins = split
    return (np.array([config for config, _, _ in bins], dtype=bool),
            np.array([count * weight for _, count, weight in bins]))


def _clamped(net, evidence):
    return {net.index[name]: bool(value) for name, value in evidence.items()}


def ancestral_closure(net, names):
    """Indices of ``names`` and of all their ancestors."""
    closed, stack = set(), [net.index[name] for name in names]
    while stack:
        v = stack.pop()
        if v not in closed:
            closed.add(v)
            stack.extend(net.parents[v])
    return closed


def reduced_oracle(net, queries, evidence):
    """The network both samplers draw, by name lookups and a row-by-row fold.

    From the ancestral closure of the queries and the evidence, drop each
    free query with no child in the closure (a leaf), and sum each free,
    unqueried root with one child in the closure into that child, in
    topological order.  Returns the reduced network and, per leaf query,
    its parents' indices in it and its (possibly summed) CPF.
    """
    keep = ancestral_closure(net, [*queries, *evidence])
    kids = {v: [c for c in sorted(keep) if v in net.parents[c]] for v in keep}
    leaves = {q for q in queries if q not in evidence and not kids[net.index[q]]}
    parents = {v: [net.names[p] for p in net.parents[v]] for v in keep}
    cpfs = {v: net.cpfs[v] for v in keep}
    for r in net.topo_order():
        name = net.names[r]
        if (r in keep and not parents[r] and name not in evidence and name not in queries
                and len(kids[r]) == 1):
            (c,) = kids[r]
            shift = len(parents[c]) - 1 - parents[c].index(name)  # r's bit in c's rows
            p = cpfs[r][0]
            folded = np.empty(len(cpfs[c]) // 2)
            for row in range(len(folded)):
                low = ((row >> shift) << (shift + 1)) | (row & ((1 << shift) - 1))
                folded[row] = (1.0 - p) * cpfs[c][low] + p * cpfs[c][low | (1 << shift)]
            cpfs[c] = folded
            parents[c].remove(name)
            keep.remove(r)
    kept = sorted(keep - {net.index[q] for q in leaves})
    at = {net.names[v]: i for i, v in enumerate(kept)}
    sub = GroundNetwork(names=list(at), parents=[[at[n] for n in parents[v]] for v in kept],
                        cpfs=[cpfs[v] for v in kept])
    return sub, {q: ([at[n] for n in parents[net.index[q]]], cpfs[net.index[q]])
                 for q in leaves}


def _config(states, ps):
    """Per sample-major row, the CPF row index of the parent columns ``ps``."""
    return states[:, ps].astype(int) @ (1 << np.arange(len(ps) - 1, -1, -1))


def lw_estimates_oracle(net, queries, evidence, n_samples, seed):
    """Likelihood weighting over :func:`lw_sample_oracle` on :func:`reduced_oracle`.

    A leaf query's estimate is its CPF row at each row's parents,
    weighted: ``(weights * rows).sum() / total``.
    """
    sub, leaves = reduced_oracle(net, queries, evidence)
    ev = _clamped(sub, evidence)
    states, weights = lw_sample_oracle(sub, ev, n_samples, np.random.default_rng(seed))
    total = weights.sum()
    out = {}
    for q in queries:
        if total == 0.0:
            out[q] = 0.5
        elif q in evidence:
            out[q] = 1.0 if evidence[q] else 0.0
        elif q in leaves:
            ps, cpf = leaves[q]
            out[q] = float((weights * cpf[_config(states, ps)]).sum() / total)
        else:
            out[q] = float(weights[states[:, sub.index[q]]].sum() / total)
    return out


def gibbs_estimates_oracle(net, queries, evidence, burn_in, n_samples, seed, n_chains):
    """Per-site Gibbs sweep on :func:`reduced_oracle` that re-encodes every
    parent configuration.

    No warm-up when every clamped variable's parents are clamped: the
    forward sample is then already an exact posterior draw.  A leaf
    query's estimate is its CPF row at the chains' parent states, summed
    per kept sweep and divided by the number of kept states.
    """
    net, leaves = reduced_oracle(net, queries, evidence)
    ev = _clamped(net, evidence)
    if all(set(net.parents[v]) <= ev.keys() for v in ev):
        burn_in = 0
    rng = np.random.default_rng(seed)
    states = forward_sample_oracle(net, ev, n_chains, rng)
    children = net.children()
    free_order = [v for v in net.topo_order() if v not in ev]
    child_info = {
        v: [(c, 1 << (len(net.parents[c]) - 1 - net.parents[c].index(v)))
            for c in children[v]]
        for v in free_order
    }
    parent_bits = {
        v: (np.array(net.parents[v], dtype=int),
            1 << np.arange(len(net.parents[v]) - 1, -1, -1))
        for v in range(len(net.names))
    }
    per_chain = -(-n_samples // n_chains)
    collected = {net.index[q]: 0 for q in queries if q not in leaves}
    expected = {q: 0.0 for q in leaves}
    count = 0
    for sweep in range(burn_in + per_chain):
        for v in free_order:
            cols, bits = parent_bits[v]
            if cols.size:
                p1 = net.cpfs[v][states[:, cols].astype(int) @ bits]
            else:
                p1 = np.full(n_chains, net.cpfs[v][0])
            w1 = p1.copy()
            w0 = 1.0 - p1
            for c, bit in child_info[v]:
                c_cols, c_bits = parent_bits[c]
                base = states[:, c_cols].astype(int) @ c_bits
                base -= np.where(states[:, v], bit, 0)
                p_child_if_true = net.cpfs[c][base + bit]
                p_child_if_false = net.cpfs[c][base]
                child_state = states[:, c]
                w1 *= np.where(child_state, p_child_if_true, 1.0 - p_child_if_true)
                w0 *= np.where(child_state, p_child_if_false, 1.0 - p_child_if_false)
            total = w1 + w0
            p = np.where(total > 0, w1 / np.where(total > 0, total, 1.0), 0.5)
            states[:, v] = rng.random(n_chains) < p
        if sweep >= burn_in:
            for v in collected:
                collected[v] += int(states[:, v].sum())
            for q, (ps, cpf) in leaves.items():
                expected[q] += cpf[_config(states, ps)].sum()
            count += n_chains
    out = {}
    for q in queries:
        if q in evidence:
            out[q] = 1.0 if evidence[q] else 0.0
        elif q in leaves:
            out[q] = float(expected[q] / count)
        else:
            out[q] = collected[net.index[q]] / count
    return out


def disambiguate_seeds_oracle(seeds, lexicon):
    """Seed disambiguation that recomputes every nearest cost at every step."""
    deduped = list(dict.fromkeys(normalize_lemma(w) for w in seeds))
    sense_lists = {}
    for word in deduped:
        sense_lists[word] = lexicon.senses(word, "n")
        if not sense_lists[word]:
            raise UnknownSeedError(word)
    start_word = min(deduped, key=lambda w: (len(sense_lists[w]), deduped.index(w)))
    best = None
    for start_sense in sense_lists[start_word]:
        assignment = grow_tree_oracle(deduped, sense_lists, start_word, start_sense, lexicon)
        if best is None or assignment.total_cost < best.total_cost:
            best = assignment
    return best


def edge_cost(lexicon, a, b):
    """1 - Wu-Palmer similarity, 1.0 for senses in disjoint hierarchies."""
    try:
        return 1.0 - lexicon.wup_similarity(a, b)
    except UndefinedSimilarityError:
        return 1.0


def grow_tree_oracle(words, sense_lists, start_word, start_sense, lexicon):
    """Greedy tree growth, cubic: min over every attached sense at every step."""
    fixed = {start_word: (start_sense.id, 0.0)}
    attached = [(start_word, start_sense)]
    remaining = [w for w in words if w != start_word]
    total = 0.0
    while remaining:
        best_word = best_key = best_sense = None
        for w_pos, word in enumerate(remaining):
            for rank, candidate in enumerate(sense_lists[word]):
                cost = min(edge_cost(lexicon, candidate, anchor) for _, anchor in attached)
                key = (cost, w_pos, rank)
                if best_key is None or key < best_key:
                    best_key, best_word, best_sense = key, word, candidate
        cost = best_key[0]
        fixed[best_word] = (best_sense.id, cost)
        attached.append((best_word, best_sense))
        remaining.remove(best_word)
        total += cost
    return SenseAssignment(choices={w: fixed[w] for w in words}, total_cost=total,
                           start_word=start_word)


WSP_SOURCE_KINDS = ("synonyms", "gloss_words", "direct_hypernyms_hyponyms",
                    "meronyms_holonyms", "hyponym_gloss_words")


def wsp_source_oracle(lexicon, sid, kind, stopwords):
    """The context words of one profile source of a sense, first occurrences kept."""
    syn = lexicon.get(sid)

    def linked_lemmas(sids):
        return [lemma for s in sids if s in lexicon.synsets for lemma in lexicon.get(s).lemmas]

    if kind == "synonyms":
        words = list(syn.lemmas)
    elif kind == "gloss_words":
        words = tokenize(syn.gloss, stopwords)
    elif kind == "direct_hypernyms_hyponyms":
        words = linked_lemmas(syn.hypernyms + syn.hyponyms)
    elif kind == "meronyms_holonyms":
        words = linked_lemmas(syn.meronyms + syn.holonyms)
    elif kind == "hyponym_gloss_words":
        words = [w for s in syn.hyponyms if s in lexicon.synsets
                 for w in tokenize(lexicon.get(s).gloss, stopwords)]
    else:
        raise ValueError(f"unknown profile source {kind!r}")
    return list(dict.fromkeys(words))


def noisy_or_cpfs_oracle(fragments, graph, provider, alpha, root_prior):
    """Leaky noisy-OR tables one cell at a time: a loop over rows and edges."""
    incoming = graph.incoming()
    out = []
    for frag in fragments:
        k = len(frag.parents)
        if k == 0:
            out.append(replace(frag, cpf=np.array([root_prior])))
            continue
        sources = [p.args[1] for p in frag.parents]
        rows = np.empty(2 ** k)
        for i in range(2 ** k):
            miss = 1.0 - LEAK
            for e in incoming[frag.child.args[1]]:
                if (i >> (k - 1 - sources.index(e.src))) & 1:
                    src, dst = graph.nodes[e.src], graph.nodes[e.dst]
                    p = alpha * e.strength + (1.0 - alpha) * provider.score(src.term, dst.term)
                    miss *= 1.0 - min(1.0 - LEAK, max(0.0, p))
            rows[i] = 1.0 - miss
        out.append(replace(frag, cpf=rows))
    return out


def simulate_evidence_oracle(graph, provider, alpha, n_worlds, seed, root_prior=0.5):
    """Sample-major noisy-OR evidence: a contiguous (n_worlds, n_vars) matrix."""
    order = _graph_topo_order(graph)
    col = {node_id: pos for pos, node_id in enumerate(order)}
    incoming = graph.incoming()
    edge_probs = {}
    for node_id in order:
        probs = []
        for e in incoming[node_id]:
            src, dst = graph.nodes[e.src], graph.nodes[e.dst]
            p = alpha * e.strength + (1.0 - alpha) * provider.score(src.term, dst.term)
            probs.append((col[e.src], min(1.0, max(0.0, p))))
        edge_probs[node_id] = probs
    rng = np.random.default_rng(seed)
    worlds = np.zeros((n_worlds, len(order)), dtype=bool)
    for node_id in order:
        if not edge_probs[node_id]:
            p_true = np.full(n_worlds, root_prior)
        else:
            miss = np.ones(n_worlds)
            for src_col, p in edge_probs[node_id]:
                miss *= np.where(worlds[:, src_col], 1.0 - p, 1.0)
            p_true = 1.0 - miss
        worlds[:, col[node_id]] = rng.random(n_worlds) < p_true
    return EvidenceSet([str(variable_for_node(graph.nodes[i])) for i in order], worlds)


def learn_cpfs_oracle(fragments, evidence, pseudocount=1.0):
    """CPF learning one row at a time, in Python floats."""
    col = {name: i for i, name in enumerate(evidence.variables)}
    worlds = evidence.worlds
    out = []
    for frag in fragments:
        k = len(frag.parents)
        configs = np.zeros(worlds.shape[0], dtype=int)
        for p in frag.parents:
            configs = 2 * configs + worlds[:, col[str(p)]]
        child = worlds[:, col[str(frag.child)]]
        totals = np.bincount(configs, minlength=2 ** k)
        trues = np.bincount(configs[child], minlength=2 ** k)
        rows = np.empty(2 ** k)
        for i in range(2 ** k):
            denominator = int(totals[i]) + 2.0 * pseudocount
            rows[i] = 0.5 if denominator == 0 else (int(trues[i]) + pseudocount) / denominator
        out.append(replace(frag, cpf=rows))
    return out


# -- reader fuzz --------------------------------------------------------------


@st.composite
def edited_lines(draw, lines, fields):
    """``lines`` after up to five random edits, each of one line.

    An edit deletes a line, repeats it, swaps it with the next, replaces
    or drops one of its tab-separated fields, or inserts a line of one to
    five fields.  A new field is drawn from ``fields`` or is short random
    text of letters, digits, signs, brackets, commas, spaces and tabs.
    """
    lines = list(lines)
    field = st.sampled_from(fields) | st.text("ax1.-+e(),# \t", max_size=6)
    for _ in range(draw(st.integers(0, 5))):
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        edit = draw(st.sampled_from(["delete", "repeat", "swap", "replace", "drop", "insert"]))
        if edit == "insert" or not lines:
            lines.insert(at, "\t".join(draw(st.lists(field, min_size=1, max_size=5))))
        elif edit == "delete":
            del lines[at]
        elif edit == "repeat":
            lines.insert(at, lines[at])
        elif edit == "swap":
            lines[at:at + 2] = lines[at:at + 2][::-1]
        else:
            cols = lines[at].split("\t")
            i = draw(st.integers(0, len(cols) - 1))
            cols[i:i + 1] = [] if edit == "drop" else [draw(field)]
            lines[at] = "\t".join(cols)
    return lines


def file_reader(load, path):
    """``load`` as a function of lines: each call writes them to ``path`` first."""
    def read(lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return load(path)
    return read


def check_refusal(read, lines, error, line_pattern, prefix_reads=True):
    """``read(lines)`` returns, or raises ``error`` whose text names a line.

    ``line_pattern`` finds the line number in the error's text as its one
    group; the line must exist.  With ``prefix_reads``, for a reader that
    judges a line by the lines above it only, the lines before the named
    one must read.  Any other exception, such as a bare ``IndexError``,
    ``KeyError`` or an unnumbered ``int()``/``float()`` ``ValueError``,
    propagates or fails the check.
    """
    try:
        read(lines)
    except error as refusal:
        found = re.search(line_pattern, str(refusal))
        assert found, f"{type(refusal).__name__} names no line: {refusal}"
        line_no = int(found.group(1))
        assert 1 <= line_no <= len(lines), refusal
        if prefix_reads:
            read(lines[:line_no - 1])


def split_vars_oracle(text):
    """Split a parent list on the commas outside parentheses, one character at a time."""
    if text == "-":
        return []
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


# ---------------------------------------------------------------------------
# The input readers and generation hot paths, written one step at a time:
# each line parsed in full, each vector rebuilt per call, each table cell
# masked per edge.  The library must give equal results.
# ---------------------------------------------------------------------------

_RELATIONS_BY_NAME = {r.value.lower(): r for r in RelationType}
_SKIPPED = object()


def ingest_edges_oracle(text):
    """(edges, skipped count) of a relation dump, every line parsed in full.

    Keeps the first position and the largest weight of each (start,
    relation, end); then drops every edge of a relation whose kept weights
    are all 0 and counts it as skipped.
    """
    merged = {}
    skipped = 0
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parsed = _dump_line_oracle(line)
        if parsed is _SKIPPED:
            skipped += 1
        elif parsed is not None:
            key = (parsed.start, parsed.relation, parsed.end)
            if key not in merged or parsed.weight > merged[key].weight:
                merged[key] = parsed
    edges = list(merged.values())
    top = {}
    for edge in edges:
        top[edge.relation] = max(top.get(edge.relation, 0.0), edge.weight)
    kept = [edge for edge in edges if top[edge.relation] > 0]
    return kept, skipped + len(edges) - len(kept)


def _dump_line_oracle(line):
    cols = line.split("\t")
    if len(cols) == 5:
        _, rel_uri, start_uri, end_uri, metadata = cols
        relation = _relation_oracle(rel_uri)
        if relation is None:
            return None
        start = _concept_uri_oracle(start_uri)
        end = _concept_uri_oracle(end_uri)
        if start is _SKIPPED or end is _SKIPPED:
            return _SKIPPED
        if start is None or end is None:
            return None
        try:
            meta = json.loads(metadata) if metadata.strip() else {}
            weight = float(meta.get("weight", 1.0))
        except (ValueError, TypeError, AttributeError, OverflowError):
            return _SKIPPED
    elif len(cols) == 4:
        rel, start, end, weight_text = cols
        relation = _relation_oracle(rel)
        if relation is None:
            return None
        start = normalize_lemma(start)
        end = normalize_lemma(end)
        try:
            weight = float(weight_text)
        except ValueError:
            return _SKIPPED
    else:
        return _SKIPPED
    if not math.isfinite(weight) or weight < 0 or not start or not end:
        return _SKIPPED
    if relation is RelationType.AtLocation and start == end:
        return _SKIPPED
    return ConceptEdge(start=start, relation=relation, end=end, weight=weight)


def _relation_oracle(text):
    name = text.strip()
    if name.startswith("/r/"):
        name = name[3:]
    return _RELATIONS_BY_NAME.get(name.strip("/").lower())


def _concept_uri_oracle(uri):
    parts = uri.strip().strip("/").split("/")
    if len(parts) < 3 or parts[0] != "c":
        return _SKIPPED
    if parts[1] != "en":
        return None
    return normalize_lemma(parts[2])


def esa_vectors_oracle(documents, stopwords=frozenset()):
    """word -> [(document index, count)]: counts per word and document, then sorted."""
    counts = {}
    for doc_idx, (_, text) in enumerate(documents):
        for token in tokenize(text, stopwords):
            counts.setdefault(token, {}).setdefault(doc_idx, 0)
            counts[token][doc_idx] += 1
    return {word: [(idx, float(count)) for idx, count in sorted(per_doc.items())]
            for word, per_doc in counts.items()}


def esa_score_oracle(index, word_a, word_b):
    """Cosine of two term vectors, both rebuilt from the index on every call."""
    a, b = _esa_term_oracle(index, word_a), _esa_term_oracle(index, word_b)
    if not a or not b:
        return 0.0
    dot = 0.0
    b_dict = dict(b)
    for idx, w in a:
        w2 = b_dict.get(idx)
        if w2 is not None:
            dot += w * w2
    ssq_a = sum(w * w for _, w in a)
    ssq_b = sum(w * w for _, w in b)
    if ssq_a == 0.0 or ssq_b == 0.0 or dot == 0.0:
        return 0.0
    return min(1.0, dot / math.sqrt(ssq_a * ssq_b))


def _esa_term_oracle(index, term):
    term = normalize_lemma(term)
    direct = index.vectors.get(term, [])
    if direct or "_" not in term:
        return direct
    combined = {}
    for token in term.split("_"):
        for idx, w in index.vectors.get(token, []):
            combined[idx] = combined.get(idx, 0.0) + w
    return sorted(combined.items())


def parse_lexicon_oracle(index_text, data_text):
    """(synsets, lemma_index, depths) of an index/data text pair, one quadruple at a time.

    Raises :class:`LexiconParseError` as the library does, and
    ``CycleError`` on a cyclic hierarchy.
    """
    synsets = {}
    for line_no, line in enumerate(data_text.splitlines(), start=1):
        if not line.strip() or line[0] == " ":
            continue
        syn = _data_line_oracle(line, line_no)
        synsets[syn.id] = syn
    pairs = [("hypernyms", "hyponyms"), ("hyponyms", "hypernyms"),
             ("meronyms", "holonyms"), ("holonyms", "meronyms")]
    for sid in sorted(synsets):
        for forward, backward in pairs:
            for target in getattr(synsets[sid], forward):
                if target in synsets:
                    _append_unique(getattr(synsets[target], backward), sid)

    lemma_index = {}
    for line_no, line in enumerate(index_text.splitlines(), start=1):
        if not line.strip() or line[0] == " ":
            continue
        fields = line.split()
        if len(fields) < 4:
            raise LexiconParseError("too few fields in index line", line_no)
        try:
            count = int(fields[2])
        except ValueError:
            raise LexiconParseError(f"bad synset count {fields[2]!r}", line_no) from None
        if count < 1 or len(fields) < 3 + count:
            raise LexiconParseError("synset count does not match offsets", line_no)
        for off in fields[-count:]:
            if not off.isdigit():
                raise LexiconParseError(f"bad synset offset {off!r}", line_no)
        ranked = []
        for off in fields[-count:]:
            if f"{off}-{fields[1]}" not in synsets:
                raise LexiconParseError(f"index references unknown synset {off}", line_no)
            _append_unique(ranked, f"{off}-{fields[1]}")
        lemma_index[(normalize_lemma(fields[0]), fields[1])] = ranked
    for sid in sorted(synsets):
        for lemma in synsets[sid].lemmas:
            _append_unique(lemma_index.setdefault((lemma, synsets[sid].pos), []), sid)

    hypernyms = {sid: syn.hypernyms for sid, syn in synsets.items()}
    depths = {}
    for sid in topological_order(synsets, hypernyms):
        depths[sid] = 1 + max((depths[p] for p in hypernyms[sid] if p in synsets), default=0)
    return synsets, lemma_index, depths


def _data_line_oracle(line, line_no):
    body, _, gloss = line.partition("|")
    fields = body.split()
    if len(fields) < 6:
        raise LexiconParseError("too few fields in data line", line_no)
    offset, pos = fields[0], fields[2]
    if not offset.isdigit():
        raise LexiconParseError(f"bad synset offset {offset!r}", line_no)
    try:
        w_cnt = int(fields[3], 16)
    except ValueError:
        raise LexiconParseError(f"bad word count {fields[3]!r}", line_no) from None
    if w_cnt < 1 or len(fields) < 4 + 2 * w_cnt + 1:
        raise LexiconParseError("word count does not match fields", line_no)
    lemmas = [normalize_lemma(fields[4 + 2 * i]) for i in range(w_cnt)]
    if any(not lem for lem in lemmas):
        raise LexiconParseError("empty lemma", line_no)
    p_pos = 4 + 2 * w_cnt
    try:
        p_cnt = int(fields[p_pos])
    except ValueError:
        raise LexiconParseError(f"bad pointer count {fields[p_pos]!r}", line_no) from None
    if len(fields) < p_pos + 1 + 4 * p_cnt:
        raise LexiconParseError("pointer count does not match fields", line_no)
    syn = Synset(id=f"{offset}-{pos}", pos=pos, lemmas=lemmas, gloss=gloss.strip())
    links = {"@": syn.hypernyms, "~": syn.hyponyms, "%p": syn.meronyms, "%m": syn.meronyms,
             "%s": syn.meronyms, "#p": syn.holonyms, "#m": syn.holonyms, "#s": syn.holonyms}
    for i in range(p_cnt):
        sym, target, tpos = fields[p_pos + 1 + 4 * i: p_pos + 4 + 4 * i]
        if sym in links:
            _append_unique(links[sym], f"{target}-{tpos}")
    return syn


def _append_unique(items, item):
    if item not in items:
        items.append(item)


def noisy_or_table_oracle(graph, edges, sources, provider, alpha, leak):
    """A leaky noisy-OR table with one boolean row mask per edge."""
    config = np.arange(2 ** len(sources))
    miss = np.full(len(config), 1.0 - leak)
    for e in edges:
        src, dst = graph.nodes[e.src], graph.nodes[e.dst]
        p = alpha * e.strength + (1.0 - alpha) * provider.score(src.term, dst.term)
        bit = len(sources) - 1 - sources.index(e.src)
        np.multiply(miss, 1.0 - min(1.0 - leak, max(0.0, p)), out=miss,
                    where=((config >> bit) & 1).astype(bool))
    return 1.0 - miss
