"""Shared fixtures: the bundled miniature datasets, loaded once per session.

Also the reference oracles that inference tests compare against: a
2^n joint table, and the sample-major forward pass and per-site Gibbs
sweep that the library's samplers must reproduce value for value.
"""

import numpy as np
import pytest

from situnet import data_path
from situnet.cli import load_config, run_generation
from situnet.edges import filter_multiword, load_edges
from situnet.lexicon import load_frequencies, load_lexicon, load_stopwords
from situnet.relatedness import EsaRelatedness, build_esa_index, load_documents


def bundled(*parts) -> str:
    return str(data_path(*parts))


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
    return build_esa_index(documents, "raw_count", stopwords, 1)


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
    """Sample-major ancestral pass: (n_samples, n_vars) states and weights."""
    states = np.zeros((n_samples, len(net.names)), dtype=bool)
    weights = np.ones(n_samples)
    for v in net.topo_order():
        ps = net.parents[v]
        if ps:
            bits = 1 << np.arange(len(ps) - 1, -1, -1)
            config = states[:, ps].astype(int) @ bits
            p_true = net.cpfs[v][config]
        else:
            p_true = np.full(n_samples, net.cpfs[v][0])
        if v in ev:
            states[:, v] = ev[v]
            weights *= p_true if ev[v] else 1.0 - p_true
        else:
            states[:, v] = rng.random(n_samples) < p_true
    return states, weights


def _clamped(net, evidence):
    return {net.index[name]: bool(value) for name, value in evidence.items()}


def lw_estimates_oracle(net, queries, evidence, n_samples, seed):
    """Likelihood weighting over :func:`forward_sample_oracle`."""
    ev = _clamped(net, evidence)
    states, weights = forward_sample_oracle(net, ev, n_samples, np.random.default_rng(seed))
    total = weights.sum()
    out = {}
    for q in queries:
        v = net.index[q]
        if total == 0.0:
            out[q] = 0.5
        elif v in ev:
            out[q] = 1.0 if ev[v] else 0.0
        else:
            out[q] = float(weights[states[:, v]].sum() / total)
    return out


def gibbs_estimates_oracle(net, queries, evidence, burn_in, n_samples, seed, n_chains):
    """Per-site Gibbs sweep that re-encodes every parent configuration."""
    ev = _clamped(net, evidence)
    rng = np.random.default_rng(seed)
    states, _ = forward_sample_oracle(net, ev, n_chains, rng)
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
    collected = {net.index[q]: 0 for q in queries}
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
            count += n_chains
    out = {}
    for q in queries:
        v = net.index[q]
        if v in ev:
            out[q] = 1.0 if ev[v] else 0.0
        else:
            out[q] = collected[v] / count
    return out
