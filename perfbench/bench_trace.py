"""Per-layer tracing for the benchmark, installed from outside the program.

Each trace point wraps one public function of a situnet layer at the
module or class attribute its caller resolves at call time, so nothing
under ``src/`` changes.  A wrapped call records a span (name, start,
end, parent span, op) while the tracer is recording; a probe then takes
counts from the call's arguments and return value at the same boundary.
``bln.lw_sample`` is a probe only: it records no span, so the sampling
time stays inside ``bln.lw_estimates``'s self time.

Spans of an op are folded into per-name totals when the op ends and kept
in memory until the run writes them out; self time is a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    op_id: int
    name: str
    start: float
    end: float


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self seconds, calls).

    A span's self time is its duration minus the union of its direct
    children's intervals, clipped to the span's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    totals: dict[str, list] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        cell = totals.setdefault(span.name, [0.0, 0])
        cell[0] += (span.end - span.start) - covered
        cell[1] += 1
    return {name: (cell[0], cell[1]) for name, cell in totals.items()}


class Tracer:
    """Span and count recorder; records only between begin_op and end_op."""

    def __init__(self):
        self.recording = False
        self.op_id = -1
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.maxima: dict[str, float] = defaultdict(float)
        self.finished: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []
        self.recording = True

    def end_op(self) -> None:
        """Stop recording and fold the op's spans into the totals."""
        self.recording = False
        spans = [s for s in self.spans if s is not None]
        for name, (seconds, calls) in self_times(spans).items():
            self.self_s[name] += seconds
            self.calls[name] += calls
        self.finished.extend(spans)
        self.spans = []

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("op\tspan\tparent\tname\tstart\tend\n")
            for s in self.finished:
                parent = "-" if s.parent_id is None else s.parent_id
                out.write(f"{s.op_id}\t{s.span_id}\t{parent}\t{s.name}\t{s.start!r}\t{s.end!r}\n")

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def observe(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, probe=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name, or None for a probe-only point.
        """
        func = owner.__dict__[attr]
        signature = inspect.signature(func) if probe is not None else None
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return func(*args, **kwargs)
            if name is None:
                result = func(*args, **kwargs)
            else:
                span_id = len(tracer.spans)
                parent = tracer._stack[-1] if tracer._stack else None
                tracer.spans.append(None)
                tracer._stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[span_id] = Span(span_id, parent, tracer.op_id,
                                                 name, start, end)
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(tracer, bound.arguments, result)
            return result

        self._patches.append((owner, attr, func))
        setattr(owner, attr, wrapper)

    def install(self, points) -> None:
        for target, attr, name, probe in points:
            self.wrap(resolve(target), attr, name, probe)

    def uninstall(self) -> None:
        """Restore every patched attribute, latest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def resolve(target: str):
    """``"pkg.mod"`` -> module, ``"pkg.mod.Class"`` -> class."""
    try:
        return importlib.import_module(target)
    except ModuleNotFoundError:
        module, _, cls = target.rpartition(".")
        return getattr(importlib.import_module(module), cls)


# ---------------------------------------------------------------------------
# Probes: counts taken from arguments and return values
# ---------------------------------------------------------------------------


def _probe_synsets(tracer, call, lexicon):
    tracer.count("lexicon.synsets", len(lexicon))


def _probe_edges_kept(tracer, call, store):
    tracer.count("edges.kept", len(store))


def _probe_candidate_senses(tracer, call, assignment):
    lexicon = call["lexicon"]
    tracer.count("disambiguation.candidate_senses",
                 sum(len(lexicon.senses(word, "n")) for word in assignment.choices))


def _probe_dropped(tracer, call, graph):
    tracer.count("netgen.dropped_edges", getattr(graph, "dropped_edges", 0))


def _probe_graph_size(tracer, call, result):
    tracer.count("netgen.nodes", len(call["graph"].nodes))
    tracer.count("netgen.edges", len(call["graph"].edges))


def _probe_model(tracer, call, result):
    _, fragments = result
    tracer.count("bln.fragments", len(fragments))
    tracer.count("bln.cpf_rows", sum(len(f.cpf) for f in fragments))
    tracer.maximum("bln.max_parents", max((len(f.parents) for f in fragments), default=0))


def _probe_evidence(tracer, call, evidence):
    tracer.count("bln.evidence_cells", evidence.worlds.size)


def _probe_model_file(tracer, call, result):
    tracer.count("bln.model_bytes", os.path.getsize(call["path"]))


def _probe_ground(tracer, call, net):
    tracer.count("bln.ground_vars", len(net.names))


def _probe_lw_sample(tracer, call, result):
    states, weights = result
    tracer.count("bln.lw.sample_cells", states.size)
    total = float(weights.sum())
    square = float((weights * weights).sum())
    tracer.observe("bln.lw.ess_ratio", total * total / square / len(weights) if square else 0.0)


def _probe_gibbs(tracer, call, result):
    kept = -(-call["n_samples"] // call["n_chains"])
    sweeps = call["burn_in"] + kept
    free = len(call["net"].names) - len(call["evidence"] or {})
    tracer.count("bln.gibbs.site_updates", call["n_chains"] * sweeps * free)
    tracer.count("bln.gibbs.kept_sweeps", kept)
    tracer.count("bln.gibbs.sweeps", sweeps)


def _probe_scenario(tracer, call, results):
    tracer.count("evaluation.queries", len(results))
    tracer.count("evaluation.near_threshold",
                 sum(1 for p in results.values() if abs(p - 0.5) <= 0.02))


# (target, attribute, span name or None for probe-only, probe)
TRACE_POINTS = (
    ("situnet.cli", "main", "cli.main", None),
    ("situnet.cli", "load_config", "cli.load_config", None),
    ("situnet.cli", "run_generation", "cli.run_generation", None),
    ("situnet.cli", "load_lexicon", "lexicon.load_lexicon", _probe_synsets),
    ("situnet.cli", "load_frequencies", "lexicon.load_frequencies", None),
    ("situnet.cli", "load_edges", "edges.load_edges", None),
    ("situnet.cli", "filter_multiword", "edges.filter_multiword", _probe_edges_kept),
    ("situnet.cli", "load_documents", "relatedness.load_documents", None),
    ("situnet.cli", "build_esa_index", "relatedness.build_esa_index", None),
    ("situnet.relatedness.EsaRelatedness", "score", "relatedness.score", None),
    ("situnet.cli", "disambiguate_seeds", "disambiguation.disambiguate_seeds",
     _probe_candidate_senses),
    ("situnet.netgen", "disambiguate_edge", "disambiguation.disambiguate_edge", None),
    ("situnet.netgen", "add_isa_paths", "netgen.add_isa_paths", None),
    ("situnet.netgen", "compress", "netgen.compress", None),
    ("situnet.netgen", "attach_relations", "netgen.attach_relations", _probe_dropped),
    ("situnet.netgen", "attach_locations_two_hop", "netgen.attach_locations_two_hop", None),
    ("situnet.netgen", "validate_graph", "netgen.validate_graph", _probe_graph_size),
    ("situnet.netgen", "save_graph", "netgen.save_graph", None),
    ("situnet.bln", "model_from_graph", "bln.model_from_graph", _probe_model),
    ("situnet.bln", "simulate_evidence", "bln.simulate_evidence", _probe_evidence),
    ("situnet.bln", "learn_cpfs", "bln.learn_cpfs", None),
    ("situnet.bln", "write_model", "bln.write_model", _probe_model_file),
    ("situnet.bln", "read_model", "bln.read_model", _probe_model_file),
    ("situnet.bln", "ground", "bln.ground", _probe_ground),
    ("situnet.bln.GroundNetwork", "components", "GroundNetwork.components", None),
    ("situnet.bln.GroundNetwork", "subnetwork", "GroundNetwork.subnetwork", None),
    ("situnet.bln", "infer_lw", "bln.infer_lw", None),
    ("situnet.bln", "lw_estimates", "bln.lw_estimates", None),
    ("situnet.bln", "lw_sample", None, _probe_lw_sample),
    ("situnet.bln", "gibbs_estimates", "bln.gibbs_estimates", _probe_gibbs),
    ("situnet.evaluation", "run_scenario", "evaluation.run_scenario", _probe_scenario),
    ("situnet.evaluation", "score", "evaluation.score", None),
    ("situnet.evaluation", "load_gold", "evaluation.load_gold", None),
)

SELF_TIME_SPANS = (
    "cli.main", "cli.load_config", "cli.run_generation",
    "lexicon.load_lexicon", "lexicon.load_frequencies",
    "edges.load_edges", "edges.filter_multiword",
    "relatedness.load_documents", "relatedness.build_esa_index", "relatedness.score",
    "disambiguation.disambiguate_seeds",
    "netgen.add_isa_paths", "netgen.compress", "netgen.attach_relations",
    "netgen.attach_locations_two_hop", "netgen.validate_graph", "netgen.save_graph",
    "bln.model_from_graph", "bln.simulate_evidence", "bln.learn_cpfs",
    "bln.write_model", "bln.read_model", "bln.ground",
    "GroundNetwork.components", "GroundNetwork.subnetwork",
    "bln.lw_estimates", "bln.gibbs_estimates",
    "evaluation.run_scenario", "evaluation.score", "evaluation.load_gold",
)

CALL_COUNTS = ("relatedness.score", "bln.lw_estimates", "bln.infer_lw")

PER_OP_COUNTS = (
    "lexicon.synsets", "edges.kept", "disambiguation.candidate_senses",
    "netgen.nodes", "netgen.edges", "netgen.dropped_edges",
    "bln.fragments", "bln.cpf_rows", "bln.evidence_cells", "bln.model_bytes",
    "bln.ground_vars", "bln.lw.sample_cells", "bln.gibbs.site_updates",
    "evaluation.queries", "evaluation.near_threshold",
)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the folded totals: name -> (value, unit).

    Times and counts are per traced op; a layer that did not run reports
    0, as does a ratio whose base is 0.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = (_ratio(tracer.self_s.get(name, 0.0), n_ops), "s")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (_ratio(tracer.calls.get(name, 0), n_ops), "count")
    for name in PER_OP_COUNTS:
        out[name] = (_ratio(tracer.counts.get(name, 0), n_ops), "count")
    out["bln.max_parents"] = (tracer.maxima.get("bln.max_parents", 0), "count")
    out["bln.gibbs.kept_sweep_ratio"] = (_ratio(tracer.counts.get("bln.gibbs.kept_sweeps", 0),
                                                tracer.counts.get("bln.gibbs.sweeps", 0)), "ratio")
    ess = tracer.samples.get("bln.lw.ess_ratio", [])
    out["bln.lw.ess_ratio_min"] = (min(ess) if ess else 0.0, "ratio")
    out["bln.lw.ess_ratio_median"] = (statistics.median(ess) if ess else 0.0, "ratio")
    gate_calls = tracer.calls.get("disambiguation.disambiguate_edge", 0)
    dropped = tracer.counts.get("netgen.dropped_edges", 0)
    out["netgen.sense_gate.kept_ratio"] = (_ratio(gate_calls - dropped, gate_calls), "ratio")
    return out
