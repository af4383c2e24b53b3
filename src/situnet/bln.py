"""Bayesian Logic Network: template model, CPFs, grounding, inference.

A model is a declaration (types, predicate signatures, entities) plus a
set of fragments.  Each fragment is a conditional dependence template
between abstract boolean variables such as ``IsA(x, garlic)``, where
``x`` is a meta-variable that grounding replaces with concrete objects.
The vocabulary is the graph's one relation table,
:data:`situnet.netgen.KIND_FOR_RELATION`: each relation is a predicate
over an object and a node of the relation's kind.  :func:`read_model`
checks every fragment variable of a model file against the file's
declaration.
A fragment's conditional probability function (CPF) is a table with one
row per parent configuration; rows are ordered by binary counting with
the first parent as the most significant bit and false < true.

A graph's model gets closed-form CPFs, one leaky noisy-OR per node
(:func:`model_from_graph`); :func:`simulate_evidence` samples worlds from
the same noisy-OR and :func:`learn_cpfs` estimates tables from worlds.

Exact inference runs variable elimination; likelihood weighting and Gibbs
sampling approximate.  Every sampling routine takes an explicit seed and
owns its generator, so results are reproducible and calls may run
concurrently on one network.

All three methods use only the ancestral closure of the queries and
evidence: every other variable is barren, since no answer depends on it
(Shachter 1986; Baker & Boult 1990).  The samplers draw less still
(:func:`_reduced`): a query that nothing in the closure depends on is
answered by its CPF row averaged over its parents' sampled states, and
an unqueried root with a single child is summed into that child's CPF.
Both are exact, so the target posterior stays the same, but which
variables are drawn, and so every LW and Gibbs estimate, depends on
which queries share a call.

Likelihood weighting (Fung & Chang 1990) draws the counts of distinct
configurations, not one state per sample: one ancestral pass splits each
configuration's count by a binomial draw at every free variable, so the
counts are multinomial (Davis 1993), and weights each by the evidence.
Its cost follows the configurations, a few dozen on a typical query
batch, until they average too few samples each and the rest of the pass
draws one uniform per sample (:func:`lw_sample`).

A Gibbs sweep visits the free variables one site at a time in
topological order, each draw a vector step over all chains.  A chain
holds one integer key per variable, its parent configuration and state,
so a site reads each factor of its Markov blanket, its own CPF and each
child's, for both of its states with one lookup, and a draw flips the
site's bit in its own key and its children's by XOR.  Kept sweeps store
only the states read afterwards (:func:`gibbs_estimates`).  The chains
start from a forward sample with the evidence clamped.  When every
evidence variable's parents are evidence too, as for root evidence, that
sample is an exact posterior draw, so ``burn_in`` warm-up sweeps are run
only for evidence with a free parent: ``burn_in`` is a cap.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dag import CycleError, topological_order
from .netgen import KIND_FOR_RELATION, ConceptGraph

MAX_PARENTS = 16  # full-table CPF guard: 2^16 rows, the widest uint16 key of _pack
LEAK = 1e-3  # P(true) of a noisy-OR node whose sources are all false
METHODS = ("exact", "lw", "gibbs")  # inference methods accepted by estimates()
# LW splits configurations by binomial draws while they hold at least this many
# samples on average: one binomial draw costs about as much as 35 uniforms
_MIN_MEAN_COUNT = 32

TYPES = ("object", *KIND_FOR_RELATION.values())
SIGNATURES = {relation.value: ("object", kind) for relation, kind in KIND_FOR_RELATION.items()}
PREDICATE_FOR_KIND = {kind: relation.value for relation, kind in KIND_FOR_RELATION.items()}

META_VARIABLE = "x"


class DenseModelError(ValueError):
    """A node has more parents than a full-table CPF can support."""


class GroundingCycleError(ValueError):
    def __init__(self, cycle):
        super().__init__("ground network is cyclic: " + " -> ".join(cycle))
        self.cycle = cycle


class ErgodicityError(ValueError):
    """An unclamped variable has a deterministic CPF row; Gibbs would not mix."""


class ZeroWeightWarning(UserWarning):
    """All likelihood-weighting samples had zero weight (contradictory evidence)."""


# ---------------------------------------------------------------------------
# Template model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbstractVar:
    """A predicate applied to parameters; ``x`` marks the object slot."""

    predicate: str
    args: tuple[str, ...]

    def __str__(self):
        return f"{self.predicate}({','.join(self.args)})"

    def ground(self, binding: dict[str, str]) -> str:
        args = ",".join([binding.get(a, a) for a in self.args])
        return f"{self.predicate}({args})"

    @classmethod
    def parse(cls, text: str) -> "AbstractVar":
        name, _, rest = text.strip().partition("(")
        if not rest.endswith(")"):
            raise ValueError(f"bad variable syntax: {text!r}")
        args = tuple(map(str.strip, rest[:-1].split(",")))
        return cls(name, args)


@dataclass
class Fragment:
    """Conditional dependence template with a full-table CPF.

    ``cpf[i]`` is P(child = true | configuration i).  The table is a
    read-only copy of the one given, so every variable :func:`ground`
    makes of the fragment shares it.  A parent listed twice raises
    ``ValueError``: both copies would be one variable at two bits of the
    configuration.
    """

    child: AbstractVar
    parents: list[AbstractVar]
    cpf: np.ndarray

    def __post_init__(self):
        self.cpf = cpf = np.array(self.cpf, dtype=float)
        cpf.setflags(write=False)
        if cpf.shape != (2 ** len(self.parents),):
            raise ValueError(
                f"fragment {self.child}: cpf must have {2 ** len(self.parents)} rows")
        # min and max pass a NaN on, and a NaN fails the comparison
        if not (0.0 <= np.minimum.reduce(cpf) and np.maximum.reduce(cpf) <= 1.0):
            raise ValueError(f"fragment {self.child}: probabilities outside [0, 1]")
        if len(set(self.parents)) < len(self.parents):
            repeated = next(p for i, p in enumerate(self.parents) if p in self.parents[:i])
            raise ValueError(f"fragment {self.child}: parent {repeated} is listed twice")


@dataclass(frozen=True)
class Declaration:
    """The types, each predicate's argument types and each entity's types."""

    types: frozenset[str]
    signatures: dict[str, tuple[str, ...]]
    entities: dict[str, frozenset[str]]


# ---------------------------------------------------------------------------
# Model construction from a concept graph
# ---------------------------------------------------------------------------


def variable_for_node(node) -> AbstractVar:
    return AbstractVar(PREDICATE_FOR_KIND[node.kind], (META_VARIABLE, node.id))


def model_from_graph(graph: ConceptGraph, provider, alpha: float,
                     root_prior: float) -> tuple[Declaration, list[Fragment]]:
    """One abstract variable and one leaky noisy-OR fragment per graph node.

    A node's parents are the variables of its incoming edges' sources, in
    the order of their text: IsA edges run specific -> general, so a child
    concept's variable parents its parent concept's.  Its table is
    :func:`_noisy_or_table` with the leak :data:`LEAK` (Pearl 1988, sec.
    4.3.2; Henrion 1989), and a parentless node's is ``[root_prior]``.  A
    node of more than :data:`MAX_PARENTS` parents raises
    :class:`DenseModelError` before any table is built.
    """
    if not (0.0 <= alpha <= 1.0 and 0.0 <= root_prior <= 1.0):
        raise ValueError("alpha and root_prior must lie in [0, 1]")
    var_of = {node_id: variable_for_node(node) for node_id, node in graph.nodes.items()}
    text_of = {node_id: str(var) for node_id, var in var_of.items()}
    incoming = graph.incoming()
    # parents in the order of their variables' text; a node id names one variable
    sources_of = {node_id: sorted({e.src for e in incoming[node_id]}, key=text_of.__getitem__)
                  for node_id in sorted(graph.nodes)}
    for node_id, sources in sources_of.items():
        if len(sources) > MAX_PARENTS:
            raise DenseModelError(
                f"node {node_id!r} has {len(sources)} parents (max {MAX_PARENTS}); "
                "split the node or prune its relations")
    fragments = []
    for node_id, sources in sources_of.items():
        cpf = [root_prior]
        if sources:
            cpf = _noisy_or_table(graph, incoming[node_id], sources, provider, alpha, LEAK)
        fragments.append(Fragment(var_of[node_id], [var_of[s] for s in sources], cpf))
    entities = {node_id: frozenset({graph.nodes[node_id].kind}) for node_id in sources_of}
    decl = Declaration(types=frozenset(TYPES), signatures=dict(SIGNATURES), entities=entities)
    return decl, fragments


# ---------------------------------------------------------------------------
# CPFs: the noisy-OR table, evidence simulation and learning
# ---------------------------------------------------------------------------


def _noisy_or_table(graph, edges, sources, provider, alpha, leak) -> np.ndarray:
    """P(true | sources) per packed configuration: ``1 - (1 - leak) * prod(1 - p)``.

    The product runs over the ``edges`` whose source is true, in edge
    order, so a repeated edge counts twice; ``sources`` lists the distinct
    source node ids, the first at the most significant bit.  Each ``p =
    alpha * strength + (1 - alpha) * provider.score(src_term, dst_term)``
    is clipped to ``[0, 1 - leak]``, so with a leak no row is 0, and none
    is 1 unless six or more true sources sit at the cap and the product
    underflows.  Each edge multiplies the rows of its source's bit in
    place, through one strided view of the table.  More than
    :data:`MAX_PARENTS` sources raise :class:`DenseModelError`.
    """
    if len(sources) > MAX_PARENTS:
        raise DenseModelError(
            f"node {edges[0].dst!r} has {len(sources)} sources (max {MAX_PARENTS})")
    miss = np.full(2 ** len(sources), 1.0 - leak)
    for e in edges:
        src, dst = graph.nodes[e.src], graph.nodes[e.dst]
        p = alpha * e.strength + (1.0 - alpha) * provider.score(src.term, dst.term)
        bit = len(sources) - 1 - sources.index(e.src)
        # the rows with the source's bit set, as one strided view: blocks of
        # 2^bit rows alternate between the bit clear and the bit set
        miss.reshape(-1, 2, 1 << bit)[:, 1] *= 1.0 - min(1.0 - leak, max(0.0, p))
    return 1.0 - miss


@dataclass
class EvidenceSet:
    """Sampled worlds over the abstract variables of one object binding.

    ``worlds`` is a (n_worlds, n_variables) boolean matrix; every row is
    a complete assignment.  :func:`simulate_evidence` stores the worlds
    variable-major, so its ``worlds`` is the transposed view of a
    ``(n_variables, n_worlds)`` array and ``worlds.T[i]`` is variable
    ``i``'s contiguous column.
    """

    variables: list[str]
    worlds: np.ndarray

    def __post_init__(self):
        self.worlds = np.asarray(self.worlds, dtype=bool)
        if self.worlds.ndim != 2 or self.worlds.shape[1] != len(self.variables):
            raise ValueError("worlds matrix does not match the variable list")


def simulate_evidence(graph: ConceptGraph, provider, alpha: float, n_worlds: int,
                      seed: int, root_prior: float = 0.5) -> EvidenceSet:
    """Sample complete worlds from the graph, top-down in topological order.

    A node with sources is drawn from the :func:`_noisy_or_table` of its
    distinct sources in edge order, without a leak; each world looks its
    entry up by the packed configuration of the sources (:func:`_pack`).
    A parentless node is drawn from ``root_prior`` (nodes carry no prior
    of their own).  Worlds are filled variable-major, one contiguous
    ``(n_worlds,)`` row per variable; the returned set's ``worlds`` is the
    transposed view.  More than :data:`MAX_PARENTS` sources raise
    :class:`DenseModelError`.
    """
    if n_worlds < 1:
        raise ValueError("n_worlds must be >= 1")
    if not (0.0 <= alpha <= 1.0 and 0.0 <= root_prior <= 1.0):
        raise ValueError("alpha and root_prior must lie in [0, 1]")

    order = _graph_topo_order(graph)
    var_names = [str(variable_for_node(graph.nodes[i])) for i in order]
    row = {node_id: pos for pos, node_id in enumerate(order)}

    incoming = graph.incoming()
    rng = np.random.default_rng(seed)
    states = np.zeros((len(order), n_worlds), dtype=bool)
    for node_id in order:
        edges = incoming[node_id]
        if not edges:
            np.less(rng.random(n_worlds), root_prior, out=states[row[node_id]])
            continue
        sources = list(dict.fromkeys(e.src for e in edges))
        p_true = _noisy_or_table(graph, edges, sources, provider, alpha, 0.0)
        np.less(rng.random(n_worlds), p_true.take(_pack(states, [row[s] for s in sources])),
                out=states[row[node_id]])
    return EvidenceSet(variables=var_names, worlds=states.T)


def _graph_topo_order(graph: ConceptGraph) -> list[str]:
    sources = {i: [e.src for e in edges] for i, edges in graph.incoming().items()}
    try:
        return topological_order(graph.nodes, sources)
    except CycleError:
        raise ValueError("graph contains a cycle; cannot sample top-down") from None


def learn_cpfs(fragments, evidence: EvidenceSet, pseudocount: float = 1.0) -> list[Fragment]:
    """Maximum-likelihood CPF rows with optional Laplace smoothing.

    Each row becomes (true count + pseudocount) / (count + 2 *
    pseudocount) for its parent configuration; configurations never
    observed fall back to 0.5.

    A fragment's worlds are counted by one ``bincount`` of the packed
    parents-then-child configuration (:func:`_pack` over the variables'
    rows of ``evidence.worlds.T``, contiguous for
    :func:`simulate_evidence`), a parentless one by one
    ``count_nonzero``.  The counts of all fragments are smoothed in one
    division.
    """
    col = {name: i for i, name in enumerate(evidence.variables)}
    rows = evidence.worlds.T
    if not fragments:
        return []
    counts = []
    for frag in fragments:
        child = col[str(frag.child)]
        if frag.parents:
            key = _pack(rows, [*(col[str(p)] for p in frag.parents), child])
            counts.append(np.bincount(key, minlength=2 << len(frag.parents)))
        else:
            trues = np.count_nonzero(rows[child])
            counts.append(np.array([rows.shape[1] - trues, trues]))
    counts = np.concatenate(counts).reshape(-1, 2)
    denominator = counts.sum(axis=1) + 2.0 * pseudocount
    cpfs = np.divide(counts[:, 1] + pseudocount, denominator,
                     out=np.full(len(counts), 0.5), where=denominator != 0)
    ends = np.cumsum([len(frag.cpf) for frag in fragments])
    return [replace(frag, cpf=table)
            for frag, table in zip(fragments, np.split(cpfs, ends[:-1]))]


def _pack(rows, ids) -> np.ndarray:
    """Each column of the boolean ``rows[ids]`` as one binary number, first row highest.

    The key is ``uint8`` for up to 8 rows, ``uint16`` for up to 16 and
    ``intp`` above that, so it never overflows; it doubles (a left shift,
    cheaper than ``<<`` on narrow integers) and ORs in each row's bytes.
    """
    dtype = np.uint8 if len(ids) <= 8 else np.uint16 if len(ids) <= 16 else np.intp
    key = np.zeros(rows.shape[1], dtype=dtype)
    for i in ids:
        key += key
        key |= rows[i].view(np.uint8)
    return key


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


@dataclass
class GroundNetwork:
    """Grounded directed network: variables, parent lists, CPF tables."""

    names: list[str]
    parents: list[list[int]]
    cpfs: list[np.ndarray]

    def __post_init__(self):
        self.index = {name: i for i, name in enumerate(self.names)}
        self._topo: list[int] | None = None
        self._children: list[list[int]] | None = None

    def __len__(self):
        return len(self.names)

    def topo_order(self) -> list[int]:
        if self._topo is None:
            try:
                self._topo = topological_order(range(len(self.names)), self.parents)
            except CycleError as error:
                raise GroundingCycleError([self.names[v] for v in error.cycle]) from None
        return self._topo

    def children(self) -> list[list[int]]:
        if self._children is None:
            out: list[list[int]] = [[] for _ in self.names]
            for v, ps in enumerate(self.parents):
                for p in ps:
                    out[p].append(v)
            self._children = out
        return self._children

    def components(self) -> list[list[int]]:
        """Weakly connected components, each sorted by variable index."""
        neighbor: list[set[int]] = [set() for _ in self.names]
        for v, ps in enumerate(self.parents):
            for p in ps:
                neighbor[v].add(p)
                neighbor[p].add(v)
        seen = [False] * len(self.names)
        components = []
        for start in range(len(self.names)):
            if seen[start]:
                continue
            group = []
            frontier = [start]
            seen[start] = True
            while frontier:
                v = frontier.pop()
                group.append(v)
                for n in neighbor[v]:
                    if not seen[n]:
                        seen[n] = True
                        frontier.append(n)
            components.append(sorted(group))
        return components

    def subnetwork(self, variable_ids, parents=None, cpfs=None) -> "GroundNetwork":
        """Restriction to a parent-closed variable subset.

        ``parents`` and ``cpfs``, mappings from a variable to its parent
        list and CPF, replace the network's own for every kept variable.
        """
        ids = sorted(variable_ids)
        parents = self.parents if parents is None else parents
        cpfs = self.cpfs if cpfs is None else cpfs
        remap = {old: new for new, old in enumerate(ids)}
        for v in ids:
            for p in parents[v]:
                if p not in remap:
                    raise ValueError("subset is not closed under parents")
        return GroundNetwork(
            names=[self.names[v] for v in ids],
            parents=[[remap[p] for p in parents[v]] for v in ids],
            cpfs=[cpfs[v] for v in ids],
        )


def ground(decl: Declaration, fragments, objects) -> GroundNetwork:
    """Instantiate the per-object subnetworks.

    Every fragment is replicated once per object with the meta-variable
    substituted, and its copies share the fragment's read-only CPF table.
    Each copy's name is formatted once.  A parent that is some fragment's
    child is found by that fragment's position; any other parent is
    grounded and looked up by name, so it can be another object's
    variable.  Two ground variables of one name (two fragments with one
    child, or an object listed twice) raise ``ValueError`` naming it.  So
    do an undeclared parent and two parents of one fragment that ground
    to one variable, such as ``IsA(x,a)`` and ``IsA(o,a)`` for object
    ``o``; that error names the ground variable and the parent.
    """
    if not objects:
        raise ValueError("at least one object is required")

    bindings = [{META_VARIABLE: obj} for obj in objects]
    names = [frag.child.ground(binding) for binding in bindings for frag in fragments]
    index = {name: i for i, name in enumerate(names)}
    if len(index) < len(names):
        duplicate = next(name for i, name in enumerate(names) if index[name] != i)
        raise ValueError(f"ground variable {duplicate} is defined twice")
    # the names are distinct, so the children are too: per parent, the position of
    # the fragment it is the child of, which is its offset in every object's names
    position = {frag.child: j for j, frag in enumerate(fragments)}
    slots = [[position.get(p) for p in frag.parents] for frag in fragments]
    parents = []
    for k, binding in enumerate(bindings):
        base = k * len(fragments)
        for j, (frag, slot) in enumerate(zip(fragments, slots)):
            ps = []
            for p, s in zip(frag.parents, slot):
                if s is not None:
                    ps.append(base + s)
                    continue
                name = p.ground(binding)
                if name not in index:
                    raise ValueError(
                        f"variable {names[base + j]} has undeclared parent {name!r}")
                ps.append(index[name])
            # parents found by position are distinct, as the fragment's parents are
            if None in slot and len(set(ps)) < len(ps):
                repeated = next(p for i, p in enumerate(ps) if p in ps[:i])
                raise ValueError(f"ground variable {names[base + j]}: "
                                 f"parent {names[repeated]} is listed twice")
            parents.append(ps)

    net = GroundNetwork(names=names, parents=parents,
                        cpfs=[frag.cpf for frag in fragments] * len(objects))
    net.topo_order()  # raises GroundingCycleError on cyclic fragment structure
    return net


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _ids(net, names, role) -> list[int]:
    """The variable id of each name; an unknown one raises ``KeyError`` naming its ``role``."""
    for name in names:
        if name not in net.index:
            raise KeyError(f"unknown {role} variable {name!r}")
    return [net.index[name] for name in names]


def _answers(queries, evidence, estimate) -> dict[str, float]:
    """Per query, in order: 1.0 or 0.0 if the evidence clamps it, else ``estimate(q)``."""
    return {q: (1.0 if evidence[q] else 0.0) if q in evidence else estimate(q)
            for q in queries}


def _ancestral_closure(net, ids) -> list[int]:
    """``ids`` and all their ancestors, sorted; the walk visits no other variable."""
    closed = set(ids)
    frontier = list(closed)
    while frontier:
        for p in net.parents[frontier.pop()]:
            if p not in closed:
                closed.add(p)
                frontier.append(p)
    return sorted(closed)


def _reduced(net, ids, ev) -> tuple[GroundNetwork, dict[str, tuple[list[int], np.ndarray]]]:
    """The network the samplers draw for queries ``ids`` and resolved evidence ``ev``.

    It starts from the ancestral closure of the queries and the evidence,
    and visits no other variable.  A free query with no child in the
    closure is a leaf: it is not drawn, and the second value maps its name
    to its parents' ids in the result and its CPF, so a sampler answers it
    by its CPF row averaged over the sampled parent states
    (Rao-Blackwellisation; Casella & Robert 1996).  A free, unqueried root
    with exactly one child in the closure is summed into that child's CPF,
    ``(1 - p) * row[r=0] + p * row[r=1]``, and dropped (Bidyuk & Dechter
    2007).  A leaf counts as a child, and can take the sum, since its
    parents must stay sampled.  Roots are summed in topological order, so
    a child left without parents is summed on in turn.  The result is a
    :meth:`GroundNetwork.subnetwork`, whose parent-closure check validates
    every fold.
    """
    closure = _ancestral_closure(net, ids + list(ev))
    children: dict[int, list[int]] = {v: [] for v in closure}
    for v in closure:
        for p in net.parents[v]:
            children[p].append(v)
    asked = set(ids)
    leaves = {v for v in asked if v not in ev and not children[v]}
    parents = {v: net.parents[v] for v in closure}
    cpfs = {v: net.cpfs[v] for v in closure}
    dropped = set(leaves)
    for r in net.topo_order():
        if r in parents and not parents[r] and r not in ev and r not in asked \
                and len(children[r]) == 1:
            (c,) = children[r]
            i = parents[c].index(r)
            p = cpfs[r][0]
            table = cpfs[c].reshape(2 ** i, 2, -1)  # axis 1 is parent i's bit
            cpfs[c] = ((1.0 - p) * table[:, 0] + p * table[:, 1]).ravel()
            parents[c] = parents[c][:i] + parents[c][i + 1:]
            dropped.add(r)
    sampled = net.subnetwork([v for v in closure if v not in dropped], parents, cpfs)
    return sampled, {net.names[v]: ([sampled.index[net.names[p]] for p in parents[v]],
                                    cpfs[v]) for v in leaves}


def infer_exact(net: GroundNetwork, query: str, evidence=None) -> float:
    """P(query = true | evidence) by variable elimination (Zhang & Poole 1994).

    Only the query, the evidence and their ancestors take part; every
    other variable is barren and sums out to one.  Each of their CPFs
    becomes a factor over its parents and variable, sliced at the
    evidence.  The free variables other than the query are then summed
    out one by one, each time the one whose elimination makes the
    smallest factor (ties to the lower index), by one ``np.einsum`` over
    the factors that hold it.  A deterministic CPF row is a factor with a
    zero entry.  Evidence of probability zero raises ``ValueError``.
    """
    evidence = evidence or {}
    (q,) = _ids(net, [query], "query")
    ev = dict(zip(_ids(net, evidence, "evidence"), map(bool, evidence.values())))
    return _answers([query], evidence, lambda _: _eliminate(net, q, ev))[query]


def _eliminate(net, q, ev) -> float:
    """P(variable ``q`` = true | resolved evidence ``ev``), ``q`` not clamped."""
    factors = []  # (scope, table): one axis of length 2 per variable of the scope
    for v in _ancestral_closure(net, [q, *ev]):
        scope = [*net.parents[v], v]
        table = np.stack((1.0 - net.cpfs[v], net.cpfs[v]), axis=-1)
        at = tuple(int(ev[u]) if u in ev else slice(None) for u in scope)
        factors.append(([u for u in scope if u not in ev],
                        table.reshape((2,) * len(scope))[at]))
    neighbours: dict[int, set[int]] = {}
    for scope, _ in factors:
        for u in scope:
            neighbours.setdefault(u, set()).update(scope)
    while len(neighbours) > 1:
        v = min((u for u in neighbours if u != q),
                key=lambda u: (len(neighbours[u]), u))  # each set holds its own variable
        scope = sorted(neighbours.pop(v) - {v})
        for u in scope:
            neighbours[u].discard(v)
            neighbours[u].update(scope)
        joined = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append((scope, _sum_product(joined, scope)))
    joint = _sum_product(factors, [q])
    total = joint.sum()
    if total == 0.0:
        raise ValueError("evidence has probability zero")
    return float(joint[1] / total)


def _sum_product(factors, scope) -> np.ndarray:
    """The product of the ``factors``, summed over every variable not in ``scope``."""
    label: dict[int, int] = {}  # labels local to one step: einsum takes at most 52
    operands = []
    for factor_scope, table in factors:
        operands += [table, [label.setdefault(u, len(label)) for u in factor_scope]]
    return np.einsum(*operands, [label[u] for u in scope])


def lw_sample(net: GroundNetwork, evidence, n_samples: int,
              rng) -> tuple[np.ndarray, np.ndarray]:
    """Likelihood weighting's ``n_samples`` draws as ``(configurations, n_vars)`` states
    and weights.

    One ancestral pass in topological order over columns, each a
    configuration and the count of samples that share it; it starts from
    one column of all ``n_samples``.  A clamped variable is set in every
    column.  A free one splits every column by ``rng.binomial(count, p)``
    into the column with it false and the one with it true, in that
    order, and drops the columns of count zero.  The counts are then
    multinomial, so the weighted sums LW takes have the same law as over
    single samples (Davis 1993), at a cost set by the number of
    configurations.  Before a free variable at which the columns average
    fewer than ``_MIN_MEAN_COUNT`` samples, ``np.repeat`` expands them to
    single samples, and :func:`_forward_sample` draws the rest, one
    uniform per sample.

    So the rows are distinct configurations, or single samples once
    expanded, at most ``n_samples`` of them.  Each row's weight is its
    count times its likelihood weight, the product of the evidence's CPF
    entries at the row in topological order.  The states are a
    transposed view of the variable-major pass array.
    """
    ev = dict(zip(_ids(net, evidence, "evidence"), map(bool, evidence.values())))
    order = net.topo_order()
    states = np.zeros((len(net.names), 1), dtype=bool)
    counts = np.array([n_samples])
    for position, v in enumerate(order):
        if v in ev:
            states[v] = ev[v]
        elif len(counts) * _MIN_MEAN_COUNT > n_samples:
            states = _forward_sample(net, ev, np.repeat(states, counts, axis=1),
                                     order[position:], rng)
            counts = 1  # each column is now one sample
            break
        else:
            p_true = _p_true(net, v, states)
            split = np.empty((len(counts), 2), dtype=counts.dtype)  # (false, true) per column
            split[:, 1] = rng.binomial(counts, p_true)
            np.subtract(counts, split[:, 1], out=split[:, 0])
            split = split.ravel()
            (kept,) = split.nonzero()
            states = states[:, kept >> 1]
            states[v] = kept & 1
            counts = split[kept]
    weights = np.ones(states.shape[1])
    for v in order:
        if v in ev:
            p_true = _p_true(net, v, states)
            weights *= p_true if ev[v] else 1.0 - p_true
    weights *= counts
    return states.T, weights


def _forward_sample(net, ev, states, order, rng) -> np.ndarray:
    """Clamp or draw, one uniform per column, each variable of the topological ``order``.

    States are variable-major, ``(n_vars, n_columns)``: row ``v`` holds
    variable ``v``, and each column looks its CPF row up by the packed
    configuration of the parents' contiguous rows (:func:`_p_true`).
    Returns ``states``, filled in place.
    """
    for v in order:
        if v in ev:
            states[v] = ev[v]
        else:
            states[v] = rng.random(states.shape[1]) < _p_true(net, v, states)
    return states


def _p_true(net, v, states):
    """P(variable ``v`` = true) per column of ``states``, by its parents' packed rows.

    A root's is its one CPF entry, a scalar.
    """
    ps = net.parents[v]
    return net.cpfs[v].take(_pack(states, ps)) if ps else net.cpfs[v][0]


def infer_lw(net: GroundNetwork, query: str, evidence=None, n_samples: int = 50_000,
             seed: int = 0) -> float:
    """Likelihood-weighted estimate of P(query | evidence) from ``n_samples`` draws.

    The draws are counted per configuration (:func:`lw_sample`).
    Deterministic for a given seed.  If every sampled weight is zero the
    evidence is contradictory; a :class:`ZeroWeightWarning` is emitted
    and 0.5 returned.
    """
    estimates = lw_estimates(net, [query], evidence, n_samples, seed)
    return estimates[query]


def lw_estimates(net: GroundNetwork, queries, evidence=None, n_samples: int = 50_000,
                 seed: int = 0) -> dict[str, float]:
    """Estimates for many queries from one shared weighted sample set.

    The whole network of :func:`_reduced` is drawn by :func:`lw_sample`,
    whose rows are configurations weighted by their sample count times
    their likelihood weight.  A drawn query's estimate is the weight of the
    rows where it is true over the total weight; a leaf query's is its CPF
    row at each row's parent states, averaged with the weights as
    ``(weights * row).sum() / total``, so a certain row gives exactly 1.0.
    Which variables are drawn, and so each estimate, depends on the other
    queries of the call; the estimated posterior does not.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    evidence = evidence or {}
    ev = dict(zip(_ids(net, evidence, "evidence"), map(bool, evidence.values())))
    sampled, leaves = _reduced(net, _ids(net, queries, "query"), ev)
    rng = np.random.default_rng(seed)
    states, weights = lw_sample(sampled, evidence, n_samples, rng)
    total = weights.sum()
    if total == 0.0:
        warnings.warn("all sample weights are zero; evidence is contradictory",
                      ZeroWeightWarning, stacklevel=2)
        return {q: 0.5 for q in queries}
    rows = states.T  # variable-major

    def estimate(q):
        if q in leaves:
            ps, cpf = leaves[q]
            return float((weights * cpf.take(_pack(rows, ps))).sum() / total)
        return float(np.compress(rows[sampled.index[q]], weights).sum() / total)

    return _answers(queries, evidence, estimate)


def infer_gibbs(net: GroundNetwork, query: str, evidence=None, burn_in: int = 1000,
                n_samples: int = 50_000, seed: int = 0, n_chains: int = 512) -> float:
    """Single-site Gibbs estimate of P(query | evidence).

    ``n_samples`` counts collected states across all chains; each chain
    runs up to ``burn_in`` warm-up sweeps first, and none when every
    evidence variable's parents are evidence too (see
    :func:`gibbs_estimates`).  The chains run on the network reduced for
    this query and evidence (:func:`_reduced`), so the estimate can
    differ from that of the same query in a larger
    :func:`gibbs_estimates` call.  The variables the chains draw must
    have strictly non-deterministic CPF rows (otherwise the chain cannot
    leave absorbing states and an :class:`ErgodicityError` is raised).
    """
    return gibbs_estimates(net, [query], evidence, burn_in, n_samples, seed,
                           n_chains)[query]


def gibbs_estimates(net: GroundNetwork, queries, evidence=None, burn_in: int = 1000,
                    n_samples: int = 50_000, seed: int = 0,
                    n_chains: int = 512) -> dict[str, float]:
    """Single-site Gibbs estimates for many queries from one chain set.

    The chains run on the network of :func:`_reduced`: the queries, the
    evidence and their ancestors, less the leaf queries and the
    single-child roots summed into their child.  The initial sample, the
    sites, the uniforms and the kept sweeps described below are all that
    network's.  A leaf query's estimate is its CPF row at the chains'
    parent states, summed over the kept sweeps and divided by the number
    of kept states.  So the target posterior does not depend on the other
    queries of the call, but the chains, and each estimate, do: a query
    asked alone can get another estimate than in a larger batch.  Only a
    deterministic CPF row of a variable the chains draw, as summed,
    raises :class:`ErgodicityError`, naming the lowest such variable.

    Every chain starts from an ancestral forward sample with the evidence
    clamped and runs ``burn_in`` warm-up sweeps over the free variables in
    topological order; then ``ceil(n_samples / n_chains)`` further sweeps
    are kept, so kept sweeps are counted per chain and at least
    ``n_samples`` states are collected.  ``burn_in`` is a cap: when every
    evidence variable's parents in the reduced network are evidence too
    (root evidence is the common case, and a single-child root parent is
    summed into its child), the evidence's CPF entries are constants, so the
    forward sample is an exact draw from P(free | evidence) (Henrion 1988)
    and the chains run no warm-up sweep at all.  Evidence with a free
    parent runs all ``burn_in`` sweeps.  ``n_samples`` and ``n_chains``
    must be at least 1 and ``burn_in`` at least 0.

    Sampler state is one integer key per variable and chain,
    ``2 * parent_config + state``, with the parent configuration ordered
    as in the CPF (:func:`_pack`), so a parent sits at one bit of its
    child's key.  The forward sample's keys pack each variable's parents
    and then the variable itself.  A CPF is read interleaved,
    ``(1 - cpf[i], cpf[i])`` at ``(2i, 2i + 1)``: the entry at a key is
    the probability of the variable's state given its parents.  Each free
    site gets one ``(2, len)`` table per factor, its own CPF and each
    child's, whose row ``s`` is the interleaved CPF at every key with the
    site's bit set to ``s``.  One ``take`` then gives a factor for both
    states, and the factors are multiplied in the order own CPF, then
    children.  A table holds twice the interleaved CPF's entries, 2 MB
    for a child of :data:`MAX_PARENTS` parents, and each link has its
    own for the length of the call.  A draw flips the site where it
    differs from the current state: ``flip = (key & 1) ^ draw`` XORs the
    site's key and, times the site's bit, each child's key; no other key
    changes.  A site whose two weights are both zero, or underflow to
    zero, is drawn at 0.5.  The forward sample (:func:`_forward_sample`)
    draws ``n_chains`` uniforms per free site in topological order, and
    each sweep one ``(free sites, n_chains)`` block, row ``i`` for the
    ``i``-th site; on PCG64 the two are equal.

    Kept sweeps store only the states read afterwards, those of the drawn
    queries and of the leaf queries' parents: one bool buffer of
    ``ceil(n_samples / n_chains) * n_chains`` entries per such variable.
    A drawn query's estimate is its count of true states there; a leaf's
    CPF row is looked up once over the buffer and summed per sweep, in
    sweep order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    evidence = evidence or {}
    ev = dict(zip(_ids(net, evidence, "evidence"), map(bool, evidence.values())))
    net, leaves = _reduced(net, _ids(net, queries, "query"), ev)
    ev = dict(zip(_ids(net, evidence, "evidence"), map(bool, evidence.values())))
    tables = [np.array((1.0 - cpf, cpf)).T.ravel() for cpf in net.cpfs]
    for v, table in enumerate(tables):
        if v not in ev and not table.all():  # an entry is 0 where a row is 0 or 1
            raise ErgodicityError(
                f"variable {net.names[v]} has a deterministic CPF row and is not "
                "clamped by evidence; use infer_lw instead")
    if all(p in ev for v in ev for p in net.parents[v]):
        burn_in = 0  # the ancestral start is already an exact posterior draw

    keys = np.empty((len(net.names), n_chains), dtype=np.intp)
    children = net.children()
    # per free variable in topological order: its key row and own table, and
    # per child the child's key row, link table and key bit for the variable
    sites = []
    for v in net.topo_order():
        if v not in ev:
            links = []
            for c in children[v]:
                bit = 2 << (len(net.parents[c]) - 1 - net.parents[c].index(v))
                links.append((keys[c], _split_table(tables[c], bit), bit))
            sites.append((keys[v], _split_table(tables[v], 1), links))

    rng = np.random.default_rng(seed)
    # ancestral initialization: forward-sample each chain so the sweep
    # starts near the target distribution instead of uniform noise
    states = _forward_sample(net, ev, np.empty(keys.shape, dtype=bool), net.topo_order(), rng)
    for v, ps in enumerate(net.parents):
        keys[v] = _pack(states, [*ps, v])  # 2 * parent configuration + state

    per_chain = -(-n_samples // n_chains)  # ceil
    drawn = [q for q in queries if q in net.index and q not in evidence]
    read = sorted({net.index[q] for q in drawn}.union(*(ps for ps, _ in leaves.values())))
    at = {v: i for i, v in enumerate(read)}  # each read variable's row of the kept buffer
    kept = np.empty((len(read), per_chain, n_chains), dtype=bool)

    for sweep in range(burn_in + per_chain):
        uniforms = rng.random((len(sites), n_chains))
        for (key, own, links), uniform in zip(sites, uniforms):
            weights = own.take(key, axis=1)  # row s: weight of state s
            for c_key, table, _ in links:
                weights *= table.take(c_key, axis=1)
            total = weights[0] + weights[1]
            if np.count_nonzero(total) == n_chains:  # no chain has both weights zero
                p = weights[1] / total
            else:
                p = np.divide(weights[1], total, out=np.full(n_chains, 0.5), where=total > 0)
            flip = (key & 1) ^ (uniform < p)
            key ^= flip
            for c_key, _, bit in links:
                c_key ^= flip * bit
        if sweep >= burn_in:
            kept[:, sweep - burn_in] = keys[read] & 1

    count = per_chain * n_chains
    flat = kept.reshape(len(read), count)
    hits = {q: int(np.count_nonzero(flat[at[net.index[q]]])) for q in drawn}
    expected = {}
    for q, (ps, cpf) in leaves.items():
        rows = cpf.take(_pack(flat, [at[p] for p in ps])).reshape(per_chain, n_chains)
        expected[q] = 0.0
        for sweep_sum in rows.sum(axis=1).tolist():  # in sweep order
            expected[q] += sweep_sum
    return _answers(queries, evidence,
                    lambda q: expected[q] / count if q in leaves else hits[q] / count)


def _split_table(table, bit) -> np.ndarray:
    """``(2, len(table))``: row ``s`` is ``table`` at each key with ``bit`` set to ``s``."""
    return np.repeat(table.reshape(-1, 2, bit).swapaxes(0, 1), 2, axis=1).reshape(2, -1)


def estimates(net: GroundNetwork, queries, evidence=None, method: str = "lw",
              n_samples: int = 50_000, burn_in: int = 1000, seed: int = 0,
              n_chains: int = 512) -> dict[str, float]:
    """P(query | evidence) for every query by one of :data:`METHODS`.

    The sampling methods answer all queries from one shared sample set.
    """
    if method == "exact":
        return {q: infer_exact(net, q, evidence) for q in queries}
    if method == "lw":
        return lw_estimates(net, queries, evidence, n_samples, seed)
    if method == "gibbs":
        return gibbs_estimates(net, queries, evidence, burn_in, n_samples, seed, n_chains)
    raise ValueError(f"unknown inference method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# Model serialization
# ---------------------------------------------------------------------------


def write_model(decl: Declaration, fragments, path) -> None:
    """Text layout: declaration records, then one FRAGMENT record per node.

    CPF rows are written in binary-counting order of the parent
    configurations (first parent most significant, false < true), and
    the record ends in a ``-`` flag column.  Editing a row by hand (e.g.
    to force a rule to probability one) is supported.
    """
    with open(path, "w", encoding="utf-8") as out:
        for t in sorted(decl.types):
            out.write(f"TYPE\t{t}\n")
        for pred in sorted(decl.signatures):
            out.write("\t".join(("SIG", pred, *decl.signatures[pred])) + "\n")
        for entity in sorted(decl.entities):
            types = ",".join(sorted(decl.entities[entity]))
            out.write(f"ENTITY\t{entity}\t{types}\n")
        for frag in fragments:
            parents = ",".join(map(str, frag.parents)) or "-"
            rows = " ".join(map(repr, frag.cpf.tolist()))
            out.write(f"FRAGMENT\t{frag.child}\t{parents}\t{rows}\t-\n")


def read_model(path) -> tuple[Declaration, list[Fragment]]:
    """Read the :func:`write_model` layout.

    A record may use only what the records above it declare, as
    :func:`write_model` orders them: a ``SIG`` or ``ENTITY`` record names
    a new predicate or entity and only types of ``TYPE`` records.  Each
    distinct variable text is parsed and checked once per file, where it
    first appears (:func:`_check_typed`), so a variable that parents many
    fragments is one shared :class:`AbstractVar`.  A parent list is split
    by :func:`_split_vars` and a CPF row by one ``np.array`` call, which
    converts each number as ``float`` does.  A malformed record, a
    declaration or variable that breaks these rules, a fragment whose
    child is declared twice, or a flag column other than ``-`` raises
    ``ValueError`` naming its line.
    """
    types: set[str] = set()
    signatures: dict[str, tuple[str, ...]] = {}
    entities: dict[str, frozenset[str]] = {}
    fragments: list[Fragment] = []
    declared: set[AbstractVar] = set()
    parsed: dict[str, AbstractVar] = {}  # variable text -> its variable

    def variable(text):
        if text not in parsed:
            parsed[text] = _check_typed(AbstractVar.parse(text), signatures, entities)
        return parsed[text]

    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.split("\t")
            tag = cols[0]
            try:
                if tag == "TYPE" and len(cols) == 2:
                    types.add(cols[1])
                elif tag == "SIG" and len(cols) >= 2:
                    _declare(signatures, "predicate", cols[1], tuple(cols[2:]), types)
                elif tag == "ENTITY" and len(cols) == 3:
                    _declare(entities, "entity", cols[1], frozenset(cols[2].split(",")), types)
                elif tag == "FRAGMENT" and len(cols) == 5:
                    child = variable(cols[1])
                    if child in declared:
                        raise ValueError(f"fragment {child} declared twice")
                    declared.add(child)
                    parents = [variable(p) for p in _split_vars(cols[2])]
                    cpf = np.array(cols[3].split(), dtype=float)
                    if cols[4] != "-":
                        raise ValueError(f"flag must be '-', got {cols[4]!r}")
                    fragments.append(Fragment(child=child, parents=parents, cpf=cpf))
                else:
                    raise ValueError(repr(raw))
            except ValueError as error:
                raise ValueError(f"bad model record on line {line_no}: {error}") from None
    decl = Declaration(types=frozenset(types), signatures=signatures, entities=entities)
    return decl, fragments


def _declare(records, kind, name, type_names, types) -> None:
    """Add a ``SIG`` or ``ENTITY`` record, which must be new and name declared types."""
    if name in records:
        raise ValueError(f"{kind} {name!r} declared twice")
    if not types.issuperset(type_names):
        undeclared = min(set(type_names) - types)
        raise ValueError(f"{kind} {name!r} has undeclared type {undeclared!r}")
    records[name] = type_names


def _check_typed(var, signatures, entities) -> AbstractVar:
    """``var`` if it fits its predicate's signature, else ``ValueError``.

    The arity must match.  The first argument is the meta-variable
    :data:`META_VARIABLE` or an entity of the signature's first type, and
    every other argument an entity whose types include the signature's
    type at its position (Jain, Waldherr & Beetz 2009).
    """
    signature = signatures.get(var.predicate)
    if signature is None:
        raise ValueError(f"{var}: predicate {var.predicate!r} has no SIG record")
    if len(signature) != len(var.args):
        raise ValueError(f"{var}: {var.predicate} takes {len(signature)} arguments")
    for position, (arg, type_name) in enumerate(zip(var.args, signature)):
        if type_name not in entities.get(arg, ()) and (position or arg != META_VARIABLE):
            raise ValueError(f"{var}: {arg!r} is no entity of type {type_name!r}")
    return var


# a variable whose arguments hold no parenthesis, as write_model writes them
_VARIABLE = re.compile(r"[^(),]*\([^()]*\)")


def _split_vars(text: str) -> list[str]:
    """Split ``P(a,b),Q(c,d)`` on the commas between variables only.

    A list of :data:`_VARIABLE` matches joined by single commas is split
    by one ``findall``; any other text by a loop over its characters that
    tracks the parenthesis depth.
    """
    if text == "-":
        return []
    parts = _VARIABLE.findall(text)
    if ",".join(parts) == text:
        return parts
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
