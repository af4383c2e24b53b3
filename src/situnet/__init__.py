"""situnet: situated commonsense knowledge networks.

Builds a context-restricted concept network from a lexical hierarchy and
a noisy relation dump, compiles it into a Bayesian Logic Network whose
conditional probability tables are leaky noisy-ORs of the network's
relations, and answers probabilistic queries about categories,
locations, properties, and affordances.
"""

from importlib import resources

# Lexical database
from situnet.lexicon import (
    CorpusFrequencies,
    LexiconIndex,
    Synset,
    load_frequencies,
    load_lexicon,
    load_stopwords,
    parse_lexicon,
    tokenize,
    write_lexicon,
)

# Relation dump
from situnet.edges import (
    ConceptEdge,
    EdgeStore,
    RelationType,
    filter_multiword,
    ingest_edges,
    load_edges,
    normalized_weight,
)

# Relatedness
from situnet.relatedness import (
    EsaIndex,
    EsaRelatedness,
    build_esa_index,
    load_documents,
)

# Disambiguation
from situnet.disambiguation import (
    SenseAssignment,
    build_wsp,
    disambiguate_edge,
    disambiguate_seeds,
)

# Graph generation
from situnet.netgen import (
    ConceptGraph,
    ConceptNode,
    RelationEdge,
    add_isa_paths,
    attach_locations_two_hop,
    attach_relations,
    compress,
    load_graph,
    save_graph,
)

# Bayesian Logic Network
from situnet.bln import (
    AbstractVar,
    Declaration,
    Fragment,
    GroundNetwork,
    ground,
    infer_exact,
    infer_gibbs,
    infer_lw,
    model_from_graph,
    read_model,
    write_model,
)

# Evaluation
from situnet.evaluation import (
    AccuracyReport,
    GoldStandard,
    load_gold,
    run_scenario,
    score,
)

__version__ = "0.1.0"


def data_path(*parts) -> "resources.abc.Traversable":
    """Path to a bundled data file, e.g. ``data_path('seeds', 'recipe.txt')``."""
    base = resources.files("situnet") / "data"
    for part in parts:
        base = base / part
    return base
