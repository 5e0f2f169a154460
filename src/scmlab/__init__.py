"""Exact-arithmetic laboratory for binary acyclic SCMs.

Build a model from a hidden family parameter, compute its complete
answer oracle at any of four query classes (observational, single-value
interventional, single-variable counterfactual, all interventions),
serialize it canonically, decode parameters back out of higher-rung
oracles, and account for the description-length gap between rungs. All
probabilities are exact rationals; oracle equality is byte equality.
"""

__version__ = "0.1.0"

from .errors import ScmLabError
from .scm_core import (
    EMPTY_INTERVENTION,
    ExactDist,
    Intervention,
    Mechanism,
    NoiseDist,
    Scm,
    all_interventions,
    apply_do,
    counterfactual_triple,
    int_all,
    interventional,
    observational,
    topo_order,
    validate,
)
from .families import (
    BIPARTITE,
    TREE,
    XOR,
    BipartiteGraph,
    ClassSpec,
    HiddenString,
    RootedTree,
    build_bipartite_scm,
    build_tree_scm,
    build_xor_scm,
    class_membership,
    enumerate_graphs,
    enumerate_strings,
    enumerate_trees,
)
from .oracle import (
    CF1,
    INT1,
    INT_ALL,
    OBS,
    AnswerOracle,
    compute_oracle,
    d_int,
    extract_obs,
    marginal,
    oracle_index,
    parse,
    serialize,
    tv,
)
from .decoders import (
    DescendantSets,
    descendants_from_int1,
    graph_from_int1,
    string_from_cf1,
    tree_from_int1,
)
from .prufer import BitBudget, ceil_log2, prufer_decode, prufer_encode, tree_bit_budget
from .jsonio import scm_from_json, scm_to_json
from .catalog import FAMILIES, Family, FamilySpec, param_from_json, param_to_json
from .gap import (
    AmbiguityReport,
    GapRow,
    SeparationCheck,
    adjacency_decode,
    adjacency_encode,
    ambiguity_classes,
    conditional_entropy_uniform,
    degree_bound,
    generic_class_encoding,
    pairwise_separation_check,
    separation_table,
)
from .learning import (
    EXACT,
    LEARNERS,
    MONTE_CARLO,
    PRNG_ID,
    Dataset,
    MutualInfoReport,
    NflReport,
    derive_seed,
    mutual_information_check,
    per_query_error,
    run_nfl,
    sample_obs,
)
from .verify import CheckResult, all_passed, verify_family

__all__ = [name for name in dir() if not name.startswith("_")]
