"""Exact structure learning for Bayesian networks at desk scale.

The package solves the decomposable-score DAG optimization problem three
ways: a classical subset dynamic program, a parallel bucket-order cover
whose members are searched independently, and a simulated (or analytically
charged) quantum maximum-finding layer over the cover members.  Every
solver returns a witness DAG and is cross-checked against brute-force
oracles in the test suite.
"""

from .instance import (
    MAX_NODES,
    CyclicGraphError,
    Dag,
    InstanceTooLargeError,
    LocalScoreTable,
    MissingParentSetError,
    NodeSet,
    best_parents_in,
    is_acyclic,
    total_score,
)
from .scores_io import (
    DatasetError,
    DiscreteDataset,
    DuplicateParentSetError,
    MissingEmptySetError,
    ScoreFileError,
    ScoreSyntaxError,
    SelfParentError,
    TooManyEntriesError,
    UnknownVariableError,
    bic_scores,
    parse_scores,
    prune_dominated,
    write_scores,
)
from .dp_exact import (
    best_parents_all_subsets,
    brute_force_dags,
    brute_force_orders,
    enumerate_dags,
    solve_dp,
)
from .bucket_cover import (
    BlockPartition,
    CoverMember,
    DownsetIndex,
    IndexOutOfRangeError,
    InvalidKError,
    cover_size,
    downset_count_formula,
    member_by_index,
)
from .po_dp import (
    COVER_STRATEGIES,
    DownsetScoreTable,
    StrategyUnavailableError,
    downset_best_parents,
    solve_cover,
    solve_member,
)
from .grover_sim import (
    MAX_SIM_DOMAIN,
    CostReport,
    DomainTooLargeError,
    MaxOracle,
    QueryLedger,
    cost_report,
    grover_search_sim,
    grover_trial,
    max_find,
    optimal_iterations,
    padded_size,
    quantum_charge,
    success_probability,
)
from .seeding import rng_for, seed_sequence
from .tables import random_table

__version__ = "0.1.0"
