"""Spanning-forest solving and sign certification for symbolic linear systems.

The package solves square systems with multivariate-polynomial coefficients
exactly, by expanding an associated zero-column-sum bordered matrix into
rooted spanning-forest sums, and certifies nonnegativity of the solution
components through edge-partition certificates on graph realizations of that
matrix.  A mass-action reaction-network front end produces certified positive
steady-state parameterizations.
"""

from .symring import (
    InputError,
    MissingVariableError,
    ParseError,
    Polynomial,
    RationalExpr,
    Sign,
    det_matrix,
    is_nonneg,
    is_nonpos,
    monomial_split,
    parse_poly,
    poly_sign,
    rat_equal,
    ratio,
)
from .multigraph import (
    Edge,
    Laplacian,
    Multidigraph,
    canonical_graph,
    graph_from_json,
    graph_to_json,
    laplacian_of,
    reaches_avoiding,
    simple_cycles,
    to_dot,
)
from .forests import (
    Forest,
    ForestSums,
    all_minors_check,
    enumerate_forests,
    enumerate_rooted_forests,
    forest_from_edges,
    forest_label,
    inversion_count,
    upsilon,
    upsilon_rooted,
    upsilon_signed,
)
from .linsys import (
    LinearSystem,
    SingularSystemError,
    Solution,
    bordered_laplacian,
    cramer_oracle,
    residual_check,
    solve_by_trees,
    system_from_json,
    system_to_json,
)
from .pgraph import (
    PGraphWitness,
    Violation,
    certify_nonneg,
    find_pgraph,
    is_pgraph,
    lambda_forests,
    max_replacement_set,
    nonzero_component,
    positive_upsilon,
    psi_fiber,
    validate_partition,
)
from .blocksys import (
    BlockHypothesisError,
    BlockStructure,
    certify_block_nonneg,
    check_condition_star,
    choose_j,
    realization,
    solve_block,
    validate_acompatible,
    validate_block_form,
    zero_components,
)
from .crn import (
    ConservationUse,
    Network,
    NetworkParseError,
    NonlinearSystemError,
    ParameterizationReport,
    Reaction,
    SteadyStateTask,
    build_steady_system,
    conservation_laws,
    mass_action_odes,
    parameterize,
    parse_network,
)

__version__ = "0.1.0"
