"""Edge-locally-private subgraph counting with exact oracles.

The pipeline: publish noisy degrees, rank nodes by them, obfuscate
adjacency bits with randomized response, then have each user sum unbiased
entries over its rank-sandwiched fork pairs (triangles) or over admissible
paths between them (odd cycles), with restricted-sensitivity Laplace noise
on every upload.  Exact brute-force counters and a Monte-Carlo harness
verify unbiasedness, clipping behavior and error scaling at desk scale.
"""

from .errors import ParseError, ResourceLimitError, ValidationError
from .graphs import (
    Graph,
    GraphStats,
    complete_graph,
    cycle_graph,
    degeneracy,
    dump_edge_list,
    gen_ba,
    gen_er,
    gen_ktree,
    graph_stats,
    load_edge_list,
    path_graph,
    petersen_graph,
    relabel,
    star_graph,
)
from .mechanisms import (
    ObfuscatedGraph,
    PrivacyBudget,
    assemble_obfuscated,
    check_budget,
    derive_seed,
    project_mu,
    randomize_response_row,
    sample_laplace,
    substream,
    unbias,
    unbias_span,
    unbias_variance,
)
from .oracles import (
    ExactCounts,
    count_cycles,
    count_low2stars,
    count_monotone_cycles,
    count_paths,
    count_triangles,
    enumerate_cycles,
    exact_counts,
)
from .ordering import NodeOrdering, apply_ordering, get_ordering
from .protocol import EstimateReport, clipped_degree
from .triangles import (
    estimate_triangles,
    user_triangle_estimate,
    user_triangle_noise,
)
from .cycles import (
    estimate_odd_cycles,
    server_walk_sum,
    user_cycle_estimate,
    user_cycle_noise,
)
from .experiments import (
    BoundReport,
    ExperimentConfig,
    ScalingReport,
    TrialSummary,
    error_scaling,
    make_graph,
    run_trials,
    verify_bounds,
)

__version__ = "0.1.0"
