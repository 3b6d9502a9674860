"""Exact lift-and-project rank toolkit for stable set polytopes of webs,
antiwebs and complete joins.

All polyhedral arithmetic is exact rational; every computed rank or
validity answer carries a certificate that `webrank recheck` can
re-verify through independent code paths.
"""

from .graphs import (
    AntiwebId,
    Graph,
    SearchTimeout,
    ResourceCapExceeded,
    WebId,
    alpha,
    antiweb,
    complement,
    complete_join,
    delete_nodes,
    find_induced_odd_hole,
    is_perfect,
    is_subweb,
    omega,
    parse_graph_spec,
    web,
)
from .polyhedra import (
    HPolytope,
    LinearInequality,
    VPolytope,
    convex_hull_facets,
    frac,
    is_valid,
    lp_max,
    qstab,
    stab,
)
from .liftproject import (
    disjunctive_member,
    disjunctive_valid,
    n_operator_max,
    n_operator_valid,
)
from .inequalities import (
    JoinBlocks,
    OneIntervalSet,
    antiweb_constraint,
    enumerate_one_interval_sets,
    joined_inequality,
    one_interval_inequality,
    rank_constraint,
    stab_description_w2,
)
from .rank import (
    GraphRankResult,
    IneqRankResult,
    disjunctive_rank_graph,
    disjunctive_rank_inequality,
    formula_web_rank,
    n_rank_inequality_upto,
    verify_join_bound,
    verify_operator_sandwich,
    verify_rdfar,
    verify_w2_description,
    verify_web_rank_formulas,
)

__version__ = "0.1.0"
