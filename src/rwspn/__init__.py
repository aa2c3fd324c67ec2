"""Modular rewritable stochastic Petri nets.

Nets are built from symmetry-preserving operators over structured place
labels; states normalize to a canonical representative of their
automorphism class, which yields a quotient transition system and, from
it, an exactly lumped CTMC.
"""

from .bag import Bag, BagUnderflowError
from .net import (
    Net,
    NotEnabledError,
    Place,
    System,
    Transition,
    TransitionTag,
    dead,
    enab_set,
    enabled,
    enabled_instances,
    fire,
    has_concession,
    place,
)
from .algebra import (
    DetachError,
    detach,
    join,
    match_tag,
    min_index_not_in,
    repl_share,
    set_mark,
    subag,
    subnet_by_pair,
)
from .canon import (
    CanonBoundError,
    apply_assignment,
    brute_force_normal,
    normalize,
    normalize_marking,
    random_admissible_assignment,
    sibling_groups,
    system_order,
)
from .rewrite import (
    AugmentedState,
    InjectivityError,
    RewriteRule,
    RuleSite,
    all_rewrites,
    compile_site,
    fire_agg,
    rule_app,
    to_augmented,
)
from .statespace import (
    BudgetExceededError,
    TransitionSystem,
    explore,
    quotient_partition,
)
from .ctmc import (
    Generator,
    LumpabilityError,
    MeasureSeries,
    TransientBudgetError,
    build_generator,
    check_strong_lumpability,
    default_grid,
    lump_generator,
    measure_series,
    reliability,
    throughput,
    transient,
)
from .ftps import (
    absorbing_predicate,
    build_npl_sys,
    cycle_net,
    faulty_pl,
    faulty_sys,
    nom_pl,
    npl_net,
    pl_net,
    production_rules,
    rule_r1,
    rule_r2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
