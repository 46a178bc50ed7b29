"""Rigidity analysis, expansive cones, and motion continuation for d-periodic
bar-and-joint frameworks described by their finite quotient data."""

from .cones import (
    ConeAnalysis,
    VectorStar,
    analyze_star,
    lineality_space,
    positive_dependence,
    strict_expansion_probe,
    vertex_star,
)
from .constructions import (
    SimplexVariant,
    simplex_framework,
    stressed_framework,
    with_edge_orbit,
)
from .errors import *  # noqa: F401,F403
from .expansive import (
    ExpansiveCone,
    FlexClass,
    classify_flex,
    expansive_cone,
    extremal_rays,
    find_stable_radius,
    pair_constraint,
    verify_pointedness,
)
from .feasibility import solve_linear_feasibility
from .framework import (
    EdgeOrbit,
    PeriodicFramework,
    Placement,
    QuotientGraph,
    load_framework,
    save_framework,
    validate_framework,
)
from .motion import (
    ExpansionAudit,
    MotionPath,
    audit_expansiveness,
    continue_motion,
    export_frames,
    facet_separation,
)
from .rigidity import (
    RigidityReport,
    analyze,
    is_minimally_rigid,
    rigidity_matrix,
    stress_coefficients,
    trivial_motion_basis,
)

__version__ = "0.1.0"
