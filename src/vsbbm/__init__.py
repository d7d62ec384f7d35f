"""Simulation laboratory for variable-speed branching Brownian motion.

Samples Galton-Watson genealogies, attaches time-changed Gaussian
displacements, and measures the extremal statistics, bridge-tube
violations, F-KPP front behaviour, Gaussian-comparison sandwiches and
spine clusters that constrain them at finite horizon.
"""

from vsbbm.genealogy import GenealogyTree, OffspringDistribution, mrca, sample_tree
from vsbbm.speed import (
    EnvelopePair,
    SpeedProfile,
    build_envelopes,
    delta_thresholds,
    from_function,
    identity_profile,
    piecewise_linear,
    two_speed,
)
from vsbbm.sampler import ParticleConfiguration, covariance_oracle
from vsbbm.extremal import (
    ReplicateSummary,
    centering,
    count_exceedances,
    empirical_laplace,
    mckean_martingale,
)
from vsbbm.tube import bridge_violation_bound, empirical_bridge_violation
from vsbbm.fkpp import FkppState, fkpp_step, front_position, solve_heaviside, tail_constant
from vsbbm.compare import sandwich_report
from vsbbm.cluster import SpineRealization, spine_sample

__all__ = [
    "GenealogyTree",
    "OffspringDistribution",
    "sample_tree",
    "mrca",
    "SpeedProfile",
    "EnvelopePair",
    "identity_profile",
    "two_speed",
    "delta_thresholds",
    "from_function",
    "piecewise_linear",
    "build_envelopes",
    "ParticleConfiguration",
    "covariance_oracle",
    "ReplicateSummary",
    "centering",
    "count_exceedances",
    "empirical_laplace",
    "mckean_martingale",
    "bridge_violation_bound",
    "empirical_bridge_violation",
    "FkppState",
    "fkpp_step",
    "solve_heaviside",
    "front_position",
    "tail_constant",
    "sandwich_report",
    "SpineRealization",
    "spine_sample",
]
