"""Simulation laboratory for variable-speed branching Brownian motion.

Samples Galton-Watson genealogies, attaches time-changed Gaussian
displacements, and measures the extremal statistics, path-localization
events, F-KPP front behaviour, and Gaussian-comparison sandwiches that
constrain them at finite horizon.
"""

from vsbbm.genealogy import GenealogyTree, OffspringDistribution, mrca, sample_tree
from vsbbm.speed import (
    EnvelopePair,
    SpeedProfile,
    build_envelopes,
    build_envelopes_rho,
    delta_thresholds,
    from_function,
    identity_profile,
    piecewise_linear,
    two_speed,
)
from vsbbm.sampler import ParticleConfiguration, covariance_oracle, sample_bbm
from vsbbm.extremal import (
    ReplicateSummary,
    centering,
    count_exceedances,
    empirical_laplace,
    mckean_martingale,
)
from vsbbm.tube import TubeSpec, bridge_violation_bound, empirical_bridge_violation, in_tube
from vsbbm.fkpp import FkppState, fkpp_step, front_position, solve_heaviside, tail_constant
from vsbbm.compare import CoupledTriple, coupled_sample, sandwich_report
from vsbbm.cluster import SpineRealization, conditioned_sample, decoration_atoms, spine_sample

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
    "build_envelopes_rho",
    "ParticleConfiguration",
    "sample_bbm",
    "covariance_oracle",
    "ReplicateSummary",
    "centering",
    "count_exceedances",
    "empirical_laplace",
    "mckean_martingale",
    "TubeSpec",
    "in_tube",
    "bridge_violation_bound",
    "empirical_bridge_violation",
    "FkppState",
    "fkpp_step",
    "solve_heaviside",
    "front_position",
    "tail_constant",
    "CoupledTriple",
    "coupled_sample",
    "sandwich_report",
    "SpineRealization",
    "conditioned_sample",
    "decoration_atoms",
    "spine_sample",
]
