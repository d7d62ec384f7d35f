"""Simulation laboratory for variable-speed branching Brownian motion.

Samples Galton-Watson genealogies, attaches time-changed Gaussian
displacements, and measures the extremal statistics, bridge-tube
violations, F-KPP front behaviour, Gaussian-comparison sandwiches and
spine clusters that constrain them at finite horizon.
"""

from vsbbm.genealogy import GenealogyTree, OffspringDistribution, mrca, sample_tree
from vsbbm.speed import (
    SpeedProfile,
    build_envelopes,
    delta_thresholds,
    identity_profile,
    piecewise_linear,
    two_speed,
)
from vsbbm.sampler import covariance_oracle
from vsbbm.extremal import centering, count_exceedances
from vsbbm.tube import bridge_violation_bound, empirical_bridge_violation
from vsbbm.fkpp import FkppState, front_position, solve_heaviside, tail_constant
from vsbbm.compare import sandwich_report
from vsbbm.cluster import spine_sample

__all__ = [
    "GenealogyTree",
    "OffspringDistribution",
    "sample_tree",
    "mrca",
    "SpeedProfile",
    "identity_profile",
    "two_speed",
    "delta_thresholds",
    "piecewise_linear",
    "build_envelopes",
    "covariance_oracle",
    "centering",
    "count_exceedances",
    "bridge_violation_bound",
    "empirical_bridge_violation",
    "FkppState",
    "solve_heaviside",
    "front_position",
    "tail_constant",
    "sandwich_report",
    "spine_sample",
]
