"""Secure-bit-exchange scheduling for P2P hardware key-exchange networks.

Generates, validates, and analyzes exchange schedules for star, linear
chain, and fully connected topologies, with an exhaustive optimality
oracle and a key-accumulation simulator.
"""

from .analysis import (
    CableFailure,
    CenterSwitchFailure,
    ConnectivityReport,
    KeyExchangerFailure,
    RegressionFit,
    apply_failure,
    apply_failures,
    build_sbep_table,
    compare_networks,
    fit_linear,
)
from .oracle import (
    OracleResult,
    chromatic_index_lower_bound,
    min_steps_bruteforce,
    overhead_table,
)
from .protocols import (
    generate_fcn_full,
    generate_fcn_single,
    generate_lch,
    generate_schedule,
    generate_star,
    sbep_formula,
)
from .schedule import (
    SbepStep,
    Schedule,
    ValidationReport,
    validate_schedule,
)
from .simengine import SimConfig, SimReport, run, utilization_profile
from .topology import (
    ComplexityClass,
    CostMetric,
    CostProfile,
    NetworkTopology,
    TopologyKind,
    build_topology,
    complexity_class,
    cost_profile,
)

__version__ = "0.1.0"
