"""Exact simulation and perfect sampling of spatial birth-death point processes.

The package is organized in dependency order:

- geometry: windows (boxes and tori), configurations, distances, snapshots.
- models: Gibbs birth-rate models with envelopes, increment kernels, energies,
  rate sandwiches, detailed balance and contraction diagnostics.
- noise: the slab-structured driving randomness; regenerable, seedable,
  bit-identical across runs.
- engine: the event-driven thinning loop, shared by forward runs, the
  common-noise coupled run and the CFTP bracket.
- cftp: sandwich coupling from the past (exact stationary draws), extremal
  forward runs, coupling decay measurements.
- analysis: the finite-state oracle, closed-form occupancy law, and the
  statistical validation toolkit.
- cli: JSON-configured command line front end.
"""

__version__ = "0.1.0"

from .geometry import (
    Configuration,
    SimulationConfigError,
    SpaceSpec,
    TimedConfiguration,
    TimedPoint,
    configuration_contains,
    snapshot_to_json,
    symmetric_difference,
)
from .models import (
    AreaInteractionRate,
    BalanceCheck,
    CellOccupancyRate,
    ConstantDeath,
    ConstantRate,
    ContractionEstimate,
    GrainOverlap,
    NearestNeighborRate,
    PairwiseRate,
    RateModel,
    UnsupportedModelError,
    contraction_constant,
    detailed_balance_residual,
    envelope_total,
    model_from_config,
    sandwich_rates,
)
from .noise import (
    NoiseStream,
    initial_clocks,
    keyed_generator,
    mix64,
    poisson_configuration,
    replicate_seed,
)
from .engine import Event, Trajectory, coupled_simulate, simulate, snapshot
from .cftp import (
    CouplingDecay,
    PerfectSample,
    SandwichState,
    coupling_decay_curve,
    extremal_lookback_counts,
    funnel_violations,
    perfect_sample,
    sandwich_run,
)
from .analysis import (
    Chi2Result,
    DistributionTable,
    KSResult,
    MeckeResult,
    OracleModel,
    OracleSolveError,
    RipleyResult,
    StationarityResidual,
    block_average_diagnostic,
    chi_square_gof,
    discrete_generator_residual,
    empirical_count_table,
    gibbs_table,
    lifetime_ks_test,
    mecke_test,
    observed_lifetimes,
    oracle_stationary,
    ripley_k,
    stationarity_residual,
    tv_distance,
    two_sample_count_test,
)
