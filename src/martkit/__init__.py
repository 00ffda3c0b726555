"""martkit: exact and Monte Carlo tools for finite-space stochastic processes.

Processes live on finite measure spaces (weighted atoms); sigma-algebras are
partitions of the atoms.  Exact mode computes with Fractions and proves
identities bitwise; float mode scales the same checks to Monte Carlo size.
"""

from .borel_cantelli import (
    BorelCantelliReport,
    EventSequence,
    borel_cantelli_martingale,
    check_borel_cantelli,
    event_sequence_from_counts,
    predictable_sum,
)
from .condexp import (
    CharacterizationReport,
    CondexpPropertiesReport,
    check_set_integral_characterization,
    condexp,
    condexp_agreement_witness,
    condexp_l2,
    condexp_properties,
)
from .convergence import (
    ConvergenceDiagnostic,
    FatouReport,
    L1ConvergenceAReport,
    L1ConvergenceBReport,
    LevyUpwardReport,
    LimitEstimate,
    MaximalInequalityReport,
    ae_convergence_diagnostic,
    check_l1_convergence_a,
    check_l1_convergence_b,
    check_levy_upward,
    check_maximal_inequality,
    fatou_norm_check,
    geometric_checkpoints,
    limit_process_estimate,
)
from .crossings import (
    Band,
    BandTranslationReport,
    CrossingTable,
    UpcrossingEstimateReport,
    UpcrossingSupReport,
    band_translation_identity,
    check_upcrossing_estimate,
    check_upcrossing_estimate_sup,
    crossing_table,
    lower_crossing,
    upcrossings,
    upcrossings_before,
    upper_crossing,
)
from .measure import (
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    ae_equal,
    ae_le,
    ae_witness,
    generated_partition,
    indicator,
    integral,
    is_measurable_wrt,
    join,
    measure,
    meet,
    partition_le,
    set_integral,
    set_measurable_wrt,
    snorm,
)
from .montecarlo import (
    BettingProcess,
    BiasedWalk,
    CustomSpec,
    FairWalk,
    IndependentEvents,
    PolyaUrn,
    RunConfig,
    TrajectoryBatch,
    TrajectoryStats,
    count_upcrossings_batch,
    exhaustive_space,
    simulate,
    simulate_stats,
    trial_rng,
)
from .processes import (
    Classification,
    DoobDecomposition,
    Filtration,
    MartingaleClass,
    Process,
    classify,
    doob_decomposition,
    doob_witnesses,
    filtration_sup,
    is_adapted,
    is_predictable,
    natural_filtration,
    stochastic_integral,
)
from .scalars import DEFAULT_FLOAT_TOL, INF, Mode, ModeError, RootValue, Scalar
from .stopping import (
    OptionalStoppingReport,
    StoppingTime,
    ValuePredicate,
    check_hitting_is_stopping_time,
    check_optional_stopping,
    hitting,
    hitting_unbounded,
    is_stopping_time,
    stopped_process,
    stopping_max,
    stopping_min,
)
from .uniform_integrability import (
    BridgingReport,
    FunctionFamily,
    PMonotonicityReport,
    VitaliReport,
    analyst_modulus,
    check_bridging_inequality,
    check_p_monotonicity,
    fixed_mass_spike_family,
    probabilist_curve,
    probabilist_modulus,
    shrinking_spike_family,
    vitali_empirical,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # scalars
    "INF", "Mode", "ModeError", "RootValue", "Scalar", "DEFAULT_FLOAT_TOL",
    # measure
    "FiniteMeasureSpace", "Partition", "RandomVariable", "ae_equal", "ae_le",
    "ae_witness", "generated_partition", "indicator", "integral",
    "is_measurable_wrt", "join", "measure", "meet", "partition_le",
    "set_integral", "set_measurable_wrt", "snorm",
    # condexp
    "CharacterizationReport", "CondexpPropertiesReport",
    "check_set_integral_characterization", "condexp",
    "condexp_agreement_witness", "condexp_l2", "condexp_properties",
    # processes
    "Classification", "DoobDecomposition", "Filtration", "MartingaleClass",
    "Process", "classify", "doob_decomposition", "doob_witnesses", "filtration_sup",
    "is_adapted", "is_predictable", "natural_filtration", "stochastic_integral",
    # stopping
    "OptionalStoppingReport", "StoppingTime", "ValuePredicate",
    "check_hitting_is_stopping_time", "check_optional_stopping", "hitting",
    "hitting_unbounded", "is_stopping_time", "stopped_process",
    "stopping_max", "stopping_min",
    # crossings
    "Band", "BandTranslationReport", "CrossingTable",
    "UpcrossingEstimateReport", "UpcrossingSupReport",
    "band_translation_identity", "check_upcrossing_estimate",
    "check_upcrossing_estimate_sup", "crossing_table", "lower_crossing",
    "upcrossings", "upcrossings_before", "upper_crossing",
    # uniform integrability
    "BridgingReport", "FunctionFamily", "PMonotonicityReport",
    "VitaliReport", "analyst_modulus",
    "check_bridging_inequality", "check_p_monotonicity",
    "fixed_mass_spike_family", "probabilist_curve", "probabilist_modulus",
    "shrinking_spike_family", "vitali_empirical",
    # convergence
    "ConvergenceDiagnostic", "FatouReport", "L1ConvergenceAReport",
    "L1ConvergenceBReport", "LevyUpwardReport", "LimitEstimate",
    "MaximalInequalityReport", "ae_convergence_diagnostic",
    "check_l1_convergence_a", "check_l1_convergence_b", "check_levy_upward",
    "check_maximal_inequality", "fatou_norm_check", "geometric_checkpoints",
    "limit_process_estimate",
    # borel-cantelli
    "BorelCantelliReport", "EventSequence", "borel_cantelli_martingale",
    "check_borel_cantelli", "event_sequence_from_counts", "predictable_sum",
    # monte carlo
    "BettingProcess", "BiasedWalk", "CustomSpec", "FairWalk",
    "IndependentEvents", "PolyaUrn", "RunConfig", "TrajectoryBatch",
    "TrajectoryStats", "count_upcrossings_batch", "exhaustive_space",
    "simulate", "simulate_stats", "trial_rng",
]
