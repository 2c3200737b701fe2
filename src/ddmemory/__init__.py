"""Pulse-sequence design and analysis for long-time dynamical decoupling."""

from .errors import (
    AccuracyError,
    CalibrationError,
    ConsistencyError,
    DDMemoryError,
    DivergenceError,
    DomainError,
    ResourceLimitError,
    SuppressionFitError,
)
from .noise import (
    GAUSSIAN,
    HARD,
    NoiseSpectrum,
    PowerLaw,
    calibrate_strength,
    evaluate,
    load_preset,
    spectrum_from_json,
    spectrum_to_json,
)
from .sequences import (
    TimingPattern,
    carr_purcell,
    cdd,
    concat,
    echo,
    free_evolution,
    min_interval,
    repeat_pattern,
    truncate,
    udd,
    udd_from_min_interval,
    walsh,
    walsh_signs,
)
from .filters import (
    SuppressionOrder,
    combine,
    dirichlet_factor,
    filter_fn,
    omega_y_tilde,
    passband_max,
    suppression_order,
    y_tilde,
)
from .pulses import (
    PulseOrder,
    PulseShape,
    bang_bang,
    dcg3,
    primitive,
    pulse_order,
    pulse_quadratures,
    total_ff,
    total_quadratures,
)
from .integrals import (
    DEFAULT_CONFIG,
    ErrorBudget,
    QuadratureConfig,
    chi,
    chi_during,
    chi_plateau_limit,
    chi_repeated,
    integrate_rows,
    jitter_curve,
)
from .plateau import (
    ConditionCheck,
    MMaxDetail,
    PlateauReport,
    ResonanceCheck,
    check_conditions,
    chi_asymptotic,
    chi_infinity_leading_order,
    chi_with_jitter,
    jitter_tolerance,
    m_max_soft,
    m_max_soft_detail,
    markovian_limit,
    plateau_report,
)
from .walsh_search import (
    CandidateResult,
    DetectedStructure,
    SearchResult,
    best_sequence,
    detect_structure,
    enumerate_walsh,
    search_series,
)

__version__ = "0.1.0"
