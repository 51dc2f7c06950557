"""curvecast: learning-curve prediction with convergence-aware stopping."""

from .anchoring import AnchorPolicy
from .controller import (
    RunConfig,
    RunState,
    ingest,
    new_run,
    predict,
    run_batch,
    run_stream,
)
from .errors import InsufficientDataError, NotStoppedError, SequencingError
from .fitting import fit_power_law
from .levels import LevelParams, prediction_level, verticality_limit, working_level
from .metrics import (
    ControlSequence,
    MetricsReport,
    dmr,
    evaluate_runs,
    mape,
    percentage_error,
    reliability_estimation,
    rer,
    rr,
)
from .model import (
    LearningTrend,
    Observation,
    ObservationSeries,
    PowerLawParams,
    eval_pattern,
)
from .synth import NoiseSpec, SynthSpec, TheoremSuiteConfig, generate_series, theorem_suite
from .trace import (
    LearningTrace,
    convergence_layer,
    convergence_layer_bounded,
    epsilon_bound,
    extend_trace,
    trend_intersection,
)

__version__ = "0.1.0"

__all__ = [
    "AnchorPolicy",
    "ControlSequence",
    "InsufficientDataError",
    "LearningTrace",
    "LearningTrend",
    "LevelParams",
    "MetricsReport",
    "NoiseSpec",
    "NotStoppedError",
    "Observation",
    "ObservationSeries",
    "PowerLawParams",
    "RunConfig",
    "RunState",
    "SequencingError",
    "SynthSpec",
    "TheoremSuiteConfig",
    "convergence_layer",
    "convergence_layer_bounded",
    "dmr",
    "epsilon_bound",
    "eval_pattern",
    "evaluate_runs",
    "extend_trace",
    "fit_power_law",
    "generate_series",
    "ingest",
    "mape",
    "new_run",
    "percentage_error",
    "prediction_level",
    "predict",
    "reliability_estimation",
    "rer",
    "rr",
    "run_batch",
    "run_stream",
    "theorem_suite",
    "trend_intersection",
    "verticality_limit",
    "working_level",
]
