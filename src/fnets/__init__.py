"""Factor-adjusted sparse VAR estimation, network inference and forecasting
for high-dimensional time series, with data-driven tuning throughout."""

from .errors import (
    DataError,
    DimensionError,
    FnetsError,
    FormatError,
    NumericalError,
    SolverError,
    UsageError,
)
from .factor_number import (
    FactorNumberSelection,
    select_factor_number_er,
    select_factor_number_ic,
)
from .forecast import ForecastResult, common_predictor, forecast_common_restricted, forecast_idio
from .model import FittedModel, fit, predict, predict_model, to_document, from_document
from .networks import NetworkGraph, export, extract_granger, extract_undirected
from .panel import AcvSequence, TimeSeriesPanel, load_panel, sample_acv
from .precision import (
    PrecisionFit,
    aclime,
    clime,
    partial_correlations,
    precision_fit,
    symmetrise_min_modulus,
)
from .simulate import EvalMetrics, SimSpec, metrics, sim_restricted, sim_unrestricted, sim_var
from .spectral import (
    FactorAdjustment,
    bartlett_spectral_density,
    default_bandwidth,
    factor_adjust_restricted,
    factor_adjust_unrestricted,
)
from .threshold_select import ThresholdSelection, candidate_grid, select_threshold
from .tuning import TuningResult, cv_delta, cv_var, ebic_var, make_folds, segment_moments
from .var import (
    VarFit,
    YuleWalkerSystem,
    build_yule_walker,
    dantzig_lp,
    innovation_covariance,
    lasso_fista,
    threshold_matrix,
)

__version__ = "0.1.0"
