"""Loss-based learning of latent-variable predictors.

Learns a joint (label, latent) linear predictor together with a
log-linear latent conditional by minimizing a dissimilarity coefficient
between the delta distribution the predictor places on its argmax and
the conditional.  Ships a CCCP cutting-plane solver for the prediction
parameters, a Pegasos-style stochastic subgradient solver for the
distribution parameters, latent-SVM baselines, a synthetic localization
benchmark, and a command line harness.
"""

from .errors import ConfigError, DissimError, InputError, SolverError
from .model import (
    Dataset,
    FiniteDistribution,
    ModelParams,
    SampleRecord,
    latent_posterior,
    predict,
    score_table,
)
from .losses import (
    LOSS_KINDS,
    HyperParams,
    LabelOnlyZeroOneLoss,
    LossFunction,
    OverlapLoss,
    ZeroOneLoss,
    dissimilarity,
    diversity,
    expected_loss,
    expected_loss_table,
    iou_matrix,
    make_loss,
    regularized_objective,
    self_diversity,
    slack,
    upper_bound,
)
from .wsolver import (
    WSolverReport,
    cccp_w,
    latent_impute,
)
from .thetasolver import (
    SSDConfig,
    grad_expected_loss,
    grad_self_diversity,
    grad_slack,
    ssd_theta,
    theta_objective,
)
from .baselines import (
    ilsvm_latent_estimates,
    ilsvm_train,
    lsvm_train,
)
from .trainer import (
    DEFAULT_C_GRID,
    METHODS,
    CurvePoint,
    ProtocolResult,
    TrainConfig,
    evaluate,
    run_protocol,
    stratified_split,
    train,
)
from .synth import TaskSpec, generate
from .gradcheck import GradCheckResult, run_gradient_checks
from .dataio import (
    ModelRecord,
    ResultRow,
    load_dataset,
    load_model,
    load_results,
    save_dataset,
    save_model,
    save_results,
)

from types import ModuleType as _ModuleType

# the submodules stay out, so that a star import binds no module
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
