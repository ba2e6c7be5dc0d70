"""Rotation-noise regularization and dropout-family numerics laboratory.

The package builds random pair-rotation operators (an alternative to
dropout whose noise for one neuron comes from the other neurons), the
dropout variants they are compared against, and the analysis machinery to
verify their covariance, co-adaptation, regression and batch-normalization
behavior by closed forms and Monte Carlo.
"""

__version__ = "0.1.0"

from .rotation import (
    AngleDistribution,
    BatchRotation,
    Pairing,
    RotationRealization,
    apply_featuremap,
    apply_rotation,
    apply_rotation_transpose,
    fixed_angle,
    fixed_direction_sequence,
    gaussian_tangent,
    keep_rate_for,
    rotation_matrix,
    sample_batch_rotation,
    sample_pairing,
    second_moment_of_tangent,
    uniform_angle,
    uniform_angle_for_keep_rate,
)
from .noise_ops import (
    BernoulliDropout,
    Centered,
    GaussianDropout,
    NoiseOp,
    NoiseOpSpec,
    RotationOut,
    Uout,
    make_noise_op,
)
from .sources import (
    GaussianSource,
    ReluGaussianSource,
    equicorrelated,
    random_correlation,
)
from .coadapt import (
    CoadaptReport,
    CovStats,
    coadaptation,
    conditional_noise_covariance,
    predicted_factor,
    reduction_factor,
    total_variance,
    verify_reduction,
)
from .linreg import (
    RegressionProblem,
    SingularSystemError,
    classification_flip_rate,
    condition_numbers,
    dropout_rotation_angle,
    dropout_system_matrix,
    margin_flip_curve,
    marginalized_gradient,
    rotation_system_matrix,
    solve_dropout_lr,
    solve_rotation_lr,
)
from .batchnorm import (
    BatchNormState,
    NonlinearityCurve,
    PolyFit,
    ShiftReport,
    bn_test_forward,
    bn_train_forward,
    cross_normalization_curve,
    cross_normalize,
    default_poly_grid,
    evaluate_odd_poly,
    fit_poly_correction,
    mc_nonlinearity_curve,
    noise_budget,
    sample_sphere_rows,
    standardized_sampler,
    train_statistic_samples,
    variance_shift,
)
from .network import (
    LayerSpec,
    Network,
    TrainConfig,
    build_network,
    gaussian_mixture_data,
    softmax_cross_entropy,
    train,
    train_and_report,
)
