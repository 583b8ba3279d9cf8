"""Structured stochastic variational inference with convex-update surrogates."""

__version__ = "0.1.0"

from .distributions import BERNOULLI, HALF_NORMAL, LOG_NORMAL, NORMAL, Categorical
from .inference import TrainConfig, elbo_estimate, elbo_gradient, fit
from .model import build_joint, condition, joint_log_prob, rv, sample_forward
from .surrogates import SURROGATES, build_surrogate, convex_update

__all__ = [
    "BERNOULLI",
    "HALF_NORMAL",
    "LOG_NORMAL",
    "NORMAL",
    "Categorical",
    "SURROGATES",
    "TrainConfig",
    "build_joint",
    "build_surrogate",
    "condition",
    "convex_update",
    "elbo_estimate",
    "elbo_gradient",
    "fit",
    "joint_log_prob",
    "rv",
    "sample_forward",
]
