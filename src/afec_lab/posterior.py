"""Diagonal Gaussian posterior algebra.

Covers the Laplace-style anchors used by the quadratic penalties: empirical
diagonal Fisher estimation, the running average of Fisher terms across tasks,
and the closed-form weighted product of two diagonal Gaussians with a
forgetting factor.

The Fisher here is the *empirical* one: per-parameter mean squared gradient
of the negative log-likelihood evaluated at the ground-truth labels. This is
deterministic (no label sampling) and is what the first-order approximation
reduces to in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Batch, Network, _all_finite


@dataclass
class DiagGaussian:
    """Diagonal Gaussian over the flat parameter vector.

    `precision` entries are per-parameter inverse variances; a precision of 0
    marks an uninformative coordinate (no penalty contribution downstream).
    """

    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.precision = np.asarray(self.precision, dtype=np.float64)
        if self.mean.shape != self.precision.shape or self.mean.ndim != 1:
            raise ShapeError("mean and precision must be equal-length vectors")
        if not _all_finite(self.precision, least=0.0):
            raise ShapeError("precision entries must be finite and >= 0")


@dataclass
class WeightedProductResult:
    mixture: DiagGaussian
    log_norm: float
    beta: float


def _nll_delta(out: np.ndarray, batch: Batch, loss_kind: str) -> np.ndarray:
    """Per-sample output-space gradient of the negative log-likelihood at
    the network's outputs `out`.

    For regression the per-sample NLL is 0.5 * ||output - target||^2 (unit
    observation noise), so the delta is the raw residual; for classification
    it is the usual softmax cross-entropy delta.
    """
    if loss_kind in ("mse", "angular_mse"):
        return out - batch.targets
    if loss_kind == "cross_entropy":
        shifted = out - out.max(axis=1, keepdims=True)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(batch.n), batch.targets] -= 1.0
        return p
    raise ConfigError(f"unknown loss kind {loss_kind!r}")


def estimate_diag_fisher(net: Network, data, loss_kind: str) -> np.ndarray:
    """Empirical diagonal Fisher: mean over training samples of the squared
    per-sample NLL gradient."""
    if len(data.inputs_train) == 0:
        raise ShapeError("cannot estimate Fisher on an empty dataset")
    batch = data.batch("train")
    return net.per_sample_grad_moment(
        batch, lambda out: _nll_delta(out, batch, loss_kind), power=2)


def fisher_running_average(f_prev: np.ndarray, f_new: np.ndarray,
                           t: int) -> np.ndarray:
    """Equal-weight running mean of per-task Fishers: ((t-1)*F_prev + F_t)/t."""
    if t < 1:
        raise ConfigError("task counter t must be >= 1")
    f_prev = np.asarray(f_prev, dtype=np.float64)
    f_new = np.asarray(f_new, dtype=np.float64)
    if f_prev.shape != f_new.shape:
        raise ShapeError("Fisher vectors must have equal length")
    return ((t - 1) * f_prev + f_new) / t


def gaussian_weighted_product(g1: DiagGaussian, g2: DiagGaussian,
                              beta: float) -> WeightedProductResult:
    """Per-coordinate weighted product p1^(1-beta) * p2^beta, renormalized.

    Returns the product Gaussian plus the summed per-coordinate log
    normalizer. The endpoints beta=0 and beta=1 return exact copies of the
    inputs with log_norm 0.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0, 1]")
    if g1.mean.shape != g2.mean.shape:
        raise ShapeError("distributions must have equal dimension")
    if np.any(g1.precision <= 0) or np.any(g2.precision <= 0):
        raise ConfigError("weighted product requires strictly positive precisions")
    if beta == 0.0:
        return WeightedProductResult(
            DiagGaussian(g1.mean.copy(), g1.precision.copy()), 0.0, beta)
    if beta == 1.0:
        return WeightedProductResult(
            DiagGaussian(g2.mean.copy(), g2.precision.copy()), 0.0, beta)
    s1 = 1.0 / g1.precision
    s2 = 1.0 / g2.precision
    denom = beta * s1 + (1.0 - beta) * s2
    v2 = s1 * s2 / denom
    m = ((1.0 - beta) * s2 * g1.mean + beta * s1 * g2.mean) / denom
    k = ((1.0 - beta) * s2 * g1.mean ** 2 + beta * s1 * g2.mean ** 2) / denom
    log_z = 0.5 * (np.log(v2) - (1.0 - beta) * np.log(s1)
                   - beta * np.log(s2)) - (k - m * m) / (2.0 * v2)
    return WeightedProductResult(DiagGaussian(m, 1.0 / v2),
                                 float(log_z.sum()), beta)


def snapshot_anchor(net: Network, data, loss_kind: str) -> DiagGaussian:
    """Laplace-style anchor: copy of the current parameters plus the
    empirical diagonal Fisher on the given task data."""
    return DiagGaussian(net.get_params(),
                        estimate_diag_fisher(net, data, loss_kind))
