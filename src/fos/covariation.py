"""Canonical correlation analysis between geometric and functional score
matrices, the Bartlett sequential significance test, and co-variation
sequences for visualizing how one modality changes along a canonical
direction of the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc


@dataclass
class CcaResult:
    correlations: np.ndarray        # (m,) canonical correlations, descending
    x_weights: np.ndarray           # (p, m) canonical directions for X
    y_weights: np.ndarray           # (q, m)
    x_variates: np.ndarray          # (n, m) centered canonical variates
    y_variates: np.ndarray          # (n, m)
    n: int


def _inv_sqrt(c):
    """Symmetric inverse square root with an eigenvalue floor for
    near-singular covariances."""
    evals, evecs = np.linalg.eigh(c)
    floor = 1e-12 * max(float(np.trace(c)), 1e-300)
    evals = np.maximum(evals, floor)
    return (evecs / np.sqrt(evals)) @ evecs.T


def cca(x_scores, y_scores) -> CcaResult:
    """CCA via the singular values of the whitened cross-covariance.

    Canonical correlations are invariant under invertible linear maps of
    either block. Variate signs are fixed so the largest-magnitude entry
    of each x-variate is positive. With p + q >= n - 1 columns the
    centered blocks can be fitted exactly and every correlation reads 1,
    so such inputs are refused.
    """
    x = np.asarray(x_scores, float)
    y = np.asarray(y_scores, float)
    if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
        raise ValueError("score matrices must be 2-d with equal row counts")
    n = len(x)
    if n < 3:
        raise ValueError("need at least three subjects")
    k = x.shape[1] + y.shape[1]
    if k >= n - 1:
        raise ValueError(f"p + q = {k} needs n > {k + 1} subjects, got {n}")
    xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
    cxx = xc.T @ xc / (n - 1)
    cyy = yc.T @ yc / (n - 1)
    cxy = xc.T @ yc / (n - 1)
    wx = _inv_sqrt(cxx)
    wy = _inv_sqrt(cyy)
    u, s, vt = np.linalg.svd(wx @ cxy @ wy)
    m = min(x.shape[1], y.shape[1])
    corr = np.clip(s[:m], 0.0, 1.0)
    a = wx @ u[:, :m]
    b = wy @ vt.T[:, :m]
    xv = xc @ a
    yv = yc @ b
    top = xv[np.argmax(np.abs(xv), axis=0), np.arange(m)]
    flip = np.where(top < 0, -1.0, 1.0)
    return CcaResult(corr, a * flip, b * flip, xv * flip, yv * flip, n)


@dataclass
class BartlettTest:
    statistics: np.ndarray          # (m,)
    dof: np.ndarray                 # (m,)
    p_values: np.ndarray            # (m,)


def bartlett_test(result: CcaResult) -> BartlettTest:
    """Sequential test of H0: the canonical correlations beyond index l are
    all zero, for l = 0..m-1.

    Statistic: -(n - 1 - (p + q + 1)/2) * sum_{j > l} ln(1 - rho_j^2),
    compared against chi-square with (p - l)(q - l) degrees of freedom.
    The p-values are the chi-square survival function
    `scipy.special.chdtrc(dof, statistic)`.
    """
    rho = result.correlations
    m = len(rho)
    p, q = result.x_weights.shape[0], result.y_weights.shape[0]
    factor = result.n - 1 - (p + q + 1) / 2.0
    if factor <= 0:
        raise ValueError(f"Bartlett factor n - 1 - (p + q + 1)/2 = {factor} "
                         "is not positive")
    log_terms = np.log(np.maximum(1.0 - rho ** 2, 1e-300))
    stats = np.empty(m)
    dof = np.empty(m, dtype=int)
    for el in range(m):
        stats[el] = -factor * log_terms[el:].sum()
        dof[el] = (p - el) * (q - el)
    return BartlettTest(stats, dof, chdtrc(dof, stats))


def regression_coefficients(predictor, responses):
    """OLS slopes of each response column on a single centered predictor."""
    t = np.asarray(predictor, float)
    r = np.asarray(responses, float)
    tc = t - t.mean()
    denom = float(tc @ tc)
    if denom <= 0:
        raise ValueError("predictor has zero variance")
    return (r - r.mean(axis=0)).T @ tc / denom


def covariation_sequence(result: CcaResult, pair: int, t_values,
                         x_scores, y_scores):
    """Score trajectories along the pair-th canonical direction.

    For each t in units of the canonical-variate standard deviation,
    returns the scores obtained by moving both blocks along their OLS
    regression on that variate: a dict with 'x' and 'y' arrays of shape
    (len(t), p) and (len(t), q). x_scores and y_scores are the blocks the
    CCA was fitted to.
    """
    x = result.x_variates[:, pair]
    sd = float(x.std(ddof=1))
    xs = np.asarray(x_scores, float)
    ys = np.asarray(y_scores, float)
    bx = regression_coefficients(x, xs)
    by = regression_coefficients(x, ys)
    t = np.asarray(t_values, float)
    return {
        "t": t,
        "x": xs.mean(axis=0)[None, :] + np.outer(t * sd, bx),
        "y": ys.mean(axis=0)[None, :] + np.outer(t * sd, by),
    }
