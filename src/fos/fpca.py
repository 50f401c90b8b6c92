"""Principal component analysis for surface-valued populations.

Geometric side: PCA of initial momenta in the reproducing-kernel inner
product, computed with the snapshot (Gram-matrix) method so only an n x n
eigenproblem is solved.

Functional side: penalized PCA of scalar fields on a fixed surface, by
alternating minimization with a squared-Laplacian smoothing penalty in
mixed form (cotangent stiffness and consistent mass matrices). The penalty
weight can be chosen by k-fold cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .kernels import GaussianKernel
from .mesh import (ScalarField, TriangleMesh, consistent_mass,
                   cotangent_stiffness)


# -- geometric fPCA ------------------------------------------------------------

@dataclass
class GeometricFpca:
    mean_momenta: np.ndarray        # (K, 3)
    components: np.ndarray          # (m, K, 3), unit V-norm, V-orthogonal
    variances: np.ndarray           # (m,)
    scores: np.ndarray              # (n, m)
    control_points: np.ndarray
    kernel: GaussianKernel


def _fix_signs(components, scores):
    """Flip each component so its score vector's largest-magnitude entry is
    positive (ties to the lowest index, which argmax already gives)."""
    for j in range(scores.shape[1]):
        i = int(np.argmax(np.abs(scores[:, j])))
        if scores[i, j] < 0:
            scores[:, j] *= -1.0
            components[j] *= -1.0
    return components, scores


def geometric_fpca(momenta_list, control_points, kernel: GaussianKernel,
                   n_components: int | None = None) -> GeometricFpca:
    """Snapshot PCA of initial momenta under <a, b>_V = sum a_k.b_l K_kl.

    All momenta must share the same control points (the template vertices).
    """
    al = np.asarray(momenta_list, float)        # (n, K, 3)
    if al.ndim != 3 or al.shape[2] != 3:
        raise ValueError("momenta_list must be (n, K, 3)")
    n = len(al)
    if n < 2:
        raise ValueError("need at least two subjects")
    pts = np.asarray(control_points, float)
    gram = kernel.gram(pts)
    mean = al.mean(axis=0)
    cen = al - mean

    # n x n matrix of V inner products of the centered momenta
    s = np.empty((n, n))
    smoothed = np.einsum("kl,nld->nkd", gram, cen)
    for i in range(n):
        s[i] = np.sum(smoothed[i] * cen, axis=(1, 2))
    s = 0.5 * (s + s.T) / n

    evals, evecs = np.linalg.eigh(s)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    keep = evals > max(1e-12 * evals[0], 0.0)
    if n_components is not None:
        keep[n_components:] = False
    evals, evecs = evals[keep], evecs[:, keep]

    comps = np.einsum("ij,ikd->jkd", evecs, cen) / np.sqrt(n * evals)[:, None, None]
    scores = np.sqrt(n * evals)[None, :] * evecs
    comps, scores = _fix_signs(comps, scores)
    return GeometricFpca(mean, comps, evals, scores, pts, kernel)


# -- functional fPCA -----------------------------------------------------------

@dataclass
class FunctionalFpca:
    mean: np.ndarray                # (K,)
    components: np.ndarray          # (m, K), unit mass-norm
    variances: np.ndarray           # (m,) score variances
    scores: np.ndarray              # (n, m)
    lam: float


def _solve_component(xc, scores, lam, stiffness, mass):
    """One u-step of the alternation: minimize sum_i |x_i - a_i u|^2_M plus
    lam |laplace u|^2_M via the mixed system

        [sum a^2 M   lam A] [u]   [M sum a_i x_i]
        [lam A      -lam M] [h] = [      0      ]
    """
    a2 = float(np.sum(scores ** 2))
    if lam == 0.0:
        # the mass matrices cancel: M u = M (sum a_i x_i) / a2
        return (scores @ xc) / a2
    rhs_top = mass @ (scores @ xc)
    n = xc.shape[1]
    top = sparse.bmat([[a2 * mass, lam * stiffness],
                       [lam * stiffness, -lam * mass]], format="csc")
    sol = spsolve(top, np.concatenate([rhs_top, np.zeros(n)]))
    return sol[:n]


def functional_fpca(fields, mesh: TriangleMesh, lam: float = 0.0,
                    n_components: int = 3, max_alternations: int = 100,
                    tol: float = 1e-10) -> FunctionalFpca:
    """Penalized PCA of per-vertex scalar fields by deflation.

    With lam = 0 each component is the leading singular direction of the
    (deflated) centered data matrix.
    """
    x = np.stack([f.values if isinstance(f, ScalarField) else
                  np.asarray(f, float) for f in fields])
    if x.shape[1] != mesh.n_vertices:
        raise ValueError("field length must equal the vertex count")
    if lam < 0:
        raise ValueError("lam must be non-negative")
    n = len(x)
    n_components = min(n_components, n - 1, mesh.n_vertices)
    stiffness = cotangent_stiffness(mesh)
    mass = consistent_mass(mesh)

    mean = x.mean(axis=0)
    resid = x - mean
    comps = np.empty((n_components, mesh.n_vertices))
    scores = np.empty((n, n_components))
    for j in range(n_components):
        # deterministic start: leading right singular vector of the residual
        u = np.linalg.svd(resid, full_matrices=False)[2][0]
        u = u / np.sqrt(float(u @ (mass @ u)))
        for _ in range(max_alternations):
            mu = mass @ u
            a = resid @ mu / float(u @ mu)          # mass least squares
            u_new = _solve_component(resid, a, lam, stiffness, mass)
            # keep the direction unit mass-norm so the penalty scale is
            # fixed; otherwise the alternation shrinks u, inflates the
            # scores and the smoothing washes out
            u_new = u_new / np.sqrt(float(u_new @ (mass @ u_new)))
            drift = np.linalg.norm(u_new - np.sign(u_new @ u) * u)
            u = u_new
            if drift <= tol:
                break
        u = u / np.sqrt(float(u @ (mass @ u)))      # unit mass-norm
        a = resid @ (mass @ u)                      # mass-orthogonal scores
        comps[j] = u
        scores[:, j] = a
        resid = resid - np.outer(a, u)
    comps, scores = _fix_signs(comps, scores)
    variances = scores.var(axis=0, ddof=1)
    return FunctionalFpca(mean, comps, variances, scores, lam)


def reconstruction_error(fpca: FunctionalFpca, fields, mesh: TriangleMesh):
    """Mean squared mass-norm residual after projecting held-out fields on
    the fitted components."""
    x = np.stack([f.values if isinstance(f, ScalarField) else
                  np.asarray(f, float) for f in fields])
    mass = consistent_mass(mesh)
    cen = x - fpca.mean
    basis = fpca.components                          # (m, K)
    g = basis @ (mass @ basis.T)                     # component Gram in M
    coef = np.linalg.solve(g, basis @ (mass @ cen.T)).T
    resid = cen - coef @ basis
    errs = np.sum(resid * (mass @ resid.T).T, axis=1)
    return float(errs.mean())


def cross_validate_lambda(fields, mesh: TriangleMesh, lambdas,
                          n_components: int = 3, n_folds: int = 5,
                          seed: int = 0):
    """k-fold cross-validation of the smoothing weight; returns
    (best lambda, mean held-out errors). Ties go to the smaller lambda."""
    x = [f.values if isinstance(f, ScalarField) else np.asarray(f, float)
         for f in fields]
    n = len(x)
    if n < n_folds:
        raise ValueError("need at least n_folds subjects")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    folds = np.array_split(perm, n_folds)
    lambdas = sorted(float(v) for v in lambdas)
    errors = np.zeros(len(lambdas))
    for fold in folds:
        test = set(int(i) for i in fold)
        train = [x[i] for i in range(n) if i not in test]
        held = [x[i] for i in range(n) if i in test]
        for li, lam in enumerate(lambdas):
            fit = functional_fpca(train, mesh, lam, n_components)
            errors[li] += reconstruction_error(fit, held, mesh)
    errors /= n_folds
    best = lambdas[int(np.argmin(errors))]
    return best, dict(zip(lambdas, errors))
