"""Principal component analysis for surface-valued populations.

Geometric side: PCA of initial momenta in the reproducing-kernel inner
product, computed with the snapshot (Gram-matrix) method so only an n x n
eigenproblem is solved.

Functional side: penalized PCA of scalar fields on a fixed surface with a
squared-Laplacian smoothing penalty in mixed form (cotangent stiffness A,
consistent mass M; SM-FPCA of Lila, Aston & Sangalli 2016), its weight
optionally chosen by k-fold cross-validation. One generalized
eigendecomposition A Phi = M Phi Lambda per mesh solves the mixed system in
closed form for every alternation, weight and fold. Phi is dense: K^2
doubles and O(K^3) time, 15 ms at K = 271 and 0.35 s at K = 1087 (2-core
x86) but about 1 GB at K = 4357, so templates should stay below a few
thousand vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .kernels import GaussianKernel
from .mesh import TriangleMesh, consistent_mass, cotangent_stiffness


# -- geometric fPCA ------------------------------------------------------------

@dataclass
class GeometricFpca:
    mean_momenta: np.ndarray        # (K, 3)
    components: np.ndarray          # (m, K, 3), unit V-norm, V-orthogonal
    variances: np.ndarray           # (m,)
    scores: np.ndarray              # (n, m)


def _fix_signs(components, scores):
    """Flip each component so its score vector's largest-magnitude entry is
    positive (ties to the lowest index, which argmax already gives)."""
    top = scores[np.argmax(np.abs(scores), axis=0), np.arange(scores.shape[1])]
    flip = np.where(top < 0, -1.0, 1.0)
    return components * flip.reshape(-1, *[1] * (components.ndim - 1)), \
        scores * flip


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
    return GeometricFpca(mean, comps, evals, scores)


# -- functional fPCA -----------------------------------------------------------

# one component's alternation stops when it moves by at most TOLERANCE
MAX_ALTERNATIONS = 100
TOLERANCE = 1e-10


@dataclass
class FunctionalFpca:
    mean: np.ndarray                # (K,)
    components: np.ndarray          # (m, K), unit mass-norm
    variances: np.ndarray           # (m,) score variances
    scores: np.ndarray              # (n, m)


def _stack(fields, mesh: TriangleMesh):
    x = np.stack([np.asarray(f, float) for f in fields])
    if x.shape[1] != mesh.n_vertices:
        raise ValueError("field length must equal the vertex count")
    return x


def _spectral_basis(mesh: TriangleMesh):
    """(M, Phi, M Phi, Lambda^2) with A Phi = M Phi Lambda and Phi^T M Phi = I,
    for the cotangent stiffness A and the consistent mass M."""
    mass = consistent_mass(mesh)
    evals, phi = eigh(cotangent_stiffness(mesh).toarray(), mass.toarray())
    return mass, phi, mass @ phi, evals ** 2


def _solve_component(coef, scores, lam, lam2):
    """One u-step of the alternation: the coefficients c of u = Phi c
    solving [[a^2 M, lam A], [lam A, -lam M]] [u; h] = [M sum a_i x_i; 0],
    given the rows coef_i = Phi^T M x_i."""
    return (scores @ coef) / (float(scores @ scores) + lam * lam2)


def _fit(x, basis, lam, n_components) -> FunctionalFpca:
    """Penalized PCA of the rows of x by deflation, alternating in basis
    coefficients, where the mass norm is the Euclidean norm."""
    _, phi, mass_phi, lam2 = basis
    n = len(x)
    n_components = min(n_components, n - 1, len(phi))
    mean = x.mean(axis=0)
    resid = x - mean
    comps = np.empty((n_components, len(phi)))
    scores = np.empty((n, n_components))
    for j in range(n_components):
        coef = resid @ mass_phi
        # deterministic start: leading right singular vector of the residual
        c = np.linalg.svd(resid, full_matrices=False)[2][0] @ mass_phi
        c = c / np.linalg.norm(c)
        u = phi @ c
        for _ in range(MAX_ALTERNATIONS):
            # scores by mass least squares, then the component
            c = _solve_component(coef, coef @ c, lam, lam2)
            # keep the direction unit mass-norm so the penalty scale is
            # fixed; otherwise the alternation shrinks u, inflates the
            # scores and the smoothing washes out
            c = c / np.linalg.norm(c)
            u, prev = phi @ c, u
            if np.linalg.norm(u - np.sign(u @ prev) * prev) <= TOLERANCE:
                break
        a = coef @ c                                # mass-orthogonal scores
        comps[j] = u
        scores[:, j] = a
        resid = resid - np.outer(a, u)
    comps, scores = _fix_signs(comps, scores)
    variances = scores.var(axis=0, ddof=1)
    return FunctionalFpca(mean, comps, variances, scores)


def functional_fpca(fields, mesh: TriangleMesh, lam: float = 0.0,
                    n_components: int = 3) -> FunctionalFpca:
    """Penalized PCA of per-vertex scalar fields by deflation.

    With lam = 0 each component is the leading singular direction of the
    (deflated) centered data matrix in the mass inner product.
    """
    x = _stack(fields, mesh)
    if lam < 0:
        raise ValueError("lam must be non-negative")
    return _fit(x, _spectral_basis(mesh), lam, n_components)


def _held_out_error(fit: FunctionalFpca, x, mass):
    """Mean squared mass-norm residual of the rows of x after projecting
    them on the fitted components."""
    cen = x - fit.mean
    basis = fit.components                           # (m, K)
    g = basis @ (mass @ basis.T)                     # component Gram in M
    coef = np.linalg.solve(g, basis @ (mass @ cen.T)).T
    resid = cen - coef @ basis
    errs = np.sum(resid * (mass @ resid.T).T, axis=1)
    return float(errs.mean())


def cross_validate_lambda(fields, mesh: TriangleMesh, lambdas,
                          n_components: int = 3, n_folds: int = 5,
                          seed: int = 0):
    """k-fold cross-validation of the smoothing weight; returns
    (best lambda, mean held-out errors). Ties go to the smaller lambda.
    The spectral basis is computed once and serves every fit."""
    x = _stack(fields, mesh)
    n = len(x)
    if n < n_folds:
        raise ValueError("need at least n_folds subjects")
    lambdas = sorted(float(v) for v in lambdas)
    if any(v < 0 for v in lambdas):
        raise ValueError("lambdas must be non-negative")
    rng = np.random.default_rng(seed)
    folds = np.array_split(rng.permutation(n), n_folds)
    basis = _spectral_basis(mesh)
    errors = np.zeros(len(lambdas))
    for fold in folds:
        held = np.isin(np.arange(n), fold)
        for li, lam in enumerate(lambdas):
            fit = _fit(x[~held], basis, lam, n_components)
            errors[li] += _held_out_error(fit, x[held], basis[0])
    errors /= n_folds
    best = lambdas[int(np.argmin(errors))]
    return best, dict(zip(lambdas, errors))
