"""Gaussian kernels for the deformation RKHS and the current metric.

Isotropic matrix kernels are stored as their scalar factor; the implicit
3x3-identity structure is applied in matrix-vector products.

`gram` can fill a caller-owned workspace: two (|a|, |b|) float64 blocks,
one for the squared distances and one for the kernel values it returns.
A plain call allocates the pair. `lddmm.flow_points` keeps one pair per
flow, because glibc unmaps a freed block of 1,037 x 271 (2.2 MB) and
faults it in again on the next call: a plain `gram` of that size takes
about 1,065 minor page faults and 5.1 ms, and 2.9 ms with no fault, in
the workspace (2-core Xeon VM, one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _sqdist(points_a, points_b=None, work=None):
    """Pairwise squared distances via the matmul expansion (BLAS-fast),
    built in place; b defaults to a and then shares a's row norms.
    Returns the workspace pair (d2, scratch), allocated when work is None."""
    a = np.asarray(points_a, float)
    aa = np.sum(a * a, axis=1)
    if points_b is None:
        b, bb = a, aa
    else:
        b = np.asarray(points_b, float)
        bb = np.sum(b * b, axis=1)
    shape = (len(a), len(b))
    if work is None:
        work = (np.empty(shape), np.empty(shape))
    elif any(w.shape != shape or w.dtype != np.float64 for w in work):
        raise ValueError(f"the workspace must be two {shape} float64 blocks")
    d2, e = work
    np.add(aa[:, None], bb[None, :], out=d2)
    np.matmul(a, b.T, out=e)
    e *= 2.0
    d2 -= e
    np.maximum(d2, 0.0, out=d2)
    return d2, e


@dataclass(frozen=True)
class GaussianKernel:
    """exp(-|x-y|^2 / (2 sigma^2)), optionally plus a weighted second kernel."""

    sigma: float
    sigma2: float | None = None
    weight: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.sigma2 is not None and self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")

    def _factors(self, d2, e, *orders):
        """Radial factors at squared distances d2, one per entry of orders:
        0 the kernel value K; 1 gamma, with grad_1 K(x, y) = gamma (x - y);
        2 gamma' = d gamma / d d2, with the kernel Hessian
        grad1 grad1 K = 2 gamma' (x-y)(x-y)^T + gamma I. A Gaussian of
        width s and weight w, with e = w exp(-d2 / (2 s^2)), adds e,
        -e / s^2 and e / (2 s^4).

        The first Gaussian is computed in place in the scratch block e,
        which order 0 returns; the second overwrites d2 and is added in
        place. The sign sits in the divisor, d2 / (-2 s^2) and e / -s^2;
        IEEE division makes that bit-equal to -d2 / (2 s^2) and -e / s^2,
        so the factors equal the plain formula bit for bit."""
        def gaussian(s, out):
            np.divide(d2, -2.0 * s ** 2, out=out)
            return np.exp(out, out=out)

        def divisor(s, k):
            return -s ** 2 if k == 1 else 2.0 * s ** 4

        e = gaussian(self.sigma, e)
        # order 0 is e itself, so the scaled factors are taken first
        out = [e if k == 0 else e / divisor(self.sigma, k) for k in orders]
        if self.sigma2 is not None:
            e = gaussian(self.sigma2, d2)
            e *= self.weight
            for f, k in zip(out, orders):
                f += e if k == 0 else e / divisor(self.sigma2, k)
        return out

    def gram(self, points_a, points_b=None, work=None):
        """Dense |a| x |b| matrix of kernel values, written into work[1]
        when a workspace pair is given (see the module docstring)."""
        return self._factors(*_sqdist(points_a, points_b, work), 0)[0]

    def gram_pair(self, points_a, points_b=None):
        """(gram, gamma) evaluated from a single distance computation."""
        return tuple(self._factors(*_sqdist(points_a, points_b), 0, 1))

    def gram_triple(self, points_a, points_b=None):
        """(gram, gamma, gamma') from one distance computation."""
        return tuple(self._factors(*_sqdist(points_a, points_b), 0, 1, 2))


def default_deformation_kernel(mesh, large=0.4, small=0.1):
    """Two-kernel sum sized relative to the template bounding-box diagonal."""
    diag = mesh.bbox_diagonal
    return GaussianKernel(sigma=large * diag, sigma2=small * diag, weight=1.0)
