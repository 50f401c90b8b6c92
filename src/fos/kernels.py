"""Gaussian kernels for the deformation RKHS and the current metric.

Isotropic matrix kernels are stored as their scalar factor; the implicit
3x3-identity structure is applied in matrix-vector products.

`GaussianKernel` forms every Gaussian block of the package. `gram`,
`gram_pair` and `gram_triple`, the first n = 1, 2, 3 radial factors, fill
a `factor_workspace(shape, n)` when given one and allocate their own
otherwise. Every kernel loop forms its blocks, and the block-sized
temporaries it can, in one workspace: `lddmm.shoot` one per path,
`lddmm.shoot_gradient` one per call, `lddmm.flow_points` one of a row
tile per flow. Once a block is past glibc's mmap threshold (128 KiB in a
fresh process, raised to the largest mapped block freed since), freeing
it can hand its pages back to the OS, and the next call faults them in
again. In a fresh process (2-core Xeon VM, one BLAS thread), generating
20 subjects at K=271 took 220k minor page faults and 0.91-0.92 s while
`shoot` allocated its blocks at every step, and 14k and 0.64-0.66 s with
its workspace. Ten K=271 `shoot_gradient` calls took 165k faults and
0.48-0.67 s while `_rhs_vjp` allocated eight K x K blocks per call, and
1.1k and 0.22-0.23 s with its workspace (three runs each).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def exponent(points_a, points_b, sigma, out=None):
    """-|a_i - b_j|^2 / (2 sigma^2), written into out when given; b
    defaults to a. One matmul of two fresh buffers, the (|a|, 5) rows
    [a_i, -|a_i|^2 / (2 sigma^2), 1] and the (5, |b|) columns [b_j / sigma^2,
    1, -|b_j|^2 / (2 sigma^2)], gives all three terms (the row term is the
    column term when b is a); one pass clamps the result at 0."""
    s = 1.0 / sigma ** 2
    a = np.asarray(points_a, float)
    b = a if points_b is None else np.asarray(points_b, float)
    rows, cols = np.empty((len(a), 5)), np.empty((5, len(b)))
    rows[:, :3], rows[:, 4], cols[3] = a, 1.0, 1.0
    np.multiply(-0.5 * s, np.sum(a * a, axis=1), out=rows[:, 3])
    if points_b is None:
        cols[4] = rows[:, 3]
    else:
        np.multiply(-0.5 * s, np.sum(b * b, axis=1), out=cols[4])
    np.multiply(b.T, s, out=cols[:3])
    x = np.matmul(rows, cols, out=out)
    return np.minimum(x, 0.0, out=x)


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
        widths = [s for s in (self.sigma, self.sigma2) if s is not None]
        # `_factors`' (n x Gaussians) coefficients, built once
        object.__setattr__(self, "_coefficients", {n: np.array(
            [[1.0, -1.0 / s ** 2, 0.5 / s ** 4][:n] for s in widths]).T
            for n in (1, 2, 3)})

    def _gaussians(self, points_a, points_b, first, second):
        """Each Gaussian with its weight, written into first and second,
        from the one exponent x of the first: the second's is
        x sigma^2 / sigma2^2. Passes over the |a| x |b| block, which cost
        more than the matmul: the clamp; for the second Gaussian a scaling,
        and another unless its weight is 1; one exp each."""
        x = exponent(points_a, points_b, self.sigma, out=first)
        if self.sigma2 is not None:
            np.multiply(x, (self.sigma / self.sigma2) ** 2, out=second)
            np.exp(second, out=second)
            if self.weight != 1.0:
                second *= self.weight
        np.exp(x, out=x)

    def factor_workspace(self, shape, n=2):
        """Blocks for n factors of |a| x |b| = shape: the stacked Gaussians
        and the stacked factors, which `_factors` returns as views. The
        kernel value alone (n = 1) is formed in the first Gaussian's block."""
        e = np.empty((self._coefficients[n].shape[1],) + shape)
        return e, e[:1] if n == 1 else np.empty((n,) + shape)

    def _factors(self, points_a, points_b, n, work=None):
        """The first n radial factors: the kernel value K; gamma, with
        grad_1 K(x, y) = gamma (x - y); gamma' = d gamma / d d2, with the
        kernel Hessian grad1 grad1 K = 2 gamma' (x-y)(x-y)^T + gamma I. A
        Gaussian e of width s adds e, -e / s^2 and e / (2 s^4), so the
        factors are one matmul of those coefficients with the stacked
        Gaussians: after `_gaussians`' passes, one pass that reads each
        Gaussian once and writes each factor once; K alone is the first
        Gaussian, formed in its block, plus the second. Written into work
        when it is given, as `factor_workspace` makes it."""
        coef = self._coefficients[n]
        shape = len(points_a), len(points_a if points_b is None else points_b)
        shapes = (coef.shape[1],) + shape, (n,) + shape
        if work is None:
            work = self.factor_workspace(shape, n)
        elif (work[0].shape, work[1].shape) != shapes \
                or work[0].dtype != np.float64 or work[1].dtype != np.float64 \
                or not work[1].flags.c_contiguous:
            raise ValueError(f"the workspace must be float64 blocks of "
                             f"shapes {shapes}, the second contiguous")
        e, f = work
        self._gaussians(points_a, points_b, f[0] if n == 1 else e[0], e[-1])
        if n > 1:
            np.matmul(coef, e.reshape(len(e), -1), out=f.reshape(n, -1))
        elif self.sigma2 is not None:
            f[0] += e[-1]
        return tuple(f)

    def gram(self, points_a, points_b=None, work=None):
        """Dense |a| x |b| matrix of kernel values (see `_factors`),
        written into work when a `factor_workspace` for n = 1 is given."""
        return self._factors(points_a, points_b, 1, work)[0]

    def gram_pair(self, points_a, points_b=None, work=None):
        """(gram, gamma) from one exponent (see `_factors`), written into
        work when a `factor_workspace` is given."""
        return self._factors(points_a, points_b, 2, work)

    def gram_triple(self, points_a, points_b=None, work=None):
        """(gram, gamma, gamma') from one exponent (see `_factors`), written
        into work when a `factor_workspace` for n = 3 is given."""
        return self._factors(points_a, points_b, 3, work)


def default_deformation_kernel(mesh, large=0.4, small=0.1):
    """Two-kernel sum sized relative to the template bounding-box diagonal."""
    diag = mesh.bbox_diagonal
    return GaussianKernel(sigma=large * diag, sigma2=small * diag, weight=1.0)
