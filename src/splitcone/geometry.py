"""Split-quaternion coordinates, the signature-(2,2) quadratic form, light
cone geometry, and the bipolar parametrization of the dual cone.

Conventions. A point X = (x1, x2, x3, x4), a length-4 array, carries the
form N(X) = x1^2 + x2^2 - x3^2 - x4^2, equal to the determinant of the 2x2
matrix realization [[x1-i*x2, x3+i*x4], [x3-i*x4, x1+i*x2]].  Dual vectors
pair through the same signature: <xi, xi'> = xi1*xi1' + xi2*xi2' -
xi3*xi3' - xi4*xi4', while xi . X = sum_j xi_j x_j is the Fourier pairing.
A point or a dual vector is a length-4 array, and many are one stacked
(..., 4) array; the functions here take either, row by row.

The dual cone C* = {<xi,xi> = 0} is charted by (r, theta1, theta2) ->
r(cos t1, sin t1, cos t2, sin t2).  Two radial densities arise and are kept
under separate names to avoid factor-of-2 drift:

  * ``cone_measure_weight``      w(r) = r,   the dS/|xi| surface density;
  * ``cone_half_measure_weight`` w(r) = r/2, the delta-functional density
    matching L^2(R_+, r/2 dr) x L^2(S^1) x L^2(S^1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConePoint",
    "norm",
    "pair",
    "cone_embed",
    "cone_measure_weight",
    "cone_half_measure_weight",
    "w0_act",
    "homogeneous_power",
    "matrix_realization",
    "BASIS_MATRICES",
    "quaternion_gradient_identity_residual",
]


@dataclass(frozen=True)
class ConePoint:
    """Bipolar chart point (r, theta1, theta2) of the punctured dual cone."""

    r: float
    theta1: float
    theta2: float

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("cone chart requires r > 0")


def norm(X):
    """N(X) = x1^2 + x2^2 - x3^2 - x4^2, that is pair(X, X)."""
    return pair(X, X)


def pair(xi, xi2):
    """Signature-(2,2) bilinear form on dual vectors; stacked (..., 4)
    arrays pair row by row, and a single pair gives a float."""
    a = np.asarray(xi, dtype=float)
    b = np.asarray(xi2, dtype=float)
    out = (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
           - a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])
    return float(out) if out.ndim == 0 else out


def cone_embed(p):
    """Embed a bipolar chart point: r(cos t1, sin t1, cos t2, sin t2).

    A ConePoint gives a length-4 array; stacked (..., 3) chart coordinates
    (r, t1, t2) give stacked (..., 4) coordinates, row by row the same
    values.
    """
    if isinstance(p, ConePoint):
        p = (p.r, p.theta1, p.theta2)
    p = np.asarray(p, dtype=float)
    r, t1, t2 = p[..., 0], p[..., 1], p[..., 2]
    if not np.all(r > 0):
        raise ValueError("cone chart requires r > 0")
    out = np.empty(p.shape[:-1] + (4,))
    out[..., 0], out[..., 1] = r * np.cos(t1), r * np.sin(t1)
    out[..., 2], out[..., 3] = r * np.cos(t2), r * np.sin(t2)
    return out


def cone_measure_weight(p) -> float:
    """Radial density of dS/|xi| in the bipolar chart: w(r) = r.

    dS = sqrt(2) r^2 dr dt1 dt2 on the embedded cone and |xi| = sqrt(2) r.
    """
    r = p.r if isinstance(p, ConePoint) else float(p)
    if not r > 0:
        raise ValueError("r must be positive")
    return r


def cone_half_measure_weight(p) -> float:
    """Radial density r/2 of the delta-functional normalization of dS/|xi|."""
    return 0.5 * cone_measure_weight(p)


def w0_act(phi, X):
    """Inversion action on functions: phi(X) -> (4/N(X)) phi(4X/N(X)).

    X is one point or stacked (..., 4) points, which `phi` must then map
    row by row.  Rejects cone points, where the inversion is singular.  On
    functions homogeneous of degree 2l this multiplies by
    2^(4l+2) N(X)^(-2l-1).
    """
    Xa = np.asarray(X, dtype=float)
    n = norm(Xa)
    if np.any(n == 0.0):
        raise ValueError("w0 action is singular on the cone N(X) = 0")
    return (4.0 / n) * phi(4.0 * Xa / np.expand_dims(n, -1))


def homogeneous_power(X, l):
    """N(X)^l for complex l via the principal branch, restricted to N(X) > 0;
    stacked (..., 4) points give an array."""
    n = norm(X)
    if not np.all(n > 0):
        raise ValueError("complex homogeneous powers are defined on N(X) > 0")
    return np.exp(complex(l) * np.log(n))


def matrix_realization(X) -> np.ndarray:
    """2x2 complex matrix with determinant N(X); stacked (..., 4) points
    give stacked (..., 2, 2) matrices."""
    x1, x2, x3, x4 = np.moveaxis(np.asarray(X, dtype=float), -1, 0)
    return np.stack([np.stack([x1 - 1j * x2, x3 + 1j * x4], axis=-1),
                     np.stack([x3 - 1j * x4, x1 + 1j * x2], axis=-1)], axis=-2)


# Basis matrices of the 2x2 realization: X = x1 e0 + x3 te1 + x4 te2 + x2 e3.
BASIS_MATRICES = {
    "e0": np.eye(2, dtype=complex),
    "te1": np.array([[0, 1], [1, 0]], dtype=complex),
    "te2": np.array([[0, 1j], [-1j, 0]], dtype=complex),
    "e3": np.array([[-1j, 0], [0, 1j]], dtype=complex),
}

# Gradient convention pinned by the operator identity below:
# D = (1/2)(e0 d1 - e3 d2 + te1 d3 + te2 d4), which satisfies D(X) = 2*Id
# and D(N) = conjugate(X).  Coefficient order follows (d1, d2, d3, d4).
GRADIENT_CONVENTION = (
    (0.5, "e0"),
    (-0.5, "e3"),
    (0.5, "te1"),
    (0.5, "te2"),
)


def quaternion_gradient_identity_residual(poly, grad, X) -> float:
    """Residual of the matrix operator identity used to pin the gradient table.

    Checks 2(X D X - X) phi = e0(-N d1 + 2 x1 deg) phi + te1(N d3 + 2 x3 deg) phi
    + te2(N d4 + 2 x4 deg) phi + e3(-N d2 + 2 x2 deg) phi, with deg the Euler
    operator plus one, for a scalar polynomial `poly` with exact gradient
    `grad`.  Returns the max-abs entry of LHS - RHS at the point X.
    """
    x = np.asarray(X, dtype=float)
    Xm = matrix_realization(x)
    n = norm(x)
    val = poly(x)
    g = np.asarray(grad(x), dtype=complex)

    basis_by_index = ("e0", "e3", "te1", "te2")  # matrices multiplying x1,x2,x3,x4
    # LHS: 2 X * D(X phi) - 2 X phi with D = sum_j c_j b_j d_j.
    lhs = np.zeros((2, 2), dtype=complex)
    for (c, bname), j in zip(GRADIENT_CONVENTION, range(4)):
        b = BASIS_MATRICES[bname]
        dj_Xphi = BASIS_MATRICES[basis_by_index[j]] * val + Xm * g[j]
        lhs = lhs + c * (b @ dj_Xphi)
    lhs = 2.0 * (Xm @ lhs - Xm * val)

    euler = np.dot(x, g)
    deg = euler + val
    rhs = (
        BASIS_MATRICES["e0"] * (-n * g[0] + 2 * x[0] * deg)
        + BASIS_MATRICES["te1"] * (n * g[2] + 2 * x[2] * deg)
        + BASIS_MATRICES["te2"] * (n * g[3] + 2 * x[3] * deg)
        + BASIS_MATRICES["e3"] * (-n * g[1] + 2 * x[1] * deg)
    )
    return float(np.max(np.abs(lhs - rhs)))
