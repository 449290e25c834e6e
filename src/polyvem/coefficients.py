"""Coefficient model and named benchmark problems.

Fields are vectorized callables f(x, y) -> array (scalar returns broadcast);
the vector field theta returns an (tx, ty) pair.  kappa is treated as
piecewise constant per cell and is sampled at cell centroids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CoefficientSet",
    "ManufacturedCase",
    "CASES",
    "constant",
    "constant_vector",
    "square_exact_eigenvalues",
]


def constant(c: float) -> Callable:
    def field(x, y, _c=float(c)):
        return np.full(np.shape(x), _c)

    return field


def constant_vector(cx: float, cy: float) -> Callable:
    def field(x, y, _cx=float(cx), _cy=float(cy)):
        return np.full(np.shape(x), _cx), np.full(np.shape(x), _cy)

    return field


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficients of  -div(kappa grad u) + theta . grad u + gamma u = f.

    Attributes
    ----------
    kappa : callable
        Diffusion kappa(x, y) > 0, piecewise constant per cell (sampled at
        centroids during assembly).
    theta : callable
        Convection field theta(x, y) -> (tx, ty).
    gamma : callable
        Reaction gamma(x, y).
    f : callable or None
        Load; None for eigenvalue problems.
    domain : str or None
        Domain tag the coefficients were written for; assembly rejects a
        mesh with a different tag.  None means domain-agnostic.
    """

    kappa: Callable
    theta: Callable
    gamma: Callable
    f: Optional[Callable] = None
    domain: Optional[str] = None


@dataclass(frozen=True)
class ManufacturedCase:
    """A named benchmark: coefficients, on their `domain`, plus (optional)
    exact references."""

    name: str
    coeffs: CoefficientSet
    u: Optional[Callable] = None
    grad_u: Optional[Callable] = None
    exact_eigenvalues: Optional[Callable] = None


def _test1() -> ManufacturedCase:
    # u = sin(pi x) sin(pi y), kappa = 1, theta = (x, y), gamma = 1
    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad_u(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    def f(x, y):
        # u and grad_u inlined, each sine and cosine evaluated once
        sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
        cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
        ux, uy, uxy = np.pi * cx * sy, np.pi * sx * cy, sx * sy
        return 2.0 * np.pi**2 * uxy + x * ux + y * uy + uxy

    coeffs = CoefficientSet(
        kappa=constant(1.0),
        theta=lambda x, y: (np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
        gamma=constant(1.0),
        f=f,
        domain="unit_square",
    )
    return ManufacturedCase("test1", coeffs, u=u, grad_u=grad_u)


def _test2() -> ManufacturedCase:
    # u = (x - x^2)(y - y^2) + sin(2 pi x) sin(2 pi y), kappa = 1,
    # theta = (x, y), gamma = x^2 + y^3
    def u(x, y):
        return (x - x**2) * (y - y**2) + np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

    def grad_u(x, y):
        ux = (1 - 2 * x) * (y - y**2) + 2 * np.pi * np.cos(2 * np.pi * x) * np.sin(
            2 * np.pi * y
        )
        uy = (x - x**2) * (1 - 2 * y) + 2 * np.pi * np.sin(2 * np.pi * x) * np.cos(
            2 * np.pi * y
        )
        return ux, uy

    def gamma(x, y):
        return x**2 + y**3

    def f(x, y):
        lap = (
            -2.0 * (y - y**2)
            - 2.0 * (x - x**2)
            - 8.0 * np.pi**2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        )
        ux, uy = grad_u(x, y)
        return -lap + x * ux + y * uy + gamma(x, y) * u(x, y)

    coeffs = CoefficientSet(
        kappa=constant(1.0),
        theta=lambda x, y: (np.asarray(x, dtype=float), np.asarray(y, dtype=float)),
        gamma=gamma,
        f=f,
        domain="unit_square",
    )
    return ManufacturedCase("test2", coeffs, u=u, grad_u=grad_u)


def square_exact_eigenvalues(k: int, theta=(1.0, 0.0), kappa: float = 1.0) -> np.ndarray:
    """Exact eigenvalues of the convection-diffusion operator on the unit square.

    For constant theta the substitution u = exp(theta . x / (2 kappa)) w turns
    the operator into a shifted Laplacian, so

        lambda_{p,q} = |theta|^2 / (4 kappa) + kappa pi^2 (p^2 + q^2),  p,q >= 1.

    Returns the k smallest, sorted ascending (multiplicities included).
    """
    shift = (theta[0] ** 2 + theta[1] ** 2) / (4.0 * kappa)
    pmax = int(np.ceil(np.sqrt(k))) + 3
    vals = sorted(
        shift + kappa * np.pi**2 * (p**2 + q**2)
        for p in range(1, pmax + 1)
        for q in range(1, pmax + 1)
    )
    return np.array(vals[:k])


def _eigen_square() -> ManufacturedCase:
    coeffs = CoefficientSet(
        kappa=constant(1.0),
        theta=constant_vector(1.0, 0.0),
        gamma=constant(0.0),
        domain="unit_square",
    )
    return ManufacturedCase(
        "eigen_square",
        coeffs,
        exact_eigenvalues=lambda k: square_exact_eigenvalues(k, theta=(1.0, 0.0), kappa=1.0),
    )


def _eigen_t() -> ManufacturedCase:
    coeffs = CoefficientSet(
        kappa=constant(1.0),
        theta=constant_vector(1.0, 0.0),
        gamma=constant(0.0),
        domain="rotated_T",
    )
    return ManufacturedCase("eigen_T", coeffs)


CASES: dict[str, ManufacturedCase] = {
    case.name: case for case in (_test1(), _test2(), _eigen_square(), _eigen_t())
}
