"""Crossing signs by winding integration, critical points by Newton's method,
and the spectral cross-check one eigenvalue at a time.

Independent of the closed forms in `ringwaves.spectrum`: all work on the
numerator of mu_{m,n,j,k} as a function of (alpha, beta), numerically.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ringwaves.errors import DegenerateParameterError
from ringwaves.spectrum import ModelParams, xi


def winding_oracle(
    m: int,
    n: int,
    j: int,
    k: int,
    params: ModelParams,
    center,
    radius: float,
    steps: int = 10_000,
) -> int:
    """Winding number of mu_{m,n,j,k} around a parameter circle.

    Accumulates the argument increment along the discretized circle; the
    total must land within 0.1 of an integer multiple of 2 pi and mu must
    stay well away from zero on the circle.
    """
    a0, b0 = center
    angles = np.linspace(0.0, 2.0 * math.pi, steps + 1)
    alphas = a0 + radius * np.cos(angles)
    betas = b0 + radius * np.sin(angles)
    nu2 = float(params.nu) ** 2
    zjk = params.eigendata.z(j, k) + 1.0
    zeta_vals = np.array([params.zeta.evaluate(a) for a in alphas])
    vals = (
        complex(-nu2 * m * m + n * n, params.delta * m)
        + zeta_vals * zjk
        + betas * cmath.exp(-1j * m * params.tau)
    )
    mags = np.abs(vals)
    scale = abs(xi(m, n, params))
    if mags.min() < 1e-12 * scale:
        raise DegenerateParameterError(
            "mu vanishes on the winding circle; change the radius"
        )
    total = np.angle(vals[1:] / vals[:-1]).sum()
    w = total / (2.0 * math.pi)
    rounded = round(w)
    if abs(w - rounded) > 0.1:
        raise DegenerateParameterError(
            f"winding accumulation {w} is not close to an integer; refine steps"
        )
    return int(rounded)


def newton_critical_oracle(
    m: int, n: int, j: int, k: int, params: ModelParams, guess, tol: float = 1e-13
):
    """Independent 2-D root-find of the mu numerator near `guess`.

    Newton iteration with an analytic Jacobian on (Re, Im) of the numerator;
    returns None if it fails to converge.
    """
    a, b = guess
    nu2 = float(params.nu) ** 2
    zjk1 = params.eigendata.z(j, k) + 1.0
    e = cmath.exp(-1j * m * params.tau)
    for _ in range(200):
        val = (
            complex(-nu2 * m * m + n * n, params.delta * m)
            + params.zeta.evaluate(a) * zjk1
            + b * e
        )
        if abs(val) < tol:
            return a, b
        jac = np.array(
            [
                [params.zeta.derivative(a) * zjk1, e.real],
                [0.0, e.imag],
            ]
        )
        try:
            step = np.linalg.solve(jac, np.array([val.real, val.imag]))
        except np.linalg.LinAlgError:
            return None
        a -= step[0]
        b -= step[1]
    return None


def _lex_key(z: complex):
    return round(z.real, 8), z.imag


def closed_form_deviation_oracle(disc, params: ModelParams) -> float:
    """`verify.spectral_eigenvalue_deviation` one eigenvalue at a time.

    For every (j, k) of the eigendata, not once per block, the numerator
    xi_{m,n} mu_{m,n,j,k} is evaluated at each (m, n), with its conjugate
    for m >= 1, and compared with the block of j after sorting both by real
    part rounded to 8 decimals, then by imaginary part.
    """
    nu2 = float(params.nu) ** 2
    zeta = params.zeta.evaluate(disc.alpha)
    worst = 0.0
    for j, k in params.eigendata.indices():
        want = []
        for m in range(disc.m_t + 1):
            for n in range(1, disc.m_x + 1):
                val = (
                    complex(-nu2 * m * m + n * n, params.delta * m)
                    + zeta * (params.eigendata.z(j, k) + 1.0)
                    + disc.beta * cmath.exp(-1j * m * params.tau)
                )
                want.extend([val, val.conjugate()] if m else [val])
        got = sorted(disc.blocks[j].tolist(), key=_lex_key)
        if len(got) != len(want):
            raise AssertionError(f"block {j} holds {len(got)} eigenvalues, not {len(want)}")
        want.sort(key=_lex_key)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    return worst
