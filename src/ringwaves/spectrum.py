"""Analytic spectrum of the linearized coupled-string system.

Closed forms for the wave-operator eigenvalues xi_{m,n}, their linear
lower-bound constant, the reduced eigenvalue family mu_{m,n,j,k}(alpha, beta),
critical parameter pairs, crossing signs rho, a winding-number oracle, and
the null/negative index sets entering the bifurcation invariant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateParameterError
from .reps import LaplacianEigendata, cycle_laplacian_eigendata

SIN_DEGENERACY_TOL = 1e-8
MU_ZERO_TOL = 1e-9
TAU_PI_RATIONAL_TOL = 1e-9
MAX_FOLDING_BOUND = 100_000


@dataclass(frozen=True)
class CouplingCurve:
    """Strictly monotonic coupling-strength curve alpha -> zeta(alpha)."""

    kind: str
    evaluate: Callable[[float], float]
    derivative: Callable[[float], float]
    inverse: Callable[[float], Optional[float]]
    range: tuple  # open interval of attainable values

    def in_range(self, y: float) -> bool:
        lo, hi = self.range
        return lo < y < hi


def sigmoid_curve() -> CouplingCurve:
    def ev(a: float) -> float:
        if a >= 0:
            return 1.0 / (1.0 + math.exp(-a))
        e = math.exp(a)
        return e / (1.0 + e)

    def dv(a: float) -> float:
        s = ev(a)
        return s * (1.0 - s)

    def inv(y: float):
        if not 0.0 < y < 1.0:
            return None
        return math.log(y / (1.0 - y))

    return CouplingCurve("sigmoid", ev, dv, inv, (0.0, 1.0))


def linear_curve(slope: float = 1.0, offset: float = 0.0) -> CouplingCurve:
    if slope == 0.0:
        raise ValueError("linear coupling curve must have nonzero slope")

    return CouplingCurve(
        "linear",
        lambda a: slope * a + offset,
        lambda a: slope,
        lambda y: (y - offset) / slope,
        (-math.inf, math.inf),
    )


def table_curve(points) -> CouplingCurve:
    """Piecewise-linear strictly monotonic curve through (alpha, value) pairs."""
    pts = sorted(points)
    alphas = np.array([a for a, _ in pts], dtype=float)
    values = np.array([v for _, v in pts], dtype=float)
    diffs = np.diff(values)
    if len(pts) < 2 or not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ValueError("table curve must be strictly monotonic")
    increasing = bool(diffs[0] > 0)

    def ev(a: float) -> float:
        return float(np.interp(a, alphas, values))

    def dv(a: float) -> float:
        i = int(np.clip(np.searchsorted(alphas, a) - 1, 0, len(alphas) - 2))
        return float((values[i + 1] - values[i]) / (alphas[i + 1] - alphas[i]))

    vlo, vhi = (values[0], values[-1]) if increasing else (values[-1], values[0])

    def inv(y: float):
        if not vlo < y < vhi:
            return None
        return float(np.interp(y, values if increasing else values[::-1],
                               alphas if increasing else alphas[::-1]))

    return CouplingCurve("user-table", ev, dv, inv, (float(vlo), float(vhi)))


@dataclass(frozen=True)
class ModelParams:
    """Fixed model data: rational wave frequency, damping, delay, ring size."""

    nu: Fraction
    delta: float
    tau: float
    N: int
    zeta: CouplingCurve = field(default_factory=sigmoid_curve)
    eigendata: LaplacianEigendata = None

    def __post_init__(self):
        if not isinstance(self.nu, Fraction):
            object.__setattr__(self, "nu", Fraction(self.nu))
        if self.nu <= 0:
            raise ValueError("wave frequency must be a positive rational")
        if self.delta <= 0:
            raise ValueError("damping must be positive")
        if self.tau <= 0:
            raise ValueError("delay must be positive")
        if self.N < 3:
            raise ValueError("cycle model needs N >= 3")
        if self.eigendata is None:
            object.__setattr__(self, "eigendata", cycle_laplacian_eigendata(self.N))

    @property
    def tau_near_pi_rational(self) -> bool:
        """Flag: tau is numerically close to a rational multiple of pi.

        Rationality of tau/pi is undecidable in floating point; this flag
        only warns that small sin(m*tau) values are likely for small m.
        """
        x = self.tau / math.pi
        for q in range(1, 65):
            if abs(x * q - round(x * q)) < TAU_PI_RATIONAL_TOL * q:
                return True
        return False

    def zeta_jk(self, j: int, k: int, alpha: float) -> float:
        return self.zeta.evaluate(alpha) * (self.eigendata.z(j, k) + 1.0)

    def zeta_jk_derivative(self, j: int, k: int, alpha: float) -> float:
        return self.zeta.derivative(alpha) * (self.eigendata.z(j, k) + 1.0)


@dataclass(frozen=True, order=True)
class IndexQuad:
    m: int
    n: int
    j: int
    k: int = 1


def xi(m: int, n: int, params: ModelParams) -> complex:
    """Wave-operator eigenvalue -nu^2 m^2 + n^2 + i delta m + 1 (never zero)."""
    nu2 = float(params.nu) ** 2
    return complex(-nu2 * m * m + n * n + 1.0, params.delta * m)


def xi_lower_bound_constant(
    params: ModelParams, window_m: int | None = None, window_n: int | None = None
) -> float:
    """C > 0 with |xi_{m,n}| >= C (m + n) for all m >= 0, n >= 1.

    Assembled exactly like the estimate's case split: one constant for the
    resonant direction n = (p/q) m, one off it, one for the large-n range at
    small m, and the minimum of |xi|/(m+n) over the remaining finite window.
    """
    p, q = params.nu.numerator, params.nu.denominator
    delta = params.delta
    d1 = (delta / 4.0) * min(q / p, 1.0)
    d2 = (1.0 / q) * min(1.0, p / q + delta * q / 2.0)
    d3 = min(1.0, delta)
    if window_m is None:
        window_m = math.ceil(2.0 / delta)  # smallest M with delta*m >= 2 for m >= M
    if window_n is None:
        # smallest N_w with n^2 >= n + 4 nu^2 / delta^2 + 1 for all n >= N_w
        c = 4.0 * float(params.nu) ** 2 / delta**2 + 1.0
        window_n = max(1, math.ceil((1.0 + math.sqrt(1.0 + 4.0 * c)) / 2.0))
    best = min(d1, d2, d3)
    for m in range(0, window_m):
        for n in range(1, window_n):
            best = min(best, abs(xi(m, n, params)) / (m + n))
    return best


def mu(m: int, n: int, j: int, k: int, alpha: float, beta: float, params: ModelParams) -> complex:
    """Reduced block eigenvalue of the linearization on mode (m, n, j, k)."""
    return mu_numerator(m, n, j, k, alpha, beta, params) / xi(m, n, params)


def mu_numerator(
    m: int, n: int, j: int, k: int, alpha: float, beta: float, params: ModelParams
) -> complex:
    nu2 = float(params.nu) ** 2
    return (
        complex(-nu2 * m * m + n * n, params.delta * m)
        + params.zeta_jk(j, k, alpha)
        + beta * cmath.exp(-1j * m * params.tau)
    )


def _sin_m_tau(m: int, params: ModelParams) -> float:
    s = math.sin(m * params.tau)
    if abs(s) < SIN_DEGENERACY_TOL:
        raise DegenerateParameterError(
            f"sin({m}*tau) = {s:.2e} is numerically degenerate; the delay must "
            "stay away from rational multiples of pi"
        )
    return s


def critical_point(m: int, n: int, j: int, k: int, params: ModelParams):
    """Closed-form parameter pair where mu_{m,n,j,k} vanishes, if it exists.

    beta depends only on m; alpha exists iff the required coupling value lies
    in the curve's range.
    """
    if m < 1:
        raise ValueError("critical points need temporal index m >= 1")
    s = _sin_m_tau(m, params)
    beta0 = params.delta * m / s
    nu2 = float(params.nu) ** 2
    target = (nu2 * m * m - n * n - params.delta * m * (math.cos(m * params.tau) / s)) / (
        params.eigendata.z(j, k) + 1.0
    )
    if not params.zeta.in_range(target):
        return None
    alpha0 = params.zeta.inverse(target)
    if alpha0 is None:
        return None
    return alpha0, beta0


def rho(m: int, n: int, j: int, k: int, params: ModelParams, at) -> int:
    """Crossing sign of mu at its zero: sign(-zeta_jk'(alpha0) sin(m tau)).

    The parameter Jacobian of mu is triangular up to the nonzero factor
    1/xi_{m,n}, which rotates the plane and cannot change the sign of the
    determinant.  Returns 0 (with the degeneracy surfaced by the caller)
    when the coupling derivative vanishes.
    """
    alpha0, _beta0 = at
    s = _sin_m_tau(m, params)
    d = params.zeta_jk_derivative(j, k, alpha0)
    val = -d * s
    if val > 0:
        return 1
    if val < 0:
        return -1
    return 0


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


@dataclass(frozen=True)
class IndexSets:
    """Null/negative spectra of the linearization at a parameter point."""

    sigma0: tuple  # IndexQuads with m >= 1 (odd only in h_fixed mode)
    sigma_minus: tuple  # (n, j, k) triples at m = 0
    sigma_s: dict  # folding -> tuple of (n, j, k)
    b1_ok: bool
    b1_violations: tuple
    window_exceeded: tuple  # members of sigma0 outside the requested window

    def slice(self, s: int):
        return self.sigma_s.get(s, ())


def _m_search_bound(beta: float, params: ModelParams) -> int:
    """Any vanishing mu with m >= 1 needs delta m = beta sin(m tau) <= |beta|."""
    bound = int(math.floor(abs(beta) / params.delta + 1e-9))
    if bound > MAX_FOLDING_BOUND:
        raise DegenerateParameterError(
            f"null-spectrum search bound {bound} is unreasonably large"
        )
    return bound


def index_sets(
    alpha: float,
    beta: float,
    params: ModelParams,
    m_max: int,
    n_max: int,
    h_fixed: bool = False,
    zero_tol: float = MU_ZERO_TOL,
) -> IndexSets:
    """Enumerate the vanishing and negative modes at (alpha, beta).

    The search is complete regardless of the requested window: temporal
    indices are scanned up to the hard bound |beta|/delta and transverse
    indices up to the bound forced by the real part, so any member outside
    (m_max, n_max) is still found and reported in `window_exceeded`.
    """
    sigma0 = []
    exceeded = []
    m_bound = max(_m_search_bound(beta, params), 0)
    nu2 = float(params.nu) ** 2
    zeta_val = params.zeta.evaluate(alpha)
    for m in range(1, m_bound + 1):
        if h_fixed and m % 2 == 0:
            continue
        for j, k in params.eigendata.indices():
            zjk = zeta_val * (params.eigendata.z(j, k) + 1.0)
            # real part: n^2 = nu^2 m^2 - zeta_jk - beta cos(m tau)
            n2 = nu2 * m * m - zjk - beta * math.cos(m * params.tau)
            if n2 < 0.5:
                continue
            n = round(math.sqrt(n2))
            for cand in {n - 1, n, n + 1}:
                if cand < 1:
                    continue
                q = IndexQuad(m, cand, j, k)
                val = mu(m, cand, j, k, alpha, beta, params)
                if abs(val) <= zero_tol:
                    sigma0.append(q)
                    if m > m_max or cand > n_max:
                        exceeded.append(q)
    sigma0 = tuple(sorted(set(sigma0)))
    exceeded = tuple(sorted(set(exceeded)))

    sigma_minus = []
    b1_violations = []
    for j, k in params.eigendata.indices():
        zjk = zeta_val * (params.eigendata.z(j, k) + 1.0)
        bound = -zjk - beta
        if bound <= 0 and abs(bound) > zero_tol:
            continue
        n_hi = int(math.floor(math.sqrt(max(bound, 0.0)) + 2))
        for n in range(1, n_hi + 1):
            val = n * n + zjk + beta  # numerator of the real eigenvalue at m = 0
            if abs(val) <= zero_tol:
                b1_violations.append((n, j, k))
            elif val < 0:
                sigma_minus.append((n, j, k))
    sigma_minus = tuple(sorted(sigma_minus))
    b1_violations = tuple(sorted(b1_violations))

    sigma_s: dict = {}
    for quad in sigma0:
        sigma_s.setdefault(quad.m, []).append((quad.n, quad.j, quad.k))
    sigma_s = {s: tuple(v) for s, v in sorted(sigma_s.items())}

    return IndexSets(
        sigma0=sigma0,
        sigma_minus=sigma_minus,
        sigma_s=sigma_s,
        b1_ok=not b1_violations,
        b1_violations=b1_violations,
        window_exceeded=exceeded,
    )


@dataclass(frozen=True)
class CriticalPoint:
    quad: IndexQuad
    alpha: float
    beta: float


def enumerate_critical_points(
    params: ModelParams, m_max: int, n_max: int, odd_m_only: bool = True
):
    """All windowed critical parameter pairs, sorted by index quadruple."""
    out = []
    ms = range(1, m_max + 1, 2) if odd_m_only else range(1, m_max + 1)
    for m in ms:
        for n in range(1, n_max + 1):
            for j, k in params.eigendata.indices():
                got = critical_point(m, n, j, k, params)
                if got is None:
                    continue
                out.append(CriticalPoint(IndexQuad(m, n, j, k), got[0], got[1]))
    return out


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
