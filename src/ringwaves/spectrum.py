"""Analytic spectrum of the linearized coupled-string system.

Closed forms for the wave-operator eigenvalues xi_{m,n}, their linear
lower-bound constant, the reduced eigenvalue family mu_{m,n,j,k}(alpha, beta),
critical parameter pairs, crossing signs rho, and the null/negative index
sets entering the bifurcation invariant.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._lazy import np
from .errors import DegenerateParameterError, SizeCapError
from .reps import LaplacianEigendata, cycle_laplacian_eigendata

SIN_DEGENERACY_TOL = 1e-8
MU_ZERO_TOL = 1e-9
TAU_PI_RATIONAL_TOL = 1e-9
MAX_FOLDING_BOUND = 100_000
MAX_WINDOW_CANDIDATES = 1_000_000  # cap on the (m, n, j, k) a window scans


class CouplingCurve(NamedTuple):
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
    pts = sorted((float(a), float(v)) for a, v in points)
    # every step's slope finite and of one sign: a step too steep or too long
    # for floats, or two values at one alpha, would put inf or nan in zeta'
    slopes = [(v1 - v0) / (a1 - a0) if a1 > a0 else math.nan
              for (a0, v0), (a1, v1) in zip(pts, pts[1:])]
    increasing = bool(slopes) and slopes[0] > 0
    if not slopes or not all(0 < abs(s) < math.inf and (s > 0) == increasing for s in slopes):
        raise ValueError("table curve must be strictly monotonic, with finite slopes")
    alphas = np.array([a for a, _ in pts])
    values = np.array([v for _, v in pts])

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


class ModelParams(NamedTuple("ModelParams", [
        ("nu", Fraction), ("delta", float), ("tau", float), ("N", int),
        ("zeta", CouplingCurve), ("eigendata", LaplacianEigendata)])):
    """Fixed model data: rational wave frequency, damping, delay, ring size.

    `nu` may be given as anything `Fraction` takes; `zeta` defaults to the
    sigmoid and `eigendata` to the cycle Laplacian's.
    """

    __slots__ = ()

    def __new__(cls, nu, delta: float, tau: float, N: int,
                zeta: CouplingCurve | None = None, eigendata: LaplacianEigendata | None = None):
        nu = nu if isinstance(nu, Fraction) else Fraction(nu)
        if nu <= 0:
            raise ValueError("wave frequency must be a positive rational")
        if not 0 < delta < math.inf:
            raise ValueError("damping must be positive and finite")
        if not 0 < tau < math.inf:
            raise ValueError("delay must be positive and finite")
        if N < 3:
            raise ValueError("cycle model needs N >= 3")
        if zeta is None:
            zeta = sigmoid_curve()
        if eigendata is None:
            eigendata = cycle_laplacian_eigendata(N)
        return super().__new__(cls, nu, delta, tau, N, zeta, eigendata)

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


class IndexQuad(NamedTuple):
    m: int
    n: int
    j: int
    k: int = 1


def xi(m: int, n: int, params: ModelParams) -> complex:
    """Wave-operator eigenvalue -nu^2 m^2 + n^2 + i delta m + 1 (never zero)."""
    nu2 = float(params.nu) ** 2
    return complex(-nu2 * m * m + n * n + 1.0, params.delta * m)


def xi_lower_bound_constant(params: ModelParams) -> float:
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
    window_m = math.ceil(2.0 / delta)  # smallest M with delta*m >= 2 for m >= M
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
        + beta * cmath.exp(-1j * _m_tau(m, params))
    )


def _m_tau(m: int, params: ModelParams) -> float:
    """m * tau, checked finite: every sin, cos and exp of the delay phase
    takes it from here."""
    phase = m * params.tau
    if not math.isfinite(phase):
        raise ValueError(f"delay tau = {params.tau:g} overflows at folding m = {m}: "
                         "m * tau is not finite")
    return phase


def _sin_m_tau(m: int, params: ModelParams) -> float:
    s = math.sin(_m_tau(m, params))
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
    if n < 1:
        raise ValueError("critical points need transverse index n >= 1")
    s = _sin_m_tau(m, params)
    beta0 = params.delta * m / s
    nu2 = float(params.nu) ** 2
    target = (nu2 * m * m - n * n - params.delta * m * (math.cos(_m_tau(m, params)) / s)) / (
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
    determinant.  The curve is strictly monotone and z_jk + 1 >= 1, so the
    sign is fixed per m.  It is 0 only when the product underflows; the
    caller surfaces that degeneracy.
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


class IndexSets(NamedTuple):
    """Null/negative spectra of the linearization at a parameter point."""

    sigma0: tuple  # IndexQuads with m >= 1 (odd only in h_fixed mode)
    sigma_minus: tuple  # (n, j, k) triples at m = 0
    b1_ok: bool
    b1_violations: tuple


def _m_search_bound(beta: float, params: ModelParams) -> int:
    """Any vanishing mu with m >= 1 needs delta m = beta sin(m tau) <= |beta|."""
    bound = abs(beta) / params.delta + 1e-9  # inf for a tiny delta
    if not bound < MAX_FOLDING_BOUND + 1:
        raise DegenerateParameterError(
            f"null-spectrum search bound {bound:.6g} is unreasonably large"
        )
    return int(bound)


def index_sets(alpha: float, beta: float, params: ModelParams, h_fixed: bool = False) -> IndexSets:
    """Enumerate the vanishing and negative modes at (alpha, beta).

    The search needs no window: temporal indices are scanned up to the hard
    bound |beta|/delta and transverse indices up to the bound forced by the
    real part, so every vanishing mode is found.
    """
    sigma0 = []
    m_bound = max(_m_search_bound(beta, params), 0)
    nu2 = float(params.nu) ** 2
    zeta_val = params.zeta.evaluate(alpha)
    for m in range(1, m_bound + 1):
        if h_fixed and m % 2 == 0:
            continue
        cos_m_tau = math.cos(_m_tau(m, params))
        for j, k in params.eigendata.indices():
            zjk = zeta_val * (params.eigendata.z(j, k) + 1.0)
            # real part: n^2 = nu^2 m^2 - zeta_jk - beta cos(m tau)
            n2 = nu2 * m * m - zjk - beta * cos_m_tau
            if n2 < 0.5:
                continue
            n = round(math.sqrt(n2))
            for cand in {n - 1, n, n + 1}:
                if cand < 1:
                    continue
                q = IndexQuad(m, cand, j, k)
                val = mu(m, cand, j, k, alpha, beta, params)
                if abs(val) <= MU_ZERO_TOL:
                    sigma0.append(q)
    sigma0 = tuple(sorted(set(sigma0)))

    sigma_minus = []
    b1_violations = []
    for j, k in params.eigendata.indices():
        zjk = zeta_val * (params.eigendata.z(j, k) + 1.0)
        bound = -zjk - beta
        if bound <= 0 and abs(bound) > MU_ZERO_TOL:
            continue
        n_hi = int(math.floor(math.sqrt(max(bound, 0.0)) + 2))
        for n in range(1, n_hi + 1):
            val = n * n + zjk + beta  # numerator of the real eigenvalue at m = 0
            if abs(val) <= MU_ZERO_TOL:
                b1_violations.append((n, j, k))
            elif val < 0:
                sigma_minus.append((n, j, k))
    sigma_minus = tuple(sorted(sigma_minus))
    b1_violations = tuple(sorted(b1_violations))

    return IndexSets(
        sigma0=sigma0,
        sigma_minus=sigma_minus,
        b1_ok=not b1_violations,
        b1_violations=b1_violations,
    )


class CriticalPoint(NamedTuple):
    quad: IndexQuad
    alpha: float
    beta: float


def _window_ms(m_max: int, odd_m_only: bool) -> range:
    return range(1, m_max + 1, 2) if odd_m_only else range(1, m_max + 1)


def check_window_size(rows: int, m_max: int, n_max: int, odd_m_only: bool = True):
    """Raise SizeCapError if a window over `rows` eigendata rows (j, k) holds
    more than MAX_WINDOW_CANDIDATES candidates, scanning nothing."""
    count = rows * len(_window_ms(m_max, odd_m_only)) * max(n_max, 0)
    if count > MAX_WINDOW_CANDIDATES:
        raise SizeCapError(f"window of {count} (m, n, j, k) candidates exceeds cap "
                           f"{MAX_WINDOW_CANDIDATES}")


def enumerate_critical_points(
    params: ModelParams, m_max: int, n_max: int, odd_m_only: bool = True
):
    """All windowed critical parameter pairs, sorted by index quadruple."""
    rows = sum(mult for _j, _z, mult in params.eigendata.entries)
    check_window_size(rows, m_max, n_max, odd_m_only)
    out = []
    indices = sorted(params.eigendata.indices())  # eigendata may list j in any order
    for m in _window_ms(m_max, odd_m_only):
        for n in range(1, n_max + 1):
            for j, k in indices:
                got = critical_point(m, n, j, k, params)
                if got is None:
                    continue
                out.append(CriticalPoint(IndexQuad(m, n, j, k), got[0], got[1]))
    return out
