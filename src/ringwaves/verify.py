"""Independent numerical confirmation of the closed-form spectrum.

Two discretizations of the linearized operator
nu^2 d_tt - d_xx + delta d_t + beta S_tau + zeta(alpha)(L + 1):
a spectral one (time Fourier x transverse sine/cosine modes, exact delay
multiplier) whose eigenvalues must reproduce the closed-form products, and a
finite-difference one (periodic time grid, Dirichlet space grid, delay by
linear interpolation between time planes) that knows nothing about the
closed form and is used for smallest-singular-value scans near predicted
critical points.  The FD blocks are normal, so each is kept as its
eigenvalues, read off the stencil's symbol.  Grid symmetry checks run the
machine-readable relations emitted by the prediction layer; periodic time
shifts are applied by exact trigonometric interpolation so band-limited data
loses no accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bifurcation import folding_data
from .spectrum import ModelParams, mu_numerator


@dataclass(frozen=True)
class Discretization:
    """Assembled real matrices of the linearized operator, one per block."""

    mode: str  # "spectral" | "fd"
    m_t: int
    m_x: int
    blocks: dict  # isotypic index j -> dense matrix (spectral) or eigenvalues (fd)
    alpha: float
    beta: float


def assemble(
    params: ModelParams, alpha: float, beta: float, mode: str, m_t: int, m_x: int
) -> Discretization:
    if m_t < 4 or m_x < 4:
        raise ValueError("discretization sizes must be at least 4")
    if m_t * m_x > 2_000_000:
        raise ValueError("discretization size overflow guard")
    if mode == "spectral":
        blocks = {
            j: _spectral_block(params, alpha, beta, j, k, m_t, m_x)
            for j, k in params.eigendata.indices()
        }
    elif mode == "fd":
        blocks = {
            j: _fd_block(params, alpha, beta, j, k, m_t, m_x)
            for j, k in params.eigendata.indices()
        }
    else:
        raise ValueError("mode must be 'spectral' or 'fd'")
    return Discretization(mode, m_t, m_x, blocks, alpha, beta)


def _spectral_block(params, alpha, beta, j, k, m_t, m_x) -> np.ndarray:
    """Action on {v_n(x) cos(mt), v_n(x) sin(mt)} coefficient pairs.

    Produced from the operator's action on the basis functions (derivatives
    and the delay shift expanded by trigonometric identities), not from the
    closed-form eigenvalue expression.
    """
    nu2 = float(params.nu) ** 2
    delta, tau = params.delta, params.tau
    cj = params.zeta.evaluate(alpha) * (params.eigendata.z(j, k) + 1.0)
    size = m_x + 2 * m_t * m_x  # m = 0 rows plus (cos, sin) pairs
    mat = np.zeros((size, size))
    for n in range(1, m_x + 1):
        mat[n - 1, n - 1] = n * n + cj + beta
    pos = m_x
    for m in range(1, m_t + 1):
        for n in range(1, m_x + 1):
            diag = -nu2 * m * m + n * n + cj + beta * math.cos(m * tau)
            off = delta * m - beta * math.sin(m * tau)
            mat[pos, pos] = diag
            mat[pos + 1, pos + 1] = diag
            mat[pos, pos + 1] = off
            mat[pos + 1, pos] = -off
            pos += 2
    return mat


def spectral_eigenvalue_deviation(
    disc: Discretization, params: ModelParams
) -> float:
    """Max distance between assembled eigenvalues and the closed-form products.

    The closed form predicts eigenvalues xi_{m,n} * mu_{m,n,j,k} together
    with conjugates for m >= 1; eigenvalue multisets are compared after
    lexicographic sorting.
    """
    worst = 0.0
    for (j, k) in params.eigendata.indices():
        block = disc.blocks[j]
        got = np.linalg.eigvals(block)
        want = []
        for n in range(1, disc.m_x + 1):
            want.append(complex(mu_numerator(0, n, j, k, disc.alpha, disc.beta, params)))
        for m in range(1, disc.m_t + 1):
            for n in range(1, disc.m_x + 1):
                val = mu_numerator(m, n, j, k, disc.alpha, disc.beta, params)
                want.extend([val, val.conjugate()])
        got, want = _lex_sorted(got), _lex_sorted(np.array(want))
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _lex_sorted(z: np.ndarray) -> np.ndarray:
    """Sort by real part rounded to 8 decimals, then by imaginary part."""
    return z[np.lexsort((z.imag, np.round(z.real, 8)))]


def _fd_block(params, alpha, beta, j, k, m_t, m_x) -> np.ndarray:
    """Eigenvalues of the FD block kron(C_t, I_x) + kron(I_t, -D_xx).

    C_t is circulant: centred time derivatives, damping, the delay by linear
    interpolation between the two bracketing time planes, and cj.  -D_xx is
    the symmetric Dirichlet tridiagonal.  The summands commute and are
    normal, so the block's m_t * m_x eigenvalues are c_q + a_l with c_q the
    DFT of the time stencil and a_l the Dirichlet eigenvalues.
    """
    nu2 = float(params.nu) ** 2
    delta, tau = params.delta, params.tau
    cj = params.zeta.evaluate(alpha) * (params.eigendata.z(j, k) + 1.0)
    dt = 2.0 * math.pi / m_t
    dx = math.pi / (m_x + 1)

    stencil = np.zeros(m_t)  # entry a multiplies u_{k-a}
    stencil[0] = cj - 2.0 * nu2 / (dt * dt)
    stencil[1] = nu2 / (dt * dt) - delta / (2.0 * dt)
    stencil[-1] = nu2 / (dt * dt) + delta / (2.0 * dt)
    s = tau / dt  # delay between the two bracketing time planes
    s_hi = math.ceil(s)
    w = s_hi - s
    stencil[(s_hi - 1) % m_t] += beta * w
    stencil[s_hi % m_t] += beta * (1.0 - w)

    c = np.fft.fft(stencil)
    a = (2.0 - 2.0 * np.cos(math.pi * np.arange(1, m_x + 1) / (m_x + 1))) / (dx * dx)
    return (c[:, None] + a[None, :]).ravel()


def smallest_singular_value(eigenvalues) -> float:
    """sigma_min of a normal block given its eigenvalues: min |lambda|."""
    return float(np.abs(eigenvalues).min())


def sigma_min(disc: Discretization) -> float:
    if disc.mode != "fd":
        raise ValueError("sigma_min needs an 'fd' discretization")
    return min(smallest_singular_value(b) for b in disc.blocks.values())


def sigma_min_scan(
    params: ModelParams,
    center,
    radius: float,
    m_t: int = 128,
    m_x: int = 64,
    n_ring: int = 8,
):
    """FD sigma_min at the center and on a parameter ring around it.

    Returns rows (d_alpha, d_beta, sigma_min); the first row is the center.
    """
    a0, b0 = center
    rows = [(0.0, 0.0, sigma_min(assemble(params, a0, b0, "fd", m_t, m_x)))]
    for i in range(n_ring):
        ang = 2.0 * math.pi * i / n_ring
        da, db = radius * math.cos(ang), radius * math.sin(ang)
        rows.append(
            (da, db, sigma_min(assemble(params, a0 + da, b0 + db, "fd", m_t, m_x)))
        )
    return rows


@dataclass(frozen=True)
class GridFunction:
    """Samples of an N-component field on the periodic-time Dirichlet-space grid."""

    t_grid: np.ndarray  # m_t periodic samples of [0, 2 pi)
    x_grid: np.ndarray  # m_x interior samples of (-pi/2, pi/2)
    values: np.ndarray  # shape (m_t, m_x, N)


def transverse_profile(n: int, x: np.ndarray) -> np.ndarray:
    """v_n: cos(nx) for odd n, sin(nx) for even n (both vanish at x = +-pi/2)."""
    return np.cos(n * x) if n % 2 else np.sin(n * x)


def eigenfunction(
    N: int, m: int, n: int, j: int, kind: str, m_t: int, m_x: int
) -> GridFunction:
    """Model eigenfunction of the (m, n, j) block with the given symmetry kind.

    H is the traveling profile along the rotation eigenvector; T is the
    standing profile in its real part (fixed by a plain reflection) and S the
    complementary standing profile.
    """
    t = np.linspace(0.0, 2.0 * math.pi, m_t, endpoint=False)
    x = -math.pi / 2 + math.pi * np.arange(1, m_x + 1) / (m_x + 1)
    prof = transverse_profile(n, x)
    comps = np.arange(N)
    phase = 2.0 * math.pi * j * comps / N
    if kind == "H":
        core = np.cos(m * t[:, None, None] + phase[None, None, :])
    elif kind in ("S", "T"):
        if not 0 < j or (N % 2 == 0 and j == N // 2):
            raise ValueError(f"kind {kind} needs a two-dimensional rotation block")
        ntilde, _jt, _h = folding_data(N, j)
        if kind == "T":
            prof_c = np.cos(phase)
        elif ntilde % 2:
            prof_c = np.sin(phase)
        else:
            prof_c = np.cos(phase - math.pi / ntilde)
        core = np.cos(m * t)[:, None, None] * prof_c[None, None, :]
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    values = core * prof[None, :, None]
    return GridFunction(t, x, values)


def _time_shift(values: np.ndarray, turns: Fraction, m_t: int) -> np.ndarray:
    """Shift periodic samples by an exact fraction of the period.

    Grid-aligned shifts permute samples; off-grid shifts use trigonometric
    interpolation (a Fourier phase twist), exact for band-limited data.
    """
    num = turns * m_t
    if num.denominator == 1:
        return np.roll(values, -int(num), axis=0)
    freqs = np.fft.fftfreq(m_t, d=1.0 / m_t)
    twist = np.exp(2j * math.pi * freqs * float(turns))
    coeffs = np.fft.fft(values, axis=0)
    out = np.fft.ifft(coeffs * twist[:, None, None], axis=0)
    return np.ascontiguousarray(out.real)


def symmetry_check(u: GridFunction, relations, tol: float = 1e-12) -> dict:
    """Max pointwise violation of each relation; pass iff <= tol.

    Relations state sign * u_{perm[i]}(t + shift, flip x) = u_i(t, x); the
    space flip mirrors the symmetric Dirichlet grid exactly.
    """
    m_t = u.values.shape[0]
    out = {}
    for rel in relations:
        moved = u.values[:, :, list(rel.perm)]
        if rel.x_flip:
            moved = moved[:, ::-1, :]
        moved = _time_shift(moved, rel.t_shift_turns, m_t)
        violation = float(np.max(np.abs(rel.sign * moved - u.values)))
        out[rel] = {"violation": violation, "pass": violation <= tol}
    return out
