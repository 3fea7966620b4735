"""Independent numerical confirmation of the closed-form spectrum.

Two discretizations of the linearized operator
nu^2 d_tt - d_xx + delta d_t + beta S_tau + zeta(alpha)(L + 1):
a spectral one (time Fourier x transverse sine/cosine modes, exact delay
multiplier) whose eigenvalues must reproduce the closed-form products, and a
finite-difference one (periodic time grid, Dirichlet space grid, delay by
linear interpolation between time planes) that knows nothing about the
closed form and is used for smallest-singular-value scans near predicted
critical points.  Both are kept as eigenvalues, one array per isotypic
index: the FD blocks are normal, so theirs are read off the stencil's
symbol, and the spectral blocks split into 1 x 1 and 2 x 2 blocks, solved
in one batch.  Grid symmetry checks run the
machine-readable relations emitted by the prediction layer; periodic time
shifts are applied by exact trigonometric interpolation so band-limited data
loses no accuracy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ._lazy import np
from .bifurcation import folding_data
from .spectrum import ModelParams, mu_numerator

MAX_GRID_POINTS = 2_000_000  # cap on m_t * m_x of a discretization
MAX_EIGENFUNCTION_VALUES = 2_000_000  # cap on m_t * m_x * N; the symmetry check copies them
MAX_ASSEMBLY_VALUES = 8_000_000  # cap on the values of all blocks of one discretization


class Discretization(NamedTuple):
    """Eigenvalues of the linearized operator, one array per isotypic block."""

    mode: str  # "spectral" | "fd"
    m_t: int
    m_x: int
    blocks: dict  # isotypic index j -> that block's eigenvalues
    alpha: float
    beta: float


def check_assembly_size(n_blocks: int, mode: str, m_t: int, m_x: int):
    """Reject `n_blocks` isotypic blocks of a `mode` discretization over the cap."""
    # one block of eigenvalues per isotypic index j, shared by its k copies
    per_block = m_x + 2 * m_t * m_x if mode == "spectral" else m_t * m_x
    if n_blocks * per_block > MAX_ASSEMBLY_VALUES:
        raise ValueError(f"{n_blocks} {mode} blocks of {per_block} values exceed "
                         f"{MAX_ASSEMBLY_VALUES} values")


def assemble(
    params: ModelParams, alpha: float, beta: float, mode: str, m_t: int, m_x: int
) -> Discretization:
    if m_t < 4 or m_x < 4:
        raise ValueError("discretization sizes must be at least 4")
    if m_t * m_x > MAX_GRID_POINTS:
        raise ValueError(f"grid {m_t}x{m_x} exceeds {MAX_GRID_POINTS} points")
    if mode not in ("spectral", "fd"):
        raise ValueError("mode must be 'spectral' or 'fd'")
    check_assembly_size(len(params.eigendata.entries), mode, m_t, m_x)
    js = [j for j, _z, _mult in params.eigendata.entries]
    if mode == "fd":
        blocks = _fd_blocks(params, alpha, beta, js, m_t, m_x)
    else:
        blocks = {j: _spectral_block(params, alpha, beta, j, m_t, m_x) for j in js}
    return Discretization(mode, m_t, m_x, blocks, alpha, beta)


def _spectral_block(params, alpha, beta, j, m_t, m_x) -> np.ndarray:
    """Eigenvalues of the action on {v_n(x) cos(mt), v_n(x) sin(mt)} coefficients.

    Entries come from the operator's action on the basis functions (derivatives
    and the delay shift expanded by trigonometric identities), not from the
    closed form.  Each m = 0 mode is a 1 x 1 block, each (cos, sin) pair at
    m >= 1 a 2 x 2 block [[d, o], [-o, d]]; one batched eigvals solves them.
    """
    nu2 = float(params.nu) ** 2
    delta, tau = params.delta, params.tau
    cj = params.zeta.evaluate(alpha) * (params.eigendata.z(j) + 1.0)
    m = np.arange(1, m_t + 1, dtype=float)[:, None]
    n2 = np.arange(1, m_x + 1, dtype=float) ** 2
    diag = -nu2 * m * m + n2 + cj + beta * np.cos(m * tau)
    off = np.broadcast_to(delta * m - beta * np.sin(m * tau), diag.shape)
    pairs = np.stack([diag, off, -off, diag], axis=-1).reshape(-1, 2, 2)
    return np.concatenate([n2 + cj + beta, np.linalg.eigvals(pairs).ravel()])


def spectral_eigenvalue_deviation(
    disc: Discretization, params: ModelParams
) -> float:
    """Max distance between assembled eigenvalues and the closed-form products.

    The closed form predicts eigenvalues xi_{m,n} * mu_{m,n,j,k} together
    with conjugates for m >= 1; eigenvalue multisets are compared after
    lexicographic sorting.  The numerator is n^2 plus its value at n = 0, so
    one closed-form call per (j, m) gives a row over every n.
    """
    n2 = np.arange(1, disc.m_x + 1, dtype=float) ** 2
    worst = 0.0
    for j, got in disc.blocks.items():
        rows = np.array([mu_numerator(m, 0, j, 1, disc.alpha, disc.beta, params)
                         for m in range(disc.m_t + 1)])[:, None] + n2
        want = np.concatenate([rows[0], rows[1:].ravel(), rows[1:].conj().ravel()])
        got, want = _lex_sorted(got), _lex_sorted(want)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _lex_sorted(z: np.ndarray) -> np.ndarray:
    """Sort by real part rounded to 8 decimals, then by imaginary part."""
    return z[np.lexsort((z.imag, np.round(z.real, 8)))]


def _fd_blocks(params, alpha, beta, js, m_t, m_x) -> dict:
    """Eigenvalues of each FD block kron(C_t, I_x) + kron(I_t, -D_xx), by j.

    C_t is circulant: centred time derivatives, damping, the delay by linear
    interpolation between the two bracketing time planes, and cj.  -D_xx is
    the symmetric Dirichlet tridiagonal.  The summands commute and are
    normal, so a block's m_t * m_x eigenvalues are c_q + a_l with c_q the
    DFT of its time stencil and a_l the Dirichlet eigenvalues.  The stencils
    differ only in cj: one row each, one batched DFT, one a.
    """
    nu2 = float(params.nu) ** 2
    delta, tau = params.delta, params.tau
    scale = params.zeta.evaluate(alpha)
    cj = np.array([scale * (params.eigendata.z(j) + 1.0) for j in js])
    dt = 2.0 * math.pi / m_t
    dx = math.pi / (m_x + 1)

    stencil = np.zeros((len(js), m_t))  # entry a of a row multiplies u_{k-a}
    stencil[:, 0] = cj - 2.0 * nu2 / (dt * dt)
    stencil[:, 1] = nu2 / (dt * dt) - delta / (2.0 * dt)
    stencil[:, -1] = nu2 / (dt * dt) + delta / (2.0 * dt)
    s = tau / dt  # delay between the two bracketing time planes
    if not math.isfinite(s):
        raise ValueError(f"delay {tau} overflows the {m_t}-step time grid")
    s_hi = math.ceil(s)
    w = s_hi - s
    stencil[:, (s_hi - 1) % m_t] += beta * w
    stencil[:, s_hi % m_t] += beta * (1.0 - w)

    c = np.fft.fft(stencil, axis=1)
    a = (2.0 - 2.0 * np.cos(math.pi * np.arange(1, m_x + 1) / (m_x + 1))) / (dx * dx)
    return dict(zip(js, (c[:, :, None] + a).reshape(len(js), -1)))


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


class GridFunction(NamedTuple):
    """Samples of an N-component field on the periodic-time Dirichlet-space grid."""

    t_grid: np.ndarray  # m_t periodic samples of [0, 2 pi)
    x_grid: np.ndarray  # m_x interior samples of (-pi/2, pi/2)
    values: np.ndarray  # shape (m_t, m_x, N)


def transverse_profile(n: int, x: np.ndarray) -> np.ndarray:
    """v_n: cos(nx) for odd n, sin(nx) for even n (both vanish at x = +-pi/2)."""
    return np.cos(n * x) if n % 2 else np.sin(n * x)


def check_eigenfunction_size(N: int, m_t: int, m_x: int):
    """Reject an N-component eigenfunction grid over the cap."""
    if m_t * m_x * N > MAX_EIGENFUNCTION_VALUES:
        raise ValueError(f"grid {m_t}x{m_x} of {N} components exceeds "
                         f"{MAX_EIGENFUNCTION_VALUES} values")


def eigenfunction(
    N: int, m: int, n: int, j: int, kind: str, m_t: int, m_x: int
) -> GridFunction:
    """Model eigenfunction of the (m, n, j) block with the given symmetry kind.

    H is the traveling profile along the rotation eigenvector; T is the
    standing profile in its real part (fixed by a plain reflection) and S the
    complementary standing profile.
    """
    check_eigenfunction_size(N, m_t, m_x)
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
