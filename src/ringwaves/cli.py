"""Command-line front end.

Subcommands: critical-points, predict, invariant, verify,
export-eigenfunction, group-tables.  Options come from an optional JSON
config file plus command-line overrides; the wave frequency is accepted only
as a rational string "p/q".  Exit codes: 0 success, 1 invalid input,
2 degenerate-parameter rejection, 3 internal exactness failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from ._lazy import np
from .bifurcation import (
    h_fixed_invariant,
    local_invariant,
    maximal_orbit_generators,
    predict_branches,
    prediction_report_json,
    symmetry_relations,
)
from .burnside import multiplication_table
from .errors import DegenerateParameterError, ExactnessError, RingwavesError
from .groups import check_gamma_prime_order, dihedral_group, gamma_prime_lattice
from .reps import LaplacianEigendata, character_table, cycle_laplacian_eigendata
from .spectrum import (
    MU_ZERO_TOL,
    ModelParams,
    check_window_size,
    critical_point,
    enumerate_critical_points,
    linear_curve,
    rho,
    sigmoid_curve,
    table_curve,
)
from .twisted import twisted_context
from . import verify as verify_mod

SCHEMA_VERSION = "1"

FORMULA_TAGS = {
    "beta0": "beta0 = delta*m / sin(m*tau)",
    "alpha0": "alpha0 = zeta_inv((nu^2 m^2 - n^2 - delta*m*cot(m*tau)) / (z_j + 1))",
    "rho": "rho = sign(-zeta'(alpha0)*(z_j+1)*sin(m*tau))",
    "mu": "mu = (-nu^2 m^2 + n^2 + i*delta*m + zeta(alpha)(z_j+1) + beta*e^{-i m tau}) / xi",
    "xi": "xi = -nu^2 m^2 + n^2 + i*delta*m + 1",
    "z": "z_j = 4 sin^2(pi j / N)",
    "sigma_min": "smallest singular value of the assembled linearization",
}


def _parse_nu(text: str) -> Fraction:
    """Wave frequency must arrive as an exact rational "p/q" (or integer)."""
    text = str(text).strip()
    parts = text.split("/")
    if not all(p.lstrip("+-").isdigit() for p in parts) or len(parts) > 2:
        raise ValueError(f'wave frequency must be a rational "p/q", got {text!r}')
    if len(parts) == 2 and int(parts[1]) == 0:
        raise ValueError(f"wave frequency has a zero denominator: {text!r}")
    return Fraction(text)


class RunConfig:
    """Run options: each annotated attribute is a field with its default.

    `build_parser` and `_load_config` read the fields, in order, and their
    type strings from `__annotations__`; an instance holds what a config
    file or a flag set.
    """

    nu: str | int = "1/1"
    delta: float = 1.0
    tau: float = 2.0
    N: int = 3
    zeta: str = "sigmoid"
    m_max: int = 5
    n_max: int = 5
    mode: str = "h-fixed"  # "full" | "h-fixed"
    prediction_mode: str = "global"  # "local" | "global"
    m: int | None = None
    n: int | None = None
    j: int | None = None
    kind: str = "H"
    alpha: float | None = None
    beta: float | None = None
    grid_t: int = 128
    grid_x: int = 64
    ring_radius: float = 0.1
    ring_points: int = 8
    characters: bool = False
    symmetry_tol: float = 1e-12
    zeta_table: list | None = None  # [[alpha, value], ...] for the table curve
    eigendata: list | None = None  # [[j, z, multiplicity], ...] override
    out: str | None = None

    def params(self) -> ModelParams:
        frac = _parse_nu(self.nu)
        if self.zeta == "sigmoid":
            curve = sigmoid_curve()
        elif self.zeta == "linear":
            curve = linear_curve()
        elif self.zeta == "table":
            if not self.zeta_table:
                raise ValueError("table coupling curve needs zeta_table points")
            curve = table_curve([tuple(p) for p in self.zeta_table])
        else:
            raise ValueError(f"unknown coupling curve {self.zeta!r}")
        eig = None
        if self.eigendata:
            eig = LaplacianEigendata(
                tuple((int(j), float(z), int(mult)) for j, z, mult in self.eigendata)
            )
        return ModelParams(
            nu=frac, delta=self.delta, tau=self.tau, N=self.N, zeta=curve, eigendata=eig
        )


# allowed values of the choice fields, for flags and config files alike
CHOICES = {
    "zeta": ("sigmoid", "linear", "table"),
    "mode": ("full", "h-fixed"),
    "prediction_mode": ("local", "global"),
    "kind": ("H", "S", "T"),
}

_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "list": list}


def _check_type(key: str, value, annotation: str):
    """Reject a config value whose JSON type does not fit the field."""
    names = annotation.split(" | ")
    if value is None and "None" in names:
        return
    allowed = tuple(_JSON_TYPES[n] for n in names if n != "None")
    if isinstance(value, bool) != ("bool" in names) or not isinstance(value, allowed):
        raise ValueError(f"config key {key!r} must be {annotation}, got {value!r}")


def _check_rows(key: str, rows, width: int):
    for row in rows or ():
        if not (isinstance(row, list) and len(row) == width
                and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row)):
            raise ValueError(f"config key {key!r} needs rows of {width} numbers, got {row!r}")


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read config file: {exc}") from exc
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        types = RunConfig.__annotations__
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            _check_type(key, value, types[key])
            if key in CHOICES and value not in CHOICES[key]:
                raise ValueError(f"config key {key!r} must be one of {CHOICES[key]}, got {value!r}")
            setattr(cfg, key, value)
    for name in RunConfig.__annotations__:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    for key in ("alpha", "beta"):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    if (cfg.alpha is None) != (cfg.beta is None):
        raise ValueError("alpha and beta must be given together")
    _check_rows("zeta_table", cfg.zeta_table, 2)
    _check_rows("eigendata", cfg.eigendata, 3)
    # an N-component field holds each isotypic block at most N times
    for row in cfg.eigendata or ():
        j, z, mult = row
        if not (isinstance(j, int) and isinstance(mult, int)
                and 0 <= j <= cfg.N // 2 and 1 <= mult <= cfg.N):
            raise ValueError(f"eigendata row {row} needs an integer j in 0..{cfg.N // 2} "
                             f"and an integer multiplicity in 1..{cfg.N}")
        if not 0 <= z <= sys.float_info.max:
            raise ValueError(f"eigendata row {row} needs a finite eigenvalue z >= 0")
    return cfg


def _emit(payload, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _block_indices(cfg: RunConfig) -> tuple[int, int, int]:
    """(m, n, j) for verify and export: m and n default to 1, j to 0."""
    m = 1 if cfg.m is None else cfg.m
    n = 1 if cfg.n is None else cfg.n
    if m < 1 or n < 1:
        raise ValueError(f"--m and --n must be at least 1, got m = {m}, n = {n}")
    return m, n, 0 if cfg.j is None else cfg.j


def _check_window(cfg: RunConfig, odd_m_only: bool):
    """The window cap of enumerate_critical_points, before cfg.params() builds
    the N/2 + 1 eigendata rows."""
    rows = sum(row[2] for row in cfg.eigendata) if cfg.eigendata else cfg.N // 2 + 1
    check_window_size(rows, cfg.m_max, cfg.n_max, odd_m_only)


def cmd_critical_points(cfg: RunConfig) -> int:
    odd_m_only = cfg.mode == "h-fixed"
    _check_window(cfg, odd_m_only)
    params = cfg.params()
    pts = enumerate_critical_points(params, cfg.m_max, cfg.n_max, odd_m_only=odd_m_only)
    rows = [
        {
            "m": p.quad.m,
            "n": p.quad.n,
            "j": p.quad.j,
            "k": p.quad.k,
            "alpha": p.alpha,
            "beta": p.beta,
            "rho": rho(p.quad.m, p.quad.n, p.quad.j, p.quad.k, params, (p.alpha, p.beta)),
        }
        for p in pts
    ]
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "formulas": {k: FORMULA_TAGS[k] for k in ("alpha0", "beta0", "rho")},
            "tolerances": {"mu_zero": MU_ZERO_TOL},
            "window": {"m_max": cfg.m_max, "n_max": cfg.n_max},
            "tau_near_pi_rational": params.tau_near_pi_rational,
            "critical_points": rows,
        },
        cfg.out,
    )
    return 0


def cmd_predict(cfg: RunConfig) -> int:
    check_gamma_prime_order(cfg.N)  # before cfg.params() builds N/2 + 1 eigendata rows
    _check_window(cfg, odd_m_only=True)  # predict_branches scans odd m only
    params = cfg.params()
    report = predict_branches(params, cfg.m_max, cfg.n_max, mode=cfg.prediction_mode)
    payload = prediction_report_json(params, cfg.m_max, cfg.n_max, report)
    payload["schema"] = SCHEMA_VERSION
    payload["formulas"] = dict(FORMULA_TAGS)
    _emit(payload, cfg.out)
    return 0


def cmd_invariant(cfg: RunConfig) -> int:
    check_gamma_prime_order(cfg.N)  # before cfg.params() builds N/2 + 1 eigendata rows
    params = cfg.params()
    if cfg.alpha is None:  # _load_config takes alpha and beta together or not at all
        if cfg.m is None or cfg.n is None or cfg.j is None:
            raise ValueError("invariant needs either (alpha, beta) or (m, n, j)")
        got = critical_point(cfg.m, cfg.n, cfg.j, 1, params)
        if got is None:
            raise DegenerateParameterError(
                "no critical point: required coupling value is out of range"
            )
        point = got
    else:
        point = (cfg.alpha, cfg.beta)
    lattice = gamma_prime_lattice(params.N)
    fn = local_invariant if cfg.mode == "full" else h_fixed_invariant
    inv = fn(point, params, lattice)
    ctx = twisted_context(lattice)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "mode": cfg.mode,
            "alpha": point[0],
            "beta": point[1],
            "value": [
                {"orbit_type": ctx.type_str(t), "coeff": v}
                for t, v in inv.value.coeffs
            ],
            "contributions": [
                {"m": q.m, "n": q.n, "j": q.j, "k": q.k, "rho": s}
                for q, s in inv.contributions
            ],
            "sigma_minus": list(inv.sets.sigma_minus),
            "formulas": {k: FORMULA_TAGS[k] for k in ("mu", "rho")},
            "tolerances": {"mu_zero": MU_ZERO_TOL},
        },
        cfg.out,
    )
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    spectral_grid = ("spectral", 12, 10)  # the cross-check's discretization
    # the caps of verify.assemble, before cfg.params() builds N/2 + 1 eigendata rows
    n_blocks = len(cfg.eigendata) if cfg.eigendata else cfg.N // 2 + 1
    for mode, m_t, m_x in (("fd", cfg.grid_t, cfg.grid_x), spectral_grid):
        verify_mod.check_assembly_size(n_blocks, mode, m_t, m_x)
    params = cfg.params()
    if cfg.ring_points < 1:
        raise ValueError(f"--ring-points must be at least 1, got {cfg.ring_points}")
    if not 0 < cfg.ring_radius < float("inf"):
        raise ValueError(f"--ring-radius must be positive and finite, got {cfg.ring_radius}")
    if cfg.out and Path(cfg.out).suffix == ".csv":
        raise ValueError(f"--out {cfg.out} ends in .csv, the name of the ring CSV beside it")
    if cfg.alpha is not None:
        point = (cfg.alpha, cfg.beta)
    else:
        got = critical_point(*_block_indices(cfg), 1, params)
        if got is None:
            raise DegenerateParameterError("no critical point at the given indices")
        point = got
    # an overflow or nan, say from a beta near the top of the float range,
    # raises here instead of printing a warning and reaching the report
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rows = verify_mod.sigma_min_scan(
            params,
            point,
            cfg.ring_radius,
            m_t=cfg.grid_t,
            m_x=cfg.grid_x,
            n_ring=cfg.ring_points,
        )
        spectral = verify_mod.spectral_eigenvalue_deviation(
            verify_mod.assemble(params, point[0], point[1], *spectral_grid), params
        )
    center = rows[0][2]
    ring_min = min(r[2] for r in rows[1:])
    verdict = "singular" if center <= 0.1 * ring_min else "no singularity"
    if cfg.out:
        _write_csv(Path(cfg.out).with_suffix(".csv"), ["d_alpha", "d_beta", "sigma_min"], rows)
    _emit(
        {
            "schema": SCHEMA_VERSION,
            "alpha": point[0],
            "beta": point[1],
            "grid": [cfg.grid_t, cfg.grid_x],
            "ring_radius": cfg.ring_radius,
            "sigma_min_center": center,
            "sigma_min_ring_min": ring_min,
            "spectral_deviation": spectral,
            "verdict": verdict,
            "formulas": {"sigma_min": FORMULA_TAGS["sigma_min"]},
            "tolerances": {"spectral": 1e-10, "singularity_ratio": 0.1},
        },
        cfg.out,
    )
    return 0


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_grid_csv(grid: verify_mod.GridFunction, path) -> None:
    """The export CSV of a grid: the bytes csv.writer writes for rows of
    t, x and the N components, each cell formatted "%.16g".

    A model eigenfunction is a separable product, so most of its magnitudes
    repeat: each distinct one is formatted once, and a cell is a reference
    to its text behind a "," or, when the sign bit is set (-0.0 too), a
    ",-" separator.  No text is made per cell or per sign.
    """
    values = grid.values
    m_x, n_comp = values.shape[1:]
    # 0.0 and -0.0 share a bit pattern once the sign is cleared, and so a text
    magnitudes, which = np.unique(np.abs(values).ravel().view(np.int64), return_inverse=True)
    texts = np.fromiter(map(b"%.16g".__mod__, memoryview(magnitudes.view(np.float64))),
                        dtype=object, count=len(magnitudes))
    separators = np.array([b",", b",-"], dtype=object)
    # one time plane's tokens, a row each: "t," x (separator text) * N CRLF
    row = np.empty((m_x, 2 * n_comp + 3), dtype=object)
    row[:, 1] = [b"%.16g" % x for x in grid.x_grid.tolist()]
    row[:, -1] = b"\r\n"
    header = ",".join(["t", "x"] + [f"u{i+1}" for i in range(n_comp)]) + "\r\n"
    # a plane's text outgrows the default 8 KiB buffer: without a larger
    # one, every plane would be a write call of its own
    with Path(path).open("wb", buffering=1 << 16) as fh:
        fh.write(header.encode())
        planes = zip(grid.t_grid.tolist(), which.reshape(values.shape),
                     np.signbit(values).view(np.uint8))
        for t, cells, negative in planes:
            row[:, 0] = b"%.16g," % t
            row[:, 2:-1:2] = separators[negative]
            row[:, 3:-1:2] = texts[cells]
            fh.write(b"".join(row.ravel().tolist()))


def cmd_export_eigenfunction(cfg: RunConfig) -> int:
    # before cfg.params() builds N/2 + 1 eigendata rows
    verify_mod.check_eigenfunction_size(cfg.N, cfg.grid_t, cfg.grid_x)
    params = cfg.params()
    m, n, j = _block_indices(cfg)
    if cfg.grid_t < 1 or cfg.grid_x < 1:
        raise ValueError(
            f"--grid-t and --grid-x must be at least 1, got {cfg.grid_t}x{cfg.grid_x}")
    if n % (cfg.grid_x + 1) == 0:
        # the profile cos(nx) or sin(nx) vanishes at every x sample
        # -pi/2 + pi k / (grid_x + 1), and a zero grid passes every relation
        raise ValueError(f"--grid-x {cfg.grid_x} samples the transverse mode n = {n} only at "
                         f"its zeros: grid_x + 1 must not divide n")
    if not cfg.symmetry_tol >= 0:
        raise ValueError(f"--symmetry-tol must be at least 0, got {cfg.symmetry_tol}")
    generators = maximal_orbit_generators(params.N, m, n, j)
    # a kind the block lacks has no relations here; eigenfunction rejects it
    rels = symmetry_relations(generators[cfg.kind]) if cfg.kind in generators else []
    # a shift off the time grid is a trigonometric interpolation, exact for
    # cos(m t) only above the Nyquist rate
    if (cfg.grid_t <= 2 * m
            and any((r.t_shift_turns * cfg.grid_t).denominator != 1 for r in rels)):
        raise ValueError(f"--grid-t {cfg.grid_t} is too coarse for m = {m}: kind {cfg.kind} "
                         f"shifts time off the grid, exact only above 2m = {2 * m} samples")
    grid = verify_mod.eigenfunction(params.N, m, n, j, cfg.kind, cfg.grid_t, cfg.grid_x)
    checks = verify_mod.symmetry_check(grid, rels, tol=cfg.symmetry_tol)
    violation = max(r["violation"] for r in checks.values())
    if not all(r["pass"] for r in checks.values()):
        message = (f"exported eigenfunction violates its own relations by {violation:.3g}, "
                   f"above --symmetry-tol {cfg.symmetry_tol:g}")
        # below the default tolerance a failure is the user's choice, not a defect
        raise (ValueError if cfg.symmetry_tol < RunConfig.symmetry_tol else ExactnessError)(message)
    out = cfg.out or f"eigenfunction_{cfg.kind}_{m}_{n}_{j}.csv"
    write_grid_csv(grid, out)
    summary = {
        "schema": SCHEMA_VERSION,
        "kind": cfg.kind,
        "m": m,
        "n": n,
        "j": j,
        "grid": [cfg.grid_t, cfg.grid_x],
        "relations": [r.to_json() for r in rels],
        "max_violation": violation,
        "tolerances": {"symmetry": cfg.symmetry_tol},
        "csv": str(out),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_group_tables(cfg: RunConfig) -> int:
    check_gamma_prime_order(cfg.N)  # before cfg.params() builds N/2 + 1 eigendata rows
    params = cfg.params()
    lattice = gamma_prime_lattice(params.N)
    outdir = Path(cfg.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "classes.csv", ["class", "order", "weyl", "representative"],
               ([c, len(rep), lattice.weyl[c], " ".join(map(str, rep))]
                for c, rep in enumerate(lattice.reps)))
    _write_csv(outdir / "subconjugation.csv", ["H", "K", "n(H,K)"],
               ([h, k, count] for h, row in enumerate(lattice.n_table)
                for k, count in enumerate(row) if count))
    # the table holds its pairs, and each product its classes, in ascending order
    rows = "".join(f"{h},{k},{low},{coeff}\r\n" for (h, k), prod
                   in multiplication_table(lattice).items() for low, coeff in prod.items())
    (outdir / "burnside_products.csv").write_text("H,K,L,coeff\r\n" + rows, newline="")
    if cfg.characters:
        dn = dihedral_group(params.N)
        elems = [dn.elements[i] for i in range(dn.order)]
        _write_csv(outdir / "characters.csv", ["irrep"] + [str(e) for e in elems],
                   ([ir.label] + [f"{ir.char(e):.12g}" for e in elems]
                    for ir in character_table(params.N)))
    _write_csv(outdir / "laplacian.csv", ["j", "z", "multiplicity"],
               ([j, f"{z:.16g}", mult] for j, z, mult in cycle_laplacian_eigendata(params.N).entries))
    print(json.dumps({"schema": SCHEMA_VERSION, "outdir": str(outdir)}, sort_keys=True))
    return 0


COMMANDS = {
    "critical-points": cmd_critical_points,
    "predict": cmd_predict,
    "invariant": cmd_invariant,
    "verify": cmd_verify,
    "export-eigenfunction": cmd_export_eigenfunction,
    "group-tables": cmd_group_tables,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is invalid input: exit 1, one line
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        # argparse takes only -1 and -1.5 for negative numbers, so "--alpha
        # -1e-1" or "--beta -inf" would read the value as an unknown option
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


_FLAG_TYPES = {"int": int, "float": float}  # other flags keep their string

# the flags with a help text; the others show only their name
_HELP = {
    "nu": 'wave frequency as a rational "p/q"',
    "delta": "damping coefficient",
    "tau": "feedback delay",
    "N": "number of strings (>= 3)",
    "zeta": "coupling curve",
}


@functools.cache  # each add_argument queries the terminal size; build once per process
def build_parser() -> argparse.ArgumentParser:
    """One flag per RunConfig field, --m-max for m_max; list fields are config-only."""
    parser = _Parser(
        prog="ringwaves",
        description="Symmetry-certified bifurcation predictions for a ring of "
        "delayed, damped coupled wave equations.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    for name, annotation in RunConfig.__annotations__.items():
        kind = annotation.split(" | ")[0]
        if kind == "list":
            continue
        if kind == "bool":
            how = {"action": "store_const", "const": True}
        else:
            how = {"type": _FLAG_TYPES.get(kind), "choices": CHOICES.get(name)}
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            help=_HELP.get(name), **how)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args)
        return COMMANDS[args.command](cfg)
    except DegenerateParameterError as exc:
        print(f"degenerate parameters: {exc}", file=sys.stderr)
        return 2
    except ExactnessError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RingwavesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # numpy raises the first under verify's np.errstate; a float conversion
    # raises the second for a config integer of 400 digits, say
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: a parameter is out of float range: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # _load_config maps its own read errors; the rest are writes
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
