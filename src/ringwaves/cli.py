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
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

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
from .groups import dihedral_group, gamma_prime_lattice
from .reps import LaplacianEigendata, character_table, cycle_laplacian_eigendata
from .spectrum import (
    MU_ZERO_TOL,
    ModelParams,
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


@dataclasses.dataclass
class RunConfig:
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
        types = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        for key, value in data.items():
            if key not in types:
                raise ValueError(f"unknown config key {key!r}")
            _check_type(key, value, types[key])
            if key in CHOICES and value not in CHOICES[key]:
                raise ValueError(f"config key {key!r} must be one of {CHOICES[key]}, got {value!r}")
            setattr(cfg, key, value)
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(cfg, field.name, value)
    _check_rows("zeta_table", cfg.zeta_table, 2)
    _check_rows("eigendata", cfg.eigendata, 3)
    for row in cfg.eigendata or ():
        j, _z, mult = row
        if not (isinstance(j, int) and isinstance(mult, int)
                and 0 <= j <= cfg.N // 2 and mult >= 1):
            raise ValueError(f"eigendata row {row} needs an integer j in 0..{cfg.N // 2} "
                             "and a positive integer multiplicity")
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


def cmd_critical_points(cfg: RunConfig) -> int:
    params = cfg.params()
    pts = enumerate_critical_points(params, cfg.m_max, cfg.n_max, odd_m_only=cfg.mode == "h-fixed")
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
    params = cfg.params()
    report = predict_branches(params, cfg.m_max, cfg.n_max, mode=cfg.prediction_mode)
    payload = prediction_report_json(params, cfg.m_max, cfg.n_max, report)
    payload["schema"] = SCHEMA_VERSION
    payload["formulas"] = dict(FORMULA_TAGS)
    _emit(payload, cfg.out)
    return 0


def cmd_invariant(cfg: RunConfig) -> int:
    params = cfg.params()
    if cfg.alpha is None or cfg.beta is None:
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
    inv = fn(point, params, lattice, m_max=cfg.m_max, n_max=cfg.n_max)
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
    params = cfg.params()
    if cfg.ring_points < 1:
        raise ValueError(f"--ring-points must be at least 1, got {cfg.ring_points}")
    if cfg.alpha is not None and cfg.beta is not None:
        point = (cfg.alpha, cfg.beta)
    else:
        got = critical_point(*_block_indices(cfg), 1, params)
        if got is None:
            raise DegenerateParameterError("no critical point at the given indices")
        point = got
    rows = verify_mod.sigma_min_scan(
        params,
        point,
        cfg.ring_radius,
        m_t=cfg.grid_t,
        m_x=cfg.grid_x,
        n_ring=cfg.ring_points,
    )
    center = rows[0][2]
    ring_min = min(r[2] for r in rows[1:])
    spectral = verify_mod.spectral_eigenvalue_deviation(
        verify_mod.assemble(params, point[0], point[1], "spectral", 12, 10), params
    )
    verdict = "singular" if center <= 0.1 * ring_min else "no singularity"
    if cfg.out:
        path = Path(cfg.out)
        with path.with_suffix(".csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["d_alpha", "d_beta", "sigma_min"])
            writer.writerows(rows)
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


def cmd_export_eigenfunction(cfg: RunConfig) -> int:
    params = cfg.params()
    m, n, j = _block_indices(cfg)
    if cfg.grid_t < 1 or cfg.grid_x < 1:
        raise ValueError(
            f"--grid-t and --grid-x must be at least 1, got {cfg.grid_t}x{cfg.grid_x}")
    grid = verify_mod.eigenfunction(params.N, m, n, j, cfg.kind, cfg.grid_t, cfg.grid_x)
    rels = symmetry_relations(maximal_orbit_generators(params.N, m, n, j)[cfg.kind])
    checks = verify_mod.symmetry_check(grid, rels, tol=cfg.symmetry_tol)
    if not all(r["pass"] for r in checks.values()):
        raise ExactnessError("exported eigenfunction violates its own relations")
    out = cfg.out or f"eigenfunction_{cfg.kind}_{m}_{n}_{j}.csv"
    # the bytes csv.writer would write, one %-format per row; strings larger
    # than a row (a plane, the grid) fragment the heap of a long-lived caller
    row = ",".join(["%.16g"] * (params.N + 2)) + "\r\n"
    x_grid = grid.x_grid.tolist()
    with Path(out).open("w", newline="") as fh:
        csv.writer(fh).writerow(["t", "x"] + [f"u{i+1}" for i in range(params.N)])
        for t, plane in zip(grid.t_grid.tolist(), grid.values):
            for x, vals in zip(x_grid, plane.tolist()):
                fh.write(row % (t, x, *vals))
    summary = {
        "schema": SCHEMA_VERSION,
        "kind": cfg.kind,
        "m": m,
        "n": n,
        "j": j,
        "grid": [cfg.grid_t, cfg.grid_x],
        "relations": [r.to_json() for r in rels],
        "max_violation": max(r["violation"] for r in checks.values()),
        "tolerances": {"symmetry": cfg.symmetry_tol},
        "csv": str(out),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_group_tables(cfg: RunConfig) -> int:
    params = cfg.params()
    lattice = gamma_prime_lattice(params.N)
    outdir = Path(cfg.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    with (outdir / "classes.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "order", "weyl", "representative"])
        for c in range(lattice.n_classes):
            rep = lattice.reps[c]
            writer.writerow([c, rep.order, lattice.weyl[c], " ".join(map(str, rep.elems))])
    with (outdir / "subconjugation.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["H", "K", "n(H,K)"])
        for h in range(lattice.n_classes):
            for k in range(lattice.n_classes):
                if lattice.n_table[h][k]:
                    writer.writerow([h, k, lattice.n_table[h][k]])
    table = multiplication_table(lattice)
    with (outdir / "burnside_products.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["H", "K", "L", "coeff"])
        for (h, k), prod in sorted(table.items()):
            for low, coeff in sorted(prod.items()):
                writer.writerow([h, k, low, coeff])
    if cfg.characters:
        dn = dihedral_group(params.N)
        with (outdir / "characters.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            elems = [dn.elements[i] for i in range(dn.order)]
            writer.writerow(["irrep"] + [str(e) for e in elems])
            for ir in character_table(params.N):
                writer.writerow([ir.label] + [f"{ir.char(e):.12g}" for e in elems])
    eig = cycle_laplacian_eigendata(params.N)
    with (outdir / "laplacian.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "z", "multiplicity"])
        for j, z, mult in eig.entries:
            writer.writerow([j, f"{z:.16g}", mult])
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringwaves",
        description="Symmetry-certified bifurcation predictions for a ring of "
        "delayed, damped coupled wave equations.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--nu", help='wave frequency as a rational "p/q"')
    parser.add_argument("--delta", type=float, help="damping coefficient")
    parser.add_argument("--tau", type=float, help="feedback delay")
    parser.add_argument("--N", type=int, help="number of strings (>= 3)")
    parser.add_argument("--zeta", choices=CHOICES["zeta"], help="coupling curve")
    parser.add_argument("--m-max", dest="m_max", type=int)
    parser.add_argument("--n-max", dest="n_max", type=int)
    parser.add_argument("--mode", choices=CHOICES["mode"])
    parser.add_argument("--prediction-mode", dest="prediction_mode", choices=CHOICES["prediction_mode"])
    parser.add_argument("--m", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--j", type=int)
    parser.add_argument("--kind", choices=CHOICES["kind"])
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--grid-t", dest="grid_t", type=int)
    parser.add_argument("--grid-x", dest="grid_x", type=int)
    parser.add_argument("--ring-radius", dest="ring_radius", type=float)
    parser.add_argument("--ring-points", dest="ring_points", type=int)
    parser.add_argument("--characters", action="store_const", const=True)
    parser.add_argument("--symmetry-tol", dest="symmetry_tol", type=float)
    parser.add_argument("--out")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except OSError as exc:  # _load_config maps its own read errors; the rest are writes
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
