"""Compare CLI outputs with the frozen reference outputs.

Integers, strings and booleans must match exactly.  Floats match within a
per-key tolerance: closed-form values to rtol 1e-9 (the reports' mu_zero
tolerance), `sigma_min` values relative to the Lanczos tolerance (1e-8)
with a factor-100 margin.  Values that are rounding noise by construction
(`spectral_deviation`, `max_violation`) are checked against their stated
bounds instead of against the reference.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
LANCZOS_TOL = 1e-8

# key -> (rtol, atol); None means "checked by a property, not by value"
KEY_TOLERANCES = {
    "sigma_min_center": (100 * LANCZOS_TOL, 0.0),
    "sigma_min_ring_min": (100 * LANCZOS_TOL, 0.0),
    "spectral_deviation": None,
    "max_violation": None,
}

# property checks that hold whatever the reference says
VERIFY_SPECTRAL_BOUND = 1e-10
EXPORT_VIOLATION_BOUND = 1e-12

# rows kept from large CSV outputs; all rows of small ones
CSV_ROW_STEP = 61
CSV_FULL_ROWS = 2_000


def floats_close(got, want, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    if math.isnan(got) or math.isnan(want):
        return False
    return abs(got - want) <= atol + rtol * abs(want)


def compare(got, want, path="$", key=None):
    """List of mismatch descriptions between two decoded JSON values."""
    tol = KEY_TOLERANCES.get(key, (DEFAULT_RTOL, DEFAULT_ATOL))
    if tol is None:
        return []
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float) or isinstance(got, float):
        if type(got) is not type(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [] if floats_close(got, want, *tol) else [
            f"{path}: {got!r} != {want!r} (rtol {tol[0]:g})"
        ]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{path}.{k}", k)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: lengths differ"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{i}]", key)
        return out
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def check_properties(command, payload):
    """Reference-free checks on one command's JSON report."""
    out = []
    if command == "verify":
        if payload.get("verdict") != "singular":
            out.append(f"verify verdict {payload.get('verdict')!r} is not 'singular'")
        if not payload.get("spectral_deviation", math.inf) <= VERIFY_SPECTRAL_BOUND:
            out.append(f"spectral_deviation {payload.get('spectral_deviation')!r} > 1e-10")
    if command == "export-eigenfunction":
        if not payload.get("max_violation", math.inf) <= EXPORT_VIOLATION_BOUND:
            out.append(f"max_violation {payload.get('max_violation')!r} > 1e-12")
    return out


def csv_digest(path: Path):
    """Header, row count, sampled rows and per-column float sums of a CSV file."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    step = 1 if len(body) <= CSV_FULL_ROWS else CSV_ROW_STEP
    sums = [0.0] * len(header)
    for row in body:
        for i, cell in enumerate(row):
            try:
                sums[i] += abs(float(cell))
            except ValueError:
                pass
    return {
        "header": header,
        "n_rows": len(body),
        "step": step,
        "rows": body[::step],
        "abs_sums": sums,
    }


def _cell(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def compare_csv(got, want, name):
    """Compare two `csv_digest` results cell by cell."""
    if got["header"] != want["header"] or got["n_rows"] != want["n_rows"]:
        return [f"{name}: header or row count differs"]
    out = []
    for r, (grow, wrow) in enumerate(zip(got["rows"], want["rows"])):
        out += compare([_cell(c) for c in grow], [_cell(c) for c in wrow], f"{name}:row{r}")
    for i, (g, w) in enumerate(zip(got["abs_sums"], want["abs_sums"])):
        if not floats_close(g, w, 1e-9, 1e-9):
            out.append(f"{name}: column {i} sums {g!r} != {w!r}")
    return out[:5]
