"""Workload definitions and request execution shared by run.py and child.py.

A workload is a fixed cycle of slots.  Each slot owns a frozen pool of
parameter variants (refs/<workload>.json.gz, made by make_refs.py at the
seed commit together with the reference outputs); the run's seed picks the
variant each slot uses in each cycle.  A request is one or two CLI
commands, run in-process through `ringwaves.cli.main` or in a fresh
interpreter through child.py.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = HERE / "out"
WORK = OUT / "work"

# placeholder for the per-request output directory in argv and references
WORK_TOKEN = "{work}"

# BLAS/OpenMP threads for this process and its children: the benchmark is a
# single client on one thread, and the machine may share its cores
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> how requests run, the set-up that makes the workload's structures
# ready, how many fresh set-ups setup_s is the median of, the fixed tail
# percentile (see stats.tail), and the fewest whole cycles an untraced run
# measures
WORKLOADS = {
    "predict-sweep": {
        "in_process": True,
        "setup": [["predict", "--N", str(n), "--m-max", "1", "--n-max", "1"] for n in (3, 5, 6, 7)],
        # one set-up builds every lattice and twisted context, about 8 s on a
        # 2-core VM; two keep a run near a minute
        "setup_samples": 2,
        "tail_percentile": 50,
        "min_cycles": 1,
    },
    "verify-scan": {
        "in_process": True,
        # a reduced grid still takes the sparse LU + Lanczos path (> 600 unknowns)
        "setup": [["verify", "--N", "3", "--grid-t", "32", "--grid-x", "32", "--ring-points", "2"]],
        "setup_samples": 3,
        "tail_percentile": 50,
        "min_cycles": 1,
    },
    "cold-structures": {
        "in_process": False,
        "setup": [],
        "setup_samples": 3,
        "tail_percentile": 50,
        # a cycle takes longer than a run, so two cycles put the median inside
        # a cluster of like requests and average throughput over twice the time
        "min_cycles": 2,
    },
}


def pin_threads(env):
    """Set the BLAS/OpenMP thread counts; call before numpy is imported."""
    for var in THREAD_VARS:
        env[var] = str(THREADS)


def source_present() -> bool:
    return (SRC / "ringwaves" / "cli.py").is_file()


def source_digest() -> str:
    """Short SHA-256 of the ringwaves sources, naming the program version."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringwaves").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_pool(workload):
    """Slots of a workload: [{"name", "variants": [{"steps": [...]}, ...]}, ...]."""
    with gzip.open(REFS / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)["slots"]


def variant_index(seed: int, slot: int, cycle: int, n_variants: int) -> int:
    """Seeded permutation of a slot's pool; cycle c takes its c-th entry."""
    order = list(range(n_variants))
    random.Random(f"{seed}:{slot}").shuffle(order)
    return order[cycle % n_variants]


def bind(argv, work: str):
    return [a.replace(WORK_TOKEN, work) for a in argv]


def run_in_process(cli, argv):
    """(exit code, stdout text, error text) of one in-process CLI command."""
    buf = io.StringIO()
    err = ""
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        rc, err = exc.code if isinstance(exc.code, int) else 1, "SystemExit"
    except Exception as exc:  # a raising request is a failed request
        rc, err = -1, f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), err


def run_child(argv, spans_path=None, timeout=170):
    """(exit code, stdout, stderr) of one CLI command in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd + ["--"] + list(argv), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


def run_setup(cli, workload):
    """Make the workload's structures ready through public CLI entry points."""
    for argv in WORKLOADS[workload]["setup"]:
        rc, _out, err = run_in_process(cli, argv)
        if rc != 0:
            raise RuntimeError(f"set-up command {argv} failed ({rc}): {err}")
