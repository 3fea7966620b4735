"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([3.0], 75) == 3.0
    # p50 is the median, and p25/p75 are statistics.quantiles' inclusive quartiles
    for n in range(2, 30):
        sample = [float((7 * v) % n) + v / 100.0 for v in range(n)]
        q1, _q2, q3 = statistics.quantiles(sample, n=4, method="inclusive")
        assert stats.percentile(sample, 50) == pytest.approx(statistics.median(sample))
        assert stats.percentile(sample, 25) == pytest.approx(q1)
        assert stats.percentile(sample, 75) == pytest.approx(q3)


def test_percentile_moves_by_part_of_one_sample():
    # one request of eight slowing by 0.4 s moves p50 by half of that, not by
    # the 0.9 s gap to the next slot's latency
    cycle = [0.3, 0.8, 1.3, 1.6, 2.5, 3.4, 7.5, 12.8]
    slower = [0.3, 0.8, 1.3, 1.6, 2.9, 3.4, 7.5, 12.8]
    moved = stats.percentile(slower, 50) - stats.percentile(cycle, 50)
    assert moved == pytest.approx(0.2)


def test_tail_counts_samples_beyond():
    values = list(range(48))
    value, beyond = stats.tail(values, 75)
    assert value == pytest.approx(35.25) and beyond == 12
    # p90 of 48 samples leaves fewer than ten beyond it
    assert stats.beyond(values, 90) == 5
    assert stats.beyond(list(range(21)), 50) == 10
    assert stats.beyond(list(range(20)), 50) == 10
    assert stats.beyond(list(range(8)), 50) == 4
    assert stats.tail([1.0, 2.0, 3.0], 100) == (3.0, 0)


def test_percentile_independent_of_whole_cycles():
    cycle = [0.1, 0.2, 0.3, 0.5, 0.8, 1.3, 2.1, 3.4, 5.5]
    for k in (1, 2, 3, 4, 5, 6):
        assert stats.percentile(cycle * k, 75) == pytest.approx(2.1)
        assert stats.percentile(cycle * k, 50) == pytest.approx(0.8)


def test_paired_overhead_cancels_drift():
    # the machine runs twice as slow for the second pair and the requests
    # differ in cost; each pair still shows the same 10% tracing cost
    pairs = [(1.1, 1.0), (4.4, 4.0), (0.33, 0.3)]
    assert stats.paired_overhead(pairs) == pytest.approx(0.1)
    assert stats.paired_overhead([(1.0, 1.2), (2.0, 1.9), (3.0, 2.95)]) == pytest.approx(0.05)


def test_self_time_subtracts_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: the union 1..6 counts once
        ["c", 1.5, 2.0, 1, 0],
        ["d", 9.0, 12.0, 0, 0],  # runs past the parent: clipped at 10
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 0.5, 3.0, 0.5, 3.0])
    totals = tracing.self_time_by_name(spans + [["root", 0.0, 1.0, -1, 1]], {0})
    assert totals["root"] == pytest.approx(4.0)


def test_self_times_sum_to_root_duration():
    spans = [["r", 0.0, 5.0, -1, 0], ["x", 0.5, 2.0, 0, 0], ["y", 1.0, 1.5, 1, 0], ["z", 3.0, 4.0, 0, 0]]
    assert sum(tracing.self_times(spans)) == pytest.approx(5.0)


def test_compare_exact_and_tolerant():
    want = {"n": 3, "s": "H", "ok": True, "alpha": 1.0, "sigma_min_center": 1e-3}
    assert compare.compare(dict(want), want) == []
    assert compare.compare(dict(want, alpha=1.0 + 1e-12), want) == []
    assert compare.compare(dict(want, alpha=1.0 + 1e-6), want)
    # sigma_min is held to the Lanczos tolerance times 100, not to 1e-9
    assert compare.compare(dict(want, sigma_min_center=1e-3 * (1 + 5e-7)), want) == []
    assert compare.compare(dict(want, sigma_min_center=1e-3 * (1 + 5e-6)), want)
    assert compare.compare(dict(want, n=4), want)
    assert compare.compare(dict(want, n=3.0), want)
    assert compare.compare(dict(want, ok=1), want)
    assert compare.compare(dict(want, s="T"), want)
    assert compare.compare({"n": 3}, want)


def test_noise_keys_are_checked_by_property_only():
    want = {"spectral_deviation": 1e-15, "verdict": "singular"}
    got = {"spectral_deviation": 3e-15, "verdict": "singular"}
    assert compare.compare(got, want) == []
    assert compare.check_properties("verify", got) == []
    assert compare.check_properties("verify", dict(got, spectral_deviation=1e-9))
    assert compare.check_properties("verify", dict(got, verdict="no singularity"))
    assert compare.check_properties("export-eigenfunction", {"max_violation": 1e-11})
    assert compare.check_properties("export-eigenfunction", {"max_violation": 1e-16}) == []


def test_csv_digest_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n" + "".join(f"{i},{i / 7:.16g},x{i}\n" for i in range(5000)))
    digest = compare.csv_digest(path)
    assert digest["n_rows"] == 5000 and digest["step"] == compare.CSV_ROW_STEP
    assert compare.compare_csv(digest, digest, "t") == []
    path.write_text(path.read_text().replace("4999,", "4998,"))
    assert compare.compare_csv(compare.csv_digest(path), digest, "t")


def test_variant_choice_is_seeded():
    picks = [workloads.variant_index(7, 2, c, 16) for c in range(16)]
    assert sorted(picks) == list(range(16))
    assert picks == [workloads.variant_index(7, 2, c, 16) for c in range(16)]
    assert picks != [workloads.variant_index(8, 2, c, 16) for c in range(16)]


@pytest.mark.skipif(not workloads.source_present(), reason="needs the ringwaves source tree")
def test_tracer_wraps_imported_names_and_restores():
    sys.path.insert(0, str(workloads.SRC))
    import ringwaves.bifurcation as bifurcation
    import ringwaves.cli as cli
    import ringwaves.reps as reps

    originals = (reps.fixed_dim, bifurcation.fixed_dim, cli.symmetry_relations)
    tracer = tracing.Tracer()
    tracer.request = 0
    tracer.install()
    try:
        assert reps.fixed_dim is bifurcation.fixed_dim is not originals[0]
        rels = cli.symmetry_relations("H", 3, 1, 1, 0)
    finally:
        tracer.uninstall()
    assert (reps.fixed_dim, bifurcation.fixed_dim, cli.symmetry_relations) == originals
    names = {span[0] for span in tracer.spans}
    assert {"bifurcation.relations", "bifurcation.generators", "reps.fixed_dim", "reps.closure"} <= names
    assert tracer.counts[0]["reps.closure.calls"] >= 1 and len(rels) == 4


def test_process_age_counts_from_process_start():
    code = "import time; time.sleep(0.3); import run; print(run.process_age())"
    out = subprocess.run([sys.executable, "-c", code], cwd=workloads.HERE, check=True,
                         capture_output=True, text=True).stdout
    # the child slept 0.3 s before it asked; the start time has 10 ms ticks
    assert 0.29 <= float(out) < 5.0
