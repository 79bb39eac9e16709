"""Workload generation is a function of the seed, and the benchmark refuses
to run without the library's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import vconn
import vconn.testkit
import run
import workloads as wl

BENCH = Path(run.__file__).resolve().parent


def graphs(workload, seed):
    return [
        vconn.testkit.gen_random(spec).edges
        for j, gs in enumerate(workload.sets)
        for spec in gs.specs(vconn, seed, j)
    ]


def test_generators_are_deterministic_per_seed():
    for workload in wl.WORKLOADS.values():
        first = graphs(workload, 5)
        assert graphs(workload, 5) == first
        assert graphs(workload, 6) != first


def test_every_call_kind_runs_on_every_workload():
    for workload in wl.WORKLOADS.values():
        assert sorted(k for gs in workload.sets for k in gs.kinds) == sorted(wl.KINDS)


def test_recorded_fingerprints_match():
    recorded = json.loads((BENCH / "fingerprints.json").read_text())["kvcc-dense"]
    sets = [
        (gs, [vconn.testkit.gen_random(spec) for spec in gs.specs(vconn, 0, j)], [])
        for j, gs in enumerate(wl.WORKLOADS["kvcc-dense"].sets)
    ]
    refs = [[vconn.two_vccs_domtree(g) for g in gs_graphs] for _, gs_graphs, _ in sets]
    _, digest = run.fingerprint(vconn, sets, refs)
    assert recorded["0"] == digest


def test_benchmark_spec_lists_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {*wl.KINDS, "setup_s", "peak_rss_mb"}


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) == (None, None)
    assert run.tail_percentile(list(range(20)))[0] == 50
    assert run.tail_percentile(list(range(100))) == (90, 90)
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kvcc-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_sums_per_graph_medians_of_scaled_calls():
    ref = run.CAL_REF_S
    samples = {
        ("twovcc_s", 0, 0): [(1.0, ref), (3.0, ref), (2.0, ref)],
        ("twovcc_s", 0, 1): [(1.0, 2 * ref)],
        ("sap_s", 0, 0): [(0.5, ref)],
    }
    assert run.kind_values(samples) == {"twovcc_s": 2.5, "sap_s": 0.5}
    assert run.kind_stats(samples)["twovcc_s"]["wall_s"] == 3.0
