"""vconn benchmark: end-to-end call times per workload, per-layer spans when traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload uniform-4n --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller in one process makes each call after the previous one returns
(a closed loop).  A pass makes every call kind of the workload once on each
of its graphs, repeating calls cheaper than ``BATCH_S``; passes repeat until
``--seconds`` have gone, and the first pass always completes.  Each
end-to-end time metric is one call kind summed over the workload's graphs,
taking per graph the median of its calls, in seconds scaled to a reference
machine speed (see ``Calibrator``); the raw wall sums are printed beside
them.  ``cli_2vcc_s`` times a ``python -m vconn.cli 2vcc FILE`` process from
start to exit.  Outputs are checked after the timed window (see
``checks.py``); a call that raises or fails its check counts as failed, and
any failure makes the exit code 1.

With ``--trace 1`` the run reports the per-layer metrics instead: untraced
passes fill half the window, then exactly one pass runs with the tracer
installed (so call counts repeat exactly for a seed), then the engine probe
times ``two_vccs_split`` and ``two_vccs_domtree`` on every graph.  The CLI
runs in-process through ``cli.run`` in these runs so its parsing shows up
as spans.  ``overhead.<metric>`` is the traced pass against the untraced
passes of the same run.  Per-layer times are unscaled wall seconds.

The last line of stdout is the JSON result.  Details of every run go to
``perfbench/out/results/``; spans go to ``perfbench/out/spans/``.

``peak_rss_mb`` is the process's peak resident memory less its resident
memory before the first set-up, so the interpreter and the calibration's
array do not count.
"""

from __future__ import annotations

import argparse
import array
import collections
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from reference import nontrivial_dominators, scc_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
BATCH_S = 0.03  # cheap calls repeat within a pass until they add up to this
CAL_REF_S = 0.005  # calibration time at which the scaled metrics are given
CAL_GRAPH_N = 1000  # vertices of the calibration graph
CAL_GRAPH_SEED = 12345
CAL_CHASE = 1 << 21  # slots of the calibration's pointer-chase array (16 MB)
CAL_STEPS = 30000  # pointer-chase steps per calibration
CAL_WINDOW = 3  # calibrations whose median scales a batch
PERCENTILES = (99, 95, 90, 75, 50)
SPARSIFY_PROBLEM = {"sparsify2_s": 2, "sparsify3_s": 3}


def tail_percentile(samples):
    """Highest of PERCENTILES with at least ten samples beyond it."""
    ordered = sorted(samples)
    for p in PERCENTILES:
        if len(ordered) * (100 - p) / 100 >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
    return None, None


def unload_vconn() -> None:
    """Forget the imported vconn modules, so that the next import reads them."""
    for name in [n for n in sys.modules if n == "vconn" or n.startswith("vconn.")]:
        del sys.modules[name]


def load_vconn():
    """Import vconn from this checkout's ``src``."""
    vconn = importlib.import_module("vconn")
    importlib.import_module("vconn.cli")
    importlib.import_module("vconn.testkit")
    if Path(vconn.__file__).resolve().parent != SRC / "vconn":
        raise ImportError(f"vconn imported from {vconn.__file__}, not from {SRC}")
    return vconn


def setup(workload: wl.Workload, seed: int):
    """Import vconn, generate the graphs and write the CLI's edge-list files."""
    vconn = load_vconn()
    sets = []
    for j, gs in enumerate(workload.sets):
        graphs = [vconn.testkit.gen_random(spec) for spec in gs.specs(vconn, seed, j)]
        paths = []
        if "cli_2vcc_s" in gs.kinds:
            for i, g in enumerate(graphs):
                path = OUT / "graphs" / f"{workload.name}-{j}-{i}.txt"
                path.write_text(vconn.format_edge_list(g), encoding="ascii")
                paths.append(path)
        sets.append((gs, graphs, paths))
    return vconn, sets


def fingerprint(vconn, sets, references):
    """Per graph: n, m, edge-set digest, SCC count, 2-VCC count, largest 2-VCC."""
    rows = []
    for (_, graphs, _), refs in zip(sets, references):
        for g, ref in zip(graphs, refs):
            digest = hashlib.sha256(repr(sorted(g.edges)).encode()).hexdigest()[:16]
            rows.append(
                {
                    "n": g.n,
                    "m": g.m,
                    "edges": digest,
                    "sccs": len(vconn.strongly_connected_components(g).components),
                    "two_vccs": len(ref),
                    "largest": max((len(c) for c in ref), default=0),
                }
            )
    return rows, hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def rss_mb() -> tuple[float, float]:
    """The process's current and peak resident memory, in MB."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    current = pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    return current, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "vconn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


class Calibrator:
    """Fixed work in the benchmark's own code, timed before each batch of calls.

    On a shared 2-vCPU virtual machine the speed drifted by up to 2x within
    tens of seconds, for the calibration and the library alike.  A call's
    scaled time is its wall time times ``CAL_REF_S`` over the calibration
    time: its wall time on a machine where the calibration takes
    ``CAL_REF_S``.  The calibration has a compute
    part (SCCs and both dominator trees of a seeded 1000-vertex graph) and a
    memory part (a pointer chase through a 16 MB array), because the drift
    slows the two unequally and the library does both; the calibration time
    is their geometric mean, as the median of the last ``CAL_WINDOW`` measurements.
    """

    def __init__(self):
        self.recent: collections.deque = collections.deque(maxlen=CAL_WINDOW)
        n = CAL_GRAPH_N
        rng = random.Random(CAL_GRAPH_SEED)
        order = list(range(n))
        rng.shuffle(order)
        out = [set() for _ in range(n)]  # a spanning cycle, then random arcs
        for i in range(n):
            out[order[i - 1]].add(order[i])
        for u in range(n):
            while len(out[u]) < 4:
                v = rng.randrange(n)
                if v != u:
                    out[u].add(v)
        self.succ = [sorted(row) for row in out]
        self.pred = [[] for _ in range(n)]
        for u in range(n):
            for v in self.succ[u]:
                self.pred[v].append(u)
        # x -> (a x + 1) mod 2^k visits every slot once per cycle when a = 1 mod 4.
        # Filled in place, so building it never holds more than the array.
        self.ring = array.array("q", [0]) * CAL_CHASE
        for i in range(CAL_CHASE):
            self.ring[i] = (2_654_435_761 * i + 1) & (CAL_CHASE - 1)

    def measure(self) -> float:
        gc.collect()
        clock = time.perf_counter
        start = clock()
        scc_count(CAL_GRAPH_N, self.succ, self.pred)
        nontrivial_dominators(CAL_GRAPH_N, self.succ, self.pred, 0)
        nontrivial_dominators(CAL_GRAPH_N, self.pred, self.succ, 0)
        mid = clock()
        ring, x = self.ring, 0
        for _ in range(CAL_STEPS):
            x = ring[x]
        end = clock()
        self.recent.append(math.sqrt((mid - start) * (end - mid)))
        return statistics.median(self.recent)


class Runner:
    """Runs the workload's calls, keeps their timings and first outputs."""

    def __init__(self, vconn, sets, workload_name: str, calibrator: Calibrator):
        self.vconn = vconn
        self.calibrator = calibrator
        self.tasks = []  # (kind, set index, graph index)
        for j, (gs, graphs, _) in enumerate(sets):
            for i in range(len(graphs)):
                self.tasks.extend((kind, j, i) for kind in gs.kinds)
        self.sets = sets
        self.capture = OUT / "graphs" / f"{workload_name}-cli-stdout.txt"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        self.first: dict = {}
        self.failed: set = set()  # tasks whose output differed or that raised
        self.failures = 0
        self.attempted = 0

    def call(self, task, in_process_cli: bool):
        kind, j, i = task
        _, graphs, paths = self.sets[j]
        gc.collect()
        clock = time.perf_counter
        if kind == "cli_2vcc_s" and not in_process_cli:
            with open(self.capture, "w", encoding="ascii") as out:
                start = clock()
                proc = subprocess.run(
                    [sys.executable, "-m", "vconn.cli", "2vcc", str(paths[i])],
                    stdout=out, stderr=subprocess.PIPE, env=self.env, cwd=ROOT, timeout=150,
                )
                elapsed = clock() - start
            if proc.returncode != 0:
                raise RuntimeError(f"vconn 2vcc exited {proc.returncode}: {proc.stderr[-500:]!r}")
            return elapsed, self.capture.read_text(encoding="ascii")
        start = clock()
        if kind == "cli_2vcc_s":
            output = wl.run_cli_in_process(self.vconn, str(paths[i]))
        else:
            output = wl.LIBRARY_CALLS[kind](self.vconn, graphs[i])
        return clock() - start, output

    def run_task(self, task, samples: dict, in_process_cli: bool, batch_s: float = BATCH_S) -> None:
        """Call ``task`` until the calls add up to ``batch_s`` (at least once),
        after one calibration; ``samples[task]`` gets (wall s, calibration s)."""
        spent = 0.0
        cal = self.calibrator.measure()
        while True:
            self.attempted += 1
            try:
                elapsed, output = self.call(task, in_process_cli)
            except Exception:  # a failed call is counted and reported, never fatal
                traceback.print_exc(file=sys.stderr)
                self.failures += 1
                self.failed.add(task)
                return
            samples.setdefault(task, []).append((elapsed, cal))
            if task not in self.first:
                self.first[task] = output
            elif output != self.first[task]:
                print(f"output of {task} changed between calls", file=sys.stderr)
                self.failures += 1
                self.failed.add(task)
            spent += elapsed
            if spent >= batch_s:
                return

    def passes(self, seconds: float, in_process_cli: bool) -> dict:
        """Whole passes over the tasks until ``seconds`` have gone; the first
        pass always completes.  Returns the timings per task."""
        samples: dict = {}
        deadline = time.perf_counter() + seconds
        first = True
        while first or time.perf_counter() < deadline:
            for task in self.tasks:
                if not first and time.perf_counter() >= deadline:
                    break
                self.run_task(task, samples, in_process_cli)
            first = False
        return samples


def scaled(sample) -> float:
    wall, cal = sample
    return wall * CAL_REF_S / cal


def kind_values(samples: dict, scale=scaled) -> dict[str, float]:
    """Per call kind: sum over graphs of the median time of that graph's calls."""
    values: dict[str, float] = {}
    for (kind, _, _), calls in samples.items():
        values[kind] = values.get(kind, 0.0) + statistics.median(map(scale, calls))
    return values


def kind_stats(samples: dict) -> dict[str, dict]:
    """Per call kind: call count, wall-time sum as ``kind_values`` takes it,
    and the median and tail percentile of single scaled calls."""
    by_kind: dict[str, list[float]] = {}
    for (kind, _, _), calls in samples.items():
        by_kind.setdefault(kind, []).extend(map(scaled, calls))
    wall = kind_values(samples, scale=lambda sample: sample[0])
    stats = {}
    for kind, times in by_kind.items():
        p, value = tail_percentile(times)
        stats[kind] = {"calls": len(times), "wall_s": wall[kind], "median_call_s": statistics.median(times),
                       "tail_percentile": p, "tail_call_s": value}
    return stats


def check_outputs(runner: Runner, references, checks) -> list[str]:
    """Full check of each task's first output; later outputs were compared
    with it as they came."""
    problems = []
    for task, output in runner.first.items():
        kind, j, i = task
        g = runner.sets[j][1][i]
        ref = references[j][i]
        if kind == "twovcc_s":
            found = checks.check_two_vccs(g, output, ref)
        elif kind == "cli_2vcc_s":
            found = checks.check_two_vccs(g, checks.parse_components(output), ref)
        elif kind == "sap_s":
            found = checks.check_saps(g, output)
        elif kind in ("sparsify2_s", "sparsify3_s"):
            found = checks.check_sparsifier(g, SPARSIFY_PROBLEM[kind], output, ref)
        elif kind == "kvcc3_s":
            found = checks.check_three_vccs(g, output)
        else:
            found = checks.check_cut(g, output)
        if found:
            problems.extend(f"{task}: {p}" for p in found)
            if task not in runner.failed:
                runner.failed.add(task)
                runner.failures += 1
    return problems


def engine_probe(vconn, sets):
    """Untraced split and domtree on every graph; returns the two sums and
    the graphs on which they disagree."""
    split_s = domtree_s = 0.0
    disagree = []
    for j, (_, graphs, _) in enumerate(sets):
        for i, g in enumerate(graphs):
            gc.collect()
            start = time.perf_counter()
            a = vconn.two_vccs_split(g)
            mid = time.perf_counter()
            b = vconn.two_vccs_domtree(g)
            end = time.perf_counter()
            split_s += mid - start
            domtree_s += end - mid
            if a != b:
                disagree.append((j, i))
    return split_s, domtree_s, disagree


def layer_values(tracer, untraced: dict, traced: dict) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, st in tracer.stats.items():
        values[f"{name}.calls"] = st.calls
        values[f"{name}.s"] = st.total_s
        values[f"{name}.self_s"] = st.self_s
    values.update(tracer.counters)
    base = kind_values(untraced)
    for kind, value in kind_values(traced).items():
        values[f"overhead.{kind}"] = value / base[kind] if base.get(kind) else float("nan")
    return values


def run_workload(args, spec) -> int:
    workload = wl.WORKLOADS[args.workload]
    (OUT / "graphs").mkdir(parents=True, exist_ok=True)
    calibrator = Calibrator()
    gc.collect()
    # peak_rss_mb is the peak above this floor: the interpreter, the
    # benchmark's modules and the calibrator, none of them the library's.
    rss_floor, peak_before = rss_mb()
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        # The previous set-up becomes garbage, collected by the calibration,
        # so that two set-ups never share the peak.
        vconn = sets = None
        unload_vconn()
        cal = calibrator.measure()
        start = time.perf_counter()
        vconn, sets = setup(workload, args.seed)
        setup_samples.append((time.perf_counter() - start, cal))
    import checks  # binds the vconn modules of the last setup

    references = [[vconn.two_vccs_domtree(g) for g in graphs] for _, graphs, _ in sets]
    rows, digest = fingerprint(vconn, sets, references)
    recorded = json.loads((BENCH / "fingerprints.json").read_text()).get(workload.name, {})
    if str(args.seed) in recorded and recorded[str(args.seed)] != digest:
        print(f"error: the {workload.name} graphs for seed {args.seed} no longer match "
              f"perfbench/fingerprints.json (the generator changed?)", file=sys.stderr)
        return 3

    gc.collect()
    gc.freeze()
    runner = Runner(vconn, sets, workload.name, calibrator)
    env = environment()
    result = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "fingerprint": rows,
              "fingerprint_sha256": digest, "fingerprint_recorded": str(args.seed) in recorded}
    if args.trace:
        from tracer import Tracer

        untraced = runner.passes(args.seconds / 2, in_process_cli=True)
        tracer = Tracer()
        with tracer:
            traced = {}
            for task in runner.tasks:
                with tracer.request(task[0]):
                    runner.run_task(task, traced, in_process_cli=True, batch_s=0.0)
        split_s, domtree_s, disagree = engine_probe(vconn, sets)
        runner.attempted += sum(len(graphs) for _, graphs, _ in sets)
        runner.failures += len(disagree)
        values = layer_values(tracer, untraced, traced)
        values["twovcc.two_vccs_split.s"] = split_s
        values["twovcc.two_vccs_domtree.s"] = domtree_s
        wanted = spec["per_layer"]
        result["missing_targets"] = tracer.missing
        (OUT / "spans").mkdir(exist_ok=True)
        tracer.write_spans(OUT / "spans" / f"{workload.name}-seed{args.seed}.jsonl")
        samples = untraced
    else:
        samples = runner.passes(args.seconds, in_process_cli=False)
        values = kind_values(samples)
        values["setup_s"] = statistics.median(map(scaled, setup_samples))
        values["peak_rss_mb"] = rss_mb()[1] - rss_floor
        wanted = spec["end_to_end"]
        disagree = []
    problems = check_outputs(runner, references, checks)
    problems.extend(f"split and domtree disagree on graph {d}" for d in disagree)

    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    stats = kind_stats(samples)
    failed_ratio = runner.failures / runner.attempted

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  commit {env['commit']}  nproc {env['nproc']}")
    for name, m in metrics.items():
        line = f"  {name:44s} {m['value']:.6g} {m['unit']}"
        if name in stats:
            s = stats[name]
            tail = f"p{s['tail_percentile']} {s['tail_call_s']:.4g} s" if s["tail_percentile"] else "tail n/a"
            line += (f"   wall {s['wall_s']:.4g} s; per call: median {s['median_call_s']:.4g} s, "
                     f"{tail}, {s['calls']} calls")
        print(line)
    print(f"  {'failed_ratio':44s} {failed_ratio:.6g} ratio   ({runner.failures} of {runner.attempted})")
    if missing:
        print(f"  missing: {', '.join(missing)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    result.update(rss_floor_mb=rss_floor, peak_rss_before_setup_mb=peak_before,
                  setup_samples=setup_samples, calibration_ref_s=CAL_REF_S, per_kind=stats,
                  failed_ratio=failed_ratio, problems=problems, missing_metrics=missing,
                  metrics=metrics)
    (OUT / "results").mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (OUT / "results" / name).write_text(json.dumps(result, indent=1, default=str))
    correct = runner.failures == 0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failures, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            total["correct"] = False
            continue
        part = json.loads(lines[-1])
        total["correct"] &= part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(total))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "vconn" / "__init__.py").is_file():
        print(f"error: no vconn sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args, json.loads((ROOT / "BENCHMARK.json").read_text()))


if __name__ == "__main__":
    sys.exit(main())
