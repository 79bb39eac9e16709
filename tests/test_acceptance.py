"""Acceptance suite: one test per criterion, in order.

Each test prints a `[criterion NN] PASS ...` line (visible with -s or -rA);
corpora are seeded and shared across tests at module scope.
"""

import random
import statistics
import time

import pytest

from vconn import (
    from_edge_list,
    induced_subgraph,
    is_2vertex_connected,
    is_strongly_connected,
    k_vccs,
    sparsify_problem1,
    sparsify_problem2,
    sparsify_problem3,
    strong_articulation_points,
    strongly_connected_components,
    three_vccs,
    two_vccs,
    two_vccs_split,
)
from vconn.cli import bench
from vconn.dominators import dominator_tree
from vconn.errors import NotStronglyConnected
from vconn.testkit import (
    GenSpec,
    brute_dominators,
    brute_k_vccs,
    brute_mscss,
    brute_opt_sparsifier,
    brute_sap,
    brute_two_vccs,
    check_domtree_structure,
    gen_random,
)
from vconn.twovcc import VARIANTS

from conftest import FIG1_COMPONENTS, FIG1_EDGES, mixed_corpus


def _report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS {text}")


@pytest.fixture(scope="module")
def fig1_g():
    return from_edge_list(8, FIG1_EDGES)


@pytest.fixture(scope="module")
def corpus_small():
    """>= 1000 seeded digraphs, n <= 8, mixed densities."""
    return mixed_corpus(1000, base_seed=1_000_000)


@pytest.fixture(scope="module")
def corpus_medium():
    """>= 200 seeded digraphs, 12 <= n <= 60, beyond oracle reach."""
    graphs = []
    for i in range(200):
        seed = 2_000_000 + i
        rng = random.Random(seed)
        n = rng.randint(12, 60)
        density = rng.choice([1.5, 2.0, 3.0, 4.0])
        m = min(int(n * density), n * (n - 1))
        if rng.random() < 0.5:
            k = rng.choice([3, 4, 5])
            count = rng.randint(1, max(1, (n - 1) // (k - 1)))
            spec = GenSpec(n=n, m=m, model="planted", seed=seed, sizes=(k,) * count,
                           strongly_connected=rng.random() < 0.5)
        else:
            spec = GenSpec(n=n, m=m, model="uniform", seed=seed,
                           strongly_connected=rng.random() < 0.5)
        graphs.append(gen_random(spec))
    return graphs


@pytest.fixture(scope="module")
def corpus_nine():
    """>= 300 seeded digraphs with n <= 9 for the 3-vcc oracle."""
    return mixed_corpus(300, base_seed=3_000_000, max_n=9)


@pytest.fixture(scope="module")
def corpus_2vc():
    """>= 200 2-vertex-connected graphs, n <= 7, within the oracle's
    m <= 20 budget."""
    graphs = []
    seed = 4_000_000
    while len(graphs) < 200:
        seed += 1
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        m = rng.randint(2 * n + 2, min(20, n * (n - 1)))
        g = gen_random(GenSpec(n=n, m=m, model="uniform", seed=seed,
                               strongly_connected=True))
        if g.m <= 20 and is_2vertex_connected(g):
            graphs.append(g)
    return graphs


@pytest.fixture(scope="module")
def corpus_strong():
    """>= 200 strongly connected graphs, n <= 7, m <= 14."""
    graphs = []
    for i in range(200):
        seed = 5_000_000 + i
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        m = rng.randint(n, min(14, n * (n - 1)))
        graphs.append(gen_random(GenSpec(n=n, m=m, model="uniform", seed=seed,
                                         strongly_connected=True)))
    return graphs


def test_criterion_01_figure1_reproduction(fig1_g):
    timings = {}
    for algo in VARIANTS:
        best = min(
            _timed(lambda a=algo: two_vccs(fig1_g, a)) for _ in range(3)
        )
        timings[algo] = best
        comps = two_vccs(fig1_g, algo)
        assert comps == FIG1_COMPONENTS, algo
        covered = set().union(*map(set, comps))
        assert 1 not in covered and 2 not in covered
        assert best < 0.010, f"{algo} took {best * 1e3:.2f} ms"
    worst = max(timings.values())
    _report(1, f"all four variants reproduce Figure 1, slowest {worst * 1e3:.2f} ms")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_02_oracle_equivalence_2vcc(corpus_small):
    assert len(corpus_small) >= 1000
    start = time.perf_counter()
    for g in corpus_small:
        expected = brute_two_vccs(g)
        for algo in VARIANTS:
            got = two_vccs(g, algo)
            assert got == expected, (algo, g.n, g.edges)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"{len(corpus_small)} graphs x 4 variants == oracle in {elapsed:.1f} s")


def test_criterion_03_oracle_equivalence_sap_and_dominators(corpus_small):
    rng = random.Random(333)
    dom_checked = 0
    for g in corpus_small:
        if g.n == 0:
            continue
        parts = strongly_connected_components(g)
        union = set()
        for comp in parts.components:
            if len(comp) >= 2:
                sub = induced_subgraph(g, comp)
                union.update(comp[i] for i in strong_articulation_points(sub))
        assert union == brute_sap(g), g.edges
        # Dominator check on a flowgraph piece of the same graph.
        if len(parts.components) == 1 and g.n >= 1:
            roots = {0, rng.randrange(g.n)}
            target = g
        else:
            comp = max(parts.components, key=len)
            if len(comp) < 2:
                continue
            target = induced_subgraph(g, comp)
            roots = {0, rng.randrange(target.n)}
        for root in roots:
            tree = dominator_tree(target, root)
            implied = {}
            for u in range(target.n):
                chain = {u}
                w = u
                while w != root:
                    w = tree.idom[w]
                    chain.add(w)
                implied[u] = frozenset(chain)
            assert implied == brute_dominators(target, root)
            dom_checked += 1
    assert dom_checked >= 500
    _report(3, f"SAP union == oracle on all graphs; {dom_checked} dominator trees == oracle")


def test_criterion_04_cross_algorithm_agreement_at_scale(corpus_medium):
    assert len(corpus_medium) >= 200
    for g in corpus_medium:
        reference = two_vccs(g, "es")
        for algo in ("split", "domtree", "per-vertex"):
            assert two_vccs(g, algo) == reference, (algo, g.n, g.m)
    _report(4, f"es/split/domtree/per-vertex identical on {len(corpus_medium)} graphs up to n=60")


def _structure_holds(g, comps, rng):
    parts = strongly_connected_components(g)
    for scc in parts.components:
        if len(scc) < 3:
            continue
        inside = [c for c in comps if set(c) <= set(scc)]
        if not inside:
            continue
        sub = induced_subgraph(g, scc)
        index = {v: i for i, v in enumerate(scc)}
        local = [tuple(index[v] for v in c) for c in inside]
        for _ in range(3):
            root = rng.randrange(sub.n)
            if not check_domtree_structure(sub, root, local):
                return False
    return True


def test_criterion_05_domtree_structure_theorem(corpus_small, corpus_medium):
    rng = random.Random(55)
    for g in corpus_small + corpus_medium:
        comps = two_vccs(g, "domtree")
        assert _structure_holds(g, comps, rng), g.edges
    _report(5, "sibling-set structure holds for every component, 3 random roots per SCC")


def test_criterion_06_component_invariants(corpus_small, corpus_nine):
    extra = mixed_corpus(50, base_seed=6_000_000, max_n=10)
    for g in corpus_small + corpus_nine + extra:
        comps = two_vccs_split(g)
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                assert len(set(comps[i]) & set(comps[j])) <= 1
        assert not comps or sum(len(c) for c in comps) < 3 * g.n
        if g.n <= 10:
            for comp in comps:
                assert is_2vertex_connected(induced_subgraph(g, comp))
                for v in range(g.n):
                    if v not in comp:
                        assert not is_2vertex_connected(
                            induced_subgraph(g, set(comp) | {v})
                        )
    _report(6, "pairwise overlap <= 1, size sum < 3n, maximality up to n=10")


def test_criterion_07_kvcc(corpus_nine):
    assert len(corpus_nine) >= 300
    for g in corpus_nine:
        assert three_vccs(g) == brute_k_vccs(g, 3), g.edges
        assert k_vccs(g, 2) == two_vccs_split(g)
        for k in (2, 3, 4):
            comps = k_vccs(g, k)
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    assert len(set(comps[i]) & set(comps[j])) <= k - 1
    _report(7, f"three_vccs == oracle on {len(corpus_nine)} graphs; k=2 delegates; overlaps <= k-1")


def test_criterion_08_sparsification_validity(corpus_small, fig1_g):
    assert sparsify_problem1(fig1_g).size == 14
    assert sparsify_problem2(fig1_g).size == 17
    for g in corpus_small:
        r1 = sparsify_problem1(g)
        assert r1.certificate_ok, g.edges
        r3 = sparsify_problem3(g)
        assert r3.certificate_ok, g.edges
        if g.n >= 1 and is_strongly_connected(g):
            r2 = sparsify_problem2(g)
            assert r2.certificate_ok and r2.strongly_connected, g.edges
        else:
            with pytest.raises(NotStronglyConnected):
                sparsify_problem2(g)
    _report(8, "certificates exact on all graphs; FIG1 sizes 14 (P1) and 17 (P2)")


def test_criterion_09_sparsification_ratio(corpus_2vc, corpus_strong):
    assert len(corpus_2vc) >= 200 and len(corpus_strong) >= 200
    from vconn import approx_2vcss, approx_mscss

    worst_num, worst_den = 0, 1
    for g in corpus_2vc:
        achieved = len(approx_2vcss(g))
        optimum = len(brute_opt_sparsifier(g, 1))
        assert 2 * achieved <= 3 * optimum, (achieved, optimum, g.edges)
        if achieved * worst_den > worst_num * optimum:
            worst_num, worst_den = achieved, optimum
    mworst_num, mworst_den = 0, 1
    for g in corpus_strong:
        achieved = len(approx_mscss(g))
        optimum = len(brute_mscss(g))
        assert achieved <= 2 * optimum, (achieved, optimum, g.edges)
        if g.n >= 2 and achieved * mworst_den > mworst_num * optimum:
            mworst_num, mworst_den = achieved, optimum
    _report(
        9,
        f"2vcss ratio <= 1.5 (worst {worst_num}/{worst_den}), "
        f"mscss ratio <= 2 (worst {mworst_num}/{mworst_den})",
    )


def test_criterion_10_empirical_scaling_informational(tmp_path):
    sizes = [100, 200, 400, 800]
    records = bench(sizes, ["es", "split"], repetitions=3, seed=101)
    csv_path = tmp_path / "bench_report.csv"
    with open(csv_path, "w", encoding="ascii") as handle:
        handle.write("algo,n,m,nanos,components,seed\n")
        for record in records:
            handle.write(record.csv_row() + "\n")
    ratios = []
    for n in sizes:
        es = statistics.median(r.nanos for r in records if r.algo == "es" and r.n == n)
        split = statistics.median(r.nanos for r in records if r.algo == "split" and r.n == n)
        ratios.append(es / split)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    verdict = "monotone" if monotone else "NOT monotone (informational only)"
    _report(
        10,
        "es/split median ratios "
        + ", ".join(f"n={n}: {r:.1f}" for n, r in zip(sizes, ratios))
        + f" -> {verdict}; CSV archived at {csv_path}",
    )


def test_criterion_11_smoke_performance():
    spec = GenSpec(n=2000, m=0, model="planted", seed=11, sizes=(4,) * 666)
    g = gen_random(spec)
    assert g.n == 2000 and 7500 <= g.m <= 8500
    start = time.perf_counter()
    comps = two_vccs_split(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"two_vccs_split took {elapsed:.2f} s"
    assert len(comps) == 666
    _report(11, f"two_vccs_split on n=2000, m={g.m}: {elapsed:.2f} s (< 5 s)")
