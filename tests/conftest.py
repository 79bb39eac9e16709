import random

import pytest

from vconn import from_edge_list
from vconn.testkit import GenSpec, gen_random

FIG1_EDGES = [
    (4, 7), (0, 3), (3, 5), (4, 0), (4, 5), (5, 4), (6, 0), (0, 6), (7, 0),
    (0, 7), (7, 6), (6, 7), (3, 0), (5, 3), (0, 4), (2, 3), (4, 1), (1, 2),
]

FIG1_COMPONENTS = [(0, 3, 4, 5), (0, 6, 7)]


def bidirected(pairs):
    out = []
    for u, v in pairs:
        out.append((u, v))
        out.append((v, u))
    return out


@pytest.fixture
def fig1():
    return from_edge_list(8, FIG1_EDGES)


@pytest.fixture
def c3():
    return from_edge_list(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def tri():
    return from_edge_list(3, bidirected([(0, 1), (1, 2), (0, 2)]))


@pytest.fixture
def k4b():
    return from_edge_list(4, [(u, v) for u in range(4) for v in range(4) if u != v])


@pytest.fixture
def bowtie():
    return from_edge_list(5, bidirected([(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]))


def mixed_random_graph(seed: int, max_n: int = 8):
    """One seeded graph of mixed size/density; deterministic in seed."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(0, n * (n - 1))
    if n >= 6 and rng.random() < 0.1:
        spec = GenSpec(n=n, m=min(m, n * (n - 1)), model="planted", seed=seed,
                       sizes=(3, 3), strongly_connected=rng.random() < 0.5)
    else:
        spec = GenSpec(n=n, m=m, model="uniform", seed=seed,
                       strongly_connected=n >= 2 and rng.random() < 0.4)
    return gen_random(spec)


def mixed_corpus(count: int, base_seed: int = 0, max_n: int = 8):
    return [mixed_random_graph(base_seed + i, max_n) for i in range(count)]


def dense_corpus(count: int, base_seed: int, max_n: int):
    """Seeded graphs of 4..max_n vertices, each ordered pair an edge with one
    probability p in [0.4, 0.9] per graph: dense enough that some pieces
    meet the degree bound of ``connectivity._dense`` and some do not."""
    graphs = []
    for seed in range(base_seed, base_seed + count):
        rng = random.Random(seed)
        n = rng.randint(4, max_n)
        p = rng.uniform(0.4, 0.9)
        graphs.append(from_edge_list(
            n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
        ))
    return graphs


def dense_accepts(monkeypatch, module):
    """Spy on ``module._dense``: the list it returns collects the size of
    each piece that the degree bound accepts, so that is output untested."""
    accepted = []
    real = module._dense

    def spy(h, k):
        result = real(h, k)
        if result:
            accepted.append(h.n)
        return result

    monkeypatch.setattr(module, "_dense", spy)
    return accepted


# Graph sets that the benchmark's workloads build with seed 1, shared by the
# tests that pin their work; graph i of set j has generator seed
# 1000 + 100 j + i.  kvcc3_s, cut_s, sparsify2_s and sparsify3_s run the
# uniform-4n set, and kvcc3_s and both sparsifier workloads the kvcc-dense one.
KVCC_DENSE_SET = [
    GenSpec(n=51, m=51, model="planted", seed=1000 + i, sizes=(6,) * 10, strongly_connected=True)
    for i in range(16)
]
UNIFORM_CUT_SET = [GenSpec(n=30, m=120, seed=1100 + i, strongly_connected=True) for i in range(28)]
