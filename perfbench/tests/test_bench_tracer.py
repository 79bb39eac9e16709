"""The tracer rebinds every vconn binding of a wrapped object and restores them."""

import sys

import vconn  # noqa: F401  (loads every vconn module the tracer targets)
import vconn.cli  # noqa: F401
from tracer import TARGETS, Tracer
from vconn.testkit import GenSpec, gen_random


def vconn_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "vconn" or name.startswith("vconn.")
        for attr, value in vars(mod).items()
    }


def originals():
    found = []
    for _, module, qualname in TARGETS:
        owner, _, attr = qualname.rpartition(".")
        obj = getattr(sys.modules[module], owner) if owner else sys.modules[module]
        found.append(getattr(obj, attr))
    return found


def test_every_binding_is_wrapped_and_restored():
    before = vconn_bindings()
    methods = originals()
    tracer = Tracer().install()
    try:
        assert tracer.missing == []
        wrapped_ids = {id(f) for f in methods}
        leftovers = [key for key, value in vconn_bindings().items() if id(value) in wrapped_ids]
        assert leftovers == []
        assert vconn.DiGraph.__init__.__wrapped__ in methods
        assert vconn.articulation._scc_ids is vconn.twovcc._scc_ids is vconn.connectivity._scc_ids
    finally:
        tracer.uninstall()
    after = vconn_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert originals() == methods


def test_calls_through_every_namespace_are_counted():
    g = gen_random(GenSpec(n=26, m=26, model="planted", seed=3, sizes=(6,) * 5, strongly_connected=True))
    with Tracer() as tracer:
        with tracer.request("kvcc3"):
            vconn.k_vccs(g, 3)
        with tracer.request("sparsify2"):
            vconn.sparsify_problem2(g)
    stats = tracer.stats
    assert stats["twovcc.two_vccs_split"].calls >= 2  # from k_vccs and the sparsifier
    assert stats["kvcc._global_min_cut"].calls >= 1
    assert stats["flow.max_flow"].calls == stats["flow.FlowNetwork"].calls
    assert tracer.counters["flow.arcs"] > 0
    assert stats["sparsify._edge_set_is_2vc"].calls > 0
    assert stats["connectivity._scc_ids"].calls > 0
    for s in stats.values():
        assert 0 <= s.self_s <= s.total_s + 1e-9
    spans = tracer.spans
    assert all(span is not None for span in spans)
    roots = [i for i, span in enumerate(spans) if span[3] == -1]
    assert [spans[i][0] for i in roots] == ["kvcc3", "sparsify2"]
    for i, (_, start, end, parent, request) in enumerate(spans):
        assert start <= end and request in roots
        if parent != -1:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_a_missing_target_is_reported_not_fatal():
    targets = TARGETS + (("graph.gone", "vconn.graph", "no_such_function"),
                         ("nomodule.gone", "vconn.nomodule", "f"))
    with Tracer(targets) as tracer:
        vconn.two_vccs(gen_random(GenSpec(n=12, m=30, seed=1)))
    assert tracer.missing == ["graph.gone", "nomodule.gone"]
    assert tracer.stats["twovcc.two_vccs_split"].calls == 1
