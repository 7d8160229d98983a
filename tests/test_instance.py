import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netbargain.instance import (
    GeneratorSpec,
    Instance,
    InstanceError,
    canon,
    dumps,
    generate,
    loads,
    max_weight,
)
from netbargain.matching import odd_cycles


def test_load_minimal():
    inst = loads('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": "1.0"}]}')
    assert inst.n == 2 and inst.edges == ((0, 1, 1.0),)


def test_load_e2_document():
    doc = {"nodes": 3, "edges": [{"u": 0, "v": 1, "w": 2}, {"u": 1, "v": 2, "w": "1.0"}]}
    inst = loads(json.dumps(doc))
    assert inst.edges == ((0, 1, 2.0), (1, 2, 1.0))


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 0}]}', "non-positive"),
        ('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": -0.5}]}', "non-positive"),
        ('{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 5e-324}]}', "subnormal"),
        ('{"nodes": 2, "edges": [{"u": 0, "v": 3, "w": 1}]}', "dangling"),
        ('{"nodes": 2, "edges": [{"u": 1, "v": 1, "w": 1}]}', "self-loop"),
        (
            '{"nodes": 2, "edges": [{"u": 0, "v": 1, "w": 1}, {"u": 1, "v": 0, "w": 2}]}',
            "duplicate",
        ),
        ("{not json", "parse error"),
        ('{"edges": []}', "nodes"),
        ('{"nodes": 2, "edges": [{"u": 0.9, "v": 1.7, "w": 1}]}', "not an integer"),
        ('{"nodes": 2, "edges": [{"u": Infinity, "v": 1, "w": 1}]}', "not an integer"),
        ('{"nodes": 2, "edges": [{"u": 0, "v": true, "w": 1}]}', "not an integer"),
        ('{"nodes": true, "edges": []}', "'nodes' must be an integer"),
        ('{"nodes": 2, "edges": 5}', "'edges' must be a list"),
    ],
)
def test_load_rejects(doc, msg):
    with pytest.raises(InstanceError, match=msg):
        loads(doc)


def test_isolated_nodes_cost_no_memory():
    tracemalloc.start()
    try:
        inst = loads('{"nodes": 2000000, "edges": []}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert inst.neighbors(1_999_999) == () and inst.degree(0) == 0


def test_weight_is_keyed_by_canonical_edge(e4):
    for (u, v, w) in e4.edges:
        assert e4.weight(u, v) == e4.weight(v, u) == e4.weights[canon(u, v)] == w
    assert list(e4.weights) == [canon(u, v) for (u, v, _) in e4.edges]
    with pytest.raises(KeyError):
        e4.weight(0, 2)
    with pytest.raises(TypeError):
        e4.weights[(0, 2)] = 1.0


def test_max_weight(e2, t1):
    assert max_weight(e2) == 2.0
    assert max_weight(t1) == 1.0
    assert max_weight(Instance(2, ((0, 1, 0.5),))) == 0.5


def test_generate_path_is_e2(e2):
    inst = generate(GeneratorSpec("path", (3,), weights=(2.0, 1.0)))
    assert inst == e2


def test_generate_triangle_is_t1(t1):
    inst = generate(GeneratorSpec("odd_cycle", (3,), weights=(1.0, 1.0, 1.0)))
    assert inst.edge_set() == t1.edge_set()
    assert max_weight(inst) == 1.0


def test_generate_deterministic():
    spec = GeneratorSpec("blossom", (2, 5), seed=7)
    assert dumps(generate(spec)) == dumps(generate(spec))
    other = GeneratorSpec("blossom", (2, 5), seed=8)
    assert dumps(generate(other)) != dumps(generate(spec))


def test_generated_weights_positive_and_roundtrip():
    for seed in range(10):
        spec = GeneratorSpec("erdos_renyi", (6,), base=(1.0, 2.0), jitter=0.3, seed=seed)
        inst = generate(spec)
        assert all(w > 0 for (_, _, w) in inst.edges)
        assert loads(dumps(inst)) == inst


def test_blossom_bicycle_cycle_counts():
    blossom = generate(GeneratorSpec("blossom", (2, 5), seed=1))
    assert sum(1 for c in odd_cycles(blossom)) == 1
    bicycle = generate(GeneratorSpec("bicycle", (3, 2, 5), seed=1))
    assert sum(1 for c in odd_cycles(bicycle)) == 2


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("blossom", (1, 4)),  # even cycle length
        GeneratorSpec("blossom", (0, 5)),  # no stem
        GeneratorSpec("bicycle", (4, 1, 3)),
        GeneratorSpec("path", (1,)),
        GeneratorSpec("nonsense", (3,)),
        GeneratorSpec("path", (4,), weights=(1.0,)),  # wrong weight count
    ],
)
def test_generate_rejects_bad_parameters(spec):
    with pytest.raises(InstanceError):
        generate(spec)


def test_relabeled_permutation(e4):
    perm = [2, 0, 3, 1]
    out = e4.relabeled(perm)
    assert out.edge_set() == {(0, 2), (0, 3), (1, 3)}
    assert max_weight(out) == max_weight(e4)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=6))
def test_document_roundtrip_is_bit_exact(ws):
    inst = Instance(len(ws) + 1, tuple((i, i + 1, w) for i, w in enumerate(ws)))
    again = loads(dumps(inst))
    assert all(a == b for a, b in zip(inst.edges, again.edges))
