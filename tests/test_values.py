"""The value contract of the public record types: equality, hashing, repr,
immutability and pickling.  Each case builds two equal instances afresh, lists
instances that differ from them in one field, and names a field to assign."""

import hashlib
import inspect
import pickle

import pytest

from dmp.bounds import (Gnp, Model, RandomBipartite, RandomTree, TheoremSpec, _holds,
                        _neighbor_sets)
from dmp.constructions import ConstructionInstance, FamilyInfo
from dmp.graph import from_edge_list
from dmp.solver import MonotonePath, MpResult, SearchLimits, SearchStats


def _graph(*edges):
    return from_edge_list(3, list(edges))


def _stats(seconds=0.5):
    return SearchStats(2, 1, 2, seconds)


def _result(value=2, vertices=(0, 1), stats=None):
    return MpResult(value, MonotonePath(vertices), stats or _stats())


def _instance(**changes):
    fields = dict(family="path", params={"n": 3}, graph=_graph((0, 1), (1, 2)),
                  operation="subdivide", target=(0, 1), claimed_mp_before=2,
                  claimed_mp_after=3)
    return ConstructionInstance(**{**fields, **changes})


def _info(**changes):
    fields = dict(name="path", params=(("n", 3),), theorem="subdivision", tight="high",
                  note="path P_n", build=max)
    return FamilyInfo(**{**fields, **changes})


def _spec(**changes):
    fields = dict(id="t", operation="add-vertex", hypothesis=_holds, bounds=max,
                  targets=_neighbor_sets, model=None)
    return TheoremSpec(**{**fields, **changes})


# name: (make, [one field changed], repr, a field, equals the tuple of its fields)
CASES = {
    "Graph": (
        lambda: _graph((0, 1), (1, 2)), [_graph((0, 1)), from_edge_list(4, [(0, 1), (1, 2)])],
        "Graph(n=3, adj=((1,), (0, 2), (1,)))", "n", False),
    "MpResult": (
        _result, [_result(value=3), _result(vertices=(1, 0))],
        "MpResult(value=2, witness=MonotonePath(vertices=(0, 1)), "
        "stats=SearchStats(nodes=2, components=1, largest_component=2, seconds=0.5))",
        "value", False),
    "SearchLimits": (
        lambda: SearchLimits(7), [SearchLimits(8), SearchLimits()],
        "SearchLimits(node_budget=7)", "node_budget", False),
    "MonotonePath": (
        lambda: MonotonePath((0, 1)), [MonotonePath((1, 0))],
        "MonotonePath(vertices=(0, 1))", "vertices", True),
    "SearchStats": (
        _stats, [SearchStats(3, 1, 2, 0.5), SearchStats(2, 2, 2, 0.5),
                 SearchStats(2, 1, 3, 0.5), _stats(0.25)],
        "SearchStats(nodes=2, components=1, largest_component=2, seconds=0.5)", "nodes", True),
    "ConstructionInstance": (
        _instance, [_instance(family="cycle"), _instance(params={"n": 4}),
                    _instance(graph=_graph((0, 1))), _instance(operation="contract"),
                    _instance(target=(1, 2)), _instance(claimed_mp_before=1),
                    _instance(claimed_mp_after=4)],
        "ConstructionInstance(family='path', params={'n': 3}, graph=Graph(n=3, adj=("
        "(1,), (0, 2), (1,))), operation='subdivide', "
        "target=(0, 1), claimed_mp_before=2, claimed_mp_after=3)", "target", True),
    "FamilyInfo": (
        _info, [_info(name="cycle"), _info(params=(("n", 4),)), _info(theorem=None),
                _info(tight="low"), _info(note=""), _info(build=min)],
        "FamilyInfo(name='path', params=(('n', 3),), theorem='subdivision', tight='high', "
        "note='path P_n', build=<built-in function max>)", "note", True),
    "TheoremSpec": (
        _spec, [_spec(id="u"), _spec(operation="join"), _spec(hypothesis=min),
                _spec(bounds=min), _spec(targets=min), _spec(model="gnp")],
        f"TheoremSpec(id='t', operation='add-vertex', hypothesis={_holds!r}, "
        f"bounds=<built-in function max>, targets={_neighbor_sets!r}, model=None)",
        "model", True),
    "Model": (Model, [Gnp(1, 0.5)], "Model()", "name", False),
    "Gnp": (
        lambda: Gnp(5, 0.5), [Gnp(6, 0.5), Gnp(5, 0.25), RandomBipartite(5, 1, 0.5)],
        "Gnp(n=5, p=0.5)", "p", False),
    "RandomTree": (
        lambda: RandomTree(5), [RandomTree(6), Gnp(5, 0.5)], "RandomTree(n=5)", "n", False),
    "RandomBipartite": (
        lambda: RandomBipartite(2, 3, 0.5),
        [RandomBipartite(3, 3, 0.5), RandomBipartite(2, 4, 0.5), RandomBipartite(2, 3, 0.25)],
        "RandomBipartite(n1=2, n2=3, p=0.5)", "n1", False),
}


def _field_values(value):
    """The value's fields in order: its constructor takes them in that order."""
    parameters = inspect.signature(type(value)).parameters.values()
    return tuple(getattr(value, p.name) for p in parameters if p.kind is p.POSITIONAL_OR_KEYWORD)


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_and_hash_alike(name):
    make = CASES[name][0]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name == "ConstructionInstance":  # its params are a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", CASES)
def test_a_value_differing_in_one_field_is_unequal(name):
    make, others = CASES[name][:2]
    for other in others:
        assert make() != other and not make() == other


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, _, text = CASES[name][:3]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_a_value_equals_the_tuple_of_its_fields_only_when_it_is_a_tuple(name):
    make, equals_tuple = CASES[name][0], CASES[name][4]
    assert (make() == _field_values(make())) is equals_tuple


@pytest.mark.parametrize("name", CASES)
def test_a_field_cannot_be_assigned_or_deleted(name):
    make, field = CASES[name][0], CASES[name][3]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == repr(make())


@pytest.mark.parametrize("protocol", [0, pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("name", CASES)
def test_a_value_survives_a_pickle_round_trip(name, protocol):
    value = CASES[name][0]()
    copy = pickle.loads(pickle.dumps(value, protocol))
    assert type(copy) is type(value) and copy == value and repr(copy) == repr(value)


def test_stats_take_no_part_in_equality():
    assert _result(stats=_stats(0.25)) == _result()
    assert hash(_result(stats=_stats(0.25))) == hash(_result())


# sha256 of pickle.dumps at protocol 0 followed by HIGHEST_PROTOCOL (5), and the
# tuple each slot class hashes as: --jobs ships these bytes to and from its workers
WIRE = {
    "Graph": ("1e8f7426cd695b8fc789af8770118faeea7106c68875464a71d38c0786d10e2e",
              lambda g: (g.n, g.adj)),
    "MpResult": ("ce04df6a05b0a0cd6f282248be2383cc9b8d6656542107349b93c94e203ede52",
                 lambda r: (r.value, r.witness)),
    "SearchLimits": ("e20e8526bb46f115008ff6a7497d0f3d2666a8ce08d340cbb0ecdceff7c51c6e",
                     lambda s: (s.node_budget,)),
    "Model": ("bc4231a63e77b7419414ae0cd1b1bee50b7279775dde9dba6a8086aebdb3bd7f",
              lambda m: ()),
    "Gnp": ("801e4f23d89141006006266021ce58e8913542bca63fd47c2da7d3e728128b26",
            lambda m: (m.n, m.p)),
    "RandomTree": ("076ede9dc13011c31bbaec3c37c3bbcae9605bba759aab5141d64071fc1d721b",
                   lambda m: (m.n,)),
    "RandomBipartite": ("7e7b77589ff2c02db45e2c69228d88472e7f9bd061dd531280418c979cb716fa",
                        lambda m: (m.n1, m.n2, m.p)),
}


@pytest.mark.parametrize("name", WIRE)
def test_pickled_bytes_and_hash_are_pinned(name):
    value = CASES[name][0]()
    digest, key = WIRE[name]
    data = pickle.dumps(value, 0) + pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    assert hashlib.sha256(data).hexdigest() == digest
    assert hash(value) == hash(key(value))
