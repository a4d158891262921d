import json
import pickle
import random
import re
import tracemalloc
from itertools import chain, combinations

import pytest
from hypothesis import given

from dmp.graph import (
    MAX_FILE_VERTICES,
    Graph,
    from_edge_list,
    degree_sequence,
    is_connected,
    is_regular,
    is_tree,
    is_triangle_free,
    parse_edge_list_text,
    parse_graph_text,
    parse_json_text,
    to_edge_list_text,
    to_json_text,
)
from dmp.constructions import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from dmp.bounds import Gnp, RandomTree, random_graph
from dmp.solver import is_degree_monotone, mp_exact

from strategies import graphs


def test_from_edge_list_path():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.degree(1) == 2 and g.degree(0) == 1


def test_from_edge_list_single_vertex():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.m == 0


def test_from_edge_list_deduplicates():
    g = from_edge_list(4, [(0, 1), (1, 0), (2, 3)])
    assert g.edges() == [(0, 1), (2, 3)]
    g = from_edge_list(5, [(3, 1), (1, 4), (0, 1), (1, 3), (2, 1), (4, 1)])
    assert g.adj == ((1,), (0, 2, 3, 4), (1,), (1,), (1,)) and g.m == 4


def test_from_edge_list_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list(3, [(0, 3)])


@pytest.mark.parametrize("make, message", [
    (lambda: from_edge_list(-1, []), "non-negative"),
    (lambda: cycle_graph(2), "cycle needs n >= 3"),
    (lambda: is_tree(from_edge_list(0, [])), "empty graph"),
], ids=["negative_n", "cycle_2", "tree_empty"])
def test_bad_sizes_raise(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("n, edges", [
    (2, [(0, True)]), (2, [(False, 1)]), (2, [(0, 1.0)]), (3, [("0", 1)]), (True, []), (2.0, []),
], ids=["bool", "bool-first", "float", "str", "bool-n", "float-n"])
def test_from_edge_list_rejects_a_non_int(n, edges):
    # a bool endpoint used to build a graph whose writers emit `0 True` and
    # `[[0, true]]`, which both readers reject
    with pytest.raises(ValueError, match="an int"):
        from_edge_list(n, edges)


def test_from_edge_list_takes_any_iterable_of_pairs_once():
    pairs = iter([(0, 1), (1, 2)])
    assert from_edge_list(3, pairs) == from_edge_list(3, [(0, 1), (1, 2)])
    assert next(pairs, None) is None


def test_from_edge_list_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        from_edge_list(3, [(1, 1)])


def test_isolated_vertices_share_one_empty_tuple():
    g = from_edge_list(6, [(1, 4), (4, 2)])
    first = g.adj[0]
    assert first == () and all(g.adj[v] is first for v in (3, 5))
    assert all(type(a) is tuple for a in g.adj)


def test_sparse_build_keeps_the_value_contract():
    g = from_edge_list(6, [(1, 4), (4, 2)])
    by_hand = Graph(6, ((), (4,), (4,), (), (1, 2), ()))
    assert g == by_hand and hash(g) == hash(by_hand) and repr(g) == repr(by_hand)
    for protocol in (0, pickle.HIGHEST_PROTOCOL):
        copy = pickle.loads(pickle.dumps(g, protocol))
        assert copy == g and hash(copy) == hash(g)


def _traced(make):
    """make() under tracemalloc: its result, the bytes it left allocated and its peak."""
    tracemalloc.start()
    try:
        result = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


@pytest.mark.parametrize("build", [
    lambda: from_edge_list(200_000, []),
    lambda: parse_graph_text("200000 0\n"),
], ids=["from_edge_list", "parse_graph_text"])
def test_isolated_vertices_cost_one_pointer_each(build):
    # two lists and a tuple of 200,000 pointers are 4.8 MB; a set per vertex
    # made the peak 85.7 MiB
    g, _, peak = _traced(build)
    assert g.n == 200_000 and g.m == 0
    assert peak < 8 * 2**20


def test_a_build_peaks_close_to_what_the_graph_keeps():
    # a random recursive tree on 50,000 vertices keeps 3.05 MiB as int tuples and
    # the build peaks at 5.06 MiB; as frozensets it kept 11.5 MiB and peaked at
    # 12.3, and holding every vertex's set beside its frozenset made the build
    # peak at 23.8 MiB
    rng = random.Random(0)
    edges = [(v, rng.randrange(v)) for v in range(1, 50_000)]
    g, _, peak = _traced(lambda: from_edge_list(50_000, edges))
    assert g.m == 49_999
    assert peak < 5.75 * 2**20


_TOO_MANY = MAX_FILE_VERTICES + 1


@pytest.mark.parametrize("text", [f"{_TOO_MANY} 0\n", f'{{"n": {_TOO_MANY}, "edges": []}}'],
                         ids=["edgelist", "json"])
def test_a_file_declaring_too_many_vertices_is_rejected_before_any_allocation(text):
    def parse():
        with pytest.raises(ValueError, match=re.escape(
                f"declared vertex count {_TOO_MANY} exceeds the limit of "
                f"{MAX_FILE_VERTICES} for a graph file")):
            parse_graph_text(text)

    _, _, peak = _traced(parse)
    assert peak < 2**20  # the graph would take about 16 MB


@pytest.fixture(scope="module")
def drawn_tree():
    """A 50,000-vertex random tree drawn under tracemalloc: (graph, kept, peak)."""
    return _traced(lambda: RandomTree(50_000).draw(random.Random(0)))


def _int_objects(g):
    return len(set(map(id, chain.from_iterable(g.adj))))


def test_a_draw_peaks_close_to_what_the_tree_keeps(drawn_tree):
    # the tree keeps 4.04 MiB and the draw, straight into the adjacency, peaks at
    # 5.61 MiB; streaming the heap-decoded edges into from_edge_list, whose list
    # per vertex was alive at the end, made the peak 7.69 MiB; with frozensets it
    # kept 12.4 MiB and peaked at 13.2, and before that the Pruefer sequence of
    # fresh ints and the list of edge tuples, alive beside the build, made the peak
    # 17.0 MiB, and the tree kept 68,331 int objects for its 50,000 vertices
    g, _, peak = drawn_tree
    assert g.m == 49_999 and _int_objects(g) == g.n
    assert peak < 6.5 * 2**20


@pytest.fixture(scope="module")
def writer_peaks(drawn_tree):
    """Each writer's text length and peak on the drawn tree, under one trace."""
    def write_both():
        sizes = {}
        for write in (to_edge_list_text, to_json_text):
            tracemalloc.reset_peak()
            length = len(write(drawn_tree[0]))  # the text is freed before the next
            sizes[write] = length, tracemalloc.get_traced_memory()[1]
        return sizes

    return _traced(write_both)[0]


@pytest.mark.parametrize("write", [to_edge_list_text, to_json_text])
def test_a_writer_peaks_near_its_text(writer_peaks, write):
    # building g.edges() and a piece per edge made the peaks 13.9 and 9.7 times
    # the text; a block of vertices at a time leaves about twice the text
    length, peak = writer_peaks[write]
    assert peak < 2.5 * length


def _check_isolated_vertices(g, tree, n):
    """g is the tree's edges on n vertices, keeping one int object per vertex with an edge."""
    assert g.n == n and g.adj[:tree.n] == tree.adj and not any(g.adj[tree.n:])
    assert _int_objects(g) == tree.n


def test_the_edge_list_reader_peaks_close_to_what_the_graph_keeps(drawn_tree):
    # the graph keeps 4.39 MiB and the read peaks at 6.86 MiB; with frozensets it
    # kept 12.3 MiB and peaked at 13.0, and before that the split lines and the
    # parsed tuples, alive together, made the peak 20.2 MiB, and the graph kept an
    # int per number read
    tree = drawn_tree[0]
    text = to_edge_list_text(tree).replace("50000 ", "51000 ", 1)
    g, _, peak = _traced(lambda: parse_edge_list_text(text))
    _check_isolated_vertices(g, tree, 51_000)
    assert peak < 7.75 * 2**20


def test_the_json_reader_keeps_one_int_object_per_vertex_with_an_edge(drawn_tree):
    tree = drawn_tree[0]
    text = to_json_text(tree).replace('"n": 50000', '"n": 51000', 1)
    _check_isolated_vertices(parse_json_text(text), tree, 51_000)


def test_a_header_alone_parses_and_solves_within_the_vertex_limit_budget():
    # the declared n sets what MAX_FILE_VERTICES bounds: parsing and solving an
    # edgeless graph peak at 208.6 bytes per vertex, and a list of every
    # equal-degree component, kept beside the solver's lists, made it 265.6
    n = 50_000
    res, _, peak = _traced(lambda: mp_exact(parse_graph_text(f"{n} 0\n")))
    assert res.value == 1
    assert peak < 230 * n


def test_the_vertex_limit_holds_for_files_only():
    assert parse_graph_text(f"{MAX_FILE_VERTICES} 0\n").n == MAX_FILE_VERTICES
    assert from_edge_list(_TOO_MANY, [(0, 1)]).n == _TOO_MANY


def test_membership_at_both_ends_of_a_long_neighbour_tuple():
    # the centre's tuple holds 200,000 leaves: each test bisects it
    n = 200_001
    g = star_graph(n - 1)
    for leaf in (1, 2, n - 2, n - 1):
        assert g.has_edge(0, leaf) and g.has_edge(leaf, 0)
        assert is_degree_monotone(g, [leaf, 0]) and is_degree_monotone(g, [0, leaf])
    for u, v in [(0, 0), (0, -1), (0, n), (1, 2), (1, n - 1), (n - 1, n - 2), (n, 0), (-1, 0)]:
        assert not g.has_edge(u, v)
    assert not is_degree_monotone(g, [1, 2]) and not is_degree_monotone(g, [n - 2, n - 1])
    assert not is_degree_monotone(g, [1, 0, n - 1])  # degrees 1, n - 1, 1


@pytest.mark.parametrize("u, v", [
    (True, 2), (2, True), (False, 1), (1.0, 2), (2, 1.0), ("1", 2), (2, "1"), (None, 0),
], ids=["bool", "bool-second", "false", "float", "float-second", "str", "str-second", "none"])
def test_has_edge_is_false_for_a_non_int_id(u, v):
    # True equals 1, so it used to find vertex 1's edges, and a float or str id
    # raised TypeError
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.has_edge(1, 2) and g.has_edge(0, 1)
    assert g.has_edge(u, v) is False


def test_degree_out_of_range():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.degree(3)


@pytest.mark.parametrize(
    "g,expect",
    [
        (path_graph(4), [2, 2, 1, 1]),
        (complete_graph(3), [2, 2, 2]),
        (star_graph(3), [3, 1, 1, 1]),
    ],
)
def test_degree_sequence(g, expect):
    assert degree_sequence(g) == expect


def test_triangle_free():
    assert is_triangle_free(cycle_graph(5))
    assert not is_triangle_free(complete_graph(3))
    assert is_triangle_free(complete_bipartite_graph(3, 4))


def test_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_connected(from_edge_list(1, []))
    with pytest.raises(ValueError):
        is_connected(from_edge_list(0, []))


def test_regular():
    assert is_regular(cycle_graph(6))
    assert not is_regular(path_graph(3))
    assert is_regular(complete_graph(4))
    with pytest.raises(ValueError):
        is_regular(from_edge_list(0, []))


def test_is_tree():
    assert is_tree(path_graph(5))
    assert not is_tree(cycle_graph(4))
    assert not is_tree(from_edge_list(3, [(0, 1)]))


def test_edge_list_text_format():
    g = from_edge_list(4, [(2, 3), (0, 1)])
    assert to_edge_list_text(g) == "4 2\n0 1\n2 3\n"


def _edge_list_reference(g):
    """The edge-list text as written from the whole edge list at once."""
    edges = g.edges()
    return "\n".join([f"{g.n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n"


def _json_reference(g):
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges()]})


@given(graphs(min_n=0))
def test_writers_match_the_whole_list_forms(g):
    assert to_edge_list_text(g) == _edge_list_reference(g)
    assert to_json_text(g) == _json_reference(g)


_ACROSS_BLOCKS = {
    "n0": lambda: from_edge_list(0, []),
    "isolated": lambda: from_edge_list(5, []),
    "middle-block-empty": lambda: from_edge_list(3000, [(0, 1), (2500, 2999)]),
    "first-block-empty": lambda: from_edge_list(3000, [(1500, 2999)]),
    "tree-20k": lambda: RandomTree(20_000).draw(random.Random(1)),
}


@pytest.fixture(params=list(_ACROSS_BLOCKS))
def graph_across_blocks(request):
    """A graph whose vertices span zero, one or many of the writers' blocks, built
    when its test runs."""
    return _ACROSS_BLOCKS[request.param]()


def test_writers_match_the_whole_list_forms_across_blocks(graph_across_blocks):
    g = graph_across_blocks
    assert to_edge_list_text(g) == _edge_list_reference(g)
    assert to_json_text(g) == _json_reference(g)


@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list_text(to_edge_list_text(g)) == g


@given(graphs())
def test_json_round_trip(g):
    assert parse_json_text(to_json_text(g)) == g


def test_parse_graph_text_sniffs_json():
    g = path_graph(3)
    assert parse_graph_text(to_json_text(g)) == g
    assert parse_graph_text(to_edge_list_text(g)) == g


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_edge_list_text, "3 2\n1 2\n1 0\n"),
        (parse_json_text, '{"n": 3, "edges": [[1, 2], [1, 0]]}'),
    ],
)
def test_parse_accepts_any_edge_orientation_and_order(parse, text):
    g = parse(text)
    assert g == from_edge_list(3, [(0, 1), (1, 2)])
    assert to_edge_list_text(g) == "3 2\n0 1\n1 2\n"
    assert to_json_text(g) == '{"n": 3, "edges": [[0, 1], [1, 2]]}'


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",
        "3 1\n0 1\n1 2\n",
        "3 1\nx y\n",
        "a b\n0 1\n",
        "2 2\n0 1\n1 0\n",
        "1_0 1\n0 9\n",
        "11 1\n0 1_0\n",
        "3 1\n+0 1\n",
        "3 1\n0 \u0661\n",
        "2 1\n0\u00a01\n",
        "2 1\n0\u20031\n",
        "2\u00a01\n0 1\n",
    ],
)
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list_text(text)


def _late_bad_line(line):
    """A 30,000-vertex path's text, with its last edge line replaced by ``line`` and
    its first by an edge out of range: the reader splits it in several chunks."""
    lines = to_edge_list_text(path_graph(30_000)).split("\n")
    lines[1], lines[-2] = "0 30000", line
    return "\n".join(lines)


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 9\nx y\n", "edge line must be 'u v', got 'x y'"),
    ("3 2\n0 1\n1 2 3", "edge line must be 'u v', got '1 2 3'"),
    ("3 2\n0 1\n\n", "edge line must be 'u v', got ''"),
    ("3 1\n0 9\n", "edge (0, 9) has an endpoint out of range for n=3"),
    ("3 1\n1 1\n", "self-loop (1, 1) not allowed"),
    ("3 2\n0 1\n1 0\n", "duplicate edges: 2 listed, 1 distinct"),
    ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
    (_late_bad_line("29998 x"), "edge line must be 'u v', got '29998 x'"),
    (_late_bad_line("29998 29999 "), "edge (0, 30000) has an endpoint out of range for n=30000"),
], ids=["format-before-range", "last-line-unended", "blank-line", "range", "loop", "duplicate",
        "count", "late-format-before-range", "late-range"])
def test_parse_edge_list_reports_the_first_fault_in_check_order(text, message):
    # every line's form is checked before any edge is built, so a malformed line
    # is reported over an earlier edge that is out of range
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_edge_list_text(text)


@pytest.mark.parametrize(
    "text", ["2 1\n0\t1\n", "2 1\r\n0 1\r\n", "\t2  1 \n 0 \t1\t\n", "2 1\n0 1"],
    ids=["tab", "crlf", "mixed", "no-final-newline"])
def test_parse_edge_list_accepts_ascii_whitespace(text):
    assert parse_edge_list_text(text) == path_graph(2)


def test_parse_json_rejects_deep_nesting():
    text = '{"n": 1, "edges": ' + "[" * 200_000 + "]" * 200_000 + "}"
    with pytest.raises(ValueError, match=r"^invalid JSON graph: nested too deeply$"):
        parse_json_text(text)


_JSON_SHAPE = 'JSON graph must be {"n": int, "edges": [[u, v], ...]}'
_MALFORMED_JSON = [
    ("[]", _JSON_SHAPE),
    ('{"n": 2}', _JSON_SHAPE),
    ('{"n": 2, "edges": [[0]]}', "bad edge entry [0]"),
    ('{"n": 2, "edges": [[0, 1], [0, 1]]}', "duplicate edges: 2 listed, 1 distinct"),
    ('{"n": true, "edges": []}', _JSON_SHAPE),
    ('{"n": 2, "edges": [[false, true]]}', "bad edge entry [False, True]"),
    ('{"n": 2, "edges": [[0, 1]', "invalid JSON graph: "),
    ('{"edges": []}', _JSON_SHAPE),
    ('{"n": null, "edges": []}', _JSON_SHAPE),
    ('{"n": 2, "edges": {}}', _JSON_SHAPE),
    ('{"n": 2, "edges": [[0, 1]], "n": 3}', "invalid JSON graph: repeated key 'n'"),
    ('{"n": 2, "edges": [], "edges": [[0, 1]]}', "invalid JSON graph: repeated key 'edges'"),
]


@pytest.mark.parametrize("text, message", _MALFORMED_JSON,
                         ids=[text for text, _ in _MALFORMED_JSON])
def test_parse_json_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_json_text(text)


@given(graphs())
def test_handshake(g):
    assert sum(degree_sequence(g)) == 2 * g.m


def _triangle_free_brute(g):
    return not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )


@given(graphs(max_n=10))
def test_triangle_free_matches_brute_force(g):
    assert is_triangle_free(g) == _triangle_free_brute(g)


@pytest.mark.parametrize("seed,n,p", [(1, 20, 0.1), (2, 25, 0.15), (3, 30, 0.08)])
def test_triangle_free_matches_brute_force_larger(seed, n, p):
    g = random_graph(Gnp(n, p), seed)
    assert is_triangle_free(g) == _triangle_free_brute(g)
