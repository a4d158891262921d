"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are 0..n-1 and adjacency is a tuple of int tuples, one per vertex,
each strictly increasing; isolated vertices share the empty tuple.  That form
is canonical, so two graphs are equal exactly when their edges are, and it
keeps a vertex's neighbours in about a quarter of a frozenset's memory;
``has_edge`` bisects it.  Every builder here and in ``operations``, and
``bounds.RandomTree.draw``, keeps the invariant, and ``Graph.__init__`` trusts
it without a check.  ``Graph``, like every slot class of the package, is an
immutable value through one base, ``_Frozen``, so graphs hash, pickle and can
be shared freely between workers.
Two text formats are supported:

* edge-list text: first line ``n m``, then m lines ``u v``.  The writers put
  one space between the numbers and end with a newline; the readers take any
  ASCII blanks between and around them (so CRLF) and a missing final newline;
* JSON: ``{"n": int, "edges": [[u, v], ...]}``.

The writers emit the normal form, each edge as u < v and the edges sorted
lexicographically.  The readers accept any orientation and order of the
edges but reject a repeated edge (and a repeated JSON key) and a declared
vertex count above ``MAX_FILE_VERTICES``, and every number must be an integer
written as an optional '-' and ASCII digits.  The writers format a block of
vertices at a time and the edge-list reader parses a chunk of lines at a time,
so neither holds an object per edge beside the text and the graph.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain
from typing import ClassVar


class _Frozen:
    """The immutable-value protocol that every slot class of the package shares.

    A subclass declares ``__slots__ = _fields = (...)``: its fields, the parameters
    of its constructor in order.  An instance equals only an instance of its own
    class with an equal ``_key()``, every field unless a subclass narrows it, and
    hashes as that key; ``repr`` and pickling use ``_fields``; assigning or deleting
    a field raises ``AttributeError``.
    """

    __slots__ = ()
    _fields: ClassVar[tuple[str, ...]] = ()

    def __init__(self, *values) -> None:
        for field, value in zip(self._fields, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    _key = _values  # what equality and hash compare

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        values = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # unpickling would assign the slots
        return type(self), self._values()


class Graph(_Frozen):
    """Simple undirected graph: no loops, no multi-edges, symmetric adjacency.

    ``adj[v]`` is the strictly increasing tuple of v's neighbours.  The
    constructor does not check that; build graphs with ``from_edge_list`` or the
    operations."""

    __slots__ = _fields = ("n", "adj")
    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, adj: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @property
    def m(self) -> int:
        return sum(map(len, self.adj)) // 2

    def degree(self, v: int) -> int:
        if not (type(v) is int and 0 <= v < self.n):
            raise ValueError(f"vertex {v!r} out of range for n={self.n}")
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge; False when an id is out of range or not an int (a bool)."""
        if not (type(u) is int and type(v) is int and 0 <= u < self.n):
            return False
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from any iterable of vertex pairs, consumed once.

    Duplicates collapse and loops are rejected; ``n`` and every endpoint must be
    an int (a bool is not).  A list is made only for a vertex with an edge; every
    isolated vertex shares the empty tuple, so it costs only its slot in the
    adjacency tuple.  Each list is replaced in place by its sorted tuple without
    repeats, so the build peaks only a little above what the graph keeps.  The
    graph keeps one int object per vertex with an edge, the first one the pairs
    gave for it, however many equal objects they held (a reader makes one per
    number read).
    """
    if type(n) is not int:
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    empty: tuple[int, ...] = ()
    adj: list[list[int] | tuple[int, ...]] = [empty] * n
    ids: list[int | None] = [None] * n  # the int object the graph keeps for each vertex
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if adj[u] is empty:
            adj[u] = []
            ids[u] = u
        if adj[v] is empty:
            adj[v] = []
            ids[v] = v
        adj[u].append(ids[v])
        adj[v].append(ids[u])
    for v, a in enumerate(adj):
        if len(a) > 1:
            if len(set(a)) < len(a):  # a repeated edge
                a = list(set(a))
            a.sort()
        adj[v] = tuple(a)  # tuple(()) is () itself
    return Graph(n, tuple(adj))


def degree_sequence(g: Graph) -> list[int]:
    """All vertex degrees, sorted non-increasing."""
    return sorted((len(a) for a in g.adj), reverse=True)


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    adj = g.adj
    for u, a in enumerate(adj):
        # a triangle shows at its smallest vertex u, as two adjacent neighbours above u
        i = bisect_left(a, u)
        if len(a) - i > 1:
            later = set(a[i:])
            for v in a[i:]:
                if not later.isdisjoint(adj[v]):
                    return False
    return True


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0."""
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in g.adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def is_regular(g: Graph) -> bool:
    """True iff all degrees are equal."""
    if g.n == 0:
        raise ValueError("regularity is undefined for the empty graph")
    d = len(g.adj[0])
    return all(len(a) == d for a in g.adj)


def is_tree(g: Graph) -> bool:
    """True iff the graph is connected and acyclic."""
    if g.n == 0:
        raise ValueError("tree check is undefined for the empty graph")
    return g.m == g.n - 1 and is_connected(g)


# the largest vertex count a graph file may declare: the declared n, not the file's
# size, sets what parse and solve allocate, about 208 bytes per vertex (parsing and
# solving an edgeless 200,000-vertex graph peak at 41.6 MB, 39.7 MiB, under
# tracemalloc on 64-bit CPython 3.11; isolated vertices share one empty tuple, so
# nearly all of it is the solver's lists per vertex), so a header alone costs at
# most about 208 MB
MAX_FILE_VERTICES = 1_000_000


def _from_parsed_edges(n: int, listed: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """from_edge_list for file input, where a repeated edge among the ``listed`` ones
    or a declared n above MAX_FILE_VERTICES is an error."""
    if n > MAX_FILE_VERTICES:
        raise ValueError(f"declared vertex count {n} exceeds the limit of "
                         f"{MAX_FILE_VERTICES} for a graph file")
    g = from_edge_list(n, edges)
    if g.m != listed:
        raise ValueError(f"duplicate edges: {listed} listed, {g.m} distinct")
    return g


# an integer is an optional '-' and ASCII digits: int() alone would also take '_',
# '+', blanks and non-ASCII digits; a line of the edge-list text is two of them
# between runs of ASCII blanks (spelled out: \s would also take the newline and,
# without re.ASCII, U+00A0).  _NOT_A_PAIR matches, empty, at the start of each line
# that is not such a pair, so one search finds the first malformed line
_INT = "-?[0-9]+"
_NOT_A_PAIR = re.compile(rf"^(?![ \t\r\f\v]*{_INT}[ \t\r\f\v]+{_INT}[ \t\r\f\v]*$)", re.MULTILINE)


_BLOCK = 1024  # vertices whose edges a writer formats at a time
_CHUNK = 1 << 16  # characters of edge lines the reader splits at a time


def _ranges(n: int) -> Iterator[range]:
    """The vertices in blocks: the writers make a string per block, so only one
    block's pieces are alive beside the text, which peaks at about twice its size."""
    return (range(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


def to_edge_list_text(g: Graph) -> str:
    adj = g.adj
    blocks = ("".join([f"{u} {v}\n" for u in us for v in adj[u] if u < v])
              for us in _ranges(g.n))
    return f"{g.n} {g.m}\n" + "".join(blocks)


def _numbers(text: str, pos: int) -> Iterator[Iterator[int]]:
    """The integers of text[pos:], a chunk of whole lines at a time."""
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK)
        if cut < 0:
            cut = len(text)
        yield map(int, text[pos:cut].split())
        pos = cut + 1


def parse_edge_list_text(text: str) -> Graph:
    # split("\n") without its empty last piece: a final newline ends the last line
    lines = text.count("\n") + (text != "" and text[-1] != "\n")
    if not lines:
        raise ValueError("empty edge-list input")
    head = text.find("\n")
    if head < 0:
        head = len(text)
    header = text[:head]
    if _NOT_A_PAIR.match(header):
        raise ValueError(f"header must be 'n m', got {header!r}")
    n, m = map(int, header.split())
    if lines - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {lines - 1}")
    if m:  # every line is checked before anything is built, as the edges stream
        bad = _NOT_A_PAIR.search(text, head + 1, len(text) - (text[-1] == "\n"))
        if bad is not None:
            end = text.find("\n", bad.start())
            line = text[bad.start():end if end >= 0 else len(text)]
            raise ValueError(f"edge line must be 'u v', got {line!r}")
    numbers = chain.from_iterable(_numbers(text, head + 1))
    return _from_parsed_edges(n, m, zip(numbers, numbers))


def to_json_text(g: Graph) -> str:
    """The text json.dumps gives for {"n": n, "edges": [[u, v], ...]}, made without json."""
    adj = g.adj
    blocks = (", ".join([f"[{u}, {v}]" for u in us for v in adj[u] if u < v])
              for us in _ranges(g.n))
    return f'{{"n": {g.n}, "edges": [' + ", ".join(filter(None, blocks)) + "]}"


def _unique_keys(pairs: list) -> dict:
    """A JSON object, with a repeated key rejected: json.loads keeps only its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"invalid JSON graph: repeated key {key!r}")
        obj[key] = value
    return obj


def parse_json_text(text: str) -> Graph:
    import json

    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON graph: {exc}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError("invalid JSON graph: nested too deeply") from None
    n, edges = (obj.get("n"), obj.get("edges")) if isinstance(obj, dict) else (None, None)
    # type() and not isinstance(): JSON true and false load as bools, a subclass of int
    if type(n) is not int or not isinstance(edges, list):
        raise ValueError('JSON graph must be {"n": int, "edges": [[u, v], ...]}')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and type(e[0]) is type(e[1]) is int):
            raise ValueError(f"bad edge entry {e!r}")
    return _from_parsed_edges(n, len(edges), edges)


def parse_graph_text(text: str) -> Graph:
    """Parse either supported format, sniffing JSON by a leading '{'."""
    if text.lstrip().startswith("{"):
        return parse_json_text(text)
    return parse_edge_list_text(text)
