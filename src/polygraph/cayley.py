"""Cayley graphs and Cayley complexes of finitely presented groups.

Vertices are shortlex normal forms from a proven-convergent rewriting system,
one edge g -> normalize(g·x) per vertex and generator, and one disk per
(vertex, relation) pair glued along the relation traced through the graph.
Deterministic ordering throughout (shortlex vertices, declaration-order
generators and relations) keeps exports byte-stable and diffable.

Homology of the complex comes from one spanning forest of the graph: its
component count is H0, and each face's entries on the non-tree edges are
its coordinates over the fundamental cycles, so H1 is a single Smith normal
form of that cotree-by-face matrix.  For the presentations this package
targets the complex has one connected component and trivial first homology,
and the tests assert exactly that.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .errors import InfiniteOrUnknown, InternalError, UnknownGenerator
from .homology import quotient_invariants
from .model import Polygraph
from .rewriting import Finite, RewritingSystem, enumerate_normal_forms, normalize_bytes
from .words import Word

__all__ = [
    "Edge",
    "Face",
    "CayleyGraph",
    "CayleyComplex",
    "GraphInvariants",
    "HomologySummary",
    "build_graph",
    "build_complex",
    "graph_invariants",
    "homology",
    "export",
    "to_jsonable",
    "graph_from_json",
    "complex_from_json",
]


@dataclass(frozen=True)
class Edge:
    """One labeled edge: vertex ``src`` times generator ``gen`` lands on ``dst``."""

    src: int
    dst: int
    gen: str


@dataclass(frozen=True)
class Face:
    """One disk, glued along a relation traced from a base vertex.

    ``boundary`` lists signed edge references: entry ``k`` with ``k > 0``
    traverses edge ``k - 1`` forwards, ``k < 0`` traverses edge ``-k - 1``
    backwards.  The offset-by-one keeps the two directions of edge 0 apart.
    """

    base: int
    rel: str
    boundary: tuple[int, ...]


@dataclass(frozen=True)
class CayleyGraph:
    """Vertices are normal-form word texts in shortlex order; edges are
    grouped by source vertex, generators in declaration order."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    gens: tuple[str, ...]


@dataclass(frozen=True)
class CayleyComplex:
    graph: CayleyGraph
    faces: tuple[Face, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class GraphInvariants:
    connected: bool
    vertices: int
    edges: int
    cycle_rank: int


@dataclass(frozen=True)
class HomologySummary:
    h0_rank: int
    h1_rank: int
    h1_torsion: tuple[int, ...]
    euler: int


def _normal_forms(p: Polygraph, system: RewritingSystem, cap: int) -> list[str]:
    for gen in p.gens:
        system.alphabet.index(gen)  # UnknownGenerator if absent
    outcome = enumerate_normal_forms(system, cap=cap)
    if not isinstance(outcome, Finite):
        raise InfiniteOrUnknown(
            f"presentation has more than {cap} normal forms; "
            "raise the cap if the group really is finite"
        )
    return outcome.words


def build_graph(p: Polygraph, system: RewritingSystem, cap: int = 10000) -> CayleyGraph:
    """One vertex per group element, one out-edge per element and generator.

    Requires a proven-convergent system whose normal forms are finite within
    the cap (InfiniteOrUnknown otherwise) and whose alphabet covers the
    presentation's generators (UnknownGenerator otherwise).
    """
    words = _normal_forms(p, system, cap)
    index = {system.word_bytes(w): i for i, w in enumerate(words)}
    edges: list[Edge] = []
    for src, word in enumerate(words):
        base = system.word_bytes(word)
        for gen in p.gens:
            shifted = normalize_bytes(system, base + bytes([system.alphabet.index(gen)]))
            if shifted not in index:
                raise InternalError(
                    f"normalize({word!r} * {gen}) left the normal-form set"
                )
            edges.append(Edge(src=src, dst=index[shifted], gen=gen))
    return CayleyGraph(vertices=tuple(words), edges=tuple(edges), gens=tuple(p.gens))


def _spanning_forest(g: CayleyGraph) -> tuple[list[bool], int]:
    """Tree-edge flags of a depth-first spanning forest of the undirected
    graph, and its number of connected components."""
    v = len(g.vertices)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(v)]
    for i, edge in enumerate(g.edges):
        incident[edge.src].append((i, edge.dst))
        incident[edge.dst].append((i, edge.src))
    tree = [False] * len(g.edges)
    components = 0
    seen = [False] * v
    for root in range(v):
        if seen[root]:
            continue
        components += 1
        stack = [root]
        seen[root] = True
        while stack:
            here = stack.pop()
            for edge_id, there in incident[here]:
                if not seen[there]:
                    seen[there] = True
                    tree[edge_id] = True
                    stack.append(there)
    return tree, components


def graph_invariants(g: CayleyGraph) -> GraphInvariants:
    """Undirected connectivity and the independent-loop count E - V + c."""
    v, e = len(g.vertices), len(g.edges)
    _, components = _spanning_forest(g)
    return GraphInvariants(
        connected=components <= 1,
        vertices=v,
        edges=e,
        cycle_rank=e - v + components,
    )


def _edge_tables(g: CayleyGraph):
    out_edge: dict[tuple[int, str], tuple[int, int]] = {}
    in_edge: dict[tuple[int, str], tuple[int, int]] = {}
    for i, edge in enumerate(g.edges):
        out_edge[(edge.src, edge.gen)] = (i, edge.dst)
        in_edge[(edge.dst, edge.gen)] = (i, edge.src)
    return out_edge, in_edge


def _trace(g: CayleyGraph, out_edge, in_edge, start: int, word: Word):
    """Walk a zig-zag word through the graph from a vertex.

    Returns (signed edge references, end vertex): a positive letter follows
    its edge forwards (+), an inverse letter follows the unique incoming edge
    backwards (-).
    """
    here = start
    refs: list[int] = []
    for letter in word.letters:
        if letter.sign > 0:
            if (here, letter.gen) not in out_edge:
                raise UnknownGenerator(f"no edge for generator {letter.gen!r}")
            edge_id, there = out_edge[(here, letter.gen)]
            refs.append(edge_id + 1)
        else:
            if (here, letter.gen) not in in_edge:
                raise UnknownGenerator(f"no edge for generator {letter.gen!r}")
            edge_id, there = in_edge[(here, letter.gen)]
            refs.append(-(edge_id + 1))
        here = there
    return refs, here


def build_complex(p: Polygraph, system: RewritingSystem, cap: int = 10000) -> CayleyComplex:
    """Attach one disk per (element, relation) pair to the Cayley graph.

    The disk's boundary follows the relation's left side from the base
    vertex, then the right side in reverse; the two sides land on the same
    vertex because the relation holds in the group, and a failure to close is
    an InternalError (it would mean the rewriting system and the presentation
    disagree).
    """
    graph = build_graph(p, system, cap)
    out_edge, in_edge = _edge_tables(graph)
    faces: list[Face] = []
    for base in range(len(graph.vertices)):
        for rel, (lhs, rhs) in p.rels.items():
            left_refs, left_end = _trace(graph, out_edge, in_edge, base, lhs)
            right_refs, right_end = _trace(graph, out_edge, in_edge, base, rhs)
            if left_end != right_end:
                raise InternalError(
                    f"face ({graph.vertices[base]!r}, {rel}) does not close: "
                    f"sides end at vertices {left_end} and {right_end}"
                )
            boundary = tuple(left_refs) + tuple(-r for r in reversed(right_refs))
            faces.append(Face(base=base, rel=rel, boundary=boundary))
    return CayleyComplex(graph=graph, faces=tuple(faces))


def homology(c: CayleyComplex) -> HomologySummary:
    """H0 and H1 of the complex, exactly over the integers.

    boundary_1 sends an edge to dst - src; boundary_2 sends a face to the
    signed sum of its boundary edges (a doubly-traversed edge accumulates).
    H0 = Z^V / im(boundary_1) is free of rank the component count.  The
    fundamental cycles of the non-tree edges of a spanning forest are a basis
    of ker(boundary_1), and a cycle's coordinates over that basis are its
    entries on the non-tree edges; so H1 = ker(boundary_1) / im(boundary_2)
    is Z^(E - V + c) modulo the faces' non-tree entries, read off by Smith
    normal form.  The Euler characteristic is the plain cell count V - E + F.
    """
    g = c.graph
    v, e, f = len(g.vertices), len(g.edges), len(c.faces)
    tree, components = _spanning_forest(g)
    cotree = [i for i in range(e) if not tree[i]]
    cotree_row = {edge_id: row for row, edge_id in enumerate(cotree)}
    relations: list[list[int]] = [[0] * f for _ in cotree]
    for j, face in enumerate(c.faces):
        # Coordinates are exact only for cycles: boundary_1 of the face's
        # boundary must vanish (InternalError otherwise).
        closure: Counter[int] = Counter()
        for ref in face.boundary:
            edge_id = abs(ref) - 1
            sign = 1 if ref > 0 else -1
            edge = g.edges[edge_id]
            closure[edge.dst] += sign
            closure[edge.src] -= sign
            if edge_id in cotree_row:
                relations[cotree_row[edge_id]][j] += sign
        if any(closure.values()):
            raise InternalError(f"boundary of face {j} ({face.rel}) is not a cycle")
    h1_rank, torsion = quotient_invariants(len(cotree), relations)
    return HomologySummary(
        h0_rank=components,
        h1_rank=h1_rank,
        h1_torsion=tuple(torsion),
        euler=v - e + f,
    )


# ------------------------------------------------------------------ exports


def to_jsonable(obj: CayleyGraph | CayleyComplex) -> dict:
    """The export dictionary behind the JSON format, for callers that want to
    add fields before serialization."""
    graph = obj.graph if isinstance(obj, CayleyComplex) else obj
    data: dict = {
        "vertices": [{"id": i, "word": w} for i, w in enumerate(graph.vertices)],
        "edges": [
            {"id": i, "src": e.src, "dst": e.dst, "gen": e.gen}
            for i, e in enumerate(graph.edges)
        ],
    }
    if isinstance(obj, CayleyComplex):
        data["faces"] = [
            {"base": f.base, "rel": f.rel, "boundary": list(f.boundary)}
            for f in obj.faces
        ]
    return data


def dump_json(data: dict) -> bytes:
    """Canonical byte-stable JSON: sorted keys, fixed separators, newline."""
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


def export(obj: CayleyGraph | CayleyComplex, format: str) -> bytes:
    """Serialize a graph or complex; ``dot`` renders the underlying graph."""
    if format == "json":
        return dump_json(to_jsonable(obj))
    if format == "dot":
        graph = obj.graph if isinstance(obj, CayleyComplex) else obj
        lines = ["digraph cayley {"]
        for i, word in enumerate(graph.vertices):
            lines.append(f'  v{i} [label="{word}"];')
        for edge in graph.edges:
            lines.append(f'  v{edge.src} -> v{edge.dst} [label="{edge.gen}"];')
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown export format {format!r}")


def _graph_from_data(data: dict) -> CayleyGraph:
    vertices: list[str | None] = [None] * len(data["vertices"])
    for row in data["vertices"]:
        i = row["id"]
        if not (0 <= i < len(vertices)) or vertices[i] is not None:
            raise ValueError("vertex ids are not 0..n-1")
        vertices[i] = row["word"]
    if any(w is None for w in vertices):
        raise ValueError("vertex ids are not 0..n-1")
    edges: list[Edge | None] = [None] * len(data["edges"])
    gens: list[str] = []
    for row in data["edges"]:
        i = row["id"]
        if not (0 <= i < len(edges)) or edges[i] is not None:
            raise ValueError("edge ids are not 0..n-1")
        edges[i] = Edge(src=row["src"], dst=row["dst"], gen=row["gen"])
        if row["gen"] not in gens:
            gens.append(row["gen"])
    if any(e is None for e in edges):
        raise ValueError("edge ids are not 0..n-1")
    return CayleyGraph(vertices=tuple(vertices), edges=tuple(edges), gens=tuple(gens))


def graph_from_json(blob: bytes | str) -> CayleyGraph:
    """Inverse of export(graph, "json")."""
    return _graph_from_data(json.loads(blob))


def complex_from_json(blob: bytes | str) -> CayleyComplex:
    """Inverse of export(complex, "json")."""
    data = json.loads(blob)
    graph = _graph_from_data(data)
    faces = tuple(
        Face(base=row["base"], rel=row["rel"], boundary=tuple(row["boundary"]))
        for row in data.get("faces", [])
    )
    return CayleyComplex(graph=graph, faces=faces)
