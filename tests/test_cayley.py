"""Cayley graphs, attached disks, homology, and byte-stable exports."""

from __future__ import annotations

import dataclasses
import json

import props
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from polygraph.cayley import (
    CayleyComplex,
    CayleyGraph,
    Edge,
    Face,
    HomologySummary,
    build_complex,
    build_graph,
    complex_from_json,
    dump_json,
    export,
    graph_from_json,
    graph_invariants,
    homology,
    to_jsonable,
)
from polygraph.errors import (
    InfiniteOrUnknown,
    InternalError,
    NotConvergent,
    UnknownGenerator,
)
from polygraph import cayley
from polygraph import homology as homology_module
from polygraph import rewriting
from polygraph.homology import quotient_invariants
from polygraph.oracle import table_from_normal_forms
from polygraph.presentations import parse
from polygraph.rewriting import certify, format_system, normalize, parse_system

# One vertex, one loop a, and a disk glued along a a: the projective plane's
# cell structure, with H1 = Z/2.
DOUBLED_LOOP = CayleyComplex(
    graph=CayleyGraph(
        vertices=("1",), edges=(Edge(src=0, dst=0, gen="a"),), gens=("a",)
    ),
    faces=(Face(base=0, rel="r", boundary=(1, 1)),),
)

# Two loops a, b and a disk glued along a b a' b': the torus, whose H1 = Z^2
# holds only if the opposite traversals of each edge cancel.
TORUS = CayleyComplex(
    graph=CayleyGraph(
        vertices=("1",),
        edges=(Edge(src=0, dst=0, gen="a"), Edge(src=0, dst=0, gen="b")),
        gens=("a", "b"),
    ),
    faces=(Face(base=0, rel="r", boundary=(1, 2, -1, -2)),),
)

# A loop killed to order four beside a two-edge cycle killed to order three:
# H0 = Z^2 and H1 = Z/4 + Z/3 = Z/12.
TWO_COMPONENTS = CayleyComplex(
    graph=CayleyGraph(
        vertices=("x", "y", "z"),
        edges=(
            Edge(src=0, dst=0, gen="a"),
            Edge(src=1, dst=2, gen="a"),
            Edge(src=2, dst=1, gen="a"),
        ),
        gens=("a",),
    ),
    faces=(
        Face(base=0, rel="r", boundary=(1, 1, 1, 1)),
        Face(base=1, rel="r", boundary=(2, 3) * 3),
    ),
)


def boundary_matrices(c):
    """Dense boundary_1 (V x E) and boundary_2 (E x F) of a complex."""
    v, e, f = len(c.graph.vertices), len(c.graph.edges), len(c.faces)
    d1 = [[0] * e for _ in range(v)]
    for j, edge in enumerate(c.graph.edges):
        d1[edge.src][j] -= 1
        d1[edge.dst][j] += 1
    d2 = [[0] * f for _ in range(e)]
    for j, face in enumerate(c.faces):
        for ref in face.boundary:
            d2[abs(ref) - 1][j] += 1 if ref > 0 else -1
    return d1, d2


def sympy_rank_and_factors(a, rows, cols):
    """Rank and nonzero invariant factors of a dense matrix, by sympy."""
    if not rows or not cols:
        return 0, []
    m = sympy.Matrix(rows, cols, [x for row in a for x in row])
    snf = sympy_snf(m, domain=sympy.ZZ)
    factors = [abs(int(snf[i, i])) for i in range(min(rows, cols)) if snf[i, i] != 0]
    return m.rank(), factors


def dense_homology(c):
    """homology with the relation matrix written out densely, cotree edges by
    faces, and handed to quotient_invariants."""
    tree, components = cayley._spanning_forest(c.graph)
    cotree = [i for i in range(len(c.graph.edges)) if not tree[i]]
    relations = [[0] * len(c.faces) for _ in cotree]
    for j, face in enumerate(c.faces):
        for ref in face.boundary:
            if not tree[abs(ref) - 1]:
                relations[cotree.index(abs(ref) - 1)][j] += 1 if ref > 0 else -1
    h1_rank, torsion = quotient_invariants(len(cotree), relations)
    v, e, f = len(c.graph.vertices), len(c.graph.edges), len(c.faces)
    return HomologySummary(components, h1_rank, tuple(torsion), v - e + f)


class TestBuildGraph:
    def test_cyclic_five_vertices_are_the_shortlex_normal_forms(
        self, z5, z5_system
    ):
        g = build_graph(z5, z5_system)
        assert g.vertices == ("1", "a", "a'", "a a", "a' a'")
        assert g.gens == ("a",)
        assert len(g.edges) == 5

    def test_every_vertex_has_one_out_edge_per_generator(self, d5, d5_system):
        g = build_graph(d5, d5_system)
        for src in range(len(g.vertices)):
            labels = [e.gen for e in g.edges if e.src == src]
            assert labels == list(g.gens)

    def test_each_generator_acts_as_a_permutation(self, q8, q8_system):
        g = build_graph(q8, q8_system)
        for gen in g.gens:
            dsts = [e.dst for e in g.edges if e.gen == gen]
            assert sorted(dsts) == list(range(len(g.vertices)))

    def test_edges_recompute_from_the_rewriting_system(self, d5, d5_system):
        g = build_graph(d5, d5_system)
        for edge in g.edges:
            src_word = g.vertices[edge.src]
            prefix = "" if src_word == "1" else src_word + " "
            assert g.vertices[edge.dst] == normalize(d5_system, prefix + edge.gen)

    def test_unproven_systems_are_refused(self, z5, z5_system):
        stripped = parse_system(format_system(z5_system))
        assert stripped.convergent == "unknown"
        with pytest.raises(NotConvergent):
            build_graph(z5, stripped)

    def test_infinite_groups_are_refused(self, b3_monoid_system):
        from conftest import load

        b3_abc = load("b3_abc.plg")
        with pytest.raises(InfiniteOrUnknown, match="more than 30"):
            build_graph(b3_abc, b3_monoid_system, cap=30)

    def test_generators_missing_from_the_alphabet_are_refused(
        self, d5, z5_system
    ):
        with pytest.raises(UnknownGenerator):
            build_graph(d5, z5_system)

    def test_only_reducible_products_are_normalized(
        self, monkeypatch, d5, d5_system
    ):
        # A fresh copy: the session fixture's action may be filled already.
        d5_system = certify(d5_system)
        calls = []
        normalize_word = rewriting._Matcher.normalize

        def counting(matcher, word, max_steps):
            calls.append(word)
            return normalize_word(matcher, word, max_steps)

        monkeypatch.setattr(rewriting._Matcher, "normalize", counting)
        g = build_graph(d5, d5_system)
        assert 0 < len(calls) <= len(g.vertices) * len(d5.gens)

    def test_a_product_outside_the_normal_forms_is_an_internal_error(
        self, monkeypatch, z5, z5_system
    ):
        z5_system = certify(z5_system)
        # A "normalization" that rewrites nothing leaves a a a a irreducible.
        monkeypatch.setattr(
            rewriting._Matcher, "normalize", lambda matcher, word, max_steps: word
        )
        with pytest.raises(InternalError, match="left the normal-form set"):
            build_graph(z5, z5_system)


class TestOneRightAction:
    def test_a_complex_and_a_table_list_and_normalize_once(self, monkeypatch, d5, d5_system):
        # A fresh copy: the session fixture's action may be filled already.
        system = certify(d5_system)
        listings, products = [], []
        listing, normalize_word = rewriting._normal_form_bytes, rewriting._Matcher.normalize

        def counting_listing(system, cap):
            listings.append(cap)
            return listing(system, cap)

        def counting(matcher, word, max_steps):
            products.append(word)
            return normalize_word(matcher, word, max_steps)

        monkeypatch.setattr(rewriting, "_normal_form_bytes", counting_listing)
        monkeypatch.setattr(rewriting._Matcher, "normalize", counting)
        build_complex(d5, system)
        t = table_from_normal_forms(system)
        assert listings == [10000]
        # A product w_i · x names its element and letter.
        assert 0 < len(products) == len(set(products)) <= t.size * len(system.alphabet)

    def test_a_smaller_cap_on_a_memoized_system_is_refused(self, q8, q8_system):
        system = certify(q8_system)
        assert len(build_graph(q8, system).vertices) == 8
        with pytest.raises(InfiniteOrUnknown, match="more than 7 normal forms"):
            build_graph(q8, system, cap=7)
        with pytest.raises(InfiniteOrUnknown, match="more than 7 normal forms"):
            table_from_normal_forms(system, cap=7)
        assert build_graph(q8, system, cap=8) == build_graph(q8, q8_system)

    def test_copies_start_with_no_memo(self, z5, z5_system):
        system = certify(z5_system)
        build_graph(z5, system)
        assert "_right_action" in vars(system)
        replaced = dataclasses.replace(system)
        assert "_right_action" not in vars(replaced)
        with pytest.raises(NotConvergent):
            build_graph(z5, replaced)
        assert "_right_action" not in vars(certify(system))


class TestGraphInvariants:
    def test_golden_counts_and_cycle_ranks(
        self, z5, d5, q8, z5_system, d5_system, q8_system
    ):
        expected = [
            (z5, z5_system, 5, 5, 1),
            (d5, d5_system, 10, 20, 11),
            (q8, q8_system, 8, 16, 9),
        ]
        for p, system, v, e, rank in expected:
            inv = graph_invariants(build_graph(p, system))
            assert inv.connected
            assert (inv.vertices, inv.edges, inv.cycle_rank) == (v, e, rank)

    def test_disconnected_graph_is_reported(self):
        g = CayleyGraph(
            vertices=("x", "y"),
            edges=(Edge(src=0, dst=0, gen="g"),),
            gens=("g",),
        )
        inv = graph_invariants(g)
        assert not inv.connected
        assert inv.cycle_rank == 1  # one self-loop, two components

    def test_empty_graph(self):
        inv = graph_invariants(CayleyGraph(vertices=(), edges=(), gens=()))
        assert (inv.vertices, inv.edges, inv.cycle_rank) == (0, 0, 0)


class TestBuildComplex:
    def test_one_face_per_element_and_relation(
        self, z5, d5, q8, z5_system, d5_system, q8_system
    ):
        assert len(build_complex(z5, z5_system).faces) == 5
        assert len(build_complex(d5, d5_system).faces) == 30
        assert len(build_complex(q8, q8_system).faces) == 16

    def test_face_boundaries_have_both_relation_sides(self, q8, q8_system):
        c = build_complex(q8, q8_system)
        for face in c.faces:
            lhs, rhs = q8.rels[face.rel]
            assert len(face.boundary) == len(lhs) + len(rhs)

    def test_face_boundaries_are_closed_walks(self, q8, q8_system):
        c = build_complex(q8, q8_system)
        for face in c.faces:
            here = face.base
            for ref in face.boundary:
                edge = c.graph.edges[abs(ref) - 1]
                if ref > 0:
                    assert edge.src == here
                    here = edge.dst
                else:
                    assert edge.dst == here
                    here = edge.src
            assert here == face.base

    def test_boundary_operators_compose_to_zero(self, d5, d5_system):
        d1, d2 = boundary_matrices(build_complex(d5, d5_system))
        product = sympy.Matrix(d1) * sympy.Matrix(d2)
        assert all(entry == 0 for entry in product)


class TestHomology:
    def test_golden_complexes_are_connected_and_aspherical_in_degree_one(
        self, z5, d5, q8, z5_system, d5_system, q8_system
    ):
        for p, system, euler in [
            (z5, z5_system, 5),
            (d5, d5_system, 20),
            (q8, q8_system, 8),
        ]:
            summary = homology(build_complex(p, system))
            assert summary.h0_rank == 1
            assert summary.h1_rank == 0
            assert summary.h1_torsion == ()
            assert summary.euler == euler

    def test_bare_graph_has_free_first_homology(self, z5, z5_system):
        # Without disks the five-cycle (plus free-reduction loops) stays open.
        g = build_graph(z5, z5_system)
        summary = homology(CayleyComplex(graph=g))
        assert summary.h0_rank == 1
        assert summary.h1_rank == graph_invariants(g).cycle_rank
        assert summary.euler == 0

    def test_doubled_loop_has_two_torsion(self):
        assert homology(DOUBLED_LOOP) == HomologySummary(
            h0_rank=1, h1_rank=0, h1_torsion=(2,), euler=1
        )

    def test_torsion_of_two_components_combines(self):
        summary = homology(TWO_COMPONENTS)
        assert summary.h0_rank == 2
        assert summary.h1_rank == 0
        assert summary.h1_torsion == (12,)

    def test_face_boundary_that_is_not_a_cycle_is_rejected(self):
        # The lone edge is a tree edge, so only the closure check sees this.
        path = CayleyComplex(
            graph=CayleyGraph(
                vertices=("x", "y"), edges=(Edge(src=0, dst=1, gen="a"),), gens=("a",)
            ),
            faces=(Face(base=0, rel="r", boundary=(1,)),),
        )
        with pytest.raises(InternalError, match="not a cycle"):
            homology(path)

    def test_unit_pivots_leave_the_dense_pass_nothing(
        self, monkeypatch, z5, d5, q8, z5_system, d5_system, q8_system
    ):
        # Each group's complex has H1 = 0, so every invariant factor is 1 and
        # unit pivots finish the relation matrix alone: the elimination asks
        # for a smallest entry only once the matrix is empty.
        answers = []
        smallest = homology_module._smallest_entry

        def recording(rows):
            answers.append(smallest(rows))
            return answers[-1]

        monkeypatch.setattr(homology_module, "_smallest_entry", recording)
        cases = [(z5, z5_system), (d5, d5_system), (q8, q8_system)]
        for text in (
            "< a, b, c | a^2 = 1, b^2 = 1, c^2 = 1,"
            " a b a = b a b, b c b = c b c, a c = c a >",
            "< a, b | a^2 = 1, b^3 = 1, a b a b a b a b a b = 1 >",
        ):
            p = parse(text)
            cases.append((p, rewriting.complete(rewriting.encode(p)).system))
        for p, system in cases:
            summary = homology(build_complex(p, system))
            assert (summary.h0_rank, summary.h1_rank, summary.h1_torsion) == (1, 0, ())
        assert answers == [None] * 5

    def test_sparse_rows_equal_the_dense_relation_matrix(self):
        complexes = [DOUBLED_LOOP, TORUS, TWO_COMPONENTS]
        complexes += [build_complex(p, s) for p, s in props.structure_systems().values()]
        for c in complexes:
            assert homology(c) == dense_homology(c)

    def test_summaries_agree_with_sympy_on_dense_boundaries(
        self, z5, d5, q8, z5_system, d5_system, q8_system
    ):
        # Independent reference: H0 = V - rank d1, H1 = Z^(E - rank d1 - rank d2)
        # plus the invariant factors of d2 above 1 (ker d1 is a direct summand).
        complexes = [
            build_complex(z5, z5_system),
            build_complex(d5, d5_system),
            build_complex(q8, q8_system),
            CayleyComplex(graph=build_graph(z5, z5_system)),
            DOUBLED_LOOP,
            TORUS,
            TWO_COMPONENTS,
        ]
        for c in complexes:
            v, e, f = len(c.graph.vertices), len(c.graph.edges), len(c.faces)
            d1, d2 = boundary_matrices(c)
            rank1, _ = sympy_rank_and_factors(d1, v, e)
            rank2, factors = sympy_rank_and_factors(d2, e, f)
            assert homology(c) == HomologySummary(
                h0_rank=v - rank1,
                h1_rank=e - rank1 - rank2,
                h1_torsion=tuple(d for d in factors if d > 1),
                euler=v - e + f,
            )


class TestExports:
    def test_dot_output_is_deterministic(self, z5, z5_system):
        g = build_graph(z5, z5_system)
        first = export(g, "dot")
        assert first == export(g, "dot")
        text = first.decode()
        assert text.startswith("digraph cayley {\n")
        assert text.endswith("}\n")
        assert 'v0 [label="1"];' in text
        assert text.count("->") == 5

    def test_json_round_trips_a_graph(self, d5, d5_system):
        g = build_graph(d5, d5_system)
        blob = export(g, "json")
        assert blob == export(g, "json")
        assert graph_from_json(blob) == g

    def test_json_round_trips_a_complex(self, q8, q8_system):
        c = build_complex(q8, q8_system)
        assert complex_from_json(export(c, "json")) == c

    def test_dump_json_is_canonical(self):
        blob = dump_json({"b": 1, "a": [2]})
        assert blob == b'{"a":[2],"b":1}\n'

    def test_jsonable_shape(self, z5, z5_system):
        data = to_jsonable(build_complex(z5, z5_system))
        assert {row["id"] for row in data["vertices"]} == set(range(5))
        assert all(
            set(row) == {"id", "src", "dst", "gen"} for row in data["edges"]
        )
        assert len(data["faces"]) == 5

    def test_unknown_format_is_rejected(self, z5, z5_system):
        with pytest.raises(ValueError, match="unknown export format"):
            export(build_graph(z5, z5_system), "xml")

    def test_malformed_json_ids_are_rejected(self):
        with pytest.raises(ValueError, match="vertex ids"):
            graph_from_json(json.dumps({"vertices": [{"id": 1, "word": "a"}], "edges": []}))
        with pytest.raises(ValueError, match="edge ids"):
            graph_from_json(
                json.dumps(
                    {
                        "vertices": [{"id": 0, "word": "1"}],
                        "edges": [{"id": 1, "src": 0, "dst": 0, "gen": "g"}],
                    }
                )
            )

    @pytest.mark.parametrize(
        "section, k, field, value, message",
        [
            # -1 would be the last vertex, True vertex 1, and 7 and "x" would
            # fail later as a bare IndexError or TypeError.
            ("edges", 0, "dst", -1, "an edge end is not a vertex number"),
            ("edges", 0, "dst", 7, "an edge end is not a vertex number"),
            ("edges", 0, "dst", "x", "an edge end is not a vertex number"),
            ("edges", 0, "dst", True, "an edge end is not a vertex number"),
            ("edges", 2, "src", 5, "an edge end is not a vertex number"),
            ("faces", 0, "base", 5, "a face base is not a vertex number"),
            # Entry 0 would read as the last edge backwards, so [0, 5] would
            # pass as a cycle.
            ("faces", 0, "boundary", [0, 5], "a face boundary entry is not a signed edge"),
            ("faces", 0, "boundary", [6, -6], "a face boundary entry is not a signed edge"),
            ("faces", 0, "boundary", [True, -1], "a face boundary entry is not a signed edge"),
            # A null word once read as an unfilled id slot.
            ("vertices", 3, "word", None, "vertex words and edge labels must be strings"),
            ("vertices", 3, "id", 3.0, "vertex ids are not 0..n-1"),
            ("edges", 1, "id", 0, "edge ids are not 0..n-1"),
        ],
        ids=[
            "dst-negative", "dst-past-the-end", "dst-text", "dst-bool", "src-past-the-end",
            "base-past-the-end", "boundary-zero", "boundary-past-the-end", "boundary-bool",
            "word-null", "vertex-id-float", "edge-id-duplicate",
        ],
    )
    def test_json_numbers_that_name_no_cell_are_rejected(
        self, z5, z5_system, section, k, field, value, message
    ):
        data = to_jsonable(build_complex(z5, z5_system))  # 5 vertices, 5 edges
        assert complex_from_json(dump_json(data)) == build_complex(z5, z5_system)
        data[section][k][field] = value
        with pytest.raises(ValueError, match=message):
            complex_from_json(dump_json(data))

    def test_json_rows_are_read_in_id_order(self, d5, d5_system):
        g = build_graph(d5, d5_system)
        data = to_jsonable(g)
        data["vertices"].reverse()
        data["edges"].reverse()
        assert graph_from_json(dump_json(data)) == g
