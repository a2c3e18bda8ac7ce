from __future__ import annotations

import pytest

from ldsramsey import Color, LdsParams, Witness, lds_edges, tree_class_sizes


class TestParams:
    def test_star_sides_are_normalized(self):
        params = LdsParams(3, 1, 2)
        assert (params.n, params.m) == (2, 1)
        assert params.label() == "S_3(2,1)"

    @pytest.mark.parametrize("c, n, m", [(0, 1, 1), (-2, 0, 0), (3, -1, 0), (3, 0, -4)])
    def test_rejects_out_of_domain(self, c, n, m):
        with pytest.raises(ValueError):
            LdsParams(c, n, m)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            LdsParams(3, 1.0, 1)
        with pytest.raises(ValueError):
            LdsParams("3", 1, 1)
        with pytest.raises(ValueError):
            LdsParams(True, 1, 1)
        with pytest.raises(ValueError):
            LdsParams(3, 1, False)

    def test_sizes(self):
        params = LdsParams(5, 7, 4)
        assert params.vertex_count == 16
        assert len(lds_edges(params)) == 15
        assert params.is_odd_link

    def test_json_dict_uses_normalized_values(self):
        assert LdsParams(2, 0, 3).to_json_dict() == {"c": 2, "n": 3, "m": 0}


class TestEdges:
    def test_single_center_is_a_star(self):
        assert lds_edges(LdsParams(1, 2, 0)) == [(0, 1), (0, 2)]

    def test_p5_shape(self):
        # S_3(1,1) is the path on five vertices: 3-0-1-2-4
        assert lds_edges(LdsParams(3, 1, 1)) == [(0, 1), (1, 2), (0, 3), (2, 4)]

    def test_center_degrees(self):
        params = LdsParams(5, 7, 4)
        degree = [0] * params.vertex_count
        for a, b in lds_edges(params):
            degree[a] += 1
            degree[b] += 1
        assert degree[0] == 8
        assert degree[params.c - 1] == 5
        assert sorted(degree)[-2:] == [5, 8]

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 6, 9])
    @pytest.mark.parametrize("n, m", [(0, 0), (1, 0), (3, 2), (4, 4)])
    def test_edges_form_a_tree(self, c, n, m):
        params = LdsParams(c, n, m)
        edges = lds_edges(params)
        k = params.vertex_count
        assert len(edges) == k - 1
        assert len(set(edges)) == len(edges)
        # connectivity via union-find; with k-1 edges that settles treeness
        parent = list(range(k))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            assert 0 <= a < k and 0 <= b < k
            parent[find(a)] = find(b)
        assert len({find(v) for v in range(k)}) == 1


class TestClassSizes:
    @pytest.mark.parametrize(
        "c, n, m, expect",
        [
            (3, 2, 1, (2, 4)),
            (5, 2, 2, (3, 6)),
            (1, 3, 0, (1, 3)),
            (4, 2, 1, (3, 4)),
            (2, 3, 1, (2, 4)),
        ],
    )
    def test_examples(self, c, n, m, expect):
        assert tree_class_sizes(LdsParams(c, n, m)) == expect

    @pytest.mark.parametrize("c", range(1, 8))
    @pytest.mark.parametrize("n, m", [(0, 0), (2, 1), (5, 5)])
    def test_classes_partition_the_tree(self, c, n, m):
        params = LdsParams(c, n, m)
        a, b = tree_class_sizes(params)
        assert a + b == params.vertex_count
        # recompute by 2-coloring the actual edge list
        side = {0: 0}
        edges = lds_edges(params)
        pending = list(edges)
        while pending:
            nxt = []
            for u, v in pending:
                if u in side:
                    side[v] = side[u] ^ 1
                elif v in side:
                    side[u] = side[v] ^ 1
                else:
                    nxt.append((u, v))
            pending = nxt
        zeros = sum(1 for v in side.values() if v == 0)
        assert (a, b) == (zeros, params.vertex_count - zeros)


class TestWitness:
    def test_json_round_trip(self):
        witness = Witness(Color.BLUE, (0, 2, 1), (3, 4), (5,))
        doc = witness.to_json_dict()
        assert doc == {"color": "blue", "path": [0, 2, 1], "n_leaves": [3, 4], "m_leaves": [5]}
        assert Witness.from_json_dict(doc) == witness

    def test_color_must_be_a_color(self):
        # a bare slot value would pass verify_witness and break to_json_dict
        with pytest.raises(ValueError, match="expected a Color"):
            Witness(1, (0, 2, 1), (3, 4), (5,))

    def test_vertices_concatenates_in_role_order(self):
        witness = Witness(Color.RED, (7, 1), (2,), ())
        assert witness.vertices() == (7, 1, 2)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"color": "green", "path": [0], "n_leaves": [], "m_leaves": []},
            {"color": "red", "path": 5, "n_leaves": [], "m_leaves": []},
            {"color": "red", "path": [0], "n_leaves": ["x"], "m_leaves": []},
            {"color": "red", "path": [0], "n_leaves": []},
            {"color": "red", "path": "01", "n_leaves": [], "m_leaves": []},
            {"color": "red", "path": [0, True], "n_leaves": [], "m_leaves": []},
            {"color": "red", "path": [0, 1], "n_leaves": [2.9], "m_leaves": []},
        ],
    )
    def test_malformed_documents_are_rejected(self, doc):
        with pytest.raises(ValueError):
            Witness.from_json_dict(doc)
