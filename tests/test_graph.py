"""Graph core: construction, trajectories, hop/reach operators, IO."""

import json

import numpy as np
import pytest

from gtl.errors import InputError, RangeError
from gtl.graph import (
    EdgeProposition, GraphTemporalTrajectory, LabeledGraph, NodeProposition,
    hop_matrix, load_graph, load_trajectories, neighbor_op, reach_matrix,
    save_trajectories,
)


class TestLabeledGraph:
    def test_basic(self):
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        assert g.n_nodes == 3 and g.n_edges == 2
        assert g.endpoints["e1"] == ("a", "b")
        assert dict(g.adjacency[g.node_index["b"]]) == {
            g.edge_index["e1"]: g.node_index["a"],
            g.edge_index["e2"]: g.node_index["c"]}

    @pytest.mark.parametrize("nodes,edges", [
        (["a", "a"], []),
        (["a", "b"], [("e1", "a", "b"), ("e1", "b", "a")]),
        (["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")]),
        (["a", "b"], [("e1", "a", "a")]),
        (["a", "b"], [("e1", "a", "zzz")]),
    ])
    def test_rejects_malformed(self, nodes, edges):
        with pytest.raises(InputError):
            LabeledGraph(nodes, edges)

    def test_complete(self):
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        assert g.n_edges == 6
        assert all(len(g.adjacency[i]) == 3 for i in range(4))

    def test_json_round_trip(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        g2 = LabeledGraph.from_json_dict(g.to_json_dict())
        assert g2.nodes == g.nodes and g2.endpoints == g.endpoints


class TestTrajectory:
    def test_shape_checks(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        with pytest.raises(InputError):
            GraphTemporalTrajectory(g, [[1.0]], [[1.0], [2.0]])
        with pytest.raises(InputError):
            GraphTemporalTrajectory(g, np.zeros((2, 0)), np.zeros((1, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_labels(self, bad):
        # a NaN label would be false for both x <= c and x >= c
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        with pytest.raises(InputError):
            GraphTemporalTrajectory(g, [[bad], [0.5]], [[1.0]])
        with pytest.raises(InputError):
            GraphTemporalTrajectory(g, [[0.5], [0.5]], [[bad]])

    def test_one_based_time(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        t = GraphTemporalTrajectory(g, [[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]])
        assert t.node_label("a", 1) == 1.0
        assert t.node_label("b", 2) == 4.0
        assert t.edge_label("e1", 2) == 6.0
        with pytest.raises(RangeError):
            t.node_label("a", 0)
        with pytest.raises(RangeError):
            t.node_label("a", 3)

    def test_labels_immutable(self):
        g = LabeledGraph(["a"], [])
        t = GraphTemporalTrajectory(g, [[1.0]], np.zeros((0, 1)))
        with pytest.raises(ValueError):
            t.node_labels[0, 0] = 2.0

    def test_bad_class_label(self):
        g = LabeledGraph(["a"], [])
        d = GraphTemporalTrajectory(g, [[1.0]], np.zeros((0, 1))).to_json_dict()
        d["label"] = 2
        with pytest.raises(InputError):
            GraphTemporalTrajectory.from_json_dict(d)


class TestPropositions:
    def test_holds(self):
        assert NodeProposition("<=", 0.5).holds(0.5)
        assert not NodeProposition("<=", 0.5).holds(0.6)
        assert EdgeProposition(">=", 2).holds(2.0)
        with pytest.raises(InputError):
            NodeProposition("<", 0.5)


class TestHopReach:
    def test_hop_matrix_six_node(self, six_node):
        # one hop from v4 across edges with y <= 1 reaches exactly {v1, v5}
        H = hop_matrix(six_node, EdgeProposition("<=", 1), 1)
        i = six_node.graph.node_index
        row = H[i["v4"]]
        got = {v for v in six_node.graph.nodes if row[i[v]]}
        assert got == {"v1", "v5"}
        assert not H[i["v4"], i["v4"]]

    def test_reach_two_hops(self, six_node):
        # two hops over (y <= 1) from v4: second hop from {v1, v5}
        chain = (EdgeProposition("<=", 1), EdgeProposition("<=", 1))
        R = reach_matrix(six_node, chain, 1)
        i = six_node.graph.node_index
        got = {v for v in six_node.graph.nodes if R[i["v4"]][i[v]]}
        assert got == {"v2", "v4"}  # hops may revisit the start node

    def test_neighbor_op(self, six_node):
        got = neighbor_op(six_node, ["v4"], 1, (EdgeProposition("<=", 1),))
        assert got == {"v1", "v5"}
        assert neighbor_op(six_node, [], 1, (EdgeProposition("<=", 1),)) == set()
        with pytest.raises(InputError):
            neighbor_op(six_node, ["nope"], 1, (EdgeProposition("<=", 1),))


class TestIO:
    def test_save_load_round_trip(self, tmp_path, six_node):
        path = tmp_path / "trajs.json"
        save_trajectories(path, [six_node])
        back = load_trajectories(path)
        assert len(back) == 1
        assert np.array_equal(back[0].node_labels, six_node.node_labels)
        assert np.array_equal(back[0].edge_labels, six_node.edge_labels)

    def test_load_with_external_graph(self, tmp_path, six_node):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps(six_node.graph.to_json_dict()))
        g = load_graph(gpath)
        d = six_node.to_json_dict(inline_graph=False)
        d.pop("graph")
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps([d]))
        back = load_trajectories(tpath, g)
        assert np.array_equal(back[0].node_labels, six_node.node_labels)

    def test_missing_graph_errors(self, tmp_path, six_node):
        d = six_node.to_json_dict(inline_graph=False)
        d.pop("graph")
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps([d]))
        with pytest.raises(InputError):
            load_trajectories(tpath)
