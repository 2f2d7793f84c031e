"""Graph core: construction, trajectories, reach and neighbor operators, IO."""

import json
import random
import re

import numpy as np
import pytest

from gtl.errors import InputError, RangeError, UsageError
from gtl.formula import Atom, EdgeAtom, Param
from gtl.graph import (
    GraphTemporalTrajectory, LabeledGraph, load_graph, load_trajectories,
    reach, save_trajectories,
)
from gtl.prior import load_prior
from gtl.templates import load_templates
from gtl.semantics import sat_table

from conftest import neighbor_op, random_graph, static_reach, two_bin_prior


class TestLabeledGraph:
    def test_basic(self):
        g = LabeledGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
        assert g.n_nodes == 3 and g.n_edges == 2
        assert g.endpoints["e1"] == ("a", "b")
        assert g.edge_ends.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("nodes,edges", [
        (["a", "a"], []),
        (["a", "b"], [("e1", "a", "b"), ("e1", "b", "a")]),
        (["a", "b"], [("e1", "a", "b"), ("e2", "b", "a")]),
        (["a", "b"], [("e1", "a", "a")]),
        (["a", "b"], [("e1", "a", "zzz")]),
        ([], []),  # coverage and MR divide by the node count
    ])
    def test_rejects_malformed(self, nodes, edges):
        with pytest.raises(InputError):
            LabeledGraph(nodes, edges)

    def test_complete(self):
        g = LabeledGraph.complete(["a", "b", "c", "d"])
        assert g.n_edges == 6
        assert np.bincount(g.edge_ends.ravel()).tolist() == [3, 3, 3, 3]

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

    @pytest.mark.parametrize("label", [2, "pos", [1], 1.5, True])
    def test_bad_class_label(self, label):
        g = LabeledGraph(["a"], [])
        d = GraphTemporalTrajectory(g, [[1.0]], np.zeros((0, 1))).to_json_dict()
        d["label"] = label
        with pytest.raises(InputError):
            GraphTemporalTrajectory.from_json_dict(d)

    @pytest.mark.parametrize("label", [1, -1, 1.0])
    def test_class_label_read_as_int(self, label):
        g = LabeledGraph(["a"], [])
        d = GraphTemporalTrajectory(g, [[1.0]], np.zeros((0, 1))).to_json_dict()
        d["label"] = label
        got = GraphTemporalTrajectory.from_json_dict(d).label
        assert got == label and type(got) is int


class TestThresholdAtoms:
    def test_holds(self):
        assert EdgeAtom("<=", 0.5).holds(0.5)
        assert not EdgeAtom("<=", 0.5).holds(0.6)
        assert EdgeAtom(">=", 2).holds(2.0)
        assert EdgeAtom(">=", 2).holds(np.array([1.5, 2.0])).tolist() == [False, True]
        # an int threshold is compared as a float: 2**53 + 1 rounds to 2**53
        assert EdgeAtom(">=", 2 ** 53 + 1).holds(float(2 ** 53))
        # node atoms hold by the same rule, at the boundary too
        g = LabeledGraph(["a"], [])
        traj = GraphTemporalTrajectory(g, [[0.5, 0.6, 2.0]], np.zeros((0, 3)))
        assert sat_table(traj, Atom("<=", 0.5))[0].tolist() == [True, False, False]
        assert sat_table(traj, Atom(">=", 2))[0].tolist() == [False, False, True]
        for cls in (Atom, EdgeAtom):
            with pytest.raises(InputError):
                cls("<", 0.5)

    def test_parametric_chain_rejected(self, six_node):
        # a chain that still holds ?d has no edge labels to compare against
        chain = (EdgeAtom("<=", 1), EdgeAtom("<=", Param("d")))
        with pytest.raises(UsageError):
            reach(six_node.graph, six_node.edge_labels, chain)
        with pytest.raises(UsageError):
            neighbor_op(six_node, ["v4"], 1, chain)
        prior = two_bin_prior(six_node.graph, 1,
                              edge_labels=dict.fromkeys(six_node.graph.edges, 0.0))
        with pytest.raises(UsageError):
            static_reach(prior, "v4", chain)


class TestHopReach:
    def test_one_hop_six_node(self, six_node):
        # one hop from v4 across edges with y <= 1 reaches exactly {v1, v5}
        R = reach(six_node.graph, six_node.edge_labels, (EdgeAtom("<=", 1),))
        assert R.shape == (1, 6, 6) and R.dtype == bool
        i = six_node.graph.node_index
        row = R[0, i["v4"]]
        got = {v for v in six_node.graph.nodes if row[i[v]]}
        assert got == {"v1", "v5"}
        assert not row[i["v4"]]

    def test_reach_two_hops(self, six_node):
        # two hops over (y <= 1) from v4: second hop from {v1, v5}
        chain = (EdgeAtom("<=", 1), EdgeAtom("<=", 1))
        R = reach(six_node.graph, six_node.edge_labels, chain)
        i = six_node.graph.node_index
        got = {v for v in six_node.graph.nodes if R[0, i["v4"], i[v]]}
        assert got == {"v2", "v4"}  # hops may revisit the start node

    def test_path_counts_do_not_wrap(self):
        # 256 two-hop paths join each pair of distinct nodes of K_258, which
        # an 8-bit path count wraps to 0
        g = LabeledGraph.complete([f"n{i}" for i in range(258)])
        R = reach(g, np.ones((g.n_edges, 1)), [EdgeAtom("<=", 1)] * 2)
        assert R.all()

    def test_rejects_bad_input(self, six_node):
        g, y = six_node.graph, six_node.edge_labels
        with pytest.raises(InputError):
            reach(g, y, ())
        with pytest.raises(InputError):
            reach(g, y[:-1], (EdgeAtom("<=", 1),))

    def test_differential_against_neighbor_op(self):
        # reach is vectorized over edges and times; neighbor_op walks the
        # adjacency lists one edge at a time
        rng = random.Random(3)
        rng_np = np.random.default_rng(3)
        for case in range(60):
            g = random_graph(rng, rng.randint(1, 7), 0.0 if case < 5 else rng.random())
            T = rng.randint(1, 4)
            traj = GraphTemporalTrajectory(g, np.zeros((g.n_nodes, T)),
                                           np.round(rng_np.random((g.n_edges, T)) * 3, 1))
            chain = [EdgeAtom(rng.choice(["<=", ">="]), rng.choice([0.5, 1.5, 2.5]))
                     for _ in range(rng.randint(1, 3))]
            R = reach(g, traj.edge_labels, chain)
            assert R.shape == (T, g.n_nodes, g.n_nodes)
            for k in range(1, T + 1):
                for vi, v in enumerate(g.nodes):
                    got = {g.nodes[u] for u in np.flatnonzero(R[k - 1, vi])}
                    assert got == neighbor_op(traj, [v], k, chain), (case, k, v)

    def test_neighbor_op(self, six_node):
        got = neighbor_op(six_node, ["v4"], 1, (EdgeAtom("<=", 1),))
        assert got == {"v1", "v5"}
        assert neighbor_op(six_node, [], 1, (EdgeAtom("<=", 1),)) == set()
        with pytest.raises(InputError):
            neighbor_op(six_node, ["nope"], 1, (EdgeAtom("<=", 1),))


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


class TestStrictReaders:
    """Malformed graph and trajectory documents are input errors that name
    the offending key, not coerced into something readable."""

    def doc(self):
        g = LabeledGraph(["a", "b"], [("e1", "a", "b")])
        return GraphTemporalTrajectory(g, [[0.5, 1.5], [1.0, 2.0]], [[1.0, 1.0]]).to_json_dict()

    def test_edge_with_three_ends(self):
        d = {"nodes": ["a", "b", "c"], "edges": [{"id": "e1", "ends": ["a", "b", "c"]}]}
        msg = "graph['edges'][0]['ends'] must be a JSON array of 2 entries"
        with pytest.raises(InputError, match=re.escape(msg)):
            LabeledGraph.from_json_dict(d)

    def test_nodes_must_be_a_list(self):
        with pytest.raises(InputError, match=re.escape("graph['nodes'] must be a JSON array")):
            LabeledGraph.from_json_dict({"nodes": "ab", "edges": []})

    @pytest.mark.parametrize("L", [2.5, "2", True])
    def test_horizon_must_be_a_json_integer(self, L):
        d = self.doc()
        d["L"] = L
        with pytest.raises(InputError, match=re.escape("trajectory['L'] must be a JSON integer")):
            GraphTemporalTrajectory.from_json_dict(d)

    @pytest.mark.parametrize("key", ["node_labels", "edge_labels"])
    def test_row_for_unknown_id(self, key):
        d = self.doc()
        d[key]["zzz"] = [0.0, 0.0]
        msg = f"trajectory['{key}'] has unknown key 'zzz'"
        with pytest.raises(InputError, match=re.escape(msg)):
            GraphTemporalTrajectory.from_json_dict(d)

    @pytest.mark.parametrize("key, v", [("node_labels", "a"), ("edge_labels", "e1")])
    def test_missing_row_names_its_id(self, key, v):
        d = self.doc()
        del d[key][v]
        with pytest.raises(InputError, match=re.escape(f"trajectory['{key}']['{v}'] is missing")):
            GraphTemporalTrajectory.from_json_dict(d)

    @pytest.mark.parametrize("row", [[0.5], [0.5, 1.5, 2.0], [0.5, "1.5"], [0.5, True]])
    def test_row_of_the_wrong_length_or_type(self, row):
        d = self.doc()
        d["node_labels"]["b"] = row
        with pytest.raises(InputError, match=re.escape("trajectory['node_labels']['b']")):
            GraphTemporalTrajectory.from_json_dict(d)

    def test_later_inline_graph_must_match_the_first(self, tmp_path):
        first, later = self.doc(), self.doc()
        later["graph"]["nodes"] = ["b", "a"]
        path = tmp_path / "t.json"
        path.write_text(json.dumps([first, later]))
        with pytest.raises(InputError, match="inline 'graph' differs"):
            load_trajectories(path)
        later["graph"] = first["graph"]  # a repeated equal graph is fine
        path.write_text(json.dumps([first, later]))
        assert len(load_trajectories(path)) == 2

    def test_graph_is_an_object_or_null(self, tmp_path):
        # a string is not read as a file path, even one that names a graph file
        gpath = tmp_path / "g.json"
        d = self.doc()
        gpath.write_text(json.dumps(d["graph"]))
        d["graph"] = str(gpath)
        msg = "trajectory['graph'] must be a JSON object, got '"
        with pytest.raises(InputError, match=re.escape(msg)):
            GraphTemporalTrajectory.from_json_dict(d)
        d["graph"] = None
        t = GraphTemporalTrajectory.from_json_dict(d, graph=load_graph(gpath))
        assert t.to_json_dict(inline_graph=False) == d


_TWO_NODES = {"nodes": ["a", "b"], "edges": [{"id": "e1", "ends": ["a", "b"]}]}
_PRIOR = {"L": 1, "bins": [[0, 1], [1, 2]], "edge_labels": {"e1": 1.0},
          "pmf": {"a": [[0.5, 0.5]], "b": [[0.5, 0.5]]}}
_TEMPLATE = {"formula": "F x >= ?c", "params": {"c": {"min": 0, "max": 1}}}


def _with(doc, *keys, value):
    """A deep copy of doc with doc[keys[0]]...[keys[-1]] set to value."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for k in keys[:-1]:
        inner = inner[k]
    inner[keys[-1]] = value
    return doc


@pytest.mark.parametrize("kind, doc, where", [
    ("graph", [_TWO_NODES], " must be a JSON object, got [{"),
    ("graph", {"nodes": ["a"]}, "['edges'] is missing"),
    ("graph", _with(_TWO_NODES, "edges", 0, "id", value=1),
     "['edges'][0]['id'] must be a JSON string, got 1"),
    ("prior", _with(_PRIOR, "bins", 0, value=[0, 1, 2]),
     "['bins'][0] must be a JSON array of 2 entries"),
    ("prior", _with(_PRIOR, "pmf", "a", 0, 1, value="0.5"),
     "['pmf']['a'][0][1] must be a JSON number, got '0.5'"),
    ("prior", _with(_PRIOR, "pmf", "a", 0, 0, value=True),
     "['pmf']['a'][0][0] must be a JSON number, got True"),
    ("prior", _with(_PRIOR, "default_pmf", value=[[0.5, 0.5]]),
     "['default_pmf'] must be a JSON array of 2 entries"),
    ("template", _with(_TEMPLATE, "formula", value=["F x >= ?c"]),
     "['formula'] must be a JSON string"),
    ("template", _with(_TEMPLATE, "params", "c", "kind", value=1),
     "['params']['c']['kind'] must be a JSON string"),
])
def test_reader_errors_name_the_file_and_key_path(tmp_path, kind, doc, where):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    graph = LabeledGraph.from_json_dict(_TWO_NODES)
    load = {"graph": load_graph, "prior": lambda p: load_prior(p, graph),
            "template": load_templates}[kind]
    with pytest.raises(InputError, match=re.escape(f"{path}{where}")):
        load(path)
