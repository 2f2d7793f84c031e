"""Labeled graphs, graph-temporal trajectories, and neighbor operations.

A labeled graph is a fixed undirected graph with string node/edge ids.
A trajectory attaches a real label to every node and every edge at every
discrete time index 1..L.  Both are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import InputError, RangeError

if TYPE_CHECKING:
    from .formula import EdgeAtom

#: what reading a JSON document of the wrong shape raises
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


class LabeledGraph:
    """Static undirected graph with opaque string node and edge ids.

    Node pairs carry at most one edge and self-loops are rejected.
    """

    def __init__(self, nodes: Sequence[str], edges: Sequence[tuple[str, str, str]]):
        """edges: iterable of (edge_id, end1, end2)."""
        nodes = list(nodes)
        if not nodes:
            raise InputError("a graph needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise InputError("duplicate node ids")
        self.nodes = tuple(nodes)
        self.node_index = {v: i for i, v in enumerate(self.nodes)}

        edge_ids = []
        endpoints = {}
        seen_pairs = set()
        for eid, a, b in edges:
            if eid in endpoints:
                raise InputError(f"duplicate edge id {eid!r}")
            if a not in self.node_index or b not in self.node_index:
                raise InputError(f"edge {eid!r} references unknown node")
            if a == b:
                raise InputError(f"edge {eid!r} is a self-loop")
            pair = frozenset((a, b))
            if pair in seen_pairs:
                raise InputError(f"multiple edges between {a!r} and {b!r}")
            seen_pairs.add(pair)
            edge_ids.append(eid)
            endpoints[eid] = (a, b)
        self.edges = tuple(edge_ids)
        self.edge_index = {e: i for i, e in enumerate(self.edges)}
        self.endpoints = endpoints

        # edge_ends[j] = (node index, node index)
        self.edge_ends = np.array(
            [[self.node_index[endpoints[e][0]], self.node_index[endpoints[e][1]]] for e in self.edges],
            dtype=np.int64,
        ).reshape(len(self.edges), 2)

    def index_of(self, v: str) -> int:
        """The index of node v; an unknown id is an input error."""
        if v not in self.node_index:
            raise InputError(f"unknown node id {v!r}")
        return self.node_index[v]

    @property
    def n_nodes(self):
        return len(self.nodes)

    @property
    def n_edges(self):
        return len(self.edges)

    def to_json_dict(self):
        return {
            "nodes": list(self.nodes),
            "edges": [{"id": e, "ends": list(self.endpoints[e])} for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "LabeledGraph":
        try:
            nodes = d["nodes"]
            if not isinstance(nodes, list):
                raise InputError(f"malformed graph JSON: 'nodes' must be a list, got {nodes!r}")
            edges = []
            for e in d["edges"]:
                ends = e["ends"]
                if not isinstance(ends, list) or len(ends) != 2:
                    raise InputError(f"malformed graph JSON: 'ends' of edge {e['id']!r} must "
                                     f"list two node ids, got {ends!r}")
                edges.append((e["id"], *ends))
        except _MALFORMED as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc
        if not all(isinstance(x, str) for x in nodes + [x for e in edges for x in e]):
            raise InputError("malformed graph JSON: node and edge ids must be strings")
        return cls(nodes, edges)

    @classmethod
    def complete(cls, nodes: Sequence[str]) -> "LabeledGraph":
        nodes = list(nodes)
        edges = []
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                edges.append((f"e{i}_{j}", nodes[i], nodes[j]))
        return cls(nodes, edges)

    def __repr__(self):
        return f"LabeledGraph({self.n_nodes} nodes, {self.n_edges} edges)"


class GraphTemporalTrajectory:
    """Node and edge label functions over time indices 1..L on a fixed graph.

    Labels are stored densely: node_labels has shape (|V|, L) and
    edge_labels has shape (|E|, L).  Time index k maps to column k-1.
    """

    def __init__(self, graph: LabeledGraph, node_labels, edge_labels, label=None):
        node_labels = np.asarray(node_labels, dtype=float)
        edge_labels = np.asarray(edge_labels, dtype=float)
        if node_labels.ndim != 2 or node_labels.shape[0] != graph.n_nodes:
            raise InputError("node_labels must have shape (|V|, L)")
        L = node_labels.shape[1]
        if L < 1:
            raise InputError("trajectory length L must be >= 1")
        if edge_labels.shape != (graph.n_edges, L):
            raise InputError("edge_labels must have shape (|E|, L)")
        if not (np.isfinite(node_labels).all() and np.isfinite(edge_labels).all()):
            raise InputError("node and edge labels must be finite")
        self.graph = graph
        self.L = L
        self.node_labels = node_labels
        self.edge_labels = edge_labels
        self.node_labels.setflags(write=False)
        self.edge_labels.setflags(write=False)
        self.label = label  # classification label +1/-1 or None

    def node_label(self, v: str, k: int) -> float:
        self._check_time(k)
        return float(self.node_labels[self.graph.node_index[v], k - 1])

    def edge_label(self, e: str, k: int) -> float:
        self._check_time(k)
        return float(self.edge_labels[self.graph.edge_index[e], k - 1])

    def _check_time(self, k):
        if not 1 <= k <= self.L:
            raise RangeError(f"time index {k} outside [1, {self.L}]")

    def to_json_dict(self, inline_graph=True):
        d = {
            "graph": self.graph.to_json_dict() if inline_graph else None,
            "L": self.L,
            "node_labels": {v: self.node_labels[i].tolist() for i, v in enumerate(self.graph.nodes)},
            "edge_labels": {e: self.edge_labels[j].tolist() for j, e in enumerate(self.graph.edges)},
        }
        if self.label is not None:
            d["label"] = self.label
        return d

    @classmethod
    def from_json_dict(cls, d: Mapping, graph: LabeledGraph | None = None) -> "GraphTemporalTrajectory":
        if not isinstance(d, Mapping):
            raise InputError("malformed trajectory JSON: expected an object")
        g = d.get("graph")
        inline = (load_graph(g) if isinstance(g, str)
                  else LabeledGraph.from_json_dict(g) if isinstance(g, Mapping) else None)
        if graph is None:
            if inline is None:
                raise InputError("trajectory JSON carries no graph and none was supplied")
            graph = inline
        elif inline is not None and inline.to_json_dict() != graph.to_json_dict():
            raise InputError("trajectory's inline 'graph' differs from the graph it is read on")
        try:
            L = _json_int(d["L"], "trajectory 'L'")
            node_labels = _label_rows(d, "node_labels", graph.nodes, L)
            edge_labels = _label_rows(d, "edge_labels", graph.edges, L)
        except _MALFORMED as exc:
            raise InputError(f"malformed trajectory JSON: {exc}") from exc
        label = d.get("label")
        if label is not None:
            if isinstance(label, bool) or label not in (1, -1):
                raise InputError(f"classification label must be 1 or -1, got {label!r}")
            label = int(label)
        return cls(graph, node_labels, edge_labels, label=label)

    def __repr__(self):
        tag = "" if self.label is None else f", label={self.label:+d}"
        return f"GraphTemporalTrajectory(L={self.L}{tag})"


def _json_int(value, what):
    """A JSON integer field as an int, 2.0 read as 2; a bool, a string or a
    fraction is an input error."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise InputError(f"{what} must be a JSON integer, got {value!r}")
    return int(value)


def _json_real(value, what):
    """A JSON number field as a float; a bool or a string is an input error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a JSON number, got {value!r}")
    return float(value)


def _label_rows(d, key, ids, L):
    """(len(ids), L) labels from the JSON object d[key], which holds one row
    of L numbers per id and no other key.  The key may be absent when ids
    is empty."""
    table = d[key] if ids or key in d else {}
    if not isinstance(table, Mapping):
        raise InputError(f"malformed trajectory JSON: {key!r} must be an object keyed by id")
    unknown = sorted(set(table) - set(ids))
    if unknown:
        raise InputError(f"malformed trajectory JSON: {key!r} has a row for unknown id "
                         f"{unknown[0]!r}")
    rows = []
    for v in ids:
        if v not in table:
            raise InputError(f"malformed trajectory JSON: {key!r} has no row for {v!r}")
        row = table[v]
        if not (isinstance(row, list) and len(row) == L
                and all(type(x) in (int, float) for x in row)):
            raise InputError(f"malformed trajectory JSON: {key}[{v!r}] must list L = {L} "
                             "numbers")
        rows.append(row)
    return np.array(rows, dtype=float).reshape(len(ids), L)


def reach(graph: LabeledGraph, edge_labels, chain: Sequence[EdgeAtom]) -> np.ndarray:
    """R[t, v, u] iff u is reachable from {v} through the chain under column t
    of the (|E|, T) edge-label block.

    The chain is applied first element first; each hop deduplicates, and a
    node may re-enter the set through one of its neighbors.
    """
    if len(chain) < 1:
        raise InputError("neighbor chain must have length >= 1")
    edge_labels = np.asarray(edge_labels, dtype=float)
    if edge_labels.ndim != 2 or edge_labels.shape[0] != graph.n_edges:
        raise InputError("edge_labels must have shape (|E|, T)")
    T, V = edge_labels.shape[1], graph.n_nodes
    a, b = graph.edge_ends.T
    R = None
    for e in chain:
        t, j = np.nonzero(e.holds(edge_labels).T)
        H = np.zeros((T, V, V), dtype=bool)
        H[t, a[j], b[j]] = True
        H[t, b[j], a[j]] = True
        R = H if R is None else R @ H  # boolean product: OR of ANDs, no count to overflow
    return R


def _read_json(path):
    """The parsed content of a JSON file; malformed content is an input error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax or encoding; deep nesting
            raise InputError(f"malformed JSON in {path}: {exc}") from exc


def load_graph(path) -> LabeledGraph:
    return LabeledGraph.from_json_dict(_read_json(path))


def load_trajectories(path, graph: LabeledGraph | None = None) -> list[GraphTemporalTrajectory]:
    """Load a trajectory file or trajectory-set file (JSON array)."""
    data = _read_json(path)
    if isinstance(data, list):
        out = []
        for d in data:
            t = GraphTemporalTrajectory.from_json_dict(d, graph=graph)
            graph = t.graph  # trajectory sets share one graph
            out.append(t)
        return out
    return [GraphTemporalTrajectory.from_json_dict(data, graph=graph)]


def save_trajectories(path, trajectories: Sequence[GraphTemporalTrajectory]):
    docs = []
    for i, t in enumerate(trajectories):
        docs.append(t.to_json_dict(inline_graph=(i == 0)))
        if i > 0:
            docs[-1].pop("graph", None)
    with open(path, "w") as fh:
        json.dump(docs, fh)
