"""Labeled graphs, graph-temporal trajectories, and neighbor operations.

A labeled graph is a fixed undirected graph with string node/edge ids.
A trajectory attaches a real label to every node and every edge at every
discrete time index 1..L.  Both are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import json
import reprlib
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InputError, RangeError

if TYPE_CHECKING:
    from .formula import EdgeAtom


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
    def from_json_dict(cls, d) -> "LabeledGraph":
        d = _Json.wrap(d, "graph")
        nodes = [v.str() for v in d["nodes"].list()]
        edges = [(e["id"].str(), *(v.str() for v in e["ends"].list(2))) for e in d["edges"].list()]
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
    def from_json_dict(cls, d, graph: LabeledGraph | None = None) -> "GraphTemporalTrajectory":
        d = _Json.wrap(d, "trajectory")
        g = d.get("graph")
        inline = None if g.value is None else LabeledGraph.from_json_dict(g)
        if graph is None:
            if inline is None:
                raise InputError("trajectory JSON carries no graph and none was supplied")
            graph = inline
        elif inline is not None and inline.to_json_dict() != graph.to_json_dict():
            raise InputError("trajectory's inline 'graph' differs from the graph it is read on")
        L = d["L"].int()
        # one row of L numbers per id; a table may be absent when it has no ids
        tables = [np.reshape([row.numbers(L) for row in d.get(key, {}).keyed(ids)], (len(ids), L))
                  for key, ids in (("node_labels", graph.nodes), ("edge_labels", graph.edges))]
        tag = d.get("label")
        label = None if tag.value is None else tag.int()
        if label not in (None, 1, -1):
            tag.fail("1 or -1")
        return cls(graph, *tables, label=label)

    def __repr__(self):
        tag = "" if self.label is None else f", label={self.label:+d}"
        return f"GraphTemporalTrajectory(L={self.L}{tag})"


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


class _Json:
    """A value of a parsed JSON document and the key path that reached it,
    such as `prior.json['pmf']['a'][0]`.  Each accessor returns the value as
    the kind it names, or raises an InputError that names the path, what
    was expected and a short repr of what was found; nothing is coerced."""

    __slots__ = ("value", "path")

    def __init__(self, value, path):
        self.value, self.path = value, path

    @classmethod
    def wrap(cls, d, root):
        """d as read from a file, or a plain value under the name root."""
        return d if isinstance(d, cls) else cls(d, root)

    def fail(self, expected):
        raise InputError(f"{self.path} must be {expected}, got {reprlib.repr(self.value)}")

    def obj(self) -> dict:
        if not isinstance(self.value, dict):
            self.fail("a JSON object")
        return self.value

    def __getitem__(self, key):
        if key not in self.obj():
            raise InputError(f"{self.path}[{key!r}] is missing")
        return _Json(self.value[key], f"{self.path}[{key!r}]")

    def get(self, key, default=None):
        """self[key], or default at that path when the key is absent."""
        return _Json(self.obj().get(key, default), f"{self.path}[{key!r}]")

    def list(self, n=None):
        if not isinstance(self.value, list) or n is not None and len(self.value) != n:
            self.fail("a JSON array" if n is None else f"a JSON array of {n} entries")
        return [_Json(x, f"{self.path}[{i}]") for i, x in enumerate(self.value)]

    def str(self):
        if not isinstance(self.value, str):
            self.fail("a JSON string")
        return self.value

    def int(self):
        """An integer, 2.0 read as 2; a bool, a string or a fraction fails."""
        v = self.value
        if isinstance(v, bool) or not (isinstance(v, int)
                                       or isinstance(v, float) and v.is_integer()):
            self.fail("a JSON integer")
        return int(v)

    def real(self):
        v = self.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail("a JSON number")
        try:
            return float(v)
        except OverflowError:  # an integer past the float range
            self.fail("a JSON number that a float holds")

    def numbers(self, n):
        """A row of exactly n JSON numbers, as floats."""
        return [x.real() for x in self.list(n)]

    def keyed(self, ids):
        """The object's values in the order of ids, which must be exactly its keys."""
        unknown = sorted(set(self.obj()) - set(ids))
        if unknown:
            raise InputError(f"{self.path} has unknown key {unknown[0]!r}")
        return [self[v] for v in ids]


def _read_json(path) -> _Json:
    """The parsed content of a JSON file, rooted at its path; malformed
    content is an input error."""
    with open(path) as fh:
        try:
            return _Json(json.load(fh), str(path))
        except (ValueError, RecursionError) as exc:  # bad syntax or encoding; deep nesting
            raise InputError(f"malformed JSON in {path}: {exc}") from exc


def load_graph(path) -> LabeledGraph:
    return LabeledGraph.from_json_dict(_read_json(path))


def load_trajectories(path, graph: LabeledGraph | None = None) -> list[GraphTemporalTrajectory]:
    """Load a trajectory file or trajectory-set file (JSON array)."""
    data = _read_json(path)
    out = []
    for d in data.list() if isinstance(data.value, list) else [data]:
        out.append(GraphTemporalTrajectory.from_json_dict(d, graph=graph))
        graph = out[-1].graph  # trajectory sets share one graph
    return out


def save_trajectories(path, trajectories: Sequence[GraphTemporalTrajectory]):
    docs = []
    for i, t in enumerate(trajectories):
        docs.append(t.to_json_dict(inline_graph=(i == 0)))
        if i > 0:
            docs[-1].pop("graph", None)
    with open(path, "w") as fh:
        json.dump(docs, fh)
