"""Labeled graphs, graph-temporal trajectories, and neighbor operations.

A labeled graph is a fixed undirected graph with string node/edge ids.
A trajectory attaches a real label to every node and every edge at every
discrete time index 1..L.  Both are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, RangeError


@dataclass(frozen=True)
class EdgeProposition:
    """Threshold predicate on an edge label: y <= c or y >= c."""

    op: str  # "<=" or ">="
    threshold: float

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise InputError(f"edge proposition operator must be <= or >=, got {self.op!r}")
        if not np.isfinite(self.threshold):
            raise InputError("edge proposition threshold must be finite")

    def holds(self, value):
        return value <= self.threshold if self.op == "<=" else value >= self.threshold

    def __str__(self):
        return f"y {self.op} {_fmt_num(self.threshold)}"


@dataclass(frozen=True)
class NodeProposition:
    """Threshold predicate on a node label: x <= c or x >= c."""

    op: str
    threshold: float

    def __post_init__(self):
        if self.op not in ("<=", ">="):
            raise InputError(f"node proposition operator must be <= or >=, got {self.op!r}")
        if not np.isfinite(self.threshold):
            raise InputError("node proposition threshold must be finite")

    def holds(self, value):
        return value <= self.threshold if self.op == "<=" else value >= self.threshold

    def __str__(self):
        return f"x {self.op} {_fmt_num(self.threshold)}"


def _fmt_num(x):
    if isinstance(x, float) and x.is_integer():
        return str(int(x))
    return repr(x) if isinstance(x, float) else str(x)


class LabeledGraph:
    """Static undirected graph with opaque string node and edge ids.

    Node pairs carry at most one edge and self-loops are rejected.
    Adjacency lists are precomputed for O(deg) neighbor hops.
    """

    def __init__(self, nodes: Sequence[str], edges: Sequence[tuple[str, str, str]]):
        """edges: iterable of (edge_id, end1, end2)."""
        nodes = list(nodes)
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
        # adjacency: node index -> list of (edge index, other node index)
        adj = [[] for _ in self.nodes]
        for j, e in enumerate(self.edges):
            a, b = self.edge_ends[j]
            adj[a].append((j, b))
            adj[b].append((j, a))
        self.adjacency = tuple(tuple(lst) for lst in adj)

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
            edges = [(e["id"], e["ends"][0], e["ends"][1]) for e in d["edges"]]
        except (KeyError, IndexError, TypeError) as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc
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
        self._sat_cache = {}

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
        if graph is None:
            g = d.get("graph")
            if isinstance(g, str):
                graph = load_graph(g)
            elif isinstance(g, Mapping):
                graph = LabeledGraph.from_json_dict(g)
            else:
                raise InputError("trajectory JSON carries no graph and none was supplied")
        try:
            L = int(d["L"])
            node_labels = np.array([d["node_labels"][v] for v in graph.nodes], dtype=float).reshape(
                graph.n_nodes, L
            )
            if graph.n_edges:
                edge_labels = np.array([d["edge_labels"][e] for e in graph.edges], dtype=float).reshape(
                    graph.n_edges, L
                )
            else:
                edge_labels = np.zeros((0, L))
        except (KeyError, ValueError, TypeError) as exc:
            raise InputError(f"malformed trajectory JSON: {exc}") from exc
        label = d.get("label")
        if label is not None:
            label = int(label)
            if label not in (1, -1):
                raise InputError(f"classification label must be 1 or -1, got {label}")
        return cls(graph, node_labels, edge_labels, label=label)

    def __repr__(self):
        tag = "" if self.label is None else f", label={self.label:+d}"
        return f"GraphTemporalTrajectory(L={self.L}{tag})"


def hop_matrix(traj: GraphTemporalTrajectory, prop: EdgeProposition, k: int) -> np.ndarray:
    """Boolean |V|x|V| matrix: H[a, b] iff an edge {a, b} satisfies prop at time k."""
    traj._check_time(k)
    g = traj.graph
    H = np.zeros((g.n_nodes, g.n_nodes), dtype=bool)
    if g.n_edges == 0:
        return H
    ok = np.array([prop.holds(x) for x in traj.edge_labels[:, k - 1]])
    ends = g.edge_ends[ok]
    H[ends[:, 0], ends[:, 1]] = True
    H[ends[:, 1], ends[:, 0]] = True
    return H


def reach_matrix(traj: GraphTemporalTrajectory, chain: Sequence[EdgeProposition], k: int) -> np.ndarray:
    """R[v, u] iff u is reachable from {v} through the chain at time k.

    The chain is applied first element first; each hop deduplicates, and a
    node may re-enter the set through one of its neighbors.
    """
    if len(chain) < 1:
        raise InputError("neighbor chain must have length >= 1")
    R = hop_matrix(traj, chain[0], k)
    for prop in chain[1:]:
        H = hop_matrix(traj, prop, k)
        R = (R.astype(np.uint8) @ H.astype(np.uint8)) > 0
    return R


def neighbor_op(
    traj: GraphTemporalTrajectory,
    sources: Iterable[str],
    k: int,
    chain: Sequence[EdgeProposition],
) -> set[str]:
    """Nodes reachable from `sources` through the edge-proposition chain at time k."""
    g = traj.graph
    idx = []
    for v in sources:
        if v not in g.node_index:
            raise InputError(f"unknown node id {v!r}")
        idx.append(g.node_index[v])
    if not idx:
        traj._check_time(k)
        if len(chain) < 1:
            raise InputError("neighbor chain must have length >= 1")
        return set()
    R = reach_matrix(traj, chain, k)
    reached = np.zeros(g.n_nodes, dtype=bool)
    for i in idx:
        reached |= R[i]
    return {g.nodes[i] for i in np.nonzero(reached)[0]}


def _read_json(path):
    """The parsed content of a JSON file; malformed content is an input error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
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
