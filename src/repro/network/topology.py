"""Hybrid control-network topology (paper section 5.1).

Two layers:

* **intra-layer mesh** between controllers, mirroring the qubit device
  topology (Insight #3): controllers of physically adjacent qubits are
  directly connected, so nearby synchronization and feedback between
  neighbors take one hop;
* **inter-layer balanced tree** of routers above the controllers, giving a
  minimal-edge, minimal-diameter (2h) path for region-level
  synchronization and remote feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..errors import TopologyError


@dataclass
class Topology:
    """Controller mesh + router tree with hop latencies.

    Addresses: controllers are ``0 .. num_controllers-1``; routers get
    addresses starting at ``router_base``.
    """

    num_controllers: int
    #: controller -> its mesh neighbors (every controller has an entry)
    mesh: Dict[int, Set[int]]
    #: router -> its children (routers or controllers), in creation order
    tree: Dict[int, List[int]]
    parent: Dict[int, int]
    router_base: int
    neighbor_link_cycles: int = 4
    router_hop_cycles: int = 8

    @property
    def routers(self) -> List[int]:
        """Router addresses in creation order: the routers directly above
        the controllers first, the root last."""
        return list(self.tree)

    @property
    def root(self) -> int:
        """Address of the root router."""
        roots = [n for n in self.tree if n not in self.parent]
        if len(roots) != 1:
            raise TopologyError("tree must have exactly one root, found "
                                "{}".format(roots))
        return roots[0]

    def children(self, router: int) -> List[int]:
        """Children (routers or controllers) of ``router``."""
        return sorted(self.tree.get(router, ()))

    def is_router(self, address: int) -> bool:
        return address >= self.router_base

    def are_neighbors(self, a: int, b: int) -> bool:
        """True if controllers ``a`` and ``b`` share a mesh edge."""
        return b in self.mesh.get(a, ())

    def path_to_ancestor(self, node: int, ancestor: int) -> List[int]:
        """Nodes from ``node`` up to ``ancestor`` (inclusive of both)."""
        path = [node]
        current = node
        while current != ancestor:
            if current not in self.parent:
                raise TopologyError(
                    "{} is not an ancestor of {}".format(ancestor, node))
            current = self.parent[current]
            path.append(current)
        return path

    def common_ancestor(self, nodes) -> int:
        """Lowest common ancestor router of the given controllers."""
        nodes = list(nodes)
        if not nodes:
            raise TopologyError("no nodes given")
        ancestor_sets = []
        for node in nodes:
            chain = []
            current = node
            while current in self.parent:
                current = self.parent[current]
                chain.append(current)
            ancestor_sets.append(chain)
        candidates = set(ancestor_sets[0])
        for chain in ancestor_sets[1:]:
            candidates &= set(chain)
        if not candidates:
            raise TopologyError("nodes share no common ancestor")
        # The lowest common ancestor is the one deepest in every chain.
        return min(candidates, key=lambda r: ancestor_sets[0].index(r))

    def tree_distance_cycles(self, node: int, ancestor: int) -> int:
        """Total latency (cycles) from ``node`` up to ``ancestor``."""
        hops = len(self.path_to_ancestor(node, ancestor)) - 1
        return hops * self.router_hop_cycles

    def message_latency_cycles(self, src: int, dst: int) -> int:
        """Latency of a data message from controller ``src`` to ``dst``.

        One mesh hop if the controllers are neighbors; otherwise up the
        tree to the lowest common ancestor and back down.
        """
        if src == dst:
            return 0
        if self.are_neighbors(src, dst):
            return self.neighbor_link_cycles
        lca = self.common_ancestor([src, dst])
        return (self.tree_distance_cycles(src, lca) +
                self.tree_distance_cycles(dst, lca))

    def subtree_controllers(self, router: int) -> List[int]:
        """All controllers below ``router``."""
        out = []
        stack = [router]
        while stack:
            node = stack.pop()
            for child in self.tree.get(node, ()):
                if self.is_router(child):
                    stack.append(child)
                else:
                    out.append(child)
        return sorted(out)

    def max_downstream_cycles(self, router: int, members) -> int:
        """Worst-case broadcast latency from ``router`` to any member below."""
        below = set(self.subtree_controllers(router))
        relevant = [m for m in members if m in below]
        if not relevant:
            return 0
        return max(self.tree_distance_cycles(m, router) for m in relevant)


def grid_dimensions(num: int) -> Tuple[int, int]:
    """Near-square (rows, cols) factorization covering ``num`` nodes."""
    rows = int(math.sqrt(num))
    while rows > 1 and num % rows:
        rows -= 1
    if rows <= 1:
        rows = int(math.sqrt(num))
        return rows if rows > 0 else 1, -(-num // max(rows, 1))
    return rows, num // rows


def build_topology(num_controllers: int, fanout: int = 8,
                   mesh_kind: str = "grid",
                   neighbor_link_cycles: int = 4,
                   router_hop_cycles: int = 8,
                   mesh_edges=None) -> Topology:
    """Build the hybrid topology for ``num_controllers`` controllers.

    ``mesh_kind`` selects the intra-layer shape: ``"grid"`` (2D mesh,
    mirroring a square qubit lattice), ``"line"`` (1D chain), ``"none"``,
    or ``"custom"`` with explicit ``mesh_edges`` — used to mirror the
    actual qubit interaction topology (Insight #2: the intra-layer mesh
    mirrors the device).  The inter-layer tree is a balanced ``fanout``-ary
    tree of routers whose leaves are the controllers (section 5.1).
    """
    if num_controllers < 1:
        raise TopologyError("need at least one controller")
    if fanout < 2:
        raise TopologyError("router fan-out must be at least 2")

    edges: List[Tuple[int, int]] = []
    if mesh_kind == "custom":
        for a, b in (mesh_edges or []):
            if not (0 <= a < num_controllers and 0 <= b < num_controllers):
                raise TopologyError("mesh edge ({}, {}) out of range".format(
                    a, b))
            if a != b:
                edges.append((a, b))
    elif mesh_kind == "grid":
        rows, cols = grid_dimensions(num_controllers)
        for idx in range(num_controllers):
            r, c = divmod(idx, cols)
            if c + 1 < cols and idx + 1 < num_controllers:
                edges.append((idx, idx + 1))
            if (r + 1) * cols + c < num_controllers:
                edges.append((idx, (r + 1) * cols + c))
    elif mesh_kind == "line":
        edges.extend((idx, idx + 1) for idx in range(num_controllers - 1))
    elif mesh_kind != "none":
        raise TopologyError("unknown mesh kind {!r}".format(mesh_kind))
    mesh: Dict[int, Set[int]] = {c: set() for c in range(num_controllers)}
    for a, b in edges:
        mesh[a].add(b)
        mesh[b].add(a)

    # Balanced fanout-ary router tree over the controllers.
    tree: Dict[int, List[int]] = {}
    parent: Dict[int, int] = {}
    router_base = num_controllers
    next_router = router_base
    level = list(range(num_controllers))
    if len(level) == 1:
        # A single controller still gets one root router above it.
        root = next_router
        tree[root] = [level[0]]
        parent[level[0]] = root
        next_router += 1
    while len(level) > 1:
        next_level = []
        for start in range(0, len(level), fanout):
            group = level[start:start + fanout]
            router = next_router
            next_router += 1
            tree[router] = group
            for member in group:
                parent[member] = router
            next_level.append(router)
        level = next_level
    return Topology(num_controllers=num_controllers, mesh=mesh, tree=tree,
                    parent=parent, router_base=router_base,
                    neighbor_link_cycles=neighbor_link_cycles,
                    router_hop_cycles=router_hop_cycles)
