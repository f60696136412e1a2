"""Hybrid topology: mesh shapes, router tree, latency computation."""

import math

import pytest

from repro.errors import TopologyError
from repro.network.topology import build_topology, grid_dimensions


class TestGridDimensions:
    def test_perfect_square(self):
        assert grid_dimensions(16) == (4, 4)

    def test_rectangle(self):
        rows, cols = grid_dimensions(12)
        assert rows * cols == 12

    def test_prime_covers(self):
        rows, cols = grid_dimensions(7)
        assert rows * cols >= 7


class TestMesh:
    def test_line_mesh(self):
        topo = build_topology(5, mesh_kind="line")
        assert topo.are_neighbors(0, 1)
        assert topo.are_neighbors(3, 4)
        assert not topo.are_neighbors(0, 2)

    def test_grid_mesh(self):
        topo = build_topology(9, mesh_kind="grid")
        assert topo.are_neighbors(0, 1)   # horizontal
        assert topo.are_neighbors(0, 3)   # vertical
        assert not topo.are_neighbors(0, 4)

    def test_custom_mesh(self):
        topo = build_topology(4, mesh_kind="custom",
                              mesh_edges=[(0, 3), (1, 2)])
        assert topo.are_neighbors(0, 3)
        assert not topo.are_neighbors(0, 1)

    def test_custom_edge_out_of_range(self):
        with pytest.raises(TopologyError):
            build_topology(3, mesh_kind="custom", mesh_edges=[(0, 9)])

    def test_none_mesh(self):
        topo = build_topology(4, mesh_kind="none")
        assert not topo.are_neighbors(0, 1)

    def test_unknown_mesh_rejected(self):
        with pytest.raises(TopologyError):
            build_topology(4, mesh_kind="torus")


class TestRouterTree:
    def test_single_level(self):
        topo = build_topology(6, fanout=8, mesh_kind="line")
        assert len(topo.routers) == 1
        assert topo.root == 6
        assert topo.children(6) == list(range(6))

    def test_two_levels(self):
        topo = build_topology(20, fanout=4, mesh_kind="line")
        # 20 leaves -> 5 routers -> 2 -> 1: three levels
        assert len(topo.routers) == 5 + 2 + 1
        assert all(c in topo.parent for c in range(20))

    def test_single_controller_gets_root(self):
        topo = build_topology(1)
        assert len(topo.routers) == 1

    def test_balanced_height(self):
        topo = build_topology(64, fanout=8, mesh_kind="line")
        depths = {len(topo.path_to_ancestor(c, topo.root)) - 1
                  for c in range(64)}
        assert depths == {2}

    def test_fanout_validation(self):
        with pytest.raises(TopologyError):
            build_topology(4, fanout=1)


class TestPathsAndLatency:
    def test_common_ancestor_same_subtree(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        assert topo.common_ancestor([0, 1]) == topo.parent[0]

    def test_common_ancestor_distant(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        assert topo.common_ancestor([0, 15]) == topo.root

    def test_path_to_ancestor(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        path = topo.path_to_ancestor(0, topo.root)
        assert path[0] == 0 and path[-1] == topo.root

    def test_not_ancestor_rejected(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        other_leaf_parent = topo.parent[15]
        with pytest.raises(TopologyError):
            topo.path_to_ancestor(0, other_leaf_parent)

    def test_neighbor_message_latency(self):
        topo = build_topology(8, mesh_kind="line", neighbor_link_cycles=4)
        assert topo.message_latency_cycles(2, 3) == 4

    def test_remote_message_latency_via_tree(self):
        topo = build_topology(16, fanout=4, mesh_kind="line",
                              router_hop_cycles=8)
        # 0 and 15: up two hops to root, down two hops
        assert topo.message_latency_cycles(0, 15) == 4 * 8

    def test_self_latency_zero(self):
        topo = build_topology(4, mesh_kind="line")
        assert topo.message_latency_cycles(2, 2) == 0

    def test_subtree_controllers(self):
        topo = build_topology(16, fanout=4, mesh_kind="line")
        first = topo.parent[0]
        assert topo.subtree_controllers(first) == [0, 1, 2, 3]
        assert topo.subtree_controllers(topo.root) == list(range(16))

    def test_max_downstream_cycles(self):
        topo = build_topology(16, fanout=4, mesh_kind="line",
                              router_hop_cycles=8)
        assert topo.max_downstream_cycles(topo.root, [0, 5]) == 16
        assert topo.max_downstream_cycles(topo.parent[0], [0, 1]) == 8


def _custom_edges(num):
    """Irregular edges; some repeat reversed, some are self-loops."""
    return [(i, (3 * i + 1) % num) for i in range(num)]


class TestShapeInvariants:
    """What the simulator and compiler read from a topology, across mesh
    kinds and sizes 1-70."""

    @pytest.mark.parametrize("mesh_kind", ["line", "grid", "custom", "none"])
    @pytest.mark.parametrize("fanout", [2, 4, 8])
    def test_invariants(self, mesh_kind, fanout):
        for num in range(1, 71):
            edges = _custom_edges(num) if mesh_kind == "custom" else None
            topo = build_topology(num, fanout=fanout, mesh_kind=mesh_kind,
                                  mesh_edges=edges)
            # Router order (ControlSystem builds, resets and drains routers
            # in it): creation order, so every router comes before its
            # parent and the root is last -- e.g. 20 controllers under
            # fan-out 4 give routers 20..27 with root 27.
            expected_routers, level = 1 if num == 1 else 0, num
            while level > 1:
                level = math.ceil(level / fanout)
                expected_routers += level
            assert topo.routers == list(range(num, num + expected_routers))
            assert topo.root == topo.routers[-1]
            assert all(topo.parent[r] > r for r in topo.routers[:-1])
            # children(): sorted, and exactly the nodes naming it parent.
            for router in topo.routers:
                assert topo.children(router) == sorted(
                    node for node, up in topo.parent.items() if up == router)
            # Mesh: symmetric, no self-loops, controllers only.
            unknown = (-1, num + expected_routers, 10 ** 6)
            for a in range(num):
                assert not topo.are_neighbors(a, a)
                for b in range(a + 1, num):
                    assert topo.are_neighbors(a, b) == \
                        topo.are_neighbors(b, a)
                for other in topo.routers + list(unknown):
                    assert not topo.are_neighbors(a, other)
                    assert not topo.are_neighbors(other, a)
            for router in topo.routers:
                assert not topo.are_neighbors(router, router)
            if mesh_kind == "custom":
                assert {(a, b) for a in range(num) for b in range(num)
                        if topo.are_neighbors(a, b)} == \
                    {pair for a, b in edges if a != b
                     for pair in ((a, b), (b, a))}
