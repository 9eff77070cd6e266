"""Unit tests for the network-on-chip building blocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.noc.buffer import FlowControlBuffer
from repro.noc.mesh import Mesh2D
from repro.noc.message import Message, MessageKind
from repro.noc.routing import dimension_order_route, manhattan_distance


def make_message(addr=0x100, kind=MessageKind.TRANSPORT, cycle=0):
    return Message(kind=kind, block_addr=addr, created_cycle=cycle)


class TestMessage:
    def test_age(self):
        message = make_message(cycle=5)
        assert message.age(12) == 7

    def test_default_single_flit(self):
        assert make_message().flits == 1


class TestFlowControlBuffer:
    def test_on_until_full(self):
        buffer = FlowControlBuffer(2)
        assert buffer.is_on
        buffer.push(make_message())
        assert buffer.is_on
        buffer.push(make_message())
        assert not buffer.is_on

    def test_overflow_is_protocol_violation(self):
        buffer = FlowControlBuffer(1)
        buffer.push(make_message())
        with pytest.raises(ConfigurationError):
            buffer.push(make_message())

    def test_fifo_order(self):
        buffer = FlowControlBuffer(2)
        first = make_message(0x100)
        second = make_message(0x200)
        buffer.push(first)
        buffer.push(second)
        assert buffer.pop() is first
        assert buffer.pop() is second
        assert buffer.pop() is None

    def test_peek_does_not_remove(self):
        buffer = FlowControlBuffer(2)
        message = make_message()
        buffer.push(message)
        assert buffer.peek() is message
        assert len(buffer) == 1

    def test_find_block_matches_address_comparators(self):
        buffer = FlowControlBuffer(2)
        buffer.push(make_message(0x100))
        buffer.push(make_message(0x200))
        assert buffer.find_block(0x200).block_addr == 0x200
        assert buffer.find_block(0x300) is None

    def test_remove_specific_message(self):
        buffer = FlowControlBuffer(2)
        message = make_message(0x100)
        buffer.push(message)
        assert buffer.remove(message)
        assert not buffer.remove(message)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            FlowControlBuffer(0)

    def test_occupancy_accounting(self):
        buffer = FlowControlBuffer(2)
        buffer.push(make_message())
        buffer.account_occupancy()
        buffer.account_occupancy()
        assert buffer.total_occupancy_cycles == 2


class TestRouting:
    def test_manhattan_distance(self):
        assert manhattan_distance((0, 0), (3, 4)) == 7
        assert manhattan_distance((2, 2), (2, 2)) == 0

    def test_dimension_order_route_x_first(self):
        path = dimension_order_route((0, 0), (2, 1))
        assert path == [(1, 0), (2, 0), (2, 1)]

    def test_route_length_equals_distance(self):
        src, dst = (1, 3), (4, 0)
        assert len(dimension_order_route(src, dst)) == manhattan_distance(src, dst)

    def test_route_to_self_is_empty(self):
        assert dimension_order_route((2, 2), (2, 2)) == []

    @pytest.mark.parametrize(
        "src, dst",
        [((0, 0), (3, 2)), ((3, 2), (0, 0)), ((0, 3), (2, 0)), ((2, 0), (0, 3))],
        ids=["up-right", "down-left", "down-right", "up-left"],
    )
    def test_route_takes_unit_steps_x_before_y(self, src, dst):
        path = dimension_order_route(src, dst)
        assert path[-1] == dst
        steps = [
            (b[0] - a[0], b[1] - a[1]) for a, b in zip([src] + path[:-1], path)
        ]
        assert all(abs(dx) + abs(dy) == 1 for dx, dy in steps)
        moves_y = [dy != 0 for _, dy in steps]
        # Every X move comes before the first Y move.
        assert moves_y == sorted(moves_y)
        assert moves_y.count(False) == abs(dst[0] - src[0])


class TestMesh2D:
    def test_hop_count(self):
        mesh = Mesh2D(rows=4, cols=8)
        assert mesh.hop_count((0, 0), (3, 2)) == 5

    def test_min_latency_includes_serialisation(self):
        mesh = Mesh2D(rows=4, cols=8, router_latency=1)
        single = mesh.min_latency((0, 0), (2, 0), flits=1)
        multi = mesh.min_latency((0, 0), (2, 0), flits=5)
        assert multi == single + 4

    def test_transfer_to_self_is_instant(self):
        mesh = Mesh2D(rows=2, cols=2)
        assert mesh.transfer((0, 0), (0, 0), cycle=7) == 7

    def test_transfer_latency_at_least_minimum(self):
        mesh = Mesh2D(rows=4, cols=8)
        arrival = mesh.transfer((0, 0), (7, 3), cycle=0, flits=3)
        assert arrival >= mesh.min_latency((0, 0), (7, 3), flits=3)

    def test_contention_delays_second_transfer(self):
        mesh = Mesh2D(rows=1, cols=4)
        first = mesh.transfer((0, 0), (3, 0), cycle=0, flits=4)
        second = mesh.transfer((0, 0), (3, 0), cycle=0, flits=4)
        assert second > first

    def test_out_of_bounds_rejected(self):
        mesh = Mesh2D(rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            mesh.transfer((0, 0), (5, 0), cycle=0)

    def test_zero_flits_rejected(self):
        mesh = Mesh2D(rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            mesh.transfer((0, 0), (1, 0), cycle=0, flits=0)

    def test_stats_track_messages(self):
        mesh = Mesh2D(rows=2, cols=2)
        mesh.transfer((0, 0), (1, 1), cycle=0)
        assert mesh.stats["messages"] == 1
        assert mesh.stats["link_traversals"] == 2

    def test_contains_matches_the_grid(self):
        mesh = Mesh2D(rows=2, cols=3)
        inside = {(x, y) for x in range(3) for y in range(2)}
        for node in inside:
            assert mesh.contains(node)
        for node in [(-1, 0), (0, -1), (3, 0), (0, 2), (3, 2)]:
            assert not mesh.contains(node)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0, "cols": 4},
            {"rows": 4, "cols": 0},
            {"rows": 4, "cols": 4, "router_latency": -1},
        ],
        ids=["no-rows", "no-cols", "negative-router-latency"],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Mesh2D(**kwargs)

    def test_out_of_bounds_source_rejected(self):
        mesh = Mesh2D(rows=2, cols=2)
        with pytest.raises(ConfigurationError):
            mesh.hop_count((2, 0), (0, 0))
        with pytest.raises(ConfigurationError):
            mesh.transfer((0, 5), (0, 0), cycle=0)

    def test_zero_router_latency_costs_one_cycle_per_hop(self):
        mesh = Mesh2D(rows=4, cols=8, router_latency=0)
        assert mesh.min_latency((0, 0), (7, 3)) == 10
        assert mesh.transfer((0, 0), (7, 3), cycle=5) == 15

    @pytest.mark.parametrize("flits", [1, 2, 5])
    def test_idle_mesh_delivers_at_the_minimum_latency(self, flits):
        mesh = Mesh2D(rows=4, cols=8, router_latency=1)
        for src, dst in [((0, 0), (7, 3)), ((5, 1), (2, 2)), ((3, 3), (3, 0))]:
            mesh.reset()
            arrival = mesh.transfer(src, dst, cycle=20, flits=flits)
            assert arrival == 20 + mesh.min_latency(src, dst, flits)

    def test_contention_is_counted_as_stall_cycles(self):
        mesh = Mesh2D(rows=1, cols=4, router_latency=1)
        first = mesh.transfer((0, 0), (3, 0), cycle=0, flits=4)
        second = mesh.transfer((0, 0), (3, 0), cycle=0, flits=4)
        # The second head waits 4 cycles for the first link; the links
        # behind it are free again by the time it gets there.
        assert (first, second) == (9, 13)
        assert mesh.stats["link_stall_cycles"] == 4
        assert mesh.stats["total_message_latency"] == 22
        assert mesh.stats["link_traversals"] == 2 * 3 * 4

    def test_link_utilisation_lists_the_xy_route(self):
        mesh = Mesh2D(rows=2, cols=2)
        mesh.transfer((0, 0), (1, 1), cycle=3, flits=2)
        assert mesh.link_utilisation() == {
            ((0, 0), (1, 0)): 5,
            ((1, 0), (1, 1)): 7,
        }

    def test_reset_frees_every_link(self):
        mesh = Mesh2D(rows=1, cols=4)
        first = mesh.transfer((0, 0), (3, 0), cycle=0, flits=4)
        mesh.reset()
        assert mesh.link_utilisation() == {}
        assert mesh.transfer((0, 0), (3, 0), cycle=0, flits=4) == first

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(st.integers(0, 7), st.integers(0, 3)),
        st.tuples(st.integers(0, 7), st.integers(0, 3)),
        st.integers(1, 5),
    )
    def test_transfer_never_beats_min_latency(self, src, dst, flits):
        mesh = Mesh2D(rows=4, cols=8)
        arrival = mesh.transfer(src, dst, cycle=10, flits=flits)
        assert arrival >= 10 + (0 if src == dst else mesh.min_latency(src, dst, flits))
