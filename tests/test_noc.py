"""Unit tests for the network-on-chip building blocks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.noc.buffer import FlowControlBuffer
from repro.noc.crossbar import Crossbar
from repro.noc.link import Link
from repro.noc.mesh import Mesh2D
from repro.noc.message import Message, MessageKind
from repro.noc.routing import dimension_order_route, manhattan_distance, random_output


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


class TestLink:
    def test_send_increments_hops_and_traversals(self):
        buffer = FlowControlBuffer(2)
        link = Link((0, 0), (0, 1), buffer)
        message = make_message()
        link.send(message, cycle=3)
        assert message.hops == 1
        assert link.traversals == 1
        assert buffer.peek() is message

    def test_one_message_per_cycle(self):
        buffer = FlowControlBuffer(4)
        link = Link((0, 0), (0, 1), buffer)
        link.send(make_message(), cycle=1)
        assert not link.can_send(1)
        with pytest.raises(ConfigurationError):
            link.send(make_message(), cycle=1)
        assert link.can_send(2)

    def test_cannot_send_when_buffer_off(self):
        buffer = FlowControlBuffer(1)
        link = Link((0, 0), (0, 1), buffer)
        link.send(make_message(), cycle=0)
        assert not link.can_send(1)
        with pytest.raises(ConfigurationError):
            link.send(make_message(), cycle=1)

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            Link((0, 0), (0, 1), FlowControlBuffer(1), width_bytes=0)


class TestCrossbar:
    def test_output_usable_once_per_cycle(self):
        xbar = Crossbar(3, 2)
        assert xbar.output_free(0, cycle=4)
        xbar.traverse(0, cycle=4)
        assert not xbar.output_free(0, cycle=4)
        assert xbar.output_free(0, cycle=5)
        assert xbar.output_free(1, cycle=4)

    def test_double_traverse_rejected(self):
        xbar = Crossbar(2, 2)
        xbar.traverse(1, cycle=0)
        with pytest.raises(ConfigurationError):
            xbar.traverse(1, cycle=0)

    def test_out_of_range_output(self):
        xbar = Crossbar(2, 2)
        with pytest.raises(ConfigurationError):
            xbar.traverse(5, cycle=0)

    def test_traversal_count(self):
        xbar = Crossbar(2, 2)
        xbar.traverse(0, 0)
        xbar.traverse(1, 0)
        assert xbar.traversals == 2


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

    def test_random_output_single_choice(self):
        rng = random.Random(0)
        assert random_output([7], rng) == 7

    def test_random_output_empty_rejected(self):
        with pytest.raises(ValueError):
            random_output([], random.Random(0))

    def test_random_output_covers_choices(self):
        rng = random.Random(1)
        seen = {random_output([1, 2, 3], rng) for _ in range(100)}
        assert seen == {1, 2, 3}


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
