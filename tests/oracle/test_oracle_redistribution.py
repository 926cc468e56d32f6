"""Differential oracle: plans and the engine vs byte-at-a-time movement.

The real redistribution path computes FALLS intersections, builds
transfer schedules, and moves whole segments; the oracle moves one byte
at a time by asking both partitions who owns it.  On randomized
partition pairs (the acceptance bar is 200 of them) the plan executor
must produce the oracle's bytes exactly.  The linearisation functions
(``distribute``, ``collect``, ``ClusterFile.linear_contents``,
snapshot restore) — each element
gathering or scattering its own file-space segments — are held to the
same per-byte oracle.  A last differential drives the full Clusterfile
engine: writing every view element through the I/O pipeline must
assemble the file the naive mapping predicts.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusterfile.file_model import ClusterFile
from repro.clusterfile.fs import Clusterfile
from repro.durability import DurabilityManager
from repro.redistribution import build_plan, collect, distribute
from repro.redistribution.executor import execute_plan

from ..properties.strategies import any_partition
from .naive import (
    naive_collect,
    naive_distribute,
    naive_elements,
    naive_owner,
    naive_redistribute,
)

PAIR_SETTINGS = settings(max_examples=200, deadline=None)
ENGINE_SETTINGS = settings(max_examples=40, deadline=None)


@given(src=any_partition(), dst=any_partition(), data=st.data())
@PAIR_SETTINGS
def test_plan_execution_matches_per_byte_oracle(src, dst, data):
    file_length = data.draw(
        st.integers(1, 2 * max(src.size, dst.size) + src.displacement + 7),
        label="file_length",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    linear = rng.integers(0, 256, file_length, dtype=np.uint8)

    src_buffers = distribute(linear, src)
    want_src = naive_distribute(linear, src)
    for a, b in zip(src_buffers, want_src):
        np.testing.assert_array_equal(a, b)

    plan = build_plan(src, dst)
    want = naive_redistribute(src, dst, src_buffers, file_length)
    got = execute_plan(plan, src_buffers, file_length)
    assert len(got) == len(want)
    for e, (a, b) in enumerate(zip(got, want)):
        np.testing.assert_array_equal(
            a, b, err_msg=f"dst element {e} diverges from byte oracle"
        )


@given(partition=any_partition(), data=st.data())
@PAIR_SETTINGS
def test_distribute_collect_match_byte_oracle(partition, data):
    # From 0: lengths at or below the displacement own no byte at all;
    # anything above cuts a period wherever it falls, mid-segment included.
    file_length = data.draw(
        st.integers(0, 2 * partition.size + partition.displacement + 7),
        label="file_length",
    )
    fill = data.draw(st.sampled_from([0, 0xAB]), label="fill")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    linear = rng.integers(0, 256, file_length, dtype=np.uint8)
    buffers = distribute(linear, partition)
    want_buffers = naive_distribute(linear, partition)
    assert len(buffers) == len(want_buffers)
    for e, (a, b) in enumerate(zip(buffers, want_buffers)):
        np.testing.assert_array_equal(a, b, err_msg=f"element {e}")
    round_tripped = collect(buffers, partition, file_length, fill=fill)
    want = naive_collect(want_buffers, partition, file_length)
    want[: partition.displacement] = fill
    np.testing.assert_array_equal(round_tripped, want)
    # Bytes past the displacement survive the round trip untouched.
    np.testing.assert_array_equal(
        round_tripped[partition.displacement :],
        linear[partition.displacement :],
    )


@given(physical=any_partition(), data=st.data())
@PAIR_SETTINGS
def test_linear_contents_matches_byte_oracle(physical, data):
    """Stores of any length — empty, shorter than their element (the
    missing tail is a hole and reads as zero), longer than the requested
    ``length`` — linearise to what MAP says byte by byte."""
    natural = data.draw(
        st.integers(0, 2 * physical.size + physical.displacement + 7),
        label="natural_length",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    cfile = ClusterFile("f", physical)
    for s, store in enumerate(cfile.stores):
        held = data.draw(
            st.integers(0, physical.element_length(s, natural) + 3),
            label=f"store_{s}_length",
        )
        if held:
            store.view(0, held - 1)[:] = rng.integers(1, 256, held, dtype=np.uint8)
    elements = naive_elements(physical)
    for length in (None, data.draw(st.integers(0, natural + 5), label="length")):
        got = cfile.linear_contents(length)
        want = np.zeros(got.size, dtype=np.uint8)
        for x in range(got.size):
            owner = naive_owner(elements, x)
            if owner is not None and owner[1] < cfile.stores[owner[0]].length:
                want[x] = cfile.stores[owner[0]].data[owner[1]]
        if length is None:
            held = [
                el.unmap(store.length - 1) + 1
                for el, store in zip(elements, cfile.stores)
                if store.length
            ]
            assert got.size == max([physical.displacement, *held])
        else:
            assert got.size == length
        np.testing.assert_array_equal(got, want)


@given(physical=any_partition(), data=st.data())
@ENGINE_SETTINGS
def test_snapshot_restore_fills_every_replica(physical, data):
    """``_load_linear`` (snapshot payload -> stores) gives every mirror
    the oracle's bytes, and the restored file linearises back to the
    payload."""
    length = data.draw(
        st.integers(0, 2 * physical.size + physical.displacement + 7),
        label="length",
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    payload = rng.integers(1, 256, length, dtype=np.uint8)
    cfile = ClusterFile("f", physical, replication=2)
    DurabilityManager._load_linear(cfile, payload)
    for s, want in enumerate(naive_distribute(payload, physical)):
        replicas = cfile.replica_stores(s)
        assert len(replicas) == 2
        for store in replicas:
            np.testing.assert_array_equal(store.data, want)
    restored = cfile.linear_contents(length)
    np.testing.assert_array_equal(
        restored[physical.displacement :], payload[physical.displacement :]
    )
    assert not restored[: physical.displacement].any()


@given(logical=any_partition(), physical=any_partition(), data=st.data())
@ENGINE_SETTINGS
def test_engine_write_assembles_the_oracle_file(logical, physical, data):
    """Write every view element fully through the I/O engine; the
    assembled file must be what the naive logical mapping predicts:
    byte x = payload[owner(x)][rank(x)] wherever both the logical and
    the physical pattern own x, zero elsewhere."""
    # Clusterfile supports at most io_nodes * 64 subfiles; the default
    # config has 4 I/O nodes, far above any drawn partition size.
    fs = Clusterfile()
    fs.create("f", physical)
    periods = data.draw(st.integers(1, 2), label="periods")
    file_length = logical.displacement + periods * logical.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))

    log_elements = naive_elements(logical)
    phys_elements = naive_elements(physical)
    payloads = []
    nodes = min(fs.config.compute_nodes, logical.num_elements)
    for e, el in enumerate(log_elements):
        payloads.append(
            rng.integers(
                0, 256, el.length_for(file_length), dtype=np.uint8
            )
        )
    # One engine call per view element (views beyond the compute-node
    # count reuse node slots across separate calls).
    for e, payload in enumerate(payloads):
        if payload.size == 0:
            continue
        node = e % fs.config.compute_nodes
        fs.set_view("f", node, logical, element=e)
        fs.write("f", [(node, 0, payload)])

    want = np.zeros(file_length, dtype=np.uint8)
    for x in range(file_length):
        owner = None
        for e, el in enumerate(log_elements):
            r = el.map(x)
            if r is not None:
                owner = (e, r)
                break
        if owner is None:
            continue  # before the logical displacement: never written
        if all(el.map(x) is None for el in phys_elements):
            continue  # no subfile stores this byte
        want[x] = payloads[owner[0]][owner[1]]

    got = fs.linear_contents("f", file_length)
    np.testing.assert_array_equal(got, want)
