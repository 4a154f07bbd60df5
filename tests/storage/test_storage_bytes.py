"""``DHTStorage.storage_bytes`` is a running total that equals the scan.

Every path that stores or drops a copy keeps the total: ``put``,
``put_local``, ``remove_value``, ``remove_key``, ``drop_node``, a power
cycle (``forget_node`` then ``replay_entries``) and repair's copies,
extensions and prunes.  After each step of an arbitrary script of them,
on every substrate, the total must equal ``bytes_oracle``'s full scan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht import SUBSTRATES
from tests.storage.bytes_oracle import storage_bytes_scan
from tests.storage.test_repair_differential import apply, build, operation

pick = st.integers(0, 40)
steps = st.lists(
    st.one_of(
        operation,
        # A non-ASCII key: its bytes differ from its length.
        st.tuples(st.just("put"), st.just("clé"), st.sampled_from(["v0", "vé"])),
        st.tuples(st.just("drop"), pick),
        st.tuples(st.just("power_cycle"), pick),
    ),
    max_size=40,
)


def step(store, operation: tuple) -> None:
    name, *args = operation
    members = store.protocol.node_ids
    if name == "repair":
        store.repair()
    elif name == "drop":
        store.drop_node(members[args[0] % len(members)])
    elif name == "power_cycle":
        node = members[args[0] % len(members)]
        held = [(key, value) for key, values in store.items_at(node) for value in values]
        store.forget_node(node)
        store.replay_entries(node, held[: len(held) // 2])
    else:
        apply(store, operation)


@pytest.mark.parametrize("replication", [1, 3])
@pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
@given(script=steps)
@settings(max_examples=40, deadline=None)
def test_the_running_total_is_the_scan(substrate, replication, script):
    store, _, _ = build(substrate, replication)
    for operation in script:
        step(store, operation)
        assert store.storage_bytes() == storage_bytes_scan(store)
