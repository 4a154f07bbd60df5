"""Routing golden: the same script leaves the same routing state.

Per substrate, one fixed membership script (bulk build, interleaved
joins and leaves, a crash) followed by 200 fixed keys, then a second
overlay grown from empty and drained to one node; the digest of
every ``(lookup(key).node, hops)`` was recorded at the commit *before*
the membership code moved into :class:`repro.dht.base.DHTProtocol`.
Ownership alone would not notice a join hook that resolved the
joiner's successor against a stale ring, or a leave that repaired
peers in another order: hop counts do.
"""

import hashlib
import random

import pytest

from repro.dht import SUBSTRATES, build_substrate

BITS = 16
SPACE = 1 << BITS

GOLDEN = {
    "ideal": "215680d910fa17beda4e4295c8aabdd83e94a61486c8d16aff0a89a8297e33fa",
    "chord": "072e3889bb187d6cc94971417ce7eef9907473ec562a4b27aaefe8b17f4a4b1e",
    "kademlia": "89a06ad48886f89de01661fb5a1cc3a13ced8ba45f25d17d8bc95a3b8ff08262",
    "pastry": "eb59c3701b3755259dd2725c7e52d868c97c84c3e10e17c9832c11f05271c944",
    "can": "1d1fe91e0f7fd2fad3fb74557744e9f565952914331eb16c9ac843405cbe4275",
}


def routing_digest(name: str) -> str:
    rng = random.Random(1904)
    population = rng.sample(range(SPACE), 40)
    members, joiners = population[:24], population[24:]
    network = build_substrate(name, members, bits=BITS)
    members, departed = list(members), []
    for step, joiner in enumerate(joiners):
        network.add_node(joiner)
        members.append(joiner)
        if step % 3 != 2:
            # Leaves hit bulk-built members and recent joiners alike.
            departed.append(members.pop(rng.randrange(len(members))))
            network.remove_node(departed[-1])
    network.fail_node(members[0])
    network.remove_node(members.pop(1))
    network.add_node(departed[0])  # an id that left earlier returns
    digest = hashlib.sha256()
    _absorb(digest, network, rng, 200)
    # Grown from empty by joins alone, then drained to a single node:
    # the first-node and last-survivor branches of every hook.
    small = SUBSTRATES[name](bits=BITS)
    for joiner in population[:6]:
        small.add_node(joiner)
        _absorb(digest, small, rng, 10)
    for leaver in population[:5]:
        small.remove_node(leaver)
        _absorb(digest, small, rng, 10)
    return digest.hexdigest()


def _absorb(digest, network, rng, keys: int) -> None:
    for _ in range(keys):
        result = network.lookup(rng.randrange(SPACE))
        digest.update(f"{result.node}:{result.hops};".encode())
    digest.update(repr(network.node_ids).encode())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_routing_state_matches_the_recorded_golden(name):
    assert routing_digest(name) == GOLDEN[name]
