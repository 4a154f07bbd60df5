"""Property tests for ring-interval arithmetic.

``in_interval`` underpins every Chord routing decision; it is checked
against a brute-force reference that literally walks the ring clockwise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.idspace import IdSpace, in_interval
from tests.dht.oracles import distance_clockwise

BITS = 6
SIZE = 1 << BITS

ids = st.integers(0, SIZE - 1)


def brute_force_in_interval(value, left, right, left_closed, right_closed):
    """Walk clockwise from left to right, collecting members."""
    members = set()
    if left_closed:
        members.add(left)
    cursor = (left + 1) % SIZE
    if left == right:
        # Walking clockwise from just after `left` all the way around:
        # every id except `left` is traversed, and `left` itself is a
        # member iff either endpoint is closed (Chord's single-node ring:
        # (n, n] spans everything including n).
        members = set(range(SIZE)) - {left}
        if left_closed or right_closed:
            members.add(left)
        return value in members
    while cursor != right:
        members.add(cursor)
        cursor = (cursor + 1) % SIZE
    if right_closed:
        members.add(right)
    return value in members


@given(ids, ids, ids, st.booleans(), st.booleans())
@settings(max_examples=600, deadline=None)
def test_in_interval_matches_brute_force(value, left, right, lc, rc):
    assert in_interval(value, left, right, lc, rc) == brute_force_in_interval(
        value, left, right, lc, rc
    )


@given(ids, ids)
@settings(max_examples=200, deadline=None)
def test_interval_complement(value, boundary_a):
    """(a, b) and [b, a] partition the ring for distinct a, b."""
    boundary_b = (boundary_a + 7) % SIZE
    inside = in_interval(value, boundary_a, boundary_b)
    outside = in_interval(
        value, boundary_b, boundary_a, left_closed=True, right_closed=True
    )
    assert inside != outside


@given(ids, st.integers(0, BITS - 1))
@settings(max_examples=200, deadline=None)
def test_finger_start_distance(node, index):
    """finger i starts exactly 2^i clockwise from the node."""
    space = IdSpace(BITS)
    start = space.finger_start(node, index)
    assert distance_clockwise(space, node, start) == (1 << index)


@given(ids, ids)
@settings(max_examples=200, deadline=None)
def test_clockwise_distance_antisymmetry(a, b):
    space = IdSpace(BITS)
    forward = distance_clockwise(space, a, b)
    backward = distance_clockwise(space, b, a)
    if a == b:
        assert forward == backward == 0
    else:
        assert forward + backward == SIZE
