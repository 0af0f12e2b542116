"""Property-based proofs of the NameRing CRDT laws (paper §3.3.2).

Gossip converges only because the per-directory merge is a join:
commutative (given unique timestamps), associative, idempotent, and
order-independent over whole patch chains.  Fake deletion depends on
one more law: a newer ``Deleted`` tuple beats any older live tuple no
matter which merge order delivers it.  Hypothesis searches for
counterexamples to each law, and a stateful machine gossips random
writes/deletes between replicas checking they always converge to the
newest-writer state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.namering import Child, NameRing, merge_all
from repro.dst import HOSTILE_NAMES
from repro.simcloud.clock import Timestamp

NAMES = ("a", "b", "c", "readme.txt") + HOSTILE_NAMES[:4]


def _ring_from(children: list[Child]) -> NameRing:
    ring = NameRing.empty()
    for child in children:
        ring = ring.merge(NameRing(children={child.name: child}))
    return ring


@st.composite
def children_with_unique_timestamps(draw, max_size: int = 12) -> list[Child]:
    """Children whose timestamps are globally distinct (what the shared
    per-cluster TimestampFactory guarantees in production)."""
    seqs = draw(
        st.lists(st.integers(1, 10_000), unique=True, max_size=max_size)
    )
    return [
        Child(
            name=draw(st.sampled_from(NAMES)),
            timestamp=Timestamp(wall_us=0, seq=seq, node_id=1),
            deleted=draw(st.booleans()),
        )
        for seq in seqs
    ]


def arbitrary_ring(max_size: int = 8):
    """Rings with possibly *colliding* timestamps (distinct replicas can
    not mint these, but the laws that hold regardless are tested on the
    larger space)."""
    return st.builds(
        _ring_from,
        st.lists(
            st.builds(
                Child,
                name=st.sampled_from(NAMES),
                timestamp=st.builds(
                    Timestamp,
                    wall_us=st.integers(0, 50),
                    seq=st.integers(0, 5),
                    node_id=st.integers(1, 3),
                ),
                deleted=st.booleans(),
            ),
            max_size=max_size,
        ),
    )


class TestMergeLaws:
    @given(pool=children_with_unique_timestamps(), cut=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_commutative_with_unique_timestamps(self, pool, cut):
        a = _ring_from(pool[: cut % (len(pool) + 1)])
        b = _ring_from(pool[cut % (len(pool) + 1):])
        assert a.merge(b) == b.merge(a)

    @given(a=arbitrary_ring(), b=arbitrary_ring())
    @settings(max_examples=200, deadline=None)
    def test_commutative_even_with_timestamp_ties(self, a, b):
        """The PR 5 tie-break fix: before it, equal timestamps let the
        *left* operand win, so ``a.merge(b) != b.merge(a)`` whenever a
        synthetic history minted a collision."""
        assert a.merge(b) == b.merge(a)

    @given(a=arbitrary_ring(), b=arbitrary_ring(), c=arbitrary_ring())
    @settings(max_examples=200, deadline=None)
    def test_associative_even_with_timestamp_ties(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(a=arbitrary_ring())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, a):
        assert a.merge(a) == a

    @given(a=arbitrary_ring(), b=arbitrary_ring())
    @settings(max_examples=100, deadline=None)
    def test_merge_never_loses_names(self, a, b):
        merged = a.merge(b)
        assert set(merged.children) == set(a.children) | set(b.children)

    @given(
        pool=children_with_unique_timestamps(),
        permutation=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_merge_all_is_order_independent(self, pool, permutation):
        """A patch chain folds to the same ring under any delivery
        order -- why gossip needs no ordering guarantees at all."""
        rings = [NameRing(children={c.name: c}) for c in pool]
        baseline = merge_all(rings)
        shuffled = list(rings)
        permutation.shuffle(shuffled)
        assert merge_all(shuffled) == baseline


class TestFakeDeletionWins:
    @given(
        pool=children_with_unique_timestamps(max_size=8),
        name=st.sampled_from(NAMES),
        permutation=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_newest_tombstone_survives_any_merge_order(
        self, pool, name, permutation
    ):
        latest = max(
            (c.timestamp for c in pool), default=Timestamp(0, 0, 1)
        )
        tombstone = Child(
            name, Timestamp(latest.wall_us, latest.seq + 1, 1), deleted=True
        )
        rings = [NameRing(children={c.name: c}) for c in pool]
        rings.append(NameRing(children={name: tombstone}))
        permutation.shuffle(rings)
        merged = merge_all(rings)
        assert merged.get(name) is None  # hidden from every listing
        assert merged.get_any(name) == tombstone  # but the marker rides on

    @given(
        ts=st.builds(
            Timestamp,
            wall_us=st.integers(0, 50),
            seq=st.integers(0, 5),
            node_id=st.integers(1, 3),
        ),
        name=st.sampled_from(NAMES),
        live_etag=st.text(max_size=4),
        dead_etag=st.text(max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_tombstone_wins_timestamp_ties_both_ways(
        self, ts, name, live_etag, dead_etag
    ):
        """A same-instant delete must beat a same-instant insert no
        matter which side of the merge it arrives on."""
        live = NameRing(children={name: Child(name, ts, etag=live_etag)})
        dead = NameRing(
            children={name: Child(name, ts, deleted=True, etag=dead_etag)}
        )
        for merged in (live.merge(dead), dead.merge(live)):
            assert merged.get(name) is None
            assert merged.get_any(name).deleted

    @given(
        ts=st.builds(
            Timestamp,
            wall_us=st.integers(0, 50),
            seq=st.integers(0, 5),
            node_id=st.integers(1, 3),
        ),
        name=st.sampled_from(NAMES),
        etags=st.tuples(st.text(max_size=4), st.text(max_size=4)),
        sizes=st.tuples(st.integers(0, 99), st.integers(0, 99)),
    )
    @settings(max_examples=150, deadline=None)
    def test_equal_status_ties_break_on_stable_key(
        self, ts, name, etags, sizes
    ):
        """Live-vs-live (and deleted-vs-deleted) ties settle on the
        attribute key, so both merge orders pick the same winner."""
        a = NameRing(
            children={name: Child(name, ts, size=sizes[0], etag=etags[0])}
        )
        b = NameRing(
            children={name: Child(name, ts, size=sizes[1], etag=etags[1])}
        )
        assert a.merge(b) == b.merge(a)

    @given(pool=children_with_unique_timestamps())
    @settings(max_examples=100, deadline=None)
    def test_compaction_drops_exactly_the_tombstones(self, pool):
        ring = _ring_from(pool)
        compacted = ring.compacted()
        assert not compacted.needs_compaction
        assert compacted.live_children() == ring.live_children()
        assert compacted.tombstones() == []


class GossipConvergence(RuleBasedStateMachine):
    """Replicas exchanging random writes/deletes in random order must
    converge to the per-name newest state once fully synced."""

    REPLICAS = 3

    def __init__(self):
        super().__init__()
        self.replicas = [NameRing.empty() for _ in range(self.REPLICAS)]
        self.seq = 0
        self.newest: dict[str, Child] = {}  # per-name newest tuple minted

    def _mint(self, name: str, deleted: bool) -> NameRing:
        self.seq += 1
        child = Child(name, Timestamp(0, self.seq, 1), deleted=deleted)
        self.newest[name] = child
        return NameRing(children={name: child})

    @rule(
        replica=st.integers(0, REPLICAS - 1), name=st.sampled_from(NAMES)
    )
    def local_write(self, replica, name):
        self.replicas[replica] = self.replicas[replica].merge(
            self._mint(name, deleted=False)
        )

    @rule(
        replica=st.integers(0, REPLICAS - 1), name=st.sampled_from(NAMES)
    )
    def local_delete(self, replica, name):
        self.replicas[replica] = self.replicas[replica].merge(
            self._mint(name, deleted=True)
        )

    @rule(
        sender=st.integers(0, REPLICAS - 1),
        receiver=st.integers(0, REPLICAS - 1),
    )
    def gossip_one_way(self, sender, receiver):
        """A rumor delivery: receiver absorbs the sender's state."""
        self.replicas[receiver] = self.replicas[receiver].merge(
            self.replicas[sender]
        )

    @rule()
    def anti_entropy(self):
        """Full sync: afterwards every replica must hold exactly the
        newest tuple ever minted for every name any replica has seen."""
        full = merge_all(self.replicas)
        self.replicas = [r.merge(full) for r in self.replicas]
        assert all(r == self.replicas[0] for r in self.replicas)
        assert self.replicas[0].children == {
            name: child
            for name, child in self.newest.items()
            if name in full.children
        }

    @invariant()
    def replicas_never_hold_unminted_state(self):
        for ring in self.replicas:
            for name, child in ring.children.items():
                assert child.timestamp <= self.newest[name].timestamp


TestGossipConvergence = GossipConvergence.TestCase
TestGossipConvergence.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestStatsMemoConsistency:
    """The O(1) stats memos must never drift from a fresh recompute.

    ``version``/``__len__``/``needs_compaction`` are memoized on the
    frozen instance (the hot-path O(m)->O(1) bugfix); because rings are
    immutable the memo can only go wrong if a merge hands back an
    instance whose cache predates its children -- exactly what these
    properties hunt for across arbitrary merge chains.
    """

    @staticmethod
    def _brute(ring: NameRing):
        version = Timestamp.ZERO
        live = tombstones = 0
        for child in ring.children.values():
            if child.deleted:
                tombstones += 1
            else:
                live += 1
            if child.timestamp > version:
                version = child.timestamp
        return version, live, tombstones

    def _assert_memos_fresh(self, ring: NameRing) -> None:
        version, live, tombstones = self._brute(ring)
        # Interrogate twice: first touch populates the memo, the second
        # must serve the identical answer from cache.
        for _ in range(2):
            assert ring.version == version
            assert len(ring) == live
            assert ring.needs_compaction == (tombstones > 0)
            assert ring._stats() == (version, live, tombstones)
        fresh = NameRing(children=dict(ring.children))
        assert ring.version == fresh.version
        assert len(ring) == len(fresh)

    @given(rings=st.lists(arbitrary_ring(), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_memo_matches_recompute_across_merges(self, rings):
        merged = NameRing.empty()
        for ring in rings:
            # Touch the memos *before* merging so a buggy merge that
            # reused a stale instance would be caught red-handed.
            self._assert_memos_fresh(merged)
            self._assert_memos_fresh(ring)
            merged = merged.merge(ring)
        self._assert_memos_fresh(merged)

    @given(
        rings=st.lists(arbitrary_ring(), min_size=1, max_size=6),
        steps=st.lists(
            st.sampled_from(["merge", "merge_changes", "compact"]),
            min_size=6,
            max_size=6,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_carried_memo_matches_recompute_across_compactions(
        self, rings, steps
    ):
        """``merge_changes`` carries the parent's memo; compaction in
        the chain turns tombstones into absences that later merges
        override with live tuples, and back."""
        chain = NameRing.empty()
        for ring, step in zip(rings, steps):
            self._assert_memos_fresh(chain)
            self._assert_memos_fresh(ring)
            if step == "compact":
                chain = chain.compacted()
                self._assert_memos_fresh(chain)
                chain = chain.merge(ring)
            elif step == "merge":
                chain = chain.merge(ring)
            else:
                chain, _ = chain.merge_changes(ring)
        self._assert_memos_fresh(chain)

    @given(a=arbitrary_ring(), b=arbitrary_ring())
    @settings(max_examples=150, deadline=None)
    def test_merge_changes_names_exactly_the_updates(self, a, b):
        merged, changed = a.merge_changes(b)
        for name in changed:
            assert merged.children[name] != a.children.get(name)
        for name, child in merged.children.items():
            if name not in changed:
                assert a.children.get(name) == child

    @given(a=arbitrary_ring(), b=arbitrary_ring())
    @settings(max_examples=100, deadline=None)
    def test_noop_merge_preserves_instance(self, b, a):
        merged = a.merge(b)
        again, changed = merged.merge_changes(b)
        assert again is merged
        assert changed == ()

    @given(pool=children_with_unique_timestamps())
    @settings(max_examples=100, deadline=None)
    def test_live_view_memos_stay_sorted_and_consistent(self, pool):
        ring = _ring_from(pool)
        names = ring.live_names()
        assert list(names) == sorted(c.name for c in ring.live_children())
        # Served from cache on the second call -- same object, same data.
        assert ring.live_names() is names
