"""Property test: the replicated object store behaves like a dict.

Random schedules of PUT/GET/DELETE/COPY interleaved with node crashes,
recoveries and repairs run against the store and a plain dict; the
visible contents must always agree (while quorums hold), and repair
must restore full replication.

A wider alphabet adds link cuts and heals, node joins drained in
bounded rebalance batches, and armed hinted handoff; under it every
PUT must be all-or-nothing and audited.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcloud import (
    ClusterConfig,
    LatencyModel,
    ObjectNotFound,
    QuorumError,
    SwiftCluster,
)
from repro.simcloud.failures import mw_endpoint, node_endpoint

_KEYS = st.sampled_from([f"k{i}" for i in range(6)])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS, st.binary(max_size=8)),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("copy"), _KEYS, _KEYS),
        st.tuples(st.just("crash"), st.integers(1, 8)),
        st.tuples(st.just("recover"), st.integers(1, 8)),
        st.tuples(st.just("repair"),),
    ),
    max_size=40,
)


class TestStoreModel:
    @given(_OPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_through_failures(self, ops):
        cluster = SwiftCluster.fast()
        store = cluster.store
        model: dict[str, bytes] = {}
        for op in ops:
            kind = op[0]
            try:
                if kind == "put":
                    store.put(op[1], op[2])
                    model[op[1]] = op[2]
                elif kind == "delete":
                    try:
                        store.delete(op[1])
                        assert op[1] in model
                        del model[op[1]]
                    except ObjectNotFound:
                        assert op[1] not in model
                elif kind == "copy":
                    try:
                        store.copy(op[1], op[2])
                        assert op[1] in model
                        model[op[2]] = model[op[1]]
                    except ObjectNotFound:
                        assert op[1] not in model
                elif kind == "crash":
                    cluster.nodes[op[1]].crash()
                elif kind == "recover":
                    cluster.nodes[op[1]].recover()
                    store.repair()
                elif kind == "repair":
                    store.repair()
            except QuorumError:
                # Too many nodes down for this key's replica set: the
                # operation failed cleanly; the model is unchanged for
                # writes; reads may be unavailable but never wrong.
                continue
        # Heal everything and verify the final state matches the model.
        for node in cluster.nodes.values():
            node.recover()
        store.repair()
        assert store.names() == frozenset(model)
        for key, expected in model.items():
            assert store.get(key).data == expected

    @given(_OPS)
    @settings(max_examples=30, deadline=None)
    def test_replication_fully_healed_after_repair(self, ops):
        cluster = SwiftCluster.fast()
        store = cluster.store
        for op in ops:
            kind = op[0]
            try:
                if kind == "put":
                    store.put(op[1], op[2])
                elif kind == "delete":
                    store.delete(op[1], missing_ok=True)
                elif kind == "copy":
                    try:
                        store.copy(op[1], op[2])
                    except ObjectNotFound:
                        pass
                elif kind == "crash":
                    cluster.nodes[op[1]].crash()
                elif kind == "recover":
                    cluster.nodes[op[1]].recover()
                elif kind == "repair":
                    store.repair()
            except QuorumError:
                continue
        for node in cluster.nodes.values():
            node.recover()
        store.repair()
        for name in store.names():
            present, expected = store.replica_health(name)
            assert present == expected


_NET_OPS = st.lists(
    st.one_of(
        # Listed twice: PUT is the op under audit.
        st.tuples(st.just("put"), _KEYS, st.binary(max_size=8)),
        st.tuples(st.just("put"), _KEYS, st.binary(max_size=8)),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("copy"), _KEYS, _KEYS),
        st.tuples(st.just("crash"), st.integers(1, 6)),
        st.tuples(st.just("recover"), st.integers(1, 6)),
        st.tuples(st.just("repair"),),
        st.tuples(
            st.just("cut"),
            st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
        ),
        st.tuples(st.just("heal"),),
        st.tuples(st.just("join"),),
        st.tuples(st.just("rebalance"), st.integers(1, 4)),
    ),
    max_size=50,
)


class TestPutAtomicity:
    """A PUT under cuts, joins and hinted handoff is all-or-nothing."""

    @given(_NET_OPS)
    @settings(max_examples=200, deadline=None)
    def test_put_is_all_or_nothing_and_audited(self, ops):
        # Four nodes, so cuts and crashes can starve even a sloppy quorum.
        cluster = SwiftCluster(ClusterConfig(storage_nodes=4, vnodes=16), LatencyModel.zero())
        cluster.enable_hinted_handoff()
        store = cluster.store
        store.origin = 1  # every client request rides middleware 1's links
        cuts = 0
        for op in ops:
            kind = op[0]
            if kind == "put":
                self._audited_put(cluster, op[1], op[2])
            elif kind == "delete":
                try:
                    store.delete(op[1], missing_ok=True)
                except QuorumError:
                    pass
            elif kind == "copy":
                try:
                    store.copy(op[1], op[2])
                except (ObjectNotFound, QuorumError):
                    pass
            elif kind == "crash" and op[1] in cluster.nodes:
                cluster.nodes[op[1]].crash()
            elif kind == "recover" and op[1] in cluster.nodes:
                cluster.nodes[op[1]].recover()
            elif kind == "repair":
                store.repair()
            elif kind == "cut":
                cuts += 1
                cluster.partitions.isolate(
                    [mw_endpoint(1)], [node_endpoint(n) for n in op[1]], f"c{cuts}"
                )
            elif kind == "heal":
                cluster.partitions.heal_all()
            elif kind == "join":
                if not cluster.membership.in_transition and len(cluster.nodes) < 6:
                    cluster.membership.add_node()
            elif kind == "rebalance":
                cluster.membership.sweeper.step(max_objects=op[1])

    @staticmethod
    def _audited_put(cluster, name, data):
        store, hints = cluster.store, cluster.store.hints
        held = {nid: node.peek(name) for nid, node in cluster.nodes.items()}
        hints_before = hints.hints()
        acked_before = list(hints.acked)
        try:
            info = store.put(name, data)
        except QuorumError:
            # Undone everywhere: no replica, hint or ack survives.
            assert {nid: n.peek(name) for nid, n in cluster.nodes.items()} == held
            assert hints.hints() == hints_before
            assert hints.acked == acked_before
            return

        def holds(nid):
            record = cluster.nodes[nid].peek(name)
            return record is not None and record.timestamp == info.timestamp

        assert hints.acked == acked_before + [(name, info.timestamp)]
        owners = store.ring.nodes_for(name)
        new_hints = [h for h in hints.hints() if h not in hints_before]
        for hint in new_hints:
            assert hint.name == name and hint.timestamp == info.timestamp
            assert holds(hint.fallback_node)
            assert hint.home_node in owners and not holds(hint.home_node)
        counted = set(owners) | {h.fallback_node for h in new_hints}
        quorum = min(store.write_quorum, len(store.ring.node_ids))
        assert sum(1 for nid in counted if holds(nid)) >= quorum
