//! Shard/partition vocabulary for multi-worker replica runtimes.
//!
//! Hermes' headline property is *inter-key concurrency* (paper §2.3,
//! §5.1.1): any worker on any replica can coordinate any write, so a
//! replica can be partitioned into W independent per-key-shard protocol
//! engines that never synchronize with each other. [`ShardSpec`] is the
//! partition function (`hash(key) % W` via [`Key::shard`]); [`ShardRouter`]
//! additionally honors the two escape hatches of
//! [`ReplicaProtocol`](crate::ReplicaProtocol) — [`msg_serializes`] and
//! [`update_serializes`] — by routing serializing traffic onto one
//! designated *serialization lane* per node. For Hermes both hooks are
//! `false` and every lane runs in parallel; for totally-ordered baselines
//! (ZAB's leader, lock-step SMR rounds) the router degrades gracefully to
//! the single lane their ordering step requires.
//!
//! [`msg_serializes`]: crate::ReplicaProtocol::msg_serializes
//! [`update_serializes`]: crate::ReplicaProtocol::update_serializes
//!
//! # Examples
//!
//! ```
//! use hermes_common::{Key, ShardSpec};
//!
//! let spec = ShardSpec::new(4);
//! let lane = spec.owner(Key(42));
//! assert!(lane < 4);
//! assert_eq!(lane, spec.owner(Key(42)), "ownership is stable");
//! ```

use crate::{ClientOp, Key, ReplicaProtocol};

/// The key partition of one replica: `workers` lanes, keys assigned by
/// `hash(key) % workers`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    workers: usize,
}

impl ShardSpec {
    /// The lane that serializing traffic is pinned to (see
    /// [`ShardRouter`]). By convention lane 0, which on runtimes with a
    /// network pump is also the lane that owns ingress.
    pub const SERIAL_LANE: usize = 0;

    /// A partition into `workers` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a replica needs at least one worker");
        ShardSpec { workers }
    }

    /// Number of lanes (worker threads) per replica.
    #[inline]
    pub fn workers(self) -> usize {
        self.workers
    }

    /// The lane that owns `key`.
    #[inline]
    pub fn owner(self, key: Key) -> usize {
        key.shard(self.workers)
    }
}

/// Routes replica events (client operations, peer messages, timers) to the
/// worker lane that must process them, honoring the protocol's
/// serialization requirements.
///
/// Built from a live protocol instance with [`ShardRouter::for_protocol`]
/// so the routing decision reflects
/// [`ReplicaProtocol::update_serializes`]; per-message decisions consult
/// [`ReplicaProtocol::msg_serializes`] at routing time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRouter {
    spec: ShardSpec,
    serialize_updates: bool,
}

impl ShardRouter {
    /// A router for `workers` lanes driving the given protocol.
    pub fn for_protocol<P: ReplicaProtocol>(proto: &P, workers: usize) -> Self {
        ShardRouter {
            spec: ShardSpec::new(workers),
            serialize_updates: proto.update_serializes(),
        }
    }

    /// The underlying key partition.
    #[inline]
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Whether every event collapses onto the serialization lane (the
    /// protocol's updates totally order, so per-key state must live in one
    /// engine — sharding it would split a key's writes from its reads).
    #[inline]
    pub fn single_lane(&self) -> bool {
        self.serialize_updates
    }

    /// The lane a client operation on `key` must run on: the owning shard,
    /// or the serialization lane for update-serializing protocols — *all*
    /// ops, not just updates, since reads must see the engine that holds
    /// the serialized writes' state.
    #[inline]
    pub fn lane_for_op(&self, key: Key, cop: &ClientOp) -> usize {
        let _ = cop;
        if self.serialize_updates {
            ShardSpec::SERIAL_LANE
        } else {
            self.spec.owner(key)
        }
    }

    /// The lane a peer message about `key` must run on: the owning shard,
    /// or the serialization lane when the protocol says this message is
    /// part of its total-order step (or serializes updates entirely).
    #[inline]
    pub fn lane_for_msg<P: ReplicaProtocol>(&self, proto: &P, key: Key, msg: &P::Msg) -> usize {
        if self.serialize_updates || proto.msg_serializes(msg) {
            ShardSpec::SERIAL_LANE
        } else {
            self.spec.owner(key)
        }
    }

    /// The lane that owns `key`'s message-loss timer (the shard owner:
    /// timers re-drive per-key protocol state where it lives).
    #[inline]
    pub fn lane_for_timer(&self, key: Key) -> usize {
        if self.serialize_updates {
            ShardSpec::SERIAL_LANE
        } else {
            self.spec.owner(key)
        }
    }

    /// The lane an inbound message about `key` belongs to, decided
    /// *without* a live protocol instance in hand — the per-worker ingress
    /// demux runs on whichever lane read the frame, before it knows whose
    /// engine the message is for.
    ///
    /// Equivalent to [`ShardRouter::lane_for_msg`] for protocols whose
    /// [`msg_serializes`](crate::ReplicaProtocol::msg_serializes) hook is
    /// uniformly `false` (Hermes: no message carries a total-order step).
    /// Protocols that serialize *per message* must keep demuxing on a lane
    /// that holds the engine; the threaded runtime's reader-side demux is
    /// only wired for Hermes.
    #[inline]
    pub fn lane_for_ingress(&self, key: Key) -> usize {
        if self.serialize_updates {
            ShardSpec::SERIAL_LANE
        } else {
            self.spec.owner(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capabilities, Effect, NodeId, OpId, Value};

    #[test]
    fn ownership_is_stable_and_in_range() {
        let spec = ShardSpec::new(4);
        for raw in 0..1000u64 {
            let lane = spec.owner(Key(raw));
            assert!(lane < 4);
            assert_eq!(lane, spec.owner(Key(raw)));
        }
    }

    #[test]
    fn single_worker_maps_everything_to_lane_zero() {
        let spec = ShardSpec::new(1);
        for raw in 0..100u64 {
            assert_eq!(spec.owner(Key(raw)), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        ShardSpec::new(0);
    }

    /// A toy protocol whose updates and `true`-tagged messages serialize.
    struct SerialToy;

    impl ReplicaProtocol for SerialToy {
        type Msg = bool;

        fn node_id(&self) -> NodeId {
            NodeId(0)
        }

        fn on_client_op(
            &mut self,
            _op: OpId,
            _key: Key,
            _cop: ClientOp,
            _fx: &mut Vec<Effect<bool>>,
        ) {
        }

        fn on_message(&mut self, _from: NodeId, _msg: bool, _fx: &mut Vec<Effect<bool>>) {}

        fn msg_wire_size(_msg: &bool) -> usize {
            1
        }

        fn msg_serializes(&self, msg: &bool) -> bool {
            *msg
        }

        fn update_serializes(&self) -> bool {
            true
        }

        fn capabilities() -> Capabilities {
            Capabilities {
                name: "toy",
                local_reads: false,
                leases: "none",
                consistency: "Lin",
                write_concurrency: "serializes all",
                write_latency_rtts: "2",
                decentralized_writes: false,
            }
        }
    }

    /// A toy protocol with the default (fully parallel) hooks.
    struct ParallelToy;

    impl ReplicaProtocol for ParallelToy {
        type Msg = bool;

        fn node_id(&self) -> NodeId {
            NodeId(0)
        }

        fn on_client_op(
            &mut self,
            _op: OpId,
            _key: Key,
            _cop: ClientOp,
            _fx: &mut Vec<Effect<bool>>,
        ) {
        }

        fn on_message(&mut self, _from: NodeId, _msg: bool, _fx: &mut Vec<Effect<bool>>) {}

        fn msg_wire_size(_msg: &bool) -> usize {
            1
        }

        fn capabilities() -> Capabilities {
            Capabilities {
                name: "toy",
                local_reads: true,
                leases: "none",
                consistency: "Lin",
                write_concurrency: "inter-key",
                write_latency_rtts: "1",
                decentralized_writes: true,
            }
        }
    }

    #[test]
    fn update_serializing_protocols_collapse_to_the_serial_lane() {
        let router = ShardRouter::for_protocol(&SerialToy, 4);
        assert!(router.single_lane());
        // Find a key owned by a non-serial lane so the pinning is visible.
        let key = (0..64)
            .map(Key)
            .find(|k| router.spec().owner(*k) != ShardSpec::SERIAL_LANE)
            .unwrap();
        // *Everything* pins to the serial lane: per-key state must live in
        // one engine, so reads and timers follow the serialized writes.
        assert_eq!(
            router.lane_for_op(key, &ClientOp::Write(Value::EMPTY)),
            ShardSpec::SERIAL_LANE
        );
        assert_eq!(
            router.lane_for_op(key, &ClientOp::Read),
            ShardSpec::SERIAL_LANE
        );
        assert_eq!(
            router.lane_for_msg(&SerialToy, key, &true),
            ShardSpec::SERIAL_LANE
        );
        assert_eq!(
            router.lane_for_msg(&SerialToy, key, &false),
            ShardSpec::SERIAL_LANE
        );
        assert_eq!(router.lane_for_timer(key), ShardSpec::SERIAL_LANE);
    }

    #[test]
    fn message_serialization_is_per_message_for_parallel_protocols() {
        // A protocol whose updates parallelize but whose `true` messages
        // carry a total-order step: only those pin to the serial lane.
        struct MsgSerialToy;
        impl ReplicaProtocol for MsgSerialToy {
            type Msg = bool;
            fn node_id(&self) -> NodeId {
                NodeId(0)
            }
            fn on_client_op(
                &mut self,
                _op: OpId,
                _key: Key,
                _cop: ClientOp,
                _fx: &mut Vec<Effect<bool>>,
            ) {
            }
            fn on_message(&mut self, _from: NodeId, _msg: bool, _fx: &mut Vec<Effect<bool>>) {}
            fn msg_wire_size(_msg: &bool) -> usize {
                1
            }
            fn msg_serializes(&self, msg: &bool) -> bool {
                *msg
            }
            fn capabilities() -> Capabilities {
                Capabilities {
                    name: "toy",
                    local_reads: true,
                    leases: "none",
                    consistency: "Lin",
                    write_concurrency: "inter-key",
                    write_latency_rtts: "1",
                    decentralized_writes: true,
                }
            }
        }
        let router = ShardRouter::for_protocol(&MsgSerialToy, 4);
        assert!(!router.single_lane());
        let key = (0..64)
            .map(Key)
            .find(|k| router.spec().owner(*k) != ShardSpec::SERIAL_LANE)
            .unwrap();
        assert_eq!(
            router.lane_for_msg(&MsgSerialToy, key, &true),
            ShardSpec::SERIAL_LANE
        );
        assert_eq!(
            router.lane_for_msg(&MsgSerialToy, key, &false),
            router.spec().owner(key)
        );
    }

    #[test]
    fn parallel_protocols_route_everything_to_the_owner() {
        let router = ShardRouter::for_protocol(&ParallelToy, 4);
        for raw in 0..100u64 {
            let key = Key(raw);
            let owner = router.spec().owner(key);
            assert_eq!(router.lane_for_op(key, &ClientOp::Read), owner);
            assert_eq!(
                router.lane_for_op(key, &ClientOp::Write(Value::EMPTY)),
                owner
            );
            assert_eq!(router.lane_for_msg(&ParallelToy, key, &true), owner);
            assert_eq!(router.lane_for_timer(key), owner);
        }
    }

    #[test]
    fn ingress_demux_matches_message_routing() {
        // The reader-thread demux (no protocol instance) must agree with
        // the engine-side decision for non-serializing messages, and pin to
        // the serial lane for update-serializing protocols.
        let parallel = ShardRouter::for_protocol(&ParallelToy, 4);
        for raw in 0..100u64 {
            let key = Key(raw);
            assert_eq!(
                parallel.lane_for_ingress(key),
                parallel.lane_for_msg(&ParallelToy, key, &false)
            );
        }
        let serial = ShardRouter::for_protocol(&SerialToy, 4);
        for raw in 0..100u64 {
            assert_eq!(serial.lane_for_ingress(Key(raw)), ShardSpec::SERIAL_LANE);
        }
    }
}
