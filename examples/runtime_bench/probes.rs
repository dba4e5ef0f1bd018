//! Single-threaded micro-probes, one per layer, run after the cluster is
//! shut down. Each calls a layer's public functions directly on inputs
//! shaped by the workload (its value size, its operation stream), so a
//! layer's own cost can be read apart from the queueing around it.
//!
//! Iteration counts are fixed and inputs seeded, so the counts the probes
//! report (messages, wire bytes, allocations) repeat bit-for-bit.

use crate::estimate::percentile;
use crate::host::count_allocs;
use crate::load::{encode_value, Issued, OpGen};
use crate::spec::{WorkloadSpec, NODES, SESSIONS};
use hermes::common::{Effect, Epoch};
use hermes::core::{Ts, UpdateKind};
use hermes::net::{Endpoint, InProcNet, IngressSink, NetEvent, NetSender, TcpNet, Transport};
use hermes::obs::{Histogram, Phase, Span, TraceRing};
use hermes::prelude::*;
use hermes::store::{SlotMeta, Store, StoreConfig};
use hermes::wings::{client as rpc, codec, decode_frame, Batcher};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Divides every probe's iteration count (`--smoke` uses 10).
#[derive(Clone, Copy, Debug)]
pub struct ProbeScale(pub u64);

/// The runtime's Wings batcher limits (`threaded.rs`).
const FRAME_BYTES: usize = 1400;
const FRAME_MSGS: usize = 32;
/// Messages pushed between flushes in the batch probe.
const MSGS_PER_FLUSH: usize = 16;
const PING_BYTES: usize = 64;
const STREAM_FRAME_BYTES: usize = 16 * 1024;
const NET_TIMEOUT: Duration = Duration::from_secs(10);

pub fn run_all(
    spec: &WorkloadSpec,
    seed: u64,
    scale: ProbeScale,
    set: &mut dyn FnMut(&'static str, f64),
) {
    let n = |full: u64| (full / scale.0).max(100);
    core_lockstep(spec, seed, n(200_000), set);
    wings(spec, n(200_000), set);
    store(spec, n(200_000), set);
    set(
        "net.tcp.pingpong_p50_us",
        pingpong_p50_us(TcpNet::loopback(2).expect("loopback listeners"), n(20_000)),
    );
    set(
        "net.inproc.pingpong_p50_us",
        pingpong_p50_us(InProcNet::new(2), n(20_000)),
    );
    set("net.tcp.stream_mib_per_s", tcp_stream_mib_per_s(n(8_192)));
    obs(n(1_000_000), set);
    let issued = Issued::new(spec.keys);
    let mut gen = OpGen::new(spec, seed, 1);
    let ops = n(1_000_000);
    let start = Instant::now();
    for _ in 0..ops {
        black_box(gen.next_op(&issued));
    }
    set("workload.next_op_ns", per_iter_ns(start, ops));
}

fn per_iter_ns(start: Instant, iters: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Three `HermesNode`s driven in lockstep: every message an operation
/// causes is delivered, in order, before the next operation starts. No
/// threads, no queues, no codec: what is left is the protocol engine.
struct Lockstep {
    nodes: Vec<HermesNode>,
    queue: VecDeque<(usize, usize, Msg)>,
    fx: Vec<Effect<Msg>>,
    msgs: u64,
    wire_bytes: u64,
}

impl Lockstep {
    fn new() -> Lockstep {
        let view = MembershipView::initial(NODES);
        Lockstep {
            nodes: (0..NODES)
                .map(|i| HermesNode::new(NodeId(i as u32), view, ProtocolConfig::default()))
                .collect(),
            queue: VecDeque::new(),
            fx: Vec::new(),
            msgs: 0,
            wire_bytes: 0,
        }
    }

    /// Runs one client operation at `coord` to quiescence.
    fn drive(&mut self, coord: usize, seq: u64, key: Key, cop: ClientOp) {
        let op = OpId::new(hermes::common::ClientId(1), seq);
        self.nodes[coord].on_client_op(op, key, cop, &mut self.fx);
        let mut at = coord;
        loop {
            for e in self.fx.drain(..) {
                match e {
                    Effect::Send { to, msg } => self.queue.push_back((at, to.index(), msg)),
                    Effect::Broadcast { msg } => {
                        for to in (0..NODES).filter(|&to| to != at) {
                            self.queue.push_back((at, to, msg.clone()));
                        }
                    }
                    // Replies end the operation; loss timers never fire here.
                    Effect::Reply { .. } | Effect::ArmTimer { .. } | Effect::DisarmTimer { .. } => {
                    }
                }
            }
            let Some((from, to, msg)) = self.queue.pop_front() else {
                return;
            };
            self.msgs += 1;
            self.wire_bytes += msg.wire_size() as u64;
            self.nodes[to].on_message(NodeId(from as u32), msg, &mut self.fx);
            at = to;
        }
    }
}

/// The core probe: the workload's own operation stream (seeded, coordinators
/// alternating between nodes 0 and 1 as the two sessions do) through
/// [`Lockstep`], after writing every key once.
fn core_lockstep(spec: &WorkloadSpec, seed: u64, ops: u64, set: &mut dyn FnMut(&'static str, f64)) {
    let mut cluster = Lockstep::new();
    for k in 0..spec.keys {
        let key = Key(k);
        let v = encode_value(key, 0, k, spec.value_len);
        cluster.drive((k % SESSIONS as u64) as usize, k, key, ClientOp::Write(v));
    }
    let (preload_msgs, preload_bytes) = (cluster.msgs, cluster.wire_bytes);
    let issued = Issued::new(spec.keys);
    let mut gen = OpGen::new(spec, seed, 1);
    let (mut write_ns, mut read_ns, mut writes, mut reads) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..ops {
        let (key, value) = gen.next_op(&issued);
        let is_write = value.is_some();
        let cop = value.map_or(ClientOp::Read, ClientOp::Write);
        let start = Instant::now();
        cluster.drive((i % SESSIONS as u64) as usize, spec.keys + i, key, cop);
        let ns = start.elapsed().as_nanos() as u64;
        if is_write {
            write_ns += ns;
            writes += 1;
        } else {
            read_ns += ns;
            reads += 1;
        }
    }
    let per_write = |total: u64| total as f64 / writes.max(1) as f64;
    set("core.ns_per_write", per_write(write_ns));
    set("core.ns_per_read", read_ns as f64 / reads.max(1) as f64);
    set(
        "core.msgs_per_write",
        per_write(cluster.msgs - preload_msgs),
    );
    set(
        "core.wire_bytes_per_write",
        per_write(cluster.wire_bytes - preload_bytes),
    );
}

/// Wings: the message codec, the batcher, the client codec, each on
/// messages of the workload's value size.
fn wings(spec: &WorkloadSpec, iters: u64, set: &mut dyn FnMut(&'static str, f64)) {
    let key = Key(7);
    let value = encode_value(key, 1, 1, spec.value_len);
    let inv = Msg::Inv {
        key,
        ts: Ts { version: 3, cid: 1 },
        value: value.clone(),
        kind: UpdateKind::Write,
        epoch: Epoch(0),
    };

    // `encode_into` a fresh buffer, then `decode`, as the lanes do per
    // message. The buffer type (`bytes::BytesMut`) is named by inference:
    // the `hermes` facade does not re-export the `bytes` crate.
    let start = Instant::now();
    let ((), allocs) = count_allocs(|| {
        for _ in 0..iters {
            let mut buf = Default::default();
            codec::encode_into(black_box(&inv), &mut buf);
            black_box(codec::decode(&buf).expect("own encoding decodes"));
        }
    });
    set("wings.codec.ns_per_msg", per_iter_ns(start, iters));
    set("wings.codec.allocs_per_msg", allocs as f64 / iters as f64);

    let encoded = codec::encode(&inv);
    let rounds = (iters / MSGS_PER_FLUSH as u64).max(1);
    let mut batcher = Batcher::new(FRAME_BYTES, FRAME_MSGS);
    let mut frames = 0u64;
    let start = Instant::now();
    let ((), allocs) = count_allocs(|| {
        for _ in 0..rounds {
            let mut unpack = |frame: &[u8]| {
                frames += 1;
                black_box(decode_frame(frame).expect("own frame decodes"));
            };
            for _ in 0..MSGS_PER_FLUSH {
                if let Some((_, frame)) = batcher.push(NodeId(1), &encoded) {
                    unpack(&frame);
                }
            }
            batcher.flush_into(|_, frame| unpack(&frame));
        }
    });
    set(
        "wings.batch.ns_per_msg",
        per_iter_ns(start, rounds * MSGS_PER_FLUSH as u64),
    );
    set(
        "wings.batch.allocs_per_frame",
        allocs as f64 / frames as f64,
    );

    // One read round trip through the client codec: request out, request
    // in, reply out, reply in.
    let reply = Reply::ReadOk(value);
    let start = Instant::now();
    let ((), allocs) = count_allocs(|| {
        for seq in 0..iters {
            let req = rpc::encode_request_bytes(seq, key, &ClientOp::Read);
            black_box(rpc::decode_request(&req).expect("own request decodes"));
            let rep = rpc::encode_reply_bytes(seq, black_box(&reply));
            black_box(rpc::decode_server_frame(&rep).expect("own reply decodes"));
        }
    });
    set("wings.client.ns_per_op", per_iter_ns(start, iters));
    set("wings.client.allocs_per_op", allocs as f64 / iters as f64);
}

fn store(spec: &WorkloadSpec, iters: u64, set: &mut dyn FnMut(&'static str, f64)) {
    let store = Store::new(StoreConfig::default());
    let value = encode_value(Key(0), 1, 1, spec.value_len);
    let keys = spec.keys.min(iters);
    for k in 0..keys {
        store.put(Key(k), SlotMeta::valid(1, 0), value.as_bytes());
    }
    let start = Instant::now();
    for i in 0..iters {
        store.put(
            Key(i % keys),
            SlotMeta::valid(2 + i, 0),
            black_box(value.as_bytes()),
        );
    }
    set("store.put_ns", per_iter_ns(start, iters));
    let mut buf = Vec::with_capacity(spec.value_len);
    let start = Instant::now();
    for i in 0..iters {
        black_box(store.get(Key(i % keys), &mut buf));
    }
    set("store.get_ns", per_iter_ns(start, iters));
}

/// Median round trip of a 64 B frame between two endpoints: node 0's
/// sender → node 1's ingress sink → node 1's sender → node 0's sink.
fn pingpong_p50_us<T: Transport>(net: T, rounds: u64) -> f64
where
    <T::Endpoint as Endpoint>::Sender: Sync,
{
    let mut endpoints = net.into_endpoints();
    let (b, a) = (
        endpoints.pop().expect("two endpoints"),
        endpoints.pop().expect("two endpoints"),
    );
    let (a_tx, b_tx) = (a.sender(), b.sender());
    let echo: IngressSink = Arc::new(move |ev| {
        if let NetEvent::Frame(_, frame) = ev {
            b_tx.send(NodeId(0), frame);
        }
        true
    });
    let (done_tx, done_rx) = mpsc::channel();
    let home: IngressSink = Arc::new(move |ev| match ev {
        NetEvent::Frame(..) => done_tx.send(()).is_ok(),
        _ => true,
    });
    let guards = (a.start(home), b.start(echo));
    // A frame payload is `bytes::Bytes`; `Value` hands one out without the
    // facade having to re-export the `bytes` crate.
    let ping = Value::filled(0x5A, PING_BYTES).into_inner();
    let mut rtts = Vec::with_capacity(rounds as usize);
    // The first rounds dial the connections; they are not timed.
    for i in 0..rounds + 10 {
        let start = Instant::now();
        a_tx.send(NodeId(1), ping.clone());
        if done_rx.recv_timeout(NET_TIMEOUT).is_err() {
            break;
        }
        if i >= 10 {
            rtts.push(start.elapsed().as_nanos() as u64);
        }
    }
    drop(a_tx);
    guards.0.stop();
    guards.1.stop();
    rtts.sort_unstable();
    percentile(&rtts, 50.0).map_or(0.0, |ns| ns / 1e3)
}

/// One-way throughput of 16 KiB frames over one loopback TCP connection.
fn tcp_stream_mib_per_s(frames: u64) -> f64 {
    let mut endpoints = TcpNet::loopback(2)
        .expect("loopback listeners")
        .into_endpoints();
    let (b, a) = (
        endpoints.pop().expect("two endpoints"),
        endpoints.pop().expect("two endpoints"),
    );
    let a_tx = a.sender();
    let received = Arc::new(AtomicU64::new(0));
    let sink_received = Arc::clone(&received);
    let sink: IngressSink = Arc::new(move |ev| {
        if let NetEvent::Frame(_, frame) = ev {
            // Relaxed: a progress counter polled by the sender.
            sink_received.fetch_add(frame.len() as u64, Ordering::Relaxed);
        }
        true
    });
    let guards = (a.start(Arc::new(|_| true)), b.start(sink));
    let frame = Value::filled(0x5A, STREAM_FRAME_BYTES).into_inner();
    let total = frames * STREAM_FRAME_BYTES as u64;
    let start = Instant::now();
    for _ in 0..frames {
        a_tx.send(NodeId(1), frame.clone());
    }
    while received.load(Ordering::Relaxed) < total && start.elapsed() < NET_TIMEOUT {
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = start.elapsed().as_secs_f64();
    let got = received.load(Ordering::Relaxed);
    drop(a_tx);
    guards.0.stop();
    guards.1.stop();
    got as f64 / (1024.0 * 1024.0) / secs
}

/// The measurement plane's own unit costs.
fn obs(iters: u64, set: &mut dyn FnMut(&'static str, f64)) {
    let hist = Histogram::new();
    let start = Instant::now();
    for i in 0..iters {
        hist.record(black_box(i & 0xFFFF));
    }
    set("obs.hist_record_ns", per_iter_ns(start, iters));

    // What a lane pays per untraced write: begin, six marks, complete
    // (under the slow-op threshold, so nothing is captured).
    let ring = TraceRing::labeled("probe", 0, 0);
    let spans = (iters / 10).max(1);
    let start = Instant::now();
    for _ in 0..spans {
        let mut span = Span::begin(Phase::Issued);
        for phase in [
            Phase::InvalBroadcast,
            Phase::AckEnqueue,
            Phase::AcksCollected,
            Phase::Committed,
            Phase::ReplyHeld,
            Phase::ReplyReleased,
        ] {
            span.mark(phase);
        }
        black_box(ring.complete(&span, String::new));
    }
    set("obs.span_ns", per_iter_ns(start, spans));
}
