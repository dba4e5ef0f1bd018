//! The closed-loop load generator, its seeded operation stream, and the
//! verifier that checks every reply.
//!
//! Every written value is `key ‖ session ‖ seq ‖ padding`. A read must
//! decode to the key asked for and to a `(session, seq)` that session has
//! really issued; anything else — a wrong key, a sequence number from the
//! future, `NotOperational`, a timeout, a lost session — is a failure.

use crate::spec::{WorkloadSpec, PRELOAD_SESSION, SESSIONS, STALL_NS};
use hermes::prelude::*;
use hermes::sim::rng::Rng;
use hermes::workload::KeyChooser;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes of `key ‖ session ‖ seq` at the front of every value.
const HEADER_LEN: usize = 24;
const PADDING: u8 = 0xA5;

/// A pipelined KV endpoint whose completions name the operation they
/// complete. (`hermes::workload::PipelinedKv::wait_any` drops the ticket,
/// so replies could not be paired with the keys they were asked for.)
pub trait TicketedKv {
    /// Starts an operation; the returned token is unique per endpoint.
    fn submit(&mut self, key: Key, cop: ClientOp) -> u64;
    /// Blocks until any operation completes; `None` means the service is
    /// gone and everything still in flight is lost.
    fn wait_any(&mut self) -> Option<(u64, Reply)>;
}

impl<C: SessionChannel> TicketedKv for ClientSession<C> {
    fn submit(&mut self, key: Key, cop: ClientOp) -> u64 {
        ClientSession::submit(self, key, cop).op().seq
    }

    fn wait_any(&mut self) -> Option<(u64, Reply)> {
        ClientSession::wait_any(self).map(|(t, r)| (t.op().seq, r))
    }
}

pub fn encode_value(key: Key, session: u64, seq: u64, len: usize) -> Value {
    let mut bytes = vec![PADDING; len.max(HEADER_LEN)];
    bytes[0..8].copy_from_slice(&key.0.to_le_bytes());
    bytes[8..16].copy_from_slice(&session.to_le_bytes());
    bytes[16..24].copy_from_slice(&seq.to_le_bytes());
    Value::from(bytes)
}

/// `(key, session, seq)` of a value, or `None` if it is not one of ours.
pub fn decode_value(bytes: &[u8], len: usize) -> Option<(u64, u64, u64)> {
    if bytes.len() != len.max(HEADER_LEN) || bytes[HEADER_LEN..].iter().any(|&b| b != PADDING) {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    Some((word(0), word(8), word(16)))
}

/// Sequence numbers each session has issued so far: `issued[s]` is one past
/// the highest `seq` session `s` has put into a value. Index 0 is the
/// preload, whose `seq` is the key itself.
#[derive(Debug)]
pub struct Issued(Vec<AtomicU64>);

impl Issued {
    pub fn new(keys: u64) -> Issued {
        let mut v: Vec<AtomicU64> = (0..=SESSIONS).map(|_| AtomicU64::new(0)).collect();
        v[PRELOAD_SESSION as usize] = AtomicU64::new(keys);
        Issued(v)
    }

    /// Publishes that `session` is about to send `seq`. SeqCst: the reader
    /// that later sees the value (through sockets or channels) must also see
    /// this store, and one store per write is not worth a weaker argument.
    fn publish(&self, session: u64, seq: u64) {
        self.0[session as usize].store(seq + 1, Ordering::SeqCst);
    }

    fn has_issued(&self, session: u64, seq: u64) -> bool {
        self.0
            .get(session as usize)
            .is_some_and(|n| seq < n.load(Ordering::SeqCst))
    }
}

/// Why an operation counted as failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// A read returned a value written for another key (or not ours).
    pub wrong_key: u64,
    /// A read returned a `(session, seq)` nobody has issued.
    pub stale: u64,
    /// `NotOperational`, an abort, or a reply of the wrong kind.
    pub bad_reply: u64,
    /// Still in flight when the service went away (includes timeouts).
    pub lost: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.wrong_key + self.stale + self.bad_reply + self.lost
    }

    pub fn add(&mut self, o: &Failures) {
        self.wrong_key += o.wrong_key;
        self.stale += o.stale;
        self.bad_reply += o.bad_reply;
        self.lost += o.lost;
    }
}

/// Checks one reply against the operation it completes.
pub fn verify(
    key: Key,
    is_write: bool,
    reply: &Reply,
    value_len: usize,
    issued: &Issued,
    f: &mut Failures,
) {
    match (is_write, reply) {
        (true, Reply::WriteOk) => {}
        (false, Reply::ReadOk(v)) => match decode_value(v.as_bytes(), value_len) {
            Some((k, _, _)) if k != key.0 => f.wrong_key += 1,
            Some((_, session, seq)) if !issued.has_issued(session, seq) => f.stale += 1,
            Some(_) => {}
            None => f.wrong_key += 1,
        },
        _ => f.bad_reply += 1,
    }
}

/// One session's seeded operation stream.
#[derive(Debug)]
pub struct OpGen {
    chooser: KeyChooser,
    rng: Rng,
    write_ratio: f64,
    value_len: usize,
    session: u64,
    next_seq: u64,
}

impl OpGen {
    /// The stream of load session `session` (1-based) under `seed`.
    pub fn new(spec: &WorkloadSpec, seed: u64, session: u64) -> OpGen {
        let chooser = match spec.zipf_theta {
            Some(theta) => KeyChooser::zipfian(spec.keys, theta),
            None => KeyChooser::uniform(spec.keys),
        };
        OpGen {
            chooser,
            rng: Rng::seeded(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ session),
            write_ratio: spec.write_ratio,
            value_len: spec.value_len,
            session,
            next_seq: 0,
        }
    }

    /// The next operation: a key, and the value to write (`None` = read).
    /// A write's `(session, seq)` is published in `issued` before the value
    /// can reach anyone.
    pub fn next_op(&mut self, issued: &Issued) -> (Key, Option<Value>) {
        let key = self.chooser.next_key(&mut self.rng);
        if !self.rng.gen_bool(self.write_ratio) {
            return (key, None);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        issued.publish(self.session, seq);
        (
            key,
            Some(encode_value(key, self.session, seq, self.value_len)),
        )
    }
}

/// When each part of the run starts, relative to `t0`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub t0: Instant,
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
    /// The traced, allocation-counted pass after the measured window.
    pub layer: Duration,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warmup,
    Slice(usize),
    Layer,
    Done,
}

impl Schedule {
    pub fn window_end(&self) -> Duration {
        self.warmup + self.slice * self.slices as u32
    }

    pub fn end(&self) -> Duration {
        self.window_end() + self.layer
    }

    pub fn phase_at(&self, now: Instant) -> Phase {
        let t = now.saturating_duration_since(self.t0);
        if t < self.warmup {
            Phase::Warmup
        } else if t < self.window_end() {
            Phase::Slice(((t - self.warmup).as_nanos() / self.slice.as_nanos()) as usize)
        } else if t < self.end() {
            Phase::Layer
        } else {
            Phase::Done
        }
    }
}

/// Completions of one phase (one slice, or the layer pass) on one thread.
#[derive(Clone, Debug, Default)]
pub struct PhaseRec {
    pub reads_ns: Vec<u64>,
    pub writes_ns: Vec<u64>,
    /// RTTs over [`STALL_NS`].
    pub stalls: u64,
}

impl PhaseRec {
    pub fn completed(&self) -> u64 {
        (self.reads_ns.len() + self.writes_ns.len()) as u64
    }

    fn record(&mut self, is_write: bool, ns: u64) {
        if is_write {
            self.writes_ns.push(ns);
        } else {
            self.reads_ns.push(ns);
        }
        if ns > STALL_NS {
            self.stalls += 1;
        }
    }

    pub fn merge(&mut self, o: PhaseRec) {
        self.reads_ns.extend(o.reads_ns);
        self.writes_ns.extend(o.writes_ns);
        self.stalls += o.stalls;
    }
}

/// Everything one load thread observed.
#[derive(Clone, Debug, Default)]
pub struct ThreadRec {
    pub slices: Vec<PhaseRec>,
    pub layer: PhaseRec,
    /// Operations submitted, warm-up included.
    pub attempted: u64,
    pub failures: Failures,
    /// Time inside `submit` during the layer pass (the measured window does
    /// not pay for the second clock read).
    pub submit_ns: u64,
    pub submits_timed: u64,
}

struct InFlight {
    token: u64,
    key: Key,
    is_write: bool,
    t0: Instant,
}

/// Drives `kv` in a closed loop of `depth` operations until the schedule is
/// done, then drains. Each completion is verified, and timed into the phase
/// its completion instant falls in.
pub fn run_load<K: TicketedKv>(
    kv: &mut K,
    gen: &mut OpGen,
    sched: &Schedule,
    depth: usize,
    issued: &Issued,
) -> ThreadRec {
    let mut rec = ThreadRec {
        slices: vec![PhaseRec::default(); sched.slices],
        ..ThreadRec::default()
    };
    let mut inflight: Vec<InFlight> = Vec::with_capacity(depth);
    let mut now = Instant::now();
    loop {
        let phase = sched.phase_at(now);
        while phase != Phase::Done && inflight.len() < depth {
            let (key, value) = gen.next_op(issued);
            let is_write = value.is_some();
            let cop = value.map_or(ClientOp::Read, ClientOp::Write);
            let t0 = Instant::now();
            let token = kv.submit(key, cop);
            if phase == Phase::Layer {
                rec.submit_ns += t0.elapsed().as_nanos() as u64;
                rec.submits_timed += 1;
            }
            rec.attempted += 1;
            inflight.push(InFlight {
                token,
                key,
                is_write,
                t0,
            });
        }
        if inflight.is_empty() {
            break;
        }
        let Some((token, reply)) = kv.wait_any() else {
            rec.failures.lost += inflight.len() as u64;
            break;
        };
        now = Instant::now();
        let Some(at) = inflight.iter().position(|f| f.token == token) else {
            // A completion for nothing we asked: the service invented it.
            rec.failures.bad_reply += 1;
            continue;
        };
        let op = inflight.swap_remove(at);
        verify(
            op.key,
            op.is_write,
            &reply,
            gen.value_len,
            issued,
            &mut rec.failures,
        );
        let ns = now.duration_since(op.t0).as_nanos() as u64;
        match sched.phase_at(now) {
            Phase::Slice(i) => rec.slices[i].record(op.is_write, ns),
            Phase::Layer => rec.layer.record(op.is_write, ns),
            Phase::Warmup | Phase::Done => {}
        }
    }
    rec
}

/// Writes every key in `keys` once (value: that key, the preload session,
/// `seq` = key), `depth` in flight. Returns failures (0 on a healthy run).
pub fn preload<K: TicketedKv>(
    kv: &mut K,
    keys: std::ops::Range<u64>,
    value_len: usize,
    depth: usize,
) -> Failures {
    let mut f = Failures::default();
    let mut inflight = 0usize;
    let mut next = keys.start;
    while next < keys.end || inflight > 0 {
        while next < keys.end && inflight < depth {
            let key = Key(next);
            kv.submit(
                key,
                ClientOp::Write(encode_value(key, PRELOAD_SESSION, next, value_len)),
            );
            next += 1;
            inflight += 1;
        }
        match kv.wait_any() {
            Some((_, Reply::WriteOk)) => inflight -= 1,
            Some(_) => {
                f.bad_reply += 1;
                inflight -= 1;
            }
            None => {
                f.lost += inflight as u64 + (keys.end - next);
                break;
            }
        }
    }
    f
}
