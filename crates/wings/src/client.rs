//! Wire format for the client-facing RPC port of a replica daemon.
//!
//! The paper's clients talk to HermesKV over the network like any KVS
//! clients (§2.1, §5.2); this module gives the reproduction's `hermesd`
//! daemon the matching wire vocabulary: a request carries the session-local
//! sequence number, the key and the [`ClientOp`]; a response carries the
//! sequence number back with the [`Reply`]. Sessions pipeline by keeping
//! many sequence numbers outstanding per connection; responses return out
//! of order (inter-key concurrency), which is why every response echoes its
//! request's sequence number.
//!
//! Requests and responses ride inside the same `u32` length-prefixed
//! framing as replica-to-replica traffic (DESIGN.md §4); this module
//! encodes only the payloads. All integers little-endian.

use bytes::{BufMut, Bytes, BytesMut};
use hermes_common::{ClientOp, Key, NodeSet, Reply, RmwOp, TxnAbort, TxnOp, TxnReply, Value};
use hermes_obs::TraceSpan;

const REQ_READ: u8 = 0;
const REQ_WRITE: u8 = 1;
const REQ_CAS: u8 = 2;
const REQ_FETCH_ADD: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
const REQ_TXN: u8 = 5;
const REQ_STATS: u8 = 6;
const REQ_SUBSCRIBE: u8 = 7;
const REQ_UNSUBSCRIBE: u8 = 8;
const REQ_INVAL_ACK: u8 = 9;
const REQ_METRICS: u8 = 10;
const REQ_TRACES: u8 = 11;

const RSP_READ_OK: u8 = 0;
const RSP_WRITE_OK: u8 = 1;
const RSP_RMW_OK: u8 = 2;
const RSP_CAS_FAILED: u8 = 3;
const RSP_RMW_ABORTED: u8 = 4;
const RSP_NOT_OPERATIONAL: u8 = 5;
const RSP_UNSUPPORTED: u8 = 6;
/// Transaction and stats responses use their own tag space so they can
/// never be mistaken for single-key completions (they ride on dedicated
/// request/response exchanges, not the pipelined session stream).
const RSP_TXN: u8 = 7;
const RSP_STATS: u8 = 8;
/// Server-initiated push frames (invalidation stream) and subscription
/// acknowledgements. They carry no meaningful sequence number (the seq
/// slot is zero for pushes) and are deliberately **not** decodable by
/// [`decode_reply`]: only the superset [`decode_server_frame`] accepts
/// them, so callers that never subscribed keep their strict decoder.
const RSP_INVALIDATE: u8 = 9;
const RSP_SUBSCRIBED: u8 = 10;
const RSP_UNSUBSCRIBED: u8 = 11;
const RSP_FLUSH: u8 = 12;
/// Metrics exposition reply: like stats, a dedicated request/response
/// exchange (never part of the pipelined session stream).
const RSP_METRICS: u8 = 13;
/// Trace-span drain reply: like metrics, a dedicated request/response
/// exchange (never part of the pipelined session stream).
const RSP_TRACES: u8 = 14;

const TXN_MULTI_GET: u8 = 0;
const TXN_MULTI_PUT: u8 = 1;
const TXN_TRANSFER: u8 = 2;

const TXN_COMMITTED: u8 = 0;
const TXN_ABORT_CONFLICT: u8 = 1;
const TXN_ABORT_FUNDS: u8 = 2;
const TXN_ABORT_INVALID: u8 = 3;
const TXN_ABORT_NOT_OPERATIONAL: u8 = 4;
const TXN_ABORT_OVERFLOW: u8 = 5;

/// Errors produced when decoding a malformed client request or response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientCodecError {
    /// The buffer ended before the declared layout was complete.
    Truncated,
    /// Unknown request/response tag byte.
    BadTag(u8),
}

impl std::fmt::Display for ClientCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientCodecError::Truncated => write!(f, "client message truncated"),
            ClientCodecError::BadTag(t) => write!(f, "unknown client message tag {t}"),
        }
    }
}

impl std::error::Error for ClientCodecError {}

/// Minimal cursor over a decode buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ClientCodecError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(ClientCodecError::Truncated)?;
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ClientCodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ClientCodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("sized")))
    }

    fn u64(&mut self) -> Result<u64, ClientCodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("sized")))
    }

    fn value(&mut self) -> Result<Value, ClientCodecError> {
        let len = self.u32()? as usize;
        Ok(Value::from(Bytes::copy_from_slice(self.take(len)?)))
    }
}

fn put_value(out: &mut BytesMut, v: &Value) {
    out.put_u32_le(v.len() as u32);
    out.put_slice(v.as_bytes());
}

/// Bytes [`put_value`] appends for `v`.
fn value_len(v: &Value) -> usize {
    4 + v.len()
}

/// Bytes of a request that is only its header: sequence number, key slot
/// and tag.
const REQUEST_HEADER: usize = 8 + 8 + 1;
/// Bytes of a response that is only its header: sequence number and tag.
const REPLY_HEADER: usize = 8 + 1;

/// Encodes a header-only request into a buffer of exactly its size.
/// Requests about no key pass `Key(0)`: the slot goes unused, which keeps
/// one request layout.
fn header_request_bytes(seq: u64, key: Key, tag: u8) -> Bytes {
    let mut out = BytesMut::with_capacity(REQUEST_HEADER);
    out.put_u64_le(seq);
    out.put_u64_le(key.0);
    out.put_u8(tag);
    out.freeze()
}

/// Encodes one client request (appending to `out`).
pub fn encode_request(out: &mut BytesMut, seq: u64, key: Key, cop: &ClientOp) {
    out.put_u64_le(seq);
    out.put_u64_le(key.0);
    match cop {
        ClientOp::Read => out.put_u8(REQ_READ),
        ClientOp::Write(v) => {
            out.put_u8(REQ_WRITE);
            put_value(out, v);
        }
        ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => {
            out.put_u8(REQ_CAS);
            put_value(out, expect);
            put_value(out, new);
        }
        ClientOp::Rmw(RmwOp::FetchAdd { delta }) => {
            out.put_u8(REQ_FETCH_ADD);
            out.put_u64_le(*delta);
        }
    }
}

/// Encodes one client request into a fresh buffer of exactly its size.
pub fn encode_request_bytes(seq: u64, key: Key, cop: &ClientOp) -> Bytes {
    let body = match cop {
        ClientOp::Read => 0,
        ClientOp::Write(v) => value_len(v),
        ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => value_len(expect) + value_len(new),
        ClientOp::Rmw(RmwOp::FetchAdd { .. }) => 8,
    };
    let mut out = BytesMut::with_capacity(REQUEST_HEADER + body);
    encode_request(&mut out, seq, key, cop);
    debug_assert_eq!(out.len(), REQUEST_HEADER + body);
    out.freeze()
}

/// Decodes one client request.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag
/// (including the transaction, stats and admin shutdown tags — use
/// [`decode_any`] to accept those).
pub fn decode_request(buf: &[u8]) -> Result<(u64, Key, ClientOp), ClientCodecError> {
    match decode_any(buf)? {
        Request::Op { seq, key, cop } => Ok((seq, key, cop)),
        Request::Txn { .. } => Err(ClientCodecError::BadTag(REQ_TXN)),
        Request::Stats { .. } => Err(ClientCodecError::BadTag(REQ_STATS)),
        Request::Metrics { .. } => Err(ClientCodecError::BadTag(REQ_METRICS)),
        Request::Traces { .. } => Err(ClientCodecError::BadTag(REQ_TRACES)),
        Request::Shutdown { .. } => Err(ClientCodecError::BadTag(REQ_SHUTDOWN)),
        Request::Subscribe { .. } => Err(ClientCodecError::BadTag(REQ_SUBSCRIBE)),
        Request::Unsubscribe { .. } => Err(ClientCodecError::BadTag(REQ_UNSUBSCRIBE)),
        Request::InvalAck { .. } => Err(ClientCodecError::BadTag(REQ_INVAL_ACK)),
    }
}

/// Everything a client-port connection can ask of a replica daemon: a data
/// operation, a whole multi-key transaction, an operator stats query, or
/// the administrative shutdown of the whole daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A key-value operation (the common case).
    Op {
        /// Session-local sequence number echoed by the response.
        seq: u64,
        /// Target key.
        key: Key,
        /// The operation.
        cop: ClientOp,
    },
    /// A multi-key transaction, coordinated by the daemon's connection
    /// thread (the lane workers host no transaction state) and answered
    /// with one [`TxnReply`] frame ([`encode_txn_reply_bytes`]).
    Txn {
        /// Session-local sequence number echoed by the reply.
        seq: u64,
        /// The transaction.
        op: TxnOp,
    },
    /// Ask for the daemon's membership/runtime gauges, answered with one
    /// [`StatsPayload`] frame ([`encode_stats_reply_bytes`]) — the RPC
    /// that lets harnesses observe view changes without parsing logs.
    Stats {
        /// Session-local sequence number echoed by the reply.
        seq: u64,
    },
    /// Ask for the daemon's full metrics registry as Prometheus text
    /// exposition, answered with one [`encode_metrics_reply_bytes`] frame:
    /// per-lane latency histograms, protocol-phase counters, plane/cache
    /// gauges. The machine-parseable superset of [`Request::Stats`].
    Metrics {
        /// Session-local sequence number echoed by the reply.
        seq: u64,
    },
    /// Drain the daemon's captured trace spans (slow ops and sampled
    /// cross-node traces), answered with one
    /// [`encode_traces_reply_bytes`] frame. Each scrape consumes what it
    /// returns, so a polling aggregator sees every span exactly once.
    Traces {
        /// Session-local sequence number echoed by the reply.
        seq: u64,
    },
    /// Ask the daemon to exit cleanly (the shutdown RPC; acknowledged with
    /// a [`Reply::WriteOk`] echoing `seq` before the daemon winds down).
    Shutdown {
        /// Session-local sequence number echoed by the acknowledgement.
        seq: u64,
    },
    /// Join the invalidation stream for one key: the replica starts
    /// pushing [`ServerFrame::Invalidate`] frames whenever the key's
    /// protocol timestamp changes, acknowledged with one
    /// [`ServerFrame::Subscribed`] carrying the current view epoch.
    Subscribe {
        /// Session-local sequence number echoed by the acknowledgement.
        seq: u64,
        /// Key to subscribe to.
        key: Key,
    },
    /// Leave the invalidation stream for one key, acknowledged with one
    /// [`ServerFrame::Unsubscribed`].
    Unsubscribe {
        /// Session-local sequence number echoed by the acknowledgement.
        seq: u64,
        /// Key to unsubscribe from.
        key: Key,
    },
    /// Confirm one received [`ServerFrame::Invalidate`] for `key`. Not
    /// replied to: the ack releases the replica-side effect hold that
    /// keeps the superseding write invisible until every subscribed cache
    /// has dropped its entry (the client-side leg of Hermes' invalidation
    /// round).
    InvalAck {
        /// Key whose invalidation push is being confirmed.
        key: Key,
    },
}

/// Everything a replica daemon can send down a client connection: an
/// ordinary sequenced [`Reply`], or one of the server-initiated push
/// frames of the invalidation stream. Decoded by [`decode_server_frame`];
/// the strict [`decode_reply`] keeps rejecting push tags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerFrame {
    /// A sequenced reply to a client request.
    Reply(u64, Reply),
    /// Push: the key changed — drop any cached entry and confirm with
    /// [`Request::InvalAck`]. `epoch` newer than the last seen epoch means
    /// a view changed under the cache: drop **everything**.
    Invalidate {
        /// Invalidated key.
        key: Key,
        /// View epoch the push was issued under.
        epoch: u64,
    },
    /// Acknowledges a [`Request::Subscribe`]: pushes for `key` flow from
    /// now on, and `epoch` anchors the subscriber's view knowledge.
    Subscribed {
        /// Sequence number of the subscribe request.
        seq: u64,
        /// Subscribed key.
        key: Key,
        /// Current view epoch at the replica.
        epoch: u64,
    },
    /// Acknowledges a [`Request::Unsubscribe`].
    Unsubscribed {
        /// Sequence number of the unsubscribe request.
        seq: u64,
        /// Unsubscribed key.
        key: Key,
    },
    /// Push: drop every cached entry (view change or serving loss at the
    /// replica). Requires no ack — it never gates replica-side effects.
    Flush {
        /// View epoch at the replica when the flush was issued.
        epoch: u64,
    },
}

/// One replica daemon's operator-facing gauges, as served by the stats RPC
/// ([`Request::Stats`]): the live membership view plus per-lane operation
/// counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsPayload {
    /// Epoch of the currently installed membership view.
    pub epoch: u64,
    /// Reconfigured views installed since the daemon started.
    pub view_changes: u64,
    /// Members of the current view.
    pub members: NodeSet,
    /// Shadows of the current view.
    pub shadows: NodeSet,
    /// Whether the replica currently serves client operations.
    pub serving: bool,
    /// Whether shadow bulk catch-up completed (true unless joining).
    pub synced: bool,
    /// Client operations handled per worker lane since start.
    pub lane_ops: Vec<u64>,
    /// Remote client sessions currently open on the daemon's poller plane.
    pub open_sessions: u64,
    /// Open sessions per poller shard (length = poller pool size) — the
    /// gauge that shows the accept path spreading connections.
    pub sessions_per_shard: Vec<u64>,
    /// Replica-to-replica messages delivered directly into each worker
    /// lane's queue by the transport readers (per-lane ingress demux).
    pub lane_ingress: Vec<u64>,
    /// Live client cache subscriptions across all worker lanes.
    pub subscriptions: u64,
    /// Invalidation/flush pushes sent to subscribed sessions since start.
    pub pushes: u64,
    /// Times the accept path paused because open fds neared `ulimit -n`.
    pub accept_stalls: u64,
}

/// Encodes a shutdown request into a fresh buffer.
pub fn encode_shutdown_bytes(seq: u64) -> Bytes {
    header_request_bytes(seq, Key(0), REQ_SHUTDOWN)
}

/// Encodes one whole multi-key transaction request into a fresh buffer.
pub fn encode_txn_bytes(seq: u64, op: &TxnOp) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u64_le(seq);
    out.put_u64_le(0); // Key slot, unused: keeps one request layout.
    out.put_u8(REQ_TXN);
    match op {
        TxnOp::MultiGet(keys) => {
            out.put_u8(TXN_MULTI_GET);
            out.put_u32_le(keys.len() as u32);
            for k in keys {
                out.put_u64_le(k.0);
            }
        }
        TxnOp::MultiPut(puts) => {
            out.put_u8(TXN_MULTI_PUT);
            out.put_u32_le(puts.len() as u32);
            for (k, v) in puts {
                out.put_u64_le(k.0);
                put_value(&mut out, v);
            }
        }
        TxnOp::Transfer {
            debit,
            credit,
            amount,
        } => {
            out.put_u8(TXN_TRANSFER);
            out.put_u64_le(debit.0);
            out.put_u64_le(credit.0);
            out.put_u64_le(*amount);
        }
    }
    out.freeze()
}

/// Encodes a stats query into a fresh buffer.
pub fn encode_stats_request_bytes(seq: u64) -> Bytes {
    header_request_bytes(seq, Key(0), REQ_STATS)
}

/// Encodes a metrics query into a fresh buffer.
pub fn encode_metrics_request_bytes(seq: u64) -> Bytes {
    header_request_bytes(seq, Key(0), REQ_METRICS)
}

/// Encodes one metrics reply (UTF-8 exposition text) into a fresh buffer.
pub fn encode_metrics_reply_bytes(seq: u64, text: &str) -> Bytes {
    let mut out = BytesMut::with_capacity(REPLY_HEADER + 4 + text.len());
    out.put_u64_le(seq);
    out.put_u8(RSP_METRICS);
    out.put_u32_le(text.len() as u32);
    out.put_slice(text.as_bytes());
    out.freeze()
}

/// Decodes one metrics reply back into exposition text.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation, a wrong tag, or
/// non-UTF-8 text.
pub fn decode_metrics_reply(buf: &[u8]) -> Result<(u64, String), ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    let tag = c.u8()?;
    if tag != RSP_METRICS {
        return Err(ClientCodecError::BadTag(tag));
    }
    let len = c.u32()? as usize;
    let text = String::from_utf8(c.take(len)?.to_vec())
        .map_err(|_| ClientCodecError::BadTag(RSP_METRICS))?;
    Ok((seq, text))
}

/// Encodes a trace-drain query into a fresh buffer.
pub fn encode_traces_request_bytes(seq: u64) -> Bytes {
    header_request_bytes(seq, Key(0), REQ_TRACES)
}

fn put_str(out: &mut BytesMut, s: &str) {
    out.put_u32_le(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn take_str(c: &mut Cursor<'_>) -> Result<String, ClientCodecError> {
    let len = c.u32()? as usize;
    String::from_utf8(c.take(len)?.to_vec()).map_err(|_| ClientCodecError::BadTag(RSP_TRACES))
}

/// Encodes one traces reply — the structured span records drained from
/// the daemon's trace rings — into a fresh buffer.
pub fn encode_traces_reply_bytes(seq: u64, spans: &[TraceSpan]) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u64_le(seq);
    out.put_u8(RSP_TRACES);
    out.put_u32_le(spans.len() as u32);
    for s in spans {
        out.put_u64_le(s.trace);
        out.put_u32_le(s.node);
        out.put_u32_le(s.lane);
        out.put_u64_le(s.start_unix_us);
        out.put_u64_le(s.total_us);
        put_str(&mut out, &s.label);
        out.put_u32_le(s.phases.len() as u32);
        for (phase, at) in &s.phases {
            put_str(&mut out, phase);
            out.put_u64_le(*at);
        }
    }
    out.freeze()
}

/// Decodes one traces reply back into span records.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation, a wrong tag, or
/// non-UTF-8 strings.
pub fn decode_traces_reply(buf: &[u8]) -> Result<(u64, Vec<TraceSpan>), ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    let tag = c.u8()?;
    if tag != RSP_TRACES {
        return Err(ClientCodecError::BadTag(tag));
    }
    let n = c.u32()? as usize;
    let mut spans = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let trace = c.u64()?;
        let node = c.u32()?;
        let lane = c.u32()?;
        let start_unix_us = c.u64()?;
        let total_us = c.u64()?;
        let label = take_str(&mut c)?;
        let p = c.u32()? as usize;
        let mut phases = Vec::with_capacity(p.min(1024));
        for _ in 0..p {
            let phase = take_str(&mut c)?;
            let at = c.u64()?;
            phases.push((phase, at));
        }
        spans.push(TraceSpan {
            trace,
            node,
            lane,
            start_unix_us,
            total_us,
            label,
            phases,
        });
    }
    Ok((seq, spans))
}

/// Encodes a subscribe request into a fresh buffer.
pub fn encode_subscribe_bytes(seq: u64, key: Key) -> Bytes {
    header_request_bytes(seq, key, REQ_SUBSCRIBE)
}

/// Encodes an unsubscribe request into a fresh buffer.
pub fn encode_unsubscribe_bytes(seq: u64, key: Key) -> Bytes {
    header_request_bytes(seq, key, REQ_UNSUBSCRIBE)
}

/// Encodes an invalidation ack into a fresh buffer (seq slot zero: acks
/// are fire-and-forget and never answered).
pub fn encode_inval_ack_bytes(key: Key) -> Bytes {
    header_request_bytes(0, key, REQ_INVAL_ACK)
}

fn decode_txn_op(c: &mut Cursor<'_>) -> Result<TxnOp, ClientCodecError> {
    let sub = c.u8()?;
    Ok(match sub {
        TXN_MULTI_GET => {
            let n = c.u32()? as usize;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(Key(c.u64()?));
            }
            TxnOp::MultiGet(keys)
        }
        TXN_MULTI_PUT => {
            let n = c.u32()? as usize;
            let mut puts = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = Key(c.u64()?);
                let v = c.value()?;
                puts.push((k, v));
            }
            TxnOp::MultiPut(puts)
        }
        TXN_TRANSFER => TxnOp::Transfer {
            debit: Key(c.u64()?),
            credit: Key(c.u64()?),
            amount: c.u64()?,
        },
        other => return Err(ClientCodecError::BadTag(other)),
    })
}

/// Decodes one client request, admin requests included.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag.
pub fn decode_any(buf: &[u8]) -> Result<Request, ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    let key = Key(c.u64()?);
    let tag = c.u8()?;
    let cop = match tag {
        REQ_READ => ClientOp::Read,
        REQ_WRITE => ClientOp::Write(c.value()?),
        REQ_CAS => ClientOp::Rmw(RmwOp::CompareAndSwap {
            expect: c.value()?,
            new: c.value()?,
        }),
        REQ_FETCH_ADD => ClientOp::Rmw(RmwOp::FetchAdd { delta: c.u64()? }),
        REQ_TXN => {
            let op = decode_txn_op(&mut c)?;
            return Ok(Request::Txn { seq, op });
        }
        REQ_STATS => return Ok(Request::Stats { seq }),
        REQ_METRICS => return Ok(Request::Metrics { seq }),
        REQ_TRACES => return Ok(Request::Traces { seq }),
        REQ_SHUTDOWN => return Ok(Request::Shutdown { seq }),
        REQ_SUBSCRIBE => return Ok(Request::Subscribe { seq, key }),
        REQ_UNSUBSCRIBE => return Ok(Request::Unsubscribe { seq, key }),
        REQ_INVAL_ACK => return Ok(Request::InvalAck { key }),
        other => return Err(ClientCodecError::BadTag(other)),
    };
    Ok(Request::Op { seq, key, cop })
}

/// Encodes one transaction reply into a fresh buffer.
pub fn encode_txn_reply_bytes(seq: u64, reply: &TxnReply) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u64_le(seq);
    out.put_u8(RSP_TXN);
    match reply {
        TxnReply::Committed { values } => {
            out.put_u8(TXN_COMMITTED);
            out.put_u32_le(values.len() as u32);
            for (k, v) in values {
                out.put_u64_le(k.0);
                put_value(&mut out, v);
            }
        }
        TxnReply::Aborted(abort) => out.put_u8(match abort {
            TxnAbort::Conflict => TXN_ABORT_CONFLICT,
            TxnAbort::InsufficientFunds => TXN_ABORT_FUNDS,
            TxnAbort::Invalid => TXN_ABORT_INVALID,
            TxnAbort::NotOperational => TXN_ABORT_NOT_OPERATIONAL,
            TxnAbort::Overflow => TXN_ABORT_OVERFLOW,
        }),
    }
    out.freeze()
}

/// Decodes one transaction reply.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag.
pub fn decode_txn_reply(buf: &[u8]) -> Result<(u64, TxnReply), ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    if c.u8()? != RSP_TXN {
        return Err(ClientCodecError::BadTag(buf[8]));
    }
    let reply = match c.u8()? {
        TXN_COMMITTED => {
            let n = c.u32()? as usize;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = Key(c.u64()?);
                let v = c.value()?;
                values.push((k, v));
            }
            TxnReply::Committed { values }
        }
        TXN_ABORT_CONFLICT => TxnReply::Aborted(TxnAbort::Conflict),
        TXN_ABORT_FUNDS => TxnReply::Aborted(TxnAbort::InsufficientFunds),
        TXN_ABORT_INVALID => TxnReply::Aborted(TxnAbort::Invalid),
        TXN_ABORT_NOT_OPERATIONAL => TxnReply::Aborted(TxnAbort::NotOperational),
        TXN_ABORT_OVERFLOW => TxnReply::Aborted(TxnAbort::Overflow),
        other => return Err(ClientCodecError::BadTag(other)),
    };
    Ok((seq, reply))
}

/// Encodes one stats reply into a fresh buffer.
pub fn encode_stats_reply_bytes(seq: u64, stats: &StatsPayload) -> Bytes {
    let mut out = BytesMut::new();
    out.put_u64_le(seq);
    out.put_u8(RSP_STATS);
    out.put_u64_le(stats.epoch);
    out.put_u64_le(stats.view_changes);
    out.put_u64_le(stats.members.bits());
    out.put_u64_le(stats.shadows.bits());
    out.put_u8(stats.serving as u8);
    out.put_u8(stats.synced as u8);
    out.put_u32_le(stats.lane_ops.len() as u32);
    for ops in &stats.lane_ops {
        out.put_u64_le(*ops);
    }
    out.put_u64_le(stats.open_sessions);
    out.put_u32_le(stats.sessions_per_shard.len() as u32);
    for n in &stats.sessions_per_shard {
        out.put_u64_le(*n);
    }
    out.put_u32_le(stats.lane_ingress.len() as u32);
    for n in &stats.lane_ingress {
        out.put_u64_le(*n);
    }
    out.put_u64_le(stats.subscriptions);
    out.put_u64_le(stats.pushes);
    out.put_u64_le(stats.accept_stalls);
    out.freeze()
}

/// Decodes one stats reply.
///
/// Forward-compatible: a daemon newer than this client may append fields
/// after `accept_stalls`; any trailing bytes are skipped, so old clients
/// keep reading new daemons. (The reverse direction — a new client
/// reading an old daemon — requires any future field to be decoded
/// optionally with a default, which is why new fields must only ever be
/// *appended* here.)
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag.
pub fn decode_stats_reply(buf: &[u8]) -> Result<(u64, StatsPayload), ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    if c.u8()? != RSP_STATS {
        return Err(ClientCodecError::BadTag(buf[8]));
    }
    let epoch = c.u64()?;
    let view_changes = c.u64()?;
    let members = NodeSet::from_bits(c.u64()?);
    let shadows = NodeSet::from_bits(c.u64()?);
    let serving = c.u8()? != 0;
    let synced = c.u8()? != 0;
    let n = c.u32()? as usize;
    let mut lane_ops = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        lane_ops.push(c.u64()?);
    }
    let open_sessions = c.u64()?;
    let n = c.u32()? as usize;
    let mut sessions_per_shard = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        sessions_per_shard.push(c.u64()?);
    }
    let n = c.u32()? as usize;
    let mut lane_ingress = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        lane_ingress.push(c.u64()?);
    }
    let subscriptions = c.u64()?;
    let pushes = c.u64()?;
    let accept_stalls = c.u64()?;
    Ok((
        seq,
        StatsPayload {
            epoch,
            view_changes,
            members,
            shadows,
            serving,
            synced,
            lane_ops,
            open_sessions,
            sessions_per_shard,
            lane_ingress,
            subscriptions,
            pushes,
            accept_stalls,
        },
    ))
}

/// Encodes one client response (appending to `out`).
pub fn encode_reply(out: &mut BytesMut, seq: u64, reply: &Reply) {
    out.put_u64_le(seq);
    match reply {
        Reply::ReadOk(v) => {
            out.put_u8(RSP_READ_OK);
            put_value(out, v);
        }
        Reply::WriteOk => out.put_u8(RSP_WRITE_OK),
        Reply::RmwOk { prior } => {
            out.put_u8(RSP_RMW_OK);
            put_value(out, prior);
        }
        Reply::CasFailed { current } => {
            out.put_u8(RSP_CAS_FAILED);
            put_value(out, current);
        }
        Reply::RmwAborted => out.put_u8(RSP_RMW_ABORTED),
        Reply::NotOperational => out.put_u8(RSP_NOT_OPERATIONAL),
        Reply::Unsupported => out.put_u8(RSP_UNSUPPORTED),
    }
}

/// Encodes one client response into a fresh buffer of exactly its size.
pub fn encode_reply_bytes(seq: u64, reply: &Reply) -> Bytes {
    let body = match reply {
        Reply::ReadOk(v) | Reply::RmwOk { prior: v } | Reply::CasFailed { current: v } => {
            value_len(v)
        }
        Reply::WriteOk | Reply::RmwAborted | Reply::NotOperational | Reply::Unsupported => 0,
    };
    let mut out = BytesMut::with_capacity(REPLY_HEADER + body);
    encode_reply(&mut out, seq, reply);
    debug_assert_eq!(out.len(), REPLY_HEADER + body);
    out.freeze()
}

/// Decodes one client response.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag.
pub fn decode_reply(buf: &[u8]) -> Result<(u64, Reply), ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    let tag = c.u8()?;
    let reply = match tag {
        RSP_READ_OK => Reply::ReadOk(c.value()?),
        RSP_WRITE_OK => Reply::WriteOk,
        RSP_RMW_OK => Reply::RmwOk { prior: c.value()? },
        RSP_CAS_FAILED => Reply::CasFailed {
            current: c.value()?,
        },
        RSP_RMW_ABORTED => Reply::RmwAborted,
        RSP_NOT_OPERATIONAL => Reply::NotOperational,
        RSP_UNSUPPORTED => Reply::Unsupported,
        other => return Err(ClientCodecError::BadTag(other)),
    };
    Ok((seq, reply))
}

/// Encodes one invalidation push into a fresh buffer.
pub fn encode_invalidate_bytes(key: Key, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(REPLY_HEADER + 16);
    out.put_u64_le(0); // Seq slot, unused: pushes are not replies.
    out.put_u8(RSP_INVALIDATE);
    out.put_u64_le(key.0);
    out.put_u64_le(epoch);
    out.freeze()
}

/// Encodes one subscription acknowledgement into a fresh buffer.
pub fn encode_subscribed_bytes(seq: u64, key: Key, epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(REPLY_HEADER + 16);
    out.put_u64_le(seq);
    out.put_u8(RSP_SUBSCRIBED);
    out.put_u64_le(key.0);
    out.put_u64_le(epoch);
    out.freeze()
}

/// Encodes one unsubscription acknowledgement into a fresh buffer.
pub fn encode_unsubscribed_bytes(seq: u64, key: Key) -> Bytes {
    let mut out = BytesMut::with_capacity(REPLY_HEADER + 8);
    out.put_u64_le(seq);
    out.put_u8(RSP_UNSUBSCRIBED);
    out.put_u64_le(key.0);
    out.freeze()
}

/// Encodes one flush-everything push into a fresh buffer.
pub fn encode_flush_bytes(epoch: u64) -> Bytes {
    let mut out = BytesMut::with_capacity(REPLY_HEADER + 8);
    out.put_u64_le(0); // Seq slot, unused: pushes are not replies.
    out.put_u8(RSP_FLUSH);
    out.put_u64_le(epoch);
    out.freeze()
}

/// Decodes anything the server sends down a session stream: sequenced
/// replies **or** push frames. Subscribing clients must use this instead
/// of [`decode_reply`].
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag.
pub fn decode_server_frame(buf: &[u8]) -> Result<ServerFrame, ClientCodecError> {
    let mut c = Cursor::new(buf);
    let seq = c.u64()?;
    let tag = c.u8()?;
    Ok(match tag {
        RSP_INVALIDATE => ServerFrame::Invalidate {
            key: Key(c.u64()?),
            epoch: c.u64()?,
        },
        RSP_SUBSCRIBED => ServerFrame::Subscribed {
            seq,
            key: Key(c.u64()?),
            epoch: c.u64()?,
        },
        RSP_UNSUBSCRIBED => ServerFrame::Unsubscribed {
            seq,
            key: Key(c.u64()?),
        },
        RSP_FLUSH => ServerFrame::Flush { epoch: c.u64()? },
        _ => {
            let (seq, reply) = decode_reply(buf)?;
            ServerFrame::Reply(seq, reply)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_samples() -> Vec<(u64, Key, ClientOp)> {
        vec![
            (0, Key(1), ClientOp::Read),
            (7, Key(u64::MAX), ClientOp::Write(Value::filled(0xCD, 32))),
            (8, Key(2), ClientOp::Write(Value::EMPTY)),
            (
                9,
                Key(3),
                ClientOp::Rmw(RmwOp::CompareAndSwap {
                    expect: Value::EMPTY,
                    new: Value::from_u64(5),
                }),
            ),
            (
                u64::MAX,
                Key(4),
                ClientOp::Rmw(RmwOp::FetchAdd { delta: 123 }),
            ),
        ]
    }

    fn reply_samples() -> Vec<(u64, Reply)> {
        vec![
            (0, Reply::ReadOk(Value::from_u64(9))),
            (1, Reply::ReadOk(Value::EMPTY)),
            (2, Reply::WriteOk),
            (
                3,
                Reply::RmwOk {
                    prior: Value::filled(1, 64),
                },
            ),
            (
                4,
                Reply::CasFailed {
                    current: Value::from_u64(1),
                },
            ),
            (5, Reply::RmwAborted),
            (6, Reply::NotOperational),
            (7, Reply::Unsupported),
        ]
    }

    #[test]
    fn requests_roundtrip() {
        for (seq, key, cop) in request_samples() {
            let encoded = encode_request_bytes(seq, key, &cop);
            assert_eq!(decode_request(&encoded).unwrap(), (seq, key, cop));
        }
    }

    #[test]
    fn replies_roundtrip() {
        for (seq, reply) in reply_samples() {
            let encoded = encode_reply_bytes(seq, &reply);
            assert_eq!(decode_reply(&encoded).unwrap(), (seq, reply));
        }
    }

    #[test]
    fn truncation_errors_everywhere() {
        for (seq, key, cop) in request_samples() {
            let full = encode_request_bytes(seq, key, &cop);
            for cut in 0..full.len() {
                assert_eq!(
                    decode_request(&full[..cut]),
                    Err(ClientCodecError::Truncated),
                    "request cut at {cut}"
                );
            }
        }
        for (seq, reply) in reply_samples() {
            let full = encode_reply_bytes(seq, &reply);
            for cut in 0..full.len() {
                assert_eq!(
                    decode_reply(&full[..cut]),
                    Err(ClientCodecError::Truncated),
                    "reply cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn bad_tags_error() {
        let mut req = encode_request_bytes(1, Key(1), &ClientOp::Read).to_vec();
        req[16] = 99;
        assert_eq!(decode_request(&req), Err(ClientCodecError::BadTag(99)));
        let mut rsp = encode_reply_bytes(1, &Reply::WriteOk).to_vec();
        rsp[8] = 77;
        assert_eq!(decode_reply(&rsp), Err(ClientCodecError::BadTag(77)));
    }

    #[test]
    fn shutdown_request_roundtrips_and_is_rejected_by_the_op_decoder() {
        let frame = encode_shutdown_bytes(17);
        assert_eq!(decode_any(&frame).unwrap(), Request::Shutdown { seq: 17 });
        // The op-only decoder refuses it (callers not expecting admin
        // requests treat it as a protocol error).
        assert_eq!(
            decode_request(&frame),
            Err(ClientCodecError::BadTag(REQ_SHUTDOWN))
        );
        // Data requests decode identically through both entry points.
        let op = encode_request_bytes(5, Key(9), &ClientOp::Read);
        assert_eq!(
            decode_any(&op).unwrap(),
            Request::Op {
                seq: 5,
                key: Key(9),
                cop: ClientOp::Read
            }
        );
    }

    fn txn_op_samples() -> Vec<TxnOp> {
        vec![
            TxnOp::MultiGet(vec![Key(1), Key(u64::MAX), Key(0)]),
            TxnOp::MultiGet(vec![]),
            TxnOp::MultiPut(vec![
                (Key(3), Value::from_u64(7)),
                (Key(4), Value::EMPTY),
                (Key(5), Value::filled(0xEE, 64)),
            ]),
            TxnOp::Transfer {
                debit: Key(10),
                credit: Key(11),
                amount: u64::MAX,
            },
        ]
    }

    fn txn_reply_samples() -> Vec<TxnReply> {
        vec![
            TxnReply::Committed { values: vec![] },
            TxnReply::Committed {
                values: vec![(Key(1), Value::from_u64(9)), (Key(2), Value::EMPTY)],
            },
            TxnReply::Aborted(TxnAbort::Conflict),
            TxnReply::Aborted(TxnAbort::InsufficientFunds),
            TxnReply::Aborted(TxnAbort::Invalid),
            TxnReply::Aborted(TxnAbort::NotOperational),
            TxnReply::Aborted(TxnAbort::Overflow),
        ]
    }

    #[test]
    fn txn_requests_roundtrip_and_truncate_cleanly() {
        for (seq, op) in txn_op_samples().into_iter().enumerate() {
            let frame = encode_txn_bytes(seq as u64, &op);
            assert_eq!(
                decode_any(&frame).unwrap(),
                Request::Txn {
                    seq: seq as u64,
                    op: op.clone()
                }
            );
            // The single-key decoder refuses whole transactions.
            assert_eq!(
                decode_request(&frame),
                Err(ClientCodecError::BadTag(REQ_TXN))
            );
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_any(&frame[..cut]),
                    Err(ClientCodecError::Truncated),
                    "txn request {op:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn txn_replies_roundtrip_and_truncate_cleanly() {
        for (seq, reply) in txn_reply_samples().into_iter().enumerate() {
            let frame = encode_txn_reply_bytes(seq as u64, &reply);
            assert_eq!(
                decode_txn_reply(&frame).unwrap(),
                (seq as u64, reply.clone())
            );
            // A txn reply is not a single-key reply and vice versa.
            assert!(decode_reply(&frame).is_err());
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_txn_reply(&frame[..cut]),
                    Err(ClientCodecError::Truncated),
                    "txn reply {reply:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn stats_rpc_roundtrips() {
        let frame = encode_stats_request_bytes(3);
        assert_eq!(decode_any(&frame).unwrap(), Request::Stats { seq: 3 });
        assert_eq!(
            decode_request(&frame),
            Err(ClientCodecError::BadTag(REQ_STATS))
        );
        let stats = StatsPayload {
            epoch: 2,
            view_changes: 1,
            members: NodeSet::first_n(2),
            shadows: NodeSet::from_bits(0b100),
            serving: true,
            synced: false,
            lane_ops: vec![10, 0, 7],
            open_sessions: 1234,
            sessions_per_shard: vec![617, 617],
            lane_ingress: vec![42, 0, 99],
            subscriptions: 12,
            pushes: 345,
            accept_stalls: 6,
        };
        let frame = encode_stats_reply_bytes(9, &stats);
        assert_eq!(decode_stats_reply(&frame).unwrap(), (9, stats.clone()));
        assert!(decode_reply(&frame).is_err());
        for cut in 0..frame.len() {
            assert_eq!(
                decode_stats_reply(&frame[..cut]),
                Err(ClientCodecError::Truncated),
                "stats reply cut at {cut}"
            );
        }
    }

    #[test]
    fn stats_reply_skips_unknown_trailing_fields() {
        // A newer daemon appends fields this client doesn't know. The
        // decoder must read what it understands and skip the rest — old
        // clients keep working against new daemons.
        let stats = StatsPayload {
            epoch: 5,
            view_changes: 2,
            members: NodeSet::first_n(3),
            shadows: NodeSet::from_bits(0),
            serving: true,
            synced: true,
            lane_ops: vec![1, 2],
            open_sessions: 3,
            sessions_per_shard: vec![3],
            lane_ingress: vec![4],
            subscriptions: 5,
            pushes: 6,
            accept_stalls: 7,
        };
        let mut extended = encode_stats_reply_bytes(1, &stats).to_vec();
        // Hypothetical future fields: a u64 and a length-prefixed vec.
        extended.extend_from_slice(&99u64.to_le_bytes());
        extended.extend_from_slice(&2u32.to_le_bytes());
        extended.extend_from_slice(&11u64.to_le_bytes());
        extended.extend_from_slice(&22u64.to_le_bytes());
        assert_eq!(decode_stats_reply(&extended).unwrap(), (1, stats.clone()));
        // And the exact frame still round-trips byte-identically: what a
        // new client encodes, an old daemon's payload shape decodes.
        let exact = encode_stats_reply_bytes(1, &stats);
        let (seq, decoded) = decode_stats_reply(&exact).unwrap();
        assert_eq!((seq, &decoded), (1, &stats));
        assert_eq!(encode_stats_reply_bytes(seq, &decoded), exact);
    }

    #[test]
    fn metrics_rpc_roundtrips_and_truncates_cleanly() {
        let frame = encode_metrics_request_bytes(8);
        assert_eq!(decode_any(&frame).unwrap(), Request::Metrics { seq: 8 });
        assert_eq!(
            decode_request(&frame),
            Err(ClientCodecError::BadTag(REQ_METRICS))
        );
        for cut in 0..frame.len() {
            assert_eq!(
                decode_any(&frame[..cut]),
                Err(ClientCodecError::Truncated),
                "metrics request cut at {cut}"
            );
        }

        let text = "# HELP op_us Op latency.\n# TYPE op_us summary\n\
                    op_us{lane=\"0\",quantile=\"0.99\"} 42\nop_us_count{lane=\"0\"} 7\n";
        let reply = encode_metrics_reply_bytes(8, text);
        assert_eq!(decode_metrics_reply(&reply).unwrap(), (8, text.to_string()));
        // Neither the strict reply decoder nor the stats decoder accept it.
        assert!(decode_reply(&reply).is_err());
        assert!(decode_stats_reply(&reply).is_err());
        for cut in 0..reply.len() {
            assert_eq!(
                decode_metrics_reply(&reply[..cut]),
                Err(ClientCodecError::Truncated),
                "metrics reply cut at {cut}"
            );
        }
        // Empty exposition is legal (a daemon with recording off).
        let empty = encode_metrics_reply_bytes(9, "");
        assert_eq!(decode_metrics_reply(&empty).unwrap(), (9, String::new()));
    }

    #[test]
    fn traces_rpc_roundtrips_and_truncates_cleanly() {
        let frame = encode_traces_request_bytes(12);
        assert_eq!(decode_any(&frame).unwrap(), Request::Traces { seq: 12 });
        assert_eq!(
            decode_request(&frame),
            Err(ClientCodecError::BadTag(REQ_TRACES))
        );
        for cut in 0..frame.len() {
            assert_eq!(
                decode_any(&frame[..cut]),
                Err(ClientCodecError::Truncated),
                "traces request cut at {cut}"
            );
        }

        let spans = vec![
            TraceSpan {
                trace: 0xfeed_f00d,
                node: 1,
                lane: 0,
                start_unix_us: 1_700_000_000_000_000,
                total_us: 430,
                label: "n1/lane0 op client=4294967296 seq=9".into(),
                phases: vec![
                    ("issued".into(), 0),
                    ("inval_broadcast".into(), 20),
                    ("reply_released".into(), 430),
                ],
            },
            TraceSpan {
                trace: 0,
                node: 2,
                lane: u32::MAX,
                start_unix_us: 0,
                total_us: 120_000,
                label: "n2/pump view_change epoch=3".into(),
                phases: vec![("view_change_start".into(), 0)],
            },
        ];
        let reply = encode_traces_reply_bytes(12, &spans);
        assert_eq!(decode_traces_reply(&reply).unwrap(), (12, spans.clone()));
        // No other decoder accepts a traces reply.
        assert!(decode_reply(&reply).is_err());
        assert!(decode_stats_reply(&reply).is_err());
        assert!(decode_metrics_reply(&reply).is_err());
        for cut in 0..reply.len() {
            assert_eq!(
                decode_traces_reply(&reply[..cut]),
                Err(ClientCodecError::Truncated),
                "traces reply cut at {cut}"
            );
        }
        // An empty drain is the common steady-state answer.
        let empty = encode_traces_reply_bytes(13, &[]);
        assert_eq!(decode_traces_reply(&empty).unwrap(), (13, vec![]));
    }

    #[test]
    fn subscription_requests_roundtrip_and_are_rejected_by_the_op_decoder() {
        let sub = encode_subscribe_bytes(3, Key(42));
        assert_eq!(
            decode_any(&sub).unwrap(),
            Request::Subscribe {
                seq: 3,
                key: Key(42)
            }
        );
        assert_eq!(
            decode_request(&sub),
            Err(ClientCodecError::BadTag(REQ_SUBSCRIBE))
        );
        let unsub = encode_unsubscribe_bytes(4, Key(u64::MAX));
        assert_eq!(
            decode_any(&unsub).unwrap(),
            Request::Unsubscribe {
                seq: 4,
                key: Key(u64::MAX)
            }
        );
        assert_eq!(
            decode_request(&unsub),
            Err(ClientCodecError::BadTag(REQ_UNSUBSCRIBE))
        );
        let ack = encode_inval_ack_bytes(Key(7));
        assert_eq!(decode_any(&ack).unwrap(), Request::InvalAck { key: Key(7) });
        assert_eq!(
            decode_request(&ack),
            Err(ClientCodecError::BadTag(REQ_INVAL_ACK))
        );
        for frame in [sub, unsub, ack] {
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_any(&frame[..cut]),
                    Err(ClientCodecError::Truncated),
                    "subscription request cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn push_frames_roundtrip_only_through_the_superset_decoder() {
        let samples = vec![
            (
                encode_invalidate_bytes(Key(5), 2),
                ServerFrame::Invalidate {
                    key: Key(5),
                    epoch: 2,
                },
            ),
            (
                encode_subscribed_bytes(9, Key(u64::MAX), 1),
                ServerFrame::Subscribed {
                    seq: 9,
                    key: Key(u64::MAX),
                    epoch: 1,
                },
            ),
            (
                encode_unsubscribed_bytes(10, Key(0)),
                ServerFrame::Unsubscribed {
                    seq: 10,
                    key: Key(0),
                },
            ),
            (encode_flush_bytes(7), ServerFrame::Flush { epoch: 7 }),
        ];
        for (frame, want) in samples {
            assert_eq!(decode_server_frame(&frame).unwrap(), want);
            // The strict reply decoder refuses every push tag: sessions
            // that never subscribed keep their narrow protocol.
            assert!(matches!(
                decode_reply(&frame),
                Err(ClientCodecError::BadTag(_))
            ));
            for cut in 0..frame.len() {
                assert_eq!(
                    decode_server_frame(&frame[..cut]),
                    Err(ClientCodecError::Truncated),
                    "push frame {want:?} cut at {cut}"
                );
            }
        }
        // Ordinary replies pass through the superset decoder unchanged.
        for (seq, reply) in reply_samples() {
            let frame = encode_reply_bytes(seq, &reply);
            assert_eq!(
                decode_server_frame(&frame).unwrap(),
                ServerFrame::Reply(seq, reply)
            );
        }
    }

    // The client port's wire, byte for byte: one sample of every request
    // kind and every server frame kind, as hex with one group per field
    // (integers little-endian). Requests are `seq key tag body`, server
    // frames `seq tag body`, a value or string is `len bytes`.
    const G_READ: &str = "0100000000000000 0200000000000000 00";
    const G_WRITE: &str = "0700000000000000 ffffffffffffffff 01 06000000 6865726d6573";
    const G_WRITE_EMPTY: &str = "0800000000000000 0200000000000000 01 00000000";
    const G_CAS: &str = "0900000000000000 0300000000000000 02 00000000 08000000 0500000000000000";
    const G_FETCH_ADD: &str = "ffffffffffffffff 0400000000000000 03 7b00000000000000";
    const G_SHUTDOWN: &str = "1100000000000000 0000000000000000 04";
    const G_MULTI_GET: &str =
        "0500000000000000 0000000000000000 05 00 02000000 0100000000000000 ffffffffffffffff";
    const G_MULTI_GET_EMPTY: &str = "0500000000000000 0000000000000000 05 00 00000000";
    const G_MULTI_PUT: &str = "0700000000000000 0000000000000000 05 01 02000000 \
         0300000000000000 08000000 0700000000000000 0400000000000000 00000000";
    const G_MULTI_PUT_EMPTY: &str = "0600000000000000 0000000000000000 05 01 00000000";
    const G_TRANSFER: &str = "0800000000000000 0000000000000000 05 02 \
         0a00000000000000 0b00000000000000 ffffffffffffffff";
    const G_STATS_REQ: &str = "0300000000000000 0000000000000000 06";
    const G_SUBSCRIBE: &str = "0300000000000000 2a00000000000000 07";
    const G_UNSUBSCRIBE: &str = "0400000000000000 ffffffffffffffff 08";
    const G_INVAL_ACK: &str = "0000000000000000 0700000000000000 09";
    const G_METRICS_REQ: &str = "0800000000000000 0000000000000000 0a";
    const G_TRACES_REQ: &str = "0c00000000000000 0000000000000000 0b";

    const G_READ_OK: &str = "0000000000000000 00 08000000 0900000000000000";
    const G_READ_OK_EMPTY: &str = "0100000000000000 00 00000000";
    const G_WRITE_OK: &str = "0200000000000000 01";
    const G_RMW_OK: &str = "0300000000000000 02 06000000 6865726d6573";
    const G_CAS_FAILED: &str = "0400000000000000 03 08000000 0100000000000000";
    const G_RMW_ABORTED: &str = "0500000000000000 04";
    const G_NOT_OPERATIONAL: &str = "0600000000000000 05";
    const G_UNSUPPORTED: &str = "ffffffffffffffff 06";
    const G_TXN_COMMITTED: &str = "0100000000000000 07 00 02000000 \
         0100000000000000 08000000 0900000000000000 0200000000000000 00000000";
    const G_TXN_COMMITTED_EMPTY: &str = "0000000000000000 07 00 00000000";
    const G_TXN_CONFLICT: &str = "0200000000000000 07 01";
    const G_TXN_FUNDS: &str = "0300000000000000 07 02";
    const G_TXN_INVALID: &str = "0400000000000000 07 03";
    const G_TXN_NOT_OPERATIONAL: &str = "0500000000000000 07 04";
    const G_TXN_OVERFLOW: &str = "0600000000000000 07 05";
    const G_STATS: &str = "0900000000000000 08 0200000000000000 0100000000000000 \
         0300000000000000 0400000000000000 01 00 02000000 0a00000000000000 0700000000000000 \
         d204000000000000 01000000 6902000000000000 00000000 \
         0c00000000000000 5901000000000000 0600000000000000";
    /// What a newer daemon might append to [`G_STATS`]: a `u64` and a
    /// length-prefixed vector this client has never heard of.
    const G_STATS_UNKNOWN_TAIL: &str =
        "6300000000000000 02000000 0b00000000000000 1600000000000000";
    const G_INVALIDATE: &str = "0000000000000000 09 0500000000000000 0200000000000000";
    const G_SUBSCRIBED: &str = "0900000000000000 0a ffffffffffffffff 0100000000000000";
    const G_UNSUBSCRIBED: &str = "0a00000000000000 0b 0000000000000000";
    const G_FLUSH: &str = "0000000000000000 0c 0700000000000000";
    const G_METRICS: &str = "0800000000000000 0d 09000000 6f705f75732034320a";
    const G_METRICS_EMPTY: &str = "0900000000000000 0d 00000000";
    const G_TRACES: &str = "0c00000000000000 0e 02000000 \
         edfe000000000000 01000000 ffffffff 0500000000000000 ae01000000000000 \
         02000000 6f70 02000000 06000000 697373756564 0000000000000000 \
         04000000 646f6e65 ae01000000000000 \
         0000000000000000 02000000 00000000 0000000000000000 0000000000000000 \
         00000000 00000000";
    const G_TRACES_EMPTY: &str = "0d00000000000000 0e 00000000";

    fn hex(golden: &str) -> Vec<u8> {
        let digits: Vec<u8> = golden
            .bytes()
            .filter(|b| !b.is_ascii_whitespace())
            .collect();
        assert!(digits.len().is_multiple_of(2), "odd hex: {golden}");
        digits
            .chunks(2)
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    fn golden_stats() -> StatsPayload {
        StatsPayload {
            epoch: 2,
            view_changes: 1,
            members: NodeSet::first_n(2),
            shadows: NodeSet::from_bits(0b100),
            serving: true,
            synced: false,
            lane_ops: vec![10, 7],
            open_sessions: 1234,
            sessions_per_shard: vec![617],
            lane_ingress: vec![],
            subscriptions: 12,
            pushes: 345,
            accept_stalls: 6,
        }
    }

    fn golden_spans() -> Vec<TraceSpan> {
        vec![
            TraceSpan {
                trace: 0xfeed,
                node: 1,
                lane: u32::MAX,
                start_unix_us: 5,
                total_us: 430,
                label: "op".into(),
                phases: vec![("issued".into(), 0), ("done".into(), 430)],
            },
            TraceSpan {
                trace: 0,
                node: 2,
                lane: 0,
                start_unix_us: 0,
                total_us: 0,
                label: String::new(),
                phases: vec![],
            },
        ]
    }

    fn golden_requests() -> Vec<(Request, &'static str)> {
        let op = |seq, key, cop| Request::Op {
            seq,
            key: Key(key),
            cop,
        };
        let txn = |seq, op| Request::Txn { seq, op };
        let hermes = Value::from_static(b"hermes");
        let cas = RmwOp::CompareAndSwap {
            expect: Value::EMPTY,
            new: Value::from_u64(5),
        };
        let puts = vec![(Key(3), Value::from_u64(7)), (Key(4), Value::EMPTY)];
        let transfer = TxnOp::Transfer {
            debit: Key(10),
            credit: Key(11),
            amount: u64::MAX,
        };
        vec![
            (op(1, 2, ClientOp::Read), G_READ),
            (op(7, u64::MAX, ClientOp::Write(hermes)), G_WRITE),
            (op(8, 2, ClientOp::Write(Value::EMPTY)), G_WRITE_EMPTY),
            (op(9, 3, ClientOp::Rmw(cas)), G_CAS),
            (
                op(u64::MAX, 4, ClientOp::Rmw(RmwOp::FetchAdd { delta: 123 })),
                G_FETCH_ADD,
            ),
            (Request::Shutdown { seq: 17 }, G_SHUTDOWN),
            (
                txn(5, TxnOp::MultiGet(vec![Key(1), Key(u64::MAX)])),
                G_MULTI_GET,
            ),
            (txn(5, TxnOp::MultiGet(vec![])), G_MULTI_GET_EMPTY),
            (txn(7, TxnOp::MultiPut(puts)), G_MULTI_PUT),
            (txn(6, TxnOp::MultiPut(vec![])), G_MULTI_PUT_EMPTY),
            (txn(8, transfer), G_TRANSFER),
            (Request::Stats { seq: 3 }, G_STATS_REQ),
            (
                Request::Subscribe {
                    seq: 3,
                    key: Key(42),
                },
                G_SUBSCRIBE,
            ),
            (
                Request::Unsubscribe {
                    seq: 4,
                    key: Key(u64::MAX),
                },
                G_UNSUBSCRIBE,
            ),
            (Request::InvalAck { key: Key(7) }, G_INVAL_ACK),
            (Request::Metrics { seq: 8 }, G_METRICS_REQ),
            (Request::Traces { seq: 12 }, G_TRACES_REQ),
        ]
    }

    /// `request` through the encoder its kind has today.
    fn encode_request_sample(request: &Request) -> Bytes {
        match request {
            Request::Op { seq, key, cop } => encode_request_bytes(*seq, *key, cop),
            Request::Txn { seq, op } => encode_txn_bytes(*seq, op),
            Request::Stats { seq } => encode_stats_request_bytes(*seq),
            Request::Metrics { seq } => encode_metrics_request_bytes(*seq),
            Request::Traces { seq } => encode_traces_request_bytes(*seq),
            Request::Shutdown { seq } => encode_shutdown_bytes(*seq),
            Request::Subscribe { seq, key } => encode_subscribe_bytes(*seq, *key),
            Request::Unsubscribe { seq, key } => encode_unsubscribe_bytes(*seq, *key),
            Request::InvalAck { key } => encode_inval_ack_bytes(*key),
        }
    }

    #[test]
    fn golden_request_bytes() {
        for (request, golden) in golden_requests() {
            let wire = hex(golden);
            assert_eq!(
                &encode_request_sample(&request)[..],
                &wire[..],
                "{request:?}"
            );
            assert_eq!(decode_any(&wire), Ok(request));
        }
    }

    #[test]
    fn golden_server_frame_bytes() {
        let replies = vec![
            (0, Reply::ReadOk(Value::from_u64(9)), G_READ_OK),
            (1, Reply::ReadOk(Value::EMPTY), G_READ_OK_EMPTY),
            (2, Reply::WriteOk, G_WRITE_OK),
            (
                3,
                Reply::RmwOk {
                    prior: Value::from_static(b"hermes"),
                },
                G_RMW_OK,
            ),
            (
                4,
                Reply::CasFailed {
                    current: Value::from_u64(1),
                },
                G_CAS_FAILED,
            ),
            (5, Reply::RmwAborted, G_RMW_ABORTED),
            (6, Reply::NotOperational, G_NOT_OPERATIONAL),
            (u64::MAX, Reply::Unsupported, G_UNSUPPORTED),
        ];
        for (seq, reply, golden) in replies {
            let wire = hex(golden);
            assert_eq!(&encode_reply_bytes(seq, &reply)[..], &wire[..], "{reply:?}");
            assert_eq!(
                decode_server_frame(&wire),
                Ok(ServerFrame::Reply(seq, reply))
            );
        }

        let values = vec![(Key(1), Value::from_u64(9)), (Key(2), Value::EMPTY)];
        let txn_replies = vec![
            (1, TxnReply::Committed { values }, G_TXN_COMMITTED),
            (
                0,
                TxnReply::Committed { values: vec![] },
                G_TXN_COMMITTED_EMPTY,
            ),
            (2, TxnReply::Aborted(TxnAbort::Conflict), G_TXN_CONFLICT),
            (
                3,
                TxnReply::Aborted(TxnAbort::InsufficientFunds),
                G_TXN_FUNDS,
            ),
            (4, TxnReply::Aborted(TxnAbort::Invalid), G_TXN_INVALID),
            (
                5,
                TxnReply::Aborted(TxnAbort::NotOperational),
                G_TXN_NOT_OPERATIONAL,
            ),
            (6, TxnReply::Aborted(TxnAbort::Overflow), G_TXN_OVERFLOW),
        ];
        for (seq, reply, golden) in txn_replies {
            let wire = hex(golden);
            assert_eq!(
                &encode_txn_reply_bytes(seq, &reply)[..],
                &wire[..],
                "{reply:?}"
            );
            assert_eq!(decode_txn_reply(&wire), Ok((seq, reply)));
        }

        let wire = hex(G_STATS);
        assert_eq!(&encode_stats_reply_bytes(9, &golden_stats())[..], &wire[..]);
        assert_eq!(decode_stats_reply(&wire), Ok((9, golden_stats())));
        let extended = [wire, hex(G_STATS_UNKNOWN_TAIL)].concat();
        assert_eq!(decode_stats_reply(&extended), Ok((9, golden_stats())));

        for (seq, text, golden) in [(8, "op_us 42\n", G_METRICS), (9, "", G_METRICS_EMPTY)] {
            let wire = hex(golden);
            assert_eq!(&encode_metrics_reply_bytes(seq, text)[..], &wire[..]);
            assert_eq!(decode_metrics_reply(&wire), Ok((seq, text.to_string())));
        }
        for (seq, spans, golden) in [(12, golden_spans(), G_TRACES), (13, vec![], G_TRACES_EMPTY)] {
            let wire = hex(golden);
            assert_eq!(&encode_traces_reply_bytes(seq, &spans)[..], &wire[..]);
            assert_eq!(decode_traces_reply(&wire), Ok((seq, spans)));
        }

        let pushes = vec![
            (
                encode_invalidate_bytes(Key(5), 2),
                ServerFrame::Invalidate {
                    key: Key(5),
                    epoch: 2,
                },
                G_INVALIDATE,
            ),
            (
                encode_subscribed_bytes(9, Key(u64::MAX), 1),
                ServerFrame::Subscribed {
                    seq: 9,
                    key: Key(u64::MAX),
                    epoch: 1,
                },
                G_SUBSCRIBED,
            ),
            (
                encode_unsubscribed_bytes(10, Key(0)),
                ServerFrame::Unsubscribed {
                    seq: 10,
                    key: Key(0),
                },
                G_UNSUBSCRIBED,
            ),
            (
                encode_flush_bytes(7),
                ServerFrame::Flush { epoch: 7 },
                G_FLUSH,
            ),
        ];
        for (encoded, frame, golden) in pushes {
            let wire = hex(golden);
            assert_eq!(&encoded[..], &wire[..], "{frame:?}");
            assert_eq!(decode_server_frame(&wire), Ok(frame));
        }
    }

    #[test]
    fn declared_value_length_is_bounded_by_buffer() {
        let mut req =
            encode_request_bytes(1, Key(1), &ClientOp::Write(Value::from_u64(1))).to_vec();
        // Inflate the declared value length past the buffer end.
        req[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_request(&req), Err(ClientCodecError::Truncated));
    }
}
