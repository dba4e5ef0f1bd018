//! Wire format for the client-facing RPC port of a replica daemon.
//!
//! The paper's clients talk to HermesKV over the network like any KVS
//! clients (§2.1, §5.2); this module is the whole vocabulary of that
//! conversation for the reproduction's `hermesd` daemon: a [`Request`]
//! going up, a [`ServerFrame`] coming down. A request carries the
//! session-local sequence number, the key and what is asked; a reply
//! carries the sequence number back. Sessions pipeline by keeping many
//! sequence numbers outstanding per connection; replies return out of
//! order (inter-key concurrency), which is why every reply echoes its
//! request's sequence number.
//!
//! Each message is one frame — a `u32` length prefix and a payload, the
//! framing replica-to-replica traffic uses too (DESIGN.md §4) — written by
//! [`put_frame`] around [`Request::encode`] / [`ServerFrame::encode`] and
//! taken apart by [`split_frame`] and the two `decode`s. All integers
//! little-endian.

use bytes::{BufMut, Bytes, BytesMut};
use hermes_common::{ClientOp, Key, Reply, RmwOp, Value};
use hermes_obs::TraceSpan;

const REQ_READ: u8 = 0;
const REQ_WRITE: u8 = 1;
const REQ_CAS: u8 = 2;
const REQ_FETCH_ADD: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
// 5 was the retired transaction request and 6 the retired stats
// request: never reuse them.
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
// 7 was the retired transaction reply and 8 the retired stats reply:
// never reuse them.
/// Server-initiated push frames (invalidation stream) and subscription
/// acknowledgements. Pushes carry no meaningful sequence number (the seq
/// slot is zero).
const RSP_INVALIDATE: u8 = 9;
const RSP_SUBSCRIBED: u8 = 10;
const RSP_UNSUBSCRIBED: u8 = 11;
const RSP_FLUSH: u8 = 12;
const RSP_METRICS: u8 = 13;
const RSP_TRACES: u8 = 14;

/// Errors produced when decoding a malformed client request or response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientCodecError {
    /// The buffer ended before the declared layout was complete.
    Truncated,
    /// Unknown request/response tag byte.
    BadTag(u8),
    /// A frame's length prefix declares more than the receiver accepts.
    Oversized(usize),
}

impl std::fmt::Display for ClientCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientCodecError::Truncated => write!(f, "client message truncated"),
            ClientCodecError::BadTag(t) => write!(f, "unknown client message tag {t}"),
            ClientCodecError::Oversized(len) => write!(f, "client frame of {len} bytes"),
        }
    }
}

impl std::error::Error for ClientCodecError {}

/// Appends one frame to `out`: the length prefix, then whatever `encode`
/// appends, which is the frame's payload.
pub fn put_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u32_le(0);
    encode(out);
    let len = u32::try_from(out.len() - at - 4).expect("a frame is under 4 GiB");
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// The payload of the frame `buf` starts with, once all of it is there
/// (`None` until then). Consumes nothing: the frame is `4 + payload.len()`
/// bytes, for the caller to skip when it is done with the payload.
///
/// # Errors
///
/// [`ClientCodecError::Oversized`] as soon as the length prefix declares
/// more than `max` bytes, before any of them is waited for.
pub fn split_frame(buf: &[u8], max: usize) -> Result<Option<&[u8]>, ClientCodecError> {
    let Some((prefix, rest)) = buf.split_first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > max {
        return Err(ClientCodecError::Oversized(len));
    }
    Ok(rest.get(..len))
}

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

    /// A string; `tag` names the reply it belongs to if it is not UTF-8.
    fn string(&mut self, tag: u8) -> Result<String, ClientCodecError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| ClientCodecError::BadTag(tag))
    }

    /// `count` items, each read by `item`. The count came off the wire:
    /// what is reserved ahead of reading is capped, so a declared length
    /// larger than the buffer fails on the missing bytes, not on memory.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ClientCodecError>,
    ) -> Result<Vec<T>, ClientCodecError> {
        let count = self.u32()? as usize;
        let mut items = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            items.push(item(self)?);
        }
        Ok(items)
    }
}

fn put_bytes(out: &mut impl BufMut, bytes: &[u8]) {
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(bytes);
}

fn put_value(out: &mut impl BufMut, v: &Value) {
    put_bytes(out, v.as_bytes());
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

/// The header every request starts with. Requests about no key pass
/// `Key(0)`: the slot goes unused, which keeps one request layout.
fn put_request_header(out: &mut impl BufMut, seq: u64, key: Key, tag: u8) {
    out.put_u64_le(seq);
    out.put_u64_le(key.0);
    out.put_u8(tag);
}

/// The header every server frame starts with. Pushes pass sequence number
/// zero: they are not replies.
fn put_reply_header(out: &mut impl BufMut, seq: u64, tag: u8) {
    out.put_u64_le(seq);
    out.put_u8(tag);
}

fn put_op(out: &mut impl BufMut, seq: u64, key: Key, cop: &ClientOp) {
    match cop {
        ClientOp::Read => put_request_header(out, seq, key, REQ_READ),
        ClientOp::Write(v) => {
            put_request_header(out, seq, key, REQ_WRITE);
            put_value(out, v);
        }
        ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => {
            put_request_header(out, seq, key, REQ_CAS);
            put_value(out, expect);
            put_value(out, new);
        }
        ClientOp::Rmw(RmwOp::FetchAdd { delta }) => {
            put_request_header(out, seq, key, REQ_FETCH_ADD);
            out.put_u64_le(*delta);
        }
    }
}

fn put_reply(out: &mut impl BufMut, seq: u64, reply: &Reply) {
    let (tag, value) = match reply {
        Reply::ReadOk(v) => (RSP_READ_OK, Some(v)),
        Reply::WriteOk => (RSP_WRITE_OK, None),
        Reply::RmwOk { prior } => (RSP_RMW_OK, Some(prior)),
        Reply::CasFailed { current } => (RSP_CAS_FAILED, Some(current)),
        Reply::RmwAborted => (RSP_RMW_ABORTED, None),
        Reply::NotOperational => (RSP_NOT_OPERATIONAL, None),
        Reply::Unsupported => (RSP_UNSUPPORTED, None),
    };
    put_reply_header(out, seq, tag);
    if let Some(v) = value {
        put_value(out, v);
    }
}

/// Everything a client-port connection can ask of a replica daemon: a data
/// operation, cache-subscription traffic, an operator query, or the
/// administrative shutdown of the whole daemon. There is no transaction
/// request: a transaction is a sequence of data operations its client's
/// session coordinates (`hermes_txn`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A key-value operation (the common case), answered with one
    /// [`ServerFrame::Reply`].
    Op {
        /// Session-local sequence number echoed by the response.
        seq: u64,
        /// Target key.
        key: Key,
        /// The operation.
        cop: ClientOp,
    },
    /// Ask for the daemon's full metrics registry as Prometheus text
    /// exposition, answered with one [`ServerFrame::Metrics`]: per-lane
    /// latency histograms, protocol-phase counters, plane/cache gauges,
    /// the membership view and serving state — everything a replica
    /// reports about itself.
    Metrics {
        /// Session-local sequence number echoed by the reply.
        seq: u64,
    },
    /// Drain the daemon's captured trace spans (slow ops and sampled
    /// cross-node traces), answered with one [`ServerFrame::Traces`]. Each
    /// scrape consumes what it returns, so a polling aggregator sees every
    /// span exactly once.
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
    /// replied to (and its seq slot on the wire is zero): the ack releases
    /// the replica-side effect hold that keeps the superseding write
    /// invisible until every subscribed cache has dropped its entry (the
    /// client-side leg of Hermes' invalidation round).
    InvalAck {
        /// Key whose invalidation push is being confirmed.
        key: Key,
    },
}

impl Request {
    /// Appends this request's payload to `out`.
    pub fn encode(&self, out: &mut impl BufMut) {
        let no_key = Key(0);
        match self {
            Request::Op { seq, key, cop } => put_op(out, *seq, *key, cop),
            Request::Metrics { seq } => put_request_header(out, *seq, no_key, REQ_METRICS),
            Request::Traces { seq } => put_request_header(out, *seq, no_key, REQ_TRACES),
            Request::Shutdown { seq } => put_request_header(out, *seq, no_key, REQ_SHUTDOWN),
            Request::Subscribe { seq, key } => put_request_header(out, *seq, *key, REQ_SUBSCRIBE),
            Request::Unsubscribe { seq, key } => {
                put_request_header(out, *seq, *key, REQ_UNSUBSCRIBE);
            }
            Request::InvalAck { key } => put_request_header(out, 0, *key, REQ_INVAL_ACK),
        }
    }

    /// Decodes one request payload.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientCodecError`] on truncation or an unknown tag.
    pub fn decode(buf: &[u8]) -> Result<Request, ClientCodecError> {
        let mut c = Cursor::new(buf);
        let seq = c.u64()?;
        let key = Key(c.u64()?);
        let cop = match c.u8()? {
            REQ_READ => ClientOp::Read,
            REQ_WRITE => ClientOp::Write(c.value()?),
            REQ_CAS => ClientOp::Rmw(RmwOp::CompareAndSwap {
                expect: c.value()?,
                new: c.value()?,
            }),
            REQ_FETCH_ADD => ClientOp::Rmw(RmwOp::FetchAdd { delta: c.u64()? }),
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
}

/// Everything a replica daemon can send down a client connection: the
/// reply to a request, or one of the server-initiated push frames of the
/// invalidation stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerFrame {
    /// The sequenced reply to a [`Request::Op`] (and the acknowledgement
    /// of a [`Request::Shutdown`]).
    Reply(u64, Reply),
    /// The answer to a [`Request::Metrics`]: UTF-8 exposition text.
    Metrics(u64, String),
    /// The answer to a [`Request::Traces`]: the span records drained from
    /// the daemon's trace rings.
    Traces(u64, Vec<TraceSpan>),
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

// One of these crosses a queue per completed operation, in process and at
// the poller alike: the rare reply kinds must not widen it.
const _: () = assert!(std::mem::size_of::<ServerFrame>() <= 40);

impl ServerFrame {
    /// Appends this frame's payload to `out`.
    pub fn encode(&self, out: &mut impl BufMut) {
        match self {
            ServerFrame::Reply(seq, reply) => put_reply(out, *seq, reply),
            ServerFrame::Metrics(seq, text) => {
                put_reply_header(out, *seq, RSP_METRICS);
                put_bytes(out, text.as_bytes());
            }
            ServerFrame::Traces(seq, spans) => {
                put_reply_header(out, *seq, RSP_TRACES);
                out.put_u32_le(spans.len() as u32);
                for s in spans {
                    out.put_u64_le(s.trace);
                    out.put_u32_le(s.node);
                    out.put_u32_le(s.lane);
                    out.put_u64_le(s.start_unix_us);
                    out.put_u64_le(s.total_us);
                    put_bytes(out, s.label.as_bytes());
                    out.put_u32_le(s.phases.len() as u32);
                    for (phase, at) in &s.phases {
                        put_bytes(out, phase.as_bytes());
                        out.put_u64_le(*at);
                    }
                }
            }
            ServerFrame::Invalidate { key, epoch } => {
                put_reply_header(out, 0, RSP_INVALIDATE);
                out.put_u64_le(key.0);
                out.put_u64_le(*epoch);
            }
            ServerFrame::Subscribed { seq, key, epoch } => {
                put_reply_header(out, *seq, RSP_SUBSCRIBED);
                out.put_u64_le(key.0);
                out.put_u64_le(*epoch);
            }
            ServerFrame::Unsubscribed { seq, key } => {
                put_reply_header(out, *seq, RSP_UNSUBSCRIBED);
                out.put_u64_le(key.0);
            }
            ServerFrame::Flush { epoch } => {
                put_reply_header(out, 0, RSP_FLUSH);
                out.put_u64_le(*epoch);
            }
        }
    }

    /// Decodes one server frame payload.
    ///
    /// # Errors
    ///
    /// Returns a [`ClientCodecError`] on truncation, an unknown tag, or
    /// text that is not UTF-8.
    pub fn decode(buf: &[u8]) -> Result<ServerFrame, ClientCodecError> {
        let mut c = Cursor::new(buf);
        let seq = c.u64()?;
        let reply = match c.u8()? {
            RSP_READ_OK => Reply::ReadOk(c.value()?),
            RSP_WRITE_OK => Reply::WriteOk,
            RSP_RMW_OK => Reply::RmwOk { prior: c.value()? },
            RSP_CAS_FAILED => Reply::CasFailed {
                current: c.value()?,
            },
            RSP_RMW_ABORTED => Reply::RmwAborted,
            RSP_NOT_OPERATIONAL => Reply::NotOperational,
            RSP_UNSUPPORTED => Reply::Unsupported,
            RSP_METRICS => return Ok(ServerFrame::Metrics(seq, c.string(RSP_METRICS)?)),
            RSP_TRACES => {
                let spans = c.list(|c| {
                    Ok(TraceSpan {
                        trace: c.u64()?,
                        node: c.u32()?,
                        lane: c.u32()?,
                        start_unix_us: c.u64()?,
                        total_us: c.u64()?,
                        label: c.string(RSP_TRACES)?,
                        phases: c.list(|c| Ok((c.string(RSP_TRACES)?, c.u64()?)))?,
                    })
                })?;
                return Ok(ServerFrame::Traces(seq, spans));
            }
            RSP_INVALIDATE => {
                return Ok(ServerFrame::Invalidate {
                    key: Key(c.u64()?),
                    epoch: c.u64()?,
                })
            }
            RSP_SUBSCRIBED => {
                return Ok(ServerFrame::Subscribed {
                    seq,
                    key: Key(c.u64()?),
                    epoch: c.u64()?,
                })
            }
            RSP_UNSUBSCRIBED => {
                return Ok(ServerFrame::Unsubscribed {
                    seq,
                    key: Key(c.u64()?),
                })
            }
            RSP_FLUSH => return Ok(ServerFrame::Flush { epoch: c.u64()? }),
            other => return Err(ClientCodecError::BadTag(other)),
        };
        Ok(ServerFrame::Reply(seq, reply))
    }
}

/// [`Request::Op`]'s payload in a fresh buffer of exactly its size, from
/// the operation by reference.
pub fn encode_request_bytes(seq: u64, key: Key, cop: &ClientOp) -> Bytes {
    let body = match cop {
        ClientOp::Read => 0,
        ClientOp::Write(v) => value_len(v),
        ClientOp::Rmw(RmwOp::CompareAndSwap { expect, new }) => value_len(expect) + value_len(new),
        ClientOp::Rmw(RmwOp::FetchAdd { .. }) => 8,
    };
    let mut out = BytesMut::with_capacity(REQUEST_HEADER + body);
    put_op(&mut out, seq, key, cop);
    debug_assert_eq!(out.len(), REQUEST_HEADER + body);
    out.freeze()
}

/// [`Request::decode`] for a connection that carries data operations only.
///
/// # Errors
///
/// Returns a [`ClientCodecError`] on truncation or an unknown tag — and
/// every other request's tag is unknown here.
pub fn decode_request(buf: &[u8]) -> Result<(u64, Key, ClientOp), ClientCodecError> {
    match Request::decode(buf)? {
        Request::Op { seq, key, cop } => Ok((seq, key, cop)),
        _ => Err(ClientCodecError::BadTag(buf[REQUEST_HEADER - 1])),
    }
}

/// [`ServerFrame::Reply`]'s payload in a fresh buffer of exactly its size,
/// from the reply by reference.
pub fn encode_reply_bytes(seq: u64, reply: &Reply) -> Bytes {
    let body = match reply {
        Reply::ReadOk(v) | Reply::RmwOk { prior: v } | Reply::CasFailed { current: v } => {
            value_len(v)
        }
        Reply::WriteOk | Reply::RmwAborted | Reply::NotOperational | Reply::Unsupported => 0,
    };
    let mut out = BytesMut::with_capacity(REPLY_HEADER + body);
    put_reply(&mut out, seq, reply);
    debug_assert_eq!(out.len(), REPLY_HEADER + body);
    out.freeze()
}

/// [`ServerFrame::decode`] under the name it had as a free function.
///
/// # Errors
///
/// As [`ServerFrame::decode`].
pub fn decode_server_frame(buf: &[u8]) -> Result<ServerFrame, ClientCodecError> {
    ServerFrame::decode(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// One sample of every request kind, each with its golden bytes.
    fn request_samples() -> Vec<(Request, &'static str)> {
        let op = |seq, key, cop| Request::Op {
            seq,
            key: Key(key),
            cop,
        };
        let hermes = Value::from_static(b"hermes");
        let cas = RmwOp::CompareAndSwap {
            expect: Value::EMPTY,
            new: Value::from_u64(5),
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

    /// One sample of every server frame kind, each with its golden bytes.
    fn server_frame_samples() -> Vec<(ServerFrame, &'static str)> {
        let hermes = Value::from_static(b"hermes");
        let one = Value::from_u64(1);
        vec![
            (
                ServerFrame::Reply(0, Reply::ReadOk(Value::from_u64(9))),
                G_READ_OK,
            ),
            (
                ServerFrame::Reply(1, Reply::ReadOk(Value::EMPTY)),
                G_READ_OK_EMPTY,
            ),
            (ServerFrame::Reply(2, Reply::WriteOk), G_WRITE_OK),
            (
                ServerFrame::Reply(3, Reply::RmwOk { prior: hermes }),
                G_RMW_OK,
            ),
            (
                ServerFrame::Reply(4, Reply::CasFailed { current: one }),
                G_CAS_FAILED,
            ),
            (ServerFrame::Reply(5, Reply::RmwAborted), G_RMW_ABORTED),
            (
                ServerFrame::Reply(6, Reply::NotOperational),
                G_NOT_OPERATIONAL,
            ),
            (
                ServerFrame::Reply(u64::MAX, Reply::Unsupported),
                G_UNSUPPORTED,
            ),
            (ServerFrame::Metrics(8, "op_us 42\n".into()), G_METRICS),
            (ServerFrame::Metrics(9, String::new()), G_METRICS_EMPTY),
            (ServerFrame::Traces(12, golden_spans()), G_TRACES),
            (ServerFrame::Traces(13, vec![]), G_TRACES_EMPTY),
            (
                ServerFrame::Invalidate {
                    key: Key(5),
                    epoch: 2,
                },
                G_INVALIDATE,
            ),
            (
                ServerFrame::Subscribed {
                    seq: 9,
                    key: Key(u64::MAX),
                    epoch: 1,
                },
                G_SUBSCRIBED,
            ),
            (
                ServerFrame::Unsubscribed {
                    seq: 10,
                    key: Key(0),
                },
                G_UNSUBSCRIBED,
            ),
            (ServerFrame::Flush { epoch: 7 }, G_FLUSH),
        ]
    }

    /// The rows of both tables that `requests` / `frames` pick (at least
    /// one) against everything a row promises: it encodes to its golden
    /// bytes, they decode back to it, and every strict prefix of them is
    /// `Truncated`. A request also meets the op-only decoder, which takes
    /// a data operation and refuses every other kind by its tag.
    fn check_rows(requests: impl Fn(&Request) -> bool, frames: impl Fn(&ServerFrame) -> bool) {
        let mut rows = 0;
        for (request, golden) in request_samples() {
            if !requests(&request) {
                continue;
            }
            rows += 1;
            let (wire, mut encoded) = (hex(golden), Vec::new());
            request.encode(&mut encoded);
            assert_eq!(encoded, wire, "{request:?}");
            assert_eq!(Request::decode(&wire), Ok(request.clone()));
            for cut in 0..wire.len() {
                let got = Request::decode(&wire[..cut]);
                assert_eq!(
                    got,
                    Err(ClientCodecError::Truncated),
                    "{request:?} at {cut}"
                );
            }
            let op_only = match request {
                Request::Op { seq, key, cop } => Ok((seq, key, cop)),
                _ => Err(ClientCodecError::BadTag(wire[REQUEST_HEADER - 1])),
            };
            assert_eq!(decode_request(&wire), op_only);
        }
        for (frame, golden) in server_frame_samples() {
            if !frames(&frame) {
                continue;
            }
            rows += 1;
            let (wire, mut encoded) = (hex(golden), Vec::new());
            frame.encode(&mut encoded);
            assert_eq!(encoded, wire, "{frame:?}");
            assert_eq!(ServerFrame::decode(&wire), Ok(frame.clone()));
            for cut in 0..wire.len() {
                let got = ServerFrame::decode(&wire[..cut]);
                assert_eq!(got, Err(ClientCodecError::Truncated), "{frame:?} at {cut}");
            }
        }
        assert!(rows > 0, "no sample of that kind");
    }

    #[test]
    fn golden_request_bytes() {
        check_rows(|_| true, |_| false);
    }

    #[test]
    fn golden_server_frame_bytes() {
        check_rows(|_| false, |_| true);
    }

    // One test per exchange, so that a failure names it.

    /// Data operations, also through the two by-reference encoders the
    /// benchmark probe calls: same bytes, in a buffer of exactly their size.
    #[test]
    fn requests_roundtrip() {
        check_rows(|r| matches!(r, Request::Op { .. }), |_| false);
        for (request, golden) in request_samples() {
            if let Request::Op { seq, key, cop } = request {
                assert_eq!(&encode_request_bytes(seq, key, &cop)[..], &hex(golden)[..]);
            }
        }
    }

    #[test]
    fn replies_roundtrip() {
        check_rows(|_| false, |f| matches!(f, ServerFrame::Reply(..)));
        for (frame, golden) in server_frame_samples() {
            if let ServerFrame::Reply(seq, reply) = &frame {
                assert_eq!(&encode_reply_bytes(*seq, reply)[..], &hex(golden)[..]);
                assert_eq!(decode_server_frame(&hex(golden)), Ok(frame));
            }
        }
    }

    #[test]
    fn shutdown_request_roundtrips_and_is_rejected_by_the_op_decoder() {
        check_rows(|r| matches!(r, Request::Shutdown { .. }), |_| false);
        let got = decode_request(&hex(G_SHUTDOWN));
        assert_eq!(got, Err(ClientCodecError::BadTag(REQ_SHUTDOWN)));
    }

    #[test]
    fn metrics_rpc_roundtrips_and_truncates_cleanly() {
        check_rows(
            |r| matches!(r, Request::Metrics { .. }),
            |f| matches!(f, ServerFrame::Metrics(..)),
        );
        // Text that is not UTF-8 is refused, under the reply's own tag.
        let mut garbled = hex(G_METRICS);
        *garbled.last_mut().unwrap() = 0xFF;
        let got = ServerFrame::decode(&garbled);
        assert_eq!(got, Err(ClientCodecError::BadTag(RSP_METRICS)));
    }

    #[test]
    fn traces_rpc_roundtrips_and_truncates_cleanly() {
        check_rows(
            |r| matches!(r, Request::Traces { .. }),
            |f| matches!(f, ServerFrame::Traces(..)),
        );
    }

    /// The invalidation stream, both directions.
    #[test]
    fn subscription_requests_roundtrip_and_are_rejected_by_the_op_decoder() {
        let up = |r: &Request| {
            matches!(
                r,
                Request::Subscribe { .. } | Request::Unsubscribe { .. } | Request::InvalAck { .. }
            )
        };
        let down = |f: &ServerFrame| {
            !matches!(
                f,
                ServerFrame::Reply(..) | ServerFrame::Metrics(..) | ServerFrame::Traces(..)
            )
        };
        check_rows(up, down);
    }

    /// Every kind at once: a row added to either table is checked whether
    /// or not a test above picks it.
    #[test]
    fn truncation_errors_everywhere() {
        check_rows(|_| true, |_| true);
    }

    /// Every byte value in the tag position of every sample: it decodes or
    /// it errors, it never panics, and past the known tags — or at a
    /// retired one — the error names the byte.
    #[test]
    fn bad_tags_error() {
        // The transaction and stats requests and their replies, retired.
        let (retired_requests, retired_replies) = ([5, 6], [7, 8]);
        for tag in 0..=u8::MAX {
            for (_, golden) in request_samples() {
                let mut wire = hex(golden);
                wire[REQUEST_HEADER - 1] = tag;
                let got = Request::decode(&wire);
                if tag > REQ_TRACES || retired_requests.contains(&tag) {
                    assert_eq!(got, Err(ClientCodecError::BadTag(tag)));
                }
            }
            for (_, golden) in server_frame_samples() {
                let mut wire = hex(golden);
                wire[REPLY_HEADER - 1] = tag;
                let got = ServerFrame::decode(&wire);
                if tag > RSP_TRACES || retired_replies.contains(&tag) {
                    assert_eq!(got, Err(ClientCodecError::BadTag(tag)));
                }
            }
        }
    }

    /// A length or count that came off the wire larger than the buffer
    /// fails on the missing bytes; it is never allocated first.
    #[test]
    fn declared_value_length_is_bounded_by_buffer() {
        // (sample, offset of a `u32` length or count in it)
        let requests = [(G_WRITE, REQUEST_HEADER), (G_CAS, REQUEST_HEADER + 4)];
        for (golden, at) in requests {
            let mut wire = hex(golden);
            wire[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let got = Request::decode(&wire);
            assert_eq!(got, Err(ClientCodecError::Truncated), "{golden} at {at}");
        }
        let frames = [
            (G_READ_OK, REPLY_HEADER),
            (G_METRICS, REPLY_HEADER),
            (G_TRACES, REPLY_HEADER),
            (G_TRACES, REPLY_HEADER + 4 + 32),
            (G_TRACES, REPLY_HEADER + 4 + 32 + 4 + 2),
        ];
        for (golden, at) in frames {
            let mut wire = hex(golden);
            wire[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let got = ServerFrame::decode(&wire);
            assert_eq!(got, Err(ClientCodecError::Truncated), "{golden} at {at}");
        }
    }

    #[test]
    fn frames_are_put_and_split_by_one_prefix() {
        let mut wire = vec![0xAA];
        put_frame(&mut wire, |out| out.extend_from_slice(b"hermes"));
        put_frame(&mut wire, |_| {});
        assert_eq!(wire, [&[0xAA, 6, 0, 0, 0][..], b"hermes", &[0; 4]].concat());
        let stream = &wire[1..];
        for cut in 0..4 + 6 {
            assert_eq!(split_frame(&stream[..cut], 6), Ok(None), "cut at {cut}");
        }
        assert_eq!(split_frame(stream, 6), Ok(Some(&b"hermes"[..])));
        assert_eq!(split_frame(&stream[4 + 6..], 6), Ok(Some(&[][..])));
        // Refused on the prefix alone, before a byte of payload is there.
        let got = split_frame(&stream[..4], 5);
        assert_eq!(got, Err(ClientCodecError::Oversized(6)));
    }
}
