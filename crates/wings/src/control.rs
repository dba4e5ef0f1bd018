//! Control-plane frames: the second Wings frame kind.
//!
//! Every frame a [`Batcher`](crate::Batcher) emits starts with a `u16`
//! message count that is always ≥ 1 — so a frame whose count field is
//! **zero** can never be data. Control frames claim that escape: they open
//! with a zero `u16`, then one tag byte, then the variant's body. This
//! keeps the two kinds distinguishable on the existing transports without
//! re-framing data traffic or spending a prefix byte on the hot path.
//!
//! The control plane carries everything that is *about* the replica group
//! rather than about keys:
//!
//! * [`ControlMsg::Membership`] — an opaque reliable-membership payload
//!   (heartbeats, Paxos view agreement, join requests; encoded by
//!   `hermes_membership::wire`, opaque here so the messaging layer stays
//!   independent of the membership crate);
//! * [`ControlMsg::SyncRequest`] / [`ControlMsg::SyncBatch`] /
//!   [`ControlMsg::SyncMark`] — shadow-replica bulk catch-up (paper §3.4,
//!   *Recovery*): a joining shadow asks a member for its dataset, each of
//!   the member's worker lanes streams its committed per-key state in
//!   size-capped [`SyncBatch`] frames ([`SYNC_BATCH_BUDGET`]) and finishes
//!   with a mark naming the lane; the shadow knows it is caught up when
//!   every lane of the member has marked.
//!
//! [`SyncBatch`]: ControlMsg::SyncBatch

use bytes::{BufMut, Bytes, BytesMut};
use hermes_common::{Key, Value};
use hermes_core::{Ts, UpdateKind};

const TAG_MEMBERSHIP: u8 = 0;
const TAG_SYNC_REQUEST: u8 = 1;
// 2 was the retired one-key sync chunk: never reuse it.
const TAG_SYNC_MARK: u8 = 3;
const TAG_SYNC_BATCH: u8 = 4;

/// Soft size cap on one [`ControlMsg::SyncBatch`] frame's entry payload: a
/// streaming lane flushes its current batch before appending an entry that
/// would push the encoded entries past this budget. One oversized value
/// still ships alone (a batch always carries at least one entry), so the
/// cap bounds framing overhead without capping value sizes.
pub const SYNC_BATCH_BUDGET: usize = 32 * 1024;

/// One control-plane message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControlMsg {
    /// An opaque reliable-membership payload (`hermes_membership::wire`).
    Membership(Bytes),
    /// A shadow asks the receiver to stream its committed dataset back.
    SyncRequest,
    /// End of one worker lane's sync stream: `lane` of `lanes` total on
    /// the syncing member. The shadow is caught up when all lanes marked.
    SyncMark {
        /// Lane index that finished streaming.
        lane: u32,
        /// Total lanes on the member serving the sync.
        lanes: u32,
    },
    /// Several keys' committed states batched into one catch-up frame
    /// (size-capped by [`SYNC_BATCH_BUDGET`]), amortizing the control-frame
    /// and transport framing overhead across entries. Each entry is applied
    /// via `HermesNode::install_chunk` (newer-timestamp-wins, so entries
    /// interleave safely with live writes the shadow is already ACKing).
    SyncBatch {
        /// The batched per-key states, in stream order.
        entries: Vec<SyncEntry>,
    },
}

/// One key's committed state inside a [`ControlMsg::SyncBatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyncEntry {
    /// The key.
    pub key: Key,
    /// Its committed logical timestamp.
    pub ts: Ts,
    /// Kind of the last update (kept for faithful replays).
    pub kind: UpdateKind,
    /// Its committed value.
    pub value: Value,
}

impl SyncEntry {
    /// Encoded size of this entry on the wire (the unit the
    /// [`SYNC_BATCH_BUDGET`] cap meters).
    pub fn wire_size(&self) -> usize {
        ENTRY_HEADER + self.value.len()
    }
}

/// Fixed part of one sync entry: key, ts.version, ts.cid, kind, value len.
const ENTRY_HEADER: usize = 8 + 8 + 4 + 1 + 4;

/// Errors produced when decoding a malformed control frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlError {
    /// The frame ended before the declared layout was complete.
    Truncated,
    /// Unknown control tag byte.
    BadTag(u8),
}

impl std::fmt::Display for ControlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlError::Truncated => write!(f, "control frame truncated"),
            ControlError::BadTag(t) => write!(f, "unknown control tag {t}"),
        }
    }
}

impl std::error::Error for ControlError {}

/// Whether `frame` is a control frame (zero message count) rather than a
/// data frame from a [`Batcher`](crate::Batcher).
pub fn is_control(frame: &[u8]) -> bool {
    frame.len() >= 2 && frame[0] == 0 && frame[1] == 0
}

/// Encodes `msg` as a complete control frame (including the escape).
pub fn encode(msg: &ControlMsg) -> Bytes {
    let mut out = BytesMut::with_capacity(64);
    out.put_u16_le(0); // The count=0 escape: never a data frame.
    match msg {
        ControlMsg::Membership(payload) => {
            out.put_u8(TAG_MEMBERSHIP);
            out.put_slice(payload);
        }
        ControlMsg::SyncRequest => out.put_u8(TAG_SYNC_REQUEST),
        ControlMsg::SyncMark { lane, lanes } => {
            out.put_u8(TAG_SYNC_MARK);
            out.put_u32_le(*lane);
            out.put_u32_le(*lanes);
        }
        ControlMsg::SyncBatch { entries } => {
            out.put_u8(TAG_SYNC_BATCH);
            out.put_u32_le(entries.len() as u32);
            for e in entries {
                put_entry(&mut out, e);
            }
        }
    }
    out.freeze()
}

/// Appends one sync entry's wire layout.
fn put_entry(out: &mut BytesMut, e: &SyncEntry) {
    out.put_u64_le(e.key.0);
    out.put_u64_le(e.ts.version);
    out.put_u32_le(e.ts.cid);
    out.put_u8(match e.kind {
        UpdateKind::Write => 0,
        UpdateKind::Rmw => 1,
    });
    out.put_u32_le(e.value.len() as u32);
    out.put_slice(e.value.as_bytes());
}

/// Decodes one sync entry starting at `buf[0]`; returns the entry and the
/// bytes consumed.
fn take_entry(buf: &[u8]) -> Result<(SyncEntry, usize), ControlError> {
    if buf.len() < ENTRY_HEADER {
        return Err(ControlError::Truncated);
    }
    let key = Key(u64::from_le_bytes(buf[0..8].try_into().expect("sized")));
    let ts = Ts::new(
        u64::from_le_bytes(buf[8..16].try_into().expect("sized")),
        u32::from_le_bytes(buf[16..20].try_into().expect("sized")),
    );
    let kind = match buf[20] {
        0 => UpdateKind::Write,
        1 => UpdateKind::Rmw,
        other => return Err(ControlError::BadTag(other)),
    };
    let vlen = u32::from_le_bytes(buf[21..25].try_into().expect("sized")) as usize;
    if buf.len() < ENTRY_HEADER + vlen {
        return Err(ControlError::Truncated);
    }
    let value = Value::from(buf[ENTRY_HEADER..ENTRY_HEADER + vlen].to_vec());
    Ok((
        SyncEntry {
            key,
            ts,
            kind,
            value,
        },
        ENTRY_HEADER + vlen,
    ))
}

/// Decodes a control frame previously produced by [`encode`].
///
/// Returns `None` if `frame` is not a control frame (callers then treat it
/// as a data frame and hand it to [`decode_frame`](crate::decode_frame)).
///
/// # Errors
///
/// Returns a [`ControlError`] for a frame that *is* control-marked but
/// malformed.
pub fn decode(frame: &[u8]) -> Option<Result<ControlMsg, ControlError>> {
    if !is_control(frame) {
        return None;
    }
    Some(decode_body(&frame[2..]))
}

fn decode_body(buf: &[u8]) -> Result<ControlMsg, ControlError> {
    let (&tag, rest) = buf.split_first().ok_or(ControlError::Truncated)?;
    match tag {
        TAG_MEMBERSHIP => Ok(ControlMsg::Membership(Bytes::copy_from_slice(rest))),
        TAG_SYNC_REQUEST => Ok(ControlMsg::SyncRequest),
        TAG_SYNC_MARK => {
            if rest.len() < 8 {
                return Err(ControlError::Truncated);
            }
            Ok(ControlMsg::SyncMark {
                lane: u32::from_le_bytes(rest[0..4].try_into().expect("sized")),
                lanes: u32::from_le_bytes(rest[4..8].try_into().expect("sized")),
            })
        }
        TAG_SYNC_BATCH => {
            if rest.len() < 4 {
                return Err(ControlError::Truncated);
            }
            let n = u32::from_le_bytes(rest[0..4].try_into().expect("sized")) as usize;
            let mut at = 4;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let (e, used) = take_entry(&rest[at..])?;
                at += used;
                entries.push(e);
            }
            if at != rest.len() {
                return Err(ControlError::Truncated); // Trailing garbage.
            }
            Ok(ControlMsg::SyncBatch { entries })
        }
        other => Err(ControlError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Batcher;
    use hermes_common::NodeId;

    fn samples() -> Vec<ControlMsg> {
        vec![
            ControlMsg::Membership(Bytes::from_static(b"rm-payload")),
            ControlMsg::Membership(Bytes::new()),
            ControlMsg::SyncRequest,
            ControlMsg::SyncBatch {
                entries: vec![SyncEntry {
                    key: Key(42),
                    ts: Ts::new(7, 3),
                    kind: UpdateKind::Write,
                    value: Value::filled(0xEE, 24),
                }],
            },
            ControlMsg::SyncMark { lane: 3, lanes: 4 },
            ControlMsg::SyncBatch { entries: vec![] },
            ControlMsg::SyncBatch {
                entries: vec![
                    SyncEntry {
                        key: Key(1),
                        ts: Ts::new(2, 0),
                        kind: UpdateKind::Write,
                        value: Value::from_u64(77),
                    },
                    SyncEntry {
                        key: Key(u64::MAX),
                        ts: Ts::new(u64::MAX, u32::MAX),
                        kind: UpdateKind::Rmw,
                        value: Value::EMPTY,
                    },
                    SyncEntry {
                        key: Key(9),
                        ts: Ts::new(1, 1),
                        kind: UpdateKind::Write,
                        value: Value::filled(0xAB, 300),
                    },
                ],
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in samples() {
            let frame = encode(&msg);
            assert!(is_control(&frame));
            assert_eq!(decode(&frame).unwrap().unwrap(), msg, "msg {msg:?}");
        }
    }

    #[test]
    fn data_frames_are_never_mistaken_for_control() {
        let mut b = Batcher::new(1400, 32);
        b.push(NodeId(1), b"some-protocol-message");
        let frames = b.flush_all();
        assert!(!is_control(&frames[0].1));
        assert!(decode(&frames[0].1).is_none());
    }

    #[test]
    fn malformed_control_frames_error() {
        // Control-marked but empty body.
        assert_eq!(decode(&[0, 0]).unwrap(), Err(ControlError::Truncated));
        // Unknown tags, and the retired one-key sync chunk's.
        for tag in [2, 99] {
            assert_eq!(
                decode(&[0, 0, tag]).unwrap(),
                Err(ControlError::BadTag(tag))
            );
        }
        // A one-entry batch cut anywhere.
        let full = encode(&ControlMsg::SyncBatch {
            entries: vec![SyncEntry {
                key: Key(1),
                ts: Ts::new(1, 1),
                kind: UpdateKind::Write,
                value: Value::from_u64(9),
            }],
        });
        for cut in 3..full.len() {
            assert!(
                decode(&full[..cut]).unwrap().is_err(),
                "batch cut at {cut} must error"
            );
        }
        // A declared value length past the buffer end.
        let mut inflated = full.to_vec();
        let at = full.len() - 8 - 4; // vlen field precedes the 8-byte value
        inflated[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&inflated).unwrap(), Err(ControlError::Truncated));
    }

    #[test]
    fn sync_batches_truncate_cleanly_at_every_cut() {
        let full = encode(&ControlMsg::SyncBatch {
            entries: vec![
                SyncEntry {
                    key: Key(1),
                    ts: Ts::new(5, 2),
                    kind: UpdateKind::Write,
                    value: Value::from_u64(1),
                },
                SyncEntry {
                    key: Key(2),
                    ts: Ts::new(6, 0),
                    kind: UpdateKind::Rmw,
                    value: Value::filled(0x7F, 40),
                },
            ],
        });
        for cut in 3..full.len() {
            assert!(
                decode(&full[..cut]).unwrap().is_err(),
                "batch cut at {cut} must error"
            );
        }
        // A declared entry count past the payload errors rather than looping.
        let mut inflated = full.to_vec();
        inflated[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&inflated).unwrap(), Err(ControlError::Truncated));
    }

    #[test]
    fn batch_entries_meter_the_size_budget() {
        let small = SyncEntry {
            key: Key(1),
            ts: Ts::new(1, 0),
            kind: UpdateKind::Write,
            value: Value::from_u64(1),
        };
        let encoded = encode(&ControlMsg::SyncBatch {
            entries: vec![small.clone(), small.clone()],
        });
        // frame = escape(2) + tag(1) + count(4) + entries.
        assert_eq!(encoded.len(), 2 + 1 + 4 + 2 * small.wire_size());
        assert!(small.wire_size() < SYNC_BATCH_BUDGET);
        // One oversized value exceeds any budget alone — producers must
        // still ship it (the cap bounds batching, not value size).
        let big = SyncEntry {
            key: Key(2),
            ts: Ts::new(1, 0),
            kind: UpdateKind::Write,
            value: Value::filled(1, SYNC_BATCH_BUDGET + 1),
        };
        assert!(big.wire_size() > SYNC_BATCH_BUDGET);
        let frame = encode(&ControlMsg::SyncBatch {
            entries: vec![big.clone()],
        });
        match decode(&frame).unwrap().unwrap() {
            ControlMsg::SyncBatch { entries } => assert_eq!(entries, vec![big]),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
