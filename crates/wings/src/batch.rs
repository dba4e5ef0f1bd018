use bytes::{BufMut, Bytes, BytesMut};
use hermes_common::NodeId;
use std::collections::HashMap;

/// Error decoding a batched frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Frame ended before the declared message count was read.
    Truncated,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "batched frame truncated"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Counters describing batching effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Messages accepted by [`Batcher::push`].
    pub messages: u64,
    /// Frames emitted.
    pub frames: u64,
    /// Total payload bytes batched (excluding frame headers).
    pub payload_bytes: u64,
}

/// Opportunistic per-receiver message batching (paper §4.2).
///
/// Messages destined for the same receiver accumulate in a per-peer buffer.
/// A buffer is emitted either when it reaches the size/count limits
/// ([`Batcher::push`] returns the full frame) or when the caller finishes a
/// poll cycle and flushes whatever is ready ([`Batcher::flush_all`]) — the
/// batcher never *waits* to fill a batch, which is what "opportunistic"
/// means in the paper.
///
/// Frame layout: `u16` message count, then per message a `u32` length prefix
/// and the payload.
#[derive(Debug)]
pub struct Batcher {
    max_frame_bytes: usize,
    max_msgs: usize,
    buffers: HashMap<NodeId, (BytesMut, usize)>,
    stats: BatchStats,
}

impl Batcher {
    /// Creates a batcher emitting frames of at most `max_frame_bytes` of
    /// payload or `max_msgs` messages, whichever is hit first.
    ///
    /// # Panics
    ///
    /// Panics if `max_msgs` is 0 or exceeds `u16::MAX`.
    pub fn new(max_frame_bytes: usize, max_msgs: usize) -> Self {
        assert!(max_msgs > 0 && max_msgs <= u16::MAX as usize);
        Batcher {
            max_frame_bytes,
            max_msgs,
            buffers: HashMap::new(),
            stats: BatchStats::default(),
        }
    }

    /// Queues `payload` for `to`; returns a completed frame if the peer's
    /// buffer reached a limit.
    pub fn push(&mut self, to: NodeId, payload: &[u8]) -> Option<(NodeId, Bytes)> {
        self.stats.messages += 1;
        self.stats.payload_bytes += payload.len() as u64;
        let (buf, count) = self
            .buffers
            .entry(to)
            .or_insert_with(|| (BytesMut::new(), 0));
        if *count == 0 {
            buf.put_u16_le(0); // count patched at flush
        }
        buf.put_u32_le(payload.len() as u32);
        buf.put_slice(payload);
        *count += 1;
        if *count >= self.max_msgs || buf.len() >= self.max_frame_bytes {
            self.stats.frames += 1;
            return Some((to, Self::seal(buf, count)));
        }
        None
    }

    fn seal(buf: &mut BytesMut, count: &mut usize) -> Bytes {
        let mut frame = std::mem::take(buf);
        let n = *count as u16;
        // Data frames always carry ≥ 1 message: a zero count is the escape
        // reserved for control frames (see [`crate::control`]).
        debug_assert!(n >= 1, "data frames never seal empty");
        frame[0..2].copy_from_slice(&n.to_le_bytes());
        *count = 0;
        frame.freeze()
    }

    /// Emits every non-empty per-peer buffer (end of a poll cycle).
    pub fn flush_all(&mut self) -> Vec<(NodeId, Bytes)> {
        let mut out: Vec<(NodeId, Bytes)> = Vec::new();
        self.flush_into(|to, frame| out.push((to, frame)));
        // Deterministic emission order.
        out.sort_by_key(|(to, _)| *to);
        out
    }

    /// Emits every non-empty per-peer buffer into `emit` without allocating
    /// an output vector (the worker-loop hot path of the threaded runtime).
    ///
    /// Per-peer FIFO order is preserved; the order *across* peers is
    /// unspecified — use [`Batcher::flush_all`] where determinism matters.
    pub fn flush_into(&mut self, mut emit: impl FnMut(NodeId, Bytes)) {
        for (&to, (buf, count)) in self.buffers.iter_mut() {
            if *count > 0 {
                self.stats.frames += 1;
                emit(to, Self::seal(buf, count));
            }
        }
    }

    /// Batching counters (messages, frames, payload bytes).
    pub fn stats(&self) -> BatchStats {
        self.stats
    }

    /// Number of messages currently buffered (not yet framed).
    pub fn pending(&self) -> usize {
        self.buffers.values().map(|(_, c)| *c).sum()
    }
}

/// Splits a frame produced by [`Batcher`] back into its message payloads.
///
/// # Errors
///
/// Returns [`FrameError::Truncated`] if the frame is malformed.
pub fn decode_frame(frame: &[u8]) -> Result<Vec<Bytes>, FrameError> {
    if frame.len() < 2 {
        return Err(FrameError::Truncated);
    }
    let count = u16::from_le_bytes(frame[..2].try_into().expect("sized")) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = 2usize;
    for _ in 0..count {
        if frame.len() < at + 4 {
            return Err(FrameError::Truncated);
        }
        let len = u32::from_le_bytes(frame[at..at + 4].try_into().expect("sized")) as usize;
        at += 4;
        if frame.len() < at + len {
            return Err(FrameError::Truncated);
        }
        out.push(Bytes::copy_from_slice(&frame[at..at + len]));
        at += len;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_message_roundtrip() {
        let mut b = Batcher::new(1500, 16);
        assert!(b.push(NodeId(1), b"hello").is_none());
        let frames = b.flush_all();
        assert_eq!(frames.len(), 1);
        let msgs = decode_frame(&frames[0].1).unwrap();
        assert_eq!(msgs, vec![Bytes::from_static(b"hello")]);
    }

    #[test]
    fn batches_group_by_receiver_and_preserve_order() {
        let mut b = Batcher::new(1500, 16);
        b.push(NodeId(1), b"a1");
        b.push(NodeId(2), b"b1");
        b.push(NodeId(1), b"a2");
        let frames = b.flush_all();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0, NodeId(1));
        let msgs = decode_frame(&frames[0].1).unwrap();
        assert_eq!(
            msgs,
            vec![Bytes::from_static(b"a1"), Bytes::from_static(b"a2")]
        );
        let msgs = decode_frame(&frames[1].1).unwrap();
        assert_eq!(msgs, vec![Bytes::from_static(b"b1")]);
    }

    #[test]
    fn flush_into_emits_same_frames_as_flush_all() {
        let mut b = Batcher::new(1500, 16);
        b.push(NodeId(2), b"to-2");
        b.push(NodeId(0), b"to-0");
        b.push(NodeId(2), b"to-2-again");
        let mut frames = Vec::new();
        b.flush_into(|to, frame| frames.push((to, frame)));
        frames.sort_by_key(|(to, _)| *to);
        assert_eq!(frames.len(), 2);
        assert_eq!(
            decode_frame(&frames[1].1).unwrap(),
            vec![
                Bytes::from_static(b"to-2"),
                Bytes::from_static(b"to-2-again")
            ]
        );
        assert_eq!(b.stats().frames, 2);
        assert_eq!(b.pending(), 0);
        // A second flush emits nothing.
        b.flush_into(|_, _| panic!("no frames expected"));
    }

    #[test]
    fn count_limit_emits_early() {
        let mut b = Batcher::new(usize::MAX, 3);
        assert!(b.push(NodeId(1), b"x").is_none());
        assert!(b.push(NodeId(1), b"y").is_none());
        let (to, frame) = b.push(NodeId(1), b"z").expect("limit reached");
        assert_eq!(to, NodeId(1));
        assert_eq!(decode_frame(&frame).unwrap().len(), 3);
        assert_eq!(b.pending(), 0);
        assert!(b.flush_all().is_empty());
    }

    #[test]
    fn byte_limit_emits_early() {
        let mut b = Batcher::new(64, 1000);
        let payload = vec![7u8; 40];
        assert!(b.push(NodeId(1), &payload).is_none());
        assert!(b.push(NodeId(1), &payload).is_some(), "64B limit crossed");
    }

    #[test]
    fn never_stalls_no_partial_batches_left_behind() {
        // "Opportunistic": a flush cycle always drains everything.
        let mut b = Batcher::new(1500, 16);
        for i in 0..5u32 {
            b.push(NodeId(i % 2), &i.to_le_bytes());
        }
        assert_eq!(b.pending(), 5);
        let frames = b.flush_all();
        let total: usize = frames
            .iter()
            .map(|(_, f)| decode_frame(f).unwrap().len())
            .sum();
        assert_eq!(total, 5);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn conservation_no_loss_or_duplication_through_batching() {
        let mut b = Batcher::new(256, 7);
        let mut sent: Vec<Vec<u8>> = Vec::new();
        let mut received: Vec<Vec<u8>> = Vec::new();
        for i in 0..1000u32 {
            let payload = i.to_le_bytes().to_vec();
            sent.push(payload.clone());
            if let Some((_, frame)) = b.push(NodeId(3), &payload) {
                for m in decode_frame(&frame).unwrap() {
                    received.push(m.to_vec());
                }
            }
        }
        for (_, frame) in b.flush_all() {
            for m in decode_frame(&frame).unwrap() {
                received.push(m.to_vec());
            }
        }
        assert_eq!(sent, received);
    }

    #[test]
    fn empty_payloads_are_preserved() {
        let mut b = Batcher::new(1500, 16);
        b.push(NodeId(0), b"");
        b.push(NodeId(0), b"x");
        let frames = b.flush_all();
        let msgs = decode_frame(&frames[0].1).unwrap();
        assert_eq!(msgs.len(), 2);
        assert!(msgs[0].is_empty());
    }

    #[test]
    fn stats_track_amortization() {
        let mut b = Batcher::new(1500, 100);
        for _ in 0..10 {
            b.push(NodeId(1), b"0123456789");
        }
        b.flush_all();
        let s = b.stats();
        assert_eq!(s.messages, 10);
        assert_eq!(s.frames, 1);
        assert_eq!(s.payload_bytes, 100);
    }

    #[test]
    fn malformed_frames_error() {
        assert_eq!(decode_frame(&[]), Err(FrameError::Truncated));
        assert_eq!(decode_frame(&[2, 0]), Err(FrameError::Truncated));
        assert_eq!(
            decode_frame(&[1, 0, 5, 0, 0, 0, 1]),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    #[should_panic]
    fn zero_max_msgs_rejected() {
        Batcher::new(100, 0);
    }
}
