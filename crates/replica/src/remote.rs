//! Remote client sessions: a [`ClientSession`] over a real TCP connection
//! to a `hermesd` replica daemon's client port.
//!
//! [`RemoteChannel`] implements [`SessionChannel`], so the whole pipelined
//! session machinery (tickets, out-of-order completion, credit-based
//! backpressure) works unchanged across processes. The socket is
//! non-blocking and registered with the channel's own [`Poller`]; requests
//! are encoded straight behind their length prefix in one reused buffer,
//! and one function — [`pump`] — turns what the socket has received into
//! [`ServerFrame`]s. Which thread runs it follows from what the session has
//! done, not from an option:
//!
//! * **Never subscribed:** the thread that waits is the thread that reads.
//!   `try_recv` pumps, `recv_timeout` blocks in [`Poller::wait`] and then
//!   pumps. The channel owns no thread, and a reply costs its reader no
//!   hand-off.
//! * **Subscribed:** a lane evicts a subscriber that has not acked a pushed
//!   `Invalidate` within 75 ms (DESIGN.md §8), and a session's owner may be
//!   elsewhere for longer than that — so the channel's first `subscribe`
//!   spawns a reader thread that takes over the read half, undecoded bytes
//!   included, and runs the same pump into a queue the session drains.
//!
//! In both, whoever decodes an `Invalidate` queues it for the session
//! before writing its ack.
//!
//! [`ClientSession`]: crate::ClientSession

use crate::node::MAX_CLIENT_FRAME;
use crate::session::{ClientSession, SessionChannel};
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use hermes_common::{ClientId, ClientOp, Key};
use hermes_net::{Interest, PollEvent, Poller};
use hermes_wings::client::{self as rpc, ServerFrame};
use hermes_wings::CreditConfig;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Least room a read is offered; the receive buffer doubles until the
/// frame in progress fits.
const READ_CHUNK: usize = 16 * 1024;

/// Client ids handed to remote sessions are process-local; they only name
/// tickets and history entries at the client side (the daemon assigns its
/// own per-connection id for protocol-level uniqueness).
static NEXT_REMOTE_CLIENT: AtomicU64 = AtomicU64::new(0);

/// One client-port connection: a non-blocking socket, the poller its reader
/// waits on, and a framed half for each direction.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    /// Reports `stream` readable or hung up.
    readable: Poller,
    /// Locked by whoever reads the connection. That is one thread at a
    /// time, so nobody ever waits for it.
    reader: Mutex<ReadHalf>,
    /// The reused frame buffer. Its lock spans a whole frame, so a session's
    /// requests and its reader thread's acks never interleave.
    writer: Mutex<BytesMut>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let readable = Poller::new()?;
        readable.register(stream.as_raw_fd(), 0, Interest::READ)?;
        Ok(Conn {
            stream,
            readable,
            reader: Mutex::default(),
            writer: Mutex::default(),
        })
    }

    /// Writes one frame, whose payload `encode` appends behind the length
    /// prefix. A socket that stops taking bytes mid-frame is waited on and
    /// the same frame finished; an error leaves the stream unusable.
    pub(crate) fn send(&self, encode: impl FnOnce(&mut BytesMut)) -> io::Result<()> {
        let mut frame = self.writer.lock().expect("no writer panics mid-frame");
        frame.clear();
        frame.put_u32_le(0);
        encode(&mut frame);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match (&self.stream).write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Rare (megabytes in flight), so a throwaway poller: a
                    // hang-up ends the wait too, and the next write fails.
                    let writable = Poller::new()?;
                    writable.register(self.stream.as_raw_fd(), 0, Interest::WRITE)?;
                    writable.wait(&mut Vec::new(), None)?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the socket once — after blocking up to `wait` for it to be
    /// readable or hung up, when given one — and hands `on_frame` the
    /// payload of every frame that completes. Nothing to read is `Ok`; end
    /// of stream, like every other `Err`, means the connection is finished.
    pub(crate) fn read_frames(
        &self,
        wait: Option<Duration>,
        on_frame: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let mut half = self.reader.lock().expect("no reader panics mid-frame");
        if wait.is_some() {
            half.polled.clear();
            self.readable.wait(&mut half.polled, wait)?;
        }
        match (&self.stream).read(half.spare()) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "peer hung up")),
            Ok(n) => half.advance(n, on_frame),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Received bytes not yet decoded: the socket reads into the spare tail,
/// complete frames come off the front.
#[derive(Debug, Default)]
struct ReadHalf {
    buf: Vec<u8>,
    /// `buf[..filled]` is received data: between calls, at most one
    /// incomplete frame.
    filled: usize,
    /// Reused by the blocking wait.
    polled: Vec<PollEvent>,
}

impl ReadHalf {
    /// Room for the next read.
    fn spare(&mut self) -> &mut [u8] {
        let least = self.filled + READ_CHUNK;
        if self.buf.len() < least {
            self.buf.resize(least.next_power_of_two(), 0);
        }
        &mut self.buf[self.filled..]
    }

    /// `n` more bytes arrived in [`ReadHalf::spare`]: hands the payload of
    /// every complete frame to `on_frame`, in order. An oversized length
    /// prefix is an error, as is whatever `on_frame` makes of a payload.
    fn advance(
        &mut self,
        n: usize,
        mut on_frame: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        self.filled += n;
        let mut at = 0;
        while let Some(prefix) = self.buf[at..self.filled].first_chunk::<4>() {
            let len = u32::from_le_bytes(*prefix) as usize;
            if len > MAX_CLIENT_FRAME {
                return Err(ErrorKind::InvalidData.into());
            }
            let Some(payload) = self.buf[at + 4..self.filled].get(..len) else {
                break;
            };
            on_frame(payload)?;
            at += 4 + len;
        }
        if at > 0 {
            self.buf.copy_within(at..self.filled, 0);
            self.filled -= at;
        }
        Ok(())
    }
}

fn decode(payload: &[u8]) -> io::Result<ServerFrame> {
    rpc::decode_server_frame(payload).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))
}

/// The pump, on whichever thread reads `conn`: one read (see
/// [`Conn::read_frames`] for `wait`), every complete frame decoded and
/// handed to `sink`, and the ack of an `Invalidate` written only after
/// `sink` has the frame — once the ack lets the replica release what it
/// held, the invalidation is already ahead of those replies in the
/// session's queue (DESIGN.md §8). `Err`: the connection is finished.
fn pump(conn: &Conn, wait: Option<Duration>, mut sink: impl FnMut(ServerFrame)) -> io::Result<()> {
    conn.read_frames(wait, |payload| {
        let frame = decode(payload)?;
        let ack = match frame {
            ServerFrame::Invalidate { key, .. } => Some(key),
            _ => None,
        };
        sink(frame);
        ack.map_or(Ok(()), |key| {
            conn.send(|out| out.put_slice(&rpc::encode_inval_ack_bytes(key)))
        })
    })
}

/// A TCP connection to one replica daemon's client port.
#[derive(Debug)]
pub struct RemoteChannel {
    client: ClientId,
    conn: Arc<Conn>,
    /// Frames the session's own pump decoded and the session has not taken
    /// yet; they precede everything in the reader thread's queue.
    ready: VecDeque<ServerFrame>,
    /// Once the session has subscribed: the thread that reads the socket
    /// from then on, and the queue it fills. The thread ends with the
    /// connection, which the session reads off the queue hanging up.
    reader: Option<(Receiver<ServerFrame>, JoinHandle<()>)>,
    alive: bool,
}

impl RemoteChannel {
    /// Connects to a daemon's client port.
    ///
    /// # Errors
    ///
    /// Fails if the connection cannot be established or configured.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Ok(RemoteChannel {
            client: ClientId(NEXT_REMOTE_CLIENT.fetch_add(1, Ordering::Relaxed)),
            conn: Arc::new(Conn::new(TcpStream::connect(addr)?)?),
            ready: VecDeque::new(),
            reader: None,
            alive: true,
        })
    }

    /// [`RemoteChannel::connect`] with retries until `deadline_in` elapses
    /// — covers the window where a just-spawned daemon has not bound its
    /// client port yet.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the deadline passes.
    pub fn connect_within(addr: SocketAddr, deadline_in: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + deadline_in;
        loop {
            match Self::connect(addr) {
                Ok(chan) => return Ok(chan),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Opens a pipelined session over this channel with the default credit
    /// budget.
    pub fn into_session(self) -> ClientSession<RemoteChannel> {
        ClientSession::new(self, CreditConfig::default())
    }

    /// A handle that can kill this connection from another thread — the
    /// client-side counterpart of the transport's `kill_connection` fault
    /// hook, used by tests to chop a session mid-transaction and prove
    /// recovery ([`ClientSession::resume_txn`](crate::ClientSession)).
    pub fn kill_switch(&self) -> io::Result<KillSwitch> {
        Ok(KillSwitch {
            stream: self.conn.stream.try_clone()?,
        })
    }

    fn send(&mut self, encode: impl FnOnce(&mut BytesMut)) -> bool {
        self.alive = self.alive && self.conn.send(encode).is_ok();
        self.alive
    }

    /// The next frame, blocking up to `wait` for it when given one. A dead
    /// channel hands over what it had decoded and then nothing, at once.
    fn recv(&mut self, wait: Option<Duration>) -> Option<ServerFrame> {
        if let Some(frame) = self.ready.pop_front() {
            return Some(frame);
        }
        if !self.alive {
            return None;
        }
        let Some((queue, _)) = &self.reader else {
            self.alive = pump(&self.conn, wait, |frame| self.ready.push_back(frame)).is_ok();
            return self.ready.pop_front();
        };
        let got = queue.recv_timeout(wait.unwrap_or_default());
        self.alive = got != Err(RecvTimeoutError::Disconnected);
        got.ok()
    }
}

/// Kills a [`RemoteChannel`]'s TCP connection on demand (fault injection).
#[derive(Debug)]
pub struct KillSwitch {
    stream: TcpStream,
}

impl KillSwitch {
    /// Shuts the connection down abruptly: in-flight requests die, the
    /// session's subsequent submissions fail, and completions drain as
    /// [`Reply::NotOperational`](hermes_common::Reply::NotOperational).
    pub fn kill(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl SessionChannel for RemoteChannel {
    fn client_id(&self) -> ClientId {
        self.client
    }

    fn submit(&mut self, seq: u64, key: Key, cop: ClientOp) -> bool {
        self.send(|out| rpc::encode_request(out, seq, key, &cop))
    }

    fn try_recv(&mut self) -> Option<ServerFrame> {
        self.recv(None)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<ServerFrame> {
        self.recv(Some(timeout))
    }

    fn subscribe(&mut self, seq: u64, key: Key) -> bool {
        // The reader thread first: from the first push on, acks must not
        // wait for this session's owner to come back. It takes over the
        // read half as it stands; frames in `ready` stay ahead of its queue.
        if self.reader.is_none() {
            let (conn, (tx, rx)) = (Arc::clone(&self.conn), unbounded());
            let forever = Some(Duration::MAX);
            let run = move || while pump(&conn, forever, |frame| drop(tx.send(frame))).is_ok() {};
            self.reader = Some((rx, std::thread::spawn(run)));
        }
        self.send(|out| out.put_slice(&rpc::encode_subscribe_bytes(seq, key)))
    }

    fn unsubscribe(&mut self, seq: u64, key: Key) -> bool {
        self.send(|out| out.put_slice(&rpc::encode_unsubscribe_bytes(seq, key)))
    }

    fn is_alive(&self) -> bool {
        self.alive
    }
}

impl Drop for RemoteChannel {
    fn drop(&mut self) {
        // Wakes the reader thread out of its wait with a hang-up.
        let _ = self.conn.stream.shutdown(Shutdown::Both);
        if let Some((_, thread)) = self.reader.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{Reply, Value};
    use std::net::TcpListener;

    fn on_the_wire(frame: &ServerFrame) -> Vec<u8> {
        let payload = match *frame {
            ServerFrame::Reply(seq, ref reply) => rpc::encode_reply_bytes(seq, reply),
            ServerFrame::Invalidate { key, epoch } => rpc::encode_invalidate_bytes(key, epoch),
            ServerFrame::Subscribed { seq, key, epoch } => {
                rpc::encode_subscribed_bytes(seq, key, epoch)
            }
            ServerFrame::Unsubscribed { seq, key } => rpc::encode_unsubscribed_bytes(seq, key),
            ServerFrame::Flush { epoch } => rpc::encode_flush_bytes(epoch),
        };
        [&(payload.len() as u32).to_le_bytes()[..], &payload[..]].concat()
    }

    /// What a fresh read half makes of `pieces` arriving one read each.
    fn decode_in_pieces(pieces: &[&[u8]]) -> io::Result<Vec<ServerFrame>> {
        let (mut half, mut frames) = (ReadHalf::default(), Vec::new());
        for piece in pieces {
            half.spare()[..piece.len()].copy_from_slice(piece);
            half.advance(piece.len(), |payload| {
                frames.push(decode(payload)?);
                Ok(())
            })?;
        }
        Ok(frames)
    }

    #[test]
    fn a_stream_cut_at_any_byte_decodes_to_the_same_frames() {
        let want = vec![
            ServerFrame::Reply(0, Reply::ReadOk(Value::EMPTY)),
            ServerFrame::Reply(1, Reply::WriteOk),
            ServerFrame::Subscribed {
                seq: 2,
                key: Key(5),
                epoch: 1,
            },
            ServerFrame::Reply(3, Reply::ReadOk(Value::filled(0xAB, 300))),
            ServerFrame::Invalidate {
                key: Key(5),
                epoch: 1,
            },
            ServerFrame::Flush { epoch: 2 },
            ServerFrame::Unsubscribed {
                seq: 4,
                key: Key(5),
            },
            ServerFrame::Reply(u64::MAX, Reply::NotOperational),
        ];
        let wire: Vec<u8> = want.iter().flat_map(on_the_wire).collect();
        assert_eq!(decode_in_pieces(&[&wire]).unwrap(), want);
        for cut in 0..=wire.len() {
            let got = decode_in_pieces(&[&wire[..cut], &wire[cut..]]).unwrap();
            assert_eq!(got, want, "cut at {cut}");
        }
        let bytes: Vec<&[u8]> = wire.chunks(1).collect();
        assert_eq!(decode_in_pieces(&bytes).unwrap(), want, "byte at a time");
    }

    #[test]
    fn the_receive_buffer_grows_to_the_frame_and_is_reused_after() {
        let big = ServerFrame::Reply(9, Reply::ReadOk(Value::filled(7, 5 * READ_CHUNK)));
        let wire = [on_the_wire(&big), on_the_wire(&big)].concat();
        let (mut half, mut frames) = (ReadHalf::default(), Vec::new());
        let mut sent = 0;
        while sent < wire.len() {
            let room = half.spare();
            assert!(room.len() >= READ_CHUNK);
            let n = room.len().min(wire.len() - sent);
            room[..n].copy_from_slice(&wire[sent..sent + n]);
            sent += n;
            half.advance(n, |payload| {
                frames.push(decode(payload)?);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(frames, [big.clone(), big]);
        assert_eq!((half.filled, half.buf.len()), (0, 8 * READ_CHUNK));
    }

    /// A channel and the accepted end of its connection, no thread involved.
    fn channel_and_peer() -> (RemoteChannel, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let channel = RemoteChannel::connect(listener.local_addr().unwrap()).unwrap();
        (channel, listener.accept().unwrap().0)
    }

    /// The channel's next frame; `None` once it is dead (or after 5 s).
    fn next(channel: &mut RemoteChannel) -> Option<ServerFrame> {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match channel.recv_timeout(Duration::from_millis(100)) {
                None if channel.is_alive() && Instant::now() < deadline => {}
                got => return got,
            }
        }
    }

    #[test]
    fn an_oversized_prefix_or_a_garbage_frame_kills_the_channel_after_what_preceded_it() {
        let good = ServerFrame::Reply(7, Reply::WriteOk);
        let oversized = ((MAX_CLIENT_FRAME + 1) as u32).to_le_bytes().to_vec();
        let mut garbage = on_the_wire(&good);
        garbage[4 + 8] = 0xEE; // No such tag.
        for bad in [oversized, garbage] {
            let (mut channel, mut peer) = channel_and_peer();
            let wire = [on_the_wire(&good), bad, on_the_wire(&good)].concat();
            peer.write_all(&wire).unwrap();
            assert_eq!(next(&mut channel), Some(good.clone()));
            assert_eq!(next(&mut channel), None);
            assert!(!channel.is_alive());
            // Dead is final and costs no wait: nothing after the bad frame
            // is delivered, nothing more is sent.
            let start = Instant::now();
            assert_eq!(channel.recv_timeout(Duration::from_secs(5)), None);
            assert!(start.elapsed() < Duration::from_secs(1));
            assert!(!channel.submit(8, Key(1), ClientOp::Read));
        }
    }

    /// Sixteen reads in flight when the session subscribes: replies decoded
    /// on the session's thread, the half-received one handed over with the
    /// read half, and those the reader thread decodes come out once each,
    /// in wire order.
    #[test]
    fn a_subscribe_mid_pipeline_hands_the_read_half_over_in_order() {
        let (mut channel, mut peer) = channel_and_peer();
        let mut want = Vec::new();
        for seq in 0..16 {
            assert!(channel.submit(seq, Key(seq), ClientOp::Read));
            let value = Value::filled(seq as u8, 3_000);
            want.push(ServerFrame::Reply(seq, Reply::ReadOk(value)));
        }
        want.push(ServerFrame::Subscribed {
            seq: 16,
            key: Key(3),
            epoch: 0,
        });
        let wire: Vec<u8> = want.iter().flat_map(on_the_wire).collect();
        let cut = wire.len() * 11 / 34; // Five and a half replies.
        peer.write_all(&wire[..cut]).unwrap();
        let mut got = vec![next(&mut channel).expect("first reply")];
        assert!(channel.reader.is_none(), "no thread yet");
        assert!(channel.subscribe(16, Key(3)));
        assert!(channel.reader.is_some());
        peer.write_all(&wire[cut..]).unwrap();
        while got.len() < want.len() {
            got.push(next(&mut channel).expect("a frame went missing"));
        }
        assert_eq!(got, want);
        assert_eq!(channel.recv_timeout(Duration::from_millis(50)), None);
        assert!(channel.is_alive(), "nothing more, not dead");
    }

    /// The peer takes nothing until 8 MiB of requests have backed the socket
    /// up, so writes come up short and are finished after a wait — while
    /// the reader thread acks pushed invalidations through the same write
    /// half. What the peer then reads is whole frames only, each kind in
    /// the order it was sent.
    #[test]
    fn short_writes_finish_their_frame_and_no_ack_lands_inside_one() {
        const WRITES: u64 = 32;
        const PUSHES: u64 = 64;
        let value = |seq: u64| Value::filled(seq as u8, 256 << 10);
        let stall = Duration::from_millis(200);
        let (mut channel, mut peer) = channel_and_peer();
        assert!(channel.subscribe(0, Key(0)));
        let start = Instant::now();
        let reader = std::thread::spawn(move || {
            for k in 0..PUSHES {
                let push = ServerFrame::Invalidate {
                    key: Key(k),
                    epoch: 0,
                };
                peer.write_all(&on_the_wire(&push)).unwrap();
            }
            std::thread::sleep(stall);
            peer.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let (mut writes, mut acks) = (0, 0);
            while writes < WRITES || acks < PUSHES {
                let mut len = [0u8; 4];
                peer.read_exact(&mut len).unwrap();
                let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
                peer.read_exact(&mut payload).unwrap();
                match rpc::decode_any(&payload).expect("a whole frame") {
                    rpc::Request::Op { seq, key, cop } => {
                        assert_eq!((seq, key), (writes, Key(writes)));
                        assert!(cop == ClientOp::Write(value(seq)), "write {seq} garbled");
                        writes += 1;
                    }
                    rpc::Request::InvalAck { key } => {
                        assert_eq!(key, Key(acks));
                        acks += 1;
                    }
                    rpc::Request::Subscribe { .. } => {}
                    other => panic!("nobody sent {other:?}"),
                }
            }
        });
        for seq in 0..WRITES {
            assert!(channel.submit(seq, Key(seq), ClientOp::Write(value(seq))));
        }
        assert!(start.elapsed() >= stall, "the socket never backed up");
        reader.join().unwrap();
        for k in 0..PUSHES {
            let push = ServerFrame::Invalidate {
                key: Key(k),
                epoch: 0,
            };
            assert_eq!(next(&mut channel), Some(push), "queued before acked");
        }
    }
}
