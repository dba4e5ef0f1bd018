//! Remote client sessions: a [`ClientSession`] over a real TCP connection
//! to a `hermesd` replica daemon's client port.
//!
//! [`RemoteChannel`] implements [`SessionChannel`], so the whole pipelined
//! session machinery (tickets, out-of-order completion, credit-based
//! backpressure) works unchanged across processes. The socket is
//! non-blocking and registered with the channel's own [`Poller`]; requests
//! are encoded straight behind their length prefix into one reused outbox.
//! An operation waits there until the session next looks for replies
//! ([`SessionChannel::recv`]), the outbox fills to [`OUTBOX_FLUSH`] bytes,
//! or the channel is dropped — whichever comes first — and then leaves with
//! everything queued beside it in one write (Wings batching, paper §4.2:
//! never wait to fill a batch). Every other request, acks included, leaves
//! at once, behind what is queued. One function — [`pump`] — turns what
//! the socket has received into [`ServerFrame`]s. Which thread runs it
//! follows from what the session has done, not from an option:
//!
//! * **Never subscribed:** the thread that waits is the thread that reads.
//!   `recv` pumps, after blocking in [`Poller::wait`] when given a wait. The
//!   channel owns no thread, and a reply costs its reader no hand-off.
//! * **Subscribed:** a lane evicts a subscriber that has not acked a pushed
//!   `Invalidate` within 75 ms (DESIGN.md §8), and a session's owner may be
//!   elsewhere for longer than that — so the channel's first
//!   [`Request::Subscribe`] spawns a reader thread that takes over the read
//!   half, undecoded bytes included, and runs the same pump into a queue
//!   the session drains.
//!
//! In both, whoever decodes an `Invalidate` queues it for the session
//! before writing its ack.
//!
//! [`ClientSession`]: crate::ClientSession

use crate::node::MAX_CLIENT_FRAME;
use crate::session::{ClientSession, SessionChannel};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use hermes_common::ClientId;
use hermes_net::{Interest, PollEvent, Poller};
use hermes_wings::client::{self as rpc, Request, ServerFrame};
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

/// Queued operations are written out, without waiting for a `recv`, once
/// the outbox holds this many bytes.
const OUTBOX_FLUSH: usize = 64 * 1024;

/// What an empty buffer keeps: one that an oversized frame grew past this
/// is returned to it.
const KEEP: usize = 2 * OUTBOX_FLUSH;

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
    /// The outbox: requests encoded and not yet written, in the order they
    /// were sent. Its lock spans a whole write, so a session's requests and
    /// its reader thread's acks never interleave.
    outbox: Mutex<Vec<u8>>,
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
            outbox: Mutex::default(),
        })
    }

    /// Appends `request` to the outbox, and writes the whole outbox out
    /// when it then holds at least `flush_at` bytes: 0 sends it now,
    /// [`OUTBOX_FLUSH`] queues it. An error leaves the stream unusable.
    pub(crate) fn send(&self, request: &Request, flush_at: usize) -> io::Result<()> {
        let mut outbox = self.outbox.lock().expect("no writer panics mid-write");
        rpc::put_frame(&mut outbox, |out| request.encode(out));
        if outbox.len() < flush_at {
            return Ok(());
        }
        self.write_out(&mut outbox)
    }

    /// Writes out whatever the outbox holds. Never panics (it runs on
    /// drop): an outbox a writer panicked over is a broken pipe.
    pub(crate) fn flush(&self) -> io::Result<()> {
        let mut outbox = self.outbox.lock().map_err(|_| ErrorKind::BrokenPipe)?;
        self.write_out(&mut outbox)
    }

    /// Writes `outbox` whole and empties it. A socket that stops taking
    /// bytes midway is waited on and the write finished.
    fn write_out(&self, outbox: &mut Vec<u8>) -> io::Result<()> {
        let mut rest = &outbox[..];
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
        outbox.clear();
        outbox.shrink_to(KEEP);
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
        while let Some(payload) =
            rpc::split_frame(&self.buf[at..self.filled], MAX_CLIENT_FRAME).map_err(invalid)?
        {
            on_frame(payload)?;
            at += 4 + payload.len();
        }
        if at > 0 {
            self.buf.copy_within(at..self.filled, 0);
            self.filled -= at;
        }
        if self.filled == 0 && self.buf.len() > KEEP {
            self.buf.truncate(KEEP);
            self.buf.shrink_to_fit();
        }
        Ok(())
    }
}

pub(crate) fn invalid(e: rpc::ClientCodecError) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e)
}

/// The pump, on whichever thread reads `conn`: one read (see
/// [`Conn::read_frames`] for `wait`), every complete frame decoded and
/// handed to `sink`, and the ack of an `Invalidate` written only after
/// `sink` has the frame — once the ack lets the replica release what it
/// held, the invalidation is already ahead of those replies in the
/// session's queue (DESIGN.md §8). `Err`: the connection is finished.
fn pump(conn: &Conn, wait: Option<Duration>, mut sink: impl FnMut(ServerFrame)) -> io::Result<()> {
    conn.read_frames(wait, |payload| {
        let frame = ServerFrame::decode(payload).map_err(invalid)?;
        let ack = match frame {
            ServerFrame::Invalidate { key, .. } => Some(Request::InvalAck { key }),
            // The reply to a request no session sends.
            ServerFrame::Metrics(..) | ServerFrame::Traces(..) => {
                return Err(ErrorKind::InvalidData.into())
            }
            _ => None,
        };
        sink(frame);
        ack.map_or(Ok(()), |ack| conn.send(&ack, 0))
    })
}

/// A TCP connection to one replica daemon's client port.
///
/// Operations are batched, and no batch waits to fill: each
/// [`Request::Op`] is queued in the outbox and leaves with the rest when
/// the session next receives (every `poll`, `wait`, `wait_any`, credit
/// stall, `txn` and `subscribe` does), when the outbox reaches 64 KiB, or
/// on drop. A caller that never waits, polls or drops the session holds
/// its operations. Acks and every other request leave at once, behind
/// what is queued.
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

    fn send(&mut self, request: Request) -> bool {
        // The reader thread first: from the first push on, acks must not
        // wait for this session's owner to come back. It takes over the
        // read half as it stands; frames in `ready` stay ahead of its queue.
        if matches!(request, Request::Subscribe { .. }) && self.reader.is_none() {
            let (conn, (tx, rx)) = (Arc::clone(&self.conn), unbounded());
            let forever = Some(Duration::MAX);
            let run = move || while pump(&conn, forever, |frame| drop(tx.send(frame))).is_ok() {};
            self.reader = Some((rx, std::thread::spawn(run)));
        }
        let flush_at = match request {
            Request::Op { .. } => OUTBOX_FLUSH,
            _ => 0,
        };
        self.alive = self.alive && self.conn.send(&request, flush_at).is_ok();
        self.alive
    }

    /// Writes out the queued operations first. A dead channel hands over
    /// what it had decoded and then nothing, at once.
    fn recv(&mut self, wait: Option<Duration>) -> Option<ServerFrame> {
        self.alive = self.alive && self.conn.flush().is_ok();
        if !self.alive || !self.ready.is_empty() {
            return self.ready.pop_front();
        }
        let Some((queue, _)) = &self.reader else {
            self.alive = pump(&self.conn, wait, |frame| self.ready.push_back(frame)).is_ok();
            return self.ready.pop_front();
        };
        let got = queue.recv_timeout(wait.unwrap_or_default());
        self.alive = got != Err(RecvTimeoutError::Disconnected);
        got.ok()
    }

    fn is_alive(&self) -> bool {
        self.alive
    }
}

impl Drop for RemoteChannel {
    fn drop(&mut self) {
        // Queued operations still leave; then the hang-up wakes the reader
        // thread out of its wait.
        if self.alive {
            let _ = self.conn.flush();
        }
        let _ = self.conn.stream.shutdown(Shutdown::Both);
        if let Some((_, thread)) = self.reader.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_common::{ClientOp, Key, Reply, Value};
    use std::net::TcpListener;

    fn on_the_wire(frame: &ServerFrame) -> Vec<u8> {
        let mut wire = Vec::new();
        rpc::put_frame(&mut wire, |out| frame.encode(out));
        wire
    }

    fn decode(payload: &[u8]) -> io::Result<ServerFrame> {
        ServerFrame::decode(payload).map_err(invalid)
    }

    fn read(seq: u64, key: Key) -> Request {
        let cop = ClientOp::Read;
        Request::Op { seq, key, cop }
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
            match channel.recv(Some(Duration::from_millis(100))) {
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
            assert_eq!(channel.recv(Some(Duration::from_secs(5))), None);
            assert!(start.elapsed() < Duration::from_secs(1));
            assert!(!channel.send(read(8, Key(1))));
        }
    }

    /// With nothing listening at the address, the retries stop at the
    /// deadline and the last refusal comes back: no panic, no hang.
    #[test]
    fn connect_within_returns_the_refusal_soon_after_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // Released: the port now refuses connections.
        let (deadline, start) = (Duration::from_millis(200), Instant::now());
        let refused = RemoteChannel::connect_within(addr, deadline).err();
        let waited = start.elapsed();
        let kind = refused.map(|e| e.kind());
        assert_eq!(kind, Some(ErrorKind::ConnectionRefused));
        assert!(waited >= deadline, "gave up early: {waited:?}");
        assert!(waited < Duration::from_secs(1), "overran: {waited:?}");
    }

    /// A quarter-mebibyte write fills the outbox past [`OUTBOX_FLUSH`] and
    /// leaves without a `recv`; a quarter-mebibyte reply grows the receive
    /// buffer to half a mebibyte. Once empty, each is back at [`KEEP`].
    #[test]
    fn a_quarter_mebibyte_frame_each_way_leaves_both_buffers_at_their_base_size() {
        let (mut channel, mut peer) = channel_and_peer();
        let value = Value::filled(0x5A, 256 << 10);
        let (seq, key, cop) = (0, Key(1), ClientOp::Write(value.clone()));
        let write = Request::Op { seq, key, cop };
        let reader = std::thread::spawn(move || {
            let mut len = [0u8; 4];
            peer.read_exact(&mut len).unwrap();
            let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
            peer.read_exact(&mut payload).unwrap();
            (peer, Request::decode(&payload).unwrap())
        });
        assert!(channel.send(write.clone()));
        let (mut peer, got) = reader.join().unwrap();
        assert_eq!(got, write, "sent whole, with no recv");
        assert!(channel.conn.outbox.lock().unwrap().capacity() <= KEEP);

        let big = ServerFrame::Reply(0, Reply::ReadOk(value));
        peer.write_all(&on_the_wire(&big)).unwrap();
        assert_eq!(next(&mut channel), Some(big));
        let half = channel.conn.reader.lock().unwrap();
        assert_eq!((half.filled, half.buf.len()), (0, KEEP));
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
            assert!(channel.send(read(seq, Key(seq))));
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
        let (seq, key) = (16, Key(3));
        assert!(channel.send(Request::Subscribe { seq, key }));
        assert!(channel.reader.is_some());
        peer.write_all(&wire[cut..]).unwrap();
        while got.len() < want.len() {
            got.push(next(&mut channel).expect("a frame went missing"));
        }
        assert_eq!(got, want);
        assert_eq!(channel.recv(Some(Duration::from_millis(50))), None);
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
        let (seq, key) = (0, Key(0));
        assert!(channel.send(Request::Subscribe { seq, key }));
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
            let (mut received, mut chunk) = (Vec::new(), vec![0u8; 64 << 10]);
            while writes < WRITES || acks < PUSHES {
                let Some(payload) = rpc::split_frame(&received, MAX_CLIENT_FRAME).unwrap() else {
                    let n = peer.read(&mut chunk).unwrap();
                    assert!(n > 0, "the channel hung up");
                    received.extend_from_slice(&chunk[..n]);
                    continue;
                };
                let len = 4 + payload.len();
                match Request::decode(payload).expect("a whole frame") {
                    Request::Op { seq, key, cop } => {
                        assert_eq!((seq, key), (writes, Key(writes)));
                        assert!(cop == ClientOp::Write(value(seq)), "write {seq} garbled");
                        writes += 1;
                    }
                    Request::InvalAck { key } => {
                        assert_eq!(key, Key(acks));
                        acks += 1;
                    }
                    Request::Subscribe { .. } => {}
                    other => panic!("nobody sent {other:?}"),
                }
                received.drain(..len);
            }
        });
        for seq in 0..WRITES {
            let (key, cop) = (Key(seq), ClientOp::Write(value(seq)));
            assert!(channel.send(Request::Op { seq, key, cop }));
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
