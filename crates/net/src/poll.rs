//! Readiness-driven socket polling: the engine under the sharded-poller
//! client plane (DESIGN.md §7) and the replica links' one poller per node
//! (DESIGN.md §4).
//!
//! The paper's RDMA runtime never spends a thread per peer: each worker
//! polls its own receive queues. Our TCP stand-in gets the same shape from
//! the OS readiness APIs — a [`Poller`] owns many non-blocking sockets and
//! one `wait` call reports which of them can make progress, so a small
//! fixed pool of poller threads drives tens of thousands of connections.
//!
//! Two backends, one API:
//!
//! * **Linux** — `epoll(7)`, O(ready) per wait regardless of how many
//!   sockets are registered (the C10K-scaling path the client plane needs);
//! * **other Unix** — `poll(2)`, O(registered) per wait; correct, just not
//!   built for ten thousand sockets.
//!
//! Both are reached through their libc symbols directly (`extern "C"`):
//! the std runtime already links libc, and the offline build must not grow
//! a dependency. Events are level-triggered — a socket that still has
//! buffered bytes keeps reporting readable — which keeps the session state
//! machines free of edge-trigger re-arming subtleties.
//!
//! A [`Waker`] lets other threads (worker lanes completing operations, an
//! acceptor handing over a socket) interrupt a blocked `wait`: it is a
//! self-connected loopback UDP socket registered like any other, so it
//! needs no extra OS machinery and works on every backend.

use std::io;
use std::net::{Ipv4Addr, UdpSocket};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which readiness transitions a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Report when the fd has bytes to read (or hung up).
    pub read: bool,
    /// Report when the fd can accept writes.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };
    /// Keep the fd registered but report nothing (a credit-stalled session
    /// parks here so level-triggered readiness does not spin the poller).
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
}

/// One readiness report from [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (data buffered, or EOF pending).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up or the fd errored; the owner should read to EOF
    /// and reap.
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! `epoll(7)` via its libc symbols (std links libc; no new crate).
    use super::{Interest, PollEvent};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Kernel UAPI layout: packed on x86-64 (the one ABI where the struct
    /// is not naturally aligned), natural elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        epfd: OwnedFd,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            // SAFETY: epoll_create1 takes no pointers; a valid fd (or -1)
            // comes back and OwnedFd closes it on drop.
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: fd is a freshly created epoll fd we exclusively own.
            Ok(Backend {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(super) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let ms = super::timeout_ms(timeout);
            // SAFETY: buf is a valid writable array of its declared length.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    buf.as_mut_ptr(),
                    buf.len() as i32,
                    ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(()); // Signal during wait: report nothing.
                }
                return Err(e);
            }
            for ev in &buf[..n as usize] {
                // Copy out of the (possibly packed) struct before use.
                let events = { ev.events };
                let data = { ev.data };
                out.push(PollEvent {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable fallback: `poll(2)` over the registration table. O(n) per
    //! wait — correct everywhere Unix, but not the C10K path.
    use super::{Interest, PollEvent};
    use std::collections::BTreeMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Backend {
        table: Mutex<BTreeMap<RawFd, (u64, Interest)>>,
    }

    impl Backend {
        pub(super) fn new() -> io::Result<Backend> {
            Ok(Backend {
                table: Mutex::new(BTreeMap::new()),
            })
        }

        pub(super) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.table.lock().unwrap().insert(fd, (token, interest));
            Ok(())
        }

        pub(super) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.register(fd, token, interest)
        }

        pub(super) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.table.lock().unwrap().remove(&fd);
            Ok(())
        }

        pub(super) fn wait(
            &self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let mut fds: Vec<(PollFd, u64)> = self
                .table
                .lock()
                .unwrap()
                .iter()
                .map(|(&fd, &(token, interest))| {
                    let mut events = 0i16;
                    if interest.read {
                        events |= POLLIN;
                    }
                    if interest.write {
                        events |= POLLOUT;
                    }
                    (
                        PollFd {
                            fd,
                            events,
                            revents: 0,
                        },
                        token,
                    )
                })
                .collect();
            let mut raw: Vec<PollFd> = fds
                .iter()
                .map(|(p, _)| PollFd {
                    fd: p.fd,
                    events: p.events,
                    revents: 0,
                })
                .collect();
            let ms = super::timeout_ms(timeout);
            // SAFETY: raw is a valid writable array of its declared length.
            let n = unsafe { poll(raw.as_mut_ptr(), raw.len() as u64, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (p, (_, token)) in raw.iter().zip(fds.drain(..)) {
                if p.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: p.revents & (POLLIN | POLLHUP) != 0,
                    writable: p.revents & POLLOUT != 0,
                    hangup: p.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

/// Clamps an optional wait budget into the millisecond argument the OS
/// readiness calls take (`-1` blocks; sub-millisecond waits round up so a
/// positive budget never becomes a busy spin).
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) if d.is_zero() => 0,
        Some(d) => d.as_millis().clamp(1, i32::MAX as u128) as i32,
    }
}

/// A readiness multiplexer over many non-blocking sockets.
///
/// Register each fd under a caller-chosen `token`; [`Poller::wait`] reports
/// which tokens can make progress. Level-triggered on every backend.
///
/// # Examples
///
/// ```
/// use hermes_net::{Interest, Poller, Waker};
/// use std::sync::Arc;
///
/// let poller = Poller::new().unwrap();
/// let waker = Arc::new(Waker::new(&poller, 0).unwrap());
/// let handle = {
///     let waker = Arc::clone(&waker);
///     std::thread::spawn(move || waker.wake())
/// };
/// let mut events = Vec::new();
/// while events.is_empty() {
///     poller.wait(&mut events, None).unwrap();
/// }
/// assert_eq!(events[0].token, 0);
/// handle.join().unwrap();
/// ```
#[derive(Debug)]
pub struct Poller {
    backend: sys::Backend,
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    ///
    /// Fails if the OS readiness object cannot be created.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            backend: sys::Backend::new()?,
        })
    }

    /// Starts watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`] (the poller does not own it).
    ///
    /// # Errors
    ///
    /// Fails if the fd cannot be added (already registered, invalid).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.register(fd, token, interest)
    }

    /// Replaces the token/interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.backend.reregister(fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.backend.deregister(fd)
    }

    /// Appends ready events to `out` (which is *not* cleared), blocking up
    /// to `timeout` (`None`: until something is ready). Returning with no
    /// new events means the timeout elapsed or a signal interrupted the
    /// wait.
    ///
    /// # Errors
    ///
    /// Fails only on unexpected OS errors (`EINTR` is absorbed).
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(out, timeout)
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`].
///
/// A self-connected loopback UDP socket pair: `wake` sends one datagram,
/// the receiving socket is registered in the poller like any session, and
/// the poller thread [`drain`](Waker::drain)s it on readiness. `wake` is
/// cheap, non-blocking and safe from any thread.
///
/// Wakes coalesce through a latch: the first `wake` after a `drain` sends
/// the datagram, later ones only see the latch set. The contract that makes
/// this lossless is the order on the poller side — `drain` empties the
/// socket *then* releases the latch, and the poller looks at its work
/// sources only *after* `drain` returns. A poster that found the latch set
/// published its work before the release, so that look sees it; a poster
/// that finds it clear sends a fresh datagram.
#[derive(Debug)]
pub struct Waker {
    tx: UdpSocket,
    rx: UdpSocket,
    /// Set while a wake datagram is in flight or undrained.
    armed: AtomicBool,
}

impl Waker {
    /// Builds a waker and registers its receive side in `poller` under
    /// `token` (read interest).
    ///
    /// # Errors
    ///
    /// Fails if the loopback sockets cannot be created or registered.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let rx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        rx.set_nonblocking(true)?;
        let tx = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        tx.set_nonblocking(true)?;
        tx.connect(rx.local_addr()?)?;
        poller.register(rx.as_raw_fd(), token, Interest::READ)?;
        Ok(Waker {
            tx,
            rx,
            armed: AtomicBool::new(false),
        })
    }

    /// Interrupts the poller's current (or next) `wait`, unless a wake is
    /// already pending. Publish the work first, then call this.
    pub fn wake(&self) {
        // AcqRel: the release half publishes the caller's work to the
        // `drain` that clears the latch; see the type-level contract.
        if !self.armed.swap(true, Ordering::AcqRel) && self.tx.send(&[1]).is_err() {
            // Nothing went out: let the next poster try again.
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Discards pending wake datagrams and re-opens the latch (the poller
    /// thread calls this when the waker's token reports readable, *before*
    /// it examines whatever `wake` callers published).
    pub fn drain(&self) {
        let mut buf = [0u8; 16];
        while self.rx.recv(&mut buf).is_ok() {}
        self.armed.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn reports_read_readiness_only_when_data_arrives() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = pair();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "no data yet: {events:?}");
        a.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        poller.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn level_triggered_until_drained_and_interest_parks() {
        let poller = Poller::new().unwrap();
        let (mut a, mut b) = pair();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        a.write_all(b"xyz").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        // Unread data keeps reporting (level-triggered)...
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable));
        // ...until interest is parked: then the poller stays quiet even
        // with bytes still buffered (the credit-stall path).
        poller.reregister(b.as_raw_fd(), 1, Interest::NONE).unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "parked fd still reported: {events:?}");
        // Restore interest, drain, and the readiness clears.
        poller.reregister(b.as_raw_fd(), 1, Interest::READ).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 3);
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "drained fd still reported: {events:?}");
    }

    #[test]
    fn hangup_is_reported() {
        let poller = Poller::new().unwrap();
        let (a, b) = pair();
        poller.register(b.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while events.is_empty() && Instant::now() < deadline {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
        }
        assert!(
            events
                .iter()
                .any(|e| e.token == 3 && (e.hangup || e.readable)),
            "peer close must surface: {events:?}"
        );
    }

    #[test]
    fn waker_interrupts_a_blocked_wait() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::new(Waker::new(&poller, 99).unwrap());
        let w = Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        let start = Instant::now();
        while events.is_empty() && start.elapsed() < Duration::from_secs(5) {
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .unwrap();
        }
        assert!(events.iter().any(|e| e.token == 99 && e.readable));
        waker.drain();
        // Drained: quiet again.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        h.join().unwrap();
    }

    /// The latch contract under fire: work published before `wake` is seen
    /// by the poller's look after `drain`, or a fresh datagram follows — at
    /// no point does an item sit until the (10 s) wait times out. Pairs of
    /// posts a few microseconds apart put the second one at every point of
    /// the poller's wake-up → drain → look sequence.
    #[test]
    fn coalesced_wakes_never_strand_published_work() {
        use std::sync::mpsc;
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, 1).unwrap());
        let (work_tx, work_rx) = mpsc::channel::<Option<u64>>();
        let (done_tx, done_rx) = mpsc::channel::<u64>();
        let consumer = {
            let waker = Arc::clone(&waker);
            std::thread::spawn(move || {
                let mut events = Vec::new();
                loop {
                    events.clear();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(10)))
                        .unwrap();
                    if !events.is_empty() {
                        waker.drain();
                    }
                    while let Ok(item) = work_rx.try_recv() {
                        match item {
                            Some(i) => done_tx.send(i).unwrap(),
                            None => return,
                        }
                    }
                }
            })
        };
        let post = |item| {
            work_tx.send(item).unwrap();
            waker.wake();
        };
        for round in 0..20_000u64 {
            post(Some(2 * round));
            let gap = Instant::now();
            while gap.elapsed() < Duration::from_nanos(round % 40 * 500) {
                std::hint::spin_loop();
            }
            let posted = Instant::now();
            post(Some(2 * round + 1));
            for want in [2 * round, 2 * round + 1] {
                let got = done_rx.recv_timeout(Duration::from_secs(20));
                assert_eq!(got, Ok(want), "item stranded");
            }
            let waited = posted.elapsed();
            assert!(
                waited < Duration::from_millis(50),
                "an item waited {waited:?}"
            );
        }
        post(None);
        consumer.join().unwrap();
    }

    #[test]
    fn write_interest_fires_for_an_open_socket() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair();
        poller.register(a.as_raw_fd(), 5, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5 && e.writable));
    }
}
