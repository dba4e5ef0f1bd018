//! Readiness-driven socket polling: the engine under the sharded-poller
//! client plane (DESIGN.md §7) and under every worker lane's one blocking
//! wait (DESIGN.md §4).
//!
//! The paper's RDMA runtime never spends a thread per peer: each worker
//! polls its own receive queues. Our TCP stand-in gets the same shape from
//! the OS readiness API — a [`Poller`] owns many non-blocking sockets and
//! one `wait` call reports which of them can make progress, O(ready) per
//! wait however many sockets are registered, so a small fixed pool of
//! threads drives tens of thousands of connections.
//!
//! Linux only: `epoll(7)` and `eventfd(2)`, reached through their libc
//! symbols directly (`extern "C"`): the std runtime already links libc, and
//! the offline build must not grow a dependency. Events are
//! level-triggered — a socket that still has buffered bytes keeps
//! reporting readable — which keeps the session state machines free of
//! edge-trigger re-arming subtleties.
//!
//! A [`Waker`] lets other threads (lanes completing operations, a poster
//! queueing a command) interrupt a blocked `wait`: it is an `eventfd`
//! registered like any other fd. A [`Wait`] is a poller with a waker at a
//! fixed token — the one place a worker lane's thread blocks.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EFD_NONBLOCK: i32 = 0o4000;
const EFD_CLOEXEC: i32 = 0o2000000;

/// Kernel UAPI layout: packed on x86-64 (the one ABI where the struct is
/// not naturally aligned), natural elsewhere.
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
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Takes ownership of the fd a libc constructor returned (`-1`: its error).
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` was just returned by epoll_create1/eventfd, is valid,
    // and nothing else owns it; OwnedFd closes it on drop.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// Clamps an optional wait budget into the millisecond argument
/// `epoll_wait` takes (`-1` blocks; sub-millisecond waits round up so a
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
/// which tokens can make progress. Level-triggered.
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
    epfd: OwnedFd,
}

impl Poller {
    /// Creates an empty poller.
    ///
    /// # Errors
    ///
    /// Fails if the epoll instance cannot be created.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers.
        let epfd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut events = EPOLLRDHUP;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Starts watching `fd` under `token`. The fd must stay open until
    /// [`Poller::deregister`] (the poller does not own it).
    ///
    /// # Errors
    ///
    /// Fails if the fd cannot be added (already registered, invalid).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the token/interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`.
    ///
    /// # Errors
    ///
    /// Fails if the fd is not registered.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::NONE)
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
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let (epfd, ms) = (self.epfd.as_raw_fd(), timeout_ms(timeout));
        // SAFETY: buf is a valid writable array of its declared length.
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(()); // Signal during wait: report nothing.
            }
            return Err(e);
        }
        for ev in &buf[..n as usize] {
            // Copy out of the (possibly packed) struct before use.
            let (events, token) = ({ ev.events }, { ev.data });
            out.push(PollEvent {
                token,
                readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

/// Cross-thread wakeup for a blocked [`Poller::wait`].
///
/// A non-blocking `eventfd`: `wake` adds one to its counter, the fd is
/// registered in the poller like any session, and the poller thread
/// [`drain`](Waker::drain)s it on readiness. `wake` is cheap, non-blocking
/// and safe from any thread.
///
/// Wakes coalesce through a latch: the first `wake` after a `drain` writes
/// the counter, later ones only see the latch set. The contract that makes
/// this lossless is the order on the poller side — `drain` zeroes the
/// counter *then* releases the latch, and the poller looks at its work
/// sources only *after* `drain` returns. A poster that found the latch set
/// published its work before the release, so that look sees it; a poster
/// that finds it clear writes the counter afresh.
#[derive(Debug)]
pub struct Waker {
    fd: File,
    /// Set while a wake is written and undrained.
    armed: AtomicBool,
}

impl Waker {
    /// Builds a waker and registers it in `poller` under `token` (read
    /// interest).
    ///
    /// # Errors
    ///
    /// Fails if the eventfd cannot be created or registered.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers.
        let fd = File::from(owned(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?);
        poller.register(fd.as_raw_fd(), token, Interest::READ)?;
        Ok(Waker {
            fd,
            armed: AtomicBool::new(false),
        })
    }

    /// Interrupts the poller's current (or next) `wait`, unless a wake is
    /// already pending. Publish the work first, then call this.
    pub fn wake(&self) {
        // AcqRel: the release half publishes the caller's work to the
        // `drain` that clears the latch; see the type-level contract.
        if !self.armed.swap(true, Ordering::AcqRel)
            && (&self.fd).write(&1u64.to_ne_bytes()).is_err()
        {
            // Nothing went out: let the next poster try again.
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Zeroes the pending wake and re-opens the latch (the poller thread
    /// calls this when the waker's token reports readable, *before* it
    /// examines whatever `wake` callers published).
    pub fn drain(&self) {
        // One read returns the whole counter and resets it.
        let _ = (&self.fd).read(&mut [0u8; 8]);
        self.armed.swap(false, Ordering::AcqRel);
    }
}

/// One thread's single blocking point: a [`Poller`] with a [`Waker`] at
/// token [`Wait::WAKE`]. Every worker lane blocks in one of these — the
/// waker rings for its command queue, and its links' sockets share the
/// poller (DESIGN.md §4).
#[derive(Debug)]
pub struct Wait {
    pub(crate) poller: Poller,
    waker: Arc<Waker>,
}

impl Wait {
    /// The token of the waker; sockets use the others.
    pub(crate) const WAKE: u64 = 0;

    /// A fresh poller and its waker.
    ///
    /// # Errors
    ///
    /// Fails if the epoll instance or the eventfd cannot be created.
    pub fn new() -> io::Result<Wait> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new(&poller, Self::WAKE)?);
        Ok(Wait { poller, waker })
    }

    /// The waker, for whoever posts work to this wait's thread.
    pub fn waker(&self) -> Arc<Waker> {
        Arc::clone(&self.waker)
    }

    /// Blocks up to `timeout`, leaves in `ready` the sockets that became
    /// ready, and says whether the waker rang — draining it first, so that
    /// the caller's next look at its work sources sees whatever the ringers
    /// published (the [`Waker`] latch contract).
    pub(crate) fn wait(&self, ready: &mut Vec<PollEvent>, timeout: Duration) -> bool {
        ready.clear();
        if self.poller.wait(ready, Some(timeout)).is_err() {
            return false;
        }
        let before = ready.len();
        ready.retain(|e| e.token != Self::WAKE);
        let woken = ready.len() < before;
        if woken {
            self.waker.drain();
        }
        woken
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
