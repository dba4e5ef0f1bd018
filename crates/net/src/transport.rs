//! The pluggable transport abstraction behind every cluster runtime.
//!
//! The paper's Hermes runs over RDMA unreliable datagrams; this workspace
//! runs the same protocol over whichever substrate fits the deployment:
//! [`Inbox`]es inside one process ([`InProcNet`]) or length-prefixed
//! frames over real TCP sockets ([`TcpNet`]) for multi-process clusters.
//! Both implement the same contract so runtimes are written once:
//!
//! * [`Transport`] — a factory producing one [`Endpoint`] per node;
//! * [`Endpoint`] — one node's attachment: a cloneable transmit half
//!   ([`NetSender`]) plus a receive half, taken one of two ways.
//!   [`Endpoint::split`] hands each worker lane its own [`LaneLinks`]: the
//!   lane's thread blocks in one [`Wait`] covering its command queue and
//!   the links it reads itself — its sockets, or its in-process inbox —
//!   and gets every [`NetEvent`] it reads handed to it inline: no thread
//!   between the wire and the lane. [`Endpoint::start`] runs a one-lane
//!   link set on one thread and pushes every event into an
//!   [`IngressSink`] — for tests, probes and anything that is not a lane.
//!
//! The service model every transport must preserve is the paper's (§3.4):
//! datagrams may be dropped, duplicated and reordered — Hermes' message-loss
//! timeouts absorb all three, and they also absorb a TCP connection dying
//! and being re-dialed (frames buffered in the dead socket are simply
//! "dropped datagrams").
//!
//! [`Inbox`]: crate::Inbox
//! [`InProcNet`]: crate::InProcNet
//! [`TcpNet`]: crate::TcpNet

use crate::poll::{Wait, Waker};
use bytes::Bytes;
use hermes_common::NodeId;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on the `Endpoint::start` host's blocked wait: `stop` is
/// re-checked at least this often even if a wake were lost.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// One event surfaced by a transport's ingress path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetEvent {
    /// A datagram (one Wings frame) arrived from a peer.
    Frame(NodeId, Bytes),
    /// The connection carrying a peer's traffic died (TCP reader saw
    /// EOF/error). Purely informational: the protocol needs no action —
    /// message-loss timeouts already cover the lost frames — but runtimes
    /// count these so operators and tests can observe fault paths.
    PeerDown(NodeId),
    /// A peer's connection was (re-)established toward this node.
    PeerUp(NodeId),
}

/// Consumes what an [`Endpoint::start`] host reads; `false` says the
/// receiver is gone (a TCP host closes the connection the event came on).
pub type IngressSink = Arc<dyn Fn(NetEvent) -> bool + Send + Sync>;

/// The transmit half of a node's network attachment.
///
/// Cloneable and shareable: on a multi-worker replica every worker thread
/// holds a clone and sends its Wings frames directly — the shared sender
/// *is* the node's merged egress. Sends never block and may silently drop
/// (unreachable peer, injected fault, dead connection): datagram semantics.
pub trait NetSender: Clone + Send + 'static {
    /// The node this sender transmits as.
    fn node_id(&self) -> NodeId;

    /// Sends one datagram to `to`. Never blocks; silently drops on any
    /// failure (the protocol's loss timeouts recover).
    fn send(&self, to: NodeId, payload: Bytes);
}

/// One worker lane's share of a node's links ([`Endpoint::split`]): the
/// sender that writes on the lane's own links, and the one blocking wait
/// the lane's thread makes.
pub trait LaneLinks: Send + 'static {
    /// The transmit half that writes on this lane's links.
    type Sender: NetSender;

    /// A sender writing on this lane's links.
    fn sender(&self) -> Self::Sender;

    /// Blocks up to `timeout` (less if a link needs an earlier look) until
    /// the lane's waker rings or a socket of this lane is ready, then does
    /// what became possible — reads its sockets or its inbox, finishes
    /// short writes, installs dials — handing every ingress event read to
    /// `deliver` (`false`: close the connection it came on). The lane
    /// looks at its command queue after this returns.
    fn poll(&mut self, timeout: Duration, deliver: &mut dyn FnMut(NetEvent) -> bool);
}

/// One node's attachment to a [`Transport`].
pub trait Endpoint: Send + std::fmt::Debug + 'static {
    /// The transmit half this endpoint hands to worker threads.
    type Sender: NetSender;

    /// One lane's share of the links ([`Endpoint::split`]).
    type Links: LaneLinks<Sender = Self::Sender>;

    /// This endpoint's node id.
    fn node_id(&self) -> NodeId;

    /// A cloneable transmit handle for this node.
    fn sender(&self) -> Self::Sender;

    /// Consumes the endpoint and splits it into one [`LaneLinks`] per
    /// `waits` entry, the i-th for lane i's thread, which rings that wait
    /// and reads its own links. No transport thread is left running.
    ///
    /// # Errors
    ///
    /// Fails if a socket cannot be registered in its wait.
    fn split(self, waits: Vec<Wait>) -> io::Result<Vec<Self::Links>>;

    /// Consumes the endpoint and hosts it as a one-lane link set on one
    /// `hermes-link` thread, which hands every ingress event to `sink`
    /// until the returned [`IngressGuard`] is stopped.
    ///
    /// # Panics
    ///
    /// Panics if the thread's wait cannot be created or a socket
    /// registered in it.
    fn start(self, sink: IngressSink) -> IngressGuard
    where
        Self: Sized,
    {
        let wait = Wait::new().expect("the link thread's epoll and eventfd");
        let waker = wait.waker();
        let mut links = self
            .split(vec![wait])
            .expect("register the links")
            .remove(0);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name("hermes-link".into());
        let handle = thread.spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                links.poll(IDLE_WAIT, &mut |ev| sink(ev));
            }
        });
        let thread = Some(handle.expect("spawn the link thread"));
        IngressGuard {
            stop,
            thread,
            waker,
        }
    }
}

/// A network: one [`Endpoint`] per node, however they are wired.
pub trait Transport {
    /// The per-node endpoint type.
    type Endpoint: Endpoint;

    /// Extracts the endpoints, one per node, to hand to node runtimes.
    fn into_endpoints(self) -> Vec<Self::Endpoint>;
}

/// Owns the `hermes-link` thread of [`Endpoint::start`]; stopping it
/// rings the thread's wait and joins it.
#[derive(Debug)]
pub struct IngressGuard {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    /// Interrupts the thread's blocked wait so it sees `stop` at once.
    waker: Arc<Waker>,
}

impl IngressGuard {
    /// Signals the link thread to stop and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for IngressGuard {
    fn drop(&mut self) {
        self.halt();
    }
}
