use crate::poll::{PollEvent, Wait};
use crate::transport::{
    Endpoint, IngressGuard, IngressSink, LaneLinks, NetEvent, NetSender, Transport,
};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hermes_common::NodeId;
use hermes_sim::rng::Rng;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How often the in-process delivery thread rechecks its stop flag while
/// its queue is idle.
const FORWARD_POLL: Duration = Duration::from_millis(25);

/// Probabilistic fault injection applied to an [`InProcNet`].
///
/// Mirrors the unreliable-datagram semantics the protocol must tolerate
/// (paper §3.4): loss and duplication; reordering arises naturally from
/// thread scheduling.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetFaults {
    /// Probability that a datagram is silently dropped.
    pub drop_prob: f64,
    /// Probability that a datagram is delivered twice.
    pub duplicate_prob: f64,
}

struct Shared {
    faults: Mutex<(NetFaults, Rng)>,
    /// Per-node kill switch: a "crashed" endpoint stops delivering.
    crashed: Vec<AtomicBool>,
}

/// A datagram in flight: originating node plus payload.
type Datagram = (NodeId, Bytes);

/// A real in-process datagram network over crossbeam channels.
///
/// Each node gets an [`InProcEndpoint`] that can be moved to its own thread.
/// Sends are non-blocking and unordered across senders; faults can be
/// injected at runtime. This is the transport behind the threaded cluster
/// runtime (examples and integration tests run real concurrency through it).
///
/// # Examples
///
/// ```
/// use hermes_common::NodeId;
/// use hermes_net::InProcNet;
///
/// let mut endpoints = InProcNet::new(2).into_endpoints();
/// let b = endpoints.pop().unwrap();
/// let a = endpoints.pop().unwrap();
/// a.send(NodeId(1), bytes::Bytes::from_static(b"ping"));
/// let (from, data) = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(from, NodeId(0));
/// assert_eq!(&data[..], b"ping");
/// ```
#[derive(Debug)]
pub struct InProcNet {
    endpoints: Vec<InProcEndpoint>,
}

impl InProcNet {
    /// Creates a fully connected network of `n` endpoints (no faults).
    pub fn new(n: usize) -> Self {
        Self::with_faults(n, NetFaults::default(), 0)
    }

    /// Creates a network with fault injection driven by `seed`.
    pub fn with_faults(n: usize, faults: NetFaults, seed: u64) -> Self {
        let shared = Arc::new(Shared {
            faults: Mutex::new((faults, Rng::seeded(seed))),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });
        let channels: Vec<(Sender<Datagram>, Receiver<Datagram>)> =
            (0..n).map(|_| unbounded()).collect();
        let senders: Vec<Sender<Datagram>> = channels.iter().map(|(s, _)| s.clone()).collect();
        let endpoints = channels
            .into_iter()
            .enumerate()
            .map(|(i, (_, rx))| InProcEndpoint {
                tx: InProcSender {
                    me: NodeId(i as u32),
                    senders: senders.clone(),
                    shared: Arc::clone(&shared),
                },
                rx,
            })
            .collect();
        InProcNet { endpoints }
    }

    /// Extracts the endpoints, one per node, to hand to node threads.
    pub fn into_endpoints(self) -> Vec<InProcEndpoint> {
        self.endpoints
    }
}

impl Transport for InProcNet {
    type Endpoint = InProcEndpoint;

    fn into_endpoints(self) -> Vec<InProcEndpoint> {
        self.endpoints
    }
}

/// The transmit half of a node's network attachment.
///
/// Cloneable and shareable: on a multi-worker replica every worker thread
/// holds a clone and sends its Wings frames directly — the shared sender
/// *is* the node's merged egress — while one thread keeps the receive half
/// ([`InProcEndpoint`]) and demuxes ingress.
#[derive(Clone)]
pub struct InProcSender {
    me: NodeId,
    senders: Vec<Sender<Datagram>>,
    shared: Arc<Shared>,
}

impl InProcSender {
    /// This sender's node id.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// Number of nodes on the network.
    pub fn cluster_size(&self) -> usize {
        self.senders.len()
    }

    /// Sends a datagram to `to`. Never blocks; silently drops if the
    /// destination is out of range, crashed, or the fault injector says so.
    pub fn send(&self, to: NodeId, payload: Bytes) {
        if to.index() >= self.senders.len() {
            return;
        }
        if self.is_crashed(self.me) || self.is_crashed(to) {
            return;
        }
        let duplicate = {
            let mut guard = self.shared.faults.lock();
            let (faults, rng) = &mut *guard;
            if rng.gen_bool(faults.drop_prob) {
                return;
            }
            rng.gen_bool(faults.duplicate_prob)
        };
        let _ = self.senders[to.index()].send((self.me, payload.clone()));
        if duplicate {
            let _ = self.senders[to.index()].send((self.me, payload));
        }
    }

    /// Sends `payload` to every node except self (software broadcast — the
    /// Wings model of a series of unicasts, paper §4.2).
    pub fn broadcast(&self, payload: &Bytes) {
        for i in 0..self.senders.len() {
            let to = NodeId(i as u32);
            if to != self.me {
                self.send(to, payload.clone());
            }
        }
    }

    /// Reconfigures fault injection for the whole network.
    pub fn set_faults(&self, faults: NetFaults) {
        self.shared.faults.lock().0 = faults;
    }

    /// Crash-stops `node` network-wide (both directions go silent).
    pub fn crash(&self, node: NodeId) {
        if node.index() < self.shared.crashed.len() {
            self.shared.crashed[node.index()].store(true, Ordering::SeqCst);
        }
    }

    fn is_crashed(&self, node: NodeId) -> bool {
        self.shared.crashed[node.index()].load(Ordering::SeqCst)
    }
}

impl NetSender for InProcSender {
    fn node_id(&self) -> NodeId {
        self.me
    }

    fn send(&self, to: NodeId, payload: Bytes) {
        InProcSender::send(self, to, payload);
    }
}

impl std::fmt::Debug for InProcSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcSender")
            .field("me", &self.me)
            .field("cluster_size", &self.senders.len())
            .finish()
    }
}

/// One node's attachment to an [`InProcNet`]: the receive half plus an
/// embedded [`InProcSender`].
pub struct InProcEndpoint {
    tx: InProcSender,
    rx: Receiver<Datagram>,
}

impl InProcEndpoint {
    /// This endpoint's node id.
    pub fn node_id(&self) -> NodeId {
        self.tx.me
    }

    /// Number of nodes on the network.
    pub fn cluster_size(&self) -> usize {
        self.tx.cluster_size()
    }

    /// A cloneable transmit handle for this node (hand one to each worker
    /// thread of a multi-worker replica).
    pub fn sender(&self) -> InProcSender {
        self.tx.clone()
    }

    /// Sends a datagram to `to`. Never blocks; silently drops if the
    /// destination is out of range, crashed, or the fault injector says so.
    pub fn send(&self, to: NodeId, payload: Bytes) {
        self.tx.send(to, payload);
    }

    /// Sends `payload` to every node except self (software broadcast — the
    /// Wings model of a series of unicasts, paper §4.2).
    pub fn broadcast(&self, payload: &Bytes) {
        self.tx.broadcast(payload);
    }

    /// Receives the next datagram, blocking up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Bytes)> {
        match self.rx.recv_timeout(timeout) {
            Ok(msg) if !self.tx.is_crashed(self.tx.me) => Some(msg),
            _ => None,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(NodeId, Bytes)> {
        if self.tx.is_crashed(self.tx.me) {
            // Drain without delivering: a crashed node is silent.
            while self.rx.try_recv().is_ok() {}
            return None;
        }
        self.rx.try_recv().ok()
    }

    /// Reconfigures fault injection for the whole network.
    pub fn set_faults(&self, faults: NetFaults) {
        self.tx.set_faults(faults);
    }

    /// Crash-stops `node` network-wide (both directions go silent).
    pub fn crash(&self, node: NodeId) {
        self.tx.crash(node);
    }
}

impl Endpoint for InProcEndpoint {
    type Sender = InProcSender;
    type Links = InProcLinks;

    fn node_id(&self) -> NodeId {
        self.tx.me
    }

    fn sender(&self) -> InProcSender {
        self.tx.clone()
    }

    /// Spawns one delivery thread that moves datagrams from the endpoint's
    /// channel into `sink` as [`NetEvent::Frame`]s. In-process links never
    /// drop, so no peer up/down events are ever emitted.
    fn start(self, sink: IngressSink) -> IngressGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name("hermes-link".into());
        let handle = thread.spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                match self.rx.recv_timeout(FORWARD_POLL) {
                    Ok((from, payload)) => {
                        // A crashed node is silent: drain without delivering.
                        if self.tx.is_crashed(self.tx.me) {
                            continue;
                        }
                        if !sink(NetEvent::Frame(from, payload)) {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        IngressGuard::new(stop, vec![handle.expect("spawn the delivery thread")])
    }

    /// Every lane gets the node's sender and its own wait; the delivery
    /// thread of [`Endpoint::start`] keeps moving datagrams into `sink`,
    /// owned by lane 0's link set.
    fn split(self, waits: Vec<Wait>, sink: IngressSink) -> io::Result<Vec<InProcLinks>> {
        let tx = self.tx.clone();
        let mut delivery = Some(self.start(sink));
        let links = waits.into_iter().map(|wait| InProcLinks {
            tx: tx.clone(),
            wait,
            ready: Vec::new(),
            _delivery: delivery.take(),
        });
        Ok(links.collect())
    }
}

/// One lane's share of an in-process endpoint: nothing to read — the
/// endpoint's delivery thread pushes every datagram into the sink — so its
/// wait holds only the lane's waker.
#[derive(Debug)]
pub struct InProcLinks {
    tx: InProcSender,
    wait: Wait,
    ready: Vec<PollEvent>,
    /// The delivery thread, joined when lane 0's set drops.
    _delivery: Option<IngressGuard>,
}

impl LaneLinks for InProcLinks {
    type Sender = InProcSender;

    fn sender(&self) -> InProcSender {
        self.tx.clone()
    }

    fn poll(&mut self, timeout: Duration, _deliver: &mut dyn FnMut(NetEvent) -> bool) {
        self.wait.wait(&mut self.ready, timeout);
    }
}

impl std::fmt::Debug for InProcEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcEndpoint")
            .field("me", &self.tx.me)
            .field("cluster_size", &self.tx.cluster_size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let mut eps = InProcNet::new(3).into_endpoints();
        let c = eps.pop().unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(NodeId(1), Bytes::from_static(b"to-b"));
        a.send(NodeId(2), Bytes::from_static(b"to-c"));
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Some((NodeId(0), Bytes::from_static(b"to-b")))
        );
        assert_eq!(
            c.recv_timeout(Duration::from_secs(1)),
            Some((NodeId(0), Bytes::from_static(b"to-c")))
        );
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        let eps = InProcNet::new(4).into_endpoints();
        eps[1].broadcast(&Bytes::from_static(b"hi"));
        for (i, ep) in eps.iter().enumerate() {
            if i == 1 {
                assert_eq!(ep.try_recv(), None);
            } else {
                assert_eq!(
                    ep.recv_timeout(Duration::from_secs(1)),
                    Some((NodeId(1), Bytes::from_static(b"hi")))
                );
            }
        }
    }

    #[test]
    fn cross_thread_traffic() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let handle = thread::spawn(move || {
            let mut got = 0;
            while got < 100 {
                if b.recv_timeout(Duration::from_secs(5)).is_some() {
                    got += 1;
                }
            }
            got
        });
        for i in 0..100u32 {
            a.send(NodeId(1), Bytes::from(i.to_le_bytes().to_vec()));
        }
        assert_eq!(handle.join().unwrap(), 100);
    }

    #[test]
    fn drop_faults_lose_messages() {
        let eps = InProcNet::with_faults(
            2,
            NetFaults {
                drop_prob: 1.0,
                duplicate_prob: 0.0,
            },
            1,
        )
        .into_endpoints();
        eps[0].send(NodeId(1), Bytes::from_static(b"x"));
        assert_eq!(eps[1].recv_timeout(Duration::from_millis(50)), None);
        // Heal and verify traffic resumes.
        eps[0].set_faults(NetFaults::default());
        eps[0].send(NodeId(1), Bytes::from_static(b"y"));
        assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let eps = InProcNet::with_faults(
            2,
            NetFaults {
                drop_prob: 0.0,
                duplicate_prob: 1.0,
            },
            1,
        )
        .into_endpoints();
        eps[0].send(NodeId(1), Bytes::from_static(b"x"));
        assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_some());
        assert!(eps[1].recv_timeout(Duration::from_secs(1)).is_some());
        assert_eq!(eps[1].try_recv(), None);
    }

    #[test]
    fn crashed_node_goes_silent_both_ways() {
        let eps = InProcNet::new(3).into_endpoints();
        eps[0].crash(NodeId(1));
        eps[0].send(NodeId(1), Bytes::from_static(b"dead"));
        assert_eq!(eps[1].recv_timeout(Duration::from_millis(50)), None);
        eps[1].send(NodeId(0), Bytes::from_static(b"from-dead"));
        assert_eq!(eps[0].recv_timeout(Duration::from_millis(50)), None);
        // Unrelated traffic still flows.
        eps[0].send(NodeId(2), Bytes::from_static(b"alive"));
        assert!(eps[2].recv_timeout(Duration::from_secs(1)).is_some());
    }

    #[test]
    fn cloned_senders_share_one_node_identity() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // Two "worker threads" of node 0 egress through clones concurrently.
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let tx = a.sender();
                thread::spawn(move || {
                    assert_eq!(tx.node_id(), NodeId(0));
                    for _ in 0..50 {
                        tx.send(NodeId(1), Bytes::from(vec![w as u8]));
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().unwrap();
        }
        let mut got = 0;
        while b.recv_timeout(Duration::from_secs(1)).is_some() {
            got += 1;
            if got == 100 {
                break;
            }
        }
        assert_eq!(got, 100);
    }

    #[test]
    fn out_of_range_destination_is_ignored() {
        let eps = InProcNet::new(2).into_endpoints();
        eps[0].send(NodeId(9), Bytes::from_static(b"nowhere")); // no panic
        assert_eq!(eps[0].cluster_size(), 2);
        assert_eq!(eps[1].node_id(), NodeId(1));
    }
}
