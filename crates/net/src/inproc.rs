use crate::poll::{PollEvent, Wait, Waker};
use crate::transport::{Endpoint, LaneLinks, NetEvent, NetSender, Transport};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use hermes_common::NodeId;
use hermes_sim::rng::Rng;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Datagrams a lane takes from its inbox per poll before it turns to its
/// command queue and timers (what is left rings the lane again).
const DATAGRAMS_PER_POLL: usize = 64;

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

/// A datagram in flight: originating node plus payload.
type Datagram = (NodeId, Bytes);

/// One lane's inbox as senders see it: its queue and the waker of the
/// wait its lane blocks in.
struct Inbox {
    tx: Sender<Datagram>,
    waker: Arc<Waker>,
}

/// One node's inboxes.
struct NodeInboxes {
    /// Lane 0's queue, which exists before the node splits: a send that
    /// finds `lanes` unset queues here without a ring, and lane 0's first
    /// poll takes it.
    first: Sender<Datagram>,
    /// Per lane; set once, when the node's endpoint splits.
    lanes: OnceLock<Vec<Inbox>>,
}

struct Shared {
    faults: Mutex<(NetFaults, Rng)>,
    /// Per-node kill switch: a "crashed" endpoint stops delivering.
    crashed: Vec<AtomicBool>,
    nodes: Vec<NodeInboxes>,
}

/// A real in-process datagram network over crossbeam channels.
///
/// Each node gets an [`InProcEndpoint`] that can be moved to its own thread.
/// Every lane of a split endpoint has its own inbox: lane *i* sends
/// straight into the inbox of lane `i % W` of the destination and rings
/// that lane, which reads the inbox itself — the in-process image of the
/// TCP transport's lane-to-lane links, with no thread in between. Sends
/// are non-blocking and unordered across senders; faults can be injected
/// at runtime. This is the transport behind the threaded cluster runtime
/// (examples and integration tests run real concurrency through it).
///
/// # Examples
///
/// ```
/// use hermes_common::NodeId;
/// use hermes_net::{Endpoint, InProcNet, NetEvent};
/// use std::sync::{mpsc, Arc};
///
/// let mut endpoints = InProcNet::new(2).into_endpoints();
/// let b = endpoints.pop().unwrap();
/// let a = endpoints.pop().unwrap();
/// let (tx, rx) = mpsc::channel();
/// let guard = b.start(Arc::new(move |ev| tx.send(ev).is_ok()));
/// let ping = bytes::Bytes::from_static(b"ping");
/// a.sender().send(NodeId(1), ping.clone());
/// let ev = rx.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(ev, NetEvent::Frame(NodeId(0), ping));
/// guard.stop();
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
        let (firsts, receivers): (Vec<Sender<Datagram>>, Vec<_>) =
            (0..n).map(|_| unbounded()).unzip();
        let shared = Arc::new(Shared {
            faults: Mutex::new((faults, Rng::seeded(seed))),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            nodes: (firsts.into_iter())
                .map(|first| NodeInboxes {
                    first,
                    lanes: OnceLock::new(),
                })
                .collect(),
        });
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| InProcEndpoint {
                tx: InProcSender {
                    me: NodeId(i as u32),
                    lane: 0,
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

/// The transmit half of a node's network attachment, bound to one lane.
///
/// Cloneable and shareable: every worker lane of a replica holds its own
/// ([`LaneLinks::sender`]) and sends its Wings frames straight into the
/// inbox of the same-numbered lane (modulo its lane count) of each peer;
/// [`InProcEndpoint::sender`] sends as lane 0.
#[derive(Clone)]
pub struct InProcSender {
    me: NodeId,
    lane: usize,
    shared: Arc<Shared>,
}

impl InProcSender {
    /// This sender's node id.
    pub fn node_id(&self) -> NodeId {
        self.me
    }

    /// Number of nodes on the network.
    pub fn cluster_size(&self) -> usize {
        self.shared.nodes.len()
    }

    /// Sends a datagram to `to`. Never blocks; silently drops if the
    /// destination is out of range, crashed, or the fault injector says so.
    /// Pushes, then rings the receiving lane (the [`Waker`] contract).
    pub fn send(&self, to: NodeId, payload: Bytes) {
        let Some(node) = self.shared.nodes.get(to.index()) else {
            return;
        };
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
        // Before the node splits, lane 0's queue takes it unrung.
        let (tx, waker) = match node.lanes.get() {
            None => (&node.first, None),
            Some(lanes) => match lanes.get(self.lane % lanes.len().max(1)) {
                Some(inbox) => (&inbox.tx, Some(&inbox.waker)),
                None => return,
            },
        };
        let _ = tx.send((self.me, payload.clone()));
        if duplicate {
            let _ = tx.send((self.me, payload));
        }
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// Sends `payload` to every node except self (software broadcast — the
    /// Wings model of a series of unicasts, paper §4.2).
    pub fn broadcast(&self, payload: &Bytes) {
        for i in 0..self.cluster_size() {
            let to = NodeId(i as u32);
            if to != self.me {
                self.send(to, payload.clone());
            }
        }
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
            .field("lane", &self.lane)
            .field("cluster_size", &self.cluster_size())
            .finish()
    }
}

/// One node's attachment to an [`InProcNet`]: lane 0's inbox plus a
/// lane-0 [`InProcSender`], taken apart by [`Endpoint::split`] or
/// [`Endpoint::start`].
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

    /// A cloneable transmit handle for this node, sending as lane 0.
    pub fn sender(&self) -> InProcSender {
        self.tx.clone()
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

    /// Lane 0 keeps the endpoint's inbox, every other lane gets a fresh
    /// one, and from now on senders ring the lane they push to.
    fn split(self, waits: Vec<Wait>) -> io::Result<Vec<InProcLinks>> {
        let InProcEndpoint { tx, rx } = self;
        let node = &tx.shared.nodes[tx.me.index()];
        let mut first = Some((node.first.clone(), rx));
        let (inboxes, links) = (waits.into_iter().enumerate())
            .map(|(lane, wait)| {
                let (queue, inbox) = first.take().unwrap_or_else(unbounded);
                let links = InProcLinks {
                    tx: InProcSender { lane, ..tx.clone() },
                    wait,
                    inbox,
                    ready: Vec::new(),
                };
                let waker = links.wait.waker();
                (Inbox { tx: queue, waker }, links)
            })
            .unzip();
        let fresh = node.lanes.set(inboxes).is_ok();
        assert!(fresh, "an endpoint splits once: `split` consumes it");
        Ok(links)
    }
}

/// One lane's share of an in-process endpoint: its sender and its inbox,
/// whose senders ring the lane's wait.
#[derive(Debug)]
pub struct InProcLinks {
    tx: InProcSender,
    wait: Wait,
    inbox: Receiver<Datagram>,
    ready: Vec<PollEvent>,
}

impl LaneLinks for InProcLinks {
    type Sender = InProcSender;

    fn sender(&self) -> InProcSender {
        self.tx.clone()
    }

    /// Waits, then drains the inbox (the wait drains the waker first, so
    /// whatever a ringer pushed is seen). A crashed node drains it without
    /// delivering.
    fn poll(&mut self, timeout: Duration, deliver: &mut dyn FnMut(NetEvent) -> bool) {
        self.wait.wait(&mut self.ready, timeout);
        let silent = self.tx.is_crashed(self.tx.me);
        for _ in 0..DATAGRAMS_PER_POLL {
            let Ok((from, frame)) = self.inbox.try_recv() else {
                return;
            };
            if !silent {
                deliver(NetEvent::Frame(from, frame));
            }
        }
        // More may be queued behind the batch, whose ring the wait took.
        self.wait.waker().wake();
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
    use crate::IngressGuard;
    use std::thread;
    use std::time::Instant;

    type Frames = Receiver<(NodeId, Bytes)>;

    /// Hosts `ep` on its link thread, forwarding its frames into a channel.
    fn start_collecting(ep: InProcEndpoint) -> (IngressGuard, Frames) {
        let (tx, rx) = unbounded();
        let guard = ep.start(Arc::new(move |ev| match ev {
            NetEvent::Frame(from, frame) => tx.send((from, frame)).is_ok(),
            _ => true,
        }));
        (guard, rx)
    }

    /// `n` endpoints, each hosted by [`start_collecting`], and their senders.
    fn started(net: InProcNet) -> (Vec<InProcSender>, Vec<(IngressGuard, Frames)>) {
        let eps = net.into_endpoints();
        let senders = eps.iter().map(InProcEndpoint::sender).collect();
        (senders, eps.into_iter().map(start_collecting).collect())
    }

    fn within(rx: &Frames, timeout: Duration) -> Option<(NodeId, Bytes)> {
        rx.recv_timeout(timeout).ok()
    }

    const LONG: Duration = Duration::from_secs(5);
    const SHORT: Duration = Duration::from_millis(50);

    #[test]
    fn point_to_point_delivery() {
        let (tx, hosts) = started(InProcNet::new(3));
        tx[0].send(NodeId(1), Bytes::from_static(b"to-b"));
        tx[0].send(NodeId(2), Bytes::from_static(b"to-c"));
        let to_b = (NodeId(0), Bytes::from_static(b"to-b"));
        let to_c = (NodeId(0), Bytes::from_static(b"to-c"));
        assert_eq!(within(&hosts[1].1, LONG), Some(to_b));
        assert_eq!(within(&hosts[2].1, LONG), Some(to_c));
        assert_eq!(within(&hosts[1].1, SHORT), None);
        assert_eq!(within(&hosts[0].1, SHORT), None);
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        let (tx, hosts) = started(InProcNet::new(4));
        tx[1].broadcast(&Bytes::from_static(b"hi"));
        for (i, (_, rx)) in hosts.iter().enumerate() {
            if i == 1 {
                assert_eq!(within(rx, SHORT), None);
            } else {
                let hi = (NodeId(1), Bytes::from_static(b"hi"));
                assert_eq!(within(rx, LONG), Some(hi));
            }
        }
    }

    #[test]
    fn cross_thread_traffic() {
        let (tx, hosts) = started(InProcNet::new(2));
        let rx = hosts[1].1.clone();
        let handle = thread::spawn(move || {
            let mut got = 0;
            while got < 100 && within(&rx, LONG).is_some() {
                got += 1;
            }
            got
        });
        for i in 0..100u32 {
            tx[0].send(NodeId(1), Bytes::from(i.to_le_bytes().to_vec()));
        }
        assert_eq!(handle.join().unwrap(), 100);
    }

    #[test]
    fn drop_faults_lose_messages() {
        let faults = NetFaults {
            drop_prob: 1.0,
            duplicate_prob: 0.0,
        };
        let (tx, hosts) = started(InProcNet::with_faults(2, faults, 1));
        tx[0].send(NodeId(1), Bytes::from_static(b"x"));
        assert_eq!(within(&hosts[1].1, SHORT), None);
    }

    #[test]
    fn duplicate_faults_deliver_twice() {
        let faults = NetFaults {
            drop_prob: 0.0,
            duplicate_prob: 1.0,
        };
        let (tx, hosts) = started(InProcNet::with_faults(2, faults, 1));
        tx[0].send(NodeId(1), Bytes::from_static(b"x"));
        assert!(within(&hosts[1].1, LONG).is_some());
        assert!(within(&hosts[1].1, LONG).is_some());
        assert_eq!(within(&hosts[1].1, SHORT), None);
    }

    #[test]
    fn crashed_node_goes_silent_both_ways() {
        let (tx, hosts) = started(InProcNet::new(3));
        tx[0].crash(NodeId(1));
        tx[0].send(NodeId(1), Bytes::from_static(b"dead"));
        assert_eq!(within(&hosts[1].1, SHORT), None);
        tx[1].send(NodeId(0), Bytes::from_static(b"from-dead"));
        assert_eq!(within(&hosts[0].1, SHORT), None);
        // Unrelated traffic still flows.
        tx[0].send(NodeId(2), Bytes::from_static(b"alive"));
        assert!(within(&hosts[2].1, LONG).is_some());
    }

    #[test]
    fn cloned_senders_share_one_node_identity() {
        let (tx, hosts) = started(InProcNet::new(2));
        // Two "worker threads" of node 0 egress through clones concurrently.
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let tx = tx[0].clone();
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
        while let Some((from, _)) = within(&hosts[1].1, LONG) {
            assert_eq!(from, NodeId(0));
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
        eps[0]
            .sender()
            .send(NodeId(9), Bytes::from_static(b"nowhere")); // no panic
        assert_eq!(eps[0].cluster_size(), 2);
        assert_eq!(eps[1].node_id(), NodeId(1));
    }

    /// Splits `ep` into `lanes` link sets.
    fn split(ep: InProcEndpoint, lanes: usize) -> Vec<InProcLinks> {
        let waits = (0..lanes).map(|_| Wait::new().unwrap()).collect();
        ep.split(waits).unwrap()
    }

    /// Polls every lane by hand until `want[i]` frames have reached lane i
    /// or `within` has passed; returns what each lane heard.
    fn poll_lanes(
        lanes: &mut [InProcLinks],
        want: &[usize],
        within: Duration,
    ) -> Vec<Vec<Datagram>> {
        let mut heard = vec![Vec::new(); lanes.len()];
        let deadline = Instant::now() + within;
        while heard.iter().map(Vec::len).ne(want.iter().copied()) && Instant::now() < deadline {
            for (links, heard) in lanes.iter_mut().zip(heard.iter_mut()) {
                links.poll(Duration::from_millis(5), &mut |ev| {
                    if let NetEvent::Frame(from, frame) = ev {
                        heard.push((from, frame));
                    }
                    true
                });
            }
        }
        heard
    }

    fn tagged(lane: usize) -> Bytes {
        Bytes::from(vec![lane as u8])
    }

    #[test]
    fn lane_i_delivers_to_lane_i() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let mut b = split(eps.pop().unwrap(), 2);
        let a = split(eps.pop().unwrap(), 2);
        for (lane, links) in a.iter().enumerate() {
            links.sender().send(NodeId(1), tagged(lane));
        }
        let heard = poll_lanes(&mut b, &[1, 1], LONG);
        assert_eq!(heard[0], [(NodeId(0), tagged(0))]);
        assert_eq!(heard[1], [(NodeId(0), tagged(1))]);
    }

    #[test]
    fn mixed_lane_counts_reach_lane_i_mod_w() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let mut three = split(eps.pop().unwrap(), 3);
        let mut two = split(eps.pop().unwrap(), 2);
        // Node 0's two lanes reach lanes 0 and 1 of node 1's three.
        for (lane, links) in two.iter().enumerate() {
            links.sender().send(NodeId(1), tagged(lane));
        }
        let heard = poll_lanes(&mut three, &[1, 1, 0], LONG);
        assert_eq!(heard[0], [(NodeId(0), tagged(0))]);
        assert_eq!(heard[1], [(NodeId(0), tagged(1))]);
        assert!(heard[2].is_empty());
        // Node 1's lane 2 reaches lane 2 % 2 = 0 of node 0.
        for (lane, links) in three.iter().enumerate() {
            links.sender().send(NodeId(0), tagged(lane));
        }
        let heard = poll_lanes(&mut two, &[2, 1], LONG);
        assert_eq!(heard[0], [(NodeId(1), tagged(0)), (NodeId(1), tagged(2))]);
        assert_eq!(heard[1], [(NodeId(1), tagged(1))]);
        assert_eq!(poll_lanes(&mut two, &[1, 1], SHORT), [vec![], vec![]]);
    }

    #[test]
    fn a_frame_sent_before_the_peer_splits_is_delivered_after() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let b = eps.pop().unwrap();
        let a = split(eps.pop().unwrap(), 2);
        a[1].sender().send(NodeId(1), tagged(1));
        a[0].sender().send(NodeId(1), tagged(0));
        // Both wait unrung in b's lane-0 queue; lane 0's first poll takes
        // them however long it blocks for.
        let mut b = split(b, 2);
        let heard = poll_lanes(&mut b, &[2, 0], LONG);
        assert_eq!(heard[0], [(NodeId(0), tagged(1)), (NodeId(0), tagged(0))]);
        assert!(heard[1].is_empty());
    }

    #[test]
    fn a_crashed_node_is_silent_on_every_lane_both_ways() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let mut b = split(eps.pop().unwrap(), 2);
        let mut a = split(eps.pop().unwrap(), 2);
        // Queued before the crash, then the crash: b drains without delivering.
        for links in &a {
            links.sender().send(NodeId(1), tagged(0));
        }
        a[0].sender().crash(NodeId(1));
        for links in a.iter().chain(&b) {
            let to = NodeId(1 - links.sender().node_id().0);
            links.sender().send(to, tagged(1));
        }
        assert_eq!(poll_lanes(&mut b, &[1, 1], SHORT), [vec![], vec![]]);
        assert_eq!(poll_lanes(&mut a, &[1, 1], SHORT), [vec![], vec![]]);
    }

    /// The ring after the push, the drain after the wake: a datagram pushed
    /// at any point of the receiving lane's wake-up → drain → look sequence
    /// is seen by that look or rings a fresh wake — never left until the
    /// (10 s) poll times out. Pairs of sends a few microseconds apart walk
    /// the second one across that sequence.
    #[test]
    fn a_ring_never_strands_a_pushed_datagram() {
        let mut eps = InProcNet::new(2).into_endpoints();
        let mut b = split(eps.pop().unwrap(), 1).remove(0);
        let tx = split(eps.pop().unwrap(), 1).remove(0).sender();
        let (done_tx, done_rx) = unbounded::<u64>();
        let consumer = thread::spawn(move || {
            let mut running = true;
            while running {
                b.poll(Duration::from_secs(10), &mut |ev| {
                    if let NetEvent::Frame(_, frame) = ev {
                        match <[u8; 8]>::try_from(&frame[..]) {
                            Ok(item) => done_tx.send(u64::from_le_bytes(item)).unwrap(),
                            Err(_) => running = false,
                        }
                    }
                    true
                });
            }
        });
        let post = |item: u64| tx.send(NodeId(1), Bytes::from(item.to_le_bytes().to_vec()));
        for round in 0..10_000u64 {
            post(2 * round);
            let gap = Instant::now();
            while gap.elapsed() < Duration::from_nanos(round % 40 * 500) {
                std::hint::spin_loop();
            }
            let posted = Instant::now();
            post(2 * round + 1);
            for want in [2 * round, 2 * round + 1] {
                let got = done_rx.recv_timeout(Duration::from_secs(20));
                assert_eq!(got, Ok(want), "datagram stranded");
            }
            let waited = posted.elapsed();
            assert!(
                waited < Duration::from_secs(1),
                "a datagram waited {waited:?}"
            );
        }
        tx.send(NodeId(1), Bytes::new());
        consumer.join().unwrap();
    }
}
