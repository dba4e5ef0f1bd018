use hermes_common::NodeId;

/// Configuration of the credit-based flow controller.
#[derive(Clone, Copy, Debug)]
pub struct CreditConfig {
    /// Credits available per peer (receive-buffer slots at the peer).
    pub credits_per_peer: u32,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            credits_per_peer: 32,
        }
    }
}

/// Credit-based flow control (Kung et al., as used by Wings, paper §4.2).
///
/// A sender spends one credit per message to a peer and stalls when the
/// peer's credits run out, bounding receive-buffer usage. Credits return
/// implicitly: a response message doubles as a credit (HermesKV treats each
/// ACK as the credit update for its INV).
///
/// # Examples
///
/// ```
/// use hermes_common::NodeId;
/// use hermes_wings::{CreditConfig, CreditFlow};
///
/// let mut flow = CreditFlow::new(2, CreditConfig { credits_per_peer: 1 });
/// assert!(flow.try_consume(NodeId(1)));
/// assert!(!flow.try_consume(NodeId(1)), "out of credits");
/// flow.on_implicit_credit(NodeId(1));
/// assert!(flow.try_consume(NodeId(1)));
/// ```
#[derive(Debug)]
pub struct CreditFlow {
    cfg: CreditConfig,
    available: Vec<u32>,
    stalls: u64,
}

impl CreditFlow {
    /// Creates a flow controller for a cluster of `n` peers.
    pub fn new(n: usize, cfg: CreditConfig) -> Self {
        CreditFlow {
            cfg,
            available: vec![cfg.credits_per_peer; n],
            stalls: 0,
        }
    }

    /// Attempts to spend one credit toward `peer`; `false` means the caller
    /// must hold the message (backpressure).
    pub fn try_consume(&mut self, peer: NodeId) -> bool {
        let slot = &mut self.available[peer.index()];
        if *slot == 0 {
            self.stalls += 1;
            return false;
        }
        *slot -= 1;
        true
    }

    /// Credits currently available toward `peer`.
    pub fn available(&self, peer: NodeId) -> u32 {
        self.available[peer.index()]
    }

    /// A response arrived from `peer`: one implicit credit returns.
    pub fn on_implicit_credit(&mut self, peer: NodeId) {
        let slot = &mut self.available[peer.index()];
        *slot = (*slot + 1).min(self.cfg.credits_per_peer);
    }

    /// Times `try_consume` failed for lack of credits.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(credits: u32) -> CreditFlow {
        CreditFlow::new(
            3,
            CreditConfig {
                credits_per_peer: credits,
            },
        )
    }

    #[test]
    fn credits_bound_outstanding_messages() {
        let mut f = flow(4);
        for _ in 0..4 {
            assert!(f.try_consume(NodeId(1)));
        }
        assert!(!f.try_consume(NodeId(1)));
        assert_eq!(f.stalls(), 1);
        assert_eq!(f.available(NodeId(1)), 0);
        // Other peers unaffected.
        assert!(f.try_consume(NodeId(2)));
    }

    #[test]
    fn implicit_credits_restore_budget() {
        let mut f = flow(1);
        assert!(f.try_consume(NodeId(0)));
        assert!(!f.try_consume(NodeId(0)));
        f.on_implicit_credit(NodeId(0));
        assert!(f.try_consume(NodeId(0)));
    }

    #[test]
    fn credits_never_exceed_cap() {
        let mut f = flow(2);
        for _ in 0..100 {
            f.on_implicit_credit(NodeId(0));
        }
        assert_eq!(f.available(NodeId(0)), 2);
    }

    #[test]
    fn closed_loop_conservation() {
        // Simulated request/response loop: total in-flight never exceeds the
        // credit budget, and all credits return.
        let mut f = flow(5);
        let mut inflight = 0u32;
        let mut sent = 0;
        for _ in 0..100 {
            while f.try_consume(NodeId(1)) {
                inflight += 1;
                sent += 1;
            }
            assert!(inflight <= 5);
            // Peer responds to everything outstanding.
            for _ in 0..inflight {
                f.on_implicit_credit(NodeId(1));
            }
            inflight = 0;
        }
        assert_eq!(sent, 500);
        assert_eq!(f.available(NodeId(1)), 5);
    }
}
