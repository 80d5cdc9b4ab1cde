use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use precipice_graph::NodeId;

use crate::quiesce::Outstanding;

/// Inbox traffic of a live node: either a protocol message or a
/// failure-detector notification. Generic over the raw protocol payload.
#[derive(Debug)]
pub(crate) enum Inbox<M> {
    /// A protocol message from a peer.
    Proto {
        /// Sender.
        from: NodeId,
        /// Payload.
        message: M,
    },
    /// The failure detector reports `0`'s crash.
    Crash(NodeId),
    /// Orderly termination (not a crash): drain and exit.
    Shutdown,
}

struct OracleState<M> {
    /// Ground-truth kills.
    crashed: BTreeSet<NodeId>,
    /// target -> observers awaiting its crash.
    subscribers: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Exactly-once notification guard.
    notified: BTreeSet<(NodeId, NodeId)>,
    /// Inbox senders, per node.
    inboxes: BTreeMap<NodeId, Sender<Inbox<M>>>,
}

/// The kill-switch perfect failure detector shared by a
/// [`LiveCluster`](crate::LiveCluster).
///
/// Strong accuracy: only killed nodes (via
/// [`LiveCluster::kill`](crate::LiveCluster::kill)) are ever reported.
/// Strong completeness: every subscriber of a killed node is notified
/// exactly once — immediately if it subscribes after the kill.
pub struct Oracle<M> {
    state: Mutex<OracleState<M>>,
    /// Outstanding (sent, not yet fully processed) events across the
    /// cluster; zero means quiescent.
    pending: Outstanding,
}

impl<M> std::fmt::Debug for Oracle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Oracle")
            .field("crashed", &state.crashed)
            .field("pending", &self.pending.get())
            .finish()
    }
}

impl<M> Oracle<M> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Oracle {
            state: Mutex::new(OracleState {
                crashed: BTreeSet::new(),
                subscribers: BTreeMap::new(),
                notified: BTreeSet::new(),
                inboxes: BTreeMap::new(),
            }),
            pending: Outstanding::default(),
        })
    }

    pub(crate) fn register(&self, node: NodeId, sender: Sender<Inbox<M>>) {
        self.state.lock().inboxes.insert(node, sender);
    }

    /// Counts one unit of outstanding work that is not an inbox event
    /// (a node's `Init` handler, charged at spawn and acknowledged via
    /// [`Oracle::done`] once the handler ran). Without it, quiescence
    /// could be declared while a freshly spawned thread — whose `Init`
    /// subscribes to neighbours and may immediately observe a crash —
    /// has not been scheduled yet.
    pub(crate) fn charge(&self) {
        self.pending.charge();
    }

    /// Sends an inbox event, bumping the pending counter.
    pub(crate) fn post(&self, to: NodeId, event: Inbox<M>) {
        let state = self.state.lock();
        if let Some(tx) = state.inboxes.get(&to) {
            self.pending.charge();
            if tx.send(event).is_err() {
                // Receiver already gone (killed/shut down): the event
                // will never be processed.
                self.pending.done();
            }
        }
    }

    /// Marks one posted event (or charged work unit) as fully
    /// processed; the acknowledgement that reaches zero wakes
    /// [`Oracle::await_zero`].
    pub(crate) fn done(&self) {
        self.pending.done();
    }

    /// Current number of posted-but-unprocessed events and charged work
    /// units (zero exactly when the cluster is quiescent).
    pub fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// Blocks until nothing is outstanding or `timeout` elapses;
    /// `true` on zero.
    pub(crate) fn await_zero(&self, timeout: Duration) -> bool {
        self.pending.wait_zero(timeout)
    }

    /// Subscribes `observer` to `target`'s crash; notifies at once if
    /// `target` is already dead.
    pub(crate) fn subscribe(&self, observer: NodeId, target: NodeId) {
        let already_crashed = {
            let mut state = self.state.lock();
            if state.crashed.contains(&target) {
                state.notified.insert((observer, target))
            } else {
                state
                    .subscribers
                    .entry(target)
                    .or_default()
                    .insert(observer);
                false
            }
        };
        if already_crashed {
            self.post(observer, Inbox::Crash(target));
        }
    }

    /// Records `target`'s crash and notifies all current subscribers.
    pub(crate) fn kill(&self, target: NodeId) -> Vec<NodeId> {
        let to_notify: Vec<NodeId> = {
            let mut state = self.state.lock();
            if !state.crashed.insert(target) {
                return Vec::new();
            }
            // A dead node's inbox must not accumulate further traffic.
            state.inboxes.remove(&target);
            let observers = state.subscribers.remove(&target).unwrap_or_default();
            observers
                .into_iter()
                .filter(|obs| state.notified.insert((*obs, target)))
                .collect()
        };
        for obs in &to_notify {
            self.post(*obs, Inbox::Crash(target));
        }
        to_notify
    }

    /// `true` if `node` was killed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.state.lock().crashed.contains(&node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn subscribe_then_kill_notifies_once() {
        let oracle: Arc<Oracle<()>> = Oracle::new();
        let (tx, rx) = unbounded();
        oracle.register(NodeId(0), tx);
        oracle.subscribe(NodeId(0), NodeId(5));
        oracle.subscribe(NodeId(0), NodeId(5));
        assert_eq!(oracle.kill(NodeId(5)), vec![NodeId(0)]);
        assert!(matches!(rx.try_recv(), Ok(Inbox::Crash(NodeId(5)))));
        assert!(rx.try_recv().is_err(), "exactly once");
        assert_eq!(oracle.pending(), 1, "notification not yet processed");
        oracle.done();
        assert_eq!(oracle.pending(), 0);
    }

    #[test]
    fn late_subscription_fires_immediately() {
        let oracle: Arc<Oracle<()>> = Oracle::new();
        let (tx, rx) = unbounded();
        oracle.register(NodeId(1), tx);
        oracle.kill(NodeId(9));
        oracle.subscribe(NodeId(1), NodeId(9));
        assert!(matches!(rx.try_recv(), Ok(Inbox::Crash(NodeId(9)))));
        assert!(oracle.is_crashed(NodeId(9)));
    }

    #[test]
    fn double_kill_is_noop() {
        let oracle: Arc<Oracle<()>> = Oracle::new();
        let (tx, rx) = unbounded();
        oracle.register(NodeId(0), tx);
        oracle.subscribe(NodeId(0), NodeId(2));
        oracle.kill(NodeId(2));
        assert!(oracle.kill(NodeId(2)).is_empty());
        let _ = rx.try_recv();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn posts_to_killed_nodes_are_dropped() {
        let oracle: Arc<Oracle<()>> = Oracle::new();
        let (tx, rx) = unbounded();
        oracle.register(NodeId(3), tx);
        oracle.kill(NodeId(3));
        oracle.post(NodeId(3), Inbox::Shutdown);
        assert!(rx.try_recv().is_err(), "inbox unregistered on kill");
        assert_eq!(oracle.pending(), 0);
    }
}
