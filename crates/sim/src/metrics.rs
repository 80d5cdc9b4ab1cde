use std::collections::BTreeMap;

use precipice_graph::NodeId;

use crate::SimTime;

/// Per-node message accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Messages this node sent.
    pub sent: u64,
    /// Bytes this node sent (per [`MessageSize`](crate::MessageSize)).
    pub sent_bytes: u64,
    /// Messages delivered to this node.
    pub delivered: u64,
    /// Event-handler invocations (deliveries + crash notifications).
    /// `on_start` is *not* counted: under lazy activation it runs only
    /// for nodes the run actually touches, and the accounting must be
    /// identical between eager and lazy executions.
    pub activations: u64,
}

/// Aggregate accounting for a simulation run.
///
/// The locality experiments (E4/E5) are built on these counters: the
/// paper's headline claim is that *total* message cost depends on the
/// crashed region, not on the system size, and that *which nodes* spend
/// messages is confined to the region's border
/// ([`nodes_with_traffic`](Metrics::nodes_with_traffic)).
///
/// `PartialEq` compares every counter — the lazy-vs-eager differential
/// tests assert whole-`Metrics` equality.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    // pub(crate): the slot engine keeps these counters in flat tables
    // during a run and materializes a `Metrics` at run finish.
    pub(crate) per_node: BTreeMap<NodeId, NodeMetrics>,
    pub(crate) messages_sent: u64,
    pub(crate) messages_delivered: u64,
    pub(crate) messages_dropped: u64,
    pub(crate) bytes_sent: u64,
    pub(crate) crash_notifications: u64,
    pub(crate) events_processed: u64,
    pub(crate) finished_at: SimTime,
}

impl Metrics {
    /// Records one message of `bytes` handed to the network by `from`.
    ///
    /// The recorders are public so non-simulated backends (the sharded
    /// live runtime) can account into the same structure the checker
    /// and experiment tables consume.
    pub fn record_send(&mut self, from: NodeId, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        let m = self.per_node.entry(from).or_default();
        m.sent += 1;
        m.sent_bytes += bytes as u64;
    }

    /// Records one message delivered to live process `to`.
    pub fn record_delivery(&mut self, to: NodeId) {
        self.messages_delivered += 1;
        self.per_node.entry(to).or_default().delivered += 1;
    }

    /// Records one message dropped at a crashed destination.
    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Records one failure-detector crash notification.
    pub fn record_crash_notification(&mut self) {
        self.crash_notifications += 1;
    }

    /// Records one event-handler activation of `node`.
    pub fn record_activation(&mut self, node: NodeId) {
        self.events_processed += 1;
        self.per_node.entry(node).or_default().activations += 1;
    }

    /// Folds aggregate transport totals from a live (non-simulated)
    /// backend into the run-wide counters. Per-node accounting stays
    /// empty — live backends count at the transport layer, where
    /// attributing every ring transfer to a node would serialize the
    /// shards on a shared map.
    pub fn record_backend_totals(
        &mut self,
        sent: u64,
        bytes: u64,
        delivered: u64,
        dropped: u64,
        notifications: u64,
        events: u64,
    ) {
        self.messages_sent += sent;
        self.bytes_sent += bytes;
        self.messages_delivered += delivered;
        self.messages_dropped += dropped;
        self.crash_notifications += notifications;
        self.events_processed += events;
    }

    /// Total messages handed to the network.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total messages delivered to live processes.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages dropped because their destination had crashed.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Total bytes handed to the network.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Crash notifications delivered by the failure detector.
    pub fn crash_notifications(&self) -> u64 {
        self.crash_notifications
    }

    /// Total handler activations across all nodes.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Virtual time at which the run went quiescent (or was stopped).
    pub fn finished_at(&self) -> SimTime {
        self.finished_at
    }

    /// Per-node counters for `node`, zeroed if it never acted.
    pub fn node(&self, node: NodeId) -> NodeMetrics {
        self.per_node.get(&node).copied().unwrap_or_default()
    }

    /// Nodes that sent at least one message — the footprint the Locality
    /// property (CD3) constrains.
    pub fn nodes_with_traffic(&self) -> Vec<NodeId> {
        self.per_node
            .iter()
            .filter(|(_, m)| m.sent > 0)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Iterates all per-node entries.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &NodeMetrics)> + '_ {
        self.per_node.iter().map(|(&n, m)| (n, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::default();
        m.record_send(NodeId(0), 10);
        m.record_send(NodeId(0), 5);
        m.record_send(NodeId(1), 7);
        m.record_delivery(NodeId(1));
        m.record_drop();
        m.record_crash_notification();
        m.record_activation(NodeId(1));
        m.finished_at = SimTime::from_millis(9);

        assert_eq!(m.messages_sent(), 3);
        assert_eq!(m.bytes_sent(), 22);
        assert_eq!(m.messages_delivered(), 1);
        assert_eq!(m.messages_dropped(), 1);
        assert_eq!(m.crash_notifications(), 1);
        assert_eq!(m.events_processed(), 1);
        assert_eq!(m.finished_at(), SimTime::from_millis(9));
        assert_eq!(m.node(NodeId(0)).sent, 2);
        assert_eq!(m.node(NodeId(0)).sent_bytes, 15);
        assert_eq!(m.node(NodeId(99)), NodeMetrics::default());
        assert_eq!(m.nodes_with_traffic(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(m.iter_nodes().count(), 2);
    }

    #[test]
    fn backend_totals_fold_without_per_node_entries() {
        let mut m = Metrics::default();
        m.record_backend_totals(10, 400, 8, 2, 3, 11);
        assert_eq!(m.messages_sent(), 10);
        assert_eq!(m.bytes_sent(), 400);
        assert_eq!(m.messages_delivered(), 8);
        assert_eq!(m.messages_dropped(), 2);
        assert_eq!(m.crash_notifications(), 3);
        assert_eq!(m.events_processed(), 11);
        assert_eq!(m.iter_nodes().count(), 0);
    }
}
