use precipice_graph::NodeId;

use crate::SimTime;

/// One observable step of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEntry {
    /// A message was handed to the network.
    Send {
        /// When it was sent.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A message was delivered to a live process.
    Deliver {
        /// When it was delivered.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// A node crashed.
    Crash {
        /// When it crashed.
        at: SimTime,
        /// The crashed node.
        node: NodeId,
    },
    /// The failure detector notified an observer of a crash.
    Notify {
        /// When the notification was delivered.
        at: SimTime,
        /// The subscribed observer.
        observer: NodeId,
        /// The node it was notified about.
        crashed: NodeId,
    },
}

/// Ordered record of a run, plus a running 64-bit hash.
///
/// The hash is updated for *every* entry even when entry storage is
/// disabled (see [`SimConfig::record_trace`](crate::SimConfig)), so
/// determinism can be asserted cheaply on large runs: two runs of the same
/// sealed scenario must produce identical hashes.
#[derive(Debug, Clone)]
pub struct Trace {
    entries: Option<Vec<TraceEntry>>,
    hash: u64,
    len: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Trace {
    pub(crate) fn new(record_entries: bool) -> Self {
        Trace {
            entries: record_entries.then(Vec::new),
            hash: FNV_OFFSET,
            len: 0,
        }
    }

    /// Rearms the trace for a fresh run. An entry buffer still in place
    /// is kept; one that a finished run took with it is replaced by one
    /// allocation with room for `expected` entries.
    pub(crate) fn reset(&mut self, record_entries: bool, expected: usize) {
        if record_entries {
            match &mut self.entries {
                Some(es) => es.clear(),
                None => self.entries = Some(Vec::with_capacity(expected)),
            }
        } else {
            self.entries = None;
        }
        self.hash = FNV_OFFSET;
        self.len = 0;
    }

    pub(crate) fn record(&mut self, entry: TraceEntry) {
        self.mix(&entry);
        self.len += 1;
        if let Some(es) = &mut self.entries {
            es.push(entry);
        }
    }

    fn mix(&mut self, entry: &TraceEntry) {
        let (tag, a, b, c): (u64, u64, u64, u64) = match *entry {
            TraceEntry::Send { at, from, to } => (1, at.as_nanos(), from.0.into(), to.0.into()),
            TraceEntry::Deliver { at, from, to } => (2, at.as_nanos(), from.0.into(), to.0.into()),
            TraceEntry::Crash { at, node } => (3, at.as_nanos(), node.0.into(), 0),
            TraceEntry::Notify {
                at,
                observer,
                crashed,
            } => (4, at.as_nanos(), observer.0.into(), crashed.0.into()),
        };
        for word in [tag, a, b, c] {
            for byte in word.to_le_bytes() {
                self.hash ^= u64::from(byte);
                self.hash = self.hash.wrapping_mul(FNV_PRIME);
            }
        }
    }

    /// Recorded entries, or `None` if entry storage was disabled.
    pub fn entries(&self) -> Option<&[TraceEntry]> {
        self.entries.as_deref()
    }

    /// Number of entries observed (recorded or not).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` if nothing happened.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Running FNV-1a hash over all entries.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<TraceEntry> {
        vec![
            TraceEntry::Send {
                at: SimTime::from_nanos(1),
                from: NodeId(0),
                to: NodeId(1),
            },
            TraceEntry::Deliver {
                at: SimTime::from_nanos(2),
                from: NodeId(0),
                to: NodeId(1),
            },
            TraceEntry::Crash {
                at: SimTime::from_nanos(3),
                node: NodeId(2),
            },
            TraceEntry::Notify {
                at: SimTime::from_nanos(4),
                observer: NodeId(1),
                crashed: NodeId(2),
            },
        ]
    }

    #[test]
    fn recording_stores_entries_and_hash() {
        let mut t = Trace::new(true);
        for e in sample_entries() {
            t.record(e);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.entries().unwrap().len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn hash_is_storage_independent() {
        let mut with = Trace::new(true);
        let mut without = Trace::new(false);
        for e in sample_entries() {
            with.record(e);
            without.record(e);
        }
        assert_eq!(with.hash(), without.hash());
        assert!(without.entries().is_none());
        assert_eq!(without.len(), 4);
    }

    #[test]
    fn hash_depends_on_order_and_content() {
        let mut a = Trace::new(false);
        let mut b = Trace::new(false);
        let es = sample_entries();
        a.record(es[0]);
        a.record(es[1]);
        b.record(es[1]);
        b.record(es[0]);
        assert_ne!(a.hash(), b.hash());

        let mut c = Trace::new(false);
        c.record(TraceEntry::Crash {
            at: SimTime::from_nanos(3),
            node: NodeId(3),
        });
        let mut d = Trace::new(false);
        d.record(TraceEntry::Crash {
            at: SimTime::from_nanos(3),
            node: NodeId(2),
        });
        assert_ne!(c.hash(), d.hash());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(false);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
