//! The simulator's one event loop: the run *slot*.
//!
//! A slot hosts one run at a time and runs it to the end.
//! [`Simulation`](crate::Simulation) owns a slot for a single run;
//! [`BatchSim`](crate::BatchSim) reuses one slot for run after run over
//! one shared topology.
//!
//! Every evaluation table and `check` budget in this repro is thousands
//! of near-identical small runs, so the per-run constant factors — not
//! any single run's asymptotics — bound how wide the tables can get.
//! The slot is built around that:
//!
//! - **Arena reuse.** A slot's event slab, node slots, channel slots,
//!   heap, frontier and scratch vectors are cleared, never freed,
//!   between the runs it hosts. The trace entries and the explorer's
//!   deviation list are not reused: a finished run hands both to its
//!   [`BatchRun`], so the slot remembers how long they got and the next
//!   run allocates each once, at that capacity. After warm-up, a run
//!   allocates those two buffers and what the protocol itself
//!   allocates.
//! - **Slab + 12-byte heap keys.** Events live in a slab with a free
//!   list; the FIFO hot path orders `(time, seq, idx)` keys, never
//!   moving message payloads through sift operations.
//! - **Incremental enabled frontier.** Under an exploring policy the
//!   enabled set (per-channel FIFO heads plus all crash/notify events)
//!   is maintained incrementally in a seq-ordered vector and
//!   per-channel intrusive lists, so a scheduling decision never
//!   rescans the pending events. The slot also keeps the frontier's
//!   FIFO choice, its `(at, seq)` minimum: enabling an event lowers it,
//!   and it is forgotten only when the policy picks that very event, so
//!   the frontier is scanned for it only on the step after a FIFO pick
//!   (rare under `Random`, about a third of `Pcr` steps). Beside the
//!   frontier, each target node's enabled entries are kept in seq order
//!   (a `TargetIndex`: one intrusive list per node slot, linked through
//!   the slab indices), so a `Pcr`
//!   pick — and a `Guided` extension pick — draws among the FIFO
//!   choice's dependents and finds the drawn one by binary search,
//!   without filtering the frontier (1 to 14 dependents against about
//!   75 frontier entries on the `check_fuzz` shape). A delivery
//!   carries its channel slot, so neither building its stable key nor
//!   advancing its channel's head looks the channel up.
//! - **Open-addressed node/channel tables.** Per-event bookkeeping
//!   (crash flags, per-node counters, FIFO clamps, channel delivery
//!   counts) hits small Fibonacci-hashed `u64 -> u32` maps and dense
//!   vectors, sized by the run's *footprint* rather than by `n`;
//!   per-node [`Metrics`] are materialized once at run finish.
//!
//! What the loop must compute is pinned by a deliberately naive
//! test-only interpreter (`reference.rs`): the differential tests there
//! and in `batch.rs` require equal [`RunOutcome`], [`Metrics`], [`Trace`]
//! (hash *and* entries), honored [`Schedule`](crate::Schedule) and final
//! process states.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use precipice_core::FailureDetector;
use precipice_graph::{rng::Rng, NodeId};

use crate::batch::BatchRun;
use crate::explore::{EventKey, Explorer, FrontierEntry, SchedulePolicy};
use crate::process::{Command, Context, Process};
use crate::sim::SimConfig;
use crate::trace::TraceEntry;
use crate::{MessageSize, Metrics, NodeMetrics, RunOutcome, SimTime, Trace};

/// Sentinel for "no slab index" in intrusive channel lists.
const NONE: u32 = u32::MAX;

/// Open-addressed `u64 -> u32` map with Fibonacci hashing and linear
/// probing: the per-event node/channel lookups are the hottest
/// operations in a run, and a SipHash-ed `HashMap` spends more time
/// hashing the 8-byte key than probing. Insert-only between clears
/// (values are stable slot indices), so there are no tombstones. The
/// live runtime's shards index their node slots with it too.
///
/// Keys must not be `u64::MAX`, the empty-bucket marker; node ids and
/// packed `(from, to)` channel keys never are.
#[derive(Debug)]
pub struct MiniMap {
    slots: Vec<(u64, u32)>,
    len: usize,
}

/// Empty-slot marker; never a valid key (node keys fit in 32 bits and
/// channel keys pack two 32-bit ids).
const EMPTY: u64 = u64::MAX;

impl Default for MiniMap {
    fn default() -> Self {
        Self::new()
    }
}

impl MiniMap {
    /// An empty map of sixteen buckets.
    pub fn new() -> Self {
        MiniMap {
            slots: vec![(EMPTY, 0); 16],
            len: 0,
        }
    }

    pub(crate) fn clear(&mut self) {
        self.slots.fill((EMPTY, 0));
        self.len = 0;
    }

    #[inline]
    fn bucket(key: u64, mask: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64/φ, keep high bits.
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize) & mask
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = Self::bucket(key, mask);
        loop {
            let (k, v) = self.slots[i];
            if k == key {
                return Some(v);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a key known to be absent.
    pub fn insert(&mut self, key: u64, value: u32) {
        if (self.len + 1) * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::bucket(key, mask);
        while self.slots[i].0 != EMPTY {
            debug_assert_ne!(self.slots[i].0, key, "duplicate MiniMap insert");
            i = (i + 1) & mask;
        }
        self.slots[i] = (key, value);
        self.len += 1;
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = mem::replace(&mut self.slots, vec![(EMPTY, 0); doubled]);
        let mask = self.slots.len() - 1;
        for (k, v) in old {
            if k == EMPTY {
                continue;
            }
            let mut i = Self::bucket(k, mask);
            while self.slots[i].0 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (k, v);
        }
    }
}

/// Per node slot, its enabled frontier entries in seq order: the
/// dependent set of a FIFO choice at that node, which
/// [`Explorer::choose`] draws from under `Pcr` and `Guided`. Each list
/// is intrusive — linked through its entries' slab indices, like the
/// channel FIFOs — so the index grows with the slab and the node slots,
/// never per list, and keeps its allocations between runs.
#[derive(Default)]
pub(crate) struct TargetIndex {
    /// Per node slot: its list's ends and length.
    lists: Vec<TargetList>,
    /// Per slab index: the entry's seq, its node slot and its
    /// neighbours in that slot's list.
    links: Vec<TargetLink>,
}

#[derive(Clone, Copy)]
struct TargetList {
    head: u32,
    tail: u32,
    len: u32,
}

#[derive(Clone, Copy, Default)]
struct TargetLink {
    seq: u64,
    target: u32,
    prev: u32,
    next: u32,
}

const NO_TARGET_LIST: TargetList = TargetList {
    head: NONE,
    tail: NONE,
    len: 0,
};

impl TargetIndex {
    pub(crate) fn clear(&mut self) {
        self.lists.fill(NO_TARGET_LIST);
    }

    /// Adds entry `idx`, of sequence number `seq`, to `target`'s list.
    /// Fresh events append; a delivery unlocked behind later ones walks
    /// back from the tail to its place.
    pub(crate) fn enable(&mut self, target: usize, idx: u32, seq: u64) {
        // Grown in powers of two from room for a small run, so a cold
        // run allocates each vector a few times, not once per doubling
        // from empty.
        if self.lists.len() <= target {
            let len = (target + 1).next_power_of_two().max(64);
            self.lists.resize(len, NO_TARGET_LIST);
        }
        if self.links.len() <= idx as usize {
            let len = (idx as usize + 1).next_power_of_two().max(256);
            self.links.resize(len, TargetLink::default());
        }
        let list = &mut self.lists[target];
        let mut prev = list.tail;
        while prev != NONE && self.links[prev as usize].seq > seq {
            prev = self.links[prev as usize].prev;
        }
        let next = match prev {
            NONE => mem::replace(&mut list.head, idx),
            _ => mem::replace(&mut self.links[prev as usize].next, idx),
        };
        match next {
            NONE => list.tail = idx,
            _ => self.links[next as usize].prev = idx,
        }
        list.len += 1;
        let target = target as u32;
        self.links[idx as usize] = TargetLink {
            seq,
            target,
            prev,
            next,
        };
    }

    /// Takes entry `idx`, which must be enabled, off its target's list.
    pub(crate) fn disable(&mut self, idx: u32) {
        let TargetLink {
            target, prev, next, ..
        } = self.links[idx as usize];
        let list = &mut self.lists[target as usize];
        match prev {
            NONE => list.head = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NONE => list.tail = prev,
            _ => self.links[next as usize].prev = prev,
        }
        list.len -= 1;
    }

    /// The enabled seqs, ascending, at the target of entry `idx`, which
    /// must be enabled.
    pub(crate) fn dependents_of(&self, idx: u32) -> impl ExactSizeIterator<Item = u64> + '_ {
        let list = self.lists[self.links[idx as usize].target as usize];
        let mut at = list.head;
        (0..list.len).map(move |_| {
            let link = self.links[at as usize];
            at = link.next;
            link.seq
        })
    }
}

enum EventKind<M> {
    /// `ci` is the channel slot of `from -> to`, so the explorer's
    /// per-step bookkeeping reaches the channel without a map lookup.
    Deliver {
        to: NodeId,
        from: NodeId,
        ci: u32,
        msg: M,
    },
    Notify {
        to: NodeId,
        crashed: NodeId,
    },
    Crash {
        node: NodeId,
    },
}

/// A scheduled event as it sits in the slab.
struct Entry<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

/// FIFO-ordering key into the event slab; what the heap sifts instead
/// of whole entries (message payloads stay put in the slab).
#[derive(PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    // Reversed: BinaryHeap is a max-heap, we need the earliest event.
    // Total over `(time, seq)`, so equal timestamps pop in the order
    // they were scheduled, independent of heap internals.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Per-directed-channel state: the FIFO clamp (last scheduled delivery
/// time; clamping new deliveries to it keeps the channel FIFO under
/// jittery latency), the executed-delivery count (the `nth` of the
/// next delivery's [`EventKey`]), and the pending-delivery FIFO as an
/// intrusive list through the slab.
struct Channel {
    last_at: SimTime,
    delivered: u32,
    head: u32,
    tail: u32,
}

/// Per-touched-node state: the process (once activated), the crash
/// flag and the per-node counters.
pub(crate) struct NodeSlot<P> {
    pub(crate) id: NodeId,
    pub(crate) proc: Option<P>,
    pub(crate) crashed: bool,
    stats: NodeMetrics,
}

/// Aggregate counters, folded into a [`Metrics`] at run finish.
#[derive(Default, Clone, Copy)]
struct Counters {
    sent: u64,
    delivered: u64,
    dropped: u64,
    bytes: u64,
    notifications: u64,
    activations: u64,
}

/// One reusable run slot: the event loop and all per-run mutable
/// state. Vectors and maps are cleared, never freed, between the runs
/// a slot hosts — except the two buffers a run's result takes with it
/// (see `last_trace_entries`).
pub(crate) struct Slot<P: Process> {
    config: SimConfig,
    pub(crate) n: usize,
    /// Event slab. Executed entries become `None` tombstones whose
    /// indices go on the `free` list (the frontier and the heap index
    /// the slab; nothing ever scans it).
    slab: Vec<Option<Entry<P::Msg>>>,
    free: Vec<u32>,
    /// Live event count (slab occupancy).
    live: usize,
    /// Intrusive next-pointers, parallel to `slab`: the per-channel
    /// pending-delivery FIFO.
    next_link: Vec<u32>,
    /// FIFO hot path: latency-ordered keys into the slab.
    heap: BinaryHeap<HeapKey>,
    /// Exploring hot path: enabled events (per-channel heads plus every
    /// crash/notify) as a seq-sorted vector — the policy picks over this
    /// slice directly, with no per-step candidate rebuild. A policy's RNG
    /// draw is an index into it, so the seq order is part of every
    /// explored stream (`tests/schedule_corpus.rs` pins them).
    frontier: Vec<FrontierEntry>,
    /// The frontier's FIFO choice, its `(at, seq)` minimum, while known:
    /// [`enable`](Self::enable) lowers it, and only picking the FIFO
    /// event itself (or a reset) forgets it, so `pop_next` rescans the
    /// frontier only on the steps after a FIFO pick.
    fifo_min: Option<(SimTime, u64)>,
    /// The frontier's seqs per target, by node slot.
    by_target: TargetIndex,
    pub(crate) explorer: Option<Explorer>,
    /// Crashes asked for since the last [`commit_crashes`](Self::commit_crashes),
    /// one per node — the earliest time asked for, in first-call order
    /// (`ScenarioBuilder::build`'s rule). A node therefore never has two
    /// pending crash events under its one `EventKey::Crash`, which a
    /// replay could only resolve to one of them.
    crash_plan: Vec<(NodeId, SimTime)>,
    crash_index: MiniMap,
    fd: FailureDetector,
    pub(crate) nodes: Vec<NodeSlot<P>>,
    node_map: MiniMap,
    channels: Vec<Channel>,
    chan_map: MiniMap,
    counters: Counters,
    pub(crate) trace: Trace,
    /// Lengths the trace entries and the deviation list reached in the
    /// last run that had them. [`collect`](Self::collect) moves both
    /// buffers into the `BatchRun`, so [`reset`](Self::reset) allocates
    /// the next run's at these capacities instead of regrowing them
    /// from empty.
    last_trace_entries: usize,
    last_deviations: usize,
    rng: Rng,
    pub(crate) time: SimTime,
    seq: u64,
    pub(crate) events_processed: u64,
    command_buf: Vec<Command<P::Msg>>,
}

#[inline]
pub(crate) fn chan_key(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from.0) << 32) | u64::from(to.0)
}

impl<P: Process> Slot<P> {
    pub(crate) fn new() -> Self {
        let config = SimConfig::default();
        Slot {
            config,
            n: 0,
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_link: Vec::new(),
            heap: BinaryHeap::new(),
            frontier: Vec::new(),
            fifo_min: None,
            by_target: TargetIndex::default(),
            explorer: None,
            crash_plan: Vec::new(),
            crash_index: MiniMap::new(),
            fd: FailureDetector::new(),
            nodes: Vec::new(),
            node_map: MiniMap::new(),
            channels: Vec::new(),
            chan_map: MiniMap::new(),
            counters: Counters::default(),
            trace: Trace::new(false),
            last_trace_entries: 0,
            last_deviations: 0,
            rng: Rng::seed_from_u64(config.seed),
            time: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
            command_buf: Vec::new(),
        }
    }

    /// Rearms the slot for a fresh run over nodes `0..n`, keeping every
    /// reusable allocation.
    pub(crate) fn reset(
        &mut self,
        config: SimConfig,
        n: usize,
        policy: SchedulePolicy,
        fd: FailureDetector,
    ) {
        self.config = config;
        self.n = n;
        self.slab.clear();
        self.free.clear();
        self.live = 0;
        self.next_link.clear();
        self.heap.clear();
        self.frontier.clear();
        self.fifo_min = None;
        self.by_target.clear();
        self.explorer = Explorer::new(policy);
        if let Some(explorer) = &mut self.explorer {
            explorer.reserve(self.last_deviations);
        }
        self.crash_plan.clear();
        self.crash_index.clear();
        self.fd = fd;
        self.nodes.clear();
        self.node_map.clear();
        self.channels.clear();
        self.chan_map.clear();
        self.counters = Counters::default();
        self.trace
            .reset(config.record_trace, self.last_trace_entries);
        self.rng = Rng::seed_from_u64(config.seed);
        self.time = SimTime::ZERO;
        self.seq = 0;
        self.events_processed = 0;
        self.command_buf.clear();
    }

    /// Plans `node` to crash at `at`; the crash becomes an event at the
    /// next [`commit_crashes`](Self::commit_crashes).
    pub(crate) fn schedule_crash(&mut self, node: NodeId, at: SimTime) {
        assert!(node.index() < self.n, "no such node {node}");
        assert!(at >= self.time, "cannot schedule a crash in the past");
        match self.crash_index.get(u64::from(node.0)) {
            Some(i) => {
                let planned = &mut self.crash_plan[i as usize].1;
                *planned = (*planned).min(at);
            }
            None => {
                let i = self.crash_plan.len() as u32;
                self.crash_index.insert(u64::from(node.0), i);
                self.crash_plan.push((node, at));
            }
        }
    }

    /// Turns the planned crashes into events. Drivers call this before
    /// they step the run.
    pub(crate) fn commit_crashes(&mut self) {
        let mut plan = mem::take(&mut self.crash_plan);
        for (node, at) in plan.drain(..) {
            self.push_other(at, EventKind::Crash { node });
        }
        self.crash_plan = plan;
        self.crash_index.clear();
    }

    /// Events waiting to run, planned crashes included.
    pub(crate) fn queued(&self) -> usize {
        self.live + self.crash_plan.len()
    }

    /// Eager start, part one: installs `processes[i]` as node `i`, so
    /// no event ever spawns.
    pub(crate) fn install(&mut self, processes: Vec<P>) {
        debug_assert!(self.nodes.is_empty() && processes.len() == self.n);
        for (i, proc) in processes.into_iter().enumerate() {
            let ni = self.node_slot(NodeId::from_index(i));
            self.nodes[ni].proc = Some(proc);
        }
    }

    /// Eager start, part two: runs every installed process's `on_start`
    /// (sends and monitors included) at the current time, in id order.
    pub(crate) fn start_installed(&mut self) {
        for ni in 0..self.nodes.len() {
            let me = self.nodes[ni].id;
            self.handle(ni, me, |p, ctx| p.on_start(ctx));
        }
    }

    /// Allocates a slab index for `entry`, reusing tombstones.
    fn alloc(&mut self, entry: Entry<P::Msg>) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(entry);
                self.next_link[i as usize] = NONE;
                i
            }
            None => {
                self.slab.push(Some(entry));
                self.next_link.push(NONE);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Inserts into the seq-sorted frontier and its target's list (the
    /// target gets its node slot here, if it has none yet), lowering a
    /// known FIFO minimum if `e` undercuts it. (The minimum
    /// is known only after a non-FIFO pick moved the clock past it, and
    /// no event is scheduled before the clock, so today this never
    /// fires; it keeps the cache right without that argument.) New
    /// events carry the highest seq so far, so this is usually a plain
    /// append, found without a search; a delivery unlocked mid-frontier
    /// pays a binary search and one small memmove.
    fn enable(&mut self, e: FrontierEntry) {
        match self.frontier.last() {
            Some(last) if last.seq > e.seq => {
                let pos = self.frontier.partition_point(|f| f.seq < e.seq);
                self.frontier.insert(pos, e);
            }
            _ => self.frontier.push(e),
        }
        let ni = self.node_slot(e.target);
        self.by_target.enable(ni, e.idx, e.seq);
        if let Some(min) = &mut self.fifo_min {
            *min = (*min).min((e.at, e.seq));
        }
    }

    /// The frontier's `(at, seq)` minimum by a full scan.
    fn scan_fifo_min(frontier: &[FrontierEntry]) -> (SimTime, u64) {
        frontier
            .iter()
            .map(|f| (f.at, f.seq))
            .min()
            .expect("frontier is non-empty")
    }

    /// Schedules a crash or failure-detector notification (always
    /// individually enabled under an exploring policy).
    fn push_other(&mut self, at: SimTime, kind: EventKind<P::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        let target = match kind {
            EventKind::Crash { node } => node,
            EventKind::Notify { to, .. } | EventKind::Deliver { to, .. } => to,
        };
        let idx = self.alloc(Entry { at, seq, kind });
        if self.explorer.is_some() {
            self.enable(FrontierEntry {
                idx,
                seq,
                at,
                target,
            });
        } else {
            self.heap.push(HeapKey { at, seq, idx });
        }
    }

    /// Schedules a delivery on channel slot `ci` (enabled only as the
    /// channel head under an exploring policy).
    fn push_deliver(&mut self, at: SimTime, to: NodeId, from: NodeId, msg: P::Msg, ci: u32) {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.alloc(Entry {
            at,
            seq,
            kind: EventKind::Deliver { to, from, ci, msg },
        });
        if self.explorer.is_some() {
            let ch = &mut self.channels[ci as usize];
            if ch.head == NONE {
                ch.head = idx;
                ch.tail = idx;
                self.enable(FrontierEntry {
                    idx,
                    seq,
                    at,
                    target: to,
                });
            } else {
                self.next_link[ch.tail as usize] = idx;
                ch.tail = idx;
            }
        } else {
            self.heap.push(HeapKey { at, seq, idx });
        }
    }

    /// The slot of `node`, if the run touched it.
    pub(crate) fn node(&self, node: NodeId) -> Option<&NodeSlot<P>> {
        let i = self.node_map.get(u64::from(node.0))?;
        Some(&self.nodes[i as usize])
    }

    /// Dense slot for `node`, created on first touch.
    fn node_slot(&mut self, node: NodeId) -> usize {
        if let Some(i) = self.node_map.get(u64::from(node.0)) {
            return i as usize;
        }
        let i = self.nodes.len();
        self.nodes.push(NodeSlot {
            id: node,
            proc: None,
            crashed: false,
            stats: NodeMetrics::default(),
        });
        self.node_map.insert(u64::from(node.0), i as u32);
        i
    }

    /// Dense slot for the directed channel `from -> to`, created on
    /// first send.
    fn chan_slot(&mut self, from: NodeId, to: NodeId) -> u32 {
        let key = chan_key(from, to);
        if let Some(i) = self.chan_map.get(key) {
            return i;
        }
        let i = self.channels.len() as u32;
        self.channels.push(Channel {
            last_at: SimTime::ZERO,
            delivered: 0,
            head: NONE,
            tail: NONE,
        });
        self.chan_map.insert(key, i);
        i
    }

    /// Takes the next event out of the slab: the latency-ordered head
    /// under FIFO, or the installed policy's pick over the *enabled*
    /// events otherwise. An event is enabled unless an earlier message
    /// on the same FIFO channel is still pending (delivering it first
    /// would violate the channel contract); crashes and
    /// failure-detector notifications are always enabled. Per-channel
    /// clamping makes a channel's head its earliest-timed message, so
    /// the global `(time, seq)` minimum is always enabled and FIFO
    /// replay is exact.
    fn pop_next(&mut self) -> Entry<P::Msg> {
        let idx = if let Some(explorer) = self.explorer.as_mut() {
            let (slab, channels, frontier) = (&self.slab, &self.channels, &self.frontier);
            let by_target = &self.by_target;
            let min = *self
                .fifo_min
                .get_or_insert_with(|| Self::scan_fifo_min(frontier));
            debug_assert_eq!(min, Self::scan_fifo_min(frontier), "stale FIFO minimum");
            let fifo = frontier.partition_point(|f| f.seq < min.1);
            let dependents = || by_target.dependents_of(frontier[fifo].idx);
            debug_assert!(
                {
                    let target = frontier[fifo].target;
                    let scan = frontier.iter().filter(|f| f.target == target);
                    dependents().eq(scan.map(|f| f.seq))
                },
                "stale dependent index"
            );
            // Stable keys are built on demand only — for deviation
            // records and replay matching — never in the per-step scan.
            let key_of = |i: usize| {
                let e = slab[frontier[i].idx as usize]
                    .as_ref()
                    .expect("frontier entry is live");
                match e.kind {
                    EventKind::Deliver { to, from, ci, .. } => EventKey::Deliver {
                        from,
                        to,
                        nth: channels[ci as usize].delivered,
                    },
                    EventKind::Notify { to, crashed } => EventKey::Notify {
                        observer: to,
                        crashed,
                    },
                    EventKind::Crash { node } => EventKey::Crash { node },
                }
            };
            let choice = explorer.choose(frontier, fifo, dependents, key_of);
            if choice == fifo {
                self.fifo_min = None;
            }
            let picked = self.frontier.remove(choice);
            self.by_target.disable(picked.idx);
            let e = self.slab[picked.idx as usize]
                .as_ref()
                .expect("picked entry is live");
            if let EventKind::Deliver { ci, .. } = e.kind {
                let ch = &mut self.channels[ci as usize];
                debug_assert_eq!(ch.head, picked.idx);
                // Counts executed deliveries, including ones dropped at
                // a crashed receiver — they consume a decision too.
                ch.delivered += 1;
                let next = self.next_link[picked.idx as usize];
                ch.head = next;
                if next == NONE {
                    ch.tail = NONE;
                } else {
                    let ne = self.slab[next as usize]
                        .as_ref()
                        .expect("successor is live");
                    let target = match ne.kind {
                        EventKind::Deliver { to, .. } => to,
                        _ => unreachable!("channel lists hold deliveries only"),
                    };
                    let (seq, at) = (ne.seq, ne.at);
                    self.enable(FrontierEntry {
                        idx: next,
                        seq,
                        at,
                        target,
                    });
                }
            }
            picked.idx
        } else {
            self.heap.pop().expect("live events queued").idx
        };
        self.live -= 1;
        self.free.push(idx);
        self.slab[idx as usize]
            .take()
            .expect("popped entry is live")
    }

    /// Runs to quiescence or to the configured event cap. A finished
    /// run stays finished: calling again returns the same outcome.
    ///
    /// Under an exploring policy virtual time is the running maximum of
    /// the executed events' scheduled times (it never runs backwards).
    pub(crate) fn run(&mut self, spawn: &mut impl FnMut(NodeId) -> P) -> RunOutcome {
        loop {
            if self.live == 0 {
                return RunOutcome::Quiescent {
                    events: self.events_processed,
                    at: self.time,
                };
            }
            if let Some(cap) = self.config.max_events {
                if self.events_processed >= cap {
                    return RunOutcome::LimitReached {
                        events: self.events_processed,
                        at: self.time,
                    };
                }
            }
            let entry = self.pop_next();
            self.events_processed += 1;
            debug_assert!(
                self.explorer.is_some() || entry.at >= self.time,
                "time went backwards"
            );
            self.time = self.time.max(entry.at);
            self.dispatch(spawn, entry.kind);
        }
    }

    fn dispatch(&mut self, spawn: &mut impl FnMut(NodeId) -> P, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::Crash { node } => {
                let ni = self.node_slot(node);
                if self.nodes[ni].crashed {
                    return;
                }
                self.nodes[ni].crashed = true;
                self.trace.record(TraceEntry::Crash {
                    at: self.time,
                    node,
                });
                for observer in self.fd.record_crash(node) {
                    self.schedule_notify(observer, node);
                }
            }
            EventKind::Deliver { to, from, msg, .. } => {
                let ni = self.node_slot(to);
                if self.nodes[ni].crashed {
                    self.counters.dropped += 1;
                    return;
                }
                self.activate_if_needed(spawn, ni, to);
                self.counters.delivered += 1;
                self.counters.activations += 1;
                let stats = &mut self.nodes[ni].stats;
                stats.delivered += 1;
                stats.activations += 1;
                self.trace.record(TraceEntry::Deliver {
                    at: self.time,
                    from,
                    to,
                });
                self.handle(ni, to, |p, ctx| p.on_message(from, msg, ctx));
            }
            EventKind::Notify { to, crashed } => {
                let ni = self.node_slot(to);
                if self.nodes[ni].crashed {
                    return;
                }
                self.activate_if_needed(spawn, ni, to);
                self.counters.notifications += 1;
                self.counters.activations += 1;
                self.nodes[ni].stats.activations += 1;
                self.trace.record(TraceEntry::Notify {
                    at: self.time,
                    observer: to,
                    crashed,
                });
                self.handle(ni, to, |p, ctx| p.on_crash_notification(crashed, ctx));
            }
        }
    }

    /// Lazy activation: a node's process is spawned — and its
    /// `on_start` run, sends and monitors included — immediately before
    /// its first event is recorded. Nodes that never receive an event
    /// are never materialized.
    fn activate_if_needed(&mut self, spawn: &mut impl FnMut(NodeId) -> P, ni: usize, node: NodeId) {
        if self.nodes[ni].proc.is_none() {
            self.nodes[ni].proc = Some(spawn(node));
            self.handle(ni, node, |p, ctx| p.on_start(ctx));
        }
    }

    /// Runs one handler of node `me` (slot `ni`) at the current time
    /// and executes the commands it queued.
    fn handle(
        &mut self,
        ni: usize,
        me: NodeId,
        handler: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut cmds = mem::take(&mut self.command_buf);
        {
            let mut ctx = Context::new(me, self.time, &mut cmds);
            let p = self.nodes[ni].proc.as_mut().expect("process exists");
            handler(p, &mut ctx);
        }
        self.execute_commands(me, ni, &mut cmds);
        self.command_buf = cmds;
    }

    fn execute_commands(&mut self, me: NodeId, ni: usize, cmds: &mut Vec<Command<P::Msg>>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send { to, msg } => {
                    assert!(to.index() < self.n, "send to unknown node {to}");
                    let bytes = msg.size_bytes() as u64;
                    self.counters.sent += 1;
                    self.counters.bytes += bytes;
                    let stats = &mut self.nodes[ni].stats;
                    stats.sent += 1;
                    stats.sent_bytes += bytes;
                    self.trace.record(TraceEntry::Send {
                        at: self.time,
                        from: me,
                        to,
                    });
                    let latency = self.config.latency.sample(&mut self.rng);
                    let ci = self.chan_slot(me, to);
                    let ch = &mut self.channels[ci as usize];
                    // New channels start at SimTime::ZERO, so the clamp
                    // is the identity on the first send.
                    let at = (self.time + latency).max(ch.last_at);
                    ch.last_at = at;
                    self.push_deliver(at, to, me, msg, ci);
                }
                Command::Monitor { target } => {
                    if self.fd.subscribe(me, target) {
                        self.schedule_notify(me, target);
                    }
                }
            }
        }
    }

    fn schedule_notify(&mut self, observer: NodeId, crashed: NodeId) {
        let latency = self.config.fd_latency.sample(&mut self.rng);
        let at = self.time + latency;
        self.push_other(
            at,
            EventKind::Notify {
                to: observer,
                crashed,
            },
        );
    }

    /// Materializes the run's accounting so far.
    pub(crate) fn metrics(&self) -> Metrics {
        let c = self.counters;
        Metrics {
            per_node: self
                .nodes
                .iter()
                .filter(|ns| ns.stats != NodeMetrics::default())
                .map(|ns| (ns.id, ns.stats))
                .collect(),
            messages_sent: c.sent,
            messages_delivered: c.delivered,
            messages_dropped: c.dropped,
            bytes_sent: c.bytes,
            crash_notifications: c.notifications,
            events_processed: c.activations,
            finished_at: self.time,
        }
    }

    /// Moves the activated processes out, in ascending node order.
    pub(crate) fn take_processes(&mut self) -> Vec<(NodeId, P)> {
        let mut processes: Vec<(NodeId, P)> = self
            .nodes
            .drain(..)
            .filter_map(|ns| ns.proc.map(|p| (ns.id, p)))
            .collect();
        processes.sort_unstable_by_key(|&(id, _)| id);
        processes
    }

    /// Materializes the finished run's observables. The trace and the
    /// recorded schedule move out with their buffers (their lengths are
    /// kept for the next [`reset`](Self::reset)); the slot's other
    /// allocations stay in place for the next run.
    pub(crate) fn collect(&mut self, outcome: RunOutcome) -> BatchRun<P> {
        let trace = mem::replace(&mut self.trace, Trace::new(false));
        let schedule = self.explorer.as_mut().map(Explorer::take_recorded);
        if let Some(entries) = trace.entries() {
            self.last_trace_entries = entries.len();
        }
        if let Some(schedule) = &schedule {
            self.last_deviations = schedule.len();
        }
        BatchRun {
            outcome,
            metrics: self.metrics(),
            trace,
            schedule,
            processes: self.take_processes(),
        }
    }
}
