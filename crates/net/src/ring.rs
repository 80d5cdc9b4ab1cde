//! Bounded MPSC rings: the cross-shard mailboxes of the sharded runtime.
//!
//! Each shard of an instance owns exactly one [`Ring`]; every other
//! shard (and the control thread) posts into it. The common case stays
//! inside a **fixed-capacity circular buffer** — one allocation at
//! startup, cache-friendly FIFO churn. Mailboxes are per shard, not per
//! node: an instance with `W` shards has `W` rings in total, whatever
//! the topology's size.
//!
//! The runtime consumes a ring in two ways. A pool worker sleeps in the
//! blocking [`Ring::pop`] on its *token* ring — the one place a thread
//! waits — and, holding a token, drains an instance's *event* ring with
//! the non-blocking [`Ring::try_pop`]: an empty event ring sends the
//! worker back to its tokens, never to sleep (the `shard` module docs
//! have the protocol).
//!
//! # Why pushes never block
//!
//! A shard posts into peer rings *from inside an event handler*. If a
//! push could block on a full ring, two shards flooding each other would
//! deadlock (each stuck pushing, neither draining). So a push that finds
//! the ring full **spills** into an unbounded overflow queue instead of
//! blocking; the consumer refills the ring from the spill as it drains.
//! The ring capacity therefore bounds *steady-state* memory and keeps
//! the hot path allocation-free, while the spill count
//! ([`Ring::spilled`]) reports how often a burst exceeded it.
//!
//! Built on `std::sync::{Mutex, Condvar}` only.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Outcome of a blocking [`Ring::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<T> {
    /// An event was dequeued.
    Item(T),
    /// The ring is closed and fully drained: the consumer can exit.
    Closed,
    /// Nothing arrived within the timeout.
    TimedOut,
}

#[derive(Debug)]
struct RingState<T> {
    /// The bounded circular buffer. `None` slots are free.
    slots: Vec<Option<T>>,
    /// Index of the oldest element (next to pop).
    head: usize,
    /// Number of occupied slots.
    len: usize,
    /// Overflow for bursts beyond `slots.len()`; drained back into the
    /// ring as slots free up, preserving global FIFO order.
    spill: VecDeque<T>,
    /// Total events that ever took the spill path.
    spilled: u64,
    /// No further pushes will be accepted once set.
    closed: bool,
}

impl<T> RingState<T> {
    /// Dequeues the oldest event, if any.
    fn take(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let head = self.head;
        let item = self.slots[head].take().expect("occupied head");
        self.head = (head + 1) % self.slots.len();
        self.len -= 1;
        // Promote one spilled event into the freed slot so the spill
        // drains in arrival order.
        if let Some(promoted) = self.spill.pop_front() {
            let tail = (self.head + self.len) % self.slots.len();
            self.slots[tail] = Some(promoted);
            self.len += 1;
        }
        Some(item)
    }
}

/// A bounded multi-producer single-consumer ring with an unbounded
/// overflow lane (see the [module docs](self) for why overflow beats
/// blocking here).
///
/// Multiple threads may push; one thread at a time pops. Nothing
/// enforces the single consumer — the queue stays correct with several —
/// but the sharded runtime has one per ring: worker `i` is the only
/// thread that pops its token ring or any instance's shard-`i` ring.
#[derive(Debug)]
pub struct Ring<T> {
    state: Mutex<RingState<T>>,
    ready: Condvar,
}

impl<T> Ring<T> {
    /// Creates a ring holding up to `capacity` events before spilling.
    /// A zero capacity is clamped to one slot.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Ring {
            state: Mutex::new(RingState {
                slots,
                head: 0,
                len: 0,
                spill: VecDeque::new(),
                spilled: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`; never blocks. Returns `false` (dropping the
    /// item) if the ring is closed.
    pub fn push(&self, item: T) -> bool {
        let mut s = self.state.lock().expect("ring lock");
        if s.closed {
            return false;
        }
        if s.len < s.slots.len() {
            let tail = (s.head + s.len) % s.slots.len();
            debug_assert!(s.slots[tail].is_none(), "tail slot must be free");
            s.slots[tail] = Some(item);
            s.len += 1;
        } else {
            s.spill.push_back(item);
            s.spilled += 1;
        }
        drop(s);
        self.ready.notify_one();
        true
    }

    /// Dequeues the oldest event, waiting up to `timeout` for one to
    /// arrive — with no deadline when `timeout` is too large to
    /// represent, as `Duration::MAX` is. Returns [`Pop::Closed`] once
    /// the ring is closed *and* empty — close is drain-then-stop, not
    /// abort.
    pub fn pop(&self, timeout: Duration) -> Pop<T> {
        let mut s = self.state.lock().expect("ring lock");
        // Set on the first wait: a pop that finds an event queued never
        // reads the clock. The inner `None` is "no deadline".
        let mut deadline: Option<Option<Instant>> = None;
        loop {
            if let Some(item) = s.take() {
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Closed;
            }
            let Some(at) = *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout))
            else {
                s = self.ready.wait(s).expect("ring condvar wait");
                continue;
            };
            let left = at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Pop::TimedOut;
            }
            s = self
                .ready
                .wait_timeout(s, left)
                .expect("ring condvar wait")
                .0;
        }
    }

    /// Dequeues the oldest event if one is queued; never waits. `None`
    /// means *empty right now* whether or not the ring is closed — the
    /// caller that drains event rings has its own way to learn that an
    /// instance is over.
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().expect("ring lock").take()
    }

    /// Closes the ring: future pushes are refused, the consumer drains
    /// what is queued and then sees [`Pop::Closed`].
    pub fn close(&self) {
        self.state.lock().expect("ring lock").closed = true;
        self.ready.notify_all();
    }

    /// Events currently queued (ring + spill).
    pub fn queued(&self) -> usize {
        let s = self.state.lock().expect("ring lock");
        s.len + s.spill.len()
    }

    /// Total events that overflowed the bounded buffer so far.
    pub fn spilled(&self) -> u64 {
        self.state.lock().expect("ring lock").spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(10);

    #[test]
    fn fifo_within_capacity() {
        let ring = Ring::new(4);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.queued(), 4);
        for i in 0..4 {
            assert_eq!(ring.pop(TICK), Pop::Item(i));
        }
        assert_eq!(ring.pop(Duration::from_millis(1)), Pop::TimedOut);
        assert_eq!(ring.spilled(), 0);
    }

    #[test]
    fn overflow_spills_and_preserves_order() {
        let ring = Ring::new(2);
        for i in 0..7 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.spilled(), 5, "five events beyond the two slots");
        let drained: Vec<i32> = (0..7)
            .map(|_| match ring.pop(TICK) {
                Pop::Item(v) => v,
                other => panic!("expected item, got {other:?}"),
            })
            .collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn close_drains_then_stops() {
        let ring = Ring::new(2);
        ring.push("a");
        ring.close();
        assert!(!ring.push("b"), "push after close is refused");
        assert_eq!(ring.pop(TICK), Pop::Item("a"));
        assert_eq!(ring.pop(TICK), Pop::Closed);
    }

    #[test]
    fn try_pop_never_waits_and_ignores_close() {
        let ring = Ring::new(2);
        assert_eq!(ring.try_pop(), None::<i32>);
        for i in 0..3 {
            ring.push(i);
        }
        ring.close();
        // Same drain-then-stop order as `pop`, spill lane included.
        assert_eq!(ring.try_pop(), Some(0));
        assert_eq!(ring.try_pop(), Some(1));
        assert_eq!(ring.try_pop(), Some(2));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn pop_without_a_deadline_wakes_on_push_and_on_close() {
        let ring = Arc::new(Ring::new(2));
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let waiter = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || loop {
                // `MAX` overflows `Instant`: waits with no deadline.
                let popped = ring.pop(Duration::MAX);
                let closed = popped == Pop::Closed;
                got_tx.send(popped).expect("report pop");
                if closed {
                    break;
                }
            })
        };
        assert!(
            got_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "returned from an empty open ring"
        );
        ring.push(7);
        assert_eq!(
            got_rx.recv_timeout(Duration::from_secs(30)),
            Ok(Pop::Item(7))
        );
        ring.close();
        assert_eq!(
            got_rx.recv_timeout(Duration::from_secs(30)),
            Ok(Pop::Closed)
        );
        waiter.join().unwrap();
    }

    #[test]
    fn wraparound_reuses_slots() {
        let ring = Ring::new(3);
        for round in 0..10 {
            ring.push(round);
            assert_eq!(ring.pop(TICK), Pop::Item(round));
        }
        assert_eq!(ring.spilled(), 0, "steady state never spills");
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let ring = Arc::new(Ring::new(8));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        assert!(ring.push(p * 1000 + i));
                    }
                })
            })
            .collect();
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 1000 {
                    match ring.pop(Duration::from_secs(5)) {
                        Pop::Item(v) => got.push(v),
                        other => panic!("lost events: {other:?} after {}", got.len()),
                    }
                }
                got
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        let mut got = consumer.join().unwrap();
        got.sort_unstable();
        let mut want: Vec<i32> = (0..4)
            .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Per-producer FIFO is preserved even across the spill lane.
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let ring = Arc::new(Ring::new(2));
        let waiter = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || ring.pop(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        ring.push(42);
        assert_eq!(waiter.join().unwrap(), Pop::Item(42));
    }
}
