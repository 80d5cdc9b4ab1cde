//! MPSC rings: the cross-shard mailboxes of the sharded runtime.
//!
//! Each shard of an instance owns exactly one [`Ring`]; every other
//! shard (and the control thread) posts into it. A shard's handlers do
//! not: an event they address to their own shard goes on its local
//! queue instead (see the `shard` module docs). A ring is one FIFO
//! queue, allocated up front for its capacity. Mailboxes are per shard,
//! not per node: an instance with `W` shards has `W` rings in total,
//! whatever the topology's size.
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
//! deadlock (each stuck pushing, neither draining). So the capacity is a
//! **spill threshold**, not a bound: a push that finds `capacity` events
//! already queued still enqueues, past the up-front allocation, and
//! counts as spilled ([`Ring::spilled`] reports how often a burst
//! exceeded the capacity). Only cross-shard traffic and kills can
//! spill: a one-shard instance's ring carries the kills' crash
//! notifications alone.
//!
//! # Why pushes rarely wake anyone
//!
//! A push wakes the consumer only if it is asleep in [`Ring::pop`]. The
//! sleeper registers under the ring mutex before it waits, and the wait
//! releases that mutex atomically, so a push that reads no sleeper under
//! the same mutex cannot miss one. Event rings are only ever
//! [`Ring::try_pop`]ped, so a push onto one never makes a wake-up call.
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
    /// Queued events, oldest first.
    queue: VecDeque<T>,
    /// Queue length at or past which a push counts as spilled.
    capacity: usize,
    /// Total pushes that found `capacity` or more events queued.
    spilled: u64,
    /// Consumers waiting in `pop` right now.
    sleepers: usize,
    /// No further pushes will be accepted once set.
    closed: bool,
}

/// A multi-producer single-consumer ring whose capacity is a spill
/// threshold (see the [module docs](self) for why overflow beats
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
    /// A zero capacity is clamped to one.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            state: Mutex::new(RingState {
                queue: VecDeque::with_capacity(capacity),
                capacity,
                spilled: 0,
                sleepers: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues `item`; never blocks, and wakes the consumer only if it
    /// sleeps in [`pop`](Ring::pop). Returns `false` (dropping the item)
    /// if the ring is closed.
    pub fn push(&self, item: T) -> bool {
        let mut s = self.state.lock().expect("ring lock");
        if s.closed {
            return false;
        }
        if s.queue.len() >= s.capacity {
            s.spilled += 1;
        }
        s.queue.push_back(item);
        let wake = s.sleepers > 0;
        drop(s);
        if wake {
            self.ready.notify_one();
        }
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
            if let Some(item) = s.queue.pop_front() {
                return Pop::Item(item);
            }
            if s.closed {
                return Pop::Closed;
            }
            let at = *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout));
            let left = at.map(|at| at.saturating_duration_since(Instant::now()));
            if left.is_some_and(|left| left.is_zero()) {
                return Pop::TimedOut;
            }
            // Registered under the lock the wait releases: a push either
            // ran before this and queued what the loop re-reads, or
            // reads the sleeper and wakes it.
            s.sleepers += 1;
            s = match left {
                None => self.ready.wait(s).expect("ring condvar wait"),
                Some(left) => {
                    self.ready
                        .wait_timeout(s, left)
                        .expect("ring condvar wait")
                        .0
                }
            };
            s.sleepers -= 1;
        }
    }

    /// Dequeues the oldest event if one is queued; never waits. `None`
    /// means *empty right now* whether or not the ring is closed — the
    /// caller that drains event rings has its own way to learn that an
    /// instance is over.
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().expect("ring lock").queue.pop_front()
    }

    /// Closes the ring: future pushes are refused, the consumer drains
    /// what is queued and then sees [`Pop::Closed`].
    pub fn close(&self) {
        self.state.lock().expect("ring lock").closed = true;
        self.ready.notify_all();
    }

    /// Events currently queued.
    pub fn queued(&self) -> usize {
        self.state.lock().expect("ring lock").queue.len()
    }

    /// Total pushes so far that found the ring at or past capacity.
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
        // Same drain-then-stop order as `pop`, spilled events included.
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
    }

    /// The spill count on a capacity-2 ring after every step of an
    /// interleaving, as worked out by hand on the old two-lane layout:
    /// two slots plus an overflow lane, a push spilled iff both slots
    /// were full, and each pop promoted the oldest spilled event into the
    /// slot it freed. `(queued, spilled)` follows each step.
    #[test]
    fn spill_count_matches_the_two_lane_rule() {
        enum Step {
            Push(char),
            TryPop(char),
            PopTick(char),
        }
        use Step::*;
        let steps = [
            (Push('a'), 1, 0),    // slots [a]
            (Push('b'), 2, 0),    // slots [a b], both full
            (Push('c'), 3, 1),    // spill [c]
            (TryPop('a'), 2, 1),  // c promoted: slots [b c]
            (Push('d'), 3, 2),    // spill [d]
            (PopTick('b'), 2, 2), // d promoted: slots [c d]
            (TryPop('c'), 1, 2),  // slots [d]
            (Push('e'), 2, 2),    // slots [d e]
            (Push('f'), 3, 3),    // spill [f]
            (Push('g'), 4, 4),    // spill [f g]
            (PopTick('d'), 3, 4), // f promoted: slots [e f], spill [g]
            (TryPop('e'), 2, 4),  // g promoted: slots [f g]
            (Push('h'), 3, 5),    // spill [h]
            (PopTick('f'), 2, 5), // h promoted: slots [g h]
            (TryPop('g'), 1, 5),  // slots [h]
            (Push('i'), 2, 5),    // slots [h i]
            (PopTick('h'), 1, 5),
            (TryPop('i'), 0, 5),
        ];
        let ring = Ring::new(2);
        for (n, (step, queued, spilled)) in steps.into_iter().enumerate() {
            match step {
                Push(v) => assert!(ring.push(v)),
                TryPop(v) => assert_eq!(ring.try_pop(), Some(v)),
                PopTick(v) => assert_eq!(ring.pop(TICK), Pop::Item(v)),
            }
            assert_eq!(
                (ring.queued(), ring.spilled()),
                (queued, spilled),
                "after step {n}"
            );
        }
        assert_eq!(ring.pop(Duration::from_millis(1)), Pop::TimedOut);
    }

    /// Three producers yield between pushes while a consumer takes every
    /// item with `next`, which may come back empty-handed. A watchdog
    /// fails the test instead of letting a lost wake-up hang it.
    fn assert_no_wake_up_is_lost(mut next: impl FnMut(&Ring<u32>) -> Option<u32> + Send + 'static) {
        const PER_PRODUCER: u32 = 2000;
        let ring = Arc::new(Ring::new(4));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 3 * PER_PRODUCER as usize {
                    got.extend(next(&ring));
                }
                done_tx.send(got).expect("report the items");
            })
        };
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        assert!(ring.push(p * PER_PRODUCER + i));
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let got = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the consumer stalled: a push's wake-up was lost");
        consumer.join().unwrap();
        for p in 0..3 {
            let mine: Vec<u32> = got
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            let want: Vec<u32> = (p * PER_PRODUCER..(p + 1) * PER_PRODUCER).collect();
            assert_eq!(mine, want, "producer {p}'s items, in its order");
        }
    }

    #[test]
    fn a_consumer_that_only_sleeps_misses_no_push() {
        assert_no_wake_up_is_lost(|ring| match ring.pop(Duration::MAX) {
            Pop::Item(v) => Some(v),
            other => panic!("open ring returned {other:?}"),
        });
    }

    #[test]
    fn a_consumer_that_sleeps_and_polls_in_turn_misses_no_push() {
        let mut sleep = false;
        assert_no_wake_up_is_lost(move |ring| {
            sleep = !sleep;
            if !sleep {
                return ring.try_pop();
            }
            match ring.pop(TICK) {
                Pop::Item(v) => Some(v),
                Pop::TimedOut => None,
                Pop::Closed => panic!("open ring returned Closed"),
            }
        });
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
