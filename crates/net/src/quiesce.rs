//! The outstanding-event counter the live runtime detects quiescence
//! with: one atomic, and a waiter woken on its 1 → 0 transition.
//!
//! The counter is only as exact as its callers' discipline — see the
//! invariant in the [`shard`](crate::shard) module docs. Given that
//! discipline, zero means *no event is queued and no handler is
//! running*, so [`Outstanding::wait_zero`] needs neither a poll nor a
//! settling window.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Events charged and not yet discharged, plus the zero-transition
/// waiter.
#[derive(Debug, Default)]
pub(crate) struct Outstanding {
    count: AtomicU64,
    /// Guards nothing but the waiter's check-then-sleep: a discharger
    /// that reaches zero takes it before notifying, so it cannot slip
    /// between a waiter's non-zero load and its sleep.
    lock: Mutex<()>,
    zero: Condvar,
}

impl Outstanding {
    /// Counts one event that is about to become visible to a consumer.
    pub(crate) fn charge(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
    }

    /// Discharges one event whose handler has returned (or that will
    /// never be handled); the discharge that reaches zero wakes every
    /// waiter.
    pub(crate) fn done(&self) {
        let before = self.count.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(before > 0, "outstanding-event counter underflow");
        if before == 1 {
            let _guard = self.lock.lock().expect("quiescence lock");
            self.zero.notify_all();
        }
    }

    /// Events currently outstanding.
    pub(crate) fn get(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Blocks until the counter reads zero or `timeout` elapses;
    /// returns `true` on zero. Never blocks when the counter is
    /// already zero or `timeout` is zero.
    pub(crate) fn wait_zero(&self, timeout: Duration) -> bool {
        // A timeout too large to represent is no deadline at all.
        let deadline = Instant::now().checked_add(timeout);
        let mut guard = self.lock.lock().expect("quiescence lock");
        while self.get() != 0 {
            let left = deadline.map_or(Duration::MAX, |at| {
                at.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return false;
            }
            guard = self
                .zero
                .wait_timeout(guard, left)
                .expect("quiescence condvar wait")
                .0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn zero_and_zero_timeout_never_block() {
        let o = Outstanding::default();
        assert!(o.wait_zero(Duration::ZERO), "idle counter is quiescent");
        o.charge();
        assert!(!o.wait_zero(Duration::ZERO), "busy counter, no patience");
        assert_eq!(o.get(), 1);
        o.done();
    }

    #[test]
    fn waiter_wakes_on_the_last_discharge_and_not_before() {
        let o = Outstanding::default();
        o.charge();
        o.charge();
        let (woke_tx, woke_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                // `MAX` overflows `Instant`: waits with no deadline.
                woke_tx
                    .send(o.wait_zero(Duration::MAX))
                    .expect("report wake-up");
            });
            o.done();
            assert!(
                woke_rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "woken with one event still outstanding"
            );
            o.done();
            assert_eq!(woke_rx.recv_timeout(Duration::from_secs(30)), Ok(true));
        });
    }

    #[test]
    fn timeout_expires_while_busy() {
        let o = Outstanding::default();
        o.charge();
        let started = Instant::now();
        assert!(!o.wait_zero(Duration::from_millis(20)));
        assert!(started.elapsed() >= Duration::from_millis(20));
        o.done();
    }
}
