//! Asynchronous validation events.
//!
//! The paper breaks infinite loops caused by inconsistent speculative
//! reads with the JVM's pre-existing asynchronous events (used for GC
//! checks): a ticker occasionally flags every thread, and JIT-inserted
//! check-points at method entries and loop back-edges poll the flag; a
//! flagged thread inside a read-only critical section re-validates its
//! local lock value (paper §3.3).
//!
//! [`EventSource`] is that ticker: a global epoch counter that a
//! background thread (or a test, via [`EventSource::bump`]) advances.
//! Sessions capture the epoch on entry; [`EventPoll`] makes the per-
//! check-point decision "should I validate now?", combining the epoch
//! with a deterministic every-N fallback so validation also happens in
//! runs without a ticker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The global asynchronous-event epoch.
///
/// # Examples
///
/// ```
/// use solero_runtime::events::EventSource;
///
/// let before = EventSource::global().epoch();
/// EventSource::global().bump();
/// assert!(EventSource::global().epoch() > before);
/// ```
#[derive(Debug)]
pub struct EventSource {
    epoch: AtomicU64,
}

impl EventSource {
    /// The process-global source.
    #[inline]
    pub fn global() -> &'static EventSource {
        static SRC: EventSource = EventSource {
            epoch: AtomicU64::new(0),
        };
        &SRC
    }

    /// Current epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Manually delivers an asynchronous event to all threads.
    pub fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a background ticker delivering an event every `period`.
    /// The returned guard stops **and joins** the ticker when dropped —
    /// promptly, even mid-period: the ticker waits on a condition
    /// variable rather than sleeping, so a stop request interrupts the
    /// wait instead of being noticed only at the next tick.
    pub fn start_ticker(&'static self, period: Duration) -> TickerHandle {
        let shared = Arc::new(TickerShared {
            stopped: Mutex::new(false),
            cancel: Condvar::new(),
        });
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("solero-async-events".into())
            .spawn(move || loop {
                let mut stopped = shared2
                    .stopped
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                while !*stopped {
                    let (g, timeout) = shared2
                        .cancel
                        .wait_timeout(stopped, period)
                        .unwrap_or_else(PoisonError::into_inner);
                    stopped = g;
                    if timeout.timed_out() {
                        break;
                    }
                }
                if *stopped {
                    return;
                }
                drop(stopped);
                EventSource::global().bump();
            })
            .expect("spawn ticker");
        TickerHandle {
            shared,
            handle: Some(handle),
        }
    }
}

struct TickerShared {
    stopped: Mutex<bool>,
    cancel: Condvar,
}

/// Shutdown guard for the background ticker: stops and joins the ticker
/// thread when dropped (or explicitly via [`TickerHandle::stop`]).
#[derive(Debug)]
pub struct TickerHandle {
    shared: Arc<TickerShared>,
    handle: Option<JoinHandle<()>>,
}

impl TickerHandle {
    /// Stops the ticker and waits for its thread to exit. Idempotent;
    /// dropping the handle does the same.
    pub fn stop(&mut self) {
        *self
            .shared
            .stopped
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = true;
        self.shared.cancel.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TickerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for TickerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickerShared").finish_non_exhaustive()
    }
}

/// Per-session check-point poller.
///
/// `should_validate()` is called at every JIT check-point (loop
/// back-edges, method entries) and must therefore cost about as much as
/// the flag test the paper's JIT emits: the hot path is one decrement
/// and one branch. Every `batch` polls (at most 64) the poller checks
/// the global epoch and the deterministic period:
///
/// * it returns `true` when the epoch advanced since the last check
///   (an asynchronous event was delivered — detected within ≤ 64
///   polls, as the JVM's events are themselves only polled at
///   check-points);
/// * with `period != 0` it also returns `true` at least every `period`
///   polls, a deterministic fallback so validation happens even in runs
///   without a ticker.
///
/// # Examples
///
/// ```
/// use solero_runtime::events::EventPoll;
///
/// let mut poll = EventPoll::new(3);
/// assert!(!poll.should_validate());
/// assert!(!poll.should_validate());
/// assert!(poll.should_validate(), "every third poll validates");
/// ```
#[derive(Debug, Clone)]
pub struct EventPoll {
    last_epoch: u64,
    /// Polls accumulated since the last validation.
    polls: u64,
    period: u64,
    countdown: u32,
    batch: u32,
}

impl EventPoll {
    /// Creates a poller with the given deterministic period
    /// (`0` = events only).
    #[inline]
    pub fn new(period: u64) -> Self {
        let batch = if period == 0 { 64 } else { period.min(64) as u32 };
        // The hot path counts this batch down; it must never be zero or
        // the first poll would wrap. The expression above cannot
        // produce zero today, but the invariant is enforced here rather
        // than re-derived at every call site.
        let batch = batch.max(1);
        EventPoll {
            last_epoch: EventSource::global().epoch(),
            polls: 0,
            period,
            countdown: batch,
            batch,
        }
    }

    /// One check-point poll; see the type docs.
    ///
    /// The countdown is tested *before* it is decremented, so no state
    /// — not even `countdown == 0` — can wrap the `u32`: any exhausted
    /// countdown lands in `EventPoll::slow_poll`, which re-arms it to
    /// a full batch.
    #[inline]
    pub fn should_validate(&mut self) -> bool {
        if self.countdown > 1 {
            self.countdown -= 1;
            return false;
        }
        self.slow_poll()
    }

    #[cold]
    fn slow_poll(&mut self) -> bool {
        self.countdown = self.batch;
        self.polls += self.batch as u64;
        let epoch = EventSource::global().epoch();
        if epoch != self.last_epoch {
            self.last_epoch = epoch;
            self.polls = 0;
            return true;
        }
        if self.period != 0 && self.polls >= self.period {
            self.polls = 0;
            return true;
        }
        false
    }

    /// Resets the poll counter (used when a session restarts).
    pub fn reset(&mut self) {
        self.polls = 0;
        self.countdown = self.batch;
        self.last_epoch = EventSource::global().epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_triggers_validation_within_a_batch() {
        let mut p = EventPoll::new(0); // no deterministic fallback
        assert!(!p.should_validate());
        EventSource::global().bump();
        // The event is detected within one sampling batch (≤ 64 polls).
        let detected = (0..64).any(|_| p.should_validate());
        assert!(detected);
    }

    #[test]
    fn deterministic_period_fires() {
        let mut p = EventPoll::new(2);
        let fired: Vec<bool> = (0..6).map(|_| p.should_validate()).collect();
        // Unless another test bumps concurrently, every second poll fires.
        assert!(fired.iter().filter(|&&b| b).count() >= 3);
    }

    #[test]
    fn zero_period_never_fires_without_events() {
        // Snapshot-based: only count polls where the epoch was stable
        // across the whole run (other tests may bump concurrently).
        let before = EventSource::global().epoch();
        let mut p = EventPoll::new(0);
        let mut fired = false;
        for _ in 0..1000 {
            fired |= p.should_validate();
        }
        if EventSource::global().epoch() == before {
            assert!(!fired);
        }
    }

    /// `period > 64` still samples in batches of 64: with the epoch
    /// stable the deterministic fallback fires exactly at the first
    /// batch boundary past the period (poll 128 for period 100), never
    /// mid-batch.
    #[test]
    fn long_period_fires_at_batch_boundaries() {
        // Other tests may bump the global epoch concurrently; only
        // assert on a run where it stayed stable throughout.
        let before = EventSource::global().epoch();
        let mut p = EventPoll::new(100);
        let mut positions = Vec::new();
        for i in 1u32..=256 {
            if p.should_validate() {
                positions.push(i);
            }
        }
        if EventSource::global().epoch() == before {
            assert_eq!(positions, vec![128, 256]);
        }
    }

    /// The zero-period ("events only") construction survives arbitrary
    /// poll volume: the countdown is re-armed from `slow_poll` before
    /// it can ever wrap the `u32`, so a long quiet run neither panics
    /// nor spuriously validates.
    #[test]
    fn zero_period_long_run_cannot_underflow() {
        let before = EventSource::global().epoch();
        let mut p = EventPoll::new(0);
        let mut fired = 0u32;
        for _ in 0..100_000 {
            if p.should_validate() {
                fired += 1;
            }
        }
        if EventSource::global().epoch() == before {
            assert_eq!(fired, 0, "no events, no deterministic period");
        }
    }

    #[test]
    fn ticker_advances_epoch() {
        let src = EventSource::global();
        let before = src.epoch();
        {
            let _t = src.start_ticker(Duration::from_millis(5));
            std::thread::sleep(Duration::from_millis(40));
        }
        assert!(src.epoch() > before);
    }

    #[test]
    fn ticker_drop_is_prompt_even_mid_period() {
        // A 60 s period: if Drop still had to ride out the sleep, this
        // test would blow the suite's timeout; the Condvar wait makes
        // cancellation immediate.
        let src = EventSource::global();
        let start = std::time::Instant::now();
        let t = src.start_ticker(Duration::from_secs(60));
        std::thread::sleep(Duration::from_millis(20));
        drop(t);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "drop must interrupt the wait, not ride out the period"
        );
    }

    #[test]
    fn ticker_explicit_stop_is_idempotent() {
        let src = EventSource::global();
        let mut t = src.start_ticker(Duration::from_secs(60));
        t.stop();
        t.stop();
        drop(t); // stop-again via Drop is also fine
    }

    #[test]
    fn reset_clears_pending_validation() {
        let mut p = EventPoll::new(1);
        assert!(p.should_validate());
        p.reset();
        EventSource::global().bump();
        p.reset(); // absorbs the event
        // period==1 still fires deterministically though:
        assert!(p.should_validate());
    }
}
