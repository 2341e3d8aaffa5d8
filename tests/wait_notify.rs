//! Java-monitor `wait`/`notify` semantics on both lock implementations
//! — the "full lock functionality" the paper requires of a drop-in
//! replacement — and their interplay with elision and deflation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use solero::{Fault, SoleroLock, TasukiLock};
use solero_runtime::thread::ThreadId;

/// Classic producer/consumer over the conventional lock.
#[test]
fn tasuki_producer_consumer() {
    let lock = Arc::new(TasukiLock::new());
    let slot = Arc::new(AtomicU64::new(0));
    let l2 = Arc::clone(&lock);
    let s2 = Arc::clone(&slot);
    let consumer = std::thread::spawn(move || {
        let tid = ThreadId::current();
        l2.enter(tid);
        while s2.load(Ordering::Acquire) == 0 {
            l2.wait(tid); // releases the lock while parked
        }
        let got = s2.load(Ordering::Acquire);
        l2.exit(tid);
        got
    });
    std::thread::sleep(Duration::from_millis(30));
    let tid = ThreadId::current();
    lock.enter(tid);
    slot.store(99, Ordering::Release);
    lock.notify_all(tid);
    lock.exit(tid);
    assert_eq!(consumer.join().unwrap(), 99);
    // Once everyone is gone the lock cycles back to thin.
    drop(lock.lock());
    assert!(!lock.is_inflated());
}

/// Producer/consumer over SOLERO: waiting inflates, the displaced
/// counter keeps speculative readers correct, and elision resumes after
/// deflation.
#[test]
fn solero_producer_consumer_then_elision_resumes() {
    let lock = Arc::new(SoleroLock::new());
    let slot = Arc::new(AtomicU64::new(0));
    let captured = lock.raw_word();

    let l2 = Arc::clone(&lock);
    let s2 = Arc::clone(&slot);
    let consumer = std::thread::spawn(move || {
        let tid = ThreadId::current();
        let t = l2.enter_write(tid);
        while s2.load(Ordering::Acquire) == 0 {
            l2.wait(tid);
        }
        let got = s2.load(Ordering::Acquire);
        l2.exit_write(tid, t);
        got
    });
    std::thread::sleep(Duration::from_millis(30));
    assert!(lock.is_inflated(), "waiting inflates the lock");

    // Readers while the consumer is parked: the lock is fat, so they go
    // through the monitor — and still see coherent data.
    let v = lock
        .read_only(|_| Ok::<_, Fault>(slot.load(Ordering::Acquire)))
        .unwrap();
    assert_eq!(v, 0);

    let tid = ThreadId::current();
    let t = lock.enter_write(tid);
    slot.store(7, Ordering::Release);
    lock.notify_all(tid);
    lock.exit_write(tid, t);
    assert_eq!(consumer.join().unwrap(), 7);

    // Quiesce: the next uncontended cycle deflates with a fresh counter.
    lock.write(|| {});
    let after = lock.raw_word();
    assert!(!after.is_inflated(), "deflated after the wait/notify cycle");
    assert_ne!(after, captured, "counter advanced across the fat episode");

    // And elision works again.
    let before = lock.stats().snapshot().elision_success;
    lock.read_only(|_| Ok::<_, Fault>(())).unwrap();
    assert_eq!(lock.stats().snapshot().elision_success, before + 1);
}

/// Deflation must not strand waiters: while a thread is parked in the
/// wait set the lock stays fat, even across many uncontended cycles.
#[test]
fn deflation_is_deferred_while_waiters_exist() {
    let lock = Arc::new(SoleroLock::new());
    let slot = Arc::new(AtomicU64::new(0));
    let l2 = Arc::clone(&lock);
    let s2 = Arc::clone(&slot);
    let waiter = std::thread::spawn(move || {
        let tid = ThreadId::current();
        let t = l2.enter_write(tid);
        while s2.load(Ordering::Acquire) == 0 {
            l2.wait(tid);
        }
        l2.exit_write(tid, t);
    });
    std::thread::sleep(Duration::from_millis(30));
    // Uncontended write cycles while the waiter is parked: the lock must
    // remain fat (otherwise the waiter's reacquired monitor would
    // disagree with the word).
    for _ in 0..5 {
        lock.write(|| {});
        assert!(lock.is_inflated(), "no deflation with a parked waiter");
    }
    let tid = ThreadId::current();
    let t = lock.enter_write(tid);
    slot.store(1, Ordering::Release);
    lock.notify_all(tid);
    lock.exit_write(tid, t);
    waiter.join().unwrap();
    lock.write(|| {});
    assert!(!lock.is_inflated(), "deflates once the wait set is empty");
}

/// Multiple waiters, one notify_all: all are released and mutual
/// exclusion holds during the stampede.
#[test]
fn notify_all_wakes_every_waiter() {
    let lock = Arc::new(SoleroLock::new());
    let gate = Arc::new(AtomicU64::new(0));
    let woken = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let (l, g, w) = (Arc::clone(&lock), Arc::clone(&gate), Arc::clone(&woken));
        handles.push(std::thread::spawn(move || {
            let tid = ThreadId::current();
            let t = l.enter_write(tid);
            while g.load(Ordering::Acquire) == 0 {
                l.wait(tid);
            }
            w.fetch_add(1, Ordering::Relaxed);
            l.exit_write(tid, t);
        }));
    }
    std::thread::sleep(Duration::from_millis(50));
    let tid = ThreadId::current();
    let t = lock.enter_write(tid);
    gate.store(1, Ordering::Release);
    lock.notify_all(tid);
    lock.exit_write(tid, t);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(woken.load(Ordering::Relaxed), 4);
}

/// `wait` without holding the lock is an IllegalMonitorState analogue.
#[test]
#[should_panic(expected = "wait without holding the lock")]
fn wait_without_lock_panics() {
    let lock = SoleroLock::new();
    lock.wait(ThreadId::current());
}
