//! API conformance: thread-safety markers and trait hygiene that the
//! rest of the system (and downstream users) rely on.

use solero::{Fault, SoleroConfig, SoleroLock, SyncStrategy};
use solero_heap::{Heap, ObjRef};
use solero_jit::interp::Interpreter;
use solero_runtime::stats::StatsSnapshot;
use solero_runtime::word::{CompactWord, ConvWord};
use solero_rwlock::{BravoLock, BravoPolicy, JavaRwLock, RawRwLock, ReadToken};
use solero_tasuki::TasukiLock;

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_types_are_send_and_sync() {
    assert_send_sync::<SoleroLock>();
    assert_send_sync::<TasukiLock>();
    assert_send_sync::<JavaRwLock>();
    assert_send_sync::<BravoLock>();
    assert_send_sync::<Heap>();
    assert_send_sync::<Interpreter>();
    assert_send_sync::<solero::LockStrategy>();
    assert_send_sync::<solero::RwStrategy<JavaRwLock>>();
    assert_send_sync::<solero::BravoStrategy>();
    assert_send_sync::<solero::SoleroStrategy>();
    assert_send::<Fault>();
    assert_sync::<Fault>();
}

#[test]
fn rw_strategy_spells_the_lock_explicitly() {
    // The PR 7 API redesign made the strategy generic over the lock;
    // the deprecated `RwLockStrategy` alias lived exactly one release
    // and is gone — the lock is always named at the type level now.
    let strat = solero::RwStrategy::<JavaRwLock>::new();
    assert_eq!(strat.name(), JavaRwLock::NAME);
    assert_send_sync::<solero::RwStrategy<JavaRwLock>>();
}

#[test]
fn raw_rwlock_trait_is_object_free_and_generic() {
    // Generic code over the trait works for both implementations, and
    // guards release on drop.
    fn exercise<L: RawRwLock>() {
        let lock = L::default();
        {
            let r = lock.read();
            let _ = r.token();
        }
        {
            let _w = lock.write();
        }
        assert!(lock.try_write().is_some());
        assert!(lock.try_read().is_some());
        let snap = lock.stats().snapshot();
        assert_eq!(snap.read_enters, 2);
        assert_eq!(snap.write_enters, 2);
    }
    exercise::<JavaRwLock>();
    exercise::<BravoLock>();
    assert_eq!(<JavaRwLock as RawRwLock>::NAME, "RWLock");
    assert_eq!(<BravoLock as RawRwLock>::NAME, "BRAVO-RW");
}

#[test]
fn errors_are_well_behaved() {
    // C-GOOD-ERR: error types implement Error + Send + Sync + 'static.
    fn is_good_error<E: std::error::Error + Send + Sync + 'static>() {}
    is_good_error::<Fault>();
    is_good_error::<solero_heap::OutOfMemory>();
    is_good_error::<solero_jit::verify::VerifyError>();
}

#[test]
fn value_types_are_copy_eq_hash_debug() {
    fn is_value<T: Copy + Eq + std::hash::Hash + std::fmt::Debug>() {}
    is_value::<ConvWord>();
    is_value::<CompactWord>();
    is_value::<ObjRef>();
    is_value::<solero_heap::ClassId>();
    is_value::<Fault>();
    is_value::<solero_runtime::thread::ThreadId>();
}

#[test]
fn defaults_exist_and_match_new() {
    assert_eq!(SoleroConfig::default(), SoleroConfig::default());
    let _ = SoleroLock::default();
    let _ = TasukiLock::default();
    let _ = JavaRwLock::default();
    let _ = BravoLock::default();
    assert_eq!(BravoPolicy::default(), BravoLock::new().policy());
    let _ = StatsSnapshot::default();
    let _ = ObjRef::default();
    assert!(ObjRef::default().is_null());
}

#[test]
fn debug_representations_are_never_empty() {
    // C-DEBUG-NONEMPTY.
    let samples: Vec<String> = vec![
        format!("{:?}", SoleroLock::new()),
        format!("{:?}", TasukiLock::new()),
        format!("{:?}", JavaRwLock::new()),
        format!("{:?}", BravoLock::new()),
        format!("{:?}", BravoPolicy::minimal()),
        format!("{:?}", ReadToken::slow()),
        format!("{:?}", solero_rwlock::visible::global()),
        format!("{:?}", StatsSnapshot::default()),
        format!("{:?}", ConvWord::FREE),
        format!("{:?}", CompactWord::INIT),
        format!("{:?}", ObjRef::NULL),
        format!("{:?}", Fault::NullPointer),
        format!("{:?}", SoleroConfig::default()),
    ];
    for s in samples {
        assert!(!s.is_empty());
    }
}
