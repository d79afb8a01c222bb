//! The threading contract of `map_in_order`: a panic is re-raised only
//! once every worker has stopped, results do not depend on the width, no
//! thread is spawned at width 1, nested fan-outs stay on their worker,
//! and `KSA_THREADS` sets the default width. (Result order under
//! out-of-order completion is pinned in `tests/determinism.rs`.)

use ksa_exec::{map_in_order, ThreadPool};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::Duration;

#[test]
fn a_panic_is_reraised_after_every_worker_has_stopped() {
    let started = AtomicUsize::new(0);
    let stopped = AtomicUsize::new(0);
    struct Stop<'a>(&'a AtomicUsize);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    let both_started = Barrier::new(2);
    let items: Vec<usize> = (0..16).collect();
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        ThreadPool::new(4).install(|| {
            map_in_order(&items, |&i| {
                started.fetch_add(1, Ordering::SeqCst);
                let _stop = Stop(&stopped);
                if i <= 1 {
                    // Items 0 and 1 run on different threads: item 0
                    // panics only once item 1 is in flight.
                    both_started.wait();
                }
                if i == 0 {
                    panic!("item zero failed");
                }
                thread::sleep(Duration::from_millis(20));
                i
            })
        })
    }));
    let payload = caught.expect_err("the panic must reach the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"item zero failed"));
    let (started, stopped) = (started.into_inner(), stopped.into_inner());
    assert!(started >= 2, "another item was in flight");
    assert_eq!(started, stopped, "an item was still running at re-raise");
    assert!(
        started < items.len(),
        "no item is handed out after the panic"
    );
}

#[test]
fn iterator_results_identical_across_pool_sizes() {
    let items: Vec<u32> = (0..1000).collect();
    let reference: Vec<u64> = items.iter().map(|&x| u64::from(x) * 7 + 3).collect();
    for width in [1, 2, 8] {
        let out =
            ThreadPool::new(width).install(|| map_in_order(&items, |&x| u64::from(x) * 7 + 3));
        assert_eq!(out, reference, "width {width}");
    }
}

#[test]
fn width_one_spawns_no_thread() {
    let caller = thread::current().id();
    let items: Vec<usize> = (0..32).collect();
    let on_caller = |_: &usize| thread::current().id() == caller;
    let out = ThreadPool::new(1).install(|| map_in_order(&items, on_caller));
    assert!(out.iter().all(|&same| same));
    // One item never crosses threads either, at any width.
    let out = ThreadPool::new(8).install(|| map_in_order(&[0usize], on_caller));
    assert_eq!(out, vec![true]);
}

#[test]
fn nested_fan_outs_stay_on_their_worker() {
    let items: Vec<usize> = (0..8).collect();
    let out = ThreadPool::new(4).install(|| {
        map_in_order(&items, |_| {
            let me = thread::current().id();
            map_in_order(&items, |_| thread::current().id() == me)
                .into_iter()
                .all(|same| same)
        })
    });
    assert!(out.into_iter().all(|same| same));
}

#[test]
fn ksa_threads_configuration_is_respected() {
    // The CI matrix runs the suite under KSA_THREADS=1 and 4; check the
    // parse contract against whatever the harness set.
    let configured = ksa_exec::configured_threads();
    match std::env::var("KSA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => assert_eq!(configured, n),
        _ => assert!(configured >= 1),
    }
}
