//! Stress tests for the work-stealing engine: hammer `join`, stealing
//! and the iterator layer under forced pool sizes (1, 2 and 8
//! workers — oversubscribed relative to small CI machines on purpose, so
//! steals, contended pops and park/wake races actually happen).

use ksa_exec::prelude::*;
use ksa_exec::ThreadPool;

/// The pool sizes every test runs at (mirrors the CI `KSA_THREADS`
/// matrix, plus an oversubscribed size).
const SIZES: [usize; 3] = [1, 2, 8];

/// Fork-join fibonacci: a deep, very fine-grained task tree — worst case
/// for join overhead, best case for finding deque races.
fn fib(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let (a, b) = ksa_exec::join(|| fib(n - 1), || fib(n - 2));
    a + b
}

#[test]
fn join_tree_at_forced_sizes() {
    for threads in SIZES {
        let pool = ThreadPool::new(threads);
        assert_eq!(pool.num_threads(), threads);
        let result = pool.install(|| fib(20));
        assert_eq!(result, 6765, "threads = {threads}");
    }
}

#[test]
fn join_returns_both_results_in_order() {
    for threads in SIZES {
        let pool = ThreadPool::new(threads);
        for i in 0..200u64 {
            let (a, b) = pool.join(move || i * 2, move || i * 2 + 1);
            assert_eq!((a, b), (i * 2, i * 2 + 1));
        }
    }
}

#[test]
fn nested_joins_inside_iterators() {
    for threads in SIZES {
        let pool = ThreadPool::new(threads);
        let total: u64 = pool.install(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| fib((i % 12) as u64))
                .sum()
        });
        let expected: u64 = (0..64usize).map(|i| fib((i % 12) as u64)).sum();
        assert_eq!(total, expected, "threads = {threads}");
    }
}

#[test]
fn iterator_results_identical_across_pool_sizes() {
    // The determinism guarantee that lets the solvability enumeration
    // and the checker merge in enumeration order: same results at 1, 2 and 8
    // workers.
    let input: Vec<u64> = (0..50_000).collect();
    let reference: Vec<u64> = input.iter().map(|&x| x.wrapping_mul(x) % 977).collect();
    let ref_sum: u64 = reference.iter().sum();
    for threads in SIZES {
        let pool = ThreadPool::new(threads);
        let (mapped, sum) = pool.install(|| {
            let mapped: Vec<u64> = input.par_iter().map(|&x| x.wrapping_mul(x) % 977).collect();
            let sum: u64 = input.par_iter().map(|&x| x.wrapping_mul(x) % 977).sum();
            (mapped, sum)
        });
        assert_eq!(mapped, reference, "threads = {threads}");
        assert_eq!(sum, ref_sum, "threads = {threads}");
    }
}

#[test]
fn steal_heavy_irregular_workload() {
    // Wildly uneven leaf costs: a static chunker serializes behind the
    // expensive tail; work-stealing must keep finishing (and stay
    // correct) at every size.
    for threads in SIZES {
        let pool = ThreadPool::new(threads);
        let total: u64 = pool.install(|| {
            (0..256usize)
                .into_par_iter()
                .map(|i| {
                    let work = if i % 17 == 0 { 22 } else { 3 };
                    fib(work)
                })
                .sum()
        });
        let expected: u64 = (0..256usize)
            .map(|i| fib(if i % 17 == 0 { 22 } else { 3 }))
            .sum();
        assert_eq!(total, expected, "threads = {threads}");
    }
}

#[test]
fn panic_propagates_from_join() {
    let pool = ThreadPool::new(2);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.install(|| {
            ksa_exec::join(
                || 1 + 1,
                || -> usize { panic!("deliberate test panic (b)") },
            )
        })
    }));
    assert!(result.is_err());
    // The pool survives the unwind and keeps scheduling.
    assert_eq!(pool.install(|| fib(10)), 55);
}

#[test]
fn external_threads_share_one_pool() {
    // Many OS threads hammering install/join on the same pool at once:
    // exercises the injector, LockLatch wakeups and cross-thread result
    // delivery.
    let pool = ThreadPool::new(4);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..50 {
                    let (a, b) = pool.join(move || t * 1000 + i, move || fib(10));
                    assert_eq!(a, t * 1000 + i);
                    assert_eq!(b, 55);
                }
            });
        }
    });
}

#[test]
fn ksa_threads_configuration_is_respected() {
    // `configured_threads` drives the global pool; the CI matrix runs
    // the whole suite under KSA_THREADS=1 and KSA_THREADS=4. Here we
    // check the parse contract against whatever the harness set.
    let configured = ksa_exec::configured_threads();
    match std::env::var("KSA_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => assert_eq!(configured, n),
        _ => assert!(configured >= 1),
    }
    assert!(ksa_exec::current_num_threads() >= 1);
}
