//! # ksa-exec
//!
//! A from-scratch **work-stealing execution engine** for the k-set
//! agreement reproduction: the scheduling substrate under every
//! fan-out hot path (the exhaustive checker, the solvability
//! enumeration, the combinatorial-number searches, the homology
//! pipeline). A pool of one worker is the sequential configuration.
//!
//! Why work stealing rather than static chunking? The workspace's
//! search trees are *irregular*: one branch-and-bound subtree dies at
//! depth 2 while its sibling explodes. Static chunking serializes
//! behind the unluckiest chunk; work-stealing rebalances continuously.
//!
//! ## Architecture
//!
//! * [`ThreadPool`] — a registry of workers, each with a mutex-guarded
//!   deque: the owner pushes/pops LIFO (depth-first through its own
//!   splits, cache-hot), thieves steal FIFO (the oldest, biggest
//!   subtree). A shared injector takes external submissions and is
//!   drained before any sibling deque; idle workers park on a condvar.
//!   The process-global pool starts lazily, sized by **`KSA_THREADS`**
//!   (else the number of available cores).
//! * [`join`] — the fork-join primitive: `b` is published for stealing,
//!   the caller runs `a`, then pops `b` back (the common allocation-free
//!   path) or helps the pool while a thief finishes `b`.
//! * [`iter`] — rayon-style parallel iterators with **adaptive
//!   splitting** (halve by `join` down to a pool-sized grain, finer while
//!   workers are idle) and **ordered reduction**: every merge is in input
//!   order, so parallel and sequential results are byte-identical for
//!   the associative operators the workspace uses, at any thread count.
//!
//! The iterator surface follows crates.io rayon's trait shape, so call
//! sites read as they would against rayon.
//!
//! ## Example
//!
//! ```
//! use ksa_exec::prelude::*;
//!
//! // Fork-join over an irregular recursion:
//! fn fib(n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (a, b) = ksa_exec::join(|| fib(n - 1), || fib(n - 2));
//!     a + b
//! }
//! assert_eq!(fib(16), 987);
//!
//! // Deterministic data parallelism:
//! let squares: Vec<u64> = (0..1000usize).into_par_iter().map(|i| (i * i) as u64).collect();
//! assert_eq!(squares[999], 998_001);
//! ```

#![deny(missing_docs)]

pub mod iter;
mod job;
mod pool;

pub use pool::{helped_nanos, ThreadPool};

/// The rayon-compatible imports: `par_iter`, `into_par_iter`, and the
/// [`iter::ParallelIterator`] combinators.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

use std::sync::OnceLock;

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-global pool, started on first use with
/// [`configured_threads`] workers. It lives for the rest of the process.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(ThreadPool::from_env)
}

/// The worker count the global pool is (or would be) started with: the
/// `KSA_THREADS` environment variable when set to a positive integer,
/// otherwise [`std::thread::available_parallelism`].
///
/// Read once per pool construction — changing the variable after the
/// global pool has started has no effect.
pub fn configured_threads() -> usize {
    match std::env::var("KSA_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_cores(),
        },
        Err(_) => available_cores(),
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of workers serving the calling context: the enclosing pool's
/// size when called from a worker thread, the global pool's size
/// otherwise.
pub fn current_num_threads() -> usize {
    match pool::current_registry() {
        Some((_, registry)) => registry.num_threads(),
        None => global().num_threads(),
    }
}

/// Potentially-parallel fork-join: runs `a` and `b`, possibly on
/// different workers, and returns both results.
///
/// On a worker thread (of whichever pool the caller is executing in),
/// this is the allocation-free fast path; from outside a pool the pair
/// is installed onto the global pool first. If either closure
/// panics, the panic is re-thrown here — after both closures have
/// stopped running (`a`'s payload wins when both panic).
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    match pool::current_registry() {
        Some((index, registry)) => pool::join_in_worker(registry, index, a, b),
        None => global().join(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn join_basic() {
        let (a, b) = super::join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<usize> = Vec::new();
        assert_eq!(
            v.par_iter().map(|&x| x).collect::<Vec<_>>(),
            Vec::<usize>::new()
        );
        assert_eq!(v.into_par_iter().min(), None);
    }

    #[test]
    fn reductions() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(v.par_iter().map(|&x| x).sum::<u64>(), 500_500);
        assert_eq!(v.par_iter().map(|&x| x).min(), Some(1));
        assert_eq!(v.par_iter().map(|&x| x).max(), Some(1000));
        assert_eq!(v.par_iter().map(|&x| x).count(), 1000);
        assert_eq!(
            (0..100usize).into_par_iter().reduce(|| 0, |a, b| a + b),
            4950
        );
    }

    #[test]
    fn searches() {
        let v: Vec<usize> = (0..10_000).collect();
        assert!(v.par_iter().any(|&x| x == 9_999));
        assert!(!v.par_iter().any(|&x| x == 10_000));
        assert!(v.par_iter().all(|&x| *x < 10_000));
        assert_eq!(
            v.par_iter().find_any(|&&x| x % 7_777 == 7_776),
            Some(&7_776)
        );
    }

    #[test]
    fn min_by_key_breaks_ties_deterministically() {
        let v = vec![(3, 'a'), (1, 'b'), (1, 'c'), (2, 'd')];
        assert_eq!(v.into_par_iter().min_by_key(|p| p.0), Some((1, 'b')));
    }
}
