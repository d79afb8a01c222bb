//! # ksa-exec
//!
//! The one place the k-set agreement reproduction crosses threads: a
//! fan-out of whole, independent jobs (experiments) over scoped worker
//! threads. Every inner kernel (homology, checker, solvability,
//! domination searches) runs on the thread that calls it; only
//! [`map_in_order`] starts threads, and its results come back in input
//! order, so output never depends on the width (DESIGN.md §4).
//!
//! The width is [`configured_threads`] (`KSA_THREADS`), or the width of
//! an enclosing [`ThreadPool::install`].
//!
//! ## Example
//!
//! ```
//! let squares = ksa_exec::ThreadPool::new(2)
//!     .install(|| ksa_exec::map_in_order(&[1u64, 2, 3], |&x| x * x));
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```

#![deny(missing_docs)]

use ksa_obs::PerfCounter;
use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

thread_local! {
    /// The width installed on this thread, if any.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The default fan-out width: the `KSA_THREADS` environment variable when
/// set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
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

/// The width a fan-out started on this thread uses.
fn current_width() -> usize {
    WIDTH.with(Cell::get).unwrap_or_else(configured_threads)
}

/// Runs `f` with `width` installed on this thread, restoring the previous
/// width afterwards (also when `f` panics).
fn with_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WIDTH.with(|w| w.replace(Some(width))));
    f()
}

/// A fan-out width. It owns no threads: [`map_in_order`] starts scoped
/// workers per call and joins them before returning.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A width of `threads` (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// The width.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` on the calling thread with this width in effect for any
    /// [`map_in_order`] started inside `f`.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R,
    {
        with_width(self.threads, f)
    }
}

/// Maps `f` over `items` and returns the results in input order.
///
/// At width 1, or with at most one item, everything runs on the calling
/// thread. Otherwise the caller and `width - 1` scoped workers pull item
/// indices from a shared counter; each runs its items with width 1, so a
/// nested fan-out stays on its thread. If `f` panics, no further items
/// are handed out, and the first payload is re-raised once every worker
/// has stopped.
pub fn map_in_order<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let width = current_width().min(items.len());
    if width <= 1 {
        return items.iter().map(f).collect();
    }
    // Both atomics publish no other data (items are shared read-only and
    // results travel back through `join`), so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let work = || -> Result<Vec<(usize, R)>, Box<dyn Any + Send>> {
        with_width(1, || {
            let mut done = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => done.push((i, r)),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        return Err(payload);
                    }
                }
            }
            Ok(done)
        })
    };
    let parts: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..width)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("ksa-exec-{w}"))
                    // Deep enough for the backtracking searches an
                    // experiment runs (the CSP recurses once per view).
                    .stack_size(8 << 20)
                    .spawn_scoped(s, work)
                    .expect("failed to spawn a worker thread")
            })
            .collect();
        ksa_obs::perf_count(PerfCounter::ExecSpawns, handles.len() as u64);
        let mine = work();
        std::iter::once(mine)
            .chain(handles.into_iter().map(|h| h.join().unwrap_or_else(Err)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for part in parts {
        match part {
            Ok(done) => done.into_iter().for_each(|(i, r)| slots[i] = Some(r)),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item was mapped"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_sets_and_restores_the_width() {
        let outer = current_width();
        let inner = ThreadPool::new(3).install(|| {
            let nested = ThreadPool::new(1).install(current_width);
            (current_width(), nested)
        });
        assert_eq!(inner, (3, 1));
        assert_eq!(current_width(), outer);
    }

    #[test]
    fn zero_width_clamps_to_one() {
        assert_eq!(ThreadPool::new(0).num_threads(), 1);
    }

    #[test]
    fn empty_inputs() {
        let out: Vec<u8> = ThreadPool::new(4).install(|| map_in_order(&[] as &[u8], |&x| x));
        assert!(out.is_empty());
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let doubled = ThreadPool::new(4).install(|| map_in_order(&items, |&x| x * 2));
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }
}
