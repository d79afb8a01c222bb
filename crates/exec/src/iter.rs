//! Rayon-style parallel iterators over the work-stealing pool.
//!
//! The API surface (traits, method set) follows rayon's, so call sites
//! read as they would against rayon: `map`/`filter`/`collect`
//! preserve input order, reductions combine partial results in input
//! order (deterministic for associative operators), and `any`/`find_any`
//! cooperatively early-exit through a shared flag.
//!
//! Rather than one static chunk per core, this implementation splits
//! **adaptively**: work is divided by recursive
//! [`crate::join`], halving down to a grain sized for the pool and
//! splitting even finer while workers are observed idle. Idle workers
//! steal the biggest outstanding half, so irregular per-item costs (a
//! branch-and-bound subtree that fizzles vs one that explodes) rebalance
//! instead of serializing behind the unluckiest static chunk.
//!
//! Determinism note: all merge steps are in input order, so every
//! combinator except `find_any` returns results independent of the split
//! tree and thread count; `find_any` (like rayon's) returns *some* match.

use crate::pool::current_registry;
use std::sync::atomic::{AtomicBool, Ordering};

/// Smallest workload worth a task of its own when workers are idle.
const MIN_GRAIN: usize = 4;

/// Per-leaf workload target: enough leaves to balance, few enough that
/// split overhead stays invisible.
fn grain_for(len: usize) -> usize {
    let threads = match current_registry() {
        Some((_, registry)) => registry.num_threads(),
        None => crate::configured_threads(),
    };
    (len / (threads * 4)).max(1)
}

/// Whether a workload of `len` items should fork again.
fn should_split(len: usize, grain: usize) -> bool {
    if len <= 1 {
        return false;
    }
    if len > grain {
        return true;
    }
    // Adaptive refinement: below the static grain, keep splitting only
    // while some worker is parked hungry. Results are unaffected (all
    // merges are order-preserving); only the task granularity changes.
    len >= MIN_GRAIN && current_registry().is_some_and(|(_, registry)| registry.has_sleepers())
}

/// Runs `f` over adaptively-sized contiguous chunks of `items`, in
/// parallel; returns the per-chunk results **in input order**.
fn run_chunks<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(Vec<T>) -> O + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let grain = grain_for(items.len());

    fn recurse<T, O, F>(items: Vec<T>, grain: usize, f: &F) -> Vec<O>
    where
        T: Send,
        O: Send,
        F: Fn(Vec<T>) -> O + Sync,
    {
        if !should_split(items.len(), grain) {
            return vec![f(items)];
        }
        let mid = items.len() / 2;
        let mut left = items;
        let right = left.split_off(mid);
        let (mut out_left, out_right) =
            crate::join(|| recurse(left, grain, f), || recurse(right, grain, f));
        out_left.extend(out_right);
        out_left
    }

    recurse(items, grain, &f)
}

/// Conversion into a parallel iterator (owning).
pub trait IntoParallelIterator {
    /// The item type.
    type Item: Send;

    /// Materializes the source into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

/// Conversion into a borrowing parallel iterator.
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed item type.
    type Item: Send + 'a;

    /// A parallel iterator over references.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;

    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;

    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// A materialized parallel iterator: the items to process, in order.
pub struct ParIter<T> {
    items: Vec<T>,
}

/// The consuming operations — same trait shape as real rayon's
/// `ParallelIterator`, same determinism guarantees as the vendor shim.
pub trait ParallelIterator: Sized {
    /// The item type.
    type Item: Send;

    /// Consumes `self` into its ordered item vector.
    fn into_items(self) -> Vec<Self::Item>;

    /// Order-preserving parallel map.
    fn map<O, F>(self, f: F) -> ParIter<O>
    where
        O: Send,
        F: Fn(Self::Item) -> O + Sync,
    {
        let results = run_chunks(self.into_items(), |chunk| {
            chunk.into_iter().map(&f).collect::<Vec<O>>()
        });
        ParIter {
            items: results.into_iter().flatten().collect(),
        }
    }

    /// Pairs each item with its index (indexed iterator semantics).
    fn enumerate(self) -> ParIter<(usize, Self::Item)> {
        ParIter {
            items: self.into_items().into_iter().enumerate().collect(),
        }
    }

    /// Order-preserving parallel filter.
    fn filter<F>(self, f: F) -> ParIter<Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Sync,
    {
        let results = run_chunks(self.into_items(), |chunk| {
            chunk.into_iter().filter(&f).collect::<Vec<_>>()
        });
        ParIter {
            items: results.into_iter().flatten().collect(),
        }
    }

    /// Order-preserving parallel filter-map.
    fn filter_map<O, F>(self, f: F) -> ParIter<O>
    where
        O: Send,
        F: Fn(Self::Item) -> Option<O> + Sync,
    {
        let results = run_chunks(self.into_items(), |chunk| {
            chunk.into_iter().filter_map(&f).collect::<Vec<O>>()
        });
        ParIter {
            items: results.into_iter().flatten().collect(),
        }
    }

    /// Parallel for-each (no ordering guarantees between chunks).
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        run_chunks(self.into_items(), |chunk| chunk.into_iter().for_each(&f));
    }

    /// Collects into any `FromIterator` target, preserving order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.into_items().into_iter().collect()
    }

    /// Parallel reduction. `identity` seeds each chunk; `op` must be
    /// associative for a deterministic result (partial results combine
    /// in input order).
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let partials = run_chunks(self.into_items(), |chunk| {
            chunk.into_iter().fold(identity(), &op)
        });
        partials.into_iter().fold(identity(), &op)
    }

    /// Minimum item, `None` when empty.
    fn min(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let partials = run_chunks(self.into_items(), |chunk| chunk.into_iter().min());
        partials.into_iter().flatten().min()
    }

    /// Maximum item, `None` when empty.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        let partials = run_chunks(self.into_items(), |chunk| chunk.into_iter().max());
        partials.into_iter().flatten().max()
    }

    /// Minimum by key; on ties the earliest item wins (deterministic).
    fn min_by_key<K, F>(self, f: F) -> Option<Self::Item>
    where
        K: Ord + Send,
        F: Fn(&Self::Item) -> K + Sync,
    {
        let partials = run_chunks(self.into_items(), |chunk| {
            chunk
                .into_iter()
                .map(|item| (f(&item), item))
                .min_by(|a, b| a.0.cmp(&b.0))
        });
        partials
            .into_iter()
            .flatten()
            .min_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, item)| item)
    }

    /// Parallel sum.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + std::iter::Sum<S> + Send,
    {
        let partials = run_chunks(self.into_items(), |chunk| chunk.into_iter().sum::<S>());
        partials.into_iter().sum()
    }

    /// Number of items.
    fn count(self) -> usize {
        self.into_items().len()
    }

    /// Whether any item satisfies `f`; stops scheduling work after the
    /// first match.
    fn any<F>(self, f: F) -> bool
    where
        F: Fn(Self::Item) -> bool + Sync,
    {
        let found = AtomicBool::new(false);
        run_chunks(self.into_items(), |chunk| {
            for item in chunk {
                if found.load(Ordering::Relaxed) {
                    return;
                }
                if f(item) {
                    found.store(true, Ordering::Relaxed);
                    return;
                }
            }
        });
        found.load(Ordering::Relaxed)
    }

    /// Whether every item satisfies `f` (early exit on a witness).
    fn all<F>(self, f: F) -> bool
    where
        F: Fn(&Self::Item) -> bool + Sync,
    {
        !self.any(|item| !f(&item))
    }

    /// Some item matching the predicate, if one exists. Like rayon's
    /// `find_any`, *which* match is returned is not deterministic.
    fn find_any<F>(self, f: F) -> Option<Self::Item>
    where
        F: Fn(&Self::Item) -> bool + Sync,
    {
        let found = AtomicBool::new(false);
        let partials = run_chunks(self.into_items(), |chunk| {
            for item in chunk {
                if found.load(Ordering::Relaxed) {
                    return None;
                }
                if f(&item) {
                    found.store(true, Ordering::Relaxed);
                    return Some(item);
                }
            }
            None
        });
        partials.into_iter().flatten().next()
    }
}

impl<T: Send> ParallelIterator for ParIter<T> {
    type Item = T;

    fn into_items(self) -> Vec<T> {
        self.items
    }
}
