//! Structured task spawning: [`scope`](crate::scope) creates a [`Scope`]
//! whose spawned tasks may borrow from the enclosing stack frame; the
//! scope does not return until every spawned task (including nested
//! spawns) has completed, and the spawning worker helps execute them
//! while it waits.

use crate::job::HeapJob;
use crate::pool::Registry;
use std::any::Any;
use std::marker::PhantomData;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A raw pointer wrapper that is `Send` (the scope protocol guarantees
/// the pointee outlives every use).
struct SendPtr<T>(*const T);
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Send` wrapper, not the raw pointer inside it.
    fn get(&self) -> *const T {
        self.0
    }
}

/// A spawn scope tied to the stack frame of the [`crate::scope`] call.
///
/// Tasks spawned on the scope may borrow anything that outlives `'scope`;
/// the scope blocks (productively — executing pool work) until all of
/// them finish. The first panic raised by a task is re-thrown from
/// `scope` once every task has completed.
pub struct Scope<'scope> {
    /// The owning pool. Valid for the scope's whole lifetime: the scope
    /// body runs on a worker, whose registry outlives the frame.
    registry: *const Registry,
    /// Spawned-but-unfinished task count.
    pending: AtomicUsize,
    /// First panic payload raised by a spawned task.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Makes `'scope` invariant, as required for soundness of borrows.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawns `f` onto the pool. The closure receives the scope again,
    /// so tasks can spawn further tasks.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let scope_ptr = SendPtr(self as *const Scope<'scope>);
        let task = move || {
            // Valid: scope() blocks until `pending` drains, so the Scope
            // outlives this execution.
            let scope = unsafe { &*scope_ptr.get() };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(scope))) {
                let mut first = scope.panic.lock().expect("scope panic slot poisoned");
                first.get_or_insert(payload);
            }
            scope.pending.fetch_sub(1, Ordering::SeqCst);
        };
        // Erase 'scope: the completion protocol above is the actual
        // lifetime guarantee.
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(task);
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { mem::transmute(task) };
        let job = HeapJob::new(task).into_job_ref();
        let registry = unsafe { &*self.registry };
        match registry.current_worker() {
            Some(index) => registry.push_local(index, job),
            None => registry.inject(job),
        }
    }
}

/// Runs `f` with a scope on `registry`'s pool; called via
/// [`crate::scope`] / `ThreadPool::scope`.
pub(crate) fn scope_in<'scope, F, R>(registry: &Registry, f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    crate::pool::install_into(registry, || {
        let registry = crate::pool::current_registry()
            .expect("scope body runs on a worker")
            .1;
        let scope = Scope {
            registry: registry as *const Registry,
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            _marker: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Help the pool until every spawned task has finished. Even if
        // `f` panicked we must wait: tasks borrow the enclosing frame.
        let index = registry
            .current_worker()
            .expect("scope body runs on a worker");
        let mut spins = 0u32;
        while scope.pending.load(Ordering::SeqCst) != 0 {
            // Own-deque pops are this scope's spawned work; injector and
            // sibling steals belong to other frames and are charged to
            // the helped account (`crate::helped_nanos`).
            if let Some(job) = registry.pop_own(index) {
                unsafe { job.execute() };
                spins = 0;
            } else if let Some(job) = registry.steal_work(index) {
                unsafe { crate::pool::execute_helped(job) };
                spins = 0;
            } else if spins < 64 {
                std::hint::spin_loop();
                spins += 1;
            } else {
                std::thread::yield_now();
            }
        }

        match result {
            Ok(r) => {
                let task_panic = scope
                    .panic
                    .lock()
                    .expect("scope panic slot poisoned")
                    .take();
                match task_panic {
                    Some(payload) => panic::resume_unwind(payload),
                    None => r,
                }
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    })
}
