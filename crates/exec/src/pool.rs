//! The thread pool: a registry of workers, each owning a mutex-guarded
//! deque of jobs, plus an injector of the same type for work arriving
//! from outside the pool.
//!
//! Scheduling discipline: a worker prefers its own deque (LIFO — depth
//! first through its own splits), then the injector (externally submitted
//! roots), then stealing the *oldest* job from a sibling (FIFO — the
//! largest available subtree). Idle workers park on a condvar with a
//! short timeout; every push wakes sleepers, and the timeout bounds the
//! cost of any lost-wakeup race instead of complicating the protocol.

use crate::job::{JobRef, LockLatch, StackJob};
use ksa_obs::PerfCounter;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

thread_local! {
    /// Nanoseconds this thread has spent executing jobs acquired from
    /// *outside* its own deque (injector pops, sibling steals) while
    /// waiting inside a `join`. See [`helped_nanos`].
    static HELPED_NS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's cumulative helped-time account, in nanoseconds.
///
/// While a worker waits for a stolen job to finish it moonlights on work
/// from the injector or sibling deques; that wall time belongs to *other*
/// tasks, not to whatever frame the worker is nominally inside. Callers
/// timing a task on a worker thread (the bench fan-out) subtract the
/// delta of this account across the task to get exclusive on-task time.
///
/// Accounting is self-time based: when helped jobs nest (a helped job
/// itself waits and helps), the outer job's recorded time absorbs the
/// inner accruals, so any frame's delta is at most its elapsed time and
/// never double-counts. Own-deque pops are *not* counted — those are the
/// frame's own split-off work. Time helping descendants of the frame's
/// own task that were stolen and re-split by siblings is counted as
/// helped, so the delta is an upper bound on foreign work.
pub fn helped_nanos() -> u64 {
    HELPED_NS.with(Cell::get)
}

/// Executes a job acquired from the injector or a sibling deque during a
/// wait loop, charging its wall time to this thread's helped account
/// (absorbing any accruals made by nested helping inside it).
///
/// # Safety
///
/// Same contract as `JobRef::execute`: the job must be executed exactly
/// once.
pub(crate) unsafe fn execute_helped(job: JobRef) {
    let before = HELPED_NS.with(Cell::get);
    let start = std::time::Instant::now();
    job.execute();
    let elapsed = start.elapsed().as_nanos() as u64;
    HELPED_NS.with(|c| {
        let inner = c.get() - before;
        c.set(before + elapsed.max(inner));
    });
}

/// Distinguishes registries so a thread can tell which pool it belongs
/// to (pools are rare; ids never wrap in practice).
static NEXT_REGISTRY_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(registry id, worker index, registry pointer)` of the pool this
    /// thread works for, if any. The pointer stays valid for the whole
    /// worker lifetime (the worker holds an `Arc` to its registry).
    static WORKER: Cell<Option<(usize, usize, *const Registry)>> = const { Cell::new(None) };
}

/// Locks one job queue. No job runs while a queue lock is held, so a
/// poisoned queue means a bug in the pool itself.
fn lock(queue: &Mutex<VecDeque<JobRef>>) -> MutexGuard<'_, VecDeque<JobRef>> {
    queue.lock().expect("job queue poisoned")
}

/// Shared state of one pool.
pub(crate) struct Registry {
    id: usize,
    /// One deque per worker: the owner pushes and pops at the back
    /// (LIFO), thieves take from the front (FIFO).
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    injector: Mutex<VecDeque<JobRef>>,
    sleep_mutex: Mutex<()>,
    sleep_cv: Condvar,
    sleepers: AtomicUsize,
    terminate: AtomicBool,
}

impl Registry {
    fn new(threads: usize) -> Self {
        Registry {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep_mutex: Mutex::new(()),
            sleep_cv: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            terminate: AtomicBool::new(false),
        }
    }

    /// The worker index of the current thread in *this* registry.
    pub(crate) fn current_worker(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((id, index, _)) if id == self.id => Some(index),
            _ => None,
        })
    }

    pub(crate) fn num_threads(&self) -> usize {
        self.deques.len()
    }

    /// Whether any worker is currently parked (used by the adaptive
    /// splitter: idle workers mean splitting finer pays off).
    pub(crate) fn has_sleepers(&self) -> bool {
        self.sleepers.load(Ordering::Relaxed) > 0
    }

    /// Pushes onto the back of worker `index`'s own deque.
    pub(crate) fn push_local(&self, index: usize, job: JobRef) {
        ksa_obs::perf_count(PerfCounter::ExecSpawns, 1);
        lock(&self.deques[index]).push_back(job);
        self.wake();
    }

    /// Submits a job from outside (or from a worker, when it has no
    /// deque slot of its own to use).
    pub(crate) fn inject(&self, job: JobRef) {
        ksa_obs::perf_count(PerfCounter::ExecSpawns, 1);
        lock(&self.injector).push_back(job);
        self.wake();
    }

    /// One round of work-finding for `index`: own deque, injector, then
    /// stealing from siblings.
    pub(crate) fn find_work(&self, index: usize) -> Option<JobRef> {
        self.pop_own(index).or_else(|| self.steal_work(index))
    }

    /// Pops the newest job of worker `index`'s own deque (wait loops
    /// distinguish own work from helped work for the [`helped_nanos`]
    /// account).
    pub(crate) fn pop_own(&self, index: usize) -> Option<JobRef> {
        lock(&self.deques[index]).pop_back()
    }

    /// Work from anywhere but `index`'s own deque (also used while a
    /// worker waits on a latch, so it keeps the pool busy instead of
    /// spinning).
    pub(crate) fn steal_work(&self, index: usize) -> Option<JobRef> {
        let n = self.deques.len();
        let job = lock(&self.injector).pop_front().or_else(|| {
            (1..n).find_map(|offset| lock(&self.deques[(index + offset) % n]).pop_front())
        })?;
        ksa_obs::perf_count(PerfCounter::ExecSteals, 1);
        Some(job)
    }

    fn wake(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after a racing parker's
            // re-check; the park timeout bounds any remaining window.
            drop(self.sleep_mutex.lock().expect("sleep mutex poisoned"));
            self.sleep_cv.notify_all();
        }
    }

    fn park(&self) {
        ksa_obs::perf_count(PerfCounter::ExecParks, 1);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.sleep_mutex.lock().expect("sleep mutex poisoned");
        let _ = self
            .sleep_cv
            .wait_timeout(guard, Duration::from_millis(1))
            .expect("sleep mutex poisoned");
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

fn worker_loop(registry: Arc<Registry>, index: usize) {
    WORKER.with(|w| w.set(Some((registry.id, index, Arc::as_ptr(&registry)))));
    loop {
        if let Some(job) = registry.find_work(index) {
            unsafe { job.execute() };
            continue;
        }
        if registry.terminate.load(Ordering::SeqCst) {
            break;
        }
        registry.park();
    }
    WORKER.with(|w| w.set(None));
}

/// A work-stealing thread pool.
///
/// Most callers never construct one: the [`crate::join`] and
/// parallel-iterator entry points lazily start a process-global pool
/// sized by the `KSA_THREADS` environment variable (falling back to the
/// number of available cores). Explicit pools exist for tests and for
/// embedding at a forced size.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Starts a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let registry = Arc::new(Registry::new(threads));
        let handles = (0..threads)
            .map(|index| {
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("ksa-exec-{index}"))
                    // Deep enough for backtracking searches executed on
                    // workers (the CSP solver recurses once per view).
                    .stack_size(8 << 20)
                    .spawn(move || worker_loop(registry, index))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        ThreadPool { registry, handles }
    }

    /// Starts a pool sized by [`crate::configured_threads`].
    pub fn from_env() -> Self {
        ThreadPool::new(crate::configured_threads())
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// Runs `f` inside the pool: on a worker thread, with full access to
    /// work-stealing `join`. If the calling thread already is a
    /// worker of this pool, `f` runs inline.
    pub fn install<F, R>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        install_into(&self.registry, f)
    }

    /// Work-stealing fork-join on this pool: potentially runs `a` and
    /// `b` in parallel, returning both results. See [`crate::join`].
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let registry: &Registry = &self.registry;
        match registry.current_worker() {
            Some(index) => join_in_worker(registry, index, a, b),
            None => install_into(registry, || {
                let index = registry.current_worker().expect("installed on a worker");
                join_in_worker(registry, index, a, b)
            }),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate.store(true, Ordering::SeqCst);
        // Workers notice within one park timeout; nudge them anyway.
        self.registry.sleep_cv.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Runs `f` on a worker of `registry`, inline when already on one.
pub(crate) fn install_into<F, R>(registry: &Registry, f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    if registry.current_worker().is_some() {
        return f();
    }
    let job = StackJob::new(LockLatch::new(), f);
    unsafe { registry.inject(job.as_job_ref()) };
    job.latch().wait();
    job.into_result()
}

/// The registry the current thread works for, if any.
///
/// # Safety of the returned reference
///
/// The pointer in TLS is valid for as long as this thread is a worker
/// (the worker holds an `Arc` on its registry for its whole life), and
/// the reference does not escape the current job's execution.
pub(crate) fn current_registry() -> Option<(usize, &'static Registry)> {
    WORKER.with(|w| w.get().map(|(_, index, ptr)| (index, unsafe { &*ptr })))
}

/// The fork-join primitive, executed on a worker thread.
///
/// `b` is published on the worker's deque so any idle sibling can steal
/// it; the worker runs `a` itself, then either pops `b` back (running it
/// inline — the common, allocation-free fast path) or, if `b` was stolen,
/// works on other jobs until `b`'s latch is set.
pub(crate) fn join_in_worker<A, B, RA, RB>(
    registry: &Registry,
    index: usize,
    a: A,
    b: B,
) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(crate::job::SpinLatch::new(), b);
    // SAFETY: `job_b` lives on this frame, and the loop below does not
    // leave it until the job's latch is set, i.e. until it has run.
    registry.push_local(index, unsafe { job_b.as_job_ref() });

    let result_a = panic::catch_unwind(AssertUnwindSafe(a));

    // Whether or not `a` panicked, `job_b` lives on this stack frame and
    // may have been stolen — we must not unwind past it until its latch
    // is set.
    let mut spins = 0u32;
    while !job_b.latch().probe() {
        // Popping our own deque may return `job_b` itself (executed
        // inline via its JobRef) or deeper jobs pushed by ancestors —
        // running those here is sound: their joiners treat "gone from
        // the deque" exactly like "stolen" and wait on the latch.
        if let Some(job) = registry.pop_own(index) {
            unsafe { job.execute() };
            spins = 0;
        } else if let Some(job) = registry.steal_work(index) {
            // Stolen/injected work belongs to some other frame; charge
            // its wall time to the helped account so task timers can
            // subtract it (see `helped_nanos`).
            unsafe { execute_helped(job) };
            spins = 0;
        } else if spins < 64 {
            std::hint::spin_loop();
            spins += 1;
        } else {
            std::thread::yield_now();
        }
    }

    match result_a {
        Ok(ra) => (ra, job_b.into_result()),
        // `a`'s panic wins; `b`'s result (even a panic payload) is
        // dropped with the job.
        Err(p) => panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::HeapJob;

    /// A heap job that records `id` into `log` when executed.
    fn tagged(log: &Arc<Mutex<Vec<u32>>>, id: u32) -> JobRef {
        let log = Arc::clone(log);
        HeapJob::new(Box::new(move || log.lock().unwrap().push(id))).into_job_ref()
    }

    /// Runs the job and returns the id it recorded.
    fn id_of(log: &Arc<Mutex<Vec<u32>>>, job: Option<JobRef>) -> u32 {
        // SAFETY: every job here is a heap job taken off a queue exactly
        // once, so it is executed exactly once.
        unsafe { job.expect("a job").execute() };
        log.lock().unwrap().pop().expect("job recorded its id")
    }

    #[test]
    fn owner_pops_newest_thieves_take_oldest_injector_first() {
        // No worker threads: the test thread drives both workers' sides.
        let registry = Registry::new(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        for id in 1..=3 {
            registry.push_local(0, tagged(&log, id));
        }
        assert_eq!(id_of(&log, registry.pop_own(0)), 3, "owner pops LIFO");
        registry.inject(tagged(&log, 9));
        assert_eq!(
            id_of(&log, registry.steal_work(1)),
            9,
            "the injector is drained before any sibling deque"
        );
        assert_eq!(id_of(&log, registry.steal_work(1)), 1, "thieves steal FIFO");
        assert_eq!(id_of(&log, registry.find_work(0)), 2);
        assert!(registry.find_work(0).is_none() && registry.steal_work(1).is_none());
    }
}
