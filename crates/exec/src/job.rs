//! Type-erased units of work and the latches that signal their
//! completion.
//!
//! A [`JobRef`] is a fat raw pointer (data + execute fn) to a job living
//! on a blocked caller's stack ([`StackJob`], used by `join` and
//! `install`). Stack jobs are sound because the frame that owns them
//! blocks — actively working, or on a lock — until the job's latch is
//! set, which happens only *after* the result has been written.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A unit of work executable through a type-erased pointer.
///
/// # Safety
///
/// `execute` must be called at most once per job instance, with a pointer
/// obtained from [`JobRef::new`] on a still-live job.
pub(crate) trait Job {
    /// Runs the job. See the trait-level safety contract.
    unsafe fn execute(this: *const Self);
}

/// A type-erased pointer to a [`Job`], safe to send to another worker.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
}

// A JobRef is just an address; the Job safety contract (execute once,
// while live) is what makes moving it across threads sound.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Erases `job` into a sendable reference.
    ///
    /// # Safety
    ///
    /// `job` must stay live until the returned reference is executed.
    pub(crate) unsafe fn new<J: Job>(job: *const J) -> JobRef {
        unsafe fn execute_erased<J: Job>(ptr: *const ()) {
            J::execute(ptr.cast::<J>());
        }
        JobRef {
            data: job.cast::<()>(),
            execute_fn: execute_erased::<J>,
        }
    }

    /// Runs the job.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, while the job is live.
    pub(crate) unsafe fn execute(self) {
        (self.execute_fn)(self.data);
    }
}

/// Completion signal, set exactly once by whichever thread ran the job.
pub(crate) trait Latch {
    /// Marks the latch as set, releasing any waiter.
    fn set(&self);
}

/// A latch probed by a worker that keeps stealing while it waits.
pub(crate) struct SpinLatch {
    done: AtomicBool,
}

impl SpinLatch {
    pub(crate) fn new() -> Self {
        SpinLatch {
            done: AtomicBool::new(false),
        }
    }

    /// Whether the latch has been set (acquires the job's result writes).
    pub(crate) fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

impl Latch for SpinLatch {
    fn set(&self) {
        self.done.store(true, Ordering::Release);
    }
}

/// A blocking latch for threads outside the pool (they have no deque to
/// steal from, so they sleep on a condvar).
pub(crate) struct LockLatch {
    state: Mutex<bool>,
    cv: Condvar,
}

impl LockLatch {
    pub(crate) fn new() -> Self {
        LockLatch {
            state: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the latch is set.
    pub(crate) fn wait(&self) {
        let mut done = self.state.lock().expect("latch poisoned");
        while !*done {
            done = self.cv.wait(done).expect("latch poisoned");
        }
    }
}

impl Latch for LockLatch {
    fn set(&self) {
        let mut done = self.state.lock().expect("latch poisoned");
        *done = true;
        self.cv.notify_all();
    }
}

/// The outcome slot of a [`StackJob`].
enum JobResult<R> {
    /// Not executed yet.
    Pending,
    /// Completed with a value.
    Ok(R),
    /// The closure panicked; the payload is re-thrown at the joiner.
    Panic(Box<dyn Any + Send>),
}

/// A job allocated on the stack of the frame that waits for it.
///
/// The frame pushes `as_job_ref()` onto a deque, then blocks (working or
/// sleeping) until the latch reports completion, then reads the result —
/// so the referenced closure and result slot never outlive the frame.
pub(crate) struct StackJob<L: Latch, F, R> {
    latch: L,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<JobResult<R>>,
}

impl<L, F, R> StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R,
{
    pub(crate) fn new(latch: L, func: F) -> Self {
        StackJob {
            latch,
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(JobResult::Pending),
        }
    }

    pub(crate) fn latch(&self) -> &L {
        &self.latch
    }

    /// Erases this job. See [`JobRef::new`] for the liveness contract.
    ///
    /// # Safety
    ///
    /// The caller must keep `self` alive (blocked in place) until the
    /// returned reference has executed, and execute it at most once.
    pub(crate) unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Consumes the completed job, returning its result or resuming the
    /// panic its closure raised.
    ///
    /// Must only be called after the latch is set.
    pub(crate) fn into_result(self) -> R {
        match self.result.into_inner() {
            JobResult::Ok(r) => r,
            JobResult::Panic(p) => panic::resume_unwind(p),
            JobResult::Pending => unreachable!("StackJob::into_result before completion"),
        }
    }
}

impl<L, F, R> Job for StackJob<L, F, R>
where
    L: Latch,
    F: FnOnce() -> R,
{
    unsafe fn execute(this: *const Self) {
        let this = &*this;
        let func = (*this.func.get()).take().expect("StackJob executed twice");
        let result = match panic::catch_unwind(AssertUnwindSafe(func)) {
            Ok(r) => JobResult::Ok(r),
            Err(p) => JobResult::Panic(p),
        };
        *this.result.get() = result;
        // Result write happens-before the Release store in set().
        this.latch.set();
    }
}

/// A boxed heap job, the queue tests' stand-in for real work: ownership
/// passes to the queue and the box is freed when the job executes.
#[cfg(test)]
pub(crate) struct HeapJob {
    func: Box<dyn FnOnce() + Send>,
}

#[cfg(test)]
impl HeapJob {
    pub(crate) fn new(func: Box<dyn FnOnce() + Send>) -> Box<Self> {
        Box::new(HeapJob { func })
    }

    /// Erases the boxed job; ownership passes to the returned reference
    /// (freed when executed).
    pub(crate) fn into_job_ref(self: Box<Self>) -> JobRef {
        unsafe { JobRef::new(Box::into_raw(self)) }
    }
}

#[cfg(test)]
impl Job for HeapJob {
    unsafe fn execute(this: *const Self) {
        let boxed = Box::from_raw(this as *mut Self);
        (boxed.func)();
    }
}
