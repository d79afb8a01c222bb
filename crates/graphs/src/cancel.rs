//! Cooperative cancellation and deadlines for long-running searches.
//!
//! A [`CancelToken`] is the workspace's single cancellation idiom: the
//! CSP solvability sweep, the multi-round pipeline, the chain engine's
//! rank reductions and the shelling search all poll the same type at
//! their natural checkpoint granularity (per node, per round, per rank
//! reduction).
//!
//! The contract, in full (DESIGN.md §12.2):
//!
//! * **Cooperative** — nothing is interrupted preemptively; work stops
//!   at the next checkpoint after the token fires. Checkpoints are
//!   placed so the latency is bounded by one unit of the surrounding
//!   loop (one CSP node, one round step, one boundary-rank reduction).
//! * **Monotone** — a fired token never un-fires, and the *reason*
//!   ([`Interrupted::Cancelled`] vs [`Interrupted::DeadlineExceeded`])
//!   is latched by the first observer and stable afterwards.
//! * **Deterministic when silent** — a token that never fires is
//!   side-effect-free: every verdict computed under it is bit-identical
//!   to the token-free run at any `KSA_THREADS`. Tokens without a
//!   deadline never read the clock.
//! * **No partial facts** — a search interrupted by a token records
//!   nothing into its memo/no-good table (the same monotone-table
//!   contract budget exhaustion already obeys) and returns an error, not
//!   a verdict.
//!
//! [`RunBudget`](crate::budget::RunBudget) guards *how much* work a
//! computation may do; a [`CancelToken`] decides *whether it may keep
//! going at all*. Both live at the bottom of the workspace so every
//! layer shares one discipline; `ksa-core` re-exports them side by side
//! in `ksa_core::budget`.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a computation was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupted {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's [`Deadline`] passed.
    DeadlineExceeded,
}

impl fmt::Display for Interrupted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupted::Cancelled => write!(f, "the operation was cancelled"),
            Interrupted::DeadlineExceeded => write!(f, "the operation ran past its deadline"),
        }
    }
}

impl Error for Interrupted {}

/// A wall-clock deadline, constructed once and attached to a
/// [`CancelToken`]; the token trips the first time a checkpoint runs at
/// or after this instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline at the given instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// A deadline `ms` milliseconds from now. `in_millis(0)` is already
    /// past — useful for tests that need a deterministic trip.
    pub fn in_millis(ms: u64) -> Self {
        Deadline {
            at: Instant::now() + Duration::from_millis(ms),
        }
    }

    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// The deadline instant.
    pub fn instant(&self) -> Instant {
        self.at
    }

    /// Time left before the deadline (zero once past).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// Whether the deadline has passed.
    pub fn is_past(&self) -> bool {
        Instant::now() >= self.at
    }
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

#[derive(Debug)]
struct Inner {
    /// `LIVE` until the first trip; then latched to `CANCELLED` or
    /// `DEADLINE`. Relaxed ordering everywhere: the flag carries no
    /// data, and cooperative checkpoints tolerate observing a trip one
    /// poll late.
    state: AtomicU8,
    /// The wall-clock trip point, if any. Tokens without one never read
    /// the clock (checkpoints stay a single atomic load).
    deadline: Option<Instant>,
}

impl Inner {
    fn status(&self) -> Option<Interrupted> {
        match self.state.load(Ordering::Relaxed) {
            CANCELLED => return Some(Interrupted::Cancelled),
            DEADLINE => return Some(Interrupted::DeadlineExceeded),
            _ => {}
        }
        if let Some(at) = self.deadline {
            if Instant::now() >= at {
                if self
                    .state
                    .compare_exchange(LIVE, DEADLINE, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    // Perf tier: *when* a deadline is first observed is
                    // scheduling-dependent by nature.
                    ksa_obs::perf_count(ksa_obs::PerfCounter::DeadlinesTripped, 1);
                }
                return Some(Interrupted::DeadlineExceeded);
            }
        }
        None
    }
}

/// A shareable cancellation handle (clones observe the same state).
///
/// # Examples
///
/// ```
/// use ksa_graphs::cancel::{CancelToken, Interrupted};
///
/// let token = CancelToken::new();
/// assert_eq!(token.checkpoint(), Ok(()));
///
/// // Clones observe the same state: cancelling one fires them all.
/// let handle = token.clone();
/// handle.cancel();
/// assert!(token.is_cancelled());
/// assert_eq!(token.checkpoint(), Err(Interrupted::Cancelled));
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that fires only via [`CancelToken::cancel`]. Never reads
    /// the clock; a checkpoint is one relaxed atomic load.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: None,
            }),
        }
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Deadline) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline: Some(deadline.instant()),
            }),
        }
    }

    /// Fires the token with [`Interrupted::Cancelled`]. Idempotent; a
    /// token that already tripped its deadline keeps that reason.
    pub fn cancel(&self) {
        let _ = self.inner.state.compare_exchange(
            LIVE,
            CANCELLED,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Whether the token has fired, and why.
    pub fn status(&self) -> Option<Interrupted> {
        self.inner.status()
    }

    /// Whether the token has fired (cancellation or deadline).
    pub fn is_cancelled(&self) -> bool {
        self.status().is_some()
    }

    /// The poll point: `Ok(())` while live, the latched reason once
    /// fired. Long-running loops call this once per unit of work.
    pub fn checkpoint(&self) -> Result<(), Interrupted> {
        match self.status() {
            None => Ok(()),
            Some(why) => Err(why),
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.checkpoint(), Ok(()));
        assert_eq!(t.status(), None);
    }

    #[test]
    fn cancel_latches() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel(); // idempotent
        assert_eq!(t.checkpoint(), Err(Interrupted::Cancelled));
        assert_eq!(t.status(), Some(Interrupted::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn past_deadline_fires_as_deadline() {
        let t = CancelToken::with_deadline(Deadline::in_millis(0));
        assert_eq!(t.checkpoint(), Err(Interrupted::DeadlineExceeded));
        // The reason is latched: a later cancel cannot rewrite it.
        t.cancel();
        assert_eq!(t.checkpoint(), Err(Interrupted::DeadlineExceeded));
    }

    #[test]
    fn future_deadline_stays_live() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.is_past());
        assert!(d.remaining() > Duration::from_secs(3000));
        let t = CancelToken::with_deadline(d);
        assert_eq!(t.checkpoint(), Ok(()));
    }

    #[test]
    fn interrupted_displays() {
        assert!(!Interrupted::Cancelled.to_string().is_empty());
        assert!(!Interrupted::DeadlineExceeded.to_string().is_empty());
    }
}
