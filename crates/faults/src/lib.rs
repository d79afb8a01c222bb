//! Deterministic fault injection for the analysis pipeline.
//!
//! A *fault site* is a named point in the codebase (worker entry, cache
//! read, cache write, …) that asks this crate "should I fail right now?"
//! before doing its real work. Which call actually fails is decided by a
//! *schedule*: a comma-separated spec armed once at startup, typically
//! from the `KSA_FAULTS` environment variable:
//!
//! ```text
//! worker_panic@2,cache_write_stall@1:10000
//! ```
//!
//! reads "the 2nd arrival at `worker_panic` panics; the 1st arrival at
//! `cache_write_stall` sleeps 10 000 ms". Occurrences are 1-based arrival
//! indices counted per site with an atomic counter, so a single-threaded
//! driver replays the exact same fault on every run — there is no
//! randomness anywhere in this crate. Multi-threaded drivers get
//! per-site determinism as long as arrivals at that site are ordered
//! (the server's cache and worker paths arrange exactly that in the
//! fault suite).
//!
//! The whole crate is feature-gated behind `enabled` and compiled out by
//! default, mirroring `ksa-obs`: the disabled stubs keep every call site
//! valid while [`arm`] fails loudly so a test suite can never silently
//! run with its faults missing.

/// A named fault site. The instrumented code names the site; the
/// schedule decides whether this arrival fails.
///
/// The spec names (`worker_panic`, …) are the `Display`/parse strings —
/// the registry is closed on purpose so a typo in `KSA_FAULTS` is an
/// arm-time error, not a silently inert fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// Inside a server worker, right before it runs a request: the
    /// injected fault is a deliberate panic the dispatcher must absorb.
    WorkerPanic,
    /// On a server acceptor, after a cache hit and before its replay:
    /// the injected fault is a deliberate panic the acceptor must absorb.
    HitPanic,
    /// Reading a cache entry back from disk: the injected fault is a
    /// simulated I/O error ("injected fault: cache_read_io").
    CacheReadIo,
    /// Persisting a cache entry: the injected fault is a simulated I/O
    /// error before any byte is written.
    CacheWriteIo,
    /// Persisting a cache entry: the injected fault stalls mid-write
    /// (after the temp file exists, before the rename) for the
    /// scheduled number of milliseconds — the window a `kill -9` test
    /// aims at.
    CacheWriteStall,
    /// Inside the compute path of a request: the injected fault stalls
    /// for the scheduled number of milliseconds so a deadline can trip.
    ComputeStall,
    /// On a server acceptor, right before it accepts a connection: the
    /// injected fault is a simulated I/O error standing in for a failed
    /// `accept` (say, `EMFILE`), which the acceptor must back off from.
    AcceptIo,
}

/// Every site, in declaration order.
pub const ALL_SITES: [Site; 7] = [
    Site::WorkerPanic,
    Site::HitPanic,
    Site::CacheReadIo,
    Site::CacheWriteIo,
    Site::CacheWriteStall,
    Site::ComputeStall,
    Site::AcceptIo,
];

impl Site {
    /// The spec/display name of this site.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Site::WorkerPanic => "worker_panic",
            Site::HitPanic => "hit_panic",
            Site::CacheReadIo => "cache_read_io",
            Site::CacheWriteIo => "cache_write_io",
            Site::CacheWriteStall => "cache_write_stall",
            Site::ComputeStall => "compute_stall",
            Site::AcceptIo => "accept_io",
        }
    }

    #[cfg_attr(not(any(feature = "enabled", test)), allow(dead_code))]
    fn from_name(name: &str) -> Option<Site> {
        ALL_SITES.iter().copied().find(|s| s.name() == name)
    }

    #[cfg_attr(not(feature = "enabled"), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            Site::WorkerPanic => 0,
            Site::HitPanic => 1,
            Site::CacheReadIo => 2,
            Site::CacheWriteIo => 3,
            Site::CacheWriteStall => 4,
            Site::ComputeStall => 5,
            Site::AcceptIo => 6,
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault, as returned by [`check`] when this arrival is
/// the scheduled occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Stall duration for the `*_stall` sites; `0` for the others.
    pub stall_ms: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(any(feature = "enabled", test)), allow(dead_code))]
struct Entry {
    site: Site,
    occurrence: u64,
    stall_ms: u64,
}

#[cfg_attr(not(any(feature = "enabled", test)), allow(dead_code))]
fn parse_spec(spec: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, rest) = part
            .split_once('@')
            .ok_or_else(|| format!("fault spec `{part}`: expected site@occurrence[:millis]"))?;
        let site = Site::from_name(name.trim())
            .ok_or_else(|| format!("fault spec `{part}`: unknown site `{}`", name.trim()))?;
        let (occ_str, stall_ms) = match rest.split_once(':') {
            Some((occ, ms)) => {
                let ms: u64 = ms
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault spec `{part}`: bad millis `{ms}`"))?;
                (occ, ms)
            }
            None => (rest, 0),
        };
        let occurrence: u64 = occ_str
            .trim()
            .parse()
            .map_err(|_| format!("fault spec `{part}`: bad occurrence `{occ_str}`"))?;
        if occurrence == 0 {
            return Err(format!(
                "fault spec `{part}`: occurrences are 1-based arrival indices"
            ));
        }
        entries.push(Entry {
            site,
            occurrence,
            stall_ms,
        });
    }
    Ok(entries)
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{parse_spec, Entry, Fault, Site, ALL_SITES};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    static SCHEDULE: Mutex<Option<Vec<Entry>>> = Mutex::new(None);
    static ARRIVALS: [AtomicU64; ALL_SITES.len()] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];

    /// Arm a schedule, replacing any previous one and resetting all
    /// arrival counters.
    ///
    /// # Errors
    ///
    /// Returns the parse error message for a malformed spec; nothing is
    /// armed in that case.
    pub fn arm(spec: &str) -> Result<(), String> {
        let entries = parse_spec(spec)?;
        let mut guard = SCHEDULE.lock().unwrap();
        for counter in &ARRIVALS {
            counter.store(0, Ordering::Relaxed);
        }
        *guard = Some(entries);
        Ok(())
    }

    /// Arm from the `KSA_FAULTS` environment variable if it is set.
    /// Returns `Ok(true)` if a schedule was armed.
    ///
    /// # Errors
    ///
    /// Propagates the parse error for a malformed variable.
    pub fn arm_from_env() -> Result<bool, String> {
        match std::env::var("KSA_FAULTS") {
            Ok(spec) => arm(&spec).map(|()| true),
            Err(_) => Ok(false),
        }
    }

    /// Drop the schedule and reset arrival counters.
    pub fn disarm() {
        let mut guard = SCHEDULE.lock().unwrap();
        for counter in &ARRIVALS {
            counter.store(0, Ordering::Relaxed);
        }
        *guard = None;
    }

    /// Whether a schedule is currently armed.
    #[must_use]
    pub fn armed() -> bool {
        SCHEDULE.lock().unwrap().is_some()
    }

    /// How many arrivals `site` has seen since the schedule was armed.
    #[must_use]
    pub fn arrivals(site: Site) -> u64 {
        ARRIVALS[site.index()].load(Ordering::Relaxed)
    }

    /// Record an arrival at `site` and return the scheduled fault if
    /// this arrival is one. With no armed schedule this is a single
    /// relaxed atomic increment.
    #[must_use]
    pub fn check(site: Site) -> Option<Fault> {
        let arrival = ARRIVALS[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let guard = SCHEDULE.lock().unwrap();
        let entries = guard.as_ref()?;
        entries
            .iter()
            .find(|e| e.site == site && e.occurrence == arrival)
            .map(|e| Fault {
                stall_ms: e.stall_ms,
            })
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Fault, Site};

    /// Disabled stub: fault injection is compiled out, so arming is a
    /// loud error — a suite that sets a schedule must notice the feature
    /// is missing rather than run green with no faults.
    pub fn arm(_spec: &str) -> Result<(), String> {
        Err("ksa-faults compiled without the `enabled` feature".to_string())
    }

    /// Disabled stub: reports whether `KSA_FAULTS` is set, and errors if
    /// it is — see [`arm`].
    pub fn arm_from_env() -> Result<bool, String> {
        match std::env::var("KSA_FAULTS") {
            Ok(_) => arm(""),
            Err(_) => return Ok(false),
        }
        .map(|()| true)
    }

    /// Disabled stub: nothing to disarm.
    pub fn disarm() {}

    /// Disabled stub: never armed.
    #[must_use]
    pub fn armed() -> bool {
        false
    }

    /// Disabled stub: no arrivals are counted.
    #[must_use]
    pub fn arrivals(_site: Site) -> u64 {
        0
    }

    /// Disabled stub: never a fault. Inlines to `None`.
    #[inline(always)]
    #[must_use]
    pub fn check(_site: Site) -> Option<Fault> {
        None
    }
}

pub use imp::{arm, arm_from_env, armed, arrivals, check, disarm};

/// Panic if this arrival at `site` is scheduled. The panic payload names
/// the site so `catch_unwind` handlers can report it.
pub fn maybe_panic(site: Site) {
    if check(site).is_some() {
        panic!("injected fault: {site}");
    }
}

/// Return a simulated I/O error if this arrival at `site` is scheduled.
///
/// # Errors
///
/// `ErrorKind::Other` with a message naming the site, only on the
/// scheduled arrival.
pub fn maybe_io_error(site: Site) -> std::io::Result<()> {
    match check(site) {
        Some(_) => Err(std::io::Error::other(format!("injected fault: {site}"))),
        None => Ok(()),
    }
}

/// Sleep for the scheduled duration if this arrival at `site` is a
/// scheduled stall.
pub fn maybe_stall(site: Site) {
    if let Some(fault) = check(site) {
        if fault.stall_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(fault.stall_ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        let entries = parse_spec("worker_panic@2,cache_write_stall@1:250").unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].site, Site::WorkerPanic);
        assert_eq!(entries[0].occurrence, 2);
        assert_eq!(entries[0].stall_ms, 0);
        assert_eq!(entries[1].site, Site::CacheWriteStall);
        assert_eq!(entries[1].stall_ms, 250);
        assert!(parse_spec("").unwrap().is_empty());
        assert!(parse_spec("no_such_site@1").is_err());
        assert!(parse_spec("worker_panic").is_err());
        assert!(parse_spec("worker_panic@0").is_err());
        assert!(parse_spec("worker_panic@x").is_err());
        assert!(parse_spec("compute_stall@1:abc").is_err());
    }

    #[test]
    fn site_names_round_trip() {
        for site in ALL_SITES {
            assert_eq!(Site::from_name(site.name()), Some(site));
        }
        assert_eq!(Site::from_name("bogus"), None);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn schedule_fires_on_exact_arrival() {
        // Tests in this crate share the global schedule; this is the
        // only enabled-mode test, so no cross-test interference.
        arm("cache_read_io@2").unwrap();
        assert!(armed());
        assert!(check(Site::CacheReadIo).is_none());
        assert_eq!(check(Site::CacheReadIo), Some(Fault { stall_ms: 0 }));
        assert!(check(Site::CacheReadIo).is_none());
        assert_eq!(arrivals(Site::CacheReadIo), 3);
        assert_eq!(arrivals(Site::WorkerPanic), 0);
        assert!(maybe_io_error(Site::CacheWriteIo).is_ok());
        disarm();
        assert!(!armed());
        assert_eq!(arrivals(Site::CacheReadIo), 0);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_stubs_are_inert_and_arm_fails() {
        assert!(arm("worker_panic@1").is_err());
        assert!(!armed());
        assert!(check(Site::WorkerPanic).is_none());
        assert!(maybe_io_error(Site::CacheReadIo).is_ok());
        maybe_panic(Site::WorkerPanic);
        maybe_stall(Site::ComputeStall);
        assert_eq!(arrivals(Site::WorkerPanic), 0);
    }
}
