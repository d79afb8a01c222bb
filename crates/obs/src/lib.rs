//! Two-tier instrumentation for the whole workspace: deterministic work
//! counters, explicitly nondeterministic perf stats, and a span layer
//! that exports chrome://tracing-compatible trace-event JSON.
//!
//! # The two tiers
//!
//! **Deterministic work counters** ([`Counter`]) measure *what* the
//! pipeline computed: facets enumerated, views interned, boundary rows
//! assembled, GF(2) ranks reduced, CSP verdicts produced, budget
//! admissions, registry materializations. Every counted site performs a
//! thread-count-invariant amount of work (the determinism contract,
//! DESIGN.md §4), so the totals are **bit-identical at any
//! `KSA_THREADS`** — CI diffs them across thread counts exactly like
//! experiment verdicts, which turns the profile into a correctness gate.
//!
//! **Perf stats** ([`PerfCounter`]) measure *how* the run got it done:
//! worker spawns, redundant registry builds, cache quarantines, shed
//! requests, failed accepts, deadline trips. These depend on scheduling and live in a
//! separate namespace that CI strips before diffing.
//!
//! # Sharding and merging
//!
//! Counts land in per-thread shards (one cache line of relaxed atomics
//! per thread, registered on first use) so the hot path is a single
//! uncontended `fetch_add`. A [`snapshot`] merges shards in their
//! registration order; since merging is integer addition, the totals are
//! independent of both the merge order and how experiments were spread
//! over threads. Reads use relaxed ordering: callers snapshot after
//! joining the work they want counted, and the join's synchronization
//! publishes the increments.
//!
//! # Feature gating
//!
//! With the `enabled` feature off, every entry point is a no-op that the
//! optimizer deletes: counters vanish, [`span`] returns a unit guard and
//! never evaluates its name closure, [`snapshot`] returns empty tiers.
//! Downstream crates therefore call the API unconditionally.

use std::borrow::Cow;

/// The deterministic tier: work performed, invariant across
/// `KSA_THREADS` by the determinism contract.
///
/// Variant order is the canonical presentation order (JSON, reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Facets materialized into complexes (protocol rounds,
    /// pseudospheres, closed-above interpretations).
    FacetsEnumerated,
    /// Total simplexes produced by chain-complex face closures.
    FacesClosed,
    /// Distinct views interned into round/view tables.
    ViewsInterned,
    /// Sparse boundary rows assembled for rank reduction.
    BoundaryRows,
    /// Nonzeros across those boundary rows.
    BoundaryNnz,
    /// Boundary rows the certified rank path skipped because the basis
    /// of the boundary one dimension up already leads with them
    /// (clearing): `Σ_{k≥2} rank ∂_k` per certified complex.
    BoundaryRowsCleared,
    /// GF(2) rank reductions completed (union-find on `∂_1`, sparse
    /// echelon, or the scalar `rank_seq` oracle).
    RanksComputed,
    /// Connectivity scans that stopped before their requested cap.
    ConnectivityEarlyExits,
    /// CSP solvability verdicts produced (decided or Unknown).
    CspVerdicts,
    /// Symmetry-group order detected per CSP instance, summed (process
    /// automorphisms × value permutations).
    CspSymmetries,
    /// Root branches pruned as non-lex-least orbit representatives.
    /// Computed from the instance alone (root propagation + first
    /// branch variable), before the search explores any branch.
    CspOrbitRootPrunes,
    /// Decision nodes expanded by the pruned CSP search and the
    /// shelling search (searches a token interrupted are not counted).
    SearchNodes,
    /// Branches those searches skipped because a no-good (CSP) or
    /// dead used-set (shelling) table already refuted them.
    NoGoodHits,
    /// Entries recorded into those tables.
    NoGoodInserts,
    /// k-sweep verdicts derived by lifting a solvability certificate
    /// from k to k+1 (monotonicity) instead of searching.
    CspSweepSeeded,
    /// k-sweep verdicts derived from an impossibility proof at a higher
    /// k (monotonicity) instead of searching.
    CspSweepPruned,
    /// Budget admissions granted.
    BudgetAdmissions,
    /// Budget admissions refused.
    BudgetRejections,
    /// Registry resolutions through the materialization cache.
    RegistryLookups,
    /// Unique model materializations inserted into a registry cache.
    /// Cache hits are `RegistryLookups − RegistryMaterializations`;
    /// raw hit/miss counts would be racy (two concurrent first lookups
    /// both miss), the unique-insert count is not.
    RegistryMaterializations,
    /// Executions explored by the runtime checker.
    CheckerExecutions,
    /// Graph-layer domination/covering queries answered.
    DominationQueries,
    /// Machine-checkable certificates produced by the certifying paths
    /// (one per verdict, regardless of schedule).
    CertsEmitted,
    /// Certificates re-verified by the standalone `ksa-cert` checkers
    /// (one per check call, accept or reject).
    CertsChecked,
    /// Server cache lookups answered from a verified on-disk entry.
    /// Deterministic given the request sequence: a hit depends only on
    /// which keys were written before, never on scheduling.
    CacheHits,
    /// Server cache lookups that found no usable entry (absent, key
    /// mismatch, or quarantined — quarantines are additionally counted
    /// in the perf tier because *when* corruption is observed is not).
    CacheMisses,
    /// Server cache entries committed to disk (temp-file-then-rename).
    CacheWrites,
}

impl Counter {
    /// All counters, in presentation order.
    pub const ALL: [Counter; 27] = [
        Counter::FacetsEnumerated,
        Counter::FacesClosed,
        Counter::ViewsInterned,
        Counter::BoundaryRows,
        Counter::BoundaryNnz,
        Counter::BoundaryRowsCleared,
        Counter::RanksComputed,
        Counter::ConnectivityEarlyExits,
        Counter::CspVerdicts,
        Counter::CspSymmetries,
        Counter::CspOrbitRootPrunes,
        Counter::SearchNodes,
        Counter::NoGoodHits,
        Counter::NoGoodInserts,
        Counter::CspSweepSeeded,
        Counter::CspSweepPruned,
        Counter::BudgetAdmissions,
        Counter::BudgetRejections,
        Counter::RegistryLookups,
        Counter::RegistryMaterializations,
        Counter::CheckerExecutions,
        Counter::DominationQueries,
        Counter::CertsEmitted,
        Counter::CertsChecked,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheWrites,
    ];

    /// Stable snake_case name (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            Counter::FacetsEnumerated => "facets_enumerated",
            Counter::FacesClosed => "faces_closed",
            Counter::ViewsInterned => "views_interned",
            Counter::BoundaryRows => "boundary_rows",
            Counter::BoundaryNnz => "boundary_nnz",
            Counter::BoundaryRowsCleared => "boundary_rows_cleared",
            Counter::RanksComputed => "ranks_computed",
            Counter::ConnectivityEarlyExits => "connectivity_early_exits",
            Counter::CspVerdicts => "csp_verdicts",
            Counter::CspSymmetries => "csp_symmetries",
            Counter::CspOrbitRootPrunes => "csp_orbit_root_prunes",
            Counter::SearchNodes => "search_nodes",
            Counter::NoGoodHits => "nogood_hits",
            Counter::NoGoodInserts => "nogood_inserts",
            Counter::CspSweepSeeded => "csp_sweep_seeded",
            Counter::CspSweepPruned => "csp_sweep_pruned",
            Counter::BudgetAdmissions => "budget_admissions",
            Counter::BudgetRejections => "budget_rejections",
            Counter::RegistryLookups => "registry_lookups",
            Counter::RegistryMaterializations => "registry_materializations",
            Counter::CheckerExecutions => "checker_executions",
            Counter::DominationQueries => "domination_queries",
            Counter::CertsEmitted => "certs_emitted",
            Counter::CertsChecked => "certs_checked",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheWrites => "cache_writes",
        }
    }
}

/// The perf tier: scheduling-dependent statistics, explicitly **not**
/// deterministic across pool sizes (CI strips them before diffing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum PerfCounter {
    /// Always 0: `ksa-exec` no longer steals work. Kept only so callers
    /// built against the old work-stealing pool still compile.
    ExecSteals,
    /// Always 0: `ksa-exec` workers no longer park. Kept only so callers
    /// built against the old work-stealing pool still compile.
    ExecParks,
    /// Scoped worker threads started by `ksa_exec::map_in_order`.
    ExecSpawns,
    /// Registry materializations discarded because a concurrent racer
    /// already populated the cache entry.
    RegistryRedundantBuilds,
    /// Corrupt or truncated server cache entries quarantined on read
    /// (renamed aside, then transparently recomputed).
    CacheCorruptionsQuarantined,
    /// Requests refused with `Overloaded` because the server's bounded
    /// queue was full.
    RequestsShed,
    /// Deadlines observed tripping a `CancelToken` (counted once at
    /// the live→deadline transition; *when* a checkpoint notices is
    /// scheduling-dependent).
    DeadlinesTripped,
    /// Worker tasks that panicked and were isolated by `catch_unwind`
    /// into a structured error response.
    RequestsPanicked,
    /// Failed `accept` calls on the server's listening socket (each one
    /// followed by a fixed back-off before the acceptor retries).
    AcceptFailures,
}

impl PerfCounter {
    /// All perf counters, in presentation order.
    pub const ALL: [PerfCounter; 9] = [
        PerfCounter::ExecSteals,
        PerfCounter::ExecParks,
        PerfCounter::ExecSpawns,
        PerfCounter::RegistryRedundantBuilds,
        PerfCounter::CacheCorruptionsQuarantined,
        PerfCounter::RequestsShed,
        PerfCounter::DeadlinesTripped,
        PerfCounter::RequestsPanicked,
        PerfCounter::AcceptFailures,
    ];

    /// Stable snake_case name (JSON keys, report labels).
    pub fn name(self) -> &'static str {
        match self {
            PerfCounter::ExecSteals => "exec_steals",
            PerfCounter::ExecParks => "exec_parks",
            PerfCounter::ExecSpawns => "exec_spawns",
            PerfCounter::RegistryRedundantBuilds => "registry_redundant_builds",
            PerfCounter::CacheCorruptionsQuarantined => "cache_corruptions_quarantined",
            PerfCounter::RequestsShed => "requests_shed",
            PerfCounter::DeadlinesTripped => "deadlines_tripped",
            PerfCounter::RequestsPanicked => "requests_panicked",
            PerfCounter::AcceptFailures => "accept_failures",
        }
    }
}

/// A merged view of every shard at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Deterministic tier, in [`Counter::ALL`] order.
    pub det: Vec<(&'static str, u64)>,
    /// Perf tier, in [`PerfCounter::ALL`] order.
    pub perf: Vec<(&'static str, u64)>,
}

impl MetricsSnapshot {
    /// The deterministic-tier value for `c` (0 when the tier is empty,
    /// i.e. instrumentation compiled out).
    pub fn det_value(&self, c: Counter) -> u64 {
        self.det
            .iter()
            .find(|(name, _)| *name == c.name())
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Deterministic tier as a delta against an `earlier` snapshot —
    /// how tests scope counts to one workload on shared global state.
    pub fn det_delta(&self, earlier: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        self.det
            .iter()
            .map(|&(name, v)| (name, v - earlier.det_value_by_name(name)))
            .collect()
    }

    fn det_value_by_name(&self, name: &str) -> u64 {
        self.det
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Counter, MetricsSnapshot, PerfCounter};
    use std::borrow::Cow;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    const DET: usize = Counter::ALL.len();
    const PERF: usize = PerfCounter::ALL.len();

    /// One thread's counters. Shards are append-only in a global list:
    /// a dead thread's totals must keep contributing to snapshots.
    struct Shard {
        det: [AtomicU64; DET],
        perf: [AtomicU64; PERF],
    }

    fn shards() -> &'static Mutex<Vec<Arc<Shard>>> {
        static SHARDS: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
        SHARDS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static LOCAL: OnceLock<Arc<Shard>> = const { OnceLock::new() };
    }

    fn with_local<R>(f: impl FnOnce(&Shard) -> R) -> R {
        LOCAL.with(|cell| {
            let shard = cell.get_or_init(|| {
                let shard = Arc::new(Shard {
                    det: std::array::from_fn(|_| AtomicU64::new(0)),
                    perf: std::array::from_fn(|_| AtomicU64::new(0)),
                });
                shards()
                    .lock()
                    .expect("obs shards")
                    .push(Arc::clone(&shard));
                shard
            });
            f(shard)
        })
    }

    pub fn count(c: Counter, n: u64) {
        if n != 0 {
            with_local(|s| s.det[c as usize].fetch_add(n, Ordering::Relaxed));
        }
    }

    pub fn perf_count(p: PerfCounter, n: u64) {
        if n != 0 {
            with_local(|s| s.perf[p as usize].fetch_add(n, Ordering::Relaxed));
        }
    }

    pub fn snapshot() -> MetricsSnapshot {
        let shards = shards().lock().expect("obs shards");
        let mut det = [0u64; DET];
        let mut perf = [0u64; PERF];
        for shard in shards.iter() {
            for (i, slot) in shard.det.iter().enumerate() {
                det[i] += slot.load(Ordering::Relaxed);
            }
            for (i, slot) in shard.perf.iter().enumerate() {
                perf[i] += slot.load(Ordering::Relaxed);
            }
        }
        MetricsSnapshot {
            det: Counter::ALL
                .iter()
                .map(|&c| (c.name(), det[c as usize]))
                .collect(),
            perf: PerfCounter::ALL
                .iter()
                .map(|&p| (p.name(), perf[p as usize]))
                .collect(),
        }
    }

    // ---- span layer / trace export -------------------------------------

    struct TraceEvent {
        name: Cow<'static, str>,
        cat: &'static str,
        tid: u32,
        ts_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, u64)>,
    }

    struct TraceShared {
        enabled: AtomicBool,
        state: Mutex<TraceState>,
    }

    struct TraceState {
        epoch: Instant,
        events: Vec<TraceEvent>,
        threads: Vec<(u32, String)>,
        next_tid: u32,
    }

    fn trace_shared() -> &'static TraceShared {
        static TRACE: OnceLock<TraceShared> = OnceLock::new();
        TRACE.get_or_init(|| TraceShared {
            enabled: AtomicBool::new(false),
            state: Mutex::new(TraceState {
                epoch: Instant::now(),
                events: Vec::new(),
                threads: Vec::new(),
                next_tid: 0,
            }),
        })
    }

    thread_local! {
        static TID: Cell<u32> = const { Cell::new(u32::MAX) };
    }

    fn current_tid(state: &mut TraceState) -> u32 {
        TID.with(|cell| {
            let mut tid = cell.get();
            if tid == u32::MAX {
                tid = state.next_tid;
                state.next_tid += 1;
                state.threads.push((
                    tid,
                    std::thread::current().name().unwrap_or("?").to_string(),
                ));
                cell.set(tid);
            }
            tid
        })
    }

    pub fn trace_enabled() -> bool {
        trace_shared().enabled.load(Ordering::Relaxed)
    }

    pub fn trace_start() {
        let shared = trace_shared();
        {
            let mut state = shared.state.lock().expect("obs trace");
            state.epoch = Instant::now();
            state.events.clear();
        }
        shared.enabled.store(true, Ordering::SeqCst);
    }

    pub fn trace_stop() -> String {
        let shared = trace_shared();
        shared.enabled.store(false, Ordering::SeqCst);
        let state = shared.state.lock().expect("obs trace");
        render_trace(&state)
    }

    pub struct SpanGuard {
        open: Option<OpenSpan>,
    }

    struct OpenSpan {
        name: Cow<'static, str>,
        cat: &'static str,
        start: Instant,
        args: Vec<(&'static str, u64)>,
    }

    impl SpanGuard {
        pub fn arg(mut self, key: &'static str, value: u64) -> Self {
            if let Some(open) = self.open.as_mut() {
                open.args.push((key, value));
            }
            self
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(open) = self.open.take() else {
                return;
            };
            let end = Instant::now();
            let shared = trace_shared();
            // Tracing may have stopped while the span was open; keep the
            // event only if the collector is still live.
            if !shared.enabled.load(Ordering::Relaxed) {
                return;
            }
            let mut state = shared.state.lock().expect("obs trace");
            let tid = current_tid(&mut state);
            let ts_ns = open.start.saturating_duration_since(state.epoch).as_nanos() as u64;
            let dur_ns = end.saturating_duration_since(open.start).as_nanos() as u64;
            state.events.push(TraceEvent {
                name: open.name,
                cat: open.cat,
                tid,
                ts_ns,
                dur_ns,
                args: open.args,
            });
        }
    }

    pub fn span<N>(cat: &'static str, name: impl FnOnce() -> N) -> SpanGuard
    where
        N: Into<Cow<'static, str>>,
    {
        if !trace_enabled() {
            return SpanGuard { open: None };
        }
        SpanGuard {
            open: Some(OpenSpan {
                name: name().into(),
                cat,
                start: Instant::now(),
                args: Vec::new(),
            }),
        }
    }

    fn render_trace(state: &TraceState) -> String {
        let mut out = String::with_capacity(256 + state.events.len() * 128);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        for (tid, name) in &state.threads {
            push_event_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ));
        }
        for ev in &state.events {
            push_event_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{}\", \"cat\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}",
                ev.tid,
                escape(&ev.name),
                escape(ev.cat),
                ev.ts_ns as f64 / 1_000.0,
                ev.dur_ns as f64 / 1_000.0,
            ));
            if !ev.args.is_empty() {
                out.push_str(", \"args\": {");
                for (i, (key, value)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"{}\": {value}", escape(key)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    fn push_event_sep(out: &mut String, first: &mut bool) {
        if *first {
            *first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n    ");
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{Counter, MetricsSnapshot, PerfCounter};
    use std::borrow::Cow;

    #[inline(always)]
    pub fn count(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub fn perf_count(_p: PerfCounter, _n: u64) {}

    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    #[inline(always)]
    pub fn trace_enabled() -> bool {
        false
    }

    pub fn trace_start() {}

    pub fn trace_stop() -> String {
        "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n  ]\n}\n".to_string()
    }

    /// Unit guard: the span was compiled out.
    pub struct SpanGuard;

    impl SpanGuard {
        pub fn arg(self, _key: &'static str, _value: u64) -> Self {
            self
        }
    }

    #[inline(always)]
    pub fn span<N>(_cat: &'static str, _name: impl FnOnce() -> N) -> SpanGuard
    where
        N: Into<Cow<'static, str>>,
    {
        SpanGuard
    }
}

pub use imp::SpanGuard;

/// Adds `n` to a deterministic-tier counter on this thread's shard.
///
/// Call sites must perform a thread-count-invariant amount of counted
/// work (see the tier contract in the module docs) — that, not this
/// function, is what makes [`snapshot`] totals deterministic.
#[inline]
pub fn count(c: Counter, n: u64) {
    imp::count(c, n);
}

/// Adds `n` to a perf-tier counter on this thread's shard.
#[inline]
pub fn perf_count(p: PerfCounter, n: u64) {
    imp::perf_count(p, n);
}

/// Merges every shard into one [`MetricsSnapshot`]. Counts from work
/// that was joined before this call are fully visible.
pub fn snapshot() -> MetricsSnapshot {
    imp::snapshot()
}

/// Whether the trace collector is currently recording spans.
#[inline]
pub fn trace_enabled() -> bool {
    imp::trace_enabled()
}

/// Starts (or restarts) span collection: clears the buffer and re-bases
/// timestamps at "now".
pub fn trace_start() {
    imp::trace_start()
}

/// Stops span collection and renders the buffer as chrome://tracing
/// trace-event JSON (`{"traceEvents": [...]}` — load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>). Spans still open
/// when collection stops are discarded.
pub fn trace_stop() -> String {
    imp::trace_stop()
}

/// Opens a duration span; the returned guard records the span when
/// dropped. The name closure is only evaluated while a trace is being
/// collected, so `span("bench", || format!("experiment:{id}"))` costs
/// one atomic load when tracing is off.
#[inline]
pub fn span<N>(cat: &'static str, name: impl FnOnce() -> N) -> SpanGuard
where
    N: Into<Cow<'static, str>>,
{
    imp::span(cat, name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter state is process-global, so tests measure deltas.

    #[test]
    fn counts_accumulate_and_snapshot_merges() {
        let before = snapshot();
        count(Counter::BoundaryRows, 3);
        count(Counter::BoundaryRows, 4);
        count(Counter::RanksComputed, 0); // no-op, not a panic
        perf_count(PerfCounter::ExecSteals, 2);
        let after = snapshot();
        if cfg!(feature = "enabled") {
            let delta = after.det_delta(&before);
            let rows = delta
                .iter()
                .find(|(n, _)| *n == "boundary_rows")
                .map(|&(_, v)| v);
            assert_eq!(rows, Some(7));
            assert_eq!(after.det.len(), Counter::ALL.len());
            assert_eq!(after.perf.len(), PerfCounter::ALL.len());
        } else {
            assert!(after.det.is_empty());
            assert!(after.perf.is_empty());
        }
    }

    #[test]
    fn cross_thread_counts_merge_into_one_total() {
        let before = snapshot().det_value(Counter::FacesClosed);
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| count(Counter::FacesClosed, 5)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let delta = snapshot().det_value(Counter::FacesClosed) - before;
        if cfg!(feature = "enabled") {
            assert_eq!(delta, 20);
        } else {
            assert_eq!(delta, 0);
        }
    }

    #[test]
    fn names_are_unique_and_ordered() {
        let names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL order must match discriminant order");
        }
        for (i, p) in PerfCounter::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL order must match discriminant order");
        }
    }

    #[test]
    fn spans_export_wellformed_trace_json() {
        // The trace collector is global; this test owns it start-to-stop.
        trace_start();
        {
            let _outer = span("test", || "outer").arg("k", 2);
            let _inner = span("test", || format!("inner:{}", 7));
        }
        let json = trace_stop();
        if cfg!(feature = "enabled") {
            assert!(json.contains("\"traceEvents\""));
            assert!(json.contains("\"name\": \"outer\""));
            assert!(json.contains("\"name\": \"inner:7\""));
            assert!(json.contains("\"args\": {\"k\": 2}"));
            assert!(json.contains("\"ph\": \"M\""), "thread metadata present");
        } else {
            assert!(json.contains("\"traceEvents\""));
        }
        // Spans opened while tracing is off are free and recordless.
        let _ = span("test", || -> &'static str { panic!("name must be lazy") });
    }
}
