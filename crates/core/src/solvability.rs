//! An exact decision procedure for **one-round oblivious solvability** of
//! k-set agreement on a closed-above model (extension beyond the paper).
//!
//! The paper sandwiches solvability between algorithmic upper bounds and
//! topological lower bounds. For small models we can do better: decide it
//! outright. A one-round oblivious algorithm (Def 2.5) *is* a map
//! `δ : flat view → value`, and (for inputs ranging over all assignments
//! of a finite value set) validity forces `δ(V) ∈ values(V)` — deciding a
//! value not heard is invalid in some compatible execution. So:
//!
//! > k-set agreement is solvable in one round by an oblivious algorithm
//! > with inputs from `{0..v}` **iff** there is an assignment of a heard
//! > value to every reachable flat view such that every execution (input
//! > assignment × allowed graph) sees at most `k` distinct values.
//!
//! The executions of a closed-above model factor exactly through the
//! per-process superset choices (Lemma 4.8), so the search space is finite
//! and complete. This module enumerates it and decides the CSP with a
//! **pruned search** built from three mutually-reinforcing reductions
//! (DESIGN.md §10):
//!
//! * **Unit propagation** — domains are value bitmasks; each ≤-k-distinct
//!   constraint runs generalized arc consistency to fixpoint (once an
//!   execution has `k` forced values, every other view in it must repeat
//!   one). The paper's hard refutations (the star-union kernels) collapse
//!   at the root under propagation alone.
//! * **Orbit symmetry breaking** — the instance inherits a symmetry group
//!   from the model: process permutations stabilizing the generator set
//!   ([`ksa_graphs::perm::stabilizing_permutations`]) × permutations of
//!   the value set. Partial assignments are keyed by the lex-least image
//!   of their decision set under the group; sibling branches with equal
//!   canonical keys are orbit duplicates and explored once.
//! * **A monotone no-good table** — refuted canonical decision sets are
//!   recorded in a search-local table. Every entry is a fact about the
//!   *instance* ("no solution extends this orbit"), so a lookup only
//!   skips work whose outcome is already decided.
//!
//! The instance is enumerated by **packed view keys** (DESIGN.md
//! §10.4): a view `(S, inputs restricted to S)` is one mixed-radix `u64`,
//! numbered at its first occurrence in a single sequential pass, and
//! only the distinct keys are decoded into flat views. Symmetry
//! detection and the k-sweep's witness lift match views by key too, and
//! a branch's orbit signature is computed only when something can read
//! it.
//!
//! Enumeration and search run on the calling thread, in one fixed
//! order, so verdicts, witness maps and search statistics are a
//! function of the instance alone — bit-identical at any `KSA_THREADS`.
//! [`decide_one_round_seq`] is the one sequential oracle: the flat-view
//! enumeration the keyed pass reproduces, then the historical
//! forward-checking search (no propagation, no orbits, no table).
//! The up-front [`RunBudget`] guard makes oversized instances fail fast
//! instead of enumerating unbounded superset spaces, and instances whose
//! keys would not fit a `u64` are refused before enumerating.
//!
//! Across `k`, verdicts are **monotone**: a witness for `k` (values
//! `{0..k}`) lifts to a witness for `k+1` (values `{0..k+1}`), and an
//! impossibility at `k` implies impossibility at `k−1`.
//! [`decide_one_round_sweep`] exploits both directions, binary-searching
//! the solvability boundary instead of deciding every `(model, k)` pair
//! from scratch.
//!
//! `Unsolvable` verdicts over the value range `{0, …, k}` imply general
//! unsolvability (an adversary can always restrict inputs), making this an
//! independent, non-topological check of Thm 5.4's impossibilities — see
//! the `solv` experiment.

use crate::budget::{CancelToken, Run, RunBudget};
use crate::error::CoreError;
use crate::task::Value;
use ksa_graphs::perm::Permutation;
use ksa_graphs::{Digraph, ProcSet};
use ksa_models::ClosedAboveModel;
use ksa_models::ObliviousModel;
use ksa_topology::interpretation::FlatView;
use ksa_topology::TopologyError;
use std::collections::{HashMap, HashSet};

/// Iterator over all input assignments of `n` processes over
/// `{0, …, values − 1}`, in odometer order (process 0 fastest).
fn input_assignments(n: usize, values: Value) -> impl Iterator<Item = Vec<Value>> {
    let mut next: Option<Vec<Value>> = Some(vec![0 as Value; n]);
    std::iter::from_fn(move || {
        let current = next.take()?;
        let mut succ = current.clone();
        let mut p = 0;
        loop {
            if p == n {
                break;
            }
            succ[p] += 1;
            if succ[p] < values {
                next = Some(succ);
                break;
            }
            succ[p] = 0;
            p += 1;
        }
        Some(current)
    })
}

/// The views and executions of a solvability instance (or of one input
/// assignment of it), both in first-occurrence order.
struct Enumeration {
    views: Vec<FlatView<Value>>,
    /// Executions as sorted, deduplicated view-id sets.
    executions: Vec<Vec<u32>>,
}

/// The error of an enumeration that found more than `limit` distinct
/// executions (`found` of them so far).
fn too_many_executions(found: usize, limit: usize) -> CoreError {
    CoreError::Topology(TopologyError::TooLarge {
        what: "solvability executions",
        estimated: found as u128,
        limit: limit as u128,
    })
}

/// Accumulates per-input [`Enumeration`]s (in input order) into the
/// global view table and execution set, enforcing `exec_limit`.
struct EnumerationMerger {
    view_ids: HashMap<FlatView<Value>, u32>,
    views: Vec<FlatView<Value>>,
    executions: Vec<Vec<u32>>,
    seen_exec: HashSet<Vec<u32>>,
    exec_limit: usize,
}

impl EnumerationMerger {
    fn new(exec_limit: usize) -> Self {
        EnumerationMerger {
            view_ids: HashMap::new(),
            views: Vec::new(),
            executions: Vec::new(),
            seen_exec: HashSet::new(),
            exec_limit,
        }
    }

    fn absorb(&mut self, local: Enumeration) -> Result<(), CoreError> {
        let remap: Vec<u32> = local
            .views
            .into_iter()
            .map(|view| {
                let next_id = self.views.len() as u32;
                *self.view_ids.entry(view.clone()).or_insert_with(|| {
                    self.views.push(view);
                    next_id
                })
            })
            .collect();
        for exec in local.executions {
            let mut mapped: Vec<u32> = exec.into_iter().map(|v| remap[v as usize]).collect();
            mapped.sort_unstable();
            mapped.dedup();
            if self.seen_exec.insert(mapped.clone()) {
                self.executions.push(mapped);
                if self.executions.len() > self.exec_limit {
                    return Err(too_many_executions(self.executions.len(), self.exec_limit));
                }
            }
        }
        Ok(())
    }
}

/// The packed key layout of one-round views (DESIGN.md §10.4). The view
/// `(S, inputs restricted to S)` is the mixed-radix number whose digit
/// `q` is 0 for `q ∉ S` and `input[q] + 1` otherwise, in radix
/// `values + 1`; equal views have equal keys and vice versa.
struct ViewKeys {
    radix: u64,
    /// `weights[q] = radix^q`.
    weights: Vec<u64>,
}

impl ViewKeys {
    /// The layout for `n` processes over `values` input values.
    ///
    /// # Errors
    ///
    /// [`TopologyError::TooLarge`] when the largest key,
    /// `(values + 1)^n − 1`, does not fit a `u64` — an instance of at
    /// least `2^40` input assignments.
    fn new(n: usize, values: Value) -> Result<ViewKeys, CoreError> {
        let radix = u64::from(values) + 1;
        let span = u32::try_from(n)
            .ok()
            .and_then(|n| u128::from(radix).checked_pow(n))
            .unwrap_or(u128::MAX);
        if span > 1 << 64 {
            return Err(CoreError::Topology(TopologyError::TooLarge {
                what: "solvability view keys",
                estimated: span,
                limit: 1 << 64,
            }));
        }
        let weights = std::iter::successors(Some(1u64), |w| w.checked_mul(radix))
            .take(n)
            .collect();
        Ok(ViewKeys { radix, weights })
    }

    /// The key of a flat view.
    fn key(&self, view: &[(usize, Value)]) -> u64 {
        view.iter()
            .map(|&(q, v)| (u64::from(v) + 1) * self.weights[q])
            .sum()
    }

    /// The flat view of a key, senders ascending.
    fn decode(&self, mut key: u64) -> FlatView<Value> {
        let mut view = Vec::new();
        let mut q = 0;
        while key != 0 {
            let digit = key % self.radix;
            if digit != 0 {
                view.push((q, (digit - 1) as Value));
            }
            key /= self.radix;
            q += 1;
        }
        view
    }
}

/// The one-round instance over `values` input values, enumerated by
/// packed view keys in one sequential pass: input assignments in
/// odometer order, then generators, superset choices and processes — the
/// order in which [`merge_all_seq`] over [`one_round_enumerate_input`]
/// meets them. Views and executions are numbered in first-occurrence
/// order, so both come out identical to that oracle's, order included.
/// Each candidate sender set is keyed once per input assignment, and
/// only the distinct keys are decoded into flat views.
///
/// # Errors
///
/// [`TopologyError::TooLarge`] when the keys do not fit a `u64` (checked
/// before enumerating) or when more than `exec_limit` distinct executions
/// occur (the oracle's error, raised at the same execution).
fn enumerate_keyed(
    model: &ClosedAboveModel,
    values: Value,
    exec_limit: usize,
) -> Result<Enumeration, CoreError> {
    let n = model.n();
    let layout = ViewKeys::new(n, values)?;
    // Every (generator, process)'s candidate sender sets, in choice order
    // (bit `i` of a choice adds the `i`-th unheard process), laid out
    // flat; `groups[g][p]` is the `(first candidate, count)` of `(g, p)`.
    let mut senders: Vec<ProcSet> = Vec::new();
    let groups: Vec<Vec<(usize, u64)>> = model
        .generators()
        .iter()
        .map(|g| {
            (0..n)
                .map(|p| {
                    let base = g.in_set(p);
                    let free: Vec<usize> = base.complement(n).iter().collect();
                    let start = senders.len();
                    senders.extend((0..1u64 << free.len()).map(|choice| {
                        let mut set = base;
                        for (bit, &q) in free.iter().enumerate() {
                            if choice >> bit & 1 == 1 {
                                set.insert(q);
                            }
                        }
                        set
                    }));
                    (start, 1u64 << free.len())
                })
                .collect()
        })
        .collect();

    let mut view_ids: HashMap<u64, u32> = HashMap::new();
    let mut keys: Vec<u64> = Vec::new();
    let mut exec_ids: HashMap<Vec<u32>, u32> = HashMap::new();
    // Per input assignment: each sender's key digit in place, and each
    // candidate's view id once it has occurred (`u32::MAX` before).
    let mut weight = vec![0u64; n];
    let mut candidate_id = vec![u32::MAX; senders.len()];
    let mut choice = vec![0u64; n];
    let mut exec: Vec<u32> = Vec::with_capacity(n);
    for inputs in input_assignments(n, values) {
        for ((w, &radix_q), &v) in weight.iter_mut().zip(&layout.weights).zip(&inputs) {
            *w = (u64::from(v) + 1) * radix_q;
        }
        candidate_id.fill(u32::MAX);
        for group in &groups {
            choice.fill(0);
            'choices: loop {
                exec.clear();
                for (&(start, _), &c) in group.iter().zip(&choice) {
                    let slot = start + c as usize;
                    if candidate_id[slot] == u32::MAX {
                        let key: u64 = senders[slot].iter().map(|q| weight[q]).sum();
                        let next_id = keys.len() as u32;
                        candidate_id[slot] = *view_ids.entry(key).or_insert_with(|| {
                            keys.push(key);
                            next_id
                        });
                    }
                    exec.push(candidate_id[slot]);
                }
                exec.sort_unstable();
                exec.dedup();
                if !exec_ids.contains_key(exec.as_slice()) {
                    let next_id = exec_ids.len() as u32;
                    exec_ids.insert(exec.clone(), next_id);
                    if exec_ids.len() > exec_limit {
                        return Err(too_many_executions(exec_ids.len(), exec_limit));
                    }
                }
                // Advance the superset odometer, process 0 fastest.
                for (c, &(_, count)) in choice.iter_mut().zip(group) {
                    *c += 1;
                    if *c < count {
                        continue 'choices;
                    }
                    *c = 0;
                }
                break;
            }
        }
    }
    let mut executions: Vec<(u32, Vec<u32>)> =
        exec_ids.into_iter().map(|(exec, id)| (id, exec)).collect();
    executions.sort_unstable_by_key(|&(id, _)| id);
    Ok(Enumeration {
        views: keys.into_iter().map(|key| layout.decode(key)).collect(),
        executions: executions.into_iter().map(|(_, exec)| exec).collect(),
    })
}

/// The one-round enumeration of `model` over `values` input values twice
/// over, as `(views, executions)`: by the keyed pass, then by the
/// sequential oracle. Exposed for the differential tests of the keyed
/// pass; not a supported entry point.
#[doc(hidden)]
#[allow(clippy::type_complexity)]
pub fn one_round_enumerations(
    model: &ClosedAboveModel,
    values: Value,
    exec_limit: usize,
) -> [Result<(Vec<FlatView<Value>>, Vec<Vec<u32>>), CoreError>; 2] {
    let n = model.n();
    let oracle = merge_all_seq(n, values, exec_limit, |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    });
    [enumerate_keyed(model, values, exec_limit), oracle]
        .map(|result| result.map(|e| (e.views, e.executions)))
}

/// Verdict of the decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solvability {
    /// A decision map exists; the witness maps each reachable flat view to
    /// its decision.
    Solvable(DecisionMap),
    /// No decision map exists: k-set agreement is not solvable in one
    /// round by any oblivious algorithm, for inputs over the given values.
    Unsolvable,
    /// The node budget was exhausted before the search completed.
    Unknown,
}

impl Solvability {
    /// Whether the verdict is `Solvable`.
    pub fn is_solvable(&self) -> bool {
        matches!(self, Solvability::Solvable(_))
    }
}

/// A witnessing oblivious decision map (flat view → decided value).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionMap {
    entries: Vec<(FlatView<Value>, Value)>,
}

impl DecisionMap {
    /// The decision for a flat view, if the view was reachable in the
    /// analyzed model.
    pub fn decide(&self, view: &FlatView<Value>) -> Option<Value> {
        self.entries
            .binary_search_by(|(v, _)| v.cmp(view))
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Number of distinct reachable views.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(flat view, decision)` entries in canonical sorted order —
    /// the raw material of a [`ksa_cert::SolvabilityCert`]. The map
    /// itself stays sealed; this is a read-only window.
    pub fn entries(&self) -> impl Iterator<Item = &(FlatView<Value>, Value)> {
        self.entries.iter()
    }
}

impl crate::algorithms::ObliviousAlgorithm for DecisionMap {
    fn name(&self) -> &'static str {
        "synthesized-decision-map"
    }

    fn decide(&self, _me: usize, view: &FlatView<Value>) -> Value {
        DecisionMap::decide(self, view).unwrap_or_else(|| {
            // Unreachable views (shouldn't occur on the analyzed model):
            // fall back to the minimum heard value.
            view.iter().map(|&(_, v)| v).min().expect("non-empty view")
        })
    }
}

/// The views and executions reachable from one input assignment of the
/// one-round decider: every generator, every per-process superset choice
/// (the odometer over "free bits" — processes not already heard). The
/// flat-view half of the sequential oracle [`merge_all_seq`].
fn one_round_enumerate_input(model: &ClosedAboveModel, n: usize, inputs: &[Value]) -> Enumeration {
    let mut local_ids: HashMap<FlatView<Value>, u32> = HashMap::new();
    let mut local_seen: HashSet<Vec<u32>> = HashSet::new();
    let mut local = Enumeration {
        views: Vec::new(),
        executions: Vec::new(),
    };
    for g in model.generators() {
        // Per-process free bits (processes not already heard).
        let bases: Vec<ProcSet> = (0..n).map(|p| g.in_set(p)).collect();
        let frees: Vec<Vec<usize>> = bases
            .iter()
            .map(|b| b.complement(n).iter().collect())
            .collect();
        // Odometer over all per-process superset choices.
        let mut choice: Vec<u64> = vec![0; n];
        loop {
            let mut exec: Vec<u32> = Vec::with_capacity(n);
            for p in 0..n {
                let mut senders = bases[p];
                for (bit, &q) in frees[p].iter().enumerate() {
                    if (choice[p] >> bit) & 1 == 1 {
                        senders.insert(q);
                    }
                }
                let view: FlatView<Value> = senders.iter().map(|q| (q, inputs[q])).collect();
                let next_id = local.views.len() as u32;
                let id = *local_ids.entry(view.clone()).or_insert_with(|| {
                    local.views.push(view);
                    next_id
                });
                exec.push(id);
            }
            exec.sort_unstable();
            exec.dedup();
            if local_seen.insert(exec.clone()) {
                local.executions.push(exec);
            }
            // Advance the odometer.
            let mut p = 0;
            loop {
                if p == n {
                    break;
                }
                choice[p] += 1;
                if choice[p] < (1u64 << frees[p].len()) {
                    break;
                }
                choice[p] = 0;
                p += 1;
            }
            if p == n {
                break;
            }
        }
    }
    local
}

/// Merges every input assignment's local enumeration sequentially, in
/// odometer order: the flat-view reference numbering that
/// [`enumerate_keyed`] reproduces.
fn merge_all_seq<F>(
    n: usize,
    values: Value,
    exec_limit: usize,
    enumerate: F,
) -> Result<Enumeration, CoreError>
where
    F: Fn(&[Value]) -> Enumeration,
{
    let mut merger = EnumerationMerger::new(exec_limit);
    for inputs in input_assignments(n, values) {
        merger.absorb(enumerate(&inputs))?;
    }
    Ok(Enumeration {
        views: merger.views,
        executions: merger.executions,
    })
}

/// Upper bound on the raw superset-odometer space the one-round decider
/// scans: `values^n` input assignments × `Σ_g 2^{free bits of g}`
/// superset choices. This is what actually bounds the *work* (distinct
/// executions after dedup can be far fewer), so it is what the
/// [`RunBudget`] admits up front.
fn one_round_raw_estimate(model: &ClosedAboveModel, n: usize, values: Value) -> u128 {
    let inputs = (values as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    let mut per_input: u128 = 0;
    for g in model.generators() {
        let free_bits: u32 = (0..n)
            .map(|p| g.in_set(p).complement(n).iter().count() as u32)
            .sum();
        let supersets = if free_bits >= 127 {
            u128::MAX
        } else {
            1u128 << free_bits
        };
        per_input = per_input.saturating_add(supersets);
    }
    inputs.saturating_mul(per_input)
}

fn validate_k(k: usize) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::BadParameter {
            name: "k",
            value: 0,
            domain: "[1, n]",
        });
    }
    Ok(())
}

/// The enumeration prologue of [`decide_one_round`]: validates `k`,
/// polls the token, admits the raw superset space against the budget,
/// then enumerates the instance by packed view keys ([`enumerate_keyed`]
/// numbers views and executions exactly as [`merge_all_seq`] does) and
/// polls again. Returns the value count and the instance.
fn enumerate_one_round(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    run: Run<'_>,
) -> Result<(Value, Enumeration), CoreError> {
    validate_k(k)?;
    run.checkpoint()?;
    let n = model.n();
    let values = value_max as Value + 1;
    run.budget.admit(
        "solvability superset enumeration",
        one_round_raw_estimate(model, n, values),
    )?;
    let exec_limit = usize::try_from(run.budget.max_executions).unwrap_or(usize::MAX);
    let instance = {
        let _span = ksa_obs::span("core", || "csp_enumerate").arg("k", k as u64);
        enumerate_keyed(model, values, exec_limit)?
    };
    run.checkpoint()?;
    Ok((values, instance))
}

/// Decides one-round oblivious solvability of k-set agreement on `model`
/// with inputs from `{0, …, value_max}`, returning the verdict, the
/// search's work accounting and — with `certify: Some(label)` — a
/// machine-checkable certificate of a decided verdict.
///
/// `run` carries the [`RunBudget`] of the search (a `u128` converts): it
/// bounds both the raw superset space scanned by the enumeration
/// (checked **up front**, so oversized instances fail fast instead of
/// running unbounded) and the number of distinct executions retained.
/// `node_budget` bounds the backtracking nodes (exceeding it returns
/// [`Solvability::Unknown`]).
///
/// The CSP runs the pruned search (propagation, orbit symmetry breaking
/// and a no-good table — see the module docs) on the calling thread.
/// Verdict, witness map and [`SearchStats`] are a function of the
/// instance, identical at any thread count. Decided verdicts agree with
/// [`decide_one_round_seq`]; at the `node_budget` boundary the two
/// searches may differ in which instances they give up on, never in a
/// decided verdict. Instances whose value range exceeds the bitmask
/// width fall back to the sequential reference and report default stats.
///
/// The run's [`CancelToken`], if any, is polled around the enumeration
/// and at every decision node, so an external cancellation (or deadline)
/// surfaces as an error instead of a verdict. A token that never fires
/// is side-effect-free.
///
/// With `certify: Some(label)` a decided verdict also yields a
/// [`ksa_cert::SolvabilityCert`] (DESIGN.md §11): `Solvable` carries the
/// full decision map, `Unsolvable` an exhaustion attestation built from
/// the [`SearchStats`]; `Unknown` yields none. The certificate's closure
/// graphs are enumerated independently of the search (the same
/// [`ksa_graphs::closure::enumerate_closure`] surface the replay
/// verifier uses), under the run's budget as the graph ceiling, so the
/// standalone checker replays decisions against a graph set the
/// producer did not hand-pick.
///
/// # Errors
///
/// [`CoreError::BadParameter`] for `k = 0`; [`CoreError::Budget`] when
/// the superset space exceeds the budget; [`CoreError::Topology`]
/// (budget) when the distinct-execution count exceeds it;
/// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`] when the
/// token fires; graph-layer errors when a certified closure enumeration
/// overruns the budget.
pub fn decide_one_round<'a>(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    run: impl Into<Run<'a>>,
    node_budget: usize,
    certify: Option<&str>,
) -> Result<(Solvability, SearchStats, Option<ksa_cert::SolvabilityCert>), CoreError> {
    let run = run.into();
    let (values, instance) = enumerate_one_round(model, k, value_max, run)?;
    let (verdict, stats) = solve_csp(
        model.generators(),
        values,
        instance.views,
        instance.executions,
        k,
        node_budget,
        run.cancel,
    )?;
    // A fired token degrades the search to `Unknown`; report the
    // interruption instead.
    run.checkpoint()?;
    let cert = match certify {
        Some(label) => solvability_cert(model, k, value_max, &verdict, &stats, run.budget, label)?,
        None => None,
    };
    Ok((verdict, stats, cert))
}

/// The sequential reference implementation of [`decide_one_round`]:
/// single-threaded enumeration and the canonical most-constrained-first
/// backtracking search, on the calling thread.
///
/// Plain forward checking with no propagation, orbits or no-good table:
/// an algorithm independent of the pruned search, so tests (and
/// skeptical users) can cross-check its verdicts.
///
/// # Errors
///
/// Same conditions as [`decide_one_round`].
pub fn decide_one_round_seq(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<Solvability, CoreError> {
    validate_k(k)?;
    let n = model.n();
    let values = value_max as Value + 1;
    RunBudget::new(exec_limit as u128).admit(
        "solvability superset enumeration",
        one_round_raw_estimate(model, n, values),
    )?;
    let instance = merge_all_seq(n, values, exec_limit, |inputs: &[Value]| {
        one_round_enumerate_input(model, n, inputs)
    })?;
    solve_csp_seq(
        CspInstance::new(instance.views, instance.executions, k),
        node_budget,
    )
}

/// The verdict of [`decide_one_round`] alone, at a generous node budget.
#[cfg(test)]
fn verdict_of(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    execs: u128,
) -> Result<Solvability, CoreError> {
    decide_one_round(model, k, value_max, execs, 50_000_000, None).map(|(verdict, _, _)| verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_models::named;

    const EXECS: usize = 2_000_000;
    const NODES: usize = 50_000_000;

    #[test]
    fn kernel_n3_boundary() {
        // Stars s=1, n=3: Thm 5.4 says 2-set impossible; γ_eq = 3 says
        // 3-set solvable. The decision procedure finds exactly that
        // boundary.
        let m = named::star_unions(3, 1).unwrap();
        let s2 = verdict_of(&m, 2, 2, EXECS as u128).unwrap();
        assert_eq!(s2, Solvability::Unsolvable);
        let s3 = verdict_of(&m, 3, 3, EXECS as u128).unwrap();
        assert!(s3.is_solvable());
    }

    #[test]
    fn ring_n3_boundary() {
        // Sym(C3): γ_eq(C3) = 2 upper; Thm 5.4 l+1 = 1: consensus
        // impossible; 2-set solvable.
        let m = named::symmetric_ring(3).unwrap();
        let s1 = verdict_of(&m, 1, 1, EXECS as u128).unwrap();
        assert_eq!(s1, Solvability::Unsolvable);
        let s2 = verdict_of(&m, 2, 2, EXECS as u128).unwrap();
        assert!(s2.is_solvable());
    }

    #[test]
    fn stars_n3_s2_solves_2set() {
        // n=3, s=2: upper n−s+1 = 2, lower n−s = 1 impossible.
        let m = named::star_unions(3, 2).unwrap();
        assert_eq!(
            verdict_of(&m, 1, 1, EXECS as u128).unwrap(),
            Solvability::Unsolvable
        );
        assert!(verdict_of(&m, 2, 2, EXECS as u128).unwrap().is_solvable());
    }

    #[test]
    fn witness_is_a_working_algorithm() {
        use ksa_graphs::closure::enumerate_closure;
        let m = named::star_unions(3, 2).unwrap();
        let Solvability::Solvable(map) = verdict_of(&m, 2, 2, EXECS as u128).unwrap() else {
            panic!("solvable");
        };
        assert!(!map.is_empty());
        // Replay the witness over the whole model: never more than 2
        // distinct decisions, always valid.
        let mut graphs = Vec::new();
        for g in m.generators() {
            graphs.extend(enumerate_closure(g, 1 << 10).unwrap());
        }
        graphs.sort();
        graphs.dedup();
        for a in 0..3u32 {
            for b in 0..3u32 {
                for c in 0..3u32 {
                    let inputs = [a, b, c];
                    for g in &graphs {
                        let mut decs: Vec<Value> = Vec::new();
                        for p in 0..3 {
                            let view: Vec<(usize, Value)> =
                                g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                            let d = map.decide(&view).expect("reachable view");
                            assert!(inputs.contains(&d), "validity");
                            decs.push(d);
                        }
                        decs.sort_unstable();
                        decs.dedup();
                        assert!(decs.len() <= 2, "agreement");
                    }
                }
            }
        }
    }

    #[test]
    fn clique_solves_consensus() {
        let m = ksa_models::ClosedAboveModel::new(vec![ksa_graphs::Digraph::complete(3).unwrap()])
            .unwrap();
        assert!(verdict_of(&m, 1, 1, EXECS as u128).unwrap().is_solvable());
    }

    #[test]
    fn simple_ring_matches_thm_5_1() {
        // ↑C3: γ(C3) = 2; 1-set impossible, 2-set solvable — including by
        // the synthesized map.
        let m = named::simple_ring(3).unwrap();
        assert_eq!(
            verdict_of(&m, 1, 1, EXECS as u128).unwrap(),
            Solvability::Unsolvable
        );
        assert!(verdict_of(&m, 2, 2, EXECS as u128).unwrap().is_solvable());
    }

    #[test]
    fn parameters_validated() {
        let m = named::simple_ring(3).unwrap();
        assert!(verdict_of(&m, 0, 1, EXECS as u128).is_err());
        // Tiny execution budget trips the guard.
        assert!(verdict_of(&m, 2, 2, 1).is_err());
    }

    #[test]
    fn oversized_instance_fails_fast() {
        // n = 6 star unions: the raw superset odometer is ~2^25 choices
        // per graph × 64 inputs — far past any reasonable exec budget.
        // The up-front RunBudget admit must reject it immediately
        // (previously the enumeration scanned the whole raw space and
        // only the distinct-execution limit could stop it, maybe never).
        let m = named::star_unions(6, 1).unwrap();
        let err = verdict_of(&m, 2, 1, 100_000).unwrap_err();
        assert!(matches!(err, crate::CoreError::Budget(_)), "{err:?}");
        // The sequential reference enforces the same guard.
        assert!(decide_one_round_seq(&m, 2, 1, 100_000, NODES).is_err());
    }

    #[test]
    fn portfolio_agrees_with_sequential_reference() {
        // The pruned search must return the verdicts of the independent
        // forward-checking scan on the small zoo. Solvable and
        // unsolvable cases from three model families (the randomized
        // breadth lives in the `solvability_parallel` proptest suite).
        for (model, k) in [
            (named::star_unions(3, 1).unwrap(), 2),
            (named::star_unions(3, 1).unwrap(), 3),
            (named::symmetric_ring(3).unwrap(), 1),
            (named::simple_ring(3).unwrap(), 2),
        ] {
            let par = verdict_of(&model, k, k, EXECS as u128).unwrap();
            let seq = decide_one_round_seq(&model, k, k, EXECS, NODES).unwrap();
            assert_eq!(
                std::mem::discriminant(&par),
                std::mem::discriminant(&seq),
                "verdicts diverge at k = {k}"
            );
            // Either witness must cover the same reachable views.
            if let (Solvability::Solvable(a), Solvability::Solvable(b)) = (&par, &seq) {
                assert_eq!(a.len(), b.len());
            }
        }
    }
}

/// Multi-round exact solvability over an **explicit** graph set: the model
/// plays any graph of `graphs` each round; an `r`-round oblivious
/// algorithm decides from the flat view after `r` rounds. Enumerates all
/// `|graphs|^r` schedules (budgeted) — exact for explicit models, and for
/// closed-above models when `graphs` enumerates the closure(s)
/// (small `n`).
///
/// # Errors
///
/// [`CoreError::BadParameter`] for zero `k`/`r`/empty graphs;
/// [`CoreError::Budget`] when the schedule × input space exceeds
/// `exec_limit`; [`CoreError::Topology`] (budget) when the
/// distinct-execution count exceeds it.
pub fn decide_rounds_explicit(
    graphs: &[ksa_graphs::Digraph],
    k: usize,
    value_max: usize,
    rounds: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<Solvability, CoreError> {
    if k == 0 || rounds == 0 || graphs.is_empty() {
        return Err(CoreError::BadParameter {
            name: "k/rounds/graphs",
            value: 0,
            domain: "non-zero / non-empty",
        });
    }
    let n = graphs[0].n();
    let values = value_max as Value + 1;
    let schedules = (graphs.len() as u128)
        .checked_pow(rounds as u32)
        .unwrap_or(u128::MAX);
    let inputs_count = (values as u128).checked_pow(n as u32).unwrap_or(u128::MAX);
    RunBudget::new(exec_limit as u128).admit(
        "multi-round solvability executions",
        schedules.saturating_mul(inputs_count),
    )?;

    // Precompute the product graph of every schedule (who heard whom after
    // r rounds), deduplicated — flat views only depend on the product.
    let mut products: Vec<ksa_graphs::Digraph> = Vec::new();
    {
        let mut seen = std::collections::HashSet::new();
        let mut idx = vec![0usize; rounds];
        loop {
            let mut acc = ksa_graphs::Digraph::empty(n)?;
            for &i in &idx {
                acc = ksa_graphs::product::product(&acc, &graphs[i])?;
            }
            if seen.insert(acc.encode()) {
                products.push(acc);
            }
            let mut p = 0;
            loop {
                if p == rounds {
                    break;
                }
                idx[p] += 1;
                if idx[p] < graphs.len() {
                    break;
                }
                idx[p] = 0;
                p += 1;
            }
            if p == rounds {
                break;
            }
        }
    }

    // Views and executions over the deduplicated products, merged in
    // odometer order.
    let enumerate_input = |inputs: &[Value]| -> Enumeration {
        let mut local_ids: HashMap<FlatView<Value>, u32> = HashMap::new();
        let mut local = Enumeration {
            views: Vec::new(),
            executions: Vec::new(),
        };
        for g in &products {
            let mut exec: Vec<u32> = Vec::with_capacity(n);
            for p in 0..n {
                let view: FlatView<Value> = g.in_set(p).iter().map(|q| (q, inputs[q])).collect();
                let next_id = local.views.len() as u32;
                let id = *local_ids.entry(view.clone()).or_insert_with(|| {
                    local.views.push(view);
                    next_id
                });
                exec.push(id);
            }
            exec.sort_unstable();
            exec.dedup();
            local.executions.push(exec);
        }
        local
    };

    // The enumeration is within `exec_limit` (checked above), so the
    // merger's limit only needs to catch the distinct-execution
    // overflow.
    let instance = {
        let _span = ksa_obs::span("core", || "csp_enumerate").arg("k", k as u64);
        merge_all_seq(n, values, exec_limit, enumerate_input)?
    };
    // The instance's process symmetries are the permutations stabilizing
    // the (deduplicated) set of r-round products — executions are
    // per-product, so any such relabeling maps executions to executions.
    let (verdict, _) = solve_csp(
        &products,
        values,
        instance.views,
        instance.executions,
        k,
        node_budget,
        None,
    )?;
    Ok(verdict)
}

// --- The CSP core ----------------------------------------------------------

/// A preprocessed solvability CSP: one variable per reachable view, its
/// domain the values heard in that view, one ≤-k-distinct constraint per
/// execution. Shared by the sequential and pruned searches.
struct CspInstance {
    views: Vec<FlatView<Value>>,
    /// Per-view candidate decisions (heard values, sorted ascending).
    candidates: Vec<Vec<Value>>,
    /// For each view, the executions watching it.
    exec_of_view: Vec<Vec<u32>>,
    executions: Vec<Vec<u32>>,
    k: usize,
}

impl CspInstance {
    fn new(views: Vec<FlatView<Value>>, executions: Vec<Vec<u32>>, k: usize) -> Self {
        let candidates: Vec<Vec<Value>> = views
            .iter()
            .map(|v| {
                let mut vals: Vec<Value> = v.iter().map(|&(_, val)| val).collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            })
            .collect();
        let mut exec_of_view: Vec<Vec<u32>> = vec![Vec::new(); views.len()];
        for (ei, e) in executions.iter().enumerate() {
            for &v in e {
                exec_of_view[v as usize].push(ei as u32);
            }
        }
        CspInstance {
            views,
            candidates,
            exec_of_view,
            executions,
            k,
        }
    }

    /// The canonical variable ordering: fewest candidates first
    /// (most-constrained), most-watched first on ties. Identical to the
    /// historical sequential scan.
    fn order_most_constrained(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.views.len()).collect();
        order.sort_by_key(|&v| {
            (
                self.candidates[v].len(),
                std::cmp::Reverse(self.exec_of_view[v].len()),
            )
        });
        order
    }

    /// Initial bitmask domains (bit `v` set ⇔ value `v` is a candidate).
    /// Only valid when every value fits a `u32` mask (`values ≤ 32`),
    /// which the pruned-search entry points guard.
    fn masks(&self) -> Vec<u32> {
        self.candidates
            .iter()
            .map(|vals| vals.iter().fold(0u32, |m, &v| m | (1 << v)))
            .collect()
    }

    /// Packages a complete assignment as the `Solvable` witness.
    fn into_solvable(self, assignment: Vec<Option<Value>>) -> Solvability {
        let mut entries: Vec<(FlatView<Value>, Value)> = self
            .views
            .into_iter()
            .zip(assignment)
            .map(|(v, a)| (v, a.expect("complete assignment")))
            .collect();
        entries.sort();
        Solvability::Solvable(DecisionMap { entries })
    }
}

/// Whether execution `e` can still see ≤ k distinct decisions: the
/// assigned views must not exceed k values already, and once k values
/// are reached every unassigned view of `e` must be able to repeat one.
fn exec_ok(e: &[u32], assignment: &[Option<Value>], candidates: &[Vec<Value>], k: usize) -> bool {
    let mut seen: Vec<Value> = Vec::with_capacity(k + 1);
    let mut unassigned: Vec<u32> = Vec::new();
    for &v in e {
        match assignment[v as usize] {
            Some(val) => {
                if !seen.contains(&val) {
                    seen.push(val);
                }
            }
            None => unassigned.push(v),
        }
    }
    if seen.len() > k {
        return false;
    }
    if seen.len() == k {
        for v in unassigned {
            if !candidates[v as usize].iter().any(|c| seen.contains(c)) {
                return false;
            }
        }
    }
    true
}

/// Whether assigning view `v` (already written into `assignment`) keeps
/// every execution watching `v` satisfiable.
fn view_consistent(csp: &CspInstance, v: usize, assignment: &[Option<Value>]) -> bool {
    csp.exec_of_view[v].iter().all(|&ei| {
        exec_ok(
            &csp.executions[ei as usize],
            assignment,
            &csp.candidates,
            csp.k,
        )
    })
}

/// Decides a solvability CSP with the pruned search (propagation + orbit
/// symmetry breaking + no-good table) on the calling thread, returning
/// the verdict with the search's work accounting. `sym_graphs` is the
/// graph set whose stabilizer is the instance's process-symmetry group
/// (the model generators for one round, the deduplicated schedule
/// products for explicit rounds). Falls back to the sequential
/// forward-checking reference (with default stats) when the value range
/// exceeds the bitmask-domain width.
fn solve_csp(
    sym_graphs: &[Digraph],
    values: Value,
    views: Vec<FlatView<Value>>,
    executions: Vec<Vec<u32>>,
    k: usize,
    node_budget: usize,
    cancel: Option<&CancelToken>,
) -> Result<(Solvability, SearchStats), CoreError> {
    let instance = CspInstance::new(views, executions, k);
    let _span = ksa_obs::span("core", || "csp_decide").arg("views", instance.views.len() as u64);
    if values > MAX_MASK_VALUES {
        // The sequential fallback has no per-node poll point; callers
        // poll the token right before it.
        return Ok((
            solve_csp_seq(instance, node_budget)?,
            SearchStats::default(),
        ));
    }
    let sym = {
        let _span = ksa_obs::span("core", || "csp_symmetry").arg("k", k as u64);
        CspSymmetry::detect(sym_graphs, &instance.views, values)
    };
    let (outcome, stats) = solve_pruned(&instance, &sym, cancel, node_budget);
    Ok((finish_pruned(instance, outcome), stats))
}

/// The sequential most-constrained-first backtracking search (the
/// deterministic reference semantics).
fn solve_csp_seq(instance: CspInstance, node_budget: usize) -> Result<Solvability, CoreError> {
    let order = instance.order_most_constrained();

    fn dfs(
        csp: &CspInstance,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<Value>>,
        nodes: &mut usize,
        budget: usize,
    ) -> Option<bool> {
        if depth == order.len() {
            return Some(true);
        }
        *nodes += 1;
        if *nodes > budget {
            return None;
        }
        let v = order[depth];
        for i in 0..csp.candidates[v].len() {
            let val = csp.candidates[v][i];
            assignment[v] = Some(val);
            if view_consistent(csp, v, assignment) {
                match dfs(csp, order, depth + 1, assignment, nodes, budget) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => {
                        assignment[v] = None;
                        return None;
                    }
                }
            }
            assignment[v] = None;
        }
        Some(false)
    }

    let mut assignment: Vec<Option<Value>> = vec![None; instance.views.len()];
    let mut nodes = 0usize;
    ksa_obs::count(ksa_obs::Counter::CspVerdicts, 1);
    match dfs(
        &instance,
        &order,
        0,
        &mut assignment,
        &mut nodes,
        node_budget,
    ) {
        None => Ok(Solvability::Unknown),
        Some(false) => Ok(Solvability::Unsolvable),
        Some(true) => Ok(instance.into_solvable(assignment)),
    }
}

// --- The pruned search: propagation + orbits + no-goods --------------------

/// Widest value range the bitmask-domain search handles; beyond it the
/// sequential forward-checking reference decides the instance.
const MAX_MASK_VALUES: Value = 32;

/// Most processes whose stabilizer [`CspSymmetry::detect`] filters out
/// of all `n!` permutations; above it only the value factor is used.
const STABILIZER_MAX_N: usize = 8;

/// Largest symmetry-group order worth enumerating per canonical-key
/// computation: past this, canonicalization costs more than the pruning
/// it buys, so detection falls back to a subgroup (or the trivial group).
const SYM_ORDER_CAP: usize = 1024;

/// Canonical signature of a partial decision set: the lex-least image of
/// the sorted `(view, value)` pairs under the instance's symmetry group.
/// The no-good table keys entries by it.
type NoGoodKey = Box<[(u32, Value)]>;

/// One non-identity symmetry of a CSP instance: a relabeling of view ids
/// together with the value relabeling that induced it.
struct SymElem {
    view_map: Vec<u32>,
    value_map: Vec<Value>,
}

/// The symmetry group of a solvability CSP: process permutations
/// stabilizing the generating graph set × permutations of the value set
/// (inputs range over *all* assignments, so every value relabeling is a
/// symmetry). Soundness of orbit pruning needs a genuine group — closed
/// under inverse and composition — which each fallback below preserves:
/// the full direct product, either factor alone, or the trivial group.
struct CspSymmetry {
    /// Non-identity elements; the identity is implicit.
    elems: Vec<SymElem>,
}

impl CspSymmetry {
    /// Group order (including the identity).
    fn order(&self) -> usize {
        self.elems.len() + 1
    }

    fn trivial() -> CspSymmetry {
        CspSymmetry { elems: Vec::new() }
    }

    /// The group's two factors as chosen for the instance: the process
    /// permutations and the value maps, either of which may be cut to
    /// the identity alone. The direct product when it fits the order
    /// cap, else the bigger factor that does, else nothing (`None`). Each
    /// choice is a subgroup. Above [`STABILIZER_MAX_N`] processes the
    /// `n!` stabilizer filter is not run, and the process factor is the
    /// identity.
    fn factors(
        sym_graphs: &[Digraph],
        values: Value,
    ) -> Option<(Vec<Permutation>, Vec<Vec<Value>>)> {
        use ksa_graphs::perm::{all_permutations, stabilizing_permutations};
        let n = sym_graphs.first()?.n();
        let proc_perms = if n <= STABILIZER_MAX_N {
            stabilizing_permutations(sym_graphs).ok()?
        } else {
            vec![Permutation::identity(n)]
        };
        let value_count = values as usize;
        let vperm_order: usize = (1..=value_count).product();
        let full = proc_perms.len().saturating_mul(vperm_order);
        let (use_procs, use_values) = if full <= SYM_ORDER_CAP {
            (true, true)
        } else if proc_perms.len() >= vperm_order && proc_perms.len() <= SYM_ORDER_CAP {
            (true, false)
        } else if vperm_order <= SYM_ORDER_CAP {
            (false, true)
        } else if proc_perms.len() <= SYM_ORDER_CAP {
            (true, false)
        } else {
            return None;
        };
        let proc_perms = if use_procs {
            proc_perms
        } else {
            vec![Permutation::identity(n)]
        };
        let value_maps: Vec<Vec<Value>> = if use_values {
            all_permutations(value_count)
                .map(|p| (0..value_count).map(|v| p.apply(v) as Value).collect())
                .collect()
        } else {
            vec![(0..values).collect()]
        };
        Some((proc_perms, value_maps))
    }

    /// Detects the instance symmetries. `sym_graphs` generates the
    /// process-permutation factor (its stabilizer in `S_n`); the value
    /// factor is all of `S_values`. Conservative: any anomaly (a view
    /// image outside the reachable set, an over-cap group) degrades to a
    /// smaller subgroup rather than a non-group subset.
    ///
    /// Views are matched by packed key (DESIGN.md §10.4): an element
    /// `(π, value map)` sends digit `d ≠ 0` of sender `q` to digit
    /// `map(d − 1) + 1` of sender `π(q)`, and the image key is looked up
    /// in the instance's key map.
    fn detect(sym_graphs: &[Digraph], views: &[FlatView<Value>], values: Value) -> CspSymmetry {
        let Some((proc_perms, value_maps)) = Self::factors(sym_graphs, values) else {
            return CspSymmetry::trivial();
        };
        let n = proc_perms[0].n();
        let Ok(layout) = ViewKeys::new(n, values) else {
            return CspSymmetry::trivial();
        };
        let view_ids: HashMap<u64, u32> = views
            .iter()
            .enumerate()
            .map(|(i, v)| (layout.key(v), i as u32))
            .collect();
        let mut elems = Vec::new();
        for pi in &proc_perms {
            let weights: Vec<u64> = (0..n).map(|q| layout.weights[pi.apply(q)]).collect();
            let pi_identity = *pi == Permutation::identity(n);
            for vm in &value_maps {
                if pi_identity && vm.iter().enumerate().all(|(i, &v)| v as usize == i) {
                    continue;
                }
                let mut view_map = vec![0u32; views.len()];
                for (image, view) in view_map.iter_mut().zip(views) {
                    let key = view
                        .iter()
                        .map(|&(q, val)| (u64::from(vm[val as usize]) + 1) * weights[q])
                        .sum();
                    match view_ids.get(&key) {
                        Some(&id) => *image = id,
                        None => {
                            // A genuine symmetry maps reachable views to
                            // reachable views; an unmapped image means
                            // `sym_graphs` over-approximates the instance.
                            // Dropping single elements would break the
                            // group property, so drop the whole group.
                            debug_assert!(false, "stabilizer element is not an instance symmetry");
                            return CspSymmetry::trivial();
                        }
                    }
                }
                elems.push(SymElem {
                    view_map,
                    value_map: vm.clone(),
                });
            }
        }
        CspSymmetry { elems }
    }

    /// [`detect`](Self::detect) by flat-view images: each view's image
    /// is built, sorted and looked up as a [`FlatView`]. The reference
    /// the keyed detection is tested against.
    #[cfg(test)]
    fn detect_by_images(
        sym_graphs: &[Digraph],
        views: &[FlatView<Value>],
        values: Value,
    ) -> CspSymmetry {
        let Some((proc_perms, value_maps)) = Self::factors(sym_graphs, values) else {
            return CspSymmetry::trivial();
        };
        let view_ids: HashMap<&FlatView<Value>, u32> = views
            .iter()
            .enumerate()
            .map(|(i, v)| (v, i as u32))
            .collect();
        let mut elems = Vec::new();
        for pi in &proc_perms {
            for vm in &value_maps {
                if *pi == Permutation::identity(pi.n())
                    && vm.iter().enumerate().all(|(i, &v)| v as usize == i)
                {
                    continue;
                }
                let mut view_map = vec![0u32; views.len()];
                for (i, view) in views.iter().enumerate() {
                    let mut image: FlatView<Value> = view
                        .iter()
                        .map(|&(p, val)| (pi.apply(p), vm[val as usize]))
                        .collect();
                    image.sort_unstable();
                    match view_ids.get(&image) {
                        Some(&id) => view_map[i] = id,
                        None => return CspSymmetry::trivial(),
                    }
                }
                elems.push(SymElem {
                    view_map,
                    value_map: vm.clone(),
                });
            }
        }
        CspSymmetry { elems }
    }

    /// The lex-least image of `decisions` (as a sorted set) under the
    /// group — equal keys ⇔ orbit-equivalent decision sets.
    fn canonical_signature(&self, decisions: &[(u32, Value)]) -> NoGoodKey {
        let mut best: Vec<(u32, Value)> = decisions.to_vec();
        best.sort_unstable();
        let mut buf: Vec<(u32, Value)> = Vec::with_capacity(decisions.len());
        for e in &self.elems {
            buf.clear();
            buf.extend(
                decisions
                    .iter()
                    .map(|&(v, val)| (e.view_map[v as usize], e.value_map[val as usize])),
            );
            buf.sort_unstable();
            if buf < best {
                std::mem::swap(&mut best, &mut buf);
            }
        }
        best.into_boxed_slice()
    }
}

/// Work accounting of the pruned search — a pure function of the
/// instance (and the node budget), so the differential tests pin it and
/// the deterministic observability tier counts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Decision nodes expanded.
    pub nodes: u64,
    /// Branches skipped because their canonical signature was already
    /// recorded as a no-good.
    pub nogood_hits: u64,
    /// No-goods recorded.
    pub nogood_inserts: u64,
    /// Sibling branches skipped as orbit duplicates of an explored one.
    pub orbit_prunes: u64,
    /// Order of the detected symmetry group (1 = no symmetry used).
    pub symmetry_order: u64,
}

/// Outcome of the pruned search.
enum PrunedOutcome {
    /// All domains singleton — `doms` encodes the witness.
    Solved(Vec<u32>),
    /// The (sub)tree holds no solution.
    Exhausted,
    /// Node budget ran out first.
    OutOfBudget,
    /// The caller's token fired.
    Cancelled,
}

/// The candidate values of a domain mask, ascending.
fn mask_values(mask: u32) -> impl Iterator<Item = Value> {
    (0..32).filter(move |&b| mask >> b & 1 == 1)
}

/// Generalized arc consistency on the ≤-k-distinct constraints, to
/// fixpoint: per execution, the union of singleton domains is the forced
/// value set; more than `k` forced values is a wipeout, exactly `k`
/// restricts every undecided view of the execution to repeat a forced
/// value. Returns `false` on wipeout. Order-independent (the GAC
/// fixpoint is unique), so the propagated state is a function of the
/// decision *set* — which is what makes orbit keys sound.
fn propagate(csp: &CspInstance, doms: &mut [u32]) -> bool {
    loop {
        let mut changed = false;
        for e in &csp.executions {
            let mut forced: u32 = 0;
            let mut forced_count = 0usize;
            for &v in e {
                let d = doms[v as usize];
                if d == 0 {
                    return false;
                }
                if d & (d - 1) == 0 && forced & d == 0 {
                    forced_count += 1;
                    forced |= d;
                }
            }
            if forced_count > csp.k {
                return false;
            }
            if forced_count == csp.k {
                for &v in e {
                    let d = doms[v as usize];
                    if d & (d - 1) != 0 {
                        let nd = d & forced;
                        if nd == 0 {
                            return false;
                        }
                        if nd != d {
                            doms[v as usize] = nd;
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return true;
        }
    }
}

/// The MRV branch variable: smallest non-singleton domain, ties broken
/// by lowest id. `None` means every domain is singleton — solved.
fn pick_var(doms: &[u32]) -> Option<usize> {
    let mut best: Option<(u32, usize)> = None;
    for (v, &d) in doms.iter().enumerate() {
        let c = d.count_ones();
        if c >= 2 && best.is_none_or(|(bc, _)| c < bc) {
            best = Some((c, v));
        }
    }
    best.map(|(_, v)| v)
}

/// Whether a fully-singleton domain vector satisfies every execution —
/// guaranteed by the last successful propagation; kept as a debug check.
fn complete_assignment_ok(csp: &CspInstance, doms: &[u32]) -> bool {
    doms.iter().all(|d| d.count_ones() == 1)
        && csp.executions.iter().all(|e| {
            let mut seen = 0u32;
            for &v in e {
                seen |= doms[v as usize];
            }
            seen.count_ones() as usize <= csp.k
        })
}

/// The pruned search over one instance: the read-only context, the
/// search-local no-good table and the work accounting.
struct PrunedSearch<'a> {
    csp: &'a CspInstance,
    sym: &'a CspSymmetry,
    cancel: Option<&'a CancelToken>,
    budget: u64,
    /// Canonical signatures of decision sets proved to have no
    /// extension to a solution.
    nogoods: HashSet<NoGoodKey>,
    stats: SearchStats,
}

impl PrunedSearch<'_> {
    /// Propagating DFS with orbit and no-good pruning. `doms` is the
    /// propagated state reached by `decisions`; each candidate branch is
    /// keyed by the canonical signature of its extended decision set,
    /// probed against sibling orbits and the table, and — once *proved*
    /// empty (propagation wipeout or exhausted recursion) — recorded. The
    /// signature is computed only when it is read: before the branch
    /// when the table holds an entry to probe, otherwise once the branch
    /// is dead (DESIGN.md §10.4). Subtrees abandoned to the budget or a
    /// cancellation are never recorded, so every entry is a fact about
    /// the instance.
    fn dfs(&mut self, doms: &[u32], decisions: &mut Vec<(u32, Value)>) -> PrunedOutcome {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return PrunedOutcome::Cancelled;
        }
        let Some(v) = pick_var(doms) else {
            debug_assert!(complete_assignment_ok(self.csp, doms));
            return PrunedOutcome::Solved(doms.to_vec());
        };
        self.stats.nodes += 1;
        if self.stats.nodes > self.budget {
            return PrunedOutcome::OutOfBudget;
        }
        // Every signature in here is a *proved* dead branch (wipeout,
        // exhausted recursion, or a table hit), so any later sibling in
        // the same orbit is dead too.
        let mut dead_sigs: Vec<NoGoodKey> = Vec::new();
        for val in mask_values(doms[v]) {
            decisions.push((v as u32, val));
            // A signature is only read by a probe against a dead sibling
            // or the table, or to record a dead branch. Every dead
            // sibling's signature is in the table, so with an empty table
            // nothing can hit, and the signature waits until the branch
            // is proved dead.
            let probed = if self.nogoods.is_empty() {
                None
            } else {
                let sig = self.sym.canonical_signature(decisions);
                if dead_sigs.contains(&sig) {
                    decisions.pop();
                    self.stats.orbit_prunes += 1;
                    continue;
                }
                if self.nogoods.contains(&sig) {
                    decisions.pop();
                    self.stats.nogood_hits += 1;
                    dead_sigs.push(sig);
                    continue;
                }
                Some(sig)
            };
            let mut child = doms.to_vec();
            child[v] = 1u32 << val;
            if propagate(self.csp, &mut child) {
                let out = self.dfs(&child, decisions);
                if !matches!(out, PrunedOutcome::Exhausted) {
                    decisions.pop();
                    return out;
                }
            }
            let sig = probed.unwrap_or_else(|| self.sym.canonical_signature(decisions));
            decisions.pop();
            if self.nogoods.insert(sig.clone()) {
                self.stats.nogood_inserts += 1;
            }
            dead_sigs.push(sig);
        }
        PrunedOutcome::Exhausted
    }
}

/// Runs the pruned search from the root, propagating the root domains
/// once, and records the decision's deterministic observability: the
/// verdict tick, the symmetry-group order, the orbit-duplicate branches
/// at the root and — unless the token interrupted the search — its work
/// counters.
fn solve_pruned(
    csp: &CspInstance,
    sym: &CspSymmetry,
    cancel: Option<&CancelToken>,
    node_budget: usize,
) -> (PrunedOutcome, SearchStats) {
    ksa_obs::count(ksa_obs::Counter::CspVerdicts, 1);
    ksa_obs::count(ksa_obs::Counter::CspSymmetries, sym.order() as u64);
    let mut search = PrunedSearch {
        csp,
        sym,
        cancel,
        budget: node_budget as u64,
        nogoods: HashSet::new(),
        stats: SearchStats {
            symmetry_order: sym.order() as u64,
            ..SearchStats::default()
        },
    };
    let mut doms = csp.masks();
    let outcome = if propagate(csp, &mut doms) {
        ksa_obs::count(
            ksa_obs::Counter::CspOrbitRootPrunes,
            root_orbit_duplicates(sym, &doms),
        );
        search.dfs(&doms, &mut Vec::new())
    } else {
        PrunedOutcome::Exhausted
    };
    let stats = search.stats;
    if !matches!(outcome, PrunedOutcome::Cancelled) {
        ksa_obs::count(ksa_obs::Counter::SearchNodes, stats.nodes);
        ksa_obs::count(ksa_obs::Counter::NoGoodHits, stats.nogood_hits);
        ksa_obs::count(ksa_obs::Counter::NoGoodInserts, stats.nogood_inserts);
    }
    (outcome, stats)
}

/// How many root branches are orbit duplicates: values of the first
/// branch variable whose one-decision canonical signature repeats an
/// earlier value's. Read off the propagated root domains before any
/// branch is explored, so it does not depend on the course of the search.
fn root_orbit_duplicates(sym: &CspSymmetry, doms: &[u32]) -> u64 {
    let Some(v) = pick_var(doms) else {
        return 0;
    };
    let mut seen: HashSet<NoGoodKey> = HashSet::new();
    mask_values(doms[v])
        .filter(|&val| !seen.insert(sym.canonical_signature(&[(v as u32, val)])))
        .count() as u64
}

/// Maps a search outcome to the public verdict, synthesizing the
/// witness map from singleton domains.
fn finish_pruned(instance: CspInstance, outcome: PrunedOutcome) -> Solvability {
    match outcome {
        PrunedOutcome::Solved(doms) => {
            let assignment: Vec<Option<Value>> = doms
                .iter()
                .map(|&d| Some(d.trailing_zeros() as Value))
                .collect();
            instance.into_solvable(assignment)
        }
        PrunedOutcome::Exhausted => Solvability::Unsolvable,
        PrunedOutcome::OutOfBudget | PrunedOutcome::Cancelled => Solvability::Unknown,
    }
}

/// The certificate of a one-round verdict (`None` for `Unknown`); see
/// [`decide_one_round`].
fn solvability_cert(
    model: &ClosedAboveModel,
    k: usize,
    value_max: usize,
    verdict: &Solvability,
    stats: &SearchStats,
    budget: RunBudget,
    label: &str,
) -> Result<Option<ksa_cert::SolvabilityCert>, CoreError> {
    let cert_verdict = match verdict {
        Solvability::Solvable(map) => ksa_cert::SolvVerdict::Map(
            map.entries()
                .map(|(view, d)| (view.iter().map(|&(p, v)| (p as u32, v)).collect(), *d))
                .collect(),
        ),
        // A search that terminates examines at least the root, and the
        // fallback paths that report default stats still did so: clamp
        // the attestation to the checker's "did any work" floor. The
        // trivial symmetry group has order 1, never 0.
        Solvability::Unsolvable => ksa_cert::SolvVerdict::Exhausted {
            nodes: stats.nodes.max(1),
            symmetry_order: stats.symmetry_order.max(1),
        },
        Solvability::Unknown => return Ok(None),
    };
    let n = model.n();
    let graph_limit = usize::try_from(budget.max_executions).unwrap_or(usize::MAX);
    let mut graphs = Vec::new();
    for g in model.generators() {
        graphs.extend(ksa_graphs::closure::enumerate_closure(g, graph_limit)?);
    }
    graphs.sort();
    graphs.dedup();
    let graph_sets: Vec<Vec<Vec<u32>>> = graphs
        .iter()
        .map(|g| {
            (0..n)
                .map(|p| {
                    let mut in_set: Vec<u32> = g.in_set(p).iter().map(|q| q as u32).collect();
                    in_set.sort_unstable();
                    in_set
                })
                .collect()
        })
        .collect();
    ksa_obs::count(ksa_obs::Counter::CertsEmitted, 1);
    Ok(Some(ksa_cert::SolvabilityCert {
        label: label.to_string(),
        n: n as u32,
        k: k as u32,
        value_max: value_max as u32,
        graphs: graph_sets,
        verdict: cert_verdict,
    }))
}

// --- Incremental k-sweeps --------------------------------------------------

/// Result of [`decide_one_round_sweep`]: the verdict for every
/// `k ∈ {1, …, k_max}` plus an accounting of how much of the vector was
/// decided monotonically instead of searched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KSweep {
    /// `verdicts[k − 1]` is the verdict for `k`-set agreement with
    /// inputs over `{0, …, k}`. Seeded entries carry genuine (lifted)
    /// witness maps.
    pub verdicts: Vec<Solvability>,
    /// Instances decided by full search.
    pub searched: usize,
    /// Solvable verdicts filled by lifting a smaller-k witness.
    pub seeded: usize,
    /// Unsolvable verdicts filled by downward monotonicity.
    pub pruned: usize,
}

/// Decides one-round solvability for every `k ∈ {1, …, k_max}` (with the
/// per-k value range `{0, …, k}`, matching the `solv` experiment's
/// convention) by **binary-searching the solvability boundary** instead
/// of deciding each `k` from scratch:
///
/// * a `Solvable` verdict at `k` seeds every `k' > k` by lifting the
///   witness (cap inputs at `k`; views deciding the capped class decide
///   their smallest heard value `≥ k` — at most one value splits in two,
///   so `≤ k + 1` distinct decisions);
/// * an `Unsolvable` verdict at `k` prunes every `k' < k` (an adversary
///   restricting inputs to `{0, …, k'}` inherits the impossibility).
///
/// The sweep vector is identical to deciding every `k` from scratch —
/// monotonicity is a theorem, not a heuristic — which
/// `solvability_sweep` pins differentially. An `Unknown` (node-budget)
/// verdict stops the monotone reasoning and the remaining entries are
/// searched individually.
///
/// # Errors
///
/// [`CoreError::BadParameter`] for `k_max = 0`; otherwise the same
/// budget conditions as [`decide_one_round`], for any searched or
/// lifted instance.
pub fn decide_one_round_sweep(
    model: &ClosedAboveModel,
    k_max: usize,
    exec_limit: usize,
    node_budget: usize,
) -> Result<KSweep, CoreError> {
    sweep_impl(model, k_max, exec_limit, node_budget, None, &mut |_| {})
}

/// Progress of a k-sweep, reported after each instance decided by full
/// search (monotone fills are instantaneous and ride along in
/// `decided`). This is what the analysis server streams to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepProgress {
    /// The `k` the search just decided.
    pub k: usize,
    /// Sweep entries filled so far (searched + seeded + pruned).
    pub decided: usize,
    /// Total entries (`k_max`).
    pub total: usize,
}

/// [`decide_one_round_sweep`] with a cooperative [`CancelToken`] and a
/// progress callback: the token is polled between instances *and*
/// threaded into every search (per-node granularity), so a
/// deadline fires mid-search, not just between searches. A token that
/// never fires leaves the sweep bit-identical to
/// [`decide_one_round_sweep`] at any `KSA_THREADS`.
///
/// # Errors
///
/// Same conditions as [`decide_one_round_sweep`], plus
/// [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`].
pub fn decide_one_round_sweep_cancellable(
    model: &ClosedAboveModel,
    k_max: usize,
    exec_limit: usize,
    node_budget: usize,
    cancel: &CancelToken,
    progress: &mut dyn FnMut(SweepProgress),
) -> Result<KSweep, CoreError> {
    sweep_impl(
        model,
        k_max,
        exec_limit,
        node_budget,
        Some(cancel),
        progress,
    )
}

fn sweep_impl(
    model: &ClosedAboveModel,
    k_max: usize,
    exec_limit: usize,
    node_budget: usize,
    cancel: Option<&CancelToken>,
    progress: &mut dyn FnMut(SweepProgress),
) -> Result<KSweep, CoreError> {
    validate_k(k_max)?;
    let run = Run {
        budget: RunBudget::new(exec_limit as u128),
        cancel,
    };
    let mut verdicts: Vec<Option<Solvability>> = vec![None; k_max];
    let (mut searched, mut seeded, mut pruned) = (0usize, 0usize, 0usize);
    let (mut lo, mut hi) = (1usize, k_max);
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        searched += 1;
        match decide_one_round(model, mid, mid, run, node_budget, None)?.0 {
            Solvability::Solvable(witness) => {
                verdicts[mid - 1] = Some(Solvability::Solvable(witness.clone()));
                let mut lifted = witness;
                for k in mid + 1..=k_max {
                    if verdicts[k - 1].is_some() {
                        break;
                    }
                    lifted = lift_decision_map(model, k - 1, &lifted, exec_limit)?;
                    verdicts[k - 1] = Some(Solvability::Solvable(lifted.clone()));
                    seeded += 1;
                }
                hi = mid - 1;
            }
            Solvability::Unsolvable => {
                verdicts[mid - 1] = Some(Solvability::Unsolvable);
                for k in 1..mid {
                    if verdicts[k - 1].is_none() {
                        verdicts[k - 1] = Some(Solvability::Unsolvable);
                        pruned += 1;
                    }
                }
                lo = mid + 1;
            }
            Solvability::Unknown => {
                verdicts[mid - 1] = Some(Solvability::Unknown);
                report_sweep_progress(progress, mid, &verdicts);
                break;
            }
        }
        report_sweep_progress(progress, mid, &verdicts);
    }
    // Only reachable after an `Unknown`: no monotone fact covers the
    // remaining entries, so decide them individually.
    for k in 1..=k_max {
        if verdicts[k - 1].is_none() {
            searched += 1;
            verdicts[k - 1] = Some(decide_one_round(model, k, k, run, node_budget, None)?.0);
            report_sweep_progress(progress, k, &verdicts);
        }
    }
    ksa_obs::count(ksa_obs::Counter::CspSweepSeeded, seeded as u64);
    ksa_obs::count(ksa_obs::Counter::CspSweepPruned, pruned as u64);
    Ok(KSweep {
        verdicts: verdicts
            .into_iter()
            .map(|v| v.expect("every k decided"))
            .collect(),
        searched,
        seeded,
        pruned,
    })
}

fn report_sweep_progress(
    progress: &mut dyn FnMut(SweepProgress),
    k: usize,
    verdicts: &[Option<Solvability>],
) {
    progress(SweepProgress {
        k,
        decided: verdicts.iter().filter(|v| v.is_some()).count(),
        total: verdicts.len(),
    });
}

/// Lifts a witness for `k_from`-set agreement (inputs `{0, …, k_from}`)
/// to one for `k_from + 1` (inputs `{0, …, k_from + 1}`).
///
/// Construction: cap every heard value at `cap = k_from`; the capped
/// view is reachable in the smaller instance, so the witness decides it.
/// A decision `< cap` is heard uncapped and is kept; a decision `= cap`
/// becomes the smallest heard value `≥ cap` (one exists — some process
/// in the view capped to `cap`). Per execution the `< cap` decisions are
/// a subset of the capped execution's (≤ `k_from`, and ≤ `k_from − 1`
/// when any view decided `cap` there), and the `≥ cap` decisions take at
/// most two values — ≤ `k_from + 1` distinct in all.
fn lift_decision_map(
    model: &ClosedAboveModel,
    k_from: usize,
    map: &DecisionMap,
    exec_limit: usize,
) -> Result<DecisionMap, CoreError> {
    let _span = ksa_obs::span("core", || "csp_lift").arg("k", k_from as u64 + 1);
    let n = model.n();
    let cap = k_from as Value;
    let values_to = cap + 2;
    RunBudget::new(exec_limit as u128).admit(
        "solvability sweep lift enumeration",
        one_round_raw_estimate(model, n, values_to),
    )?;
    let instance = enumerate_keyed(model, values_to, exec_limit)?;
    // The witness by packed key of the `k_from` instance, whose inputs
    // range over `{0, …, cap}`.
    let layout = ViewKeys::new(n, cap + 1)?;
    let decisions: HashMap<u64, Value> = map
        .entries()
        .map(|(view, d)| (layout.key(view), *d))
        .collect();
    let mut entries: Vec<(FlatView<Value>, Value)> = Vec::with_capacity(instance.views.len());
    for view in instance.views {
        let capped: u64 = view
            .iter()
            .map(|&(q, v)| (u64::from(v.min(cap)) + 1) * layout.weights[q])
            .sum();
        let decided = *decisions
            .get(&capped)
            .expect("capped view is reachable in the k_from instance");
        let lifted = if decided < cap {
            decided
        } else {
            view.iter()
                .map(|&(_, v)| v)
                .filter(|&v| v >= cap)
                .min()
                .expect("a capped-to-cap process heard a value >= cap")
        };
        entries.push((view, lifted));
    }
    entries.sort();
    Ok(DecisionMap { entries })
}

#[cfg(test)]
mod pruned_tests {
    use super::*;
    use ksa_models::named;

    const EXECS: usize = 2_000_000;
    const NODES: usize = 50_000_000;

    #[test]
    fn star_kernel_symmetry_group_order() {
        // stars{n=3, s=1}: 6 process permutations stabilize the generator
        // set, × 3! value permutations at values = 3.
        let m = named::star_unions(3, 1).unwrap();
        let values: Value = 3;
        let instance = enumerate_keyed(&m, values, EXECS).unwrap();
        let sym = CspSymmetry::detect(m.generators(), &instance.views, values);
        assert_eq!(sym.order(), 36);
    }

    #[test]
    fn canonical_signature_is_orbit_invariant_under_elements() {
        let m = named::star_unions(3, 1).unwrap();
        let values: Value = 3;
        let instance = enumerate_keyed(&m, values, EXECS).unwrap();
        let sym = CspSymmetry::detect(m.generators(), &instance.views, values);
        // Mapping a decision set through any group element must not
        // change its canonical signature.
        let decisions = [(0u32, 0 as Value), (5u32, 2 as Value)];
        let base = sym.canonical_signature(&decisions);
        for e in &sym.elems {
            let mapped: Vec<(u32, Value)> = decisions
                .iter()
                .map(|&(v, val)| (e.view_map[v as usize], e.value_map[val as usize]))
                .collect();
            assert_eq!(sym.canonical_signature(&mapped), base);
        }
    }

    fn resolve(name: &str) -> ClosedAboveModel {
        ksa_models::registry::builtin()
            .resolve_closed_above(name, RunBudget::DEFAULT)
            .expect("registry spec resolves")
    }

    #[test]
    fn search_stats_are_pinned() {
        // `(nodes, nogood_hits, nogood_inserts, orbit_prunes,
        // symmetry_order)`: signatures are computed lazily, so these
        // counts are what shows a probe was skipped that could have hit.
        for (name, k, pinned) in [
            ("stars{n=3,s=1}", 2, (1, 0, 1, 1, 36)),
            ("tournament{n=3}", 2, (121, 26, 216, 0, 36)),
            ("kernel{n=3}", 3, (96, 0, 0, 0, 144)),
        ] {
            let (_, s, _) =
                decide_one_round(&resolve(name), k, k, EXECS as u128, NODES, None).unwrap();
            let stats = (
                s.nodes,
                s.nogood_hits,
                s.nogood_inserts,
                s.orbit_prunes,
                s.symmetry_order,
            );
            assert_eq!(stats, pinned, "{name} k = {k}");
        }
    }

    #[test]
    fn keyed_symmetry_matches_flat_view_images() {
        for name in [
            "kernel{n=3}",
            "path{n=3}",
            "path{n=3,sym}",
            "ring{n=3}",
            "ring{n=3,sym}",
            "stars{n=3,s=1}",
            "stars{n=3,s=2}",
            "tournament{n=3}",
            "tree{n=3,sym}",
            "random{n=3,p=0.5,seed=2,count=4}",
        ] {
            let m = resolve(name);
            for values in 2..=4 {
                let instance = enumerate_keyed(&m, values, EXECS).unwrap();
                let keyed = CspSymmetry::detect(m.generators(), &instance.views, values);
                let images = CspSymmetry::detect_by_images(m.generators(), &instance.views, values);
                assert_eq!(keyed.order(), images.order(), "{name} values = {values}");
                assert!(keyed.order() > 1, "{name} values = {values}");
                for (a, b) in keyed.elems.iter().zip(&images.elems) {
                    assert_eq!(a.view_map, b.view_map, "{name} values = {values}");
                    assert_eq!(a.value_map, b.value_map, "{name} values = {values}");
                }
            }
        }
    }

    #[test]
    fn symmetry_above_eight_processes_is_the_value_factor() {
        // The complete graph on 12 processes is stabilized by all 12!
        // permutations; filtering them all took minutes. Above eight
        // processes only the value factor is used: order 2! at binary
        // inputs, and the 4 096-view instance decides at once.
        let m = ClosedAboveModel::new(vec![Digraph::complete(12).unwrap()]).unwrap();
        let start = std::time::Instant::now();
        let (verdict, stats, _) = decide_one_round(&m, 1, 1, EXECS as u128, 10_000, None).unwrap();
        let elapsed = start.elapsed();
        assert!(verdict.is_solvable());
        assert_eq!(stats.symmetry_order, 2);
        assert!(elapsed < std::time::Duration::from_secs(1), "{elapsed:?}");
    }

    #[test]
    fn star_kernel_refutes_at_the_root() {
        // The historical `solv` wall: stars{n=3, s=1} at k = 2 took tens
        // of millions of backtracking nodes. Propagation alone must now
        // refute it at the root (zero or one decision nodes).
        let m = named::star_unions(3, 1).unwrap();
        let (verdict, stats, _) = decide_one_round(&m, 2, 2, EXECS as u128, NODES, None).unwrap();
        assert_eq!(verdict, Solvability::Unsolvable);
        assert!(stats.nodes <= 1, "nodes = {}", stats.nodes);
    }

    #[test]
    fn certified_decide_emits_checkable_certs() {
        let m = named::star_unions(3, 1).unwrap();
        let certified = |k: usize, label: &str| {
            decide_one_round(&m, k, k, EXECS as u128, NODES, Some(label)).unwrap()
        };
        // k = 3 is solvable: the certificate carries the decision map
        // and the standalone checker replays every execution.
        let (verdict, _, cert) = certified(3, "s31 k=3");
        assert!(verdict.is_solvable());
        let cert = cert.expect("decided verdicts carry a certificate");
        ksa_cert::check_solvability(&cert).unwrap();
        let text = ksa_cert::Cert::Solvability(cert).to_text();
        ksa_cert::Cert::parse(&text).unwrap().check().unwrap();

        // k = 2 is unsolvable: the certificate is an exhaustion
        // attestation with sane statistics.
        let (verdict, _, cert) = certified(2, "s31 k=2");
        assert_eq!(verdict, Solvability::Unsolvable);
        let cert = cert.expect("decided verdicts carry a certificate");
        assert!(matches!(
            cert.verdict,
            ksa_cert::SolvVerdict::Exhausted { .. }
        ));
        ksa_cert::check_solvability(&cert).unwrap();

        // Certifying must not perturb the plain verdict or the stats.
        let (plain, plain_stats, none) =
            decide_one_round(&m, 3, 3, EXECS as u128, NODES, None).unwrap();
        assert!(none.is_none());
        let (wrapped, wrapped_stats, _) = certified(3, "x");
        assert_eq!(plain, wrapped);
        assert_eq!(plain_stats, wrapped_stats);
    }

    #[test]
    fn sweep_matches_scratch_on_the_kernel() {
        let m = named::star_unions(3, 1).unwrap();
        let sweep = decide_one_round_sweep(&m, 3, EXECS, NODES).unwrap();
        assert_eq!(sweep.verdicts.len(), 3);
        assert_eq!(sweep.verdicts[0], Solvability::Unsolvable);
        assert_eq!(sweep.verdicts[1], Solvability::Unsolvable);
        assert!(sweep.verdicts[2].is_solvable());
        // The boundary search needs ≤ 2 probes for k_max = 3; the rest
        // comes from monotone facts.
        assert!(sweep.searched <= 2, "searched = {}", sweep.searched);
        assert_eq!(sweep.searched + sweep.seeded + sweep.pruned, 3);
        for (i, v) in sweep.verdicts.iter().enumerate() {
            let scratch = verdict_of(&m, i + 1, i + 1, EXECS as u128).unwrap();
            assert_eq!(
                std::mem::discriminant(v),
                std::mem::discriminant(&scratch),
                "k = {}",
                i + 1
            );
        }
    }

    #[test]
    fn sweep_lifted_witnesses_are_complete_maps() {
        let m = named::simple_ring(3).unwrap();
        let sweep = decide_one_round_sweep(&m, 3, EXECS, NODES).unwrap();
        for (i, v) in sweep.verdicts.iter().enumerate() {
            if let Solvability::Solvable(map) = v {
                let scratch = verdict_of(&m, i + 1, i + 1, EXECS as u128).unwrap();
                let Solvability::Solvable(scratch_map) = scratch else {
                    panic!("sweep says solvable at k = {}", i + 1);
                };
                // Same reachable-view set, whatever the decisions.
                assert_eq!(map.len(), scratch_map.len(), "k = {}", i + 1);
            }
        }
    }

    #[test]
    fn sweep_rejects_zero_k_max() {
        let m = named::simple_ring(3).unwrap();
        assert!(decide_one_round_sweep(&m, 0, EXECS, NODES).is_err());
    }
}

#[cfg(test)]
mod multi_round_tests {
    use super::*;
    use ksa_graphs::closure::enumerate_closure;
    use ksa_graphs::families;
    use ksa_models::named;

    const EXECS: usize = 5_000_000;
    const NODES: usize = 50_000_000;

    fn closure_of(model: &ksa_models::ClosedAboveModel) -> Vec<ksa_graphs::Digraph> {
        let mut graphs = Vec::new();
        for g in model.generators() {
            graphs.extend(enumerate_closure(g, 1 << 12).unwrap());
        }
        graphs.sort();
        graphs.dedup();
        graphs
    }

    #[test]
    fn simple_ring_two_rounds_consensus() {
        // γ(C3²) = γ(K3) = 1: consensus solvable in two rounds on ↑C3
        // (Thm 6.3); and still impossible in one (Thm 5.1).
        let m = named::simple_ring(3).unwrap();
        let graphs = closure_of(&m);
        let one = decide_rounds_explicit(&graphs, 1, 1, 1, EXECS, NODES).unwrap();
        assert_eq!(one, Solvability::Unsolvable);
        let two = decide_rounds_explicit(&graphs, 1, 1, 2, EXECS, NODES).unwrap();
        assert!(two.is_solvable());
    }

    #[test]
    fn one_round_agrees_with_dedicated_decider() {
        // The explicit-path decider must agree with the factorized
        // one-round decider.
        let m = named::star_unions(3, 2).unwrap();
        let graphs = closure_of(&m);
        let explicit = decide_rounds_explicit(&graphs, 2, 2, 1, EXECS, NODES).unwrap();
        let direct = verdict_of(&m, 2, 2, EXECS as u128).unwrap();
        assert_eq!(explicit.is_solvable(), direct.is_solvable());
        assert!(explicit.is_solvable());
        let explicit1 = decide_rounds_explicit(&graphs, 1, 1, 1, EXECS, NODES).unwrap();
        let direct1 = verdict_of(&m, 1, 1, EXECS as u128).unwrap();
        assert_eq!(explicit1, Solvability::Unsolvable);
        assert_eq!(direct1, Solvability::Unsolvable);
    }

    #[test]
    fn kernel_stays_hard_with_more_rounds() {
        // Star unions: (n−s)-set agreement impossible at any round count
        // (Thm 6.13) — machine-checked at r = 2 for n = 3, s = 1.
        let m = named::star_unions(3, 1).unwrap();
        let graphs = closure_of(&m);
        let r2 = decide_rounds_explicit(&graphs, 2, 2, 2, EXECS, NODES).unwrap();
        assert_eq!(r2, Solvability::Unsolvable);
    }

    #[test]
    fn loops_only_never_agrees() {
        // The one-graph model with loops only: every process is isolated;
        // k < n impossible at any r, k = n trivially solvable.
        let g = families::clique(1).unwrap();
        let _ = g;
        let lonely = vec![ksa_graphs::Digraph::empty(3).unwrap()];
        for r in 1..=2 {
            assert_eq!(
                decide_rounds_explicit(&lonely, 2, 2, r, EXECS, NODES).unwrap(),
                Solvability::Unsolvable,
                "r = {r}"
            );
            assert!(decide_rounds_explicit(&lonely, 3, 3, r, EXECS, NODES)
                .unwrap()
                .is_solvable());
        }
    }

    #[test]
    fn budgets_and_parameters() {
        let g = vec![ksa_graphs::Digraph::complete(3).unwrap()];
        assert!(decide_rounds_explicit(&g, 0, 1, 1, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&g, 1, 1, 0, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&[], 1, 1, 1, EXECS, NODES).is_err());
        assert!(decide_rounds_explicit(&g, 1, 3, 1, 2, NODES).is_err());
    }
}
