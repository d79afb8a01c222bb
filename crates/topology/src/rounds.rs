//! Multi-round protocol complexes by iterated interpretation
//! (Defs 4.13–4.14 applied round over round; the §6 iteration story).
//!
//! One round of a closed-above model turns an input complex into the
//! protocol complex of [`crate::interpretation`]. Running `r` rounds
//! iterates that construction: round `t` interprets the model's
//! uninterpreted pseudospheres over the round-`(t−1)` protocol complex,
//! so a process's view after round `t` is the set of `(sender,
//! round-(t−1) view)` pairs it heard. Represented naively those views are
//! trees growing like `n^t`; this module stores them **hash-consed** — a
//! round-`t` view is a [`InternedView`]: a sorted list of `(sender, id)`
//! pairs whose `u32` ids point into the previous round's [`ViewTable`]
//! (see [`crate::intern`] and DESIGN.md §6). The round-`t` complex is a
//! plain [`Complex<u32>`], which is what the homology pipeline consumes
//! for the round-sweep connectivity experiments.
//!
//! The [`Run`] budget guards the per-round facet blow-up: each round's
//! total facet product is estimated pair by pair *before* any facet is
//! materialized, and an oversized round fails fast with
//! [`TopologyError::Budget`]. The run's token, if any, is polled once per
//! round.
//!
//! Determinism (DESIGN.md §4): [`protocol_complex_rounds_seq`] is the
//! public sequential reference; [`protocol_complex_rounds`] fans the per-(input-facet × generator)
//! interpretation out on the `ksa-exec` pool and merges in input order,
//! with canonical id assignment ([`ViewTable::canonical`]) and facet
//! canonicalization (`Complex::from_facets`) at the merge — the results
//! are bit-identical at any `KSA_THREADS`, proptest-pinned at pool sizes
//! 1/2/8.

use crate::chain::{certified_from_facet_ids, file_facet, ChainComplex};
use crate::complex::Complex;
use crate::connectivity::Connectivity;
use crate::error::TopologyError;
use crate::intern::{InternedView, ViewTable};
use crate::interpretation::FlatView;
use crate::simplex::{Simplex, Vertex, View};
use ksa_graphs::budget::{Run, RunBudget};
use ksa_graphs::cancel::CancelToken;
use ksa_graphs::Digraph;
use ksa_obs::Counter;

use ksa_exec::prelude::*;

/// One round of [`RoundsComplex::homology_sweep`]: that round's
/// homology verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStep {
    /// The reduced Z/2 Betti numbers of the round's complex.
    pub betti: Vec<usize>,
    /// The homological connectivity verdict (derived from `betti`, so
    /// identical to [`crate::connectivity::connectivity`] on the same
    /// complex).
    pub connectivity: Connectivity,
}

/// The result of an `r`-round iterated interpretation: one interned
/// complex and one view table per round, plus the table of input views
/// the round-1 ids resolve through.
///
/// `complexes()[t]` is the round-`(t+1)` protocol complex; its vertex
/// views are ids into `tables()[t]`, whose entries hold `(sender, id)`
/// pairs pointing into `tables()[t−1]` (or [`RoundsComplex::input_table`]
/// for `t = 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundsComplex<V> {
    /// Distinct input views in canonical (sorted) order.
    input_table: ViewTable<V>,
    /// `tables[t]`: the views created at round `t + 1`.
    tables: Vec<ViewTable<InternedView>>,
    /// `complexes[t]`: the round-`(t + 1)` protocol complex.
    complexes: Vec<Complex<u32>>,
}

impl<V: View> RoundsComplex<V> {
    /// Number of rounds materialized.
    pub fn rounds(&self) -> usize {
        self.complexes.len()
    }

    /// The final round's protocol complex.
    pub fn final_complex(&self) -> &Complex<u32> {
        self.complexes.last().expect("at least one round")
    }

    /// The protocol complex after `round` rounds (1-based), if computed.
    pub fn complex_at(&self, round: usize) -> Option<&Complex<u32>> {
        round.checked_sub(1).and_then(|t| self.complexes.get(t))
    }

    /// The view table of `round` (1-based), if computed.
    pub fn table_at(&self, round: usize) -> Option<&ViewTable<InternedView>> {
        round.checked_sub(1).and_then(|t| self.tables.get(t))
    }

    /// The table of distinct input views (what round-1 ids point to).
    pub fn input_table(&self) -> &ViewTable<V> {
        &self.input_table
    }

    /// All per-round complexes, round 1 first.
    pub fn complexes(&self) -> &[Complex<u32>] {
        &self.complexes
    }

    /// Total number of interned views across all rounds — the arena
    /// footprint that replaces the re-materialized view trees.
    pub fn interned_view_count(&self) -> usize {
        self.input_table.len() + self.tables.iter().map(ViewTable::len).sum::<usize>()
    }

    /// The homology of every round's complex, round 1 first: one
    /// [`ChainComplex`] per round, whose Betti numbers and connectivity
    /// share a single closure and rank pass (DESIGN.md §7.3).
    ///
    /// Verdicts are bit-identical to calling
    /// [`reduced_betti_numbers`](crate::homology::reduced_betti_numbers)
    /// and [`connectivity`](crate::connectivity::connectivity) on each
    /// round's complex (proptest-pinned in `tests/chain_engine.rs`).
    pub fn homology_sweep(&self) -> Vec<SweepStep> {
        self.sweep(RunBudget::DEFAULT.into())
            .expect("a sweep without a token is never interrupted")
    }

    /// [`homology_sweep`](Self::homology_sweep) with a cooperative
    /// [`CancelToken`], polled before each round and before every
    /// boundary-rank reduction (the sweep's units of work). A token that
    /// never fires leaves the steps bit-identical to
    /// [`homology_sweep`](Self::homology_sweep).
    ///
    /// # Errors
    ///
    /// [`TopologyError::Cancelled`] / [`TopologyError::DeadlineExceeded`]
    /// when the token fires mid-sweep.
    pub fn homology_sweep_cancellable(
        &self,
        cancel: &CancelToken,
    ) -> Result<Vec<SweepStep>, TopologyError> {
        self.sweep(Run {
            budget: RunBudget::DEFAULT,
            cancel: Some(cancel),
        })
    }

    /// The per-round loop behind both sweeps; only the run's token is
    /// read.
    fn sweep(&self, run: Run<'_>) -> Result<Vec<SweepStep>, TopologyError> {
        self.complexes
            .iter()
            .zip(&self.tables)
            .map(|(complex, table)| {
                run.checkpoint()?;
                let mut facets = Vec::new();
                let vertex_count =
                    dense_facet_ids(complex, table.len(), |ids| file_facet(&mut facets, ids));
                let mut chain = ChainComplex::from_facet_ids(vertex_count, facets);
                if run.cancel.is_some() {
                    // Warm each dimension's cached rank one at a time,
                    // polling between, so `reduced_betti` only reads the
                    // cache (and cannot fan out past a fired token).
                    for k in 1..=chain.dim().max(0) as usize {
                        run.checkpoint()?;
                        chain.rank_boundary(k);
                    }
                }
                let betti = chain.reduced_betti();
                let connectivity = Connectivity::from_reduced_betti(&betti);
                Ok(SweepStep {
                    betti,
                    connectivity,
                })
            })
            .collect()
    }

    /// The certified homology of the protocol complex after `round`
    /// rounds (1-based): byte for byte what
    /// [`reduced_betti_certified`](crate::chain::reduced_betti_certified)
    /// returns for [`complex_at(round)`](Self::complex_at), interned
    /// through the round's dense view table instead of a vertex sort.
    /// `None` when the round was not computed or its complex is void.
    pub fn certified_betti(
        &self,
        round: usize,
        label: &str,
    ) -> Option<(Vec<usize>, ksa_cert::HomologyCert)> {
        let _span = ksa_obs::span("cert", || "produce");
        let t = round.checked_sub(1)?;
        let complex = self.complexes.get(t)?;
        let mut facet_ids: Vec<Vec<u32>> = Vec::with_capacity(complex.facet_count());
        let vertex_count = dense_facet_ids(complex, self.tables[t].len(), |ids| {
            facet_ids.push(ids.to_vec())
        });
        certified_from_facet_ids(vertex_count, facet_ids, label)
    }

    /// Re-materializes the **round-1** complex with explicit flat views —
    /// the bridge to [`crate::interpretation::protocol_complex_one_round`]
    /// that the anchor tests compare against bit for bit.
    pub fn expand_round_one(&self) -> Complex<FlatView<V>> {
        let table = &self.tables[0];
        Complex::from_facets(self.complexes[0].facets().map(|f| {
            Simplex::new(
                f.vertices()
                    .iter()
                    .map(|vert| {
                        let flat: FlatView<V> = table
                            .get(vert.view)
                            .iter()
                            .map(|&(q, vid)| (q, self.input_table.get(vid).clone()))
                            .collect();
                        Vertex::new(vert.color, flat)
                    })
                    .collect(),
            )
            .expect("colors stay distinct under expansion")
        }))
    }
}

/// Interns a round complex for the chain engine without sorting: a
/// round vertex `(color, view)` has `view < views`, so a `colors × views`
/// presence table, numbered in `(color, view)` order, assigns exactly the
/// sorted-vertex ids of [`crate::chain::intern_facets`]. Hands each
/// facet's ascending id list to `emit`, in facet order, and returns the
/// vertex count.
fn dense_facet_ids(complex: &Complex<u32>, views: usize, mut emit: impl FnMut(&[u32])) -> usize {
    let colors = complex
        .facets()
        .flat_map(Simplex::vertices)
        .map(|v| v.color + 1)
        .max()
        .unwrap_or(0);
    let slot = |v: &Vertex<u32>| v.color * views + v.view as usize;
    let mut id = vec![u32::MAX; colors * views];
    for v in complex.facets().flat_map(Simplex::vertices) {
        id[slot(v)] = 0;
    }
    // Number the present slots (marked 0) in `(color, view)` order.
    let mut next = 0;
    for x in id.iter_mut().filter(|x| **x == 0) {
        *x = next;
        next += 1;
    }
    let mut ids = Vec::new();
    for f in complex.facets() {
        ids.clear();
        ids.extend(f.vertices().iter().map(|v| id[slot(v)]));
        emit(&ids);
    }
    next as usize
}

/// Interns an input complex: canonical table of its distinct views, and
/// its facets with views replaced by ids.
fn intern_input<V: View>(input: &Complex<V>) -> (ViewTable<V>, Vec<Simplex<u32>>) {
    let table = ViewTable::canonical(
        input
            .facets()
            .flat_map(|f| f.vertices().iter().map(|v| v.view.clone())),
    );
    let facets = input
        .facets()
        .map(|f| {
            Simplex::new(
                f.vertices()
                    .iter()
                    .map(|v| Vertex::new(v.color, table.id_of(&v.view).expect("view was interned")))
                    .collect(),
            )
            .expect("colors stay distinct under interning")
        })
        .collect();
    (table, facets)
}

/// The admissible round-views of each process for one `(τ, g)` pair:
/// process `p` may hear from any superset of `In_g(p)`, inducing the
/// interned flat view `{(q, view_τ(q)) | q ∈ senders, q ∈ τ}` — the
/// id-level mirror of `interpretation::interpreted_pseudosphere`, built
/// on the same superset enumeration. Per-process lists come back sorted
/// and deduplicated (as `Pseudosphere::new` does for the one-round
/// path).
fn pair_view_lists(tau: &Simplex<u32>, g: &Digraph) -> Vec<Vec<InternedView>> {
    crate::interpretation::superset_views(g, |senders| {
        senders
            .iter()
            .filter_map(|q| tau.view_of(q).map(|&id| (q, id)))
            .collect()
    })
    .into_iter()
    .map(|(_, mut views)| {
        views.sort_unstable();
        views.dedup();
        views
    })
    .collect()
}

/// Maps `f` over `items` on the `ksa-exec` pool when `use_parallel`,
/// inline otherwise — the merge is input-ordered either way, so both
/// paths compute the same vector.
fn map_items<T: Sync, U: Send>(
    items: &[T],
    f: impl Fn(&T) -> U + Sync,
    use_parallel: bool,
) -> Vec<U> {
    if use_parallel {
        return items.par_iter().map(&f).collect();
    }
    items.iter().map(&f).collect()
}

/// Materializes the facet product of one pair's per-process id lists
/// (the interned pseudosphere): the odometer enumeration of one view id
/// per process.
fn materialize_pair(id_lists: &[Vec<u32>]) -> Vec<Simplex<u32>> {
    let n = id_lists.len();
    let mut idx = vec![0usize; n];
    let mut facets = Vec::new();
    loop {
        facets.push(
            Simplex::new(
                (0..n)
                    .map(|p| Vertex::new(p, id_lists[p][idx[p]]))
                    .collect(),
            )
            .expect("process colors are distinct"),
        );
        let mut pos = 0;
        loop {
            if pos == n {
                return facets;
            }
            idx[pos] += 1;
            if idx[pos] < id_lists[pos].len() {
                break;
            }
            idx[pos] = 0;
            pos += 1;
        }
    }
}

/// One round of iterated interpretation over the previous round's
/// interned facets: compute each pair's admissible views, intern the
/// round's distinct views canonically, admit the round's facet product
/// against the budget, then materialize and canonicalize.
fn round_step<'a>(
    prev_facets: impl Iterator<Item = &'a Simplex<u32>>,
    gens: &[Digraph],
    budget: RunBudget,
    use_parallel: bool,
) -> Result<(ViewTable<InternedView>, Complex<u32>), TopologyError> {
    let pairs: Vec<(&Simplex<u32>, &Digraph)> = prev_facets
        .flat_map(|tau| gens.iter().map(move |g| (tau, g)))
        .collect();

    // Phase 1 — interpretation fan-out: per-pair admissible view lists.
    let pair_views: Vec<Vec<Vec<InternedView>>> =
        map_items(&pairs, |&(tau, g)| pair_view_lists(tau, g), use_parallel);

    // Phase 2 — budget: the round's facet blow-up is the sum over pairs
    // of the per-pair view products; admit the running total *before*
    // materializing anything, identically in both code paths.
    let mut total: u128 = 0;
    for views in &pair_views {
        let count = views
            .iter()
            .fold(1u128, |acc, vs| acc.saturating_mul(vs.len() as u128));
        total = total.saturating_add(count);
        budget.admit("multi-round protocol-complex facets", total)?;
    }

    // Phase 3 — canonical interning of the round's distinct views: ids
    // are sorted positions, so any enumeration order yields this table.
    // Dedup by reference first — occurrences vastly outnumber distinct
    // views, and only the distinct ones are worth cloning into the arena.
    let mut distinct: Vec<&InternedView> = pair_views.iter().flatten().flatten().collect();
    distinct.sort_unstable();
    distinct.dedup();
    let table: ViewTable<InternedView> = ViewTable::canonical(distinct.into_iter().cloned());
    ksa_obs::count(Counter::ViewsInterned, table.len() as u64);
    let id_lists: Vec<Vec<Vec<u32>>> = pair_views
        .iter()
        .map(|views| {
            views
                .iter()
                .map(|vs| {
                    vs.iter()
                        .map(|v| table.id_of(v).expect("view was interned"))
                        .collect()
                })
                .collect()
        })
        .collect();

    // Phase 4 — materialization fan-out with input-ordered merge and
    // canonicalization at the merge (Complex::from_facets).
    let groups: Vec<Vec<Simplex<u32>>> =
        map_items(&id_lists, |lists| materialize_pair(lists), use_parallel);
    ksa_obs::count(
        Counter::FacetsEnumerated,
        groups.iter().map(|g| g.len() as u64).sum(),
    );

    Ok((table, Complex::from_facets(groups.into_iter().flatten())))
}

/// Shared driver for the sequential and parallel entry points. The
/// per-round iteration is the pipeline's coarse poll point: a fired
/// token stops before the next round's fan-out (finer polls — per rank
/// reduction — live in [`RoundsComplex::homology_sweep_cancellable`],
/// which consumes the result).
fn rounds_driver<V: View>(
    gens: &[Digraph],
    input: &Complex<V>,
    rounds: usize,
    run: Run<'_>,
    use_parallel: bool,
) -> Result<RoundsComplex<V>, TopologyError> {
    if gens.is_empty() {
        return Err(ksa_graphs::GraphError::EmptyGraphSet.into());
    }
    if rounds == 0 {
        return Err(TopologyError::ZeroRounds);
    }
    let (input_table, input_facets) = intern_input(input);
    ksa_obs::count(Counter::ViewsInterned, input_table.len() as u64);
    let mut tables = Vec::with_capacity(rounds);
    let mut complexes: Vec<Complex<u32>> = Vec::with_capacity(rounds);
    for t in 0..rounds {
        run.checkpoint()?;
        let _span = ksa_obs::span("topology", || "round").arg("round", t as u64 + 1);
        // Borrow the previous round's facets in place (the interned input
        // for round 1) — no per-round re-materialization.
        let (table, complex) = match complexes.last() {
            Some(prev) => round_step(prev.facets(), gens, run.budget, use_parallel)?,
            None => round_step(input_facets.iter(), gens, run.budget, use_parallel)?,
        };
        tables.push(table);
        complexes.push(complex);
    }
    Ok(RoundsComplex {
        input_table,
        tables,
        complexes,
    })
}

/// The `r`-round protocol complex of the closed-above model generated by
/// `gens` over the input complex `input`, views interned round by round.
///
/// For `r = 1` the result expands ([`RoundsComplex::expand_round_one`])
/// to exactly [`crate::interpretation::protocol_complex_one_round`] —
/// the anchor the proptests pin.
///
/// The per-round interpretation and materialization fan out on the `ksa-exec` pool; the result is
/// bit-identical to [`protocol_complex_rounds_seq`] at any
/// `KSA_THREADS` (DESIGN.md §4, §6).
///
/// `run` is a [`RunBudget`] (or a `u128`), optionally with a
/// [`CancelToken`] polled once per round, before each round's
/// interpretation fan-out. A token that never fires leaves the
/// construction bit-identical to the token-free run.
///
/// # Errors
///
/// [`TopologyError::Graph`] for an empty generator set;
/// [`TopologyError::ZeroRounds`] for `rounds = 0`;
/// [`TopologyError::Budget`] when a round's facet product exceeds the
/// budget; [`TopologyError::Cancelled`] /
/// [`TopologyError::DeadlineExceeded`] when the token fires.
pub fn protocol_complex_rounds<'a, V: View>(
    gens: &[Digraph],
    input: &Complex<V>,
    rounds: usize,
    run: impl Into<Run<'a>>,
) -> Result<RoundsComplex<V>, TopologyError> {
    rounds_driver(gens, input, rounds, run.into(), true)
}

/// The sequential reference implementation of
/// [`protocol_complex_rounds`], kept public per the determinism contract
/// (DESIGN.md §4): the parallel path must produce bit-identical
/// [`RoundsComplex`] values.
///
/// # Errors
///
/// As for [`protocol_complex_rounds`].
pub fn protocol_complex_rounds_seq<V: View>(
    gens: &[Digraph],
    input: &Complex<V>,
    rounds: usize,
    budget: impl Into<RunBudget>,
) -> Result<RoundsComplex<V>, TopologyError> {
    rounds_driver(gens, input, rounds, Run::from(budget.into()), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpretation::protocol_complex_one_round;
    use crate::pseudosphere::Pseudosphere;
    use ksa_graphs::cancel::Deadline;
    use ksa_graphs::families;

    fn binary_inputs(n: usize) -> Complex<u32> {
        Pseudosphere::new((0..n).map(|p| (p, vec![0u32, 1])).collect())
            .unwrap()
            .to_complex()
    }

    #[test]
    fn round_one_expands_to_the_one_round_complex() {
        let gens = vec![families::cycle(3).unwrap()];
        let input = binary_inputs(3);
        let rc = protocol_complex_rounds(&gens, &input, 1, 1_000_000u128).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, 1_000_000).unwrap();
        assert_eq!(rc.expand_round_one(), direct);
        assert_eq!(rc.rounds(), 1);
        assert_eq!(rc.final_complex().facet_count(), direct.facet_count());
    }

    #[test]
    fn multi_generator_round_one_anchor() {
        let gens = vec![
            families::cycle(3).unwrap(),
            families::broadcast_star(3, 0).unwrap(),
        ];
        let input = binary_inputs(3);
        let rc = protocol_complex_rounds(&gens, &input, 1, 1_000_000u128).unwrap();
        let direct = protocol_complex_one_round(&gens, &input, 1_000_000).unwrap();
        assert_eq!(rc.expand_round_one(), direct);
    }

    #[test]
    fn rounds_stay_pure_and_chromatic() {
        let gens = vec![families::cycle(3).unwrap()];
        let input = binary_inputs(3);
        let rc = protocol_complex_rounds(&gens, &input, 3, 10_000_000u128).unwrap();
        assert_eq!(rc.rounds(), 3);
        for t in 1..=3 {
            let c = rc.complex_at(t).unwrap();
            assert!(c.is_pure(), "round {t}");
            assert_eq!(c.dim(), 2, "round {t}");
        }
        // Iteration refines: facet counts never shrink for ↑C3.
        let counts: Vec<usize> = rc.complexes().iter().map(Complex::facet_count).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        // The arena keeps every round's distinct views.
        assert!(rc.interned_view_count() > rc.input_table().len());
        assert!(!rc.table_at(3).unwrap().is_empty());
        assert!(rc.table_at(4).is_none());
        assert!(rc.complex_at(0).is_none());
    }

    #[test]
    fn ids_resolve_through_the_tables() {
        let gens = vec![families::cycle(3).unwrap()];
        let input = binary_inputs(3);
        let rc = protocol_complex_rounds(&gens, &input, 2, 10_000_000u128).unwrap();
        // Every round-2 vertex id resolves to a view whose nested ids all
        // live in the round-1 table.
        let t2 = rc.table_at(2).unwrap();
        let t1 = rc.table_at(1).unwrap();
        for f in rc.complex_at(2).unwrap().facets() {
            for v in f.vertices() {
                for &(q, id) in t2.get(v.view) {
                    assert!(q < 3);
                    assert!((id as usize) < t1.len());
                }
            }
        }
    }

    #[test]
    fn zero_rounds_and_empty_generators_rejected() {
        let input = binary_inputs(3);
        let gens = vec![families::cycle(3).unwrap()];
        assert_eq!(
            protocol_complex_rounds(&gens, &input, 0, 1_000u128),
            Err(TopologyError::ZeroRounds)
        );
        assert!(protocol_complex_rounds::<u32>(&[], &input, 1, 1_000u128).is_err());
    }

    #[test]
    fn budget_guards_the_blow_up() {
        let gens = vec![families::cycle(3).unwrap()];
        let input = binary_inputs(3);
        // Round 1 of ↑C3 over 8 input facets needs 64 facet slots.
        let err = protocol_complex_rounds(&gens, &input, 1, 10u128).unwrap_err();
        assert!(matches!(err, TopologyError::Budget(_)), "{err:?}");
        assert!(protocol_complex_rounds(&gens, &input, 1, 64u128).is_ok());
    }

    #[test]
    fn sequential_reference_agrees() {
        let gens = vec![
            families::cycle(3).unwrap(),
            families::broadcast_star(3, 1).unwrap(),
        ];
        let input = binary_inputs(3);
        let par = protocol_complex_rounds(&gens, &input, 2, 10_000_000u128).unwrap();
        let seq = protocol_complex_rounds_seq(&gens, &input, 2, 10_000_000u128).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn fired_token_interrupts_the_homology_sweep() {
        // Build first, so the interruption comes from the sweep's own
        // polls rather than the construction's.
        let gens = vec![families::cycle(3).unwrap()];
        let rc = protocol_complex_rounds(&gens, &binary_inputs(3), 2, 10_000_000u128).unwrap();
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            rc.homology_sweep_cancellable(&token),
            Err(TopologyError::Cancelled)
        );
        let expired = CancelToken::with_deadline(Deadline::in_millis(0));
        assert_eq!(
            rc.homology_sweep_cancellable(&expired),
            Err(TopologyError::DeadlineExceeded)
        );
    }

    #[test]
    fn dense_interning_matches_sorted_interning() {
        // Betti numbers are invariant under relabelling, so only an
        // id-level comparison catches an ordering slip.
        let gens = vec![
            families::cycle(3).unwrap(),
            families::broadcast_star(3, 0).unwrap(),
        ];
        let rc = protocol_complex_rounds(&gens, &binary_inputs(3), 2, 10_000_000u128).unwrap();
        for (complex, table) in rc.complexes().iter().zip(&rc.tables) {
            let (mut dense, mut sorted) = (Vec::new(), Vec::new());
            let dense_count = dense_facet_ids(complex, table.len(), |ids| dense.push(ids.to_vec()));
            let sorted_count =
                crate::chain::intern_facets(complex, |ids| sorted.push(ids.to_vec()));
            assert_eq!(dense_count, complex.vertices().len());
            assert_eq!(dense_count, sorted_count);
            assert_eq!(dense, sorted);
        }
    }

    #[test]
    fn void_input_stays_void() {
        let gens = vec![families::cycle(3).unwrap()];
        let rc = protocol_complex_rounds(&gens, &Complex::<u32>::void(), 2, 1_000u128).unwrap();
        assert!(rc.final_complex().is_void());
        assert_eq!(rc.interned_view_count(), 0);
    }
}
