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
//! plain [`Complex<u32>`], built from the round's sorted facet rows on
//! first request; the sweeps and certificates read the rows directly.
//!
//! A round is built on flat `u32` rows and numbered by the chain
//! engine's packed-key kernels (`chain::number_chunks`, and
//! `chain::dedup_chunks` where rows are only deduplicated), in three
//! steps:
//!
//! * **interpret** — every view occurrence `(τ, g, p, S)` (a previous
//!   facet, a generator, a process and one of its admissible sender sets)
//!   becomes a stride-`n` row: each sender `q ∈ S` present in `τ` writes
//!   `q·P + id_τ(q) + 1`, in sender order, for the `P` views of the
//!   previous round, and the row is padded with 0. Rows compare exactly
//!   as the [`InternedView`]s they encode.
//! * **intern** — numbering the rows yields the round's canonical view
//!   table (only the distinct rows are decoded) and the view id of every
//!   occurrence, with no lookups.
//! * **materialize** — each pair's facet product is admitted against the
//!   budget, then an odometer writes its facets as stride-`n` rows of
//!   view ids in color order, and `dedup_chunks` sorts and dedups them
//!   without numbering them. Every round facet carries all `n` colors, so row order is
//!   [`Simplex`] order: the sorted rows feed the next round, the homology
//!   and the public complex alike.
//!
//! The [`Run`] budget guards the per-round facet blow-up: each round's
//! total facet product is estimated pair by pair *before* any facet is
//! materialized, and an oversized round fails fast with
//! [`TopologyError::Budget`]. The run's token, if any, is polled once per
//! round.
//!
//! Determinism (DESIGN.md §4): the construction runs on the calling
//! thread and its ids are sorted positions, so the result is a function
//! of the generators and the input alone. Its reference is the one-round
//! construction, which shares none of this code: round 1 expands to
//! [`crate::interpretation::protocol_complex_one_round`], and round 2
//! resolves to the one-round complex of the one-round complex
//! (proptest-pinned in `tests/rounds.rs`).

use crate::chain::{bits, certified_from_facet_ids, dedup_chunks, number_chunks, ChainComplex};
use crate::complex::Complex;
use crate::connectivity::Connectivity;
use crate::error::TopologyError;
use crate::intern::{InternedView, ViewTable};
use crate::interpretation::{superset_views, FlatView};
use crate::simplex::{Simplex, Vertex, View};
use ksa_graphs::budget::{Run, RunBudget};
use ksa_graphs::cancel::CancelToken;
use ksa_graphs::{Digraph, GraphError};
use ksa_obs::Counter;
use std::fmt;
use std::sync::OnceLock;

/// The view id of a color an input facet lacks, in the round-1 rows.
const ABSENT: u32 = u32::MAX;

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
///
/// The value is its tables and facet rows. The [`Complex`] of every
/// round is built from the rows on first request ([`complexes`],
/// [`complex_at`], [`final_complex`], [`expand_round_one`]) and cached;
/// equality, cloning and debug output ignore that cache.
///
/// [`complexes`]: RoundsComplex::complexes
/// [`complex_at`]: RoundsComplex::complex_at
/// [`final_complex`]: RoundsComplex::final_complex
/// [`expand_round_one`]: RoundsComplex::expand_round_one
pub struct RoundsComplex<V> {
    /// Distinct input views in canonical (sorted) order.
    input_table: ViewTable<V>,
    /// `tables[t]`: the views created at round `t + 1`.
    tables: Vec<ViewTable<InternedView>>,
    /// `rows[t]`: the round-`(t + 1)` facets as sorted, distinct
    /// stride-`n` rows of view ids, in color order.
    rows: Vec<Vec<u32>>,
    /// `complexes[t]`: the round-`(t + 1)` protocol complex, built from
    /// `rows[t]` on first request.
    complexes: OnceLock<Vec<Complex<u32>>>,
    /// The number of processes: every round facet's size.
    n: usize,
}

impl<V: PartialEq> PartialEq for RoundsComplex<V> {
    fn eq(&self, other: &Self) -> bool {
        self.input_table == other.input_table
            && self.tables == other.tables
            && self.rows == other.rows
            && self.n == other.n
    }
}

impl<V: Eq> Eq for RoundsComplex<V> {}

impl<V: Clone> Clone for RoundsComplex<V> {
    fn clone(&self) -> Self {
        RoundsComplex {
            input_table: self.input_table.clone(),
            tables: self.tables.clone(),
            rows: self.rows.clone(),
            complexes: OnceLock::new(),
            n: self.n,
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for RoundsComplex<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundsComplex")
            .field("input_table", &self.input_table)
            .field("tables", &self.tables)
            .field("rows", &self.rows)
            .field("n", &self.n)
            .finish()
    }
}

impl<V: View> RoundsComplex<V> {
    /// Number of rounds materialized.
    pub fn rounds(&self) -> usize {
        self.rows.len()
    }

    /// The final round's protocol complex.
    pub fn final_complex(&self) -> &Complex<u32> {
        self.complexes().last().expect("at least one round")
    }

    /// The protocol complex after `round` rounds (1-based), if computed.
    pub fn complex_at(&self, round: usize) -> Option<&Complex<u32>> {
        round.checked_sub(1).and_then(|t| self.complexes().get(t))
    }

    /// The number of facets after `round` rounds (1-based), if computed.
    pub fn facet_count_at(&self, round: usize) -> Option<usize> {
        let t = round.checked_sub(1)?;
        self.rows.get(t).map(|rows| rows.len() / self.n)
    }

    /// The view table of `round` (1-based), if computed.
    pub fn table_at(&self, round: usize) -> Option<&ViewTable<InternedView>> {
        round.checked_sub(1).and_then(|t| self.tables.get(t))
    }

    /// The table of distinct input views (what round-1 ids point to).
    pub fn input_table(&self) -> &ViewTable<V> {
        &self.input_table
    }

    /// All per-round complexes, round 1 first, built from the facet rows
    /// on the first call.
    pub fn complexes(&self) -> &[Complex<u32>] {
        self.complexes.get_or_init(|| {
            let facet = |row: &[u32]| {
                let verts = row
                    .iter()
                    .enumerate()
                    .map(|(p, &view)| Vertex::new(p, view));
                Simplex::new(verts.collect()).expect("process colors are distinct")
            };
            let complex =
                |rows: &Vec<u32>| Complex::from_sorted_facets(rows.chunks_exact(self.n).map(facet));
            self.rows.iter().map(complex).collect()
        })
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
        (0..self.rounds())
            .map(|t| {
                run.checkpoint()?;
                let (vertex_count, ids) = self.dense_facet_ids(t);
                let mut facets = vec![Vec::new(); self.n];
                facets[self.n - 1] = ids;
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
        let t = round.checked_sub(1).filter(|&t| t < self.rounds())?;
        let (vertex_count, ids) = self.dense_facet_ids(t);
        let facet_ids = ids.chunks_exact(self.n).map(<[u32]>::to_vec).collect();
        certified_from_facet_ids(vertex_count, facet_ids, label)
    }

    /// Interns round `t + 1`'s facets for the chain engine without
    /// sorting: a round vertex `(color, view)` has `view < views`, so a
    /// `colors × views` presence table, numbered in `(color, view)`
    /// order, assigns exactly the sorted-vertex ids of
    /// [`crate::chain::intern_facets`]. Returns the vertex count and
    /// every facet's ascending ids, in facet order, as stride-`n` rows.
    fn dense_facet_ids(&self, t: usize) -> (usize, Vec<u32>) {
        let (rows, views) = (&self.rows[t], self.tables[t].len());
        let slot = |p: usize, view: u32| p * views + view as usize;
        let mut id = vec![u32::MAX; self.n * views];
        for row in rows.chunks_exact(self.n) {
            for (p, &view) in row.iter().enumerate() {
                id[slot(p, view)] = 0;
            }
        }
        // Number the present slots (marked 0) in `(color, view)` order.
        let mut next = 0;
        for x in id.iter_mut().filter(|x| **x == 0) {
            *x = next;
            next += 1;
        }
        let ids = rows
            .chunks_exact(self.n)
            .flat_map(|row| row.iter().enumerate().map(|(p, &view)| id[slot(p, view)]));
        (next as usize, ids.collect())
    }

    /// Re-materializes the **round-1** complex with explicit flat views —
    /// the bridge to [`crate::interpretation::protocol_complex_one_round`]
    /// that the anchor tests compare against bit for bit.
    pub fn expand_round_one(&self) -> Complex<FlatView<V>> {
        let table = &self.tables[0];
        Complex::from_facets(self.complexes()[0].facets().map(|f| {
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

/// Interns an input complex: the canonical table of its distinct views,
/// and its facets, in facet order, as stride-`n` rows of view ids with
/// [`ABSENT`] for a missing color (colors from `n` up are never heard,
/// so they are left out).
fn intern_input<V: View>(input: &Complex<V>, n: usize) -> (ViewTable<V>, Vec<u32>) {
    let table = ViewTable::canonical(
        input
            .facets()
            .flat_map(|f| f.vertices().iter().map(|v| v.view.clone())),
    );
    let mut rows = vec![ABSENT; input.facet_count() * n];
    for (row, f) in rows.chunks_exact_mut(n).zip(input.facets()) {
        for v in f.vertices().iter().filter(|v| v.color < n) {
            row[v.color] = table.id_of(&v.view).expect("view was interned");
        }
    }
    (table, rows)
}

/// One built round: its view table and its sorted facet rows.
type Round = (ViewTable<InternedView>, Vec<u32>);

/// One round of iterated interpretation over the previous round's facet
/// rows `prev` (stride `n`, ids into a table of `prev_views` views):
/// interpret every view occurrence as a row, intern the rows, admit the
/// round's facet product against the budget, then materialize the facet
/// rows, sorted and distinct. Returns the round's view table and its
/// facet rows.
fn round_step(
    prev: &[u32],
    prev_views: usize,
    gens: &[Digraph],
    n: usize,
    budget: RunBudget,
) -> Result<Round, TopologyError> {
    // `sets[g]`: each process's admissible sender sets under `↑g`, one
    // group per process; every previous facet meets every generator.
    let sets: Vec<_> = gens.iter().map(|g| superset_views(g, |s| s)).collect();
    let pairs = prev.len() / n * gens.len();

    let (occurrences, code_bits) = {
        let _span = ksa_obs::span("topology", || "interpret");
        let code_max = u32::try_from(n * prev_views).expect("view codes fit in u32");
        let code = |q: usize, id: u32| q as u32 * prev_views as u32 + id + 1;
        let per_facet: usize = sets.iter().flatten().map(|(_, s)| s.len()).sum();
        let mut rows = Vec::with_capacity(prev.len() / n * per_facet * n);
        for tau in prev.chunks_exact(n) {
            for (_, senders) in sets.iter().flatten() {
                for s in senders {
                    let start = rows.len();
                    let heard = s.iter().filter(|&q| tau[q] != ABSENT);
                    rows.extend(heard.map(|q| code(q, tau[q])));
                    rows.resize(start + n, 0);
                }
            }
        }
        (rows, bits(code_max.into()))
    };

    let (table, mut view_ids) = {
        let _span = ksa_obs::span("topology", || "intern");
        let (distinct, view_ids) = number_chunks(occurrences, n, code_bits);
        let decode = |c: u32| ((c - 1) as usize / prev_views, (c - 1) % prev_views as u32);
        let views = distinct.chunks_exact(n).map(|row| {
            let codes = row.iter().take_while(|&&c| c != 0);
            codes.map(|&c| decode(c)).collect::<InternedView>()
        });
        (ViewTable::canonical(views), view_ids)
    };

    let _span = ksa_obs::span("topology", || "materialize");
    // One view list per (pair, process), in occurrence order: that
    // group's ids, sorted and deduplicated in place (senders missing from
    // a partial facet make different sets induce one view).
    let mut lists: Vec<(usize, usize)> = Vec::with_capacity(pairs * n);
    let mut start = 0;
    while start < view_ids.len() {
        for (_, senders) in sets.iter().flatten() {
            let group = &mut view_ids[start..start + senders.len()];
            group.sort_unstable();
            let mut len = 1;
            for i in 1..group.len() {
                if group[i] != group[len - 1] {
                    group[len] = group[i];
                    len += 1;
                }
            }
            lists.push((start, len));
            start += senders.len();
        }
    }

    // The round's facet blow-up is the sum over pairs of the per-pair
    // view products; admit the running total *before* materializing
    // anything.
    let mut total: u128 = 0;
    for pair in lists.chunks_exact(n) {
        let count = pair
            .iter()
            .fold(1u128, |acc, &(_, len)| acc.saturating_mul(len as u128));
        total = total.saturating_add(count);
        budget.admit("multi-round protocol-complex facets", total)?;
    }
    ksa_obs::count(Counter::ViewsInterned, table.len() as u64);
    ksa_obs::count(Counter::FacetsEnumerated, total as u64);

    // The odometer: one view id per process, first process fastest.
    let mut facets: Vec<u32> = Vec::with_capacity(total as usize * n);
    let mut idx = vec![0; n];
    for pair in lists.chunks_exact(n) {
        idx.fill(0);
        'pair: loop {
            facets.extend(pair.iter().zip(&idx).map(|(&(s, _), &i)| view_ids[s + i]));
            for (i, &(_, len)) in idx.iter_mut().zip(pair) {
                *i += 1;
                if *i < len {
                    continue 'pair;
                }
                *i = 0;
            }
            break;
        }
    }
    drop(view_ids);
    let id_bits = bits(table.len().saturating_sub(1) as u64);
    let rows = dedup_chunks(facets, n, id_bits);
    Ok((table, rows))
}

/// The `r`-round protocol complex of the closed-above model generated by
/// `gens` over the input complex `input`, views interned round by round.
///
/// For `r = 1` the result expands ([`RoundsComplex::expand_round_one`])
/// to exactly [`crate::interpretation::protocol_complex_one_round`] —
/// the anchor the proptests pin.
///
/// `run` is a [`RunBudget`] (or a `u128`), optionally with a
/// [`CancelToken`] polled once per round, before each round's
/// interpretation. A token that never fires leaves the construction
/// bit-identical to the token-free run.
///
/// # Errors
///
/// [`TopologyError::Graph`] for an empty generator set or generators on
/// different process counts; [`TopologyError::ZeroRounds`] for
/// `rounds = 0`; [`TopologyError::Budget`] when a round's facet product
/// exceeds the budget; [`TopologyError::Cancelled`] /
/// [`TopologyError::DeadlineExceeded`] when the token fires.
pub fn protocol_complex_rounds<'a, V: View>(
    gens: &[Digraph],
    input: &Complex<V>,
    rounds: usize,
    run: impl Into<Run<'a>>,
) -> Result<RoundsComplex<V>, TopologyError> {
    let run = run.into();
    let n = gens.first().ok_or(GraphError::EmptyGraphSet)?.n();
    if let Some(g) = gens.iter().find(|g| g.n() != n) {
        return Err(GraphError::MismatchedSizes {
            left: n,
            right: g.n(),
        }
        .into());
    }
    if rounds == 0 {
        return Err(TopologyError::ZeroRounds);
    }
    let (input_table, input_rows) = intern_input(input, n);
    ksa_obs::count(Counter::ViewsInterned, input_table.len() as u64);
    let mut tables: Vec<ViewTable<InternedView>> = Vec::with_capacity(rounds);
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(rounds);
    for t in 0..rounds {
        // The per-round iteration is the pipeline's coarse poll point
        // (finer polls, per rank reduction, live in the homology sweep).
        run.checkpoint()?;
        let _span = ksa_obs::span("topology", || "round").arg("round", t as u64 + 1);
        let (prev, prev_views) = match (rows.last(), tables.last()) {
            (Some(prev), Some(table)) => (prev, table.len()),
            _ => (&input_rows, input_table.len()),
        };
        let (table, round) = round_step(prev, prev_views, gens, n, run.budget)?;
        tables.push(table);
        rows.push(round);
    }
    Ok(RoundsComplex {
        input_table,
        tables,
        rows,
        complexes: OnceLock::new(),
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpretation::protocol_complex_one_round;
    use crate::pseudosphere::Pseudosphere;
    use ksa_graphs::cancel::Deadline;
    use ksa_graphs::families;

    const BUDGET: u128 = 10_000_000;

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
    fn budget_error_names_the_first_running_total_past_the_limit() {
        // Each round admits its pairs in (previous facet × generator)
        // order, a pair's product being its interpreted pseudosphere's
        // size (views deduplicated per process, which matters on the
        // partial facet {0, 1}: a sender set with or without the missing
        // process 2 induces one view); the error names the first running
        // total past the limit.
        use crate::interpretation::interpreted_pseudosphere;
        let gens = vec![
            families::cycle(3).unwrap(),
            families::broadcast_star(3, 1).unwrap(),
        ];
        let partial = Simplex::new(vec![Vertex::new(0, 2u32), Vertex::new(1, 2)]).unwrap();
        let input = Complex::from_facets(binary_inputs(3).facets().cloned().chain([partial]));
        assert_eq!(input.facet_count(), 9);
        let one = protocol_complex_rounds(&gens, &input, 1, BUDGET).unwrap();
        // Round 2's limits stay at or above round 1's total, so round 1
        // is admitted whole.
        let mut floor = 0;
        for (rounds, prev) in [(1, &input), (2, one.complex_at(1).unwrap())] {
            let totals: Vec<u128> = prev
                .facets()
                .flat_map(|tau| gens.iter().map(move |g| interpreted_pseudosphere(g, tau)))
                .scan(0, |total, ps| {
                    *total += ps.facet_count();
                    Some(*total)
                })
                .filter(|&t| t >= floor)
                .collect();
            let last = totals[totals.len() - 1];
            for limit in [totals[0], totals[totals.len() / 2], last - 1] {
                let estimated = *totals.iter().find(|&&t| t > limit).unwrap();
                assert_eq!(
                    protocol_complex_rounds(&gens, &input, rounds, limit).unwrap_err(),
                    TopologyError::Budget(ksa_graphs::budget::BudgetExceeded {
                        what: "multi-round protocol-complex facets",
                        estimated,
                        limit,
                    }),
                    "round {rounds}, limit {limit}"
                );
            }
            assert!(protocol_complex_rounds(&gens, &input, rounds, last).is_ok());
            floor = last;
        }
    }

    #[test]
    fn wide_view_codes_take_the_fallback_and_agree() {
        // With 2^20 previous views, a view code needs bits(3 · 2^20) = 22
        // bits and a stride-3 key 66, so the views are numbered by the
        // index sort, not by packed keys. Spreading the ids of a narrow
        // previous round order-preservingly must give the same round.
        let gens = vec![
            families::cycle(3).unwrap(),
            families::broadcast_star(3, 0).unwrap(),
        ];
        let narrow: Vec<u32> = vec![0, 1, 2, 1, 0, 2, 2, 2, 0, 0, ABSENT, 1];
        let spread = |id: u32| if id == ABSENT { id } else { id << 18 };
        let wide: Vec<u32> = narrow.iter().map(|&id| spread(id)).collect();
        let budget = RunBudget::new(BUDGET);
        let (narrow_table, narrow_rows) = round_step(&narrow, 3, &gens, 3, budget).unwrap();
        let (wide_table, wide_rows) = round_step(&wide, 1 << 20, &gens, 3, budget).unwrap();
        assert_eq!(wide_rows, narrow_rows);
        let respread: Vec<InternedView> = narrow_table
            .entries()
            .iter()
            .map(|view| view.iter().map(|&(q, id)| (q, spread(id))).collect())
            .collect();
        assert_eq!(wide_table.entries(), &respread[..]);
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
        for (t, complex) in rc.complexes().iter().enumerate() {
            let (dense_count, dense) = rc.dense_facet_ids(t);
            let mut sorted = Vec::new();
            let sorted_count =
                crate::chain::intern_facets(complex, |ids| sorted.extend_from_slice(ids));
            assert_eq!(dense_count, complex.vertices().len());
            assert_eq!(dense_count, sorted_count);
            assert_eq!(dense, sorted);
            assert_eq!(rc.facet_count_at(t + 1), Some(complex.facet_count()));
        }
    }

    #[test]
    fn complexes_are_built_on_demand_and_ignored_by_equality() {
        let gens = vec![families::cycle(3).unwrap()];
        let input = binary_inputs(3);
        let built = protocol_complex_rounds(&gens, &input, 2, 10_000_000u128).unwrap();
        let unbuilt = protocol_complex_rounds(&gens, &input, 2, 10_000_000u128).unwrap();
        let copy = built.clone();
        assert!(built.complexes.get().is_none());
        let counts: Vec<usize> = built.complexes().iter().map(Complex::facet_count).collect();
        assert!(built.complexes.get().is_some());
        assert_eq!(built, unbuilt);
        assert_eq!(format!("{built:?}"), format!("{unbuilt:?}"));
        assert_eq!(copy, built);
        assert!(copy.complexes.get().is_none());
        // The cached complexes are the rows, read as simplices.
        assert_eq!(
            counts,
            [1, 2].map(|r| unbuilt.facet_count_at(r).unwrap()).to_vec()
        );
        assert_eq!(unbuilt.complex_at(2), Some(built.final_complex()));
    }

    #[test]
    fn void_input_stays_void() {
        let gens = vec![families::cycle(3).unwrap()];
        let rc = protocol_complex_rounds(&gens, &Complex::<u32>::void(), 2, 1_000u128).unwrap();
        assert!(rc.final_complex().is_void());
        assert_eq!(rc.interned_view_count(), 0);
    }
}
