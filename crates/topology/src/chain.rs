//! The flat chain-complex engine: a top-down face closure that emits the
//! boundary incidence rows as it goes, sparse boundary reduction,
//! early-exit connectivity, and rank reuse across skeleta (DESIGN.md §7).
//!
//! [`crate::homology`] and [`crate::connectivity`] used to re-derive the
//! face closure per query, index simplexes through
//! `HashMap<&Simplex, usize>`, and always rank every boundary operator up
//! to the top dimension. This module replaces that substrate:
//!
//! * **Top-down closure with incidence rows** — vertices are interned to
//!   `u32` ids (positions in the sorted vertex table) and the closure
//!   runs from the top dimension down: the `k`-simplexes, canonically
//!   sorted, each drop one vertex at a time (last position first); those
//!   faces are merged with the `(k−1)`-dimensional facets, sorted and
//!   deduplicated, and every face's new id is written straight into the
//!   flat stride-`(k+1)` incidence array of `∂_k`. Dropping later
//!   positions yields lexicographically smaller faces, so every row comes
//!   out ascending. No per-simplex hashing and no face lookups anywhere.
//! * **Packed-key numbering** — each level is sorted and deduplicated
//!   as one `u64` key per candidate face: its vertex ids, most
//!   significant first, at `bits(|V| − 1)` bits each, above its input
//!   index. The keys sort as integers, equal high bits are equal faces,
//!   and the distinct faces are decoded from their keys. A level whose
//!   keys would need more than 64 bits falls back to an index sort
//!   comparing the faces as slices, which is also the kernel's oracle.
//!   The multi-round construction ([`crate::rounds`]) numbers its view
//!   and facet rows with the same kernel.
//! * **Coboundary reduction with clearing** — `∂_k`, `k ≥ 2`, is ranked
//!   as its transpose, the coboundary `δ^{k−1}`: one counting sort of the
//!   incidence array gives each `(k−1)`-simplex the ascending ids of the
//!   `k`-simplexes it is a face of, and an echelon basis (`Echelon`,
//!   its rows in one flat arena) absorbs those rows in canonical order.
//!   Every row whose simplex leads a basis row of `δ^{k−2}` is skipped:
//!   that basis row is a cocycle whose other entries have higher ids, so
//!   by downward induction the skipped rows lie in the span of the
//!   absorbed ones (de Silva, Morozov & Vejdemo-Johansson's dualities;
//!   Bauer's Ripser). `∂_1` is the incidence matrix of the 1-skeleton,
//!   whose rank over any field is `|V| − #components`, so it is ranked
//!   by a union-find over the edge rows in ascending order; the edges it
//!   merges on are exactly the leads of `δ^0` (a Kruskal tree edge is
//!   the least edge of the cut around the component it joins), so they
//!   clear `δ^1` with no extra pass (DESIGN.md §7.1). The matrices are
//!   ultra-sparse (`k+1` entries per boundary row), and the scalar
//!   [`crate::gf2::Gf2Matrix::rank_seq`] remains the reference oracle.
//!   The `boundary_rows`, `boundary_nnz` and `ranks_computed` counters
//!   keep their meaning and values: each rank counts the rows and
//!   entries of `∂_k`, the same as its transpose's.
//! * **Clearing in the certified path** — [`reduced_betti_certified`]
//!   keeps the boundary rows, since its witnesses are `∂_k` row
//!   combinations: it records them from `∂_dim` down to `∂_1` and skips
//!   every row of `∂_k` that leads a basis row of `∂_{k+1}`, since that
//!   basis row is a cycle (Chen & Kerber's twist; DESIGN.md §11.2).
//! * **Laziness** — ranks are computed per dimension on demand, bottom
//!   up (each reduction leaves the clearing set of the next), and
//!   cached, so [`ChainComplex::connectivity_up_to`] reduces `∂_1, ∂_2,
//!   …` dimension by dimension and stops at the first non-zero Betti
//!   number (or at `k+1`), and a Betti query after a connectivity query
//!   pays only for the dimensions not yet reduced.
//! * **Skeleton reuse** — `∂_j` of the `k`-skeleton *is* `∂_j` of the
//!   parent for `j ≤ k`, so [`ChainComplex::skeleton_betti`] and
//!   [`ChainComplex::skeleton_connectivity`] answer skeleton queries from
//!   the parent's cached ranks without re-closing any faces.
//!
//! Determinism (DESIGN.md §4): the engine runs on the calling thread and
//! its ids are sorted positions, so they depend only on the simplex sets;
//! ranks are properties of the matrices, so every verdict is
//! bit-identical to the engine-free references
//! ([`crate::homology::reduced_betti_numbers_seq`] and the scalar
//! [`crate::gf2::Gf2Matrix::rank_seq`]) — proptest-pinned in
//! `tests/chain_engine.rs`.

use crate::complex::Complex;
use crate::connectivity::Connectivity;
use crate::simplex::{Vertex, View};
use ksa_obs::Counter;

/// The number of bits needed to write every value in `0..=max`.
pub(crate) fn bits(max: u64) -> u32 {
    u64::BITS - max.leading_zeros()
}

/// Numbers the `stride`-chunks of `data`, whose ids all lie below
/// `2^id_bits`: returns the sorted distinct chunks and, for every input
/// chunk, the position of its chunk in that output. The chunks are
/// numbered as packed keys ([`pack_keys`], [`number_keys`]), and by
/// [`sort_dedup_chunks`] when a chunk and its index do not fit in a
/// `u64`; `data` is dropped once the keys are built.
pub(crate) fn number_chunks(data: Vec<u32>, stride: usize, id_bits: u32) -> (Vec<u32>, Vec<u32>) {
    let Some(keys) = pack_keys(&data, stride, id_bits) else {
        return sort_dedup_chunks(&data, stride);
    };
    drop(data);
    number_keys(keys, stride, id_bits)
}

/// One `u64` sort key per `stride`-chunk of `data`: its ids, most
/// significant first and `id_bits` wide, above its input index; `None`
/// when `stride · id_bits` plus the bits of the largest index exceed 64.
/// Keys compare as their chunks do lexicographically, then by index.
fn pack_keys(data: &[u32], stride: usize, id_bits: u32) -> Option<Vec<u64>> {
    let rows = data.len() / stride;
    // Ids and indices are `u32`s, so `id_bits ≤ 32` and `idx_bits ≤ 32`:
    // every shift here and in `number_keys` stays under 64.
    let idx_bits = bits(rows.saturating_sub(1) as u64);
    if stride as u64 * u64::from(id_bits) + u64::from(idx_bits) > 64 {
        return None;
    }
    let keys = data.chunks_exact(stride).zip(0u64..);
    Some(
        keys.map(|(row, i)| (pack_row(row, id_bits) << idx_bits) | i)
            .collect(),
    )
}

/// A chunk's ids, most significant first and `id_bits` wide, in one
/// `u64`; the caller checks that `row.len() · id_bits ≤ 64`.
fn pack_row(row: &[u32], id_bits: u32) -> u64 {
    debug_assert!(row.iter().all(|&v| u64::from(v) >> id_bits == 0));
    row.iter()
        .fold(0, |acc, &v| (acc << id_bits) | u64::from(v))
}

/// Appends the `stride` ids packed in each key ([`pack_row`]) to `out`.
fn unpack_rows(keys: &[u64], stride: usize, id_bits: u32, out: &mut Vec<u32>) {
    let id_mask = (1 << id_bits) - 1;
    for &ids in keys {
        let id = |j: usize| ((ids >> (j as u32 * id_bits)) & id_mask) as u32;
        out.extend((0..stride).rev().map(id));
    }
}

/// The sorted distinct `stride`-chunks of `data`, exactly
/// `number_chunks(data, stride, id_bits).0`, for callers that only
/// deduplicate: no input chunk is numbered, so the keys carry no index
/// bits and no `id_of` vector is built. Packs while
/// `stride · id_bits ≤ 64`, and falls back to [`sort_dedup_chunks`]
/// past that.
pub(crate) fn dedup_chunks(data: Vec<u32>, stride: usize, id_bits: u32) -> Vec<u32> {
    if stride as u64 * u64::from(id_bits) > 64 {
        return sort_dedup_chunks(&data, stride).0;
    }
    let mut keys: Vec<u64> = data
        .chunks_exact(stride)
        .map(|row| pack_row(row, id_bits))
        .collect();
    drop(data);
    keys.sort_unstable();
    keys.dedup();
    let mut sorted = Vec::with_capacity(keys.len() * stride);
    unpack_rows(&keys, stride, id_bits, &mut sorted);
    sorted
}

/// Numbers the chunks behind [`pack_keys`]' output like
/// [`number_chunks`]. After the sort, equal high bits are equal chunks:
/// one in-order pass numbers every index and compacts the distinct
/// chunks' bits to the front of `keys`, and the distinct chunks are
/// decoded from there, so the chunks themselves are never read back.
fn number_keys(mut keys: Vec<u64>, stride: usize, id_bits: u32) -> (Vec<u32>, Vec<u32>) {
    let idx_bits = bits(keys.len().saturating_sub(1) as u64);
    let idx_mask = (1 << idx_bits) - 1;
    keys.sort_unstable();
    let mut id_of = vec![0u32; keys.len()];
    let mut distinct = 0;
    for i in 0..keys.len() {
        let (ids, idx) = (keys[i] >> idx_bits, keys[i] & idx_mask);
        // `distinct ≤ i`: the write never passes the key being read.
        if distinct == 0 || keys[distinct - 1] != ids {
            keys[distinct] = ids;
            distinct += 1;
        }
        id_of[idx as usize] = (distinct - 1) as u32;
    }
    let mut sorted: Vec<u32> = Vec::with_capacity(distinct * stride);
    unpack_rows(&keys[..distinct], stride, id_bits, &mut sorted);
    (sorted, id_of)
}

/// Sorts the `stride`-chunks of `data` lexicographically, keeping the
/// first of each run of equal chunks. Returns the sorted distinct chunks
/// and, for every input chunk, the position of its chunk in that output.
/// The fallback and sequential oracle of [`number_chunks`].
fn sort_dedup_chunks(data: &[u32], stride: usize) -> (Vec<u32>, Vec<u32>) {
    let chunk = |i: u32| &data[i as usize * stride..(i as usize + 1) * stride];
    let mut idx: Vec<u32> = (0..(data.len() / stride) as u32).collect();
    idx.sort_unstable_by(|&a, &b| chunk(a).cmp(chunk(b)));
    let mut sorted: Vec<u32> = Vec::with_capacity(data.len());
    let mut id_of = vec![0u32; idx.len()];
    for &i in &idx {
        if sorted.is_empty() || sorted[sorted.len() - stride..] != *chunk(i) {
            sorted.extend_from_slice(chunk(i));
        }
        id_of[i as usize] = (sorted.len() / stride - 1) as u32;
    }
    (sorted, id_of)
}

/// Sparse rows (ascending `u32` ids) stored back to back in one arena:
/// row `i` is `ids[starts[i]..starts[i + 1]]`.
#[derive(Debug, Clone)]
struct Rows {
    ids: Vec<u32>,
    starts: Vec<usize>,
}

impl Rows {
    fn new() -> Self {
        Rows {
            ids: Vec::new(),
            starts: vec![0],
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.ids[self.starts[i]..self.starts[i + 1]]
    }

    fn push(&mut self, row: &[u32]) {
        self.ids.extend_from_slice(row);
        self.starts.push(self.ids.len());
    }

    /// One owned vector per row, in order.
    fn into_vecs(self) -> Vec<Vec<u32>> {
        self.starts
            .windows(2)
            .map(|w| self.ids[w[0]..w[1]].to_vec())
            .collect()
    }
}

/// A GF(2) row-echelon basis over sparse rows (ascending `u32` column
/// ids): the rank kernel of [`ChainComplex`] for `k ≥ 2`, over the
/// coboundary rows of `δ^{k−1}`, and of the certified producer, over
/// the boundary rows of `∂_k`.
///
/// `absorb` reduces an incoming row against the basis by its
/// leading column and either inserts it (rank grows) or cancels it to
/// zero (dependent). The basis size is the rank of everything absorbed,
/// and the set of leading columns is the set of least columns of the
/// nonzero vectors in its span — both independent of absorption order,
/// though the engine always absorbs in canonical simplex order so
/// intermediate bases are reproducible too. The reduction runs in one
/// reused work row with [`xor_in_place`]; a row that joins the basis is
/// copied onto the end of the flat [`Rows`] arena.
#[derive(Debug, Clone)]
struct Echelon {
    rows: Rows,
    /// `pivot_of[col]`: index into `rows` of the basis row leading with
    /// `col`, or `u32::MAX`; sized to the column count.
    pivot_of: Vec<u32>,
    /// The row being reduced.
    work: Vec<u32>,
}

impl Echelon {
    /// An empty basis over `cols` columns.
    fn new(cols: usize) -> Self {
        Echelon {
            rows: Rows::new(),
            pivot_of: vec![u32::MAX; cols],
            work: Vec::new(),
        }
    }

    /// Copies `row` into the work row and reduces it until its leading
    /// column has no basis row (returned) or it vanishes (`None`),
    /// calling `step(p)` after each XOR of basis row `p` into it.
    fn reduce(&mut self, row: &[u32], mut step: impl FnMut(usize)) -> Option<u32> {
        self.work.clear();
        self.work.extend_from_slice(row);
        loop {
            let &lead = self.work.first()?;
            let p = self.pivot_of[lead as usize];
            if p == u32::MAX {
                return Some(lead);
            }
            xor_in_place(&mut self.work, self.rows.get(p as usize));
            step(p as usize);
        }
    }

    /// Inserts the reduced work row, which leads with `lead`.
    fn insert(&mut self, lead: u32) {
        self.pivot_of[lead as usize] = self.rows.len() as u32;
        self.rows.push(&self.work);
    }

    /// Absorbs one sparse row, whose column ids must lie below the count
    /// given to [`Echelon::new`].
    fn absorb(&mut self, row: &[u32]) {
        if let Some(lead) = self.reduce(row, |_| {}) {
            self.insert(lead);
        }
    }

    fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Whether each column leads a basis row.
    fn leads(&self) -> Vec<bool> {
        self.pivot_of.iter().map(|&p| p != u32::MAX).collect()
    }
}

/// Echelon reduction that additionally records, for every basis row,
/// the set of original row indices whose XOR reproduces it — the rank
/// witness carried by homology certificates (DESIGN.md §11). The
/// standalone checker re-derives both rank bounds from this: distinct
/// leading columns give independence (rank ≥ r), re-reducing every
/// original row the witness of `∂_{k+1}` does not exempt gives the
/// ceiling (rank ≤ r), and the recorded combinations prove each basis
/// row lies in the row space.
///
/// A row's combination is only needed if the row joins the basis, so
/// the reduction just logs which basis rows it adds; the combination is
/// XORed together from that log after the row turns out independent.
#[derive(Debug, Clone)]
struct WitnessEchelon {
    ech: Echelon,
    /// `combos[i]`: ascending original-row indices XOR-summing to basis
    /// row `i` of `ech`.
    combos: Vec<Vec<u32>>,
    /// The basis rows added to the row being reduced, in order.
    added: Vec<usize>,
    /// The combination of the row being inserted.
    combo: Vec<u32>,
}

impl WitnessEchelon {
    /// An empty basis over `cols` columns.
    fn new(cols: usize) -> Self {
        WitnessEchelon {
            ech: Echelon::new(cols),
            combos: Vec::new(),
            added: Vec::new(),
            combo: Vec::new(),
        }
    }

    /// Absorbs the `idx`-th original row, tracking its combination.
    fn absorb(&mut self, row: &[u32], idx: u32) {
        let WitnessEchelon {
            ech,
            combos,
            added,
            combo,
        } = self;
        added.clear();
        let Some(lead) = ech.reduce(row, |p| added.push(p)) else {
            return;
        };
        ech.insert(lead);
        combo.clear();
        combo.push(idx);
        for &p in added.iter() {
            xor_in_place(combo, &combos[p]);
        }
        combos.push(combo.to_vec());
    }
}

/// GF(2) row addition on ascending id lists, in place: `acc ← acc △
/// other`. `acc` grows by `other.len()` and its ids move to the tail;
/// the merge then writes from the front, never past the next unread id,
/// and the result is truncated to its length.
fn xor_in_place(acc: &mut Vec<u32>, other: &[u32]) {
    let (a, b) = (acc.len(), other.len());
    acc.resize(a + b, 0);
    acc.copy_within(0..a, b);
    let (mut r, mut j, mut w) = (b, 0, 0);
    while r < a + b && j < b {
        let (x, y) = (acc[r], other[j]);
        if x != y {
            acc[w] = x.min(y);
            w += 1;
        }
        r += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    acc.copy_within(r.., w);
    w += a + b - r;
    acc[w..w + b - j].copy_from_slice(&other[j..]);
    acc.truncate(w + b - j);
}

/// A simplicial complex flattened for homology: per-dimension simplex
/// counts, the boundary incidence rows, and lazily computed, cached
/// boundary ranks.
///
/// Build one with [`ChainComplex::from_complex`] (or
/// [`Complex::chain`]) and ask it for Betti numbers and connectivity;
/// every query over the same complex shares the incidence rows and the
/// rank cache, so e.g. a full [`ChainComplex::reduced_betti`] after a
/// [`ChainComplex::connectivity`] costs only the dimensions the
/// early-exit scan never reached.
///
/// # Examples
///
/// ```
/// use ksa_topology::chain::ChainComplex;
/// use ksa_topology::complex::Complex;
/// use ksa_topology::connectivity::Connectivity;
/// use ksa_topology::simplex::{Simplex, Vertex};
///
/// let tet = Simplex::new((0..4).map(|c| Vertex::new(c, ())).collect()).unwrap();
/// let mut sphere = ChainComplex::from_complex(&Complex::boundary_of(&tet));
/// assert_eq!(sphere.reduced_betti(), vec![0, 0, 1]);
/// assert_eq!(sphere.connectivity(), Connectivity::Exactly(1));
/// // The 1-skeleton (the K4 graph) answers from the same rows:
/// assert_eq!(sphere.skeleton_betti(1), vec![0, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct ChainComplex {
    /// `counts[k]`: the number of k-simplexes. Empty ⇔ void complex.
    counts: Vec<usize>,
    /// `rows[k]`, `k ≥ 1`: the incidence array of `∂_k` — `counts[k]`
    /// consecutive `(k+1)`-chunks, the `r`-th holding the ascending ids
    /// of the faces of the `r`-th k-simplex in lexicographic order.
    /// `rows[1]` is the edge list itself; `rows[0]` is empty.
    rows: Vec<Vec<u32>>,
    /// `ranks[k]`: cached rank of `∂_k` (`∂_0` = augmentation,
    /// `∂_{dim+1}` = 0); length `dim + 2` for a non-void complex.
    ranks: Vec<Option<usize>>,
    /// The clearing set left by the last rank reduced, `∂_j`: whether
    /// each `j`-simplex leads a basis row of `δ^{j−1}` (for `j = 1`, is
    /// an edge of the union-find forest). Ranks are reduced bottom up,
    /// so `∂_{j+1}` is the next one and consumes it; empty otherwise.
    cleared: Vec<bool>,
}

impl ChainComplex {
    /// Flattens a complex: interns its vertices (ids are positions in the
    /// sorted vertex table), then closes the interned facets top-down,
    /// emitting the boundary incidence rows on the way (see the module
    /// docs).
    pub fn from_complex<V: View>(complex: &Complex<V>) -> Self {
        let mut facets = Vec::new();
        let vertex_count = intern_facets(complex, |ids| file_facet(&mut facets, ids));
        Self::from_facet_ids(vertex_count, facets)
    }

    /// The top-down closure. `facets[k]` lists k-simplexes of the complex
    /// — at least its k-dimensional facets — as consecutive
    /// `(k+1)`-chunks of ascending vertex ids, in any order, repeats
    /// allowed. Every vertex id in `0..vertex_count` must occur.
    pub(crate) fn from_facet_ids(vertex_count: usize, mut facets: Vec<Vec<u32>>) -> Self {
        while facets.last().is_some_and(Vec::is_empty) {
            facets.pop();
        }
        let Some(dim) = facets.len().checked_sub(1) else {
            return ChainComplex {
                counts: Vec::new(),
                rows: Vec::new(),
                ranks: Vec::new(),
                cleared: Vec::new(),
            };
        };
        let _span = ksa_obs::span("chain", || "closure").arg("dim", dim as u64);
        let id_bits = bits(vertex_count.saturating_sub(1) as u64);
        let mut counts = vec![0; dim + 1];
        counts[0] = vertex_count;
        let mut rows = vec![Vec::new(); dim + 1];
        // `upper`: the sorted, distinct k-simplexes, top dimension first.
        let mut upper = dedup_chunks(std::mem::take(&mut facets[dim]), dim + 1, id_bits);
        for k in (1..=dim).rev() {
            counts[k] = upper.len() / (k + 1);
            if k == 1 {
                // Vertex ids are positions: the edges are ∂_1's rows.
                rows[1] = std::mem::take(&mut upper);
                break;
            }
            // Slot `j` of a row drops position `k − j`: dropping a later
            // position gives a lexicographically smaller face, so each
            // row's ids come out ascending. The (k−1)-facets ride behind.
            let mut faces: Vec<u32> = Vec::with_capacity(upper.len() * k + facets[k - 1].len());
            for s in upper.chunks_exact(k + 1) {
                for drop in (0..=k).rev() {
                    faces.extend_from_slice(&s[..drop]);
                    faces.extend_from_slice(&s[drop + 1..]);
                }
            }
            faces.extend_from_slice(&facets[k - 1]);
            let (lower, mut ids) = number_chunks(faces, k, id_bits);
            ids.truncate(upper.len());
            rows[k] = ids;
            upper = lower;
        }
        debug_assert!(dim > 0 || upper.len() == vertex_count);
        ksa_obs::count(Counter::FacesClosed, counts.iter().sum::<usize>() as u64);
        let mut ranks = vec![None; dim + 2];
        ranks[0] = Some(1); // augmentation on a non-void complex
        ranks[dim + 1] = Some(0);
        ChainComplex {
            counts,
            rows,
            ranks,
            cleared: Vec::new(),
        }
    }

    /// Whether the underlying complex was void.
    pub fn is_void(&self) -> bool {
        self.counts.is_empty()
    }

    /// The complex's dimension (`−1` when void).
    pub fn dim(&self) -> isize {
        self.counts.len() as isize - 1
    }

    /// Number of `k`-simplexes in the closure (0 outside `0..=dim`).
    pub fn simplex_count(&self, k: usize) -> usize {
        self.counts.get(k).copied().unwrap_or(0)
    }

    /// The sparse rows of `∂_k`, `k ≥ 1`, in canonical simplex order:
    /// chunks of the incidence array, counted as they are handed out.
    fn boundary(&self, k: usize) -> std::slice::ChunksExact<'_, u32> {
        ksa_obs::count(Counter::BoundaryRows, self.counts[k] as u64);
        ksa_obs::count(Counter::BoundaryNnz, self.rows[k].len() as u64);
        self.rows[k].chunks_exact(k + 1)
    }

    /// Reduces `∂_k`, `k ≥ 1`, whose predecessor `∂_{k−1}` (for `k ≥ 2`)
    /// was the last rank reduced: returns its rank and leaves its own
    /// clearing set in `self.cleared` for `∂_{k+1}`.
    ///
    /// `∂_1` is ranked by [`ChainComplex::edge_rank`]. For `k ≥ 2` the
    /// rank is that of the coboundary `δ^{k−1}`, the transpose: its rows
    /// are the `(k−1)`-simplexes, each listing the `k`-simplexes it is a
    /// face of, and every row whose simplex leads a basis row of
    /// `δ^{k−2}` is skipped. Such a basis row lies in the image of
    /// `δ^{k−2}`, so it is a cocycle, and every other simplex on it has a
    /// higher id; the skipped row is therefore the XOR of higher-id rows,
    /// and by downward induction every skipped row lies in the span of
    /// the absorbed ones. The leads of `δ^{k−1}`'s basis clear `∂_{k+1}`.
    fn compute_rank(&mut self, k: usize) -> usize {
        let _span = ksa_obs::span("chain", || "rank_reduce").arg("dim", k as u64);
        let cleared = std::mem::take(&mut self.cleared);
        let (rank, leads) = if k == 1 {
            self.edge_rank()
        } else {
            debug_assert_eq!(cleared.len(), self.counts[k - 1]);
            let (starts, cofaces) = self.coboundary(k);
            let mut ech = Echelon::new(self.counts[k]);
            for (t, w) in starts.windows(2).enumerate() {
                if !cleared[t] {
                    ech.absorb(&cofaces[w[0] as usize..w[1] as usize]);
                }
            }
            (ech.rank(), ech.leads())
        };
        // `∂_{dim+1}` is the fixed zero, so the top rank clears nothing.
        if k + 1 < self.counts.len() {
            self.cleared = leads;
        }
        ksa_obs::count(Counter::RanksComputed, 1);
        rank
    }

    /// The coboundary rows of `δ^{k−1}`, `k ≥ 1`, by one counting sort of
    /// `∂_k`'s incidence array: `(starts, cofaces)`, where row `t` is
    /// `cofaces[starts[t]..starts[t + 1]]`, the ascending ids of the
    /// `k`-simplexes with the `(k−1)`-simplex `t` as a face.
    fn coboundary(&self, k: usize) -> (Vec<u32>, Vec<u32>) {
        let faces = self.counts[k - 1];
        let mut starts = vec![0u32; faces + 1];
        for &t in &self.rows[k] {
            starts[t as usize + 1] += 1;
        }
        for t in 0..faces {
            starts[t + 1] += starts[t];
        }
        let mut next = starts.clone();
        let mut cofaces = vec![0u32; self.rows[k].len()];
        for (s, row) in self.boundary(k).enumerate() {
            for &t in row {
                cofaces[next[t as usize] as usize] = s as u32;
                next[t as usize] += 1;
            }
        }
        (starts, cofaces)
    }

    /// The rank of `∂_1`, `|V| − #components` of the 1-skeleton over
    /// any field, and which edges a union-find (path halving) merges on
    /// in ascending edge order. Edge rows are pairs of vertex ids, and
    /// vertex ids are `0..|V|`.
    ///
    /// The merging edges are exactly the leads of `δ^0`'s basis: an edge
    /// merging components `A` and `B` of the lower-id edges is the least
    /// edge of the cut around `A`, and there are as many of them as the
    /// rank.
    fn edge_rank(&self) -> (usize, Vec<bool>) {
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        let mut parent: Vec<u32> = (0..self.counts[0] as u32).collect();
        let mut merged = vec![false; self.counts[1]];
        let mut rank = 0;
        for (e, edge) in self.boundary(1).enumerate() {
            let (a, b) = (find(&mut parent, edge[0]), find(&mut parent, edge[1]));
            if a != b {
                parent[a as usize] = b;
                merged[e] = true;
                rank += 1;
            }
        }
        (rank, merged)
    }

    /// Reduces the rows of `∂_k` while recording the rank witness for
    /// certification, skipping every row `σ` with `cleared[σ]` (an empty
    /// `cleared` skips none).
    /// Absorption runs in canonical simplex order, so the witness is
    /// schedule-invariant.
    ///
    /// The caller clears the leading columns of the basis rows of
    /// `∂_{k+1}` (the *clearing* step of Chen & Kerber's twist). Such a
    /// basis row is a `k`-cycle, so the row of its leading simplex is
    /// the XOR of rows with higher ids; by downward induction every
    /// cleared row lies in the span of the absorbed ones, and the rank
    /// is unchanged. Only `rank ∂_k + b̃_k` rows are absorbed.
    fn compute_rank_witnessed(&self, k: usize, cleared: &[bool]) -> ksa_cert::RankWitness {
        // Same span name as the plain reduction — the trace contract
        // names `rank_reduce` as *the* rank-reduction span; the
        // `witnessed` arg distinguishes the certified producer.
        let _span = ksa_obs::span("chain", || "rank_reduce")
            .arg("dim", k as u64)
            .arg("witnessed", 1);
        let mut ech = WitnessEchelon::new(self.counts[k - 1]);
        let mut skipped = 0;
        for (i, row) in self.boundary(k).enumerate() {
            if cleared.get(i) == Some(&true) {
                skipped += 1;
            } else {
                ech.absorb(row, i as u32);
            }
        }
        ksa_obs::count(Counter::BoundaryRowsCleared, skipped);
        ksa_obs::count(Counter::RanksComputed, 1);
        ksa_cert::RankWitness {
            k: k as u32,
            rank: ech.ech.rank() as u32,
            basis: ech.ech.rows.into_vecs(),
            combo: ech.combos,
        }
    }

    /// The cached rank of `∂_k`, reducing it on first use, after every
    /// rank below it: each reduction clears the next.
    pub(crate) fn rank_boundary(&mut self, k: usize) -> usize {
        if let Some(r) = self.ranks[k] {
            return r;
        }
        if k >= 2 {
            self.rank_boundary(k - 1);
        }
        let r = self.compute_rank(k);
        self.ranks[k] = Some(r);
        r
    }

    /// The reduced Betti number `b̃_k = c_k − rank ∂_k − rank ∂_{k+1}`.
    fn betti_at(&mut self, k: usize) -> usize {
        self.simplex_count(k) - self.rank_boundary(k) - self.rank_boundary(k + 1)
    }

    /// The full reduced Z/2 Betti vector `b̃_0, …, b̃_dim` (empty for the
    /// void complex), reducing the not-yet-cached boundaries bottom up.
    pub fn reduced_betti(&mut self) -> Vec<usize> {
        if self.is_void() {
            return Vec::new();
        }
        let dim = self.counts.len() - 1;
        (0..=dim).map(|k| self.betti_at(k)).collect()
    }

    /// The homological [`Connectivity`] verdict, reducing boundaries
    /// dimension by dimension and stopping at the first non-zero Betti
    /// number.
    pub fn connectivity(&mut self) -> Connectivity {
        self.connectivity_up_to(self.dim())
    }

    /// Early-exit connectivity: decides the verdict *up to* `k`. Reduces
    /// `∂_1, ∂_2, …` lazily and returns
    ///
    /// * [`Connectivity::Empty`] for the void complex;
    /// * `Exactly(c)` with `c < min(k, dim)` — exact, agrees with the
    ///   full [`ChainComplex::connectivity`];
    /// * `AtLeast(min(k, dim))` when every reduced Betti number through
    ///   `min(k, dim)` vanishes — the reduction stopped there, so higher
    ///   homology is deliberately left unexamined (DESIGN.md §7).
    ///
    /// The cross-checks only ever need `measured ≥ predicted l` for
    /// small `l`, which is exactly the query this answers without paying
    /// for the top-dimension ranks.
    pub fn connectivity_up_to(&mut self, k: isize) -> Connectivity {
        if self.is_void() {
            return Connectivity::Empty;
        }
        // Clamp below at −1: any non-void complex is (−1)-connected, and
        // `AtLeast(c)` with `c < −1` is outside the verdict's domain.
        let cap = k.min(self.dim()).max(-1);
        for j in 0..=cap {
            if self.betti_at(j as usize) != 0 {
                // The scan decided before reaching its cap: dimensions
                // above j were never reduced.
                ksa_obs::count(Counter::ConnectivityEarlyExits, 1);
                return Connectivity::Exactly(j - 1);
            }
        }
        Connectivity::AtLeast(cap)
    }

    /// The reduced Betti vector of the `k`-skeleton, answered from the
    /// parent's rows and rank cache: `∂_j` of the skeleton *is* `∂_j`
    /// of the parent for `j ≤ k`, and the skeleton's top dimension has no
    /// `(k+1)`-simplexes, so `b̃_k = c_k − rank ∂_k`. No face re-closure,
    /// no new matrices — agrees with
    /// `reduced_betti_numbers(&complex.skeleton(k))` bit for bit.
    pub fn skeleton_betti(&mut self, k: isize) -> Vec<usize> {
        if self.is_void() || k < 0 {
            return Vec::new();
        }
        if k >= self.dim() {
            return self.reduced_betti();
        }
        let kk = k as usize;
        let mut betti: Vec<usize> = (0..kk).map(|j| self.betti_at(j)).collect();
        betti.push(self.simplex_count(kk) - self.rank_boundary(kk));
        betti
    }

    /// The connectivity verdict of the `k`-skeleton, from the parent's
    /// cached ranks (see [`ChainComplex::skeleton_betti`]). Agrees with
    /// `connectivity(&complex.skeleton(k))`.
    pub fn skeleton_connectivity(&mut self, k: isize) -> Connectivity {
        if self.is_void() || k < 0 {
            return Connectivity::Empty;
        }
        let cap = k.min(self.dim());
        for j in 0..cap {
            if self.betti_at(j as usize) != 0 {
                return Connectivity::Exactly(j - 1);
            }
        }
        // Top skeleton dimension: kernel dimension only.
        if self.simplex_count(cap as usize) - self.rank_boundary(cap as usize) != 0 {
            return Connectivity::Exactly(cap - 1);
        }
        Connectivity::AtLeast(cap)
    }
}

/// Certified reduced Betti computation: the Betti vector of `complex`
/// (identical to [`ChainComplex::reduced_betti`] — same engine, same
/// canonical absorption order) together with a [`ksa_cert::HomologyCert`]
/// whose standalone checker re-derives every rank bound from the facet
/// list alone (DESIGN.md §11). The certificate's connectivity field
/// uses the cross-check convention: first nonzero reduced Betti index
/// minus one, or the dimension when the whole table vanishes.
///
/// Returns `None` for the void complex (nothing to certify).
///
/// The vertices are interned once: the same ids make the certificate's
/// facet list and the chain complex. The witnesses are computed from
/// `∂_dim` down to `∂_1`, each dimension clearing the rows led by the
/// basis above it (DESIGN.md §11.2); every step absorbs sequentially in
/// canonical order, so the witness — and therefore the certificate — is
/// schedule-invariant.
pub fn reduced_betti_certified<V: View>(
    complex: &Complex<V>,
    label: &str,
) -> Option<(Vec<usize>, ksa_cert::HomologyCert)> {
    let _span = ksa_obs::span("cert", || "produce");
    let mut facet_ids: Vec<Vec<u32>> = Vec::with_capacity(complex.facet_count());
    let vertex_count = intern_facets(complex, |ids| facet_ids.push(ids.to_vec()));
    certified_from_facet_ids(vertex_count, facet_ids, label)
}

/// [`reduced_betti_certified`] over interned facets: `facet_ids` lists
/// the complex's facets, in facet order, as ascending ids that are
/// positions in the sorted vertex table (so every id in
/// `0..vertex_count` occurs). The list becomes the certificate's facets.
pub(crate) fn certified_from_facet_ids(
    vertex_count: usize,
    facet_ids: Vec<Vec<u32>>,
    label: &str,
) -> Option<(Vec<usize>, ksa_cert::HomologyCert)> {
    let mut facets = Vec::new();
    for ids in &facet_ids {
        file_facet(&mut facets, ids);
    }
    let mut cc = ChainComplex::from_facet_ids(vertex_count, facets);
    if cc.is_void() {
        return None;
    }
    let dim = cc.counts.len() - 1;
    let mut witnesses: Vec<ksa_cert::RankWitness> = Vec::with_capacity(dim);
    let mut cleared: Vec<bool> = Vec::new();
    for k in (1..=dim).rev() {
        let w = cc.compute_rank_witnessed(k, &cleared);
        if k > 1 {
            cleared = vec![false; cc.counts[k - 1]];
            for b in &w.basis {
                cleared[b[0] as usize] = true;
            }
        }
        witnesses.push(w);
    }
    witnesses.reverse();
    for w in &witnesses {
        cc.ranks[w.k as usize] = Some(w.rank as usize);
    }
    let betti = cc.reduced_betti();
    let connectivity = betti
        .iter()
        .position(|&b| b != 0)
        .map(|k| k as i64 - 1)
        .unwrap_or(dim as i64);
    ksa_obs::count(Counter::CertsEmitted, 1);
    let cert = ksa_cert::HomologyCert {
        label: label.to_string(),
        facets: facet_ids,
        betti: betti.iter().map(|&b| b as u64).collect(),
        connectivity,
        ranks: witnesses,
    };
    Some((betti, cert))
}

/// Interns `complex`'s vertices — ids are positions in the sorted vertex
/// table — and hands each facet's ascending id list to `emit`, in facet
/// order. Returns the vertex count.
pub(crate) fn intern_facets<V: View>(complex: &Complex<V>, mut emit: impl FnMut(&[u32])) -> usize {
    let mut verts: Vec<&Vertex<V>> = complex.facets().flat_map(|f| f.vertices()).collect();
    verts.sort_unstable();
    verts.dedup();
    let mut ids = Vec::new();
    for f in complex.facets() {
        ids.clear();
        ids.extend(
            f.vertices()
                .iter()
                .map(|v| verts.binary_search(&v).expect("facet vertex is interned") as u32),
        );
        emit(&ids);
    }
    verts.len()
}

/// Files one interned facet under its dimension in the input of
/// [`ChainComplex::from_facet_ids`].
pub(crate) fn file_facet(facets: &mut Vec<Vec<u32>>, ids: &[u32]) {
    if facets.len() < ids.len() {
        facets.resize_with(ids.len(), Vec::new);
    }
    facets[ids.len() - 1].extend_from_slice(ids);
}

/// Maps a complex straight to its chain engine — sugar for
/// [`ChainComplex::from_complex`].
impl<V: View> From<&Complex<V>> for ChainComplex {
    fn from(complex: &Complex<V>) -> Self {
        ChainComplex::from_complex(complex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homology::reduced_betti_numbers_seq;
    use crate::simplex::Simplex;

    fn simplex(colors: &[usize]) -> Simplex<u32> {
        Simplex::new(colors.iter().map(|&c| Vertex::new(c, 0u32)).collect()).unwrap()
    }

    proptest::proptest! {
        #[test]
        fn xor_in_place_is_the_symmetric_difference(
            a in proptest::collection::btree_set(0u32..48, 0..24),
            b in proptest::collection::btree_set(0u32..48, 0..24),
        ) {
            let mut acc: Vec<u32> = a.iter().copied().collect();
            let other: Vec<u32> = b.iter().copied().collect();
            xor_in_place(&mut acc, &other);
            let expect: Vec<u32> = a.symmetric_difference(&b).copied().collect();
            proptest::prop_assert_eq!(acc, expect);
        }

        #[test]
        fn packed_numbering_matches_the_index_sort(
            stride in 1usize..=4,
            id_bits in 0u32..=32,
            pool in proptest::collection::vec(proptest::prelude::any::<u32>(), 32),
            pool_size in 1usize..=8,
            picks in proptest::collection::vec(0usize..8, 1..=64),
        ) {
            // Few distinct rows, drawn many times; the ids keep the top
            // `id_bits` of each pool word, so the widest ids occur and
            // `stride · id_bits` lands on both sides of 64.
            let id = |v: u32| v.checked_shr(32 - id_bits).unwrap_or(0);
            let data: Vec<u32> = picks
                .iter()
                .flat_map(|&p| pool[(p % pool_size) * 4..][..stride].iter().map(|&v| id(v)))
                .collect();
            let width = stride as u32 * id_bits + bits(picks.len() as u64 - 1);
            proptest::prop_assert_eq!(pack_keys(&data, stride, id_bits).is_some(), width <= 64);
            let oracle = sort_dedup_chunks(&data, stride);
            proptest::prop_assert_eq!(number_chunks(data, stride, id_bits), oracle);
        }

        #[test]
        fn dedup_is_the_numbering_without_ids(
            stride in 1usize..=4,
            id_bits in 0u32..=32,
            pool in proptest::collection::vec(proptest::prelude::any::<u32>(), 32),
            pool_size in 1usize..=8,
            picks in proptest::collection::vec(0usize..8, 1..=64),
        ) {
            // As above: `stride · id_bits` lands on both sides of 64,
            // with and without the numbering's index bits.
            let id = |v: u32| v.checked_shr(32 - id_bits).unwrap_or(0);
            let data: Vec<u32> = picks
                .iter()
                .flat_map(|&p| pool[(p % pool_size) * 4..][..stride].iter().map(|&v| id(v)))
                .collect();
            let (numbered, _) = number_chunks(data.clone(), stride, id_bits);
            proptest::prop_assert_eq!(dedup_chunks(data, stride, id_bits), numbered);
        }
    }

    #[test]
    fn packed_numbering_packs_exactly_up_to_64_bits() {
        // Stride 3 of 21-bit ids is 63 bits: two rows add one index bit
        // (64, packed), three rows two (65, the index sort).
        let top = (1 << 21) - 1;
        let two = vec![top, top - 1, top - 2, 0, 1, top];
        assert!(pack_keys(&two, 3, 21).is_some());
        let numbered = (vec![0, 1, top, top, top - 1, top - 2], vec![1, 0]);
        assert_eq!(sort_dedup_chunks(&two, 3), numbered);
        assert_eq!(number_chunks(two, 3, 21), numbered);
        let three = vec![top, top - 1, top - 2, 0, 1, top, top, top - 1, top - 2];
        assert!(pack_keys(&three, 3, 21).is_none());
        assert_eq!(
            number_chunks(three.clone(), 3, 21),
            (vec![0, 1, top, top, top - 1, top - 2], vec![1, 0, 1])
        );
        // Without index bits the same rows still pack; 22-bit ids
        // (66 bits) take the index sort.
        assert_eq!(dedup_chunks(three, 3, 21), numbered.0);
        assert_eq!(dedup_chunks(vec![0, 1, 2, 0, 1, 2], 3, 22), vec![0, 1, 2]);
    }

    #[test]
    fn packed_numbering_of_one_row_and_of_one_vertex() {
        // One row: no index bits, and 64 id bits fill the key.
        let row = vec![u16::MAX as u32, 7, 0, 1];
        assert!(pack_keys(&row, 4, 16).is_some());
        assert_eq!(number_chunks(row.clone(), 4, 16), (row, vec![0]));
        // One vertex: zero-width ids, every row is `[0]`.
        assert!(pack_keys(&[0; 5], 1, 0).is_some());
        assert_eq!(number_chunks(vec![0; 5], 1, 0), (vec![0], vec![0; 5]));
        let mut facets = Vec::new();
        file_facet(&mut facets, &[0]);
        let mut point = ChainComplex::from_facet_ids(1, facets);
        assert_eq!(point.counts, vec![1]);
        assert_eq!(point.reduced_betti(), vec![0]);
    }

    #[test]
    fn closure_counts_every_face_of_a_triangle() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2]));
        let chain = ChainComplex::from_complex(&c);
        assert_eq!(chain.dim(), 2);
        assert_eq!(chain.simplex_count(0), 3);
        assert_eq!(chain.simplex_count(1), 3);
        assert_eq!(chain.simplex_count(2), 1);
        assert_eq!(chain.simplex_count(3), 0);
    }

    /// The vertex ids of simplex `r` of dimension `k`, read back down
    /// the incidence rows.
    fn vertices_of(chain: &ChainComplex, k: usize, r: u32) -> Vec<u32> {
        if k == 0 {
            return vec![r];
        }
        let row = &chain.rows[k][r as usize * (k + 1)..(r as usize + 1) * (k + 1)];
        let mut vs: Vec<u32> = row
            .iter()
            .flat_map(|&f| vertices_of(chain, k - 1, f))
            .collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Every row of `∂_k`, `k ≥ 1`, is ascending and lists exactly the
    /// faces of its simplex, slot `j` dropping vertex `k − j`.
    fn assert_incidence_rows(chain: &ChainComplex) {
        for k in 1..chain.counts.len() {
            for (r, row) in chain.rows[k].chunks_exact(k + 1).enumerate() {
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "∂_{k} row {r}: {row:?}"
                );
                let verts = vertices_of(chain, k, r as u32);
                assert_eq!(verts.len(), k + 1, "∂_{k} row {r}");
                for (j, &f) in row.iter().enumerate() {
                    let mut face = verts.clone();
                    face.remove(k - j);
                    assert_eq!(vertices_of(chain, k - 1, f), face, "∂_{k} row {r}");
                }
            }
        }
    }

    #[test]
    fn top_down_closure_emits_the_incidence_rows() {
        // Non-pure, filed out of order: a triangle, an isolated vertex,
        // then an edge disjoint from the triangle.
        let mut facets = Vec::new();
        for ids in [&[2, 4, 5][..], &[1], &[0, 3]] {
            file_facet(&mut facets, ids);
        }
        let chain = ChainComplex::from_facet_ids(6, facets);
        assert_eq!(chain.counts, vec![6, 4, 1]);
        assert_eq!(chain.rows[1], vec![0, 3, 2, 4, 2, 5, 4, 5]);
        assert_incidence_rows(&chain);

        // 65 537 vertices need 17-bit ids, so the tetrahedra (4 · 17 bits
        // plus an index bit) take the index sort, and the levels below
        // pack. The tetrahedron is filed twice, beside a triangle on its
        // apex; every other vertex is isolated.
        let apex = 1 << 16;
        let mut facets = Vec::new();
        for ids in [&[0, 1, 2, apex][..], &[3, 4, apex], &[0, 1, 2, apex]] {
            file_facet(&mut facets, ids);
        }
        for v in 5..apex {
            file_facet(&mut facets, &[v]);
        }
        assert!(pack_keys(&facets[3], 4, bits(u64::from(apex))).is_none());
        let chain = ChainComplex::from_facet_ids(apex as usize + 1, facets);
        assert_eq!(chain.counts, vec![apex as usize + 1, 9, 5, 1]);
        assert_incidence_rows(&chain);
    }

    #[test]
    fn betti_matches_the_seq_reference() {
        let cases = vec![
            Complex::of_simplex(simplex(&[0])),
            Complex::boundary_of(&simplex(&[0, 1, 2])),
            Complex::boundary_of(&simplex(&[0, 1, 2, 3])),
            Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2, 3])]),
            Complex::boundary_of(&simplex(&[0, 1, 2]))
                .union(&Complex::boundary_of(&simplex(&[0, 3, 4]))),
        ];
        for c in cases {
            let mut chain = ChainComplex::from_complex(&c);
            assert_eq!(
                chain.reduced_betti(),
                reduced_betti_numbers_seq(&c),
                "{c:?}"
            );
        }
    }

    #[test]
    fn known_betti_numbers() {
        let complex = |facets: &[[usize; 3]]| -> Complex<u32> {
            Complex::from_facets(facets.iter().map(|f| simplex(f)))
        };
        // The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
        // mod 7.
        let torus: Vec<[usize; 3]> = (0..7)
            .flat_map(|i| [[i, i + 1, i + 3], [i, i + 2, i + 3]])
            .map(|f| f.map(|v| v % 7))
            .collect();
        // The 6-vertex real projective plane, the hemi-icosahedron.
        let rp2 = [
            [0, 1, 2],
            [0, 2, 3],
            [0, 3, 4],
            [0, 4, 5],
            [0, 1, 5],
            [1, 2, 4],
            [2, 3, 5],
            [1, 3, 4],
            [2, 4, 5],
            [1, 3, 5],
        ];
        let cases = vec![
            (
                Complex::boundary_of(&simplex(&[0, 1, 2, 3, 4])),
                vec![0, 0, 0, 1],
            ),
            (complex(&torus), vec![0, 2, 1]),
            (complex(&rp2), vec![0, 1, 1]),
            // Two disjoint circles, then a circle beside a solid triangle.
            (
                Complex::boundary_of(&simplex(&[0, 1, 2]))
                    .union(&Complex::boundary_of(&simplex(&[3, 4, 5]))),
                vec![1, 2],
            ),
            (
                Complex::boundary_of(&simplex(&[0, 1, 2]))
                    .union(&Complex::of_simplex(simplex(&[3, 4, 5]))),
                vec![1, 1, 0],
            ),
        ];
        for (c, betti) in cases {
            assert_eq!(reduced_betti_numbers_seq(&c), betti, "{c:?}");
            assert_eq!(
                ChainComplex::from_complex(&c).reduced_betti(),
                betti,
                "{c:?}"
            );
            let (certified, cert) = reduced_betti_certified(&c, "known").unwrap();
            assert_eq!(certified, betti, "{c:?}");
            assert_eq!(ksa_cert::check_homology(&cert), Ok(()), "{c:?}");
        }
    }

    proptest::proptest! {
        /// Each reduction leaves as its clearing set exactly the leads of
        /// an unclearing echelon over all of `δ^{k−1}`'s rows: for `k = 1`
        /// the union-find's merging edges, above it the cleared
        /// reduction's own leads.
        #[test]
        fn clearing_sets_are_the_coboundary_leads(
            facets in proptest::collection::vec(
                proptest::collection::btree_set(0u32..7, 2..=5),
                1..=10,
            ),
        ) {
            let mut filed = Vec::new();
            for f in &facets {
                file_facet(&mut filed, &f.iter().copied().collect::<Vec<_>>());
            }
            let used: std::collections::BTreeSet<u32> = facets.iter().flatten().copied().collect();
            let renumber = |v: u32| used.range(..v).count() as u32;
            for level in &mut filed {
                for v in level.iter_mut() {
                    *v = renumber(*v);
                }
            }
            let mut chain = ChainComplex::from_facet_ids(used.len(), filed);
            let dim = chain.counts.len() - 1;
            for k in 1..dim {
                let (starts, cofaces) = chain.coboundary(k);
                let mut ech = Echelon::new(chain.counts[k]);
                for w in starts.windows(2) {
                    ech.absorb(&cofaces[w[0] as usize..w[1] as usize]);
                }
                chain.rank_boundary(k);
                proptest::prop_assert_eq!(&chain.cleared, &ech.leads(), "k = {}", k);
                proptest::prop_assert_eq!(chain.ranks[k], Some(ech.rank()), "k = {}", k);
            }
        }
    }

    #[test]
    fn certified_betti_matches_and_checks() {
        let tet = simplex(&[0, 1, 2, 3]);
        for (complex, label) in [
            (Complex::boundary_of(&tet), "sphere"),
            (Complex::of_simplex(tet.clone()), "ball"),
            (
                Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[0, 2]), simplex(&[1, 2])]),
                "circle",
            ),
            (
                Complex::from_facets(vec![simplex(&[0]), simplex(&[1]), simplex(&[2])]),
                "three-points",
            ),
        ] {
            let (betti, cert) = reduced_betti_certified(&complex, label).unwrap();
            assert_eq!(
                betti,
                ChainComplex::from_complex(&complex).reduced_betti(),
                "{label}"
            );
            assert_eq!(ksa_cert::check_homology(&cert), Ok(()), "{label}");
            // Clearing: no combo of ∂_k cites a row that leads a basis
            // row of ∂_{k+1}.
            for pair in cert.ranks.windows(2) {
                let leads: Vec<u32> = pair[1].basis.iter().map(|b| b[0]).collect();
                assert!(
                    pair[0].combo.iter().flatten().all(|r| !leads.contains(r)),
                    "{label}: ∂_{} cites a cleared row",
                    pair[0].k
                );
            }
            let wrapped = ksa_cert::Cert::Homology(cert);
            assert_eq!(
                ksa_cert::Cert::parse(&wrapped.to_text()).unwrap(),
                wrapped,
                "{label}"
            );
        }
        assert!(reduced_betti_certified(&Complex::<u32>::void(), "void").is_none());
    }

    #[test]
    fn edge_rank_is_vertices_minus_components() {
        let edges =
            |es: &[[usize; 2]]| -> Vec<Simplex<u32>> { es.iter().map(|e| simplex(e)).collect() };
        // (complex, rank ∂_1, b̃)
        let cases = vec![
            // Isolated 0-dim facets beside an edge: 3 vertices, 2 components.
            (
                Complex::from_facets(vec![simplex(&[0, 1]), simplex(&[2]), simplex(&[3])]),
                1,
                vec![2, 0],
            ),
            // Several components: a 7-vertex forest of 3 trees.
            (
                Complex::from_facets(edges(&[[0, 1], [2, 3], [4, 5], [5, 6]])),
                4,
                vec![2, 0],
            ),
            // A pure 1-complex with one cycle (a triangle with a tail).
            (
                Complex::from_facets(edges(&[[0, 1], [1, 2], [0, 2], [2, 3]])),
                3,
                vec![0, 1],
            ),
        ];
        for (c, rank, betti) in cases {
            let mut chain = ChainComplex::from_complex(&c);
            assert_eq!(chain.rank_boundary(1), rank, "{c:?}");
            assert_eq!(chain.reduced_betti(), betti, "{c:?}");
            assert_eq!(betti, reduced_betti_numbers_seq(&c), "{c:?}");
        }
        // A single vertex has no ∂_1: its rank is the fixed 0 of
        // `∂_{dim+1}`, never reduced.
        let mut point = ChainComplex::from_complex(&Complex::of_simplex(simplex(&[0])));
        assert_eq!(point.ranks, vec![Some(1), Some(0)]);
        assert_eq!(point.reduced_betti(), vec![0]);
        // Isolated points only: dimension 0, no edges either.
        let points = Complex::from_facets(vec![simplex(&[0]), simplex(&[1]), simplex(&[2])]);
        let mut chain = ChainComplex::from_complex(&points);
        assert_eq!(chain.ranks, vec![Some(1), Some(0)]);
        assert_eq!(chain.reduced_betti(), vec![2]);
    }

    #[test]
    fn void_complex() {
        let mut chain = ChainComplex::from_complex(&Complex::<u32>::void());
        assert!(chain.is_void());
        assert_eq!(chain.dim(), -1);
        assert_eq!(chain.reduced_betti(), Vec::<usize>::new());
        assert_eq!(chain.connectivity(), Connectivity::Empty);
        assert_eq!(chain.skeleton_betti(1), Vec::<usize>::new());
        assert_eq!(chain.skeleton_connectivity(1), Connectivity::Empty);
    }

    #[test]
    fn early_exit_stops_at_the_first_hole() {
        // Wedge of a circle and a 3-sphere: b̃ = [0, 1, 0, 1].
        let circle = Complex::boundary_of(&simplex(&[0, 1, 2]));
        let sphere = Complex::boundary_of(&simplex(&[2, 3, 4, 5, 6]));
        let wedge = circle.union(&sphere);
        let mut chain = ChainComplex::from_complex(&wedge);
        assert_eq!(chain.connectivity_up_to(0), Connectivity::AtLeast(0));
        assert_eq!(chain.connectivity_up_to(1), Connectivity::Exactly(0));
        // The scan stopped at b̃_1 ≠ 0: ∂_3 was never reduced.
        assert_eq!(chain.ranks[3], None);
        assert_eq!(chain.connectivity(), Connectivity::Exactly(0));
        assert_eq!(chain.reduced_betti(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn connectivity_up_to_caps_at_the_dimension() {
        let solid = Complex::of_simplex(simplex(&[0, 1, 2]));
        let mut chain = ChainComplex::from_complex(&solid);
        assert_eq!(chain.connectivity_up_to(100), Connectivity::AtLeast(2));
        assert_eq!(chain.connectivity_up_to(-1), Connectivity::AtLeast(-1));
        // Below −1 the verdict clamps: AtLeast(−2) would leave the
        // enum's domain (and read as "void" to numeric consumers).
        assert_eq!(chain.connectivity_up_to(-7), Connectivity::AtLeast(-1));
    }

    #[test]
    fn skeleton_queries_match_materialized_skeleta() {
        let c = Complex::of_simplex(simplex(&[0, 1, 2, 3]));
        let mut chain = ChainComplex::from_complex(&c);
        for k in 0..=4 {
            let sk = c.skeleton(k);
            assert_eq!(
                chain.skeleton_betti(k),
                reduced_betti_numbers_seq(&sk),
                "k = {k}"
            );
            assert_eq!(
                chain.skeleton_connectivity(k),
                crate::connectivity::connectivity(&sk),
                "k = {k}"
            );
        }
    }
}
