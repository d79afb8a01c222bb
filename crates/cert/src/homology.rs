//! GF(2) homology certificates: a reduced Betti table carried with an
//! explicit per-dimension rank witness.
//!
//! The witness makes both rank inequalities checkable without redoing
//! elimination blindly:
//!
//! - **rank ≥ r**: the certificate lists `r` basis rows with pairwise
//!   distinct leading columns (echelon shape ⇒ linearly independent)
//!   and, for each, the set of original boundary-row indices whose XOR
//!   reproduces it (⇒ each basis row really lies in the row space).
//! - **rank ≤ r**: the checker reduces the original rows of `∂_k`
//!   against the basis, and all of them must vanish — except the rows
//!   the witness of `∂_{k+1}` exempts. A basis row `B` of `∂_{k+1}` that
//!   is verified here to be a cycle (`∂_k B = 0`) exempts the row of its
//!   leading simplex: that row is the XOR of the rows of `B`'s other,
//!   higher simplexes, so by downward induction every exempt row lies in
//!   the span of the non-exempt ones. The step for `∂_k` is sound on its
//!   own: it trusts nothing of the witness above but what it checks.
//!   A producer that clears those rows (the twist of Chen & Kerber)
//!   never reduces them; a witness that reduces every row is accepted
//!   too.
//!
//! The original boundary rows themselves are **not** trusted from the
//! certificate: the checker rebuilds the face closure and the boundary
//! maps from the facet list with its own code, written against the
//! certificate format alone and independent of `ksa_topology::chain`.
//! The closure runs top-down: each distinct simplex drops one vertex at
//! a time, and each level is sorted, deduplicated and numbered here, so
//! the column ids of every `∂_k` row come out of the numbering with no
//! search and no order taken on trust. The witnesses are then verified
//! bottom-up, `∂_1` first, and each dimension's rows are freed once
//! verified.

use crate::text::{push_label, push_nums, Cursor};
use crate::{strictly_ascending, CertError};

/// Hard cap on closure size the checker will rebuild (faces across all
/// dimensions). Way above anything the experiments emit; guards the
/// offline checker against adversarial blowup.
const MAX_CLOSURE_FACES: usize = 5_000_000;

/// An echelon basis + row-combination witness for `rank ∂_k = rank`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankWitness {
    /// Boundary dimension (`k ≥ 1`; the `k = 0` augmentation rank is
    /// always 1 for a nonempty complex and carried implicitly).
    pub k: u32,
    /// The certified rank.
    pub rank: u32,
    /// `rank` sparse rows (strictly ascending column indices into the
    /// sorted `(k−1)`-simplex list) with pairwise distinct leading
    /// columns.
    pub basis: Vec<Vec<u32>>,
    /// For each basis row, the strictly ascending indices (into the
    /// sorted `k`-simplex list) of the original boundary rows whose
    /// XOR equals it.
    pub combo: Vec<Vec<u32>>,
}

/// A reduced GF(2) Betti table for the complex spanned by `facets`,
/// certified by one [`RankWitness`] per boundary dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HomologyCert {
    /// Producer-assigned origin (model / round).
    pub label: String,
    /// Facets as strictly ascending vertex lists (mixed dimensions
    /// allowed; the checker closes them downward itself).
    pub facets: Vec<Vec<u32>>,
    /// Claimed reduced Betti numbers `b̃_0 … b̃_dim`.
    pub betti: Vec<u64>,
    /// Claimed connectivity in the `rounds` convention: the largest `c`
    /// with `b̃_0 = … = b̃_c = 0` minus nothing — concretely, first
    /// nonzero Betti index − 1, or `dim` when the whole table is zero
    /// (`−2` is reserved for empty complexes, which are never emitted).
    pub connectivity: i64,
    /// One witness per `k` in `1..=dim`, in order.
    pub ranks: Vec<RankWitness>,
}

impl HomologyCert {
    pub(crate) fn to_text_body(&self, out: &mut String) {
        push_label(out, &self.label);
        out.push_str(&format!("facets {}\n", self.facets.len()));
        for f in &self.facets {
            push_nums(out, f.iter().copied());
        }
        out.push_str("betti ");
        push_nums(out, self.betti.iter().copied());
        out.push_str(&format!("connectivity {}\n", self.connectivity));
        for w in &self.ranks {
            out.push_str(&format!("rank {} {}\n", w.k, w.rank));
            for (basis, combo) in w.basis.iter().zip(&w.combo) {
                out.push_str("basis ");
                push_nums(out, basis.iter().copied());
                out.push_str("combo ");
                push_nums(out, combo.iter().copied());
            }
        }
    }

    pub(crate) fn parse_body(cur: &mut Cursor<'_>) -> Result<Self, CertError> {
        let label = cur.tagged("label")?.to_string();
        let counts: Vec<usize> = crate::text::parse_nums(cur.tagged("facets")?)
            .map_err(|tok| cur.err(format!("bad facet count `{tok}`")))?;
        let [count] = counts[..] else {
            return Err(cur.err("expected `facets <count>`"));
        };
        let mut facets = Vec::with_capacity(count);
        for _ in 0..count {
            facets.push(cur.num_line::<u32>("a facet vertex line")?);
        }
        let betti: Vec<u64> = crate::text::parse_nums(cur.tagged("betti")?)
            .map_err(|tok| cur.err(format!("bad betti number `{tok}`")))?;
        let conns: Vec<i64> = crate::text::parse_nums(cur.tagged("connectivity")?)
            .map_err(|tok| cur.err(format!("bad connectivity `{tok}`")))?;
        let [connectivity] = conns[..] else {
            return Err(cur.err("expected `connectivity <c>`"));
        };
        let mut ranks = Vec::new();
        // One `rank k r` block per remaining dimension, each followed by
        // exactly r basis/combo line pairs. Betti length fixes how many
        // boundary dimensions there are.
        let dims = betti.len().saturating_sub(1);
        for _ in 0..dims {
            let header: Vec<u64> = crate::text::parse_nums(cur.tagged("rank")?)
                .map_err(|tok| cur.err(format!("bad rank header `{tok}`")))?;
            let [k, rank] = header[..] else {
                return Err(cur.err("expected `rank <k> <rank>`"));
            };
            let mut basis = Vec::with_capacity(rank as usize);
            let mut combo = Vec::with_capacity(rank as usize);
            for _ in 0..rank {
                let b = crate::text::parse_nums(cur.tagged("basis")?)
                    .map_err(|tok| cur.err(format!("bad basis column `{tok}`")))?;
                let c = crate::text::parse_nums(cur.tagged("combo")?)
                    .map_err(|tok| cur.err(format!("bad combo index `{tok}`")))?;
                basis.push(b);
                combo.push(c);
            }
            ranks.push(RankWitness {
                k: k as u32,
                rank: rank as u32,
                basis,
                combo,
            });
        }
        Ok(HomologyCert {
            label,
            facets,
            betti,
            connectivity,
            ranks,
        })
    }
}

/// The checker's own closure of a facet list: how many simplexes each
/// dimension has, and the GF(2) boundary rows over those simplexes in
/// sorted order.
struct Closure {
    /// `counts[d]`: the number of distinct `d`-simplexes.
    counts: Vec<usize>,
    /// `rows[k]`, `k ≥ 1`: `∂_k` as one flat buffer of stride `k + 1`.
    /// Row `i` lists, ascending, the indices of the sorted `k`-simplex
    /// `i`'s facets in the sorted `(k−1)`-simplex list. `rows[0]` is
    /// empty.
    rows: Vec<Vec<u32>>,
}

/// Close `facets` downward, top dimension first, numbering each level
/// and writing the boundary rows of the level above as it goes.
///
/// Level `d` gathers stride-`(d+1)` candidates: the faces of every
/// distinct `(d+1)`-simplex, dropping one position at a time from last
/// to first, then the `d`-dimensional facets. It sorts and numbers them
/// ([`number_rows`]). A face's number is its column in `∂_{d+1}`, and
/// dropping a later position gives a lexicographically smaller face, so
/// every row comes out ascending. No facet or row order is taken from
/// the certificate: every level is sorted here.
///
/// A facet of more than 25 vertices is refused outright, and so is one
/// whose own faces alone exceed [`MAX_CLOSURE_FACES`], before any level
/// is allocated. Otherwise the distinct faces are counted level by level,
/// and the closure stops as soon as they pass the cap. The cap counts
/// distinct faces, as a set would, so duplicated facets never trip it.
/// A level holds its distinct faces and `d + 2` candidates per distinct
/// face above it, so memory follows the distinct closure, never the raw
/// subset count.
fn face_closure(facets: &[Vec<u32>]) -> Result<Closure, CertError> {
    let too_many = || {
        CertError::TooLarge(format!(
            "face closure exceeds {MAX_CLOSURE_FACES} simplexes"
        ))
    };
    for f in facets {
        if f.len() > 25 {
            return Err(CertError::TooLarge(format!(
                "facet with {} vertices (subset closure would blow up)",
                f.len()
            )));
        }
        if (1usize << f.len()) - 1 > MAX_CLOSURE_FACES {
            return Err(too_many());
        }
    }
    let dim = facets.iter().map(|f| f.len() - 1).max().unwrap_or(0);
    let mut counts = vec![0; dim + 1];
    let mut rows = vec![Vec::new(); dim + 1];
    let mut total = 0;
    // The sorted distinct (d+1)-simplexes, flat; empty at the top.
    let mut upper: Vec<u32> = Vec::new();
    for d in (0..=dim).rev() {
        let stride = d + 1;
        let own = || facets.iter().filter(|f| f.len() == stride);
        let above = std::mem::take(&mut upper);
        // Candidates are numbered by `u32` input indices.
        let candidates = above.len() / (stride + 1) * (stride + 1) + own().count();
        if u32::try_from(candidates).is_err() {
            return Err(CertError::TooLarge(format!(
                "{candidates} candidate {d}-faces exceed the u32 index range"
            )));
        }
        let mut cand = Vec::with_capacity(candidates * stride);
        for s in above.chunks_exact(stride + 1) {
            for gone in (0..=stride).rev() {
                cand.extend_from_slice(&s[..gone]);
                cand.extend_from_slice(&s[gone + 1..]);
            }
        }
        let faces_above = cand.len() / stride;
        drop(above);
        for f in own() {
            cand.extend_from_slice(f);
        }
        let (distinct, cols) = number_rows(&cand, stride, faces_above);
        drop(cand);
        counts[d] = distinct.len() / stride;
        total += counts[d];
        if total > MAX_CLOSURE_FACES {
            return Err(too_many());
        }
        if d < dim {
            rows[d + 1] = cols;
        }
        upper = distinct;
    }
    Ok(Closure { counts, rows })
}

/// Sort the stride-`stride` rows of `flat` and number the distinct ones
/// from 0 in that order. Returns the distinct rows, flat, and the
/// numbers of the first `numbered` input rows.
///
/// Rows of up to three ids sort as single `u128` words: the ids, most
/// significant first, above the row's input index. Longer rows sort as
/// indices compared through the rows.
fn number_rows(flat: &[u32], stride: usize, numbered: usize) -> (Vec<u32>, Vec<u32>) {
    let row = |i: usize| &flat[i * stride..][..stride];
    let mut distinct: Vec<u32> = Vec::new();
    let mut number = vec![0; numbered];
    let mut visit = |i: usize| {
        if distinct.is_empty() || distinct[distinct.len() - stride..] != *row(i) {
            distinct.extend_from_slice(row(i));
        }
        if let Some(n) = number.get_mut(i) {
            *n = (distinct.len() / stride - 1) as u32;
        }
    };
    if stride <= 3 {
        let mut keyed: Vec<u128> = flat
            .chunks_exact(stride)
            .enumerate()
            .map(|(i, r)| {
                r.iter().fold(0u128, |key, &v| key << 32 | u128::from(v)) << 32 | i as u128
            })
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().for_each(|x| visit(x as u32 as usize));
    } else {
        let mut order: Vec<u32> = (0..(flat.len() / stride) as u32).collect();
        order.sort_unstable_by(|&a, &b| row(a as usize).cmp(row(b as usize)));
        order.into_iter().for_each(|i| visit(i as usize));
    }
    (distinct, number)
}

/// Flip the bits of `cols` in the parity bitset.
fn xor_into(bits: &mut [u64], cols: &[u32]) {
    for &c in cols {
        bits[c as usize / 64] ^= 1 << (c % 64);
    }
}

/// Whether `list` is a nonempty, strictly ascending list of indices
/// below `bound`.
fn is_index_list(list: &[u32], bound: usize) -> bool {
    !list.is_empty() && strictly_ascending(list) && list.iter().all(|&i| (i as usize) < bound)
}

/// XOR the cited rows and `extra` into the parity bitset, then clear
/// every word any of them touched; returns whether all of those words
/// were zero, i.e. whether the XOR vanishes. Only touched words can be
/// nonzero, so the bitset is all zeros again afterwards.
fn xor_vanishes<'a>(
    bits: &mut [u64],
    cited: &[u32],
    row: impl Fn(usize) -> &'a [u32],
    extra: &[u32],
) -> bool {
    for &r in cited {
        xor_into(bits, row(r as usize));
    }
    xor_into(bits, extra);
    let mut zero = true;
    for &c in cited.iter().flat_map(|&r| row(r as usize)).chain(extra) {
        let word = &mut bits[c as usize / 64];
        zero &= *word == 0;
        *word = 0;
    }
    zero
}

/// Verify one [`RankWitness`] for `∂_k` against independently rebuilt
/// rows (`rows` flat with stride `k + 1`, over `ncols` columns), given
/// the witness for `∂_{k+1}` when there is one (its basis rows exempt
/// rows of `∂_k` from the rank-ceiling reduction; see the module docs).
///
/// Linear in the nonzeros it touches: `lead_of[c]` names the basis row
/// whose leading column is `c` (`u32::MAX` when none), and one reusable
/// parity bitset of `ncols` bits accumulates every XOR, returning to all
/// zeros after each accepted combo and cycle and each vanishing row.
fn verify_witness(
    w: &RankWitness,
    above: Option<&RankWitness>,
    rows: &[u32],
    ncols: usize,
) -> Result<(), CertError> {
    let k = w.k;
    let stride = k as usize + 1;
    let nrows = rows.len() / stride;
    let row = |r: usize| &rows[r * stride..(r + 1) * stride];
    if w.basis.len() != w.rank as usize || w.combo.len() != w.rank as usize {
        return Err(CertError::Reject(format!(
            "rank witness for ∂_{k} claims rank {} but carries {} basis / {} combo rows",
            w.rank,
            w.basis.len(),
            w.combo.len()
        )));
    }
    let mut bits = vec![0u64; ncols.div_ceil(64)];
    // Each basis row: well-formed, reproduced by its combo, leading
    // columns pairwise distinct (echelon shape ⇒ independence).
    let mut lead_of = vec![u32::MAX; ncols];
    for (i, (basis, combo)) in w.basis.iter().zip(&w.combo).enumerate() {
        if !is_index_list(basis, ncols) {
            return Err(CertError::Reject(format!(
                "∂_{k} basis row {i} is not a nonempty ascending column list below {ncols}"
            )));
        }
        if !is_index_list(combo, nrows) {
            return Err(CertError::Reject(format!(
                "∂_{k} combo {i} is not a nonempty ascending row-index list below {nrows}"
            )));
        }
        // The cited rows XOR the basis row is zero iff they are equal.
        if !xor_vanishes(&mut bits, combo, row, basis) {
            return Err(CertError::Reject(format!(
                "∂_{k} basis row {i} is not the XOR of its cited boundary rows"
            )));
        }
        let lead = &mut lead_of[basis[0] as usize];
        if *lead != u32::MAX {
            return Err(CertError::Reject(format!(
                "∂_{k} basis rows share leading column {} (not echelon)",
                basis[0]
            )));
        }
        *lead = i as u32;
    }
    // Each basis row of ∂_{k+1} is a list of k-simplexes (rows of ∂_k);
    // once it is shown to be a cycle, its leading row is exempt.
    let mut exempt = vec![false; nrows];
    for (i, cycle) in above.map_or(&[][..], |a| &a.basis[..]).iter().enumerate() {
        if !is_index_list(cycle, nrows) {
            return Err(CertError::Reject(format!(
                "∂_{} basis row {i} is not a nonempty ascending column list below {nrows}",
                k + 1
            )));
        }
        if !xor_vanishes(&mut bits, cycle, row, &[]) {
            return Err(CertError::Reject(format!(
                "∂_{} basis row {i} is not a cycle: its ∂_{k} rows do not XOR to zero",
                k + 1
            )));
        }
        exempt[cycle[0] as usize] = true;
    }
    // Every other original row must reduce to zero against the basis,
    // which bounds the rank from above by the witnessed value. A basis
    // row only has columns at or after its leading one, so each step
    // clears the lowest set bit and sets only higher ones: the scan for
    // the next leading column never moves back, and it stops at the
    // highest word any XOR reached.
    for ri in (0..nrows).filter(|&ri| !exempt[ri]) {
        let r = row(ri);
        xor_into(&mut bits, r);
        let mut word = r[0] as usize / 64;
        let mut top = r[stride - 1] as usize / 64;
        while word <= top {
            if bits[word] == 0 {
                word += 1;
                continue;
            }
            let lead = word * 64 + bits[word].trailing_zeros() as usize;
            let bi = lead_of[lead];
            if bi == u32::MAX {
                return Err(CertError::Reject(format!(
                    "∂_{k} row {ri} does not reduce to zero against the basis \
                     (leading column {lead} uncovered): rank is higher than claimed"
                )));
            }
            let b = &w.basis[bi as usize];
            xor_into(&mut bits, b);
            top = top.max(b[b.len() - 1] as usize / 64);
        }
    }
    Ok(())
}

/// Standalone checker for [`HomologyCert`].
///
/// Rebuilds the face closure and boundary maps from the facet list,
/// verifies every rank witness (independence + row-space membership +
/// reduction of every row the witness above does not exempt by a
/// verified cycle), then recomputes the reduced Betti table
/// `b̃_k = c_k − rank ∂_k − rank ∂_{k+1}` (with the augmentation rank
/// `rank ∂_0 = 1`) and the connectivity, and compares both against the
/// certificate's claims.
///
/// # Errors
///
/// [`CertError::Reject`] with the refuting reason; [`CertError::TooLarge`]
/// if the closure exceeds the checker's replay cap.
pub fn check_homology(cert: &HomologyCert) -> Result<(), CertError> {
    let _span = ksa_obs::span("cert", || "check");
    ksa_obs::count(ksa_obs::Counter::CertsChecked, 1);
    if cert.facets.is_empty() {
        return Err(CertError::Reject("certificate has no facets".into()));
    }
    for (i, f) in cert.facets.iter().enumerate() {
        if f.is_empty() || !strictly_ascending(f) {
            return Err(CertError::Reject(format!(
                "facet {i} is not a strictly ascending nonempty vertex list"
            )));
        }
    }
    let Closure { counts, mut rows } = face_closure(&cert.facets)?;
    let dim = counts.len() - 1;
    if cert.betti.len() != dim + 1 {
        return Err(CertError::Reject(format!(
            "betti table has {} entries for a {dim}-dimensional complex",
            cert.betti.len()
        )));
    }
    if cert.ranks.len() != dim {
        return Err(CertError::Reject(format!(
            "expected one rank witness per dimension 1..={dim}, found {}",
            cert.ranks.len()
        )));
    }
    for (i, w) in cert.ranks.iter().enumerate() {
        if w.k as usize != i + 1 {
            return Err(CertError::Reject(format!(
                "rank witness {i} is for ∂_{} but ∂_{} was expected",
                w.k,
                i + 1
            )));
        }
    }
    // rank ∂_0 (augmentation) = 1, rank ∂_{dim+1} = 0.
    let mut rank = vec![0u64; dim + 2];
    rank[0] = 1;
    for (i, w) in cert.ranks.iter().enumerate() {
        let k = i + 1;
        let rows_k = std::mem::take(&mut rows[k]);
        verify_witness(w, cert.ranks.get(k), &rows_k, counts[k - 1])?;
        rank[k] = w.rank as u64;
    }
    for k in 0..=dim {
        let c_k = counts[k] as u64;
        let expect = c_k
            .checked_sub(rank[k] + rank[k + 1])
            .ok_or_else(|| CertError::Reject(format!("ranks exceed chain dimension at k = {k}")))?;
        if cert.betti[k] != expect {
            return Err(CertError::Reject(format!(
                "claimed b̃_{k} = {} but certified ranks give {expect}",
                cert.betti[k]
            )));
        }
    }
    let conn = connectivity_from_betti(&cert.betti, dim);
    if cert.connectivity != conn {
        return Err(CertError::Reject(format!(
            "claimed connectivity {} but the betti table gives {conn}",
            cert.connectivity
        )));
    }
    Ok(())
}

/// Connectivity in the `rounds` convention (first nonzero reduced Betti
/// index − 1; `dim` when the table vanishes entirely).
pub(crate) fn connectivity_from_betti(betti: &[u64], dim: usize) -> i64 {
    betti
        .iter()
        .position(|&b| b != 0)
        .map(|k| k as i64 - 1)
        .unwrap_or(dim as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The oracle for [`face_closure`]: every nonempty subset of every
    /// facet, sorted and deduplicated per dimension, with each boundary
    /// face found by binary search.
    mod subset_oracle {
        /// `closure[d]`: the sorted distinct `d`-simplexes, flat with
        /// stride `d + 1`.
        pub fn closure(facets: &[Vec<u32>]) -> Vec<Vec<u32>> {
            let dim = facets.iter().map(|f| f.len() - 1).max().unwrap_or(0);
            let mut by_dim: Vec<Vec<u32>> = vec![Vec::new(); dim + 1];
            for f in facets {
                for mask in 1u32..(1u32 << f.len()) {
                    let d = mask.count_ones() as usize - 1;
                    by_dim[d].extend(
                        f.iter()
                            .enumerate()
                            .filter(|&(i, _)| (mask >> i) & 1 == 1)
                            .map(|(_, &v)| v),
                    );
                }
            }
            for (d, flat) in by_dim.iter_mut().enumerate() {
                let mut rows: Vec<&[u32]> = flat.chunks_exact(d + 1).collect();
                rows.sort_unstable();
                rows.dedup();
                *flat = rows.concat();
            }
            by_dim
        }

        /// `∂_k` over the sorted simplexes, flat with stride `k + 1`.
        pub fn boundary_rows(closure: &[Vec<u32>], k: usize) -> Vec<u32> {
            let lower: Vec<&[u32]> = closure[k - 1].chunks_exact(k).collect();
            let mut rows = Vec::new();
            for s in closure[k].chunks_exact(k + 1) {
                for drop in (0..=k).rev() {
                    let face: Vec<u32> = s[..drop].iter().chain(&s[drop + 1..]).copied().collect();
                    let col = lower
                        .binary_search(&&face[..])
                        .expect("closure contains every face");
                    rows.push(col as u32);
                }
            }
            rows
        }
    }

    /// Facets drawn from a pool of sparse vertex ids, small and near
    /// `u32::MAX − 1`: each mask picks a nonempty subset of the pool.
    fn facets_from(pool: &[u32], masks: &[u32], repeats: &[usize]) -> Vec<Vec<u32>> {
        let mut facets: Vec<Vec<u32>> = masks
            .iter()
            .map(|&m| {
                let f: Vec<u32> = (0..pool.len())
                    .filter(|&i| (m >> i) & 1 == 1)
                    .map(|i| pool[i])
                    .collect();
                if f.is_empty() {
                    vec![pool[m as usize % pool.len()]]
                } else {
                    f
                }
            })
            .collect();
        for &r in repeats {
            facets.push(facets[r % facets.len()].clone());
        }
        facets
    }

    proptest! {
        #[test]
        fn top_down_closure_matches_the_subset_oracle(
            small in proptest::collection::btree_set(0u32..16, 0..5),
            high in proptest::collection::btree_set(u32::MAX - 8..u32::MAX, 0..4),
            wide in proptest::collection::btree_set(0u32..u32::MAX, 1..4),
            masks in proptest::collection::vec(0u32..(1 << 10), 1..12),
            repeats in proptest::collection::vec(0usize..12, 0..6),
        ) {
            let mut pool: Vec<u32> = small.into_iter().chain(high).chain(wide).collect();
            pool.sort_unstable();
            pool.dedup();
            let facets = facets_from(&pool, &masks, &repeats);
            let oracle = subset_oracle::closure(&facets);
            let closure = face_closure(&facets).unwrap();
            let counts: Vec<usize> = oracle
                .iter()
                .enumerate()
                .map(|(d, flat)| flat.len() / (d + 1))
                .collect();
            prop_assert_eq!(&closure.counts, &counts);
            prop_assert!(closure.rows[0].is_empty());
            for k in 1..oracle.len() {
                prop_assert_eq!(&closure.rows[k], &subset_oracle::boundary_rows(&oracle, k));
            }
        }
    }

    #[test]
    fn a_23_vertex_facet_is_refused_before_closing() {
        // 2^23 − 1 ≈ 8.4 M faces: over the cap on its own, so the
        // closure refuses it up front instead of building any level.
        let facets = vec![vec![0, 1], (0..23).collect()];
        assert_eq!(
            face_closure(&facets).err(),
            Some(CertError::TooLarge(format!(
                "face closure exceeds {MAX_CLOSURE_FACES} simplexes"
            )))
        );
    }

    /// Hollow triangle: b̃ = (0, 1), rank ∂_1 = 2.
    fn circle() -> HomologyCert {
        HomologyCert {
            label: "circle".into(),
            facets: vec![vec![0, 1], vec![0, 2], vec![1, 2]],
            betti: vec![0, 1],
            connectivity: 0,
            ranks: vec![RankWitness {
                k: 1,
                rank: 2,
                // Rows of ∂_1 (edges sorted [01],[02],[12] over vertices
                // 0,1,2): [0,1], [0,2], [1,2].
                basis: vec![vec![0, 1], vec![1, 2]],
                combo: vec![vec![0], vec![2]],
            }],
        }
    }

    #[test]
    fn accepts_circle() {
        assert_eq!(check_homology(&circle()), Ok(()));
    }

    #[test]
    fn rejects_rank_off_by_one() {
        let mut cert = circle();
        cert.ranks[0].rank = 1;
        cert.ranks[0].basis.pop();
        cert.ranks[0].combo.pop();
        // Rank 1 can't reduce all three rows to zero.
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn rejects_wrong_betti_or_connectivity() {
        let mut cert = circle();
        cert.betti = vec![0, 0];
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
        let mut cert = circle();
        cert.connectivity = 1;
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn rejects_fabricated_basis_row() {
        let mut cert = circle();
        // [0, 2] is in the row space, but not the XOR of rows {0}.
        cert.ranks[0].basis[1] = vec![0, 2];
        cert.ranks[0].combo[1] = vec![0];
        assert!(matches!(check_homology(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn filled_triangle_is_a_disk() {
        // Solid triangle: contractible, b̃ = (0, 0, 0).
        let cert = HomologyCert {
            label: "disk".into(),
            facets: vec![vec![0, 1, 2]],
            betti: vec![0, 0, 0],
            connectivity: 2,
            ranks: vec![
                RankWitness {
                    k: 1,
                    rank: 2,
                    basis: vec![vec![0, 1], vec![1, 2]],
                    combo: vec![vec![0], vec![2]],
                },
                RankWitness {
                    k: 2,
                    rank: 1,
                    basis: vec![vec![0, 1, 2]],
                    combo: vec![vec![0]],
                },
            ],
        };
        assert_eq!(check_homology(&cert), Ok(()));
    }
}
