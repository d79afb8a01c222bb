//! Directed communication graphs with mandatory self-loops.
//!
//! A [`Digraph`] on `n` processes is the paper's communication graph for one
//! round: an edge `u → v` means process `v` hears from process `u` in that
//! round (Def 2.1). Following §3.1 ("we assume self-loop"), every process
//! always hears from itself, and this invariant is enforced by every
//! constructor and mutator of this type.

use crate::error::GraphError;
use crate::proc_set::{ProcId, ProcSet, MAX_PROCS};
use std::fmt;

/// A directed graph on `Π = {p0, …, p(n-1)}` with all self-loops.
///
/// The adjacency is stored row-wise as out-neighbor bitsets: `out[u]` is the
/// set of processes that hear from `u`. All self-loops are present in every
/// `Digraph` (the type's core invariant).
///
/// # Examples
///
/// ```
/// use ksa_graphs::Digraph;
///
/// // p0 → p1 plus the mandatory self-loops.
/// let g = Digraph::from_edges(3, &[(0, 1)]).unwrap();
/// assert!(g.has_edge(0, 1));
/// assert!(g.has_edge(2, 2)); // self-loop, always present
/// assert!(!g.has_edge(1, 0));
/// assert_eq!(g.out_set(0).len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digraph {
    n: usize,
    /// `out[u]` = bitset of v such that (u, v) ∈ E. Bit `u` is always set.
    out: Vec<u64>,
}

impl Digraph {
    /// The graph with only the mandatory self-loops ("silent round" for
    /// everyone except oneself).
    ///
    /// # Errors
    ///
    /// [`GraphError::EmptyProcessSet`] if `n == 0`,
    /// [`GraphError::TooManyProcesses`] if `n > MAX_PROCS`.
    pub fn empty(n: usize) -> Result<Self, GraphError> {
        Self::check_n(n)?;
        Ok(Digraph {
            n,
            out: (0..n).map(|u| 1u64 << u).collect(),
        })
    }

    /// The complete graph (clique): everybody hears from everybody.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Digraph::empty`].
    pub fn complete(n: usize) -> Result<Self, GraphError> {
        Self::check_n(n)?;
        let full = ProcSet::full(n).bits();
        Ok(Digraph {
            n,
            out: vec![full; n],
        })
    }

    /// Builds a graph from an edge list; self-loops are added automatically.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Digraph::empty`], plus
    /// [`GraphError::ProcessOutOfRange`] for any endpoint `≥ n`.
    pub fn from_edges(n: usize, edges: &[(ProcId, ProcId)]) -> Result<Self, GraphError> {
        let mut g = Self::empty(n)?;
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Builds a graph directly from out-neighbor bitsets; self-loops are
    /// added automatically.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Digraph::empty`], plus
    /// [`GraphError::ProcessOutOfRange`] if any row mentions a process `≥ n`.
    pub fn from_out_rows(rows: Vec<ProcSet>) -> Result<Self, GraphError> {
        let n = rows.len();
        Self::check_n(n)?;
        for row in &rows {
            row.check_universe(n)?;
        }
        Ok(Digraph {
            n,
            out: rows
                .into_iter()
                .enumerate()
                .map(|(u, row)| row.bits() | (1u64 << u))
                .collect(),
        })
    }

    fn check_n(n: usize) -> Result<(), GraphError> {
        if n == 0 {
            Err(GraphError::EmptyProcessSet)
        } else if n > MAX_PROCS {
            Err(GraphError::TooManyProcesses { requested: n })
        } else {
            Ok(())
        }
    }

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full process set `Π`.
    #[inline]
    pub fn procs(&self) -> ProcSet {
        ProcSet::full(self.n)
    }

    /// Whether the edge `u → v` is present.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n` or `v >= n`.
    #[inline]
    pub fn has_edge(&self, u: ProcId, v: ProcId) -> bool {
        assert!(u < self.n && v < self.n);
        (self.out[u] >> v) & 1 == 1
    }

    /// Adds the edge `u → v`.
    ///
    /// # Errors
    ///
    /// [`GraphError::ProcessOutOfRange`] if an endpoint is `≥ n`.
    pub fn add_edge(&mut self, u: ProcId, v: ProcId) -> Result<(), GraphError> {
        if u >= self.n {
            return Err(GraphError::ProcessOutOfRange { proc: u, n: self.n });
        }
        if v >= self.n {
            return Err(GraphError::ProcessOutOfRange { proc: v, n: self.n });
        }
        self.out[u] |= 1u64 << v;
        Ok(())
    }

    /// Out-neighborhood `Out(u)`: the processes hearing from `u`
    /// (including `u` itself).
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[inline]
    pub fn out_set(&self, u: ProcId) -> ProcSet {
        assert!(u < self.n);
        ProcSet::from_bits(self.out[u])
    }

    /// In-neighborhood `In(v)`: the processes `v` hears from
    /// (including `v` itself). Computed in `O(n)`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn in_set(&self, v: ProcId) -> ProcSet {
        assert!(v < self.n);
        let mut s = 0u64;
        for u in 0..self.n {
            s |= ((self.out[u] >> v) & 1) << u;
        }
        ProcSet::from_bits(s)
    }

    /// `Out(P) = ⋃_{p ∈ P} Out(p)` — the set of processes hearing from at
    /// least one member of `P`. This is the quantity inside every
    /// covering/domination definition of the paper.
    pub fn out_union(&self, p: ProcSet) -> ProcSet {
        let mut s = 0u64;
        for u in p.iter() {
            assert!(u < self.n);
            s |= self.out[u];
        }
        ProcSet::from_bits(s)
    }

    /// Whether `P` dominates the graph: `Out(P) = Π` (Def 3.1).
    pub fn dominates(&self, p: ProcSet) -> bool {
        self.out_union(p) == self.procs()
    }

    /// Total number of edges, self-loops included.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Number of non-loop edges.
    pub fn proper_edge_count(&self) -> usize {
        self.edge_count() - self.n
    }

    /// Iterates over all edges `(u, v)`, self-loops included.
    pub fn edges(&self) -> impl Iterator<Item = (ProcId, ProcId)> + '_ {
        (0..self.n).flat_map(move |u| self.out_set(u).iter().map(move |v| (u, v)))
    }

    /// Iterates over non-loop edges.
    pub fn proper_edges(&self) -> impl Iterator<Item = (ProcId, ProcId)> + '_ {
        self.edges().filter(|&(u, v)| u != v)
    }

    /// Whether `self` contains every edge of `other` (`E(self) ⊇ E(other)`),
    /// i.e. `self ∈ ↑other` when the sizes match (Def 2.3).
    ///
    /// # Errors
    ///
    /// [`GraphError::MismatchedSizes`] if the graphs have different `n`.
    pub fn contains_graph(&self, other: &Digraph) -> Result<bool, GraphError> {
        if self.n != other.n {
            return Err(GraphError::MismatchedSizes {
                left: self.n,
                right: other.n,
            });
        }
        Ok(self
            .out
            .iter()
            .zip(&other.out)
            .all(|(&mine, &theirs)| theirs & !mine == 0))
    }

    /// Edge-wise union of two graphs on the same process set.
    ///
    /// # Errors
    ///
    /// [`GraphError::MismatchedSizes`] if the graphs have different `n`.
    pub fn union(&self, other: &Digraph) -> Result<Digraph, GraphError> {
        if self.n != other.n {
            return Err(GraphError::MismatchedSizes {
                left: self.n,
                right: other.n,
            });
        }
        Ok(Digraph {
            n: self.n,
            out: self
                .out
                .iter()
                .zip(&other.out)
                .map(|(&a, &b)| a | b)
                .collect(),
        })
    }

    /// Edge-wise intersection of two graphs on the same process set.
    /// Self-loops survive by the invariant.
    ///
    /// # Errors
    ///
    /// [`GraphError::MismatchedSizes`] if the graphs have different `n`.
    pub fn intersection(&self, other: &Digraph) -> Result<Digraph, GraphError> {
        if self.n != other.n {
            return Err(GraphError::MismatchedSizes {
                left: self.n,
                right: other.n,
            });
        }
        Ok(Digraph {
            n: self.n,
            out: self
                .out
                .iter()
                .zip(&other.out)
                .map(|(&a, &b)| a & b)
                .collect(),
        })
    }

    /// Whether the graph is the complete graph.
    pub fn is_complete(&self) -> bool {
        let full = ProcSet::full(self.n).bits();
        self.out.iter().all(|&r| r == full)
    }

    /// Minimum in-degree (self-loop included). Drives the closed form of
    /// `γ_eq` (see [`equal_domination`](crate::equal_domination)).
    pub fn min_in_degree(&self) -> usize {
        (0..self.n).map(|v| self.in_set(v).len()).min().unwrap_or(0)
    }

    /// A compact canonical byte encoding (n, then rows); used as a hash key
    /// when deduplicating large graph sets.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(1 + 8 * self.n);
        v.push(self.n as u8);
        for &row in &self.out {
            v.extend_from_slice(&row.to_le_bytes());
        }
        v
    }
}

// Debug and Display share one rendering.
macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "Digraph(n={}; ", self.n)?;
            let mut first = true;
            for (u, v) in self.proper_edges() {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "p{u}→p{v}")?;
                first = false;
            }
            if first {
                write!(f, "loops only")?;
            }
            write!(f, ")")
        }
    };
}

impl fmt::Debug for Digraph {
    fmt_impl!();
}

impl fmt::Display for Digraph {
    fmt_impl!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_only_loops() {
        let g = Digraph::empty(4).unwrap();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.proper_edge_count(), 0);
        for u in 0..4 {
            assert!(g.has_edge(u, u));
            assert_eq!(g.out_set(u), ProcSet::singleton(u));
            assert_eq!(g.in_set(u), ProcSet::singleton(u));
        }
    }

    #[test]
    fn complete_graph() {
        let g = Digraph::complete(3).unwrap();
        assert!(g.is_complete());
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.in_set(1), ProcSet::full(3));
        assert!(g.dominates(ProcSet::singleton(0)));
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(Digraph::empty(0), Err(GraphError::EmptyProcessSet));
        assert_eq!(
            Digraph::empty(65),
            Err(GraphError::TooManyProcesses { requested: 65 })
        );
        assert_eq!(
            Digraph::from_edges(2, &[(0, 5)]),
            Err(GraphError::ProcessOutOfRange { proc: 5, n: 2 })
        );
    }

    #[test]
    fn from_edges_and_accessors() {
        let g = Digraph::from_edges(3, &[(0, 1), (2, 0)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 0));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.out_set(0), ProcSet::from_iter([0usize, 1]));
        assert_eq!(g.in_set(0), ProcSet::from_iter([0usize, 2]));
        assert_eq!(g.in_set(1), ProcSet::from_iter([0usize, 1]));
        assert_eq!(g.proper_edge_count(), 2);
    }

    #[test]
    fn from_out_rows_adds_loops() {
        let g =
            Digraph::from_out_rows(vec![ProcSet::from_iter([1usize]), ProcSet::empty()]).unwrap();
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(1, 1));
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn out_union_and_domination() {
        // p0 → p1, p2 isolated.
        let g = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(
            g.out_union(ProcSet::from_iter([0usize])),
            ProcSet::from_iter([0usize, 1])
        );
        assert!(!g.dominates(ProcSet::from_iter([0usize])));
        assert!(g.dominates(ProcSet::from_iter([0usize, 2])));
        assert_eq!(g.out_union(ProcSet::empty()), ProcSet::empty());
    }

    #[test]
    fn contains_graph_is_closure_membership() {
        let small = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let big = Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert!(big.contains_graph(&small).unwrap());
        assert!(!small.contains_graph(&big).unwrap());
        assert!(small.contains_graph(&small).unwrap());
        let other = Digraph::empty(4).unwrap();
        assert_eq!(
            small.contains_graph(&other),
            Err(GraphError::MismatchedSizes { left: 3, right: 4 })
        );
    }

    #[test]
    fn union_intersection() {
        let a = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let b = Digraph::from_edges(3, &[(1, 2)]).unwrap();
        let u = a.union(&b).unwrap();
        assert!(u.has_edge(0, 1) && u.has_edge(1, 2));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, Digraph::empty(3).unwrap());
    }

    #[test]
    fn edges_iteration() {
        let g = Digraph::from_edges(2, &[(0, 1)]).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all, vec![(0, 0), (0, 1), (1, 1)]);
        let proper: Vec<_> = g.proper_edges().collect();
        assert_eq!(proper, vec![(0, 1)]);
    }

    #[test]
    fn min_in_degree_star() {
        // Broadcast star centred at 0: centre hears only itself.
        let mut g = Digraph::empty(4).unwrap();
        for v in 0..4 {
            g.add_edge(0, v).unwrap();
        }
        assert_eq!(g.min_in_degree(), 1);
        assert_eq!(Digraph::complete(4).unwrap().min_in_degree(), 4);
    }

    #[test]
    fn encode_distinguishes_graphs() {
        let a = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let b = Digraph::from_edges(3, &[(1, 0)]).unwrap();
        assert_ne!(a.encode(), b.encode());
        assert_eq!(a.encode(), a.clone().encode());
    }

    #[test]
    fn display_nonempty() {
        let g = Digraph::empty(2).unwrap();
        assert!(format!("{g}").contains("loops only"));
        let h = Digraph::from_edges(2, &[(0, 1)]).unwrap();
        assert!(format!("{h}").contains("p0→p1"));
    }
}
