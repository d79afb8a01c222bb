//! Property-based tests for the graph substrate.
//!
//! These check the structural laws the paper's proofs rely on — monotonicity
//! under edge addition, permutation invariance, Lemma 6.2's inclusion, and
//! the orderings among the combinatorial numbers — on randomly generated
//! graphs rather than hand-picked families.

use ksa_graphs::covering::{covering_number, covering_profile};
use ksa_graphs::digraph::Digraph;
use ksa_graphs::dist_domination::{
    distributed_domination_number, distributed_domination_number_exact,
};
use ksa_graphs::domination::{domination_number, greedy_dominating_set, minimum_dominating_set};
use ksa_graphs::equal_domination::{
    equal_domination_number, equal_domination_number_brute, equal_domination_number_of_set,
};
use ksa_graphs::perm::{all_permutations, Permutation};
use ksa_graphs::proc_set::ProcSet;
use ksa_graphs::product::{dissemination, power, product};
use ksa_graphs::sequences::covering_sequence;
use proptest::prelude::*;

/// The branch-and-bound minimum dominating set as it was searched before
/// the search ran on one thread: candidates by decreasing out-degree, the
/// take/skip tree expanded to a frontier four levels deep (pre-order,
/// take first), each frontier subtree searched from the greedy incumbent,
/// and the first strictly better subtree result kept.
fn frontier_split_dominating_set(g: &Digraph) -> ProcSet {
    struct Search<'a> {
        g: &'a Digraph,
        order: Vec<usize>,
        full: ProcSet,
        max_out: usize,
    }
    impl Search<'_> {
        fn can_take(&self, idx: usize, covered: ProcSet) -> bool {
            !self
                .g
                .out_set(self.order[idx])
                .difference(covered)
                .is_empty()
        }
        fn can_skip(&self, idx: usize, covered: ProcSet) -> bool {
            let rest = self.order[idx + 1..]
                .iter()
                .fold(covered, |acc, &v| acc.union(self.g.out_set(v)));
            self.full.is_subset(rest)
        }
        fn take(&self, idx: usize, chosen: ProcSet, covered: ProcSet) -> (ProcSet, ProcSet) {
            let u = self.order[idx];
            (chosen.with(u), covered.union(self.g.out_set(u)))
        }
        fn rec(&self, idx: usize, chosen: ProcSet, covered: ProcSet, best: &mut (ProcSet, usize)) {
            if covered == self.full {
                if chosen.len() < best.1 {
                    *best = (chosen, chosen.len());
                }
                return;
            }
            if idx >= self.order.len() {
                return;
            }
            let uncovered = self.full.difference(covered).len();
            if chosen.len() + uncovered.div_ceil(self.max_out) >= best.1 {
                return;
            }
            if self.can_take(idx, covered) {
                let (c, cov) = self.take(idx, chosen, covered);
                self.rec(idx + 1, c, cov, best);
            }
            if self.can_skip(idx, covered) {
                self.rec(idx + 1, chosen, covered, best);
            }
        }
    }
    let n = g.n();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| std::cmp::Reverse(g.out_set(u).len()));
    let search = Search {
        g,
        max_out: g.out_set(order[0]).len(),
        order,
        full: ProcSet::full(n),
    };
    let greedy = greedy_dominating_set(g);
    let mut frontier = Vec::new();
    let mut stack = vec![(0usize, ProcSet::empty(), ProcSet::empty())];
    while let Some((idx, chosen, covered)) = stack.pop() {
        if covered == search.full || idx >= n || idx >= 4 {
            frontier.push((idx, chosen, covered));
            continue;
        }
        if search.can_skip(idx, covered) {
            stack.push((idx + 1, chosen, covered));
        }
        if search.can_take(idx, covered) {
            let (c, cov) = search.take(idx, chosen, covered);
            stack.push((idx + 1, c, cov));
        }
    }
    let mut best = (greedy.set, greedy.size);
    for (idx, chosen, covered) in frontier {
        let mut sub = (greedy.set, greedy.size);
        search.rec(idx, chosen, covered, &mut sub);
        if sub.1 < best.1 {
            best = sub;
        }
    }
    best.0
}

/// Strategy: a digraph on `n` processes with each proper edge present with
/// the sampled density.
fn digraph(n: usize) -> impl Strategy<Value = Digraph> {
    let bits = n * n;
    prop::collection::vec(any::<bool>(), bits).prop_map(move |edges| {
        let mut g = Digraph::empty(n).expect("valid n");
        for u in 0..n {
            for v in 0..n {
                if u != v && edges[u * n + v] {
                    g.add_edge(u, v).expect("in range");
                }
            }
        }
        g
    })
}

/// Strategy: a digraph on `n` processes with each proper edge present
/// with probability 1/5, sparse enough that several processes are needed
/// to dominate and the greedy set is often not minimum.
fn sparse_digraph(n: usize) -> impl Strategy<Value = Digraph> {
    prop::collection::vec(0u8..5, n * n).prop_map(move |draws| {
        let mut g = Digraph::empty(n).expect("valid n");
        for u in 0..n {
            for v in 0..n {
                if u != v && draws[u * n + v] == 0 {
                    g.add_edge(u, v).expect("in range");
                }
            }
        }
        g
    })
}

fn small_digraph() -> impl Strategy<Value = Digraph> {
    (2usize..=6).prop_flat_map(digraph)
}

fn permutation(n: usize) -> impl Strategy<Value = Permutation> {
    Just(()).prop_perturb(move |_, mut rng| {
        let mut map: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            map.swap(i, j);
        }
        Permutation::new(map).expect("shuffle is a bijection")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gamma_le_gamma_eq(g in small_digraph()) {
        prop_assert!(domination_number(&g) <= equal_domination_number(&g));
    }

    #[test]
    fn gamma_eq_closed_form_matches_definition(g in small_digraph()) {
        prop_assert_eq!(
            equal_domination_number(&g),
            equal_domination_number_brute(&g)
        );
    }

    /// The exact search returns the same witness as the search it
    /// replaced, which split the take/skip tree four levels deep into
    /// subtrees searched from the greedy incumbent and kept the first
    /// strictly better subtree result in pre-order.
    #[test]
    fn minimum_dominating_set_witness_matches_the_frontier_split_search(
        g in (5usize..=9).prop_flat_map(sparse_digraph),
    ) {
        prop_assert_eq!(minimum_dominating_set(&g).set, frontier_split_dominating_set(&g));
    }

    #[test]
    fn minimum_dominating_set_is_dominating_and_minimum(g in small_digraph()) {
        let w = minimum_dominating_set(&g);
        prop_assert!(g.dominates(w.set));
        // No smaller subset dominates.
        let n = g.n();
        if w.size > 1 {
            for p in ProcSet::full(n).k_subsets(w.size - 1) {
                prop_assert!(!g.dominates(p));
            }
        }
    }

    #[test]
    fn greedy_at_least_exact(g in small_digraph()) {
        let greedy = greedy_dominating_set(&g);
        prop_assert!(g.dominates(greedy.set));
        prop_assert!(greedy.size >= domination_number(&g));
    }

    #[test]
    fn covering_profile_monotone(g in small_digraph()) {
        let prof = covering_profile(&g);
        for w in prof.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // cov_i ≥ i (self-loops) and cov_n = n.
        for (idx, &c) in prof.iter().enumerate() {
            prop_assert!(c > idx);
        }
        prop_assert_eq!(prof[g.n() - 1], g.n());
    }

    #[test]
    fn numbers_monotone_under_edge_addition(g in digraph(5), u in 0usize..5, v in 0usize..5) {
        prop_assume!(u != v);
        let mut big = g.clone();
        big.add_edge(u, v).expect("in range");
        prop_assert!(domination_number(&big) <= domination_number(&g));
        prop_assert!(equal_domination_number(&big) <= equal_domination_number(&g));
        for i in 1..=5 {
            prop_assert!(
                covering_number(&big, i).unwrap() >= covering_number(&g, i).unwrap()
            );
        }
    }

    #[test]
    fn numbers_invariant_under_permutation(g in digraph(5), p in permutation(5)) {
        let h = p.apply_graph(&g).expect("sizes match");
        prop_assert_eq!(domination_number(&h), domination_number(&g));
        prop_assert_eq!(equal_domination_number(&h), equal_domination_number(&g));
        for i in 1..=5 {
            prop_assert_eq!(
                covering_number(&h, i).unwrap(),
                covering_number(&g, i).unwrap()
            );
        }
    }

    #[test]
    fn product_associative(a in digraph(5), b in digraph(5), c in digraph(5)) {
        let left = product(&product(&a, &b).unwrap(), &c).unwrap();
        let right = product(&a, &product(&b, &c).unwrap()).unwrap();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn product_contains_both_factors(a in digraph(5), b in digraph(5)) {
        let p = product(&a, &b).unwrap();
        prop_assert!(p.contains_graph(&a).unwrap());
        prop_assert!(p.contains_graph(&b).unwrap());
    }

    #[test]
    fn product_monotone(a in digraph(4), b in digraph(4), extra in digraph(4)) {
        // a ⊆ a∪extra ⇒ a⊗b ⊆ (a∪extra)⊗b (monotonicity in each factor).
        let bigger = a.union(&extra).unwrap();
        let small = product(&a, &b).unwrap();
        let large = product(&bigger, &b).unwrap();
        prop_assert!(large.contains_graph(&small).unwrap());
    }

    #[test]
    fn lemma_6_2_inclusion(g in digraph(4), h in digraph(4), gp in digraph(4), hp in digraph(4)) {
        // ↑G ⊗ ↑H ⊆ ↑(G ⊗ H): any supersets G' ⊇ G, H' ⊇ H have
        // G' ⊗ H' ⊇ G ⊗ H.
        let g_sup = g.union(&gp).unwrap();
        let h_sup = h.union(&hp).unwrap();
        let base = product(&g, &h).unwrap();
        let lifted = product(&g_sup, &h_sup).unwrap();
        prop_assert!(lifted.contains_graph(&base).unwrap());
    }

    #[test]
    fn power_stabilizes_at_transitive_closure(g in digraph(5)) {
        // g^n = g^(n+1): by n rounds every path has been contracted.
        let gn = power(&g, 5).unwrap();
        let gn1 = power(&g, 6).unwrap();
        prop_assert_eq!(gn, gn1);
    }

    #[test]
    fn dissemination_equals_product_rows(g in digraph(5), h in digraph(5)) {
        let prod = product(&g, &h).unwrap();
        for p in 0..5 {
            prop_assert_eq!(
                dissemination(&[g.clone(), h.clone()], ProcSet::singleton(p)).unwrap(),
                prod.out_set(p)
            );
        }
    }

    #[test]
    fn covering_sequence_nondecreasing_and_consistent(g in small_digraph(), i in 1usize..=4) {
        prop_assume!(i <= g.n());
        let seq = covering_sequence(&g, i).unwrap();
        for w in seq.values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        match seq.reaches_n_at {
            Some(at) => {
                prop_assert_eq!(seq.values.len(), at);
                prop_assert_eq!(*seq.values.last().unwrap(), g.n());
            }
            None => prop_assert!(*seq.values.last().unwrap() < g.n()),
        }
    }

    #[test]
    fn dist_domination_faithful_equals_gamma_eq(g in digraph(4), h in digraph(4)) {
        let set = vec![g, h];
        prop_assert_eq!(
            distributed_domination_number(&set).unwrap(),
            equal_domination_number_of_set(&set).unwrap()
        );
    }

    #[test]
    fn dist_domination_exact_at_most_faithful(g in digraph(4), h in digraph(4)) {
        let set = vec![g, h];
        prop_assert!(
            distributed_domination_number_exact(&set).unwrap()
                <= distributed_domination_number(&set).unwrap()
        );
    }

    #[test]
    fn symmetric_closure_contains_all_relabelings(g in digraph(4)) {
        let sym = ksa_graphs::perm::symmetric_closure(std::slice::from_ref(&g)).unwrap();
        for p in all_permutations(4) {
            let img = p.apply_graph(&g).unwrap();
            prop_assert!(sym.contains(&img));
        }
    }

    // --- orbit-key laws (load-bearing for the solvability symmetry
    // breaking, DESIGN.md §10: the no-good table keys partial
    // assignments by canonical forms, so canonical_form must be a
    // genuine orbit invariant and Sym a genuine closure operator). ---

    #[test]
    fn canonical_form_is_orbit_invariant(g in digraph(4), p in permutation(4)) {
        // σ(g) is in g's orbit, so both must canonicalize identically.
        let img = p.apply_graph(&g).unwrap();
        prop_assert_eq!(
            ksa_graphs::perm::canonical_form(&g),
            ksa_graphs::perm::canonical_form(&img)
        );
    }

    #[test]
    fn canonical_form_is_idempotent_and_minimal(g in digraph(4)) {
        let c = ksa_graphs::perm::canonical_form(&g);
        prop_assert_eq!(ksa_graphs::perm::canonical_form(&c), c.clone());
        prop_assert!(c <= g, "the canonical form is the orbit minimum");
    }

    #[test]
    fn symmetric_closure_is_idempotent(gs in prop::collection::vec(digraph(4), 1..=3)) {
        let once = ksa_graphs::perm::symmetric_closure(&gs).unwrap();
        let twice = ksa_graphs::perm::symmetric_closure(&once).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn stabilizing_permutations_form_a_group(gs in prop::collection::vec(digraph(4), 1..=3)) {
        let stab = ksa_graphs::perm::stabilizing_permutations(&gs).unwrap();
        prop_assert!(stab.contains(&Permutation::identity(4)));
        for a in &stab {
            prop_assert!(stab.contains(&a.inverse()));
            for b in &stab {
                prop_assert!(stab.contains(&a.compose(b)));
            }
        }
        // Every member genuinely stabilizes the set.
        let set: std::collections::BTreeSet<_> = gs.iter().cloned().collect();
        for a in &stab {
            let img: std::collections::BTreeSet<_> =
                set.iter().map(|g| a.apply_graph(g).unwrap()).collect();
            prop_assert_eq!(&img, &set);
        }
    }

    #[test]
    fn symmetric_closure_stabilized_by_everything(gs in prop::collection::vec(digraph(4), 1..=2)) {
        // Sym(S) is permutation-closed, so its stabilizer is all of S_n.
        let sym = ksa_graphs::perm::symmetric_closure(&gs).unwrap();
        let stab = ksa_graphs::perm::stabilizing_permutations(&sym).unwrap();
        prop_assert_eq!(stab.len(), 24);
    }
}
