//! Adversarial integration tests: every checker must reject a mutated
//! certificate (ISSUE: ≥ 1 rejection test per cert kind), and each
//! reject path is paired with the accept path it perturbs, so a checker
//! that rejects everything cannot pass either. All mutations go through
//! the public textual surface where possible — the same bytes
//! `cert-check` consumes.

use ksa_cert::{
    check_homology, check_shelling, check_solvability, Cert, CertError, HomologyCert, RankWitness,
    ShellingCert, ShellingVerdict, SolvVerdict, SolvabilityCert,
};

/// The 4-facet path graph (as a 1-dimensional complex): shellable in
/// index order, and order-sensitive enough that prefix permutations
/// break the step condition.
fn path_cert() -> ShellingCert {
    ShellingCert {
        label: "path-4".into(),
        facets: vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]],
        verdict: ShellingVerdict::Order(vec![0, 1, 2, 3]),
    }
}

/// The circle (empty triangle): b̃ = (0, 1), connectivity 0, with the
/// full GF(2) witness for rank ∂₁ = 2.
fn circle_cert() -> HomologyCert {
    HomologyCert {
        label: "circle".into(),
        facets: vec![vec![0, 1], vec![0, 2], vec![1, 2]],
        betti: vec![0, 1],
        connectivity: 0,
        ranks: vec![RankWitness {
            k: 1,
            rank: 2,
            basis: vec![vec![0, 1], vec![1, 2]],
            combo: vec![vec![0], vec![2]],
        }],
    }
}

/// Binary consensus on 2 processes over the complete graph: decide the
/// minimum heard value.
fn consensus_cert() -> SolvabilityCert {
    SolvabilityCert {
        label: "consensus".into(),
        n: 2,
        k: 1,
        value_max: 1,
        graphs: vec![vec![vec![0, 1], vec![0, 1]]],
        verdict: SolvVerdict::Map(vec![
            (vec![(0, 0), (1, 0)], 0),
            (vec![(0, 0), (1, 1)], 0),
            (vec![(0, 1), (1, 0)], 0),
            (vec![(0, 1), (1, 1)], 1),
        ]),
    }
}

/// A 70-vertex path as a 1-dimensional complex: contractible, and its
/// ∂₁ rows `[i, i+1]` are already an echelon basis. The 70 columns span
/// two 64-bit words, so a column in the second word can differ from
/// every row that a combo cites.
fn long_path_cert() -> HomologyCert {
    const N: u32 = 70;
    HomologyCert {
        label: "path-70".into(),
        facets: (0..N - 1).map(|i| vec![i, i + 1]).collect(),
        betti: vec![0, 0],
        connectivity: 1,
        ranks: vec![RankWitness {
            k: 1,
            rank: N - 1,
            basis: (0..N - 1).map(|i| vec![i, i + 1]).collect(),
            combo: (0..N - 1).map(|i| vec![i]).collect(),
        }],
    }
}

/// The full simplex on `m` vertices, given as `copies` copies of its one
/// facet: contractible, with the witness rank ∂_k = C(m−1, k) made of the
/// boundary rows of the k-simplexes containing vertex `m − 1` (their
/// leading columns, the simplex minus that vertex, are distinct).
fn full_simplex_cert(m: u32, copies: usize) -> HomologyCert {
    // The sorted d-simplexes, per d, as the checker orders them.
    let mut faces: Vec<Vec<Vec<u32>>> = vec![Vec::new(); m as usize];
    for mask in 1u32..(1 << m) {
        let face: Vec<u32> = (0..m).filter(|&v| (mask >> v) & 1 == 1).collect();
        faces[face.len() - 1].push(face);
    }
    for list in &mut faces {
        list.sort();
    }
    let ranks = (1..m as usize)
        .map(|k| {
            let (mut basis, mut combo) = (Vec::new(), Vec::new());
            for (t, s) in faces[k].iter().enumerate() {
                if s.last() != Some(&(m - 1)) {
                    continue;
                }
                let mut row: Vec<u32> = (0..s.len())
                    .map(|drop| {
                        let mut face = s.clone();
                        face.remove(drop);
                        faces[k - 1].binary_search(&face).unwrap() as u32
                    })
                    .collect();
                row.sort_unstable();
                basis.push(row);
                combo.push(vec![t as u32]);
            }
            RankWitness {
                k: k as u32,
                rank: basis.len() as u32,
                basis,
                combo,
            }
        })
        .collect();
    HomologyCert {
        label: format!("simplex-{m} x{copies}"),
        facets: vec![(0..m).collect(); copies],
        betti: vec![0; m as usize],
        connectivity: i64::from(m) - 1,
        ranks,
    }
}

/// The hollow tetrahedron (a 2-sphere): b̃ = (0, 0, 1), connectivity 1,
/// with the given `∂_1` witness and the full echelon witness of
/// `∂_2` (rank 3; the fourth triangle row reduces to zero).
///
/// Edges sorted: 01 02 03 12 13 23 (ids 0..6); triangles sorted:
/// 012 013 023 123, whose `∂_2` rows are [0,1,3], [0,2,4], [1,2,5],
/// [3,4,5]. The `∂_2` basis rows lead with edges 0, 1 and 3.
fn sphere_cert(d1_basis: Vec<Vec<u32>>, d1_combo: Vec<Vec<u32>>) -> HomologyCert {
    HomologyCert {
        label: "sphere".into(),
        facets: vec![vec![0, 1, 2], vec![0, 1, 3], vec![0, 2, 3], vec![1, 2, 3]],
        betti: vec![0, 0, 1],
        connectivity: 1,
        ranks: vec![
            RankWitness {
                k: 1,
                rank: d1_basis.len() as u32,
                basis: d1_basis,
                combo: d1_combo,
            },
            RankWitness {
                k: 2,
                rank: 3,
                basis: vec![vec![0, 1, 3], vec![1, 2, 3, 4], vec![3, 4, 5]],
                combo: vec![vec![0], vec![0, 1], vec![0, 1, 2]],
            },
        ],
    }
}

/// The sphere with a *cleared* `∂_1` witness: the edge rows 0, 1 and 3
/// lead the `∂_2` basis cycles, so only edges 03, 13 and 23 (rows 2, 4
/// and 5) are absorbed.
fn sphere_cleared_cert() -> HomologyCert {
    sphere_cert(
        vec![vec![0, 3], vec![1, 3], vec![2, 3]],
        vec![vec![2], vec![4], vec![5]],
    )
}

fn rejected(result: Result<(), CertError>) -> bool {
    matches!(result, Err(CertError::Reject(_)))
}

/// Rejected, and for the reason that names `needle`.
fn rejected_for(result: Result<(), CertError>, needle: &str) -> bool {
    matches!(result, Err(CertError::Reject(msg)) if msg.contains(needle))
}

#[test]
fn shelling_accepts_then_rejects_permuted_prefix() {
    let good = path_cert();
    assert_eq!(check_shelling(&good), Ok(()));
    // Permute the prefix so a later facet arrives before its neighbor:
    // [1,2] ∩ ([2,3] ∪ …) at position where the union misses vertex 1.
    let mut bad = good.clone();
    bad.verdict = ShellingVerdict::Order(vec![0, 2, 1, 3]);
    assert!(rejected(check_shelling(&bad)), "permuted prefix must fail");
    // A non-permutation (duplicate index) is rejected structurally.
    let mut dup = good.clone();
    dup.verdict = ShellingVerdict::Order(vec![0, 0, 2, 3]);
    assert!(rejected(check_shelling(&dup)));
    // A false exhaustion claim on the same (shellable) facets is
    // refuted by the checker's own brute force.
    let mut lie = good;
    lie.verdict = ShellingVerdict::Exhausted { states: 7 };
    assert!(rejected(check_shelling(&lie)));
}

#[test]
fn homology_accepts_then_rejects_rank_off_by_one() {
    let good = circle_cert();
    assert_eq!(check_homology(&good), Ok(()));
    // Claim rank 1 with a single basis row: the reduction test finds
    // an original row that does not vanish against the basis.
    let mut bad = good.clone();
    bad.ranks[0] = RankWitness {
        k: 1,
        rank: 1,
        basis: vec![vec![0, 1]],
        combo: vec![vec![0]],
    };
    // Make the Betti/connectivity arithmetic agree with the lie, so
    // only the witness verification itself can catch it.
    bad.betti = vec![1, 2];
    bad.connectivity = -1;
    assert!(rejected(check_homology(&bad)), "rank off by one must fail");
    // Lie about the Betti table while keeping the witness honest.
    let mut betti_lie = good.clone();
    betti_lie.betti = vec![1, 1];
    assert!(rejected(check_homology(&betti_lie)));
    // Lie about connectivity only.
    let mut conn_lie = good;
    conn_lie.connectivity = 1;
    assert!(rejected(check_homology(&conn_lie)));
}

#[test]
fn homology_rejects_basis_column_at_ncols() {
    // ncols is the vertex count (3 for the circle, 70 for the path), the
    // first column past the leading-column index.
    let good = circle_cert();
    assert_eq!(check_homology(&good), Ok(()));
    let mut bad = good;
    bad.ranks[0].basis[1] = vec![1, 3];
    assert!(rejected_for(check_homology(&bad), "column list below 3"));
    let good = long_path_cert();
    assert_eq!(check_homology(&good), Ok(()));
    let mut bad = good;
    bad.ranks[0].basis[68] = vec![68, 70];
    assert!(rejected_for(check_homology(&bad), "column list below 70"));
}

#[test]
fn homology_rejects_shared_leading_column() {
    let good = circle_cert();
    assert_eq!(check_homology(&good), Ok(()));
    // Rows 0 and 1 ([0,1] and [0,2]) are each honest combos, but both
    // lead with column 0: not echelon, so not proven independent.
    let mut bad = good;
    bad.ranks[0].basis = vec![vec![0, 1], vec![0, 2]];
    bad.ranks[0].combo = vec![vec![0], vec![1]];
    assert!(rejected_for(check_homology(&bad), "share leading column 0"));
}

#[test]
fn homology_rejects_basis_column_no_cited_row_touches() {
    let good = long_path_cert();
    assert_eq!(check_homology(&good), Ok(()));
    // Row 0 is [0, 1]; column 69 lies in the second bitset word, which
    // no cited row reaches.
    let mut bad = good;
    bad.ranks[0].basis[0] = vec![0, 1, 69];
    assert!(rejected_for(
        check_homology(&bad),
        "basis row 0 is not the XOR"
    ));
    // The same extra column inside the cited row's word.
    let mut bad = circle_cert();
    bad.ranks[0].basis[0] = vec![0, 1, 2];
    assert!(rejected_for(
        check_homology(&bad),
        "basis row 0 is not the XOR"
    ));
}

#[test]
fn homology_rejects_combo_index_at_row_count() {
    let good = circle_cert();
    assert_eq!(check_homology(&good), Ok(()));
    let mut bad = good;
    bad.ranks[0].combo[1] = vec![3];
    assert!(rejected_for(check_homology(&bad), "row-index list below 3"));
}

#[test]
fn homology_rejects_empty_basis_row() {
    let good = long_path_cert();
    assert_eq!(check_homology(&good), Ok(()));
    let mut bad = good;
    bad.ranks[0].basis[0].clear();
    assert!(rejected_for(
        check_homology(&bad),
        "basis row 0 is not a nonempty"
    ));
}

#[test]
fn homology_accepts_cleared_and_full_reduction_witnesses() {
    // Cleared: the ∂_1 rows the ∂_2 basis leads with were never reduced.
    assert_eq!(check_homology(&sphere_cleared_cert()), Ok(()));
    // Full reduction of every ∂_1 row, in edge order.
    let full = sphere_cert(
        vec![vec![0, 1], vec![1, 2], vec![2, 3]],
        vec![vec![0], vec![0, 1], vec![1, 2]],
    );
    assert_eq!(check_homology(&full), Ok(()));
    // The full-reduction fixtures are accepted unchanged.
    assert_eq!(check_homology(&circle_cert()), Ok(()));
    for m in 2..=6 {
        assert_eq!(check_homology(&full_simplex_cert(m, 1)), Ok(()), "m = {m}");
    }
}

#[test]
fn homology_rejects_non_cycle_exemptions() {
    // Under-claim rank ∂_1 = 2: against the basis [0,3], [1,3] the edge
    // rows 0, 2 and 4 vanish, but rows 1, 3 and 5 ([0,2], [1,2], [2,3])
    // are left with leading column 2 uncovered.
    let mut bad = sphere_cert(vec![vec![0, 3], vec![1, 3]], vec![vec![2], vec![4]]);
    bad.betti = vec![1, 1, 1];
    bad.connectivity = -1;
    assert!(rejected_for(
        check_homology(&bad),
        "leading column 2 uncovered"
    ));
    // Forge the ∂_2 basis so that its rows lead with exactly those
    // three edges. Single edges are not cycles, so they exempt nothing;
    // the Betti arithmetic (ranks 2 and 3) agrees with the lie.
    bad.ranks[1].basis = vec![vec![1], vec![3], vec![5]];
    assert!(rejected_for(
        check_homology(&bad),
        "∂_2 basis row 0 is not a cycle"
    ));
    // One forged row among honest cycles is caught all the same.
    let mut bad = sphere_cleared_cert();
    bad.ranks[1].basis[2] = vec![3, 4];
    assert!(rejected_for(
        check_homology(&bad),
        "∂_2 basis row 2 is not a cycle"
    ));
    // The exempting rows are range-checked before they index ∂_1.
    let mut bad = sphere_cleared_cert();
    bad.ranks[1].basis[2] = vec![3, 4, 6];
    assert!(rejected_for(
        check_homology(&bad),
        "∂_2 basis row 2 is not a nonempty ascending column list below 6"
    ));
    let mut bad = sphere_cleared_cert();
    bad.ranks[1].basis[1] = vec![3, 2, 1, 4];
    assert!(rejected_for(
        check_homology(&bad),
        "∂_2 basis row 1 is not a nonempty ascending column list below 6"
    ));
}

#[test]
fn homology_closure_rejects_a_26_vertex_facet() {
    assert_eq!(check_homology(&full_simplex_cert(4, 1)), Ok(()));
    let mut bad = full_simplex_cert(4, 1);
    bad.facets.push((0..26).collect());
    assert!(matches!(
        check_homology(&bad),
        Err(CertError::TooLarge(msg)) if msg.contains("26 vertices")
    ));
}

#[test]
fn homology_closure_cap_counts_distinct_faces() {
    // The checker's closure cap (faces across all dimensions).
    const MAX_CLOSURE_FACES: usize = 5_000_000;
    let once = full_simplex_cert(10, 1);
    assert_eq!(check_homology(&once), Ok(()));
    // Enough copies that the raw subset count passes the cap, while the
    // distinct closure stays at 1023 faces.
    let copies = MAX_CLOSURE_FACES / 1023 + 1;
    assert!(copies * 1023 > MAX_CLOSURE_FACES);
    assert_eq!(check_homology(&full_simplex_cert(10, copies)), Ok(()));
}

#[test]
fn solvability_accepts_then_rejects_flipped_decision() {
    let good = consensus_cert();
    assert_eq!(check_solvability(&good), Ok(()));
    // Flip one decided value to something nobody holds in that view.
    let mut bad = good.clone();
    let SolvVerdict::Map(entries) = &mut bad.verdict else {
        unreachable!()
    };
    entries[0].1 = 1; // view {p0=0, p1=0} deciding 1: validity violation
    assert!(
        rejected(check_solvability(&bad)),
        "flipped decision must fail"
    );
    // Drop an entry: replay hits an uncovered view.
    let mut missing = good.clone();
    let SolvVerdict::Map(entries) = &mut missing.verdict else {
        unreachable!()
    };
    entries.remove(2);
    assert!(rejected(check_solvability(&missing)));
    // An exhaustion attestation at k ≥ n is impossible on its face.
    let mut absurd = good;
    absurd.k = 2;
    absurd.verdict = SolvVerdict::Exhausted {
        nodes: 5,
        symmetry_order: 2,
    };
    assert!(rejected(check_solvability(&absurd)));
}

#[test]
fn textual_mutations_are_rejected_end_to_end() {
    // Round-trip each kind through text, then corrupt the bytes the way
    // a broken (or malicious) producer would.
    for cert in [
        Cert::Shelling(path_cert()),
        Cert::Homology(circle_cert()),
        Cert::Solvability(consensus_cert()),
    ] {
        let text = cert.to_text();
        // The pristine text parses and checks.
        Cert::parse(&text).unwrap().check().unwrap();
        // Truncation (drop the final `done` sentinel and last line).
        let truncated: String = {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.truncate(lines.len().saturating_sub(2));
            lines.join("\n")
        };
        assert!(
            Cert::parse(&truncated).is_err(),
            "truncated {} cert must not parse",
            cert.kind()
        );
        // Header tampering: an unknown kind is a parse error.
        let bad_header = text.replacen(cert.kind(), "nonsense", 1);
        assert!(Cert::parse(&bad_header).is_err());
    }
    // A numeric field corrupted in place: bump the claimed rank inside
    // the homology text (parse survives, the checker must not).
    let text = Cert::Homology(circle_cert()).to_text();
    let tampered = text.replacen("rank 1 2", "rank 1 3", 1);
    assert_ne!(text, tampered, "fixture text changed; update the tamper");
    // A stricter parser may refuse outright (rank > rows); if it
    // parses, the checker must reject.
    if let Ok(cert) = Cert::parse(&tampered) {
        assert!(cert.check().is_err(), "tampered rank must be rejected");
    }
}
