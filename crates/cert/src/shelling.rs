//! Shellability certificates (§4.4, Figure 4 of the paper).
//!
//! The checker re-implements the shelling step condition from scratch
//! over sorted `u32` slices — it shares no code with
//! `ksa_topology::shelling`, whose simplex types and memoized search
//! produce the certificates.

use crate::text::{push_label, push_nums, Cursor};
use crate::{strictly_ascending, CertError};

/// Above this facet count, a negative verdict is carried as an
/// attestation instead of being brute-forced (8! = 40320 orders).
pub const BRUTE_FORCE_MAX_FACETS: usize = 8;

/// The claim a [`ShellingCert`] makes about its facet list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShellingVerdict {
    /// The complex is shellable; the payload is a shelling order given
    /// as a permutation of facet indices. Fully re-checked.
    Order(Vec<u32>),
    /// The search proved no shelling order exists after exploring
    /// `states` dead facet subsets. Refuted by brute force up to
    /// [`BRUTE_FORCE_MAX_FACETS`] facets, attested above that.
    Exhausted {
        /// Dead used-sets recorded by the producing search (a function
        /// of the facet list; attestation data, not replayed).
        states: u64,
    },
}

/// A shellability verdict for a pure complex, carried with the facet
/// list itself (vertices interned to `u32` by the producer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShellingCert {
    /// Producer-assigned origin (figure / model / round).
    pub label: String,
    /// Facets as strictly ascending vertex lists, all the same length.
    pub facets: Vec<Vec<u32>>,
    /// The certified claim.
    pub verdict: ShellingVerdict,
}

impl ShellingCert {
    pub(crate) fn to_text_body(&self, out: &mut String) {
        push_label(out, &self.label);
        out.push_str(&format!("facets {}\n", self.facets.len()));
        for f in &self.facets {
            push_nums(out, f.iter().copied());
        }
        match &self.verdict {
            ShellingVerdict::Order(order) => {
                out.push_str("order ");
                push_nums(out, order.iter().copied());
            }
            ShellingVerdict::Exhausted { states } => {
                out.push_str(&format!("exhausted {states}\n"));
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
        let line = cur.next("`order ...` or `exhausted <states>`")?;
        let verdict = if let Some(rest) = line.strip_prefix("order") {
            let order = crate::text::parse_nums(rest)
                .map_err(|tok| cur.err(format!("bad order index `{tok}`")))?;
            ShellingVerdict::Order(order)
        } else if let Some(rest) = line.strip_prefix("exhausted") {
            let nums: Vec<u64> = crate::text::parse_nums(rest)
                .map_err(|tok| cur.err(format!("bad state count `{tok}`")))?;
            let [states] = nums[..] else {
                return Err(cur.err("expected `exhausted <states>`"));
            };
            ShellingVerdict::Exhausted { states }
        } else {
            return Err(cur.err(format!(
                "expected `order ...` or `exhausted <states>`, found `{line}`"
            )));
        };
        Ok(ShellingCert {
            label,
            facets,
            verdict,
        })
    }
}

/// Sorted-slice intersection.
fn inter(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Whether sorted `a` ⊆ sorted `b`.
fn subset(a: &[u32], b: &[u32]) -> bool {
    inter(a, b).len() == a.len()
}

/// The shelling step condition, re-derived from the paper (§4.4): the
/// intersection of `facets[order[t]]` with the union of the earlier
/// facets must be non-void and pure of dimension `d − 1`, i.e. every
/// containment-maximal pairwise intersection has exactly `d` vertices.
fn step_admits(facets: &[Vec<u32>], order: &[u32], t: usize) -> bool {
    let new = &facets[order[t] as usize];
    let inters: Vec<Vec<u32>> = order[..t]
        .iter()
        .map(|&i| inter(&facets[i as usize], new))
        .filter(|s| !s.is_empty())
        .collect();
    if inters.is_empty() {
        return false;
    }
    inters.iter().enumerate().all(|(i, s)| {
        let dominated = inters
            .iter()
            .enumerate()
            .any(|(l, o)| l != i && s.len() < o.len() && subset(s, o));
        dominated || s.len() == new.len() - 1
    })
}

/// Whether `order` (a permutation of facet indices, already validated)
/// satisfies the step condition at every position.
#[cfg(test)]
fn order_shells(facets: &[Vec<u32>], order: &[u32]) -> bool {
    (1..order.len()).all(|t| step_admits(facets, order, t))
}

/// Structural validation shared by both verdict kinds: facets must be
/// nonempty, strictly ascending, pure (equal lengths) and distinct.
fn check_facets(facets: &[Vec<u32>]) -> Result<(), CertError> {
    if facets.is_empty() {
        return Err(CertError::Reject("certificate has no facets".into()));
    }
    let width = facets[0].len();
    for (i, f) in facets.iter().enumerate() {
        if f.is_empty() || !strictly_ascending(f) {
            return Err(CertError::Reject(format!(
                "facet {i} is not a strictly ascending nonempty vertex list"
            )));
        }
        if f.len() != width {
            return Err(CertError::Reject(format!(
                "facet {i} has {} vertices but facet 0 has {width} (not pure)",
                f.len()
            )));
        }
        if facets[..i].contains(f) {
            return Err(CertError::Reject(format!("facet {i} is a duplicate")));
        }
    }
    Ok(())
}

/// Standalone checker for [`ShellingCert`].
///
/// Accepts iff the facet list is structurally valid and the verdict
/// holds: a claimed order must be a permutation that satisfies the
/// independently re-implemented step condition at every position; a
/// claimed exhaustion is refuted by brute force over all facet orders
/// when there are at most [`BRUTE_FORCE_MAX_FACETS`] facets, and
/// otherwise only structurally attested (a complex with one facet is
/// always shellable, so tiny exhaustion claims are rejected outright).
///
/// # Errors
///
/// [`CertError::Reject`] with the refuting reason.
pub fn check_shelling(cert: &ShellingCert) -> Result<(), CertError> {
    ksa_obs::count(ksa_obs::Counter::CertsChecked, 1);
    check_facets(&cert.facets)?;
    let r = cert.facets.len();
    match &cert.verdict {
        ShellingVerdict::Order(order) => {
            if order.len() != r {
                return Err(CertError::Reject(format!(
                    "order has {} entries for {r} facets",
                    order.len()
                )));
            }
            let mut seen = vec![false; r];
            for &i in order {
                if (i as usize) >= r || seen[i as usize] {
                    return Err(CertError::Reject(format!(
                        "order is not a permutation of 0..{r} (index {i})"
                    )));
                }
                seen[i as usize] = true;
            }
            for t in 1..r {
                if !step_admits(&cert.facets, order, t) {
                    return Err(CertError::Reject(format!(
                        "step condition fails at position {t} (facet {})",
                        order[t]
                    )));
                }
            }
            Ok(())
        }
        ShellingVerdict::Exhausted { states } => {
            if r == 1 {
                return Err(CertError::Reject(
                    "a single-facet complex is always shellable".into(),
                ));
            }
            if *states == 0 {
                return Err(CertError::Reject(
                    "exhaustion claims zero explored states".into(),
                ));
            }
            if r <= BRUTE_FORCE_MAX_FACETS {
                // Independent refutation: try every order (Heap's
                // algorithm would do; plain recursion is clearer).
                let mut order: Vec<u32> = Vec::with_capacity(r);
                let mut used = vec![false; r];
                if some_order_shells(&cert.facets, &mut order, &mut used) {
                    return Err(CertError::Reject(
                        "a shelling order exists; exhaustion claim is false".into(),
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Brute-force search for any valid order (checker-side refuter; prunes
/// on the step condition like any backtracker, but shares no code or
/// heuristics with the producer).
fn some_order_shells(facets: &[Vec<u32>], order: &mut Vec<u32>, used: &mut [bool]) -> bool {
    let r = facets.len();
    if order.len() == r {
        return true;
    }
    for i in 0..r {
        if used[i] {
            continue;
        }
        order.push(i as u32);
        let t = order.len() - 1;
        let ok = t == 0 || step_admits(facets, order, t);
        if ok {
            used[i] = true;
            if some_order_shells(facets, order, used) {
                return true;
            }
            used[i] = false;
        }
        order.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4a() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2], vec![0, 2, 3]]
    }

    fn fig4b() -> Vec<Vec<u32>> {
        vec![vec![0, 1, 2], vec![2, 3, 4]]
    }

    #[test]
    fn accepts_valid_order() {
        let cert = ShellingCert {
            label: "fig4a".into(),
            facets: fig4a(),
            verdict: ShellingVerdict::Order(vec![0, 1]),
        };
        assert_eq!(check_shelling(&cert), Ok(()));
    }

    #[test]
    fn rejects_order_on_unshellable_facets() {
        let cert = ShellingCert {
            label: "fig4b".into(),
            facets: fig4b(),
            verdict: ShellingVerdict::Order(vec![0, 1]),
        };
        assert!(matches!(check_shelling(&cert), Err(CertError::Reject(_))));
    }

    #[test]
    fn accepts_true_exhaustion_and_refutes_false_one() {
        let good = ShellingCert {
            label: "fig4b".into(),
            facets: fig4b(),
            verdict: ShellingVerdict::Exhausted { states: 2 },
        };
        assert_eq!(check_shelling(&good), Ok(()));
        let lie = ShellingCert {
            label: "fig4a".into(),
            facets: fig4a(),
            verdict: ShellingVerdict::Exhausted { states: 2 },
        };
        assert!(matches!(check_shelling(&lie), Err(CertError::Reject(_))));
    }

    #[test]
    fn step_condition_matches_paper_edge_cases() {
        // Shared vertex of the glued edge is dominated, not impure.
        let facets = vec![vec![0, 1, 5], vec![1, 6, 7], vec![0, 1, 2]];
        assert!(step_admits(&facets, &[0, 1, 2], 2));
        // A lone-vertex intersection alongside a full glue is impure.
        let facets = vec![vec![0, 1, 5], vec![2, 6, 7], vec![0, 1, 2]];
        assert!(!step_admits(&facets, &[0, 1, 2], 2));
    }

    #[test]
    fn order_shells_agrees_with_brute_force_on_path() {
        let path = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        assert!(order_shells(&path, &[0, 1, 2]));
        assert!(!order_shells(&path, &[0, 2, 1]));
    }
}
