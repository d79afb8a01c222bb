//! One-round solvability certificates: a decision map replayed over
//! every execution, or an impossibility attestation.
//!
//! The replay checker enumerates input assignments and process views
//! with its own counting loop — it shares no code with the CSP search,
//! propagation, or symmetry machinery in `ksa_core::solvability`. It is
//! also the replay the solvability tests run on every witness map.

use crate::text::{push_label, push_nums, Cursor};
use crate::{strictly_ascending, CertError};

/// Hard cap on `graphs × executions × processes` replay work.
const MAX_REPLAY_WORK: u128 = 100_000_000;

/// One decision-map entry: a process view (strictly ascending
/// `(process, value)` pairs) and the decided value.
pub type MapEntry = (Vec<(u32, u32)>, u32);

/// The claim a [`SolvabilityCert`] makes about its task + graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolvVerdict {
    /// The task is solvable in one round: this decision map covers and
    /// solves every execution. Fully re-checked by replay.
    Map(Vec<MapEntry>),
    /// An exhaustive search (with symmetry breaking) proved the task
    /// unsolvable. Attested, not replayed: the checker validates the
    /// statistics' internal consistency and rejects claims that are
    /// impossible on their face (`k ≥ n`, or fewer values than `k+1`).
    Exhausted {
        /// Decision nodes the proving search explored.
        nodes: u64,
        /// Order of the symmetry group the search quotiented by; must
        /// divide `n! · (value_max+1)!`.
        symmetry_order: u64,
    },
}

/// A one-round k-set agreement verdict for an explicit execution set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolvabilityCert {
    /// Producer-assigned origin (model name + k).
    pub label: String,
    /// Number of processes.
    pub n: u32,
    /// Agreement bound: at most `k` distinct decisions per execution.
    pub k: u32,
    /// Inputs range over `0..=value_max`.
    pub value_max: u32,
    /// The executions: every communication graph of the (expanded)
    /// model, each given as `n` strictly ascending in-neighbour sets.
    pub graphs: Vec<Vec<Vec<u32>>>,
    /// The certified claim.
    pub verdict: SolvVerdict,
}

impl SolvabilityCert {
    pub(crate) fn to_text_body(&self, out: &mut String) {
        push_label(out, &self.label);
        out.push_str(&format!("task {} {} {}\n", self.n, self.k, self.value_max));
        out.push_str(&format!("graphs {}\n", self.graphs.len()));
        for g in &self.graphs {
            out.push_str("graph\n");
            for in_set in g {
                push_nums(out, in_set.iter().copied());
            }
        }
        match &self.verdict {
            SolvVerdict::Map(entries) => {
                out.push_str(&format!("map {}\n", entries.len()));
                for (view, decision) in entries {
                    out.push_str(&format!("entry {}", view.len()));
                    for &(p, v) in view {
                        out.push_str(&format!(" {p} {v}"));
                    }
                    out.push_str(&format!(" {decision}\n"));
                }
            }
            SolvVerdict::Exhausted {
                nodes,
                symmetry_order,
            } => {
                out.push_str(&format!("exhausted {nodes} {symmetry_order}\n"));
            }
        }
    }

    pub(crate) fn parse_body(cur: &mut Cursor<'_>) -> Result<Self, CertError> {
        let label = cur.tagged("label")?.to_string();
        let task: Vec<u32> = crate::text::parse_nums(cur.tagged("task")?)
            .map_err(|tok| cur.err(format!("bad task number `{tok}`")))?;
        let [n, k, value_max] = task[..] else {
            return Err(cur.err("expected `task <n> <k> <value_max>`"));
        };
        let gcounts: Vec<usize> = crate::text::parse_nums(cur.tagged("graphs")?)
            .map_err(|tok| cur.err(format!("bad graph count `{tok}`")))?;
        let [gcount] = gcounts[..] else {
            return Err(cur.err("expected `graphs <count>`"));
        };
        let mut graphs = Vec::with_capacity(gcount);
        for _ in 0..gcount {
            let marker = cur.next("`graph`")?;
            if marker != "graph" {
                return Err(cur.err(format!("expected `graph`, found `{marker}`")));
            }
            let mut in_sets = Vec::with_capacity(n as usize);
            for _ in 0..n {
                in_sets.push(cur.num_line::<u32>("an in-neighbour line")?);
            }
            graphs.push(in_sets);
        }
        let line = cur.next("`map <count>` or `exhausted <nodes> <sym>`")?;
        let verdict = if let Some(rest) = line.strip_prefix("map") {
            let counts: Vec<usize> = crate::text::parse_nums(rest)
                .map_err(|tok| cur.err(format!("bad entry count `{tok}`")))?;
            let [ecount] = counts[..] else {
                return Err(cur.err("expected `map <count>`"));
            };
            let mut entries = Vec::with_capacity(ecount);
            for _ in 0..ecount {
                let nums: Vec<u32> = crate::text::parse_nums(cur.tagged("entry")?)
                    .map_err(|tok| cur.err(format!("bad entry number `{tok}`")))?;
                let (&m, rest) = nums
                    .split_first()
                    .ok_or_else(|| cur.err("empty `entry` line"))?;
                if rest.len() != 2 * m as usize + 1 {
                    return Err(cur.err(format!(
                        "entry claims {m} pairs but carries {} numbers",
                        rest.len()
                    )));
                }
                let view: Vec<(u32, u32)> = rest[..2 * m as usize]
                    .chunks(2)
                    .map(|c| (c[0], c[1]))
                    .collect();
                entries.push((view, rest[2 * m as usize]));
            }
            SolvVerdict::Map(entries)
        } else if let Some(rest) = line.strip_prefix("exhausted") {
            let nums: Vec<u64> = crate::text::parse_nums(rest)
                .map_err(|tok| cur.err(format!("bad exhaustion number `{tok}`")))?;
            let [nodes, symmetry_order] = nums[..] else {
                return Err(cur.err("expected `exhausted <nodes> <symmetry_order>`"));
            };
            SolvVerdict::Exhausted {
                nodes,
                symmetry_order,
            }
        } else {
            return Err(cur.err(format!(
                "expected `map <count>` or `exhausted <nodes> <sym>`, found `{line}`"
            )));
        };
        Ok(SolvabilityCert {
            label,
            n,
            k,
            value_max,
            graphs,
            verdict,
        })
    }
}

/// Structural validation of the task and graph set.
fn check_instance(cert: &SolvabilityCert) -> Result<(), CertError> {
    let n = cert.n;
    if n == 0 {
        return Err(CertError::Reject("no processes".into()));
    }
    if cert.k == 0 {
        return Err(CertError::Reject("k = 0 admits no decisions at all".into()));
    }
    if cert.graphs.is_empty() {
        return Err(CertError::Reject("no communication graphs".into()));
    }
    for (gi, g) in cert.graphs.iter().enumerate() {
        if g.len() != n as usize {
            return Err(CertError::Reject(format!(
                "graph {gi} has {} in-sets for {n} processes",
                g.len()
            )));
        }
        for (p, in_set) in g.iter().enumerate() {
            if in_set.is_empty() || !strictly_ascending(in_set) || in_set.iter().any(|&q| q >= n) {
                return Err(CertError::Reject(format!(
                    "graph {gi} in-set of process {p} is not a nonempty ascending subset of 0..{n}"
                )));
            }
        }
    }
    Ok(())
}

/// Standalone checker for [`SolvabilityCert`].
///
/// For a [`SolvVerdict::Map`]: replays every execution — each graph of
/// the certificate against each of the `(value_max+1)^n` input
/// assignments — and checks **coverage** (every arising view is mapped),
/// **validity** (the decided value is held by some process in the view)
/// and **agreement** (at most `k` distinct decisions per execution).
/// For [`SolvVerdict::Exhausted`]: structural attestation only (see the
/// variant docs).
///
/// # Errors
///
/// [`CertError::Reject`] with the refuting reason; [`CertError::TooLarge`]
/// if replay would exceed the checker's hard work cap.
pub fn check_solvability(cert: &SolvabilityCert) -> Result<(), CertError> {
    ksa_obs::count(ksa_obs::Counter::CertsChecked, 1);
    check_instance(cert)?;
    let n = cert.n as usize;
    let values = cert.value_max as u128 + 1;
    match &cert.verdict {
        SolvVerdict::Map(entries) => {
            let executions = values
                .checked_pow(n as u32)
                .ok_or_else(|| CertError::TooLarge("input space overflows".into()))?;
            let work = executions
                .checked_mul(cert.graphs.len() as u128)
                .and_then(|w| w.checked_mul(n as u128))
                .ok_or_else(|| CertError::TooLarge("replay work overflows".into()))?;
            if work > MAX_REPLAY_WORK {
                return Err(CertError::TooLarge(format!(
                    "replay needs {work} view lookups (cap {MAX_REPLAY_WORK})"
                )));
            }
            for (i, (view, _)) in entries.iter().enumerate() {
                if view.is_empty() || !view.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(CertError::Reject(format!(
                        "map entry {i} view is not strictly ascending by process"
                    )));
                }
                if i > 0 && entries[i - 1].0 >= entries[i].0 {
                    return Err(CertError::Reject(format!(
                        "map entries are not strictly sorted at index {i}"
                    )));
                }
            }
            // Replay: odometer over input assignments, decisions per
            // execution gathered and counted distinct.
            let mut inputs = vec![0u32; n];
            let mut view: Vec<(u32, u32)> = Vec::with_capacity(n);
            loop {
                for (gi, g) in cert.graphs.iter().enumerate() {
                    let mut decisions: Vec<u32> = Vec::with_capacity(n);
                    for in_set in g {
                        view.clear();
                        view.extend(in_set.iter().map(|&q| (q, inputs[q as usize])));
                        let idx = entries
                            .binary_search_by(|(v, _)| v.as_slice().cmp(view.as_slice()))
                            .map_err(|_| {
                                CertError::Reject(format!(
                                    "view {view:?} (graph {gi}, inputs {inputs:?}) is not mapped"
                                ))
                            })?;
                        let d = entries[idx].1;
                        if !view.iter().any(|&(_, v)| v == d) {
                            return Err(CertError::Reject(format!(
                                "decision {d} for view {view:?} is not a value in the view"
                            )));
                        }
                        decisions.push(d);
                    }
                    decisions.sort_unstable();
                    decisions.dedup();
                    if decisions.len() > cert.k as usize {
                        return Err(CertError::Reject(format!(
                            "{} distinct decisions (> k = {}) in graph {gi}, inputs {inputs:?}",
                            decisions.len(),
                            cert.k
                        )));
                    }
                }
                // Next input assignment.
                let mut pos = 0;
                while pos < n {
                    inputs[pos] += 1;
                    if inputs[pos] <= cert.value_max {
                        break;
                    }
                    inputs[pos] = 0;
                    pos += 1;
                }
                if pos == n {
                    break;
                }
            }
            Ok(())
        }
        SolvVerdict::Exhausted {
            nodes,
            symmetry_order,
        } => {
            if cert.k >= cert.n {
                return Err(CertError::Reject(
                    "k ≥ n is always solvable (decide any held value)".into(),
                ));
            }
            if values <= cert.k as u128 {
                return Err(CertError::Reject(
                    "fewer than k+1 input values is always solvable".into(),
                ));
            }
            if *nodes == 0 {
                return Err(CertError::Reject(
                    "exhaustion claims zero explored nodes".into(),
                ));
            }
            let full_group = factorial(cert.n as u128)
                .and_then(|a| factorial(values).and_then(|b| a.checked_mul(b)))
                .ok_or_else(|| CertError::TooLarge("symmetry group overflows".into()))?;
            if *symmetry_order == 0 || full_group % (*symmetry_order as u128) != 0 {
                return Err(CertError::Reject(format!(
                    "symmetry order {symmetry_order} does not divide n!·(value_max+1)! = {full_group}"
                )));
            }
            Ok(())
        }
    }
}

fn factorial(n: u128) -> Option<u128> {
    (1..=n).try_fold(1u128, |acc, i| acc.checked_mul(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Consensus (k = 1) on 2 processes over the complete graph with
    /// binary inputs: both processes always see everything, so "decide
    /// the minimum" works — 4 views, one per input assignment.
    fn consensus() -> SolvabilityCert {
        let entries: Vec<MapEntry> = vec![
            (vec![(0, 0), (1, 0)], 0),
            (vec![(0, 0), (1, 1)], 0),
            (vec![(0, 1), (1, 0)], 0),
            (vec![(0, 1), (1, 1)], 1),
        ];
        SolvabilityCert {
            label: "consensus-complete".into(),
            n: 2,
            k: 1,
            value_max: 1,
            graphs: vec![vec![vec![0, 1], vec![0, 1]]],
            verdict: SolvVerdict::Map(entries),
        }
    }

    #[test]
    fn accepts_consensus_map() {
        assert_eq!(check_solvability(&consensus()), Ok(()));
    }

    #[test]
    fn rejects_flipped_decision() {
        let mut cert = consensus();
        let SolvVerdict::Map(entries) = &mut cert.verdict else {
            unreachable!()
        };
        // Decide a value nobody holds.
        entries[0].1 = 1;
        assert!(matches!(
            check_solvability(&cert),
            Err(CertError::Reject(_))
        ));
    }

    #[test]
    fn rejects_agreement_violation() {
        let mut cert = consensus();
        // Two one-sided graphs make the processes decide their own
        // inputs on mixed assignments: 2 distinct decisions > k = 1.
        cert.graphs = vec![vec![vec![0], vec![1]]];
        let SolvVerdict::Map(entries) = &mut cert.verdict else {
            unreachable!()
        };
        *entries = vec![
            (vec![(0, 0)], 0),
            (vec![(0, 1)], 1),
            (vec![(1, 0)], 0),
            (vec![(1, 1)], 1),
        ];
        entries.sort();
        assert!(matches!(
            check_solvability(&cert),
            Err(CertError::Reject(_))
        ));
    }

    #[test]
    fn rejects_missing_view() {
        let mut cert = consensus();
        let SolvVerdict::Map(entries) = &mut cert.verdict else {
            unreachable!()
        };
        entries.pop();
        assert!(matches!(
            check_solvability(&cert),
            Err(CertError::Reject(_))
        ));
    }

    #[test]
    fn exhaustion_attestation_checks() {
        let good = SolvabilityCert {
            label: "imposs".into(),
            n: 3,
            k: 1,
            value_max: 1,
            graphs: vec![vec![vec![0], vec![1], vec![2]]],
            verdict: SolvVerdict::Exhausted {
                nodes: 10,
                symmetry_order: 12,
            },
        };
        assert_eq!(check_solvability(&good), Ok(()));
        let mut k_too_big = good.clone();
        k_too_big.k = 3;
        assert!(matches!(
            check_solvability(&k_too_big),
            Err(CertError::Reject(_))
        ));
        let mut bad_sym = good.clone();
        bad_sym.verdict = SolvVerdict::Exhausted {
            nodes: 10,
            symmetry_order: 7,
        };
        assert!(matches!(
            check_solvability(&bad_sym),
            Err(CertError::Reject(_))
        ));
    }
}
