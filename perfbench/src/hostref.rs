//! The host reference kernel: a fixed amount of CPU and memory work that
//! shares no code with the workspace crates.
//!
//! Running it next to every timed pass turns a pass time into "reference
//! units" (pass ms / kernel ms). A host that slows down for reasons of its
//! own slows both, so the ratio stays put, while a regression in the
//! measured code moves the pass alone.
//!
//! On a shared VM the workloads swing by half while a dependent walk over a
//! large table or an integer mixing loop stays flat, so this kernel does
//! the kind of work the workloads do, on a working set of several MB: it
//! allocates small sorted vectors, interns them in a hash map, sorts them
//! and reduces them as sparse GF(2) rows by sorted symmetric differences.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Rows generated, interned and reduced per run.
const ROWS: usize = 50_000;
/// Columns the rows draw their entries from.
const COLUMNS: u64 = 200_000;
/// Entries drawn per row (before deduplication).
const ROW_WEIGHT: usize = 5;
/// Reduction steps per row: bounds fill-in, so every run does the same
/// amount of work.
const MAX_STEPS: usize = 4;

/// The kernel's seed; every run does the same work.
pub struct HostRef {
    seed: u64,
}

impl HostRef {
    pub fn new(seed: u64) -> Self {
        HostRef { seed }
    }

    /// Runs the kernel once and returns its wall time in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let start = Instant::now();
        let mut state = self.seed;
        let mut interned: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut rows: Vec<Vec<u32>> = Vec::with_capacity(ROWS);
        for _ in 0..ROWS {
            let mut row: Vec<u32> = (0..ROW_WEIGHT)
                .map(|_| {
                    state = splitmix(state);
                    (state % COLUMNS) as u32
                })
                .collect();
            row.sort_unstable();
            row.dedup();
            let next = interned.len() as u32;
            interned.entry(row.clone()).or_insert(next);
            rows.push(row);
        }
        rows.sort();
        let mut pivots: HashMap<u32, Vec<u32>> = HashMap::new();
        for mut row in rows {
            for _ in 0..MAX_STEPS {
                let Some(&lead) = row.first() else { break };
                match pivots.get(&lead) {
                    Some(pivot) => row = symmetric_difference(&row, pivot),
                    None => {
                        pivots.insert(lead, row);
                        break;
                    }
                }
            }
        }
        black_box((interned.len(), pivots.len()));
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn symmetric_difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else if b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
