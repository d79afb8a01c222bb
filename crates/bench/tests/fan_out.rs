//! The experiment fan-out is invisible in the results: every outcome —
//! report, checks, skipped models, certificate verdict and texts — is
//! identical at one and at four experiment workers. Only the timings,
//! stripped here, may differ.

use ksa_bench::{run_experiments, ALL_EXPERIMENTS};
use ksa_exec::ThreadPool;

fn outcomes(width: usize) -> Vec<String> {
    ThreadPool::new(width)
        .install(|| run_experiments(ALL_EXPERIMENTS))
        .into_iter()
        .map(|(outcome, _timing)| format!("{outcome:?}"))
        .collect()
}

#[test]
fn outcomes_are_identical_at_one_and_four_workers() {
    let one = outcomes(1);
    let four = outcomes(4);
    assert_eq!(one.len(), ALL_EXPERIMENTS.len());
    for ((id, a), b) in ALL_EXPERIMENTS.iter().zip(&one).zip(&four) {
        assert!(a.starts_with("Ok("), "{id}: {a}");
        assert_eq!(a, b, "{id} differs between 1 and 4 workers");
    }
}
