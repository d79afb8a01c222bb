//! The one-round decider under a [`Run`] carrying a token: a token that
//! never fires leaves verdicts, search statistics and certificate text
//! identical to the token-free run, and a fired or expired token
//! surfaces as [`CoreError::Cancelled`] / [`CoreError::DeadlineExceeded`]
//! (DESIGN.md §12.2).

use ksa_core::budget::{CancelToken, Deadline, Run, RunBudget};
use ksa_core::solvability::decide_one_round;
use ksa_core::CoreError;
use ksa_models::named;

const EXECS: u128 = 2_000_000;
const NODES: usize = 50_000_000;

fn with(token: &CancelToken) -> Run<'_> {
    Run {
        budget: RunBudget::new(EXECS),
        cancel: Some(token),
    }
}

#[test]
fn silent_token_matches_the_token_free_run() {
    let m = named::star_unions(3, 1).unwrap();
    let silent = CancelToken::new();
    for k in 1..=3 {
        for certify in [None, Some("s31")] {
            let (plain, plain_stats, plain_cert) =
                decide_one_round(&m, k, k, EXECS, NODES, certify).unwrap();
            let (tokened, tokened_stats, tokened_cert) =
                decide_one_round(&m, k, k, with(&silent), NODES, certify).unwrap();
            assert_eq!(plain, tokened, "k = {k}");
            assert_eq!(plain_stats, tokened_stats, "k = {k}");
            let text = |c: Option<ksa_cert::SolvabilityCert>| {
                c.map(|c| ksa_cert::Cert::Solvability(c).to_text())
            };
            assert_eq!(certify.is_some(), plain_cert.is_some(), "k = {k}");
            assert_eq!(text(plain_cert), text(tokened_cert), "k = {k}");
        }
    }
}

#[test]
fn fired_and_expired_tokens_interrupt() {
    let m = named::star_unions(3, 1).unwrap();
    let fired = CancelToken::new();
    fired.cancel();
    let expired = CancelToken::with_deadline(Deadline::in_millis(0));
    for (token, cancelled) in [(&fired, true), (&expired, false)] {
        let check = |err: CoreError| match err {
            CoreError::Cancelled => assert!(cancelled),
            CoreError::DeadlineExceeded => assert!(!cancelled),
            other => panic!("unexpected error {other:?}"),
        };
        for certify in [None, Some("s31 k=3")] {
            check(decide_one_round(&m, 3, 3, with(token), NODES, certify).unwrap_err());
        }
    }
}
