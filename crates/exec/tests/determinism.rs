//! `map_in_order` returns exactly the sequential `map`, in input order,
//! at any width — also when workers finish out of order.

use ksa_exec::{map_in_order, ThreadPool};
use proptest::prelude::*;
use std::thread;
use std::time::Duration;

#[test]
fn results_come_back_in_input_order() {
    let items: Vec<u64> = (0..40).collect();
    for width in [2, 3, 8] {
        // Early items take longest, so workers finish out of order.
        let out = ThreadPool::new(width).install(|| {
            map_in_order(&items, |&x| {
                thread::sleep(Duration::from_micros(40 * (40 - x)));
                x * x + 1
            })
        });
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(out, expected, "width {width}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn map_matches_sequential(v in prop::collection::vec(any::<u32>(), 0..200), width in 1usize..=6) {
        let out = ThreadPool::new(width).install(|| map_in_order(&v, |&x| u64::from(x) * 3 + 1));
        let seq: Vec<u64> = v.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        prop_assert_eq!(out, seq);
    }
}
