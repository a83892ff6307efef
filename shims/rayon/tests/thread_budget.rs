//! The pool's thread budget: however many fan-outs run, nested or not, the
//! process gains at most `current_num_threads() − 1` threads, and none at
//! one thread.  This file holds one test, so no other test's threads are
//! counted.

use rayon::prelude::*;

/// The process's thread count from `/proc/self/status`, where it exists.
fn threads_now() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))?
        .trim()
        .parse()
        .ok()
}

#[test]
fn ten_thousand_fan_outs_stay_within_the_thread_budget() {
    let Some(before) = threads_now() else {
        eprintln!("skipped: /proc/self/status is not readable here");
        return;
    };
    let budget = before + rayon::current_num_threads() - 1;
    for round in 0..10_000u64 {
        let total: u64 = if round % 10 == 0 {
            // Nested two deep: every outer item fans out again.
            (0..4u64)
                .into_par_iter()
                .map(|a| {
                    (0..4u64)
                        .into_par_iter()
                        .map(|b| a * b + round)
                        .collect::<Vec<_>>()
                        .into_iter()
                        .sum::<u64>()
                })
                .collect::<Vec<_>>()
                .into_iter()
                .sum()
        } else {
            (0..8u64)
                .into_par_iter()
                .map(|a| a + round)
                .collect::<Vec<_>>()
                .into_iter()
                .sum()
        };
        let expected = if round % 10 == 0 {
            36 + 16 * round
        } else {
            28 + 8 * round
        };
        assert_eq!(total, expected);
        // Checked after every fan-out, so a pool that starts threads per
        // fan-out fails within a few of them.
        let now = threads_now().expect("/proc/self/status stays readable");
        assert!(
            now <= budget,
            "fan-out {round}: {now} threads, budget {budget} ({before} before the first)"
        );
    }
}
