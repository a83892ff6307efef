//! A caller whose own chunks are done helps with the jobs its job spawned.
//! This file holds one test, so no other test's jobs reach the pool.
//!
//! At two threads the scenario leaves no idle worker to do the helping: the
//! worker's outer chunk publishes an inner job and waits inside it for a
//! second thread, and the only other thread is the caller, waiting on the
//! outer job.  At any other thread count an idle worker (or no pool at all)
//! would decide the outcome, so the test returns early.

mod common;

use std::thread;
use std::time::Duration;

use common::Entered;
use rayon::prelude::*;

/// How long a chunk waits for the thread it expects before giving up.
const BOUND: Duration = Duration::from_secs(5);

#[test]
fn a_waiting_caller_runs_chunks_of_its_own_nested_job() {
    if rayon::current_num_threads() != 2 {
        eprintln!(
            "skipped: needs exactly two threads (RAYON_NUM_THREADS=2), has {}",
            rayon::current_num_threads()
        );
        return;
    }
    let caller = thread::current().id();
    let outer = Entered::new();
    let inner = Entered::new();
    let seen: Vec<Vec<usize>> = (0..2u64)
        .into_par_iter()
        .map(|_| {
            outer.enter();
            if thread::current().id() == caller {
                // Return once the worker has claimed the other chunk, so the
                // caller goes on to wait on the outer job.
                outer.wait_for(2, BOUND);
                return Vec::new();
            }
            // The worker: each inner chunk waits for a second thread, and the
            // only one is the caller waiting on the outer job.
            (0..2u64)
                .into_par_iter()
                .map(|_| {
                    inner.enter();
                    inner.wait_for(2, BOUND)
                })
                .collect()
        })
        .collect();
    let seen: Vec<usize> = seen.into_iter().flatten().collect();
    assert_eq!(seen.len(), 2, "the worker ran the outer chunk that nests");
    for (chunk, &threads) in seen.iter().enumerate() {
        assert_eq!(threads, 2, "inner chunk {chunk} ran on one thread only");
    }
}
