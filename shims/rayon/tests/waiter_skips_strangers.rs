//! A waiting caller never runs a chunk of a job outside its own subtree.
//! This file holds one test, so no other test's jobs reach the pool, and a
//! deadlock here leaves no other test waiting on a stuck worker.
//!
//! Thread A's `OnceLock` initialiser fans out, and while the pool's workers
//! hold the other chunks of its job, thread B fans out a job whose chunks
//! call the same `get_or_init`.  B's first chunk blocks on A's initialiser
//! and its other chunk is left unclaimed.  If A, waiting on its own job,
//! claimed that chunk, it would re-enter the initialiser it is running, and
//! neither thread would finish.

mod common;

use std::sync::{mpsc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use common::Entered;
use rayon::prelude::*;

/// How long a chunk waits for the threads it expects before giving up.
const BOUND: Duration = Duration::from_secs(5);
/// How long the workers' chunks leave A's wait exposed to B's job.
const EXPOSED: Duration = Duration::from_secs(1);
/// How long the test waits for A and B before it declares a deadlock.
const WATCHDOG: Duration = Duration::from_secs(20);

static VALUE: OnceLock<u64> = OnceLock::new();
/// Threads that entered a chunk of A's job.
static A_JOB: Entered = Entered::new();
/// Threads that entered a chunk of B's job.
static B_JOB: Entered = Entered::new();

#[test]
fn a_waiting_initialiser_never_runs_a_strangers_chunk() {
    let threads = rayon::current_num_threads();
    let (done, finished) = mpsc::channel();
    let a = thread::spawn({
        let done = done.clone();
        move || {
            let a = thread::current().id();
            let value = *VALUE.get_or_init(|| {
                (0..threads as u64)
                    .into_par_iter()
                    .map(|x| {
                        A_JOB.enter();
                        // Every thread holds one chunk until B's job runs.
                        A_JOB.wait_for(threads, BOUND);
                        B_JOB.wait_for(1, BOUND);
                        if thread::current().id() != a {
                            // A worker: stay busy while A waits, so only A
                            // could claim B's unclaimed chunk.
                            B_JOB.wait_for(2, EXPOSED);
                        }
                        x
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .sum()
            });
            done.send(()).unwrap();
            value
        }
    });
    A_JOB.wait_for(threads, BOUND);
    let b = thread::spawn(move || {
        let values: Vec<u64> = (0..2u64)
            .into_par_iter()
            .map(|_| {
                B_JOB.enter();
                *VALUE.get_or_init(|| unreachable!("A initialises the value first"))
            })
            .collect();
        done.send(()).unwrap();
        values
    });
    let deadline = Instant::now() + WATCHDOG;
    for _ in 0..2 {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            finished.recv_timeout(left).is_ok(),
            "A or B did not finish within {WATCHDOG:?}: a waiter ran a stranger's chunk"
        );
    }
    let expected = (0..threads as u64).sum::<u64>();
    assert_eq!(a.join().unwrap(), expected);
    assert_eq!(b.join().unwrap(), vec![expected; 2]);
}
