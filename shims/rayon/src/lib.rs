//! Offline stand-in for `rayon`: an eager, order-preserving parallel map over
//! one persistent pool of worker threads.
//!
//! The API mirrors the subset of rayon this workspace uses
//! (`par_iter()` / `into_par_iter()`, `map`, `collect` and
//! `current_num_threads`).  Semantics differ from real rayon in one
//! deliberate way: `map` is *eager* — it runs its closure across the pool
//! immediately — which keeps the shim small while preserving the two
//! properties the simulators need: results come back in input order, and a
//! 1-CPU host degrades to plain sequential execution with no thread overhead.
//!
//! # The pool
//!
//! The first fan-out starts `current_num_threads() − 1` workers, which park
//! on a condition variable between jobs.  Every later fan-out, nested or
//! not, shares them, so the process never runs chunks on more than
//! `current_num_threads()` threads and never starts a thread after the
//! first fan-out.
//!
//! A fan-out cuts its items into contiguous chunks and publishes them as
//! one job, whose chunks are claimed one at a time through an atomic index.
//! The caller claims and runs its own job's chunks until none is left, then
//! waits on the job's latch; an idle worker claims chunks of any published
//! job, oldest first.  Chunk results are concatenated in chunk order, which
//! is input order, whatever thread ran each chunk.
//!
//! A waiting caller helps only its own job's descendants ("leapfrogging":
//! Wagner & Calder, PPoPP 1993).  A job links to the job whose chunk its
//! publisher was running, so the jobs form a tree; while its latch is
//! open, the caller claims chunks of any published job below its own, and
//! sleeps only when none has any left.  A descendant's chunk runs code the
//! job's own chunks call, and they wait for it, so whatever it would block
//! on, a chunk of the job already blocks on: helping re-enters no lock or
//! `OnceLock` initialiser that running one's own chunk does not.  A chunk
//! of an unrelated job could (the `aim-serve` tests build their plans in
//! `OnceLock::get_or_init` side by side), so a waiter never runs one.  The
//! rule keeps four invariants:
//!
//! - *Waits are acyclic.*  A descendant is published after the job it
//!   descends from, so a waiter runs only chunks of jobs published after
//!   the one it waits on, and every thread waits only on a job published
//!   after each job whose chunk it is running.  A chain of waits therefore
//!   runs to ever later jobs and cannot close.
//! - *Stack depth follows the program's nesting.*  Each chunk a waiter
//!   helps with is deeper in the tree than the job it waits on.
//! - *Parent links only compare.*  A link may keep an exhausted job
//!   alive after its caller returned; such a job is only compared by
//!   address, and its closure is never called after its latch.
//! - *No wake-up is lost.*  A publisher pushes its job under `jobs`, then
//!   notifies each ancestor's latch under that ancestor's `finished` lock;
//!   a waiter scans `jobs` while it holds its own `finished` lock, and no
//!   thread takes a `finished` lock while it holds `jobs`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of threads a fan-out runs on, the caller included
/// (`RAYON_NUM_THREADS` overrides the detected core count, matching real
/// rayon's env knob).
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// Chunks per thread a fan-out is cut into, so a thread that finishes early
/// claims more work instead of idling behind a slow chunk.
const CHUNKS_PER_THREAD: usize = 4;

/// Locks `mutex`, ignoring poisoning: chunks run under `catch_unwind`, so no
/// panic unwinds through a guard of the pool's own locks.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The latch's state: chunks finished so far, and the panic of the
/// lowest-index chunk that panicked.
#[derive(Default)]
struct Finished {
    chunks: usize,
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

/// One published fan-out: `chunks` calls of `run`, claimed through `next`.
struct Job {
    /// Runs one chunk by index.  Borrowed from the publishing caller with
    /// its lifetime erased ([`Pool::run`]); called only after a successful
    /// [`Job::claim`].
    run: &'static (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Index of the next unclaimed chunk.  Relaxed is enough: the index
    /// publishes no data.  The job reaches workers through the pool's
    /// `jobs` mutex, each chunk's items and results through their own
    /// mutexes, and completion through `finished`.
    next: AtomicUsize,
    finished: Mutex<Finished>,
    /// Signalled when the last chunk finishes, and when a descendant is
    /// published.
    latch: Condvar,
    /// The job whose chunk the publishing thread was running, if any.
    parent: Option<Arc<Job>>,
}

thread_local! {
    /// The job whose chunk this thread is running, if any.
    static CURRENT: Cell<Option<Arc<Job>>> = const { Cell::new(None) };
}

impl Job {
    /// Claims the next chunk, if any is left.
    fn claim(&self) -> Option<usize> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.chunks).then_some(index)
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// The jobs above this one, nearest first.
    fn ancestors(&self) -> impl Iterator<Item = &Job> {
        std::iter::successors(self.parent.as_deref(), |job| job.parent.as_deref())
    }

    /// Claims and runs chunks until none is left, marking this job as the
    /// thread's current one around each chunk.
    fn run_claims(self: &Arc<Self>) {
        while let Some(index) = self.claim() {
            let outer = CURRENT.replace(Some(Arc::clone(self)));
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(index)));
            CURRENT.set(outer);
            let mut finished = lock(&self.finished);
            if let Err(payload) = outcome {
                let lowest = finished.panic.as_ref().is_none_or(|&(i, _)| index < i);
                if lowest {
                    finished.panic = Some((index, payload));
                }
            }
            finished.chunks += 1;
            if finished.chunks == self.chunks {
                self.latch.notify_all();
            }
        }
    }
}

/// The process-wide worker pool.
struct Pool {
    /// Published jobs that may have chunks left to claim, oldest first.
    jobs: Mutex<VecDeque<Arc<Job>>>,
    /// Parked workers wait here for a job to be published.
    published: Condvar,
}

impl Pool {
    /// The pool; the first call starts its workers.
    fn get() -> &'static Self {
        static POOL: OnceLock<Pool> = OnceLock::new();
        let mut first = false;
        let pool = POOL.get_or_init(|| {
            first = true;
            Self {
                jobs: Mutex::new(VecDeque::new()),
                published: Condvar::new(),
            }
        });
        if first {
            for _ in 1..current_num_threads() {
                // Workers are never joined: they serve the pool for the
                // life of the process, and chunks run under `catch_unwind`,
                // so no panic ends one.  A worker that fails to start only
                // costs parallelism: the caller runs every chunk that no
                // worker claims.
                let _ = std::thread::Builder::new()
                    .name("rayon-shim-worker".into())
                    .spawn(move || pool.work());
            }
        }
        pool
    }

    /// A worker's loop: claim chunks of the oldest job that has any left,
    /// and park while none has.
    fn work(&self) {
        let mut jobs = lock(&self.jobs);
        loop {
            jobs.retain(|job| !job.exhausted());
            if let Some(job) = jobs.front().cloned() {
                drop(jobs);
                job.run_claims();
                jobs = lock(&self.jobs);
            } else {
                jobs = self
                    .published
                    .wait(jobs)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// Runs `run(0)`, …, `run(chunks − 1)` across the pool and returns once
    /// every one has finished; if any panicked, resumes the lowest-index
    /// chunk's panic with its original payload.
    fn run(&self, chunks: usize, run: &(dyn Fn(usize) + Sync)) {
        // SAFETY: this only erases the lifetime of a borrow that every use
        // stays inside of:
        // - this function neither returns nor unwinds before the latch has
        //   counted all `chunks` chunks finished, and a chunk is counted
        //   only after its call of `run` has returned;
        // - `run` is reached only through a successful `Job::claim`, and
        //   each index is claimed at most once, so after the latch no claim
        //   succeeds and a worker still holding the job never calls it;
        // - each chunk's call runs under `catch_unwind`, so no panic escapes
        //   on a worker or skips the count; the payload is kept and, after
        //   the latch, resumed on this thread unchanged;
        // - a descendant's `parent` link may keep the job alive past this
        //   function, but through it the job is only walked past and
        //   compared by address, never claimed from: every descendant is
        //   published by a chunk of this job's subtree, so before the latch,
        //   and no job published later links to it.
        let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
        let parent = CURRENT.take();
        CURRENT.set(parent.clone());
        let job = Arc::new(Job {
            run,
            chunks,
            next: AtomicUsize::new(0),
            finished: Mutex::default(),
            latch: Condvar::new(),
            parent,
        });
        lock(&self.jobs).push_back(Arc::clone(&job));
        self.published.notify_all();
        // Every ancestor's waiter may help with this job: wake it under its
        // `finished` lock, which it holds from its scan of `jobs` to its wait.
        for ancestor in job.ancestors() {
            let _finished = lock(&ancestor.finished);
            ancestor.latch.notify_all();
        }
        job.run_claims();
        // Help with descendants' chunks while any is left; sleep otherwise.
        let mut finished = lock(&job.finished);
        while finished.chunks < chunks {
            let nested = lock(&self.jobs)
                .iter()
                .find(|j| !j.exhausted() && j.ancestors().any(|a| std::ptr::eq(a, &*job)))
                .cloned();
            if let Some(nested) = nested {
                drop(finished);
                nested.run_claims();
                finished = lock(&job.finished);
            } else {
                finished = job
                    .latch
                    .wait(finished)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        if let Some((_, payload)) = finished.panic.take() {
            drop(finished);
            panic::resume_unwind(payload);
        }
    }
}

/// Order-preserving parallel map over an owned item list.
fn par_map_vec<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Contiguous chunks, concatenated in chunk order below: the result is
    // in input order whatever thread ran each chunk.
    let chunk_len = n.div_ceil(n.min(CHUNKS_PER_THREAD * threads));
    let mut rest = items.into_iter();
    let inputs: Vec<Mutex<Vec<T>>> = (0..n.div_ceil(chunk_len))
        .map(|_| Mutex::new(rest.by_ref().take(chunk_len).collect()))
        .collect();
    let outputs: Vec<Mutex<Vec<R>>> = inputs.iter().map(|_| Mutex::default()).collect();
    Pool::get().run(inputs.len(), &|index| {
        let chunk = std::mem::take(&mut *lock(&inputs[index]));
        *lock(&outputs[index]) = chunk.into_iter().map(f).collect();
    });
    let mut out = Vec::with_capacity(n);
    for chunk in outputs {
        out.extend(chunk.into_inner().unwrap_or_else(PoisonError::into_inner));
    }
    out
}

/// An eager parallel iterator: holds the full item list and fans work out on
/// the next `map`.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item across the pool, preserving order.
    pub fn map<R, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParIter {
            items: par_map_vec(self.items, &f),
        }
    }

    /// Collects the items in order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion into an owning parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// Item type produced.
    type Item: Send;

    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_par_iter!(usize, u64);

/// Borrowing parallel iteration (`par_iter`).
pub trait IntoParallelRefIterator<'data> {
    /// Item type produced (a shared reference).
    type Item: Send + 'data;

    /// Parallel iterator over shared references.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::prelude::*;
    use super::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let doubled: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_over_ranges() {
        let squares: Vec<u64> = (0u64..64).into_par_iter().map(|x| x * x).collect();
        assert_eq!(squares[63], 63 * 63);
        assert_eq!(squares.len(), 64);
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        struct Payload(u64);
        let caller = std::thread::current().id();
        let worker_panics = Mutex::new(Vec::new());
        let worker_ran = Condvar::new();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            (0u64..16)
                .into_par_iter()
                .map(|x| {
                    if std::thread::current().id() == caller {
                        // Hold the caller inside its first chunk until a
                        // worker has claimed one (a lone thread has none).
                        if current_num_threads() > 1 {
                            let timeout = Duration::from_secs(10);
                            let _ = worker_ran
                                .wait_timeout_while(lock(&worker_panics), timeout, |p| p.is_empty())
                                .unwrap();
                        }
                        return x;
                    }
                    lock(&worker_panics).push(x);
                    worker_ran.notify_all();
                    std::panic::panic_any(Payload(x))
                })
                .collect::<Vec<_>>()
        }));
        let worker_panics = worker_panics.into_inner().unwrap();
        if current_num_threads() == 1 {
            assert_eq!(caught.ok(), Some((0..16).collect()));
            return;
        }
        let payload = caught.expect_err("a worker's panic must reach the caller");
        // The lowest-index panicking chunk wins, whatever ran first.
        let first = worker_panics.iter().min().copied();
        assert_eq!(payload.downcast_ref::<Payload>().map(|p| p.0), first);
        assert!(first.is_some());
        // The pool survives: the next fan-out returns every result.
        let after: Vec<u64> = (0u64..64).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(after, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn three_deep_nesting_returns_the_sequential_result_in_order() {
        let inner = |a: u64, b: u64| -> Vec<u64> {
            (0u64..7)
                .into_par_iter()
                .map(|c| a * 10_000 + b * 100 + c)
                .collect()
        };
        let middle =
            |a: u64| -> Vec<Vec<u64>> { (0u64..5).into_par_iter().map(|b| inner(a, b)).collect() };
        let nested: Vec<Vec<Vec<u64>>> = (0u64..9).into_par_iter().map(middle).collect();
        let sequential: Vec<Vec<Vec<u64>>> = (0u64..9)
            .map(|a| {
                (0u64..5)
                    .map(|b| (0u64..7).map(|c| a * 10_000 + b * 100 + c).collect())
                    .collect()
            })
            .collect();
        assert_eq!(nested, sequential);
    }
}
