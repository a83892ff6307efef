//! A record of which threads have entered some chunks, for tests that force
//! an interleaving of the pool's threads.

use std::sync::{Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// The distinct threads that have entered some chunks.
pub struct Entered {
    threads: Mutex<Vec<ThreadId>>,
    changed: Condvar,
}

impl Entered {
    pub const fn new() -> Self {
        Self {
            threads: Mutex::new(Vec::new()),
            changed: Condvar::new(),
        }
    }

    /// Records the calling thread.
    pub fn enter(&self) {
        let id = thread::current().id();
        let mut threads = self.threads.lock().unwrap();
        if !threads.contains(&id) {
            threads.push(id);
        }
        self.changed.notify_all();
    }

    /// Waits up to `bound` until `count` distinct threads have entered;
    /// returns how many had by then.
    pub fn wait_for(&self, count: usize, bound: Duration) -> usize {
        let threads = self.threads.lock().unwrap();
        let (threads, _) = self
            .changed
            .wait_timeout_while(threads, bound, |t| t.len() < count)
            .unwrap();
        threads.len()
    }
}
