//! The host's own speed, measured beside the program.
//!
//! A shared host runs this process slower by 10–100 % for stretches of
//! seconds to minutes, whatever the program does.  A fixed reference loop,
//! timed between replays in the same process, slows with it; scaling host
//! times by how slow the loop ran takes that drift out while leaving every
//! change in the program's own cost in.

use std::time::Instant;

/// Host seconds the reference loop takes at nominal speed: about its
/// fastest time on a 2-vCPU x86-64 Xeon VM (1.02–1.10 ms).  Host figures
/// are reported as if measured at this speed.
pub const NOMINAL_S: f64 = 1.0e-3;

/// Table of the reference loop: 256 KiB, so it stays in cache.
const TABLE_WORDS: usize = 1 << 15;
/// Steps of one reference loop.
const STEPS: usize = 400_000;

/// Reference-loop timings of one run.
#[derive(Debug)]
pub struct Speed {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Speed {
    pub fn new() -> Self {
        Self {
            table: vec![0; TABLE_WORDS],
            samples: Vec::new(),
        }
    }

    /// Times the reference loop once: xorshift-addressed updates of the
    /// table, allocation-free, so nothing the program links can change it.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize % TABLE_WORDS];
            *slot = slot.wrapping_add(x);
        }
        std::hint::black_box(&mut self.table);
        self.samples.push(start.elapsed().as_secs_f64());
    }

    /// How many times slower than nominal the host ran: the fastest
    /// reference loop of the run over [`NOMINAL_S`] (1.0 without samples).
    pub fn slowdown(&self) -> f64 {
        crate::stats::percentile(&self.samples, 0.0).map_or(1.0, |fastest| fastest / NOMINAL_S)
    }
}
