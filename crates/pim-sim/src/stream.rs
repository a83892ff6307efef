//! Bit-serial input streams and statistical flip-fraction generators.
//!
//! In SRAM PIM the in-memory data (weights) stays put while the input
//! operands are fed one bit per cycle on the word lines.  Two views of that
//! input are needed:
//!
//! * the **bit-exact** view ([`InputStream`]): the actual bits of each input
//!   value, cycle by cycle, used by the bank-level simulator to compute MAC
//!   results and exact toggle counts;
//! * the **statistical** view ([`FlipBank`]): the fraction of input bits that
//!   toggled in each cycle, sampled per macro from a clamped normal
//!   distribution, used by the chip-level simulator and, as the mean of a
//!   100-step single-macro bank, by the lightweight evaluator inside the
//!   HR-aware task mapper (the paper samples a 100-step flip sequence from a
//!   normal distribution).

use std::sync::OnceLock;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A batch of input values presented bit-serially to a PIM bank.
///
/// `values[k]` is the input multiplied with weight `k`; bit `t` of every
/// value is applied in cycle `t` (LSB first).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputStream {
    values: Vec<i32>,
    bits: u32,
}

impl InputStream {
    /// Creates a stream from unsigned input magnitudes.
    ///
    /// Inputs are treated as unsigned `bits`-wide integers (activations after
    /// ReLU are non-negative in the common PIM dataflow); signed inputs can
    /// be handled by the caller via offset encoding.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16, or any value does not fit.
    #[must_use]
    pub fn from_values(values: &[i32], bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "input bits must be in 1..=16");
        let max = (1i64 << bits) - 1;
        for &v in values {
            assert!(
                i64::from(v) >= 0 && i64::from(v) <= max,
                "input value {v} does not fit in {bits} unsigned bits"
            );
        }
        Self {
            values: values.to_vec(),
            bits,
        }
    }

    /// Generates a random stream with values uniform in `[0, 2^bits)`.
    #[must_use]
    pub fn random(len: usize, bits: u32, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max = (1i64 << bits) as i32;
        let values = (0..len).map(|_| rng.gen_range(0..max)).collect::<Vec<_>>();
        Self::from_values(&values, bits)
    }

    /// Number of input lanes (= number of weights in the bank).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the stream has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Bit-serial depth (number of cycles needed to stream one batch).
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The full input values.
    #[must_use]
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Bit `cycle` (LSB-first) of input lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `cycle` is out of range.
    #[must_use]
    pub fn bit(&self, k: usize, cycle: u32) -> bool {
        assert!(cycle < self.bits, "cycle {cycle} out of range");
        (self.values[k] >> cycle) & 1 == 1
    }

    /// Fraction of lanes whose bit changed between `cycle` and `cycle + 1`.
    ///
    /// Returns 0 for the last cycle (there is no next bit to compare with) or
    /// for an empty stream.
    #[must_use]
    pub fn flip_fraction(&self, cycle: u32) -> f64 {
        if self.is_empty() || cycle + 1 >= self.bits {
            return 0.0;
        }
        let flips = (0..self.len())
            .filter(|&k| self.bit(k, cycle) != self.bit(k, cycle + 1))
            .count();
        flips as f64 / self.len() as f64
    }
}

/// Rows per lazily built [`FlipBank`] chunk.
const CHUNK_ROWS: usize = 16;

/// ChaCha words one Box–Muller row draw consumes: two `f64` draws of one
/// `next_u64` (two 32-bit words) each.  A chunk starting at row `r0`
/// therefore starts at word `WORDS_PER_ROW · r0` of every macro's stream;
/// with 16 rows per chunk that is always the first word of a 16-word ChaCha
/// block.
const WORDS_PER_ROW: u128 = 4;

/// A struct-of-arrays flip bank: every macro's statistical flip sequence for
/// one chip, stored cycle-major so the per-cycle hot loop reads one
/// contiguous stride-1 row instead of chasing `macros` separate `Vec<f64>`s.
///
/// Macro `m`'s row is `len` Box–Muller draws over a `ChaCha8Rng` seeded
/// with `seed + m * 7919`, clamped to `[0, 1]`, in the draw order of the
/// per-macro sequences it replaced (`tests/template_equivalence.rs` keeps
/// that per-macro loop as its reference).
///
/// The bank is built lazily, in chunks of 16 rows: [`Self::row`] fills the
/// chunk holding its row on that chunk's first read, drawing each macro's
/// rows from its stream moved straight to the chunk's first word, and reads
/// stay lock-free afterwards.  A run therefore pays only for the rows it
/// reads (an ideal batch run reads a few hundred of 512), and every row
/// holds the same bits whatever order the chunks are filled in.
#[derive(Debug, Clone)]
pub struct FlipBank {
    macros: usize,
    len: usize,
    mean: f64,
    std: f64,
    base_seed: u64,
    /// Chunk `c` holds rows `16c ..` (16 of them, fewer in the last chunk),
    /// cycle-major: `chunk[(r - 16c) * macros + m]`.  Empty until read.
    chunks: Box<[OnceLock<Box<[f64]>>]>,
}

impl FlipBank {
    /// A `macros × len` bank of flip fractions, sampled on first read.
    /// Macro `m`'s row is drawn from seed `base_seed + m * 7919`
    /// (wrapping), matching the per-macro seed derivation of the chip
    /// simulator.  Allocates no rows.
    #[must_use]
    pub fn normal(macros: usize, len: usize, mean: f64, std: f64, base_seed: u64) -> Self {
        Self {
            macros,
            len,
            mean,
            std,
            base_seed,
            chunks: (0..len.div_ceil(CHUNK_ROWS))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// Number of macros (row width).
    #[must_use]
    pub fn macros(&self) -> usize {
        self.macros
    }

    /// Sequence length per macro (rows; wrapped for longer runs).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bank holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.macros == 0
    }

    /// The contiguous per-macro row for `cycle`, wrapping at [`Self::len`]:
    /// `row(cycle)[m]` is macro `m`'s flip fraction.  The first read of a
    /// chunk samples it; concurrent first reads wait for one sampling.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty.
    #[inline]
    #[must_use]
    pub fn row(&self, cycle: u64) -> &[f64] {
        assert!(!self.is_empty(), "flip bank is empty");
        let r = (cycle % self.len as u64) as usize;
        let chunk = self.chunks[r / CHUNK_ROWS].get_or_init(|| self.sample_chunk(r / CHUNK_ROWS));
        let local = r % CHUNK_ROWS;
        &chunk[local * self.macros..(local + 1) * self.macros]
    }

    /// Flip fraction of macro `m` at `cycle`.
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty or `m` is out of range.
    #[inline]
    #[must_use]
    pub fn at(&self, m: usize, cycle: u64) -> f64 {
        assert!(m < self.macros, "macro {m} out of range");
        self.row(cycle)[m]
    }

    /// Samples chunk `c`: each macro's stream is seeded as for the whole
    /// sequence, moved to the chunk's first row, and drawn row by row.
    fn sample_chunk(&self, c: usize) -> Box<[f64]> {
        let r0 = c * CHUNK_ROWS;
        let rows = CHUNK_ROWS.min(self.len - r0);
        let mut fractions = vec![0.0f64; rows * self.macros].into_boxed_slice();
        for m in 0..self.macros {
            let mut rng = ChaCha8Rng::seed_from_u64(self.base_seed.wrapping_add(m as u64 * 7919));
            rng.set_word_pos(WORDS_PER_ROW * r0 as u128);
            for row in 0..rows {
                // Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                fractions[row * self.macros + m] = (self.mean + self.std * z).clamp(0.0, 1.0);
            }
        }
        fractions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_lsb_first() {
        let s = InputStream::from_values(&[0b1011_0010], 8);
        assert!(!s.bit(0, 0));
        assert!(s.bit(0, 1));
        assert!(!s.bit(0, 2));
        assert!(s.bit(0, 7));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_is_rejected() {
        let _ = InputStream::from_values(&[256], 8);
    }

    #[test]
    fn flip_fraction_counts_changed_lanes() {
        // lane 0: bits 0,1 -> 1,0 = flip; lane 1: 1,1 = no flip.
        let s = InputStream::from_values(&[0b01, 0b11], 2);
        assert!((s.flip_fraction(0) - 0.5).abs() < 1e-12);
        // Last cycle has no successor.
        assert_eq!(s.flip_fraction(1), 0.0);
    }

    #[test]
    fn random_stream_is_deterministic_per_seed() {
        let a = InputStream::random(64, 8, 3);
        let b = InputStream::random(64, 8, 3);
        let c = InputStream::random(64, 8, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.values().iter().all(|&v| (0..256).contains(&v)));
    }

    #[test]
    fn normal_flip_sequence_stays_in_unit_interval() {
        let bank = FlipBank::normal(1, 1000, 0.5, 0.15, 9);
        let fractions: Vec<f64> = (0..1000).map(|c| bank.at(0, c)).collect();
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        let mean = fractions.iter().sum::<f64>() / 1000.0;
        assert!((mean - 0.5).abs() < 0.03);
    }

    #[test]
    fn flip_bank_rows_are_contiguous_and_wrap() {
        let bank = FlipBank::normal(4, 3, 0.5, 0.1, 7);
        assert_eq!(bank.macros(), 4);
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.row(0), bank.row(3));
        assert_eq!(bank.row(2), bank.row(5));
        assert_eq!(bank.row(1).len(), 4);
        assert_eq!(bank.at(2, 4), bank.row(1)[2]);
    }

    #[test]
    fn reading_a_prefix_fills_only_its_chunks() {
        let bank = FlipBank::normal(64, 512, 0.5, 0.15, 3);
        let filled = |bank: &FlipBank| bank.chunks.iter().filter(|c| c.get().is_some()).count();
        assert_eq!(bank.chunks.len(), 32);
        assert_eq!(filled(&bank), 0, "a new bank sampled rows");
        for cycle in 0..200 {
            let _ = bank.row(cycle);
        }
        // Rows 0..200 lie in chunks 0..=12.
        assert_eq!(filled(&bank), 13);
    }

    #[test]
    #[should_panic(expected = "flip bank is empty")]
    fn empty_bank_row_panics() {
        let bank = FlipBank::normal(4, 0, 0.5, 0.1, 7);
        let _ = bank.row(0);
    }
}
