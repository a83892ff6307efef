//! Offline stand-in for `rand_chacha`: a real ChaCha8 keystream generator
//! implementing the rand shim's [`RngCore`]/[`SeedableRng`].
//!
//! The full ChaCha quarter-round core is implemented (8 double-rounds), so
//! stream quality matches the real crate; the exact output bits differ from
//! it (rand_chacha's word order is not replicated).  These streams are
//! frozen: every golden dump and report digest in the workspace pins their
//! bits, so a change to the keystream, the seed expansion or the word order
//! re-pins all of them.

use rand::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646E, 0x7962_2D32, 0x6B20_6574];

/// ChaCha with 8 rounds, keyed by a 256-bit seed.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12..14).
    counter: u64,
    /// Buffered keystream block.
    buffer: [u32; 16],
    /// Next unread word in `buffer` (16 = exhausted).
    index: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;

        let mut working = state;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds of column + diagonal quarter-rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, s)) in self.buffer.iter_mut().zip(working.iter().zip(state.iter())) {
            *out = w.wrapping_add(*s);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    /// Moves the generator to `word_offset` 32-bit words from the start of
    /// its stream, as the real crate's method of that name does: the next
    /// word read is the one a fresh generator would return after skipping
    /// `word_offset` words.  Only the block holding the offset is computed.
    /// Like the real crate, the position wraps at the stream's period of
    /// 2^68 words (a 64-bit block counter of 16-word blocks).
    pub fn set_word_pos(&mut self, word_offset: u128) {
        self.counter = (word_offset / 16) as u64;
        self.index = 16;
        let within = (word_offset % 16) as usize;
        if within > 0 {
            self.refill();
            self.index = within;
        }
    }
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("chunk of 4"));
        }
        Self {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        // Two buffered words: read both with one bounds check.  At a block
        // boundary fall back to two `next_u32` calls, which refill between
        // the low and the high word exactly where the stream would.
        if let Some(&[lo, hi]) = self.buffer.get(self.index..self.index + 2) {
            self.index += 2;
            return (u64::from(hi) << 32) | u64::from(lo);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn words_look_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ones = 0u32;
        const DRAWS: u32 = 2000;
        for _ in 0..DRAWS {
            ones += rng.next_u32().count_ones();
        }
        let mean_bits = f64::from(ones) / f64::from(DRAWS);
        assert!((mean_bits - 16.0).abs() < 0.5, "mean set bits {mean_bits}");
    }

    #[test]
    fn next_u64_is_two_next_u32_words_from_every_offset() {
        for offset in 0..16 {
            let mut wide = ChaCha8Rng::seed_from_u64(11);
            let mut narrow = wide.clone();
            for _ in 0..offset {
                assert_eq!(wide.next_u32(), narrow.next_u32());
            }
            // 40 draws cross five block refills from every offset.
            for draw in 0..40 {
                let lo = u64::from(narrow.next_u32());
                let hi = u64::from(narrow.next_u32());
                assert_eq!(
                    wide.next_u64(),
                    lo | hi << 32,
                    "offset {offset} draw {draw}"
                );
            }
        }
    }

    #[test]
    fn set_word_pos_skips_exactly_that_many_words() {
        let offsets = (0..=40u128).chain([2_048, 8_191]);
        for offset in offsets {
            let mut skipped = ChaCha8Rng::seed_from_u64(23);
            for _ in 0..offset {
                skipped.next_u32();
            }
            let mut moved = ChaCha8Rng::seed_from_u64(23);
            // Read past the target first: the move must not depend on where
            // the generator was.
            moved.next_u64();
            moved.set_word_pos(offset);
            // Mixed reads cross several block refills, and a `next_u64` read
            // straddles a block boundary from every odd offset.
            for draw in 0..40 {
                if draw % 3 == 0 {
                    assert_eq!(
                        moved.next_u32(),
                        skipped.next_u32(),
                        "offset {offset} draw {draw}"
                    );
                } else {
                    assert_eq!(
                        moved.next_u64(),
                        skipped.next_u64(),
                        "offset {offset} draw {draw}"
                    );
                }
            }
        }
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
