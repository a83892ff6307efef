//! Properties of [`LatencySketch`], the bounded quantile structure behind
//! every latency figure in a [`ServeReport`]:
//!
//! * merging is associative and commutative, and the merged bytes are
//!   independent of the shard order — the fleet/global layers merge shard
//!   accumulators in whatever grouping their topology dictates;
//! * sketch percentiles stay within the documented one-sided error of the
//!   exact nearest-rank percentile: `exact <= sketch <= exact * 33/32`
//!   (exact below 64 cycles), with the maximum reported exactly;
//! * the count array, which ends at the highest occupied bucket, reads
//!   exactly like the fixed 1920-bucket array it replaced ([`FixedSketch`]).

use proptest::prelude::*;
use serde::{Serialize, Value};

use aim_serve::report::percentile_sorted;
use aim_serve::LatencySketch;

fn sketch_of(values: &[u64]) -> LatencySketch {
    let mut s = LatencySketch::new();
    for &v in values {
        s.record(v);
    }
    s
}

fn json(s: &LatencySketch) -> String {
    serde_json::to_string(s).expect("serializable")
}

proptest! {
    /// Any shard order, any merge grouping: same bytes.
    #[test]
    fn merge_is_associative_commutative_and_order_free(
        shards in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..40),
            2..6,
        ),
        rotate in any::<usize>(),
    ) {
        // Left fold in shard order.
        let mut left = LatencySketch::new();
        for shard in &shards {
            left.merge(&sketch_of(shard));
        }

        // Right fold (associativity).
        let mut right = LatencySketch::new();
        for shard in shards.iter().rev() {
            let mut tail = sketch_of(shard);
            tail.merge(&right);
            right = tail;
        }

        // Rotated shard order (commutativity / order freedom).
        let pivot = rotate % shards.len();
        let mut rotated = LatencySketch::new();
        for shard in shards[pivot..].iter().chain(&shards[..pivot]) {
            rotated.merge(&sketch_of(shard));
        }

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(&left, &rotated);
        prop_assert_eq!(json(&left), json(&right));
        prop_assert_eq!(json(&left), json(&rotated));

        // The merged sketch is the pooled sketch.
        let pooled: Vec<u64> = shards.concat();
        prop_assert_eq!(&left, &sketch_of(&pooled));
    }
}

proptest! {
    /// Sketch percentiles bracket the exact nearest-rank value from above,
    /// within the documented `1/32` relative error, at every quantile.
    #[test]
    fn percentiles_stay_within_the_documented_error(
        values in proptest::collection::vec(0u64..1 << 48, 1..200),
        quantile_ppm in 0u32..1_000_001,
    ) {
        let sketch = sketch_of(&values);
        let mut values = values;
        values.sort_unstable();
        let q = f64::from(quantile_ppm) / 1e6;

        let exact = percentile_sorted(&values, q);
        let approx = sketch.percentile(q);
        prop_assert!(approx >= exact, "sketch must bound from above: {approx} < {exact}");
        prop_assert!(
            (approx - exact) * LatencySketch::ERROR_DENOM <= exact,
            "error beyond 1/{}: exact {exact}, sketch {approx}",
            LatencySketch::ERROR_DENOM,
        );
        if exact < 64 {
            // Values below 64 land in width-1 buckets: tracked exactly.
            prop_assert_eq!(approx, exact);
        }
        prop_assert_eq!(sketch.percentile(1.0), *values.last().unwrap());
        prop_assert_eq!(sketch.max(), *values.last().unwrap());
    }
}

/// The sketch as it was stored before its count array was trimmed: all 1920
/// buckets (32 exact ones, then 32 per octave up to `u64::MAX`), always.
/// The oracle of [`LatencySketch`].
struct FixedSketch {
    count: u64,
    max: u64,
    counts: Vec<u64>,
}

impl FixedSketch {
    const BUCKETS: usize = 32 * (1 + 59);

    fn new() -> Self {
        Self {
            count: 0,
            max: 0,
            counts: vec![0; Self::BUCKETS],
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < 32 {
            return value as usize;
        }
        let octave = (63 - value.leading_zeros() - 5) as usize;
        32 + octave * 32 + ((value >> octave) as usize - 32)
    }

    fn bucket_upper(index: usize) -> u64 {
        if index < 32 {
            return index as u64;
        }
        let (octave, sub) = ((index - 32) / 32, ((index - 32) % 32) as u64);
        ((32 + sub) << octave) + ((1u64 << octave) - 1)
    }

    fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The nearest rank of `q` among `count` samples is the exact
        // percentile of the ranks themselves.
        let ranks: Vec<u64> = (1..=self.count).collect();
        let rank = percentile_sorted(&ranks, q);
        let mut cumulative = 0;
        for (index, &n) in self.counts.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_upper(index).min(self.max);
            }
        }
        self.max
    }
}

/// A sample value from a raw draw: 0, 63, 64, `u64::MAX`, `2^k - 1`,
/// `2^k`, `2^k + 1` or a value of random magnitude, by `pick`.
fn edge_value(pick: u8, raw: u64) -> u64 {
    let k = (raw % 64) as u32;
    match pick % 8 {
        0 => [0, 63, 64, u64::MAX][(raw % 4) as usize],
        1 => (1u64 << k) - 1,
        2 => 1u64 << k,
        3 => (1u64 << k) + 1,
        _ => raw >> k,
    }
}

/// The sketch's bucket counts, read through its serialized form.
fn serialized_counts(sketch: &LatencySketch) -> Vec<u64> {
    let Value::Object(fields) = sketch.to_value() else {
        panic!("a sketch serializes as an object");
    };
    let counts = fields
        .into_iter()
        .find_map(|(key, value)| (key == "counts").then_some(value));
    let Some(Value::Array(counts)) = counts else {
        panic!("a sketch serializes its counts as an array");
    };
    counts
        .into_iter()
        .map(|count| match count {
            Value::UInt(n) => n,
            other => panic!("bucket count {other:?} is not a u64"),
        })
        .collect()
}

proptest! {
    /// Recorded into shards and merged in a random order and grouping, the
    /// sketch reads exactly as the fixed-array oracle does, and its count
    /// array is the oracle's with the unoccupied tail cut off.
    #[test]
    fn sketch_matches_the_fixed_bucket_oracle(
        shards in proptest::collection::vec(
            proptest::collection::vec(any::<(u8, u64)>(), 0..30),
            1..6,
        ),
        order_keys in proptest::collection::vec(any::<u64>(), 6..7),
        split in any::<usize>(),
        quantile_ppm in 1u32..1_000_001,
    ) {
        let mut sketches = Vec::new();
        let mut oracles = Vec::new();
        for shard in &shards {
            let mut sketch = LatencySketch::new();
            let mut oracle = FixedSketch::new();
            for &(pick, raw) in shard {
                let value = edge_value(pick, raw);
                sketch.record(value);
                oracle.record(value);
            }
            sketches.push(sketch);
            oracles.push(oracle);
        }

        // A random shard order, folded as two partial merges joined at a
        // random split.
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by_key(|&i| order_keys[i]);
        let (front, back) = order.split_at(split % (order.len() + 1));
        let fold = |part: &[usize]| {
            let mut merged = LatencySketch::new();
            for &i in part {
                merged.merge(&sketches[i]);
            }
            merged
        };
        let mut sketch = fold(back);
        let mut joined = fold(front);
        joined.merge(&sketch);
        sketch = joined;
        let mut oracle = FixedSketch::new();
        for &i in &order {
            oracle.merge(&oracles[i]);
        }

        prop_assert_eq!(sketch.count(), oracle.count);
        prop_assert_eq!(sketch.max(), oracle.max);
        let random_q = f64::from(quantile_ppm) / 1e6;
        for q in [0.5, 0.95, 0.99, 1.0, random_q] {
            prop_assert_eq!(sketch.percentile(q), oracle.percentile(q));
        }

        let counts = serialized_counts(&sketch);
        prop_assert!(
            counts.last().is_none_or(|&n| n > 0),
            "the count array ends at an empty bucket: {counts:?}"
        );
        let occupied = oracle.counts.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
        prop_assert_eq!(&counts[..], &oracle.counts[..occupied]);
    }
}
