//! Two's-complement Hamming utilities and the interpolated HR of Eq. 5.
//!
//! The Hamming Rate (HR) of a set of quantized weights is the fraction of
//! 1-bits among all stored bits (Eq. 3 of the paper); it upper-bounds the
//! instantaneous toggle rate `Rtog` of a PIM bank (Eq. 4) because a stored
//! 0-bit can never contribute a toggle on the partial-product wire.
//!
//! HR of an integer is not differentiable, so the LHR regularizer relies on
//! the *interpolated* HR of a floating-point weight (Eq. 5): linear
//! interpolation between the HR of the two integers adjacent to `w / s`.
//! The gradient of that interpolation is the slope of the segment, which is
//! what pulls weights towards local HR minima during training.

use serde::{Deserialize, Serialize};

/// Number of 1-bits in the two's-complement representation of `v` using
/// `bits` bits (`bits` in 2..=8).
///
/// # Panics
///
/// Panics if `bits` is outside `2..=8` or `v` is not representable.
#[must_use]
pub fn hamming_value(v: i32, bits: u32) -> u32 {
    assert!((2..=8).contains(&bits), "bits must be in 2..=8, got {bits}");
    let min = -(1i32 << (bits - 1));
    let max = (1i32 << (bits - 1)) - 1;
    assert!(
        (min..=max).contains(&v),
        "value {v} not representable in {bits}-bit two's complement"
    );
    let mask = (1u32 << bits) - 1;
    ((v as u32) & mask).count_ones()
}

/// Hamming value (total number of 1-bits) of an INT8 slice.
///
/// Weights are packed eight at a time into a `u64` word so one `popcount`
/// instruction counts 64 stored bits; the scalar per-byte path only handles
/// the trailing `len % 8` weights.
#[must_use]
pub fn hamming_value_i8(weights: &[i8]) -> u64 {
    let mut ones = 0u64;
    let mut chunks = weights.chunks_exact(8);
    for chunk in &mut chunks {
        let mut bytes = [0u8; 8];
        for (b, &w) in bytes.iter_mut().zip(chunk) {
            *b = w as u8;
        }
        ones += u64::from(u64::from_le_bytes(bytes).count_ones());
    }
    ones + hamming_value_i8_scalar(chunks.remainder())
}

/// Reference per-`i8` implementation of [`hamming_value_i8`], kept for the
/// remainder path and as the baseline the packed kernel is benchmarked and
/// tested against.
#[must_use]
pub fn hamming_value_i8_scalar(weights: &[i8]) -> u64 {
    weights
        .iter()
        .map(|&w| u64::from((w as u8).count_ones()))
        .sum()
}

/// Hamming rate of an INT8 slice: 1-bits divided by total bits (Eq. 3).
/// Returns 0 for an empty slice.
#[must_use]
pub fn hamming_rate_i8(weights: &[i8]) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    hamming_value_i8(weights) as f64 / (weights.len() as f64 * 8.0)
}

/// Hamming rate of a slice interpreted at an arbitrary precision
/// (e.g. INT4 values stored in `i8`).
///
/// # Panics
///
/// Panics if any value is not representable at that precision.
#[must_use]
pub fn hamming_rate(weights: &[i8], bits: u32) -> f64 {
    if weights.is_empty() {
        return 0.0;
    }
    if bits == 8 {
        // Every i8 is representable at 8 bits: take the packed-popcount path.
        return hamming_value_i8(weights) as f64 / (weights.len() as f64 * 8.0);
    }
    let ones: u64 = weights
        .iter()
        .map(|&w| u64::from(hamming_value(i32::from(w), bits)))
        .sum();
    ones as f64 / (weights.len() as f64 * f64::from(bits))
}

/// Per-integer HR lookup table for a given precision.
///
/// `table[i]` is the HR (in `[0, 1]`) of the integer `i + min_value`, i.e.
/// the table is indexed from the most negative representable value upward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HrTable {
    bits: u32,
    values: Vec<f64>,
}

impl HrTable {
    /// Builds the table for `bits`-bit two's complement.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8");
        let min = -(1i32 << (bits - 1));
        let max = (1i32 << (bits - 1)) - 1;
        let values = (min..=max)
            .map(|v| f64::from(hamming_value(v, bits)) / f64::from(bits))
            .collect();
        Self { bits, values }
    }

    /// Precision of the table in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Most negative representable integer.
    #[must_use]
    pub fn min_value(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Most positive representable integer.
    #[must_use]
    pub fn max_value(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// HR of an integer, clamping out-of-range values to the nearest
    /// representable integer (matching the quantizer's clamping behaviour).
    #[must_use]
    pub fn hr(&self, v: i32) -> f64 {
        let clamped = v.clamp(self.min_value(), self.max_value());
        self.values[(clamped - self.min_value()) as usize]
    }

    /// Integers that are local minima of the HR function (lower HR than both
    /// neighbours, with ties counting as minima).  These are the attractors
    /// LHR pulls weights towards (0, ±8, ±16 … for INT8).
    #[must_use]
    pub fn local_minima(&self) -> Vec<i32> {
        let mut out = Vec::new();
        for v in self.min_value()..=self.max_value() {
            let here = self.hr(v);
            let left = if v == self.min_value() {
                f64::INFINITY
            } else {
                self.hr(v - 1)
            };
            let right = if v == self.max_value() {
                f64::INFINITY
            } else {
                self.hr(v + 1)
            };
            if here <= left && here <= right {
                out.push(v);
            }
        }
        out
    }
}

/// Result of evaluating the interpolated HR of a floating-point weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterpolatedHr {
    /// Interpolated HR value in `[0, 1]`.
    pub value: f64,
    /// Gradient of the interpolated HR with respect to the *float* weight
    /// (i.e. already divided by the quantization scale).
    pub gradient: f64,
}

/// Lattice cell of the coordinate `x = w / s`: `⌊x⌋`, and whether `x` sits
/// on a lattice point (`⌊x⌋ == ⌈x⌉`, where Eq. 5's gradient is 0).
///
/// Below 2⁵², where every integer is an exact `f64`, a truncating cast and
/// a one-step correction give both: the default x86-64 target has no
/// SSE4.1 `roundsd`, so `floor` and `ceil` are soft-float calls there.
/// Every finite `x` with `|x| ≥ 2⁵²` is an integer, its own floor and
/// ceiling, and a non-finite `x` is returned as is by both, so those take
/// `(x, x.is_finite())`.  Either way the result equals `(x.floor(),
/// (x.floor() - x.ceil()).abs() < f64::EPSILON)` bit for bit.
#[inline]
#[must_use]
pub(crate) fn lattice_cell(x: f64) -> (f64, bool) {
    const INTEGRAL: f64 = 4_503_599_627_370_496.0; // 2^52
    if x.abs() < INTEGRAL {
        let truncated = (x as i64) as f64;
        // Truncation rounds a negative non-integer up, so step down one;
        // the sign of `x` restores −0.0, its own floor.  Both are
        // arithmetic rather than branches on the sign of `x`.
        let low = (truncated - f64::from(u8::from(x < truncated))).copysign(x);
        return (low, truncated == x);
    }
    (x, x.is_finite())
}

/// Interpolated HR of a floating-point weight `w` under scale `s` (Eq. 5).
///
/// `low = ⌊w/s⌋`, `high = ⌈w/s⌉`, `p = w/s − low`, and
/// `HR(w) = (1−p)·HR[low] + p·HR[high]`.  The gradient is the segment slope
/// `(HR[high] − HR[low]) / s`; at exact integers the gradient is defined as 0
/// (the weight already sits on a lattice point).
///
/// # Panics
///
/// Panics if `scale` is not strictly positive.
#[must_use]
pub fn interpolated_hr(w: f64, scale: f64, table: &HrTable) -> InterpolatedHr {
    assert!(scale > 0.0, "quantization scale must be positive");
    let x = w / scale;
    let (low, on_lattice) = lattice_cell(x);
    if on_lattice {
        return InterpolatedHr {
            value: table.hr(low as i32),
            gradient: 0.0,
        };
    }
    let p = x - low;
    let hr_low = table.hr(low as i32);
    let hr_high = table.hr((low + 1.0) as i32);
    InterpolatedHr {
        value: (1.0 - p) * hr_low + p * hr_high,
        gradient: (hr_high - hr_low) / scale,
    }
}

/// Gradient (per float unit) of a *box-smoothed* interpolated HR.
///
/// The exact interpolated HR of Eq. 5 only sees the two integers adjacent to
/// the weight, so a deterministic full-batch optimiser can never carry a
/// weight across a lattice point where the HR is locally flat.  Real QAT runs
/// do cross such points because stochastic task gradients jitter the weights
/// between steps.  To recover that basin-hopping ability without stochastic
/// noise, the training loop may use the gradient of the smoothed landscape
/// `S(w) = mean_{k=-R..R} HR_interp(w + k·s)`, whose minima coincide with the
/// wide low-HR basins (0, ±8, ±16 …) the paper's Fig. 7 shows the weights
/// concentrating in.  `radius_lsb = 0` degenerates to the exact Eq. 5 slope.
///
/// # Panics
///
/// Panics if `scale` is not strictly positive.
#[must_use]
pub fn smoothed_hr_gradient(w: f64, scale: f64, table: &HrTable, radius_lsb: u32) -> f64 {
    assert!(scale > 0.0, "quantization scale must be positive");
    let r = i64::from(radius_lsb);
    let mut sum = 0.0;
    for k in -r..=r {
        sum += interpolated_hr(w + k as f64 * scale, scale, table).gradient;
    }
    sum / (2 * r + 1) as f64
}

/// Precomputed lookup for [`smoothed_hr_gradient`] at a fixed scale and
/// radius, and for the interpolated HR of Eq. 5 under the same table.
///
/// The gradient of the interpolated HR (Eq. 5) is piecewise constant on each
/// lattice cell `[q·s, (q+1)·s)`, so the box-smoothed gradient is too: it
/// only depends on `q = ⌊w/s⌋`.  Precomputing one slope per cell turns the
/// `2·radius + 1` interpolations per weight of the training hot loop into a
/// single table lookup.  At exact lattice points the gradient is 0, matching
/// [`interpolated_hr`]; the slope table ends with one extra zero-slope entry
/// that [`Self::locate`] points on-lattice weights at.  Each cell also keeps
/// the HR at both of its ends, so one lookup gives a weight's interpolated
/// HR and its slope entry.
#[derive(Debug, Clone)]
pub struct SmoothedHrSlopes {
    scale: f64,
    /// Cell `q`, indexed by `q - q_min`.
    cells: Vec<CellHr>,
    q_min: i64,
}

/// One lattice cell `[q, q + 1)`: the HR at both ends (clamped to the
/// representable range, as [`HrTable::hr`] does) and the smoothed slope.
#[derive(Debug, Clone, Copy)]
struct CellHr {
    hr_low: f64,
    hr_high: f64,
    /// Smoothed slope, per float unit.
    slope: f64,
}

impl SmoothedHrSlopes {
    /// Builds the per-cell table.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive, or if the radius makes
    /// the table too large for a `u32` entry index.
    #[must_use]
    pub fn new(table: &HrTable, scale: f64, radius_lsb: u32) -> Self {
        assert!(scale > 0.0, "quantization scale must be positive");
        let r = i64::from(radius_lsb);
        let hr = |cell: i64| table.hr(cell.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32);
        // Outside [min - r - 1, max + r] every contributing cell is clamped
        // flat, so its smoothed slope is exactly 0, and both ends of the
        // cell have the HR of the nearest representable integer — as the
        // end cells of the table do.
        let q_min = i64::from(table.min_value()) - r - 1;
        let q_max = i64::from(table.max_value()) + r;
        // `locate` numbers the cells and the trailing zero-slope entry
        // with a `u32`.
        assert!(
            q_max - q_min < i64::from(u32::MAX),
            "a smoothing radius of {radius_lsb} LSB overflows the slope table's u32 index"
        );
        let cells = (q_min..=q_max)
            .map(|q| {
                let mut sum = 0.0;
                for k in -r..=r {
                    sum += (hr(q + k + 1) - hr(q + k)) / scale;
                }
                CellHr {
                    hr_low: hr(q),
                    hr_high: hr(q + 1),
                    slope: sum / (2 * r + 1) as f64,
                }
            })
            .collect();
        Self {
            scale,
            cells,
            q_min,
        }
    }

    /// Smoothed gradient at `w` (per float unit), via one table lookup.
    #[must_use]
    pub fn gradient(&self, w: f64) -> f64 {
        let (low, on_lattice) = lattice_cell(w / self.scale);
        if on_lattice {
            // Exact lattice point: Eq. 5 defines the gradient as 0.
            return 0.0;
        }
        self.cells[self.cell_index(low)].slope
    }

    /// The slope of every entry [`Self::locate`] can return, in entry
    /// order: one per cell, then the zero slope of the lattice points.
    pub(crate) fn entry_slopes(&self) -> impl Iterator<Item = f64> + '_ {
        self.cells
            .iter()
            .map(|cell| cell.slope)
            .chain(std::iter::once(0.0))
    }

    /// Interpolated HR (Eq. 5) at the lattice coordinate `x = w / s` under
    /// the table this lookup was built from, and the entry of
    /// [`Self::entry_slopes`] holding the smoothed gradient at `w`: the HR
    /// equals `interpolated_hr(w, scale, table).value` and the entry's
    /// slope equals `self.gradient(w)`, bit for bit.
    ///
    /// There is no branch on the lattice test: on a lattice point `p` is
    /// +0, so the interpolation returns the cell's `hr_low` exactly.
    #[inline]
    #[must_use]
    pub(crate) fn locate(&self, x: f64) -> (u32, f64) {
        let (low, on_lattice) = lattice_cell(x);
        let index = self.cell_index(low);
        let cell = self.cells[index];
        let p = x - low;
        let hr = (1.0 - p) * cell.hr_low + p * cell.hr_high;
        let entry = if on_lattice { self.cells.len() } else { index };
        // `new` asserts that every entry fits a `u32`.
        (entry as u32, hr)
    }

    /// Index of the cell `⌊x⌋ = low`, clamped to the table.
    #[inline]
    fn cell_index(&self, low: f64) -> usize {
        let last = self.q_min + self.cells.len() as i64 - 1;
        ((low as i64).clamp(self.q_min, last) - self.q_min) as usize
    }
}

/// Mean interpolated HR of a float slice together with its per-element
/// gradients (used by the LHR loss).
///
/// # Panics
///
/// Panics if `scale` is not strictly positive.
#[must_use]
pub fn layer_interpolated_hr(weights: &[f32], scale: f64, table: &HrTable) -> (f64, Vec<f64>) {
    if weights.is_empty() {
        return (0.0, Vec::new());
    }
    let n = weights.len() as f64;
    let mut sum = 0.0;
    let mut grads = Vec::with_capacity(weights.len());
    for &w in weights {
        let h = interpolated_hr(f64::from(w), scale, table);
        sum += h.value;
        grads.push(h.gradient / n);
    }
    (sum / n, grads)
}

/// The `floor`/`ceil` formulations [`lattice_cell`] replaced, kept as test
/// oracles for the interpolated HR and the slope-table lookup.
#[cfg(test)]
pub(crate) mod floor_reference {
    use super::{HrTable, InterpolatedHr, SmoothedHrSlopes};

    /// [`super::interpolated_hr`] with the cell from `floor`/`ceil`.
    pub(crate) fn interpolated_hr(w: f64, scale: f64, table: &HrTable) -> InterpolatedHr {
        let x = w / scale;
        let low = x.floor();
        let high = x.ceil();
        if (low - high).abs() < f64::EPSILON {
            return InterpolatedHr {
                value: table.hr(low as i32),
                gradient: 0.0,
            };
        }
        let p = x - low;
        let hr_low = table.hr(low as i32);
        let hr_high = table.hr(high as i32);
        InterpolatedHr {
            value: (1.0 - p) * hr_low + p * hr_high,
            gradient: (hr_high - hr_low) / scale,
        }
    }

    /// [`SmoothedHrSlopes::gradient`] with the cell from `floor`/`ceil`.
    pub(crate) fn gradient(slopes: &SmoothedHrSlopes, w: f64) -> f64 {
        let x = w / slopes.scale;
        let low = x.floor();
        if (low - x.ceil()).abs() < f64::EPSILON {
            return 0.0;
        }
        let idx = (low as i64).clamp(slopes.q_min, slopes.q_min + slopes.cells.len() as i64 - 1)
            - slopes.q_min;
        slopes.cells[idx as usize].slope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_value_matches_twos_complement() {
        assert_eq!(hamming_value(0, 8), 0);
        assert_eq!(hamming_value(8, 8), 1);
        assert_eq!(hamming_value(-8, 8), 5); // 1111_1000
        assert_eq!(hamming_value(-1, 8), 8); // 1111_1111
        assert_eq!(hamming_value(127, 8), 7);
        assert_eq!(hamming_value(-128, 8), 1); // 1000_0000
        assert_eq!(hamming_value(-1, 4), 4); // 1111
        assert_eq!(hamming_value(7, 4), 3);
    }

    #[test]
    #[should_panic(expected = "not representable")]
    fn out_of_range_value_panics() {
        let _ = hamming_value(8, 4);
    }

    #[test]
    fn hamming_rate_i8_of_known_patterns() {
        assert_eq!(hamming_rate_i8(&[]), 0.0);
        assert_eq!(hamming_rate_i8(&[0, 0, 0]), 0.0);
        assert_eq!(hamming_rate_i8(&[-1, -1]), 1.0);
        // 0x0F and 0xF0 patterns: exactly half the bits set.
        assert_eq!(hamming_rate_i8(&[15, 15]), 0.5);
    }

    #[test]
    fn small_negatives_have_high_hr_small_positives_low_hr() {
        // The asymmetry WDS exploits: |w| small and negative ⇒ many 1s.
        for w in 1i8..=7 {
            let pos = hamming_rate_i8(&[w]);
            let neg = hamming_rate_i8(&[-w]);
            assert!(neg > pos, "HR(-{w}) should exceed HR({w})");
        }
    }

    #[test]
    fn int8_table_minima_include_the_papers_attractors() {
        let table = HrTable::new(8);
        let minima = table.local_minima();
        for attractor in [-8, 0, 8, 16] {
            assert!(
                minima.contains(&attractor),
                "{attractor} should be a local HR minimum"
            );
        }
        // Small negative odd values are never minima.
        assert!(!minima.contains(&-3));
    }

    #[test]
    fn table_clamps_out_of_range_queries() {
        let table = HrTable::new(8);
        assert_eq!(table.hr(300), table.hr(127));
        assert_eq!(table.hr(-300), table.hr(-128));
    }

    #[test]
    fn interpolated_hr_matches_paper_examples() {
        // Paper Fig. 7-(b): HR(-0.62) = 0.62 and HR(6.4) = 0.3, each with a
        // segment slope of magnitude 1 and 0.125 respectively.  The paper
        // quotes the slopes as descent directions; here `gradient` is the
        // true derivative dHR/dw, so the signs are flipped relative to the
        // figure caption but the descent behaviour is identical.
        let table = HrTable::new(8);
        let a = interpolated_hr(-0.62, 1.0, &table);
        assert!((a.value - 0.62).abs() < 1e-9, "value {}", a.value);
        assert!(
            (a.gradient.abs() - 1.0).abs() < 1e-9,
            "gradient {}",
            a.gradient
        );
        assert!(a.gradient < 0.0, "HR falls as the weight moves towards 0");
        let b = interpolated_hr(6.4, 1.0, &table);
        assert!((b.value - 0.3).abs() < 1e-9, "value {}", b.value);
        assert!(
            (b.gradient.abs() - 0.125).abs() < 1e-9,
            "gradient {}",
            b.gradient
        );
        assert!(b.gradient > 0.0, "HR falls as the weight moves towards 6");
    }

    #[test]
    fn interpolated_hr_at_integers_has_zero_gradient() {
        let table = HrTable::new(8);
        let h = interpolated_hr(8.0, 1.0, &table);
        assert_eq!(h.gradient, 0.0);
        assert!((h.value - 0.125).abs() < 1e-12);
    }

    #[test]
    fn interpolated_hr_scales_with_quant_scale() {
        let table = HrTable::new(8);
        // Same lattice position, different scale: value equal, gradient scaled.
        let a = interpolated_hr(0.31, 0.5, &table);
        let b = interpolated_hr(0.62, 1.0, &table);
        assert!((a.value - b.value).abs() < 1e-9);
        assert!((a.gradient - 2.0 * b.gradient).abs() < 1e-9);
    }

    #[test]
    fn gradient_descends_towards_local_minimum() {
        // Starting between -1 (HR 1.0) and 0 (HR 0.0), following the negative
        // gradient must move the weight towards 0.
        let table = HrTable::new(8);
        let mut w = -0.4f64;
        for _ in 0..100 {
            let h = interpolated_hr(w, 1.0, &table);
            w -= 0.01 * h.gradient;
        }
        assert!(w > -0.4, "weight should have moved towards 0, got {w}");
        let final_hr = interpolated_hr(w, 1.0, &table).value;
        assert!(final_hr < 0.4);
    }

    #[test]
    fn smoothed_gradient_with_zero_radius_matches_eq5() {
        let table = HrTable::new(8);
        for w in [-3.4f64, -0.62, 2.1, 6.4] {
            let exact = interpolated_hr(w, 1.0, &table).gradient;
            let smoothed = smoothed_hr_gradient(w, 1.0, &table, 0);
            assert!((exact - smoothed).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothed_gradient_sees_across_flat_segments() {
        // Between -3 and -2 the exact HR is flat (both have 7 one-bits), so
        // Eq. 5 gives zero gradient; the smoothed landscape still points
        // towards the wide basin at 0.
        let table = HrTable::new(8);
        let exact = interpolated_hr(-2.5, 1.0, &table).gradient;
        assert_eq!(exact, 0.0);
        let smoothed = smoothed_hr_gradient(-2.5, 1.0, &table, 4);
        assert!(
            smoothed < 0.0,
            "smoothed gradient should pull -2.5 towards 0, got {smoothed}"
        );
    }

    #[test]
    fn smoothed_gradient_descent_reaches_a_wide_basin() {
        let table = HrTable::new(8);
        let mut w = -5.3f64;
        for _ in 0..1500 {
            w -= 0.2 * smoothed_hr_gradient(w, 1.0, &table, 4);
        }
        let hr = table.hr(w.round() as i32);
        assert!(
            hr <= 0.625,
            "weight should have reached a low-HR basin, ended at {w} (HR {hr})"
        );
    }

    #[test]
    fn packed_popcount_matches_scalar_reference() {
        // Lengths around the 8-weight chunk boundary, including remainders.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 65, 1000] {
            let weights: Vec<i8> = (0..len)
                .map(|i| ((i * 37 + 11) % 256) as u8 as i8)
                .collect();
            assert_eq!(
                hamming_value_i8(&weights),
                hamming_value_i8_scalar(&weights),
                "len {len}"
            );
        }
    }

    #[test]
    fn slope_table_matches_smoothed_gradient() {
        let table = HrTable::new(8);
        for radius in [0u32, 1, 4] {
            for scale in [1.0, 0.043] {
                let slopes = SmoothedHrSlopes::new(&table, scale, radius);
                for i in -4000..4000 {
                    // Sweep across and beyond the INT8 range, off-lattice.
                    let w = (f64::from(i) / 13.0 + 0.21) * scale;
                    let expected = smoothed_hr_gradient(w, scale, &table, radius);
                    let got = slopes.gradient(w);
                    assert!(
                        (expected - got).abs() < 1e-12,
                        "radius {radius} scale {scale} w {w}: {expected} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn slope_table_is_zero_at_lattice_points_and_far_outside() {
        let table = HrTable::new(8);
        let slopes = SmoothedHrSlopes::new(&table, 1.0, 4);
        assert_eq!(slopes.gradient(8.0), 0.0);
        assert_eq!(slopes.gradient(-3.0), 0.0);
        assert_eq!(slopes.gradient(400.5), 0.0);
        assert_eq!(slopes.gradient(-400.5), 0.0);
    }

    /// Coordinates where a cell computation can go wrong: signed zeros,
    /// integers, one ulp either side of them, both sides of 2⁵², and the
    /// non-finite values.
    fn edge_coordinates() -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            0.5,
            -0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
            f64::MIN,
        ];
        let two_52 = 4_503_599_627_370_496.0f64;
        for k in [1.0, 3.0, 8.0, 127.0, 128.0, 1e6, two_52, 2.0 * two_52] {
            for v in [k, -k] {
                xs.extend([v, v.next_up(), v.next_down()]);
            }
        }
        xs
    }

    #[test]
    fn lattice_cell_matches_floor_and_ceil() {
        for x in edge_coordinates() {
            let (low, on_lattice) = lattice_cell(x);
            let floor = x.floor();
            assert_eq!(low.to_bits(), floor.to_bits(), "floor of {x:e}");
            assert_eq!(
                on_lattice,
                (floor - x.ceil()).abs() < f64::EPSILON,
                "lattice test of {x:e}"
            );
        }
    }

    #[test]
    fn cell_lookups_match_the_floor_formulation() {
        let table = HrTable::new(8);
        for scale in [1.0, 0.043] {
            let slopes = SmoothedHrSlopes::new(&table, scale, 4);
            for x in edge_coordinates() {
                let w = x * scale;
                let old = floor_reference::interpolated_hr(w, scale, &table);
                let new = interpolated_hr(w, scale, &table);
                assert_eq!(new.value.to_bits(), old.value.to_bits(), "value at {w:e}");
                assert_eq!(
                    new.gradient.to_bits(),
                    old.gradient.to_bits(),
                    "gradient at {w:e}"
                );
                let slope = floor_reference::gradient(&slopes, w);
                assert_eq!(
                    slopes.gradient(w).to_bits(),
                    slope.to_bits(),
                    "slope at {w:e}"
                );
            }
        }
    }

    #[test]
    fn locate_matches_the_separate_lookups() {
        let table = HrTable::new(8);
        let slopes = SmoothedHrSlopes::new(&table, 0.5, 4);
        let entry_slopes: Vec<f64> = slopes.entry_slopes().collect();
        let weights = (0..257).map(|i| f64::from(i as f32 * 0.37 - 40.0));
        for w in weights.chain(edge_coordinates()) {
            let (entry, value) = slopes.locate(w / 0.5);
            let expected = interpolated_hr(w, 0.5, &table).value;
            assert_eq!(value.to_bits(), expected.to_bits(), "value at {w:e}");
            assert_eq!(
                entry_slopes[entry as usize].to_bits(),
                slopes.gradient(w).to_bits(),
                "slope at {w:e}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "overflows the slope table's u32 index")]
    fn slope_table_rejects_a_radius_its_index_cannot_number() {
        let _ = SmoothedHrSlopes::new(&HrTable::new(8), 1.0, u32::MAX / 2);
    }

    #[test]
    fn layer_interpolated_hr_averages_elementwise_values() {
        let table = HrTable::new(8);
        let weights = [0.0f32, 8.0, -8.0];
        let (mean, grads) = layer_interpolated_hr(&weights, 1.0, &table);
        let expected = (0.0 + 0.125 + 0.625) / 3.0;
        assert!((mean - expected).abs() < 1e-9);
        assert_eq!(grads.len(), 3);
        assert!(
            grads.iter().all(|g| g.abs() < 1e-12),
            "integer weights have zero gradient"
        );
    }

    #[test]
    fn empty_layer_is_well_behaved() {
        let table = HrTable::new(8);
        let (mean, grads) = layer_interpolated_hr(&[], 1.0, &table);
        assert_eq!(mean, 0.0);
        assert!(grads.is_empty());
    }

    #[test]
    fn int4_hamming_rate() {
        // -1 in INT4 = 1111 ⇒ HR 1.0; 1 = 0001 ⇒ HR 0.25.
        assert_eq!(hamming_rate(&[-1], 4), 1.0);
        assert_eq!(hamming_rate(&[1], 4), 0.25);
        assert_eq!(hamming_rate(&[-1, 1], 4), 0.625);
    }
}
