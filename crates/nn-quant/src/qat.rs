//! Quantization-aware training (QAT) loop with optional LHR regularization.
//!
//! The paper's baseline is a standard symmetric QAT recipe; LHR is a single
//! extra loss term added on top (its public integration point is literally
//! one line in a PyTorch training loop).  Reproducing a full vision or
//! language training run is out of scope here, so this module substitutes
//! a dataset-free proxy for the task:
//!
//! * The *task loss* is a **weight-regression proxy**: the fake-quantized
//!   weights should stay close to the original float weights (per-element
//!   squared error).  During real fine-tuning the task gradient likewise
//!   anchors the weights around their pre-trained values; the proxy keeps
//!   exactly that property while being dataset-free.
//! * Gradients flow through the quantizer with a straight-through estimator.
//! * LHR adds `λ · ∂L_HR/∂w` to the update, pulling weights towards local
//!   Hamming minima when doing so costs little task loss.
//!
//! The observable outcomes — how far HR falls and how much the weights move
//! from their baseline — are what the Table 2 / Fig. 12 / Fig. 13
//! experiments consume.

use serde::{Deserialize, Serialize};

use crate::hamming::{HrTable, SmoothedHrSlopes};
use crate::lhr::LhrConfig;
use crate::quant::{QuantScheme, QuantizedLayer};
use crate::tensor::Tensor;

/// Configuration of the QAT loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QatConfig {
    /// Weight precision in bits (8 or 4 in the paper's experiments).
    pub bits: u32,
    /// Number of optimisation epochs (full passes over the weights).  The
    /// loop stops early at the first epoch that moves no weight, since every
    /// later epoch would repeat it.
    pub epochs: usize,
    /// Learning rate of the plain SGD update, expressed in LSB per unit
    /// gradient (the update is scaled by the quantization scale internally).
    pub learning_rate: f64,
    /// Width of the task-loss dead zone in LSB: weight movement below this
    /// distance from the original value incurs no task gradient.  This models
    /// the empirical tolerance of over-parameterised networks to small weight
    /// changes, which is what lets LHR relocate weights in the real training
    /// runs.
    pub anchor_dead_zone_lsb: f64,
    /// Radius (in LSB) of the smoothed-HR gradient used by the regularizer
    /// during training (see [`crate::hamming::smoothed_hr_gradient`]).  Zero
    /// uses the exact Eq. 5 slope; the default of 4 recovers the basin-hopping
    /// behaviour stochastic task gradients provide in a real framework.
    pub lhr_smoothing_radius_lsb: u32,
    /// Optional LHR regularization; `None` reproduces the baseline QAT.
    pub lhr: Option<LhrConfig>,
}

impl QatConfig {
    /// The baseline recipe the paper compares against (no LHR).
    #[must_use]
    pub const fn baseline(bits: u32) -> Self {
        Self {
            bits,
            epochs: 120,
            learning_rate: 0.3,
            anchor_dead_zone_lsb: 4.0,
            lhr_smoothing_radius_lsb: 4,
            lhr: None,
        }
    }

    /// Baseline plus the LHR regularizer at its default strength.
    #[must_use]
    pub const fn with_lhr(bits: u32) -> Self {
        Self {
            bits,
            epochs: 120,
            learning_rate: 0.3,
            anchor_dead_zone_lsb: 4.0,
            lhr_smoothing_radius_lsb: 4,
            lhr: Some(LhrConfig::default_strength()),
        }
    }
}

/// Outcome of running QAT on one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QatOutcome {
    /// The quantized layer after training.
    pub layer: QuantizedLayer,
    /// HR of the layer before training (plain round-to-nearest quantization).
    pub hr_before: f64,
    /// HR of the layer after training.
    pub hr_after: f64,
    /// RMS movement of the float weights relative to the original tensor,
    /// normalised by the original standard deviation (a proxy for how much
    /// the optimisation risked accuracy).
    pub relative_weight_shift: f64,
}

impl QatOutcome {
    /// Relative HR reduction achieved by the run, in `[0, 1]`.
    #[must_use]
    pub fn hr_reduction(&self) -> f64 {
        if self.hr_before <= 0.0 {
            0.0
        } else {
            ((self.hr_before - self.hr_after) / self.hr_before).max(0.0)
        }
    }
}

/// Runs the QAT loop on a single layer of float weights.
///
/// The quantization scale is fitted once from the original tensor and kept
/// fixed, matching per-layer static scaling.
#[must_use]
pub fn train_layer(name: &str, original: &Tensor, config: &QatConfig) -> QatOutcome {
    let scheme = QuantScheme::fit(original, config.bits);
    let trained = train_weights(original.data(), scheme.scale(), config);
    outcome(name, original, scheme, trained)
}

/// The epoch loop: trains a copy of `original` under the fixed `scale` and
/// returns the float weights.
///
/// Both gradient terms are expressed in LSB (lattice) units so that their
/// balance is independent of the layer's quantization scale:
///
/// * task gradient — weight-regression proxy with a dead zone: no pull
///   while the weight stays within `anchor_dead_zone_lsb` of its original
///   value, linear pull back beyond that;
/// * LHR gradient — slope of the interpolated HR (per lattice unit), scaled
///   by λ, pulling towards the nearest low-HR lattice point.
///   ∂(HR²)/∂w = 2·HR·∂HR/∂w, where 2·HR is fixed for the epoch; the
///   smoothed slope is per float unit, so the scale turns it per LSB.
///
/// Each weight carries the entry of its lattice cell's slope in the
/// [`SmoothedHrSlopes`] table (the zero-slope entry on a lattice point;
/// the baseline recipe has the one entry 0), so an epoch first turns the
/// table into each entry's LHR gradient and into the step a weight inside
/// the dead zone takes, and then makes two passes:
///
/// 1. update every weight and write its lattice coordinate `w / s` to a
///    scratch buffer.  A weight inside the dead zone (see
///    [`dead_zone_threshold`]) has a task gradient of exactly +0.0 and
///    takes its entry's step; only one at or past the edge divides.
/// 2. look up each coordinate's interpolated HR and slope entry, summing
///    the HR into the next epoch's mean in index order.
///
/// An epoch reads nothing but the weights (and that mean, which derives
/// from them), so once an epoch moves no weight every later epoch would
/// repeat it: the loop stops there.  The baseline recipe, whose weights
/// start at their anchors inside the dead zone, stops after one epoch.
fn train_weights(original: &[f32], scale: f64, config: &QatConfig) -> Vec<f32> {
    let mut weights = original.to_vec();
    let slopes = config.lhr.map(|cfg| {
        let table = HrTable::new(config.bits);
        let slopes = SmoothedHrSlopes::new(&table, scale, config.lhr_smoothing_radius_lsb);
        (cfg.lambda, slopes)
    });
    let entry_slopes: Vec<f64> = slopes
        .as_ref()
        .map_or_else(|| vec![0.0], |(_, s)| s.entry_slopes().collect());
    let mut reg_grad_lsb = vec![0.0; entry_slopes.len()];
    let mut inside_step = vec![0.0f32; entry_slopes.len()];
    let mut entries = vec![0u32; weights.len()];
    let mut lattice: Vec<f64> = weights.iter().map(|&w| f64::from(w) / scale).collect();
    let mut mean_hr = slopes
        .as_ref()
        .map_or(0.0, |(_, s)| observe(s, &lattice, &mut entries));
    let step = config.learning_rate * scale;
    let dead_zone = config.anchor_dead_zone_lsb;
    let inside = dead_zone_threshold(dead_zone, scale);
    for _ in 0..config.epochs {
        if let Some((lambda, _)) = &slopes {
            let pull = lambda * 2.0 * mean_hr;
            for (reg, slope) in reg_grad_lsb.iter_mut().zip(&entry_slopes) {
                *reg = pull * slope * scale;
            }
        }
        // The update below with a task gradient of +0.0; `0.0 + reg` turns
        // a −0.0 gradient into +0.0 as that sum does.
        for (to, reg) in inside_step.iter_mut().zip(&reg_grad_lsb) {
            *to = (step * (0.0 + reg)) as f32;
        }
        let mut moved = false;
        for (((w, &anchor), &entry), x) in weights
            .iter_mut()
            .zip(original)
            .zip(&entries)
            .zip(&mut lattice)
        {
            let diff = f64::from(*w) - f64::from(anchor);
            let delta = if diff.abs() < inside {
                inside_step[entry as usize]
            } else {
                let displacement_lsb = diff / scale;
                let task_grad_lsb =
                    displacement_lsb - displacement_lsb.clamp(-dead_zone, dead_zone);
                (step * (task_grad_lsb + reg_grad_lsb[entry as usize])) as f32
            };
            let updated = *w - delta;
            moved |= updated.to_bits() != w.to_bits();
            *w = updated;
            *x = f64::from(updated) / scale;
        }
        if !moved {
            break;
        }
        if let Some((_, slopes)) = &slopes {
            mean_hr = observe(slopes, &lattice, &mut entries);
        }
    }
    weights
}

/// The second pass of an epoch: points every weight at its slope entry
/// and returns the mean interpolated HR of the `lattice` coordinates,
/// summed in index order from +0.0.
fn observe(slopes: &SmoothedHrSlopes, lattice: &[f64], entries: &mut [u32]) -> f64 {
    let mut hr_sum = 0.0;
    for (entry, &x) in entries.iter_mut().zip(lattice) {
        let (cell, hr) = slopes.locate(x);
        *entry = cell;
        hr_sum += hr;
    }
    mean(hr_sum, lattice.len())
}

/// Below this distance `|w − anchor|` from its anchor a weight is strictly
/// inside the dead zone and its task gradient `d − d.clamp(−dz, dz)`, with
/// `d = (w − anchor) / s`, is exactly +0.0.
///
/// The bound is `dz·s` shrunk by a relative 1e-9, far more than the
/// rounding error of computing it, so below it `|w − anchor| / s < dz`
/// holds exactly and the rounded quotient `|d|` is at most `dz`.  Where `dz·s` is
/// subnormal the relative argument fails, but there the bound is far below
/// 2⁻¹⁴⁹, the least non-zero difference of two `f32`s, so only `d = ±0`
/// passes.  A zero or NaN dead zone passes nothing.
fn dead_zone_threshold(dead_zone: f64, scale: f64) -> f64 {
    dead_zone * scale * (1.0 - 1e-9)
}

/// Mean of `len` values summing to `sum`; 0 for none.
fn mean(sum: f64, len: usize) -> f64 {
    if len == 0 {
        0.0
    } else {
        sum / len as f64
    }
}

/// Quantizes the trained weights under `scheme` and measures the run.
fn outcome(name: &str, original: &Tensor, scheme: QuantScheme, trained: Vec<f32>) -> QatOutcome {
    let hr_before = QuantizedLayer::from_tensor(name, original, scheme.bits()).hamming_rate();
    let original_std = f64::from(original.std()).max(1e-12);
    let trained = Tensor::from_vec(original.shape().to_vec(), trained);
    let layer = QuantizedLayer {
        name: name.to_string(),
        weights: scheme.quantize_tensor(&trained),
        scheme,
    };
    let hr_after = layer.hamming_rate();
    let relative_weight_shift = f64::from(trained.rms_diff(original)) / original_std;

    QatOutcome {
        layer,
        hr_before,
        hr_after,
        relative_weight_shift,
    }
}

/// Runs QAT over a set of layers, returning one outcome per layer in order.
///
/// Layers are independent (each trains on its own tensor with a
/// deterministic full-batch loop), so they fan out across worker threads;
/// results come back in layer order regardless of the thread count.
#[must_use]
pub fn train_network(layers: &[(String, Tensor)], config: &QatConfig) -> Vec<QatOutcome> {
    use rayon::prelude::*;
    layers
        .par_iter()
        .map(|(name, tensor)| train_layer(name, tensor, config))
        .collect()
}

/// Summary statistics across a network's per-layer outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NetworkHrSummary {
    /// Mean per-layer HR.
    pub hr_average: f64,
    /// Maximum per-layer HR.
    pub hr_max: f64,
    /// Mean relative weight shift across layers.
    pub mean_weight_shift: f64,
}

/// Aggregates per-layer outcomes into the HRaverage / HRmax figures the
/// paper's Table 2 reports.
#[must_use]
pub fn summarize(outcomes: &[QatOutcome]) -> NetworkHrSummary {
    if outcomes.is_empty() {
        return NetworkHrSummary::default();
    }
    let n = outcomes.len() as f64;
    NetworkHrSummary {
        hr_average: outcomes.iter().map(|o| o.hr_after).sum::<f64>() / n,
        hr_max: outcomes.iter().map(|o| o.hr_after).fold(0.0, f64::max),
        mean_weight_shift: outcomes
            .iter()
            .map(|o| o.relative_weight_shift)
            .sum::<f64>()
            / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamming::floor_reference;
    use proptest::prelude::*;

    /// The two-pass epoch loop [`train_weights`] replaced, kept as its
    /// reference: every epoch first sums the layer's mean interpolated HR in
    /// a pass of its own, cells come from `floor`/`ceil`, and all `epochs`
    /// epochs run.
    fn two_pass_weights(original: &[f32], scale: f64, config: &QatConfig) -> Vec<f32> {
        let table = HrTable::new(config.bits);
        let mut weights = original.to_vec();
        let slopes = config
            .lhr
            .map(|_| SmoothedHrSlopes::new(&table, scale, config.lhr_smoothing_radius_lsb));
        for _ in 0..config.epochs {
            let lhr = config.lhr.map(|cfg| {
                let mut sum = 0.0;
                for &w in &weights {
                    sum += floor_reference::interpolated_hr(f64::from(w), scale, &table).value;
                }
                (cfg.lambda, mean(sum, weights.len()))
            });
            for (i, w) in weights.iter_mut().enumerate() {
                let displacement_lsb = (f64::from(*w) - f64::from(original[i])) / scale;
                let task_grad_lsb = displacement_lsb
                    - displacement_lsb
                        .clamp(-config.anchor_dead_zone_lsb, config.anchor_dead_zone_lsb);
                let reg_grad_lsb = match &lhr {
                    Some((lambda, mean_hr)) => {
                        let slopes = slopes.as_ref().expect("slope table exists with LHR on");
                        let slope = floor_reference::gradient(slopes, f64::from(*w));
                        lambda * 2.0 * mean_hr * slope * scale
                    }
                    None => 0.0,
                };
                *w -= (config.learning_rate * scale * (task_grad_lsb + reg_grad_lsb)) as f32;
            }
        }
        weights
    }

    /// A layer of `len` weights: `kind` 0 is empty, 1 a single Gaussian
    /// weight, 2 and 3 Gaussian, 4 integer multiples of a power of two
    /// with the largest at the top of the range, so every weight sits on a
    /// lattice point of the fitted scale, and 5 a Gaussian layer of the
    /// size hostbench's zoo trains (4 096–16 384 weights).
    fn layer(kind: usize, len: usize, std: f64, seed: u64, bits: u32) -> Tensor {
        let len = match kind {
            0 => 0,
            1 => 1,
            5 => 4096 + (seed % 12_289) as usize,
            _ => len,
        };
        if kind != 4 {
            return Tensor::randn(vec![len], std as f32, seed);
        }
        let qmax = (1i64 << (bits - 1)) - 1;
        let unit = (-f64::from((seed % 8) as u32)).exp2() as f32;
        let data = (0..len as i64)
            .map(|i| {
                let k = if i == 0 {
                    qmax
                } else {
                    (i * 7919 + (seed % 1000) as i64) % (2 * qmax + 1) - qmax
                };
                k as f32 * unit
            })
            .collect();
        Tensor::from_vec(vec![len], data)
    }

    proptest! {
        #[test]
        fn fused_loop_matches_the_two_pass_reference_bit_for_bit(
            kind in 0usize..6,
            len in 2usize..400,
            std in 0.002f64..0.5,
            seed in any::<u64>(),
            bits in 2u32..9,
            lambda in 0usize..4,
            radius in 0usize..3,
            dead_zone in 0usize..3,
            epochs in 0usize..4,
        ) {
            // Kind 5 trains with the recipe hostbench compiles with,
            // `QatConfig::with_lhr(8)`: 8 bits, λ 4, radius 4, dead zone 4
            // and 120 epochs.
            let (bits, lambda, radius, dead_zone, epochs) = if kind == 5 {
                (8, 3, 2, 2, 3)
            } else {
                (bits, lambda, radius, dead_zone, epochs)
            };
            let tensor = layer(kind, len, std, seed, bits);
            let config = QatConfig {
                epochs: [0, 1, 7, 120][epochs],
                anchor_dead_zone_lsb: [0.0, 0.5, 4.0][dead_zone],
                lhr_smoothing_radius_lsb: [0, 1, 4][radius],
                lhr: [None, Some(0.05), Some(0.9), Some(4.0)][lambda].map(LhrConfig::new),
                ..QatConfig::baseline(bits)
            };
            let scheme = QuantScheme::fit(&tensor, bits);
            let reference = two_pass_weights(tensor.data(), scheme.scale(), &config);
            let fused = train_weights(tensor.data(), scheme.scale(), &config);
            prop_assert_eq!(fused.len(), reference.len());
            let mismatch = fused
                .iter()
                .zip(&reference)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            prop_assert!(
                mismatch.is_none(),
                "weight {mismatch:?} of {} differs under {config:?}",
                fused.len()
            );

            if kind == 5 {
                // Such layers carry weights to or past the dead-zone edge.
                let inside = dead_zone_threshold(config.anchor_dead_zone_lsb, scheme.scale());
                prop_assert!(reference
                    .iter()
                    .zip(tensor.data())
                    .any(|(w, a)| (f64::from(*w) - f64::from(*a)).abs() >= inside));
            }

            let want = outcome("layer", &tensor, scheme, reference);
            let got = train_layer("layer", &tensor, &config);
            prop_assert_eq!(got.hr_before.to_bits(), want.hr_before.to_bits());
            prop_assert_eq!(got.hr_after.to_bits(), want.hr_after.to_bits());
            prop_assert_eq!(
                got.relative_weight_shift.to_bits(),
                want.relative_weight_shift.to_bits()
            );
            prop_assert_eq!(got.layer, want.layer);
        }
    }

    proptest! {
        /// Around the dead-zone edge `±dz·s` and around the threshold
        /// itself, every distance the division-free test admits has a task
        /// gradient `d − d.clamp(−dz, dz)` of +0.0 bit for bit, and nothing
        /// at or past the edge is admitted.
        #[test]
        fn the_dead_zone_threshold_admits_only_a_zero_task_gradient(
            ulps in -4i64..5,
            negative in any::<bool>(),
            at_threshold in any::<bool>(),
            exponent in -6.0f64..2.0,
            dead_zone in 0usize..3,
        ) {
            let dead_zone = [0.0, 0.5, 4.0][dead_zone];
            let scale = 10f64.powf(exponent);
            let threshold = dead_zone_threshold(dead_zone, scale);
            let mut diff = if at_threshold { threshold } else { dead_zone * scale };
            for _ in 0..ulps.unsigned_abs() {
                diff = if ulps > 0 { diff.next_up() } else { diff.next_down() };
            }
            if negative {
                diff = -diff;
            }
            let displacement_lsb = diff / scale;
            let reference = displacement_lsb - displacement_lsb.clamp(-dead_zone, dead_zone);
            let admitted = diff.abs() < threshold;
            if admitted {
                prop_assert_eq!(reference.to_bits(), 0.0f64.to_bits());
            }
            prop_assert!(!admitted || diff.abs() < dead_zone * scale);
        }
    }

    fn conv_like_tensor(seed: u64) -> Tensor {
        // A realistic conv layer: zero-mean, most weights within a few LSB.
        Tensor::randn(vec![4096], 0.04, seed)
    }

    #[test]
    fn baseline_qat_barely_moves_weights() {
        let t = conv_like_tensor(3);
        let out = train_layer("conv", &t, &QatConfig::baseline(8));
        assert!(
            out.relative_weight_shift < 0.05,
            "shift {}",
            out.relative_weight_shift
        );
        assert!((out.hr_after - out.hr_before).abs() < 0.02);
        assert_eq!(
            out.layer.weights,
            QuantizedLayer::from_tensor("conv", &t, 8).weights
        );
    }

    #[test]
    fn lhr_reduces_hr_substantially() {
        let t = conv_like_tensor(4);
        let base = train_layer("conv", &t, &QatConfig::baseline(8));
        let lhr = train_layer("conv", &t, &QatConfig::with_lhr(8));
        assert!(
            lhr.hr_after < base.hr_after * 0.85,
            "LHR should cut HR by well over 15 %: baseline {}, lhr {}",
            base.hr_after,
            lhr.hr_after
        );
    }

    #[test]
    fn lhr_keeps_weights_close_to_original() {
        let t = conv_like_tensor(5);
        let out = train_layer("conv", &t, &QatConfig::with_lhr(8));
        // Weight movement stays a small fraction of the weight spread —
        // the "negligible accuracy loss" premise.
        assert!(
            out.relative_weight_shift < 0.35,
            "shift {}",
            out.relative_weight_shift
        );
    }

    #[test]
    fn stronger_lambda_trades_more_shift_for_lower_hr() {
        let t = conv_like_tensor(6);
        let weak = QatConfig {
            lhr: Some(LhrConfig::new(0.05)),
            ..QatConfig::with_lhr(8)
        };
        let strong = QatConfig {
            lhr: Some(LhrConfig::new(4.0)),
            ..QatConfig::with_lhr(8)
        };
        let w = train_layer("conv", &t, &weak);
        let s = train_layer("conv", &t, &strong);
        assert!(s.hr_after <= w.hr_after + 1e-9);
        assert!(s.relative_weight_shift >= w.relative_weight_shift - 1e-9);
    }

    #[test]
    fn int4_training_also_reduces_hr() {
        let t = conv_like_tensor(7);
        let base = train_layer("conv", &t, &QatConfig::baseline(4));
        let lhr = train_layer("conv", &t, &QatConfig::with_lhr(4));
        assert!(lhr.hr_after < base.hr_after);
        assert!(lhr.layer.weights.iter().all(|&w| (-8..=7).contains(&w)));
    }

    #[test]
    fn summary_aggregates_average_and_max() {
        let layers = vec![
            ("a".to_string(), conv_like_tensor(8)),
            ("b".to_string(), Tensor::randn(vec![2048], 0.08, 9)),
        ];
        let outcomes = train_network(&layers, &QatConfig::with_lhr(8));
        let s = summarize(&outcomes);
        assert_eq!(outcomes.len(), 2);
        assert!(s.hr_max >= s.hr_average);
        assert!(s.hr_average > 0.0);
    }

    #[test]
    fn hr_reduction_is_clamped_non_negative() {
        let o = QatOutcome {
            layer: QuantizedLayer::from_tensor("x", &conv_like_tensor(10), 8),
            hr_before: 0.3,
            hr_after: 0.4,
            relative_weight_shift: 0.0,
        };
        assert_eq!(o.hr_reduction(), 0.0);
    }

    #[test]
    fn empty_network_summary_is_default() {
        assert_eq!(summarize(&[]), NetworkHrSummary::default());
    }
}
