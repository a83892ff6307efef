//! Symmetric integer quantization (INT4 / INT8).
//!
//! The paper's baseline is a standard symmetric, per-layer quantization-aware
//! training recipe; LHR, WDS and the PIM simulator all operate on the
//! resulting two's-complement integer weights.  This module provides the
//! scheme (bit width + scale), round-to-nearest quantization with clamping,
//! dequantization, and the [`QuantizedLayer`] container the rest of the
//! workspace passes around.

use serde::{Deserialize, Serialize};

use crate::hamming::hamming_rate;
use crate::tensor::Tensor;

/// A symmetric quantization scheme: bit width and positive scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantScheme {
    bits: u32,
    scale: f64,
}

impl QuantScheme {
    /// Creates a scheme with an explicit scale.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8` or `scale` is not positive.
    #[must_use]
    pub fn new(bits: u32, scale: f64) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8, got {bits}");
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        Self { bits, scale }
    }

    /// Derives a per-layer scale from the maximum absolute weight so that the
    /// full float range maps onto the representable integer range.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`.
    #[must_use]
    pub fn fit(tensor: &Tensor, bits: u32) -> Self {
        let max_abs = f64::from(tensor.max_abs()).max(1e-8);
        let qmax = f64::from((1i32 << (bits - 1)) - 1);
        Self::new(bits, max_abs / qmax)
    }

    /// Bit width of the scheme.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Quantization scale (float units per LSB).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Most negative representable integer.
    #[must_use]
    pub fn qmin(&self) -> i32 {
        -(1i32 << (self.bits - 1))
    }

    /// Most positive representable integer.
    #[must_use]
    pub fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Quantizes one float weight: round to nearest, clamp to range.
    #[must_use]
    pub fn quantize(&self, w: f32) -> i8 {
        let q = (f64::from(w) / self.scale).round() as i64;
        q.clamp(i64::from(self.qmin()), i64::from(self.qmax())) as i8
    }

    /// Dequantizes one integer back to float.
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        (f64::from(q) * self.scale) as f32
    }

    /// Quantizes a whole tensor.
    #[must_use]
    pub fn quantize_tensor(&self, tensor: &Tensor) -> Vec<i8> {
        tensor.data().iter().map(|&w| self.quantize(w)).collect()
    }

    /// "Fake quantization": quantize then dequantize, as used inside the QAT
    /// forward pass with a straight-through estimator.
    #[must_use]
    pub fn fake_quantize(&self, w: f32) -> f32 {
        self.dequantize(self.quantize(w))
    }
}

/// A quantized layer: integer weights plus the scheme that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedLayer {
    /// Layer name (e.g. `"layer3.0.conv1"`).
    pub name: String,
    /// Quantized weights in row-major order.
    pub weights: Vec<i8>,
    /// The quantization scheme used.
    pub scheme: QuantScheme,
}

impl QuantizedLayer {
    /// Quantizes a float tensor into a layer.
    #[must_use]
    pub fn from_tensor(name: impl Into<String>, tensor: &Tensor, bits: u32) -> Self {
        let scheme = QuantScheme::fit(tensor, bits);
        Self {
            name: name.into(),
            weights: scheme.quantize_tensor(tensor),
            scheme,
        }
    }

    /// Hamming rate of the stored weights at the layer's precision (Eq. 3).
    #[must_use]
    pub fn hamming_rate(&self) -> f64 {
        hamming_rate(&self.weights, self.scheme.bits())
    }

    /// Number of stored weights.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the layer holds no weights.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Dequantized copy of the weights.
    #[must_use]
    pub fn dequantized(&self) -> Vec<f32> {
        self.weights
            .iter()
            .map(|&q| self.scheme.dequantize(q))
            .collect()
    }

    /// Mean absolute quantization error versus a float reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference length differs.
    #[must_use]
    pub fn mean_abs_error(&self, reference: &Tensor) -> f64 {
        assert_eq!(
            reference.len(),
            self.weights.len(),
            "reference length mismatch"
        );
        if self.is_empty() {
            return 0.0;
        }
        self.weights
            .iter()
            .zip(reference.data())
            .map(|(&q, &w)| (f64::from(self.scheme.dequantize(q)) - f64::from(w)).abs())
            .sum::<f64>()
            / self.weights.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_maps_max_abs_to_qmax() {
        let t = Tensor::from_vec(vec![3], vec![-1.0, 0.5, 2.0]);
        let s = QuantScheme::fit(&t, 8);
        assert_eq!(s.quantize(2.0), 127);
        assert_eq!(s.quantize(-2.0), -127);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        let s = QuantScheme::new(8, 1.0);
        assert_eq!(s.quantize(2.4), 2);
        assert_eq!(s.quantize(2.6), 3);
        assert_eq!(s.quantize(-2.5), -3); // f64::round is away-from-zero on ties
    }

    #[test]
    fn quantize_clamps_to_range() {
        let s = QuantScheme::new(8, 1.0);
        assert_eq!(s.quantize(500.0), 127);
        assert_eq!(s.quantize(-500.0), -128);
        let s4 = QuantScheme::new(4, 1.0);
        assert_eq!(s4.quantize(100.0), 7);
        assert_eq!(s4.quantize(-100.0), -8);
    }

    #[test]
    fn dequantize_round_trips_within_half_lsb() {
        let s = QuantScheme::new(8, 0.03);
        for w in [-1.2f32, -0.4, 0.0, 0.7, 1.1] {
            let back = s.fake_quantize(w);
            assert!((back - w).abs() <= 0.5 * 0.03 + 1e-6, "w={w} back={back}");
        }
    }

    #[test]
    fn quantized_layer_hr_matches_free_function() {
        let t = Tensor::randn(vec![4096], 0.05, 11);
        let layer = QuantizedLayer::from_tensor("l0", &t, 8);
        let hr = hamming_rate(&layer.weights, 8);
        assert!((layer.hamming_rate() - hr).abs() < 1e-15);
        assert!(
            hr > 0.2 && hr < 0.8,
            "Gaussian weights should land near HR 0.5, got {hr}"
        );
    }

    #[test]
    fn mean_abs_error_is_sub_lsb_for_in_range_weights() {
        let t = Tensor::randn(vec![1024], 0.05, 5);
        let layer = QuantizedLayer::from_tensor("l0", &t, 8);
        let err = layer.mean_abs_error(&t);
        assert!(err <= 0.5 * layer.scheme.scale() + 1e-9);
    }

    #[test]
    fn int4_layer_uses_int4_range() {
        let t = Tensor::randn(vec![512], 0.05, 9);
        let layer = QuantizedLayer::from_tensor("l0", &t, 4);
        assert!(layer.weights.iter().all(|&w| (-8..=7).contains(&w)));
        assert_eq!(layer.scheme.bits(), 4);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn non_positive_scale_is_rejected() {
        let _ = QuantScheme::new(8, 0.0);
    }

    #[test]
    fn dequantized_length_matches() {
        let t = Tensor::randn(vec![100], 0.02, 3);
        let layer = QuantizedLayer::from_tensor("x", &t, 8);
        assert_eq!(layer.dequantized().len(), 100);
        assert!(!layer.is_empty());
    }
}
