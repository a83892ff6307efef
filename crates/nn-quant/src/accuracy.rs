//! Accuracy / perplexity proxy model for the large-network experiments.
//!
//! The paper evaluates six networks (ResNet18, MobileNetV2, YOLOv5, ViT,
//! Llama3.2-1B, GPT2) on their native datasets; reproducing those training
//! and evaluation pipelines is out of scope, so this module substitutes a
//! proxy: accuracy impact is modelled as a function of how far the
//! HR-optimisation moved the weights away from the baseline quantized model.
//!
//! The proxy captures the three qualitative behaviours the paper reports:
//!
//! 1. small, local weight movement (LHR, WDS, LHR+PTQ) costs essentially no
//!    accuracy — movement below a per-model *tolerance* is free;
//! 2. large movement (aggressive pruning) costs accuracy roughly linearly in
//!    the excess movement;
//! 3. transformer-style models can gain a small amount of accuracy from mild
//!    regularization (ViT / Llama3 improve slightly in the paper's Fig. 13),
//!    modelled as a bounded generalization bonus that peaks at moderate
//!    perturbation.
//!
//! The proxy is deterministic; its constants are per-model-family, not
//! fitted to the paper's exact numbers.

use serde::{Deserialize, Serialize};

/// Whether a workload reports classification accuracy (%) or perplexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QualityMetric {
    /// Top-1 accuracy in percent (higher is better).
    AccuracyPercent,
    /// Language-model perplexity (lower is better).
    Perplexity,
}

/// Model-family–specific constants of the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyProxy {
    /// Baseline quality of the INT8-quantized model (accuracy % or ppl).
    pub baseline: f64,
    /// Which metric `baseline` is expressed in.
    pub metric: QualityMetric,
    /// Relative weight movement (RMS / std) tolerated without any penalty.
    pub tolerance: f64,
    /// Quality lost per unit of excess movement (accuracy points, or
    /// multiplicative ppl increase per unit).
    pub sensitivity: f64,
    /// Peak generalization bonus (accuracy points, or ppl decrease) granted
    /// for mild regularization; zero for conv-style models.
    pub regularization_bonus: f64,
}

impl AccuracyProxy {
    /// Proxy constants for convolution-style classifiers (ResNet18,
    /// MobileNetV2): no generalization bonus, moderate sensitivity.
    #[must_use]
    pub fn conv_classifier(baseline_accuracy: f64) -> Self {
        Self {
            baseline: baseline_accuracy,
            metric: QualityMetric::AccuracyPercent,
            tolerance: 0.25,
            sensitivity: 9.0,
            regularization_bonus: 0.0,
        }
    }

    /// Proxy constants for detection models (YOLOv5 mAP-style score).
    #[must_use]
    pub fn detector(baseline_map: f64) -> Self {
        Self {
            baseline: baseline_map,
            metric: QualityMetric::AccuracyPercent,
            tolerance: 0.22,
            sensitivity: 11.0,
            regularization_bonus: 0.0,
        }
    }

    /// Proxy constants for transformer classifiers (ViT): small bonus for
    /// mild regularization.
    #[must_use]
    pub fn transformer_classifier(baseline_accuracy: f64) -> Self {
        Self {
            baseline: baseline_accuracy,
            metric: QualityMetric::AccuracyPercent,
            tolerance: 0.28,
            sensitivity: 8.0,
            regularization_bonus: 0.35,
        }
    }

    /// Proxy constants for causal language models (GPT2, Llama3.2-1B)
    /// evaluated by perplexity.
    #[must_use]
    pub fn language_model(baseline_ppl: f64) -> Self {
        Self {
            baseline: baseline_ppl,
            metric: QualityMetric::Perplexity,
            tolerance: 0.28,
            sensitivity: 0.6,
            regularization_bonus: 0.01,
        }
    }

    /// Evaluates the proxy for a given relative weight movement
    /// (RMS movement divided by the baseline weight standard deviation).
    ///
    /// Returns the predicted quality in the model's native metric.
    #[must_use]
    pub fn quality(&self, relative_weight_shift: f64) -> f64 {
        let shift = relative_weight_shift.max(0.0);
        let excess = (shift - self.tolerance).max(0.0);
        // Bonus ramps up to its peak at half the tolerance and decays once
        // the movement exceeds the tolerance.
        let bonus_shape = if shift <= 0.5 * self.tolerance {
            shift / (0.5 * self.tolerance)
        } else {
            (1.0 - (shift - 0.5 * self.tolerance) / self.tolerance).max(0.0)
        };
        let bonus = self.regularization_bonus * bonus_shape;
        match self.metric {
            QualityMetric::AccuracyPercent => self.baseline - self.sensitivity * excess + bonus,
            QualityMetric::Perplexity => {
                (self.baseline - bonus * self.baseline) * (1.0 + self.sensitivity * excess)
            }
        }
    }

    /// Quality change relative to the baseline, signed so that positive is
    /// always "better" regardless of the metric.
    #[must_use]
    pub fn quality_delta(&self, relative_weight_shift: f64) -> f64 {
        let q = self.quality(relative_weight_shift);
        match self.metric {
            QualityMetric::AccuracyPercent => q - self.baseline,
            QualityMetric::Perplexity => self.baseline - q,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_shifts_cost_nothing() {
        let p = AccuracyProxy::conv_classifier(71.0);
        assert!((p.quality(0.0) - 71.0).abs() < 1e-9);
        assert!(p.quality(0.2) >= 70.99, "movement inside tolerance is free");
    }

    #[test]
    fn large_shifts_cost_accuracy_monotonically() {
        let p = AccuracyProxy::conv_classifier(71.0);
        let a = p.quality(0.4);
        let b = p.quality(0.8);
        assert!(a < 71.0);
        assert!(b < a);
    }

    #[test]
    fn transformer_models_can_gain_slightly() {
        let p = AccuracyProxy::transformer_classifier(81.0);
        let mild = p.quality(0.14);
        assert!(
            mild > 81.0,
            "mild regularization should give a small bonus, got {mild}"
        );
        assert!(mild < 81.5, "bonus must stay small");
    }

    #[test]
    fn conv_models_never_gain() {
        let p = AccuracyProxy::conv_classifier(71.0);
        for s in [0.0, 0.1, 0.2, 0.3, 0.5] {
            assert!(p.quality(s) <= 71.0 + 1e-9);
        }
    }

    #[test]
    fn perplexity_increases_with_excess_shift() {
        let p = AccuracyProxy::language_model(28.7);
        assert!(p.quality(0.6) > 28.7);
        assert!(p.quality(0.9) > p.quality(0.6));
    }

    #[test]
    fn quality_delta_sign_convention() {
        let acc = AccuracyProxy::conv_classifier(71.0);
        assert!(acc.quality_delta(0.9) < 0.0);
        let ppl = AccuracyProxy::language_model(28.7);
        assert!(ppl.quality_delta(0.9) < 0.0);
        let vit = AccuracyProxy::transformer_classifier(81.0);
        assert!(vit.quality_delta(0.14) > 0.0);
    }

    #[test]
    fn negative_shift_is_clamped() {
        let p = AccuracyProxy::detector(37.0);
        assert!((p.quality(-0.5) - 37.0).abs() < 1e-9);
    }
}
