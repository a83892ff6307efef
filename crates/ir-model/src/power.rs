//! Power, energy-efficiency and effective-performance models.
//!
//! The paper reports three chip-level outcomes of AIM (§6.6):
//!
//! * per-macro power dropping from 4.2978 mW to 2.243–1.876 mW
//!   (1.91–2.29× energy-efficiency improvement),
//! * chip performance rising from 256 TOPS to 289–295 TOPS
//!   (1.129–1.152× speedup), and
//! * 58.5–69.2 % IR-drop mitigation.
//!
//! This module supplies the power side: a CV²f dynamic-power model whose
//! activity factor tracks the bank toggle rate, plus voltage-dependent
//! leakage.  The calibration anchor is the 4.2978 mW per-macro figure at the
//! nominal operating point with a typical (≈50 %) toggle activity.

use serde::{Deserialize, Serialize};

use crate::process::ProcessParams;

/// CV²f + leakage power model for one PIM macro.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    params: ProcessParams,
}

/// Power breakdown for one macro at one operating point, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Leakage power (mW).
    pub leakage_mw: f64,
    /// Activity-independent dynamic power: clock tree, input drivers (mW).
    pub baseline_dynamic_mw: f64,
    /// Activity-dependent dynamic power scaling with the toggle rate (mW).
    pub toggle_dynamic_mw: f64,
}

impl PowerBreakdown {
    /// Total macro power in mW.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.leakage_mw + self.baseline_dynamic_mw + self.toggle_dynamic_mw
    }
}

/// [`PowerModel`] for an active macro at one fixed operating point (see
/// [`PowerModel::at_point`]).  Every evaluation returns the same bits as
/// [`PowerModel::macro_power`] at that point.
#[derive(Debug, Clone, Copy)]
pub struct PointPower {
    leakage_mw: f64,
    baseline_dynamic_mw: f64,
    /// `CV²f` times the activity-dependent fraction (W).
    toggle_dynamic_w: f64,
}

impl PointPower {
    /// Power breakdown at average toggle rate `toggle_rate` (clamped to
    /// `[0, 1]`).
    fn breakdown(&self, toggle_rate: f64) -> PowerBreakdown {
        let toggle = toggle_rate.clamp(0.0, 1.0);
        // The activity-dependent share is normalised so that at the
        // REFERENCE_TOGGLE activity the total dynamic power equals CV²f.
        PowerBreakdown {
            leakage_mw: self.leakage_mw,
            baseline_dynamic_mw: self.baseline_dynamic_mw,
            toggle_dynamic_mw: self.toggle_dynamic_w
                * (toggle / PowerModel::REFERENCE_TOGGLE)
                * 1e3,
        }
    }

    /// Total macro power in mW at average toggle rate `toggle_rate`.
    #[must_use]
    pub fn total_mw(&self, toggle_rate: f64) -> f64 {
        self.breakdown(toggle_rate).total_mw()
    }
}

/// Aggregated energy/performance figures for a complete run of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EnergyReport {
    /// Average per-macro power over the run (mW).
    pub avg_macro_power_mw: f64,
    /// Total chip energy over the run (mJ).
    pub total_energy_mj: f64,
    /// Effective chip performance over the run (TOPS), accounting for stall
    /// and recompute cycles.
    pub effective_tops: f64,
    /// Total cycles simulated, including bubbles and recomputation.
    pub total_cycles: u64,
    /// Cycles lost to stalls, V-f adjustment and recomputation.
    pub overhead_cycles: u64,
}

impl EnergyReport {
    /// Energy efficiency expressed as useful tera-operations per joule.
    #[must_use]
    pub fn tops_per_watt(&self) -> f64 {
        if self.avg_macro_power_mw <= 0.0 {
            return 0.0;
        }
        // effective TOPS over (64 macros * avg mW per macro) expressed in W.
        self.effective_tops / (self.avg_macro_power_mw * 64.0 * 1e-3)
    }

    /// Fraction of cycles lost to overhead.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.overhead_cycles as f64 / self.total_cycles as f64
        }
    }
}

impl PowerModel {
    /// Reference toggle activity used for the 4.2978 mW calibration anchor.
    pub const REFERENCE_TOGGLE: f64 = 0.5;

    /// Creates a power model for the given process.
    #[must_use]
    pub const fn new(params: ProcessParams) -> Self {
        Self { params }
    }

    /// The process constants backing this model.
    #[must_use]
    pub const fn params(&self) -> &ProcessParams {
        &self.params
    }

    /// Power breakdown of one macro at a given operating point.
    ///
    /// * `toggle_rate` — average bitstream toggle rate in `[0, 1]` (the same
    ///   quantity as Rtog, averaged over the evaluation window).
    /// * `voltage` — supply voltage (V).
    /// * `frequency_ghz` — clock frequency (GHz).
    /// * `active` — whether the macro is computing; an idle macro only leaks.
    #[must_use]
    pub fn macro_power(
        &self,
        toggle_rate: f64,
        voltage: f64,
        frequency_ghz: f64,
        active: bool,
    ) -> PowerBreakdown {
        if !active {
            // Leakage grows roughly linearly with V in the small range we
            // sweep.
            return PowerBreakdown {
                leakage_mw: self.params.leakage_current * voltage * 1e3,
                baseline_dynamic_mw: 0.0,
                toggle_dynamic_mw: 0.0,
            };
        }
        self.at_point(voltage, frequency_ghz).breakdown(toggle_rate)
    }

    /// The model for an active macro at one operating point, as a function
    /// of the toggle rate alone.
    #[must_use]
    pub fn at_point(&self, voltage: f64, frequency_ghz: f64) -> PointPower {
        let p = &self.params;
        let f_hz = frequency_ghz * 1e9;
        let dynamic_w = p.macro_capacitance * voltage * voltage * f_hz;
        PointPower {
            leakage_mw: p.leakage_current * voltage * 1e3,
            baseline_dynamic_mw: dynamic_w * p.activity_independent_fraction * 1e3,
            toggle_dynamic_w: dynamic_w * (1.0 - p.activity_independent_fraction),
        }
    }

    /// Convenience: total macro power in mW.
    #[must_use]
    pub fn macro_power_mw(&self, toggle_rate: f64, voltage: f64, frequency_ghz: f64) -> f64 {
        self.macro_power(toggle_rate, voltage, frequency_ghz, true)
            .total_mw()
    }

    /// Per-macro power at the pre-AIM reference point (nominal V/f, 50 %
    /// toggle activity).  ≈ 4.2978 mW for the calibrated 7 nm design.
    #[must_use]
    pub fn reference_macro_power_mw(&self) -> f64 {
        self.macro_power_mw(
            Self::REFERENCE_TOGGLE,
            self.params.nominal_voltage,
            self.params.nominal_frequency_ghz,
        )
    }

    /// Effective chip TOPS for a run: peak TOPS scaled by the achieved
    /// frequency and de-rated by the overhead-cycle fraction.
    #[must_use]
    pub fn effective_tops(
        &self,
        avg_frequency_ghz: f64,
        useful_cycles: u64,
        total_cycles: u64,
    ) -> f64 {
        if total_cycles == 0 {
            return 0.0;
        }
        let freq_scale = avg_frequency_ghz / self.params.nominal_frequency_ghz;
        let utilisation = useful_cycles as f64 / total_cycles as f64;
        self.params.peak_tops() * freq_scale * utilisation
    }

    /// Energy (mJ) consumed by one macro running for `cycles` cycles at the
    /// given operating point.
    #[must_use]
    pub fn macro_energy_mj(
        &self,
        toggle_rate: f64,
        voltage: f64,
        frequency_ghz: f64,
        cycles: u64,
    ) -> f64 {
        if frequency_ghz <= 0.0 {
            return 0.0;
        }
        let seconds = cycles as f64 / (frequency_ghz * 1e9);
        self.macro_power_mw(toggle_rate, voltage, frequency_ghz) * seconds * 1e0
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::new(ProcessParams::dpim_7nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::new(ProcessParams::dpim_7nm())
    }

    #[test]
    fn reference_point_calibrates_to_paper_macro_power() {
        let mw = model().reference_macro_power_mw();
        assert!(
            (mw - 4.2978).abs() < 0.05,
            "pre-AIM per-macro power should be ≈4.2978 mW, got {mw}"
        );
    }

    #[test]
    fn power_is_monotone_in_toggle_voltage_and_frequency() {
        let m = model();
        assert!(m.macro_power_mw(0.3, 0.75, 1.0) < m.macro_power_mw(0.6, 0.75, 1.0));
        assert!(m.macro_power_mw(0.5, 0.60, 1.0) < m.macro_power_mw(0.5, 0.75, 1.0));
        assert!(m.macro_power_mw(0.5, 0.75, 1.0) < m.macro_power_mw(0.5, 0.75, 1.16));
    }

    #[test]
    fn idle_macro_only_leaks() {
        let b = model().macro_power(0.9, 0.75, 1.0, false);
        assert_eq!(b.baseline_dynamic_mw, 0.0);
        assert_eq!(b.toggle_dynamic_mw, 0.0);
        assert!(b.leakage_mw > 0.0);
    }

    #[test]
    fn post_aim_point_lands_in_the_headline_band() {
        // After LHR+WDS the average toggle activity is roughly halved and the
        // booster runs at ~0.60-0.64 V in low-power mode.  The per-macro
        // power should land in the 1.876 - 2.243 mW band (1.91× - 2.29×).
        let m = model();
        let aggressive = m.macro_power_mw(0.24, 0.60, 1.0);
        let conservative = m.macro_power_mw(0.30, 0.64, 1.0);
        let reference = m.reference_macro_power_mw();
        assert!(
            reference / aggressive > 1.9,
            "best-case ratio {}",
            reference / aggressive
        );
        assert!(reference / aggressive < 2.6);
        assert!(reference / conservative > 1.6);
        assert!(conservative > aggressive);
    }

    #[test]
    fn effective_tops_scales_with_frequency_and_utilisation() {
        let m = model();
        let full = m.effective_tops(1.0, 100, 100);
        assert!((full - 256.0).abs() < 1e-9);
        let boosted = m.effective_tops(1.16, 100, 100);
        assert!(
            boosted > 290.0,
            "sprint mode should exceed 290 TOPS, got {boosted}"
        );
        let stalled = m.effective_tops(1.0, 80, 100);
        assert!((stalled - 256.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn macro_energy_accumulates_with_cycles() {
        let m = model();
        let one = m.macro_energy_mj(0.5, 0.75, 1.0, 1_000);
        let ten = m.macro_energy_mj(0.5, 0.75, 1.0, 10_000);
        assert!((ten / one - 10.0).abs() < 1e-9);
    }

    #[test]
    fn energy_report_ratios() {
        let r = EnergyReport {
            avg_macro_power_mw: 4.0,
            total_energy_mj: 1.0,
            effective_tops: 256.0,
            total_cycles: 1000,
            overhead_cycles: 100,
        };
        assert!((r.overhead_fraction() - 0.1).abs() < 1e-12);
        assert!(r.tops_per_watt() > 0.0);
    }

    #[test]
    fn zero_cycle_report_is_well_behaved() {
        let r = EnergyReport::default();
        assert_eq!(r.overhead_fraction(), 0.0);
        assert_eq!(r.tops_per_watt(), 0.0);
    }
}
