//! Architecture-level IR-drop model (Eq. 2 of the paper).
//!
//! The paper estimates IR-drop as a static term plus a dynamic term that
//! scales with the instantaneous bitstream toggle rate `Rtog` of a PIM bank:
//!
//! ```text
//! IR-drop        = ΔV_static + ΔV_dynamic
//! ΔV_static     ≈ k_lk · I_lk · R_lk
//! ΔV_dynamic    ≈ (k_sc · I_sc · R_sc + k_sw · I_sw · R_sw) · Rtog
//! ```
//!
//! The dynamic currents themselves depend on how hard the circuit is driven,
//! so this implementation additionally scales the dynamic term with the
//! supply voltage and clock frequency relative to the nominal operating
//! point (`I_sw ∝ C·V·f`, `I_sc ∝ V·f`).  At the nominal point the model
//! reduces exactly to the paper's expression.

use serde::{Deserialize, Serialize};

use crate::process::ProcessParams;

/// Analytical IR-drop model for one PIM macro / bank region.
///
/// The model is deliberately simple: the paper's central observation is that
/// treating the PIM bank as one region with a stable equivalent resistance is
/// enough to preserve a *partial order* between workloads — higher `Rtog`
/// means higher droop — which is what the architecture-level mitigation
/// exploits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrDropModel {
    params: ProcessParams,
}

/// Break-down of one IR-drop evaluation, in millivolts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrDropBreakdown {
    /// Static (leakage-driven) droop in mV.
    pub static_mv: f64,
    /// Dynamic (toggle-driven) droop in mV.
    pub dynamic_mv: f64,
}

impl IrDropBreakdown {
    /// Total droop in mV.
    #[must_use]
    pub fn total_mv(&self) -> f64 {
        self.static_mv + self.dynamic_mv
    }
}

/// [`IrDropModel`] at one fixed operating point (see
/// [`IrDropModel::at_point`]).  A simulator evaluating many toggle rates at
/// one point derives the point's drive scale once; every evaluation returns
/// the same bits as the model's own methods at that point.
#[derive(Debug, Clone, Copy)]
pub struct PointDroop {
    static_mv: f64,
    coefficient: f64,
    drive_scale: f64,
}

impl PointDroop {
    /// Static/dynamic breakdown in mV at toggle rate `rtog` (clamped to
    /// `[0, 1]`).
    fn breakdown(&self, rtog: f64) -> IrDropBreakdown {
        let rtog = rtog.clamp(0.0, 1.0);
        IrDropBreakdown {
            static_mv: self.static_mv,
            dynamic_mv: self.coefficient * rtog * self.drive_scale * 1e3,
        }
    }

    /// Total IR-drop in mV at toggle rate `rtog`.
    #[must_use]
    pub fn irdrop_mv(&self, rtog: f64) -> f64 {
        self.breakdown(rtog).total_mv()
    }
}

impl IrDropModel {
    /// Creates a model from the given process constants.
    #[must_use]
    pub const fn new(params: ProcessParams) -> Self {
        Self { params }
    }

    /// The process constants backing this model.
    #[must_use]
    pub const fn params(&self) -> &ProcessParams {
        &self.params
    }

    /// Evaluates Eq. 2 and returns the static/dynamic breakdown in mV.
    ///
    /// * `rtog` — instantaneous toggle rate of the bank, in `[0, 1]`.
    /// * `voltage` — supply voltage in volts.
    /// * `frequency_ghz` — clock frequency in GHz.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if `rtog` is outside `[0, 1]` or the
    /// operating point is non-positive; release builds clamp instead.
    #[must_use]
    pub fn breakdown(&self, rtog: f64, voltage: f64, frequency_ghz: f64) -> IrDropBreakdown {
        debug_assert!(
            (0.0..=1.0 + 1e-9).contains(&rtog),
            "rtog out of range: {rtog}"
        );
        debug_assert!(voltage > 0.0 && frequency_ghz > 0.0);
        self.at_point(voltage, frequency_ghz).breakdown(rtog)
    }

    /// Eq. 2 at one operating point, as a function of `Rtog` alone.
    #[must_use]
    pub fn at_point(&self, voltage: f64, frequency_ghz: f64) -> PointDroop {
        let p = &self.params;
        // Dynamic currents scale with the drive point: switching current is
        // C·V·f and short-circuit current grows with both V and f.
        PointDroop {
            static_mv: p.static_droop() * 1e3,
            coefficient: p.dynamic_droop_coefficient(),
            drive_scale: (voltage / p.nominal_voltage) * (frequency_ghz / p.nominal_frequency_ghz),
        }
    }

    /// Total IR-drop in millivolts at the given operating point.
    #[must_use]
    pub fn irdrop_mv(&self, rtog: f64, voltage: f64, frequency_ghz: f64) -> f64 {
        self.breakdown(rtog, voltage, frequency_ghz).total_mv()
    }

    /// Effective supply voltage (V) seen by the cells after the droop.
    #[must_use]
    pub fn effective_voltage(&self, rtog: f64, voltage: f64, frequency_ghz: f64) -> f64 {
        voltage - self.irdrop_mv(rtog, voltage, frequency_ghz) * 1e-3
    }

    /// The sign-off worst-case droop (mV): `Rtog = 1.0` at the nominal
    /// operating point.  140 mV for the calibrated 7 nm DPIM design.
    #[must_use]
    pub fn signoff_worst_case_mv(&self) -> f64 {
        self.irdrop_mv(
            1.0,
            self.params.nominal_voltage,
            self.params.nominal_frequency_ghz,
        )
    }

    /// Mitigation relative to the sign-off worst case, as a fraction in
    /// `[0, 1]`: `1 - drop / worst_case`.
    #[must_use]
    pub fn mitigation_fraction(&self, irdrop_mv: f64) -> f64 {
        let worst = self.signoff_worst_case_mv();
        (1.0 - irdrop_mv / worst).clamp(0.0, 1.0)
    }

    /// Peak demanded drive current (A) for one macro at the given point.
    ///
    /// Used by the Fig. 17 trace experiment: current tracks the same
    /// static + dynamic structure as the droop.
    #[must_use]
    pub fn demanded_current(&self, rtog: f64, voltage: f64, frequency_ghz: f64) -> f64 {
        let p = &self.params;
        let drive_scale = (voltage / p.nominal_voltage) * (frequency_ghz / p.nominal_frequency_ghz);
        p.leakage_current
            + (p.short_circuit_current + p.switching_current) * rtog.clamp(0.0, 1.0) * drive_scale
    }
}

impl Default for IrDropModel {
    fn default() -> Self {
        Self::new(ProcessParams::dpim_7nm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> IrDropModel {
        IrDropModel::new(ProcessParams::dpim_7nm())
    }

    #[test]
    fn signoff_worst_case_is_140mv() {
        assert!((model().signoff_worst_case_mv() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rtog_leaves_only_static_droop() {
        let b = model().breakdown(0.0, 0.75, 1.0);
        assert!(b.dynamic_mv.abs() < 1e-12);
        assert!((b.static_mv - 8.0).abs() < 1e-9);
    }

    #[test]
    fn droop_is_monotone_in_rtog() {
        let m = model();
        let mut last = -1.0;
        for i in 0..=10 {
            let r = f64::from(i) / 10.0;
            let d = m.irdrop_mv(r, 0.75, 1.0);
            assert!(d > last, "droop must increase with Rtog");
            last = d;
        }
    }

    #[test]
    fn droop_scales_with_voltage_and_frequency() {
        let m = model();
        let base = m.irdrop_mv(0.5, 0.75, 1.0);
        assert!(
            m.irdrop_mv(0.5, 0.60, 1.0) < base,
            "lower V ⇒ lower dynamic current ⇒ less droop"
        );
        assert!(m.irdrop_mv(0.5, 0.75, 1.16) > base, "higher f ⇒ more droop");
    }

    #[test]
    fn effective_voltage_is_supply_minus_droop() {
        let m = model();
        let v_eff = m.effective_voltage(1.0, 0.75, 1.0);
        assert!((v_eff - (0.75 - 0.140)).abs() < 1e-9);
    }

    #[test]
    fn post_aim_operating_point_reproduces_headline_band() {
        // After LHR+WDS the worst HR (and hence the worst admissible Rtog
        // level) is around 25-35 %; IR-Booster then runs the macro at a
        // lower voltage.  The droop should land in the 43.2 - 58.1 mV band
        // the paper reports.
        let m = model();
        let low = m.irdrop_mv(0.25, 0.62, 1.0);
        let high = m.irdrop_mv(0.35, 0.68, 1.0);
        assert!(low > 35.0 && low < 60.0, "low end droop {low}");
        assert!(high > low && high < 70.0, "high end droop {high}");
    }

    #[test]
    fn mitigation_fraction_matches_definition() {
        let m = model();
        let frac = m.mitigation_fraction(43.2);
        assert!((frac - (1.0 - 43.2 / 140.0)).abs() < 1e-12);
        assert!(
            frac > 0.69,
            "69.2 % headline mitigation should be reachable"
        );
    }

    #[test]
    fn demanded_current_tracks_activity() {
        let m = model();
        let idle = m.demanded_current(0.0, 0.75, 1.0);
        let busy = m.demanded_current(1.0, 0.75, 1.0);
        assert!((idle - ProcessParams::dpim_7nm().leakage_current).abs() < 1e-12);
        assert!(busy > 8.0 * idle);
    }

    #[test]
    fn rtog_clamped_in_release_semantics() {
        let m = model();
        // Values slightly above 1.0 (floating point accumulation) clamp.
        let a = m.irdrop_mv(1.0, 0.75, 1.0);
        let b = m.irdrop_mv(1.0 + 1e-10, 0.75, 1.0);
        assert!((a - b).abs() < 1e-9);
    }
}
