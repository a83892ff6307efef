//! Property-based tests of the core invariants the paper's argument rests on.

use proptest::prelude::*;

use aim::core::booster::{BoosterConfig, IrBoosterController};
use aim::core::pipeline::{run_model, AimConfig};
use aim::pim::backend::CycleAccurate;
use aim::pim::chip::{ChipConfig, ChipSimulator, MacroTask, SimSession, StaticController};
use aim::wl::zoo::Model;

use aim::core::metrics::{hamming_rate_i8, pearson_correlation, rtog_cycle};
use aim::ir::irdrop::IrDropModel;
use aim::ir::process::ProcessParams;
use aim::ir::timing::TimingModel;
use aim::ir::vf::{OperatingMode, VfTable};
use aim::nn::hamming::{interpolated_hr, HrTable};
use aim::nn::quant::QuantScheme;
use aim::nn::wds::{apply_wds, compensated_dot, plain_dot, WdsConfig};
use aim::pim::bank::Bank;
use aim::pim::stream::InputStream;

/// A fixed seed must reproduce the chip simulation bit for bit: the
/// scratch-buffer rewrite reuses state across runs and the pipeline fans
/// batches out across threads, and neither is allowed to perturb a single
/// counter of the [`aim::pim::chip::RunReport`].
#[test]
fn fixed_seed_reproduces_identical_run_reports() {
    let params = aim::ir::process::ProcessParams::dpim_7nm();
    let tasks = |sets: usize| -> Vec<Option<MacroTask>> {
        (0..params.total_macros())
            .map(|m| {
                let task = MacroTask::new(
                    format!("op-{m}"),
                    0.31 + 0.004 * (m % 9) as f64,
                    700,
                    m % sets,
                );
                Some(if m % 5 == 0 {
                    task.input_determined()
                } else {
                    task
                })
            })
            .collect()
    };
    let config = ChipConfig {
        flip_sequence_len: 256,
        seed: 0xD5EED,
        ..ChipConfig::default()
    };

    // Static controller: fresh scratch per run and one session's scratch
    // reused across three runs must agree exactly.
    let sim = ChipSimulator::new(config.clone(), tasks(8));
    let mut ctrl = StaticController::nominal(&params);
    let fresh = sim.run(&mut ctrl, 20_000);
    let mut session = SimSession::new();
    for _ in 0..3 {
        let mut ctrl = StaticController::nominal(&params);
        let reused = session.run_with_backend(&CycleAccurate, &sim, &mut ctrl, 20_000);
        assert_eq!(fresh, reused, "scratch reuse must not change the report");
    }

    // Booster controller (exercises the failure/stall path and the per-group
    // vmin cache across operating-point changes).
    let run_boosted = || {
        let sim = ChipSimulator::new(config.clone(), tasks(6));
        let mut booster = IrBoosterController::for_simulator(&sim, BoosterConfig::sprint());
        sim.run(&mut booster, 60_000)
    };
    let a = run_boosted();
    let b = run_boosted();
    assert_eq!(a, b, "fixed seed must give an identical boosted report");
    assert_eq!(a.per_macro_stalls(), b.per_macro_stalls());
}

/// The end-to-end pipeline must stay deterministic with the rayon fan-out
/// enabled: batch reports are aggregated in batch order, so thread count and
/// scheduling must not leak into a single figure of the report.
#[test]
fn pipeline_is_deterministic_under_parallel_fanout() {
    let model = Model::resnet18();
    let config = AimConfig {
        operator_stride: Some(6),
        cycles_per_slice: 60,
        ..AimConfig::full_low_power()
    };
    let a = run_model(&model, &config);
    let b = run_model(&model, &config);
    assert_eq!(
        a, b,
        "two parallel runs with one seed must agree bit for bit"
    );
}

proptest! {
    /// Eq. 4: the per-cycle toggle rate never exceeds the weight Hamming rate,
    /// for any weights and any input stream.
    #[test]
    fn rtog_never_exceeds_hr(
        weights in proptest::collection::vec(any::<i8>(), 1..128),
        seed in any::<u64>(),
    ) {
        let bank = Bank::new(&weights, 8);
        let inputs = InputStream::random(weights.len(), 8, seed);
        let result = bank.mac(&inputs);
        prop_assert!(result.peak_rtog() <= bank.hamming_rate() + 1e-12);
    }

    /// The bit-serial MAC always equals the reference dot product.
    #[test]
    fn bit_serial_mac_matches_reference(
        weights in proptest::collection::vec(any::<i8>(), 1..64),
        seed in any::<u64>(),
    ) {
        let bank = Bank::new(&weights, 8);
        let inputs = InputStream::random(weights.len(), 8, seed);
        let expected: i64 = weights
            .iter()
            .zip(inputs.values())
            .map(|(&w, &x)| i64::from(w) * i64::from(x))
            .sum();
        prop_assert_eq!(bank.mac(&inputs).output, expected);
    }

    /// WDS with compensation is exact whenever no weight clamps, and its
    /// error is bounded by `overflow_count · δ · max|input|` otherwise.
    #[test]
    fn wds_compensation_is_exact_or_bounded(
        weights in proptest::collection::vec(any::<i8>(), 1..128),
        inputs in proptest::collection::vec(0i32..256, 1..128),
        delta_exp in 1u32..5,
    ) {
        let n = weights.len().min(inputs.len());
        let weights = &weights[..n];
        let inputs = &inputs[..n];
        let delta = 1i8 << delta_exp;
        let config = WdsConfig::new(delta, 8);
        let out = apply_wds(weights, &config);
        let original = plain_dot(weights, inputs);
        let compensated = compensated_dot(&out.weights, inputs, delta);
        if out.overflow_count == 0 {
            prop_assert_eq!(original, compensated);
        } else {
            let max_input = i64::from(*inputs.iter().max().unwrap());
            let bound = out.overflow_count as i64 * i64::from(delta) * max_input;
            prop_assert!((original - compensated).abs() <= bound);
        }
    }

    /// Hamming rates always land in [0, 1], and WDS never increases the
    /// overflow-free HR above 1.
    #[test]
    fn hamming_rate_is_a_rate(weights in proptest::collection::vec(any::<i8>(), 0..256)) {
        let hr = hamming_rate_i8(&weights);
        prop_assert!((0.0..=1.0).contains(&hr));
    }

    /// Quantization round-trips within half an LSB for in-range values.
    #[test]
    fn quantization_error_is_bounded(
        scale in 0.001f64..0.2,
        w in -10.0f32..10.0,
    ) {
        let scheme = QuantScheme::new(8, scale);
        let back = scheme.fake_quantize(w.clamp(-(127.0 * scale as f32), 127.0 * scale as f32));
        let original = w.clamp(-(127.0 * scale as f32), 127.0 * scale as f32);
        prop_assert!((f64::from(back) - f64::from(original)).abs() <= 0.5 * scale + 1e-6);
    }

    /// The interpolated HR (Eq. 5) is always a convex combination of two
    /// table entries, hence inside [0, 1], and its gradient has bounded
    /// magnitude `max ΔHR / scale = 1 / scale`.
    #[test]
    fn interpolated_hr_is_bounded(w in -200.0f64..200.0, scale in 0.01f64..4.0) {
        let table = HrTable::new(8);
        let h = interpolated_hr(w, scale, &table);
        prop_assert!((0.0..=1.0).contains(&h.value));
        prop_assert!(h.gradient.abs() <= 1.0 / scale + 1e-12);
    }

    /// IR-drop is monotone in Rtog and bounded by the sign-off worst case at
    /// the nominal operating point.
    #[test]
    fn irdrop_is_monotone_and_bounded(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let model = IrDropModel::new(ProcessParams::dpim_7nm());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let d_lo = model.irdrop_mv(lo, 0.75, 1.0);
        let d_hi = model.irdrop_mv(hi, 0.75, 1.0);
        prop_assert!(d_lo <= d_hi + 1e-12);
        prop_assert!(d_hi <= model.signoff_worst_case_mv() + 1e-9);
    }

    /// Timing: fmax is monotone in voltage and vmin inverts it.
    #[test]
    fn timing_model_is_consistent(v in 0.45f64..0.80, f in 0.3f64..1.3) {
        let t = TimingModel::from_process(&ProcessParams::dpim_7nm());
        prop_assert!(t.fmax_ghz(v) <= t.fmax_ghz(v + 0.02) + 1e-12);
        let vmin = t.vmin(f);
        if vmin < 1.9 {
            prop_assert!(t.meets_timing(vmin + 1e-6, f));
            prop_assert!(!t.meets_timing(vmin - 1e-3, f));
        }
    }

    /// Safe-level selection: the selected level is never below the HR it was
    /// selected for (the level always covers the workload).
    #[test]
    fn vf_level_always_covers_the_hr(hr in 0.0f64..1.0) {
        let table = VfTable::derive_default(&ProcessParams::dpim_7nm());
        let level = table.level_for_rtog(hr);
        prop_assert!(f64::from(level) / 100.0 >= hr - 1e-12);
        // And the level has at least one admissible pair in both modes.
        prop_assert!(table.select(level, OperatingMode::Sprint).is_some());
        prop_assert!(table.select(level, OperatingMode::LowPower).is_some());
    }

    /// Pearson correlation is symmetric and bounded.
    #[test]
    fn pearson_is_bounded_and_symmetric(
        xs in proptest::collection::vec(-100.0f64..100.0, 2..50),
        ys in proptest::collection::vec(-100.0f64..100.0, 2..50),
    ) {
        let n = xs.len().min(ys.len());
        let r = pearson_correlation(&xs[..n], &ys[..n]);
        let r_swapped = pearson_correlation(&ys[..n], &xs[..n]);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        prop_assert!((r - r_swapped).abs() < 1e-9);
    }

    /// Eq. 1 as a standalone function is bounded by HR for arbitrary bit
    /// patterns.
    #[test]
    fn rtog_cycle_bounded_by_hr(
        weights in proptest::collection::vec(any::<i8>(), 1..64),
        flips in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let n = weights.len().min(flips.len());
        let weights = &weights[..n];
        let t0: Vec<bool> = vec![false; n];
        let t1: Vec<bool> = flips[..n].to_vec();
        let r = rtog_cycle(weights, 8, &t0, &t1);
        prop_assert!(r <= hamming_rate_i8(weights) + 1e-12);
    }
}
