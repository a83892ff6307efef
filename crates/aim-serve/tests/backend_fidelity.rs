//! Backend-fidelity pinning: the calibrated analytical fast path must keep
//! its self-reported promise against the cycle-accurate reference —
//! per-plan (across the full model zoo under both booster modes) and
//! fleet-level (heterogeneous fleets, sampled verification, the unified
//! scheduler cost source).

use aim_core::analytical::AnalyticalPlan;
use aim_core::booster::BoosterConfig;
use aim_core::pipeline::{AimConfig, CompiledPlan};
use aim_serve::{ServeConfig, ServeRuntime};
use pim_sim::backend::BackendKind;
use pim_sim::chip::SimSession;
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};
use workloads::zoo::Model;

/// Strided configuration keeping a full-zoo sweep affordable while still
/// exercising every model's operator mix (conv vs attention vs MLP).
fn zoo_config(booster: BoosterConfig) -> AimConfig {
    AimConfig {
        operator_stride: Some(11),
        cycles_per_slice: 60,
        mode: booster.mode,
        booster: Some(booster),
        ..AimConfig::baseline()
    }
}

#[test]
fn analytical_cycles_stay_within_bound_across_zoo_and_modes() {
    let modes = [
        ("low_power", BoosterConfig::low_power()),
        ("sprint", BoosterConfig::sprint()),
    ];
    for model in Model::all() {
        for (mode_name, booster) in modes {
            let plan = CompiledPlan::compile(&model, &zoo_config(booster));
            let analytical = AnalyticalPlan::calibrate(&plan);
            let bound = analytical.error_bound();
            let predicted = analytical.execution().cycles;
            let mut session = SimSession::new();
            // Offset 0 is the calibration replay family; offset 5 is a fresh
            // input-activity stream the calibration never saw.
            for seed_offset in [0, 5] {
                let actual = plan.execute_with_session(&mut session, seed_offset).cycles;
                let drift = (predicted as f64 - actual as f64).abs() / actual.max(1) as f64;
                assert!(
                    drift <= bound,
                    "{} [{}] offset {}: drift {:.4} exceeds bound {:.4} \
                     (analytical {} vs cycle-accurate {} cycles)",
                    model.name(),
                    mode_name,
                    seed_offset,
                    drift,
                    bound,
                    predicted,
                    actual,
                );
            }
        }
    }
}

fn serve_plans() -> Vec<CompiledPlan> {
    vec![
        CompiledPlan::compile(
            &Model::mobilenet_v2(),
            &AimConfig {
                operator_stride: Some(13),
                cycles_per_slice: 40,
                ..AimConfig::baseline()
            },
        ),
        CompiledPlan::compile(
            &Model::resnet18(),
            &AimConfig {
                operator_stride: Some(9),
                cycles_per_slice: 40,
                booster: Some(BoosterConfig::low_power()),
                ..AimConfig::baseline()
            },
        ),
    ]
}

fn bursty_trace(requests: usize, models: usize, seed: u64) -> Vec<workloads::inputs::TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests,
        models,
        mean_interarrival_cycles: 400.0,
        burst_repeat_prob: 0.6,
        deadline_slack_cycles: 10_000_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::AllStandard,
        seed,
    })
}

#[test]
fn heterogeneous_fleet_mixes_audit_and_analytical_chips() {
    let config = ServeConfig {
        chips: 4,
        backend: BackendKind::Analytical,
        audit_chips: 2,
        verify_every: 2,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(serve_plans(), config);
    assert_eq!(runtime.chip_backend(0), BackendKind::CycleAccurate);
    assert_eq!(runtime.chip_backend(1), BackendKind::CycleAccurate);
    assert_eq!(runtime.chip_backend(2), BackendKind::Analytical);
    assert_eq!(runtime.chip_backend(3), BackendKind::Analytical);
    assert_eq!(runtime.analytical_chip_count(), 2);

    let trace = bursty_trace(48, 2, 0xAB1DE);
    let report = runtime.serve(&trace);
    assert_eq!(report.analytical_chips, 2);
    assert_eq!(
        report.served_requests + report.rejected_requests,
        report.total_requests
    );
    let verification = report.verification.expect("analytical fleet verifies");
    assert!(
        verification.within_bound,
        "sampled drift {:.4} exceeded bound {:.4}",
        verification.max_cycle_drift, verification.error_bound
    );
    assert!(verification.error_bound > 0.0);

    // Worker-count independence holds for heterogeneous fleets too.
    let sequential = ServeRuntime::from_plans(
        serve_plans(),
        ServeConfig {
            parallel: false,
            ..config
        },
    )
    .serve(&trace);
    assert_eq!(report, sequential);
}

#[test]
fn fully_analytical_fleet_verifies_every_group_within_bound() {
    let config = ServeConfig {
        chips: 3,
        backend: BackendKind::Analytical,
        audit_chips: 0,
        verify_every: 1,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::from_plans(serve_plans(), config);
    let trace = bursty_trace(40, 2, 0xFEED5);
    let report = runtime.serve(&trace);
    assert_eq!(report.analytical_chips, 3);
    let verification = report.verification.expect("verification enabled");
    assert_eq!(
        verification.sampled, report.groups_executed,
        "verify_every = 1 must sample every executed group"
    );
    assert!(verification.sampled > 0);
    assert!(verification.mean_cycle_drift <= verification.max_cycle_drift);
    assert!(
        verification.within_bound,
        "drift {:.4} vs bound {:.4}",
        verification.max_cycle_drift, verification.error_bound
    );
    // Repeated serves are byte-identical (the determinism contract).
    assert_eq!(report, runtime.serve(&trace));
}

#[test]
fn admission_and_execution_share_the_analytical_cost_source() {
    let plans = serve_plans();
    let runtime = ServeRuntime::from_plans(
        plans,
        ServeConfig {
            chips: 2,
            backend: BackendKind::Analytical,
            audit_chips: 0,
            verify_every: 0,
            ..ServeConfig::default()
        },
    );
    let analytical = runtime
        .analytical_plans()
        .expect("analytical fleet calibrates its plans");
    let cost = runtime.cost_model();
    for (model, ana) in analytical.iter().enumerate() {
        assert_eq!(
            cost.exec_cycles[model],
            ana.estimated_cycles(),
            "dispatch must quote the same cycles the analytical chips report"
        );
        assert_eq!(ana.estimated_cycles(), ana.execution().cycles);
    }
    // And the executions handed out during serving are those same numbers.
    let trace = bursty_trace(16, 2, 0x11);
    let report = runtime.serve(&trace);
    assert!(report.simulated_cycles > 0);
    assert!(report
        .per_chip
        .iter()
        .all(|c| c.busy_cycles <= report.makespan_cycles));
}

#[test]
fn cycle_accurate_fleet_reports_no_verification_block() {
    let runtime = ServeRuntime::from_plans(serve_plans(), ServeConfig::default());
    let report = runtime.serve(&bursty_trace(12, 2, 0x22));
    assert_eq!(report.analytical_chips, 0);
    assert!(report.verification.is_none());
    assert!(runtime.analytical_plans().is_none());
}
