//! Edge cases of [`ReportAccumulator::merge`] — the sharded-report
//! combinator the fleet layer leans on:
//!
//! * merging an empty shard is the identity (modulo the added chip rows);
//! * a single drained shard finishes identically whether or not it passed
//!   through the accumulator path — and merging it with a chipless empty
//!   accumulator changes nothing;
//! * chips re-index gaplessly even when some chips served nothing;
//! * the merge is associative: any shard-tree grouping produces the same
//!   bytes (pinned by a property over randomly generated absorb sequences);
//! * absorb order is free: one set of absorb calls, made in any order,
//!   gives the same accumulator and the same report bytes — the session
//!   folds each group in when it executes, not in commit order, and relies
//!   on this;
//! * shards disagreeing on the nominal frequency are rejected loudly (the
//!   bug this suite flushed out: the old merge silently kept the left
//!   shard's frequency, misreporting merged throughput).

use std::sync::OnceLock;

use proptest::prelude::*;

use aim_core::pipeline::{CompiledPlan, PlanExecution};
use aim_serve::prelude::*;
use workloads::inputs::{synthetic_trace, ArrivalShape, SloMix, TrafficConfig};

fn plans() -> &'static Vec<CompiledPlan> {
    static PLANS: OnceLock<Vec<CompiledPlan>> = OnceLock::new();
    PLANS.get_or_init(aim_serve::scenario::reference_plans)
}

fn trace_for(requests: usize, seed: u64) -> Vec<TraceRequest> {
    synthetic_trace(&TrafficConfig {
        requests,
        models: plans().len(),
        mean_interarrival_cycles: 700.0,
        burst_repeat_prob: 0.5,
        deadline_slack_cycles: 40_000,
        shape: ArrivalShape::BurstyExponential,
        slo_mix: SloMix::Mixed {
            latency_share: 0.2,
            best_effort_share: 0.3,
        },
        seed,
    })
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable")
}

fn drained_accumulator(chips: usize, requests: usize, seed: u64) -> ReportAccumulator {
    let runtime = ServeRuntime::from_plans(
        plans().clone(),
        ServeConfig {
            chips,
            seed,
            ..ServeConfig::default()
        },
    );
    let mut session = runtime.session();
    for request in &trace_for(requests, seed ^ 0xACC) {
        session.submit(*request);
    }
    session.drain_accumulator()
}

#[test]
fn single_shard_identity_with_and_without_an_empty_peer() {
    let runtime = ServeRuntime::from_plans(plans().clone(), ServeConfig::default());
    let trace = trace_for(24, 0x1D);
    let direct = runtime.serve(&trace);

    // Accumulator path == direct drain.
    let mut session = runtime.session();
    for request in &trace {
        session.submit(*request);
    }
    let acc = session.drain_accumulator();
    assert_eq!(json(&acc.finish()), json(&direct));

    // Merging a chipless, traffic-less shard (same seed, same frequency)
    // changes nothing at all.
    let nominal_ghz = runtime.plans()[0].chip_params().nominal_frequency_ghz;
    let mut merged = acc.clone();
    merged.merge(ReportAccumulator::new(direct.seed, 0, nominal_ghz));
    assert_eq!(merged, acc);
    assert_eq!(json(&merged.finish()), json(&direct));
}

#[test]
fn empty_shard_with_chips_only_adds_idle_chip_rows() {
    let acc = drained_accumulator(2, 20, 0xE5);
    let base = acc.finish();
    let nominal_ghz = plans()[0].chip_params().nominal_frequency_ghz;

    let mut merged = acc;
    merged.merge(ReportAccumulator::new(base.seed, 3, nominal_ghz));
    let report = merged.finish();

    assert_eq!(report.chips, base.chips + 3);
    assert_eq!(report.per_chip.len(), base.per_chip.len() + 3);
    // The idle rows re-index after the real ones and carry zero work.
    for (i, chip) in report.per_chip.iter().enumerate() {
        assert_eq!(chip.chip, i);
    }
    for idle in &report.per_chip[base.per_chip.len()..] {
        assert_eq!(idle.groups, 0);
        assert_eq!(idle.requests, 0);
        assert_eq!(idle.busy_cycles, 0);
        assert_eq!(idle.utilization, 0.0);
    }
    // Every aggregate figure is untouched by idle capacity.
    assert_eq!(report.total_requests, base.total_requests);
    assert_eq!(report.served_requests, base.served_requests);
    assert_eq!(report.makespan_cycles, base.makespan_cycles);
    assert_eq!(report.latency_p99_cycles, base.latency_p99_cycles);
    assert_eq!(report.throughput_rps, base.throughput_rps);
    assert_eq!(report.avg_macro_power_mw, base.avg_macro_power_mw);
}

#[test]
fn chip_reindexing_survives_gaps_in_served_chips() {
    // Shard A: 1 chip, real traffic.  Shard B: 4 chips but only 2 requests,
    // so under least-loaded dispatch most of its chips idle — the "gappy"
    // shard.  Re-indexing must stay dense and per-chip ledgers must land on
    // the right global rows.
    let a = drained_accumulator(1, 16, 0xA);
    let b = drained_accumulator(4, 2, 0xB);
    let solo_a = a.finish();
    let solo_b = b.finish();

    let mut merged = a;
    merged.merge(b);
    let report = merged.finish();

    assert_eq!(report.chips, 5);
    assert_eq!(report.per_chip.len(), 5);
    for (i, chip) in report.per_chip.iter().enumerate() {
        assert_eq!(chip.chip, i, "chip ids must re-index densely");
    }
    for (global, local) in report.per_chip[1..].iter().zip(&solo_b.per_chip) {
        assert_eq!(global.groups, local.groups);
        assert_eq!(global.requests, local.requests);
        assert_eq!(global.busy_cycles, local.busy_cycles);
    }
    let gaps = report.per_chip.iter().filter(|c| c.requests == 0).count();
    assert!(gaps >= 1, "the sparse shard must contribute idle chips");
    assert_eq!(
        report.served_requests,
        solo_a.served_requests + solo_b.served_requests
    );
    assert_eq!(
        report.failures,
        solo_a.failures + solo_b.failures,
        "electrical aggregates pool across the gap"
    );
}

#[test]
#[should_panic(expected = "nominal frequency")]
fn mismatched_nominal_frequencies_are_rejected() {
    let mut a = ReportAccumulator::new(0, 1, 1.0);
    let b = ReportAccumulator::new(0, 1, 2.0);
    a.merge(b);
}

/// Builds an accumulator from a compact random description: per request a
/// `(class, latency, deadline_missed, rejected)` tuple, grouped in pairs
/// into executed groups on round-robin chips.
fn build_accumulator(chips: usize, rows: &[(u8, u16, bool, bool)], seed: u64) -> ReportAccumulator {
    let mut acc = ReportAccumulator::new(seed, chips, 1.0);
    acc.set_analytical_context(chips / 2, !rows.is_empty(), 0.05);
    let mut finish = 0u64;
    for (i, &(class_bits, latency, missed, rejected)) in rows.iter().enumerate() {
        let class = SloClass::ALL[usize::from(class_bits) % SloClass::ALL.len()];
        acc.note_group_formed();
        if rejected {
            acc.absorb_rejected_request(class);
            continue;
        }
        let latency = u64::from(latency) + 1;
        finish += latency;
        acc.absorb_served_request(class, latency, missed);
        let exec = PlanExecution {
            cycles: latency,
            failures: u64::from(missed),
            useful_macro_cycles: latency / 2,
            overhead_fraction: 0.25,
            avg_macro_power_mw: 3.0 + (latency % 7) as f64 * 0.125,
            effective_tops: 1.5,
            worst_irdrop_mv: 40.0 + (latency % 11) as f64,
            mean_irdrop_mv: 20.0,
        };
        acc.absorb_executed_group(i % chips, finish - latency, finish, 1, &exec);
        if i % 3 == 0 {
            acc.absorb_verify_sample(latency, latency + 1, 0.05);
        }
    }
    acc
}

proptest! {
    /// Associativity: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` agree byte for byte,
    /// both as accumulators and as finished reports, over arbitrary absorb
    /// sequences (served/rejected mixes, deadline misses, verify samples,
    /// chips with and without work).
    #[test]
    fn merge_is_associative(
        chips_a in 1usize..4,
        chips_b in 1usize..4,
        chips_c in 1usize..4,
        rows_a in proptest::collection::vec(any::<(u8, u16, bool, bool)>(), 0..12),
        rows_b in proptest::collection::vec(any::<(u8, u16, bool, bool)>(), 0..12),
        rows_c in proptest::collection::vec(any::<(u8, u16, bool, bool)>(), 0..12),
        seed in any::<u64>(),
    ) {
        let a = build_accumulator(chips_a, &rows_a, seed);
        let b = build_accumulator(chips_b, &rows_b, seed ^ 0xB);
        let c = build_accumulator(chips_c, &rows_c, seed ^ 0xC);

        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());

        let mut right_tail = b;
        right_tail.merge(c);
        let mut right = a;
        right.merge(right_tail);

        prop_assert_eq!(&left, &right);
        prop_assert_eq!(json(&left), json(&right));
        prop_assert_eq!(json(&left.finish()), json(&right.finish()));

        // Sanity on the merged totals: request conservation carries through.
        let report = left.finish();
        prop_assert_eq!(
            report.total_requests,
            rows_a.len() + rows_b.len() + rows_c.len()
        );
        prop_assert_eq!(
            report.served_requests + report.rejected_requests,
            report.total_requests
        );
        prop_assert_eq!(report.chips, chips_a + chips_b + chips_c);
        prop_assert_eq!(report.per_chip.len(), report.chips);
        for (i, chip) in report.per_chip.iter().enumerate() {
            prop_assert_eq!(chip.chip, i);
        }
    }
}

/// One absorb call, decoded from a random `(kind, a, b, c)` tuple.
#[derive(Debug, Clone, Copy)]
enum Absorb {
    GroupFormed,
    Executed {
        chip: usize,
        start: u64,
        finish: u64,
        batch: usize,
        exec: PlanExecution,
    },
    Served {
        class: SloClass,
        latency: u64,
        missed: bool,
    },
    Verify {
        analytical: u64,
        accurate: u64,
        bound: f64,
    },
    Rejected {
        class: SloClass,
    },
}

/// A value in `[lo, lo + span)` carrying all 53 mantissa bits of `bits`, so
/// sums of such values round differently in different orders.
fn unit_f64(bits: u64, lo: f64, span: f64) -> f64 {
    lo + (bits >> 11) as f64 / (1u64 << 53) as f64 * span
}

fn decode(chips: usize, (kind, a, b, c): (u8, u64, u64, u64)) -> Absorb {
    let class = SloClass::ALL[(a % 3) as usize];
    match kind % 5 {
        0 => Absorb::GroupFormed,
        1 => {
            let start = b % (1 << 40);
            let cycles = c % (1 << 30);
            Absorb::Executed {
                chip: (a % chips as u64) as usize,
                start,
                finish: start + cycles + (a >> 40) % 4096,
                batch: 1 + ((a >> 8) % 16) as usize,
                exec: PlanExecution {
                    cycles,
                    failures: (b >> 40) % 4,
                    useful_macro_cycles: cycles / 2,
                    overhead_fraction: 0.25,
                    avg_macro_power_mw: unit_f64(a ^ c.rotate_left(17), 0.5, 120.0),
                    effective_tops: 1.5,
                    worst_irdrop_mv: unit_f64(b ^ c, 10.0, 90.0),
                    mean_irdrop_mv: 20.0,
                },
            }
        }
        2 => Absorb::Served {
            class,
            latency: b % (1 << 40),
            missed: c & 1 == 1,
        },
        3 => Absorb::Verify {
            analytical: 1 + b % (1 << 30),
            accurate: 1 + c % (1 << 30),
            bound: unit_f64(a, 0.0, 0.1),
        },
        _ => Absorb::Rejected { class },
    }
}

fn absorb_all(chips: usize, events: &[Absorb]) -> ReportAccumulator {
    let mut acc = ReportAccumulator::new(7, chips, 1.0);
    acc.set_analytical_context(chips, true, 0.05);
    for event in events {
        match *event {
            Absorb::GroupFormed => acc.note_group_formed(),
            Absorb::Executed {
                chip,
                start,
                finish,
                batch,
                exec,
            } => acc.absorb_executed_group(chip, start, finish, batch, &exec),
            Absorb::Served {
                class,
                latency,
                missed,
            } => acc.absorb_served_request(class, latency, missed),
            Absorb::Verify {
                analytical,
                accurate,
                bound,
            } => acc.absorb_verify_sample(analytical, accurate, bound),
            Absorb::Rejected { class } => acc.absorb_rejected_request(class),
        }
    }
    acc
}

/// `items` in a Fisher–Yates order drawn from a splitmix64 stream.
fn permuted<T: Copy>(items: &[T], mut seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

proptest! {
    /// Order freedom: absorbing one multiset of calls — executed groups on
    /// explicit chips with explicit start and finish, served and rejected
    /// requests, verification samples — in the generated order and in a
    /// seeded permutation yields equal accumulators and byte-identical
    /// reports.  The session folds each group in when it executes, so its
    /// report bytes rest on this property.
    #[test]
    fn absorb_order_is_free(
        chips in 1usize..5,
        rows in proptest::collection::vec(any::<(u8, u64, u64, u64)>(), 0..48),
        seed in any::<u64>(),
    ) {
        let events: Vec<Absorb> = rows.iter().map(|&row| decode(chips, row)).collect();
        let given = absorb_all(chips, &events);
        let shuffled = absorb_all(chips, &permuted(&events, seed));
        prop_assert_eq!(&given, &shuffled);
        prop_assert_eq!(json(&given), json(&shuffled));
        prop_assert_eq!(json(&given.finish()), json(&shuffled.finish()));
    }
}

proptest! {
    /// Merging two *real* drained sessions reports exactly like the sum of
    /// the solo reports on every counter that must add, and brackets the
    /// order statistics — across random shard sizes and traffic.
    #[test]
    fn merged_real_sessions_add_up(
        chips_a in 1usize..3,
        chips_b in 1usize..3,
        requests_a in 1usize..12,
        requests_b in 1usize..12,
        seed in any::<u64>(),
    ) {
        let a = drained_accumulator(chips_a, requests_a, seed);
        let b = drained_accumulator(chips_b, requests_b, seed ^ 0x5EED);
        let solo_a = a.finish();
        let solo_b = b.finish();
        let mut merged = a;
        merged.merge(b);
        let report = merged.finish();

        prop_assert_eq!(report.total_requests, solo_a.total_requests + solo_b.total_requests);
        prop_assert_eq!(report.served_requests, solo_a.served_requests + solo_b.served_requests);
        prop_assert_eq!(
            report.rejected_requests,
            solo_a.rejected_requests + solo_b.rejected_requests
        );
        prop_assert_eq!(report.deadline_misses, solo_a.deadline_misses + solo_b.deadline_misses);
        prop_assert_eq!(report.groups_formed, solo_a.groups_formed + solo_b.groups_formed);
        prop_assert_eq!(report.groups_executed, solo_a.groups_executed + solo_b.groups_executed);
        prop_assert_eq!(report.failures, solo_a.failures + solo_b.failures);
        prop_assert_eq!(
            report.simulated_cycles,
            solo_a.simulated_cycles + solo_b.simulated_cycles
        );
        prop_assert_eq!(
            report.makespan_cycles,
            solo_a.makespan_cycles.max(solo_b.makespan_cycles)
        );
        prop_assert_eq!(
            report.latency_max_cycles,
            solo_a.latency_max_cycles.max(solo_b.latency_max_cycles)
        );
        prop_assert!(report.latency_p50_cycles >= solo_a.latency_p50_cycles.min(solo_b.latency_p50_cycles));
        // The sketch reports bucket uppers clamped to the tracked max, so a
        // merged percentile can land one bucket above the larger solo figure
        // (the solo was clamped to its own max, the merged one was not).  The
        // one-sided 1/32 sketch error still brackets it:
        //   merged_p99 <= exact_merged_p99 * 33/32
        //             <= max(exact solo p99) * 33/32
        //             <= max(sketch solo p99) * 33/32.
        let solo_p99_max = solo_a.latency_p99_cycles.max(solo_b.latency_p99_cycles);
        prop_assert!(report.latency_p99_cycles * 32 <= solo_p99_max * 33);
        for (class_row, (ca, cb)) in report
            .per_class
            .iter()
            .zip(solo_a.per_class.iter().zip(&solo_b.per_class))
        {
            prop_assert_eq!(class_row.total, ca.total + cb.total);
            prop_assert_eq!(class_row.served, ca.served + cb.served);
            prop_assert_eq!(class_row.rejected, ca.rejected + cb.rejected);
        }
    }
}
