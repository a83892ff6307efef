//! `hostbench` — host-cost benchmark of the simulated PIM serving fleet.
//!
//! ```text
//! hostbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <path>]
//! ```
//!
//! Runs one named workload (see `README.md` beside this crate) against the
//! serving stack's public API, measures for `--seconds`, checks the
//! program's outputs, and prints as its last stdout line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer split.  The line before
//! it is the full result record with its workload fingerprint; `--out`
//! appends that record to a file as one JSON line.  The exit code is 0 only
//! when every correctness check passed.

mod drive;
mod speed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drive::{Deployment, Rep, Variant, Workload};
use speed::Speed;
use stats::{median, percentile};
use trace::{Layer, Off, SpanLog};

/// Set-ups per run; `setup_s` and the per-layer set-up figures are medians.
const SETUP_REPS: usize = 5;
/// Reference loops timed after each set-up to scale it by.
const SETUP_SPEED_SAMPLES: usize = 8;
/// Fewest replays a run measures, however long they take.
const MIN_REPS: usize = 3;
/// The seed whose report digests are pinned.
const DEFAULT_SEED: u64 = 0;

const USAGE: &str =
    "usage: hostbench --workload <hyperscale-verify|hyperscale-fast|global-outage|dag-sessions> \
[--seed <n>] [--seconds <s>] [--trace 0|1] [--out <path>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// One reported figure; `None` prints as `null` (a figure this platform
/// cannot measure).
#[derive(Debug)]
struct Metric {
    name: String,
    unit: &'static str,
    value: Option<f64>,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: Some(value),
    }
}

/// A run's verdict and figures.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

/// Correctness ledger over every replay of a run: the first replay's
/// report is the reference every later replay must reproduce byte for
/// byte, and the reference itself must pass the byte check (pinned digest
/// at the default seed, parallel-vs-sequential equality elsewhere).
#[derive(Debug, Default)]
struct Checks {
    reference: Option<String>,
    /// `(submitted, lost, duplicated, same bytes as the reference)`.
    runs: Vec<(u64, u64, u64, bool)>,
    /// The reference report failed its byte check.
    reference_failed: bool,
    problems: Vec<String>,
}

impl Checks {
    fn record(&mut self, rep: &Rep) {
        let reference = self.reference.get_or_insert_with(|| rep.report.clone());
        let same = *reference == rep.report;
        if !same {
            self.problems
                .push("a replay's report differs from the first replay's".into());
        }
        if rep.lost + rep.duplicated > 0 {
            self.problems.push(format!(
                "{} requests lost and {} resolved more than once",
                rep.lost, rep.duplicated
            ));
        }
        if rep.counts.demotions > 0 {
            self.problems.push(format!(
                "{} spurious demotions on an honestly calibrated zoo",
                rep.counts.demotions
            ));
        }
        self.runs
            .push((rep.submitted, rep.lost, rep.duplicated, same));
    }

    /// Checks the reference report's bytes: the pinned digest at the
    /// default seed, otherwise byte-equality with `fanned` (the same trace
    /// replayed with `parallel: true`).
    fn check_reference(&mut self, workload: Workload, seed: u64, fanned: Option<&Rep>) {
        let reference = self.reference.as_deref().unwrap_or_default();
        if seed == DEFAULT_SEED {
            let pinned = workload.pinned_digest();
            if !stats::digest_matches(reference.as_bytes(), pinned) {
                self.reference_failed = true;
                self.problems.push(format!(
                    "report digest {:016x} does not match the pinned {pinned:016x}",
                    stats::digest(reference.as_bytes())
                ));
            }
        }
        if let Some(fanned) = fanned {
            if fanned.report != reference {
                self.reference_failed = true;
                self.problems
                    .push("parallel and sequential replays produced different reports".into());
            }
        }
    }

    fn finish(self, outcome: &mut Outcome) {
        for &(submitted, lost, duplicated, same) in &self.runs {
            outcome.attempted += submitted;
            let bytes_ok = same && !self.reference_failed;
            outcome.failed += stats::run_failures(submitted, lost, duplicated, bytes_ok);
        }
        outcome.problems.extend(self.problems);
    }
}

/// Sets the deployment up `SETUP_REPS` times; returns the last one and
/// each set-up's `(compile_s, calibrate_s, slowdown)`, where `slowdown` is
/// the host's, measured by the reference loop right after that set-up.
fn set_up(workload: Workload) -> (Deployment, Vec<(f64, f64, f64)>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let deployment = Deployment::set_up(workload);
        let mut speed = Speed::new();
        for _ in 0..SETUP_SPEED_SAMPLES {
            speed.sample();
        }
        times.push((
            deployment.compile_s,
            deployment.calibrate_s,
            speed.slowdown(),
        ));
        last = Some(deployment);
    }
    (last.expect("at least one set-up"), times)
}

fn fanout_variant() -> Variant {
    Variant {
        parallel: true,
        ..Variant::BASE
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB; `None` without
/// `/proc`.  This process runs one workload only, so the peak is that
/// workload's.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// The end-to-end run: untraced replays for `--seconds`.
fn untraced(args: &Args) -> Outcome {
    let (deployment, setups) = set_up(args.workload);
    let setup_s: Vec<f64> = setups.iter().map(|(c, k, _)| c + k).collect();
    let setup_nominal_s: Vec<f64> = setups.iter().map(|(c, k, slow)| (c + k) / slow).collect();
    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut walls = Vec::new();
    let mut stretches = Vec::new();
    let mut speed = Speed::new();
    let mut first: Option<Rep> = None;
    let start = Instant::now();
    while start.elapsed() < budget || walls.len() < MIN_REPS {
        let mut rep = deployment.replay(args.seed, &mut Off);
        speed.sample();
        checks.record(&rep);
        walls.push(rep.wall_s);
        stretches.push(std::mem::take(&mut rep.stretches));
        first.get_or_insert(rep);
    }
    let first = first.expect("at least one replay");
    // Bursts of the host's slowdown land in different stretches on
    // different replays; each stretch's fastest time leaves the least of
    // them in, and scaling by the reference loop takes out what is left.
    let fastest = percentile(&walls, 0.0).unwrap_or(0.0);
    let host_wall = stats::sum_of_fastest(&stretches).unwrap_or(fastest);
    let slowdown = speed.slowdown();
    eprintln!(
        "hostbench: {} replays, wall s fastest stretches {host_wall:.4} min {fastest:.4} \
         median {:.4} max {:.4}; set-up s {:?}; host slowdown {slowdown:.4}",
        walls.len(),
        med(&walls),
        walls.iter().copied().fold(0.0, f64::max),
        setup_s
    );
    let fanned = (args.seed != DEFAULT_SEED).then(|| {
        deployment
            .variant(fanout_variant())
            .replay(args.seed, &mut Off)
    });
    checks.check_reference(args.workload, args.seed, fanned.as_ref());

    let mut outcome = Outcome::default();
    checks.finish(&mut outcome);
    let success = 1.0 - stats::error_rate(outcome.failed, outcome.attempted);
    let v = first.virt;
    outcome.metrics = vec![
        metric("setup_s", "s", med(&setup_nominal_s)),
        metric(
            "host_rps",
            "req/s",
            first.submitted as f64 * slowdown / host_wall,
        ),
        Metric {
            name: "peak_rss_mib".into(),
            unit: "MiB",
            value: peak_rss_mib(),
        },
        metric("virtual_rps", "req/s", v.rps),
        metric("virtual_p50_us", "us", v.p50_us),
        metric("virtual_p99_us", "us", v.p99_us),
        metric("slo_attainment", "share", v.slo_attainment),
        metric("success_rate", "share", success),
    ];
    outcome
}

/// Per-layer figures from the traced replays of one run.
#[derive(Debug, Default)]
struct LayerTimes {
    reps: usize,
    busy_ns: [f64; Layer::ALL.len()],
    submit_p99_ns: Vec<f64>,
    submit_max_ns: f64,
    covered_ns: u64,
    wall_ns: u64,
}

impl LayerTimes {
    fn absorb(&mut self, log: &SpanLog, wall_s: f64) {
        self.reps += 1;
        for (busy, layer) in self.busy_ns.iter_mut().zip(Layer::ALL) {
            *busy += log.busy_ns(layer) as f64;
        }
        self.submit_p99_ns
            .push(percentile(log.submit_ns(), 0.99).unwrap_or(0.0));
        self.submit_max_ns = self
            .submit_max_ns
            .max(percentile(log.submit_ns(), 1.0).unwrap_or(0.0));
        self.covered_ns += log.covered_ns();
        self.wall_ns += (wall_s * 1e9) as u64;
    }

    /// Mean ms per traced replay spent inside `layer`.
    fn ms(&self, layer: Layer) -> f64 {
        self.busy_ns[layer.index()] / 1e6 / self.reps.max(1) as f64
    }
}

/// The per-layer run: untraced and traced replays alternate for
/// `--seconds`, then the differential replays and backend probes run.
fn traced(args: &Args) -> Outcome {
    let workload = args.workload;
    let (deployment, setups) = set_up(workload);
    let compile_s: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let calibrate_s: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let stream_ns: Vec<f64> = (0..3)
        .map(|_| drive::stream_probe(workload, args.seed))
        .collect();

    let budget = Duration::from_secs(args.seconds);
    let mut checks = Checks::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut serialize_s = Vec::new();
    let mut times = LayerTimes::default();
    let mut first: Option<Rep> = None;
    let start = Instant::now();
    while start.elapsed() < budget || plain.len() < 2 {
        let rep = deployment.replay(args.seed, &mut Off);
        checks.record(&rep);
        plain.push(rep.wall_s);
        serialize_s.push(rep.serialize_s);
        first.get_or_insert(rep);

        let mut log = SpanLog::new();
        let rep = deployment.replay(args.seed, &mut log);
        checks.record(&rep);
        traced.push(rep.wall_s);
        times.absorb(&log, rep.wall_s);
    }
    let first = first.expect("at least one replay");

    let fanout = deployment.variant(fanout_variant());
    let fanned_reps: Vec<Rep> = (0..2).map(|_| fanout.replay(args.seed, &mut Off)).collect();
    checks.check_reference(workload, args.seed, fanned_reps.first());
    let fanout_ratio = med(&fanned_reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()) / med(&plain);
    let verify_s = if workload.verify_every() > 0 {
        let unverified = deployment.variant(Variant {
            verify: false,
            ..Variant::BASE
        });
        let walls: Vec<f64> = (0..2)
            .map(|_| unverified.replay(args.seed, &mut Off).wall_s)
            .collect();
        med(&plain) - med(&walls)
    } else {
        0.0
    };
    let (fresh_ms, cached_ms) = drive::replay_probe(&deployment, 4);
    let lookup_ns = drive::lookup_probe(&deployment, 2_000_000);

    let mut outcome = Outcome::default();
    checks.finish(&mut outcome);
    let c = first.counts;
    let mut m = vec![
        metric("workloads.trace_ns_per_item", "ns", med(&stream_ns)),
        metric("aim_core.compile_s", "s", med(&compile_s)),
        metric("aim_core.calibrate_s", "s", med(&calibrate_s)),
        metric("pim_sim.replay_fresh_ms", "ms", fresh_ms),
        metric("pim_sim.replay_cached_ms", "ms", cached_ms),
        metric(
            "pim_sim.bank_share",
            "share",
            if fresh_ms > 0.0 {
                1.0 - cached_ms / fresh_ms
            } else {
                0.0
            },
        ),
        metric("pim_sim.analytical_lookup_ns", "ns", lookup_ns),
        metric("pim_sim.replays", "count", c.replays as f64),
        metric("pim_sim.verify_s", "s", verify_s),
        metric("session.fanout_ratio", "ratio", fanout_ratio),
        metric("session.groups", "count", c.groups as f64),
        metric("session.mean_batch", "req", c.mean_batch),
    ];
    for door in ["fleet", "global", "dag"] {
        let on = door == workload.door();
        let pick = |v: f64| if on { v } else { 0.0 };
        m.push(metric(
            format!("{door}.submit_ms"),
            "ms",
            pick(times.ms(Layer::Submit)),
        ));
        m.push(metric(
            format!("{door}.poll_ms"),
            "ms",
            pick(times.ms(Layer::Poll)),
        ));
        m.push(metric(
            format!("{door}.drain_ms"),
            "ms",
            pick(times.ms(Layer::Drain)),
        ));
        m.push(metric(
            format!("{door}.submit_p99_us"),
            "us",
            pick(med(&times.submit_p99_ns) / 1e3),
        ));
        m.push(metric(
            format!("{door}.submit_max_ms"),
            "ms",
            pick(times.submit_max_ns / 1e6),
        ));
    }
    m.extend([
        metric("fleet.failovers", "count", c.failovers as f64),
        metric("fleet.scale_events", "count", c.scale_events as f64),
        metric("global.migrations", "count", c.migrations as f64),
        metric("global.retries", "count", c.retries as f64),
        metric("global.shed", "count", c.shed as f64),
        metric("dag.stages", "count", c.dag_stages as f64),
        metric("dag.promotions", "count", c.promotions as f64),
        metric("calibration.samples", "count", c.cal_samples as f64),
        metric(
            "calibration.recalibrations",
            "count",
            c.recalibrations as f64,
        ),
        metric("calibration.demotions", "count", c.demotions as f64),
        metric("report.bytes", "B", first.report.len() as f64),
        metric("report.serialize_ms", "ms", med(&serialize_s) * 1e3),
        metric("bench.check_ms", "ms", times.ms(Layer::Check)),
        metric("trace.overhead", "ratio", med(&traced) / med(&plain)),
        metric(
            "trace.coverage",
            "share",
            stats::coverage(times.wall_ns, times.covered_ns),
        ),
        metric(
            "trace.self_ms",
            "ms",
            stats::self_ns(times.wall_ns, times.covered_ns) as f64 / 1e6 / times.reps.max(1) as f64,
        ),
    ]);
    // Streaming the workload's inputs inside the replay window.
    m.push(metric(
        "workloads.stream_ms",
        "ms",
        times.ms(Layer::Workloads),
    ));
    outcome.metrics = m;
    outcome
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".into(),
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push('}');
    out
}

fn problems_json(problems: &[String]) -> String {
    let quoted: Vec<String> = problems
        .iter()
        .map(|p| format!("\"{}\"", p.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    format!("[{}]", quoted.join(", "))
}

/// The result record: the workload fingerprint plus every figure, so a
/// record can only ever be compared with records of the same workload.
fn record_json(args: &Args, outcome: &Outcome) -> String {
    let w = args.workload;
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"requests\": {}, \"fleet\": \"{}\", \
         \"backend\": \"analytical\", \"verify_every\": {}, \"parallel\": {}, \"host_threads\": {}, \
         \"trace\": {}, \"seconds\": {}}}, \"correct\": {}, \"problems\": {}, \"metrics\": {}}}",
        w.name(),
        args.seed,
        w.requests(),
        w.fleet_shape(),
        w.verify_every(),
        Variant::BASE.parallel,
        rayon::current_num_threads(),
        args.trace,
        args.seconds,
        outcome.problems.is_empty(),
        problems_json(&outcome.problems),
        metrics_json(&outcome.metrics),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("hostbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for problem in &outcome.problems {
        eprintln!("hostbench: correctness check failed: {problem}");
    }
    let record = record_json(&args, &outcome);
    if let Some(path) = &args.out {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(err) = appended {
            eprintln!("hostbench: cannot append to {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let correct = outcome.problems.is_empty();
    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
