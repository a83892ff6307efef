//! Host-time spans recorded from outside the program: each span wraps one
//! call into a layer's public API.  The untraced build of a run uses
//! [`Off`], which compiles every span down to the bare call.

use std::time::Instant;

use crate::stats::{Interval, Union};

/// What one span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Pulling the next generated request or session item off its stream
    /// (`workloads::{inputs,dag}`).
    Workloads,
    /// One `submit` call into the workload's front door.
    Submit,
    /// One `poll_completions` / `poll_outcomes` call.
    Poll,
    /// The final `drain`.
    Drain,
    /// The benchmark's own exactly-once and latency bookkeeping on polled
    /// outcomes — not a program layer, but attributed so coverage is honest.
    Check,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Self; 5] = [
        Self::Workloads,
        Self::Submit,
        Self::Poll,
        Self::Drain,
        Self::Check,
    ];

    /// Position of the layer in [`Self::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Wraps calls into the program in spans.
pub trait Tracer {
    /// Runs `f` as one span of `layer`.
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// No tracing: a span is the bare call.
#[derive(Debug, Default)]
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn span<R>(&mut self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Spans of one traced run, aggregated as they arrive: per-layer busy time
/// and call counts, every submit call's duration (for its percentiles),
/// and the union of all spans (for coverage).
///
/// Spans are chained: each starts at the clock reading that ended the
/// previous one, so one clock read separates two calls instead of two.
/// The replay loops run nothing between spans but loop control, so chaining
/// hands that loop control (and the log's own bookkeeping) to the next
/// span instead of leaving it unattributed.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    last_end: Option<u64>,
    busy_ns: [u64; Layer::ALL.len()],
    submit_ns: Vec<f64>,
    union: Union,
}

impl SpanLog {
    /// A log whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            last_end: None,
            busy_ns: [0; Layer::ALL.len()],
            submit_ns: Vec::new(),
            union: Union::default(),
        }
    }

    /// Nanoseconds since the log was opened.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total host time spent inside `layer`, ns.
    pub fn busy_ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer.index()]
    }

    /// Duration of every submit call, ns, in call order.
    pub fn submit_ns(&self) -> &[f64] {
        &self.submit_ns
    }

    /// Nanoseconds covered by the union of all spans so far.
    pub fn covered_ns(&self) -> u64 {
        self.union.covered()
    }
}

impl Tracer for SpanLog {
    fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let start = match self.last_end {
            Some(end) => end,
            None => self.now_ns(),
        };
        let out = f();
        let end = self.now_ns();
        self.last_end = Some(end);
        let i = layer.index();
        self.busy_ns[i] += end - start;
        if layer == Layer::Submit {
            self.submit_ns.push((end - start) as f64);
        }
        self.union.add(Interval { start, end });
        out
    }
}
