//! masim-obs — telemetry substrate for the masim workspace.
//!
//! Sits next to `masim-trace` at the bottom of the crate DAG: no
//! dependencies, usable from every layer. Provides
//!
//! * always-on [`Counter`]/[`Gauge`] handles behind a [`MetricSet`]
//!   registry (plain `AtomicU64`s — an increment is one relaxed RMW);
//! * lock-free log2-bucketed [`Histogram`]s (p50/p90/p99/max) in the
//!   same registry;
//! * wall-clock [`span::SpanGuard`] timers recording
//!   count/sum/min/max per deterministic span name;
//! * a bounded ring-buffer [`TraceLog`] of timeline records behind
//!   `trace_span!`/`trace_instant!`, exported to Chrome Trace Event
//!   Format (Perfetto);
//! * a [`RunMetrics`] sink serialized to one JSON sidecar per run under
//!   `reports/metrics/` (hand-rolled writer and parser, no serde);
//! * a rate-limited [`Progress`] reporter for long corpus runs.
//!
//! Metric names follow `crate.subsystem.metric`
//! (e.g. `des.engine.processed`, `sim.flow.resolves`); span names use the
//! same scheme and compose hierarchy into the name
//! (e.g. `core.study.parallel.worker/w00`).

pub mod hist;
mod host;
pub mod json;
mod metrics;
mod progress;
pub mod run;
mod span;
pub mod tracelog;

pub use hist::{HistData, Histogram};
pub use host::peak_rss_bytes;
pub use metrics::{Counter, Gauge, MetricSet, Snapshot};
pub use progress::Progress;
pub use run::RunMetrics;
pub use span::{SpanGuard, SpanStats};
pub use tracelog::{TraceEvent, TraceKind, TraceLog, TraceSpan};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m` even if a thread panicked while holding it. Every value the
/// workspace guards this way (a metric registry map, a trace lane
/// buffer, a rate limiter's timestamp, a daemon's session table) stays
/// valid after a partial update, so a panic in one worker never takes
/// the telemetry or the server down with it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Open a timeline span on the process-global [`TraceLog`] (see
/// [`tracelog::install`]). Evaluates to an `Option` guard — bind it
/// (`let _t = obs::trace_span!("phase");`) so it closes at scope exit.
/// Costs one `OnceLock` load when no log is installed.
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {
        $crate::tracelog::current().map(|tl| tl.span($name))
    };
}

/// Record a point-in-time marker — or, with a value, a counter sample —
/// on the process-global [`TraceLog`]. No-op when no log is installed.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr) => {
        if let Some(tl) = $crate::tracelog::current() {
            tl.instant($name);
        }
    };
    ($name:expr, $v:expr) => {
        if let Some(tl) = $crate::tracelog::current() {
            tl.counter($name, $v as u64);
        }
    };
}

/// Poison `m` the way a dying worker does: a thread panics holding it.
#[cfg(test)]
fn poison<T: Send>(m: &Mutex<T>) {
    std::thread::scope(|s| {
        let held = s.spawn(|| {
            let _guard = m.lock();
            panic!("worker died holding the lock");
        });
        assert!(held.join().is_err());
    });
    assert!(m.is_poisoned());
}
