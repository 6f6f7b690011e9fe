//! Rate-limited progress reporting for long corpus runs.
//!
//! Prints `label: done/total (pct%) rate/s ETA ..s` lines to stderr, at
//! most once per interval, so a 235-trace sweep shows life without
//! flooding the terminal. Thread-safe: workers call [`Progress::tick`]
//! concurrently.
//!
//! The rate limiter is **per reporter instance**, not global: every
//! concurrent study session constructs its own `Progress`, so one
//! chatty session cannot starve another's lines. When several sessions
//! interleave on the same stderr (the `repro serve` daemon), give each
//! one a short id via [`Progress::with_prefix`] so its lines read
//! `[ab12cd] label: ...` and stay attributable.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::lock;

pub struct Progress {
    label: String,
    /// Short session/run id printed as `[prefix] ` before the label;
    /// empty = no prefix (single-session CLI runs).
    prefix: String,
    total: u64,
    done: AtomicU64,
    started: Instant,
    min_interval: Duration,
    last_print: Mutex<Option<Instant>>,
    enabled: bool,
    workers: usize,
    // True once the 100% line went out — `tick` reaching `total` and a
    // later `finish()` must not both print it.
    final_reported: AtomicBool,
    // Lines emitted (counted even when printing is disabled, so tests
    // can assert the dedup without capturing stderr).
    lines: AtomicU64,
}

impl Progress {
    /// Reporter for `total` units of work, printing at most every 500 ms.
    pub fn new(label: &str, total: u64) -> Self {
        Progress {
            label: label.to_string(),
            prefix: String::new(),
            total,
            done: AtomicU64::new(0),
            started: Instant::now(),
            min_interval: Duration::from_millis(500),
            last_print: Mutex::new(None),
            enabled: true,
            workers: 1,
            final_reported: AtomicBool::new(false),
            lines: AtomicU64::new(0),
        }
    }

    /// A reporter aggregating ticks from `workers` concurrent workers;
    /// printed lines carry a `[Nw]` tag so parallel runs are
    /// distinguishable from sequential ones in captured logs.
    pub fn with_workers(label: &str, total: u64, workers: usize) -> Self {
        let mut p = Self::new(label, total);
        p.workers = workers.max(1);
        p
    }

    /// Tag every printed line with a short session id (`[id] label: ...`)
    /// so concurrently running sessions stay distinguishable on a shared
    /// stderr. Rate limiting is already per instance — i.e. per session —
    /// so tagged reporters never contend for one global limiter.
    #[must_use]
    pub fn with_prefix(mut self, prefix: &str) -> Self {
        self.prefix = prefix.to_string();
        self
    }

    /// The session-id prefix, if one was set.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Number of concurrent workers this reporter aggregates over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Lines reported so far (counted even in silent mode).
    pub fn lines(&self) -> u64 {
        self.lines.load(Ordering::Relaxed)
    }

    /// Record `n` completed units; prints a line if the rate limiter
    /// allows. The tick that reaches `total` always prints — and marks
    /// the final line as reported, so a following [`Progress::finish`]
    /// does not repeat it.
    pub fn tick(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        let now = Instant::now();
        {
            let mut last = lock(&self.last_print);
            match *last {
                Some(t) if now.duration_since(t) < self.min_interval && done < self.total => return,
                _ => *last = Some(now),
            }
        }
        if done >= self.total && self.final_reported.swap(true, Ordering::Relaxed) {
            return;
        }
        self.print_line(done);
    }

    /// Print the final line — unless the last [`Progress::tick`] (or an
    /// earlier `finish`) already reported 100%. Idempotent.
    pub fn finish(&self) {
        if self.final_reported.swap(true, Ordering::Relaxed) {
            return;
        }
        self.print_line(self.done());
    }

    fn print_line(&self, done: u64) {
        self.lines.fetch_add(1, Ordering::Relaxed);
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 { done as f64 / elapsed } else { 0.0 };
        let pct = if self.total > 0 { 100.0 * done as f64 / self.total as f64 } else { 0.0 };
        let eta = if rate > 0.0 && done < self.total {
            format!(" ETA {:.0}s", (self.total - done) as f64 / rate)
        } else {
            String::new()
        };
        let tag = if self.workers > 1 { format!(" [{}w]", self.workers) } else { String::new() };
        let pre =
            if self.prefix.is_empty() { String::new() } else { format!("[{}] ", self.prefix) };
        let mut err = std::io::stderr().lock();
        let _ = writeln!(
            err,
            "{pre}{}{}: {}/{} ({:.1}%) {:.1}/s{}",
            self.label, tag, done, self.total, pct, rate, eta
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reporter that counts but never prints.
    fn silent(label: &str, total: u64) -> Progress {
        let mut p = Progress::new(label, total);
        p.enabled = false;
        p
    }

    #[test]
    fn silent_counts_without_printing() {
        let p = silent("test", 10);
        for _ in 0..10 {
            p.tick(1);
        }
        assert_eq!(p.done(), 10);
        p.finish();
    }

    /// Satellite: the tick that reaches `total` reports the 100% line;
    /// `finish()` must not repeat it (and repeated `finish()` is a
    /// no-op).
    #[test]
    fn finish_is_idempotent_with_final_tick() {
        let p = silent("test", 3);
        p.tick(3); // reaches total → reports the final line
        let after_tick = p.lines();
        assert_eq!(after_tick, 1);
        p.finish();
        p.finish();
        assert_eq!(p.lines(), after_tick, "finish() repeated the 100% line");
    }

    #[test]
    fn finish_reports_when_no_final_tick_printed() {
        let p = silent("test", 5);
        p.tick(1); // first tick reports (rate limiter starts empty)
        assert_eq!(p.lines(), 1);
        p.finish();
        assert_eq!(p.lines(), 2, "finish() must report when 100% was never shown");
        p.finish();
        assert_eq!(p.lines(), 2);
    }

    #[test]
    fn with_workers_records_count() {
        let mut p = Progress::with_workers("test", 4, 3);
        p.enabled = false;
        assert_eq!(p.workers(), 3);
        p.tick(2);
        p.tick(2);
        assert_eq!(p.done(), 4);
        // Zero workers is clamped to one so the tag logic stays total.
        assert_eq!(Progress::with_workers("t", 1, 0).workers(), 1);
    }

    /// Satellite: session-id prefixes keep concurrent sessions apart,
    /// and each prefixed reporter keeps its own (per-session) rate
    /// limiter — ticking one never suppresses another's lines.
    #[test]
    fn prefixed_reporters_rate_limit_independently() {
        let a = silent("study", 100).with_prefix("aa0001");
        let b = silent("study", 100).with_prefix("bb0002");
        assert_eq!(a.prefix(), "aa0001");
        assert_eq!(b.prefix(), "bb0002");
        a.tick(1); // first tick on a fresh limiter always reports
        assert_eq!(a.lines(), 1);
        a.tick(1); // within a's 500 ms window: suppressed
        assert_eq!(a.lines(), 1);
        // b's limiter is untouched by a's traffic.
        b.tick(1);
        assert_eq!(b.lines(), 1);
    }
}
