//! Run-level metrics sink.
//!
//! A [`RunMetrics`] bundles a [`MetricSet`] with identifying labels
//! (trace name, tool, seed, …) and serializes the whole thing to one
//! JSON sidecar under `reports/metrics/`. The schema is flat and stable:
//!
//! ```json
//! {"labels":{"tool":"mfact"},
//!  "counters":{"des.engine.processed":12345},
//!  "gauges":{"des.engine.pending_hwm":17},
//!  "hists":{"sim.msg.bytes":
//!           {"count":4,"sum":96,"min":8,"max":64,
//!            "p50":16,"p90":64,"p99":64,"buckets":{"b03":1,"b04":2,"b06":1}}},
//!  "spans":{"core.study.parallel.worker/w00":
//!           {"count":1,"sum_ns":52000,"min_ns":52000,"max_ns":52000}}}
//! ```
//!
//! This module also owns the determinism contract — what may differ
//! between two runs of the same study: [`Snapshot::deterministic`] for
//! parsed sidecars, [`mask_floats`] for report text. Only a span's
//! three `_ns` fields are host wall clock. Histogram `sum`/`min`/`max`
//! deliberately avoid that suffix and are compared as they are: every
//! histogram a sidecar carries is simulation-deterministic (message
//! bytes, simulated-time deltas). Host wall clock appears only in those
//! span fields; its distributions are measured by `benchmark/`.

use std::collections::BTreeMap;

use crate::hist::HistData;
use crate::json::{self, ParseError, Value};
use crate::metrics::{MetricSet, Snapshot};
use crate::span::SpanStats;

#[derive(Clone, Default, Debug)]
pub struct RunMetrics {
    labels: BTreeMap<String, String>,
    set: MetricSet,
}

impl RunMetrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an existing registry (shared with the instrumented code).
    pub fn with_set(set: MetricSet) -> Self {
        RunMetrics { labels: BTreeMap::new(), set }
    }

    pub fn label(mut self, key: &str, value: &str) -> Self {
        self.labels.insert(key.to_string(), value.to_string());
        self
    }

    pub fn labels(&self) -> &BTreeMap<String, String> {
        &self.labels
    }

    pub fn set(&self) -> &MetricSet {
        &self.set
    }

    pub fn to_json(&self) -> String {
        snapshot_to_json(&self.labels, &self.set.snapshot())
    }
}

/// Serialize labels + snapshot with sorted keys (BTreeMap order).
pub fn snapshot_to_json(labels: &BTreeMap<String, String>, snap: &Snapshot) -> String {
    let labels =
        Value::Obj(labels.iter().map(|(k, v)| (k.clone(), Value::Str(v.clone()))).collect());
    let counters =
        Value::Obj(snap.counters.iter().map(|(k, v)| (k.clone(), Value::UInt(*v))).collect());
    let gauges =
        Value::Obj(snap.gauges.iter().map(|(k, v)| (k.clone(), Value::UInt(*v))).collect());
    let hists = Value::Obj(snap.hists.iter().map(|(k, h)| (k.clone(), hist_to_value(h))).collect());
    let spans = Value::Obj(
        snap.spans
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Value::Obj(vec![
                        ("count".into(), Value::UInt(s.count)),
                        ("sum_ns".into(), Value::UInt(s.sum_ns)),
                        ("min_ns".into(), Value::UInt(s.min_ns)),
                        ("max_ns".into(), Value::UInt(s.max_ns)),
                    ]),
                )
            })
            .collect(),
    );
    Value::Obj(vec![
        ("labels".into(), labels),
        ("counters".into(), counters),
        ("gauges".into(), gauges),
        ("hists".into(), hists),
        ("spans".into(), spans),
    ])
    .to_json()
}

/// Histogram as JSON: exact cells, derived percentiles (for readers that
/// don't want to fold buckets), and the non-empty buckets keyed `bNN`.
fn hist_to_value(h: &HistData) -> Value {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, n)| **n > 0)
        .map(|(b, n)| (format!("b{b:02}"), Value::UInt(*n)))
        .collect();
    Value::Obj(vec![
        ("count".into(), Value::UInt(h.count())),
        ("sum".into(), Value::UInt(h.sum)),
        ("min".into(), Value::UInt(h.min)),
        ("max".into(), Value::UInt(h.max)),
        ("p50".into(), Value::UInt(h.p50())),
        ("p90".into(), Value::UInt(h.p90())),
        ("p99".into(), Value::UInt(h.p99())),
        ("buckets".into(), Value::Obj(buckets)),
    ])
}

/// Labels + snapshot parsed back out of a sidecar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetricsData {
    pub labels: BTreeMap<String, String>,
    pub snapshot: Snapshot,
}

/// Parse a sidecar produced by [`RunMetrics::to_json`] /
/// [`snapshot_to_json`].
pub fn parse_json(text: &str) -> Result<RunMetricsData, ParseError> {
    let doc = json::parse(text)?;
    let bad = |message: &str| ParseError { offset: 0, message: message.to_string() };

    let mut data = RunMetricsData::default();
    if let Some(fields) = doc.get("labels").and_then(Value::as_obj) {
        for (k, v) in fields {
            let v = v.as_str().ok_or_else(|| bad("label value not a string"))?;
            data.labels.insert(k.clone(), v.to_string());
        }
    }
    for (section, out) in
        [("counters", &mut data.snapshot.counters), ("gauges", &mut data.snapshot.gauges)]
    {
        if let Some(fields) = doc.get(section).and_then(Value::as_obj) {
            for (k, v) in fields {
                let v = v.as_u64().ok_or_else(|| bad(&format!("{section} value not a u64")))?;
                out.insert(k.clone(), v);
            }
        }
    }
    if let Some(fields) = doc.get("hists").and_then(Value::as_obj) {
        for (k, v) in fields {
            let field = |name: &str| {
                v.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad(&format!("hist missing {name}")))
            };
            let mut h = HistData {
                sum: field("sum")?,
                min: field("min")?,
                max: field("max")?,
                ..HistData::default()
            };
            if let Some(buckets) = v.get("buckets").and_then(Value::as_obj) {
                for (bk, bn) in buckets {
                    let idx: usize = bk
                        .strip_prefix('b')
                        .and_then(|s| s.parse().ok())
                        .filter(|i| *i < crate::hist::NUM_BUCKETS)
                        .ok_or_else(|| bad("bad hist bucket key"))?;
                    h.buckets[idx] = bn.as_u64().ok_or_else(|| bad("hist bucket not a u64"))?;
                }
            }
            data.snapshot.hists.insert(k.clone(), h);
        }
    }
    if let Some(fields) = doc.get("spans").and_then(Value::as_obj) {
        for (k, v) in fields {
            let field = |name: &str| {
                v.get(name)
                    .and_then(Value::as_u64)
                    .ok_or_else(|| bad(&format!("span missing {name}")))
            };
            data.snapshot.spans.insert(
                k.clone(),
                SpanStats {
                    count: field("count")?,
                    sum_ns: field("sum_ns")?,
                    min_ns: field("min_ns")?,
                    max_ns: field("max_ns")?,
                },
            );
        }
    }
    Ok(data)
}

impl Snapshot {
    /// What two runs of the same study must agree on: every span keeps
    /// its `count` and loses its host wall-clock `sum_ns`/`min_ns`/
    /// `max_ns`; counters, gauges and histograms stay whole.
    // `#[inline]` (and on `mask_floats`): only tests call these, so they
    // are compiled there and `repro`'s object code stays as it was.
    #[inline]
    pub fn deterministic(&self) -> Snapshot {
        let mut out = self.clone();
        for s in out.spans.values_mut() {
            *s = SpanStats { count: s.count, sum_ns: 0, min_ns: 0, max_ns: 0 };
        }
        out
    }
}

/// Report text with every run of digits and dots that contains a dot
/// replaced by `#.#`: wall seconds are the only floating-point output
/// that varies run to run, and masking all of them needs no per-report
/// column knowledge. Integers (counts, rank numbers, failure
/// annotations) stay exact.
#[inline]
pub fn mask_floats(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut run = String::new();
    for c in text.chars().chain(std::iter::once('\n')) {
        if c.is_ascii_digit() || c == '.' {
            run.push(c);
        } else {
            if run.contains('.') {
                out.push_str("#.#");
            } else {
                out.push_str(&run);
            }
            run.clear();
            out.push(c);
        }
    }
    out.pop(); // the sentinel '\n'
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let rm = RunMetrics::new().label("tool", "mfact").label("trace", "cg_64");
        rm.set().add("a.b.c", 41);
        rm.set().gauge_max("a.b.hwm", 9);
        rm.set().record_span("a.phase", 1234);
        rm.set().record_span("a.phase", 2000);

        let text = rm.to_json();
        let data = parse_json(&text).unwrap();
        assert_eq!(data.labels["tool"], "mfact");
        assert_eq!(data.labels["trace"], "cg_64");
        assert_eq!(data.snapshot, rm.set().snapshot());

        // Hostile inputs: labels and metric names with separators,
        // quotes, LF and CR, plus a histogram and a span.
        let rm = RunMetrics::new()
            .label("app", "name,with,commas")
            .label("quote", "she said \"hi\"")
            .label("multi", "line one\nline two")
            .label("cr", "carriage\rreturn")
            .label("plain", "ok");
        rm.set().add("weird,counter", 7);
        rm.set().record_span("span \"q\"", 42);
        rm.set().hist("dist,name").record(9);
        rm.set().hist("dist,name").record(300);
        let data = parse_json(&rm.to_json()).unwrap();
        assert_eq!(&data.labels, rm.labels());
        assert_eq!(data.snapshot, rm.set().snapshot());
        let h = &data.snapshot.hists["dist,name"];
        assert_eq!((h.count(), h.sum, h.min, h.max), (2, 309, 9, 300));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_json("{\"counters\":{\"x\":\"nope\"}}").is_err());
        assert!(parse_json("not json").is_err());
    }

    #[test]
    fn hist_json_round_trip() {
        let rm = RunMetrics::new().label("tool", "packet");
        let h = rm.set().hist("sim.msg.bytes");
        for v in [8u64, 16, 16, 64] {
            h.record(v);
        }
        let data = parse_json(&rm.to_json()).unwrap();
        assert_eq!(data.snapshot, rm.set().snapshot());
        let h = &data.snapshot.hists["sim.msg.bytes"];
        assert_eq!(h.count(), 4);
        assert_eq!(h.max, 64);
    }

    #[test]
    fn deterministic_zeroes_span_ns_only_and_keeps_every_series() {
        let rm = RunMetrics::new().label("tool", "packet");
        let ms = rm.set();
        ms.add("sim.shared", 3);
        ms.add("des.queue.late_pushes", 1);
        ms.gauge_max("sim.link.bytes_max", 9);
        ms.gauge_max("des.queue.bucket_len_max", 4);
        ms.record_span("sim.runner.simulate", 1234);
        ms.record_span("sim.runner.simulate", 2000);
        ms.record_span("des.queue.scan", 5);
        for v in [8u64, 16, 16, 64] {
            ms.hist("sim.msg.bytes").record(v);
        }
        ms.hist("des.queue.depth").record(2);
        let snap = ms.snapshot();

        // Nothing is dropped; spans lose their three `_ns` fields and
        // keep `count`; a histogram's sum/min/max stay.
        let all = snap.deterministic();
        assert_eq!(all.counters, snap.counters);
        assert_eq!(all.gauges, snap.gauges);
        assert_eq!(all.hists, snap.hists);
        assert_eq!(all.spans.keys().collect::<Vec<_>>(), snap.spans.keys().collect::<Vec<_>>());
        assert_eq!(
            all.spans["sim.runner.simulate"],
            SpanStats { count: 2, sum_ns: 0, min_ns: 0, max_ns: 0 }
        );
        assert_eq!(
            all.spans["des.queue.scan"],
            SpanStats { count: 1, sum_ns: 0, min_ns: 0, max_ns: 0 }
        );

        // The sidecar parses back to the same deterministic value.
        assert_eq!(parse_json(&rm.to_json()).unwrap().snapshot.deterministic(), all);
    }

    #[test]
    fn mask_floats_masks_decimals_and_keeps_integers() {
        assert_eq!(mask_floats("CMC(16)  0.438  12 rows"), "CMC(16)  #.#  12 rows");
        assert_eq!(mask_floats("wall 1.5"), "wall #.#");
        assert_eq!(mask_floats("ranks 1024"), "ranks 1024");
        assert_eq!(mask_floats(""), "");
    }
}
