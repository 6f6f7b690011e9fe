//! Run-level metrics sink.
//!
//! A [`RunMetrics`] bundles a [`MetricSet`] with identifying labels
//! (trace name, tool, seed, …) and serializes the whole thing to a JSON
//! or CSV sidecar under `reports/metrics/`. The JSON schema is flat and
//! stable:
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
//! bytes, simulated-time deltas) — host wall-clock distributions live
//! only in `BENCH_obs.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

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

    pub fn set_label(&mut self, key: &str, value: &str) {
        self.labels.insert(key.to_string(), value.to_string());
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

    /// CSV with one row per metric:
    /// `kind,name,value,count,sum_ns,min_ns,max_ns`.
    ///
    /// Histograms take two row shapes: a `hist` summary row (count, sum,
    /// min, max in the span columns) plus one `histb` row per non-empty
    /// bucket (`value` = bucket index, `count` = bucket population).
    pub fn to_csv(&self) -> String {
        let snap = self.set.snapshot();
        let mut out = String::from("kind,name,value,count,sum_ns,min_ns,max_ns\n");
        for (k, v) in &self.labels {
            let _ = writeln!(out, "label,{},{},,,,", csv_field(k), csv_field(v));
        }
        for (k, v) in &snap.counters {
            let _ = writeln!(out, "counter,{},{},,,,", csv_field(k), v);
        }
        for (k, v) in &snap.gauges {
            let _ = writeln!(out, "gauge,{},{},,,,", csv_field(k), v);
        }
        for (k, h) in &snap.hists {
            let _ =
                writeln!(out, "hist,{},,{},{},{},{}", csv_field(k), h.count(), h.sum, h.min, h.max);
            for (b, n) in h.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
                let _ = writeln!(out, "histb,{},{},{},,,", csv_field(k), b, n);
            }
        }
        for (k, s) in &snap.spans {
            let _ = writeln!(
                out,
                "span,{},,{},{},{},{}",
                csv_field(k),
                s.count,
                s.sum_ns,
                s.min_ns,
                s.max_ns
            );
        }
        out
    }

    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_csv())
    }
}

// A field is quoted when it contains a separator, a quote, or either
// newline byte — '\r' matters because the reader tolerates (and strips)
// bare CRs between fields, so an unquoted CR would not round-trip.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
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

/// Parse a sidecar produced by [`RunMetrics::to_csv`] back into labels
/// and a snapshot (quoted fields, embedded separators/newlines, and the
/// two-row histogram shape all round-trip).
pub fn parse_csv(text: &str) -> Result<RunMetricsData, ParseError> {
    let bad = |message: String| ParseError { offset: 0, message };
    let mut data = RunMetricsData::default();
    let uint =
        |s: &str, what: &str| s.parse::<u64>().map_err(|_| bad(format!("{what} not a u64: {s:?}")));
    for (i, row) in csv_rows(text).into_iter().enumerate() {
        if i == 0 {
            continue; // header
        }
        if row.len() != 7 {
            return Err(bad(format!("row {i} has {} fields, expected 7", row.len())));
        }
        let (kind, name, value) = (row[0].as_str(), row[1].clone(), row[2].as_str());
        match kind {
            "label" => {
                data.labels.insert(name, value.to_string());
            }
            "counter" => {
                data.snapshot.counters.insert(name, uint(value, "counter value")?);
            }
            "gauge" => {
                data.snapshot.gauges.insert(name, uint(value, "gauge value")?);
            }
            "span" => {
                data.snapshot.spans.insert(
                    name,
                    SpanStats {
                        count: uint(&row[3], "span count")?,
                        sum_ns: uint(&row[4], "span sum")?,
                        min_ns: uint(&row[5], "span min")?,
                        max_ns: uint(&row[6], "span max")?,
                    },
                );
            }
            "hist" => {
                let h = data.snapshot.hists.entry(name).or_default();
                h.sum = uint(&row[4], "hist sum")?;
                h.min = uint(&row[5], "hist min")?;
                h.max = uint(&row[6], "hist max")?;
            }
            "histb" => {
                let idx = uint(value, "hist bucket index")? as usize;
                if idx >= crate::hist::NUM_BUCKETS {
                    return Err(bad(format!("hist bucket index {idx} out of range")));
                }
                data.snapshot.hists.entry(name).or_default().buckets[idx] =
                    uint(&row[3], "hist bucket count")?;
            }
            other => return Err(bad(format!("unknown row kind {other:?}"))),
        }
    }
    Ok(data)
}

/// Minimal CSV reader: comma-separated, `"`-quoted fields with doubled
/// quotes, quoted fields may span lines. Bare CRs between fields are
/// stripped (CRLF tolerance), which is why the writer quotes them.
fn csv_rows(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    field.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => row.push(std::mem::take(&mut field)),
                '\n' => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                '\r' => {}
                c => field.push(c),
            }
        }
    }
    if !field.is_empty() || !row.is_empty() {
        row.push(field);
        rows.push(row);
    }
    rows
}

impl Snapshot {
    /// What two runs of the same study must agree on: every span keeps
    /// its `count` and loses its host wall-clock `sum_ns`/`min_ns`/
    /// `max_ns`; counters, gauges and histograms stay whole. Series
    /// whose name starts with one of `drop_prefixes` are left out —
    /// `&[]` between runs on one executor, `masim_sim::EXECUTOR_SERIES`
    /// between the sequential engine and the partitioned one.
    // `#[inline]` (and on `mask_floats`): only tests call these, so they
    // are compiled there and `repro`'s object code stays as it was.
    #[inline]
    pub fn deterministic(&self, drop_prefixes: &[&str]) -> Snapshot {
        let keep = |name: &String| !drop_prefixes.iter().any(|p| name.starts_with(p));
        let mut out = self.clone();
        out.counters.retain(|name, _| keep(name));
        out.gauges.retain(|name, _| keep(name));
        out.hists.retain(|name, _| keep(name));
        out.spans.retain(|name, _| keep(name));
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
    }

    #[test]
    fn csv_has_all_rows() {
        let rm = RunMetrics::new().label("tool", "flow");
        rm.set().add("n", 3);
        rm.set().record_span("p", 10);
        let csv = rm.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,value,count,sum_ns,min_ns,max_ns");
        assert!(lines.iter().any(|l| l.starts_with("label,tool,flow")));
        assert!(lines.iter().any(|l| l.starts_with("counter,n,3")));
        assert!(lines.iter().any(|l| l.starts_with("span,p,,1,10,10,10")));
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

    /// Satellite: labels and metric names containing separators, quotes,
    /// CRs, and newlines survive a CSV write → parse round trip.
    #[test]
    fn csv_round_trip_with_hostile_fields() {
        let rm = RunMetrics::new()
            .label("app", "name,with,commas")
            .label("quote", "she said \"hi\"")
            .label("multi", "line one\nline two")
            .label("cr", "carriage\rreturn")
            .label("plain", "ok");
        rm.set().add("weird,counter", 7);
        rm.set().record_span("span \"q\"", 42);
        rm.set().hist_record("dist,name", 9);
        rm.set().hist_record("dist,name", 300);

        let data = parse_csv(&rm.to_csv()).unwrap();
        assert_eq!(&data.labels, rm.labels());
        let snap = rm.set().snapshot();
        assert_eq!(data.snapshot.counters, snap.counters);
        assert_eq!(data.snapshot.spans["span \"q\""], snap.spans["span \"q\""]);
        let h = &data.snapshot.hists["dist,name"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 309);
        assert_eq!(h.min, 9);
        assert_eq!(h.max, 300);
    }

    #[test]
    fn deterministic_zeroes_span_ns_only_and_drops_by_prefix_in_every_map() {
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
            ms.hist_record("sim.msg.bytes", v);
        }
        ms.hist_record("des.queue.depth", 2);
        let snap = ms.snapshot();

        // Nothing is dropped by `&[]`; spans lose their three `_ns`
        // fields and keep `count`; a histogram's sum/min/max stay.
        let all = snap.deterministic(&[]);
        assert_eq!(all.counters, snap.counters);
        assert_eq!(all.gauges, snap.gauges);
        assert_eq!(all.hists, snap.hists);
        assert_eq!(all.spans.keys().collect::<Vec<_>>(), snap.spans.keys().collect::<Vec<_>>());
        assert_eq!(
            all.spans["sim.runner.simulate"],
            SpanStats { count: 2, sum_ns: 0, min_ns: 0, max_ns: 0 }
        );

        let shared = snap.deterministic(&["des.queue."]);
        assert_eq!(shared.counters.keys().collect::<Vec<_>>(), ["sim.shared"]);
        assert_eq!(shared.gauges.keys().collect::<Vec<_>>(), ["sim.link.bytes_max"]);
        assert_eq!(shared.hists.keys().collect::<Vec<_>>(), ["sim.msg.bytes"]);
        assert_eq!(shared.spans.keys().collect::<Vec<_>>(), ["sim.runner.simulate"]);

        // Both sidecar formats parse to the same deterministic value.
        let (json, csv) = (parse_json(&rm.to_json()).unwrap(), parse_csv(&rm.to_csv()).unwrap());
        assert_eq!(json.labels, csv.labels);
        assert_eq!(json.snapshot.deterministic(&[]), all);
        assert_eq!(csv.snapshot.deterministic(&[]), all);
    }

    #[test]
    fn mask_floats_masks_decimals_and_keeps_integers() {
        assert_eq!(mask_floats("CMC(16)  0.438  12 rows"), "CMC(16)  #.#  12 rows");
        assert_eq!(mask_floats("wall 1.5"), "wall #.#");
        assert_eq!(mask_floats("ranks 1024"), "ranks 1024");
        assert_eq!(mask_floats(""), "");
    }

    #[test]
    fn parse_csv_rejects_malformed() {
        assert!(parse_csv("kind,name,value,count,sum_ns,min_ns,max_ns\nbogus,a,b,,,,").is_err());
        assert!(parse_csv("kind,name,value,count,sum_ns,min_ns,max_ns\ncounter,x,NaN,,,,").is_err());
        assert!(parse_csv("kind,name,value,count,sum_ns,min_ns,max_ns\nlabel,only,three").is_err());
    }
}
