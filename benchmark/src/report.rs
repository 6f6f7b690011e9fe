//! Results: the printed tables, `result.json` with its provenance
//! stamp, the one-line result the outside driver reads, and `compare`.

use crate::adapter::Json;
use crate::catalogue::{self as cat, Better};
use crate::checks::Ops;
use crate::stats::{self, Summary};
use crate::traced::Traced;
use crate::workloads::{Measured, Rep};
use std::fmt::Write as _;

/// One metric of one workload. Per-layer metrics are single values
/// (`n` = 1); end-to-end timings carry the quartiles of their repetitions.
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything measured for one workload in this invocation.
pub struct WorkloadResult {
    pub name: &'static str,
    pub ops: Ops,
    pub end_to_end: Vec<Value>,
    pub per_layer: Vec<Value>,
    pub slowest: Option<String>,
}

impl WorkloadResult {
    pub fn new(name: &'static str) -> WorkloadResult {
        WorkloadResult {
            name,
            ops: Ops::default(),
            end_to_end: vec![],
            per_layer: vec![],
            slowest: None,
        }
    }

    pub fn correct(&self) -> bool {
        self.ops.attempted > 0 && self.ops.failed == 0
    }

    /// Fold the untraced repetitions into the end-to-end metrics.
    pub fn add_untraced(&mut self, m: Measured) {
        let over_reps = |f: &dyn Fn(&Rep) -> f64| -> Summary {
            stats::summarize(&m.reps.iter().map(f).collect::<Vec<_>>())
        };
        // Percentiles need a distribution: a repetition of a handful of
        // traces (`heavy3`: 3, `scale64k`: 1) reads its summed tool wall
        // instead — the median of three unlike traces is one noisy 0.3 s
        // measurement. A repetition with no rows at all already failed
        // its ops and reads as its whole wall.
        let per_trace_ms = |r: &Rep, quantile: fn(&[f64]) -> f64| {
            1e3 * match r.trace_wall_s.len() {
                0 => r.wall_s,
                n if n < stats::MIN_FOR_PERCENTILES => r.trace_wall_s.iter().sum(),
                _ => quantile(&r.trace_wall_s),
            }
        };
        for metric in &cat::END_TO_END {
            let summary = match metric.name {
                cat::WALL_S => over_reps(&|r| r.wall_s),
                cat::PEAK_RSS_MB => over_reps(&|r| r.peak_rss_mb),
                cat::SETUP_S => over_reps(&|r| r.setup_s),
                cat::TRACE_WALL_P50_MS => over_reps(&|r| per_trace_ms(r, stats::median)),
                cat::TRACE_WALL_P95_MS => over_reps(&|r| per_trace_ms(r, stats::tail)),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            self.end_to_end.push(Value { name: metric.name, unit: metric.unit, summary });
        }
        self.ops.absorb(m.ops);
    }

    /// Take the per-layer metrics of the traced run.
    pub fn add_traced(&mut self, t: &Traced) {
        for (metric, value) in t.layers.values() {
            let summary = Summary { median: value, q1: value, q3: value, n: 1 };
            self.per_layer.push(Value { name: metric.name, unit: metric.unit, summary });
        }
        self.ops.absorb(t.ops.clone());
        self.slowest = Some(t.slowest.clone());
    }

    /// The table a person reads.
    pub fn print(&self, seed: u64) {
        let verdict = if self.correct() { "correct" } else { "FAILED" };
        if let Some(w) = cat::WORKLOADS.iter().find(|w| w.name == self.name) {
            println!("\n-- {}: {}", w.name, w.why);
        }
        println!(
            "== {} (seed {seed}): {} ops attempted, {} failed, {} budget trip(s), {} {:.6} — {verdict}",
            self.name,
            self.ops.attempted,
            self.ops.failed,
            self.ops.budget,
            cat::FAIL_FRAC,
            self.ops.fail_frac(),
        );
        for note in self.ops.notes.iter().take(20) {
            println!("   ! {note}");
        }
        if self.ops.notes.len() > 20 {
            println!("   ! … and {} more", self.ops.notes.len() - 20);
        }
        if !self.end_to_end.is_empty() {
            println!("end-to-end (tracing off)");
            println!(
                "  {:<22} {:<6} {:>12} {:>12} {:>12} {:>3} {:>6} {:>7}",
                "metric", "unit", "median", "q1", "q3", "n", "bound", "better"
            );
            for v in &self.end_to_end {
                let Some(metric) = cat::end_to_end(v.name) else { continue };
                let s = v.summary;
                println!(
                    "  {:<22} {:<6} {:>12.4} {:>12.4} {:>12.4} {:>3} {:>5.0}% {:>7}",
                    v.name,
                    v.unit,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    metric.bound * 100.0,
                    metric.better.as_str()
                );
            }
        }
        if !self.per_layer.is_empty() {
            println!("per-layer (traced run; 0 = layer not exercised by this workload)");
            for v in &self.per_layer {
                let better = cat::per_layer(v.name).map_or("", |m| m.better.as_str());
                println!("  {:<36} {:<10} {:>16.4} {better:>7}", v.name, v.unit, v.summary.median);
            }
            if let Some(slowest) = &self.slowest {
                println!("  slowest single trace x tool: {slowest}");
            }
        }
    }

    fn to_json(&self) -> Json {
        let summary = |v: &Value| {
            Json::Obj(vec![
                ("unit".into(), Json::Str(v.unit.into())),
                ("median".into(), Json::Num(v.summary.median)),
                ("q1".into(), Json::Num(v.summary.q1)),
                ("q3".into(), Json::Num(v.summary.q3)),
                ("n".into(), Json::UInt(v.summary.n as u64)),
            ])
        };
        let single = |v: &Value| {
            Json::Obj(vec![
                ("unit".into(), Json::Str(v.unit.into())),
                ("value".into(), Json::Num(v.summary.median)),
            ])
        };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::UInt(self.ops.attempted)),
            ("failed".into(), Json::UInt(self.ops.failed)),
            ("budget_trips".into(), Json::UInt(self.ops.budget)),
            (cat::FAIL_FRAC.into(), Json::Num(self.ops.fail_frac())),
            (
                "end_to_end".into(),
                Json::Obj(
                    self.end_to_end.iter().map(|v| (v.name.to_string(), summary(v))).collect(),
                ),
            ),
            (
                "per_layer".into(),
                Json::Obj(self.per_layer.iter().map(|v| (v.name.to_string(), single(v))).collect()),
            ),
        ])
    }
}

/// Where, when and from what a result was taken — the `RunInfo` shape.
pub struct Provenance {
    pub command: Vec<String>,
    pub working_dir: String,
    pub start_unix_s: u64,
    pub git_sha: Option<String>,
    pub hostname: String,
    pub nproc: usize,
    pub rustc: String,
    pub profile: &'static str,
    pub seed: u64,
    pub seconds: f64,
}

impl Provenance {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("command".into(), Json::Arr(self.command.iter().cloned().map(Json::Str).collect())),
            ("working_dir".into(), Json::Str(self.working_dir.clone())),
            ("start_unix_s".into(), Json::UInt(self.start_unix_s)),
            ("git_sha".into(), self.git_sha.clone().map_or(Json::Null, Json::Str)),
            ("hostname".into(), Json::Str(self.hostname.clone())),
            ("nproc".into(), Json::UInt(self.nproc as u64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("profile".into(), Json::Str(self.profile.into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("seconds".into(), Json::Num(self.seconds)),
        ])
    }
}

/// The whole `result.json` document.
pub fn result_json(provenance: &Provenance, results: &[WorkloadResult]) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::UInt(1)),
        ("provenance".into(), provenance.to_json()),
        (
            "workloads".into(),
            Json::Obj(results.iter().map(|r| (r.name.to_string(), r.to_json())).collect()),
        ),
    ])
    .to_json()
}

/// The last line of standard output: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`. With one workload the
/// metrics carry their catalogue names; with several, `workload/name`.
pub fn result_line(results: &[WorkloadResult]) -> String {
    let mut metrics = Vec::new();
    for r in results {
        for v in r.end_to_end.iter().chain(&r.per_layer) {
            let key = if results.len() == 1 {
                v.name.to_string()
            } else {
                format!("{}/{}", r.name, v.name)
            };
            let value = Json::Obj(vec![
                ("value".into(), Json::Num(v.summary.median)),
                ("unit".into(), Json::Str(v.unit.into())),
            ]);
            metrics.push((key, value));
        }
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(results.iter().all(WorkloadResult::correct))),
        ("attempted".into(), Json::UInt(results.iter().map(|r| r.ops.attempted).sum())),
        ("failed".into(), Json::UInt(results.iter().map(|r| r.ops.failed).sum())),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_json()
}

/// How one (metric, workload) row of `compare` came out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A side's own quartiles are further apart than the bound: the runs
    /// cannot tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one end-to-end metric.
pub fn judge(a: Summary, b: Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn summary_of(doc: &Json) -> Option<Summary> {
    let num = |k: &str| doc.get(k).and_then(Json::as_f64);
    Some(Summary {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        n: doc.get("n").and_then(Json::as_u64)? as usize,
    })
}

/// Compare two `result.json` documents. Returns the printed report and
/// whether every row is `ok` and every exact count identical.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc.get("workloads").and_then(Json::as_obj).ok_or("no 'workloads' object")?.to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut all_ok = true;
    let _ = writeln!(
        out,
        "{:<12} {:<20} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<12} missing from B");
            all_ok = false;
            continue;
        };
        for metric in &cat::END_TO_END {
            let side = |r: &Json| {
                r.get("end_to_end").and_then(|e| e.get(metric.name)).and_then(summary_of)
            };
            let (Some(sa), Some(sb)) = (side(ra), side(rb)) else { continue };
            let verdict = judge(sa, sb, metric.better, metric.bound);
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{name:<12} {:<20} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median.abs() * 100.0,
                metric.bound * 100.0,
                verdict.as_str()
            );
        }
        // fail_frac: any increase is a regression.
        let frac = |r: &Json| r.get(cat::FAIL_FRAC).and_then(Json::as_f64);
        if let (Some(fa), Some(fb)) = (frac(ra), frac(rb)) {
            let verdict = if fb > fa { Verdict::Worse } else { Verdict::Ok };
            all_ok &= verdict == Verdict::Ok;
            let _ = writeln!(
                out,
                "{name:<12} {:<20} {fa:>12.6} {fb:>12.6} {:>8} {:>6}  {}",
                cat::FAIL_FRAC,
                "",
                "any",
                verdict.as_str()
            );
        }
        // Counts repeat exactly on one commit and one seed.
        for metric in cat::PER_LAYER.iter().filter(|m| m.exact) {
            let value = |r: &Json| {
                r.get("per_layer")
                    .and_then(|l| l.get(metric.name))
                    .and_then(|m| m.get("value"))
                    .cloned()
            };
            if let (Some(va), Some(vb)) = (value(ra), value(rb)) {
                if va != vb {
                    all_ok = false;
                    let _ = writeln!(
                        out,
                        "{name:<12} {:<20} count differs: A {} vs B {}",
                        metric.name,
                        va.to_json(),
                        vb.to_json()
                    );
                }
            }
        }
    }
    for (name, _) in wb.iter().filter(|(n, _)| !wa.iter().any(|(m, _)| m == n)) {
        let _ = writeln!(out, "{name:<12} missing from A");
        all_ok = false;
    }
    let _ = writeln!(
        out,
        "{}",
        if all_ok { "all rows ok, all counts identical" } else { "NOT all ok" }
    );
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::parse_json;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3, n: 5 }
    }

    #[test]
    fn judge_is_direction_aware_and_honours_the_bound() {
        let a = s(10.0, 9.9, 10.1);
        assert_eq!(judge(a, s(10.9, 10.8, 11.0), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(a, s(11.2, 11.1, 11.3), Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(a, s(8.0, 7.9, 8.1), Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(a, s(8.0, 7.9, 8.1), Better::Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = s(10.0, 9.0, 10.5);
        assert_eq!(judge(noisy, s(10.0, 9.9, 10.1), Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(s(10.0, 9.9, 10.1), noisy, Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(noisy, noisy, Better::Lower, 0.25), Verdict::Ok);
    }

    fn doc(wall: f64, events: u64, failed: u64) -> Json {
        let mut r = WorkloadResult::new(cat::HEAVY3);
        r.ops = Ops { attempted: 12, failed, ..Ops::default() };
        r.end_to_end.push(Value {
            name: cat::WALL_S,
            unit: "s",
            summary: s(wall, wall * 0.99, wall * 1.01),
        });
        let exact = Summary { median: events as f64, q1: events as f64, q3: events as f64, n: 1 };
        r.per_layer.push(Value { name: "sim.packet_events", unit: "count", summary: exact });
        let p = Provenance {
            command: vec!["run".into()],
            working_dir: "/w".into(),
            start_unix_s: 1,
            git_sha: None,
            hostname: "h".into(),
            nproc: 2,
            rustc: "rustc 1.95.0".into(),
            profile: "release",
            seed: 7,
            seconds: 20.0,
        };
        parse_json(&result_json(&p, &[r])).expect("result.json parses")
    }

    #[test]
    fn compare_passes_equal_sets_and_flags_each_kind_of_difference() {
        let base = doc(3.6, 1000, 0);
        let (text, ok) = compare(&base, &doc(3.7, 1000, 0)).unwrap();
        assert!(ok, "{text}");
        assert!(text.contains("wall_s") && text.contains("fail_frac"), "{text}");

        let (text, ok) = compare(&base, &doc(4.7, 1000, 0)).unwrap();
        assert!(!ok && text.contains("worse"), "{text}");
        let (text, ok) = compare(&base, &doc(3.6, 1001, 0)).unwrap();
        assert!(!ok && text.contains("count differs"), "{text}");
        let (text, ok) = compare(&base, &doc(3.6, 1000, 1)).unwrap();
        assert!(!ok && text.contains("worse"), "{text}");
    }

    #[test]
    fn per_trace_percentiles_need_a_distribution() {
        use crate::workloads::Artefacts;
        let measure = |trace_wall_s: Vec<f64>| {
            let rep =
                Rep { wall_s: 9.0, setup_s: 0.1, peak_rss_mb: 50.0, cpu_s: 8.0, trace_wall_s };
            let ops = Ops { attempted: 1, ..Ops::default() };
            let mut r = WorkloadResult::new(cat::HEAVY3);
            r.add_untraced(Measured { reps: vec![rep], ops, artefacts: Artefacts::default() });
            let of =
                |name: &str| r.end_to_end.iter().find(|v| v.name == name).unwrap().summary.median;
            (of(cat::TRACE_WALL_P50_MS), of(cat::TRACE_WALL_P95_MS))
        };
        // Three unlike traces: both read the summed tool wall.
        assert_eq!(measure(vec![0.25, 0.5, 2.25]), (3000.0, 3000.0));
        // 235 traces: median and the 95th percentile.
        assert_eq!(measure((1..=235).map(f64::from).collect()), (118_000.0, 224_000.0));
        // No rows at all: the repetition's wall.
        assert_eq!(measure(vec![]), (9000.0, 9000.0));
    }

    #[test]
    fn the_result_line_has_exactly_the_four_contract_keys() {
        let mut r = WorkloadResult::new(cat::HEAVY3);
        r.ops = Ops { attempted: 12, ..Ops::default() };
        r.end_to_end.push(Value { name: cat::WALL_S, unit: "s", summary: s(3.6, 3.5, 3.7) });
        let line = parse_json(&result_line(&[r])).unwrap();
        let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(3.6));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }
}
