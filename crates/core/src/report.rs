//! Report generators: one function per table/figure of the paper.
//!
//! Each generator consumes the study (and, where needed, the enhanced
//! model) and renders the same rows/series the paper reports, as plain
//! text. The `repro` harness in `masim-bench` writes these under
//! `reports/`; EXPERIMENTS.md records paper-vs-measured values.

use crate::enhanced::{Dataset, Enhanced};
use crate::study::{fraction_within, Study, StudyConfig, ToolRun, TraceStudy};
use masim_mfact::AppClass;
use masim_trace::Time;
use masim_workloads::{App, CorpusEntry, GenConfig, RANK_BUCKETS};
use std::fmt::Write as _;

/// A report column: display name plus accessor for one simulator's run.
type SimColumn = (&'static str, fn(&TraceStudy) -> &ToolRun);

/// A Figure 5 grouping: display name plus class predicate.
type ClassGroup = (&'static str, fn(AppClass) -> bool);

/// Table I: corpus characteristics (rank and communication-time
/// histograms), computed from the *generated* traces, not the plan.
pub fn table1(study: &Study) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I(a): number of ranks");
    let mut rank_hist = [0usize; 6];
    // The lookup is total: a corpus entry whose rank count falls outside
    // every Table I bucket (hand-built entries, corrupt journals) is
    // censused instead of aborting the whole report.
    let mut unbucketed = 0usize;
    for t in &study.traces {
        let r = t.entry.cfg.ranks;
        match RANK_BUCKETS.iter().position(|&(lo, hi, _)| r >= lo && r <= hi) {
            Some(b) => rank_hist[b] += 1,
            None => unbucketed += 1,
        }
    }
    for (i, &(lo, hi, _)) in RANK_BUCKETS.iter().enumerate() {
        let label = if lo == hi { format!("{lo}") } else { format!("{lo}-{hi}") };
        let _ = writeln!(out, "  {label:>10}  {:>4}", rank_hist[i]);
    }
    if unbucketed > 0 {
        let _ = writeln!(out, "  {:>10}  {unbucketed:>4}  (outside every Table I bucket)", "other");
    }
    let _ = writeln!(out, "  {:>10}  {:>4}", "Total", study.traces.len());

    let _ = writeln!(out, "Table I(b): communication time (%)");
    let edges = [
        (0.0, 5.0, "<=5"),
        (5.0, 10.0, "5-10"),
        (10.0, 20.0, "10-20"),
        (20.0, 40.0, "20-40"),
        (40.0, 60.0, "40-60"),
        (60.0, 100.0, ">60"),
    ];
    let mut comm_hist = [0usize; 6];
    for t in &study.traces {
        let pct = t.features.po_c;
        let b = edges.iter().position(|&(lo, hi, _)| pct > lo && pct <= hi).unwrap_or(0);
        comm_hist[b] += 1;
    }
    for (i, &(_, _, label)) in edges.iter().enumerate() {
        let _ = writeln!(out, "  {label:>10}  {:>4}", comm_hist[i]);
    }
    let _ = writeln!(out, "  {:>10}  {:>4}", "Total", study.traces.len());
    out
}

/// Section V-B's rank-order statistics plus Figure 1: simulation time as
/// multiples of MFACT's modeling time.
pub fn fig1(study: &Study) -> String {
    let subset = study.timing_subset();
    let mut out = String::new();
    let (m, p, f, pf) = study.completions();
    let _ = writeln!(
        out,
        "Tool completions: MFACT {m}/{n}, packet {p}/{n}, flow {f}/{n}, packet-flow {pf}/{n}",
        n = study.traces.len()
    );
    let census = study.failure_census();
    if !census.is_empty() {
        let parts: Vec<String> = census.iter().map(|(code, n)| format!("{code} {n}")).collect();
        let _ = writeln!(out, "Failure causes (tool runs): {}", parts.join(", "));
    }
    let _ = writeln!(out, "Timing subset (all four tools succeeded): {} traces", subset.len());

    // Rank order of wall times per trace.
    let mut place_counts = [[0usize; 4]; 4]; // [tool][place]
    for t in &subset {
        let mut walls: Vec<(usize, f64)> = [
            (0, t.mfact.wall.as_secs_f64()),
            (1, t.packet.wall.as_secs_f64()),
            (2, t.flow.wall.as_secs_f64()),
            (3, t.pflow.wall.as_secs_f64()),
        ]
        .to_vec();
        walls.sort_by(|a, b| a.1.total_cmp(&b.1));
        for (place, &(tool, _)) in walls.iter().enumerate() {
            place_counts[tool][place] += 1;
        }
    }
    let names = ["MFACT", "packet", "flow", "packet-flow"];
    let _ = writeln!(out, "Rank order of tool execution times (fraction of traces):");
    let _ = writeln!(out, "  {:<12} {:>6} {:>6} {:>6} {:>6}", "tool", "1st", "2nd", "3rd", "4th");
    for tool in 0..4 {
        let _ = write!(out, "  {:<12}", names[tool]);
        for &count in &place_counts[tool] {
            let frac = count as f64 / subset.len().max(1) as f64;
            let _ = write!(out, " {:>5.0}%", frac * 100.0);
        }
        let _ = writeln!(out);
    }

    // Figure 1 buckets.
    let _ = writeln!(out, "Figure 1: simulation time as a multiple of MFACT's time");
    let _ = writeln!(
        out,
        "  {:<12} {:>7} {:>8} {:>9} {:>8}",
        "model", "<=10x", "<=100x", "<=1000x", ">1000x"
    );
    let sims: [SimColumn; 3] =
        [("packet", |t| &t.packet), ("flow", |t| &t.flow), ("packet-flow", |t| &t.pflow)];
    for (name, get) in sims {
        let ratios: Vec<f64> = subset.iter().filter_map(|t| t.time_ratio(get(t))).collect();
        let w10 = fraction_within(&ratios, 10.0);
        let w100 = fraction_within(&ratios, 100.0);
        let w1000 = fraction_within(&ratios, 1000.0);
        let _ = writeln!(
            out,
            "  {:<12} {:>6.0}% {:>7.0}% {:>8.0}% {:>7.0}%",
            name,
            w10 * 100.0,
            w100 * 100.0,
            w1000 * 100.0,
            (1.0 - w1000) * 100.0
        );
    }
    out
}

/// The three Table II applications at the paper's rank counts.
pub fn table2_entries(seed: u64) -> Vec<CorpusEntry> {
    // CMC(1024), LULESH(512), MiniFE(1152) on Hopper, sizes chosen to
    // make them the heavyweight runs they are in the paper.
    let mk = |app: App, ranks: u32, f: f64, imb: f64| {
        let cfg = GenConfig {
            app,
            ranks,
            ranks_per_node: 24,
            machine: "hopper".into(),
            gbps: 35.0,
            latency: Time::from_ns(2_575),
            size: 3,
            iters: 6,
            comm_fraction: f,
            imbalance: imb,
            seed,
        };
        cfg.check();
        CorpusEntry { cfg, rank_bucket: 0, comm_bucket: 0 }
    };
    vec![
        mk(App::Cmc, 1024, 0.08, 0.5),
        mk(App::Lulesh, 512, 0.12, 0.1),
        mk(App::MiniFe, 1152, 0.15, 0.1),
    ]
}

/// The Table II applications shrunk to seconds-scale: the corpus CI
/// smoke runs, the bench gate, and the equivalence suite all replay
/// (`repro table2 --tiny` uses it too, so every consumer sees the same
/// tiny corpus).
pub fn table2_tiny_entries(seed: u64) -> Vec<CorpusEntry> {
    let mut entries = table2_entries(seed);
    for e in &mut entries {
        e.cfg.ranks = e.cfg.app.legal_ranks(16);
        e.cfg.ranks_per_node = 8;
        e.cfg.size = 1;
        e.cfg.iters = 2;
        e.cfg.check();
    }
    entries
}

/// The per-entry study configuration Table II uses: unbudgeted, so
/// every tool runs the heavyweights to completion.
pub fn table2_config(seed: u64) -> StudyConfig {
    StudyConfig { seed, packet_budget: u64::MAX, flow_budget: u64::MAX, pflow_budget: u64::MAX }
}

/// Stable sidecar file stem (`app<ranks>`) for one Table II entry.
pub fn table2_stem(e: &CorpusEntry) -> String {
    format!("{}{}", e.cfg.app.name(), e.cfg.ranks)
}

/// Table II: wall-clock seconds of each tool on the three named runs,
/// formatted from already-computed per-entry results (a
/// [`StudyKind::Table2`](crate::StudyKind::Table2) session's, fresh or
/// recovered from a journal). Failed tool runs are annotated with their
/// typed cause.
pub fn table2_text(studies: &[TraceStudy]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table II: execution time in seconds (this host)\n  {:<14} {:>10} {:>10} {:>10} {:>10}",
        "app", "Pkt", "Flow", "Pkt-flow", "MFACT"
    );
    for t in studies {
        let _ = writeln!(
            out,
            "  {:<14} {:>10.3} {:>10.3} {:>10.3} {:>10.4}",
            format!("{}({})", t.entry.cfg.app, t.entry.cfg.ranks),
            t.packet.wall.as_secs_f64(),
            t.flow.wall.as_secs_f64(),
            t.pflow.wall.as_secs_f64(),
            t.mfact.wall.as_secs_f64(),
        );
        let failures: Vec<String> = [
            ("mfact", &t.mfact),
            ("packet", &t.packet),
            ("flow", &t.flow),
            ("packet-flow", &t.pflow),
        ]
        .iter()
        .filter_map(|(name, run)| run.failure.as_ref().map(|f| format!("{name}={}", f.code())))
        .collect();
        if !failures.is_empty() {
            let _ = writeln!(out, "    ^ incomplete: {}", failures.join(", "));
        }
    }
    out
}

/// Figure 2: CDFs of the relative difference between each simulator and
/// MFACT, for communication time (a) and total time (b).
pub fn fig2(study: &Study) -> String {
    let mut out = String::new();
    let thresholds = [0.01, 0.02, 0.05, 0.10, 0.20, 0.40];
    let sims: [SimColumn; 3] =
        [("packet", |t| &t.packet), ("flow", |t| &t.flow), ("packet-flow", |t| &t.pflow)];

    for (title, comm) in [("(a) communication time", true), ("(b) total time", false)] {
        let _ = writeln!(out, "Figure 2{title}: fraction of traces with |diff| <= x");
        let _ = write!(out, "  {:<12}", "model");
        for th in thresholds {
            let _ = write!(out, " {:>6.0}%", th * 100.0);
        }
        let _ = writeln!(out);
        for (name, get) in sims {
            let diffs: Vec<f64> = study
                .traces
                .iter()
                .filter_map(|t| {
                    if comm {
                        t.diff_comm(get(t)).map(f64::abs)
                    } else {
                        t.diff_total(get(t))
                    }
                })
                .collect();
            let _ = write!(out, "  {:<12}", name);
            for th in thresholds {
                let _ = write!(out, " {:>6.0}%", fraction_within(&diffs, th) * 100.0);
            }
            let _ = writeln!(out, "   ({} traces)", diffs.len());
        }
    }
    out
}

/// Shared body of Figures 3 and 4: per-application maximum differences
/// and measured-normalized predictions for a subset of apps.
fn per_app_report(study: &Study, nas: bool) -> String {
    let mut out = String::new();
    let apps: Vec<App> = App::ALL.iter().copied().filter(|a| a.is_nas() == nas).collect();
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>12} {:>12} {:>12}",
        "app", "max|dComm|", "max|dTotal|", "SST/meas", "MFACT/meas"
    );
    let mut sst_norm_all = Vec::new();
    let mut mfact_norm_all = Vec::new();
    // Every value below divides by an MFACT or packet-flow prediction,
    // so a row needs *both* tools to have completed. A trace where one
    // of them failed (first-class since the fault-containment work) is
    // excluded and censused — never unwrapped.
    let mut incomplete = 0usize;
    for app in apps {
        let (traces, excluded): (Vec<&TraceStudy>, Vec<&TraceStudy>) = study
            .traces
            .iter()
            .filter(|t| t.entry.cfg.app == app)
            .partition(|t| t.pflow.completed() && t.mfact.completed());
        incomplete += excluded.len();
        if traces.is_empty() {
            continue;
        }
        let max_comm =
            traces.iter().filter_map(|t| t.diff_comm(&t.pflow).map(f64::abs)).fold(0.0, f64::max);
        let max_total = traces.iter().filter_map(|t| t.diff_total(&t.pflow)).fold(0.0, f64::max);
        let norm = |total: Option<masim_trace::Time>, t: &TraceStudy| -> Option<f64> {
            Some(total?.as_secs_f64() / t.measured_total.as_secs_f64())
        };
        let sst_norm: Vec<f64> = traces.iter().filter_map(|t| norm(t.pflow.total, t)).collect();
        let mfact_norm: Vec<f64> = traces.iter().filter_map(|t| norm(t.mfact.total, t)).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        sst_norm_all.extend_from_slice(&sst_norm);
        mfact_norm_all.extend_from_slice(&mfact_norm);
        let _ = writeln!(
            out,
            "  {:<10} {:>11.1}% {:>11.1}% {:>12.3} {:>12.3}",
            app.name(),
            max_comm * 100.0,
            max_total * 100.0,
            mean(&sst_norm),
            mean(&mfact_norm)
        );
    }
    if incomplete > 0 {
        let _ = writeln!(
            out,
            "  ^ incomplete: {incomplete} trace(s) excluded (MFACT or packet-flow failed)"
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let _ = writeln!(
        out,
        "  average prediction vs measured: SST {:+.2}%  MFACT {:+.2}%",
        (mean(&sst_norm_all) - 1.0) * 100.0,
        (mean(&mfact_norm_all) - 1.0) * 100.0
    );
    out
}

/// Figure 3: NAS benchmarks (packet-flow vs. MFACT vs. measured).
pub fn fig3(study: &Study) -> String {
    format!("Figure 3: NAS benchmarks\n{}", per_app_report(study, true))
}

/// Figure 4: DOE applications.
pub fn fig4(study: &Study) -> String {
    format!("Figure 4: DOE applications\n{}", per_app_report(study, false))
}

/// Figure 5: |DIFFtotal| distribution per MFACT class.
pub fn fig5(study: &Study) -> String {
    let mut out = String::new();
    // The paper's three groups (Section VI-A). It observed no
    // latency-sensitive applications; our latency-bound runs are
    // wait/latency-dominated and bandwidth-insensitive, so they fall on
    // the "ncs" side with the load-imbalanced group.
    let groups: [ClassGroup; 3] = [
        ("computation-bound", |c| c == AppClass::ComputationBound),
        ("load-imbalance-bound", |c| {
            matches!(c, AppClass::LoadImbalanceBound | AppClass::LatencyBound)
        }),
        ("communication-sensitive", |c| c.is_comm_sensitive()),
    ];
    let _ = writeln!(out, "Figure 5: |DIFFtotal| by classification group");
    let _ = writeln!(
        out,
        "  {:<24} {:>5} {:>7} {:>7} {:>7} {:>8} {:>8}",
        "group", "n", "<=1%", "<=2%", "<=5%", "<=10%", "max"
    );
    for (name, pred) in groups {
        let diffs: Vec<f64> = study
            .traces
            .iter()
            .filter(|t| pred(t.classification.class))
            .filter_map(|t| t.diff_total_pflow())
            .collect();
        let max = diffs.iter().copied().fold(0.0, f64::max);
        let _ = writeln!(
            out,
            "  {:<24} {:>5} {:>6.0}% {:>6.0}% {:>6.0}% {:>7.0}% {:>7.2}%",
            name,
            diffs.len(),
            fraction_within(&diffs, 0.01) * 100.0,
            fraction_within(&diffs, 0.02) * 100.0,
            fraction_within(&diffs, 0.05) * 100.0,
            fraction_within(&diffs, 0.10) * 100.0,
            max * 100.0
        );
    }
    out
}

/// Table III: the candidate-feature catalogue.
pub fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table III: candidate features");
    for name in crate::enhanced::candidate_names() {
        let _ = writeln!(out, "  {name}");
    }
    out
}

/// Table IV: step-wise-selected variables with selection rates and mean
/// coefficients.
pub fn table4(enhanced: &Enhanced) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table IV: variables selected in step-wise selection\n  {:<6} {:<10} {:>10} {:>14}",
        "rank", "variable", "%selected", "coefficient"
    );
    for (i, (name, rate, coef)) in enhanced.table_iv().iter().enumerate() {
        let _ = writeln!(out, "  {:<6} {:<10} {:>9.0}% {:>14.3e}", i + 1, name, rate * 100.0, coef);
    }
    out
}

/// Section VI results: naive vs. enhanced prediction quality.
pub fn predict_results(data: &Dataset, enhanced: &Enhanced) -> String {
    let rates = enhanced.error_rates();
    let mut out = String::new();
    let _ = writeln!(out, "Predicting the need for simulation (Section VI)");
    let _ = writeln!(out, "  observations: {}", data.len());
    let _ = writeln!(
        out,
        "  requires simulation (DIFFtotal > 2%): {}",
        data.y.iter().filter(|&&b| b).count()
    );
    let _ =
        writeln!(out, "  naive (CL-only) success rate:    {:>6.1}%", data.naive_accuracy() * 100.0);
    let _ = writeln!(
        out,
        "  enhanced MFACT success rate:     {:>6.1}%",
        enhanced.success_rate() * 100.0
    );
    let _ = writeln!(
        out,
        "  trimmed misclassification rate:  {:>6.1}%",
        rates.misclassification * 100.0
    );
    let _ =
        writeln!(out, "  trimmed false-negative rate:     {:>6.1}%", rates.false_negative * 100.0);
    let _ =
        writeln!(out, "  trimmed false-positive rate:     {:>6.1}%", rates.false_positive * 100.0);
    let (_, auc) = enhanced.roc(data);
    let _ = writeln!(out, "  final-model in-sample ROC AUC:   {auc:>7.3}");
    out
}

/// Training stability (Section VI-B.4 raises small-sample concerns):
/// retrain the enhanced model under several cross-validation seeds and
/// report the spread of its headline rates.
pub fn stability(data: &Dataset, seeds: &[u64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Training stability across {} CV seeds
  {:<8} {:>9} {:>8} {:>8}  top variable",
        seeds.len(),
        "seed",
        "success",
        "FN",
        "FP"
    );
    let mut successes = Vec::new();
    for &seed in seeds {
        let e = Enhanced::train(data, seed);
        let r = e.error_rates();
        successes.push(e.success_rate());
        let top = e.table_iv().first().map(|(n, _, _)| *n).unwrap_or("-");
        let _ = writeln!(
            out,
            "  {:<8} {:>8.1}% {:>7.1}% {:>7.1}%  {}",
            seed,
            e.success_rate() * 100.0,
            r.false_negative * 100.0,
            r.false_positive * 100.0,
            top
        );
    }
    let mean = successes.iter().sum::<f64>() / successes.len() as f64;
    let spread = successes.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - successes.iter().cloned().fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "  mean success {:.1}%, spread {:.1} points — the model is {}",
        mean * 100.0,
        spread * 100.0,
        if spread < 0.05 { "stable across seeds" } else { "sensitive to the CV split" }
    );
    out
}

/// Classification census (Section VI-A: 70 / 63 / 102 in the paper).
pub fn class_census(study: &Study) -> String {
    let mut comp = 0;
    let mut imb = 0;
    let mut cs = 0;
    for t in &study.traces {
        match t.classification.class {
            AppClass::ComputationBound => comp += 1,
            // Latency-bound runs group with the load-imbalanced "ncs"
            // side, matching the paper's three-way grouping.
            AppClass::LoadImbalanceBound | AppClass::LatencyBound => imb += 1,
            _ => cs += 1,
        }
    }
    format!(
        "Classification census: computation-bound {comp}, load-imbalance-bound {imb}, communication-sensitive {cs} (total {})\n",
        study.traces.len()
    )
}

/// Per-trace CSV dump of the full study (one row per trace), for
/// external plotting and analysis. Columns are self-describing; times
/// are seconds, wall-clock times are host seconds, DIFFs are fractions.
pub fn study_csv(study: &Study) -> String {
    let mut out = String::from(
        "app,ranks,machine,comm_bucket,rank_bucket,comm_fraction,class,comm_sensitive,\
         measured_total_s,mfact_total_s,packet_total_s,flow_total_s,pflow_total_s,\
         mfact_wall_s,packet_wall_s,flow_wall_s,pflow_wall_s,\
         diff_total_pflow,diff_comm_pflow,events,\
         mfact_failure,packet_failure,flow_failure,pflow_failure\n",
    );
    let opt = |v: Option<Time>| v.map(|t| t.as_secs_f64().to_string()).unwrap_or_default();
    let optf = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
    let cause = |run: &crate::study::ToolRun| {
        run.failure.as_ref().map(|f| f.code().to_string()).unwrap_or_default()
    };
    for t in &study.traces {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            t.entry.cfg.app,
            t.entry.cfg.ranks,
            t.entry.cfg.machine,
            t.entry.comm_bucket,
            t.entry.rank_bucket,
            t.entry.cfg.comm_fraction,
            t.classification.class,
            t.classification.is_comm_sensitive(),
            t.measured_total.as_secs_f64(),
            opt(t.mfact.total),
            opt(t.packet.total),
            opt(t.flow.total),
            opt(t.pflow.total),
            t.mfact.wall.as_secs_f64(),
            t.packet.wall.as_secs_f64(),
            t.flow.wall.as_secs_f64(),
            t.pflow.wall.as_secs_f64(),
            optf(t.diff_total_pflow()),
            optf(t.diff_comm(&t.pflow)),
            t.events,
            cause(&t.mfact),
            cause(&t.packet),
            cause(&t.flow),
            cause(&t.pflow),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::ToolFailure;
    use crate::testutil::study;

    fn small_study() -> &'static Study {
        study()
    }

    #[test]
    fn reports_render() {
        let s = small_study();
        for text in
            [table1(s), fig1(s), fig2(s), fig3(s), fig4(s), fig5(s), table3(), class_census(s)]
        {
            assert!(!text.is_empty());
            assert!(!text.contains("NaN"), "{text}");
        }
    }

    #[test]
    fn table1_counts_sum() {
        let s = small_study();
        let t = table1(s);
        assert!(t.contains("Total"));
        assert!(t.contains("Table I(a)"));
        assert!(t.contains("Table I(b)"));
        // Both histograms must account for every trace.
        let total_line = format!("{:>10}  {:>4}", "Total", s.traces.len());
        assert_eq!(t.matches(total_line.trim()).count(), 2, "{t}");
    }

    #[test]
    fn fig1_mentions_every_tool_and_is_percent_complete() {
        let s = small_study();
        let t = fig1(s);
        for tool in ["MFACT", "packet", "flow", "packet-flow"] {
            assert!(t.contains(tool), "missing {tool}");
        }
        assert!(t.contains("Tool completions"));
        assert!(t.contains("<=1000x"));
    }

    #[test]
    fn fig5_group_sizes_sum_to_corpus() {
        let s = small_study();
        let t = fig5(s);
        // Extract the three group-size columns and check the sum.
        let mut n = 0usize;
        for line in t.lines().skip(2) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() >= 2 {
                if let Ok(v) = cols[1].parse::<usize>() {
                    n += v;
                }
            }
        }
        assert_eq!(n, s.traces.len(), "{t}");
    }

    #[test]
    fn per_app_report_normalizations_are_positive() {
        let s = small_study();
        for text in [fig3(s), fig4(s)] {
            assert!(text.contains("average prediction vs measured"));
            assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        }
    }

    #[test]
    fn stability_report_renders() {
        let s = small_study();
        let d = Dataset::from_study(s);
        if d.len() >= 20 {
            let t = stability(&d, &[17, 42]);
            assert!(t.contains("mean success"));
            assert!(t.contains("seed"));
        }
    }

    #[test]
    fn study_csv_shape() {
        let s = small_study();
        let csv = study_csv(s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), s.traces.len() + 1);
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[0].starts_with("app,ranks,machine"));
    }

    #[test]
    fn table3_lists_all_candidates() {
        let t = table3();
        for name in ["R", "PoSYN", "CRComm", "CL{ncs}", "NoCALL"] {
            assert!(t.contains(name), "missing {name}");
        }
    }

    #[test]
    fn table1_censuses_out_of_range_ranks() {
        // One hand-built entry outside every Table I bucket must not
        // abort the report (the old lookup `.expect("rank in some
        // bucket")` did) — it lands in a census line instead.
        let mut s = small_study().clone();
        s.traces[0].entry.cfg.ranks = 1_000_000;
        let t = table1(&s);
        assert!(t.contains("outside every Table I bucket"), "{t}");
        // The Total rows still account for every trace.
        let total_line = format!("{:>10}  {:>4}", "Total", s.traces.len());
        assert_eq!(t.matches(total_line.trim()).count(), 2, "{t}");
    }

    #[test]
    fn mixed_failure_study_renders_every_report() {
        // Regression for the report.rs unwrap panics: a trace where
        // packet-flow completed but MFACT failed (first-class since the
        // fault-containment work) must render everywhere and be
        // censused, never unwrapped.
        let mut s = small_study().clone();
        assert!(s.traces[0].pflow.completed() && s.traces[1].mfact.completed());
        let cause = ToolFailure::Deadlock { finished: 1, total: 8 };
        let wall = s.traces[0].mfact.wall;
        s.traces[0].mfact = ToolRun::failed(cause.clone(), wall);
        // The converse shape on a different trace: MFACT fine, packet-flow dead.
        let wall = s.traces[1].pflow.wall;
        s.traces[1].pflow = ToolRun::failed(cause, wall);
        for text in [
            table1(&s),
            fig1(&s),
            fig2(&s),
            fig3(&s),
            fig4(&s),
            fig5(&s),
            class_census(&s),
            study_csv(&s),
            table2_text(&s.traces),
        ] {
            assert!(!text.is_empty());
            assert!(!text.contains("NaN"), "{text}");
        }
        // The per-app reports census the two excluded traces.
        let per_app = format!("{}{}", fig3(&s), fig4(&s));
        assert!(per_app.contains("incomplete"), "{per_app}");
        assert!(table2_text(&s.traces).contains("incomplete"));
    }
}
