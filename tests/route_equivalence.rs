//! Cross-model equivalence suite for the network hot-path rework.
//!
//! The tiny Table II corpus is replayed through all four tools and every
//! *deterministic* observable — predicted times (exact picoseconds),
//! engine event counts, model work counters, link-utilization aggregates
//! — is compared byte-for-byte against `tests/golden/tiny_corpus.txt`,
//! captured before the route-interning/lazy-injection refactor landed.
//! Wall-clock spans and the pending-set high-water mark are excluded:
//! the first is host noise, the second *drops by design* under lazy
//! packet injection.
//!
//! Table II's rendered text is all wall-clock, so it is checked in
//! masked form (numbers blanked, layout and `^ incomplete` annotations
//! kept); Table III is static text and included verbatim.
//!
//! `tests/golden/mfact_sweep.txt` pins MFACT alone: every result field
//! of its baseline, sweep and probe replays on the tiny corpus and on a
//! few seed-7 corpus traces, from memory and streamed.
//!
//! Regenerate with `GOLDEN_WRITE=1 cargo test --test route_equivalence`
//! — but only when a PR *intends* to change predictions; this suite
//! exists to prove perf PRs are bit-identical. Then re-pin
//! `CODE_FINGERPRINT` to the value `code_fingerprint_is_pinned` prints:
//! it hashes both goldens and the tiny run's result-store records, so
//! every stored result of the old code stops matching.

mod common;

use masim_core::report;
use masim_core::{run_one_observed, ObservedTrace, StudyConfig};
use masim_core::{Key, Store, CODE_FINGERPRINT, STORE_FILE};
use std::fmt::Write as _;
use std::sync::OnceLock;

const GOLDEN: &str = "tests/golden/tiny_corpus.txt";
const MFACT_GOLDEN: &str = "tests/golden/mfact_sweep.txt";

/// Counters that must be bit-identical across perf refactors. Spans
/// (wall-clock) and `des.engine.pending_hwm` (peak occupancy, lowered on
/// purpose by lazy injection) are deliberately absent.
const DET_COUNTERS: [&str; 13] = [
    "des.engine.cancelled",
    "des.engine.processed",
    "des.engine.scheduled",
    "mfact.replay.events",
    "sim.budget.consumed",
    "sim.flow.resolves",
    "sim.link.bytes_total",
    "sim.link.links_used",
    "sim.packet.hops",
    "sim.packet.packets",
    "sim.pflow.packets",
    "sim.runner.messages",
    "workloads.corpus.events",
];

const DET_GAUGES: [&str; 1] = ["sim.link.bytes_max"];

/// Blank every numeric field of a report so layout, labels, and failure
/// annotations are compared while host-dependent timings are not.
fn mask_numbers(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| if tok.parse::<f64>().is_ok() { "#" } else { tok })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The tiny Table II through all four tools, run once per test binary:
/// the golden snapshot and the fingerprint pin both read it.
fn tiny_run() -> &'static [ObservedTrace] {
    static RUN: OnceLock<Vec<ObservedTrace>> = OnceLock::new();
    RUN.get_or_init(|| {
        let cfg = report::table2_config(7);
        report::table2_tiny_entries(7).iter().map(|e| run_one_observed(e, &cfg)).collect()
    })
}

fn render_snapshot() -> String {
    let mut out = String::new();
    let mut studies = Vec::new();
    for obs in tiny_run() {
        let stem = report::table2_stem(&obs.study.entry);
        let t = &obs.study;
        let ps = |r: &masim_core::ToolRun| {
            r.total.map_or_else(|| "failed".to_string(), |t| t.as_ps().to_string())
        };
        let comm_ps = |r: &masim_core::ToolRun| {
            r.comm.map_or_else(|| "failed".to_string(), |t| t.as_ps().to_string())
        };
        let _ = writeln!(out, "[{stem}] measured_ps={}", t.measured_total.as_ps());
        for (name, run) in
            [("mfact", &t.mfact), ("packet", &t.packet), ("flow", &t.flow), ("pflow", &t.pflow)]
        {
            let _ = writeln!(out, "[{stem}] {name} total_ps={} comm_ps={}", ps(run), comm_ps(run));
        }
        for rm in &obs.sidecars {
            let tool = rm.labels()["tool"].clone();
            let snap = rm.set().snapshot();
            for key in DET_COUNTERS {
                if let Some(v) = snap.counters.get(key) {
                    let _ = writeln!(out, "[{stem}] {tool} {key}={v}");
                }
            }
            for key in DET_GAUGES {
                if let Some(v) = snap.gauges.get(key) {
                    let _ = writeln!(out, "[{stem}] {tool} {key}={v}");
                }
            }
        }
        studies.push(obs.study.clone());
    }
    let _ = writeln!(out, "--- table2 (masked) ---");
    let _ = writeln!(out, "{}", mask_numbers(&report::table2_text(&studies)));
    let _ = writeln!(out, "--- table3 ---");
    let _ = write!(out, "{}", report::table3());
    out
}

/// Compare `rendered` with the golden file at `path`, or rewrite the file
/// when `GOLDEN_WRITE` is set.
fn check_golden(path: &str, rendered: &str) {
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::create_dir_all("tests/golden").expect("mkdir golden");
        std::fs::write(path, rendered).expect("write golden");
        eprintln!("wrote {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("missing golden; regenerate with GOLDEN_WRITE=1 on a known-good build");
    if rendered != golden {
        // Line-level diff beats a 10k-char assert_eq dump.
        for (i, (g, r)) in golden.lines().zip(rendered.lines()).enumerate() {
            assert_eq!(g, r, "first divergence at {path} line {}", i + 1);
        }
        assert_eq!(
            golden.lines().count(),
            rendered.lines().count(),
            "snapshot gained/lost lines vs golden"
        );
    }
}

#[test]
fn tiny_corpus_matches_pre_refactor_golden() {
    check_golden(GOLDEN, &render_snapshot());
}

/// FNV-1a 64 of `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `CODE_FINGERPRINT` is the FNV-1a of both goldens' bytes, then of the
/// tiny run's result-store records and of one more, MiniFE(16) with its
/// packet and flow runs failing a budget of 1, with host wall clock taken
/// out (`wall_ns` zeroed, sidecars reduced to labels plus
/// `Snapshot::deterministic`). A change to any prediction, record field
/// (a failed run's too) or sidecar metric fails here until the constant
/// is re-pinned, and re-pinning moves every store key: no result of the
/// old code is ever served as the new code's.
#[test]
fn code_fingerprint_is_pinned() {
    let dir = std::env::temp_dir().join(format!("masim-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("create store");
    let cfg = report::table2_config(7);
    let budgeted = StudyConfig { packet_budget: 1, flow_budget: 1, ..cfg.clone() };
    let failed = run_one_observed(&tiny_run()[2].study.entry, &budgeted);
    let codes =
        [&failed.study.packet, &failed.study.flow].map(|r| r.failure.as_ref().map(|f| f.code()));
    assert_eq!(codes, [Some("budget"); 2]);
    let runs = tiny_run().iter().map(|obs| (obs, &cfg)).chain([(&failed, &budgeted)]);
    for (i, (obs, cfg)) in runs.enumerate() {
        let key = Key::new(&obs.study.entry, cfg);
        store.append(key, i, &obs.study, &obs.sidecars).expect("append record");
    }
    let records = std::fs::read_to_string(dir.join(STORE_FILE)).expect("read store");
    let _ = std::fs::remove_dir_all(&dir);

    let mut h = 0xcbf2_9ce4_8422_2325;
    for path in [GOLDEN, MFACT_GOLDEN] {
        h = fnv1a(h, &std::fs::read(path).expect("golden file"));
    }
    for line in records.lines() {
        h = fnv1a(h, common::deterministic_record(line).1.as_bytes());
    }
    assert_eq!(
        h, CODE_FINGERPRINT,
        "output changed: re-pin CODE_FINGERPRINT (crates/core/src/store.rs) to {h:#018x}"
    );
}

/// Seed-7 corpus entries small enough for a debug build, one per shape
/// the replay's matching state must handle: LU(64) and DT(64) post
/// blocking `Recv`s (LU from 96 channels into one rank), AMG(107) holds
/// 34 requests outstanding on one rank, BigFFT(64) waits on deep
/// request sets, IS(64) runs `Alltoallv` with per-rank payloads.
const MFACT_CORPUS_ENTRIES: [usize; 5] = [62, 132, 149, 172, 220];

/// FNV-1a over the per-rank final clocks.
fn digest(per_rank: &[masim_trace::Time]) -> u64 {
    let bytes: Vec<u8> = per_rank.iter().flat_map(|t| t.as_ps().to_le_bytes()).collect();
    fnv1a(0xcbf2_9ce4_8422_2325, &bytes)
}

/// Every `ConfigResult` field of MFACT's three replays (baseline, the
/// 7-point sweep, the classifier's probes) of `src`, one line per
/// configuration.
fn render_mfact<'a>(
    stem: &str,
    src: impl Into<masim_trace::TraceSource<'a>> + Copy,
    net: masim_topo::NetworkConfig,
) -> String {
    use masim_mfact::{probe_configs, try_replay, ModelConfig};
    let mut out = String::new();
    let sets = [
        ("base", vec![ModelConfig::base(net)]),
        ("sweep", ModelConfig::standard_sweep(net)),
        ("probe", probe_configs(net).to_vec()),
    ];
    for (set, configs) in sets {
        let results = try_replay(src, &configs, None).expect("corpus traces replay");
        for (i, r) in results.iter().enumerate() {
            let c = r.counters;
            let _ = writeln!(
                out,
                "[{stem}] {set}{i} total_ps={} comm_ps={} wait={} latency={} bandwidth={} \
                 computation={} per_rank={:016x}",
                r.total.as_ps(),
                r.comm_time.as_ps(),
                c.wait.as_ps(),
                c.latency.as_ps(),
                c.bandwidth.as_ps(),
                c.computation.as_ps(),
                digest(&r.per_rank),
            );
        }
    }
    out
}

/// MFACT's predictions, counters and per-rank clocks stay bit-identical
/// across replay refactors, and a streamed replay of the same trace
/// reads the same.
#[test]
fn mfact_sweep_matches_golden() {
    let corpus = masim_workloads::build_corpus(7);
    let entries = report::table2_tiny_entries(7)
        .into_iter()
        .map(|e| (report::table2_stem(&e), e))
        .chain(MFACT_CORPUS_ENTRIES.iter().map(|&i| {
            let e = corpus[i].clone();
            (format!("c{i}-{}{}", e.cfg.app.name(), e.cfg.ranks), e)
        }));
    let mut rendered = String::new();
    for (stem, e) in entries {
        let trace = e.generate();
        let net = masim_topo::Machine::by_name(&e.cfg.machine).expect("known machine").net;
        let memory = render_mfact(&stem, &trace, net);
        let bytes = masim_trace::io::encode(&trace);
        let stream = masim_trace::StreamedTrace::from_bytes(bytes).expect("round-trip");
        assert_eq!(memory, render_mfact(&stem, &stream, net), "{stem}: streamed ≠ in-memory");
        rendered.push_str(&memory);
    }
    check_golden(MFACT_GOLDEN, &rendered);
}
