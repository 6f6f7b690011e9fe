//! The benchmark's names: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same catalogue for the outside driver; a
//! test keeps the two from drifting apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const STUDY235: &str = "study235";
pub const HEAVY3: &str = "heavy3";
pub const SCALE64K: &str = "scale64k";
pub const MODEL_SWEEP: &str = "model_sweep";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: STUDY235,
        why:
            "The paper's whole study through the daemon, cold: 235 seeded small/medium traces x 4 \
              tools, dense routes, shallow queues, packet and flow budget-capped.",
    },
    Workload {
        name: HEAVY3,
        why: "Three large unbudgeted traces through the one-shot CLI (fixed input, seed 7 by \
              definition of `repro table2`): the flow model's re-solve is 40% of wall here.",
    },
    Workload {
        name: SCALE64K,
        why: "64k-rank streamed packet run (fixed input of `repro scale`): sparse route index, \
              330k-deep queue, MASS write/decode; MFACT, flow and stats do nothing.",
    },
    Workload {
        name: MODEL_SWEEP,
        why:
            "Seeded corpus through generate + MFACT base and 7-point sweep in the driver process: \
              no DES event runs, so every simulator optimisation predicts no change.",
    },
];

/// A metric a user of the system sees; `bound` is the share of the
/// parent's median by which it may worsen before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const WALL_S: &str = "wall_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";
pub const TRACE_WALL_P50_MS: &str = "trace_wall_p50_ms";
pub const TRACE_WALL_P95_MS: &str = "trace_wall_p95_ms";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: WALL_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: PEAK_RSS_MB, unit: "MB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: SETUP_S, unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: TRACE_WALL_P50_MS, unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: TRACE_WALL_P95_MS, unit: "ms", better: Better::Lower, bound: 0.25 },
];

/// The sixth end-to-end number: failed ops / attempted ops. It is 0 on a
/// healthy run, so the outside driver takes it from the result line's
/// `failed` / `attempted` instead of a metric; `compare` holds it to
/// "any increase is a regression".
pub const FAIL_FRAC: &str = "fail_frac";

/// A metric of one layer (crate), from the traced run. No bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly from run to run on one commit and one seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, exact: false }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

pub const PER_LAYER: [PerLayer; 47] = [
    timing("workloads.generate_s", "s"),
    count("workloads.events", "count", Better::Lower),
    rate("workloads.generate_mevents_per_s", "Mevents/s"),
    timing("trace.features_s", "s"),
    timing("trace.stream_write_s", "s"),
    timing("trace.stream_open_s", "s"),
    count("trace.stream_mb", "MB", Better::Lower),
    rate("trace.stream_decode_mevents_per_s", "Mevents/s"),
    rate("trace.encode_mb_per_s", "MB/s"),
    rate("trace.decode_mb_per_s", "MB/s"),
    timing("mfact.replay_s", "s"),
    rate("mfact.replay_mevents_per_s", "Mevents/s"),
    timing("mfact.classify_s", "s"),
    timing("mfact.sweep_s", "s"),
    timing("mfact.sweep_cost_ratio", "ratio"),
    timing("sim.packet_s", "s"),
    timing("sim.flow_s", "s"),
    timing("sim.packet-flow_s", "s"),
    count("sim.packet_events", "count", Better::Lower),
    count("sim.flow_events", "count", Better::Lower),
    count("sim.packet-flow_events", "count", Better::Lower),
    timing("sim.packet_ns_per_event", "ns/event"),
    timing("sim.flow_ns_per_event", "ns/event"),
    timing("sim.packet-flow_ns_per_event", "ns/event"),
    timing("sim.trace_wall_max_s", "s"),
    timing("sim.lower_ns_per_round", "ns/round"),
    timing("des.chain_ns_per_event", "ns/event"),
    timing("des.hold_ns_per_event", "ns/event"),
    timing("des.cancel_ns_per_op", "ns/op"),
    timing("topo.build_ms", "ms"),
    timing("topo.route_cielito_ns_per_pair", "ns/pair"),
    timing("topo.route_frontier_ns_per_pair", "ns/pair"),
    timing("stats.fit_ms", "ms"),
    timing("stats.mccv_ms", "ms"),
    count("core.completions_mfact", "count", Better::Higher),
    count("core.completions_packet", "count", Better::Higher),
    count("core.completions_flow", "count", Better::Higher),
    count("core.completions_packet-flow", "count", Better::Higher),
    count("core.budget_failures", "count", Better::Lower),
    count("core.pflow_within_5pct_frac", "frac", Better::Higher),
    timing("core.residual_frac", "frac"),
    timing("serve.cold_overhead_s", "s"),
    timing("serve.response_mb", "MB"),
    timing("serve.resubmit_p50_ms", "ms"),
    timing("host.cpu_s", "s"),
    timing("host.trace_overhead_frac", "frac"),
    timing("host.traced_wall_s", "s"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{parse_json, Json};

    fn text<'a>(v: &'a Json, key: &str) -> &'a str {
        v.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("missing string '{key}'"))
    }

    fn list<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("missing array '{key}'"),
        }
    }

    /// `BENCHMARK.json` is what the outside driver reads; this catalogue is
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_states_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let workloads: Vec<(&str, &str)> =
            list(&doc, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);

        let e2e = list(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, ours) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(theirs, "name"), ours.name);
            assert_eq!(text(theirs, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(text(theirs, "better"), ours.better.as_str(), "{}", ours.name);
            assert_eq!(
                theirs.get("bound").and_then(Json::as_f64),
                Some(ours.bound),
                "{}",
                ours.name
            );
        }

        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (theirs, ours) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text(theirs, "name"), ours.name);
            assert_eq!(text(theirs, "unit"), ours.unit, "{}", ours.name);
            assert_eq!(text(theirs, "better"), ours.better.as_str(), "{}", ours.name);
        }

        let paths: Vec<&str> = list(&doc, "paths").iter().filter_map(Json::as_str).collect();
        assert_eq!(paths, ["benchmark"]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let mut seen = std::collections::BTreeSet::new();
        for n in names {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(end_to_end(SETUP_S).map(|m| m.bound), Some(0.25));
    }
}
