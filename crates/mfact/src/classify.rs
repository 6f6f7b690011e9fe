//! MFACT's application classifier.
//!
//! From a single multi-configuration replay, MFACT observes how the
//! predicted total time reacts to bandwidth and latency slow-downs and
//! how the four counters split at the baseline, then classifies the
//! application as computation-bound, load-imbalance-bound,
//! bandwidth-bound, latency-bound, or communication-bound.
//!
//! Following the paper (Section VI-A), an application counts as
//! **communication-sensitive** ("cs") when its estimated total time
//! rises by more than 5 % as bandwidth drops by a factor of 8; the other
//! classes roll up into "ncs".

use crate::error::ReplayError;
use crate::replay::{try_replay, ConfigResult, Counters, ModelConfig};
use masim_topo::NetworkConfig;
use masim_trace::Trace;

/// MFACT's five application classes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AppClass {
    /// Dominated by local computation; insensitive to the network.
    ComputationBound,
    /// Dominated by waiting on slower peers; insensitive to the network.
    LoadImbalanceBound,
    /// Sensitive to bandwidth but not latency.
    BandwidthBound,
    /// Sensitive to latency but not bandwidth.
    LatencyBound,
    /// Sensitive to both network parameters.
    CommunicationBound,
}

impl AppClass {
    /// The paper's two-level rollup: communication-sensitive or not.
    ///
    /// Per Section VI-A this is *bandwidth-based*: "applications are
    /// communication-sensitive if the estimated total time increases by
    /// more than 5 % as the bandwidth decreases by a factor of 8", and
    /// latency is explicitly not considered ("very few applications show
    /// sensitivity to latency"). Latency-bound runs therefore roll up to
    /// "ncs".
    pub fn is_comm_sensitive(self) -> bool {
        matches!(self, AppClass::BandwidthBound | AppClass::CommunicationBound)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AppClass::ComputationBound => "computation-bound",
            AppClass::LoadImbalanceBound => "load-imbalance-bound",
            AppClass::BandwidthBound => "bandwidth-bound",
            AppClass::LatencyBound => "latency-bound",
            AppClass::CommunicationBound => "communication-bound",
        }
    }

    /// Inverse of [`AppClass::label`], for journal/checkpoint decoding.
    pub fn from_label(label: &str) -> Option<AppClass> {
        match label {
            "computation-bound" => Some(AppClass::ComputationBound),
            "load-imbalance-bound" => Some(AppClass::LoadImbalanceBound),
            "bandwidth-bound" => Some(AppClass::BandwidthBound),
            "latency-bound" => Some(AppClass::LatencyBound),
            "communication-bound" => Some(AppClass::CommunicationBound),
            _ => None,
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bandwidth-sensitivity threshold: > 5 % total-time growth under an 8×
/// bandwidth slowdown counts as communication-sensitive (the paper's
/// conservative criterion, Section VI-A).
pub const SENSITIVITY_THRESHOLD: f64 = 0.05;

/// Share of (wait + computation) time spent waiting above which a
/// network-insensitive application is load-imbalance-bound rather than
/// computation-bound.
pub const WAIT_SHARE_THRESHOLD: f64 = 0.12;

/// Latency-class threshold. The paper notes that "very few applications
/// show sensitivity to latency": because *every* app has some α terms,
/// an 8× latency probe inflates any nonzero communication share, so the
/// latency class requires a much stronger response before it fires.
pub const LATENCY_THRESHOLD: f64 = 0.25;

/// Classifier output: the class plus the evidence behind it.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The assigned class.
    pub class: AppClass,
    /// Relative total-time growth when bandwidth ÷ 8.
    pub bw_sensitivity: f64,
    /// Relative total-time growth when latency × 8.
    pub lat_sensitivity: f64,
    /// Baseline counters (aggregated across ranks).
    pub baseline: Counters,
    /// Baseline predicted total time (seconds).
    pub base_total: f64,
}

impl Classification {
    /// The paper's CL feature: `true` = "cs".
    pub fn is_comm_sensitive(&self) -> bool {
        self.class.is_comm_sensitive()
    }
}

/// Classify a trace on a machine, replaying once under the baseline and
/// the two slow-down probes.
///
/// Panics if the replay fails (malformed trace); use [`try_classify`]
/// for the typed-error path.
pub fn classify(trace: &Trace, net: NetworkConfig) -> Classification {
    try_classify(trace, net).unwrap_or_else(|e| panic!("{e}"))
}

/// The classifier's probe list, in the order
/// [`Classification::from_replay`] reads it: the baseline, bandwidth ÷ 8,
/// latency × 8. One [`try_replay`] over these is everything MFACT needs
/// for both its prediction (`[0]`) and its class.
pub fn probe_configs(net: NetworkConfig) -> [ModelConfig; 3] {
    [
        ModelConfig::base(net),
        ModelConfig::base(net.scaled(0.125, 1.0)),
        ModelConfig::base(net.scaled(1.0, 8.0)),
    ]
}

/// Fallible classification: a malformed trace (deadlock, dangling
/// request) surfaces as a [`ReplayError`] instead of a panic.
pub fn try_classify(trace: &Trace, net: NetworkConfig) -> Result<Classification, ReplayError> {
    Ok(Classification::from_replay(&try_replay(trace, &probe_configs(net), None)?))
}

impl Classification {
    /// The decision, from the results of one replay under
    /// [`probe_configs`] (panics on any other result count).
    pub fn from_replay(res: &[ConfigResult]) -> Classification {
        let [base, bw, lat] = res else {
            panic!("from_replay needs the 3 probe_configs results, got {}", res.len())
        };
        let base_total = base.total.as_secs_f64();
        let growth = |probe: &ConfigResult| {
            if base_total > 0.0 {
                probe.total.as_secs_f64() / base_total - 1.0
            } else {
                0.0
            }
        };
        let (bw_sensitivity, lat_sensitivity) = (growth(bw), growth(lat));
        let baseline = base.counters;
        let class = decide(bw_sensitivity, lat_sensitivity, baseline);
        Classification { class, bw_sensitivity, lat_sensitivity, baseline, base_total }
    }

    /// A neutral placeholder used when classification could not run at
    /// all (unknown machine, malformed trace): computation-bound with
    /// zero sensitivities and zero counters. Paired with a recorded
    /// per-tool failure cause so it is never mistaken for evidence.
    pub fn unavailable() -> Classification {
        Classification {
            class: AppClass::ComputationBound,
            bw_sensitivity: 0.0,
            lat_sensitivity: 0.0,
            baseline: Counters::default(),
            base_total: 0.0,
        }
    }
}

/// The decision rule, separated out for direct unit testing.
fn decide(bw_sens: f64, lat_sens: f64, c: Counters) -> AppClass {
    let bw = bw_sens > SENSITIVITY_THRESHOLD;
    let lat = lat_sens > LATENCY_THRESHOLD;
    match (bw, lat) {
        (true, true) => AppClass::CommunicationBound,
        (true, false) => AppClass::BandwidthBound,
        (false, true) => AppClass::LatencyBound,
        (false, false) => {
            // Insensitive to the network: split on where the time went.
            // Waiting (peer skew) above this share of wait+compute marks
            // the run load-imbalance-bound.
            let wait = c.wait.as_ps() as f64;
            let comp = c.computation.as_ps() as f64;
            if wait > WAIT_SHARE_THRESHOLD * (wait + comp) {
                AppClass::LoadImbalanceBound
            } else {
                AppClass::ComputationBound
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masim_trace::Time;
    use masim_workloads::{generate, App, GenConfig};

    fn net() -> NetworkConfig {
        NetworkConfig::new(10.0, 2_500)
    }

    fn counters(wait_us: u64, comp_us: u64) -> Counters {
        Counters {
            wait: Time::from_us(wait_us),
            latency: Time::ZERO,
            bandwidth: Time::ZERO,
            computation: Time::from_us(comp_us),
        }
    }

    #[test]
    fn decision_rule_matrix() {
        assert_eq!(decide(0.2, 0.5, counters(0, 1)), AppClass::CommunicationBound);
        assert_eq!(decide(0.2, 0.1, counters(0, 1)), AppClass::BandwidthBound);
        assert_eq!(decide(0.01, 0.5, counters(0, 1)), AppClass::LatencyBound);
        assert_eq!(decide(0.01, 0.1, counters(10, 1)), AppClass::LoadImbalanceBound);
        assert_eq!(decide(0.01, 0.1, counters(1, 10)), AppClass::ComputationBound);
    }

    #[test]
    fn thresholds() {
        assert_eq!(decide(0.049, 0.0, counters(0, 1)), AppClass::ComputationBound);
        assert_eq!(decide(0.051, 0.0, counters(0, 1)), AppClass::BandwidthBound);
        assert_eq!(decide(0.0, 0.24, counters(0, 1)), AppClass::ComputationBound);
        assert_eq!(decide(0.0, 0.26, counters(0, 1)), AppClass::LatencyBound);
    }

    #[test]
    fn ep_classifies_computation_bound() {
        let mut cfg = GenConfig::test_default(App::Ep, 16);
        cfg.comm_fraction = 0.02;
        cfg.iters = 8;
        let t = generate(&cfg);
        let c = classify(&t, net());
        assert_eq!(c.class, AppClass::ComputationBound, "{c:?}");
        assert!(!c.is_comm_sensitive());
    }

    #[test]
    fn ft_classifies_comm_sensitive() {
        let mut cfg = GenConfig::test_default(App::Ft, 64);
        cfg.comm_fraction = 0.6;
        cfg.size = 2;
        let t = generate(&cfg);
        let c = classify(&t, net());
        assert!(c.is_comm_sensitive(), "{c:?}");
        assert!(c.bw_sensitivity > SENSITIVITY_THRESHOLD, "{c:?}");
    }

    #[test]
    fn imbalanced_low_comm_app_classifies_load_imbalance() {
        let mut cfg = GenConfig::test_default(App::Cmc, 16);
        cfg.comm_fraction = 0.08;
        cfg.imbalance = 0.9;
        cfg.iters = 10;
        let t = generate(&cfg);
        let c = classify(&t, net());
        assert_eq!(c.class, AppClass::LoadImbalanceBound, "{c:?}");
    }

    #[test]
    fn lu_small_messages_lean_latency() {
        // LU's tiny blocking messages make latency the dominant network
        // term; under high comm fraction it must be at least
        // comm-sensitive, and latency sensitivity must exceed bandwidth
        // sensitivity.
        let mut cfg = GenConfig::test_default(App::Lu, 64);
        cfg.comm_fraction = 0.5;
        let t = generate(&cfg);
        let c = classify(&t, net());
        assert!(
            c.lat_sensitivity > c.bw_sensitivity,
            "lat {} !> bw {}",
            c.lat_sensitivity,
            c.bw_sensitivity
        );
    }

    #[test]
    fn labels_are_distinct() {
        let classes = [
            AppClass::ComputationBound,
            AppClass::LoadImbalanceBound,
            AppClass::BandwidthBound,
            AppClass::LatencyBound,
            AppClass::CommunicationBound,
        ];
        let labels: std::collections::HashSet<&str> = classes.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), classes.len());
    }
}
