//! `masim-core`: the paper's primary contribution — the trade-off study
//! comparing MPI application modeling (MFACT) against simulation
//! (packet, flow, packet-flow), and the **enhanced MFACT** statistical
//! model that predicts, per application, whether detailed simulation is
//! worth its cost.
//!
//! * [`study`] — run every tool over one corpus entry
//!   ([`run_one_observed`]); DIFFtotal, timing ratios, completion
//!   accounting; the plain sequential reference loop ([`Study::run`]);
//! * [`enhanced`] — the Section VI predictor: Table III candidates + CL,
//!   step-wise logistic selection under Monte Carlo cross-validation;
//! * [`report`] — one generator per table/figure in the paper;
//! * [`session`] — studies as resumable, cancelable, fingerprinted
//!   session objects. [`Session::run`] is the one study executor: the
//!   `repro` CLI and the `repro serve` daemon both run every study
//!   through it, at any thread count, with or without a journal.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod enhanced;
pub mod report;
pub mod session;
pub mod study;

pub use checkpoint::{Checkpoint, CheckpointError, CHECKPOINT_FILE};
pub use enhanced::{Dataset, Enhanced, ErrorRates, DIFF_THRESHOLD};
pub use session::{Session, SessionError, SessionOutcome, SessionSpec, StudyKind};
pub use study::{
    contained, fraction_within, run_one_observed, ObservedTrace, Study, StudyConfig, ToolFailure,
    ToolRun, TraceStudy, PARALLEL_BACKLOG_GAUGE, PARALLEL_STEALS_COUNTER, PARALLEL_WALL_SPAN,
    PARALLEL_WORKERS_GAUGE, TOOL_WALL_SPAN,
};

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared test fixture: one corpus-slice study computed once per
    //! test binary. Debug builds use a sparser slice so `cargo test`
    //! stays fast; release tests get a denser, statistically meaningful
    //! one.
    use crate::study::{Study, StudyConfig};
    use std::sync::OnceLock;

    /// Slice density by profile.
    pub fn stride() -> usize {
        if cfg!(debug_assertions) {
            11
        } else {
            5
        }
    }

    /// The shared study over every `stride()`-th corpus entry.
    pub fn study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| Study::run_filtered(StudyConfig::default(), |i| i % stride() == 0))
    }
}
