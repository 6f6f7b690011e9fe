//! `masim`: umbrella crate re-exporting the whole workspace.
//!
//! This repository reproduces *Performance and Accuracy Trade-offs of
//! HPC Application Modeling and Simulation* (IPPS 2018). The
//! subsystems:
//!
//! * [`trace`] — DUMPI-like MPI traces (events, validation, I/O,
//!   features);
//! * [`topo`] — interconnect topologies and the Cielito/Hopper/Edison
//!   machine presets;
//! * [`des`] — the sequential discrete-event engine;
//! * [`workloads`] — synthetic generators for the 18 studied
//!   applications and the 235-trace Table I corpus;
//! * [`mfact`] — the modeling tool (multi-configuration logical-clock
//!   replay + classifier);
//! * [`sim`] — the SST/Macro-style simulator (packet / flow /
//!   packet-flow network models);
//! * [`stats`] — logistic regression, step-wise selection, Monte Carlo
//!   cross-validation;
//! * [`core`] — the trade-off study and the enhanced-MFACT
//!   simulation-need predictor;
//! * [`rng`] — the workspace's deterministic xoshiro256++ generator;
//! * [`obs`] — counters, spans, metric sidecars, and progress reporting
//!   (see DESIGN.md §Observability).
//!
//! See `README.md` for a tour and `examples/` for runnable entry
//! points.

pub use masim_core as core;
pub use masim_des as des;
pub use masim_mfact as mfact;
pub use masim_obs as obs;
pub use masim_rng as rng;
pub use masim_sim as sim;
pub use masim_stats as stats;
pub use masim_topo as topo;
pub use masim_trace as trace;
pub use masim_workloads as workloads;
