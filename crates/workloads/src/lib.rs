//! `masim-workloads`: synthetic MPI trace generators for every
//! application in the paper's study, plus the 235-trace corpus builder
//! that reproduces Table I.
//!
//! The paper's DUMPI traces are not public, so each named application is
//! synthesized from its documented communication skeleton (see
//! DESIGN.md's substitution table). Generators control exactly the
//! properties the study depends on: pattern regularity, message-size
//! mix, collective usage, load balance, and communication fraction.
//!
//! # Example
//!
//! ```
//! use masim_workloads::{build_corpus, generate, App, GenConfig};
//!
//! // One synthetic trace…
//! let cfg = GenConfig::test_default(App::Ft, 16);
//! let trace = generate(&cfg);
//! assert_eq!(trace.validate(), Ok(()));
//!
//! // …or the paper's full 235-trace corpus plan.
//! let corpus = build_corpus(7);
//! assert_eq!(corpus.len(), masim_workloads::CORPUS_SIZE);
//! ```

#![warn(missing_docs)]

mod apps;
mod config;
mod corpus;
mod cost;
mod synth;

pub use apps::{generate, generate_stream};
pub use config::{App, GenConfig};
pub use corpus::{build_corpus, CorpusEntry, COMM_BUCKETS, CORPUS_SIZE, RANK_BUCKETS};
pub use cost::StampModel;
pub use synth::TraceSynth;
