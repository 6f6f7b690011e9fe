//! Study-as-a-service: the `repro serve` daemon and its socket client.
//!
//! The one-shot CLI runs a study and exits; this crate keeps the
//! machinery resident. A [`Server`] listens on a unix-domain socket,
//! speaks a length-prefixed JSON protocol ([`Request`] frames), queues
//! submitted studies onto the same work-stealing pool the CLI uses, and
//! streams progress, metric sidecars, and the final report back as
//! frames. Each finished trace lands in the one per-trace result store
//! (`masim_core::Store`), keyed by `(entry hash, config hash, code
//! fingerprint)`, so resubmitting a study replays the stored bytes of
//! every entry it shares with an earlier one — bit-identical to a fresh
//! run, with zero simulator invocations when all of them are stored.
//!
//! Layering: the protocol ([`read_frame`], [`write_frame`], the
//! [`Request`] grammar, typed [`ServeError`]), the [`Server`] (accept
//! loop, session registry, submit path over the store), [`client`]
//! (drives a submission and writes CLI-compatible files).

#![warn(missing_docs)]

pub mod client;
mod protocol;
mod server;

pub use client::{submit, SubmitSummary};
pub use protocol::{read_frame, write_frame, Request, ServeError, MAX_FRAME_LEN};
pub use server::{Server, ServerOptions};
