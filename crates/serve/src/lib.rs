//! Planner-as-a-service: a resident, multi-tenant deployment-planning
//! daemon.
//!
//! Everything below this crate plans and revises middleware deployments
//! as a *library*: one process, one platform borrow, one control loop.
//! This crate turns that library into a **service**: a daemon that
//! hosts one autonomic [`Controller`](adept_control::Controller) per
//! tenant deployment, concurrently, over shared read-only platform
//! catalogs, and exposes the whole lifecycle over a line-delimited JSON
//! wire protocol:
//!
//! | frame | does |
//! |---|---|
//! | `plan` | stateless: size a deployment for a mix on a catalog platform |
//! | `register` | claim a tenant id, plan + "deploy", start its control loop |
//! | `observe` | feed one control interval; may migrate |
//! | `replan` | dry-run: what a migration toward a demand would change |
//! | `migrate` | operator-forced replan round |
//! | `drain` | end the session cleanly, archive its journal |
//! | `status` | catalogs, live tenants, resume errors |
//! | `shutdown` | stop the daemon (journals stay) |
//!
//! The full frame-by-frame contract (fields, error codes, worked JSON
//! examples) is in `docs/WIRE_API.md`; the operator's view (startup,
//! tenant lifecycle, journal recovery, capacity) is in
//! `docs/OPERATIONS.md`.
//!
//! # Durability: write-ahead journals + deterministic replay
//!
//! Every tenant session appends its inputs (observed ticks, operator
//! replans) to an append-only JSONL journal *before* consuming them,
//! and checkpoints every executed migration. Because the entire stack
//! underneath — planner, online reviser, GoDiet's seeded failure
//! injection — is deterministic, a restarted daemon rebuilds every
//! session by replaying its journal; no planner state is ever
//! serialized. Replay cross-checks the journaled migration checkpoints
//! and refuses to resume a journal whose history the code cannot
//! reproduce ([`JournalError::ReplayDivergence`]), a journal whose
//! platform changed shape underneath
//! ([`JournalError::FingerprintMismatch`], via
//! [`Platform::fingerprint`](adept_platform::Platform::fingerprint)),
//! and interior corruption — while tolerating exactly the damage a
//! killed daemon can cause: a truncated final line, one unacknowledged
//! tick.
//!
//! A journal append is flushed to the OS, never synced to disk, so an
//! acknowledged tick survives a killed daemon but not an OS crash or a
//! power loss (syncing is ROADMAP direction 4).
//!
//! # Concurrency model
//!
//! Plain blocking sockets, one thread per connection, short read
//! timeouts to notice shutdown — no async runtime. Tenants are
//! independent: each session lives behind its own mutex, so only
//! requests for the *same* tenant serialize. Platform catalogs are
//! `Arc<Platform>`, shared read-only by every session; this is what
//! forced [`Controller`](adept_control::Controller) to be `Send` (owned
//! `Arc` platform, `Box<dyn Revise + Send>` reviser), which the
//! assertions below pin down.
//!
//! # Warm replanning + the shared plan cache
//!
//! Two layers accelerate the *search* without ever changing an answer:
//! sessions thread warm incremental-engine state across replan rounds
//! ([`ControllerConfig::warm_start`](adept_control::ControllerConfig),
//! the daemon's [`ServeConfig::warm_start`] flag), and one [`PlanCache`]
//! — shared by every tenant — answers repeated `plan`/`register`
//! questions from canonical cached results (exact tier, bit-identical)
//! or seeds a revision from a near neighbor (near tier, `plan` only).
//! Replay bypasses both concerns: resume depends only on the journal,
//! and warm answers are bit-equal to cold ones, so restart determinism
//! is preserved — the restart tests assert it.
//!
//! [`JournalError::ReplayDivergence`]: crate::JournalError::ReplayDivergence
//! [`JournalError::FingerprintMismatch`]: crate::JournalError::FingerprintMismatch

#![forbid(unsafe_code)]
pub mod cache;
pub mod client;
pub mod daemon;
pub mod error;
pub mod journal;
pub mod json;
pub mod session;
pub mod wire;

pub use cache::{CacheStats, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use client::{RemoteError, ServeClient};
pub use daemon::{Daemon, DaemonHandle, ServeConfig};
pub use error::{ErrorCode, JournalError, ServeError};
pub use journal::{Journal, Record};
pub use json::Json;
pub use session::TenantSession;
pub use wire::{
    DaemonStatus, MigrationSummary, PlanSummary, ReplanPreview, Request, ServiceDef, SessionConfig,
    TenantStatus, TickOutcome,
};

/// Re-export: the execution-sample type `observe` frames carry.
pub use adept_control::controller::ExecutionSample;

#[cfg(test)]
mod tests {
    use super::*;

    /// The daemon moves sessions (and the controllers inside them)
    /// across threads; every hosted type must stay `Send`.
    #[test]
    fn hosted_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TenantSession>();
        assert_send::<adept_control::Controller>();
        assert_send::<ServeClient>();
        assert_send::<DaemonHandle>();
    }
}
