//! `rsz-serve`: a crash-safe, multi-tenant serving daemon for the
//! right-sizing controllers.
//!
//! The library behind `rsz serve`. Each *tenant* is an independent
//! stream: a fleet (server types + cost models), an online controller
//! (Algorithm A/B/C, LCP, or the receding-horizon baseline), and a
//! telemetry sequence stepped one tick at a time. The daemon hosts many
//! tenants over one line-delimited JSON protocol and keeps four
//! promises:
//!
//! 1. **Crash safety** — accepted ticks go to a checksummed write-ahead
//!    log *before* the controller decides, and controller state is
//!    periodically sealed into `RSZSNAP` snapshots. `kill -9` at any
//!    byte offset recovers to a state whose subsequent decisions are
//!    bit-identical to the uninterrupted run.
//! 2. **Fault isolation** — a poisoned trace, solver failure, storage
//!    corruption, or outright controller panic quarantines *that*
//!    tenant with a structured reason and backoff-gated retries; the
//!    daemon and every other tenant keep serving.
//! 3. **Overload behavior** — per-decision deadlines drive the
//!    [`rsz_online::GracefulDegrader`] ladder (exact → coarse grid →
//!    hold) before admission control sheds anything; shedding is
//!    explicit (`overloaded`), bounded per tenant, and retryable.
//! 4. **Shared pricing** — tenants whose `(fleet, grid)` keys collide
//!    share one priced-slot pool. Pricing is a pure function of
//!    `(partition, λ, grid)`, so sharing changes hit rates and never
//!    decisions — including when a pool co-tenant is quarantined
//!    mid-storm.
//!
//! The TCP layer is deliberately a veneer: every behavior above lives
//! behind [`Daemon::handle`] (one request line in, one reply line out),
//! which is also how the chaos suite drives the daemon in-process.

//! A fifth promise arrived with replication: **availability** — a
//! primary streams its per-tenant WAL frames and state fingerprints to
//! pull-based replicas ([`replication`]); replicas apply them through
//! the identical step path, cross-check fingerprints (silent divergence
//! quarantines the tenant rather than serving a wrong plan), and
//! promote themselves after a deterministic lease expiry with zero
//! accepted-tick loss.

pub mod client;
pub mod daemon;
pub mod history;
pub mod json;
pub mod protocol;
pub mod replication;
pub mod server;
pub mod spec;
pub mod tenant;
pub mod wal;

pub use client::{Client, ClientError, ClientOptions, Decision};
pub use daemon::{describe_snapshot_error, Daemon, ServeOptions};
pub use protocol::{ErrorCode, Request};
pub use replication::{
    from_hex, run_replica, state_fingerprint, to_hex, ApplyReport, ReplicaOptions, Replicator, Role,
};
pub use server::{install_sigterm_handler, Server};
pub use spec::{build_controller, BoxController, GridSpec, ServeController, TenantSpec};
pub use tenant::{Fingerprint, QuarantineReason, TenantState};
