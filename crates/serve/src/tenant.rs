//! Per-tenant state: committed history, controller, quarantine.
//!
//! A tenant is always in one of two phases. **Live**: the controller is
//! up and ticks step it. **Quarantined**: a structured reason explains
//! what went wrong, a deterministic backoff gates when the daemon may
//! try to bring the tenant back, and — crucially — the *daemon* and
//! every other tenant keep running. Quarantine is per-tenant fault
//! isolation, not an error path.

use std::time::{Duration, Instant};

use rsz_core::{Config, Instance, ServerType};
use rsz_offline::GridMode;
use rsz_online::{DegradeOptions, GracefulDegrader};

use crate::protocol::ErrorCode;
use crate::spec::{BoxController, TenantSpec};
use crate::wal::WalWriter;

/// The coarse-twin factory the degrader rebuilds controllers with.
pub type ControllerFactory = Box<dyn FnMut(&Instance, GridMode) -> BoxController + Send>;

/// The degrader every tenant wraps its boxed controller in.
pub type TenantDegrader = GracefulDegrader<BoxController, ControllerFactory>;

/// Why a tenant was quarantined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// A tick failed validation (poisoned load, impossible volume).
    Input,
    /// The controller failed — a panic caught at the step boundary or a
    /// solver error.
    Solver,
    /// The tenant's WAL failed an integrity check.
    WalCorrupt,
    /// The tenant's snapshot failed its checksum or decoded to garbage
    /// *and* WAL replay could not take over.
    SnapshotCorrupt,
    /// The state directory stopped cooperating (I/O error on append or
    /// snapshot write).
    Io,
    /// A replication fingerprint check failed: this replica's state for
    /// the tenant disagrees with the primary's. Not revivable from
    /// local storage — the local WAL would replay the same divergent
    /// state — so the tenant stays gated until a fresh resync.
    Divergence,
}

impl QuarantineReason {
    /// The wire error code reported for ticks while quarantined for
    /// this reason.
    #[must_use]
    pub fn code(self) -> ErrorCode {
        match self {
            QuarantineReason::Input => ErrorCode::Input,
            QuarantineReason::Solver => ErrorCode::Solver,
            QuarantineReason::WalCorrupt => ErrorCode::WalCorrupt,
            QuarantineReason::SnapshotCorrupt => ErrorCode::SnapshotCorrupt,
            QuarantineReason::Io => ErrorCode::Quarantined,
            QuarantineReason::Divergence => ErrorCode::Quarantined,
        }
    }

    /// Stable name used in `/metrics` and quarantine details.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::Input => "input",
            QuarantineReason::Solver => "solver",
            QuarantineReason::WalCorrupt => "wal_corrupt",
            QuarantineReason::SnapshotCorrupt => "snapshot_corrupt",
            QuarantineReason::Io => "io",
            QuarantineReason::Divergence => "divergence",
        }
    }
}

/// An active quarantine.
#[derive(Clone, Debug)]
pub struct Quarantine {
    /// Structured reason.
    pub reason: QuarantineReason,
    /// Human-readable detail (what failed, byte ranges for corruption).
    pub detail: String,
    /// How many times recovery has been attempted since entering.
    pub attempts: u32,
    /// The earliest instant a retry is allowed.
    pub until: Instant,
}

/// Deterministic decorrelated-jitter backoff: exponential in the
/// attempt count with a jitter factor derived (reproducibly) from the
/// tenant name and attempt, clamped to `[base, cap]`.
#[must_use]
pub fn backoff_delay(tenant: &str, attempts: u32, base: Duration, cap: Duration) -> Duration {
    // FNV-1a of the tenant name, mixed with the attempt, drives an
    // xorshift step — same tenant and attempt, same jitter, so chaos
    // runs reproduce their timelines from the seed alone.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tenant.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= u64::from(attempts).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    let jitter = 1.0 + (h % 1000) as f64 / 1000.0; // in [1, 2)
    let exp = 2u32.saturating_pow(attempts.min(16));
    let nanos = base.as_nanos() as f64 * f64::from(exp) * jitter;
    Duration::from_nanos(nanos as u64).clamp(base, cap)
}

/// Rolling counters for one tenant, exported via `/metrics`.
#[derive(Clone, Debug, Default)]
pub struct TenantCounters {
    /// Fresh decisions made (excludes replays and restored prefix).
    pub decisions: u64,
    /// Duplicate-seq ticks answered from committed history.
    pub replays: u64,
    /// Ticks rejected by validation.
    pub rejected: u64,
    /// Times this tenant entered quarantine.
    pub quarantines: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Recoveries that had to ignore a bad snapshot and fall back to
    /// full WAL replay.
    pub snapshot_fallbacks: u64,
    /// Decision latencies (seconds, `LatencyProfile` convention) of
    /// the most recent fresh decisions, bounded. A ring: once full, the
    /// order of the entries is not their arrival order (quantiles do
    /// not care).
    pub latencies: Vec<f64>,
    /// Ring slot the next latency overwrites once the window is full.
    latency_next: usize,
}

impl TenantCounters {
    /// Latencies the window keeps.
    const LATENCY_WINDOW: usize = 4096;

    /// Record one fresh-decision latency (seconds), overwriting the
    /// oldest once the window is full — `O(1)`.
    pub fn push_latency(&mut self, seconds: f64) {
        if self.latencies.len() < Self::LATENCY_WINDOW {
            self.latencies.push(seconds);
        } else {
            self.latencies[self.latency_next] = seconds;
            self.latency_next = (self.latency_next + 1) % Self::LATENCY_WINDOW;
        }
    }
}

/// One periodic state fingerprint: the tenant's canonical-state stream
/// hash ([`crate::replication::FingerprintStream`]) at `k` ticks. `full`
/// records whether committed decisions were folded in (they are iff the
/// degradation ladder was off when the fingerprint was taken — with the
/// ladder armed, decisions depend on wall-clock timings and a faithful
/// replica may legitimately differ).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Accepted-tick count the fingerprint covers.
    pub k: u64,
    /// FNV-1a over the canonical-state stream.
    pub fp: u64,
    /// Whether committed decisions are part of the covered state.
    pub full: bool,
}

/// Everything the daemon holds for one tenant.
pub struct TenantState {
    /// The registration spec (also the WAL's first record).
    pub spec: TenantSpec,
    /// The fleet the spec names, parsed once.
    pub types: Vec<ServerType>,
    /// Accepted loads, in seq order — the committed prefix.
    pub loads: Vec<f64>,
    /// Committed decisions, one per accepted load.
    pub decisions: Vec<Config>,
    /// The live controller; `None` after a panic dropped it (rebuilt
    /// from WAL + snapshot on the next recovery attempt).
    pub controller: Option<TenantDegrader>,
    /// Open WAL appender; `None` while quarantined for I/O.
    pub wal: Option<WalWriter>,
    /// Fresh decisions since the last snapshot.
    pub fresh_since_snapshot: usize,
    /// Active quarantine, if any.
    pub quarantine: Option<Quarantine>,
    /// Rolling counters.
    pub counters: TenantCounters,
    /// Recent periodic state fingerprints, bounded — what a primary
    /// ships to replicas for divergence checks. A ring: read it in `k`
    /// order through [`TenantState::fingerprint_ring`].
    pub fingerprints: Vec<Fingerprint>,
    /// Accepted ticks the newest sealed WAL segment runs through (0
    /// when the log has never rotated). Guards against sealing two
    /// segments at the same boundary.
    pub last_sealed_through: u64,
    /// Accepted ticks the latest durable snapshot covers — the
    /// compaction horizon, and the `snap_k` announced to replicas.
    pub last_snapshot_k: usize,
    /// Highest `k` already fingerprint-checked against a primary (a
    /// replica-side cursor so stale sync replies are not re-checked).
    pub fp_checked: u64,
}

impl TenantState {
    /// Fingerprints the ring keeps.
    const FINGERPRINT_RING: usize = 16;

    /// Record a periodic fingerprint, overwriting the oldest (lowest
    /// `k`) once the ring is full — no shifting.
    pub fn push_fingerprint(&mut self, fp: Fingerprint) {
        if self.fingerprints.len() < Self::FINGERPRINT_RING {
            self.fingerprints.push(fp);
        } else if let Some(oldest) = self.fingerprints.iter_mut().min_by_key(|f| f.k) {
            *oldest = fp;
        }
    }

    /// The fingerprint ring, oldest first.
    #[must_use]
    pub fn fingerprint_ring(&self) -> Vec<Fingerprint> {
        let mut ring = self.fingerprints.clone();
        ring.sort_by_key(|f| f.k);
        ring
    }
}

/// Build the instance over `loads` on `types` from scratch, validating
/// every slot.
pub(crate) fn instance_over(types: &[ServerType], loads: &[f64]) -> Result<Instance, String> {
    Instance::builder()
        .server_types(types.iter().cloned())
        .loads(loads.to_vec())
        .build()
        .map_err(|e| format!("prefix instance invalid: {e}"))
}

impl TenantState {
    /// Validate one load against this tenant's fleet: finite,
    /// non-negative, and within the fleet's maximum capacity. This runs
    /// *before* the WAL append — the log only ever holds accepted
    /// ticks.
    pub fn validate_load(&self, load: f64) -> Result<(), String> {
        if !load.is_finite() {
            return Err("load must be a finite number".into());
        }
        if load < 0.0 {
            return Err(format!("load {load} is negative"));
        }
        let capacity: f64 = self.types.iter().map(|ty| f64::from(ty.count) * ty.capacity).sum();
        if load > capacity {
            return Err(format!("load {load} exceeds fleet capacity {capacity}"));
        }
        Ok(())
    }

    /// The prefix instance for deciding slot `self.loads.len() - 1`,
    /// rebuilt from the committed loads over this tenant's fleet — the
    /// reference the daemon's append-only instance (extended with
    /// [`Instance::push_load`] per accepted tick) is tested against.
    /// Either way the controller only ever sees what has arrived.
    pub fn prefix_instance(&self) -> Result<Instance, String> {
        instance_over(&self.types, &self.loads)
    }

    /// The degrade options this tenant's spec selects, given the daemon
    /// default deadline.
    #[must_use]
    pub fn degrade_options(
        &self,
        daemon_deadline: Option<Duration>,
        coarse_gamma: f64,
    ) -> DegradeOptions {
        DegradeOptions { deadline: self.spec.effective_deadline(daemon_deadline), coarse_gamma }
    }

    /// Enter quarantine: structured reason, detail, backoff-gated
    /// retry. Subsequent attempts stretch the gate exponentially.
    pub fn enter_quarantine(
        &mut self,
        reason: QuarantineReason,
        detail: String,
        base: Duration,
        cap: Duration,
        tenant: &str,
    ) {
        let attempts = self.quarantine.as_ref().map_or(0, |q| q.attempts + 1);
        let delay = backoff_delay(tenant, attempts, base, cap);
        self.counters.quarantines += 1;
        self.quarantine =
            Some(Quarantine { reason, detail, attempts, until: Instant::now() + delay });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_monotone_and_capped() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let a0 = backoff_delay("t1", 0, base, cap);
        assert_eq!(a0, backoff_delay("t1", 0, base, cap));
        assert!(a0 >= base && a0 <= cap);
        // Ample attempts always hit the cap.
        assert_eq!(backoff_delay("t1", 30, base, cap), cap);
        // Different tenants jitter differently somewhere in the ladder.
        let differs =
            (0..8).any(|k| backoff_delay("t1", k, base, cap) != backoff_delay("t2", k, base, cap));
        assert!(differs, "jitter should depend on the tenant name");
    }

    #[test]
    fn latency_window_keeps_exactly_the_most_recent() {
        let mut c = TenantCounters::default();
        for i in 0..5000 {
            c.push_latency(f64::from(i));
        }
        assert_eq!(c.latencies.len(), 4096);
        let mut kept = c.latencies.clone();
        kept.sort_by(f64::total_cmp);
        let want: Vec<f64> = (5000 - 4096..5000).map(f64::from).collect();
        assert_eq!(kept, want);
    }

    #[test]
    fn fingerprint_ring_keeps_the_newest_in_k_order() {
        let mut st = TenantState {
            spec: crate::spec::TenantSpec {
                fleet: "homogeneous:2".into(),
                algo: "b".into(),
                grid: crate::spec::GridSpec::Full,
                deadline_us: None,
                snapshot_every: 0,
            },
            types: Vec::new(),
            loads: Vec::new(),
            decisions: Vec::new(),
            controller: None,
            wal: None,
            fresh_since_snapshot: 0,
            quarantine: None,
            counters: TenantCounters::default(),
            fingerprints: Vec::new(),
            last_sealed_through: 0,
            last_snapshot_k: 0,
            fp_checked: 0,
        };
        for k in 1..=40u64 {
            st.push_fingerprint(Fingerprint { k: k * 8, fp: k, full: true });
        }
        let ks: Vec<u64> = st.fingerprint_ring().iter().map(|f| f.k).collect();
        assert_eq!(ks, (25..=40u64).map(|k| k * 8).collect::<Vec<_>>());
    }
}
