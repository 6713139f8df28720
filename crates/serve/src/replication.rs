//! Primary/replica replication for the serve daemon.
//!
//! The paper's DP is deterministic — a property every layer since the
//! kernel work is property-tested on, bit for bit — so the daemon is a
//! textbook replicated state machine: ship the *inputs* (the per-tenant
//! WAL records, with their end-to-end FNV-1a frames intact) and the
//! replica reproduces the *outputs* by applying them through the
//! identical tenant step path. Replication is **pull-based** over the
//! same line-JSON protocol production traffic uses: the replica sends
//! `repl.sync` with how many ticks it holds per tenant, the primary
//! answers with the missing frames, its latest durable-snapshot
//! coverage (`snap_k`), and a ring of periodic state fingerprints.
//!
//! **Divergence detection.** The canonical committed state of a tenant
//! is a stream — spec, then per tick the bit-exact load and (when the
//! degradation ladder is off) the committed decision — and its
//! fingerprint is the FNV-1a over that stream ([`FingerprintStream`]).
//! The primary extends a running fingerprint as it accepts and decides
//! each tick and records it every `fingerprint_every` ticks, so the
//! ring attests the stream it accepted at `O(1)` per tick. The replica
//! recomputes the fingerprint from scratch over its own stored prefix,
//! once per sync and off the tick path, and compares — so corruption
//! at rest in the replica's copy is caught as well as a divergent apply.
//! A mismatch — a bit flip, a non-deterministic code path, version
//! skew — quarantines the tenant on the replica
//! with [`crate::tenant::QuarantineReason::Divergence`], so a diverged
//! replica can be promoted but will never serve the divergent plan.
//! Two things are deliberately *outside* the fingerprint: shared-pool
//! counters (aggregated across co-tenants, so they depend on
//! cross-tenant interleaving, not on this tenant's state) and — when
//! the ladder is armed — committed decisions (rung descent follows
//! wall-clock overruns, so a faithful replica may legitimately
//! differ; the load prefix is still covered bit-exactly).
//!
//! **Failover.** The replica counts consecutive failed syncs; once the
//! count crosses the lease threshold the primary is presumed dead and
//! [`Daemon::promote`] flips the role Replica → Promoting → Primary.
//! The lease is deterministic in sync attempts (wall-clock enters only
//! through the sync interval), which is what lets the chaos suite kill
//! the primary at every tick offset and reproduce the exact failover
//! from the seed alone.

use std::sync::Arc;
use std::time::Duration;

use rsz_core::Config;
use rsz_offline::Encoder;

use crate::client::{Client, ClientOptions};
use crate::daemon::Daemon;
use crate::json;
use crate::spec::TenantSpec;

/// The daemon's replication role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepts writes, serves `repl.sync`.
    Primary,
    /// Applies the primary's stream; rejects writes with `not_primary`.
    Replica,
    /// Mid-failover: the lease expired and promotion is running.
    Promoting,
}

impl Role {
    /// Stable wire/metrics name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Replica => "replica",
            Role::Promoting => "promoting",
        }
    }

    /// Atomic-storage encoding.
    #[must_use]
    pub fn to_u8(self) -> u8 {
        match self {
            Role::Primary => 0,
            Role::Replica => 1,
            Role::Promoting => 2,
        }
    }

    /// Inverse of [`Role::to_u8`]; unknown values read as `Primary`
    /// (the single-node default).
    #[must_use]
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => Role::Replica,
            2 => Role::Promoting,
            _ => Role::Primary,
        }
    }
}

/// The running canonical-state fingerprint of one tenant: 64-bit FNV-1a
/// over the *stream* `[layout version][flavor][spec]`, then per decided
/// tick its load's bit pattern and — in the full flavor — its decision's
/// counts. Because FNV-1a is a streaming hash, extending the state by
/// one tick costs `O(d)` whatever the depth: the primary keeps one per
/// tenant and reads its fingerprint ring off it instead of re-hashing
/// the prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FingerprintStream {
    state: u64,
    full: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Canonical-state layout version: 2 is the per-tick stream (1 hashed a
/// sealed envelope of the whole prefix).
const FINGERPRINT_LAYOUT: u8 = 2;

impl FingerprintStream {
    /// The state before any tick: `full` folds decisions in (see the
    /// module docs for when it must be off).
    #[must_use]
    pub fn new(spec: &TenantSpec, full: bool) -> Self {
        let mut stream = Self { state: FNV_OFFSET, full };
        stream.fold(&[FINGERPRINT_LAYOUT, u8::from(full)]);
        let mut enc = Encoder::new();
        spec.encode(&mut enc);
        stream.fold(enc.payload());
        stream
    }

    /// The stream over a whole prefix, from scratch.
    #[must_use]
    pub fn over(spec: &TenantSpec, loads: &[f64], decisions: Option<&[Config]>) -> Self {
        let mut stream = Self::new(spec, decisions.is_some());
        for (t, &load) in loads.iter().enumerate() {
            stream.extend(load, decisions.and_then(|d| d.get(t)));
        }
        stream
    }

    /// Whether decisions are part of the covered state.
    #[must_use]
    pub fn full(&self) -> bool {
        self.full
    }

    /// Extend by one decided tick. `decision` is ignored in the
    /// loads-only flavor.
    pub fn extend(&mut self, load: f64, decision: Option<&Config>) {
        self.fold(&load.to_bits().to_le_bytes());
        if let (true, Some(config)) = (self.full, decision) {
            for &c in config.counts() {
                self.fold(&c.to_le_bytes());
            }
        }
    }

    /// The fingerprint of everything folded in so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.state
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The canonical-state fingerprint of one tenant at `loads.len()`
/// accepted ticks, computed from scratch — the same value a
/// [`FingerprintStream`] extended tick by tick reaches. Pass `decisions`
/// (one per load) only when the degradation ladder is off for this
/// tenant (see the module docs for why); both sides of a sync derive
/// that flag the same way, so the flavors always line up.
#[must_use]
pub fn state_fingerprint(spec: &TenantSpec, loads: &[f64], decisions: Option<&[Config]>) -> u64 {
    FingerprintStream::over(spec, loads, decisions).value()
}

/// Lowercase hex of `bytes` — how WAL frames ride inside a JSON line
/// without losing their end-to-end FNV-1a framing.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Decode lowercase/uppercase hex; `None` on odd length or a non-hex
/// byte (a structured rejection, never a panic).
#[must_use]
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    fn nibble(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

/// What one applied sync did on the replica.
#[derive(Clone, Debug, Default)]
pub struct ApplyReport {
    /// Tenants the reply carried.
    pub tenants: usize,
    /// Fresh ticks applied through the step path.
    pub applied: u64,
    /// Fingerprints checked against locally recomputed ones.
    pub fp_checks: u64,
    /// Fingerprint mismatches (each quarantines its tenant).
    pub fp_mismatches: u64,
    /// Accepted-tick lag vs the primary after this apply (0 when fully
    /// caught up).
    pub lag: u64,
    /// Per-tenant structured failures (frame integrity, apply errors);
    /// the rest of the reply is still applied.
    pub errors: Vec<String>,
}

/// Options for a [`Replicator`].
#[derive(Clone, Debug)]
pub struct ReplicaOptions {
    /// Self-chosen identifier echoed by the primary (logs/metrics).
    pub replica_id: String,
    /// Consecutive failed syncs before the lease is considered expired
    /// and the replica promotes itself.
    pub lease_failures: u32,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        Self { replica_id: "replica".into(), lease_failures: 5 }
    }
}

/// The replica-side sync driver. Transport-agnostic: the chaos suite
/// drives it with an in-process closure over the primary's
/// [`Daemon::handle`] (injecting drop/partition/delay/reorder faults
/// deterministically), and `rsz serve --replica-of` drives it with a
/// [`Client`] over TCP — the logic in between is identical.
pub struct Replicator {
    daemon: Arc<Daemon>,
    options: ReplicaOptions,
    consecutive_failures: u32,
    /// Successful syncs.
    pub syncs: u64,
    /// Failed syncs (transport or apply).
    pub failures: u64,
}

impl Replicator {
    /// A replicator applying into `daemon` (which should be in
    /// [`Role::Replica`]).
    #[must_use]
    pub fn new(daemon: Arc<Daemon>, options: ReplicaOptions) -> Self {
        Self { daemon, options, consecutive_failures: 0, syncs: 0, failures: 0 }
    }

    /// The `repl.sync` request line for the daemon's current holdings.
    #[must_use]
    pub fn sync_request(&self) -> String {
        let have = self
            .daemon
            .replication_have()
            .into_iter()
            .map(|(tenant, n)| (tenant, json::n(n as f64)))
            .collect();
        json::obj(vec![
            ("op", json::s("repl.sync")),
            ("replica", json::s(&self.options.replica_id)),
            ("have", json::obj_owned(have)),
        ])
        .to_line()
    }

    /// One pull-apply round trip. `transport` carries the request line
    /// to the primary and returns its reply line; any transport or
    /// apply failure counts against the lease.
    pub fn sync_once(
        &mut self,
        transport: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<ApplyReport, String> {
        let request = self.sync_request();
        let outcome = transport(&request).and_then(|reply| self.daemon.apply_sync(&reply));
        match outcome {
            Ok(report) => {
                self.consecutive_failures = 0;
                self.syncs += 1;
                Ok(report)
            }
            Err(e) => {
                self.consecutive_failures += 1;
                self.failures += 1;
                Err(e)
            }
        }
    }

    /// Failed syncs since the last success.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether the primary's lease has expired.
    #[must_use]
    pub fn lease_expired(&self) -> bool {
        self.consecutive_failures >= self.options.lease_failures
    }

    /// Promote the daemon if the lease expired and it is still a
    /// replica. Returns whether a promotion happened.
    pub fn maybe_promote(&mut self) -> bool {
        if self.lease_expired() && self.daemon.role() == Role::Replica {
            self.daemon.promote();
            return true;
        }
        false
    }
}

/// The TCP replica loop behind `rsz serve --replica-of`: pull from
/// `primary` every `interval` until the daemon shuts down or promotes
/// itself after the lease expires. Returns whether this replica ended
/// up promoted.
pub fn run_replica(
    daemon: &Arc<Daemon>,
    primary: &str,
    interval: Duration,
    options: ReplicaOptions,
) -> bool {
    let mut client = Client::new(
        primary,
        ClientOptions {
            timeout: interval.max(Duration::from_millis(250)),
            max_attempts: 1,
            ..ClientOptions::default()
        },
    );
    let mut replicator = Replicator::new(Arc::clone(daemon), options);
    while !daemon.shutdown_requested() && daemon.role() == Role::Replica {
        let mut transport =
            |line: &str| client.round_trip(line).map(|v| v.to_line()).map_err(|e| e.to_string());
        let _ = replicator.sync_once(&mut transport);
        if replicator.maybe_promote() {
            return true;
        }
        std::thread::sleep(interval);
    }
    daemon.role() != Role::Replica
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    fn spec() -> TenantSpec {
        TenantSpec {
            fleet: "homogeneous:4".into(),
            algo: "b".into(),
            cache: false,
            grid: GridSpec::Full,
            deadline_us: None,
            snapshot_every: 0,
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        for bytes in [vec![], vec![0u8], vec![0xde, 0xad, 0xbe, 0xef], (0..=255).collect()] {
            assert_eq!(from_hex(&to_hex(&bytes)).as_deref(), Some(&bytes[..]));
        }
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digit");
        assert_eq!(from_hex("ABCD"), from_hex("abcd"), "case-insensitive");
    }

    #[test]
    fn fingerprints_are_deterministic_and_bit_sensitive() {
        let loads = [1.0, 2.5, 0.25];
        let decisions = vec![Config::new(vec![1]), Config::new(vec![2]), Config::new(vec![1])];
        let a = state_fingerprint(&spec(), &loads, Some(&decisions));
        assert_eq!(a, state_fingerprint(&spec(), &loads, Some(&decisions)));
        // One mantissa bit in one load must change the fingerprint.
        let mut flipped = loads;
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ (1 << 30));
        assert_ne!(a, state_fingerprint(&spec(), &flipped, Some(&decisions)));
        // A different decision must change the full flavor…
        let mut other = decisions.clone();
        other[2] = Config::new(vec![3]);
        assert_ne!(a, state_fingerprint(&spec(), &loads, Some(&other)));
        // …and the loads-only flavor must ignore decisions entirely.
        assert_eq!(
            state_fingerprint(&spec(), &loads, None),
            state_fingerprint(&spec(), &loads, None)
        );
        assert_ne!(a, state_fingerprint(&spec(), &loads, None));
    }

    #[test]
    fn running_stream_equals_the_from_scratch_fingerprint_at_every_k() {
        let loads: Vec<f64> = (0..40).map(|i| f64::from(i % 7) * 0.75).collect();
        let decisions: Vec<Config> = (0..40).map(|i| Config::new(vec![i % 5])).collect();
        for full in [false, true] {
            let mut stream = FingerprintStream::new(&spec(), full);
            for k in 1..=loads.len() {
                stream.extend(loads[k - 1], Some(&decisions[k - 1]));
                let committed = full.then(|| &decisions[..k]);
                assert_eq!(stream.value(), state_fingerprint(&spec(), &loads[..k], committed));
            }
        }
    }

    #[test]
    fn roles_round_trip_their_wire_forms() {
        for role in [Role::Primary, Role::Replica, Role::Promoting] {
            assert_eq!(Role::from_u8(role.to_u8()), role);
            assert!(!role.as_str().is_empty());
        }
        assert_eq!(Role::from_u8(99), Role::Primary);
    }
}
