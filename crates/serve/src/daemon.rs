//! The multi-tenant serving daemon.
//!
//! [`Daemon::handle`] is the whole protocol: one request line in, one
//! reply line out. The TCP layer ([`crate::server`]) is a thin loop
//! around it, which is what makes the chaos suite honest — tests drive
//! the daemon in-process through the same entry point production
//! traffic uses, and "kill -9" is dropping the daemon value on the
//! floor mid-stream.
//!
//! Robustness layers, in the order a tick meets them:
//!
//! 1. **admission control** — a bounded per-tenant waiting counter;
//!    beyond the bound the daemon sheds with `overloaded` instead of
//!    queueing unboundedly (the degradation ladder, driven by the
//!    per-decision deadline, engages *before* shedding: slow tenants
//!    get cheaper decisions first, and only sustained overload sheds).
//! 2. **WAL-before-decide** — a validated tick is appended to the
//!    tenant's log before the controller runs, so a crash loses
//!    replies, never accepted telemetry.
//! 3. **the step boundary** — the controller runs under
//!    `catch_unwind`; a panic quarantines that tenant and the daemon
//!    answers the next request as if nothing happened.
//! 4. **recovery** — on restart (or per-tenant revive) the history log
//!    supplies the accepted loads and served decisions, the snapshot
//!    core restores the controller, and the WAL suffix replays through
//!    the normal step path, bit-identical to the uninterrupted run.
//!
//! Every layer of the tick path costs `O(1)` amortized in the tenant's
//! history: the prefix instance grows by one slot per tick, the state
//! fingerprint is a running hash, and a snapshot writes the ticks since
//! the previous one plus a core whose size does not depend on depth.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use rsz_core::{Config, Instance, ServerType};
use rsz_offline::{payload_range, shared_pool, Decoder, Encoder, SharedSlotPool, SnapshotError};
use rsz_online::{restore_run, Checkpoint, DegradeStats, GracefulDegrader, LatencyProfile};

use crate::history;
use crate::json::{self, Json};
use crate::protocol::{self, decision_line, error_line, parse_request, wire, ErrorCode, Request};
use crate::replication::{from_hex, to_hex, ApplyReport, FingerprintStream, Role};
use crate::spec::{build_controller, TenantSpec};
use crate::tenant::{
    instance_over, Fingerprint, QuarantineReason, TenantCounters, TenantDegrader, TenantState,
};
use crate::wal::{self, WalRecord, WalScan, WalTail, WalWriter};

/// Snapshot envelope layout version. Version 3 carries only the
/// resumable core — `(name, spec, k, algo tag, controller state)` —
/// whose size does not depend on `k`; the loads and decisions it covers
/// live in the history log ([`crate::history`]), which is what makes
/// WAL compaction safe: a tenant whose early segments were deleted
/// recovers its loads from the history and only the suffix from the
/// surviving log.
const SNAP_FORMAT: u8 = 3;
/// The previous layout (the whole load prefix plus a `save_run`
/// envelope), still read once as the upgrade path.
const SNAP_FORMAT_V2: u8 = 2;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Directory for per-tenant WALs and snapshots.
    pub state_dir: PathBuf,
    /// Default per-decision budget (the global per-tick deadline);
    /// tenants may override via `deadline_us`.
    pub deadline: Option<Duration>,
    /// `γ₀` for the coarse degradation rung.
    pub coarse_gamma: f64,
    /// Default snapshot cadence: seal state after every `K` fresh
    /// decisions.
    pub snapshot_every: usize,
    /// Bound on concurrently waiting requests per tenant before
    /// shedding.
    pub queue_bound: usize,
    /// Priced-slot pool retention bound for shared pools.
    pub pool_capacity: usize,
    /// Quarantine backoff: first retry gate.
    pub backoff_base: Duration,
    /// Quarantine backoff: gate ceiling.
    pub backoff_cap: Duration,
    /// Force WAL appends to stable storage (`sync_data`) — survives
    /// power loss, not just process death. Off by default: the tests'
    /// crash model is process death.
    pub fsync: bool,
    /// Allow the `panic:T` fault-hook algorithm (chaos tests only).
    pub allow_fault_hooks: bool,
    /// Seal the active WAL segment once it crosses this many bytes and
    /// start a fresh one (`0` disables rotation, and with it
    /// compaction).
    pub segment_bytes: usize,
    /// Record a state fingerprint every `K` accepted ticks (`0`
    /// disables fingerprints, and with them divergence detection).
    pub fingerprint_every: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            state_dir: PathBuf::from("rsz-state"),
            deadline: None,
            coarse_gamma: 2.0,
            snapshot_every: 16,
            queue_bound: 4,
            pool_capacity: rsz_offline::DEFAULT_POOL_CAP,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(10),
            fsync: false,
            allow_fault_hooks: false,
            segment_bytes: 1 << 20,
            fingerprint_every: 8,
        }
    }
}

/// Daemon-wide counters, all monotone, exported via `/metrics`.
#[derive(Debug, Default)]
pub struct DaemonCounters {
    /// Request lines handled (any op).
    pub requests: AtomicU64,
    /// Lines rejected as `bad_request`.
    pub bad_requests: AtomicU64,
    /// Tick requests (fresh + replayed + rejected).
    pub ticks: AtomicU64,
    /// Fresh decisions made.
    pub decisions: AtomicU64,
    /// Duplicate-seq ticks answered from committed history.
    pub replays: AtomicU64,
    /// Ticks shed by admission control.
    pub shed: AtomicU64,
    /// Quarantine entries (any tenant, any reason).
    pub quarantines: AtomicU64,
    /// Successful revivals out of quarantine.
    pub revives: AtomicU64,
    /// Torn WAL tails truncated during recovery.
    pub wal_truncations: AtomicU64,
    /// Recoveries that ignored a bad snapshot and replayed the full WAL.
    pub snapshot_fallbacks: AtomicU64,
    /// Snapshots sealed.
    pub snapshots: AtomicU64,
    /// Tenants recovered from disk at startup.
    pub recovered: AtomicU64,
    /// WAL segments sealed (rotation).
    pub segments_sealed: AtomicU64,
    /// Sealed WAL segments deleted because a durable snapshot covers
    /// them (compaction).
    pub segments_compacted: AtomicU64,
    /// `repl.sync` requests served (primary side).
    pub repl_syncs: AtomicU64,
    /// Replicated ticks applied through the step path (replica side).
    pub repl_applied: AtomicU64,
    /// Replication frame batches rejected by their FNV-1a framing
    /// (transit corruption never reaches the step path).
    pub repl_frame_rejects: AtomicU64,
    /// State fingerprints checked against the primary's.
    pub fingerprint_checks: AtomicU64,
    /// Fingerprint mismatches (each quarantines its tenant as
    /// diverged).
    pub fingerprint_mismatches: AtomicU64,
    /// Promotions this process performed (replica → primary).
    pub failovers: AtomicU64,
}

/// Daemon-private per-tenant state: what keeps the tick path `O(1)` in
/// the tenant's history. Holds no heap buffer and no file before the
/// tenant's first tick.
struct Live {
    /// The growing prefix instance `I_t`, extended with
    /// [`Instance::push_load`] per accepted tick (`None` before the
    /// first) — `TenantState::prefix_instance` is its reference rebuild.
    instance: Option<Instance>,
    /// Running canonical-state fingerprint over the decided ticks.
    fp: FingerprintStream,
    /// Ticks the history log holds: the next delta record starts here.
    hist_k: usize,
    /// Sealed WAL segments not yet compacted, by ascending `through`.
    segments: Vec<u64>,
}

impl Live {
    fn new(spec: &TenantSpec, full: bool) -> Self {
        Self {
            instance: None,
            fp: FingerprintStream::new(spec, full),
            hist_k: 0,
            segments: Vec::new(),
        }
    }

    /// Reveal one accepted load to the prefix instance.
    fn push_load(&mut self, types: &[ServerType], load: f64) -> Result<(), String> {
        match self.instance.as_mut() {
            Some(instance) => {
                instance.push_load(load).map_err(|e| format!("prefix instance invalid: {e}"))
            }
            None => {
                self.instance = Some(instance_over(types, &[load])?);
                Ok(())
            }
        }
    }
}

/// One tenant under its lock: the public state plus the daemon's own.
struct Tenant {
    st: TenantState,
    live: Live,
}

/// One tenant's concurrency gate plus its state.
pub struct TenantSlot {
    waiting: AtomicUsize,
    state: Mutex<Tenant>,
}

impl TenantSlot {
    fn new(st: TenantState, live: Live) -> Arc<Self> {
        Arc::new(Self { waiting: AtomicUsize::new(0), state: Mutex::new(Tenant { st, live }) })
    }
}

/// Decrements the waiting counter even when the handler bails early.
struct QueueGuard<'a>(&'a AtomicUsize);

impl Drop for QueueGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Lock a mutex, shrugging off poisoning: a panicked handler thread
/// must never take the tenant (or the daemon) down with it.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The serving daemon. Thread-safe: the TCP layer calls
/// [`Daemon::handle`] from one thread per connection.
pub struct Daemon {
    options: ServeOptions,
    started: Instant,
    tenants: Mutex<HashMap<String, Arc<TenantSlot>>>,
    pools: Mutex<HashMap<String, SharedSlotPool>>,
    /// Counters, public for the bench harness.
    pub counters: DaemonCounters,
    shutdown: AtomicBool,
    role: std::sync::atomic::AtomicU8,
    /// Accepted-tick lag behind the primary after the latest applied
    /// sync (a gauge; meaningful on replicas).
    repl_lag: AtomicU64,
}

impl Daemon {
    /// Start a daemon over `options.state_dir`, recovering every tenant
    /// whose WAL survives there. Recovery failures quarantine the
    /// tenant in question; they never fail daemon startup.
    pub fn new(options: ServeOptions) -> std::io::Result<Self> {
        std::fs::create_dir_all(&options.state_dir)?;
        let daemon = Self {
            options,
            started: Instant::now(),
            tenants: Mutex::new(HashMap::new()),
            pools: Mutex::new(HashMap::new()),
            counters: DaemonCounters::default(),
            shutdown: AtomicBool::new(false),
            role: std::sync::atomic::AtomicU8::new(Role::Primary.to_u8()),
            repl_lag: AtomicU64::new(0),
        };
        daemon.recover_all();
        Ok(daemon)
    }

    /// The options the daemon runs with.
    #[must_use]
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Whether an orderly shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// This daemon's replication role.
    #[must_use]
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::SeqCst))
    }

    /// Set the replication role (a fresh daemon starts as `Primary`;
    /// `rsz serve --replica-of` flips it to `Replica` before serving).
    pub fn set_role(&self, role: Role) {
        self.role.store(role.to_u8(), Ordering::SeqCst);
    }

    /// Handle one request line, returning one reply line. Never panics
    /// on any input; never returns more or less than one line.
    pub fn handle(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                return error_line(ErrorCode::BadRequest, &e.detail);
            }
        };
        match request {
            Request::Register { .. } | Request::Tick { .. } if self.shutdown_requested() => {
                // Admission stops the moment a graceful shutdown
                // begins: clients back off and fail over to a peer.
                error_line(ErrorCode::Overloaded, "daemon is shutting down")
            }
            Request::Register { .. } | Request::Tick { .. } if self.role() != Role::Primary => {
                error_line(
                    ErrorCode::NotPrimary,
                    &format!(
                        "this daemon is a {}; send writes to the primary",
                        self.role().as_str()
                    ),
                )
            }
            Request::Register { tenant, spec } => self.handle_register(&tenant, spec),
            Request::Tick { tenant, seq, load } => self.handle_tick(&tenant, seq, load),
            Request::Health => self.health_line(),
            Request::Livez => self.livez_line(),
            Request::Readyz => self.readyz_line(),
            Request::Metrics => self.metrics_line(),
            Request::Shutdown => {
                self.graceful_shutdown();
                json::obj(vec![("ok", Json::Bool(true)), ("stopping", Json::Bool(true))]).to_line()
            }
            Request::ReplSync { replica, have } => {
                if self.role() == Role::Primary {
                    self.sync_reply(&replica, &have)
                } else {
                    error_line(
                        ErrorCode::NotPrimary,
                        &format!("cannot serve repl.sync as a {}", self.role().as_str()),
                    )
                }
            }
        }
    }

    fn handle_register(&self, name: &str, spec: TenantSpec) -> String {
        match self.do_register(name, spec) {
            Ok((resumed, quarantined)) => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tenant", json::s(name)),
                ("resumed_ticks", json::n(resumed as f64)),
                ("quarantined", Json::Bool(quarantined)),
            ])
            .to_line(),
            Err((code, detail)) => error_line(code, &detail),
        }
    }

    /// Whether this tenant's fingerprints fold committed decisions in:
    /// only when its degradation ladder is off, because with a deadline
    /// armed the ladder may descend on wall-clock overruns and committed
    /// decisions are not replica-comparable.
    fn full_fingerprints(&self, spec: &TenantSpec) -> bool {
        spec.effective_deadline(self.options.deadline).is_none()
    }

    /// A tenant's state with nothing accepted yet.
    fn empty_state(
        spec: TenantSpec,
        types: Vec<ServerType>,
        wal: Option<WalWriter>,
    ) -> TenantState {
        TenantState {
            spec,
            types,
            loads: Vec::new(),
            decisions: Vec::new(),
            controller: None,
            wal,
            fresh_since_snapshot: 0,
            quarantine: None,
            counters: TenantCounters::default(),
            fingerprints: Vec::new(),
            last_sealed_through: 0,
            last_snapshot_k: 0,
            fp_checked: 0,
        }
    }

    /// Register (or idempotently re-attach) a tenant. Shared between
    /// the protocol path and replication apply (a replica registers
    /// tenants from the primary's shipped `Register` frames). Returns
    /// `(resumed ticks, quarantined)`.
    fn do_register(
        &self,
        name: &str,
        spec: TenantSpec,
    ) -> Result<(u64, bool), (ErrorCode, String)> {
        if let Err(detail) = spec.validate(self.options.allow_fault_hooks) {
            return Err((ErrorCode::Input, detail));
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        if let Some(slot) = slot {
            // Idempotent re-attach: same spec resumes; a different spec
            // for a live name is a caller bug.
            let tenant = lock_clean(&slot.state);
            if tenant.st.spec != spec {
                return Err((
                    ErrorCode::Input,
                    "tenant already registered with a different spec".into(),
                ));
            }
            return Ok((tenant.st.loads.len() as u64, tenant.st.quarantine.is_some()));
        }
        // Fresh tenant: open its WAL and log the registration first.
        let types = spec.server_types().map_err(|detail| (ErrorCode::Input, detail))?;
        let path = wal::wal_path(&self.options.state_dir, name);
        let mut writer = WalWriter::open(&path, self.options.fsync)
            .map_err(|e| (ErrorCode::Quarantined, format!("WAL open failed: {e}")))?;
        writer
            .append(&WalRecord::Register(spec.clone()))
            .map_err(|e| (ErrorCode::Quarantined, format!("WAL append failed: {e}")))?;
        let live = Live::new(&spec, self.full_fingerprints(&spec));
        let state = Self::empty_state(spec, types, Some(writer));
        lock_clean(&self.tenants).insert(name.to_owned(), TenantSlot::new(state, live));
        Ok((0, false))
    }

    fn handle_tick(&self, name: &str, seq: u64, load: f64) -> String {
        self.counters.ticks.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let tenants = lock_clean(&self.tenants);
            match tenants.get(name) {
                Some(s) => s.clone(),
                None => return error_line(ErrorCode::UnknownTenant, "register first"),
            }
        };
        // Admission control: bounded waiting per tenant, shed beyond.
        let admitted = slot
            .waiting
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |w| {
                (w < self.options.queue_bound).then_some(w + 1)
            })
            .is_ok();
        if !admitted {
            self.counters.shed.fetch_add(1, Ordering::Relaxed);
            return error_line(ErrorCode::Overloaded, "tenant queue full; retry with backoff");
        }
        let _guard = QueueGuard(&slot.waiting);
        let mut tenant = lock_clean(&slot.state);
        let Tenant { st, live } = &mut *tenant;
        match self.tick_core(st, live, name, seq, load) {
            Ok((config, rung, replayed)) => decision_line(seq, &config, rung, replayed),
            Err((code, detail)) => error_line(code, &detail),
        }
    }

    /// The full accepted-tick path for one tenant, shared between the
    /// protocol handler and replication apply (a replica applies the
    /// primary's shipped ticks through exactly this path — that is what
    /// makes failover bit-identical): quarantine gate → idempotent
    /// sequencing → validation → WAL append (+rotation) → step →
    /// snapshot and fingerprint cadences. The returned `bool` is true
    /// when the decision was replayed from committed history. Every
    /// step costs `O(1)` amortized in the tenant's history depth.
    fn tick_core(
        &self,
        st: &mut TenantState,
        live: &mut Live,
        name: &str,
        seq: u64,
        load: f64,
    ) -> Result<(Config, rsz_online::Rung, bool), (ErrorCode, String)> {
        // Quarantine gate: bounce until the backoff expires, then try
        // to revive; a failed revival re-enters with a longer gate.
        if let Some(q) = st.quarantine.clone() {
            if Instant::now() < q.until {
                return Err((
                    q.reason.code(),
                    format!(
                        "tenant quarantined ({}): {}; retry in {:?}",
                        q.reason.as_str(),
                        q.detail,
                        q.until.saturating_duration_since(Instant::now())
                    ),
                ));
            }
            match self.revive(st, live, name, &[]) {
                Ok(()) => {
                    st.quarantine = None;
                    self.counters.revives.fetch_add(1, Ordering::Relaxed);
                }
                Err((reason, detail)) => {
                    self.quarantine(st, name, reason, detail.clone());
                    return Err((reason.code(), detail));
                }
            }
        }

        // Idempotent sequencing: a duplicate replays its committed
        // decision, a gap is the client's bug (no quarantine — nothing
        // was accepted).
        let expected = st.loads.len() as u64;
        if seq < expected {
            let config = match st.decisions.get(seq as usize) {
                Some(c) => c.clone(),
                // The decision for this accepted tick is still pending
                // (its first attempt panicked and we just revived): the
                // client should re-send the *next* seq; report the gap.
                None => {
                    return Err((
                        ErrorCode::Input,
                        format!("seq {seq} accepted but undecided; resend seq {expected}"),
                    ))
                }
            };
            st.counters.replays += 1;
            self.counters.replays.fetch_add(1, Ordering::Relaxed);
            let rung = st.controller.as_ref().map_or(rsz_online::Rung::Exact, |c| c.rung());
            return Ok((config, rung, true));
        }
        if seq > expected {
            return Err((ErrorCode::Input, format!("seq gap: expected {expected}, got {seq}")));
        }

        // Validation before the WAL: the log holds only accepted ticks.
        if let Err(detail) = st.validate_load(load) {
            st.counters.rejected += 1;
            self.quarantine(st, name, QuarantineReason::Input, detail.clone());
            return Err((ErrorCode::Input, detail));
        }
        match st.wal.as_mut() {
            Some(w) => {
                if let Err(e) = w.append(&WalRecord::Tick { seq, load }) {
                    let detail = format!("WAL append failed: {e}");
                    self.quarantine(st, name, QuarantineReason::Io, detail.clone());
                    return Err((ErrorCode::Quarantined, detail));
                }
            }
            None => {
                let detail = "WAL writer unavailable".to_owned();
                self.quarantine(st, name, QuarantineReason::Io, detail.clone());
                return Err((ErrorCode::Quarantined, detail));
            }
        }
        st.loads.push(load);
        if let Err(detail) = live.push_load(&st.types, load) {
            // Revival rebuilds the instance from the accepted loads.
            live.instance = None;
            self.quarantine(st, name, QuarantineReason::Solver, detail.clone());
            return Err((ErrorCode::Solver, detail));
        }
        self.maybe_rotate(st, live, name);

        match self.step(st, live) {
            Ok((config, rung, elapsed)) => {
                st.counters.decisions += 1;
                st.counters.push_latency(elapsed.as_secs_f64());
                self.counters.decisions.fetch_add(1, Ordering::Relaxed);
                st.fresh_since_snapshot += 1;
                let cadence = if st.spec.snapshot_every == 0 {
                    self.options.snapshot_every
                } else {
                    st.spec.snapshot_every
                };
                if cadence > 0 && st.fresh_since_snapshot >= cadence {
                    self.write_snapshot(st, live, name);
                }
                let fe = self.options.fingerprint_every;
                if fe > 0 && st.loads.len().is_multiple_of(fe) {
                    let k = st.loads.len() as u64;
                    st.push_fingerprint(Fingerprint {
                        k,
                        fp: live.fp.value(),
                        full: live.fp.full(),
                    });
                }
                Ok((config, rung, false))
            }
            Err((reason, detail)) => {
                self.quarantine(st, name, reason, detail.clone());
                Err((reason.code(), detail))
            }
        }
    }

    /// Seal the active WAL once it crosses the size threshold: rename
    /// it to `<tenant>.<through>.walseg` and start a fresh active log
    /// whose first record re-states the registration, so every segment
    /// is self-describing. Rotation only happens between appends, hence
    /// always at a record boundary — a torn tail can only ever live in
    /// the active file.
    fn maybe_rotate(&self, st: &mut TenantState, live: &mut Live, name: &str) {
        let limit = self.options.segment_bytes;
        if limit == 0 {
            return;
        }
        let through = st.loads.len() as u64;
        let Some(w) = st.wal.as_ref() else { return };
        if (w.bytes() as usize) < limit || through <= st.last_sealed_through {
            return;
        }
        let active = wal::wal_path(&self.options.state_dir, name);
        let sealed = wal::seg_path(&self.options.state_dir, name, through);
        st.wal = None; // close the appender before the rename
        if std::fs::rename(&active, &sealed).is_err() {
            // Rotation is an optimisation: keep appending to the old
            // active file and try again at the next boundary.
            st.wal = WalWriter::open(&active, self.options.fsync).ok();
            return;
        }
        st.last_sealed_through = through;
        live.segments.push(through);
        self.counters.segments_sealed.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut w) = WalWriter::open(&active, self.options.fsync) {
            // An append failure here leaves the active log empty;
            // recovery re-states the registration, and the next tick's
            // append surfaces the I/O error through quarantine.
            let _ = w.append(&WalRecord::Register(st.spec.clone()));
            st.wal = Some(w);
        }
    }

    /// Decide the latest slot of the prefix instance (the one after the
    /// last committed decision). The controller runs under
    /// `catch_unwind`: a panic here is the tenant's problem, never the
    /// daemon's.
    fn step(
        &self,
        st: &mut TenantState,
        live: &mut Live,
    ) -> Result<(Config, rsz_online::Rung, Duration), (QuarantineReason, String)> {
        if st.controller.is_none() {
            self.build_tenant_controller(st, live)?;
        }
        let instance = live.instance.as_ref().expect("the controller was built over it");
        let t = instance.horizon() - 1;
        debug_assert_eq!(t, st.decisions.len(), "one decision per revealed slot");
        let controller = st.controller.as_mut().expect("just built");
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            rsz_online::OnlineAlgorithm::decide(controller, instance, t)
        }));
        let elapsed = start.elapsed();
        match outcome {
            Ok(config) => {
                let rung = controller.rung();
                live.fp.extend(instance.load(t), Some(&config));
                st.decisions.push(config.clone());
                Ok((config, rung, elapsed))
            }
            Err(payload) => {
                // The controller is gone; recovery rebuilds it from the
                // snapshot + WAL. The tick stays accepted.
                st.controller = None;
                let what = panic_message(payload);
                Err((
                    QuarantineReason::Solver,
                    format!("controller panicked deciding slot {t}: {what}"),
                ))
            }
        }
    }

    /// Build (or rebuild) the tenant's degrader over the current prefix
    /// instance and install the shared pricing pool.
    fn build_tenant_controller(
        &self,
        st: &mut TenantState,
        live: &Live,
    ) -> Result<(), (QuarantineReason, String)> {
        let Some(instance) = live.instance.as_ref() else {
            return Err((QuarantineReason::Solver, "no accepted tick to build over".into()));
        };
        let spec = st.spec.clone();
        let inner =
            catch_unwind(AssertUnwindSafe(|| build_controller(&spec, instance, spec.grid.mode())))
                .map_err(|p| (QuarantineReason::Solver, panic_message(p)))?
                .map_err(|e| (QuarantineReason::Solver, e))?;
        let factory_spec = st.spec.clone();
        let factory: crate::tenant::ControllerFactory = Box::new(move |inst, grid| {
            build_controller(&factory_spec, inst, grid).expect("spec validated at registration")
        });
        let mut degrader = GracefulDegrader::new(
            inner,
            factory,
            st.degrade_options(self.options.deadline, self.options.coarse_gamma),
        );
        self.install_pool(st, instance, &mut degrader);
        st.controller = Some(degrader);
        Ok(())
    }

    /// Point the tenant's prefix solver at the pool shared by every tenant
    /// with the same `(fleet, grid)` key. Sound because pricing is a
    /// pure function of `(partition, λ, grid)`: pool contents change
    /// hit rates, never decisions.
    fn install_pool(&self, st: &TenantState, instance: &Instance, degrader: &mut TenantDegrader) {
        let key = st.spec.pool_key();
        let pool = {
            let mut pools = lock_clean(&self.pools);
            pools
                .entry(key)
                .or_insert_with(|| shared_pool(instance, self.options.pool_capacity))
                .clone()
        };
        degrader.inner_mut().share_pool(pool);
    }

    /// Bring a tenant back from quarantine (or rebuild a controller a
    /// panic destroyed), reading in order: the history log (the durable
    /// loads and decisions), the snapshot core (controller state at its
    /// `k`; the history's decisions are cut there), then the WAL's tick
    /// suffix (which may start past zero once segments have been
    /// compacted away). Whatever is undecided then replays through the
    /// normal step path. No snapshot, or a bad one, means a full replay
    /// of the recovered loads.
    ///
    /// A diverged tenant is *not* revivable from local storage — its
    /// own WAL would faithfully replay the same divergent state — so
    /// `Divergence` stays quarantined until a fresh resync replaces the
    /// state wholesale.
    fn revive(
        &self,
        st: &mut TenantState,
        live: &mut Live,
        name: &str,
        wal_suffix: &[(u64, f64)],
    ) -> Result<(), (QuarantineReason, String)> {
        if st.quarantine.as_ref().is_some_and(|q| q.reason == QuarantineReason::Divergence) {
            return Err((
                QuarantineReason::Divergence,
                "diverged from the primary; local replay would reproduce the divergence".into(),
            ));
        }
        // Input quarantines keep the controller: the bad tick was never
        // applied, so the state is intact and the gate alone suffices.
        if wal_suffix.is_empty()
            && st.quarantine.as_ref().is_some_and(|q| q.reason == QuarantineReason::Input)
            && st.controller.is_some()
            && st.decisions.len() == st.loads.len()
        {
            return Ok(());
        }
        if st.wal.is_none() {
            let path = wal::wal_path(&self.options.state_dir, name);
            st.wal = Some(
                WalWriter::open(&path, self.options.fsync)
                    .map_err(|e| (QuarantineReason::Io, format!("WAL reopen failed: {e}")))?,
            );
        }
        st.controller = None;
        st.decisions.clear();
        live.instance = None;

        let hist = history::read(&history::hist_path(&self.options.state_dir, name), name)
            .map_err(|e| (QuarantineReason::WalCorrupt, e))?;
        merge_prefix(st, &hist.loads, "history log")
            .map_err(|e| (QuarantineReason::WalCorrupt, e))?;
        live.hist_k = hist.loads.len();
        self.restore_from_snapshot(st, live, name, hist.decisions);

        // Merge the WAL ticks over whatever prefix history and snapshot
        // (or live memory) established: overlap must agree bit-for-bit,
        // the contiguous extension is validated and accepted, and a gap
        // means compaction deleted segments the history was supposed to
        // cover — unrecoverable locally.
        for &(seq, load) in wal_suffix {
            let len = st.loads.len() as u64;
            if seq < len {
                if st.loads[seq as usize].to_bits() != load.to_bits() {
                    return Err((
                        QuarantineReason::WalCorrupt,
                        format!("WAL tick at seq {seq} disagrees with the recovered prefix"),
                    ));
                }
            } else if seq == len {
                st.validate_load(load).map_err(|e| {
                    (
                        QuarantineReason::WalCorrupt,
                        format!("WAL holds an invalid accepted load at seq {seq}: {e}"),
                    )
                })?;
                st.loads.push(load);
            } else {
                return Err((
                    QuarantineReason::WalCorrupt,
                    format!(
                        "WAL resumes at seq {seq} but only {len} ticks are recoverable \
                         (compacted log without its history)"
                    ),
                ));
            }
        }
        // Replay the undecided suffix through the very same step path a
        // live tick takes — this is what makes resume bit-identical.
        while st.decisions.len() < st.loads.len() {
            let load = st.loads[st.decisions.len()];
            live.push_load(&st.types, load).map_err(|e| (QuarantineReason::Solver, e))?;
            self.step(st, live)?;
        }
        // The running fingerprint, built once over the recovered state.
        let decisions = live.fp.full().then_some(st.decisions.as_slice());
        live.fp = FingerprintStream::over(&st.spec, &st.loads, decisions);
        Ok(())
    }

    /// Try to restore controller + committed decisions from the
    /// snapshot file. Any failure falls back to a fresh controller
    /// (full replay of the recovered loads) — a bad snapshot degrades
    /// recovery time, not correctness, and is counted.
    fn restore_from_snapshot(
        &self,
        st: &mut TenantState,
        live: &mut Live,
        name: &str,
        committed: Vec<Config>,
    ) {
        let path = wal::snap_path(&self.options.state_dir, name);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return, // no snapshot: full replay
        };
        if self.try_restore(st, live, name, &bytes, committed).is_err() {
            // Quarantine would be wrong here: the history and WAL still
            // recover this tenant fully, just slower. Count the fallback.
            st.controller = None;
            st.decisions.clear();
            live.instance = None;
            st.counters.snapshot_fallbacks += 1;
            self.counters.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Restore from a core snapshot `(format, name, spec, k, algo tag,
    /// controller state)`: the controller is rebuilt over the first `k`
    /// recovered loads and the history's decisions are cut at `k`.
    fn try_restore(
        &self,
        st: &mut TenantState,
        live: &mut Live,
        name: &str,
        bytes: &[u8],
        mut committed: Vec<Config>,
    ) -> Result<(), String> {
        let mut dec =
            Decoder::from_sealed(bytes).map_err(|e| describe_snapshot_error(bytes, &e))?;
        let version = dec.take_u8().map_err(stringify)?;
        if version != SNAP_FORMAT && version != SNAP_FORMAT_V2 {
            return Err(format!("snapshot format {version} (this daemon writes {SNAP_FORMAT})"));
        }
        let snap_name =
            wire::take_str(&mut dec, "snapshot tenant name is not UTF-8").map_err(stringify)?;
        if snap_name != name {
            return Err(format!("snapshot belongs to tenant `{snap_name}`"));
        }
        let snap_spec = TenantSpec::decode(&mut dec).map_err(stringify)?;
        if snap_spec != st.spec {
            return Err("snapshot was taken under a different spec".into());
        }
        let k = dec.take_usize().map_err(stringify)?;
        if k == 0 {
            return Err("snapshot covers zero slots".into());
        }
        if version == SNAP_FORMAT_V2 {
            return self.upgrade_v2(st, live, name, k, &mut dec);
        }
        if k > committed.len() {
            return Err(format!(
                "snapshot at {k} ticks outruns its history log ({} ticks)",
                committed.len()
            ));
        }
        let tag = dec.take_bytes().map_err(stringify)?;
        live.instance = Some(instance_over(&st.types, &st.loads[..k])?);
        self.build_tenant_controller(st, live).map_err(|(_, e)| e)?;
        let instance = live.instance.as_ref().expect("just built");
        let controller = st.controller.as_mut().expect("just built");
        if tag != controller.algo_tag().as_bytes() {
            return Err("snapshot was taken by a different controller".into());
        }
        controller.restore_state(instance, &mut dec).map_err(stringify)?;
        if !dec.is_empty() {
            return Err("trailing bytes after the controller state".into());
        }
        committed.truncate(k);
        st.decisions = committed;
        self.restored(st, live, k);
        Ok(())
    }

    /// The upgrade path from a format-2 snapshot (the whole load prefix
    /// plus a `save_run` envelope): its loads and committed decisions
    /// seed the history log, then the controller restores from the
    /// envelope when its layout is still current. Algorithm B and C
    /// states are refused by their tag, which sends the tenant through a
    /// full replay of the seeded loads.
    fn upgrade_v2(
        &self,
        st: &mut TenantState,
        live: &mut Live,
        name: &str,
        k: usize,
        dec: &mut Decoder<'_>,
    ) -> Result<(), String> {
        let mut loads = Vec::with_capacity(k.min(1 << 20));
        for _ in 0..k {
            loads.push(dec.take_f64().map_err(stringify)?);
        }
        let inner = dec.take_bytes().map_err(stringify)?;
        let decisions = v2_committed(inner, k, st.types.len())?;
        merge_prefix(st, &loads, "snapshot")?;
        if live.hist_k < k {
            let path = history::hist_path(&self.options.state_dir, name);
            let (from, fsync) = (live.hist_k, self.options.fsync);
            history::append(&path, name, &st.spec, from, &loads[from..], &decisions[from..], fsync)
                .map_err(|e| format!("history log seed failed: {e}"))?;
            live.hist_k = k;
        }
        live.instance = Some(instance_over(&st.types, &st.loads[..k])?);
        self.build_tenant_controller(st, live).map_err(|(_, e)| e)?;
        let instance = live.instance.as_ref().expect("just built");
        let controller = st.controller.as_mut().expect("just built");
        restore_run(controller, instance, inner).map_err(|e| describe_snapshot_error(inner, &e))?;
        st.decisions = decisions;
        self.restored(st, live, k);
        Ok(())
    }

    /// Bookkeeping after a successful restore at `k`.
    fn restored(&self, st: &mut TenantState, live: &mut Live, k: usize) {
        st.last_snapshot_k = st.last_snapshot_k.max(k);
        // restore_state rebuilds internal pools as owned, so the shared
        // handle must be re-installed after restore.
        if let (Some(instance), Some(mut degrader)) = (live.instance.as_ref(), st.controller.take())
        {
            self.install_pool(st, instance, &mut degrader);
            st.controller = Some(degrader);
        }
    }

    /// Seal the tenant's state. First the ticks decided since the last
    /// snapshot go to the history log as one delta record (synced when
    /// fsync is on); then the core `(format, name, spec, k, algo tag,
    /// controller state)` goes to a checksummed envelope via tmp +
    /// rename, so a crash leaves either the old snapshot or the new
    /// one, never a hybrid. Neither depends on `k` in size. A durable
    /// snapshot then compacts the WAL: every sealed segment it fully
    /// covers is deleted.
    fn write_snapshot(&self, st: &mut TenantState, live: &mut Live, name: &str) {
        let Some(controller) = st.controller.as_ref() else { return };
        let k = st.decisions.len();
        if k == 0 || k != st.loads.len() {
            return;
        }
        if live.hist_k < k {
            let path = history::hist_path(&self.options.state_dir, name);
            let from = live.hist_k;
            let appended = history::append(
                &path,
                name,
                &st.spec,
                from,
                &st.loads[from..k],
                &st.decisions[from..k],
                self.options.fsync,
            );
            if appended.is_err() {
                // The WAL still holds these ticks; retry at the next
                // cadence.
                return;
            }
            live.hist_k = k;
        }
        let mut enc = Encoder::new();
        enc.put_u8(SNAP_FORMAT);
        enc.put_bytes(name.as_bytes());
        st.spec.encode(&mut enc);
        enc.put_usize(k);
        enc.put_bytes(controller.algo_tag().as_bytes());
        controller.save_state(&mut enc);
        let sealed = enc.into_sealed();
        let path = wal::snap_path(&self.options.state_dir, name);
        let tmp = path.with_extension("snap.tmp");
        let io = std::fs::write(&tmp, &sealed).and_then(|()| {
            if self.options.fsync {
                let f = std::fs::File::open(&tmp)?;
                f.sync_data()?;
            }
            std::fs::rename(&tmp, &path)
        });
        match io {
            Ok(()) => {
                st.fresh_since_snapshot = 0;
                st.last_snapshot_k = k;
                st.counters.snapshots += 1;
                self.counters.snapshots.fetch_add(1, Ordering::Relaxed);
                self.compact_segments(live, name, k as u64);
            }
            Err(_) => {
                // Snapshot write failure is not fatal: the WAL still
                // recovers everything, just slower.
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }

    /// Delete the sealed WAL segments the durable snapshot fully covers:
    /// a segment running through `through ≤ k` holds nothing the history
    /// log does not. Decided from the in-memory segment list, so a
    /// snapshot never scans the state directory.
    fn compact_segments(&self, live: &mut Live, name: &str, k: u64) {
        if live.segments.first().is_none_or(|&oldest| oldest > k) {
            return;
        }
        let dir = &self.options.state_dir;
        live.segments.retain(|&through| {
            if through > k {
                return true;
            }
            match std::fs::remove_file(wal::seg_path(dir, name, through)) {
                Ok(()) => {
                    self.counters.segments_compacted.fetch_add(1, Ordering::Relaxed);
                    false
                }
                Err(e) => e.kind() != std::io::ErrorKind::NotFound,
            }
        });
    }

    /// Snapshot every live tenant (orderly shutdown).
    pub fn snapshot_all(&self) {
        for (name, slot) in self.slots() {
            let mut tenant = lock_clean(&slot.state);
            let Tenant { st, live } = &mut *tenant;
            if st.quarantine.is_none() {
                self.write_snapshot(st, live, &name);
            }
        }
    }

    /// Every tenant slot, sorted by name.
    fn slots(&self) -> Vec<(String, Arc<TenantSlot>)> {
        let tenants = lock_clean(&self.tenants);
        let mut v: Vec<_> = tenants.iter().map(|(k, s)| (k.clone(), s.clone())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Scan the state directory once for surviving state and recover
    /// each tenant. A tenant is discoverable through its active WAL, any
    /// sealed segment, its snapshot or its history log — a crash between
    /// seal-rename and fresh-active-open leaves no `.wal` file, and
    /// compaction can leave snapshot and history as the only pre-suffix
    /// evidence. Sealed segments are grouped per tenant in the same
    /// pass. Per-tenant failures quarantine that tenant; nothing here
    /// aborts startup.
    fn recover_all(&self) {
        let entries = match std::fs::read_dir(&self.options.state_dir) {
            Ok(e) => e,
            Err(_) => return,
        };
        let mut tenants: BTreeMap<String, Vec<(u64, PathBuf)>> = BTreeMap::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Some(file) = path.file_name().and_then(|s| s.to_str()) else { continue };
            let stem = file
                .strip_suffix(".wal")
                .or_else(|| file.strip_suffix(".snap"))
                .or_else(|| file.strip_suffix(".hist"));
            if let Some(stem) = stem {
                tenants.entry(stem.to_owned()).or_default();
            } else if let Some(stem) = file.strip_suffix(".walseg") {
                // `<tenant>.NNNNNNNNNNNN.walseg`
                if let Some((tenant, digits)) = stem.rsplit_once('.') {
                    if digits.len() == 12 && digits.bytes().all(|b| b.is_ascii_digit()) {
                        if let Ok(through) = digits.parse::<u64>() {
                            tenants.entry(tenant.to_owned()).or_default().push((through, path));
                        }
                    }
                }
            }
        }
        for (name, mut segments) in tenants {
            segments.sort_by_key(|&(through, _)| through);
            if let Some((st, live)) = self.recover_tenant(&name, segments) {
                self.counters.recovered.fetch_add(1, Ordering::Relaxed);
                lock_clean(&self.tenants).insert(name, TenantSlot::new(st, live));
            }
        }
    }

    /// Recover one tenant from its sealed WAL `segments` (ascending) and
    /// active WAL, plus history and snapshot. Returns `None` only when
    /// nothing usable survives at all (no registration in any log, and
    /// no readable snapshot or history header).
    fn recover_tenant(
        &self,
        name: &str,
        segments: Vec<(u64, PathBuf)>,
    ) -> Option<(TenantState, Live)> {
        let active = wal::wal_path(&self.options.state_dir, name);
        let last_sealed_through = segments.last().map_or(0, |(t, _)| *t);
        let throughs: Vec<u64> = segments.iter().map(|&(t, _)| t).collect();
        let mut sources: Vec<(PathBuf, bool)> =
            segments.into_iter().map(|(_, p)| (p, false)).collect();
        sources.push((active.clone(), true));

        let mut spec: Option<TenantSpec> = None;
        let mut ticks: Vec<(u64, f64)> = Vec::new();
        let mut corrupt_detail: Option<String> = None;

        'sources: for (path, is_active) in &sources {
            let bytes = match wal::read_file(path) {
                Ok(b) => b,
                // No active file at all: a crash between seal-rename
                // and fresh-active-open. The sealed segments carry the
                // history; a fresh active log is opened below.
                Err(_) if *is_active => Vec::new(),
                Err(e) => {
                    corrupt_detail
                        .get_or_insert_with(|| format!("sealed WAL segment unreadable: {e}"));
                    break;
                }
            };
            if bytes.is_empty() {
                continue;
            }
            let WalScan { records, intact_len, tail } = wal::scan(&bytes);
            match tail {
                WalTail::Clean => {}
                WalTail::Torn { .. } if *is_active => {
                    // Crash-consistent: drop the torn tail and resume
                    // from the intact prefix.
                    let _ = wal::truncate_file(path, intact_len);
                    self.counters.wal_truncations.fetch_add(1, Ordering::Relaxed);
                }
                WalTail::Torn { at } => {
                    // Rotation seals only at record boundaries; a torn
                    // sealed segment means storage lost bytes.
                    corrupt_detail
                        .get_or_insert_with(|| format!("sealed WAL segment torn at byte {at}"));
                }
                WalTail::Corrupt { start, end, what } => {
                    corrupt_detail.get_or_insert_with(|| {
                        format!("WAL bytes {start}..{end} failed integrity: {what}")
                    });
                }
            }
            for record in records {
                match record {
                    WalRecord::Register(s) => match &spec {
                        // Segments re-state the registration so each is
                        // self-describing; re-statements must agree.
                        None => spec = Some(s),
                        Some(prev) if *prev == s => {}
                        Some(_) => {
                            corrupt_detail.get_or_insert_with(|| {
                                "WAL re-registers the tenant with a different spec".to_owned()
                            });
                            break 'sources;
                        }
                    },
                    WalRecord::Tick { seq, load } => {
                        let contiguous = match ticks.last() {
                            // Compaction may have deleted early
                            // segments: any starting seq is legal, the
                            // history must cover the gap (checked in
                            // revive).
                            None => true,
                            Some(&(last, _)) => seq == last + 1,
                        };
                        if !contiguous {
                            corrupt_detail
                                .get_or_insert_with(|| "WAL records out of sequence".to_owned());
                            break 'sources;
                        }
                        ticks.push((seq, load));
                    }
                }
            }
            if corrupt_detail.is_some() {
                break;
            }
        }

        // No usable registration anywhere: nothing to attach to.
        let spec = spec.or_else(|| self.snapshot_spec(name)).or_else(|| {
            history::read(&history::hist_path(&self.options.state_dir, name), name).ok()?.spec
        })?;
        let types = spec.server_types().ok()?;
        let mut live = Live::new(&spec, self.full_fingerprints(&spec));
        live.segments = throughs;
        let mut state = Self::empty_state(spec, types, None);
        state.last_sealed_through = last_sealed_through;
        if let Some(detail) = corrupt_detail {
            self.quarantine(&mut state, name, QuarantineReason::WalCorrupt, detail);
            return Some((state, live));
        }
        match WalWriter::open(&active, self.options.fsync) {
            Ok(mut w) => {
                if w.bytes() == 0 {
                    // Fresh (or lost) active log: re-state the
                    // registration so the segment is self-describing.
                    let _ = w.append(&WalRecord::Register(state.spec.clone()));
                }
                state.wal = Some(w);
            }
            Err(e) => {
                self.quarantine(
                    &mut state,
                    name,
                    QuarantineReason::Io,
                    format!("WAL reopen failed: {e}"),
                );
                return Some((state, live));
            }
        }
        if let Err((reason, detail)) = self.revive(&mut state, &mut live, name, &ticks) {
            self.quarantine(&mut state, name, reason, detail);
        }
        Some((state, live))
    }

    /// Peek a snapshot's header for the tenant spec — a fallback
    /// registration source when compaction + crash timing left no WAL
    /// holding a `Register` record.
    fn snapshot_spec(&self, name: &str) -> Option<TenantSpec> {
        let bytes = std::fs::read(wal::snap_path(&self.options.state_dir, name)).ok()?;
        let mut dec = Decoder::from_sealed(&bytes).ok()?;
        if !matches!(dec.take_u8().ok()?, SNAP_FORMAT | SNAP_FORMAT_V2) {
            return None;
        }
        let snap_name = wire::take_str(&mut dec, "snapshot tenant name is not UTF-8").ok()?;
        if snap_name != name {
            return None;
        }
        TenantSpec::decode(&mut dec).ok()
    }

    fn quarantine(
        &self,
        st: &mut TenantState,
        name: &str,
        reason: QuarantineReason,
        detail: String,
    ) {
        self.counters.quarantines.fetch_add(1, Ordering::Relaxed);
        st.enter_quarantine(
            reason,
            detail,
            self.options.backoff_base,
            self.options.backoff_cap,
            name,
        );
    }

    /// Orderly shutdown: stop admitting writes *first* (clients see
    /// `overloaded` and fail over), then flush + fsync every tenant's
    /// WAL and seal a final snapshot. Idempotent.
    pub fn graceful_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for (name, slot) in self.slots() {
            let mut tenant = lock_clean(&slot.state);
            let Tenant { st, live } = &mut *tenant;
            if let Some(w) = st.wal.as_mut() {
                let _ = w.sync();
            }
            if st.quarantine.is_none() {
                self.write_snapshot(st, live, &name);
            }
        }
    }

    /// Replica → Primary failover: seal what we have, flip the role,
    /// start accepting writes. The committed prefix was applied through
    /// the identical step path, so every tenant resumes bit-identically
    /// with zero accepted-tick loss.
    pub fn promote(&self) {
        self.set_role(Role::Promoting);
        self.snapshot_all();
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        self.repl_lag.store(0, Ordering::Relaxed);
        self.set_role(Role::Primary);
    }

    /// Accepted-tick counts per tenant, sorted by name — what a replica
    /// reports as `have` in `repl.sync`.
    #[must_use]
    pub fn replication_have(&self) -> Vec<(String, u64)> {
        self.slots()
            .into_iter()
            .map(|(name, slot)| {
                let n = lock_clean(&slot.state).st.loads.len() as u64;
                (name, n)
            })
            .collect()
    }

    /// Replication lag gauge (accepted ticks behind the primary after
    /// the latest applied sync).
    #[must_use]
    pub fn repl_lag_ticks(&self) -> u64 {
        self.repl_lag.load(Ordering::Relaxed)
    }

    /// Chaos hook: flip one mantissa bit in a committed load so the
    /// next fingerprint check must trip. Gated on `allow_fault_hooks`;
    /// returns whether a bit was flipped.
    pub fn inject_divergence(&self, name: &str) -> bool {
        if !self.options.allow_fault_hooks {
            return false;
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        let Some(slot) = slot else { return false };
        let mut tenant = lock_clean(&slot.state);
        let loads = &mut tenant.st.loads;
        if loads.is_empty() {
            return false;
        }
        let mid = loads.len() / 2;
        loads[mid] = f64::from_bits(loads[mid].to_bits() ^ (1 << 30));
        true
    }

    /// The primary's answer to `repl.sync`: per non-quarantined tenant,
    /// the WAL frames the replica is missing (hex, FNV-1a framing
    /// intact end-to-end), the durable-snapshot horizon, and the recent
    /// fingerprint ring.
    fn sync_reply(&self, replica: &str, have: &[(String, u64)]) -> String {
        self.counters.repl_syncs.fetch_add(1, Ordering::Relaxed);
        let have: HashMap<&str, u64> = have.iter().map(|(t, n)| (t.as_str(), *n)).collect();
        let mut tenant_objs: Vec<(String, Json)> = Vec::new();
        for (name, slot) in self.slots() {
            let tenant = lock_clean(&slot.state);
            let st = &tenant.st;
            // Quarantined state never replicates: the replica keeps its
            // own (healthy or older) view instead of inheriting faults.
            if st.quarantine.is_some() {
                continue;
            }
            let total = st.loads.len() as u64;
            let base = have.get(name.as_str()).copied().unwrap_or(0).min(total);
            let mut frames = Vec::new();
            if base == 0 {
                frames.extend_from_slice(&wal::frame(&WalRecord::Register(st.spec.clone())));
            }
            for seq in base..total {
                frames.extend_from_slice(&wal::frame(&WalRecord::Tick {
                    seq,
                    load: st.loads[seq as usize],
                }));
            }
            let fps: Vec<Json> = st
                .fingerprint_ring()
                .iter()
                .map(|f| {
                    Json::Obj(vec![
                        ("k".to_owned(), json::n(f.k as f64)),
                        ("fp".to_owned(), json::s(format!("{:016x}", f.fp))),
                        ("full".to_owned(), Json::Bool(f.full)),
                    ])
                })
                .collect();
            tenant_objs.push((
                name,
                Json::Obj(vec![
                    ("ticks".to_owned(), json::n(total as f64)),
                    ("snap_k".to_owned(), json::n(st.last_snapshot_k as f64)),
                    ("frames".to_owned(), json::s(to_hex(&frames))),
                    ("fps".to_owned(), Json::Arr(fps)),
                ]),
            ));
        }
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("role", json::s(self.role().as_str())),
            ("replica", json::s(replica)),
            ("tenants", Json::Obj(tenant_objs)),
        ])
        .to_line()
    }

    /// Apply one primary sync reply on this (replica) daemon. Frames
    /// ride through [`wal::scan`] so transit corruption is rejected by
    /// the same FNV-1a framing that guards the on-disk log, ticks apply
    /// through `Daemon::tick_core` — the identical path a live tick
    /// takes — and every unchecked fingerprint at or below our tick
    /// count is recomputed and compared. Per-tenant failures land in
    /// the report; only an unusable reply errors out.
    pub fn apply_sync(&self, reply: &str) -> Result<ApplyReport, String> {
        let value = json::parse(reply).map_err(|e| format!("sync reply is not JSON: {e}"))?;
        if value.get("ok").and_then(Json::as_bool) != Some(true) {
            let code = value.get("error").and_then(Json::as_str).unwrap_or("unknown");
            return Err(format!("primary refused sync: {code}"));
        }
        let tenants = match value.get("tenants") {
            Some(Json::Obj(members)) => members.clone(),
            _ => return Err("sync reply lacks a tenants object".into()),
        };
        let mut report = ApplyReport::default();
        for (name, body) in &tenants {
            report.tenants += 1;
            if let Err(e) = self.apply_tenant_sync(name, body, &mut report) {
                report.errors.push(format!("{name}: {e}"));
            }
        }
        self.repl_lag.store(report.lag, Ordering::Relaxed);
        Ok(report)
    }

    fn apply_tenant_sync(
        &self,
        name: &str,
        body: &Json,
        report: &mut ApplyReport,
    ) -> Result<(), String> {
        let primary_ticks =
            body.get("ticks").and_then(Json::as_u64).ok_or("tenant body lacks ticks")?;
        let frames_hex = body.get("frames").and_then(Json::as_str).unwrap_or("");
        let bytes = from_hex(frames_hex).ok_or("frames are not valid hex")?;
        let WalScan { records, tail, .. } = wal::scan(&bytes);
        if !matches!(tail, WalTail::Clean) {
            // A bit flipped in transit: reject the whole batch before
            // anything reaches the step path; the next sync re-ships.
            self.counters.repl_frame_rejects.fetch_add(1, Ordering::Relaxed);
            return Err("frame batch failed its FNV-1a integrity check".into());
        }
        for record in records {
            match record {
                WalRecord::Register(spec) => {
                    self.do_register(name, spec).map_err(|(_, detail)| detail)?;
                }
                WalRecord::Tick { seq, load } => {
                    let slot = {
                        let tenants = lock_clean(&self.tenants);
                        tenants.get(name).cloned()
                    };
                    let Some(slot) = slot else {
                        return Err(format!("tick {seq} for an unregistered tenant"));
                    };
                    let mut tenant = lock_clean(&slot.state);
                    let Tenant { st, live } = &mut *tenant;
                    match self.tick_core(st, live, name, seq, load) {
                        Ok((_, _, replayed)) => {
                            if !replayed {
                                report.applied += 1;
                                self.counters.repl_applied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err((_, detail)) => return Err(detail),
                    }
                }
            }
        }
        let slot = {
            let tenants = lock_clean(&self.tenants);
            tenants.get(name).cloned()
        };
        let Some(slot) = slot else { return Ok(()) };
        let mut tenant = lock_clean(&slot.state);
        let Tenant { st, live } = &mut *tenant;
        report.lag += primary_ticks.saturating_sub(st.loads.len() as u64);
        if st.quarantine.is_some() {
            return Ok(());
        }
        if let Some(Json::Arr(fps)) = body.get("fps") {
            self.check_fingerprints(st, name, fps, report)?;
        }
        // The primary's durable horizon advanced past ours: seal our
        // own snapshot (which also compacts our sealed segments).
        if let Some(snap_k) = body.get("snap_k").and_then(Json::as_u64) {
            if snap_k > st.last_snapshot_k as u64
                && st.decisions.len() == st.loads.len()
                && st.loads.len() as u64 >= snap_k
            {
                self.write_snapshot(st, live, name);
            }
        }
        Ok(())
    }

    /// Cross-check the primary's fingerprints against our own stored
    /// state — every `k` we have reached and not yet checked. Ours are
    /// recomputed from scratch over the stored prefix (in one pass per
    /// sync, off the tick path), not read off the running stream: that
    /// is what also catches corruption at rest in this replica's copy.
    fn check_fingerprints(
        &self,
        st: &mut TenantState,
        name: &str,
        fps: &[Json],
        report: &mut ApplyReport,
    ) -> Result<(), String> {
        let mut wanted: Vec<(u64, u64, bool)> = fps
            .iter()
            .filter_map(|fp_obj| {
                let k = fp_obj.get("k").and_then(Json::as_u64)?;
                let theirs =
                    u64::from_str_radix(fp_obj.get("fp").and_then(Json::as_str)?, 16).ok()?;
                let full = fp_obj.get("full").and_then(Json::as_bool).unwrap_or(false);
                // An undecided suffix is skipped; the next sync re-checks.
                let ready = k > st.fp_checked
                    && k <= st.loads.len() as u64
                    && (!full || k <= st.decisions.len() as u64);
                ready.then_some((k, theirs, full))
            })
            .collect();
        wanted.sort_by_key(|&(k, _, _)| k);
        let mut lean = wanted.iter().any(|w| !w.2).then(|| FingerprintStream::new(&st.spec, false));
        let mut full = wanted.iter().any(|w| w.2).then(|| FingerprintStream::new(&st.spec, true));
        let mut folded = 0usize;
        for (k, theirs, is_full) in wanted {
            if k <= st.fp_checked {
                continue;
            }
            while folded < k as usize {
                let load = st.loads[folded];
                if let Some(s) = lean.as_mut() {
                    s.extend(load, None);
                }
                if let (Some(s), Some(d)) = (full.as_mut(), st.decisions.get(folded)) {
                    s.extend(load, Some(d));
                }
                folded += 1;
            }
            let stream = if is_full { full } else { lean };
            let ours = stream.expect("a stream per flavor present").value();
            st.fp_checked = k;
            report.fp_checks += 1;
            self.counters.fingerprint_checks.fetch_add(1, Ordering::Relaxed);
            if ours != theirs {
                report.fp_mismatches += 1;
                self.counters.fingerprint_mismatches.fetch_add(1, Ordering::Relaxed);
                let detail = format!(
                    "state fingerprint at k={k} is {ours:016x}, primary says {theirs:016x}"
                );
                self.quarantine(st, name, QuarantineReason::Divergence, detail.clone());
                return Err(detail);
            }
        }
        Ok(())
    }

    fn livez_line(&self) -> String {
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("live", Json::Bool(true)),
            ("uptime_us", json::n(self.started.elapsed().as_micros() as f64)),
        ])
        .to_line()
    }

    fn readyz_line(&self) -> String {
        let (total, reasons) = {
            let tenants = lock_clean(&self.tenants);
            let mut names: Vec<&String> = tenants.keys().collect();
            names.sort();
            let mut reasons: Vec<(String, Json)> = Vec::new();
            for name in &names {
                let tenant = lock_clean(&tenants[*name].state);
                if let Some(q) = &tenant.st.quarantine {
                    reasons.push(((*name).clone(), json::s(q.reason.as_str())));
                }
            }
            (tenants.len(), reasons)
        };
        let role = self.role();
        let ready = role == Role::Primary && !self.shutdown_requested();
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("ready", Json::Bool(ready)),
            ("role", json::s(role.as_str())),
            ("repl_lag_ticks", json::n(self.repl_lag.load(Ordering::Relaxed) as f64)),
            ("tenants", json::n(total as f64)),
            ("quarantined", json::n(reasons.len() as f64)),
            ("quarantine_reasons", Json::Obj(reasons)),
        ])
        .to_line()
    }

    fn health_line(&self) -> String {
        let (total, quarantined) = {
            let tenants = lock_clean(&self.tenants);
            let q =
                tenants.values().filter(|s| lock_clean(&s.state).st.quarantine.is_some()).count();
            (tenants.len(), q)
        };
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("status", json::s(if quarantined == 0 { "ok" } else { "degraded" })),
            ("uptime_us", json::n(self.started.elapsed().as_micros() as f64)),
            ("tenants", json::n(total as f64)),
            ("quarantined", json::n(quarantined as f64)),
        ])
        .to_line()
    }

    fn metrics_line(&self) -> String {
        let c = &self.counters;
        let mut daemon_degrade = DegradeStats::default();
        let mut tenant_objs: Vec<(String, Json)> = Vec::new();
        let mut pool_pricings = 0u64;
        let mut pool_hits = 0u64;
        {
            let tenants = lock_clean(&self.tenants);
            let mut names: Vec<&String> = tenants.keys().collect();
            names.sort();
            for name in names {
                let slot = &tenants[name];
                let tenant = lock_clean(&slot.state);
                let st = &tenant.st;
                let profile = LatencyProfile::new(st.counters.latencies.clone());
                let (exact, coarse, hold, rung) = match st.controller.as_ref() {
                    Some(ctl) => {
                        daemon_degrade.absorb(ctl.stats());
                        (
                            ctl.stats().exact,
                            ctl.stats().coarse,
                            ctl.stats().hold,
                            protocol::rung_str(ctl.rung()),
                        )
                    }
                    None => (0, 0, 0, "none"),
                };
                let engine = st.controller.as_ref().and_then(|ctl| ctl.inner().engine_stats());
                if let Some(e) = &engine {
                    pool_pricings += e.pricings;
                    pool_hits += e.pool_hits;
                }
                let mut fields = vec![
                    ("ticks".to_owned(), json::n(st.loads.len() as f64)),
                    ("decisions".to_owned(), json::n(st.counters.decisions as f64)),
                    ("replays".to_owned(), json::n(st.counters.replays as f64)),
                    ("rejected".to_owned(), json::n(st.counters.rejected as f64)),
                    ("quarantines".to_owned(), json::n(st.counters.quarantines as f64)),
                    ("snapshots".to_owned(), json::n(st.counters.snapshots as f64)),
                    ("snapshot_lag".to_owned(), json::n(st.fresh_since_snapshot as f64)),
                    ("rung".to_owned(), json::s(rung)),
                    ("rung_exact".to_owned(), json::n(exact as f64)),
                    ("rung_coarse".to_owned(), json::n(coarse as f64)),
                    ("rung_hold".to_owned(), json::n(hold as f64)),
                    ("latency_p50_us".to_owned(), json::n(profile.quantile(0.5) * 1e6)),
                    ("latency_p99_us".to_owned(), json::n(profile.quantile(0.99) * 1e6)),
                ];
                if let Some(e) = engine {
                    fields.push(("pool_pricings".to_owned(), json::n(e.pricings as f64)));
                    fields.push(("pool_hits".to_owned(), json::n(e.pool_hits as f64)));
                }
                if let Some(q) = &st.quarantine {
                    fields.push(("quarantined".to_owned(), json::s(q.reason.as_str())));
                    fields.push(("quarantine_detail".to_owned(), json::s(&q.detail)));
                }
                tenant_objs.push((name.clone(), Json::Obj(fields)));
            }
        }
        let total_lookups = pool_pricings + pool_hits;
        let hit_rate =
            if total_lookups == 0 { 0.0 } else { pool_hits as f64 / total_lookups as f64 };
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("requests", json::n(c.requests.load(Ordering::Relaxed) as f64)),
            ("bad_requests", json::n(c.bad_requests.load(Ordering::Relaxed) as f64)),
            ("ticks", json::n(c.ticks.load(Ordering::Relaxed) as f64)),
            ("decisions", json::n(c.decisions.load(Ordering::Relaxed) as f64)),
            ("replays", json::n(c.replays.load(Ordering::Relaxed) as f64)),
            ("shed", json::n(c.shed.load(Ordering::Relaxed) as f64)),
            ("quarantines", json::n(c.quarantines.load(Ordering::Relaxed) as f64)),
            ("revives", json::n(c.revives.load(Ordering::Relaxed) as f64)),
            ("wal_truncations", json::n(c.wal_truncations.load(Ordering::Relaxed) as f64)),
            ("snapshot_fallbacks", json::n(c.snapshot_fallbacks.load(Ordering::Relaxed) as f64)),
            ("snapshots", json::n(c.snapshots.load(Ordering::Relaxed) as f64)),
            ("recovered", json::n(c.recovered.load(Ordering::Relaxed) as f64)),
            ("role", json::s(self.role().as_str())),
            ("repl_lag_ticks", json::n(self.repl_lag.load(Ordering::Relaxed) as f64)),
            ("segments_sealed", json::n(c.segments_sealed.load(Ordering::Relaxed) as f64)),
            ("segments_compacted", json::n(c.segments_compacted.load(Ordering::Relaxed) as f64)),
            ("repl_syncs", json::n(c.repl_syncs.load(Ordering::Relaxed) as f64)),
            ("repl_applied", json::n(c.repl_applied.load(Ordering::Relaxed) as f64)),
            ("repl_frame_rejects", json::n(c.repl_frame_rejects.load(Ordering::Relaxed) as f64)),
            ("fingerprint_checks", json::n(c.fingerprint_checks.load(Ordering::Relaxed) as f64)),
            (
                "fingerprint_mismatches",
                json::n(c.fingerprint_mismatches.load(Ordering::Relaxed) as f64),
            ),
            ("failovers", json::n(c.failovers.load(Ordering::Relaxed) as f64)),
            ("pool_hit_rate", json::n(hit_rate)),
            ("rung_exact", json::n(daemon_degrade.exact as f64)),
            ("rung_coarse", json::n(daemon_degrade.coarse as f64)),
            ("rung_hold", json::n(daemon_degrade.hold as f64)),
            ("tenants", Json::Obj(tenant_objs)),
        ])
        .to_line()
    }
}

fn stringify(e: SnapshotError) -> String {
    format!("{e}")
}

/// Merge a recovered load prefix into the accepted loads: where memory
/// already holds a seq the two must agree bit for bit; past its end the
/// prefix extends it.
fn merge_prefix(st: &mut TenantState, loads: &[f64], source: &str) -> Result<(), String> {
    for (seq, &load) in loads.iter().enumerate() {
        match st.loads.get(seq) {
            Some(have) if have.to_bits() != load.to_bits() => {
                return Err(format!("{source} load at seq {seq} disagrees with the WAL"));
            }
            Some(_) => {}
            None => st.loads.push(load),
        }
    }
    Ok(())
}

/// The committed schedule inside a format-2 snapshot's `save_run`
/// envelope (tag, instance fingerprint, `k` configs, then state),
/// decoded without a controller so any algorithm's prefix can seed the
/// history log.
fn v2_committed(inner: &[u8], k: usize, d: usize) -> Result<Vec<Config>, String> {
    let mut dec = Decoder::from_sealed(inner).map_err(|e| describe_snapshot_error(inner, &e))?;
    dec.take_bytes().map_err(stringify)?;
    dec.take_u64().map_err(stringify)?;
    if dec.take_usize().map_err(stringify)? != k {
        return Err("snapshot committed length disagrees with its header".into());
    }
    let mut committed = Vec::with_capacity(k.min(1 << 20));
    for _ in 0..k {
        if dec.take_usize().map_err(stringify)? != d {
            return Err("committed config has the wrong dimension".into());
        }
        let counts = (0..d).map(|_| dec.take_u32()).collect::<Result<Vec<u32>, _>>();
        committed.push(Config::new(counts.map_err(stringify)?));
    }
    Ok(committed)
}

/// Human-readable snapshot failure, including the byte range that
/// failed the FNV-1a check when that is what happened.
pub fn describe_snapshot_error(bytes: &[u8], e: &SnapshotError) -> String {
    if matches!(e, SnapshotError::ChecksumMismatch) {
        if let Some(range) = payload_range(bytes) {
            return format!("{e} (bytes {}..{} failed the FNV-1a check)", range.start, range.end);
        }
    }
    format!("{e}")
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsz-serve-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options(dir: &std::path::Path) -> ServeOptions {
        ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
    }

    fn decided_counts(reply: &str) -> Vec<u64> {
        let v = json::parse(reply).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
        match v.get("config").unwrap() {
            Json::Arr(items) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
            other => panic!("bad config: {other:?}"),
        }
    }

    #[test]
    fn register_tick_and_kill_restart_resume_bit_identically() {
        let dir = tmp_dir("resume");
        let loads = [1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75];

        // Uninterrupted baseline.
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t1","fleet":"cpu-gpu:2,1","algo":"b","snapshot_every":3}"#;
        let v = json::parse(&daemon.handle(reg)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let mut baseline = Vec::new();
        for (i, l) in loads.iter().enumerate() {
            let line = format!(r#"{{"op":"tick","tenant":"t1","seq":{i},"load":{l}}}"#);
            baseline.push(decided_counts(&daemon.handle(&line)));
        }
        drop(daemon); // kill -9: no shutdown, no final snapshot

        // Restart over the same state dir: recovery must replay the WAL
        // (+snapshot) and answer duplicate seqs from committed history.
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1);
        let v = json::parse(&daemon.handle(reg)).unwrap();
        assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
        for (i, _) in loads.iter().enumerate() {
            let line = format!(r#"{{"op":"tick","tenant":"t1","seq":{i},"load":99.0}}"#);
            let reply = daemon.handle(&line);
            let v = json::parse(&reply).unwrap();
            assert_eq!(v.get("replayed").and_then(Json::as_bool), Some(true), "{reply}");
            assert_eq!(decided_counts(&reply), baseline[i], "seq {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_loads_quarantine_the_tenant_not_the_daemon() {
        let dir = tmp_dir("poison");
        let daemon = Daemon::new(options(&dir)).unwrap();
        for name in ["good", "bad"] {
            let reg = format!(r#"{{"op":"register","tenant":"{name}","fleet":"homogeneous:3"}}"#);
            assert!(daemon.handle(&reg).contains("\"ok\":true"));
        }
        daemon.handle(r#"{"op":"tick","tenant":"good","seq":0,"load":1.0}"#);
        daemon.handle(r#"{"op":"tick","tenant":"bad","seq":0,"load":1.0}"#);
        // Poisoned λ: null load → NaN → input quarantine for `bad` only.
        let reply = daemon.handle(r#"{"op":"tick","tenant":"bad","seq":1,"load":null}"#);
        assert!(reply.contains("\"error\":\"input\""), "{reply}");
        // `bad` is gated…
        let reply = daemon.handle(r#"{"op":"tick","tenant":"bad","seq":1,"load":1.0}"#);
        assert!(reply.contains("quarantined"), "{reply}");
        // …while `good` keeps deciding.
        let reply = daemon.handle(r#"{"op":"tick","tenant":"good","seq":1,"load":2.0}"#);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let health = daemon.handle("GET /health");
        assert!(health.contains("\"quarantined\":1"), "{health}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn controller_panics_are_caught_at_the_step_boundary() {
        let dir = tmp_dir("panic");
        let daemon =
            Daemon::new(ServeOptions { allow_fault_hooks: true, ..options(&dir) }).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"homogeneous:3","algo":"panic:2"}"#;
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        for i in 0..2 {
            let line = format!(r#"{{"op":"tick","tenant":"t","seq":{i},"load":1.0}}"#);
            assert!(daemon.handle(&line).contains("\"ok\":true"));
        }
        let reply = daemon.handle(r#"{"op":"tick","tenant":"t","seq":2,"load":1.0}"#);
        assert!(reply.contains("\"error\":\"solver\""), "{reply}");
        assert!(reply.contains("injected fault"), "{reply}");
        // The daemon itself stays healthy.
        assert!(daemon.handle("GET /health").contains("\"ok\":true"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_register_lines_engine_key_is_ignored() {
        // Earlier clients sent `"engine":true|false`; there is one
        // pricing path now, so either value names the same spec and
        // re-attaches to the tenant.
        let dir = tmp_dir("engine-key");
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = |engine: &str| {
            format!(
                r#"{{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","engine":{engine}}}"#
            )
        };
        let v = json::parse(&daemon.handle(&reg("true"))).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let tick = r#"{"op":"tick","tenant":"t","seq":0,"load":1.5}"#;
        let _ = decided_counts(&daemon.handle(tick));
        let v = json::parse(&daemon.handle(&reg("false"))).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v:?}");
        assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_hooks_are_rejected_unless_enabled() {
        let dir = tmp_dir("hooks");
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"homogeneous:3","algo":"panic:2"}"#;
        let reply = daemon.handle(reg);
        assert!(reply.contains("\"error\":\"input\""), "{reply}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The daemon's incremental per-tenant state against its from-scratch
    /// references: the append-only instance against `prefix_instance()`,
    /// the running fingerprint against `state_fingerprint`.
    fn assert_live_matches_reference(daemon: &Daemon, name: &str, at: &str) {
        let slot = lock_clean(&daemon.tenants).get(name).cloned().expect("registered");
        let tenant = lock_clean(&slot.state);
        let (st, live) = (&tenant.st, &tenant.live);
        assert!(st.quarantine.is_none(), "{at}: {:?}", st.quarantine);
        assert_eq!(st.decisions.len(), st.loads.len(), "{at}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match live.instance.as_ref() {
            None => assert!(st.loads.is_empty(), "{at}: instance missing"),
            Some(got) => {
                let want = st.prefix_instance().expect("reference rebuild");
                assert_eq!(bits(got.loads()), bits(want.loads()), "{at}");
                assert_eq!(got.max_counts(), want.max_counts(), "{at}");
                assert_eq!(got.num_types(), want.num_types(), "{at}");
            }
        }
        let decisions = live.fp.full().then_some(st.decisions.as_slice());
        let want = crate::replication::state_fingerprint(&st.spec, &st.loads, decisions);
        assert_eq!(live.fp.value(), want, "{at}: running fingerprint");
        for f in &st.fingerprints {
            let k = f.k as usize;
            let decisions = f.full.then(|| &st.decisions[..k]);
            let want = crate::replication::state_fingerprint(&st.spec, &st.loads[..k], decisions);
            assert_eq!(f.fp, want, "{at}: ring entry at k={k}");
        }
    }

    fn tick(daemon: &Daemon, name: &str, seq: usize, load: f64) -> Vec<u64> {
        let line = format!(r#"{{"op":"tick","tenant":"{name}","seq":{seq},"load":{load}}}"#);
        decided_counts(&daemon.handle(&line))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Register → ticks → kill → restart → ticks → revive → ticks,
        /// in both fingerprint flavors, with random snapshot cadences
        /// and segment sizes: at every `k` the append-only instance
        /// equals the rebuilt prefix instance and the running
        /// fingerprint equals the from-scratch one, and the served
        /// decisions equal an uninterrupted run's.
        #[test]
        fn incremental_state_matches_references_across_the_lifecycle(
            loads in proptest::collection::vec(0.0..5.5_f64, 6..40),
            kill_frac in 0.0..1.0_f64,
            cadence in 1usize..6,
            segment in 0usize..3,
            lean in 0usize..2,
        ) {
            let case = format!("{}-{cadence}-{segment}-{lean}", loads.len());
            let deadline = if lean == 1 { r#","deadline_us":60000000"# } else { "" };
            let reg = format!(
                r#"{{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","snapshot_every":{cadence}{deadline}}}"#
            );
            let base_dir = tmp_dir(&format!("live-base-{case}"));
            let baseline = Daemon::new(options(&base_dir)).unwrap();
            assert!(baseline.handle(&reg).contains("\"ok\":true"));
            let want: Vec<Vec<u64>> =
                loads.iter().enumerate().map(|(i, &l)| tick(&baseline, "t", i, l)).collect();

            let dir = tmp_dir(&format!("live-{case}"));
            let opts = ServeOptions {
                segment_bytes: [0, 1, 120][segment],
                fingerprint_every: 2,
                ..options(&dir)
            };
            let kill_at = 1 + (kill_frac * (loads.len() - 2) as f64) as usize;
            let revive_at = (kill_at + loads.len()) / 2;
            let daemon = Daemon::new(opts.clone()).unwrap();
            assert!(daemon.handle(&reg).contains("\"ok\":true"));
            for (i, &l) in loads[..kill_at].iter().enumerate() {
                assert_eq!(tick(&daemon, "t", i, l), want[i]);
                assert_live_matches_reference(&daemon, "t", &format!("{case} live k={}", i + 1));
            }
            drop(daemon); // kill -9
            let daemon = Daemon::new(opts).unwrap();
            assert_live_matches_reference(&daemon, "t", &format!("{case} recovered"));
            for (i, &l) in loads.iter().enumerate().take(revive_at).skip(kill_at) {
                assert_eq!(tick(&daemon, "t", i, l), want[i]);
                assert_live_matches_reference(&daemon, "t", &format!("{case} resumed k={}", i + 1));
            }
            {
                let slot = lock_clean(&daemon.tenants).get("t").cloned().unwrap();
                let mut tenant = lock_clean(&slot.state);
                let Tenant { st, live } = &mut *tenant;
                daemon.revive(st, live, "t", &[]).expect("revive from local state");
            }
            assert_live_matches_reference(&daemon, "t", &format!("{case} revived"));
            for (i, &l) in loads.iter().enumerate().skip(revive_at) {
                assert_eq!(tick(&daemon, "t", i, l), want[i]);
                assert_live_matches_reference(&daemon, "t", &format!("{case} after k={}", i + 1));
            }
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&base_dir);
        }
    }

    /// The snapshot carries the resumable core only: one Algorithm B
    /// tenant's `.snap` is the same size at 160 ticks as at 4000, and
    /// the history log grows by the ticks in between.
    #[test]
    fn snapshot_size_does_not_depend_on_depth() {
        let dir = tmp_dir("snap-size");
        let daemon = Daemon::new(options(&dir)).unwrap();
        let reg = r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b"}"#;
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        let load = |i: usize| 0.4 + 4.2 * (i % 96) as f64 / 96.0;
        let snap = wal::snap_path(&dir, "t");
        let hist = history::hist_path(&dir, "t");
        let mut sizes = Vec::new();
        for i in 0..4000 {
            tick(&daemon, "t", i, load(i));
            if i + 1 == 160 || i + 1 == 4000 {
                let len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
                sizes.push((len(&snap), len(&hist)));
            }
        }
        assert_eq!(sizes[0].0, sizes[1].0, "snapshot bytes at k=160 vs k=4000");
        assert!(sizes[1].1 > 20 * sizes[0].1, "history grows with depth: {sizes:?}");
        drop(daemon);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The history log against the core and the WAL, under the three
    /// ways they can disagree after a crash or at-rest damage.
    #[test]
    fn history_log_recovers_what_the_core_and_wal_do_not_hold() {
        let reg =
            r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b","snapshot_every":3}"#;
        let load = |i: usize| 0.5 + (i % 7) as f64 * 0.7;
        let n = 24;
        let base_dir = tmp_dir("hist-base");
        let baseline = Daemon::new(options(&base_dir)).unwrap();
        assert!(baseline.handle(reg).contains("\"ok\":true"));
        let want: Vec<Vec<u64>> = (0..n).map(|i| tick(&baseline, "t", i, load(i))).collect();
        let replay_all = |daemon: &Daemon, upto: usize, case: &str| {
            for (i, expected) in want.iter().enumerate().take(upto) {
                assert_eq!(&tick(daemon, "t", i, load(i)), expected, "{case} seq {i}");
            }
        };
        // Every tick seals a segment, every snapshot compacts: the WAL
        // alone never reaches back to seq 0.
        let opts = |dir: &std::path::Path| ServeOptions { segment_bytes: 1, ..options(dir) };

        // 1. A crash between the history append and the core rename:
        //    the history runs past the core, whose decisions are cut.
        let dir = tmp_dir("hist-past-core");
        let daemon = Daemon::new(opts(&dir)).unwrap();
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        let snap = wal::snap_path(&dir, "t");
        let mut old_core = Vec::new();
        for i in 0..18 {
            tick(&daemon, "t", i, load(i));
            if i + 1 == 9 {
                old_core = std::fs::read(&snap).unwrap();
            }
        }
        drop(daemon);
        std::fs::write(&snap, &old_core).unwrap();
        for round in 0..2 {
            let daemon = Daemon::new(opts(&dir)).unwrap();
            assert_eq!(daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed), 0);
            assert!(daemon.handle("GET /health").contains("\"quarantined\":0"));
            replay_all(&daemon, n, &format!("past-core round {round}"));
            assert_live_matches_reference(&daemon, "t", "past-core");
        }

        // 2. No core at all, WAL compacted: a full replay of the history.
        let dir = tmp_dir("hist-no-core");
        let daemon = Daemon::new(opts(&dir)).unwrap();
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        replay_all(&daemon, 20, "no-core first life");
        drop(daemon);
        std::fs::remove_file(wal::snap_path(&dir, "t")).unwrap();
        let daemon = Daemon::new(opts(&dir)).unwrap();
        assert!(daemon.handle("GET /health").contains("\"quarantined\":0"));
        replay_all(&daemon, n, "no-core");

        // 3. A torn history tail is cut and the WAL supplies the rest; a
        //    flipped bit is corruption, and with the WAL compacted it
        //    quarantines instead of serving a shorter history.
        let dir = tmp_dir("hist-damage");
        let daemon = Daemon::new(ServeOptions { segment_bytes: 0, ..options(&dir) }).unwrap();
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        replay_all(&daemon, 20, "damage first life");
        drop(daemon);
        let hist = history::hist_path(&dir, "t");
        let bytes = std::fs::read(&hist).unwrap();
        std::fs::write(&hist, &bytes[..bytes.len() - 5]).unwrap();
        let daemon = Daemon::new(ServeOptions { segment_bytes: 0, ..options(&dir) }).unwrap();
        assert!(daemon.handle("GET /health").contains("\"quarantined\":0"));
        replay_all(&daemon, n, "torn history");
        drop(daemon);

        let dir = tmp_dir("hist-flip");
        let daemon = Daemon::new(opts(&dir)).unwrap();
        assert!(daemon.handle(reg).contains("\"ok\":true"));
        replay_all(&daemon, 20, "flip first life");
        drop(daemon);
        let hist = history::hist_path(&dir, "t");
        let mut bytes = std::fs::read(&hist).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&hist, &bytes).unwrap();
        let daemon = Daemon::new(opts(&dir)).unwrap();
        let ready = daemon.handle("GET /readyz");
        assert!(ready.contains(r#""t":"wal_corrupt""#), "{ready}");
        drop(daemon);
        for tag in ["hist-base", "hist-past-core", "hist-no-core", "hist-damage", "hist-flip"] {
            let _ = std::fs::remove_dir_all(tmp_dir(tag));
        }
    }
}
