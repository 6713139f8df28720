//! `serve_long_horizon`: one Algorithm B tenant driven through
//! `Daemon::handle` in-process, closed loop, for tens of thousands of
//! ticks; then the daemon is dropped (the kill -9 model) and restarted
//! over the same state directory.
//!
//! History depth is the variable: snapshot, fingerprint, prefix
//! rebuild and WAL rotation all grow with the number of accepted
//! ticks, while the controller itself costs about the same per tick.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rsz_core::{Config, Instance, Schedule};
use rsz_dispatch::Dispatcher;
use rsz_offline::{shared_pool, Encoder, DEFAULT_POOL_CAP};
use rsz_online::{save_run, OnlineAlgorithm, Rung};
use rsz_serve::json::{self, Json};
use rsz_serve::protocol::{decision_line, parse_request, Request};
use rsz_serve::tenant::{TenantCounters, TenantState};
use rsz_serve::wal::{self, WalRecord, WalWriter};
use rsz_serve::{
    build_controller, state_fingerprint, BoxController, Daemon, ServeOptions, TenantSpec,
};

use crate::common::{
    block_medians, diurnal_loads, fresh_dir, median, mix, parse_reply, quantile, tick_line,
    us_since, wchar, Args, Ops, Outcome, Reply, Size,
};
use crate::oracle::{cost_of, instance, plan};
use crate::spans::Spans;

const TENANT: &str = "t0";
/// The minimal register line: fleet and algorithm, spec defaults for
/// everything else (engine on, full grid, daemon snapshot cadence).
const REGISTER: &str = r#"{"op":"register","tenant":"t0","fleet":"cpu-gpu:2,1","algo":"b"}"#;
/// Fleet capacity is 2·1 + 1·4 = 6; the trace peaks below it.
const LOAD_CAP: f64 = 5.5;
/// Daily trough and peak of the load trace (96 ticks a day).
const LOAD_RANGE: (f64, f64) = (0.4, 4.6);

struct Params {
    ticks: usize,
    block: usize,
    /// Ticks sent after recovery, checked against the direct run.
    extra: usize,
    setup_reps: usize,
    /// Fresh tenants that take their first block during the last block,
    /// one after another: the base of `tick_growth`.
    fresh_tenants: usize,
    /// Restarts over the surviving state, at least; `recovery_ms` is
    /// their median.
    restarts: usize,
    /// Seconds the restarts are spread over, at least: one restart takes
    /// a few milliseconds, and the machine's speed drifts over seconds,
    /// so a median of restarts taken back to back reads that drift.
    recovery_window_s: f64,
    /// Timed runs of the direct run and the offline optimum, spread over
    /// the recovery window; `online_s` and `plan_s` are their medians.
    refs: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            ticks: 40_000,
            block: 5_000,
            extra: 64,
            setup_reps: 7,
            fresh_tenants: 5,
            restarts: 7,
            recovery_window_s: 10.0,
            refs: 6,
        },
        Size::Toy => Params {
            ticks: 480,
            block: 120,
            extra: 16,
            setup_reps: 3,
            fresh_tenants: 2,
            restarts: 3,
            recovery_window_s: 0.0,
            refs: 1,
        },
    }
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), fsync: false, ..ServeOptions::default() }
}

fn register_spec() -> TenantSpec {
    match parse_request(REGISTER) {
        Ok(Request::Register { spec, .. }) => spec,
        other => panic!("register line must parse: {other:?}"),
    }
}

/// Cadence class of the tick that brings the tenant to `k` accepted
/// ticks under the default options (snapshot every 16, fingerprint
/// every 8).
fn class(k: usize) -> usize {
    if k.is_multiple_of(16) {
        2
    } else if k.is_multiple_of(8) {
        1
    } else {
        0
    }
}
const CLASSES: [&str; 3] = ["plain", "fp", "snapshot"];

/// One lifecycle's end-to-end numbers.
struct Life {
    setup_s: Vec<f64>,
    handle_us: Vec<f64>,
    /// The first block again, on fresh tenants during the last block:
    /// the base `tick_growth` divides by.
    fresh_first_us: Vec<f64>,
    loop_s: f64,
    recovery_ms: f64,
    disk_bytes_per_tick: f64,
    plan_s: f64,
    online_s: f64,
    cost_ratio: f64,
}

pub fn run(args: &Args, out: &mut Outcome) {
    let p = params(args.size);
    let root = args.run_dir.join("serve_long_horizon");
    crate::common::settle(&root);
    out.context("ticks_per_lifecycle", p.ticks);
    out.context("fleet", "cpu-gpu:2,1 (algo b, engine on, full grid)");
    out.context("closed_loop_callers", 1);
    let started = Instant::now();
    let mut lives = Vec::new();
    // The traced run's tracing overhead is read against an untraced
    // first block.
    let reference = args.trace.then(|| {
        let loads = diurnal_loads(mix(args.seed, 0), p.block, 96, LOAD_RANGE, LOAD_CAP, 0.0);
        let mut fresh = Fresh::new(&root.join("reference"));
        fresh.advance(&loads, p.block);
        median(&fresh.us)
    });
    loop {
        let seed = mix(args.seed, lives.len() as u64);
        lives.push(lifecycle(args, &p, &root, seed, reference, out));
        // The traced run is one lifecycle; untraced runs repeat whole
        // lifecycles until the measuring time is used up.
        if args.trace || started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out.context("lifecycles", lives.len());

    let med = |f: &dyn Fn(&Life) -> f64| median(&lives.iter().map(f).collect::<Vec<_>>());
    let all_setup: Vec<f64> = lives.iter().flat_map(|l| l.setup_s.iter().copied()).collect();
    let growth = |l: &Life| {
        let blocks = block_medians(&l.handle_us, p.block);
        blocks[blocks.len() - 1] / median(&l.fresh_first_us)
    };
    out.metric("setup_s", median(&all_setup), "s");
    out.metric("tick_p50_us", med(&|l| quantile(&l.handle_us, 0.5)), "us");
    out.metric("tick_p99_us", med(&|l| quantile(&l.handle_us, 0.99)), "us");
    out.metric("ticks_per_s", med(&|l| p.ticks as f64 / l.loop_s), "1/s");
    out.metric("tick_growth", med(&growth), "ratio");
    out.metric("recovery_ms", med(&|l| l.recovery_ms), "ms");
    out.metric("plan_s", med(&|l| l.plan_s), "s");
    out.metric("online_s", med(&|l| l.online_s), "s");
    out.metric("cost_ratio", med(&|l| l.cost_ratio), "ratio");
    out.metric("peak_rss_mb", crate::common::peak_rss_mb(None), "MiB");
    out.metric("disk_bytes_per_tick", med(&|l| l.disk_bytes_per_tick), "B");
    out.context("tick_samples", lives.iter().map(|l| l.handle_us.len()).sum::<usize>());
    let blocks = block_medians(&lives[0].handle_us, p.block);
    let shown: Vec<String> = blocks.iter().map(|b| format!("{b:.1}")).collect();
    out.note(format!(
        "handle median per {}-tick block (us): {}; first block again on fresh tenants: {:.1}",
        p.block,
        shown.join(" "),
        median(&lives[0].fresh_first_us)
    ));
}

/// A fresh tenant in a daemon of its own, stepped through its first
/// ticks in chunks, untraced.
struct Fresh {
    daemon: Daemon,
    next: usize,
    us: Vec<f64>,
    seconds: f64,
}

impl Fresh {
    fn new(dir: &Path) -> Self {
        let dir = fresh_dir(dir);
        let daemon = Daemon::new(options(&dir)).expect("fresh state dir");
        daemon.handle(REGISTER);
        Self { daemon, next: 0, us: Vec::new(), seconds: 0.0 }
    }

    fn advance(&mut self, loads: &[f64], ticks: usize) {
        let clock = Instant::now();
        for _ in 0..ticks {
            let line = tick_line(TENANT, self.next, loads[self.next]);
            let start = Instant::now();
            self.daemon.handle(&line);
            self.us.push(us_since(start));
            self.next += 1;
        }
        self.seconds += clock.elapsed().as_secs_f64();
    }
}

fn lifecycle(
    args: &Args,
    p: &Params,
    root: &Path,
    seed: u64,
    reference: Option<f64>,
    out: &mut Outcome,
) -> Life {
    let total = p.ticks + p.extra;
    let spec = register_spec();
    let state = root.join("state");

    // --- set-up: trace generation, daemon start, registration ---
    let mut setup_ops = Ops::default();
    let mut setup_s = Vec::new();
    let mut set_up = |dir: &Path| {
        fresh_dir(dir);
        let clock = Instant::now();
        let loads = diurnal_loads(seed, total, 96, LOAD_RANGE, LOAD_CAP, 0.0);
        let daemon = Daemon::new(options(dir)).expect("state dir");
        let reply = daemon.handle(REGISTER);
        setup_s.push(clock.elapsed().as_secs_f64());
        setup_ops.account(&reply);
        (daemon, loads)
    };
    let mut started = None;
    for _ in 0..p.setup_reps {
        drop(started.take());
        started = Some(set_up(&state));
    }
    let (daemon, loads) = started.expect("at least one set-up");
    let lines: Vec<String> = (0..total).map(|t| tick_line(TENANT, t, loads[t])).collect();

    // --- the closed loop ---
    let mut mirror = args.trace.then(|| Mirror::new(&spec, &root.join("mirror")));
    let mut handle_us = Vec::with_capacity(p.ticks);
    let mut replies = Vec::with_capacity(total);
    // During the last block fresh tenants, each in a daemon of its own,
    // take their first block one after another, each in ten chunks
    // interleaved with it: the base of `tick_growth`, measured at the
    // same time as the last block so that drift in machine speed does
    // not enter the ratio. Ticks grow with depth, so a fresh tenant's
    // median is set by the middle of its block; with several tenants
    // in turn it samples several moments of the last block, not one.
    let last_start = p.ticks - p.block;
    let chunk = p.block / 10;
    let every = p.block / (10 * p.fresh_tenants);
    let mut fresh: VecDeque<Fresh> =
        (0..p.fresh_tenants).map(|j| Fresh::new(&root.join(format!("fresh{j}")))).collect();
    let mut fresh_first_us = Vec::with_capacity(p.fresh_tenants * p.block);
    let mut fresh_s = 0.0;
    let mut fresh_written = 0;
    let types = spec.server_types().expect("registered fleet parses");
    let full = instance(&types, &loads);
    let horizon = instance(&types, &loads[..p.ticks]);
    let written_before = wchar(None);
    let loop_clock = Instant::now();
    for (t, line) in lines.iter().enumerate().take(p.ticks) {
        if t >= last_start && (t - last_start).is_multiple_of(every) {
            let before = wchar(None);
            let f = fresh.front_mut().expect("a fresh tenant for every ten chunks");
            f.advance(&loads, chunk);
            // A tenant that has taken its block is dropped, so that only
            // one grown fresh daemon is held at a time.
            if f.us.len() == p.block {
                let f = fresh.pop_front().expect("just advanced");
                fresh_first_us.extend(f.us);
                fresh_s += f.seconds;
            }
            fresh_written += wchar(None).zip(before).map_or(0, |(a, b)| a - b);
        }
        let start = Instant::now();
        let reply = daemon.handle(line);
        let end = Instant::now();
        handle_us.push((end - start).as_secs_f64() * 1e6);
        if let Some(m) = mirror.as_mut() {
            m.spans.record("daemon.handle", t as u64, start, end);
            m.tick(t, line, &reply, &state);
        }
        replies.push(reply);
    }
    let loop_s = loop_clock.elapsed().as_secs_f64() - fresh_s;
    let written = wchar(None).zip(written_before).map_or(0, |(a, b)| a - b);
    let others = mirror.as_ref().map_or(0, |m| m.written) + fresh_written;
    let disk_bytes_per_tick = written.saturating_sub(others) as f64 / p.ticks as f64;
    let daemon_metrics = json::parse(&daemon.handle("GET /metrics")).unwrap_or(Json::Null);

    let mut tick_ops = Ops::default();
    let mut served: Vec<Option<Reply>> = Vec::with_capacity(total);
    for r in &replies {
        served.push(tick_ops.account(r).then(|| parse_reply(r)).flatten());
    }
    out.phase("ticks", tick_ops);

    // --- kill -9 and recovery ---
    drop(daemon);
    let recovery_probe = args.trace.then(|| probe_recovery_layers(&state));
    let mut restart_ms = Vec::with_capacity(p.restarts);
    let mut restarted = None;
    // The direct run and the offline optimum the outputs are checked
    // against are timed between the restarts, evenly over the window, so
    // their medians and the restarts' sample the same stretch of time.
    let mut refs: Vec<Reference> = Vec::with_capacity(p.refs);
    let mut refs_s = 0.0;
    let window = Instant::now();
    while restart_ms.len() < p.restarts
        || refs.len() < p.refs
        || window.elapsed().as_secs_f64() - refs_s < p.recovery_window_s
    {
        drop(restarted.take());
        let clock = Instant::now();
        let daemon = Daemon::new(options(&state)).expect("recovery over the state dir");
        restart_ms.push(clock.elapsed().as_secs_f64() * 1e3);
        let recovered = daemon.counters.recovered.load(std::sync::atomic::Ordering::Relaxed);
        out.check("recovered_all_tenants", recovered == 1, format!("{recovered} of 1 recovered"));
        restarted = Some(daemon);
        // Set-ups in a side directory, between the restarts, spread the
        // `setup_s` samples over the same window.
        if p.recovery_window_s > 0.0 {
            drop(set_up(&root.join("setup")));
        }
        let due = (refs.len() + 1) as f64 * p.recovery_window_s / (p.refs + 1) as f64;
        if refs.len() < p.refs && window.elapsed().as_secs_f64() - refs_s >= due {
            let clock = Instant::now();
            refs.push(Reference::run(&spec, &full, &horizon, args.trace));
            refs_s += clock.elapsed().as_secs_f64();
        }
    }
    out.phase("setup", setup_ops);
    let daemon = restarted.expect("restarted");
    let recovery_ms = median(&restart_ms);
    out.context("restarts", restart_ms.len());
    let mut recovery_ops = Ops::default();
    let reattach = daemon.handle(REGISTER);
    recovery_ops.account(&reattach);
    let resumed = json::parse(&reattach).ok().and_then(|v| v.get("resumed_ticks")?.as_u64());
    out.check(
        "recovery_resumes_at_seq",
        resumed == Some(p.ticks as u64),
        format!("resumed_ticks {resumed:?}, expected {}", p.ticks),
    );
    let dup = daemon.handle(&lines[p.ticks - 1]);
    recovery_ops.account(&dup);
    let dup = parse_reply(&dup);
    let committed = served[p.ticks - 1].as_ref().map(|r| r.config.clone());
    out.check(
        "recovery_replays_committed",
        dup.as_ref().is_some_and(|d| d.replayed && Some(&d.config) == committed.as_ref()),
        format!("duplicate of seq {} answered {dup:?}", p.ticks - 1),
    );
    for line in &lines[p.ticks..] {
        let reply = daemon.handle(line);
        served.push(recovery_ops.account(&reply).then(|| parse_reply(&reply)).flatten());
    }
    out.phase("recovery", recovery_ops);
    drop(daemon);

    // --- output checks against the direct run and the optimum ---
    let online_s = median(&refs.iter().map(|r| r.online_s).collect::<Vec<_>>());
    let plan_s = median(&refs.iter().map(|r| r.plan.seconds).collect::<Vec<_>>());
    let Reference { direct, plan: opt, .. } = refs.swap_remove(0);
    let mismatch = (0..total).find(|&t| {
        served[t].as_ref().map(|r| r.config.as_slice()) != Some(direct.schedule.config(t).counts())
    });
    out.check(
        "served_equals_direct_run",
        mismatch.is_none(),
        match mismatch {
            None => format!("{total} ticks bit-identical to rsz_online::run"),
            Some(t) => format!("first mismatch at tick {t}"),
        },
    );
    if let Some(m) = mirror.as_ref() {
        out.check(
            "mirror_equals_daemon",
            m.first_mismatch.is_none(),
            format!("first mismatch: {:?}", m.first_mismatch),
        );
    }

    let served_schedule = Schedule::new(
        served[..p.ticks]
            .iter()
            .map(|r| {
                Config::new(r.as_ref().map_or_else(|| vec![0; types.len()], |r| r.config.clone()))
            })
            .collect(),
    );
    let served_cost = cost_of(&horizon, &served_schedule);
    let cost_ratio = served_cost / opt.cost;
    let d = types.len() as f64;
    let bound = 2.0 * d + 1.0 + rsz_online::algo_b::c_constant(&horizon);
    out.check(
        "schedules_feasible",
        served_schedule.is_feasible(&horizon) && opt.schedule.is_feasible(&horizon),
        "served and optimal schedules",
    );
    out.check(
        "cost_ratio_within_thm13",
        cost_ratio >= 1.0 - 1e-9 && cost_ratio <= bound,
        format!("B/OPT = {cost_ratio:.6} <= 2d+1+c(I) = {bound:.4}"),
    );

    if let Some(m) = mirror {
        m.report(args, out, p, &handle_us, reference, &daemon_metrics, recovery_probe, &opt);
        out.metric("serve.daemon.recovery_per_tenant_us", recovery_ms * 1e3, "us");
        out.metric("serve.disk_bytes_per_tick", disk_bytes_per_tick, "B");
        let exact = served.iter().flatten().filter(|r| r.exact).count();
        out.metric("online.rung_exact_frac", exact as f64 / total as f64, "ratio");
    }

    Life {
        setup_s,
        handle_us,
        fresh_first_us,
        loop_s,
        recovery_ms,
        disk_bytes_per_tick,
        plan_s,
        online_s,
        cost_ratio,
    }
}

/// One timed repetition of the reference computations: the tenant's
/// controller run directly over the whole trace, and the offline
/// optimum of the served horizon.
struct Reference {
    direct: rsz_online::OnlineRun,
    online_s: f64,
    plan: crate::oracle::Plan,
}

impl Reference {
    fn run(spec: &TenantSpec, full: &Instance, horizon: &Instance, traced: bool) -> Self {
        let mut ctl = build_controller(spec, full, spec.grid.mode()).expect("spec builds");
        let clock = Instant::now();
        let direct = rsz_online::run(full, &mut ctl, &Dispatcher::new());
        let online_s = clock.elapsed().as_secs_f64();
        Self { direct, online_s, plan: plan(horizon, traced) }
    }
}

/// Recovery-layer costs the restart is about to pay, measured on the
/// surviving files: the per-tenant directory scan and the WAL scan.
struct RecoveryProbe {
    list_us: f64,
    segments: usize,
    scan_ms: f64,
}

fn probe_recovery_layers(state: &Path) -> RecoveryProbe {
    let clock = Instant::now();
    let segments = wal::list_segments(state, TENANT);
    let list_us = us_since(clock);
    let mut files: Vec<PathBuf> = segments.iter().map(|(_, p)| p.clone()).collect();
    files.push(wal::wal_path(state, TENANT));
    let clock = Instant::now();
    for f in &files {
        let bytes = wal::read_file(f).unwrap_or_default();
        std::hint::black_box(wal::scan(&bytes));
    }
    let scan_ms = clock.elapsed().as_secs_f64() * 1e3;
    RecoveryProbe { list_us, segments: segments.len(), scan_ms }
}

/// A bench-side mirror of the daemon's tick path: the same public
/// functions on the same inputs, each under its own span.
struct Mirror {
    spec: TenantSpec,
    st: TenantState,
    ctl: Option<BoxController>,
    wal: WalWriter,
    snap: PathBuf,
    fresh: usize,
    spans: Spans,
    frame_bytes: usize,
    written: u64,
    snapshot_bytes: Vec<f64>,
    first_mismatch: Option<usize>,
}

impl Mirror {
    fn new(spec: &TenantSpec, dir: &Path) -> Self {
        let dir = fresh_dir(dir);
        let types = spec.server_types().expect("fleet parses");
        let wal = WalWriter::open(&wal::wal_path(&dir, TENANT), false).expect("mirror WAL");
        let st = TenantState {
            spec: spec.clone(),
            types,
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
        Self {
            spec: spec.clone(),
            st,
            ctl: None,
            wal,
            snap: wal::snap_path(&dir, TENANT),
            fresh: 0,
            spans: Spans::new(),
            frame_bytes: 0,
            written: 0,
            snapshot_bytes: Vec::new(),
            first_mismatch: None,
        }
    }

    fn tick(&mut self, t: usize, line: &str, daemon_reply: &str, state: &Path) {
        let tick = t as u64;
        let root = self.spans.begin("mirror.tick", None, tick);

        let s = self.spans.begin("protocol.parse", Some(root), tick);
        let request = parse_request(line);
        self.spans.end(s);
        let Ok(Request::Tick { seq, load, .. }) = request else { panic!("tick line parses") };

        let s = self.spans.begin("wal.frame", Some(root), tick);
        let record = WalRecord::Tick { seq, load };
        self.frame_bytes = wal::frame(&record).len();
        self.spans.end(s);
        let s = self.spans.begin("wal.append", Some(root), tick);
        self.wal.append(&record).expect("mirror WAL append");
        self.spans.end(s);
        self.written += self.frame_bytes as u64;
        self.st.loads.push(load);

        let s = self.spans.begin("tenant.prefix_instance", Some(root), tick);
        let inst = self.st.prefix_instance().expect("prefix instance");
        self.spans.end(s);
        if self.ctl.is_none() {
            let mut ctl =
                build_controller(&self.spec, &inst, self.spec.grid.mode()).expect("spec builds");
            ctl.share_pool(shared_pool(&inst, DEFAULT_POOL_CAP));
            self.ctl = Some(ctl);
        }
        let ctl = self.ctl.as_mut().expect("built");
        let s = self.spans.begin("online.decide", Some(root), tick);
        let config = OnlineAlgorithm::decide(ctl, &inst, t);
        self.spans.end(s);
        self.st.decisions.push(config.clone());
        self.fresh += 1;

        let k = self.st.loads.len();
        if self.fresh >= 16 {
            let s = self.spans.begin("daemon.snapshot", Some(root), tick);
            self.snapshot(s, tick);
            self.spans.end(s);
            self.fresh = 0;
            let bytes = std::fs::metadata(wal::snap_path(state, TENANT)).map_or(0, |m| m.len());
            self.snapshot_bytes.push(bytes as f64);
        }
        if k.is_multiple_of(8) {
            let s = self.spans.begin("replication.fingerprint", Some(root), tick);
            std::hint::black_box(state_fingerprint(
                &self.spec,
                &self.st.loads,
                Some(&self.st.decisions),
            ));
            self.spans.end(s);
        }

        let s = self.spans.begin("protocol.encode", Some(root), tick);
        let reply = decision_line(seq, &config, Rung::Exact, false);
        self.spans.end(s);
        self.spans.end(root);
        if reply != daemon_reply && self.first_mismatch.is_none() {
            self.first_mismatch = Some(t);
        }
    }

    /// The daemon's snapshot envelope, written via tmp + rename.
    fn snapshot(&mut self, parent: crate::spans::SpanId, tick: u64) {
        // The daemon rebuilds the prefix instance for the snapshot too.
        let s = self.spans.begin("snapshot.prefix_instance", Some(parent), tick);
        let inst = &self.st.prefix_instance().expect("prefix instance");
        self.spans.end(s);
        let s = self.spans.begin("snapshot.save_run", Some(parent), tick);
        let mut committed = Schedule::empty();
        for c in &self.st.decisions {
            committed.push(c.clone());
        }
        let inner = save_run(self.ctl.as_ref().expect("built"), inst, &committed);
        self.spans.end(s);
        let mut enc = Encoder::new();
        enc.put_u8(2);
        enc.put_bytes(TENANT.as_bytes());
        self.spec.encode(&mut enc);
        enc.put_usize(self.st.loads.len());
        for &load in &self.st.loads {
            enc.put_f64(load);
        }
        enc.put_bytes(&inner);
        let sealed = enc.into_sealed();
        let s = self.spans.begin("snapshot.write", Some(parent), tick);
        let tmp = self.snap.with_extension("snap.tmp");
        std::fs::write(&tmp, &sealed)
            .and_then(|()| std::fs::rename(&tmp, &self.snap))
            .expect("mirror snapshot");
        self.spans.end(s);
        self.written += sealed.len() as u64;
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        args: &Args,
        out: &mut Outcome,
        p: &Params,
        handle_us: &[f64],
        reference: Option<f64>,
        metrics: &Json,
        probe: Option<RecoveryProbe>,
        opt: &crate::oracle::Plan,
    ) {
        let last = (p.ticks - p.block) as u64;
        let times = self.spans.self_us();
        let totals = self.spans.total_us();
        // Per-call self times of one span name over the last block.
        let in_last = |name: &str| -> Vec<f64> {
            times.get(name).map_or_else(Vec::new, |v| {
                v.iter().filter(|(t, _)| *t >= last).map(|(_, us)| *us).collect()
            })
        };
        let per_tick = |name: &str| in_last(name).iter().sum::<f64>() / p.block as f64;

        let fp = in_last("replication.fingerprint");
        out.metric("serve.protocol.parse_us", median(&in_last("protocol.parse")), "us");
        out.metric("serve.protocol.encode_us", median(&in_last("protocol.encode")), "us");
        out.metric("serve.wal.append_us", median(&in_last("wal.append")), "us");
        out.metric("serve.wal.frame_bytes", self.frame_bytes as f64, "B");
        out.metric(
            "serve.tenant.prefix_instance_us",
            median(&in_last("tenant.prefix_instance")),
            "us",
        );
        out.metric("serve.replication.fingerprint_us", median(&fp), "us");
        out.metric(
            "serve.replication.fingerprint_us_per_tick",
            per_tick("replication.fingerprint"),
            "us",
        );
        let snap_total: Vec<f64> = totals.get("daemon.snapshot").map_or_else(Vec::new, |v| {
            v.iter().filter(|(t, _)| *t >= last).map(|(_, us)| *us).collect()
        });
        out.metric("serve.daemon.snapshot_us", median(&snap_total), "us");
        out.metric(
            "serve.daemon.snapshot_bytes",
            self.snapshot_bytes.last().copied().unwrap_or(0.0),
            "B",
        );
        let decide = in_last("online.decide");
        out.metric("online.decide_us_p50", quantile(&decide, 0.5), "us");
        out.metric("online.decide_us_p99", quantile(&decide, 0.99), "us");

        // Handle medians by cadence class, first and last block.
        for (c, name) in CLASSES.iter().enumerate() {
            for (label, range) in [("first", 0..p.block), ("last", p.ticks - p.block..p.ticks)] {
                let v: Vec<f64> =
                    range.filter(|&t| class(t + 1) == c).map(|t| handle_us[t]).collect();
                let key = format!("serve.daemon.{name}_tick_us.{label}");
                out.metric(&key, median(&v), "us");
            }
        }
        for (c, name) in CLASSES.iter().enumerate() {
            let per_block: Vec<String> = (0..p.ticks / p.block)
                .map(|b| {
                    let v: Vec<f64> = (b * p.block..(b + 1) * p.block)
                        .filter(|&t| class(t + 1) == c)
                        .map(|t| handle_us[t])
                        .collect();
                    format!("{:.1}", median(&v))
                })
                .collect();
            out.note(format!(
                "{name} ticks: handle median per block (us): {}",
                per_block.join(" ")
            ));
        }
        let last_handle = &handle_us[p.ticks - p.block..];
        out.metric("serve.daemon.handle_us", median(last_handle), "us");
        // Means add up where medians do not: the remainder of the mean
        // handle time over the mirrored parts' mean cost per tick.
        let parts = [
            "protocol.parse",
            "wal.append",
            "tenant.prefix_instance",
            "online.decide",
            "replication.fingerprint",
            "protocol.encode",
        ];
        let mirrored: f64 = parts.iter().map(|n| per_tick(n)).sum::<f64>()
            + snap_total.iter().sum::<f64>() / p.block as f64;
        let mean_handle = last_handle.iter().sum::<f64>() / p.block as f64;
        out.metric("serve.daemon.unattributed_us", mean_handle - mirrored, "us");
        if let Some(r) = reference {
            let traced = median(&handle_us[..p.block]);
            out.metric("trace.overhead_us", traced - r, "us");
        }

        let counter = |k: &str| metrics.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.metric("serve.daemon.pool_hit_rate", counter("pool_hit_rate"), "ratio");
        out.metric("serve.daemon.shed", counter("shed"), "count");
        out.metric("serve.daemon.snapshots", counter("snapshots"), "count");
        out.metric("serve.daemon.segments_sealed", counter("segments_sealed"), "count");
        if let Some(stats) = self.ctl.as_ref().and_then(BoxController::engine_stats) {
            out.metric("offline.engine.pricings", stats.pricings as f64, "count");
            out.metric("offline.engine.pool_hits", stats.pool_hits as f64, "count");
            out.metric("offline.engine.hit_rate", stats.hit_rate(), "ratio");
        }
        if let Some(probe) = probe {
            out.metric("serve.wal.list_segments_us", probe.list_us, "us");
            out.metric("serve.wal.list_segments_total_ms", probe.list_us / 1e3, "ms");
            out.metric("serve.wal.segments", probe.segments as f64, "count");
            out.metric("serve.wal.scan_ms", probe.scan_ms, "ms");
        }
        crate::solver::report_pricing(out, opt);

        out.metric("trace.spans", self.spans.len() as f64, "count");
        let path = args.run_dir.join("spans-serve_long_horizon.jsonl");
        if let Err(e) = self.spans.write(&path) {
            out.note(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}
