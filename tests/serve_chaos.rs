//! Daemon-level chaos suite for `rsz serve`: the four robustness
//! promises under injected transport and storage faults.
//!
//! 1. **Kill–restart parity** — for every controller combo and every
//!    kill offset, dropping the daemon (our `kill -9` model: no
//!    shutdown, no final snapshot) and restarting over the same state
//!    dir yields decisions bit-identical to the uninterrupted run.
//! 2. **Storage faults** — WAL truncation recovers the intact prefix;
//!    WAL bit flips quarantine (with the failing byte range) or resume
//!    a valid prefix, never panic; a vanished snapshot means a full WAL
//!    replay; a corrupted snapshot falls back to the WAL without
//!    quarantining.
//! 3. **Transport faults** — connections dropped mid-line and partial
//!    JSON writes against a real TCP server never take the daemon down.
//! 4. **Isolation** — a quarantined tenant (poisoned λ, mid eviction
//!    storm) never perturbs a pool co-tenant's decisions, and a
//!    `deadline: None` tenant is bit-transparent through the whole
//!    serve path.
//!
//! Fault plans are seeded via `rsz_workloads::faultinject::daemon_plan`.
//! Set `CHAOS_QUICK=1` for the CI smoke subset.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use heterogeneous_rightsizing::online::algo_a::AOptions;
use heterogeneous_rightsizing::online::algo_b::AlgorithmB;
use heterogeneous_rightsizing::online::runner::run;
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::{wal, Client, ClientOptions, Daemon, ServeOptions, Server};
use heterogeneous_rightsizing::workloads::faultinject::daemon_plan;
use heterogeneous_rightsizing::workloads::fleet;

/// Seeded fault matrix: quick CI subset or the full sweep.
fn seeds() -> Vec<u64> {
    if quick() {
        vec![7, 42]
    } else {
        vec![7, 21, 42, 99, 123, 2024]
    }
}

fn quick() -> bool {
    std::env::var_os("CHAOS_QUICK").is_some()
}

/// Deterministic trace, peak 3.0 — inside every matrix fleet's capacity
/// (homogeneous:4 is the tightest at 4.0).
fn loads() -> Vec<f64> {
    vec![1.0, 2.5, 0.5, 3.0, 1.5, 0.0, 2.0, 2.75, 1.25, 0.75]
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-serve-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), ..ServeOptions::default() }
}

/// One controller combo of the parity matrix.
struct Combo {
    tag: &'static str,
    fleet: &'static str,
    algo: &'static str,
    cache: bool,
    grid: &'static str,
}

/// {cache} × {full, γ} across the shipping controllers.
fn combos() -> Vec<Combo> {
    let all = vec![
        Combo { tag: "b", fleet: "cpu-gpu:2,1", algo: "b", cache: false, grid: "full" },
        Combo { tag: "b-gamma", fleet: "cpu-gpu:2,1", algo: "b", cache: true, grid: "gamma:2" },
        Combo { tag: "a", fleet: "old-new:2,2", algo: "a", cache: false, grid: "full" },
        Combo { tag: "lcp", fleet: "homogeneous:4", algo: "lcp", cache: true, grid: "full" },
        Combo { tag: "rhc", fleet: "cpu-gpu:2,1", algo: "rhc:3", cache: false, grid: "full" },
    ];
    if quick() {
        all.into_iter().take(2).collect()
    } else {
        all
    }
}

fn register_line(tenant: &str, c: &Combo, snapshot_every: usize) -> String {
    format!(
        r#"{{"op":"register","tenant":"{tenant}","fleet":"{}","algo":"{}","cache":{},"grid":"{}","snapshot_every":{snapshot_every}}}"#,
        c.fleet, c.algo, c.cache, c.grid
    )
}

fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

/// Parse a decision reply, panicking (test failure) on anything else.
fn decided(reply: &str) -> Vec<u64> {
    let v = json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "not a decision: {reply}");
    match v.get("config") {
        Some(Json::Arr(items)) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
        other => panic!("bad config {other:?} in {reply}"),
    }
}

fn assert_ok(reply: &str) {
    let v = json::parse(reply).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
}

/// Uninterrupted reference run for one combo: fresh dir, all ticks.
fn baseline(c: &Combo, snapshot_every: usize) -> Vec<Vec<u64>> {
    let dir = tmp_dir(&format!("base-{}", c.tag));
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, snapshot_every)));
    let out = loads()
        .iter()
        .enumerate()
        .map(|(i, &l)| decided(&daemon.handle(&tick_line("t", i, l))))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    out
}

// ---------------------------------------------------------------------
// 1. Kill–restart parity at every offset
// ---------------------------------------------------------------------

/// The tentpole property: for every combo and every kill offset `k`,
/// feeding `k` ticks, dying without ceremony, restarting, and feeding
/// the rest produces decisions bit-identical to the uninterrupted run —
/// replayed prefix included.
#[test]
fn kill_restart_is_bit_identical_at_every_offset() {
    let loads = loads();
    for c in combos() {
        let expect = baseline(&c, 3);
        for kill_at in 0..=loads.len() {
            let dir = tmp_dir(&format!("kill-{}-{kill_at}", c.tag));
            let daemon = Daemon::new(options(&dir)).unwrap();
            assert_ok(&daemon.handle(&register_line("t", &c, 3)));
            for (i, &l) in loads[..kill_at].iter().enumerate() {
                assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
            }
            drop(daemon); // kill -9: no shutdown, no final snapshot

            let daemon = Daemon::new(options(&dir)).unwrap();
            if kill_at > 0 {
                assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1, "{}", c.tag);
            }
            // Idempotent re-register reports where to resume.
            let v = json::parse(&daemon.handle(&register_line("t", &c, 3))).unwrap();
            assert_eq!(
                v.get("resumed_ticks").and_then(Json::as_u64),
                Some(kill_at as u64),
                "{} kill_at {kill_at}",
                c.tag
            );
            // Replay the whole stream: committed prefix answers from
            // history, the rest decides fresh — all bit-identical.
            for (i, &l) in loads.iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(
                    decided(&reply),
                    expect[i],
                    "{} kill_at {kill_at} seq {i}: {reply}",
                    c.tag
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Storage faults
// ---------------------------------------------------------------------

/// Truncating the WAL at a seeded byte offset (a torn tail) recovers
/// the intact prefix: the daemon restarts, never panics, and every
/// surviving committed tick replays bit-identically.
#[test]
fn wal_truncation_recovers_the_intact_prefix() {
    let c = &combos()[0];
    let expect = baseline(c, 100); // no snapshots: recovery is WAL-only
    let loads = loads();
    for seed in seeds() {
        let plan = daemon_plan(seed);
        let dir = tmp_dir(&format!("trunc-{seed}"));
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 100)));
        for (i, &l) in loads.iter().enumerate() {
            daemon.handle(&tick_line("t", i, l));
        }
        drop(daemon);

        let path = wal::wal_path(&dir, "t");
        let mut bytes = wal::read_file(&path).unwrap();
        plan.truncate_wal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let daemon = Daemon::new(options(&dir)).unwrap();
        let health = daemon.handle("GET /health");
        assert_ok(&health);
        // However deep the cut landed, the surviving prefix must replay
        // bit-identically and fresh ticks must extend it.
        let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
        if let Some(resumed) = v.get("resumed_ticks").and_then(Json::as_u64) {
            let resumed = resumed as usize;
            assert!(resumed <= loads.len(), "seed {seed}: resumed {resumed}");
            for (i, &l) in loads.iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(decided(&reply), expect[i], "seed {seed} seq {i}: {reply}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Flipping one WAL bit either quarantines the tenant as `wal_corrupt`
/// (reporting the failing byte range) or — when the flip lands in a
/// region recovery legitimately drops, e.g. a length field turning the
/// tail torn — resumes a bit-identical prefix. It never panics and
/// never touches the co-tenant.
#[test]
fn wal_bit_flip_quarantines_or_resumes_a_prefix() {
    let c = &combos()[0];
    let expect = baseline(c, 100);
    let loads = loads();
    for seed in seeds() {
        let plan = daemon_plan(seed);
        let dir = tmp_dir(&format!("flip-{seed}"));
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 100)));
        assert_ok(&daemon.handle(&register_line("bystander", c, 100)));
        for (i, &l) in loads.iter().enumerate() {
            daemon.handle(&tick_line("t", i, l));
            daemon.handle(&tick_line("bystander", i, l));
        }
        drop(daemon);

        let path = wal::wal_path(&dir, "t");
        let mut bytes = wal::read_file(&path).unwrap();
        plan.flip_wal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();

        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_ok(&daemon.handle("GET /health"));
        let metrics = daemon.handle("GET /metrics");
        let m = json::parse(&metrics).unwrap();
        let quarantined = m
            .get("tenants")
            .and_then(|t| t.get("t"))
            .and_then(|t| t.get("quarantined"))
            .and_then(Json::as_str)
            .map(str::to_owned);
        match quarantined.as_deref() {
            Some("wal_corrupt") => {
                // Structured reason names the failing byte range.
                let detail = m
                    .get("tenants")
                    .and_then(|t| t.get("t"))
                    .and_then(|t| t.get("quarantine_detail"))
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned();
                assert!(
                    detail.contains("bytes") || detail.contains("seq"),
                    "seed {seed}: vague corruption detail {detail:?}"
                );
            }
            Some(other) => panic!("seed {seed}: unexpected quarantine reason {other}"),
            None => {
                // Flip classified as a torn tail: a valid prefix must
                // have resumed, bit-identical to the baseline.
                let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
                let resumed = v.get("resumed_ticks").and_then(Json::as_u64).unwrap_or(0) as usize;
                for (i, &l) in loads.iter().take(resumed).enumerate() {
                    assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
                }
            }
        }
        // The bystander sharing the daemon (and the pool key) is whole.
        let v = json::parse(&daemon.handle(&register_line("bystander", c, 100))).unwrap();
        assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
        for (i, &l) in loads.iter().enumerate() {
            assert_eq!(
                decided(&daemon.handle(&tick_line("bystander", i, l))),
                expect[i],
                "seed {seed}: bystander perturbed at seq {i}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Snapshot missing, WAL present: recovery replays the full WAL and the
/// result is bit-identical. Snapshot corrupted: recovery notices, falls
/// back to the WAL (`snapshot_fallbacks`), and does *not* quarantine.
#[test]
fn missing_or_corrupt_snapshots_fall_back_to_the_wal() {
    let c = &combos()[0];
    let expect = baseline(c, 3);
    let loads = loads();
    for seed in seeds() {
        let plan = daemon_plan(seed);
        for mode in ["missing", "corrupt"] {
            let dir = tmp_dir(&format!("snap-{mode}-{seed}"));
            let daemon = Daemon::new(options(&dir)).unwrap();
            assert_ok(&daemon.handle(&register_line("t", c, 3)));
            for (i, &l) in loads.iter().enumerate() {
                daemon.handle(&tick_line("t", i, l));
            }
            drop(daemon);

            let snap = wal::snap_path(&dir, "t");
            assert!(snap.exists(), "cadence 3 over {} ticks must snapshot", loads.len());
            if mode == "missing" || plan.drop_snapshot {
                std::fs::remove_file(&snap).unwrap();
            } else {
                let mut bytes = std::fs::read(&snap).unwrap();
                plan.flip_wal(&mut bytes); // reuse the seeded flip position
                std::fs::write(&snap, &bytes).unwrap();
            }

            let daemon = Daemon::new(options(&dir)).unwrap();
            assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 1);
            let health = daemon.handle("GET /health");
            assert!(health.contains("\"quarantined\":0"), "{mode}/{seed}: {health}");
            for (i, &l) in loads.iter().enumerate() {
                let reply = daemon.handle(&tick_line("t", i, l));
                assert_eq!(decided(&reply), expect[i], "{mode}/{seed} seq {i}: {reply}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------
// 3. Transport faults against a real TCP server
// ---------------------------------------------------------------------

/// Connections dropped mid-line, partial JSON writes, and garbage bytes
/// never take the daemon down; a well-behaved client keeps deciding
/// across all of it, and duplicate seqs from retransmits replay.
#[test]
fn dropped_connections_and_partial_writes_never_kill_the_daemon() {
    use std::io::Write;
    use std::net::TcpStream;

    let c = &combos()[0];
    let dir = tmp_dir("tcp");
    let daemon = Arc::new(Daemon::new(options(&dir)).unwrap());
    let server = Server::bind(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::new(&addr, ClientOptions::default());
    let spec = heterogeneous_rightsizing::serve::TenantSpec {
        fleet: c.fleet.to_owned(),
        algo: c.algo.to_owned(),
        cache: c.cache,
        grid: heterogeneous_rightsizing::serve::GridSpec::parse(c.grid).unwrap(),
        deadline_us: None,
        snapshot_every: 0,
    };
    client.register("t", &spec).unwrap();

    let loads = loads();
    for (i, &l) in loads.iter().enumerate() {
        // Interleave each good tick with seeded abuse on raw sockets.
        let plan = daemon_plan(i as u64);
        let line = tick_line("t", i, l);
        let (head, _tail) = plan.split_line(&line);
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(head.as_bytes());
            drop(s); // connection dropped mid-line
        }
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(head.as_bytes());
            let _ = s.flush();
            std::thread::sleep(Duration::from_millis(1));
            drop(s); // partial JSON write, then gone
        }
        if let Ok(mut s) = TcpStream::connect(&addr) {
            let _ = s.write_all(b"\x00\xffnot json at all\n");
            drop(s);
        }
        let d = client.tick("t", i as u64, l).unwrap();
        assert!(!d.replayed, "seq {i} should be fresh");
        // A retransmit of the same seq replays bit-identically.
        let again = client.tick("t", i as u64, l).unwrap();
        assert!(again.replayed, "seq {i} retransmit should replay");
        assert_eq!(again.config, d.config, "seq {i} replay diverged");
    }
    let health = client.health().unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 4. Isolation and transparency
// ---------------------------------------------------------------------

/// Two tenants share one priced-slot pool under an eviction storm
/// (pool capacity 2). One is quarantined mid-storm by a poisoned λ.
/// The survivor's decisions are byte-identical to its solo run —
/// pool sharing changes hit rates, never decisions.
#[test]
fn pool_cotenant_quarantine_mid_storm_never_perturbs_the_survivor() {
    let c = &combos()[0];
    let storm = ServeOptions { pool_capacity: 2, ..Default::default() };
    let loads = loads();

    // Solo reference: the survivor alone, same starved pool.
    let dir = tmp_dir("storm-solo");
    let daemon = Daemon::new(ServeOptions { state_dir: dir.clone(), ..storm.clone() }).unwrap();
    assert_ok(&daemon.handle(&register_line("survivor", c, 4)));
    let expect: Vec<Vec<u64>> = loads
        .iter()
        .enumerate()
        .map(|(i, &l)| decided(&daemon.handle(&tick_line("survivor", i, l))))
        .collect();
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    // Shared run: same (fleet, grid) key, interleaved ticks, co-tenant
    // poisoned halfway through.
    let dir = tmp_dir("storm-shared");
    let daemon = Daemon::new(ServeOptions { state_dir: dir.clone(), ..storm }).unwrap();
    assert_ok(&daemon.handle(&register_line("survivor", c, 4)));
    assert_ok(&daemon.handle(&register_line("victim", c, 4)));
    for (i, &l) in loads.iter().enumerate() {
        if i < loads.len() / 2 {
            assert_ok(&daemon.handle(&tick_line("victim", i, l)));
        } else if i == loads.len() / 2 {
            let reply = daemon
                .handle(&format!(r#"{{"op":"tick","tenant":"victim","seq":{i},"load":null}}"#));
            assert!(reply.contains("\"error\":\"input\""), "{reply}");
        }
        let reply = daemon.handle(&tick_line("survivor", i, l));
        assert_eq!(decided(&reply), expect[i], "survivor perturbed at seq {i}: {reply}");
    }
    let health = daemon.handle("GET /health");
    assert!(health.contains("\"quarantined\":1"), "{health}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A tenant with no deadline (daemon default `None`, no `deadline_us`)
/// goes through the degrader in bit-transparent mode: serve-path
/// decisions equal a direct local run of the same controller, and the
/// rung counters show exact-only.
#[test]
fn deadline_none_is_bit_transparent_through_the_serve_path() {
    let loads = loads();
    let types = fleet::parse("cpu-gpu:2,1").unwrap();
    let instance = Instance::builder().server_types(types).loads(loads.clone()).build().unwrap();
    let oracle = Dispatcher::new();
    let mut local = AlgorithmB::new(&instance, Dispatcher::new(), AOptions::default());
    let reference = run(&instance, &mut local, &oracle);

    let c =
        Combo { tag: "transparent", fleet: "cpu-gpu:2,1", algo: "b", cache: false, grid: "full" };
    let dir = tmp_dir("transparent");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", &c, 4)));
    for (i, &l) in loads.iter().enumerate() {
        let got = decided(&daemon.handle(&tick_line("t", i, l)));
        let want: Vec<u64> =
            reference.schedule.config(i).counts().iter().map(|&x| x as u64).collect();
        assert_eq!(got, want, "serve path diverged from the direct run at seq {i}");
    }
    let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
    let tenant = m.get("tenants").and_then(|t| t.get("t")).unwrap();
    assert_eq!(
        tenant.get("rung_exact").and_then(Json::as_u64),
        Some(loads.len() as u64),
        "every decision must be exact"
    );
    assert_eq!(tenant.get("rung_coarse").and_then(Json::as_u64), Some(0));
    assert_eq!(tenant.get("rung_hold").and_then(Json::as_u64), Some(0));
    assert_eq!(tenant.get("rung").and_then(Json::as_str), Some("exact"));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// 5. Segment rotation, compaction, and graceful shutdown
// ---------------------------------------------------------------------

/// A 1-byte segment threshold seals a segment on every append, so the
/// log is maximally fragmented and snapshots compact covered segments
/// as they seal. `kill -9` over that debris — sealed segments, a
/// compacted prefix, a fresh active file — still recovers
/// bit-identically at every offset.
#[test]
fn rotation_and_compaction_survive_kill_restart_bit_identically() {
    let c = &combos()[0];
    let expect = baseline(c, 3);
    let loads = loads();
    let offsets: Vec<usize> =
        if quick() { vec![1, 4, loads.len()] } else { (1..=loads.len()).collect() };
    for kill_at in offsets {
        let dir = tmp_dir(&format!("rot-{kill_at}"));
        let opts = ServeOptions { segment_bytes: 1, ..options(&dir) };
        let daemon = Daemon::new(opts.clone()).unwrap();
        assert_ok(&daemon.handle(&register_line("t", c, 3)));
        for (i, &l) in loads[..kill_at].iter().enumerate() {
            assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
        }
        // Every accepted tick sealed a segment; the cadence-3 snapshots
        // compacted every covered one.
        let sealed = daemon.counters.segments_sealed.load(Ordering::Relaxed);
        assert_eq!(sealed, kill_at as u64, "one seal per tick at threshold 1");
        let compacted = daemon.counters.segments_compacted.load(Ordering::Relaxed);
        if kill_at >= 3 {
            assert!(compacted >= 3, "kill_at {kill_at}: only {compacted} compacted");
        }
        let m = json::parse(&daemon.handle("GET /metrics")).unwrap();
        assert_eq!(m.get("segments_sealed").and_then(Json::as_u64), Some(sealed));
        assert_eq!(m.get("segments_compacted").and_then(Json::as_u64), Some(compacted));
        drop(daemon); // kill -9: no shutdown, no final snapshot

        let daemon = Daemon::new(opts).unwrap();
        let v = json::parse(&daemon.handle(&register_line("t", c, 3))).unwrap();
        assert_eq!(
            v.get("resumed_ticks").and_then(Json::as_u64),
            Some(kill_at as u64),
            "kill_at {kill_at}"
        );
        for (i, &l) in loads.iter().enumerate() {
            let reply = daemon.handle(&tick_line("t", i, l));
            assert_eq!(decided(&reply), expect[i], "kill_at {kill_at} seq {i}: {reply}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An orderly shutdown stops admission with an explicit `overloaded`,
/// fsyncs the WALs, and seals a final snapshot — so the restart
/// restores from that snapshot without a WAL-replay fallback and
/// resumes bit-identically. Snapshot cadence is set beyond the horizon:
/// the only snapshot is the shutdown's.
#[test]
fn graceful_shutdown_seals_state_and_restart_resumes_cleanly() {
    let c = &combos()[0];
    let expect = baseline(c, 100);
    let loads = loads();
    let dir = tmp_dir("graceful");
    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_ok(&daemon.handle(&register_line("t", c, 100)));
    for (i, &l) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
    }
    assert!(!wal::snap_path(&dir, "t").exists(), "cadence 100 must not have snapshotted");

    daemon.graceful_shutdown();
    assert!(wal::snap_path(&dir, "t").exists(), "shutdown must seal a final snapshot");
    // Admission is closed: fresh work sheds explicitly and retryably.
    let reply = daemon.handle(&tick_line("t", loads.len(), 1.0));
    assert!(reply.contains("\"error\":\"overloaded\""), "{reply}");
    assert!(reply.contains("shutting down"), "{reply}");
    let ready = daemon.handle("GET /readyz");
    assert!(ready.contains("\"ready\":false"), "{ready}");
    assert!(daemon.handle("GET /livez").contains("\"live\":true"), "live until exit");
    daemon.graceful_shutdown(); // idempotent
    drop(daemon);

    let daemon = Daemon::new(options(&dir)).unwrap();
    assert_eq!(
        daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed),
        0,
        "the shutdown snapshot must restore cleanly"
    );
    let v = json::parse(&daemon.handle(&register_line("t", c, 100))).unwrap();
    assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(loads.len() as u64));
    for (i, &l) in loads.iter().enumerate() {
        assert_eq!(decided(&daemon.handle(&tick_line("t", i, l))), expect[i]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
