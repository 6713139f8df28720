//! `serve_bench` — the daemon under multi-tenant load: what serving
//! costs on top of the bare controllers, and what recovery costs after
//! an unceremonious death.
//!
//! Scenarios (N = 1000 tenants, `--quick`: 100):
//!
//! * **fanout** — register N tenants over a handful of shared
//!   `(fleet, grid)` pool keys, stream every tenant's trace round-robin
//!   through [`Daemon::handle`]: tick throughput, per-decision p50/p99,
//!   and the cross-tenant pool-hit rate from `/metrics`. Gated on a
//!   non-zero hit rate — N tenants on 4 pool keys must share pricing.
//! * **replay** — retransmit every tenant's first seq: duplicate-seq
//!   p99 (answered from committed history, no solve).
//! * **recovery** — drop the daemon (kill -9 model) and restart over
//!   the same state dir: recovery-replay wall-clock and per-tenant
//!   cost. Gated on all N tenants recovering and a sampled tenant
//!   replaying bit-identically.
//! * **failover** — a synced replica loses its primary: wall-clock
//!   from the death to a promoted replica that has re-served the whole
//!   stream bit-identically (lease expiry + promotion + full
//!   retransmit), p50/p99 over repeated trials. Gated on zero
//!   accepted-tick loss in every trial.
//! * **divergence** — flip one committed bit in each of M replica
//!   tenants and sync: every flip must trip a fingerprint cross-check.
//!   Reports detection counters; gated on M-for-M detection.
//!
//! Results land in `results/serve.json` and, as the trajectory record
//! the CI uploads, `BENCH_serve.json`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rsz_online::LatencyProfile;
use rsz_serve::json::{self, Json};
use rsz_serve::{Daemon, ReplicaOptions, Replicator, Role, ServeOptions};

/// Pool keys the tenant population collides on: four fleets, one grid.
const FLEETS: [&str; 4] = ["cpu-gpu:2,1", "cpu-gpu:4,2", "old-new:2,2", "homogeneous:4"];

/// Per-tenant trace, peak 3.0 — inside every fleet's capacity. Phase
/// varies per tenant so pool hits are cross-tenant, not degenerate.
fn loads(tenant: usize, horizon: usize) -> Vec<f64> {
    (0..horizon)
        .map(|t| {
            let phase = (t + tenant % 5) as f64 / 4.0 * std::f64::consts::TAU;
            1.5 + 1.25 * phase.sin() + 0.25 * ((t + tenant) % 2) as f64
        })
        .collect()
}

fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

fn decided(reply: &str) -> Vec<u64> {
    let v = json::parse(reply).unwrap_or_else(|e| panic!("unparseable reply {reply:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "not a decision: {reply}");
    match v.get("config") {
        Some(Json::Arr(items)) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
        other => panic!("bad config {other:?} in {reply}"),
    }
}

struct Row {
    name: String,
    fields: Vec<(String, String)>,
}

fn num(v: f64) -> String {
    format!("{v:.3}")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tenants = if quick { 100 } else { 1000 };
    let horizon = 6;
    let dir: PathBuf = std::env::temp_dir().join(format!("rsz-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options =
        || ServeOptions { state_dir: dir.clone(), snapshot_every: 4, ..ServeOptions::default() };
    let mut rows: Vec<Row> = Vec::new();

    // --- fanout: N tenants, round-robin ticks ---
    let daemon = Daemon::new(options()).expect("state dir");
    let clock = Instant::now();
    for i in 0..tenants {
        let reply = daemon.handle(&format!(
            r#"{{"op":"register","tenant":"t{i}","fleet":"{}","algo":"b"}}"#,
            FLEETS[i % FLEETS.len()],
        ));
        assert!(reply.contains("\"ok\":true"), "register t{i}: {reply}");
    }
    let register_secs = clock.elapsed().as_secs_f64();

    let mut samples = Vec::with_capacity(tenants * horizon);
    let clock = Instant::now();
    for seq in 0..horizon {
        for i in 0..tenants {
            let line = tick_line(&format!("t{i}"), seq, loads(i, horizon)[seq]);
            let tick = Instant::now();
            let reply = daemon.handle(&line);
            samples.push(tick.elapsed().as_secs_f64());
            debug_assert!(reply.contains("\"ok\":true"), "{reply}");
        }
    }
    let fanout_secs = clock.elapsed().as_secs_f64();
    let decisions = (tenants * horizon) as f64;
    let profile = LatencyProfile::new(samples);

    let metrics = json::parse(&daemon.handle("GET /metrics")).expect("metrics parse");
    let hit_rate = metrics.get("pool_hit_rate").and_then(Json::as_f64).unwrap_or(0.0);
    assert!(
        hit_rate > 0.0,
        "{tenants} tenants over {} pool keys must share pricing (hit rate {hit_rate})",
        FLEETS.len()
    );
    rows.push(Row {
        name: "fanout".into(),
        fields: vec![
            ("tenants".into(), tenants.to_string()),
            ("register_ms".into(), num(register_secs * 1e3)),
            ("ticks_per_sec".into(), num(decisions / fanout_secs.max(1e-12))),
            ("tick_p50_us".into(), num(profile.quantile(0.5) * 1e6)),
            ("tick_p99_us".into(), num(profile.quantile(0.99) * 1e6)),
            ("pool_hit_rate".into(), num(hit_rate)),
        ],
    });

    // --- replay: duplicate seqs answer from committed history ---
    let mut replay_samples = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let line = tick_line(&format!("t{i}"), 0, loads(i, horizon)[0]);
        let tick = Instant::now();
        let reply = daemon.handle(&line);
        replay_samples.push(tick.elapsed().as_secs_f64());
        assert!(reply.contains("\"replayed\":true"), "t{i} seq 0 should replay: {reply}");
    }
    let replays = LatencyProfile::new(replay_samples);
    rows.push(Row {
        name: "replay".into(),
        fields: vec![
            ("replay_p50_us".into(), num(replays.quantile(0.5) * 1e6)),
            ("replay_p99_us".into(), num(replays.quantile(0.99) * 1e6)),
        ],
    });

    // Parity probe for the recovery gate, then kill -9.
    let probe = loads(0, horizon);
    let expect: Vec<Vec<u64>> = (0..horizon)
        .map(|seq| decided(&daemon.handle(&tick_line("t0", seq, probe[seq]))))
        .collect();
    drop(daemon);

    // --- recovery: restart over the surviving state dir ---
    let clock = Instant::now();
    let daemon = Daemon::new(options()).expect("recovery");
    let recovery_secs = clock.elapsed().as_secs_f64();
    let recovered = daemon.counters.recovered.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(recovered as usize, tenants, "every tenant must recover");
    for (seq, want) in expect.iter().enumerate() {
        let got = decided(&daemon.handle(&tick_line("t0", seq, probe[seq])));
        assert_eq!(&got, want, "recovery diverged at seq {seq}");
    }
    rows.push(Row {
        name: "recovery".into(),
        fields: vec![
            ("recovered".into(), recovered.to_string()),
            ("recovery_ms".into(), num(recovery_secs * 1e3)),
            ("per_tenant_us".into(), num(recovery_secs / tenants as f64 * 1e6)),
        ],
    });
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    // --- failover: primary death → promoted, caught-up replica ---
    let trials = if quick { 10 } else { 100 };
    let fo_horizon = 6;
    let pdir = std::env::temp_dir().join(format!("rsz-serve-bench-fo-p-{}", std::process::id()));
    let rdir = std::env::temp_dir().join(format!("rsz-serve-bench-fo-r-{}", std::process::id()));
    let pair_options = |d: &PathBuf| ServeOptions {
        state_dir: d.clone(),
        snapshot_every: 4,
        fingerprint_every: 2,
        ..ServeOptions::default()
    };
    let mut failover_samples = Vec::with_capacity(trials);
    for trial in 0..trials {
        let _ = std::fs::remove_dir_all(&pdir);
        let _ = std::fs::remove_dir_all(&rdir);
        let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
        let replica = Arc::new(Daemon::new(pair_options(&rdir)).expect("replica dir"));
        replica.set_role(Role::Replica);
        let mut replicator = Replicator::new(
            Arc::clone(&replica),
            ReplicaOptions { replica_id: "bench".into(), lease_failures: 3 },
        );
        let reply =
            primary.handle(r#"{"op":"register","tenant":"t","fleet":"cpu-gpu:2,1","algo":"b"}"#);
        assert!(reply.contains("\"ok\":true"), "trial {trial}: {reply}");
        let trace = loads(trial, fo_horizon);
        let expect: Vec<Vec<u64>> = (0..fo_horizon)
            .map(|seq| {
                let d = decided(&primary.handle(&tick_line("t", seq, trace[seq])));
                replicator
                    .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
                    .expect("clean sync");
                d
            })
            .collect();
        drop(primary); // kill -9

        let clock = Instant::now();
        while !replicator.maybe_promote() {
            let _ = replicator.sync_once(&mut |_| Err::<String, String>("dead".into()));
        }
        for (seq, want) in expect.iter().enumerate() {
            let got = decided(&replica.handle(&tick_line("t", seq, trace[seq])));
            assert_eq!(&got, want, "trial {trial}: failover diverged at seq {seq}");
        }
        failover_samples.push(clock.elapsed().as_secs_f64());
        let have = replica.replication_have();
        assert_eq!(
            have.first().map(|(_, n)| *n),
            Some(fo_horizon as u64),
            "trial {trial}: accepted ticks lost across failover"
        );
    }
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    let failovers = LatencyProfile::new(failover_samples);
    rows.push(Row {
        name: "failover".into(),
        fields: vec![
            ("trials".into(), trials.to_string()),
            ("failover_p50_us".into(), num(failovers.quantile(0.5) * 1e6)),
            ("failover_p99_us".into(), num(failovers.quantile(0.99) * 1e6)),
        ],
    });

    // --- divergence: M flipped replica tenants, M detections ---
    let flipped = if quick { 20 } else { 100 };
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
    let primary = Arc::new(Daemon::new(pair_options(&pdir)).expect("primary dir"));
    let replica = Arc::new(
        Daemon::new(ServeOptions { allow_fault_hooks: true, ..pair_options(&rdir) })
            .expect("replica dir"),
    );
    replica.set_role(Role::Replica);
    let mut replicator = Replicator::new(Arc::clone(&replica), ReplicaOptions::default());
    for i in 0..flipped {
        let reply = primary.handle(&format!(
            r#"{{"op":"register","tenant":"d{i}","fleet":"cpu-gpu:2,1","algo":"b"}}"#
        ));
        assert!(reply.contains("\"ok\":true"), "register d{i}: {reply}");
    }
    for seq in 0..4 {
        for i in 0..flipped {
            primary.handle(&tick_line(&format!("d{i}"), seq, loads(i, 6)[seq]));
        }
    }
    replicator
        .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
        .expect("pre-flip sync");
    for i in 0..flipped {
        assert!(replica.inject_divergence(&format!("d{i}")), "fault hook d{i}");
    }
    for seq in 4..6 {
        for i in 0..flipped {
            primary.handle(&tick_line(&format!("d{i}"), seq, loads(i, 6)[seq]));
        }
    }
    let clock = Instant::now();
    let report = replicator
        .sync_once(&mut |line| Ok::<String, String>(primary.handle(line)))
        .expect("post-flip sync applies, with per-tenant errors");
    let detect_secs = clock.elapsed().as_secs_f64();
    let detected =
        replica.counters.fingerprint_mismatches.load(std::sync::atomic::Ordering::Relaxed);
    let fp_checks = replica.counters.fingerprint_checks.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(
        detected as usize,
        flipped,
        "every flipped tenant must trip a fingerprint check ({:?})",
        report.errors.len()
    );
    rows.push(Row {
        name: "divergence".into(),
        fields: vec![
            ("divergence_tenants".into(), flipped.to_string()),
            ("divergence_detected".into(), detected.to_string()),
            ("fingerprint_checks".into(), fp_checks.to_string()),
            ("detect_ms".into(), num(detect_secs * 1e3)),
        ],
    });
    drop(replica);
    drop(primary);
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);

    // Console summary.
    for r in &rows {
        let fields: Vec<String> = r.fields.iter().map(|(k, v)| format!("{k} {v}")).collect();
        println!("bench: serve/{:<20} ... {}", r.name, fields.join(" | "));
    }

    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut runs = String::new();
    for (i, r) in rows.iter().enumerate() {
        let mut fields = String::new();
        for (j, (k, v)) in r.fields.iter().enumerate() {
            let _ = write!(
                fields,
                "      \"{k}\": {v}{}",
                if j + 1 < r.fields.len() { ",\n" } else { "\n" }
            );
        }
        let _ = write!(
            runs,
            "    {{\n      \"scenario\": \"{}\",\n{fields}    }}{}",
            r.name,
            if i + 1 < rows.len() { ",\n" } else { "\n" },
        );
    }
    let json_out = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {quick},\n  \"timestamp\": {timestamp},\n  \"tenants\": {tenants},\n  \"pool_hit_rate\": {},\n  \"runs\": [\n{runs}  ]\n}}\n",
        num(hit_rate),
    );

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root")
        .to_path_buf();
    for out_path in [root.join("results").join("serve.json"), root.join("BENCH_serve.json")] {
        let write = out_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&out_path, &json_out));
        if let Err(e) = write {
            eprintln!("warning: could not write {}: {e}", out_path.display());
        } else {
            println!("bench: serve/json           ... {}", out_path.display());
        }
    }
}
