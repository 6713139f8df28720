//! Upgrading the serve daemon's on-disk state across layouts.
//!
//! `tests/fixtures/v2_state/` was written by the previous daemon (commit
//! 4fbf1aa): three tenants (Algorithms A, B, C on `cpu-gpu:2,1`,
//! snapshot cadence 5, 256-byte WAL segments) took 43 ticks each and the
//! process was killed without a shutdown. Their snapshots are format 2
//! — the whole load prefix plus a `save_run` envelope — and the WAL
//! segments they cover are compacted away, so the snapshots are the only
//! copy of ticks 0‥~34. `served.txt` holds every reply that daemon sent.
//!
//! * The current daemon recovers that directory bit-identically: each
//!   duplicate seq replays the decision the old daemon served, and new
//!   ticks decide as an uninterrupted run of the current code does.
//! * Algorithm B and C states in the old layout (with the power-up log)
//!   are refused by their tag — inside the daemon's degrader envelope
//!   and in a bare `save_run` snapshot alike — never misread.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use heterogeneous_rightsizing::online::algo_a::AOptions;
use heterogeneous_rightsizing::online::algo_c::COptions;
use heterogeneous_rightsizing::online::{restore_run, save_run};
use heterogeneous_rightsizing::prelude::*;
use heterogeneous_rightsizing::serve::json::{self, Json};
use heterogeneous_rightsizing::serve::wal::{self, WalRecord};
use heterogeneous_rightsizing::serve::{history, Daemon, ServeOptions};
use heterogeneous_rightsizing::workloads::fleet;

const ALGOS: [&str; 3] = ["a", "b", "c"];
const WRITTEN: usize = 43;

/// The load trace the fixture's writer used.
fn load(i: usize) -> f64 {
    0.25 + ((i * 7 + 3) % 11) as f64 * 0.45
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2_state")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rsz-upgrade-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn options(dir: &Path) -> ServeOptions {
    ServeOptions { state_dir: dir.to_path_buf(), segment_bytes: 256, ..ServeOptions::default() }
}

fn register_line(algo: &str) -> String {
    format!(
        r#"{{"op":"register","tenant":"{algo}","fleet":"cpu-gpu:2,1","algo":"{algo}","snapshot_every":5}}"#
    )
}

fn tick_line(algo: &str, seq: usize) -> String {
    format!(r#"{{"op":"tick","tenant":"{algo}","seq":{seq},"load":{}}}"#, load(seq))
}

fn config_of(reply: &str) -> (Vec<u64>, bool) {
    let v = json::parse(reply).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{reply}");
    let config = match v.get("config").unwrap() {
        Json::Arr(items) => items.iter().map(|i| i.as_u64().unwrap()).collect(),
        other => panic!("bad config: {other:?}"),
    };
    (config, v.get("replayed").and_then(Json::as_bool) == Some(true))
}

/// What the old daemon served, per tenant, in seq order.
fn served() -> Vec<(String, Vec<Vec<u64>>)> {
    let text = std::fs::read_to_string(fixture().join("served.txt")).unwrap();
    ALGOS
        .iter()
        .map(|algo| {
            let replies: Vec<Vec<u64>> = text
                .lines()
                .filter_map(|l| l.strip_prefix(&format!("{algo} ")))
                .map(|rest| config_of(rest.split_once(' ').unwrap().1).0)
                .collect();
            assert_eq!(replies.len(), WRITTEN, "{algo}");
            ((*algo).to_owned(), replies)
        })
        .collect()
}

#[test]
fn format_2_state_dir_recovers_bit_identically() {
    let dir = tmp_dir("v2");
    for entry in std::fs::read_dir(fixture().join("state")).unwrap().flatten() {
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    // The fixture's WAL starts past seq 0: the snapshot prefix is needed.
    for algo in ALGOS {
        let first_seq = wal::list_segments(&dir, algo)
            .iter()
            .flat_map(|(_, p)| wal::scan(&wal::read_file(p).unwrap()).records)
            .find_map(|r| match r {
                WalRecord::Tick { seq, .. } => Some(seq),
                WalRecord::Register(_) => None,
            });
        assert!(first_seq.is_some_and(|s| s > 0), "{algo}: WAL starts at {first_seq:?}");
        assert!(!history::hist_path(&dir, algo).exists());
    }

    // An uninterrupted run of the current code over a longer trace.
    let total = WRITTEN + 17;
    let base_dir = tmp_dir("v2-baseline");
    let baseline = Daemon::new(options(&base_dir)).unwrap();
    let mut want = Vec::new();
    for algo in ALGOS {
        assert!(baseline.handle(&register_line(algo)).contains("\"ok\":true"));
        let run: Vec<Vec<u64>> =
            (0..total).map(|i| config_of(&baseline.handle(&tick_line(algo, i))).0).collect();
        want.push(run);
    }
    for ((algo, old), run) in served().iter().zip(&want) {
        assert_eq!(&run[..WRITTEN], &old[..], "{algo}: decisions changed across versions");
    }

    for restart in 0..2 {
        let daemon = Daemon::new(options(&dir)).unwrap();
        assert_eq!(daemon.counters.recovered.load(Ordering::Relaxed), 3, "restart {restart}");
        let health = daemon.handle("GET /health");
        assert!(health.contains("\"quarantined\":0"), "restart {restart}: {health}");
        // First restart: A's controller restores from the old envelope,
        // B's and C's old-layout states are refused and replayed from
        // the seeded history. Second restart: current cores restore.
        let fallbacks = daemon.counters.snapshot_fallbacks.load(Ordering::Relaxed);
        assert_eq!(fallbacks, if restart == 0 { 2 } else { 0 }, "restart {restart}");
        let upto = WRITTEN + 8 * restart;
        for (algo, run) in ALGOS.iter().zip(&want) {
            let v = json::parse(&daemon.handle(&register_line(algo))).unwrap();
            assert_eq!(v.get("resumed_ticks").and_then(Json::as_u64), Some(upto as u64));
            for (i, expected) in run.iter().enumerate().take(upto) {
                let (config, replayed) = config_of(&daemon.handle(&tick_line(algo, i)));
                assert!(replayed, "{algo} seq {i}");
                assert_eq!(&config, expected, "restart {restart}: {algo} seq {i}");
            }
            for (i, expected) in run.iter().enumerate().take(upto + 8).skip(upto) {
                let (config, replayed) = config_of(&daemon.handle(&tick_line(algo, i)));
                assert!(!replayed, "{algo} seq {i}");
                assert_eq!(&config, expected, "restart {restart}: {algo} seq {i}");
            }
            assert!(history::hist_path(&dir, algo).exists(), "{algo}: history seeded");
        }
        drop(daemon); // kill -9
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base_dir);
}

#[test]
fn old_layout_b_and_c_run_snapshots_are_refused() {
    let types = fleet::parse("cpu-gpu:2,1").unwrap();
    let loads: Vec<f64> = (0..12).map(load).collect();
    let instance = Instance::builder().server_types(types).loads(loads).build().unwrap();
    let oracle = Dispatcher::new();

    let old_b = std::fs::read(fixture().join("algo-b.run")).unwrap();
    let mut b = AlgorithmB::new(&instance, oracle, AOptions::default());
    let err = restore_run(&mut b, &instance, &old_b).unwrap_err();
    assert!(err.to_string().contains("different algorithm"), "{err}");

    let old_c = std::fs::read(fixture().join("algo-c.run")).unwrap();
    let mut c = AlgorithmC::new(&instance, oracle, COptions::default());
    let err = restore_run(&mut c, &instance, &old_c).unwrap_err();
    assert!(err.to_string().contains("different algorithm"), "{err}");

    // The current layout round-trips under the new tags.
    let mut fresh = AlgorithmB::new(&instance, oracle, AOptions::default());
    restore_run(&mut fresh, &instance, &save_run(&b, &instance, &Schedule::empty())).unwrap();
    let mut fresh = AlgorithmC::new(&instance, oracle, COptions::default());
    restore_run(&mut fresh, &instance, &save_run(&c, &instance, &Schedule::empty())).unwrap();
}
