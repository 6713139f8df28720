//! `rszbench`: the right-sizing stack's end-to-end and per-layer
//! benchmark. See `README.md` next to this crate for the command, the
//! workloads and how the traced run differs.
//!
//! ```text
//! rszbench --workload NAME --seed N --seconds S --trace 0|1
//!          [--size full|toy] [--rsz PATH] [--run-dir DIR] [--commit ID]
//! ```
//!
//! Prints one report line per context value, output check, phase,
//! metric and note, then — as the last line of standard output — one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`).

mod common;
mod fanout;
mod long_horizon;
mod oracle;
mod solver;
mod spans;

use std::process::ExitCode;

use common::{Args, Outcome};

const WORKLOADS: [&str; 3] = ["serve_long_horizon", "serve_tcp_fanout", "solver_timevarying"];

/// End-to-end metrics: every workload reports each of them untraced.
/// (`tick_p99_us`, `max_rate_at_slo`, `disk_bytes_per_tick` and
/// `error_rate` are reported too, but not listed: see README.md.)
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tick_p50_us", "us"),
    ("ticks_per_s", "1/s"),
    ("tick_growth", "ratio"),
    ("recovery_ms", "ms"),
    ("plan_s", "s"),
    ("online_s", "s"),
    ("cost_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("serve.tenant.prefix_instance_us", "us"),
    ("serve.replication.fingerprint_us", "us"),
    ("serve.replication.fingerprint_us_per_tick", "us"),
    ("serve.daemon.plain_tick_us.first", "us"),
    ("serve.daemon.plain_tick_us.last", "us"),
    ("serve.daemon.fp_tick_us.first", "us"),
    ("serve.daemon.fp_tick_us.last", "us"),
    ("serve.daemon.snapshot_tick_us.first", "us"),
    ("serve.daemon.snapshot_tick_us.last", "us"),
    ("serve.daemon.snapshot_us", "us"),
    ("serve.daemon.snapshot_bytes", "B"),
    ("serve.wal.append_us", "us"),
    ("serve.wal.frame_bytes", "B"),
    ("serve.disk_bytes_per_tick", "B"),
    ("online.decide_us_p50", "us"),
    ("online.decide_us_p99", "us"),
    ("online.rung_exact_frac", "ratio"),
    ("online.dispatch.slot_opens", "count"),
    ("online.dispatch.evals", "count"),
    ("online.dispatch.busy_s", "s"),
    ("online.self_s", "s"),
    ("serve.wal.list_segments_us", "us"),
    ("serve.wal.list_segments_total_ms", "ms"),
    ("serve.wal.scan_ms", "ms"),
    ("serve.wal.segments", "count"),
    ("serve.daemon.recovery_per_tenant_us", "us"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.daemon.handle_us", "us"),
    ("serve.server.transport_us", "us"),
    ("serve.daemon.pool_hit_rate", "ratio"),
    ("serve.daemon.shed", "count"),
    ("serve.daemon.snapshots", "count"),
    ("serve.daemon.segments_sealed", "count"),
    ("gen.late_us_p99", "us"),
    ("dispatch.slot_opens", "count"),
    ("dispatch.evals", "count"),
    ("dispatch.busy_s", "s"),
    ("offline.plan_self_s", "s"),
    ("offline.engine.pricings", "count"),
    ("offline.engine.pool_hits", "count"),
    ("offline.engine.hit_rate", "ratio"),
    ("offline.recovery.segment_len", "count"),
    ("offline.recovery.checkpoints", "count"),
    ("offline.recovery.peak_live_tables", "count"),
    ("offline.recovery.pooled_pricing_tables", "count"),
    ("serve.daemon.unattributed_us", "us"),
    ("trace.overhead_us", "us"),
    ("trace.spans", "count"),
    ("ops.attempted", "count"),
    ("ops.failed", "count"),
    ("ops.shed", "count"),
    ("ops.refused", "count"),
];

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rszbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    out.context("workload", &args.workload);
    out.context("seed", args.seed);
    out.context("seconds", args.seconds);
    out.context("trace", u8::from(args.trace));
    out.context("size", format!("{:?}", args.size).to_lowercase());
    out.context("nproc", std::thread::available_parallelism().map_or(1, usize::from));
    if let Err(e) = std::fs::create_dir_all(&args.run_dir) {
        eprintln!("rszbench: cannot create {}: {e}", args.run_dir.display());
        return ExitCode::from(2);
    }
    out.context("state_fs", common::fs_type(&args.run_dir));
    out.context("fsync", "off (ServeOptions default)");
    out.context("commit", &args.commit);
    match args.workload.as_str() {
        "serve_long_horizon" => long_horizon::run(&args, &mut out),
        "serve_tcp_fanout" => fanout::run(&args, &mut out),
        "solver_timevarying" => solver::run(&args, &mut out),
        other => {
            eprintln!("rszbench: unknown workload `{other}` (one of {})", WORKLOADS.join(", "));
            return ExitCode::from(2);
        }
    }
    finish(&args, &out)
}

/// Print the report and the result line; a failed check fails the run.
fn finish(args: &Args, out: &Outcome) -> ExitCode {
    for (k, v) in &out.context {
        println!("context {k} {v}");
    }
    for (name, ops) in &out.phases {
        println!(
            "phase {name} sent={} ok={} failed={} shed={} refused={}",
            ops.sent, ops.ok, ops.failed, ops.shed, ops.refused
        );
    }
    let attempted = out.attempted().max(1);
    let failed = out.failed();
    println!("metric error_rate {} ratio", failed as f64 / attempted as f64);
    for (name, (value, unit)) in &out.metrics {
        println!("metric {name} {value} {unit}");
    }
    for note in &out.notes {
        println!("note {note}");
    }
    let mut correct = true;
    for (name, pass, detail) in &out.checks {
        correct &= *pass;
        println!("check {name} {} {detail}", if *pass { "PASS" } else { "FAIL" });
    }

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = match (name, out.metrics.get(*name)) {
            (_, Some((v, u))) => {
                assert_eq!(u, unit, "metric {name} reported in {u}, listed in {unit}");
                *v
            }
            (&"ops.attempted", None) => attempted as f64,
            (&"ops.failed", None) => out.phases.iter().map(|(_, o)| o.failed).sum::<u64>() as f64,
            (&"ops.shed", None) => out.phases.iter().map(|(_, o)| o.shed).sum::<u64>() as f64,
            (&"ops.refused", None) => out.phases.iter().map(|(_, o)| o.refused).sum::<u64>() as f64,
            // A layer this workload does not exercise.
            (_, None) if args.trace => 0.0,
            (_, None) => panic!("workload {} did not report {name}", args.workload),
        };
        if !value.is_finite() {
            correct = false;
            println!("check metric_finite FAIL {name} = {value}");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
