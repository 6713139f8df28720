//! Smoke tests for the `rsz` binary: help text and a basic
//! generate-then-solve round trip through real process invocations.

use std::path::PathBuf;
use std::process::Command;

fn rsz() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rsz"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [vec!["--help"], vec!["-h"], vec!["help"], vec![]] {
        let out = rsz().args(&args).output().expect("spawn rsz");
        assert!(out.status.success(), "rsz {args:?} exited with {:?}", out.status);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "missing usage in output of rsz {args:?}: {stderr}");
        assert!(stderr.contains("rsz solve"), "usage must document the solve command");
        assert!(stderr.contains("rsz generate"), "usage must document the generate command");
    }
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = rsz().arg("frobnicate").output().expect("spawn rsz");
    assert!(!out.status.success(), "unknown command must not exit 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"), "stderr: {stderr}");
    assert!(stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn generate_then_solve_round_trip() {
    let dir = std::env::temp_dir().join(format!("rsz-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace: PathBuf = dir.join("trace.csv");
    let schedule: PathBuf = dir.join("schedule.csv");

    let gen = rsz()
        .args(["generate", "--pattern", "diurnal", "--len", "24", "--peak", "6", "--seed", "7"])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("spawn rsz generate");
    assert!(gen.status.success(), "generate failed: {}", String::from_utf8_lossy(&gen.stderr));
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let values =
        trace_text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).count();
    assert_eq!(values, 24, "trace must have one value per slot");

    let solve = rsz()
        .args(["solve", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:6,2", "--algorithm", "a"])
        .args(["--out", schedule.to_str().unwrap()])
        .output()
        .expect("spawn rsz solve");
    assert!(solve.status.success(), "solve failed: {}", String::from_utf8_lossy(&solve.stderr));
    let sched_text = std::fs::read_to_string(&schedule).expect("schedule written");
    assert!(!sched_text.trim().is_empty(), "schedule file must not be empty");

    // --cache must report identical costs plus a cache summary line.
    let cached = rsz()
        .args(["solve", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:6,2", "--algorithm", "a", "--cache"])
        .output()
        .expect("spawn rsz solve --cache");
    assert!(
        cached.status.success(),
        "solve --cache failed: {}",
        String::from_utf8_lossy(&cached.stderr)
    );
    let plain_out = String::from_utf8_lossy(&solve.stdout);
    let cached_out = String::from_utf8_lossy(&cached.stdout);
    let total_line = |s: &str| {
        s.lines().find(|l| l.starts_with("total cost:")).map(str::to_owned).expect("total line")
    };
    assert_eq!(total_line(&plain_out), total_line(&cached_out), "--cache changed the cost");
    assert!(cached_out.contains("g_t cache:"), "missing cache stats: {cached_out}");
    assert!(cached_out.contains("hit rate"), "missing hit rate: {cached_out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_reports_latency_and_cache_parity() {
    let dir = std::env::temp_dir().join(format!("rsz-simulate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace: PathBuf = dir.join("trace.csv");
    let gen = rsz()
        .args(["generate", "--pattern", "diurnal", "--len", "24", "--peak", "5", "--seed", "11"])
        .args(["--out", trace.to_str().unwrap()])
        .output()
        .expect("spawn rsz generate");
    assert!(gen.status.success(), "generate failed: {}", String::from_utf8_lossy(&gen.stderr));

    let total_line = |s: &str| {
        s.lines().find(|l| l.starts_with("total cost:")).map(str::to_owned).expect("total line")
    };
    // Cache off vs on: identical cost, both with a latency report and
    // the pricing pool's counters; the cached run additionally prints
    // its cache counters.
    let mut outputs = Vec::new();
    for cache in [false, true] {
        let mut cmd = rsz();
        cmd.args(["simulate", "--trace", trace.to_str().unwrap()]).args([
            "--fleet",
            "cpu-gpu:4,2",
            "--algo",
            "c:0.5",
        ]);
        if cache {
            cmd.arg("--cache");
        }
        let out = cmd.output().expect("spawn rsz simulate");
        assert!(
            out.status.success(),
            "simulate cache={cache} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("decision latency"), "missing latency report: {stdout}");
        assert!(stdout.contains("p99"), "missing percentiles: {stdout}");
        assert!(stdout.contains("engine pricing:"), "missing engine stats: {stdout}");
        assert_eq!(stdout.contains("g_t cache:"), cache, "cache stats gating: {stdout}");
        outputs.push(stdout);
    }
    assert_eq!(total_line(&outputs[0]), total_line(&outputs[1]), "--cache changed the cost");

    // LCP requires a homogeneous fleet and says so.
    let lcp = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "cpu-gpu:4,2", "--algo", "lcp"])
        .output()
        .expect("spawn rsz simulate lcp");
    assert!(!lcp.status.success(), "lcp on a heterogeneous fleet must fail");
    assert!(
        String::from_utf8_lossy(&lcp.stderr).contains("homogeneous"),
        "unhelpful lcp error: {}",
        String::from_utf8_lossy(&lcp.stderr)
    );

    // LCP on a homogeneous fleet reports its pricing.
    let lcp_ok = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "homogeneous:6", "--algo", "lcp"])
        .output()
        .expect("spawn rsz simulate lcp");
    assert!(
        lcp_ok.status.success(),
        "simulate lcp failed: {}",
        String::from_utf8_lossy(&lcp_ok.stderr)
    );
    let lcp_out = String::from_utf8_lossy(&lcp_ok.stdout);
    assert!(lcp_out.contains("engine pricing:"), "missing LCP engine stats: {lcp_out}");

    // RHC with an explicit window, pool + cache stacked.
    let rhc = rsz()
        .args(["simulate", "--trace", trace.to_str().unwrap()])
        .args(["--fleet", "homogeneous:6", "--algo", "rhc:3", "--cache"])
        .output()
        .expect("spawn rsz simulate rhc");
    assert!(rhc.status.success(), "simulate rhc failed: {}", String::from_utf8_lossy(&rhc.stderr));
    let rhc_out = String::from_utf8_lossy(&rhc.stdout);
    assert!(rhc_out.contains("RHC(w=3)"), "wrong algorithm banner: {rhc_out}");
    assert!(rhc_out.contains("engine pricing:"), "missing engine stats: {rhc_out}");
    assert!(rhc_out.contains("g_t cache:"), "missing cache stats: {rhc_out}");

    std::fs::remove_dir_all(&dir).ok();
}
