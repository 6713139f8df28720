//! Shared plumbing: arguments, statistics, `/proc` probes, and the
//! result record every workload fills in.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How big a run is: `Full` is the benchmark, `Toy` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Toy,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// The `rsz` binary the TCP workload starts as its daemon.
    pub rsz: Option<PathBuf>,
    /// Working directory for state dirs and span dumps.
    pub run_dir: PathBuf,
    pub commit: String,
}

impl Args {
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
        let mut i = 0;
        while i < raw.len() {
            let key = raw[i].as_str();
            let value = raw.get(i + 1).ok_or_else(|| format!("{key} needs a value"))?;
            if !key.starts_with("--") {
                return Err(format!("unexpected argument `{key}`"));
            }
            flags.insert(key, value.as_str());
            i += 2;
        }
        let get = |k: &str| flags.get(k).copied();
        let workload = get("--workload").ok_or("--workload is required")?.to_owned();
        let seed = get("--seed").unwrap_or("1").parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 =
            get("--seconds").unwrap_or("10").parse().map_err(|e| format!("--seconds: {e}"))?;
        let trace = match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        };
        let size = match get("--size").unwrap_or("full") {
            "full" => Size::Full,
            "toy" => Size::Toy,
            other => return Err(format!("--size must be full or toy, not `{other}`")),
        };
        Ok(Self {
            workload,
            seed,
            seconds,
            trace,
            size,
            rsz: get("--rsz").map(PathBuf::from),
            run_dir: PathBuf::from(get("--run-dir").unwrap_or(".bench_run")),
            commit: get("--commit").unwrap_or("unknown").to_owned(),
        })
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a SplitMix64 state.
pub fn unit(state: &mut u64) -> f64 {
    *state = mix(*state, 1);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Quantile by linear interpolation between order statistics.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Microseconds since `start`.
#[must_use]
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// One field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`, ...).
fn status_kb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process or of `pid`, in MiB.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_kb(pid, "VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Bytes passed to `write(2)`-family calls so far (`wchar` of
/// `/proc/<pid>/io`). Sockets written with `send(2)`, as Rust's
/// `TcpStream` does, are not counted, so this is file output.
#[must_use]
pub fn wchar(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/io"),
        None => "/proc/self/io".to_owned(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("wchar:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_owned());
    for line in mounts.lines() {
        let mut parts = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if abs.starts_with(point) && point.len() >= best.0 {
            best = (point.len(), kind.to_owned());
        }
    }
    best.1
}

/// A diurnal load trace with Gaussian noise, clamped to `[0, cap]`:
/// `period` slots per day, the daily peak shifted by `phase` (a
/// fraction of the period); `seed` draws the noise.
#[must_use]
pub fn diurnal_loads(
    seed: u64,
    len: usize,
    period: usize,
    range: (f64, f64),
    cap: f64,
    phase: f64,
) -> Vec<f64> {
    let (lo, hi) = range;
    let base = rsz_workloads::patterns::diurnal(len, lo, hi - lo, period, phase);
    let noisy = rsz_workloads::stochastic::with_gaussian_noise(&base, 0.08 * (hi - lo), seed);
    noisy.values().iter().map(|v| v.clamp(0.0, cap)).collect()
}

/// `{"op":"tick",...}` for one tenant tick.
#[must_use]
pub fn tick_line(tenant: &str, seq: usize, load: f64) -> String {
    format!(r#"{{"op":"tick","tenant":"{tenant}","seq":{seq},"load":{load}}}"#)
}

/// A decision reply, parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    pub config: Vec<u32>,
    pub exact: bool,
    pub replayed: bool,
}

/// Parse a tick reply; `None` for an error reply or garbage.
#[must_use]
pub fn parse_reply(line: &str) -> Option<Reply> {
    use rsz_serve::json::{self, Json};
    let v = json::parse(line).ok()?;
    if v.get("ok")?.as_bool()? {
        let Json::Arr(items) = v.get("config")? else { return None };
        let config = items
            .iter()
            .map(|i| i.as_u64().and_then(|c| u32::try_from(c).ok()))
            .collect::<Option<Vec<u32>>>()?;
        let exact = v.get("rung")?.as_str()? == "exact";
        let replayed = v.get("replayed")?.as_bool()?;
        Some(Reply { config, exact, replayed })
    } else {
        None
    }
}

/// Median of `samples` over each consecutive block of `block` entries.
#[must_use]
pub fn block_medians(samples: &[f64], block: usize) -> Vec<f64> {
    samples.chunks(block).filter(|c| c.len() == block).map(median).collect()
}

/// Delete what an earlier run left under `dir` and flush the
/// filesystem, so that deferred work from the deletion does not land
/// in this run's timings. Runs leave their state behind for the same
/// reason; the next run clears it here, untimed.
pub fn settle(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    let _ = std::process::Command::new("sync").arg("-f").arg(dir).status();
}

/// Remove and recreate a directory.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir.to_path_buf()
}

/// Operations of one phase, for failure accounting.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub shed: u64,
    pub refused: u64,
}

impl Ops {
    /// Account one reply line: `ok`, or the error code that names
    /// shedding (`overloaded`) or refusal (`not_primary`), else failed.
    pub fn account(&mut self, reply: &str) -> bool {
        self.sent += 1;
        if reply.starts_with("{\"ok\":true") {
            self.ok += 1;
            true
        } else if reply.contains("\"overloaded\"") {
            self.shed += 1;
            false
        } else if reply.contains("\"not_primary\"") {
            self.refused += 1;
            false
        } else {
            self.failed += 1;
            false
        }
    }

    /// Count an operation whose reply never arrived.
    pub fn lost(&mut self) {
        self.sent += 1;
        self.failed += 1;
    }

    #[must_use]
    pub fn bad(&self) -> u64 {
        self.failed + self.shed + self.refused
    }
}

/// Everything a workload reports: metrics, context, checks and
/// per-phase failure accounting.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub context: Vec<(String, String)>,
    pub checks: Vec<(String, bool, String)>,
    pub phases: Vec<(String, Ops)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_owned(), value.to_string()));
    }

    /// Record an output check; a failed check fails the run. Repeated
    /// checks of one name merge: all must pass, the first failure's
    /// detail is kept.
    pub fn check(&mut self, name: &str, pass: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) if entry.1 => *entry = (name.to_owned(), pass, detail.into()),
            Some(_) => {}
            None => self.checks.push((name.to_owned(), pass, detail.into())),
        }
    }

    /// Account a phase's operations; repeated phases of one name add up.
    pub fn phase(&mut self, name: &str, ops: Ops) {
        match self.phases.iter_mut().find(|(n, _)| n == name) {
            Some((_, o)) => {
                o.sent += ops.sent;
                o.ok += ops.ok;
                o.failed += ops.failed;
                o.shed += ops.shed;
                o.refused += ops.refused;
            }
            None => self.phases.push((name.to_owned(), ops)),
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|(_, o)| o.sent).sum()
    }

    #[must_use]
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, o)| o.bad()).sum()
    }
}
