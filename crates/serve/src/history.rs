//! Per-tenant history log: accepted loads and committed decisions.
//!
//! A snapshot (`<tenant>.snap`) carries only the controller's resumable
//! core, whose size does not depend on how many ticks the tenant has
//! taken. What does grow — the accepted loads and the decisions served
//! for them — goes here, `<tenant>.hist`, appended once per snapshot as
//! one delta record covering the ticks accepted since the previous one.
//! Records use the WAL's `[len][payload][FNV-1a]` framing; the first
//! record names the tenant and its spec so the log is self-describing.
//!
//! The log is written *before* the snapshot that relies on it (and
//! synced first when fsync is on), so a snapshot at `k` never outruns
//! the history. The reverse can happen — a crash between the append and
//! the snapshot rename — and is harmless: recovery cuts the decisions at
//! the snapshot's `k` and replays the rest, and the next delta starts
//! where the log ends.

use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use rsz_core::Config;
use rsz_offline::{Decoder, Encoder, SnapshotError};

use crate::protocol::wire;
use crate::spec::TenantSpec;
use crate::wal::{self, WalTail};

/// Ticks per delta record at most, so one record stays far below
/// [`wal::MAX_RECORD`] whatever the snapshot cadence.
const DELTA_TICKS: usize = 4096;

/// `<dir>/<tenant>.hist`
#[must_use]
pub fn hist_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.hist"))
}

/// One history record.
#[derive(Clone, Debug, PartialEq)]
enum Record {
    /// First record of the log: whose history it is.
    Header { tenant: String, spec: TenantSpec },
    /// Loads and decisions of seqs `start .. start + loads.len()`.
    Delta { start: u64, loads: Vec<f64>, decisions: Vec<Config> },
}

fn encode_header(tenant: &str, spec: &TenantSpec) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(1);
    enc.put_bytes(tenant.as_bytes());
    spec.encode(&mut enc);
    enc.payload().to_vec()
}

fn encode_delta(start: usize, loads: &[f64], decisions: &[Config]) -> Vec<u8> {
    let d = decisions.first().map_or(0, |c| c.counts().len());
    let mut enc = Encoder::new();
    enc.put_u8(2);
    enc.put_u64(start as u64);
    enc.put_usize(loads.len());
    enc.put_usize(d);
    for &load in loads {
        enc.put_f64(load);
    }
    for config in decisions {
        debug_assert_eq!(config.counts().len(), d, "one fleet, one dimension");
        for &c in config.counts() {
            enc.put_u32(c);
        }
    }
    enc.payload().to_vec()
}

fn decode(payload: &[u8]) -> Result<Record, SnapshotError> {
    let mut dec = Decoder::over(payload);
    let record = match dec.take_u8()? {
        1 => Record::Header {
            tenant: wire::take_str(&mut dec, "history tenant name")?,
            spec: TenantSpec::decode(&mut dec)?,
        },
        2 => {
            let start = dec.take_u64()?;
            let n = dec.take_usize()?;
            if n > DELTA_TICKS {
                return Err(SnapshotError::Corrupt("history delta longer than a record holds"));
            }
            let d = dec.take_usize()?;
            if d > 64 {
                return Err(SnapshotError::Corrupt("history decision dimension out of range"));
            }
            let mut loads = Vec::with_capacity(n);
            for _ in 0..n {
                loads.push(dec.take_f64()?);
            }
            let mut decisions = Vec::with_capacity(n);
            for _ in 0..n {
                let mut counts = Vec::with_capacity(d);
                for _ in 0..d {
                    counts.push(dec.take_u32()?);
                }
                decisions.push(Config::new(counts));
            }
            Record::Delta { start, loads, decisions }
        }
        _ => return Err(SnapshotError::Corrupt("unknown history record tag")),
    };
    if !dec.is_empty() {
        return Err(SnapshotError::Corrupt("trailing bytes inside a history record"));
    }
    Ok(record)
}

/// Append the ticks `start .. start + loads.len()` to the log at `path`,
/// creating it (header first) when absent or empty. With `fsync` the
/// records reach stable storage before this returns. On failure the log
/// is cut back to its previous length. Returns the bytes written.
pub(crate) fn append(
    path: &Path,
    tenant: &str,
    spec: &TenantSpec,
    start: usize,
    loads: &[f64],
    decisions: &[Config],
    fsync: bool,
) -> io::Result<usize> {
    debug_assert_eq!(loads.len(), decisions.len());
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    let before = file.metadata()?.len();
    let mut bytes = Vec::new();
    if before == 0 {
        bytes.extend_from_slice(&wal::frame_payload(&encode_header(tenant, spec)));
    }
    for (i, (l, d)) in loads.chunks(DELTA_TICKS).zip(decisions.chunks(DELTA_TICKS)).enumerate() {
        let payload = encode_delta(start + i * DELTA_TICKS, l, d);
        bytes.extend_from_slice(&wal::frame_payload(&payload));
    }
    let written =
        file.write_all(&bytes).and_then(|()| if fsync { file.sync_data() } else { Ok(()) });
    if let Err(e) = written {
        // Never leave a partial record for the next append to follow:
        // a torn record mid-log would read back as corruption.
        let _ = file.set_len(before);
        return Err(e);
    }
    Ok(bytes.len())
}

/// A history log read back: the registration it names (if it got that
/// far) and the contiguous loads/decisions prefix from seq 0.
#[derive(Debug, Default)]
pub(crate) struct History {
    /// The spec the header records.
    pub(crate) spec: Option<TenantSpec>,
    /// Accepted loads, seqs `0..loads.len()`.
    pub(crate) loads: Vec<f64>,
    /// The decisions served for them, one per load.
    pub(crate) decisions: Vec<Config>,
}

/// Read the history log of `tenant` at `path`. A missing log is an
/// empty history; a torn tail (a crash mid-append) is truncated away,
/// as for the active WAL. Anything else that does not read back —
/// a failed checksum, a header naming another tenant, records out of
/// sequence — is an error with the reason: the log may be the only copy
/// of a compacted prefix, so it is never silently cut.
pub(crate) fn read(path: &Path, tenant: &str) -> Result<History, String> {
    let bytes = wal::read_file(path).map_err(|e| format!("history log unreadable: {e}"))?;
    let (records, intact_len, tail) = wal::scan_with(&bytes, decode);
    match tail {
        WalTail::Clean => {}
        WalTail::Torn { .. } => {
            wal::truncate_file(path, intact_len)
                .map_err(|e| format!("history log truncation failed: {e}"))?;
        }
        WalTail::Corrupt { start, end, what } => {
            return Err(format!("history log bytes {start}..{end} failed integrity: {what}"));
        }
    }
    let mut history = History::default();
    for (i, record) in records.into_iter().enumerate() {
        match record {
            Record::Header { tenant: owner, spec } if i == 0 => {
                if owner != tenant {
                    return Err(format!("history log belongs to tenant `{owner}`"));
                }
                history.spec = Some(spec);
            }
            Record::Header { .. } => return Err("history log restates its header".into()),
            Record::Delta { start, loads, decisions } => {
                if history.spec.is_none() {
                    return Err("history log lacks its header".into());
                }
                if start != history.loads.len() as u64 || loads.len() != decisions.len() {
                    return Err(format!("history delta at seq {start} is out of sequence"));
                }
                history.loads.extend_from_slice(&loads);
                history.decisions.extend(decisions);
            }
        }
    }
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GridSpec;

    fn spec() -> TenantSpec {
        TenantSpec {
            fleet: "homogeneous:4".into(),
            algo: "b".into(),
            engine: true,
            cache: false,
            grid: GridSpec::Full,
            deadline_us: None,
            snapshot_every: 0,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rsz-hist-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn configs(n: usize) -> Vec<Config> {
        (0..n).map(|i| Config::new(vec![(i % 4) as u32])).collect()
    }

    #[test]
    fn deltas_round_trip_and_torn_tails_are_cut() {
        let dir = tmp("round-trip");
        let path = hist_path(&dir, "t");
        let loads: Vec<f64> = (0..10).map(|i| f64::from(i) * 0.5).collect();
        let decisions = configs(10);
        append(&path, "t", &spec(), 0, &loads[..4], &decisions[..4], false).unwrap();
        let len_after_first = std::fs::metadata(&path).unwrap().len();
        append(&path, "t", &spec(), 4, &loads[4..], &decisions[4..], false).unwrap();
        let h = read(&path, "t").unwrap();
        assert_eq!(h.spec, Some(spec()));
        assert_eq!(h.loads, loads);
        assert_eq!(h.decisions, decisions);

        // A crash mid-append leaves a torn tail: cut, first delta kept.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let h = read(&path, "t").unwrap();
        assert_eq!(h.loads, loads[..4]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_after_first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn long_deltas_split_and_damage_is_an_error() {
        let dir = tmp("damage");
        let path = hist_path(&dir, "t");
        let n = DELTA_TICKS * 2 + 5;
        let loads = vec![1.25; n];
        append(&path, "t", &spec(), 0, &loads, &configs(n), false).unwrap();
        assert_eq!(read(&path, "t").unwrap().loads.len(), n);
        assert!(read(&path, "other").unwrap_err().contains("belongs to tenant"));

        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read(&path, "t").unwrap_err().contains("failed integrity"));

        // A delta that skips seqs is out of sequence.
        std::fs::remove_file(&path).unwrap();
        append(&path, "t", &spec(), 0, &[1.0], &configs(1), false).unwrap();
        append(&path, "t", &spec(), 2, &[1.0], &configs(1), false).unwrap();
        assert!(read(&path, "t").unwrap_err().contains("out of sequence"));
        assert!(read(&dir.join("missing.hist"), "t").unwrap().loads.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
