//! In-memory spans for the traced run.
//!
//! A span is a named interval with an optional parent and the tick it
//! belongs to; spans are kept in memory and written out as JSON lines
//! when the run ends. A span's *self time* is its duration minus the
//! durations of its children (children never overlap: every span here
//! is opened and closed on one thread, in call order).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

struct Rec {
    name: &'static str,
    parent: Option<usize>,
    tick: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    recs: Vec<Rec>,
}

impl Spans {
    #[must_use]
    pub fn new() -> Self {
        Self::since(Instant::now())
    }

    /// A recorder whose clock starts at `epoch` (for intervals measured
    /// before the recorder was made).
    #[must_use]
    pub fn since(epoch: Instant) -> Self {
        Self { epoch, recs: Vec::new() }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, tick: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.recs.push(Rec { name, parent: parent.map(|p| p.0), tick, start_ns, end_ns: start_ns });
        SpanId(self.recs.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        self.recs[id.0].end_ns = self.now_ns();
    }

    /// Record an interval measured elsewhere (e.g. a reply timestamp
    /// taken on another thread), relative to this recorder's epoch.
    pub fn record(&mut self, name: &'static str, tick: u64, start: Instant, end: Instant) {
        let at = |i: Instant| i.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.recs.push(Rec { name, parent: None, tick, start_ns, end_ns });
    }

    /// Self time in µs per `(name, tick)`, in recording order per name.
    #[must_use]
    pub fn self_us(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<(u64, f64)>> = BTreeMap::new();
        for (i, r) in self.recs.iter().enumerate() {
            let own = (r.end_ns - r.start_ns).saturating_sub(child_ns[i]);
            out.entry(r.name).or_default().push((r.tick, own as f64 / 1e3));
        }
        out
    }

    /// Whole duration in µs per `(name, tick)`, children included.
    #[must_use]
    pub fn total_us(&self) -> BTreeMap<&'static str, Vec<(u64, f64)>> {
        let mut out: BTreeMap<&'static str, Vec<(u64, f64)>> = BTreeMap::new();
        for r in &self.recs {
            out.entry(r.name).or_default().push((r.tick, (r.end_ns - r.start_ns) as f64 / 1e3));
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"tick\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.tick, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}
