//! `serve_tcp_fanout`: many short-lived tenants behind a real `rsz
//! serve` process. Tenants spread over four pool-key fleets; ticks go
//! round-robin, so one tenant's consecutive ticks are N apart. Load is
//! an open loop at a few fixed aggregate rates over two connections,
//! each tick timed from its due time. The run ends with SIGKILL, a
//! restart over the same state dir, and `/readyz`.
//!
//! History depth is irrelevant here; transport, parsing, admission,
//! the shared priced-slot pool and the N-dependent recovery dominate.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rsz_core::{Config, Schedule};
use rsz_dispatch::Dispatcher;
use rsz_online::algo_b::c_constant;
use rsz_serve::json::{self, Json};
use rsz_serve::protocol::{decision_line, parse_request, Request};
use rsz_serve::{build_controller, wal, Daemon, ServeOptions, TenantSpec};

use crate::common::{
    diurnal_loads, fresh_dir, median, mix, parse_reply, peak_rss_mb, quantile, settle, tick_line,
    unit, wchar, Args, Ops, Outcome, Reply, Size,
};
use crate::oracle::{cost_of, instance, plan, Timed};
use crate::spans::Spans;

/// The pool keys the tenant population collides on.
const FLEETS: [&str; 4] = ["cpu-gpu:2,1", "cpu-gpu:4,2", "old-new:2,2", "homogeneous:4"];
/// Connections (and generator threads) the load comes over.
const CONNS: usize = 2;
/// Tenant loads peak below the smallest fleet capacity (homogeneous:4).
const LOAD_CAP: f64 = 3.5;
/// Lines per pipelined batch in closed-loop phases.
const BATCH: usize = 256;
/// How close to a due time the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

struct Params {
    tenants: usize,
    /// Tenant `i` takes `i % stagger` closed-loop ticks before the open
    /// loop starts. With `stagger` a multiple of 16 the daemon's
    /// per-tenant snapshot and fingerprint cadences (every 16 and 8
    /// ticks) fall evenly over each round instead of on every tenant in
    /// the same round, and every round mixes young and old tenants.
    stagger: usize,
    /// `(offered aggregate ticks/s, rounds)`; one round is one tick of
    /// every tenant. Every phase at the first phase's rate is a
    /// reference window; the others climb the rate ladder.
    phases: Vec<(f64, usize)>,
    /// Ticks per tenant after recovery, checked against the direct run.
    extra: usize,
    setup_reps: usize,
    recovery_reps: usize,
    /// Latency limit on `tick_p99_us` for `max_rate_at_slo`.
    slo_us: f64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            tenants: 1000,
            stagger: 48,
            // Up the odd rungs and down the even ones, so the reference
            // windows late in tenant life follow light rungs, as the
            // early ones do.
            phases: ladder(
                2000.0,
                1,
                &[
                    3000.0, 5000.0, 6000.0, 7000.0, 8000.0, 10000.0, 13000.0, 9000.0, 7500.0,
                    6500.0, 5500.0, 4000.0,
                ],
                2,
            ),
            extra: 2,
            setup_reps: 3,
            recovery_reps: 5,
            slo_us: 10_000.0,
        },
        Size::Toy => Params {
            tenants: 40,
            stagger: 16,
            phases: ladder(400.0, 2, &[800.0, 1600.0], 4),
            extra: 2,
            setup_reps: 2,
            recovery_reps: 2,
            slo_us: 10_000.0,
        },
    }
}

/// Reference windows of `ref_rounds` at `reference` around each ladder
/// step of `step_rounds`: `R, L1, R, L2, …, R`.
fn ladder(
    reference: f64,
    ref_rounds: usize,
    steps: &[f64],
    step_rounds: usize,
) -> Vec<(f64, usize)> {
    let mut phases = vec![(reference, ref_rounds)];
    for &rate in steps {
        phases.push((rate, step_rounds));
        phases.push((reference, ref_rounds));
    }
    phases
}

fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

fn register_line(i: usize) -> String {
    format!(
        r#"{{"op":"register","tenant":"{}","fleet":"{}","algo":"b"}}"#,
        tenant_name(i),
        FLEETS[i % FLEETS.len()]
    )
}

fn spec_of(i: usize) -> TenantSpec {
    match parse_request(&register_line(i)) {
        Ok(Request::Register { spec, .. }) => spec,
        other => panic!("register line must parse: {other:?}"),
    }
}

/// An `rsz serve` child process on an ephemeral port.
struct Proc {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Proc {
    fn spawn(rsz: &Path, dir: &Path) -> Self {
        let mut child = Command::new(rsz)
            .args(["serve", "--addr", "127.0.0.1:0", "--state-dir"])
            .arg(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", rsz.display()));
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                panic!("rsz serve exited before listening");
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().expect("address").to_owned();
            }
        };
        // Keep draining so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Self { child, addr, drain: Some(drain) }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// SIGKILL and reap — also when a failed check or a panic unwinds past
/// the daemon, so no `rsz serve` outlives the run.
impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        let writer = stream.try_clone().expect("clone stream");
        Self { reader: BufReader::new(stream), writer }
    }

    fn read_reply(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(line.trim_end().to_owned()),
        }
    }

    /// Closed loop, pipelined in batches: one reply per line, in order.
    fn pipeline(&mut self, lines: &[String]) -> Vec<Option<String>> {
        let mut replies = Vec::with_capacity(lines.len());
        for chunk in lines.chunks(BATCH) {
            let mut buf = String::new();
            for l in chunk {
                buf.push_str(l);
                buf.push('\n');
            }
            if self.writer.write_all(buf.as_bytes()).is_err() {
                replies.extend(chunk.iter().map(|_| None));
                continue;
            }
            for _ in chunk {
                replies.push(self.read_reply());
            }
        }
        replies
    }
}

/// Spread lines over the connections by tenant (`owner[k]` is line
/// `k`'s tenant), pipeline each share, and return replies in input
/// order.
fn fan(conns: &mut [Conn], lines: &[String], owner: &[usize]) -> Vec<Option<String>> {
    let mut per: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (k, &i) in owner.iter().enumerate() {
        per[i % conns.len()].push(k);
    }
    let mut replies = vec![None; lines.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per)
            .map(|(conn, idx)| {
                let share: Vec<String> = idx.iter().map(|&k| lines[k].clone()).collect();
                s.spawn(move || conn.pipeline(&share))
            })
            .collect();
        for (h, idx) in handles.into_iter().zip(&per) {
            for (r, &k) in h.join().expect("pipeline thread").into_iter().zip(idx) {
                replies[k] = r;
            }
        }
    });
    replies
}

/// One open-loop tick: its line, when it was due, when it went out,
/// when its reply came back, and the reply.
struct Shot {
    tenant: usize,
    seq: usize,
    due: Instant,
    sent: Option<Instant>,
    recv: Option<Instant>,
    reply: Option<String>,
}

/// Per-rate results.
struct PhaseStats {
    rate: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    late_p99_us: f64,
    backlog_ok: bool,
    all_ok: bool,
}

/// Send `shots` on their due times over the connections (tenant `i`
/// on connection `i % CONNS`), one generator and one reader thread per
/// connection.
fn open_loop(conns: &mut [Conn], shots: &mut [Shot], lines: &[String]) {
    let n = conns.len();
    let mut per: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, s) in shots.iter().enumerate() {
        per[s.tenant % n].push(k);
    }
    let dues: Vec<Instant> = shots.iter().map(|s| s.due).collect();
    // Per connection: send times, and (reply time, reply) in order.
    type Sent = Vec<Option<Instant>>;
    type Got = Vec<(Option<Instant>, Option<String>)>;
    let mut results: Vec<(Sent, Got)> = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (conn, idx) in conns.iter_mut().zip(&per) {
            let Conn { reader, writer } = conn;
            let dues = &dues;
            let gen = s.spawn(move || {
                let mut sent = vec![None; idx.len()];
                let mut next = 0;
                let mut buf = String::new();
                while next < idx.len() {
                    let now = Instant::now();
                    let due = dues[idx[next]];
                    if due > now + SPIN {
                        // Sleep most of the way; spin the rest, so timer
                        // slack does not make every send late.
                        std::thread::sleep(due - now - SPIN);
                        continue;
                    }
                    if due > now {
                        std::hint::spin_loop();
                        continue;
                    }
                    buf.clear();
                    let first = next;
                    while next < idx.len() && dues[idx[next]] <= now {
                        buf.push_str(&lines[idx[next]]);
                        buf.push('\n');
                        next += 1;
                    }
                    if writer.write_all(buf.as_bytes()).is_err() {
                        break;
                    }
                    let at = Instant::now();
                    for slot in &mut sent[first..next] {
                        *slot = Some(at);
                    }
                }
                sent
            });
            let rx = s.spawn(move || {
                let mut got = Vec::with_capacity(idx.len());
                for _ in 0..idx.len() {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            got.push((Some(Instant::now()), Some(line.trim_end().to_owned())));
                        }
                    }
                }
                got.resize(idx.len(), (None, None));
                got
            });
            handles.push((gen, rx));
        }
        for (gen, rx) in handles {
            results.push((gen.join().expect("generator"), rx.join().expect("reader")));
        }
    });
    for ((sent, got), idx) in results.into_iter().zip(&per) {
        for ((s, (recv, reply)), &k) in sent.into_iter().zip(got).zip(idx) {
            shots[k].sent = s;
            shots[k].recv = recv;
            shots[k].reply = reply;
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Latency from due time, µs; a lost or failed tick counts as missing
/// any limit.
fn latency_us(s: &Shot) -> f64 {
    match (s.recv, &s.reply) {
        (Some(r), Some(line)) if line.starts_with("{\"ok\":true") => us(r - s.due),
        _ => f64::INFINITY,
    }
}

fn phase_stats(rate: f64, shots: &[&Shot], slo_us: f64) -> PhaseStats {
    let lat: Vec<f64> = shots.iter().map(|s| latency_us(s)).collect();
    let late: Vec<f64> = shots.iter().filter_map(|s| s.sent.map(|t| us(t - s.due))).collect();
    let tail = (shots.len() / 100).max(1);
    let backlog = median(&lat[lat.len() - tail..]);
    PhaseStats {
        rate,
        p50_us: quantile(&lat, 0.5),
        p99_us: quantile(&lat, 0.99),
        samples: lat.len(),
        late_p99_us: quantile(&late, 0.99),
        backlog_ok: backlog <= slo_us,
        all_ok: lat.iter().all(|l| l.is_finite()),
    }
}

/// The highest offered rate that meets the limit: the highest rate
/// whose phase meets it, interpolated in log–log space towards the
/// next higher rate (which does not) by where the limit falls between
/// their p99s. Capped at the highest rate when that one meets it too.
fn max_rate_at_slo(stats: &[PhaseStats], slo_us: f64) -> f64 {
    let meets = |s: &PhaseStats| s.all_ok && s.backlog_ok && s.p99_us <= slo_us;
    let mut sorted: Vec<&PhaseStats> = stats.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(best) = sorted.iter().rposition(|s| meets(s)) else {
        // Nothing meets the limit: scale the lowest rate down by how far
        // its p99 overshoots.
        return sorted[0].rate * slo_us / sorted[0].p99_us.min(1e12);
    };
    let Some(b) = sorted.get(best + 1) else { return sorted[best].rate };
    let a = sorted[best];
    let (la, lb) = (a.p99_us.ln(), b.p99_us.min(1e12).ln());
    let frac = ((slo_us.ln() - la) / (lb - la)).clamp(0.0, 1.0);
    (a.rate.ln() + frac * (b.rate.ln() - a.rate.ln())).exp()
}

/// The completion rate the daemon sustains: over the ladder rungs it
/// could not keep up with (replies came back more than 5% slower than
/// offered), all their ticks ÷ all their time from first due to last
/// reply. When it kept up with every rung, the highest completion rate.
fn sustained_rate(phase_shots: &[Vec<Shot>], phases: &[(f64, usize)]) -> f64 {
    let reference = phases[0].0;
    let (mut ticks, mut seconds) = (0.0, 0.0);
    let mut best = 0.0f64;
    for (shots, &(rate, _)) in phase_shots.iter().zip(phases).filter(|(_, ph)| ph.0 != reference) {
        let first = shots.iter().map(|s| s.due).min().expect("rung has ticks");
        let Some(last) = shots.iter().filter_map(|s| s.recv).max() else { continue };
        let done = shots.iter().filter(|s| latency_us(s).is_finite()).count();
        let busy = (last - first).as_secs_f64();
        let completed = done as f64 / busy;
        best = best.max(completed);
        if completed < rate / 1.05 {
            ticks += done as f64;
            seconds += busy;
        }
    }
    if seconds > 0.0 {
        ticks / seconds
    } else {
        best
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let epoch = Instant::now();
    let p = params(args.size);
    let rsz = args.rsz.clone().expect("serve_tcp_fanout needs --rsz PATH (the rsz binary)");
    let root = args.run_dir.join("serve_tcp_fanout");
    settle(&root);
    let n = p.tenants;
    let rounds: usize = p.phases.iter().map(|&(_, m)| m).sum();
    // Tenant i: `warm[i]` closed-loop ticks, the open-loop rounds, then
    // `extra` ticks after recovery.
    let warm: Vec<usize> = (0..n).map(|i| i % p.stagger).collect();
    let pre: Vec<usize> = warm.iter().map(|w| w + rounds).collect();
    let total: Vec<usize> = pre.iter().map(|k| k + p.extra).collect();
    out.context("tenants", n);
    out.context("fleets", FLEETS.join(" "));
    out.context("ticks_per_tenant", format!("{}..{}", total[0], rounds + p.stagger - 1 + p.extra));
    out.context("connections", CONNS);
    out.context("generator_threads", CONNS);
    out.context("slo_p99_us", p.slo_us);
    let shown: Vec<String> = p.phases.iter().map(|(r, m)| format!("{r}/s x{m} rounds")).collect();
    out.context("open_loop_phases", shown.join(", "));

    // --- set-up: traces, daemon start, registration (repeated) ---
    let mut setup_s = Vec::new();
    let mut setup_ops = Ops::default();
    let mut live: Option<(Proc, Vec<Conn>, Vec<Vec<f64>>)> = None;
    let dir = |rep: usize| root.join(format!("state{rep}"));
    for rep in 0..p.setup_reps {
        if let Some((proc_, conns, _)) = live.take() {
            drop(conns);
            drop(proc_);
        }
        // The previous set-up's thousand new files are still being
        // written back; without the sync each set-up is slower than the
        // one before it.
        settle(&dir(rep));
        let clock = Instant::now();
        let loads: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let seed = mix(args.seed, i as u64);
                let phase = unit(&mut mix(seed, 7));
                diurnal_loads(seed, total[i], 16, (0.3, 3.3), LOAD_CAP, phase)
            })
            .collect();
        let proc_ = Proc::spawn(&rsz, &dir(rep));
        let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&proc_.addr)).collect();
        let lines: Vec<String> = (0..n).map(register_line).collect();
        let owner: Vec<usize> = (0..n).collect();
        let replies = fan(&mut conns, &lines, &owner);
        setup_s.push(clock.elapsed().as_secs_f64());
        for r in &replies {
            match r {
                Some(r) => {
                    setup_ops.account(r);
                }
                None => setup_ops.lost(),
            }
        }
        live = Some((proc_, conns, loads));
    }
    out.phase("setup", setup_ops);
    let (proc_, mut conns, loads) = live.expect("set up");
    let dir = dir(p.setup_reps - 1);
    let tick_lines: Vec<Vec<String>> = (0..n)
        .map(|i| (0..total[i]).map(|s| tick_line(&tenant_name(i), s, loads[i][s])).collect())
        .collect();
    let mut served: Vec<Vec<Option<Reply>>> = total.iter().map(|&t| vec![None; t]).collect();

    // --- warm-up: staggers the tenants' snapshot cadences ---
    let mut warm_ops = Ops::default();
    let (mut lines, mut owner, mut seqs) = (Vec::new(), Vec::new(), Vec::new());
    for (i, seq) in warm_order(&warm, p.stagger) {
        lines.push(tick_lines[i][seq].clone());
        owner.push(i);
        seqs.push(seq);
    }
    for (k, r) in fan(&mut conns, &lines, &owner).into_iter().enumerate() {
        collect(&mut served, &mut warm_ops, owner[k], seqs[k], r);
    }
    out.phase("warmup", warm_ops);

    // --- open-loop phases ---
    let mut phase_shots: Vec<Vec<Shot>> = Vec::new();
    let mut round0 = 0;
    let mut tick_ops = Ops::default();
    for &(rate, m) in &p.phases {
        let start = Instant::now() + Duration::from_millis(20);
        let mut shots = Vec::with_capacity(m * n);
        let mut lines = Vec::with_capacity(m * n);
        for round in round0..round0 + m {
            for i in 0..n {
                let seq = warm[i] + round;
                let due = start + Duration::from_secs_f64(shots.len() as f64 / rate);
                shots.push(Shot { tenant: i, seq, due, sent: None, recv: None, reply: None });
                lines.push(tick_lines[i][seq].clone());
            }
        }
        open_loop(&mut conns, &mut shots, &lines);
        for s in &mut shots {
            collect(&mut served, &mut tick_ops, s.tenant, s.seq, s.reply.clone());
        }
        phase_shots.push(shots);
        round0 += m;
    }
    out.phase("open_loop", tick_ops);
    // One row per offered rate; the reference windows together make
    // the reference rate's row.
    let reference = p.phases[0].0;
    let windows: Vec<&Vec<Shot>> = phase_shots
        .iter()
        .zip(&p.phases)
        .filter(|(_, ph)| ph.0 == reference)
        .map(|(s, _)| s)
        .collect();
    let mut stats = vec![phase_stats(
        reference,
        &windows.iter().copied().flatten().collect::<Vec<_>>(),
        p.slo_us,
    )];
    for (shots, &(rate, _)) in phase_shots.iter().zip(&p.phases).filter(|(_, ph)| ph.0 != reference)
    {
        stats.push(phase_stats(rate, &shots.iter().collect::<Vec<_>>(), p.slo_us));
    }
    for s in &stats {
        out.note(format!(
            "offered {}/s: p50 {:.1} us p99 {:.1} us ({} samples) generator late p99 {:.1} us backlog_ok {} all_ok {}",
            s.rate, s.p50_us, s.p99_us, s.samples, s.late_p99_us, s.backlog_ok, s.all_ok
        ));
    }

    // --- counters, memory and disk of the daemon before it dies ---
    let metrics = conns[0]
        .pipeline(&["GET /metrics".to_owned()])
        .pop()
        .flatten()
        .and_then(|r| json::parse(&r).ok())
        .unwrap_or(Json::Null);
    let daemon_rss = peak_rss_mb(Some(proc_.pid()));
    let accepted: usize = pre.iter().sum();
    let disk_bytes = wchar(Some(proc_.pid())).unwrap_or(0);
    let disk_bytes_per_tick = disk_bytes as f64 / accepted as f64;
    let probe = args.trace.then(|| probe_recovery_layers(&dir, n));

    // --- SIGKILL → restart → ready, repeated ---
    drop(conns);
    let mut proc_ = proc_;
    let mut recovery_ms = Vec::new();
    let mut ready_ok = true;
    for _ in 0..p.recovery_reps {
        let clock = Instant::now();
        drop(proc_); // SIGKILL
        proc_ = Proc::spawn(&rsz, &dir);
        ready_ok &= wait_ready(&proc_.addr, n);
        recovery_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    out.check(
        "recovered_all_tenants",
        ready_ok,
        format!("/readyz reports {n} tenants, none quarantined"),
    );

    // --- recovered tenants resume at the right seq and decide on ---
    let mut conns: Vec<Conn> = (0..CONNS).map(|_| Conn::open(&proc_.addr)).collect();
    let owner: Vec<usize> = (0..n).collect();
    let mut recovery_ops = Ops::default();
    let reattach = fan(&mut conns, &(0..n).map(register_line).collect::<Vec<_>>(), &owner);
    let resumed_ok = reattach.iter().enumerate().all(|(i, r)| {
        r.as_deref().is_some_and(|r| recovery_ops.account(r))
            && r.as_deref()
                .and_then(|r| json::parse(r).ok())
                .and_then(|v| v.get("resumed_ticks")?.as_u64())
                == Some(pre[i] as u64)
    });
    out.check("recovery_resumes_at_seq", resumed_ok, "every tenant resumes at its accepted count");
    let dups: Vec<String> = (0..n).map(|i| tick_lines[i][pre[i] - 1].clone()).collect();
    let dup_replies = fan(&mut conns, &dups, &owner);
    let replay_ok = dup_replies.iter().enumerate().all(|(i, r)| {
        let reply = r.as_deref().and_then(parse_reply);
        recovery_ops.sent += 1;
        recovery_ops.ok += u64::from(reply.is_some());
        recovery_ops.failed += u64::from(reply.is_none());
        reply.is_some_and(|d| {
            d.replayed && Some(&d.config) == served[i][pre[i] - 1].as_ref().map(|r| &r.config)
        })
    });
    out.check("recovery_replays_committed", replay_ok, "last accepted seq of every tenant");
    for k in 0..p.extra {
        let lines: Vec<String> = (0..n).map(|i| tick_lines[i][pre[i] + k].clone()).collect();
        for (i, r) in fan(&mut conns, &lines, &owner).into_iter().enumerate() {
            collect(&mut served, &mut recovery_ops, i, pre[i] + k, r);
        }
    }
    out.phase("recovery", recovery_ops);
    drop(conns);
    drop(proc_);

    // --- direct runs and optima ---
    // Timed in interleaved chunks of tenants (every chunk holds every
    // fleet alike); the totals are chunks × the median chunk time.
    const CHUNKS: usize = 10;
    let mut online_s = [0.0; CHUNKS];
    let mut plan_s = [0.0; CHUNKS];
    let mut served_cost = 0.0;
    let mut opt_cost = 0.0;
    let mut decide_us = Vec::new();
    let mut mismatch = None;
    let mut bound_ok = true;
    let mut feasible = true;
    let mut pricing = (0u64, 0u64, 0.0f64);
    for i in 0..n {
        let spec = spec_of(i);
        let types = spec.server_types().expect("fleet parses");
        let full = instance(&types, &loads[i]);
        let ctl = build_controller(&spec, &full, spec.grid.mode()).expect("spec builds");
        let mut timed = Timed::new(ctl);
        let clock = Instant::now();
        let run = rsz_online::run(&full, &mut timed, &Dispatcher::new());
        online_s[i % CHUNKS] += clock.elapsed().as_secs_f64();
        decide_us.extend(timed.us);
        if mismatch.is_none() {
            mismatch = (0..total[i])
                .find(|&t| {
                    served[i][t].as_ref().map(|r| r.config.as_slice())
                        != Some(run.schedule.config(t).counts())
                })
                .map(|t| (i, t));
        }
        let horizon = instance(&types, &loads[i][..pre[i]]);
        let opt = plan(&horizon, args.trace);
        plan_s[i % CHUNKS] += opt.seconds;
        if let Some((a, b, c)) = opt.pricing {
            pricing = (pricing.0 + a, pricing.1 + b, pricing.2 + c);
        }
        let schedule = Schedule::new(
            served[i][..pre[i]]
                .iter()
                .map(|r| {
                    Config::new(
                        r.as_ref().map_or_else(|| vec![0; types.len()], |r| r.config.clone()),
                    )
                })
                .collect(),
        );
        let cost = cost_of(&horizon, &schedule);
        feasible &= schedule.is_feasible(&horizon) && opt.schedule.is_feasible(&horizon);
        let bound = 2.0 * types.len() as f64 + 1.0 + c_constant(&horizon);
        bound_ok &= cost / opt.cost <= bound && cost / opt.cost >= 1.0 - 1e-9;
        served_cost += cost;
        opt_cost += opt.cost;
    }
    let ticks: usize = total.iter().sum();
    let plan_s = CHUNKS as f64 * median(&plan_s);
    let online_s = CHUNKS as f64 * median(&online_s);
    out.check(
        "served_equals_direct_run",
        mismatch.is_none(),
        match mismatch {
            None => format!("{n} tenants, {ticks} ticks bit-identical to rsz_online::run"),
            Some((i, t)) => format!("first mismatch: tenant {i} tick {t}"),
        },
    );
    out.check("schedules_feasible", feasible, "served and optimal schedules, every tenant");
    out.check("cost_ratio_within_thm13", bound_ok, "every tenant's B/OPT <= 2d+1+c(I)");

    // --- the same tick sequence in-process: the daemon's own latency ---
    // Untraced runs replay it here; the traced run does so below, with
    // spans.
    let handle_us = if args.trace {
        Vec::new()
    } else {
        in_process_layers(&p, &root, &tick_lines, &warm, &phase_shots, None, out)
    };

    // --- metrics ---
    // Reference-rate latency: per-window quantiles, median over windows.
    let per_window = |q: f64| -> Vec<f64> {
        windows.iter().map(|w| quantile(&w.iter().map(latency_us).collect::<Vec<_>>(), q)).collect()
    };
    // Growth: old tenants over young ones in the same reference
    // windows (so drift in machine speed cancels), leaving out each
    // tenant's first tick (it builds the controller).
    let cohort = |old: bool| -> Vec<f64> {
        let quarter = p.stagger / 4;
        windows
            .iter()
            .copied()
            .flatten()
            .filter(|s| {
                s.seq > 0
                    && if old {
                        warm[s.tenant] >= p.stagger - quarter
                    } else {
                        warm[s.tenant] < quarter
                    }
            })
            .map(latency_us)
            .collect()
    };
    let growth = median(&cohort(true)) / median(&cohort(false));
    let max_rate = max_rate_at_slo(&stats, p.slo_us);
    let capacity = sustained_rate(&phase_shots, &p.phases);
    let late: Vec<f64> =
        phase_shots.iter().flatten().filter_map(|s| s.sent.map(|t| us(t - s.due))).collect();
    out.metric("setup_s", median(&setup_s), "s");
    let reference_shots: Vec<&Shot> = windows.iter().copied().flatten().collect();
    let send_late: Vec<f64> =
        reference_shots.iter().filter_map(|s| s.sent.map(|t| us(t - s.due))).collect();
    let round_trip: Vec<f64> =
        reference_shots.iter().filter_map(|s| Some(us(s.recv? - s.sent?))).collect();
    out.note(format!(
        "reference windows: median send lateness {:.1} us, median send-to-reply {:.1} us",
        median(&send_late),
        median(&round_trip)
    ));
    out.metric("tcp_p50_us", median(&per_window(0.5)), "us");
    out.metric("tcp_p99_us", median(&per_window(0.99)), "us");
    if !args.trace {
        out.metric("tick_p50_us", quantile(&handle_us, 0.5), "us");
        out.metric("tick_p99_us", quantile(&handle_us, 0.99), "us");
    }
    out.context("tick_samples_per_window", phase_shots[0].len());
    out.metric("ticks_per_s", capacity, "1/s");
    out.metric("max_rate_at_slo", max_rate, "1/s");
    out.metric("tick_growth", growth, "ratio");
    out.metric("recovery_ms", median(&recovery_ms), "ms");
    out.metric("plan_s", plan_s, "s");
    out.metric("online_s", online_s, "s");
    out.metric("cost_ratio", served_cost / opt_cost, "ratio");
    out.metric("peak_rss_mb", daemon_rss, "MiB");
    out.metric("disk_bytes_per_tick", disk_bytes_per_tick, "B");
    out.metric("gen.late_us_p99", quantile(&late, 0.99), "us");
    out.context("reference_windows", windows.len());
    out.context("tick_samples_reference_rate", windows.iter().map(|w| w.len()).sum::<usize>());
    let shown: Vec<String> = recovery_ms.iter().map(|r| format!("{r:.1}")).collect();
    out.note(format!("recovery_ms per restart: {}", shown.join(" ")));

    if args.trace {
        let counter = |k: &str| metrics.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        out.metric("serve.daemon.pool_hit_rate", counter("pool_hit_rate"), "ratio");
        out.metric("serve.daemon.shed", counter("shed"), "count");
        out.metric("serve.daemon.snapshots", counter("snapshots"), "count");
        out.metric("serve.daemon.segments_sealed", counter("segments_sealed"), "count");
        // Engine counters are pool-wide: every tenant of a pool key reports
        // its pool's, so count one tenant per fleet (tenant i is on fleet
        // i mod 4).
        let (mut pricings, mut hits) = (0.0, 0.0);
        for i in 0..FLEETS.len() {
            let t = metrics.get("tenants").and_then(|t| t.get(&tenant_name(i)));
            let count = |k: &str| t.and_then(|t| t.get(k)).and_then(Json::as_f64).unwrap_or(0.0);
            pricings += count("pool_pricings");
            hits += count("pool_hits");
        }
        out.metric("offline.engine.pricings", pricings, "count");
        out.metric("offline.engine.pool_hits", hits, "count");
        out.metric("offline.engine.hit_rate", hits / (pricings + hits).max(1.0), "ratio");
        out.metric("serve.disk_bytes_per_tick", disk_bytes_per_tick, "B");
        out.metric("online.decide_us_p50", quantile(&decide_us, 0.5), "us");
        out.metric("online.decide_us_p99", quantile(&decide_us, 0.99), "us");
        let exact = served.iter().flatten().flatten().filter(|r| r.exact).count();
        out.metric("online.rung_exact_frac", exact as f64 / ticks as f64, "ratio");
        out.metric(
            "serve.daemon.recovery_per_tenant_us",
            median(&recovery_ms) * 1e3 / n as f64,
            "us",
        );
        if let Some(probe) = probe {
            out.metric("serve.wal.list_segments_us", probe.list_us, "us");
            out.metric("serve.wal.list_segments_total_ms", probe.list_total_ms, "ms");
            out.metric("serve.wal.segments", probe.segments as f64, "count");
            out.metric("serve.wal.scan_ms", probe.scan_ms, "ms");
        }
        out.metric("dispatch.slot_opens", pricing.0 as f64, "count");
        out.metric("dispatch.evals", pricing.1 as f64, "count");
        out.metric("dispatch.busy_s", pricing.2, "s");
        out.metric("offline.plan_self_s", plan_s - pricing.2, "s");
        let mut spans = Spans::since(epoch);
        for (k, shot) in phase_shots.iter().flatten().enumerate() {
            if let (Some(sent), Some(recv)) = (shot.sent, shot.recv) {
                spans.record("client.wait", k as u64, shot.due, sent);
                spans.record("client.round_trip", k as u64, sent, recv);
            }
        }
        in_process_layers(&p, &root, &tick_lines, &warm, &phase_shots, Some(&mut spans), out);
        out.metric("trace.spans", spans.len() as f64, "count");
        let path = args.run_dir.join("spans-serve_tcp_fanout.jsonl");
        if let Err(e) = spans.write(&path) {
            out.note(format!("could not write spans to {}: {e}", path.display()));
        }
    }
}

/// The warm-up ticks `(tenant, seq)`, round-robin by seq.
fn warm_order(warm: &[usize], stagger: usize) -> Vec<(usize, usize)> {
    (0..stagger)
        .flat_map(|seq| (0..warm.len()).filter(move |&i| seq < warm[i]).map(move |i| (i, seq)))
        .collect()
}

/// Account one tick reply and keep the decision it carries.
fn collect(
    served: &mut [Vec<Option<Reply>>],
    ops: &mut Ops,
    tenant: usize,
    seq: usize,
    reply: Option<String>,
) {
    match reply {
        Some(r) => {
            if ops.account(&r) {
                served[tenant][seq] = parse_reply(&r);
            }
        }
        None => ops.lost(),
    }
}

/// Poll `/readyz` until the daemon is ready with every tenant resumed
/// and none quarantined.
fn wait_ready(addr: &str, tenants: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut conn = Conn::open(addr);
    while Instant::now() < deadline {
        let reply = conn.pipeline(&["GET /readyz".to_owned()]).pop().flatten();
        let v = reply.as_deref().and_then(|r| json::parse(r).ok());
        let ready = v.as_ref().and_then(|v| v.get("ready")?.as_bool()) == Some(true);
        let count = v.as_ref().and_then(|v| v.get("tenants")?.as_u64());
        let quarantined = v.as_ref().and_then(|v| v.get("quarantined")?.as_u64());
        if ready && count == Some(tenants as u64) && quarantined == Some(0) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

/// Recovery-layer costs over the surviving files: one directory scan
/// per tenant (what recovery does for each), and every WAL's scan.
struct RecoveryProbe {
    list_us: f64,
    list_total_ms: f64,
    segments: usize,
    scan_ms: f64,
}

fn probe_recovery_layers(dir: &Path, tenants: usize) -> RecoveryProbe {
    let mut list_us = Vec::with_capacity(tenants);
    let mut segments = 0;
    for i in 0..tenants {
        let clock = Instant::now();
        segments += wal::list_segments(dir, &tenant_name(i)).len();
        list_us.push(clock.elapsed().as_secs_f64() * 1e6);
    }
    let clock = Instant::now();
    for i in 0..tenants {
        let bytes = wal::read_file(&wal::wal_path(dir, &tenant_name(i))).unwrap_or_default();
        std::hint::black_box(wal::scan(&bytes));
    }
    let scan_ms = clock.elapsed().as_secs_f64() * 1e3;
    RecoveryProbe {
        list_us: median(&list_us),
        list_total_ms: list_us.iter().sum::<f64>() / 1e3,
        segments,
        scan_ms,
    }
}

/// The same registration and tick sequence through `Daemon::handle`
/// in-process (no transport), plus the protocol parse and encode of
/// every tick: what the TCP latency is compared against. Returns the
/// `handle` times, µs, in sequence order.
fn in_process_layers(
    p: &Params,
    root: &Path,
    tick_lines: &[Vec<String>],
    warm: &[usize],
    phase_shots: &[Vec<Shot>],
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> Vec<f64> {
    let dir = fresh_dir(&root.join("in_process"));
    let daemon = Daemon::new(ServeOptions { state_dir: dir.clone(), ..ServeOptions::default() })
        .expect("in-process state dir");
    for i in 0..p.tenants {
        daemon.handle(&register_line(i));
    }
    for (i, seq) in warm_order(warm, p.stagger) {
        daemon.handle(&tick_lines[i][seq]);
    }
    let mut handle_us = Vec::new();
    let mut parse_us = Vec::new();
    let mut encode_us = Vec::new();
    let mut ref_handle = Vec::new();
    let is_ref = |k: usize| p.phases[k].0 == p.phases[0].0;
    let since = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    for (k, shots) in phase_shots.iter().enumerate() {
        for (j, s) in shots.iter().enumerate() {
            let tick = (k * shots.len() + j) as u64;
            let line = &tick_lines[s.tenant][s.seq];
            let start = Instant::now();
            let reply = daemon.handle(line);
            let end = Instant::now();
            if let Some(spans) = spans.as_deref_mut() {
                spans.record("daemon.handle", tick, start, end);
            }
            handle_us.push(since(start, end));
            if is_ref(k) {
                ref_handle.push(since(start, end));
            }
            let start = Instant::now();
            let parsed = parse_request(line);
            let end = Instant::now();
            if let Some(spans) = spans.as_deref_mut() {
                spans.record("protocol.parse", tick, start, end);
            }
            parse_us.push(since(start, end));
            if let (Ok(Request::Tick { seq, .. }), Some(r)) = (parsed, parse_reply(&reply)) {
                let config = Config::new(r.config);
                let start = Instant::now();
                std::hint::black_box(decision_line(seq, &config, rsz_online::Rung::Exact, false));
                let end = Instant::now();
                if let Some(spans) = spans.as_deref_mut() {
                    spans.record("protocol.encode", tick, start, end);
                }
                encode_us.push(since(start, end));
            }
        }
    }
    drop(daemon);
    let tcp: Vec<f64> = phase_shots
        .iter()
        .enumerate()
        .filter(|&(k, _)| is_ref(k))
        .flat_map(|(_, shots)| shots)
        .filter_map(|s| Some(us(s.recv? - s.sent?)))
        .collect();
    out.metric("serve.daemon.handle_us", median(&handle_us), "us");
    out.metric("serve.protocol.parse_us", median(&parse_us), "us");
    out.metric("serve.protocol.encode_us", median(&encode_us), "us");
    out.metric("serve.server.transport_us", median(&tcp) - median(&ref_handle), "us");
    handle_us
}
