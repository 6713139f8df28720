//! A resilient client for the serve protocol.
//!
//! Used by `rsz simulate --remote`: connects with a timeout, retries
//! transient failures (connection refused/reset, `overloaded` replies)
//! with decorrelated-jitter backoff, and relies on idempotent sequence
//! numbers to make retransmission safe — a tick re-sent after a lost
//! reply is answered from the daemon's committed history, bit-identical
//! to the first answer.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rsz_core::Config;

use crate::json::{self, Json};
use crate::protocol::ErrorCode;
use crate::spec::TenantSpec;
use crate::tenant::backoff_delay;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientOptions {
    /// Per-attempt connect/read/write timeout.
    pub timeout: Duration,
    /// Attempts per request before giving up.
    pub max_attempts: u32,
    /// First retry gate (stretched with decorrelated jitter).
    pub backoff_base: Duration,
    /// Retry gate ceiling.
    pub backoff_cap: Duration,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(5),
            max_attempts: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// A client error after retries were exhausted.
#[derive(Debug)]
pub enum ClientError {
    /// Transport never recovered.
    Io(std::io::Error),
    /// The daemon answered with a non-retryable error.
    Daemon {
        /// Parsed error code, when the reply carried a known one.
        code: Option<ErrorCode>,
        /// The daemon's detail string.
        detail: String,
    },
    /// The reply was not a valid protocol line.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Daemon { code, detail } => match code {
                Some(c) => write!(f, "daemon error ({}): {detail}", c.as_str()),
                None => write!(f, "daemon error: {detail}"),
            },
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

/// One decided tick, as the daemon reported it.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Echoed sequence number.
    pub seq: u64,
    /// The configuration to actuate.
    pub config: Config,
    /// The degradation rung that produced it.
    pub rung: String,
    /// Whether this was replayed from committed history (a retransmit).
    pub replayed: bool,
}

/// A connected protocol client. Reconnects transparently between
/// attempts; state lives on the daemon, not here.
///
/// Knows the whole replica set: a transport failure or a `not_primary`
/// reply rotates to the next peer and retries there, and idempotent
/// sequence numbers make the retransmit safe — the committed prefix is
/// never double-applied, so a failover is invisible to the caller
/// beyond latency.
pub struct Client {
    peers: Vec<String>,
    current: usize,
    options: ClientOptions,
    stream: Option<BufReader<TcpStream>>,
    retries: u64,
    rotations: u64,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`).
    #[must_use]
    pub fn new(addr: &str, options: ClientOptions) -> Self {
        Self::with_peers(&[addr.to_owned()], options)
    }

    /// A client over a replica set. The first peer is tried first;
    /// failures and `not_primary` replies rotate through the rest.
    #[must_use]
    pub fn with_peers(peers: &[String], options: ClientOptions) -> Self {
        let mut peers: Vec<String> = peers.iter().filter(|p| !p.is_empty()).cloned().collect();
        if peers.is_empty() {
            // Degenerate but non-panicking: connect() will fail with
            // NotFound and surface through the normal error path.
            peers.push(String::new());
        }
        Self { peers, current: 0, options, stream: None, retries: 0, rotations: 0 }
    }

    /// The peer currently being targeted.
    #[must_use]
    pub fn current_peer(&self) -> &str {
        &self.peers[self.current]
    }

    /// Total retries performed so far (transport + overload).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Peer rotations performed so far (failovers, as the client saw
    /// them).
    #[must_use]
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// Drop the connection and advance to the next peer (no-op with a
    /// single peer beyond the reconnect).
    fn rotate(&mut self) {
        self.stream = None;
        if self.peers.len() > 1 {
            self.current = (self.current + 1) % self.peers.len();
            self.rotations += 1;
        }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.stream.is_none() {
            let addr = self.peers[self.current]
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
            let stream = TcpStream::connect_timeout(&addr, self.options.timeout)?;
            stream.set_read_timeout(Some(self.options.timeout))?;
            stream.set_write_timeout(Some(self.options.timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn round_trip_once(&mut self, line: &str) -> std::io::Result<String> {
        let reader = self.connect()?;
        let outcome = (|| {
            reader.get_mut().write_all(line.as_bytes())?;
            reader.get_mut().write_all(b"\n")?;
            reader.get_mut().flush()?;
            let mut reply = String::new();
            if reader.read_line(&mut reply)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            Ok(reply)
        })();
        if outcome.is_err() {
            self.stream = None; // reconnect on the next attempt
        }
        outcome
    }

    /// Send one request line, retrying transport failures and
    /// `overloaded` replies with decorrelated-jitter backoff, and
    /// failing over to the next peer on dead connections and
    /// `not_primary` replies. Safe for ticks because sequence numbers
    /// make them idempotent.
    pub fn round_trip(&mut self, line: &str) -> Result<Json, ClientError> {
        let mut last_io: Option<std::io::Error> = None;
        let mut last_daemon: Option<ClientError> = None;
        for attempt in 0..self.options.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                let delay = backoff_delay(
                    self.current_peer(),
                    attempt - 1,
                    self.options.backoff_base,
                    self.options.backoff_cap,
                );
                std::thread::sleep(delay);
            }
            let reply = match self.round_trip_once(line) {
                Ok(r) => r,
                Err(e) => {
                    last_io = Some(e);
                    self.rotate(); // the peer may be dead: try the next
                    continue;
                }
            };
            let v = json::parse(reply.trim())
                .map_err(|e| ClientError::Protocol(format!("unparseable reply: {e}")))?;
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                return Ok(v);
            }
            let code = v.get("error").and_then(Json::as_str).and_then(ErrorCode::parse);
            let detail = v.get("detail").and_then(Json::as_str).unwrap_or("(no detail)").to_owned();
            match code {
                Some(ErrorCode::Overloaded) => {
                    // Shed or shutting down: with peers available, a
                    // sibling may have capacity right now.
                    if self.peers.len() > 1 {
                        self.rotate();
                    }
                    last_daemon = Some(ClientError::Daemon { code, detail });
                    continue;
                }
                Some(ErrorCode::NotPrimary) => {
                    last_daemon = Some(ClientError::Daemon { code, detail });
                    self.rotate();
                    continue;
                }
                _ => return Err(ClientError::Daemon { code, detail }),
            }
        }
        Err(match (last_daemon, last_io) {
            (Some(e), _) => e,
            (None, Some(e)) => ClientError::Io(e),
            (None, None) => ClientError::Daemon {
                code: Some(ErrorCode::Overloaded),
                detail: "still overloaded after retries".into(),
            },
        })
    }

    /// Register (or idempotently re-attach to) a tenant. Returns the
    /// number of ticks the daemon already holds — the seq to resume at.
    pub fn register(&mut self, tenant: &str, spec: &TenantSpec) -> Result<u64, ClientError> {
        let mut fields = vec![
            ("op", json::s("register")),
            ("tenant", json::s(tenant)),
            ("fleet", json::s(&spec.fleet)),
            ("algo", json::s(&spec.algo)),
            ("grid", json::s(spec.grid.to_wire())),
        ];
        if let Some(us) = spec.deadline_us {
            fields.push(("deadline_us", json::n(us as f64)));
        }
        if spec.snapshot_every > 0 {
            fields.push(("snapshot_every", json::n(spec.snapshot_every as f64)));
        }
        let v = self.round_trip(&json::obj(fields).to_line())?;
        v.get("resumed_ticks")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("register reply missing resumed_ticks".into()))
    }

    /// Send one tick and return the decision. Retransmits transparently;
    /// a replayed decision is flagged but otherwise identical.
    pub fn tick(&mut self, tenant: &str, seq: u64, load: f64) -> Result<Decision, ClientError> {
        let line = json::obj(vec![
            ("op", json::s("tick")),
            ("tenant", json::s(tenant)),
            ("seq", json::n(seq as f64)),
            ("load", json::n(load)),
        ])
        .to_line();
        let v = self.round_trip(&line)?;
        let counts: Option<Vec<u32>> = v.get("config").and_then(|c| match c {
            Json::Arr(items) => items
                .iter()
                .map(|i| i.as_u64().map(|u| u32::try_from(u).unwrap_or(u32::MAX)))
                .collect(),
            _ => None,
        });
        let config = Config::new(
            counts.ok_or_else(|| ClientError::Protocol("tick reply missing config".into()))?,
        );
        Ok(Decision {
            seq: v.get("seq").and_then(Json::as_u64).unwrap_or(seq),
            config,
            rung: v.get("rung").and_then(Json::as_str).unwrap_or("exact").to_owned(),
            replayed: v.get("replayed").and_then(Json::as_bool).unwrap_or(false),
        })
    }

    /// Ask the daemon for its health line.
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.round_trip(&json::obj(vec![("op", json::s("health"))]).to_line())
    }

    /// Ask the daemon for its metrics line.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.round_trip(&json::obj(vec![("op", json::s("metrics"))]).to_line())
    }

    /// Request an orderly daemon shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.round_trip(&json::obj(vec![("op", json::s("shutdown"))]).to_line())?;
        Ok(())
    }

    /// Total time budget a full retry ladder can take (used by callers
    /// sizing their own deadlines).
    #[must_use]
    pub fn worst_case_latency(&self) -> Duration {
        let mut total = self.options.timeout * self.options.max_attempts;
        for attempt in 0..self.options.max_attempts.saturating_sub(1) {
            total += backoff_delay(
                self.current_peer(),
                attempt,
                self.options.backoff_base,
                self.options.backoff_cap,
            );
        }
        total
    }
}

/// Convenience: elapse-bounded wait for a daemon to come up (tests).
pub fn wait_until_healthy(addr: &str, deadline: Duration) -> bool {
    let start = Instant::now();
    let mut client = Client::new(
        addr,
        ClientOptions {
            timeout: Duration::from_millis(250),
            max_attempts: 1,
            ..Default::default()
        },
    );
    while start.elapsed() < deadline {
        if client.health().is_ok() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}
