//! Tenant specifications and boxed controllers.
//!
//! A tenant registers with a *spec*: fleet preset, algorithm, grid,
//! cache toggle, an optional per-decision deadline and a
//! snapshot cadence. The spec is the unit of determinism — the WAL
//! records it verbatim, recovery rebuilds the controller from it, and
//! two tenants with byte-equal `(fleet, grid)` halves share one priced
//! slot pool.
//!
//! [`BoxController`] erases the concrete controller type (five
//! algorithms × two oracles) behind one object that still implements
//! [`OnlineAlgorithm`] and [`Checkpoint`], so the daemon wraps every
//! tenant in the same `GracefulDegrader<BoxController, _>` ladder.

use rsz_core::{Config, Instance, ServerType};
use rsz_dispatch::{CachedDispatcher, Dispatcher};
use rsz_offline::{Decoder, Encoder, EngineStats, GridMode, SharedSlotPool, SnapshotError};
use rsz_online::algo_a::AOptions;
use rsz_online::algo_c::COptions;
use rsz_online::{
    AlgorithmA, AlgorithmB, AlgorithmC, Checkpoint, LazyCapacityProvisioning, OnlineAlgorithm,
    RecedingHorizon,
};
use rsz_workloads::fleet;

use crate::protocol::wire;

/// The grid half of a tenant spec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GridSpec {
    /// The exact full grid.
    Full,
    /// The geometric `Γ(γ)` grid.
    Gamma(f64),
}

impl GridSpec {
    /// The offline [`GridMode`] this spec selects.
    #[must_use]
    pub fn mode(self) -> GridMode {
        match self {
            GridSpec::Full => GridMode::Full,
            GridSpec::Gamma(g) => GridMode::Gamma(g),
        }
    }

    /// Parse `"full"` or `"gamma:G"`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "full" {
            return Ok(GridSpec::Full);
        }
        if let Some(g) = s.strip_prefix("gamma:") {
            let g: f64 = g.parse().map_err(|e| format!("bad gamma: {e}"))?;
            if !(g > 1.0 && g.is_finite()) {
                return Err("gamma must be a finite number > 1".into());
            }
            return Ok(GridSpec::Gamma(g));
        }
        Err(format!("unknown grid `{s}` (expected `full` or `gamma:G`)"))
    }

    /// The wire form [`GridSpec::parse`] accepts.
    #[must_use]
    pub fn to_wire(self) -> String {
        match self {
            GridSpec::Full => "full".into(),
            GridSpec::Gamma(g) => format!("gamma:{g}"),
        }
    }
}

/// Everything needed to (re)build one tenant's controller
/// deterministically.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSpec {
    /// Fleet preset spec (`rsz_workloads::fleet::parse` syntax). Also
    /// the tenant's pool-sharing key together with `grid`.
    pub fleet: String,
    /// Algorithm spec: `a`, `b`, `c[:EPS]`, `lcp`, `rhc[:WINDOW]` —
    /// plus the fault hook `panic:T` when the daemon allows it.
    pub algo: String,
    /// Wrap the oracle in a `CachedDispatcher`.
    pub cache: bool,
    /// Prefix-solver grid.
    pub grid: GridSpec,
    /// Per-decision budget in µs: `None` inherits the daemon default,
    /// `Some(0)` disables the ladder for this tenant (bit-transparent).
    pub deadline_us: Option<u64>,
    /// Snapshot after every `K` fresh decisions (`0` = daemon default).
    pub snapshot_every: usize,
}

impl TenantSpec {
    /// Validate the spec against nothing but itself (fleet parse,
    /// algorithm name, grid) — the checks that can fail before any
    /// telemetry arrives.
    pub fn validate(&self, allow_fault_hooks: bool) -> Result<(), String> {
        let types = fleet::parse(&self.fleet)?;
        let algo = base_algo(&self.algo);
        match algo {
            "a" | "b" | "c" | "rhc" => {}
            "lcp" => {
                if types.len() != 1 {
                    return Err("lcp requires a homogeneous fleet (d = 1)".into());
                }
            }
            "panic" => {
                if !allow_fault_hooks {
                    return Err("fault hooks are not enabled on this daemon".into());
                }
            }
            _ => return Err(format!("unknown algorithm `{}`", self.algo)),
        }
        algo_param(&self.algo)?;
        Ok(())
    }

    /// The key under which this tenant's priced-slot pool is shared:
    /// tenants with equal keys have identical cost models and grids, so
    /// their `(partition, λ, grid)` pricings are interchangeable.
    #[must_use]
    pub fn pool_key(&self) -> String {
        format!("{}/{}", self.fleet, self.grid.to_wire())
    }

    /// The fleet this spec names.
    pub fn server_types(&self) -> Result<Vec<ServerType>, String> {
        fleet::parse(&self.fleet)
    }

    /// The per-decision deadline this spec selects under a daemon-wide
    /// default: `None` inherits the default, `Some(0)` disables the
    /// ladder outright, anything else is the tenant's own budget.
    ///
    /// When this resolves to `None` the degradation ladder is a
    /// bit-transparent shim, which is what makes re-stepping this
    /// tenant's ticks — recovery replay and replication apply alike —
    /// reproduce its decisions bit-identically.
    #[must_use]
    pub fn effective_deadline(
        &self,
        daemon_default: Option<std::time::Duration>,
    ) -> Option<std::time::Duration> {
        match self.deadline_us {
            None => daemon_default,
            Some(0) => None,
            Some(us) => Some(std::time::Duration::from_micros(us)),
        }
    }

    /// Serialize into a WAL/snapshot payload.
    ///
    /// The byte after the algorithm once selected the pricing path; it
    /// is written as `1` (the only path left) so registrations stay
    /// byte-identical to those of earlier daemons.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.fleet.as_bytes());
        enc.put_bytes(self.algo.as_bytes());
        enc.put_u8(1);
        enc.put_u8(u8::from(self.cache));
        match self.grid {
            GridSpec::Full => enc.put_u8(0),
            GridSpec::Gamma(g) => {
                enc.put_u8(1);
                enc.put_f64(g);
            }
        }
        enc.put_u64(self.deadline_us.map_or(u64::MAX, |v| v.min(u64::MAX - 1)));
        enc.put_usize(self.snapshot_every);
    }

    /// Decode a payload written by [`TenantSpec::encode`] — or by an
    /// earlier daemon, whose pricing-path byte may be 0 or 1 and is
    /// ignored either way.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let fleet = wire::take_str(dec, "fleet spec")?;
        let algo = wire::take_str(dec, "algo spec")?;
        if dec.take_u8()? > 1 {
            return Err(SnapshotError::Corrupt("unknown pricing-path tag"));
        }
        let cache = dec.take_u8()? != 0;
        let grid = match dec.take_u8()? {
            0 => GridSpec::Full,
            1 => GridSpec::Gamma(dec.take_f64()?),
            _ => return Err(SnapshotError::Corrupt("unknown grid tag")),
        };
        let deadline_us = match dec.take_u64()? {
            u64::MAX => None,
            v => Some(v),
        };
        let snapshot_every = dec.take_usize()?;
        Ok(Self { fleet, algo, cache, grid, deadline_us, snapshot_every })
    }
}

/// `"c:0.25"` → `"c"`, `"rhc:4"` → `"rhc"`.
fn base_algo(algo: &str) -> &str {
    algo.split_once(':').map_or(algo, |(base, _)| base)
}

/// The numeric parameter of a parameterized algo spec, validated.
fn algo_param(algo: &str) -> Result<Option<f64>, String> {
    match algo.split_once(':') {
        None => Ok(None),
        Some((base, param)) => {
            let v: f64 = param.parse().map_err(|e| format!("bad parameter for `{base}`: {e}"))?;
            let ok = match base {
                "c" => v > 0.0 && v.is_finite(),
                "rhc" | "panic" => v >= 1.0 && v.fract() == 0.0 && v <= 1e9,
                _ => return Err(format!("algorithm `{base}` takes no parameter")),
            };
            if !ok {
                return Err(format!("parameter {param} out of range for `{base}`"));
            }
            Ok(Some(v))
        }
    }
}

/// Object-safe view of a checkpointable controller — what the daemon
/// needs from all ten concrete controller types.
pub trait ServeController: Send {
    fn ctl_name(&self) -> String;
    fn ctl_decide(&mut self, instance: &Instance, t: usize) -> Config;
    fn ctl_tag(&self) -> &'static str;
    fn ctl_save(&self, enc: &mut Encoder);
    fn ctl_restore(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError>;
    fn ctl_engine_stats(&self) -> Option<EngineStats>;
    /// Install a shared pricing pool; `false` when the controller does
    /// not pool (a windowed solver with internal pools).
    fn ctl_share_pool(&mut self, pool: SharedSlotPool) -> bool;
}

macro_rules! impl_serve_controller {
    ($ty:ty) => {
        impl ServeController for $ty {
            fn ctl_name(&self) -> String {
                OnlineAlgorithm::name(self)
            }
            fn ctl_decide(&mut self, instance: &Instance, t: usize) -> Config {
                OnlineAlgorithm::decide(self, instance, t)
            }
            fn ctl_tag(&self) -> &'static str {
                Checkpoint::algo_tag(self)
            }
            fn ctl_save(&self, enc: &mut Encoder) {
                Checkpoint::save_state(self, enc);
            }
            fn ctl_restore(
                &mut self,
                instance: &Instance,
                dec: &mut Decoder<'_>,
            ) -> Result<(), SnapshotError> {
                Checkpoint::restore_state(self, instance, dec)
            }
            fn ctl_engine_stats(&self) -> Option<EngineStats> {
                Some(self.engine_stats())
            }
            fn ctl_share_pool(&mut self, pool: SharedSlotPool) -> bool {
                self.share_pool(pool);
                true
            }
        }
    };
}

impl_serve_controller!(AlgorithmA<Dispatcher>);
impl_serve_controller!(AlgorithmA<CachedDispatcher>);
impl_serve_controller!(AlgorithmB<Dispatcher>);
impl_serve_controller!(AlgorithmB<CachedDispatcher>);
impl_serve_controller!(AlgorithmC<Dispatcher>);
impl_serve_controller!(AlgorithmC<CachedDispatcher>);
impl_serve_controller!(LazyCapacityProvisioning<Dispatcher>);
impl_serve_controller!(LazyCapacityProvisioning<CachedDispatcher>);

// The receding-horizon baseline pools per window internally and does
// not expose pool injection; everything else forwards.
macro_rules! impl_serve_controller_rhc {
    ($ty:ty) => {
        impl ServeController for $ty {
            fn ctl_name(&self) -> String {
                OnlineAlgorithm::name(self)
            }
            fn ctl_decide(&mut self, instance: &Instance, t: usize) -> Config {
                OnlineAlgorithm::decide(self, instance, t)
            }
            fn ctl_tag(&self) -> &'static str {
                Checkpoint::algo_tag(self)
            }
            fn ctl_save(&self, enc: &mut Encoder) {
                Checkpoint::save_state(self, enc);
            }
            fn ctl_restore(
                &mut self,
                instance: &Instance,
                dec: &mut Decoder<'_>,
            ) -> Result<(), SnapshotError> {
                Checkpoint::restore_state(self, instance, dec)
            }
            fn ctl_engine_stats(&self) -> Option<EngineStats> {
                self.engine_stats()
            }
            fn ctl_share_pool(&mut self, _pool: SharedSlotPool) -> bool {
                false
            }
        }
    };
}

impl_serve_controller_rhc!(RecedingHorizon<Dispatcher>);
impl_serve_controller_rhc!(RecedingHorizon<CachedDispatcher>);

/// A fault-injection hook: behaves exactly like Algorithm B but panics
/// on the decision for slot `at`. Only constructible when the daemon
/// was started with fault hooks enabled — the serve chaos suite uses it
/// to prove a per-tenant panic is caught at the step boundary and
/// quarantines that tenant, never the daemon.
struct PanicAt<O> {
    at: usize,
    inner: AlgorithmB<O>,
}

impl<O: rsz_core::GtOracle + Sync + Send> ServeController for PanicAt<O>
where
    AlgorithmB<O>: ServeController,
{
    fn ctl_name(&self) -> String {
        format!("panic@{}({})", self.at, self.inner.ctl_name())
    }
    fn ctl_decide(&mut self, instance: &Instance, t: usize) -> Config {
        assert!(t != self.at, "injected fault: controller panic at slot {t}");
        self.inner.ctl_decide(instance, t)
    }
    fn ctl_tag(&self) -> &'static str {
        self.inner.ctl_tag()
    }
    fn ctl_save(&self, enc: &mut Encoder) {
        self.inner.ctl_save(enc);
    }
    fn ctl_restore(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.inner.ctl_restore(instance, dec)
    }
    fn ctl_engine_stats(&self) -> Option<EngineStats> {
        self.inner.ctl_engine_stats()
    }
    fn ctl_share_pool(&mut self, pool: SharedSlotPool) -> bool {
        self.inner.ctl_share_pool(pool)
    }
}

/// A boxed controller that is itself an [`OnlineAlgorithm`] and a
/// [`Checkpoint`] — the uniform currency the daemon's degrader wraps.
pub struct BoxController(pub Box<dyn ServeController>);

impl OnlineAlgorithm for BoxController {
    fn name(&self) -> String {
        self.0.ctl_name()
    }
    fn decide(&mut self, instance: &Instance, t: usize) -> Config {
        self.0.ctl_decide(instance, t)
    }
}

impl Checkpoint for BoxController {
    fn algo_tag(&self) -> &'static str {
        self.0.ctl_tag()
    }
    fn save_state(&self, enc: &mut Encoder) {
        self.0.ctl_save(enc);
    }
    fn restore_state(
        &mut self,
        instance: &Instance,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        self.0.ctl_restore(instance, dec)
    }
}

impl BoxController {
    /// Pricing counters of the wrapped controller's engine.
    #[must_use]
    pub fn engine_stats(&self) -> Option<EngineStats> {
        self.0.ctl_engine_stats()
    }

    /// Install a shared pricing pool on the wrapped controller.
    pub fn share_pool(&mut self, pool: SharedSlotPool) -> bool {
        self.0.ctl_share_pool(pool)
    }
}

/// Build the controller a spec names, against `instance`, on `grid`
/// (the degrader overrides the spec grid for its coarse twin). The spec
/// must already have passed [`TenantSpec::validate`].
pub fn build_controller(
    spec: &TenantSpec,
    instance: &Instance,
    grid: GridMode,
) -> Result<BoxController, String> {
    let aopts = AOptions { grid, ..AOptions::default() };
    let param = algo_param(&spec.algo)?;
    let boxed: Box<dyn ServeController> = match (base_algo(&spec.algo), spec.cache) {
        ("a", false) => Box::new(AlgorithmA::new(instance, Dispatcher::new(), aopts)),
        ("a", true) => Box::new(AlgorithmA::new(instance, CachedDispatcher::new(instance), aopts)),
        ("b", false) => Box::new(AlgorithmB::new(instance, Dispatcher::new(), aopts)),
        ("b", true) => Box::new(AlgorithmB::new(instance, CachedDispatcher::new(instance), aopts)),
        ("c", cache) => {
            let copts =
                COptions { epsilon: param.unwrap_or(0.5), base: aopts, ..COptions::default() };
            if cache {
                Box::new(AlgorithmC::new(instance, CachedDispatcher::new(instance), copts))
            } else {
                Box::new(AlgorithmC::new(instance, Dispatcher::new(), copts))
            }
        }
        ("lcp", false) => Box::new(LazyCapacityProvisioning::with_options(
            instance,
            Dispatcher::new(),
            aopts.dp_options(),
        )),
        ("lcp", true) => Box::new(LazyCapacityProvisioning::with_options(
            instance,
            CachedDispatcher::new(instance),
            aopts.dp_options(),
        )),
        ("rhc", cache) => {
            let window = param.unwrap_or(4.0) as usize;
            if cache {
                Box::new(
                    RecedingHorizon::new(CachedDispatcher::new(instance), window)
                        .with_options(aopts.dp_options()),
                )
            } else {
                Box::new(
                    RecedingHorizon::new(Dispatcher::new(), window)
                        .with_options(aopts.dp_options()),
                )
            }
        }
        ("panic", cache) => {
            let at = param.ok_or("panic:T needs a slot index")? as usize;
            if cache {
                Box::new(PanicAt {
                    at,
                    inner: AlgorithmB::new(instance, CachedDispatcher::new(instance), aopts),
                })
            } else {
                Box::new(PanicAt { at, inner: AlgorithmB::new(instance, Dispatcher::new(), aopts) })
            }
        }
        _ => return Err(format!("unknown algorithm `{}`", spec.algo)),
    };
    Ok(BoxController(boxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(algo: &str) -> TenantSpec {
        TenantSpec {
            fleet: "cpu-gpu:3,1".into(),
            algo: algo.into(),
            cache: false,
            grid: GridSpec::Full,
            deadline_us: None,
            snapshot_every: 0,
        }
    }

    #[test]
    fn specs_validate_and_round_trip() {
        for algo in ["a", "b", "c", "c:0.25", "rhc", "rhc:6"] {
            let s = spec(algo);
            s.validate(false).unwrap();
            let mut enc = Encoder::new();
            s.encode(&mut enc);
            let sealed = enc.into_sealed();
            let mut dec = Decoder::from_sealed(&sealed).unwrap();
            assert_eq!(TenantSpec::decode(&mut dec).unwrap(), s);
        }
        let mut lcp = spec("lcp");
        assert!(lcp.validate(false).is_err(), "lcp on d=2 must fail");
        lcp.fleet = "homogeneous:4".into();
        lcp.validate(false).unwrap();
        assert!(spec("zeus").validate(false).is_err());
        assert!(spec("panic:3").validate(false).is_err(), "fault hooks off by default");
        spec("panic:3").validate(true).unwrap();
        assert!(spec("c:-1").validate(false).is_err());
        assert!(spec("rhc:0").validate(false).is_err());
    }

    #[test]
    fn grid_specs_parse() {
        assert_eq!(GridSpec::parse("full").unwrap(), GridSpec::Full);
        assert_eq!(GridSpec::parse("gamma:1.5").unwrap(), GridSpec::Gamma(1.5));
        assert!(GridSpec::parse("gamma:1.0").is_err());
        assert!(GridSpec::parse("mesh").is_err());
        for g in [GridSpec::Full, GridSpec::Gamma(2.5)] {
            assert_eq!(GridSpec::parse(&g.to_wire()).unwrap(), g);
        }
    }

    #[test]
    fn pool_keys_separate_fleet_and_grid() {
        let a = spec("b");
        let mut b = spec("a"); // different algo, same fleet+grid: same key
        b.cache = true;
        assert_eq!(a.pool_key(), b.pool_key());
        let mut c = spec("b");
        c.grid = GridSpec::Gamma(2.0);
        assert_ne!(a.pool_key(), c.pool_key());
    }
}
