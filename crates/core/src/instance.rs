//! Problem instances `I = (T, d, m, β, F, Λ)`.

use crate::config::Config;
use crate::cost::CostRef;
use crate::error::InstanceError;
use crate::server::ServerType;

/// A complete right-sizing problem instance.
///
/// Wraps the server types (with their fleet sizes, switching costs,
/// capacities and cost functions), the arrival sequence `λ_1 … λ_T`, and —
/// for the Section 4.3 extension — an optional time-varying fleet-size
/// matrix `m_{t,j}`.
///
/// Instances are immutable after construction; build them with
/// [`InstanceBuilder`], which validates all the paper's model assumptions.
#[derive(Clone, Debug)]
pub struct Instance {
    types: Vec<ServerType>,
    loads: Vec<f64>,
    /// `m_{t,j}` when the data-center size varies over time; `None` means
    /// the static `types[j].count` applies to every slot.
    counts_over_time: Option<Vec<Vec<u32>>>,
}

impl Instance {
    /// Start building an instance.
    #[must_use]
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    /// Number of time slots `T`.
    #[must_use]
    pub fn horizon(&self) -> usize {
        self.loads.len()
    }

    /// Number of server types `d`.
    #[must_use]
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The server types.
    #[must_use]
    pub fn types(&self) -> &[ServerType] {
        &self.types
    }

    /// Job volume `λ_t` arriving at (0-based) slot `t`.
    #[inline]
    #[must_use]
    pub fn load(&self, t: usize) -> f64 {
        self.loads[t]
    }

    /// The full arrival sequence.
    #[must_use]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Switching cost `β_j`.
    #[inline]
    #[must_use]
    pub fn switching_cost(&self, j: usize) -> f64 {
        self.types[j].switching_cost
    }

    /// Per-server capacity `z^max_j`.
    #[inline]
    #[must_use]
    pub fn capacity(&self, j: usize) -> f64 {
        self.types[j].capacity
    }

    /// Fleet size `m_{t,j}` of type `j` at slot `t` (static `m_j` unless a
    /// time-varying profile was supplied).
    #[inline]
    #[must_use]
    pub fn server_count(&self, t: usize, j: usize) -> u32 {
        match &self.counts_over_time {
            Some(m) => m[t][j],
            None => self.types[j].count,
        }
    }

    /// All fleet sizes at slot `t`.
    #[must_use]
    pub fn server_counts_at(&self, t: usize) -> Vec<u32> {
        (0..self.num_types()).map(|j| self.server_count(t, j)).collect()
    }

    /// The per-type maximum fleet size over the whole horizon — the bound
    /// `m_j` used to size DP tables.
    #[must_use]
    pub fn max_counts(&self) -> Vec<u32> {
        match &self.counts_over_time {
            Some(m) => {
                let d = self.num_types();
                let mut out = vec![0u32; d];
                for row in m {
                    for (j, &c) in row.iter().enumerate() {
                        out[j] = out[j].max(c);
                    }
                }
                out
            }
            None => self.types.iter().map(|ty| ty.count).collect(),
        }
    }

    /// `true` if a time-varying fleet-size profile is present (Sec. 4.3).
    #[must_use]
    pub fn has_time_varying_counts(&self) -> bool {
        self.counts_over_time.is_some()
    }

    /// Cost view `f_{t,j}` for slot `t`, type `j`.
    #[inline]
    #[must_use]
    pub fn cost(&self, t: usize, j: usize) -> CostRef<'_> {
        self.types[j].cost.at(t)
    }

    /// Idle operating cost `l_{t,j} = f_{t,j}(0)`.
    #[inline]
    #[must_use]
    pub fn idle_cost(&self, t: usize, j: usize) -> f64 {
        self.cost(t, j).idle()
    }

    /// `true` if every type's cost is time-independent (Algorithm A's
    /// setting, Section 2).
    #[must_use]
    pub fn is_time_independent(&self) -> bool {
        self.types.iter().all(|ty| ty.cost.is_time_independent())
    }

    /// `true` if every type's cost is load-independent (the CIAC'21
    /// special case; Corollary 9 applies when also time-independent).
    #[must_use]
    pub fn is_load_independent(&self) -> bool {
        (0..self.num_types())
            .all(|j| (0..self.horizon()).all(|t| self.cost(t, j).is_load_independent()))
    }

    /// Total capacity when every existing server of slot `t` is active.
    #[must_use]
    pub fn max_capacity_at(&self, t: usize) -> f64 {
        (0..self.num_types()).map(|j| f64::from(self.server_count(t, j)) * self.capacity(j)).sum()
    }

    /// `true` if configuration `x` is admissible at slot `t`: within fleet
    /// bounds and able to process `λ_t`.
    #[must_use]
    pub fn is_admissible(&self, t: usize, x: &Config) -> bool {
        if x.dims() != self.num_types() {
            return false;
        }
        (0..self.num_types()).all(|j| x.count(j) <= self.server_count(t, j))
            && x.can_serve(&self.types, self.load(t))
    }

    /// The shortened instance `I_t` containing only slots `0..len`
    /// (the paper's `I_t` with `t = len`). Cost profiles and fleet
    /// profiles are truncated accordingly.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Instance {
        assert!(len <= self.horizon());
        Instance {
            types: self.types.clone(),
            loads: self.loads[..len].to_vec(),
            counts_over_time: self.counts_over_time.as_ref().map(|m| m[..len].to_vec()),
        }
    }

    /// Reveal one more slot: append `λ_T` to a valid instance, validating
    /// only the new slot — the load is finite, non-negative and within
    /// the slot's fleet capacity, and every cost profile covers the
    /// longer horizon. `O(d)` per call, which is what lets a long-lived
    /// controller keep one growing prefix `I_t` instead of rebuilding it
    /// every slot. On error the instance is unchanged.
    ///
    /// A time-varying fleet profile (Sec. 4.3) has no row for the new
    /// slot, so such instances reject every push. The builder's sampled
    /// cost-shape check is not repeated for the new slot.
    pub fn push_load(&mut self, load: f64) -> Result<(), InstanceError> {
        let t = self.horizon();
        if let Some(m) = &self.counts_over_time {
            return Err(InstanceError::CountsShapeMismatch {
                expected: (t + 1, self.num_types()),
                found: (m.len(), self.num_types()),
            });
        }
        if !load.is_finite() || load < 0.0 {
            return Err(InstanceError::BadLoad { t, value: load });
        }
        for (j, ty) in self.types.iter().enumerate() {
            if let Some(len) = ty.cost.horizon() {
                if len <= t {
                    return Err(InstanceError::CostHorizonMismatch {
                        j,
                        spec_len: len,
                        horizon: t + 1,
                    });
                }
            }
        }
        let capacity = self.max_capacity_at(t);
        if load > capacity {
            return Err(InstanceError::InfeasibleLoad { t, load, capacity });
        }
        self.loads.push(load);
        Ok(())
    }

    /// Validate the model assumptions. Builders call this automatically;
    /// it is public so hand-mutated clones can be re-checked.
    ///
    /// Checks: non-empty horizon and type list; finite non-negative loads;
    /// positive capacities; non-negative switching costs; cost profiles
    /// covering the horizon; feasibility of every slot; and sampled
    /// convexity/monotonicity of every cost function.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if self.types.is_empty() {
            return Err(InstanceError::NoServerTypes);
        }
        if self.loads.is_empty() {
            return Err(InstanceError::EmptyHorizon);
        }
        for (t, &l) in self.loads.iter().enumerate() {
            if !l.is_finite() || l < 0.0 {
                return Err(InstanceError::BadLoad { t, value: l });
            }
        }
        for (j, ty) in self.types.iter().enumerate() {
            if !(ty.capacity.is_finite() && ty.capacity > 0.0) {
                return Err(InstanceError::BadServerType {
                    j,
                    reason: format!("capacity must be positive, got {}", ty.capacity),
                });
            }
            if !(ty.switching_cost.is_finite() && ty.switching_cost >= 0.0) {
                return Err(InstanceError::BadServerType {
                    j,
                    reason: format!("switching cost must be ≥ 0, got {}", ty.switching_cost),
                });
            }
            if let Some(len) = ty.cost.horizon() {
                if len < self.horizon() {
                    return Err(InstanceError::CostHorizonMismatch {
                        j,
                        spec_len: len,
                        horizon: self.horizon(),
                    });
                }
            }
        }
        if let Some(m) = &self.counts_over_time {
            if m.len() != self.horizon() {
                return Err(InstanceError::CountsShapeMismatch {
                    expected: (self.horizon(), self.num_types()),
                    found: (m.len(), m.first().map_or(0, Vec::len)),
                });
            }
            for row in m {
                if row.len() != self.num_types() {
                    return Err(InstanceError::CountsShapeMismatch {
                        expected: (self.horizon(), self.num_types()),
                        found: (m.len(), row.len()),
                    });
                }
            }
        }
        for t in 0..self.horizon() {
            let cap = self.max_capacity_at(t);
            if self.load(t) > cap {
                return Err(InstanceError::InfeasibleLoad { t, load: self.load(t), capacity: cap });
            }
        }
        self.check_cost_shapes()
    }

    /// Sampled convexity + monotonicity check on each cost function over
    /// `[0, z^max_j]`. Catches mis-specified `Custom` functions early.
    fn check_cost_shapes(&self) -> Result<(), InstanceError> {
        const SAMPLES: usize = 8;
        // Time-independent specs need a single check; per-slot specs are
        // sampled at a few representative slots to keep validation cheap.
        for (j, ty) in self.types.iter().enumerate() {
            let slots: Vec<usize> = if ty.cost.is_time_independent() {
                vec![0]
            } else {
                let t_max = self.horizon() - 1;
                vec![0, t_max / 2, t_max]
            };
            for &t in &slots {
                let f = self.cost(t, j);
                let zmax = ty.capacity;
                let mut prev = f.eval(0.0);
                if !prev.is_finite() || prev < 0.0 {
                    return Err(InstanceError::NonConvexCost {
                        j,
                        t,
                        reason: format!("f(0) = {prev} is not finite and non-negative"),
                    });
                }
                for i in 1..=SAMPLES {
                    let z = zmax * i as f64 / SAMPLES as f64;
                    let v = f.eval(z);
                    if !v.is_finite() || v < 0.0 {
                        return Err(InstanceError::NonConvexCost {
                            j,
                            t,
                            reason: format!("f({z}) = {v} is not finite and non-negative"),
                        });
                    }
                    if v < prev - 1e-9 * prev.abs().max(1.0) {
                        return Err(InstanceError::NonConvexCost {
                            j,
                            t,
                            reason: format!("decreasing: f({z}) = {v} < {prev}"),
                        });
                    }
                    prev = v;
                }
                // midpoint convexity on a few triples
                for i in 0..SAMPLES - 1 {
                    let a = zmax * i as f64 / SAMPLES as f64;
                    let b = zmax * (i + 2) as f64 / SAMPLES as f64;
                    let mid = 0.5 * (a + b);
                    let lhs = f.eval(mid);
                    let rhs = 0.5 * (f.eval(a) + f.eval(b));
                    if lhs > rhs + 1e-7 * rhs.abs().max(1.0) {
                        return Err(InstanceError::NonConvexCost {
                            j,
                            t,
                            reason: format!("midpoint convexity violated at [{a}, {b}]"),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builder for [`Instance`], validating on [`InstanceBuilder::build`].
#[derive(Default)]
pub struct InstanceBuilder {
    types: Vec<ServerType>,
    loads: Vec<f64>,
    counts_over_time: Option<Vec<Vec<u32>>>,
}

impl InstanceBuilder {
    /// Add one server type.
    #[must_use]
    pub fn server_type(mut self, ty: ServerType) -> Self {
        self.types.push(ty);
        self
    }

    /// Add several server types.
    #[must_use]
    pub fn server_types(mut self, tys: impl IntoIterator<Item = ServerType>) -> Self {
        self.types.extend(tys);
        self
    }

    /// Set the arrival sequence `λ_1 … λ_T`.
    #[must_use]
    pub fn loads(mut self, loads: impl Into<Vec<f64>>) -> Self {
        self.loads = loads.into();
        self
    }

    /// Supply a time-varying fleet-size matrix `m_{t,j}` (T rows, d
    /// columns) — the Section 4.3 extension.
    #[must_use]
    pub fn counts_over_time(mut self, counts: Vec<Vec<u32>>) -> Self {
        self.counts_over_time = Some(counts);
        self
    }

    /// Validate and build the instance.
    pub fn build(self) -> Result<Instance, InstanceError> {
        let inst = Instance {
            types: self.types,
            loads: self.loads,
            counts_over_time: self.counts_over_time,
        };
        inst.validate()?;
        Ok(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, CostSpec};
    use crate::util::approx_eq;

    fn simple() -> Instance {
        Instance::builder()
            .server_type(ServerType::new("slow", 3, 2.0, 1.0, CostModel::linear(1.0, 1.0)))
            .server_type(ServerType::new("fast", 2, 6.0, 4.0, CostModel::power(2.0, 1.0, 2.0)))
            .loads(vec![1.0, 5.0, 0.5])
            .build()
            .unwrap()
    }

    #[test]
    fn accessors() {
        let inst = simple();
        assert_eq!(inst.horizon(), 3);
        assert_eq!(inst.num_types(), 2);
        assert!(approx_eq(inst.load(1), 5.0));
        assert_eq!(inst.server_count(0, 0), 3);
        assert_eq!(inst.max_counts(), vec![3, 2]);
        assert!(inst.is_time_independent());
        assert!(!inst.is_load_independent());
    }

    #[test]
    fn admissibility() {
        let inst = simple();
        assert!(inst.is_admissible(1, &Config::new(vec![1, 1])));
        assert!(!inst.is_admissible(1, &Config::new(vec![3, 0]))); // cap 3 < 5
        assert!(!inst.is_admissible(0, &Config::new(vec![4, 0]))); // exceeds m_0
    }

    #[test]
    fn truncation_gives_prefix_instance() {
        let inst = simple();
        let pre = inst.truncated(2);
        assert_eq!(pre.horizon(), 2);
        assert!(approx_eq(pre.load(1), 5.0));
    }

    #[test]
    fn rejects_empty() {
        assert!(matches!(
            Instance::builder().loads(vec![1.0]).build(),
            Err(InstanceError::NoServerTypes)
        ));
        let err = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .build();
        assert!(matches!(err, Err(InstanceError::EmptyHorizon)));
    }

    #[test]
    fn rejects_infeasible_load() {
        let err = Instance::builder()
            .server_type(ServerType::new("a", 1, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![2.0])
            .build();
        assert!(matches!(err, Err(InstanceError::InfeasibleLoad { t: 0, .. })));
    }

    #[test]
    fn rejects_short_cost_profile() {
        let spec = CostSpec::scaled(CostModel::constant(1.0), vec![1.0]);
        let err = Instance::builder()
            .server_type(ServerType::with_spec("a", 2, 1.0, 1.0, spec))
            .loads(vec![1.0, 1.0])
            .build();
        assert!(matches!(err, Err(InstanceError::CostHorizonMismatch { .. })));
    }

    #[test]
    fn rejects_nonconvex_custom_cost() {
        use crate::cost::CostFunction;
        #[derive(Debug)]
        struct Concave;
        impl CostFunction for Concave {
            fn eval(&self, z: f64) -> f64 {
                (1.0 + z).sqrt()
            }
        }
        let model = CostModel::Custom(std::sync::Arc::new(Concave));
        let err = Instance::builder()
            .server_type(ServerType::new("a", 2, 1.0, 4.0, model))
            .loads(vec![1.0])
            .build();
        assert!(matches!(err, Err(InstanceError::NonConvexCost { .. })));
    }

    #[test]
    fn time_varying_counts() {
        let inst = Instance::builder()
            .server_type(ServerType::new("a", 3, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 2.0])
            .counts_over_time(vec![vec![1], vec![3]])
            .build()
            .unwrap();
        assert_eq!(inst.server_count(0, 0), 1);
        assert_eq!(inst.server_count(1, 0), 3);
        assert_eq!(inst.max_counts(), vec![3]);
        assert!(inst.has_time_varying_counts());
    }

    #[test]
    fn time_varying_counts_infeasibility_detected() {
        let err = Instance::builder()
            .server_type(ServerType::new("a", 3, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![2.0])
            .counts_over_time(vec![vec![1]])
            .build();
        assert!(matches!(err, Err(InstanceError::InfeasibleLoad { .. })));
    }

    #[test]
    fn rejects_bad_counts_shape() {
        let err = Instance::builder()
            .server_type(ServerType::new("a", 3, 1.0, 1.0, CostModel::constant(1.0)))
            .loads(vec![1.0, 1.0])
            .counts_over_time(vec![vec![1]])
            .build();
        assert!(matches!(err, Err(InstanceError::CountsShapeMismatch { .. })));
    }
}
