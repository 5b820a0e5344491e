//! Multi-service workloads — the paper's last future-work item.
//!
//! "Finally, we are interested to find a modelization to deploy several
//! middlewares and/or applications on grid." (Section 6)
//!
//! A [`ServiceMix`] is a set of services with request shares: clients
//! draw each request's service from the shares. Deployment-side, servers
//! are *partitioned* among the services (a SeD serves what it has
//! installed); the planner extension in `adept-core` chooses the
//! partition.

use crate::service::ServiceSpec;
use std::fmt;

/// Why a [`MixDemand`] vector was rejected at construction.
///
/// Validating here — instead of letting the poison flow — matters
/// because every planner comparison downstream is a plain float
/// comparison: a NaN rate makes *every* "is this move better" test
/// silently answer no, so a corrupted demand vector would not crash, it
/// would quietly plan nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandError {
    /// The vector covers no service.
    Empty,
    /// An entry is NaN (index reported).
    NotANumber {
        /// Offending index.
        index: usize,
    },
    /// An entry is negative.
    Negative {
        /// Offending index.
        index: usize,
        /// The rejected rate.
        rate: f64,
    },
}

impl fmt::Display for DemandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DemandError::Empty => write!(f, "a demand vector needs at least one service"),
            DemandError::NotANumber { index } => {
                write!(f, "demand rates must not be NaN (service {index})")
            }
            DemandError::Negative { index, rate } => write!(
                f,
                "demand rates must be non-negative, got {rate} for service {index}"
            ),
        }
    }
}

impl std::error::Error for DemandError {}

/// A workload mixing several services with fixed request shares.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMix {
    services: Vec<ServiceSpec>,
    /// Normalized shares, same length as `services`, summing to 1.
    shares: Vec<f64>,
}

impl ServiceMix {
    /// Builds a mix from `(service, weight)` pairs; weights are
    /// normalized to shares, each weight divided by their sum. A **zero**
    /// weight keeps the service in the mix with no request share — the
    /// degenerate "installed but idle" service a demand forecast can
    /// produce; planners give it no servers and it never binds the mix
    /// throughput.
    ///
    /// Finite weights can sum past `f64::MAX` (two weights of `1e308`),
    /// and dividing by that infinite sum would zero every share. Such
    /// weights are divided by the largest of them first, so
    /// `[1e308, 1e308]` gives the shares of `[1, 1]`; a finite sum keeps
    /// the plain division.
    ///
    /// # Panics
    /// Panics on an empty list, negative or non-finite weights, or an
    /// all-zero weight vector.
    pub fn new(entries: Vec<(ServiceSpec, f64)>) -> Self {
        assert!(!entries.is_empty(), "a mix needs at least one service");
        let total: f64 = entries.iter().map(|(_, w)| *w).sum();
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w >= 0.0) && total > 0.0,
            "mix weights must be non-negative and finite, with a positive total"
        );
        let (services, shares) = if total.is_finite() {
            entries.into_iter().map(|(s, w)| (s, w / total)).unzip()
        } else {
            let largest = entries.iter().map(|(_, w)| *w).fold(0.0, f64::max);
            let total: f64 = entries.iter().map(|(_, w)| w / largest).sum();
            entries
                .into_iter()
                .map(|(s, w)| (s, w / largest / total))
                .unzip()
        };
        Self { services, shares }
    }

    /// A single-service "mix" (share 1.0).
    pub fn single(service: ServiceSpec) -> Self {
        Self::new(vec![(service, 1.0)])
    }

    /// Number of services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// True if the mix holds exactly one service.
    pub fn is_empty(&self) -> bool {
        false // by construction a mix is never empty
    }

    /// The services, in declaration order.
    pub fn services(&self) -> &[ServiceSpec] {
        &self.services
    }

    /// Normalized share of service `i`.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn share(&self, i: usize) -> f64 {
        self.shares[i]
    }

    /// One service by index.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn service(&self, i: usize) -> &ServiceSpec {
        &self.services[i]
    }

    /// Draws a service index from the shares using a unit sample
    /// `u ∈ [0, 1)`.
    pub fn draw(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u));
        let mut acc = 0.0;
        for (i, &s) in self.shares.iter().enumerate() {
            acc += s;
            if u < acc {
                return i;
            }
        }
        self.services.len() - 1 // guard against rounding
    }

    /// The demand-weighted mean `Wapp` of the mix (MFlop per request).
    pub fn mean_wapp(&self) -> f64 {
        self.services
            .iter()
            .zip(&self.shares)
            .map(|(s, &f)| s.wapp.value() * f)
            .sum()
    }

    /// Number of services with a positive request share (each needs at
    /// least one server; zero-share services may be left empty).
    pub fn demanded_services(&self) -> usize {
        self.shares.iter().filter(|&&f| f > 0.0).count()
    }
}

/// A per-service demand vector for a [`ServiceMix`] deployment — the
/// multi-service counterpart of [`ClientDemand`](crate::ClientDemand).
///
/// Each entry is a target rate in completed requests per second for one
/// service of the mix; `f64::INFINITY` means "as much as possible" (the
/// mix counterpart of `ClientDemand::Unbounded`, never satisfied) and
/// `0.0` means the service demands nothing. A deployment satisfies the
/// vector when its **scheduling phase** sustains the summed rate (every
/// request crosses every agent, whatever its service) and each service's
/// server partition sustains that service's own rate.
#[derive(Debug, Clone, PartialEq)]
pub struct MixDemand {
    rates: Vec<f64>,
}

impl MixDemand {
    /// Unbounded demand for every service of an `n`-service mix: plan the
    /// highest mix throughput the platform allows.
    pub fn unbounded(services: usize) -> Self {
        assert!(services > 0, "a demand vector needs at least one service");
        Self {
            rates: vec![f64::INFINITY; services],
        }
    }

    /// Per-service target rates (req/s). Zero entries are allowed
    /// (service installed, nothing demanded) and `f64::INFINITY` means
    /// "as much as possible" for that service (see the type docs).
    ///
    /// # Panics
    /// Panics on an empty vector or negative/NaN rates — the panicking
    /// wrapper around [`try_targets`](MixDemand::try_targets) for
    /// literal, known-good vectors.
    pub fn targets(rates: Vec<f64>) -> Self {
        // audit: allow(panic, "targets() is the documented panicking
        // convenience over the typed try_targets(); callers wanting errors use
        // the typed API")
        Self::try_targets(rates).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Validating constructor: [`targets`](MixDemand::targets) returning
    /// the rejection instead of panicking, for demand vectors assembled
    /// from measurements or forecasts (a single NaN observation must
    /// surface as an error, not poison every later plan comparison).
    ///
    /// # Errors
    /// [`DemandError`] on an empty vector, NaN, or negative entries.
    pub fn try_targets(rates: Vec<f64>) -> Result<Self, DemandError> {
        if rates.is_empty() {
            return Err(DemandError::Empty);
        }
        for (index, &rate) in rates.iter().enumerate() {
            if rate.is_nan() {
                return Err(DemandError::NotANumber { index });
            }
            if rate < 0.0 {
                return Err(DemandError::Negative { index, rate });
            }
        }
        Ok(Self { rates })
    }

    /// Number of services covered.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// True when the vector covers no service (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Target rate of service `j`.
    ///
    /// # Panics
    /// Panics on an out-of-range index.
    pub fn rate(&self, j: usize) -> f64 {
        self.rates[j]
    }

    /// Summed rate the scheduling phase must sustain.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// True when any service asks for "as much as possible".
    pub fn any_unbounded(&self) -> bool {
        self.rates.iter().any(|r| r.is_infinite())
    }

    /// True when a deployment with scheduling throughput `rho_sched` and
    /// per-service service throughputs `rho_service` satisfies every
    /// entry.
    ///
    /// # Panics
    /// Panics if `rho_service` has a different length than the vector.
    pub fn satisfied_by(&self, rho_sched: f64, rho_service: &[f64]) -> bool {
        assert_eq!(
            rho_service.len(),
            self.rates.len(),
            "one throughput per demanded service"
        );
        rho_sched >= self.total_rate() && self.rates.iter().zip(rho_service).all(|(&d, &r)| r >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Dgemm;

    fn mix() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(100).service(), 3.0),
            (Dgemm::new(310).service(), 1.0),
        ])
    }

    #[test]
    fn shares_normalize() {
        let m = mix();
        assert_eq!(m.len(), 2);
        assert!((m.share(0) - 0.75).abs() < 1e-12);
        assert!((m.share(1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weights_summing_past_f64_max_normalize_like_equal_weights() {
        let shares = |weights: &[f64]| -> Vec<u64> {
            let m = ServiceMix::new(
                weights
                    .iter()
                    .map(|&w| (Dgemm::new(100).service(), w))
                    .collect(),
            );
            (0..m.len()).map(|i| m.share(i).to_bits()).collect()
        };
        assert_eq!(shares(&[1e308, 1e308]), shares(&[1.0, 1.0]));
        assert_eq!(shares(&[f64::MAX; 3]), shares(&[1.0; 3]));
        assert_eq!(shares(&[f64::MAX, 0.0]), shares(&[1.0, 0.0]));
    }

    #[test]
    fn draw_respects_shares() {
        let m = mix();
        assert_eq!(m.draw(0.0), 0);
        assert_eq!(m.draw(0.74), 0);
        assert_eq!(m.draw(0.76), 1);
        assert_eq!(m.draw(0.999), 1);
    }

    #[test]
    fn mean_wapp_is_weighted() {
        let m = mix();
        let expected = 0.75 * 2.0 + 0.25 * 59.582;
        assert!((m.mean_wapp() - expected).abs() < 1e-9);
    }

    #[test]
    fn single_service_mix() {
        let m = ServiceMix::single(Dgemm::new(10).service());
        assert_eq!(m.len(), 1);
        assert_eq!(m.share(0), 1.0);
        assert_eq!(m.draw(0.5), 0);
        assert!(!m.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one service")]
    fn empty_mix_rejected() {
        let _ = ServiceMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn bad_weights_rejected() {
        let _ = ServiceMix::new(vec![(Dgemm::new(10).service(), -1.0)]);
    }

    #[test]
    #[should_panic(expected = "positive total")]
    fn all_zero_weights_rejected() {
        let _ = ServiceMix::new(vec![
            (Dgemm::new(10).service(), 0.0),
            (Dgemm::new(100).service(), 0.0),
        ]);
    }

    #[test]
    fn zero_weight_service_kept_with_zero_share() {
        let m = ServiceMix::new(vec![
            (Dgemm::new(10).service(), 0.0),
            (Dgemm::new(100).service(), 2.0),
        ]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.share(0), 0.0);
        assert_eq!(m.share(1), 1.0);
        assert_eq!(m.demanded_services(), 1);
        assert_eq!(m.draw(0.0), 1, "zero-share service never drawn");
    }

    #[test]
    fn mix_demand_satisfaction() {
        let d = MixDemand::targets(vec![3.0, 0.0, 2.0]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.total_rate(), 5.0);
        assert!(!d.any_unbounded());
        assert!(d.satisfied_by(5.0, &[3.0, 0.0, 2.0]));
        assert!(
            !d.satisfied_by(4.9, &[3.0, 0.0, 2.0]),
            "sched must carry the sum"
        );
        assert!(
            !d.satisfied_by(10.0, &[2.9, 0.0, 2.0]),
            "each service must cover its own"
        );
        assert!(d.satisfied_by(10.0, &[3.0, 0.0, 9.0]));
    }

    #[test]
    fn unbounded_mix_demand_never_satisfied() {
        let d = MixDemand::unbounded(2);
        assert!(d.any_unbounded());
        assert!(!d.satisfied_by(1e12, &[1e12, 1e12]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mix_demand_rejected() {
        let _ = MixDemand::targets(vec![1.0, -0.5]);
    }

    #[test]
    fn try_targets_validates_at_construction() {
        assert_eq!(MixDemand::try_targets(vec![]), Err(DemandError::Empty));
        assert_eq!(
            MixDemand::try_targets(vec![1.0, f64::NAN]),
            Err(DemandError::NotANumber { index: 1 })
        );
        assert!(matches!(
            MixDemand::try_targets(vec![-0.5]),
            Err(DemandError::Negative { index: 0, .. })
        ));
        // Infinity stays legal: the documented per-service "unbounded".
        let d = MixDemand::try_targets(vec![f64::INFINITY, 0.0]).unwrap();
        assert!(d.any_unbounded());
        assert!(DemandError::Empty
            .to_string()
            .contains("at least one service"));
        assert!(DemandError::NotANumber { index: 3 }
            .to_string()
            .contains("NaN"));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_mix_demand_panics_in_the_literal_constructor() {
        let _ = MixDemand::targets(vec![f64::NAN]);
    }
}
