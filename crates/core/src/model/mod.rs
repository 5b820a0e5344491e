//! The steady-state throughput model of paper Section 3.
//!
//! The model assumes the `M(r,s,w)` machine capability (Chouhan's thesis
//! \[9\]): a resource has **no internal parallelism** — it can send one
//! message, receive one message, or compute, one at a time, over a single
//! port. Under steady state, each resource therefore acts as a pipeline
//! stage whose cycle time is the *sum* of the times of the operations it
//! performs per request; the stage's throughput is the inverse of its cycle,
//! and the deployment's throughput is the minimum over stages.
//!
//! Submodules map one-to-one onto the paper:
//!
//! * [`comm`] — Equations 1–4 (per-request communication times);
//! * [`compute`] — Equations 5 and 10 (per-request computation times);
//! * [`throughput`] — Equations 13–16 (phase and platform throughputs).
//!
//! [`ModelParams`] bundles the calibration, bandwidth and latency; its
//! [`evaluate`](ModelParams::evaluate) method produces a full
//! `ThroughputReport` for a plan.

pub mod batch;
pub mod comm;
pub mod compute;
pub mod hetero;
pub mod incremental;
pub mod mix;
pub mod throughput;

pub use incremental::IncrementalEval;

use crate::analysis::ThroughputReport;
use adept_hierarchy::DeploymentPlan;
use adept_platform::{MbitRate, MiddlewareCalibration, Platform, Seconds, SiteId};
use adept_workload::ServiceSpec;

/// All scalar inputs of the model other than node powers and the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelParams {
    /// Middleware calibration (paper Table 3).
    pub calibration: MiddlewareCalibration,
    /// Homogeneous link bandwidth `B` — the only bandwidth the paper's
    /// formulas see, and the fallback scalarization when
    /// [`site_aware`](ModelParams::site_aware) is off or the platform's
    /// network is uniform.
    pub bandwidth: MbitRate,
    /// Fixed per-message latency. The paper's model has none (zero); the
    /// simulator exposes one, and setting it here keeps predictions
    /// comparable when it is non-zero.
    pub latency: Seconds,
    /// Price links with the platform's per-site-pair bandwidths when its
    /// network is heterogeneous (the [`hetero`] generalization of
    /// Eq. 1–16). On by default; with a [`Network::Homogeneous`](adept_platform::Network::Homogeneous)
    /// platform the flag is inert
    /// and every result is bit-identical to the paper's model. Turn it
    /// off ([`scalarized`](ModelParams::scalarized)) to reproduce the
    /// historical min-bandwidth scalarization on multi-site platforms —
    /// the baseline the `hetero_comm` experiment compares against.
    pub site_aware: bool,
    /// Where the clients sit. `None` (default) keeps the historical
    /// convention: the root's parent link and the Eq. 15 service-phase
    /// transfers are costed at each endpoint's own intra-site bandwidth
    /// (clients co-located with each node's site gateway). With a site,
    /// those links cross `bandwidth_between(node_site, client_site)` —
    /// the Section 5.3 setup where clients ran on a dedicated cluster.
    /// Only consulted by the site-aware paths; the uniform model has a
    /// single bandwidth either way.
    pub client_site: Option<SiteId>,
}

impl ModelParams {
    /// Parameters with the default (Lyon 2008) calibration and an explicit
    /// bandwidth, zero latency.
    pub fn new(bandwidth: MbitRate) -> Self {
        Self {
            calibration: MiddlewareCalibration::lyon_2008(),
            bandwidth,
            latency: Seconds::ZERO,
            site_aware: true,
            client_site: None,
        }
    }

    /// Parameters taken from a platform's network model and the default
    /// calibration. `bandwidth` is the network's uniform scalarization
    /// (the conservative min on a multi-site network), used whenever a
    /// formula needs the paper's single `B`.
    pub fn from_platform(platform: &Platform) -> Self {
        Self {
            calibration: MiddlewareCalibration::lyon_2008(),
            bandwidth: platform.bandwidth(),
            latency: platform.network().latency(),
            site_aware: true,
            client_site: None,
        }
    }

    /// Replaces the per-message latency.
    pub fn with_latency(mut self, latency: Seconds) -> Self {
        self.latency = latency;
        self
    }

    /// Disables per-link pricing: every link is costed at
    /// [`bandwidth`](ModelParams::bandwidth), the paper's homogeneous
    /// model, even on a multi-site platform (the min-B scalarization
    /// baseline).
    pub fn scalarized(mut self) -> Self {
        self.site_aware = false;
        self
    }

    /// Declares the clients' site (see
    /// [`client_site`](ModelParams::client_site)).
    pub fn with_client_site(mut self, site: SiteId) -> Self {
        self.client_site = Some(site);
        self
    }

    /// True when evaluation of `platform` should price individual links:
    /// site-aware pricing is on *and* the network actually distinguishes
    /// links.
    pub fn uses_link_bandwidths(&self, platform: &Platform) -> bool {
        self.site_aware && !platform.network().is_homogeneous()
    }

    /// Full model evaluation of a plan: `ρ`, both phase throughputs, and
    /// the bottleneck element (paper Eq. 16). On a platform with a
    /// heterogeneous network (and [`site_aware`](ModelParams::site_aware)
    /// left on) this is the [`hetero`] generalization — per-link
    /// bandwidths; on a uniform network it is the paper's homogeneous
    /// model, bit-identically.
    pub fn evaluate(
        &self,
        platform: &Platform,
        plan: &DeploymentPlan,
        service: &ServiceSpec,
    ) -> ThroughputReport {
        if self.uses_link_bandwidths(platform) {
            hetero::evaluate_hetero(self, platform, plan, service)
        } else {
            throughput::evaluate(self, platform, plan, service)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_platform::generator::lyon_cluster;

    #[test]
    fn from_platform_picks_up_bandwidth() {
        let p = lyon_cluster(4);
        let m = ModelParams::from_platform(&p);
        assert_eq!(m.bandwidth, p.bandwidth());
        assert_eq!(m.latency, Seconds::ZERO);
        assert_eq!(m.calibration, MiddlewareCalibration::lyon_2008());
    }

    #[test]
    fn builders_replace_fields() {
        let m = ModelParams::new(MbitRate(42.0)).with_latency(Seconds(0.5));
        assert_eq!(m.bandwidth, MbitRate(42.0));
        assert_eq!(m.latency, Seconds(0.5));
        assert!(m.site_aware);
        assert_eq!(m.client_site, None);
        let m = m.scalarized().with_client_site(SiteId(1));
        assert!(!m.site_aware);
        assert_eq!(m.client_site, Some(SiteId(1)));
    }

    #[test]
    fn evaluate_dispatches_on_the_network_model() {
        use adept_hierarchy::builder::star;
        use adept_platform::{MflopRate, Network, NodeId, Platform};
        use adept_workload::Dgemm;
        let mut b = Platform::builder(Network::PerSitePair {
            intra: vec![MbitRate(100.0), MbitRate(100.0)],
            inter: MbitRate(10.0),
            latency: Seconds::ZERO,
        });
        let s0 = b.add_site("a");
        let s1 = b.add_site("b");
        for i in 0..3 {
            b.add_node(format!("a{i}"), MflopRate(400.0), s0).unwrap();
        }
        for i in 0..3 {
            b.add_node(format!("b{i}"), MflopRate(400.0), s1).unwrap();
        }
        let platform = b.build().unwrap();
        let svc = Dgemm::new(310).service();
        let intra_plan = star(&[NodeId(0), NodeId(1), NodeId(2)]);
        let params = ModelParams::from_platform(&platform);
        assert!(params.uses_link_bandwidths(&platform));
        // Site-aware: the intra-site star never touches the 10 Mb/s WAN,
        // so it beats its own min-B scalarization.
        let aware = params.evaluate(&platform, &intra_plan, &svc).rho;
        let scalar = params
            .scalarized()
            .evaluate(&platform, &intra_plan, &svc)
            .rho;
        assert!(aware > scalar, "per-link pricing credits intra links");
        // Uniform platform: both paths are the same code.
        let uniform = lyon_cluster(3);
        let p2 = ModelParams::from_platform(&uniform);
        assert!(!p2.uses_link_bandwidths(&uniform));
        let a = p2.evaluate(&uniform, &intra_plan, &svc).rho;
        let b2 = p2.scalarized().evaluate(&uniform, &intra_plan, &svc).rho;
        assert_eq!(a.to_bits(), b2.to_bits());
    }
}
