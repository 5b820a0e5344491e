//! A catalog of named platform presets modelled on the 2008-era Grid'5000
//! sites the DIET project deployed on.
//!
//! The paper used Lyon (calibration, clients) and Orsay (the 200-node
//! deployment cluster). The catalog rounds this out with the other sites
//! DIET publications of the period mention, so examples and stress tests
//! can build realistic multi-cluster platforms without hand-rolling node
//! lists. Powers are *relative* figures in the paper's Linpack
//! mini-benchmark units, not vendor specs.

use crate::calibration::MiddlewareCalibration;
use crate::error::PlatformError;
use crate::generator::{host_name, HostName};
use crate::network::Network;
use crate::platform::{NodeSpec, Platform};
use crate::resource::SiteId;
use crate::units::{MbitRate, MflopRate, Seconds};

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteSpec {
    /// Site name (Grid'5000 city).
    pub name: &'static str,
    /// Host-name prefix of the site's cluster.
    pub host_prefix: &'static str,
    /// Number of nodes available to middleware deployments.
    pub nodes: usize,
    /// Per-node power under the Linpack mini-benchmark (MFlop/s).
    pub node_power: MflopRate,
}

/// The five-site catalog.
pub const SITES: [SiteSpec; 5] = [
    SiteSpec {
        name: "lyon",
        host_prefix: "sagittaire",
        nodes: 56,
        node_power: MflopRate(400.0),
    },
    SiteSpec {
        name: "orsay",
        host_prefix: "gdx",
        nodes: 216,
        node_power: MflopRate(380.0),
    },
    SiteSpec {
        name: "rennes",
        host_prefix: "paravent",
        nodes: 99,
        node_power: MflopRate(420.0),
    },
    SiteSpec {
        name: "sophia",
        host_prefix: "azur",
        nodes: 72,
        node_power: MflopRate(340.0),
    },
    SiteSpec {
        name: "toulouse",
        host_prefix: "violette",
        nodes: 57,
        node_power: MflopRate(360.0),
    },
];

/// Looks up a site by name.
pub fn site(name: &str) -> Option<&'static SiteSpec> {
    SITES.iter().find(|s| s.name == name)
}

/// Builds a single-site platform from the catalog, truncated to
/// `max_nodes` if given.
///
/// # Errors
/// [`PlatformError::UnknownSiteName`] for a name outside the catalog.
pub fn single_site(name: &str, max_nodes: Option<usize>) -> Result<Platform, PlatformError> {
    let spec = site(name).ok_or_else(|| PlatformError::UnknownSiteName(name.to_string()))?;
    let mut b = Platform::builder(Network::homogeneous(
        MiddlewareCalibration::reference_bandwidth(),
    ));
    let site_id = b.add_site(spec.name);
    let count = max_nodes.map_or(spec.nodes, |m| m.min(spec.nodes));
    let affixes = HostAffixes::of(spec);
    b.add_nodes(affixes.nodes(spec, site_id, count))?;
    b.build()
}

/// Builds a multi-site platform with per-site intra bandwidth and a
/// shared inter-site (RENATER backbone) bandwidth.
///
/// # Errors
/// [`PlatformError::UnknownSiteName`] for a name outside the catalog;
/// [`PlatformError::Empty`] for an empty site list;
/// [`PlatformError::DuplicateName`] for a site listed twice (its host
/// names repeat).
pub fn multi_site(names: &[&str], inter_bandwidth: MbitRate) -> Result<Platform, PlatformError> {
    if names.is_empty() {
        return Err(PlatformError::Empty);
    }
    let specs: Vec<&SiteSpec> = names
        .iter()
        .map(|&n| site(n).ok_or_else(|| PlatformError::UnknownSiteName(n.to_string())))
        .collect::<Result<_, _>>()?;
    let intra = vec![MiddlewareCalibration::reference_bandwidth(); specs.len()];
    let mut b = Platform::builder(Network::PerSitePair {
        intra,
        inter: inter_bandwidth,
        latency: Seconds(5e-4), // metropolitan RTT scale
    });
    // Every site first, then every node as one batch.
    let sites: Vec<(&SiteSpec, SiteId, HostAffixes)> = specs
        .into_iter()
        .map(|spec| (spec, b.add_site(spec.name), HostAffixes::of(spec)))
        .collect();
    b.add_nodes(
        sites
            .iter()
            .flat_map(|(spec, site_id, affixes)| affixes.nodes(spec, *site_id, spec.nodes)),
    )?;
    b.build()
}

/// A catalog site's host names are `{host_prefix}-{i}.{name}`: the text
/// around the index, built once per site and lent to every name.
struct HostAffixes {
    prefix: String,
    suffix: String,
}

impl HostAffixes {
    fn of(spec: &SiteSpec) -> Self {
        Self {
            prefix: format!("{}-", spec.host_prefix),
            suffix: format!(".{}", spec.name),
        }
    }

    /// The first `count` nodes of the site.
    fn nodes<'a>(
        &'a self,
        spec: &SiteSpec,
        site_id: SiteId,
        count: usize,
    ) -> impl Iterator<Item = NodeSpec<HostName<'a>>> + 'a {
        let power = spec.node_power;
        (0..count).map(move |i| (host_name(&self.prefix, i, &self.suffix), power, site_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn catalog_is_consistent() {
        assert_eq!(SITES.len(), 5);
        for s in &SITES {
            assert!(s.nodes > 0);
            assert!(s.node_power.value() > 0.0);
        }
        assert!(site("orsay").is_some());
        assert!(site("mars").is_none());
    }

    #[test]
    fn single_site_platform() {
        let p = single_site("lyon", None).unwrap();
        assert_eq!(p.node_count(), 56);
        assert!(p.is_homogeneous_compute());
        assert!(p.name(NodeId(0)).starts_with("sagittaire-0"));
    }

    #[test]
    fn single_site_truncation() {
        let p = single_site("orsay", Some(30)).unwrap();
        assert_eq!(p.node_count(), 30);
    }

    #[test]
    fn unknown_site_is_an_error_not_a_panic() {
        let err = single_site("atlantis", None).unwrap_err();
        assert_eq!(err, PlatformError::UnknownSiteName("atlantis".into()));
        assert!(err.to_string().contains("atlantis"));
        let err = multi_site(&["lyon", "mars"], MbitRate(20.0)).unwrap_err();
        assert_eq!(err, PlatformError::UnknownSiteName("mars".into()));
        assert_eq!(
            multi_site(&[], MbitRate(20.0)).unwrap_err(),
            PlatformError::Empty
        );
        // A repeated site repeats its host names.
        assert_eq!(
            multi_site(&["lyon", "lyon"], MbitRate(20.0)).unwrap_err(),
            PlatformError::DuplicateName("sagittaire-0.lyon".into())
        );
    }

    #[test]
    fn multi_site_platform_has_per_site_network() {
        let p = multi_site(&["lyon", "sophia"], MbitRate(20.0)).unwrap();
        assert_eq!(p.node_count(), 56 + 72);
        assert_eq!(p.sites().len(), 2);
        assert!(!p.network().is_homogeneous());
        // Conservative scalarization picks the slow WAN.
        assert_eq!(p.bandwidth(), MbitRate(20.0));
        // Different powers per site → heterogeneous compute.
        assert!(!p.is_homogeneous_compute());
    }

    #[test]
    fn multi_site_names_are_qualified() {
        let p = multi_site(&["rennes", "toulouse"], MbitRate(50.0)).unwrap();
        assert!(p.ids().any(|id| p.name(id).ends_with(".rennes")));
        assert!(p.ids().any(|id| p.name(id).ends_with(".toulouse")));
    }
}
