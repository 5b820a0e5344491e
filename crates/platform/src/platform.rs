//! The aggregate platform: resources + sites + network.

use crate::error::PlatformError;
use crate::network::Network;
use crate::ranking::{self, NodeRanking};
use crate::resource::{NodeId, Resource, Site, SiteId};
use crate::units::{MbitRate, MflopRate};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::BuildHasher;
use std::sync::{Arc, OnceLock};

/// A deployment target: a set of heterogeneous resources with a network
/// model, as in the paper's Section 3.
///
/// Node ids are dense (`0..node_count()`), assigned in insertion order.
#[derive(Debug, Clone)]
pub struct Platform {
    nodes: Vec<Resource>,
    sites: Vec<Site>,
    network: Network,
    /// [`fingerprint`](Platform::fingerprint), stored by its first call.
    /// A built platform has no mutator, so the stored value never goes
    /// stale, and a clone may carry it.
    fingerprint: OnceLock<u64>,
    /// [`site_table`](Platform::site_table), stored by its first call on
    /// the same terms as `fingerprint`.
    site_table: OnceLock<Arc<[SiteId]>>,
}

/// Structural equality over nodes, sites and network. The stored
/// fingerprint and site table are left out, so a hashed platform equals
/// an unhashed copy of itself.
impl PartialEq for Platform {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.sites == other.sites && self.network == other.network
    }
}

/// Builder for [`Platform`], enforcing name uniqueness and id density.
///
/// Duplicate host names are found through a 64-bit hash of each name,
/// indexed to the node that holds it, so every name is stored once: in
/// its node.
#[derive(Debug)]
pub struct PlatformBuilder {
    nodes: Vec<Resource>,
    sites: Vec<Site>,
    /// Hash of a host name → the first node whose name produced it. The
    /// names are hashed with the map's own randomly keyed hasher, so no
    /// one can pick names that collide. Keyed by hash, not by a copy of
    /// the name: at 10⁶ nodes, `build()` freeing a million small copies,
    /// each lying between two live names, leaves a fragmented heap that
    /// whatever allocates next pays for (measured at several hundred ms
    /// on glibc).
    first_with_hash: HashMap<u64, NodeId>,
    network: Network,
}

impl PlatformBuilder {
    /// Starts a platform with the given network model.
    pub fn new(network: Network) -> Self {
        Self {
            nodes: Vec::new(),
            sites: Vec::new(),
            first_with_hash: HashMap::new(),
            network,
        }
    }

    /// Registers a site and returns its id.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let id = SiteId(self.sites.len() as u16);
        self.sites.push(Site {
            id,
            name: name.into(),
        });
        id
    }

    /// Registers a node on a site and returns its id.
    ///
    /// # Errors
    /// Returns [`PlatformError::DuplicateName`] if the host name was already
    /// used, or [`PlatformError::UnknownSite`] for an unregistered site.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        power: MflopRate,
        site: SiteId,
    ) -> Result<NodeId, PlatformError> {
        let name = name.into();
        if site.index() >= self.sites.len() {
            return Err(PlatformError::UnknownSite(site));
        }
        let id = NodeId(self.nodes.len() as u32);
        let hash = self.first_with_hash.hasher().hash_one(&name);
        match self.first_with_hash.entry(hash) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(first) => {
                // Every node with this name hashes alike, so none precedes
                // `first`. A duplicate of `first` stops at the first
                // element; only a true 64-bit collision scans further.
                let first = first.get().index();
                if self.nodes[first..].iter().any(|n| n.name == name) {
                    return Err(PlatformError::DuplicateName(name));
                }
            }
        }
        self.nodes.push(Resource::new(id, name, power, site));
        Ok(id)
    }

    /// Finalizes the platform.
    ///
    /// # Errors
    /// Returns [`PlatformError::Empty`] if no node was added.
    pub fn build(self) -> Result<Platform, PlatformError> {
        if self.nodes.is_empty() {
            return Err(PlatformError::Empty);
        }
        Ok(Platform {
            nodes: self.nodes,
            sites: self.sites,
            network: self.network,
            fingerprint: OnceLock::new(),
            site_table: OnceLock::new(),
        })
    }
}

impl Platform {
    /// Starts building a platform.
    pub fn builder(network: Network) -> PlatformBuilder {
        PlatformBuilder::new(network)
    }

    /// Number of nodes (the paper's `n_nodes` when all are offered to the
    /// planner).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Resource] {
        &self.nodes
    }

    /// All sites, in id order.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site of a node.
    ///
    /// # Panics
    /// Panics on an unknown id; planners only hold ids handed out by this
    /// platform.
    pub fn site_of(&self, id: NodeId) -> SiteId {
        self.nodes[id.index()].site
    }

    /// The network model.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Looks up a node.
    ///
    /// # Errors
    /// Returns [`PlatformError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: NodeId) -> Result<&Resource, PlatformError> {
        self.nodes
            .get(id.index())
            .ok_or(PlatformError::UnknownNode(id))
    }

    /// Computing power `w_i` of a node.
    ///
    /// # Panics
    /// Panics on an unknown id; planners only hold ids handed out by this
    /// platform.
    pub fn power(&self, id: NodeId) -> MflopRate {
        self.nodes[id.index()].power
    }

    /// The uniform bandwidth `B` used by the paper's formulas.
    pub fn bandwidth(&self) -> MbitRate {
        self.network.uniform_bandwidth()
    }

    /// Node ids sorted by **descending computing power**, ties broken by id
    /// for determinism ([`sort_by_power_desc`](Platform::sort_by_power_desc)
    /// over every node). Useful to heuristics and reporting.
    pub fn ids_by_power_desc(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.nodes.iter().map(|n| n.id).collect();
        self.sort_by_power_desc(&mut ids);
        ids
    }

    /// Sorts node ids strongest first: descending computing power, ties
    /// to the lower id. The one strongest-first order of the planners;
    /// [`rank_by_power`](Platform::rank_by_power) gives the same order
    /// sorted lazily.
    ///
    /// Powers are positive and finite, so their IEEE-754 bit patterns
    /// order like the values; sorting `(bits, id)` integer pairs instead
    /// of calling `power()` per comparison keeps this O(n log n) with
    /// branch-light comparisons.
    ///
    /// # Panics
    /// Panics on an id this platform did not hand out.
    pub fn sort_by_power_desc(&self, ids: &mut [NodeId]) {
        let mut keyed: Vec<(u64, NodeId)> = ids.iter().map(|&id| self.power_key(id)).collect();
        keyed.sort_unstable_by_key(ranking::rank);
        for (slot, (_, id)) in ids.iter_mut().zip(keyed) {
            *slot = id;
        }
    }

    /// The ids ranked strongest first, in
    /// [`sort_by_power_desc`](Platform::sort_by_power_desc)'s order,
    /// sorted only as deep as the ranking is read. A planner that reads
    /// the head of a 10⁶-node order pays one selection pass and a sort of
    /// the head, not a sort of the whole catalog.
    ///
    /// # Panics
    /// Panics on an id this platform did not hand out.
    pub fn rank_by_power(&self, ids: impl IntoIterator<Item = NodeId>) -> NodeRanking {
        NodeRanking::new(ids.into_iter().map(|id| self.power_key(id)).collect())
    }

    /// The strongest-first key of a node: its power's bit pattern, which
    /// orders like the power.
    fn power_key(&self, id: NodeId) -> (u64, NodeId) {
        (self.power(id).value().to_bits(), id)
    }

    /// Total computing power of the platform (Σ w_i).
    pub fn total_power(&self) -> MflopRate {
        MflopRate(self.nodes.iter().map(|n| n.power.value()).sum())
    }

    /// Returns the ids of nodes on a given site.
    pub fn nodes_on_site(&self, site: SiteId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.site == site)
            .map(|n| n.id)
            .collect()
    }

    /// A stable structural fingerprint: every node (name, power, site),
    /// every site name, and the network model folded through 64-bit
    /// FNV-1a. Two platforms planning identically have equal
    /// fingerprints; a journaled tenant session uses this to refuse
    /// resuming onto a platform that changed shape under it (see the
    /// `adept-serve` journal).
    ///
    /// The first call hashes the whole platform (O(n): ~0.46 ms at
    /// n = 10⁴, ~50 ms at 10⁶) and stores the value; later calls, on
    /// this platform or a clone of it, return the stored value. Journals
    /// on disk hold these values, so the hash, the bytes it reads and
    /// their order must never change: `fingerprint_values_are_pinned`
    /// fixes them for six platforms.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.structural_hash())
    }

    /// Every node's site, indexed by node id: entry `i` is
    /// [`site_of`](Platform::site_of)`(NodeId(i))`. The site-aware
    /// incremental engine looks sites up here on every delta.
    ///
    /// The first call fills the table (one pass over the catalog, 2 B per
    /// node: ~4 ms at 10⁶); later calls, on this platform or a clone of
    /// it, return the same shared allocation, so every engine built on a
    /// catalog shares one table. A built platform has no mutator, so the
    /// table never goes stale. Equality ignores it, as it ignores the
    /// fingerprint.
    pub fn site_table(&self) -> &Arc<[SiteId]> {
        self.site_table
            .get_or_init(|| self.nodes.iter().map(|n| n.site).collect())
    }

    /// The hash behind [`fingerprint`](Platform::fingerprint).
    fn structural_hash(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        struct Fnv(u64);
        impl Fnv {
            fn bytes(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
                }
            }
            fn u64(&mut self, v: u64) {
                self.bytes(&v.to_le_bytes());
            }
            fn f64(&mut self, v: f64) {
                self.u64(v.to_bits());
            }
            fn str(&mut self, s: &str) {
                self.u64(s.len() as u64);
                self.bytes(s.as_bytes());
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        h.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.str(&n.name);
            h.f64(n.power.value());
            h.u64(u64::from(n.site.0));
        }
        h.u64(self.sites.len() as u64);
        for s in &self.sites {
            h.str(&s.name);
        }
        match &self.network {
            Network::Homogeneous { bandwidth, latency } => {
                h.u64(1);
                h.f64(bandwidth.value());
                h.f64(latency.value());
            }
            Network::PerSitePair {
                intra,
                inter,
                latency,
            } => {
                h.u64(2);
                h.u64(intra.len() as u64);
                for b in intra {
                    h.f64(b.value());
                }
                h.f64(inter.value());
                h.f64(latency.value());
            }
        }
        h.0
    }

    /// True if all nodes have the same power (homogeneous cluster), with a
    /// relative tolerance of 1e-9.
    pub fn is_homogeneous_compute(&self) -> bool {
        let first = self.nodes[0].power.value();
        self.nodes
            .iter()
            .all(|n| (n.power.value() - first).abs() <= first.abs() * 1e-9)
    }

    /// Restrict the platform to the `k` most powerful nodes, preserving the
    /// network model. Node ids are re-assigned densely.
    ///
    /// # Errors
    /// [`PlatformError::NotEnoughNodes`] if `k > node_count()`,
    /// [`PlatformError::Empty`] if `k == 0`.
    pub fn take_most_powerful(&self, k: usize) -> Result<Platform, PlatformError> {
        if k > self.nodes.len() {
            return Err(PlatformError::NotEnoughNodes {
                requested: k,
                available: self.nodes.len(),
            });
        }
        if k == 0 {
            return Err(PlatformError::Empty);
        }
        let ids = self.ids_by_power_desc();
        let mut nodes = Vec::with_capacity(k);
        for (new_idx, id) in ids.into_iter().take(k).enumerate() {
            let src = &self.nodes[id.index()];
            nodes.push(Resource::new(
                NodeId(new_idx as u32),
                src.name.clone(),
                src.power,
                src.site,
            ));
        }
        Ok(Platform {
            nodes,
            sites: self.sites.clone(),
            network: self.network.clone(),
            fingerprint: OnceLock::new(),
            site_table: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Seconds;

    fn sample() -> Platform {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1000.0)));
        let s = b.add_site("lyon");
        b.add_node("a", MflopRate(100.0), s).unwrap();
        b.add_node("b", MflopRate(300.0), s).unwrap();
        b.add_node("c", MflopRate(200.0), s).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let p = sample();
        assert_eq!(p.node_count(), 3);
        for (i, n) in p.nodes().iter().enumerate() {
            assert_eq!(n.id.index(), i);
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        b.add_node("dup", MflopRate(1.0), s).unwrap();
        let err = b.add_node("dup", MflopRate(2.0), s).unwrap_err();
        assert_eq!(err, PlatformError::DuplicateName("dup".into()));
        // Every accepted node takes the next dense id, rejections or not.
        let mut accepted = vec!["dup".to_string()];
        let mut accept = |b: &mut PlatformBuilder, name: String| {
            assert_eq!(
                b.add_node(name.clone(), MflopRate(1.0), s),
                Ok(NodeId(accepted.len() as u32)),
                "{name:?} must be accepted"
            );
            accepted.push(name);
        };
        // A shared prefix, a trailing space and the empty name are all
        // distinct names.
        for name in ["n1", "n10", "n1 ", ""] {
            accept(&mut b, name.to_string());
        }
        for i in 0..10_000 {
            accept(&mut b, format!("host-{i}"));
        }
        for name in ["host-0", "host-5000", "host-9999", "n1", "n1 ", ""] {
            let err = b.add_node(name, MflopRate(3.0), s).unwrap_err();
            assert_eq!(err, PlatformError::DuplicateName(name.into()));
            accept(&mut b, format!("{name}/after"));
        }
        let p = b.build().unwrap();
        let built: Vec<&str> = p.nodes().iter().map(|n| n.name.as_str()).collect();
        assert_eq!(built, accepted);
        assert!(p.nodes().iter().enumerate().all(|(i, n)| n.id.index() == i));
    }

    #[test]
    fn unknown_site_rejected() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let err = b.add_node("a", MflopRate(1.0), SiteId(0)).unwrap_err();
        assert_eq!(err, PlatformError::UnknownSite(SiteId(0)));
    }

    #[test]
    fn empty_platform_rejected() {
        let b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        assert_eq!(b.build().unwrap_err(), PlatformError::Empty);
    }

    #[test]
    fn sort_by_power_descending_breaks_ties_by_id() {
        let p = sample();
        let ids = p.ids_by_power_desc();
        assert_eq!(ids, vec![NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn tie_break_is_by_id() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        b.add_node("a", MflopRate(5.0), s).unwrap();
        b.add_node("b", MflopRate(5.0), s).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.ids_by_power_desc(), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn total_power_sums() {
        assert_eq!(sample().total_power(), MflopRate(600.0));
    }

    #[test]
    fn homogeneity_detection() {
        assert!(!sample().is_homogeneous_compute());
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        for i in 0..4 {
            b.add_node(format!("n{i}"), MflopRate(42.0), s).unwrap();
        }
        assert!(b.build().unwrap().is_homogeneous_compute());
    }

    #[test]
    fn take_most_powerful_reindexes() {
        let p = sample().take_most_powerful(2).unwrap();
        assert_eq!(p.node_count(), 2);
        assert_eq!(p.nodes()[0].name, "b");
        assert_eq!(p.nodes()[0].id, NodeId(0));
        assert_eq!(p.nodes()[1].name, "c");
        assert_eq!(p.nodes()[1].id, NodeId(1));
    }

    #[test]
    fn take_too_many_fails() {
        let err = sample().take_most_powerful(5).unwrap_err();
        assert_eq!(
            err,
            PlatformError::NotEnoughNodes {
                requested: 5,
                available: 3
            }
        );
    }

    #[test]
    fn nodes_on_site_filters() {
        let mut b = Platform::builder(Network::Homogeneous {
            bandwidth: MbitRate(1.0),
            latency: Seconds::ZERO,
        });
        let s0 = b.add_site("lyon");
        let s1 = b.add_site("orsay");
        b.add_node("l1", MflopRate(1.0), s0).unwrap();
        b.add_node("o1", MflopRate(1.0), s1).unwrap();
        b.add_node("l2", MflopRate(1.0), s0).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.nodes_on_site(s0), vec![NodeId(0), NodeId(2)]);
        assert_eq!(p.nodes_on_site(s1), vec![NodeId(1)]);
    }

    #[test]
    fn site_table_matches_site_of_and_is_shared() {
        let p = crate::generator::multi_site_grid(
            3,
            40,
            MflopRate(400.0),
            MbitRate(100.0),
            MbitRate(10.0),
            5,
        );
        let unfilled = p.clone();
        let table = p.site_table();
        assert_eq!(table.len(), p.node_count());
        for node in p.nodes() {
            assert_eq!(table[node.id.index()], p.site_of(node.id), "{}", node.id);
        }
        assert_eq!(
            table
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3,
            "every site appears"
        );
        assert!(Arc::ptr_eq(table, p.site_table()), "second call");
        assert!(Arc::ptr_eq(table, p.clone().site_table()), "clone");
        assert!(p == unfilled, "a filled table equals an unfilled one");
    }

    /// Journals store these values and refuse to resume on any other, so
    /// a change to the hash or to the order it reads fields in breaks
    /// every journal on disk.
    #[test]
    fn fingerprint_values_are_pinned() {
        use crate::{catalog, generator};
        type Build = fn() -> Platform;
        let builds: [(&str, Build, u64); 6] = [
            ("sample", sample, 0xc0ac_bbad_b4c5_8d18),
            (
                "sample top 2",
                || sample().take_most_powerful(2).unwrap(),
                0x8b10_974c_4153_e974,
            ),
            (
                "lyon_cluster(20)",
                || generator::lyon_cluster(20),
                0x9c91_dba3_e7d3_be06,
            ),
            (
                "multi_site_grid(2, 5000)",
                || {
                    generator::multi_site_grid(
                        2,
                        5_000,
                        MflopRate(400.0),
                        MbitRate(100.0),
                        MbitRate(10.0),
                        7,
                    )
                },
                0xa8e3_7ac2_5258_aa79,
            ),
            (
                "catalog lyon",
                || catalog::single_site("lyon", None).unwrap(),
                0xfe69_910d_a9eb_6ba2,
            ),
            (
                "catalog lyon+orsay",
                || catalog::multi_site(&["lyon", "orsay"], MbitRate(20.0)).unwrap(),
                0xcf1f_b749_f3c8_3ab9,
            ),
        ];
        for (name, build, pinned) in builds {
            let p = build();
            assert_eq!(p.fingerprint(), pinned, "{name}: first call");
            assert_eq!(p.fingerprint(), pinned, "{name}: stored value");
            assert_eq!(p.clone().fingerprint(), pinned, "{name}: clone");
            assert!(p == build(), "{name}: hashed equals a never-hashed copy");
        }
    }
}
