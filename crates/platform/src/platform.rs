//! The aggregate platform: node columns + sites + network.

use crate::error::PlatformError;
use crate::names::{HostNames, WriteName};
use crate::network::Network;
use crate::ranking::{self, NodeRanking};
use crate::resource::{NodeId, Site, SiteId};
use crate::spare::SiteOrder;
use crate::units::{MbitRate, MflopRate};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// A deployment target: a set of heterogeneous nodes with a network
/// model, as in the paper's Section 3.
///
/// Node ids are dense (`0..node_count()`), assigned in insertion order. A
/// node is its entry in three columns indexed by id: its power `w_i`, its
/// site and its host name.
#[derive(Debug, Clone)]
pub struct Platform {
    /// Every node's computing power, indexed by node id.
    powers: Vec<MflopRate>,
    /// Every node's site, indexed by node id: [`site_table`](Platform::site_table).
    node_sites: Arc<[SiteId]>,
    /// Every node's host name, indexed by node id.
    names: HostNames,
    sites: Vec<Site>,
    network: Network,
    /// [`fingerprint`](Platform::fingerprint), stored by its first call.
    /// A built platform has no mutator, so the stored value never goes
    /// stale, and a clone may carry it.
    fingerprint: OnceLock<u64>,
    /// [`site_order`](Platform::site_order), stored by its first call on
    /// the same terms as `fingerprint`.
    site_order: OnceLock<SiteOrder>,
}

/// Structural equality over the node columns, sites and network. The
/// stored fingerprint and site order are left out, so a hashed platform
/// equals an unhashed copy of itself.
impl PartialEq for Platform {
    fn eq(&self, other: &Self) -> bool {
        self.powers == other.powers
            && self.node_sites == other.node_sites
            && self.names == other.names
            && self.sites == other.sites
            && self.network == other.network
    }
}

/// Builder for [`Platform`], enforcing name uniqueness and id density.
///
/// Every host name is written once, straight into the platform's one name
/// buffer (see [`Platform::name`]). Duplicates are found through a set of
/// the names' 64-bit keyed hashes: a hash already in the set sends the
/// builder back over the earlier names, which happens only for a true
/// duplicate or a 64-bit collision.
///
/// Nodes arrive in batches: [`add_node`](PlatformBuilder::add_node) is a
/// batch of one, and the generators and the catalog loader add a whole
/// platform as one batch. A batch takes two passes:
///
/// 1. push every node's power and site (checking both), writing each
///    name into the buffer;
/// 2. hash the batch's names into one vector, size the set for the batch
///    once, then insert the hashes back to back.
///
/// Interleaving one key insert with each node, as `add_node` called in a
/// loop does, costs ~320–390 ns per node at 10⁶ nodes on a 2-vCPU x86-64
/// host: each insert waits on its own cache miss, and the set rehashes
/// every key each time it grows. The same 10⁶ inserts back to back over
/// precomputed hashes, into a set sized once, took 26–42 ms there. Sizing
/// once also never holds an old and a new table at the same time. A
/// process that only generates the 4 × 250,000 grid peaks at ~58 MiB, of
/// which the built platform holds ~32 MiB: 8 MB of powers, 2 MB of sites,
/// ~14 MB of names and 8 MB of name offsets (~63 and ~38 MiB with a
/// 16-byte record per node, ~112 and ~71 MiB with a `String` per node).
#[derive(Debug)]
pub struct PlatformBuilder {
    powers: Vec<MflopRate>,
    node_sites: Vec<SiteId>,
    names: HostNames,
    sites: Vec<Site>,
    /// The randomly keyed SipHash every host name is hashed with, so no
    /// one can pick names that collide.
    hasher: RandomState,
    /// The keyed hash of every name added so far: 8 bytes per node, and
    /// no copy of any name. The key is already a keyed hash, so the set
    /// uses it as its own hash instead of hashing it again.
    keys: HashSet<u64, BuildHasherDefault<KeyIsHash>>,
    network: Network,
}

/// The [`Hasher`] of the builder's key set, whose keys are already keyed
/// hashes: it hands a `u64` key back as its own hash.
#[derive(Debug, Default)]
struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher, through `write_u64`; fold
        // any other input rather than drop it.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// One node of a batch: host name, power and site, as
/// [`PlatformBuilder::add_node`] takes them.
pub(crate) type NodeSpec<N> = (N, MflopRate, SiteId);

impl PlatformBuilder {
    /// Starts a platform with the given network model.
    pub fn new(network: Network) -> Self {
        Self {
            powers: Vec::new(),
            node_sites: Vec::new(),
            names: HostNames::default(),
            sites: Vec::new(),
            hasher: RandomState::new(),
            keys: HashSet::default(),
            network,
        }
    }

    /// Registers a site and returns its id.
    ///
    /// # Panics
    /// Panics on the 65,537th site: a [`SiteId`] holds 16 bits, so that
    /// site's id would alias site 0's.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let index = self.sites.len();
        assert!(
            index <= usize::from(u16::MAX),
            "a platform holds at most 65,536 sites"
        );
        let id = SiteId(index as u16);
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
    ///
    /// # Panics
    /// Panics if `power` is not positive and finite: a node with no
    /// computing power cannot appear in any of the paper's formulas (they
    /// divide by `w_i`).
    pub fn add_node(
        &mut self,
        name: impl AsRef<str>,
        power: MflopRate,
        site: SiteId,
    ) -> Result<NodeId, PlatformError> {
        let id = NodeId(self.powers.len() as u32);
        self.add_nodes(std::iter::once((name.as_ref(), power, site)))?;
        Ok(id)
    }

    /// Registers a batch of nodes, in order, each taking the next dense
    /// id; the two passes are described on [`PlatformBuilder`].
    ///
    /// A batch is accepted whole or refused whole. The error is the one
    /// the batch's first refused node would get from
    /// [`add_node`](PlatformBuilder::add_node) called on each node in
    /// turn: an unknown site, or a name used earlier in the batch or
    /// before it. A refused batch leaves the builder as it was before
    /// the call.
    ///
    /// # Panics
    /// Panics, as [`add_node`](PlatformBuilder::add_node) does, on a node
    /// pushed with a power that is not positive and finite. Every node up
    /// to the first unknown site is pushed before any name is checked.
    pub(crate) fn add_nodes<N: WriteName>(
        &mut self,
        batch: impl IntoIterator<Item = NodeSpec<N>>,
    ) -> Result<(), PlatformError> {
        let start = self.powers.len();
        let batch = batch.into_iter();
        self.powers.reserve(batch.size_hint().0);
        self.node_sites.reserve(batch.size_hint().0);
        self.names.reserve(batch.size_hint().0);
        let mut refusal = None;
        for (name, power, site) in batch {
            if site.index() >= self.sites.len() {
                refusal = Some(PlatformError::UnknownSite(site));
                break;
            }
            assert!(
                power.value().is_finite() && power.value() > 0.0,
                "resource power must be positive and finite, got {power}"
            );
            self.powers.push(power);
            self.node_sites.push(site);
            self.names.push(name);
        }
        let hasher = &self.hasher;
        let hashes: Vec<u64> = self
            .names
            .iter_from(start)
            .map(|name| hasher.hash_one(name))
            .collect();
        self.keys.reserve(hashes.len());
        // How many of `hashes` were offered to the set, and which of
        // those an earlier name already held (64-bit collisions).
        let mut offered = hashes.len();
        let mut held = Vec::new();
        for (k, &hash) in hashes.iter().enumerate() {
            if !self.keys.insert(hash) {
                let at = start + k;
                let name = self.names.get(at);
                if self
                    .names
                    .iter_from(0)
                    .take(at)
                    .any(|earlier| earlier == name)
                {
                    // This node precedes any unknown site, so its
                    // refusal is the one to report.
                    refusal = Some(PlatformError::DuplicateName(name.to_owned()));
                    offered = k;
                    break;
                }
                held.push(k);
            }
        }
        let Some(refusal) = refusal else {
            return Ok(());
        };
        // Remove the keys this batch inserted; keys held before it stay.
        for (k, hash) in hashes[..offered].iter().enumerate() {
            if !held.contains(&k) {
                self.keys.remove(hash);
            }
        }
        self.powers.truncate(start);
        self.node_sites.truncate(start);
        self.names.truncate(start);
        Err(refusal)
    }

    /// Finalizes the platform.
    ///
    /// # Errors
    /// Returns [`PlatformError::Empty`] if no node was added.
    pub fn build(self) -> Result<Platform, PlatformError> {
        if self.powers.is_empty() {
            return Err(PlatformError::Empty);
        }
        Ok(Platform {
            powers: self.powers,
            node_sites: self.node_sites.into(),
            names: self.names,
            sites: self.sites,
            network: self.network,
            fingerprint: OnceLock::new(),
            site_order: OnceLock::new(),
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
        self.powers.len()
    }

    /// Every node id, in id order: `NodeId(0)` to
    /// `NodeId(node_count() - 1)`.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.powers.len() as u32).map(NodeId)
    }

    /// Every node's computing power `w_i`, indexed by node id.
    pub fn powers(&self) -> &[MflopRate] {
        &self.powers
    }

    /// All sites, in id order.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// Number of registered sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Host name of a node: the name a GoDIET descriptor and a DOT label
    /// carry. Every name lives in one buffer the platform owns, so a
    /// catalog of 10⁶ nodes holds one allocation for its names, not 10⁶.
    ///
    /// # Panics
    /// Panics on an unknown id; planners only hold ids handed out by this
    /// platform.
    pub fn name(&self, id: NodeId) -> &str {
        self.names.get(id.index())
    }

    /// Site of a node.
    ///
    /// # Panics
    /// Panics on an unknown id; planners only hold ids handed out by this
    /// platform.
    pub fn site_of(&self, id: NodeId) -> SiteId {
        self.node_sites[id.index()]
    }

    /// The network model.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Computing power `w_i` of a node.
    ///
    /// # Panics
    /// Panics on an unknown id; planners only hold ids handed out by this
    /// platform.
    pub fn power(&self, id: NodeId) -> MflopRate {
        self.powers[id.index()]
    }

    /// The uniform bandwidth `B` used by the paper's formulas.
    pub fn bandwidth(&self) -> MbitRate {
        self.network.uniform_bandwidth()
    }

    /// Node ids sorted by **descending computing power**, ties broken by id
    /// for determinism ([`sort_by_power_desc`](Platform::sort_by_power_desc)
    /// over every node). Useful to heuristics and reporting.
    pub fn ids_by_power_desc(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.ids().collect();
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
    pub(crate) fn power_key(&self, id: NodeId) -> (u64, NodeId) {
        (self.power(id).value().to_bits(), id)
    }

    /// Returns the ids of nodes on a given site.
    pub fn nodes_on_site(&self, site: SiteId) -> Vec<NodeId> {
        self.ids().filter(|&id| self.site_of(id) == site).collect()
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
    /// fixes them for thirteen platforms, one or more from every
    /// generator and from the catalog loader.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.structural_hash())
    }

    /// Every node's site, indexed by node id: entry `i` is
    /// [`site_of`](Platform::site_of)`(NodeId(i))`. The site-aware
    /// incremental engine looks sites up here on every delta.
    ///
    /// This is the platform's own site column (2 B per node), made once by
    /// [`build`](PlatformBuilder::build): every call, on this platform or
    /// a clone of it, returns the same shared allocation, so every engine
    /// built on a catalog shares it and none copies it.
    pub fn site_table(&self) -> &Arc<[SiteId]> {
        &self.node_sites
    }

    /// Every node id grouped by site, each site's group in
    /// [`sort_by_power_desc`](Platform::sort_by_power_desc) order: the
    /// order a [`SpareCursor`](crate::SpareCursor) reads spare nodes
    /// from.
    ///
    /// The first call fills it (one sort of n keys, 4 B per node:
    /// ~0.3 ms at n = 10⁴, ~55 ms at 10⁶); later calls, on this platform or a clone
    /// of it, return the stored order, on the same terms as the
    /// fingerprint. Only a spare-node read fills it:
    /// building or generating a platform never does, and the planners
    /// read a [`NodeRanking`] instead, sorted only as deep as they read
    /// it.
    pub(crate) fn site_order(&self) -> &SiteOrder {
        self.site_order.get_or_init(|| SiteOrder::new(self))
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
        h.u64(self.powers.len() as u64);
        let nodes = self.powers.iter().zip(self.node_sites.iter());
        for ((power, site), name) in nodes.zip(self.names.iter_from(0)) {
            h.str(name);
            h.f64(power.value());
            h.u64(u64::from(site.0));
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
        let first = self.powers[0].value();
        self.powers
            .iter()
            .all(|w| (w.value() - first).abs() <= first.abs() * 1e-9)
    }

    /// Restrict the platform to the `k` most powerful nodes, preserving the
    /// network model. Node ids are re-assigned densely.
    ///
    /// # Errors
    /// [`PlatformError::NotEnoughNodes`] if `k > node_count()`,
    /// [`PlatformError::Empty`] if `k == 0`.
    pub fn take_most_powerful(&self, k: usize) -> Result<Platform, PlatformError> {
        if k > self.node_count() {
            return Err(PlatformError::NotEnoughNodes {
                requested: k,
                available: self.node_count(),
            });
        }
        if k == 0 {
            return Err(PlatformError::Empty);
        }
        let ids = &self.ids_by_power_desc()[..k];
        let mut names = HostNames::default();
        names.reserve(k);
        for &id in ids {
            names.push(self.name(id));
        }
        Ok(Platform {
            powers: ids.iter().map(|&id| self.power(id)).collect(),
            node_sites: ids.iter().map(|&id| self.site_of(id)).collect(),
            names,
            sites: self.sites.clone(),
            network: self.network.clone(),
            fingerprint: OnceLock::new(),
            site_order: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Seconds;
    use proptest::prelude::*;

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
        assert!(p.ids().eq([NodeId(0), NodeId(1), NodeId(2)]));
        assert_eq!(
            p.powers(),
            [MflopRate(100.0), MflopRate(300.0), MflopRate(200.0)]
        );
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        let _ = b.add_node("a", MflopRate(0.0), s);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn nan_power_rejected() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        let _ = b.add_node("a", MflopRate(f64::NAN), s);
    }

    /// A site id holds 16 bits: the 65,536th site is the last, and the
    /// next one panics rather than alias site 0.
    #[test]
    #[should_panic(expected = "a platform holds at most 65,536 sites")]
    fn the_site_past_u16_max_panics() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        for i in 0..=u16::MAX {
            assert_eq!(b.add_site(""), SiteId(i));
        }
        b.add_site("");
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
        let built: Vec<&str> = p.ids().map(|id| p.name(id)).collect();
        assert_eq!(built, accepted);
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
        assert_eq!(p.name(NodeId(0)), "b");
        assert_eq!(p.name(NodeId(1)), "c");
        assert_eq!(p.powers(), [MflopRate(300.0), MflopRate(200.0)]);
        assert_eq!(**p.site_table(), [SiteId(0), SiteId(0)]);
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
        // The table is the built platform's own column, not a copy
        // filled on first use: a clone made before any call shares it.
        let early = p.clone();
        let table = p.site_table();
        assert_eq!(table.len(), p.node_count());
        for id in p.ids() {
            assert_eq!(table[id.index()], p.site_of(id), "{id}");
        }
        assert_eq!(
            table
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            3,
            "every site appears"
        );
        assert!(
            Arc::ptr_eq(table, early.site_table()),
            "clone before a call"
        );
        assert!(Arc::ptr_eq(table, p.site_table()), "second call");
        assert!(Arc::ptr_eq(table, p.clone().site_table()), "clone");
        assert_eq!(Arc::strong_count(table), 2, "one allocation, two holders");
    }

    #[test]
    fn stored_order_is_each_sites_strongest_first_order() {
        let grid = || {
            crate::generator::multi_site_grid(
                3,
                40,
                MflopRate(400.0),
                MbitRate(100.0),
                MbitRate(10.0),
                5,
            )
        };
        let builds: [fn() -> Platform; 2] = [grid, || crate::generator::lyon_cluster(20)];
        for build in builds {
            let platform = build();
            assert!(
                platform.site_order.get().is_none(),
                "a built platform has none"
            );
            let order = platform.site_order();
            for site in platform.sites() {
                let mut want = platform.nodes_on_site(site.id);
                platform.sort_by_power_desc(&mut want);
                assert_eq!(
                    order.group(site.id.index()),
                    want.as_slice(),
                    "{}",
                    site.name
                );
            }
            let clone = platform.clone();
            assert!(clone.site_order.get().is_some(), "a clone carries it");
            assert!(clone == build(), "equality ignores it");
        }
    }

    /// The builder's state as the batch path may change it: the power
    /// and site columns, the name buffer, sites and the key set (sorted,
    /// since the set's order is arbitrary).
    type BuilderState = (Vec<MflopRate>, Vec<SiteId>, HostNames, Vec<Site>, Vec<u64>);

    fn state(b: &PlatformBuilder) -> BuilderState {
        let mut keys: Vec<u64> = b.keys.iter().copied().collect();
        keys.sort_unstable();
        (
            b.powers.clone(),
            b.node_sites.clone(),
            b.names.clone(),
            b.sites.clone(),
            keys,
        )
    }

    /// A hash already in the set sends the builder back over the earlier
    /// names; finding none there, it accepts the name (a 64-bit
    /// collision, planted here by hand), and a refused batch keeps the
    /// key the set held before it.
    #[test]
    fn a_repeated_hash_without_a_repeated_name_is_accepted() {
        let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
        let s = b.add_site("x");
        b.add_node("a", MflopRate(1.0), s).unwrap();
        for planted in ["b", "c"] {
            let hash = b.hasher.hash_one(planted);
            b.keys.insert(hash);
        }
        b.add_nodes([("b", MflopRate(1.0), s), ("d", MflopRate(1.0), s)])
            .unwrap();
        let before = state(&b);
        let refused = [
            ("c", MflopRate(1.0), s),
            ("e", MflopRate(1.0), s),
            ("f", MflopRate(1.0), SiteId(7)),
        ];
        assert_eq!(
            b.add_nodes(refused),
            Err(PlatformError::UnknownSite(SiteId(7)))
        );
        assert!(state(&b) == before, "the planted key of c stays");
        let duplicate = [("c", MflopRate(1.0), s), ("d", MflopRate(1.0), s)];
        assert_eq!(
            b.add_nodes(duplicate),
            Err(PlatformError::DuplicateName("d".into()))
        );
        assert!(state(&b) == before);
        let p = b.build().unwrap();
        let names: Vec<&str> = p.ids().map(|id| p.name(id)).collect();
        assert_eq!(names, ["a", "b", "d"]);
    }

    /// One node of a generated call: how its name is picked (`0..7` a
    /// fresh name, 7 a name from earlier in the same call, 8 any name
    /// offered before, 9 an accepted name), which earlier name, and its
    /// site (49 is an unregistered one).
    type ArbNode = (u8, u16, u8);

    /// A call: `0` adds each node with `add_node`, `1` and `2` add them
    /// all as one batch.
    fn arb_calls() -> impl Strategy<Value = Vec<(u8, Vec<ArbNode>)>> {
        proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec((0u8..10, 0u16..1000, 0u8..50), 0..12),
            ),
            1..16,
        )
    }

    /// The rules `add_node` applies one node at a time, kept in a
    /// `BTreeSet`: a call is refused whole at its first node with an
    /// unknown site or a name seen before, in the builder or in the call.
    fn reference(
        accepted: &std::collections::BTreeSet<String>,
        batch: &[(String, MflopRate, SiteId)],
        site_count: usize,
    ) -> Result<(), PlatformError> {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _, site) in batch {
            if site.index() >= site_count {
                return Err(PlatformError::UnknownSite(*site));
            }
            if accepted.contains(name) || !seen.insert(name.clone()) {
                return Err(PlatformError::DuplicateName(name.clone()));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sequences of single adds and batches, with duplicates
        /// planted inside a batch, against earlier batches and against
        /// single adds, and unknown sites anywhere in a batch: every
        /// call answers as the one-node-at-a-time reference does, a
        /// refused call leaves the builder exactly as it was, and the
        /// built platform holds the reference's names in order.
        #[test]
        fn batches_keep_add_nodes_rules(calls in arb_calls()) {
            const SITES: usize = 3;
            let mut b = Platform::builder(Network::homogeneous(MbitRate(1.0)));
            for s in 0..SITES {
                b.add_site(format!("s{s}"));
            }
            let mut accepted = std::collections::BTreeSet::new();
            let mut names: Vec<String> = Vec::new();
            let mut offered: Vec<String> = Vec::new();
            let mut fresh = 0usize;
            for (kind, nodes) in calls {
                let mut batch: Vec<(String, MflopRate, SiteId)> = Vec::new();
                for (pick, which, site) in nodes {
                    let earlier = |from: &[String]| from[usize::from(which) % from.len()].clone();
                    let name = match pick {
                        7 if !batch.is_empty() => {
                            let at = usize::from(which) % batch.len();
                            batch[at].0.clone()
                        }
                        8 if !offered.is_empty() => earlier(&offered),
                        9 if !names.is_empty() => earlier(&names),
                        _ => {
                            fresh += 1;
                            format!("h{fresh}")
                        }
                    };
                    offered.push(name.clone());
                    let site = if site == 49 {
                        SiteId((SITES + usize::from(which) % 3) as u16)
                    } else {
                        SiteId(u16::from(site) % SITES as u16)
                    };
                    batch.push((name, MflopRate(1.0 + f64::from(which)), site));
                }
                let calls: Vec<Vec<(String, MflopRate, SiteId)>> = if kind == 0 {
                    batch.into_iter().map(|node| vec![node]).collect()
                } else {
                    vec![batch]
                };
                for call in calls {
                    let before = state(&b);
                    let want = reference(&accepted, &call, SITES);
                    let got = if let [(name, power, site)] = call.as_slice() {
                        b.add_node(name, *power, *site).map(|id| {
                            assert_eq!(id.index(), before.0.len(), "the next dense id");
                        })
                    } else {
                        b.add_nodes(call.iter().map(|(name, power, site)| (name.as_str(), *power, *site)))
                    };
                    prop_assert_eq!(got, want);
                    if got.is_err() {
                        prop_assert!(state(&b) == before, "a refused call changed the builder");
                    } else {
                        for (name, _, _) in call {
                            accepted.insert(name.clone());
                            names.push(name);
                        }
                    }
                    // One power, one site, one name and one key per node
                    // (a 64-bit collision is out of reach of a few hundred
                    // names): the keys are the keyed hashes of the names.
                    prop_assert_eq!(b.node_sites.len(), b.powers.len());
                    prop_assert_eq!(b.names.len(), b.powers.len());
                    let mut hashes: Vec<u64> =
                        b.names.iter_from(0).map(|name| b.hasher.hash_one(name)).collect();
                    hashes.sort_unstable();
                    prop_assert_eq!(&hashes, &state(&b).4);
                }
            }
            if names.is_empty() {
                prop_assert_eq!(b.build().unwrap_err(), PlatformError::Empty);
            } else {
                let p = b.build().unwrap();
                let built: Vec<&str> = p.ids().map(|id| p.name(id)).collect();
                prop_assert_eq!(built, names);
            }
        }
    }

    /// Journals store these values and refuse to resume on any other, so
    /// a change to the hash or to the order it reads fields in breaks
    /// every journal on disk.
    #[test]
    fn fingerprint_values_are_pinned() {
        use crate::{catalog, generator};
        type Build = fn() -> Platform;
        let builds: [(&str, Build, u64); 13] = [
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
            (
                "homogeneous_cluster_with_bandwidth(rennes, 50)",
                || {
                    generator::homogeneous_cluster_with_bandwidth(
                        "rennes",
                        50,
                        MflopRate(420.0),
                        MbitRate(250.0),
                    )
                },
                0xa61a_db2a_8aa6_6da0,
            ),
            (
                "heterogenized_cluster(orsay, 300), noisy probe",
                || {
                    generator::heterogenized_cluster(
                        "orsay",
                        300,
                        MflopRate(400.0),
                        generator::BackgroundLoad::default(),
                        crate::CapacityProbe::with_noise(0.02, 5),
                        7,
                    )
                },
                0xea0b_2b98_fea1_a630,
            ),
            (
                "uniform_random_cluster(u, 500)",
                || {
                    generator::uniform_random_cluster(
                        "u",
                        500,
                        MflopRate(50.0),
                        MflopRate(800.0),
                        7,
                    )
                },
                0x269b_ab81_7cf4_1bc9,
            ),
            (
                "grid5000(200, 30)",
                || generator::grid5000(200, 30, 11).0,
                0x81c9_de46_dd98_71ef,
            ),
            (
                "multi_site_grid(3, 1000)",
                || {
                    generator::multi_site_grid(
                        3,
                        1_000,
                        MflopRate(400.0),
                        MbitRate(100.0),
                        MbitRate(10.0),
                        5,
                    )
                },
                0xdc39_ca54_5299_c03a,
            ),
            (
                "catalog, all five sites",
                || {
                    catalog::multi_site(
                        &["lyon", "orsay", "rennes", "sophia", "toulouse"],
                        MbitRate(20.0),
                    )
                    .unwrap()
                },
                0x3fe5_fde3_b3ba_4b3a,
            ),
            (
                "catalog orsay, first 30",
                || catalog::single_site("orsay", Some(30)).unwrap(),
                0xf7de_cd5b_5246_29c4,
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
