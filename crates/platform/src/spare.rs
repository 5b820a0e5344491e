//! Spare nodes read strongest first, only as far as a caller reads them.
//!
//! Algorithm 1 takes nodes strongest first, and the online reviser's grow
//! moves and GoDiet's spare substitution keep that rule on a running
//! deployment: each needs the strongest node the deployment does not use
//! (or the strongest of each site), a handful of times per round. A
//! [`SpareCursor`] reads those nodes from the platform's stored per-site
//! strongest-first order, so a round costs O(plan + sites) rather than a
//! sort and a membership filter of the whole catalog.

use crate::platform::Platform;
use crate::ranking;
use crate::resource::NodeId;

/// Every node id grouped by site, each site's group strongest first
/// (power bits descending, ties to the lower id: the order of
/// [`Platform::sort_by_power_desc`]). Stored once per catalog by
/// [`Platform::site_order`].
#[derive(Debug, Clone)]
pub(crate) struct SiteOrder {
    /// The groups, site 0's first.
    ids: Box<[NodeId]>,
    /// Site `s`'s group is `ids[starts[s]..starts[s + 1]]`.
    starts: Box<[u32]>,
}

impl SiteOrder {
    /// Buckets the nodes by site, then sorts each bucket strongest first:
    /// one sort of n keys in all.
    pub(crate) fn new(platform: &Platform) -> Self {
        let sites = platform.site_count();
        let node_sites = platform.site_table();
        let mut starts = vec![0u32; sites + 1];
        for site in node_sites.iter() {
            starts[site.index() + 1] += 1;
        }
        for s in 0..sites {
            starts[s + 1] += starts[s];
        }
        let mut keyed = vec![(0u64, NodeId(0)); platform.node_count()];
        let mut next = starts.clone();
        for (id, site) in platform.ids().zip(node_sites.iter()) {
            let slot = &mut next[site.index()];
            keyed[*slot as usize] = platform.power_key(id);
            *slot += 1;
        }
        for s in 0..sites {
            keyed[starts[s] as usize..starts[s + 1] as usize].sort_unstable_by_key(ranking::rank);
        }
        Self {
            ids: keyed.into_iter().map(|(_, id)| id).collect(),
            starts: starts.into(),
        }
    }

    /// Site `site`'s group, strongest first.
    pub(crate) fn group(&self, site: usize) -> &[NodeId] {
        &self.ids[self.starts[site] as usize..self.starts[site + 1] as usize]
    }
}

/// A read position per site in a platform's stored strongest-first
/// order, plus the nodes freed since the cursor was made: the spare
/// nodes of a running deployment, read lazily.
///
/// Every read takes the platform and a `used` predicate: the nodes of
/// the deployment the caller started from, which must not change while
/// the cursor lives. Nodes the caller claims ([`take`](Self::take)) and
/// returns ([`free`](Self::free)) are recorded here, not in `used`. The
/// reads then equal those of one eager list, built as every unused node
/// strongest first, with a taken node removed and a freed node pushed at
/// the tail:
///
/// - [`strongest`](Self::strongest) is that list's first node;
/// - [`site_heads`](Self::site_heads) is each site's first node in it,
///   in list order.
///
/// So a freed node is read only after every site's stored order, in the
/// order it was freed. A site's position only moves forward, past nodes
/// in use and past taken heads, so all reads of a cursor together cost
/// O(nodes read past + reads × sites), however large the catalog.
#[derive(Debug, Clone)]
pub struct SpareCursor {
    /// Per site, how many nodes of its stored group lie behind the read
    /// position: each one in use or taken.
    read: Vec<u32>,
    /// Nodes freed and not taken since, in the order freed.
    freed: Vec<NodeId>,
}

impl SpareCursor {
    /// A cursor at the head of every site's stored order, with nothing
    /// freed. O(sites): the platform's stored order is filled by the
    /// first read, not here.
    pub fn new(platform: &Platform) -> Self {
        Self {
            read: vec![0; platform.site_count()],
            freed: Vec::new(),
        }
    }

    /// The strongest spare node: the strongest unused node of the stored
    /// order (the best site head, O(sites)), or the first freed node once
    /// every site's order is read out. `None` when no spare is left.
    pub fn strongest(
        &mut self,
        platform: &Platform,
        used: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let order = platform.site_order();
        (0..self.read.len())
            .filter_map(|site| self.head(order, site, &used))
            .min_by_key(|&id| ranking::rank(&platform.power_key(id)))
            .or_else(|| self.freed.first().copied())
    }

    /// The strongest spare node of every site that has one, strongest
    /// first: the sites' heads in the stored order, then, for each site
    /// whose stored order is read out, its first freed node, in the order
    /// freed.
    pub fn site_heads(
        &mut self,
        platform: &Platform,
        used: impl Fn(NodeId) -> bool,
    ) -> Vec<NodeId> {
        let order = platform.site_order();
        let mut heads: Vec<NodeId> = (0..self.read.len())
            .filter_map(|site| self.head(order, site, &used))
            .collect();
        heads.sort_unstable_by_key(|&id| ranking::rank(&platform.power_key(id)));
        for &node in &self.freed {
            let site = platform.site_of(node);
            if heads.iter().all(|&head| platform.site_of(head) != site) {
                heads.push(node);
            }
        }
        heads
    }

    /// Claims `node`, which a read of this cursor just returned: no later
    /// read returns it unless it is [`free`](Self::free)d again.
    pub fn take(&mut self, platform: &Platform, node: NodeId) {
        let site = platform.site_of(node).index();
        if platform
            .site_order()
            .group(site)
            .get(self.read[site] as usize)
            == Some(&node)
        {
            self.read[site] += 1;
        } else {
            let freed = self.freed.iter().position(|&f| f == node);
            debug_assert!(freed.is_some(), "{node} is neither a site head nor freed");
            if let Some(at) = freed {
                self.freed.remove(at);
            }
        }
    }

    /// Returns `node` to the spares. It is read after every site's stored
    /// order, in the order freed.
    pub fn free(&mut self, node: NodeId) {
        self.freed.push(node);
    }

    /// The first node of `site`'s stored order at or past its read
    /// position that is not in use, moving the position past the nodes in
    /// use before it.
    fn head(
        &mut self,
        order: &SiteOrder,
        site: usize,
        used: impl Fn(NodeId) -> bool,
    ) -> Option<NodeId> {
        let group = order.group(site);
        let read = &mut self.read[site];
        while let Some(&id) = group.get(*read as usize) {
            if !used(id) {
                return Some(id);
            }
            *read += 1;
        }
        None
    }
}
