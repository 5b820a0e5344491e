//! Node and site identifiers, and sites.
//!
//! A node corresponds to one machine of the paper's testbed (one Grid'5000
//! node). Its only model-relevant attribute is its computing power `w_i`
//! in MFlop/s; its site is carried for the multi-site experiments
//! (Section 5.3 uses Orsay nodes for the middleware and Lyon nodes for the
//! clients). A node is no record of its own: the
//! [`Platform`](crate::Platform) keeps each attribute as a column indexed
//! by [`NodeId`], read through [`Platform::power`](crate::Platform::power),
//! [`Platform::site_of`](crate::Platform::site_of) and
//! [`Platform::name`](crate::Platform::name).

use std::fmt;

/// Identifier of a node inside a [`Platform`](crate::Platform).
///
/// Ids are dense indices assigned by the platform in insertion order, so they
/// can be used to index side tables (the planner and the simulator both rely
/// on this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a site (a cluster location, e.g. "lyon" or "orsay").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u16);

impl SiteId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// A named site grouping nodes, mirroring a Grid'5000 cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Dense site identifier.
    pub id: SiteId,
    /// Human-readable name ("lyon", "orsay", ...).
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(SiteId(1).to_string(), "site1");
    }
}
