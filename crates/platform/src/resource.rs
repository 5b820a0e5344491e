//! Compute resources (nodes) and sites.
//!
//! A node corresponds to one machine of the paper's testbed (one Grid'5000
//! node). Its only model-relevant attribute is its computing power `w_i`
//! in MFlop/s; its site is carried for the multi-site experiments
//! (Section 5.3 uses Orsay nodes for the middleware and Lyon nodes for the
//! clients). Host names live in the [`Platform`](crate::Platform), read
//! through [`Platform::name`](crate::Platform::name).

use crate::units::MflopRate;
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

/// A named site grouping resources, mirroring a Grid'5000 cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Dense site identifier.
    pub id: SiteId,
    /// Human-readable name ("lyon", "orsay", ...).
    pub name: String,
}

/// One compute resource: 16 bytes, so the planners' O(n) passes over a
/// catalog read little memory. Its host name is
/// [`Platform::name`](crate::Platform::name).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resource {
    /// Dense node identifier within the platform.
    pub id: NodeId,
    /// Computing power `w_i` (MFlop/s) as measured by the capacity probe.
    pub power: MflopRate,
    /// The site this node belongs to.
    pub site: SiteId,
}

impl Resource {
    /// Creates a resource. Power must be strictly positive and finite.
    ///
    /// # Panics
    /// Panics if `power` is not a positive finite value; resources with no
    /// computing power cannot appear in any of the paper's formulas (they
    /// divide by `w_i`).
    pub fn new(id: NodeId, power: MflopRate, site: SiteId) -> Self {
        assert!(
            power.value().is_finite() && power.value() > 0.0,
            "resource power must be positive and finite, got {power}"
        );
        Self { id, power, site }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id, self.power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_construction() {
        let r = Resource::new(NodeId(3), MflopRate(850.0), SiteId(0));
        assert_eq!(r.id.index(), 3);
        assert_eq!(r.power, MflopRate(850.0));
        assert_eq!(r.to_string(), format!("n3 ({})", MflopRate(850.0)));
    }

    #[test]
    fn resource_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Resource>(), 16);
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn zero_power_rejected() {
        let _ = Resource::new(NodeId(0), MflopRate(0.0), SiteId(0));
    }

    #[test]
    #[should_panic(expected = "power must be positive")]
    fn nan_power_rejected() {
        let _ = Resource::new(NodeId(0), MflopRate(f64::NAN), SiteId(0));
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(SiteId(1).to_string(), "site1");
    }
}
