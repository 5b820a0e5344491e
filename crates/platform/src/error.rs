//! Error type for platform construction and lookup.

use crate::resource::SiteId;
use std::fmt;

/// Errors raised while building or querying a [`Platform`](crate::Platform).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlatformError {
    /// A site id was referenced that does not exist in the platform.
    UnknownSite(SiteId),
    /// A named catalog site does not exist.
    UnknownSiteName(String),
    /// Two resources were registered with the same host name.
    DuplicateName(String),
    /// The platform contains no resources.
    Empty,
    /// A requested selection needs more nodes than the platform holds.
    NotEnoughNodes {
        /// Nodes requested.
        requested: usize,
        /// Nodes available.
        available: usize,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownSite(id) => write!(f, "unknown site {id}"),
            PlatformError::UnknownSiteName(name) => {
                write!(f, "unknown Grid'5000 site {name:?}")
            }
            PlatformError::DuplicateName(name) => {
                write!(f, "duplicate resource name {name:?}")
            }
            PlatformError::Empty => write!(f, "platform has no resources"),
            PlatformError::NotEnoughNodes {
                requested,
                available,
            } => write!(
                f,
                "not enough nodes: requested {requested}, available {available}"
            ),
        }
    }
}

impl std::error::Error for PlatformError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            PlatformError::UnknownSite(SiteId(4)).to_string(),
            "unknown site site4"
        );
        assert_eq!(
            PlatformError::NotEnoughNodes {
                requested: 10,
                available: 3
            }
            .to_string(),
            "not enough nodes: requested 10, available 3"
        );
        assert!(PlatformError::Empty.to_string().contains("no resources"));
    }
}
