//! # adept-platform
//!
//! Substrate crate describing the *target platform* of the deployment
//! planning problem from Caron, Chouhan, Desprez, *Automatic Middleware
//! Deployment Planning on Heterogeneous Platforms* (INRIA RR-6566, 2008).
//!
//! The paper's platform architecture is a set of **heterogeneous compute
//! resources** (each with its own computing power `w_i` in MFlop/s) connected
//! by **homogeneous communication links** of bandwidth `B` (Mb/s). This crate
//! provides:
//!
//! * strongly-typed units ([`units`]) so that MFlop, MFlop/s, Mb and Mb/s
//!   cannot be mixed up in the model equations;
//! * node and site identifiers, and sites ([`resource`]);
//! * the network model ([`network`]), homogeneous as in the paper plus a
//!   per-link extension corresponding to the paper's *future work* section;
//! * the aggregate [`platform::Platform`] type, the lazily sorted
//!   strongest-first [`ranking::NodeRanking`] the planners read, and the
//!   [`spare::SpareCursor`] through which the online reviser and GoDiet
//!   read a running deployment's spare nodes;
//! * synthetic platform generators ([`generator`]) that stand in for the
//!   Grid'5000 Lyon and Orsay clusters used in the paper, including the
//!   paper's methodology of *heterogenizing* a homogeneous cluster by adding
//!   background load to some nodes;
//! * middleware calibration parameters ([`calibration`]) corresponding to
//!   the paper's Table 3, and a simulated Linpack-like capacity probe.
//!
//! Nothing in this crate depends on the planner or the simulator; it is the
//! bottom layer of the workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod calibration;
pub mod catalog;
pub mod error;
pub mod generator;
mod names;
pub mod network;
pub mod platform;
pub mod ranking;
pub mod resource;
pub mod spare;
pub mod units;

pub use calibration::{AgentCalibration, CapacityProbe, MiddlewareCalibration, ServerCalibration};
pub use error::PlatformError;
pub use generator::BackgroundLoad;
pub use network::Network;
pub use platform::Platform;
pub use ranking::NodeRanking;
pub use resource::{NodeId, Site, SiteId};
pub use spare::SpareCursor;
pub use units::{Mbit, MbitRate, Mflop, MflopRate, Seconds};
