//! # adept-core
//!
//! The paper's primary contribution, as a library:
//!
//! 1. the **steady-state throughput model** of a hierarchical NES
//!    middleware deployment (paper Section 3, Equations 1–16) — module
//!    [`model`];
//! 2. the **deployment planners** (paper Section 4, Algorithm 1, plus the
//!    baselines the evaluation compares against) — module [`planner`];
//! 3. **bottleneck analysis** of a deployment under the model — module
//!    [`analysis`].
//!
//! ## The problem
//!
//! Given heterogeneous nodes (power `w_i` MFlop/s) with homogeneous links
//! (bandwidth `B` Mb/s), arrange a subset into a hierarchy of agents and
//! servers maximizing the steady-state rate `ρ` of *completed* requests —
//! requests that finish both the scheduling phase (down and up the agent
//! tree) and the service phase (application execution on the selected
//! server):
//!
//! ```text
//! ρ = min(ρ_sched, ρ_service)                      (Eq. 16)
//! ```
//!
//! ## Quick example
//!
//! ```
//! use adept_core::model::ModelParams;
//! use adept_core::planner::{HeuristicPlanner, Planner};
//! use adept_platform::generator::lyon_cluster;
//! use adept_workload::{ClientDemand, Dgemm};
//!
//! let platform = lyon_cluster(21);
//! let service = Dgemm::new(310).service();
//! let planner = HeuristicPlanner::default();
//! let plan = planner
//!     .plan(&platform, &service, ClientDemand::Unbounded)
//!     .expect("21 nodes are plenty");
//! let report = ModelParams::from_platform(&platform)
//!     .evaluate(&platform, &plan, &service);
//! assert!(report.rho > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod analysis;
pub mod model;
mod par;
pub mod planner;

pub use analysis::{Bottleneck, ThroughputReport};
pub use model::ModelParams;
pub use par::par_claim;
pub use planner::{Planner, PlannerError};
