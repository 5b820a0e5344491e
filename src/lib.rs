//! # adept — Automatic Deployment Planning Tool
//!
//! A full Rust reproduction of Caron, Chouhan, Desprez, *Automatic
//! Middleware Deployment Planning on Heterogeneous Platforms* (INRIA
//! RR-6566, 2008), named after the tool the paper's conclusion announces
//! ("implement the theoretical deployment planning techniques as
//! Automatic Deployment Planning Tool (ADePT)").
//!
//! This umbrella crate re-exports the whole workspace and provides a
//! [`prelude`] for applications:
//!
//! | crate | contents |
//! |---|---|
//! | [`platform`] | resources, network, generators, Table 3 calibration |
//! | [`workload`] | DGEMM & services, client demand, ramp protocol |
//! | [`hierarchy`] | deployment plan tree, builders, XML, validation |
//! | [`core`] | throughput model (Eq. 1–16) and planners (Algorithm 1 + baselines) |
//! | [`desim`] | deterministic discrete-event engine |
//! | [`nes_sim`] | DIET-like middleware simulator on `M(r,s,w)` resources |
//! | [`godiet`] | deployment tool: XML in, staged launch + migration, failure injection |
//! | [`control`] | autonomic replanning control loop over all of the above |
//! | [`serve`] | planner-as-a-service: multi-tenant daemon, JSON wire protocol, durable journals |
//!
//! ## Architecture: the autonomic control loop
//!
//! Beyond one-shot planning, the workspace closes the loop the paper's
//! future work calls for — a deployment that follows live, shifting
//! traffic with no operator in the path. Each stage is owned by one
//! crate:
//!
//! ```text
//! observe ─> forecast ─> trigger ─> replan ─> diff ─> migrate ─> validate
//! ```
//!
//! 1. **observe** — per-service demand rates and execution samples
//!    arrive as [`control::Observations`] (fed by the middleware in
//!    production, by [`nes_sim`]/[`desim`] in tests).
//! 2. **forecast** — [`workload`] owns the statistics:
//!    [`RateForecaster`](adept_workload::RateForecaster) tracks each
//!    service's demand (EMA + relative drift against the rate the
//!    running plan was sized for), and
//!    [`WappEstimator`](adept_workload::WappEstimator) /
//!    [`ScalingForecaster`](adept_workload::ScalingForecaster) track
//!    execution cost.
//! 3. **trigger** — [`control`]'s
//!    [`TriggerPolicy`](adept_control::TriggerPolicy) rules (forecast
//!    drift, periodic) decide *when* to act;
//!    [`Hysteresis`](adept_control::Hysteresis) (sustain + cooldown)
//!    keeps observation noise from flapping machines.
//! 4. **replan** — [`core`]'s budgeted
//!    [`OnlinePlanner`](adept_core::planner::OnlinePlanner), behind the
//!    [`Revise`](adept_core::planner::Revise) trait the controller
//!    calls, revises the running plan with one
//!    grow/reassign/convert-grow/shrink loop on the incremental
//!    evaluation engine.
//! 5. **diff** — [`hierarchy`]'s
//!    [`PlanDiff`](adept_hierarchy::PlanDiff) is an *executable*
//!    object: `diff(a, b).apply(a)` reconstructs `b` exactly, so the
//!    transition itself is a first-class artifact.
//! 6. **migrate** — [`godiet`] compiles the diff into a stage-ordered
//!    [`MigrationScript`](adept_godiet::MigrationScript) (parents
//!    before children, stops deepest-first, demotions last) and
//!    executes it against the running deployment with failure
//!    injection and spare-node substitution.
//! 7. **validate** — [`nes_sim`] measures the migrated deployment and
//!    confirms throughput tracks the model across each transition
//!    (`tests/control_loop.rs`).
//!
//! ## Scale: planning 10⁵–10⁶ slots
//!
//! The paper's platforms stop at a few hundred nodes; this
//! reproduction plans a million. Three layers make that a sub-second
//! operation rather than a multi-minute one:
//!
//! * **SIMD-batched kernels**
//!   ([`core::model::batch`]) — the Eq. 14
//!   cycle arithmetic evaluated over flat `f64` lanes the compiler
//!   auto-vectorizes, with a chunked first-max reduction and
//!   integer-key descending sorts. Every batched form is **bit-exact**
//!   against its scalar reference (`tests/simd_parity.rs`), so scale
//!   never changes an answer.
//! * **Arena/SoA plan state** — [`DeploymentPlan`](adept_hierarchy::DeploymentPlan)
//!   stores roles, parents, and child blocks as parallel vectors over
//!   one child arena, and bulk-builds from flat arrays
//!   ([`from_parts`](adept_hierarchy::DeploymentPlan::from_parts)), so
//!   realizing or diffing an n-slot tree is two linear passes.
//! * **Coarsen-then-refine multi-site sweeps** — per-site candidate
//!   lists are truncated to an Eq. 15 saturation budget (no deployment
//!   can use more servers than saturate the best possible schedule),
//!   then sites are refined independently in parallel. At n = 10⁵ the
//!   multi-site sweep reference drops from ~158 s to ~150 ms at an
//!   identical objective; the heuristic plans 10⁶ slots in under half
//!   a second (`examples/large_scale.rs`, gate-guarded by the
//!   `planner_scaling` bench group).
//!
//! ## Serving: the daemon layer
//!
//! [`serve`] lifts the control loop into a resident **multi-tenant
//! daemon** (`adept-serve`): one
//! [`Controller`](adept_control::Controller) per tenant deployment,
//! hosted concurrently over shared read-only platform catalogs, driven
//! over a line-delimited JSON wire protocol (`plan` / `register` /
//! `observe` / `replan` / `migrate` / `drain` / `status` — the full
//! frame-by-frame contract lives in-tree at `docs/WIRE_API.md`, the
//! operator guide at `docs/OPERATIONS.md`). Every tenant session
//! appends its inputs to a
//! write-ahead JSONL journal and a restarted daemon resumes every
//! control loop by **deterministic replay** — no planner state is ever
//! serialized, and replay cross-checks the journaled migration
//! checkpoints before trusting itself
//! ([`TenantSession::resume`](adept_serve::TenantSession::resume)).
//! This is what made the controller a `Send`, `Arc`-owning value: a
//! session must be movable across the daemon's connection threads.
//!
//! ## Quickstart
//!
//! ```
//! use adept::prelude::*;
//!
//! // A heterogeneous 24-node cluster (the paper's background-load method).
//! let platform = adept::platform::generator::heterogenized_cluster(
//!     "orsay", 24, MflopRate(400.0),
//!     BackgroundLoad::default(), CapacityProbe::exact(), 7,
//! );
//! let service = Dgemm::new(310).service();
//!
//! // Plan automatically (the paper's Algorithm 1)...
//! let plan = HeuristicPlanner::paper()
//!     .plan(&platform, &service, ClientDemand::Unbounded)
//!     .expect("platform is large enough");
//!
//! // ...predict its throughput (Eq. 16)...
//! let report = ModelParams::from_platform(&platform)
//!     .evaluate(&platform, &plan, &service);
//! assert!(report.rho > 0.0);
//!
//! // ...and emit the GoDIET descriptor.
//! let xml = adept::hierarchy::xml::write_xml(&plan, Some(&platform));
//! assert!(xml.contains("<deployment>"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::all)]

pub use adept_control as control;
pub use adept_core as core;
pub use adept_desim as desim;
pub use adept_godiet as godiet;
pub use adept_hierarchy as hierarchy;
pub use adept_nes_sim as nes_sim;
pub use adept_platform as platform;
pub use adept_serve as serve;
pub use adept_workload as workload;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use adept_control::controller::ExecutionSample;
    pub use adept_control::{
        ControlError, Controller, ControllerConfig, Hysteresis, Migration, Observations,
        TriggerPolicy,
    };
    pub use adept_core::analysis::{Bottleneck, ThroughputReport};
    pub use adept_core::model::mix::{MixReport, ServerAssignment};
    pub use adept_core::model::{IncrementalEval, ModelParams};
    pub use adept_core::planner::{
        BalancedPlanner, HeuristicPlanner, HomogeneousCsdPlanner, MixObjective, MixPlan,
        MixPlanner, MixReplan, OnlinePlanner, Planner, PlannerError, Replan, Revise, ReviseError,
        RoundRobinPlanner, StarPlanner, SweepPlanner, SweepStats, WarmCache,
    };
    pub use adept_godiet::{
        DeployError, DeploymentReport, GoDiet, MigrationAction, MigrationReport, MigrationScript,
    };
    pub use adept_hierarchy::{
        builder, to_dot, validate, xml, AdjacencyMatrix, DeploymentPlan, HierarchyStats,
        NodeChange, PartitionStats, PlanDiff, Role, Slot,
    };
    pub use adept_nes_sim::{
        measure_throughput, saturation_search, SelectionPolicy, SimConfig, SimOutcome, Simulation,
    };
    pub use adept_platform::{
        generator, BackgroundLoad, CapacityProbe, Mbit, MbitRate, Mflop, MflopRate,
        MiddlewareCalibration, Network, NodeId, Platform, Seconds, Site, SiteId,
    };
    pub use adept_serve::{
        CacheStats, Daemon, DaemonHandle, DaemonStatus, ErrorCode, MigrationSummary, PlanCache,
        PlanSummary, RemoteError, ReplanPreview, ServeClient, ServeConfig, ServeError, ServiceDef,
        SessionConfig, TenantSession, TenantStatus, TickOutcome,
    };
    pub use adept_workload::{
        ArrivalProcess, ClientDemand, ClientRamp, Dgemm, MixDemand, RateForecaster,
        ScalingForecaster, ScalingSample, ServiceMix, ServiceSpec, WappEstimator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_the_stack() {
        let platform = generator::lyon_cluster(5);
        let svc = Dgemm::new(100).service();
        let plan = StarPlanner
            .plan(&platform, &svc, ClientDemand::Unbounded)
            .unwrap();
        let report = ModelParams::from_platform(&platform).evaluate(&platform, &plan, &svc);
        assert!(report.rho > 0.0);
    }
}
