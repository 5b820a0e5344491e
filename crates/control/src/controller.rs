//! The closed-loop controller.

use crate::trigger::{Hysteresis, TriggerPolicy};
use adept_core::model::mix::{evaluate_mix, MixReport, ServerAssignment};
use adept_core::model::ModelParams;
use adept_core::planner::online::MixReplan;
use adept_core::planner::{Revise, ReviseError, WarmCache};
use adept_godiet::{DeployError, GoDiet, MigrationReport, MigrationScript};
use adept_hierarchy::DeploymentPlan;
use adept_platform::{MflopRate, Platform, Seconds};
use adept_workload::{MixDemand, RateForecaster, ServiceMix, ServiceSpec, WappEstimator};
use std::fmt;
use std::sync::Arc;

/// One observed execution: which service ran, how long, on what power.
/// Feeds the controller's per-service [`WappEstimator`]s so the model
/// tracks the *real* execution cost, not the one the mix was declared
/// with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionSample {
    /// Index of the executed service in the mix.
    pub service: usize,
    /// Observed wall-clock duration of the service phase.
    pub duration: Seconds,
    /// Power of the node that ran it.
    pub power: MflopRate,
}

/// What the platform reports for one control interval.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Observations {
    /// Observed per-service demand rates (req/s over the window), one
    /// entry per mix service.
    pub rates: Vec<f64>,
    /// Observed executions (may be empty; sampling is fine).
    pub executions: Vec<ExecutionSample>,
}

impl Observations {
    /// Demand-only observations.
    pub fn rates(rates: Vec<f64>) -> Self {
        Self {
            rates,
            executions: Vec::new(),
        }
    }
}

/// Errors surfaced by [`Controller::tick`].
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// The revision backend failed.
    Revise(ReviseError),
    /// Compiling or executing the migration failed.
    Deploy(DeployError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Revise(e) => write!(f, "control loop replan failed: {e}"),
            ControlError::Deploy(e) => write!(f, "control loop migration failed: {e}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<ReviseError> for ControlError {
    fn from(e: ReviseError) -> Self {
        ControlError::Revise(e)
    }
}

impl From<DeployError> for ControlError {
    fn from(e: DeployError) -> Self {
        ControlError::Deploy(e)
    }
}

/// Static policy of a [`Controller`].
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Replan conditions (forecast drift, periodic); any firing policy
    /// starts a (hysteresis-gated) round.
    pub triggers: Vec<TriggerPolicy>,
    /// Flap damping.
    pub hysteresis: Hysteresis,
    /// Smoothing factor of the demand forecasters, in `(0, 1]`.
    pub demand_alpha: f64,
    /// Smoothing factor of the execution-time estimators, in `(0, 1]`.
    pub wapp_alpha: f64,
    /// Demand multiplier when sizing the revised deployment (1.1 plans
    /// 10% above the forecast so the next wobble stays in-capacity).
    pub headroom: f64,
    /// Thread a [`WarmCache`] through revision rounds so the reviser
    /// can seed its search from the previous round's engine state
    /// instead of rebuilding it from the plan (default `true`). Warm
    /// rounds return bit-identical answers — this is a pure latency
    /// knob, kept as an ablation flag so the cold path stays
    /// benchmarkable.
    pub warm_start: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            triggers: vec![TriggerPolicy::ForecastDrift { threshold: 0.2 }],
            hysteresis: Hysteresis::default(),
            demand_alpha: 0.5,
            wapp_alpha: 0.3,
            headroom: 1.0,
            warm_start: true,
        }
    }
}

/// One completed migration round: what the trigger saw, what the
/// reviser decided, how the script ran.
#[derive(Debug, Clone)]
pub struct Migration {
    /// Why the round fired.
    pub reason: String,
    /// The demand vector the reviser planned for (forecast × headroom).
    pub planned_demand: MixDemand,
    /// The replan the reviser produced (diff, reinstalls, model report).
    pub replan: MixReplan,
    /// The compiled stage-ordered script.
    pub script: MigrationScript,
    /// Execution outcome (substitutions, failures, makespan).
    pub report: MigrationReport,
}

/// The autonomic controller: owns the running deployment's state and
/// revises it when its trigger policies say the world has moved.
///
/// One instance manages one deployment on one platform. Each
/// [`tick`](Controller::tick) is cheap unless it migrates.
///
/// The platform is shared behind an [`Arc`] and the reviser must be
/// [`Send`], so a controller is a self-contained, thread-movable value:
/// a multi-tenant host (the `adept-serve` daemon) runs one controller
/// per tenant deployment across threads over shared read-only platform
/// catalogs.
pub struct Controller {
    platform: Arc<Platform>,
    params: ModelParams,
    mix: ServiceMix,
    reviser: Box<dyn Revise + Send>,
    tool: GoDiet,
    config: ControllerConfig,
    running: DeploymentPlan,
    assignment: ServerAssignment,
    demand: Vec<RateForecaster>,
    wapp: Vec<WappEstimator>,
    tick: u64,
    fired_streak: u64,
    cooldown_until: u64,
    replans: u64,
    migrations: u64,
    rejected_samples: u64,
    /// Engine state threaded across revision rounds (see
    /// [`ControllerConfig::warm_start`]).
    warm: WarmCache,
}

impl Controller {
    /// A controller adopting a running deployment.
    ///
    /// `planned` is the per-service demand the running deployment was
    /// sized for — the reference the drift statistics start from.
    ///
    /// # Panics
    /// Panics when `planned` does not cover the mix or a smoothing
    /// factor is out of range.
    #[allow(clippy::too_many_arguments)] // the eight pieces ARE the loop's wiring
    pub fn new(
        platform: Arc<Platform>,
        mix: ServiceMix,
        running: DeploymentPlan,
        assignment: ServerAssignment,
        planned: &MixDemand,
        reviser: Box<dyn Revise + Send>,
        tool: GoDiet,
        config: ControllerConfig,
    ) -> Self {
        assert_eq!(
            planned.len(),
            mix.len(),
            "one planned-demand entry per mix service"
        );
        let demand = (0..mix.len())
            .map(|j| {
                let mut f = RateForecaster::new(config.demand_alpha);
                let rate = planned.rate(j);
                if rate.is_finite() {
                    f.mark_planned(rate);
                }
                f
            })
            .collect();
        let wapp = (0..mix.len())
            .map(|_| WappEstimator::new(config.wapp_alpha))
            .collect();
        Self {
            params: ModelParams::from_platform(&platform),
            platform,
            mix,
            reviser,
            tool,
            config,
            running,
            assignment,
            demand,
            wapp,
            tick: 0,
            fired_streak: 0,
            cooldown_until: 0,
            replans: 0,
            migrations: 0,
            rejected_samples: 0,
            warm: WarmCache::new(),
        }
    }

    /// The plan currently running.
    pub fn running(&self) -> &DeploymentPlan {
        &self.running
    }

    /// The platform this controller deploys on.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Control intervals seen so far (monotone tick counter).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The server→service partition currently running.
    pub fn assignment(&self) -> &ServerAssignment {
        &self.assignment
    }

    /// The mix as the controller currently models it (service `Wapp`s
    /// refreshed from observed executions).
    pub fn mix(&self) -> &ServiceMix {
        &self.mix
    }

    /// Replan rounds run (including ones that found nothing to change).
    pub fn replans(&self) -> u64 {
        self.replans
    }

    /// Migrations actually executed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Corrupt observations dropped so far (NaN, infinite, or negative
    /// demand rates; non-finite or negative execution samples) instead
    /// of being fed to the forecasters — the tick report's data-quality
    /// counter. A rising value means the telemetry source is sick while
    /// the control loop keeps flying on the last healthy statistics.
    pub fn rejected_samples(&self) -> u64 {
        self.rejected_samples
    }

    /// Replan rounds that seeded from warm engine state instead of a
    /// cold rebuild (see [`ControllerConfig::warm_start`]). A healthy
    /// steady-state loop converges to `warm_replans ≈ replans − 1`:
    /// only the round after a migration (or the first ever) runs cold.
    pub fn warm_replans(&self) -> u64 {
        self.warm.hits()
    }

    /// Model evaluation of the running deployment under the current
    /// (observation-refreshed) mix.
    pub fn predicted(&self) -> MixReport {
        evaluate_mix(
            &self.params,
            &self.platform,
            &self.running,
            &self.mix,
            &self.assignment,
        )
        // audit: allow(unwrap, "controller state is updated in lockstep with
        // observations; the invariant is documented in the expect message")
        .expect("controller state is maintained consistent")
    }

    /// Current per-service demand forecasts (planned rate before the
    /// first observation).
    pub fn forecast(&self) -> Vec<f64> {
        self.demand
            .iter()
            .map(|f| f.forecast().or(f.planned()).unwrap_or(0.0))
            .collect()
    }

    /// One control interval: feed `obs` into the forecasters, decide
    /// whether to replan, and — when a round fires and produces changes
    /// — migrate the running deployment. Returns the executed migration
    /// if one happened.
    ///
    /// A round that fires but finds no improving move (demand already
    /// met, or nothing helps) still counts as a replan, re-anchors the
    /// drift statistics at the current forecast, and starts the
    /// cooldown — otherwise an unreachable forecast would re-fire every
    /// tick forever.
    ///
    /// # Errors
    /// [`ControlError`] when the reviser fails on inconsistent state or
    /// the migration exhausts the platform's spare nodes.
    ///
    /// # Panics
    /// Panics when `obs.rates` does not cover the mix or an execution
    /// sample references a service outside it.
    pub fn tick(&mut self, obs: &Observations) -> Result<Option<Migration>, ControlError> {
        self.tick += 1;
        assert_eq!(
            obs.rates.len(),
            self.mix.len(),
            "one observed rate per mix service"
        );
        // Corrupt telemetry is dropped, never fed to the statistics: the
        // forecasters' EMAs never forget, so a single NaN rate or
        // execution sample would poison every subsequent replan's
        // forecast/Wapp. Drops are surfaced via `rejected_samples`.
        for (f, &rate) in self.demand.iter_mut().zip(&obs.rates) {
            if rate.is_finite() && rate >= 0.0 {
                f.observe(rate);
            } else {
                self.rejected_samples += 1;
            }
        }
        for sample in &obs.executions {
            if !self.wapp[sample.service].observe(sample.duration, sample.power) {
                self.rejected_samples += 1;
            }
        }

        // Trigger evaluation reads only the O(services) drift statistics.
        let wapp_drift = self.wapp_drift();
        let reason = self
            .config
            .triggers
            .iter()
            .find_map(|t| t.fire_reason(self.tick, &self.demand, wapp_drift));
        let Some(reason) = reason else {
            self.fired_streak = 0;
            return Ok(None);
        };
        self.fired_streak += 1;
        if self.fired_streak < self.config.hysteresis.min_sustained
            || self.tick < self.cooldown_until
        {
            return Ok(None);
        }

        // Refresh the mix from observed executions, then replan for the
        // forecast (with headroom).
        self.refresh_mix();
        let forecast = self.forecast();
        let planned_demand = MixDemand::targets(
            forecast
                .iter()
                .map(|&r| (r * self.config.headroom).max(0.0))
                .collect(),
        );
        // Re-anchor every drift statistic at what we are planning for.
        for (f, &rate) in self.demand.iter_mut().zip(&forecast) {
            f.mark_planned(rate);
        }
        self.execute_round(reason, planned_demand)
    }

    /// A revision of the running deployment toward `demand`, computed
    /// with the controller's reviser but **not executed**: the running
    /// plan, assignment, and statistics are untouched. This is the
    /// dry-run half of an operator-driven round — inspect the returned
    /// diff, then call [`replan_for`](Controller::replan_for) to apply.
    ///
    /// # Errors
    /// [`ControlError::Revise`] when the reviser fails.
    pub fn preview(&self, demand: &MixDemand) -> Result<MixReplan, ControlError> {
        Ok(self.reviser.revise_mix(
            &self.platform,
            &self.running,
            &self.mix,
            &self.assignment,
            demand,
        )?)
    }

    /// An operator-initiated revision round: bypasses triggers and
    /// hysteresis, replans for the given demand, and migrates if the
    /// revision changes anything. The round still counts as a replan,
    /// re-anchors the drift statistics at `demand`, and starts the
    /// cooldown — an explicit round should quiet the triggers exactly
    /// like an autonomic one.
    ///
    /// # Errors
    /// [`ControlError`] when the reviser fails on inconsistent state or
    /// the migration exhausts the platform's spare nodes.
    ///
    /// # Panics
    /// Panics when `demand` does not cover the mix.
    pub fn replan_for(&mut self, demand: &MixDemand) -> Result<Option<Migration>, ControlError> {
        assert_eq!(
            demand.len(),
            self.mix.len(),
            "one demand entry per mix service"
        );
        self.refresh_mix();
        for (j, f) in self.demand.iter_mut().enumerate() {
            let rate = demand.rate(j);
            if rate.is_finite() {
                f.mark_planned(rate);
            }
        }
        self.execute_round("operator replan".to_string(), demand.clone())
    }

    /// The shared tail of an autonomic tick round and an operator
    /// round: revise toward `planned_demand`, and when the revision
    /// changes anything, compile + execute the migration and adopt the
    /// post-migration state.
    fn execute_round(
        &mut self,
        reason: String,
        planned_demand: MixDemand,
    ) -> Result<Option<Migration>, ControlError> {
        let replan = if self.config.warm_start {
            self.reviser.revise_mix_warm(
                &self.platform,
                &self.running,
                &self.mix,
                &self.assignment,
                &planned_demand,
                &mut self.warm,
            )?
        } else {
            self.reviser.revise_mix(
                &self.platform,
                &self.running,
                &self.mix,
                &self.assignment,
                &planned_demand,
            )?
        };
        self.replans += 1;
        self.fired_streak = 0;
        // Saturating: `u64::MAX` ticks means "never again", not a wrap.
        self.cooldown_until = self
            .tick
            .saturating_add(self.config.hysteresis.cooldown_ticks);

        if replan.diff.is_empty() && replan.reassigned.is_empty() {
            return Ok(None); // the running deployment already fits
        }

        // Compile the diff into a stage-ordered script and execute it
        // against the running deployment.
        let script = MigrationScript::compile(&self.running, &replan.plan)?;
        let migration_report = self.tool.migrate(&self.platform, &self.running, &script)?;
        self.migrations += 1;

        // Adopt the post-migration state: reinstalls from the replan,
        // then node substitutions the launcher performed. The running
        // plan changes outside the reviser here, so any warm engine
        // state is stale — the reviser only re-caches after no-change
        // rounds, but the invalidation contract is honored explicitly.
        self.warm.invalidate();
        self.running = migration_report.plan.clone();
        self.assignment = replan.assignment.clone();
        for &(planned, actual) in &migration_report.substitutions {
            if let Some(service) = self.assignment.service_of.remove(&planned) {
                self.assignment.service_of.insert(actual, service);
            }
        }
        Ok(Some(Migration {
            reason,
            planned_demand,
            replan,
            script,
            report: migration_report,
        }))
    }

    /// Largest relative execution-time drift across services, measured
    /// against the `Wapp` the mix currently declares — which is exactly
    /// what the running deployment was planned with, since
    /// [`refresh_mix`](Controller::refresh_mix) folds the estimates in
    /// at every replan.
    fn wapp_drift(&self) -> f64 {
        (0..self.mix.len())
            .map(|j| match self.wapp[j].estimate() {
                Some(est) => {
                    let reference = self.mix.service(j).wapp.value();
                    if reference > 0.0 {
                        (est.value() - reference).abs() / reference
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            })
            .fold(0.0, f64::max)
    }

    /// Rebuilds the mix with each service's `Wapp` replaced by its
    /// estimator's view, once that estimator has seen real executions.
    fn refresh_mix(&mut self) {
        if self.wapp.iter().all(|w| w.samples() == 0) {
            return;
        }
        let entries = (0..self.mix.len())
            .map(|j| {
                let spec = match self.wapp[j].estimate() {
                    Some(wapp) => ServiceSpec::new(self.mix.service(j).name.clone(), wapp),
                    None => self.mix.service(j).clone(),
                };
                (spec, self.mix.share(j))
            })
            .collect();
        self.mix = ServiceMix::new(entries);
    }
}

impl fmt::Debug for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Controller")
            .field("tick", &self.tick)
            .field("replans", &self.replans)
            .field("migrations", &self.migrations)
            .field("rejected_samples", &self.rejected_samples)
            .field("running", &self.running.to_string())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_core::planner::{MixPlanner, OnlinePlanner};
    use adept_platform::generator::lyon_cluster;
    use adept_workload::Dgemm;

    fn mix2() -> ServiceMix {
        ServiceMix::new(vec![
            (Dgemm::new(310).service(), 1.0),
            (Dgemm::new(1000).service(), 1.0),
        ])
    }

    fn controller_on(
        platform: &Arc<Platform>,
        planned: &MixDemand,
        config: ControllerConfig,
    ) -> Controller {
        let mix = mix2();
        let got = MixPlanner::default()
            .plan_mix(platform, &mix, planned)
            .expect("platform fits the planned demand");
        Controller::new(
            Arc::clone(platform),
            mix,
            got.plan,
            got.assignment,
            planned,
            Box::new(OnlinePlanner {
                max_changes: 16,
                ..Default::default()
            }),
            GoDiet::default(),
            config,
        )
    }

    #[test]
    fn controller_is_send() {
        // The serve daemon moves controllers across threads (one tenant
        // session per connection-serving thread); this must never
        // silently regress into a !Send field.
        fn assert_send<T: Send>() {}
        assert_send::<Controller>();
    }

    #[test]
    fn steady_demand_never_replans() {
        let platform = Arc::new(lyon_cluster(30));
        let planned = MixDemand::targets(vec![2.0, 0.3]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        for _ in 0..50 {
            let migrated = c
                .tick(&Observations::rates(vec![2.0, 0.3]))
                .expect("steady state cannot fail");
            assert!(migrated.is_none());
        }
        assert_eq!(c.replans(), 0);
        assert_eq!(c.migrations(), 0);
    }

    #[test]
    fn demand_jump_triggers_one_migration_then_settles() {
        let platform = Arc::new(lyon_cluster(40));
        // Service 1 is the heavy dgemm-1000 (~0.2 req/s per server):
        // its demand level dictates real server counts.
        let planned = MixDemand::targets(vec![2.0, 1.0]);
        let config = ControllerConfig {
            demand_alpha: 1.0, // converge instantly: cleanest flap check
            ..Default::default()
        };
        let mut c = controller_on(&platform, &planned, config);
        let before = c.running().server_count();
        // Demand for the heavy service more than doubles and stays.
        let mut migrations = 0;
        for _ in 0..30 {
            if c.tick(&Observations::rates(vec![2.0, 2.4]))
                .expect("replannable")
                .is_some()
            {
                migrations += 1;
            }
        }
        assert_eq!(migrations, 1, "one sustained level, one migration");
        assert!(c.running().server_count() > before, "capacity grew");
        // The new deployment covers the new demand in the model.
        let report = c.predicted();
        assert!(report.rho_service[1] >= 2.4);
    }

    #[test]
    fn a_cooldown_of_u64_max_ticks_never_ends() {
        // A `u64::MAX` cooldown ("never again") must not overflow the
        // cooldown end: that panics in a debug build and wraps to no
        // cooldown at all in a release build.
        let platform = Arc::new(lyon_cluster(40));
        let planned = MixDemand::targets(vec![2.0, 1.0]);
        let config = ControllerConfig {
            demand_alpha: 1.0,
            hysteresis: Hysteresis {
                min_sustained: 1,
                cooldown_ticks: u64::MAX,
            },
            ..Default::default()
        };
        let mut c = controller_on(&platform, &planned, config);
        let mut migrations = 0;
        for _ in 0..10 {
            if c.tick(&Observations::rates(vec![2.0, 2.4]))
                .expect("replannable")
                .is_some()
            {
                migrations += 1;
            }
        }
        assert_eq!(migrations, 1, "the sustained jump migrates once");
        // A later jump fires the trigger, but the cooldown never ends.
        for _ in 0..10 {
            let m = c
                .tick(&Observations::rates(vec![0.5, 4.0]))
                .expect("held rounds cannot fail");
            assert!(m.is_none());
        }
        assert_eq!(c.replans(), 1, "no round after the first");
    }

    #[test]
    fn noisy_demand_under_hysteresis_does_not_flap() {
        let platform = Arc::new(lyon_cluster(30));
        let planned = MixDemand::targets(vec![2.0, 0.3]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        // ±12% noise around the planned level, alternating each tick:
        // drift EMA never sustains past the 20% threshold.
        for i in 0..60 {
            let wobble = if i % 2 == 0 { 1.12 } else { 0.88 };
            c.tick(&Observations::rates(vec![2.0 * wobble, 0.3 * wobble]))
                .expect("noise is not an error");
        }
        assert_eq!(c.migrations(), 0, "noise must not move machines");
    }

    #[test]
    fn demand_drop_shrinks_the_deployment() {
        let platform = Arc::new(lyon_cluster(40));
        let planned = MixDemand::targets(vec![2.0, 0.4]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        let before = c.running().server_count();
        for _ in 0..20 {
            c.tick(&Observations::rates(vec![0.5, 0.1]))
                .expect("shrink rounds cannot fail");
        }
        assert!(c.migrations() >= 1);
        assert!(
            c.running().server_count() < before,
            "released machines: {} -> {}",
            before,
            c.running().server_count()
        );
        // Demand still covered after shrinking.
        let report = c.predicted();
        assert!(report.rho_service[0] >= 0.5);
        assert!(report.rho_service[1] >= 0.1);
    }

    #[test]
    fn execution_drift_refreshes_the_mix_and_replans() {
        let platform = Arc::new(lyon_cluster(40));
        let planned = MixDemand::targets(vec![1.5, 1.0]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        let before_servers = c.running().server_count();
        let wapp_before = c.mix().service(1).wapp;
        // Demand holds, but the heavy service's requests start costing
        // 2× the declared Wapp (a bigger problem size than advertised):
        // the same demand now needs twice the servers.
        let heavy = Seconds(2.0 * wapp_before.value() / 400.0);
        let mut migrated = false;
        for _ in 0..20 {
            let obs = Observations {
                rates: vec![1.5, 1.0],
                executions: vec![ExecutionSample {
                    service: 1,
                    duration: heavy,
                    power: MflopRate(400.0),
                }],
            };
            migrated |= c.tick(&obs).expect("wapp drift round").is_some();
        }
        assert!(migrated, "execution drift must drive a migration");
        assert!(
            c.mix().service(1).wapp.value() > wapp_before.value() * 1.5,
            "the mix now carries the observed execution cost"
        );
        assert!(
            c.running().server_count() > before_servers,
            "heavier requests need more servers at the same demand"
        );
    }

    #[test]
    fn unreachable_forecast_fires_once_then_holds() {
        let platform = Arc::new(lyon_cluster(10));
        let planned = MixDemand::targets(vec![0.5, 0.1]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        // An absurd demand nothing can serve: the round fires, does its
        // best, re-anchors, and must not spin forever.
        for _ in 0..20 {
            c.tick(&Observations::rates(vec![50.0, 0.1]))
                .expect("best-effort growth");
        }
        assert!(
            c.replans() <= 3,
            "re-anchoring must stop the permanent refire, got {}",
            c.replans()
        );
    }

    #[test]
    fn corrupt_observations_are_dropped_and_counted() {
        // Regression: a NaN demand rate (or execution duration) used to
        // panic inside the forecasters' asserts — and, had it slipped
        // through, would have poisoned the EMA for every later replan.
        // The loop must instead drop the sample, count it, and keep
        // controlling on the last healthy statistics.
        let platform = Arc::new(lyon_cluster(30));
        let planned = MixDemand::targets(vec![2.0, 0.3]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        let corrupt = Observations {
            rates: vec![f64::NAN, f64::INFINITY],
            executions: vec![
                ExecutionSample {
                    service: 0,
                    duration: Seconds(f64::NAN),
                    power: MflopRate(400.0),
                },
                ExecutionSample {
                    service: 1,
                    duration: Seconds(1.0),
                    power: MflopRate(f64::INFINITY),
                },
            ],
        };
        let migrated = c.tick(&corrupt).expect("corrupt telemetry is not an error");
        assert!(migrated.is_none());
        assert_eq!(c.rejected_samples(), 4, "every corrupt sample counted");
        // Forecasts fall back to the planned rates: nothing landed.
        assert_eq!(c.forecast(), vec![2.0, 0.3]);
        // The loop keeps flying: steady clean ticks neither replan nor
        // carry any NaN into the model.
        for _ in 0..20 {
            let m = c
                .tick(&Observations::rates(vec![2.0, 0.3]))
                .expect("steady state cannot fail");
            assert!(m.is_none());
        }
        assert_eq!(c.replans(), 0);
        assert_eq!(c.rejected_samples(), 4);
        let report = c.predicted();
        assert!(report.rho.is_finite() && report.rho > 0.0);
        assert!(format!("{c:?}").contains("rejected_samples: 4"));
    }

    #[test]
    #[should_panic(expected = "one observed rate per mix service")]
    fn wrong_observation_arity_panics() {
        let platform = Arc::new(lyon_cluster(20));
        let planned = MixDemand::targets(vec![1.0, 0.2]);
        let mut c = controller_on(&platform, &planned, ControllerConfig::default());
        let _ = c.tick(&Observations::rates(vec![1.0]));
    }
}
