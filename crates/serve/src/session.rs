//! One tenant's hosted control loop.
//!
//! A [`TenantSession`] wraps one [`Controller`] with its journal: every
//! input (observe tick, operator replan) is journaled write-ahead,
//! consumed, and checkpointed, so [`resume`](TenantSession::resume) can
//! rebuild the exact session by deterministic replay after a daemon
//! restart (see the [`journal`](crate::journal) module for what survives
//! which crash). The session is the daemon's unit of concurrency — it
//! is `Send` and lives behind one mutex per tenant, so tenants never
//! serialize against each other.

use crate::cache::{CacheLookup, PlanCache};
use crate::error::{JournalError, ServeError};
use crate::journal::{Journal, Record};
use crate::wire::{
    MigrationSummary, PlanSummary, ReplanPreview, ServiceDef, SessionConfig, TenantStatus,
    TickOutcome,
};
use adept_control::controller::{ExecutionSample, Migration, Observations};
use adept_control::{Controller, ControllerConfig, Hysteresis, TriggerPolicy};
use adept_core::planner::{MixObjective, MixPlanner, OnlinePlanner};
use adept_godiet::GoDiet;
use adept_hierarchy::NodeChange;
use adept_platform::{Mflop, Platform};
use adept_workload::{MixDemand, ServiceMix, ServiceSpec};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;

/// Checks a tenant id is safe to use as a journal file stem.
pub(crate) fn validate_tenant_id(tenant: &str) -> Result<(), ServeError> {
    let ok = !tenant.is_empty()
        && tenant.len() <= 64
        && tenant
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if ok {
        Ok(())
    } else {
        Err(ServeError::BadRequest(format!(
            "tenant id {tenant:?} must be 1-64 chars of [A-Za-z0-9_-]"
        )))
    }
}

pub(crate) fn build_mix(services: &[ServiceDef]) -> Result<ServiceMix, ServeError> {
    for s in services {
        if !(s.wapp_mflop.is_finite() && s.wapp_mflop > 0.0) {
            return Err(ServeError::BadRequest(format!(
                "service {:?}: wapp_mflop must be positive and finite, got {}",
                s.name, s.wapp_mflop
            )));
        }
        if !(s.weight.is_finite() && s.weight > 0.0) {
            return Err(ServeError::BadRequest(format!(
                "service {:?}: weight must be positive and finite, got {}",
                s.name, s.weight
            )));
        }
    }
    Ok(ServiceMix::new(
        services
            .iter()
            .map(|s| {
                (
                    ServiceSpec::new(s.name.clone(), Mflop(s.wapp_mflop)),
                    s.weight,
                )
            })
            .collect(),
    ))
}

fn godiet_for(config: &SessionConfig) -> GoDiet {
    if config.failure_probability > 0.0 {
        GoDiet::with_failures(config.failure_probability, config.failure_seed)
    } else {
        GoDiet::default()
    }
}

fn controller_config(config: &SessionConfig, warm_start: bool) -> ControllerConfig {
    ControllerConfig {
        triggers: vec![TriggerPolicy::ForecastDrift {
            threshold: config.drift_threshold,
        }],
        hysteresis: Hysteresis {
            min_sustained: config.min_sustained,
            cooldown_ticks: config.cooldown_ticks,
        },
        demand_alpha: config.demand_alpha,
        wapp_alpha: config.wapp_alpha,
        headroom: config.headroom,
        warm_start,
    }
}

/// One tenant's journaled control-loop session.
#[derive(Debug)]
pub struct TenantSession {
    tenant: String,
    platform_name: String,
    controller: Controller,
    /// The append-only journal, serialized under its own lock class so
    /// the write-ahead append stream stays ordered even if session
    /// access patterns change; acquired strictly *inside* the tenant
    /// slot lock (`serve.tenant-slot` → `serve.journal` in the
    /// lock-order graph).
    journal: Mutex<Journal>,
    /// Migrations executed this *process lifetime or replay* — the
    /// authoritative per-session history.
    migrations: Vec<MigrationSummary>,
}

impl TenantSession {
    /// Registers a new tenant: validates the mix and demand, plans the
    /// initial deployment, claims the journal file, and starts the
    /// control loop around the freshly "deployed" plan.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on an unusable tenant id, mix, or
    /// config; [`ServeError::Demand`] on an invalid demand vector;
    /// [`ServeError::Planner`] when no deployment fits;
    /// [`ServeError::Journal`] when the tenant id is already claimed by
    /// a journal on disk.
    ///
    /// `cache` is the daemon's shared plan cache (exact tier only: a hit
    /// is bit-identical to planning cold, so the journaled answer — and
    /// its cold-planning replay — are unaffected). `warm_start` threads
    /// the daemon's warm-replanning ablation flag into the controller.
    #[allow(clippy::too_many_arguments)]
    pub fn register(
        journal_dir: &Path,
        tenant: &str,
        platform_name: &str,
        platform: Arc<Platform>,
        services: &[ServiceDef],
        demand: Vec<f64>,
        config: &SessionConfig,
        cache: Option<&PlanCache>,
        warm_start: bool,
    ) -> Result<TenantSession, ServeError> {
        validate_tenant_id(tenant)?;
        let mix = build_mix(services)?;
        let mix_demand = MixDemand::try_targets(demand.clone())?;
        if mix_demand.len() != mix.len() {
            return Err(ServeError::BadRequest(format!(
                "demand covers {} services, mix declares {}",
                mix_demand.len(),
                mix.len()
            )));
        }
        // Plan before claiming the journal: a tenant that cannot be
        // planned leaves no file behind. The shared cache may already
        // hold the canonical answer for these exact inputs (another
        // tenant asked the same question); `MixPlanner` is
        // deterministic, so an exact hit equals planning cold bit for
        // bit and replay — which always plans cold — still reproduces
        // the session.
        let cached = cache.and_then(|c| {
            match c.lookup(&platform, &mix, MixObjective::WeightedMin, &demand, false) {
                CacheLookup::Exact(hit) => Some(*hit),
                _ => None,
            }
        });
        let initial = match cached {
            Some(hit) => hit,
            None => {
                let cold = MixPlanner::default().plan_mix(&platform, &mix, &mix_demand)?;
                if let Some(c) = cache {
                    c.insert(&platform, &mix, MixObjective::WeightedMin, &demand, &cold);
                }
                cold
            }
        };
        let register = Record::Register {
            tenant: tenant.to_string(),
            platform: platform_name.to_string(),
            fingerprint: platform.fingerprint(),
            services: services.to_vec(),
            demand,
            config: config.clone(),
        };
        let journal = Journal::create(journal_dir, tenant, &register)?;
        let controller = Controller::new(
            platform,
            mix,
            initial.plan,
            initial.assignment,
            &mix_demand,
            Box::new(OnlinePlanner {
                max_changes: config.max_changes as usize,
                ..OnlinePlanner::default()
            }),
            godiet_for(config),
            controller_config(config, warm_start),
        );
        Ok(TenantSession {
            tenant: tenant.to_string(),
            platform_name: platform_name.to_string(),
            controller,
            journal: Mutex::named("serve.journal", journal),
            migrations: Vec::new(),
        })
    }

    /// Resumes a session from its journal by deterministic replay.
    ///
    /// `lookup` resolves a catalog platform by name — the daemon's
    /// shared read-only catalogs. The journaled fingerprint must match
    /// the catalog platform exactly; a platform that changed shape
    /// under a journal is a [`JournalError::FingerprintMismatch`], not
    /// a silent replan on different hardware.
    ///
    /// Replay is lenient about a truncated final record (a crash
    /// mid-append loses that one unacknowledged input, and
    /// [`Journal::open_append`] cuts it off the file before the next
    /// append) but must reproduce every journaled `migration` checkpoint
    /// exactly — anything else is a [`JournalError::ReplayDivergence`].
    ///
    /// A journal ending in a `drain` record belongs to a finished
    /// session and resumes as `Ok(None)`.
    ///
    /// Replay never consults the shared plan cache — resuming must
    /// depend only on the journal, not on what other tenants planned
    /// since it was written. `warm_start` may differ from the crashed
    /// process's setting without affecting the replayed answers: warm
    /// replanning is bit-identical to cold (only its latency differs),
    /// which the restart tests assert.
    ///
    /// # Errors
    /// [`ServeError::Journal`] for every journal defect;
    /// [`ServeError::UnknownPlatform`] when the journaled platform name
    /// is not in the catalog.
    pub fn resume(
        path: &Path,
        lookup: &dyn Fn(&str) -> Option<Arc<Platform>>,
        warm_start: bool,
    ) -> Result<Option<TenantSession>, ServeError> {
        let file_tenant = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        let (records, _dropped_tail) = Journal::read_lenient(path)?;
        let Some((first, rest)) = records.split_first() else {
            return Err(JournalError::Empty {
                path: path.display().to_string(),
            }
            .into());
        };
        let Record::Register {
            tenant,
            platform: platform_name,
            fingerprint,
            services,
            demand,
            config,
        } = first
        else {
            return Err(JournalError::NotRegistered.into());
        };
        if *tenant != file_tenant {
            return Err(JournalError::TenantMismatch {
                file: file_tenant,
                record: tenant.clone(),
            }
            .into());
        }
        let platform = lookup(platform_name)
            .ok_or_else(|| ServeError::UnknownPlatform(platform_name.clone()))?;
        if platform.fingerprint() != *fingerprint {
            return Err(JournalError::FingerprintMismatch {
                platform: platform_name.clone(),
                journaled: format!("{fingerprint:016x}"),
                catalog: format!("{:016x}", platform.fingerprint()),
            }
            .into());
        }

        // Rebuild tick 0 exactly as `register` did.
        let mix = build_mix(services)?;
        let mix_demand =
            MixDemand::try_targets(demand.clone()).map_err(|e| JournalError::Corrupt {
                line: 1,
                detail: e.to_string(),
            })?;
        let initial = MixPlanner::default().plan_mix(&platform, &mix, &mix_demand)?;
        let controller = Controller::new(
            platform,
            mix,
            initial.plan,
            initial.assignment,
            &mix_demand,
            Box::new(OnlinePlanner {
                max_changes: config.max_changes as usize,
                ..OnlinePlanner::default()
            }),
            godiet_for(config),
            controller_config(config, warm_start),
        );
        let mut session = TenantSession {
            tenant: tenant.clone(),
            platform_name: platform_name.clone(),
            controller,
            journal: Mutex::named("serve.journal", Journal::open_append(path)?),
            migrations: Vec::new(),
        };

        // Re-feed every journaled input; cross-check every journaled
        // migration checkpoint against what replay actually did.
        let divergence = |detail: String| -> ServeError {
            JournalError::ReplayDivergence {
                tenant: file_tenant.clone(),
                detail,
            }
            .into()
        };
        let mut checked = 0usize;
        for record in rest {
            match record {
                Record::Register { .. } => {
                    return Err(divergence("second register record".into()));
                }
                Record::Tick { rates, executions } => {
                    match session.consume_tick(rates.clone(), executions.clone()) {
                        Ok(_) => {}
                        // A round that failed live fails identically on
                        // replay; the error was already answered then.
                        Err(ServeError::Revise(_) | ServeError::Deploy(_)) => {}
                        Err(e) => return Err(divergence(format!("tick replay failed: {e}"))),
                    }
                }
                Record::Replan { demand } => match session.consume_replan(demand.clone()) {
                    Ok(_) => {}
                    Err(ServeError::Revise(_) | ServeError::Deploy(_)) => {}
                    Err(e) => return Err(divergence(format!("replan replay failed: {e}"))),
                },
                Record::Migration {
                    seq,
                    tick,
                    changes,
                    servers_after,
                } => {
                    let Some(done) = session.migrations.get(checked) else {
                        return Err(divergence(format!(
                            "journal records migration {seq} but replay produced only {}",
                            session.migrations.len()
                        )));
                    };
                    if done.seq != *seq
                        || done.tick != *tick
                        || done.changes != *changes
                        || done.servers_after != *servers_after
                    {
                        return Err(divergence(format!(
                            "migration {seq}: journal says tick {tick}, {changes} changes, \
                             {servers_after} servers; replay did tick {}, {} changes, \
                             {} servers",
                            done.tick, done.changes, done.servers_after
                        )));
                    }
                    checked += 1;
                }
                Record::Drain => return Ok(None),
            }
        }
        // Replay may have *more* migrations than checkpoints (crash
        // between a tick record and its migration record): journal the
        // missing checkpoints now so the history is whole again.
        for summary in &session.migrations[checked..] {
            session.journal.lock().append(&Record::Migration {
                seq: summary.seq,
                tick: summary.tick,
                changes: summary.changes,
                servers_after: summary.servers_after,
            })?;
        }
        Ok(Some(session))
    }

    /// The tenant id.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// One observed control interval: journal it (write-ahead), feed
    /// the controller, checkpoint any migration, and report.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] on wrong arity or an out-of-range
    /// service index (validated *before* journaling — bad input is
    /// never persisted); [`ServeError::Revise`] / [`ServeError::Deploy`]
    /// when the round fails; [`ServeError::Journal`] on write failure.
    pub fn observe(
        &mut self,
        rates: Vec<f64>,
        executions: Vec<ExecutionSample>,
    ) -> Result<TickOutcome, ServeError> {
        self.validate_observation(&rates, &executions)?;
        self.journal.lock().append(&Record::Tick {
            rates: rates.clone(),
            executions: executions.clone(),
        })?;
        let outcome = self.consume_tick(rates, executions)?;
        self.checkpoint_last_migration(outcome.migration.as_ref())?;
        Ok(outcome)
    }

    /// A dry-run revision toward `demand`: what an operator `migrate`
    /// would do, with the diff validated against the running plan, but
    /// nothing executed and nothing journaled.
    ///
    /// # Errors
    /// [`ServeError::Demand`] on an invalid vector,
    /// [`ServeError::Revise`] when the reviser fails,
    /// [`ServeError::Diff`] when the produced diff does not apply to
    /// the running plan (a planner bug this endpoint makes visible).
    pub fn preview(&self, demand: Vec<f64>) -> Result<ReplanPreview, ServeError> {
        let mix_demand = self.demand_for_mix(demand)?;
        let replan = self.controller.preview(&mix_demand)?;
        // Validate before reporting: the diff must patch the running
        // plan into the revised plan.
        let patched = replan.diff.apply(self.controller.running())?;
        debug_assert!(patched.structurally_eq(&replan.plan));
        let (mut added, mut removed, mut reroled, mut reparented) = (0u64, 0u64, 0u64, 0u64);
        for change in replan.diff.changes.values() {
            match change {
                NodeChange::Added { .. } => added += 1,
                NodeChange::Removed { .. } => removed += 1,
                NodeChange::Rerole { .. } => reroled += 1,
                NodeChange::Reparented { .. } => reparented += 1,
            }
        }
        Ok(ReplanPreview {
            changes: replan.changes() as u64,
            added,
            removed,
            reroled,
            reparented,
            reassigned: replan.reassigned.len() as u64,
            rho: replan.report.rho,
            rho_service: replan.report.rho_service.clone(),
        })
    }

    /// An operator-forced replan round toward `demand`: journaled,
    /// executed, checkpointed. Returns the migration it ran, or `None`
    /// when the running deployment already fits.
    ///
    /// # Errors
    /// As [`observe`](TenantSession::observe), plus
    /// [`ServeError::Demand`] on an invalid vector.
    pub fn migrate(&mut self, demand: Vec<f64>) -> Result<Option<MigrationSummary>, ServeError> {
        let _ = self.demand_for_mix(demand.clone())?; // validate before journaling
        self.journal.lock().append(&Record::Replan {
            demand: demand.clone(),
        })?;
        let summary = self.consume_replan(demand)?;
        self.checkpoint_last_migration(summary.as_ref())?;
        Ok(summary)
    }

    /// The session's live counters and model state.
    pub fn status(&self) -> TenantStatus {
        TenantStatus {
            tenant: self.tenant.clone(),
            platform: self.platform_name.clone(),
            ticks: self.controller.ticks(),
            replans: self.controller.replans(),
            warm_replans: self.controller.warm_replans(),
            migrations: self.controller.migrations(),
            rejected_samples: self.controller.rejected_samples(),
            plan: self.plan_summary(),
            forecast: self.controller.forecast(),
        }
    }

    /// The executed migrations, oldest first.
    pub fn migrations(&self) -> &[MigrationSummary] {
        &self.migrations
    }

    /// Ends the session cleanly: journals a `drain` record and archives
    /// the journal as `<tenant>.jsonl.drained`, freeing the tenant id.
    /// Returns the archived journal path.
    ///
    /// # Errors
    /// [`ServeError::Journal`] when the drain record or the archive
    /// rename fails.
    pub fn drain(self) -> Result<std::path::PathBuf, ServeError> {
        let mut journal = self.journal.into_inner();
        journal.append(&Record::Drain)?;
        Ok(journal.archive_drained()?)
    }

    /// Current deployment summary (model evaluation + composition).
    pub(crate) fn plan_summary(&self) -> PlanSummary {
        let report = self.controller.predicted();
        let mut per_service = vec![0u64; self.controller.mix().len()];
        for &service in self.controller.assignment().service_of.values() {
            if let Some(n) = per_service.get_mut(service) {
                *n += 1;
            }
        }
        PlanSummary {
            rho: report.rho,
            rho_service: report.rho_service,
            servers: self.controller.running().server_count() as u64,
            agents: self.controller.running().agent_count() as u64,
            per_service_servers: per_service,
        }
    }

    fn validate_observation(
        &self,
        rates: &[f64],
        executions: &[ExecutionSample],
    ) -> Result<(), ServeError> {
        let services = self.controller.mix().len();
        if rates.len() != services {
            return Err(ServeError::BadRequest(format!(
                "observation covers {} services, mix declares {services}",
                rates.len()
            )));
        }
        for (i, e) in executions.iter().enumerate() {
            if e.service >= services {
                return Err(ServeError::BadRequest(format!(
                    "executions[{i}] names service {}, mix declares {services}",
                    e.service
                )));
            }
        }
        Ok(())
    }

    fn demand_for_mix(&self, demand: Vec<f64>) -> Result<MixDemand, ServeError> {
        let mix_demand = MixDemand::try_targets(demand)?;
        if mix_demand.len() != self.controller.mix().len() {
            return Err(ServeError::BadRequest(format!(
                "demand covers {} services, mix declares {}",
                mix_demand.len(),
                self.controller.mix().len()
            )));
        }
        Ok(mix_demand)
    }

    /// Feeds one tick into the controller (no journaling — shared by
    /// the live path and replay).
    fn consume_tick(
        &mut self,
        rates: Vec<f64>,
        executions: Vec<ExecutionSample>,
    ) -> Result<TickOutcome, ServeError> {
        self.validate_observation(&rates, &executions)?;
        let migration = self.controller.tick(&Observations { rates, executions })?;
        let summary = migration.map(|m| self.record_migration(&m));
        Ok(TickOutcome {
            tick: self.controller.ticks(),
            migration: summary,
            rejected_samples: self.controller.rejected_samples(),
            forecast: self.controller.forecast(),
        })
    }

    /// Runs one operator round (no journaling — shared with replay).
    fn consume_replan(&mut self, demand: Vec<f64>) -> Result<Option<MigrationSummary>, ServeError> {
        let mix_demand = self.demand_for_mix(demand)?;
        let migration = self.controller.replan_for(&mix_demand)?;
        Ok(migration.map(|m| self.record_migration(&m)))
    }

    fn record_migration(&mut self, m: &Migration) -> MigrationSummary {
        let summary = MigrationSummary {
            seq: self.controller.migrations(),
            tick: self.controller.ticks(),
            reason: m.reason.clone(),
            changes: m.replan.diff.len() as u64,
            reassigned: m.replan.reassigned.len() as u64,
            substitutions: m.report.substitutions.len() as u64,
            stages: m.report.stages as u64,
            makespan_s: m.report.makespan.value(),
            servers_after: m.report.plan.server_count() as u64,
            rho_after: m.replan.report.rho,
        };
        self.migrations.push(summary.clone());
        summary
    }

    /// Appends the `migration` checkpoint for a round that migrated.
    fn checkpoint_last_migration(
        &mut self,
        summary: Option<&MigrationSummary>,
    ) -> Result<(), ServeError> {
        if let Some(s) = summary {
            self.journal.lock().append(&Record::Migration {
                seq: s.seq,
                tick: s.tick,
                changes: s.changes,
                servers_after: s.servers_after,
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::journal_path;
    use adept_platform::generator;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adept-session-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn services2() -> Vec<ServiceDef> {
        vec![
            ServiceDef {
                name: "dgemm-310".into(),
                wapp_mflop: 59.6,
                weight: 1.0,
            },
            ServiceDef {
                name: "dgemm-1000".into(),
                wapp_mflop: 2000.0,
                weight: 1.0,
            },
        ]
    }

    fn platform() -> Arc<Platform> {
        Arc::new(generator::lyon_cluster(30))
    }

    fn register(dir: &Path, tenant: &str) -> TenantSession {
        register_cached(dir, tenant, None)
    }

    fn register_cached(dir: &Path, tenant: &str, cache: Option<&PlanCache>) -> TenantSession {
        TenantSession::register(
            dir,
            tenant,
            "lyon30",
            platform(),
            &services2(),
            vec![2.0, 0.3],
            &SessionConfig {
                demand_alpha: 1.0,
                ..SessionConfig::default()
            },
            cache,
            true,
        )
        .expect("registration plans and claims cleanly")
    }

    #[test]
    fn register_observe_drain_lifecycle() {
        let dir = tmp_dir("lifecycle");
        let mut session = register(&dir, "acme");
        let outcome = session.observe(vec![2.0, 0.3], vec![]).unwrap();
        assert_eq!(outcome.tick, 1);
        assert!(outcome.migration.is_none());
        let status = session.status();
        assert_eq!(status.ticks, 1);
        assert!(status.plan.servers > 0);
        assert_eq!(status.plan.per_service_servers.len(), 2);
        let archived = session.drain().unwrap();
        assert!(archived.ends_with("acme.jsonl.drained"));
        // The id is free again.
        let _again = register(&dir, "acme");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn demand_jump_migrates_and_resume_replays_identically() {
        let dir = tmp_dir("resume");
        let mut session = register(&dir, "acme");
        for _ in 0..6 {
            session.observe(vec![2.0, 0.3], vec![]).unwrap();
        }
        for _ in 0..8 {
            session.observe(vec![2.0, 1.2], vec![]).unwrap();
        }
        assert!(
            !session.migrations().is_empty(),
            "a sustained 4x jump on the heavy service must migrate"
        );
        let live_status = session.status();
        let live_migrations = session.migrations().to_vec();
        drop(session);

        let lookup = |name: &str| (name == "lyon30").then(platform);
        let resumed = TenantSession::resume(&journal_path(&dir, "acme"), &lookup, true)
            .unwrap()
            .expect("journal is live, not drained");
        assert_eq!(resumed.status(), live_status);
        assert_eq!(resumed.migrations(), live_migrations.as_slice());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_wrong_fingerprint_and_unknown_platform() {
        let dir = tmp_dir("fingerprint");
        let session = register(&dir, "acme");
        drop(session);
        let path = journal_path(&dir, "acme");

        let err = TenantSession::resume(&path, &|_| None, true).unwrap_err();
        assert!(matches!(err, ServeError::UnknownPlatform(_)));

        // Same name, different shape: the catalog changed underneath.
        let other = Arc::new(generator::lyon_cluster(31));
        let err = TenantSession::resume(&path, &|_| Some(other.clone()), true).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Journal(JournalError::FingerprintMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drained_journal_resumes_as_none() {
        let dir = tmp_dir("drained-resume");
        let mut session = register(&dir, "acme");
        session.observe(vec![2.0, 0.3], vec![]).unwrap();
        // Journal the drain but keep the live file: simulates a crash
        // after the drain record and before the archive rename.
        session.journal.lock().append(&Record::Drain).unwrap();
        drop(session);
        let lookup = |name: &str| (name == "lyon30").then(platform);
        let resumed = TenantSession::resume(&journal_path(&dir, "acme"), &lookup, true).unwrap();
        assert!(resumed.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_observation_is_rejected_before_journaling() {
        let dir = tmp_dir("bad-obs");
        let mut session = register(&dir, "acme");
        let before = std::fs::read_to_string(session.journal.lock().path()).unwrap();
        assert!(matches!(
            session.observe(vec![2.0], vec![]),
            Err(ServeError::BadRequest(_))
        ));
        let sample = ExecutionSample {
            service: 9,
            duration: adept_platform::Seconds(1.0),
            power: adept_platform::MflopRate(400.0),
        };
        assert!(matches!(
            session.observe(vec![2.0, 0.3], vec![sample]),
            Err(ServeError::BadRequest(_))
        ));
        let after = std::fs::read_to_string(session.journal.lock().path()).unwrap();
        assert_eq!(before, after, "rejected input must never be journaled");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn preview_does_not_change_state_and_migrate_does() {
        let dir = tmp_dir("preview");
        let mut session = register(&dir, "acme");
        let status_before = session.status();
        let preview = session.preview(vec![2.0, 1.2]).unwrap();
        assert!(preview.changes > 0, "4x demand on the heavy service grows");
        assert_eq!(session.status(), status_before, "preview is a dry run");

        let migrated = session.migrate(vec![2.0, 1.2]).unwrap();
        let summary = migrated.expect("the previewed growth executes");
        assert_eq!(summary.reason, "operator replan");
        assert!(session.status().plan.servers >= status_before.plan.servers);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_migration_checkpoint_is_replay_divergence() {
        let dir = tmp_dir("divergence");
        let mut session = register(&dir, "acme");
        for _ in 0..6 {
            session.observe(vec![2.0, 0.3], vec![]).unwrap();
        }
        for _ in 0..8 {
            session.observe(vec![2.0, 1.2], vec![]).unwrap();
        }
        assert!(!session.migrations().is_empty());
        drop(session);
        let path = journal_path(&dir, "acme");
        let tampered = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"servers_after\":", "\"servers_after\":9");
        std::fs::write(&path, tampered).unwrap();
        let lookup = |name: &str| (name == "lyon30").then(platform);
        let err = TenantSession::resume(&path, &lookup, true).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Journal(JournalError::ReplayDivergence { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_tenant_registers_from_an_exact_cache_hit() {
        let dir = tmp_dir("cache-register");
        let cache = PlanCache::new(8);
        let first = register_cached(&dir, "acme", Some(&cache));
        assert_eq!(cache.stats().insertions, 1, "cold register fills the cache");
        let second = register_cached(&dir, "globex", Some(&cache));
        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1, "identical question hits exactly");
        assert_eq!(stats.insertions, 1, "a hit inserts nothing new");
        // The cached answer is the cold answer, bit for bit.
        let (a, b) = (first.status().plan, second.status().plan);
        assert_eq!(a.rho.to_bits(), b.rho.to_bits());
        assert_eq!(a.servers, b.servers);
        assert_eq!(a.per_service_servers, b.per_service_servers);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cuts a journal at every byte offset and resumes it twice, with
    /// one `observe` in between: the first resume refuses with a typed
    /// error (a cut inside the `register` record) or reproduces a live
    /// session fed the surviving records, and the second reproduces the
    /// first plus its `observe`. The journal holds two migrations with
    /// spare substitutions (2-site, 30-node grid, failure injection on).
    #[test]
    fn a_journal_cut_at_any_byte_resumes_twice() {
        let dir = tmp_dir("torn");
        let grid = Arc::new(generator::multi_site_grid(
            2,
            15,
            adept_platform::MflopRate(400.0),
            adept_platform::MbitRate(100.0),
            adept_platform::MbitRate(10.0),
            7,
        ));
        let lookup = |name: &str| (name == "grid2x15").then(|| grid.clone());
        let config = SessionConfig {
            failure_probability: 0.55,
            failure_seed: 23,
            ..SessionConfig::default()
        };
        let start = |dir: &Path| {
            TenantSession::register(
                dir,
                "acme",
                "grid2x15",
                grid.clone(),
                &services2(),
                vec![2.0, 0.3],
                &config,
                None,
                true,
            )
            .expect("registration plans and claims cleanly")
        };
        let extra = vec![1.0, 0.2];
        let mut live = start(&dir);
        for rates in [[2.0, 0.3], [2.0, 1.2], [2.0, 1.2], [2.0, 1.2], [0.5, 0.1]] {
            live.observe(rates.to_vec(), vec![]).unwrap();
        }
        live.migrate(vec![3.0, 1.5]).unwrap();
        let migrations = live.migrations().to_vec();
        assert!(migrations.len() >= 2, "{migrations:?}");
        assert!(
            migrations.iter().any(|m| m.substitutions > 0),
            "{migrations:?}"
        );
        drop(live);
        let path = journal_path(&dir, "acme");
        let bytes = std::fs::read(&path).unwrap();
        let records = Journal::read_strict(&path).unwrap();
        let register_len = bytes.iter().position(|&b| b == b'\n').unwrap();

        // A live session fed the first `i` records' inputs, then `extra`:
        // its status before and after the extra tick, for every `i`.
        let reference_dir = tmp_dir("torn-reference");
        let reference: Vec<(TenantStatus, TenantStatus)> = (1..=records.len())
            .map(|i| {
                let _ = std::fs::remove_dir_all(&reference_dir);
                let mut session = start(&reference_dir);
                for record in &records[1..i] {
                    match record {
                        Record::Tick { rates, executions } => {
                            session.observe(rates.clone(), executions.clone()).unwrap();
                        }
                        Record::Replan { demand } => {
                            session.migrate(demand.clone()).unwrap();
                        }
                        _ => {}
                    }
                }
                let before = session.status();
                session.observe(extra.clone(), vec![]).unwrap();
                (before, session.status())
            })
            .collect();

        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let survivors = Journal::read_lenient(&path).map_or(0, |(r, _)| r.len());
            let first = TenantSession::resume(&path, &lookup, true);
            if cut < register_len {
                assert!(
                    matches!(first, Err(ServeError::Journal(_))),
                    "cut {cut} inside the register record: {first:?}"
                );
                continue;
            }
            let mut first = first
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"))
                .expect("no drain record");
            let (before, after) = &reference[survivors - 1];
            assert_eq!(&first.status(), before, "cut {cut}: first resume");
            first.observe(extra.clone(), vec![]).unwrap();
            assert_eq!(&first.status(), after, "cut {cut}: observe after resume");
            drop(first);
            let second = TenantSession::resume(&path, &lookup, true)
                .unwrap_or_else(|e| panic!("cut {cut}: second resume: {e}"))
                .expect("no drain record");
            assert_eq!(&second.status(), after, "cut {cut}: second resume");
        }
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&reference_dir).unwrap();
    }

    #[test]
    fn warm_sessions_count_warm_replans_and_cold_sessions_do_not() {
        let dir = tmp_dir("warm-count");
        let mut warm = register(&dir, "acme");
        let mut cold = TenantSession::register(
            &dir,
            "globex",
            "lyon30",
            platform(),
            &services2(),
            vec![2.0, 0.3],
            &SessionConfig {
                demand_alpha: 1.0,
                ..SessionConfig::default()
            },
            None,
            false,
        )
        .expect("registration plans and claims cleanly");
        // Force replan rounds; steady demand keeps the engine warm.
        for _ in 0..3 {
            warm.migrate(vec![2.0, 0.3]).unwrap();
            cold.migrate(vec![2.0, 0.3]).unwrap();
        }
        assert!(
            warm.status().warm_replans > 0,
            "warm mode reuses the engine"
        );
        assert_eq!(cold.status().warm_replans, 0, "ablation mode stays cold");
        assert_eq!(
            warm.status().plan.rho.to_bits(),
            cold.status().plan.rho.to_bits(),
            "warm replanning must not change the answer"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
