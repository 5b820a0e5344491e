//! The wire protocol: typed request/response frames over line-delimited
//! JSON.
//!
//! One request per line, one response per line, in order. A request is
//! `{"id":N,"method":"...","params":{...}}`; the response echoes the id
//! as `{"id":N,"ok":true,"result":{...}}` or
//! `{"id":N,"ok":false,"error":{"code":"...","message":"..."}}`. Every
//! frame, field, and error code is documented (with worked examples) in
//! `docs/WIRE_API.md`; the doc and this module are kept honest by the
//! round-trip tests below and the end-to-end daemon tests.
//!
//! The shape follows the PURAIFY deployment-planner REST surface
//! (SNIPPETS.md §2) translated to a socket: `plan` is the stateless
//! plan/validate call, `register`/`observe`/`replan`/`migrate`/`drain`
//! are the tenant lifecycle, `status` is the operator's read side.

use crate::cache::CacheStats;
use crate::error::{ErrorCode, ServeError};
use crate::json::Json;
use adept_control::controller::ExecutionSample;
use adept_core::planner::MixObjective;
use adept_platform::{MflopRate, Seconds};

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (0 when
    /// absent).
    pub id: u64,
    /// Method name (`plan`, `register`, `observe`, ...).
    pub method: String,
    /// Method parameters (an object; `{}` when absent).
    pub params: Json,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    /// [`ServeError::BadFrame`] when the line is not a JSON object with
    /// a string `method`.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = Json::parse(line).map_err(ServeError::BadFrame)?;
        let method = v
            .get("method")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::BadFrame("frame has no string \"method\"".into()))?
            .to_string();
        let id = v.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let params = v.get("params").cloned().unwrap_or(Json::Obj(Vec::new()));
        Ok(Request { id, method, params })
    }

    /// Encodes the frame as one line (no trailing newline).
    pub fn encode(&self) -> String {
        Json::obj(vec![
            ("id", Json::Num(self.id as f64)),
            ("method", Json::str(&self.method)),
            ("params", self.params.clone()),
        ])
        .to_string()
    }
}

/// Encodes a success response.
pub fn ok_response(id: u64, result: Json) -> String {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(true)),
        ("result", result),
    ])
    .to_string()
}

/// Encodes an error response from a [`ServeError`].
pub fn err_response(id: u64, error: &ServeError) -> String {
    Json::obj(vec![
        ("id", Json::Num(id as f64)),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("code", Json::str(error.code().as_str())),
                ("message", Json::str(error.to_string())),
            ]),
        ),
    ])
    .to_string()
}

// ---------------------------------------------------------------------------
// Field-extraction helpers (shared by daemon dispatch and client decode).
// ---------------------------------------------------------------------------

/// A required field of a params object.
pub(crate) fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ServeError> {
    obj.get(key)
        .ok_or_else(|| ServeError::BadRequest(format!("missing field {key:?}")))
}

pub(crate) fn str_field(obj: &Json, key: &str) -> Result<String, ServeError> {
    field(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ServeError::BadRequest(format!("field {key:?} must be a string")))
}

pub(crate) fn f64_field(obj: &Json, key: &str) -> Result<f64, ServeError> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| ServeError::BadRequest(format!("field {key:?} must be a number")))
}

pub(crate) fn u64_field(obj: &Json, key: &str) -> Result<u64, ServeError> {
    let v = f64_field(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(ServeError::BadRequest(format!(
            "field {key:?} must be a non-negative integer"
        )));
    }
    Ok(v as u64)
}

/// A demand vector: JSON numbers, with `null` meaning *unbounded*
/// (`f64::INFINITY`). Finite validation (NaN/negative rejection) is the
/// job of [`MixDemand::try_targets`](adept_workload::MixDemand), so the
/// typed [`DemandError`](adept_workload::DemandError) surfaces.
pub(crate) fn demand_field(obj: &Json, key: &str) -> Result<Vec<f64>, ServeError> {
    let arr = field(obj, key)?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest(format!("field {key:?} must be an array")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| match v {
            Json::Null => Ok(f64::INFINITY),
            Json::Num(x) => Ok(*x),
            _ => Err(ServeError::BadRequest(format!(
                "field {key:?}[{i}] must be a number or null"
            ))),
        })
        .collect()
}

/// Encodes a demand vector (`INFINITY` → `null`).
pub(crate) fn demand_json(rates: &[f64]) -> Json {
    Json::Arr(rates.iter().map(|&r| Json::num(r)).collect())
}

pub(crate) fn f64_array(obj: &Json, key: &str) -> Result<Vec<f64>, ServeError> {
    let arr = field(obj, key)?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest(format!("field {key:?} must be an array")))?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_f64().ok_or_else(|| {
                ServeError::BadRequest(format!("field {key:?}[{i}] must be a number"))
            })
        })
        .collect()
}

pub(crate) fn num_array_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::num(v)).collect())
}

// ---------------------------------------------------------------------------
// Protocol data types.
// ---------------------------------------------------------------------------

/// One service of a tenant's mix, as declared over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDef {
    /// Service name (reports, XML output).
    pub name: String,
    /// `Wapp`: computation per request, MFlop.
    pub wapp_mflop: f64,
    /// Mix weight (normalized to request shares server-side).
    pub weight: f64,
}

impl ServiceDef {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("wapp_mflop", Json::num(self.wapp_mflop)),
            ("weight", Json::num(self.weight)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<ServiceDef, ServeError> {
        Ok(ServiceDef {
            name: str_field(v, "name")?,
            wapp_mflop: f64_field(v, "wapp_mflop")?,
            weight: f64_field(v, "weight")?,
        })
    }
}

pub(crate) fn services_field(obj: &Json, key: &str) -> Result<Vec<ServiceDef>, ServeError> {
    let arr = field(obj, key)?
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest(format!("field {key:?} must be an array")))?;
    if arr.is_empty() {
        return Err(ServeError::BadRequest(format!(
            "field {key:?} must name at least one service"
        )));
    }
    arr.iter().map(ServiceDef::from_json).collect()
}

pub(crate) fn services_json(services: &[ServiceDef]) -> Json {
    Json::Arr(services.iter().map(ServiceDef::to_json).collect())
}

/// Parses the optional `objective` field (`"weighted-min"` default).
pub(crate) fn objective_field(obj: &Json) -> Result<MixObjective, ServeError> {
    match obj.get("objective").and_then(Json::as_str) {
        None => Ok(MixObjective::WeightedMin),
        Some("weighted-min") => Ok(MixObjective::WeightedMin),
        Some("weighted-sum") => Ok(MixObjective::WeightedSum),
        Some(other) => Err(ServeError::BadRequest(format!(
            "unknown objective {other:?} (want \"weighted-min\" or \"weighted-sum\")"
        ))),
    }
}

/// Per-tenant session policy carried in `register` frames and journaled
/// for resume. Every field has a default, so `{}` is a valid config.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Forecast-drift trigger threshold (relative).
    pub drift_threshold: f64,
    /// Hysteresis: consecutive firing ticks before a round runs.
    pub min_sustained: u64,
    /// Hysteresis: quiet ticks after a round.
    pub cooldown_ticks: u64,
    /// Demand-forecaster EMA factor, `(0, 1]`.
    pub demand_alpha: f64,
    /// Execution-estimator EMA factor, `(0, 1]`.
    pub wapp_alpha: f64,
    /// Demand multiplier when sizing revisions.
    pub headroom: f64,
    /// Disruption budget per revision round (node-level changes).
    pub max_changes: u64,
    /// GoDiet launch failure-injection probability, `[0, 1)`.
    pub failure_probability: f64,
    /// Seed of the deterministic failure injection.
    pub failure_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            drift_threshold: 0.2,
            min_sustained: 2,
            cooldown_ticks: 2,
            demand_alpha: 1.0,
            wapp_alpha: 0.3,
            headroom: 1.0,
            max_changes: 20,
            failure_probability: 0.0,
            failure_seed: 0,
        }
    }
}

impl SessionConfig {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("drift_threshold", Json::num(self.drift_threshold)),
            ("min_sustained", Json::num(self.min_sustained as f64)),
            ("cooldown_ticks", Json::num(self.cooldown_ticks as f64)),
            ("demand_alpha", Json::num(self.demand_alpha)),
            ("wapp_alpha", Json::num(self.wapp_alpha)),
            ("headroom", Json::num(self.headroom)),
            ("max_changes", Json::num(self.max_changes as f64)),
            ("failure_probability", Json::num(self.failure_probability)),
            ("failure_seed", Json::num(self.failure_seed as f64)),
        ])
    }

    /// Parses a config object; absent fields keep their defaults.
    pub(crate) fn from_json(v: &Json) -> Result<SessionConfig, ServeError> {
        let d = SessionConfig::default();
        let num = |key: &str, default: f64| -> Result<f64, ServeError> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j.as_f64().ok_or_else(|| {
                    ServeError::BadRequest(format!("config field {key:?} must be a number"))
                }),
            }
        };
        // Integer settings take the wire's integer rule: a negative or
        // fractional value is refused, 2⁶⁴ or more saturates.
        let int = |key: &str, default: u64| match v.get(key) {
            None => Ok(default),
            Some(_) => u64_field(v, key),
        };
        let cfg = SessionConfig {
            drift_threshold: num("drift_threshold", d.drift_threshold)?,
            min_sustained: int("min_sustained", d.min_sustained)?,
            cooldown_ticks: int("cooldown_ticks", d.cooldown_ticks)?,
            demand_alpha: num("demand_alpha", d.demand_alpha)?,
            wapp_alpha: num("wapp_alpha", d.wapp_alpha)?,
            headroom: num("headroom", d.headroom)?,
            max_changes: int("max_changes", d.max_changes)?,
            failure_probability: num("failure_probability", d.failure_probability)?,
            failure_seed: int("failure_seed", d.failure_seed)?,
        };
        if !(cfg.demand_alpha > 0.0 && cfg.demand_alpha <= 1.0) {
            return Err(ServeError::BadRequest(format!(
                "config field \"demand_alpha\" must be in (0, 1], got {}",
                cfg.demand_alpha
            )));
        }
        if !(cfg.wapp_alpha > 0.0 && cfg.wapp_alpha <= 1.0) {
            return Err(ServeError::BadRequest(format!(
                "config field \"wapp_alpha\" must be in (0, 1], got {}",
                cfg.wapp_alpha
            )));
        }
        if !(0.0..1.0).contains(&cfg.failure_probability) {
            return Err(ServeError::BadRequest(format!(
                "config field \"failure_probability\" must be in [0, 1), got {}",
                cfg.failure_probability
            )));
        }
        if !(cfg.drift_threshold.is_finite() && cfg.drift_threshold > 0.0) {
            return Err(ServeError::BadRequest(format!(
                "config field \"drift_threshold\" must be positive, got {}",
                cfg.drift_threshold
            )));
        }
        if !(cfg.headroom.is_finite() && cfg.headroom > 0.0) {
            return Err(ServeError::BadRequest(format!(
                "config field \"headroom\" must be positive, got {}",
                cfg.headroom
            )));
        }
        if cfg.max_changes == 0 {
            return Err(ServeError::BadRequest(
                "config field \"max_changes\" must be at least 1".into(),
            ));
        }
        Ok(cfg)
    }
}

/// Model evaluation of a (planned or running) deployment, as returned
/// by `plan`, `register`, and `status`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSummary {
    /// Completed-mix throughput (req/s).
    pub rho: f64,
    /// Per-service throughput (req/s).
    pub rho_service: Vec<f64>,
    /// Server count.
    pub servers: u64,
    /// Agent count.
    pub agents: u64,
    /// Servers assigned to each service.
    pub per_service_servers: Vec<u64>,
}

impl PlanSummary {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rho", Json::num(self.rho)),
            ("rho_service", num_array_json(&self.rho_service)),
            ("servers", Json::num(self.servers as f64)),
            ("agents", Json::num(self.agents as f64)),
            (
                "per_service_servers",
                Json::Arr(
                    self.per_service_servers
                        .iter()
                        .map(|&n| Json::num(n as f64))
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<PlanSummary, ServeError> {
        Ok(PlanSummary {
            rho: f64_field(v, "rho")?,
            rho_service: f64_array(v, "rho_service")?,
            servers: u64_field(v, "servers")?,
            agents: u64_field(v, "agents")?,
            per_service_servers: f64_array(v, "per_service_servers")?
                .into_iter()
                .map(|n| n as u64)
                .collect(),
        })
    }
}

/// One executed migration round, as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationSummary {
    /// 1-based migration number within the session.
    pub seq: u64,
    /// The tick at which it ran (0 for operator `migrate` rounds
    /// between ticks).
    pub tick: u64,
    /// Why the round fired.
    pub reason: String,
    /// Tree-level changes (added/removed/re-roled/reparented nodes).
    pub changes: u64,
    /// Servers reinstalled for another service.
    pub reassigned: u64,
    /// Failed launches healed by spare substitution.
    pub substitutions: u64,
    /// Stages of the migration script.
    pub stages: u64,
    /// Wall-clock makespan of the scripted migration (model time, s).
    pub makespan_s: f64,
    /// Servers after the migration.
    pub servers_after: u64,
    /// Model throughput after the migration (req/s).
    pub rho_after: f64,
}

impl MigrationSummary {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::num(self.seq as f64)),
            ("tick", Json::num(self.tick as f64)),
            ("reason", Json::str(&self.reason)),
            ("changes", Json::num(self.changes as f64)),
            ("reassigned", Json::num(self.reassigned as f64)),
            ("substitutions", Json::num(self.substitutions as f64)),
            ("stages", Json::num(self.stages as f64)),
            ("makespan_s", Json::num(self.makespan_s)),
            ("servers_after", Json::num(self.servers_after as f64)),
            ("rho_after", Json::num(self.rho_after)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<MigrationSummary, ServeError> {
        Ok(MigrationSummary {
            seq: u64_field(v, "seq")?,
            tick: u64_field(v, "tick")?,
            reason: str_field(v, "reason")?,
            changes: u64_field(v, "changes")?,
            reassigned: u64_field(v, "reassigned")?,
            substitutions: u64_field(v, "substitutions")?,
            stages: u64_field(v, "stages")?,
            makespan_s: f64_field(v, "makespan_s")?,
            servers_after: u64_field(v, "servers_after")?,
            rho_after: f64_field(v, "rho_after")?,
        })
    }
}

/// Result of one `observe` tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// The tenant's tick counter after this observation.
    pub tick: u64,
    /// The migration this tick executed, if any.
    pub migration: Option<MigrationSummary>,
    /// Corrupt samples dropped so far (session total).
    pub rejected_samples: u64,
    /// Per-service demand forecast after this observation.
    pub forecast: Vec<f64>,
}

impl TickOutcome {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tick", Json::num(self.tick as f64)),
            ("migrated", Json::Bool(self.migration.is_some())),
            (
                "migration",
                self.migration
                    .as_ref()
                    .map_or(Json::Null, MigrationSummary::to_json),
            ),
            ("rejected_samples", Json::num(self.rejected_samples as f64)),
            ("forecast", num_array_json(&self.forecast)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<TickOutcome, ServeError> {
        let migration = match field(v, "migration")? {
            Json::Null => None,
            m => Some(MigrationSummary::from_json(m)?),
        };
        Ok(TickOutcome {
            tick: u64_field(v, "tick")?,
            migration,
            rejected_samples: u64_field(v, "rejected_samples")?,
            forecast: f64_array(v, "forecast")?,
        })
    }
}

/// A dry-run revision: what `migrate` would do, without doing it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanPreview {
    /// Total disruptions (tree changes + reinstalls).
    pub changes: u64,
    /// Nodes added by the diff.
    pub added: u64,
    /// Nodes removed by the diff.
    pub removed: u64,
    /// Nodes whose role changes.
    pub reroled: u64,
    /// Nodes moved to a new parent (same role).
    pub reparented: u64,
    /// Servers reinstalled for another service.
    pub reassigned: u64,
    /// Model throughput of the revised deployment (req/s).
    pub rho: f64,
    /// Per-service throughput of the revised deployment.
    pub rho_service: Vec<f64>,
}

impl ReplanPreview {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("changes", Json::num(self.changes as f64)),
            ("added", Json::num(self.added as f64)),
            ("removed", Json::num(self.removed as f64)),
            ("reroled", Json::num(self.reroled as f64)),
            ("reparented", Json::num(self.reparented as f64)),
            ("reassigned", Json::num(self.reassigned as f64)),
            ("rho", Json::num(self.rho)),
            ("rho_service", num_array_json(&self.rho_service)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<ReplanPreview, ServeError> {
        Ok(ReplanPreview {
            changes: u64_field(v, "changes")?,
            added: u64_field(v, "added")?,
            removed: u64_field(v, "removed")?,
            reroled: u64_field(v, "reroled")?,
            reparented: u64_field(v, "reparented")?,
            reassigned: u64_field(v, "reassigned")?,
            rho: f64_field(v, "rho")?,
            rho_service: f64_array(v, "rho_service")?,
        })
    }
}

/// One tenant's live counters and model state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStatus {
    /// Tenant id.
    pub tenant: String,
    /// Catalog platform the session deploys on.
    pub platform: String,
    /// Ticks observed.
    pub ticks: u64,
    /// Replan rounds run (including no-op rounds).
    pub replans: u64,
    /// Replan rounds that started from warm incremental-engine state
    /// instead of a cold rebuild (0 when `warm_start` is off).
    pub warm_replans: u64,
    /// Migrations executed.
    pub migrations: u64,
    /// Corrupt samples dropped.
    pub rejected_samples: u64,
    /// Current deployment summary.
    pub plan: PlanSummary,
    /// Per-service demand forecast.
    pub forecast: Vec<f64>,
}

impl TenantStatus {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("tenant", Json::str(&self.tenant)),
            ("platform", Json::str(&self.platform)),
            ("ticks", Json::num(self.ticks as f64)),
            ("replans", Json::num(self.replans as f64)),
            ("warm_replans", Json::num(self.warm_replans as f64)),
            ("migrations", Json::num(self.migrations as f64)),
            ("rejected_samples", Json::num(self.rejected_samples as f64)),
            ("plan", self.plan.to_json()),
            ("forecast", num_array_json(&self.forecast)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<TenantStatus, ServeError> {
        Ok(TenantStatus {
            tenant: str_field(v, "tenant")?,
            platform: str_field(v, "platform")?,
            ticks: u64_field(v, "ticks")?,
            replans: u64_field(v, "replans")?,
            warm_replans: u64_field(v, "warm_replans")?,
            migrations: u64_field(v, "migrations")?,
            rejected_samples: u64_field(v, "rejected_samples")?,
            plan: PlanSummary::from_json(field(v, "plan")?)?,
            forecast: f64_array(v, "forecast")?,
        })
    }
}

/// The daemon-level `status` result.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonStatus {
    /// Names of the hosted (shared, read-only) platform catalogs.
    pub platforms: Vec<String>,
    /// Every live tenant session.
    pub tenants: Vec<TenantStatus>,
    /// Journals that failed to resume at daemon start:
    /// `(tenant, code, message)`.
    pub resume_errors: Vec<(String, String, String)>,
    /// Counters of the shared cross-tenant plan cache.
    pub cache: CacheStats,
}

impl CacheStats {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            ("capacity", Json::num(self.capacity as f64)),
            ("entries", Json::num(self.entries as f64)),
            ("exact_hits", Json::num(self.exact_hits as f64)),
            ("near_hits", Json::num(self.near_hits as f64)),
            ("misses", Json::num(self.misses as f64)),
            ("insertions", Json::num(self.insertions as f64)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<CacheStats, ServeError> {
        Ok(CacheStats {
            capacity: u64_field(v, "capacity")?,
            entries: u64_field(v, "entries")?,
            exact_hits: u64_field(v, "exact_hits")?,
            near_hits: u64_field(v, "near_hits")?,
            misses: u64_field(v, "misses")?,
            insertions: u64_field(v, "insertions")?,
        })
    }
}

impl DaemonStatus {
    pub(crate) fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "platforms",
                Json::Arr(self.platforms.iter().map(Json::str).collect()),
            ),
            (
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantStatus::to_json).collect()),
            ),
            (
                "resume_errors",
                Json::Arr(
                    self.resume_errors
                        .iter()
                        .map(|(tenant, code, message)| {
                            Json::obj(vec![
                                ("tenant", Json::str(tenant)),
                                ("code", Json::str(code)),
                                ("message", Json::str(message)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache", self.cache.to_json()),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<DaemonStatus, ServeError> {
        let platforms = field(v, "platforms")?
            .as_arr()
            .ok_or_else(|| ServeError::BadRequest("\"platforms\" must be an array".into()))?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ServeError::BadRequest("platform names are strings".into()))
            })
            .collect::<Result<_, _>>()?;
        let tenants = field(v, "tenants")?
            .as_arr()
            .ok_or_else(|| ServeError::BadRequest("\"tenants\" must be an array".into()))?
            .iter()
            .map(TenantStatus::from_json)
            .collect::<Result<_, _>>()?;
        let resume_errors = field(v, "resume_errors")?
            .as_arr()
            .ok_or_else(|| ServeError::BadRequest("\"resume_errors\" must be an array".into()))?
            .iter()
            .map(|e| {
                Ok((
                    str_field(e, "tenant")?,
                    str_field(e, "code")?,
                    str_field(e, "message")?,
                ))
            })
            .collect::<Result<_, ServeError>>()?;
        Ok(DaemonStatus {
            platforms,
            tenants,
            resume_errors,
            cache: CacheStats::from_json(field(v, "cache")?)?,
        })
    }
}

/// Parses the optional `executions` array of an `observe` frame.
pub(crate) fn executions_field(obj: &Json) -> Result<Vec<ExecutionSample>, ServeError> {
    let Some(v) = obj.get("executions") else {
        return Ok(Vec::new());
    };
    let arr = v
        .as_arr()
        .ok_or_else(|| ServeError::BadRequest("field \"executions\" must be an array".into()))?;
    arr.iter()
        .map(|e| {
            Ok(ExecutionSample {
                service: u64_field(e, "service")? as usize,
                duration: Seconds(f64_field(e, "duration_s")?),
                power: MflopRate(f64_field(e, "power_mflops")?),
            })
        })
        .collect()
}

/// Encodes execution samples for a frame or journal record.
pub(crate) fn executions_json(executions: &[ExecutionSample]) -> Json {
    Json::Arr(
        executions
            .iter()
            .map(|e| {
                Json::obj(vec![
                    ("service", Json::num(e.service as f64)),
                    ("duration_s", Json::num(e.duration.value())),
                    ("power_mflops", Json::num(e.power.value())),
                ])
            })
            .collect(),
    )
}

/// A decoded response frame: the echoed request id, and either the
/// `result` payload or the error's `(code, message)`.
pub type DecodedResponse = (u64, Result<Json, (ErrorCode, String)>);

/// Decodes a raw response line into `(id, Result<result, (code, message)>)`.
///
/// # Errors
/// [`ServeError::BadFrame`] when the line is not a response frame.
pub fn decode_response(line: &str) -> Result<DecodedResponse, ServeError> {
    let v = Json::parse(line).map_err(ServeError::BadFrame)?;
    let id = v.get("id").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| ServeError::BadFrame("response has no boolean \"ok\"".into()))?;
    if ok {
        let result = v
            .get("result")
            .cloned()
            .ok_or_else(|| ServeError::BadFrame("ok response has no \"result\"".into()))?;
        Ok((id, Ok(result)))
    } else {
        let error = v
            .get("error")
            .ok_or_else(|| ServeError::BadFrame("error response has no \"error\"".into()))?;
        let code = error
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::from_wire)
            .unwrap_or(ErrorCode::BadFrame);
        let message = error
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        Ok((id, Err((code, message))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            id: 7,
            method: "observe".into(),
            params: Json::obj(vec![
                ("tenant", Json::str("t1")),
                ("rates", num_array_json(&[1.0, 0.5])),
            ]),
        };
        assert_eq!(Request::parse(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip() {
        let line = ok_response(3, Json::obj(vec![("rho", Json::num(12.5))]));
        let (id, result) = decode_response(&line).unwrap();
        assert_eq!(id, 3);
        assert_eq!(
            result.unwrap().get("rho").and_then(Json::as_f64),
            Some(12.5)
        );

        let line = err_response(4, &ServeError::UnknownTenant("t9".into()));
        let (id, result) = decode_response(&line).unwrap();
        assert_eq!(id, 4);
        let (code, message) = result.unwrap_err();
        assert_eq!(code, ErrorCode::UnknownTenant);
        assert!(message.contains("t9"));
    }

    #[test]
    fn demand_null_means_unbounded_both_ways() {
        let obj = Json::parse("{\"demand\":[1.5,null,0.0]}").unwrap();
        let demand = demand_field(&obj, "demand").unwrap();
        assert_eq!(demand, vec![1.5, f64::INFINITY, 0.0]);
        assert_eq!(demand_json(&demand).to_string(), "[1.5,null,0]");
    }

    #[test]
    fn session_config_defaults_and_validation() {
        let cfg = SessionConfig::from_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(cfg, SessionConfig::default());
        let back = SessionConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);
        for bad in [
            "{\"demand_alpha\":0}",
            "{\"wapp_alpha\":1.5}",
            "{\"failure_probability\":1.0}",
            "{\"drift_threshold\":-1}",
            "{\"max_changes\":0}",
            "{\"headroom\":\"lots\"}",
            "{\"min_sustained\":-1}",
            "{\"cooldown_ticks\":2.5}",
            "{\"failure_seed\":-7}",
            "{\"max_changes\":3.9}",
            "{\"max_changes\":\"3\"}",
        ] {
            let parsed = SessionConfig::from_json(&Json::parse(bad).unwrap());
            assert!(
                matches!(parsed, Err(ServeError::BadRequest(_))),
                "{bad} must be a bad request, got {parsed:?}"
            );
        }
        // Integers are taken as they are, and 2⁶⁴ or more saturates.
        let cfg = SessionConfig::from_json(
            &Json::parse(
                "{\"min_sustained\":0,\"cooldown_ticks\":1e20,\"max_changes\":3,\"failure_seed\":7}",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            (
                cfg.min_sustained,
                cfg.cooldown_ticks,
                cfg.max_changes,
                cfg.failure_seed
            ),
            (0, u64::MAX, 3, 7)
        );
    }

    #[test]
    fn summaries_roundtrip() {
        let m = MigrationSummary {
            seq: 2,
            tick: 14,
            reason: "forecast drift".into(),
            changes: 5,
            reassigned: 1,
            substitutions: 1,
            stages: 3,
            makespan_s: 1.5,
            servers_after: 18,
            rho_after: 22.25,
        };
        assert_eq!(MigrationSummary::from_json(&m.to_json()).unwrap(), m);

        let t = TickOutcome {
            tick: 14,
            migration: Some(m),
            rejected_samples: 0,
            forecast: vec![1.0, 0.5],
        };
        assert_eq!(TickOutcome::from_json(&t.to_json()).unwrap(), t);

        let p = PlanSummary {
            rho: 10.0,
            rho_service: vec![6.0, 4.0],
            servers: 12,
            agents: 2,
            per_service_servers: vec![7, 5],
        };
        assert_eq!(PlanSummary::from_json(&p.to_json()).unwrap(), p);

        let r = ReplanPreview {
            changes: 4,
            added: 2,
            removed: 0,
            reroled: 1,
            reparented: 0,
            reassigned: 1,
            rho: 11.0,
            rho_service: vec![6.0, 5.0],
        };
        assert_eq!(ReplanPreview::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn status_frames_roundtrip_counters() {
        let tenant = TenantStatus {
            tenant: "acme".into(),
            platform: "lyon30".into(),
            ticks: 34,
            replans: 9,
            warm_replans: 7,
            migrations: 2,
            rejected_samples: 1,
            plan: PlanSummary {
                rho: 10.0,
                rho_service: vec![6.0, 4.0],
                servers: 12,
                agents: 2,
                per_service_servers: vec![7, 5],
            },
            forecast: vec![1.0, 0.5],
        };
        assert_eq!(TenantStatus::from_json(&tenant.to_json()).unwrap(), tenant);

        let daemon = DaemonStatus {
            platforms: vec!["lyon30".into()],
            tenants: vec![tenant],
            resume_errors: vec![("stale".into(), "replay_divergence".into(), "rho".into())],
            cache: CacheStats {
                capacity: 64,
                entries: 3,
                exact_hits: 5,
                near_hits: 2,
                misses: 4,
                insertions: 4,
            },
        };
        assert_eq!(DaemonStatus::from_json(&daemon.to_json()).unwrap(), daemon);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(matches!(
            Request::parse("not json"),
            Err(ServeError::BadFrame(_))
        ));
        assert!(matches!(
            Request::parse("{\"id\":1}"),
            Err(ServeError::BadFrame(_))
        ));
        let obj = Json::parse("{\"demand\":[true]}").unwrap();
        assert!(matches!(
            demand_field(&obj, "demand"),
            Err(ServeError::BadRequest(_))
        ));
    }
}
