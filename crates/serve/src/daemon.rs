//! The resident planning daemon.
//!
//! [`Daemon::start`] binds a TCP listener and serves the line-delimited
//! JSON protocol (`docs/WIRE_API.md`) with one thread per connection —
//! plain blocking sockets with short read timeouts, no async runtime.
//! The daemon hosts:
//!
//! - a set of **shared, read-only platform catalogs** (`Arc<Platform>`,
//!   named at startup), and
//! - one [`TenantSession`] per registered tenant, each behind its own
//!   mutex, so tenants proceed concurrently and only requests for the
//!   *same* tenant serialize.
//!
//! At startup the daemon scans its journal directory and resumes every
//! live journal by deterministic replay (see
//! [`TenantSession::resume`]); journals that fail to resume are
//! reported per-tenant in the `status` frame instead of aborting the
//! whole daemon — one corrupt tenant must not take down the others.

use crate::cache::{CacheLookup, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use crate::error::ServeError;
use crate::json::Json;
use crate::session::{validate_tenant_id, TenantSession};
use crate::wire::{
    demand_field, err_response, executions_field, f64_array, objective_field, ok_response,
    services_field, str_field, DaemonStatus, PlanSummary, Request, SessionConfig,
};
use adept_core::model::mix::MixReport;
use adept_core::planner::{MixObjective, MixPlan, MixPlanner, OnlinePlanner};
use adept_platform::Platform;
use adept_workload::{MixDemand, ServiceMix};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often blocked reads and the accept loop re-check the shutdown
/// flag.
const POLL: Duration = Duration::from_millis(50);

/// Longest request line, newline excluded, that a connection may send.
/// A client past it gets one `bad-frame` answer and the connection is
/// closed, so a line with no end cannot grow the daemon's memory.
/// Normal requests are a few KiB.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Daemon startup configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Directory holding one `<tenant>.jsonl` journal per tenant.
    pub journal_dir: PathBuf,
    /// Named platform catalogs served to every tenant.
    pub platforms: Vec<(String, Platform)>,
    /// Thread warm incremental-engine state across each tenant's replan
    /// rounds (default `true`). An ablation flag: answers are
    /// bit-identical either way, only replan latency differs.
    pub warm_start: bool,
    /// Entry capacity of the shared cross-tenant plan cache
    /// ([`DEFAULT_PLAN_CACHE_CAPACITY`] by default); `0` disables
    /// caching. Memory grows as `capacity × O(plan size)`.
    pub plan_cache_capacity: usize,
}

impl ServeConfig {
    /// A config with the performance defaults: warm-started replanning
    /// on, a [`DEFAULT_PLAN_CACHE_CAPACITY`]-entry plan cache.
    pub fn new(
        addr: impl Into<String>,
        journal_dir: impl Into<PathBuf>,
        platforms: Vec<(String, Platform)>,
    ) -> ServeConfig {
        ServeConfig {
            addr: addr.into(),
            journal_dir: journal_dir.into(),
            platforms,
            warm_start: true,
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
        }
    }
}

/// One tenant slot: `None` while a drain is underway, so concurrent
/// requests observe a clean "unknown tenant" instead of racing the
/// teardown.
type Slot = Arc<Mutex<Option<TenantSession>>>;

struct SharedState {
    platforms: BTreeMap<String, Arc<Platform>>,
    journal_dir: PathBuf,
    tenants: RwLock<BTreeMap<String, Slot>>,
    /// `(tenant, error code, message)` for journals that failed to
    /// resume at startup.
    resume_errors: Mutex<Vec<(String, String, String)>>,
    /// The shared cross-tenant plan cache (its own internal lock).
    cache: PlanCache,
    /// Warm-replanning ablation flag, threaded into every session.
    warm_start: bool,
    shutdown: AtomicBool,
}

/// The daemon entry point; see [`Daemon::start`].
pub struct Daemon;

/// A running daemon. Dropping the handle stops it.
pub struct DaemonHandle {
    addr: SocketAddr,
    state: Arc<SharedState>,
    accept: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Daemon {
    /// Boots the daemon: resumes every journal in
    /// `config.journal_dir`, binds the listener, and starts accepting
    /// connections. Returns immediately; the daemon runs on background
    /// threads until [`DaemonHandle::stop`] (or drop).
    ///
    /// # Errors
    /// [`ServeError::Io`] when the journal directory or listener
    /// cannot be set up, [`ServeError::BadRequest`] on an empty
    /// platform catalog.
    pub fn start(config: ServeConfig) -> Result<DaemonHandle, ServeError> {
        if config.platforms.is_empty() {
            return Err(ServeError::BadRequest(
                "a daemon needs at least one platform catalog".into(),
            ));
        }
        std::fs::create_dir_all(&config.journal_dir)?;
        let platforms: BTreeMap<String, Arc<Platform>> = config
            .platforms
            .into_iter()
            .map(|(name, p)| (name, Arc::new(p)))
            .collect();

        let state = Arc::new(SharedState {
            platforms,
            journal_dir: config.journal_dir,
            tenants: RwLock::named("serve.tenants", BTreeMap::new()),
            resume_errors: Mutex::named("serve.resume-errors", Vec::new()),
            cache: PlanCache::new(config.plan_cache_capacity),
            warm_start: config.warm_start,
            shutdown: AtomicBool::new(false),
        });
        resume_all(&state);

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> =
            Arc::new(Mutex::named("serve.workers", Vec::new()));
        let accept = {
            let state = Arc::clone(&state);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || accept_loop(&listener, &state, &workers))
        };
        Ok(DaemonHandle {
            addr,
            state,
            accept: Some(accept),
            workers,
        })
    }
}

impl DaemonHandle {
    /// The bound address (with the actual port when `:0` was asked).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Journals that failed to resume at startup, as
    /// `(tenant, error code, message)`.
    pub fn resume_errors(&self) -> Vec<(String, String, String)> {
        self.state.resume_errors.lock().clone()
    }

    /// Stops the daemon: open connections are dropped (within one poll
    /// interval), every thread is joined, journals stay on disk for the
    /// next start to resume. In-flight requests finish first — the
    /// journal write-ahead discipline means even a hard kill here loses
    /// at most unacknowledged work.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Resumes every `*.jsonl` journal in the journal directory.
fn resume_all(state: &Arc<SharedState>) {
    let Ok(entries) = std::fs::read_dir(&state.journal_dir) else {
        return;
    };
    let lookup = |name: &str| state.platforms.get(name).cloned();
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    for path in paths {
        let tenant = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        // Replay depends only on the journal — never on the plan cache.
        match TenantSession::resume(&path, &lookup, state.warm_start) {
            Ok(Some(session)) => {
                state.tenants.write().insert(
                    tenant,
                    Arc::new(Mutex::named("serve.tenant-slot", Some(session))),
                );
            }
            Ok(None) => {
                // The journal ends in a drain record: the previous
                // daemon died between the record and the archive
                // rename. Finish the rename now.
                let mut archived = path.clone().into_os_string();
                archived.push(".drained");
                let _ = std::fs::rename(&path, archived);
            }
            Err(e) => {
                state.resume_errors.lock().push((
                    tenant,
                    e.code().as_str().to_string(),
                    e.to_string(),
                ));
            }
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<SharedState>,
    workers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let state = Arc::clone(state);
                let handle = std::thread::spawn(move || serve_connection(stream, &state));
                let mut workers = workers.lock();
                // A finished connection's thread keeps its stack mapped
                // until it is joined; joining it now returns at once.
                let mut i = 0;
                while i < workers.len() {
                    if workers[i].is_finished() {
                        let _ = workers.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                workers.push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => break,
        }
    }
}

/// One connection: read lines, dispatch, answer — until EOF, a socket
/// error, a line longer than [`MAX_FRAME_BYTES`], or daemon shutdown.
fn serve_connection(mut stream: TcpStream, state: &Arc<SharedState>) {
    // Request/response over small frames: Nagle + delayed ACK would add
    // ~40ms per round trip, so disable coalescing outright.
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // EOF
            Ok(n) => {
                // Earlier reads left no newline in `buf`, so only the new
                // bytes are searched: a long line costs linear time.
                let mut unscanned = buf.len();
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    let newline = buf[unscanned..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|i| unscanned + i);
                    if newline.unwrap_or(buf.len()) > MAX_FRAME_BYTES {
                        // The rest of the line cannot be told apart from
                        // the next frame, so answer once and close. The
                        // close resets the connection over the bytes left
                        // unread; shutting the write half first delivers
                        // the answer and an end of stream ahead of it.
                        let e = ServeError::BadFrame(format!(
                            "request line longer than {MAX_FRAME_BYTES} bytes"
                        ));
                        if write_frame(&mut stream, err_response(0, &e)).is_ok() {
                            let _ = stream.shutdown(std::net::Shutdown::Write);
                        }
                        return;
                    }
                    let Some(pos) = newline else { break };
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    unscanned = 0;
                    let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    if write_frame(&mut stream, answer(&line, state)).is_err() {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Writes one response line and flushes it.
fn write_frame(stream: &mut TcpStream, mut response: String) -> std::io::Result<()> {
    response.push('\n');
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Parses and dispatches one request line into one response line.
fn answer(line: &str, state: &Arc<SharedState>) -> String {
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => return err_response(0, &e),
    };
    match dispatch(&request, state) {
        Ok(result) => ok_response(request.id, result),
        Err(e) => err_response(request.id, &e),
    }
}

fn dispatch(request: &Request, state: &Arc<SharedState>) -> Result<Json, ServeError> {
    let p = &request.params;
    match request.method.as_str() {
        "status" => Ok(daemon_status(state).to_json()),
        "plan" => plan(p, state),
        "register" => register(p, state),
        "observe" => {
            let rates = f64_array(p, "rates")?;
            let executions = executions_field(p)?;
            with_session(p, state, |s| {
                Ok(s.observe(rates.clone(), executions.clone())?.to_json())
            })
        }
        "replan" => {
            let demand = demand_field(p, "demand")?;
            with_session(p, state, |s| Ok(s.preview(demand.clone())?.to_json()))
        }
        "migrate" => {
            let demand = demand_field(p, "demand")?;
            with_session(p, state, |s| {
                let migration = s.migrate(demand.clone())?;
                Ok(Json::obj(vec![
                    ("migrated", Json::Bool(migration.is_some())),
                    ("migration", migration.map_or(Json::Null, |m| m.to_json())),
                ]))
            })
        }
        "drain" => drain(p, state),
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            Ok(Json::obj(vec![("stopping", Json::Bool(true))]))
        }
        other => Err(ServeError::UnknownMethod(other.to_string())),
    }
}

/// Runs `f` on the named tenant's session, holding only that tenant's
/// lock.
fn with_session<T>(
    params: &Json,
    state: &Arc<SharedState>,
    f: impl FnOnce(&mut TenantSession) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let tenant = str_field(params, "tenant")?;
    let slot = state
        .tenants
        .read()
        .get(&tenant)
        .cloned()
        .ok_or_else(|| ServeError::UnknownTenant(tenant.clone()))?;
    let mut guard = slot.lock();
    let session = guard.as_mut().ok_or(ServeError::UnknownTenant(tenant))?;
    f(session)
}

/// The stateless `plan` frame: evaluate a mix on a catalog platform
/// without creating a session.
fn plan(params: &Json, state: &Arc<SharedState>) -> Result<Json, ServeError> {
    let platform_name = str_field(params, "platform")?;
    let platform = state
        .platforms
        .get(&platform_name)
        .ok_or(ServeError::UnknownPlatform(platform_name))?;
    let services = services_field(params, "services")?;
    let mix = crate::session::build_mix(&services)?;
    let demand = match params.get("demand") {
        None => MixDemand::unbounded(mix.len()),
        Some(_) => {
            let rates = demand_field(params, "demand")?;
            let d = MixDemand::try_targets(rates)?;
            if d.len() != mix.len() {
                return Err(ServeError::BadRequest(format!(
                    "demand covers {} services, mix declares {}",
                    d.len(),
                    mix.len()
                )));
            }
            d
        }
    };
    let objective = objective_field(params)?;
    let got = plan_with_cache(state, platform, &mix, objective, &demand)?;
    let mut per_service = vec![0u64; mix.len()];
    for &service in got.assignment.service_of.values() {
        if let Some(n) = per_service.get_mut(service) {
            *n += 1;
        }
    }
    let summary = PlanSummary {
        rho: got.report.rho,
        rho_service: got.report.rho_service.clone(),
        servers: got.plan.server_count() as u64,
        agents: got.plan.agent_count() as u64,
        per_service_servers: per_service,
    };
    Ok(Json::obj(vec![
        ("plan", summary.to_json()),
        ("objective_value", Json::num(got.objective_value)),
    ]))
}

/// Answers a stateless planning question through the shared cache.
///
/// Three outcomes, in preference order:
///
/// 1. **Exact hit** — the cache holds the canonical cold answer for
///    bit-identical inputs; return it (deterministic planner ⇒ equal to
///    recomputing).
/// 2. **Near hit** — a neighboring entry seeds an unbounded-budget
///    revision toward the queried demand: the search is accelerated,
///    and the revised answer is *not* inserted (only canonical cold
///    results populate the cache). A revision failure falls back cold.
/// 3. **Miss** — plan cold and insert the result for the next caller.
fn plan_with_cache(
    state: &Arc<SharedState>,
    platform: &Arc<Platform>,
    mix: &ServiceMix,
    objective: MixObjective,
    demand: &MixDemand,
) -> Result<MixPlan, ServeError> {
    let rates: Vec<f64> = (0..demand.len()).map(|j| demand.rate(j)).collect();
    let cold = |state: &Arc<SharedState>| -> Result<MixPlan, ServeError> {
        let got = MixPlanner::with_objective(objective).plan_mix(platform, mix, demand)?;
        state.cache.insert(platform, mix, objective, &rates, &got);
        Ok(got)
    };
    match state.cache.lookup(platform, mix, objective, &rates, true) {
        CacheLookup::Exact(hit) => Ok(*hit),
        CacheLookup::Near(seed) => {
            let reviser = OnlinePlanner {
                max_changes: usize::MAX,
                ..OnlinePlanner::default()
            };
            match reviser.replan_mix(platform, &seed.plan, mix, &seed.assignment, demand) {
                Ok(replan) => Ok(MixPlan {
                    objective_value: objective_value(objective, mix, &replan.report),
                    plan: replan.plan,
                    assignment: replan.assignment,
                    report: replan.report,
                }),
                Err(_) => cold(state),
            }
        }
        CacheLookup::Miss => cold(state),
    }
}

/// The serve-side mirror of the planner's objective scoring, computed
/// from a [`MixReport`] (for near-tier revisions, whose reports come
/// from the reviser rather than [`MixPlanner`]).
fn objective_value(objective: MixObjective, mix: &ServiceMix, report: &MixReport) -> f64 {
    match objective {
        MixObjective::WeightedMin => report.rho,
        MixObjective::WeightedSum => (0..mix.len())
            .filter(|&j| mix.share(j) > 0.0)
            .map(|j| mix.share(j) * report.rho_sched.min(report.rho_service[j]))
            .sum(),
    }
}

fn register(params: &Json, state: &Arc<SharedState>) -> Result<Json, ServeError> {
    let tenant = str_field(params, "tenant")?;
    validate_tenant_id(&tenant)?;
    let platform_name = str_field(params, "platform")?;
    let platform = state
        .platforms
        .get(&platform_name)
        .cloned()
        .ok_or(ServeError::UnknownPlatform(platform_name.clone()))?;
    let services = services_field(params, "services")?;
    let demand = demand_field(params, "demand")?;
    let config = match params.get("config") {
        None => SessionConfig::default(),
        Some(c) => SessionConfig::from_json(c)?,
    };

    // Claim the tenant id in the live map first (an atomic reservation:
    // two concurrent registers race on this lock, not on the journal
    // file), then build the session.
    let slot: Slot = Arc::new(Mutex::named("serve.tenant-slot", None));
    {
        let mut tenants = state.tenants.write();
        if tenants.contains_key(&tenant) {
            return Err(ServeError::TenantExists(tenant));
        }
        tenants.insert(tenant.clone(), Arc::clone(&slot));
    }
    let mut guard = slot.lock();
    match TenantSession::register(
        &state.journal_dir,
        &tenant,
        &platform_name,
        platform,
        &services,
        demand,
        &config,
        Some(&state.cache),
        state.warm_start,
    ) {
        Ok(session) => {
            let status = session.status();
            *guard = Some(session);
            Ok(status.to_json())
        }
        Err(e) => {
            // Roll the reservation back so the id is claimable again.
            drop(guard);
            state.tenants.write().remove(&tenant);
            Err(e)
        }
    }
}

fn drain(params: &Json, state: &Arc<SharedState>) -> Result<Json, ServeError> {
    let tenant = str_field(params, "tenant")?;
    let slot = state
        .tenants
        .read()
        .get(&tenant)
        .cloned()
        .ok_or_else(|| ServeError::UnknownTenant(tenant.clone()))?;
    let session = slot
        .lock()
        .take()
        .ok_or_else(|| ServeError::UnknownTenant(tenant.clone()))?;
    // Concurrent requests now see `None` (unknown tenant); safe to
    // archive and unlist.
    let archived = session.drain()?;
    state.tenants.write().remove(&tenant);
    Ok(Json::obj(vec![
        ("tenant", Json::str(tenant)),
        ("journal", Json::str(archived.display().to_string())),
    ]))
}

fn daemon_status(state: &Arc<SharedState>) -> DaemonStatus {
    let slots: Vec<Slot> = state.tenants.read().values().cloned().collect();
    let mut tenants = Vec::new();
    for slot in slots {
        if let Some(session) = slot.lock().as_ref() {
            tenants.push(session.status());
        }
    }
    // Hoisted out of the struct literal: a temporary guard inside the
    // literal would live to the end of the whole expression, holding
    // `serve.resume-errors` across the cache-lock acquisition in
    // `stats()` for no reason.
    let resume_errors = state.resume_errors.lock().clone();
    DaemonStatus {
        platforms: state.platforms.keys().cloned().collect(),
        tenants,
        resume_errors,
        cache: state.cache.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use adept_platform::generator::lyon_cluster;
    use std::time::Instant;

    #[test]
    fn finished_connection_threads_are_released() {
        let dir = std::env::temp_dir().join(format!("adept-daemon-workers-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(ServeConfig::new(
            "127.0.0.1:0",
            dir.clone(),
            vec![("lyon4".into(), lyon_cluster(4))],
        ))
        .expect("daemon starts");
        // One connection at a time: each closes, and its thread ends,
        // before the next one opens.
        for _ in 0..32 {
            let mut client = ServeClient::connect(daemon.addr()).expect("daemon is listening");
            client.status().expect("status");
            drop(client);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !daemon.workers.lock().iter().all(JoinHandle::is_finished) {
                assert!(
                    Instant::now() < deadline,
                    "a closed connection's thread kept running"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let mut client = ServeClient::connect(daemon.addr()).expect("daemon is listening");
        client.status().expect("status");
        let held = daemon.workers.lock().len();
        assert!(
            held <= 4,
            "{held} connection threads held after 33 connections"
        );
        drop(client);
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two weights of `1e308` are each finite but sum to infinity. Before
    /// the mix rescaled them, every share came out 0: the stateless `plan`
    /// and the `register` both panicked in the planner, the client saw a
    /// dropped connection, and the register left its tenant id reserved.
    #[test]
    fn mix_weights_summing_past_f64_max_plan_like_equal_weights() {
        use crate::wire::ServiceDef;
        let dir = std::env::temp_dir().join(format!("adept-daemon-huge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(ServeConfig::new(
            "127.0.0.1:0",
            dir.clone(),
            vec![("lyon20".into(), lyon_cluster(20))],
        ))
        .expect("daemon starts");
        let services = |weight: f64| -> Vec<ServiceDef> {
            [("small", 59.6), ("large", 1000.0)]
                .into_iter()
                .map(|(name, wapp_mflop)| ServiceDef {
                    name: name.into(),
                    wapp_mflop,
                    weight,
                })
                .collect()
        };
        let mut client = ServeClient::connect(daemon.addr()).expect("daemon is listening");
        // The huge weights first, so they plan cold rather than hit the
        // equal weights' cache entry.
        let (huge, huge_objective) = client
            .plan("lyon20", &services(1e308), Some(&[0.0, 0.0]))
            .expect("huge weights plan");
        let (equal, equal_objective) = client
            .plan("lyon20", &services(1.0), Some(&[0.0, 0.0]))
            .expect("equal weights plan");
        assert_eq!(huge, equal);
        assert_eq!(huge_objective.to_bits(), equal_objective.to_bits());
        let status = client
            .register(
                "huge",
                "lyon20",
                &services(1e308),
                &[0.0, 0.0],
                &SessionConfig::default(),
            )
            .expect("huge weights register");
        assert_eq!(status.plan, equal);
        drop(client);
        daemon.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
