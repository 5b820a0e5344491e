//! `tenant-day`: the daemon's real life. Sixteen tenants `register` on
//! the catalog, two connections drive each through a day of ticks, and
//! then the daemon is restarted on the day's journals, again and again.
//!
//! Each metric is dominated by a different layer: the median tick by
//! transport, JSON and the journal (about 97% of ticks are quiet); the
//! 99th percentile by the reviser, GoDiet and the diff (the ticks that
//! migrate); a restart by the journal read and cold replanning. Every
//! `register` asks a question no one asked before, so this is the
//! workload on which the plan cache is bypassed.

use crate::gen::{self, Tenant, CATALOG, TICKS_PER_DAY};
use crate::report::{self, mean, median, ms, quantile, us, Outcome};
use crate::trace::{self, TimedRevise, Tracer};
use adept_control::{Controller, ControllerConfig, Hysteresis, Observations, TriggerPolicy};
use adept_core::planner::{MixPlanner, OnlinePlanner};
use adept_godiet::{GoDiet, MigrationScript};
use adept_platform::Platform;
use adept_serve::journal::Journal;
use adept_serve::wire::{decode_response, ok_response};
use adept_serve::{
    Daemon, DaemonHandle, Json, Record, Request, ServeClient, ServeConfig, TenantSession,
    TenantStatus,
};
use adept_workload::MixDemand;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Restarts on each day's journals.
const RESTARTS_PER_DAY: usize = 2;
/// A run serves at least this many days, so set-up and restart medians
/// have several samples even on a slow host.
const MIN_DAYS: usize = 3;

/// Behaviour counts of one day, summed over tenants. They repeat exactly
/// for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    migrations: u64,
    replans: u64,
    warm_replans: u64,
    cache_exact: u64,
    cache_near: u64,
    cache_misses: u64,
}

/// One served day.
struct Day {
    setup: Duration,
    register: Vec<Duration>,
    ticks: Vec<Duration>,
    day: Duration,
    restarts: Vec<Duration>,
    counts: Counts,
    /// Each tick's request frame and the `result` it got (kept only when
    /// tracing).
    frames: Vec<(String, Json)>,
    journal_bytes: u64,
}

/// The `observe` parameters, built exactly as `ServeClient::observe`
/// builds them.
fn observe_params(tenant: &str, rates: &[f64]) -> Json {
    Json::obj(vec![
        ("tenant", Json::str(tenant)),
        (
            "rates",
            Json::Arr(rates.iter().map(|&r| Json::num(r)).collect()),
        ),
        ("executions", Json::Arr(Vec::new())),
    ])
}

fn boot(dir: &Path, platform: Platform) -> Result<DaemonHandle, String> {
    Daemon::start(ServeConfig::new(
        "127.0.0.1:0",
        dir.to_path_buf(),
        vec![(CATALOG.to_string(), platform)],
    ))
    .map_err(|e| format!("daemon start: {e}"))
}

/// Opens `N` connections, then makes one round trip on each, so the
/// daemon has accepted every connection before anything is timed. The
/// daemon's accept loop polls every 50 ms, so this wait is nothing or a
/// whole poll depending on a race, not on work; it is timed nowhere.
fn connect<const N: usize>(daemon: &DaemonHandle) -> Result<[ServeClient; N], String> {
    let mut clients = Vec::with_capacity(N);
    for _ in 0..N {
        clients.push(ServeClient::connect(daemon.addr()).map_err(|e| e.to_string())?);
    }
    for c in &mut clients {
        c.status().map_err(|e| e.to_string())?;
    }
    Ok(clients
        .try_into()
        .unwrap_or_else(|_| unreachable!("exactly N clients were pushed")))
}

fn sorted_tenants(mut tenants: Vec<TenantStatus>) -> Vec<TenantStatus> {
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    tenants
}

/// Serves one day on a fresh daemon and restarts it on the journals.
/// Ticks go through `ServeClient::call`, the typed client's own round
/// trip, so a traced day can keep every response's `result`.
fn serve_day(
    tenants: &[Tenant],
    dir: &Path,
    tracer: &Tracer,
    keep_frames: bool,
    out: &mut Outcome,
) -> Result<Day, String> {
    // Set-up stops when the daemon is listening; see `connect` for why
    // accepting the connections is not part of it.
    let t0 = Instant::now();
    let platform = tracer.time("platform.generate", 0, gen::catalog);
    let daemon = boot(dir, platform.clone())?;
    let setup = t0.elapsed();
    let mut clients: [ServeClient; 2] = connect(&daemon)?;

    // Two connections, each owning every other tenant: register all of
    // them, then walk the day tick by tick.
    type Served = (
        Vec<Duration>,
        Vec<Duration>,
        Vec<(String, Json)>,
        Vec<String>,
        u64,
    );
    let day_start = Instant::now();
    let mut register = Vec::new();
    let mut ticks = Vec::new();
    let mut frames = Vec::new();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let mut day = Duration::ZERO;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let tracer = tracer.fork();
                let mine: Vec<&Tenant> = tenants.iter().skip(c).step_by(2).collect();
                scope.spawn(move || -> (Served, Tracer) {
                    let (mut reg, mut tick, mut frames, mut fails) =
                        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    let mut attempted = 0u64;
                    // The status round trip in `connect` used id 1.
                    let mut next_id = 2u64;
                    for t in &mine {
                        attempted += 1;
                        let t0 = Instant::now();
                        let r = tracer.time("e2e.register", next_id, || {
                            client.register(&t.id, CATALOG, &t.services, &t.demand, &t.config)
                        });
                        next_id += 1;
                        match r {
                            Ok(_) => reg.push(t0.elapsed()),
                            Err(e) => fails.push(format!("register {}: {e}", t.id)),
                        }
                    }
                    for tick_index in 0..TICKS_PER_DAY {
                        for t in &mine {
                            attempted += 1;
                            let params = observe_params(&t.id, &t.ticks[tick_index]);
                            let request = keep_frames.then(|| {
                                Request {
                                    id: next_id,
                                    method: "observe".into(),
                                    params: params.clone(),
                                }
                                .encode()
                            });
                            let t0 = Instant::now();
                            let r =
                                tracer.time("e2e.tick", next_id, || client.call("observe", params));
                            let dt = t0.elapsed();
                            match r {
                                Ok(result) => {
                                    tick.push(dt);
                                    if let Some(request) = request {
                                        frames.push((request, result));
                                    }
                                }
                                Err(e) => {
                                    fails.push(format!("observe {} tick {tick_index}: {e}", t.id))
                                }
                            }
                            next_id += 1;
                        }
                    }
                    ((reg, tick, frames, fails, attempted), tracer)
                })
            })
            .collect();
        for h in handles {
            let ((reg, tick, f, fails, n), thread_tracer) =
                h.join().expect("client threads do not panic");
            register.extend(reg);
            ticks.extend(tick);
            frames.extend(f);
            failures.extend(fails);
            attempted += n;
            tracer.absorb(&thread_tracer);
        }
        day = day_start.elapsed();
    });
    for f in failures {
        out.fail(f);
    }
    out.attempted += attempted;

    let before = clients[0].status().map_err(|e| format!("status: {e}"))?;
    let before_tenants = sorted_tenants(before.tenants);
    out.check(before_tenants.len() == tenants.len(), || {
        format!(
            "{} of {} tenants live at the end of the day",
            before_tenants.len(),
            tenants.len()
        )
    });
    let counts = Counts {
        migrations: before_tenants.iter().map(|t| t.migrations).sum(),
        replans: before_tenants.iter().map(|t| t.replans).sum(),
        warm_replans: before_tenants.iter().map(|t| t.warm_replans).sum(),
        cache_exact: before.cache.exact_hits,
        cache_near: before.cache.near_hits,
        cache_misses: before.cache.misses,
    };
    drop(clients);
    daemon.stop();
    let journal_bytes = report::dir_bytes(dir);

    // Restart on the day's journals: every tenant must come back exactly
    // as it was.
    let mut restarts = Vec::new();
    for k in 0..RESTARTS_PER_DAY {
        let copy = platform.clone();
        let t0 = Instant::now();
        let daemon = tracer.time("e2e.restart", k as u64, || boot(dir, copy))?;
        restarts.push(t0.elapsed());
        let errors = daemon.resume_errors();
        out.check(errors.is_empty(), || {
            format!("restart {k}: resume errors {errors:?}")
        });
        let after = connect::<1>(&daemon)
            .and_then(|[mut c]| c.status().map_err(|e| e.to_string()))
            .map_err(|e| format!("status after restart: {e}"))?;
        let after_tenants = sorted_tenants(after.tenants);
        out.check(after_tenants == before_tenants, || {
            format!("restart {k}: resumed tenant statuses differ from the statuses before it")
        });
        daemon.stop();
    }
    Ok(Day {
        setup,
        register,
        ticks,
        day,
        restarts,
        counts,
        frames,
        journal_bytes,
    })
}

/// The end-to-end run: days until `seconds` have passed.
///
/// Each figure is taken per day and the run reports its median over the
/// days: the host's speed drifts within seconds, and a day is the window
/// that repeats.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let tenants = gen::tenant_day(seed);
    let mut out = Outcome::new("tenant-day");
    let mut per_day: [Vec<f64>; 6] = Default::default();
    let [setup, register, tick_p50, tick_p99, throughput, restart] = &mut per_day;
    let (mut ticks, mut registers, mut restarts, mut peak_rss) = (0, 0, 0, f64::NAN);
    let mut first: Option<Counts> = None;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_DAYS || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("day-{rep}"));
        match serve_day(&tenants, &dir, &Tracer::off(), false, &mut out) {
            Ok(day) => {
                let latencies: Vec<f64> = day.ticks.iter().map(|&d| us(d)).collect();
                let registered: Vec<f64> = day.register.iter().map(|&d| ms(d)).collect();
                let restarted: Vec<f64> = day.restarts.iter().map(|d| d.as_secs_f64()).collect();
                ticks += latencies.len();
                registers += registered.len();
                restarts += restarted.len();
                setup.push(day.setup.as_secs_f64());
                register.push(median(&registered));
                tick_p50.push(median(&latencies));
                tick_p99.push(quantile(&latencies, 0.99));
                throughput.push(latencies.len() as f64 / day.day.as_secs_f64());
                restart.push(mean(&restarted));
                let counts = day.counts;
                out.check(first.is_none_or(|f| f == counts), || {
                    format!("day {rep} behaved differently from day 0: {counts:?} vs {first:?}")
                });
                if first.is_none() {
                    first = Some(counts);
                    peak_rss = report::peak_rss_mb();
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("day {rep}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        rep += 1;
    }

    let days = tick_p50.len();
    out.figure("setup_s", median(setup), "s", days);
    out.figure("peak_rss_mb", peak_rss, "MB", 1);
    out.figure("register_p50_ms", median(register), "ms", registers);
    out.figure("tick_p50_us", median(tick_p50), "us", ticks);
    out.figure("tick_p99_us", median(tick_p99), "us", ticks);
    out.figure(
        "day_s",
        (gen::TENANTS * TICKS_PER_DAY) as f64 / median(throughput),
        "s",
        days,
    );
    out.figure("restart_s", median(restart), "s", restarts);
    if let Some(c) = first {
        out.count("migrations", c.migrations as f64);
        out.count("replans", c.replans as f64);
        out.count("warm_replans", c.warm_replans as f64);
        out.count("cache_exact", c.cache_exact as f64);
        out.count("cache_near", c.cache_near as f64);
        out.count("cache_misses", c.cache_misses as f64);
    }
    out.count("days", days as f64);

    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("p50_ms", median(tick_p50) / 1e3, "ms");
    out.metric("p99_ms", median(tick_p99) / 1e3, "ms");
    out.metric("ops_per_s", median(throughput), "1/s");
    out.metric("cold_ms", median(register), "ms");
    out
}

/// The traced run: one untraced and one traced day (their difference is
/// the tracing overhead), then the day's frames replayed through each
/// layer's public calls.
pub fn traced(seed: u64, work: &Path, tracer: &Tracer) -> Outcome {
    let tenants = gen::tenant_day(seed);
    let mut out = Outcome::new("tenant-day");
    // Both days record frames, so they differ only in the spans.
    let untraced = serve_day(
        &tenants,
        &work.join("untraced"),
        &Tracer::off(),
        true,
        &mut out,
    );
    let day = serve_day(&tenants, &work.join("traced"), tracer, true, &mut out);
    let (untraced, day) = match (untraced, day) {
        (Ok(u), Ok(d)) => (u, d),
        (Err(e), _) | (_, Err(e)) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let tick_p50 = median(&day.ticks.iter().map(|&d| us(d)).collect::<Vec<_>>());
    let untraced_p50 = median(&untraced.ticks.iter().map(|&d| us(d)).collect::<Vec<_>>());

    // Transport alone, then the codec, on the recorded frames.
    let lines: Vec<String> = day.frames.iter().map(|(f, _)| format!("{f}\n")).collect();
    if let Err(e) = trace::echo(&lines, tracer) {
        out.fail(format!("echo: {e}"));
    }
    for (i, (frame, result)) in day.frames.iter().enumerate() {
        let parsed = tracer.time("serve.wire.parse", i as u64, || Request::parse(frame));
        let Ok(request) = parsed else {
            out.check(false, || format!("recorded frame {i} does not parse"));
            continue;
        };
        let result = result.clone();
        let decoded = tracer.time("serve.wire.encode", i as u64, || {
            decode_response(&ok_response(request.id, result))
        });
        out.check(
            decoded.is_ok_and(|(id, r)| id == request.id && r.is_ok()),
            || format!("recorded response {i} does not round-trip"),
        );
    }

    // The journal, sessions and controllers, fed the same day in process.
    let platform = Arc::new(gen::catalog());
    let replay_dir = work.join("replay");
    replay_journal(&tenants, &replay_dir, tracer, &mut out);
    replay_sessions(&tenants, &replay_dir, &platform, tracer, &mut out);
    let control = replay_controllers(&tenants, &platform, tracer, &mut out);

    let layers = trace::layers(&tracer.spans());
    let med = |name: &str, scale: f64| {
        layers
            .get(name)
            .map_or(0.0, |l| median(&l.durations) * scale)
    };
    let echo = med("serve.transport.echo", 1e6);
    let parse = med("serve.wire.parse", 1e6);
    let encode = med("serve.wire.encode", 1e6);
    let observe = med("serve.session.observe", 1e6);
    let covered = echo + parse + observe + encode;
    let c = day.counts;
    let ticks = (tenants.len() * TICKS_PER_DAY) as f64;
    let quiet_tick = layers
        .get("control.tick")
        .map_or(0.0, |l| median(&l.leaf_durations) * 1e6);

    out.metric("serve.transport.echo_us", echo, "us");
    out.metric("serve.wire.parse_us", parse, "us");
    out.metric("serve.wire.encode_us", encode, "us");
    out.metric(
        "serve.journal.append_us",
        med("serve.journal.append", 1e6),
        "us",
    );
    out.metric(
        "serve.journal.bytes_per_tick",
        day.journal_bytes as f64 / ticks,
        "B",
    );
    out.metric("serve.session.observe_us", observe, "us");
    out.metric("serve.daemon.self_us", tick_p50 - covered, "us");
    out.metric(
        "serve.session.register_ms",
        med("serve.session.register", 1e3),
        "ms",
    );
    out.metric(
        "serve.journal.read_ms",
        med("serve.journal.read", 1e3),
        "ms",
    );
    out.metric(
        "serve.session.resume_ms",
        med("serve.session.resume", 1e3),
        "ms",
    );
    out.metric("control.tick_us", quiet_tick, "us");
    out.metric("control.replans", c.replans as f64, "count");
    out.metric("control.migrations", c.migrations as f64, "count");
    out.metric(
        "control.warm_share",
        c.warm_replans as f64 / c.replans.max(1) as f64,
        "share",
    );
    out.metric(
        "control.noop_share",
        (c.replans - c.migrations.min(c.replans)) as f64 / c.replans.max(1) as f64,
        "share",
    );
    out.metric(
        "core.online.revise_ms",
        med("core.online.revise", 1e3),
        "ms",
    );
    out.metric("core.online.changes", control.changes as f64, "count");
    out.metric("godiet.migrate_ms", med("godiet.migrate", 1e3), "ms");
    out.metric(
        "godiet.substitutions",
        control.substitutions as f64,
        "count",
    );
    out.metric(
        "hierarchy.diff_changes",
        control.diff_changes as f64,
        "count",
    );
    out.metric("core.mix.plan_ms", med("core.mix.plan", 1e3), "ms");
    let lookups = (c.cache_exact + c.cache_near + c.cache_misses).max(1) as f64;
    out.metric(
        "serve.cache.exact_share",
        c.cache_exact as f64 / lookups,
        "share",
    );
    out.metric(
        "serve.cache.near_share",
        c.cache_near as f64 / lookups,
        "share",
    );
    out.metric(
        "serve.cache.miss_share",
        c.cache_misses as f64 / lookups,
        "share",
    );
    out.metric("platform.generate_s", med("platform.generate", 1.0), "s");
    out.metric("trace.tick_cover_share", covered / tick_p50, "share");
    out.metric(
        "trace.overhead_share",
        tick_p50 / untraced_p50 - 1.0,
        "share",
    );

    out.figure("traced tick_p50_us", tick_p50, "us", day.ticks.len());
    out.figure(
        "untraced tick_p50_us",
        untraced_p50,
        "us",
        untraced.ticks.len(),
    );
    out.figure("  echo (transport)", echo, "us", lines.len());
    out.figure("  parse (Request::parse)", parse, "us", day.frames.len());
    out.figure("  observe (TenantSession)", observe, "us", ticks as usize);
    out.figure(
        "  encode (ok/decode_response)",
        encode,
        "us",
        day.frames.len(),
    );
    out.figure(
        "  remainder: dispatch, slot lock, result JSON, client encode",
        tick_p50 - covered,
        "us",
        day.ticks.len(),
    );
    out.count("migrations", c.migrations as f64);
    out.count("replans", c.replans as f64);
    out.count("warm_replans", c.warm_replans as f64);
    out
}

/// `Journal::append` of every tick record of the day, one journal per
/// tenant as the daemon keeps them.
fn replay_journal(tenants: &[Tenant], dir: &Path, tracer: &Tracer, out: &mut Outcome) {
    let dir = dir.join("journal");
    for t in tenants {
        let register = Record::Register {
            tenant: t.id.clone(),
            platform: CATALOG.into(),
            fingerprint: 0,
            services: t.services.clone(),
            demand: t.demand.clone(),
            config: t.config.clone(),
        };
        let mut journal = match Journal::create(&dir, &t.id, &register) {
            Ok(j) => j,
            Err(e) => {
                out.check(false, || format!("journal create {}: {e}", t.id));
                continue;
            }
        };
        for (i, rates) in t.ticks.iter().enumerate() {
            let record = Record::Tick {
                rates: rates.clone(),
                executions: Vec::new(),
            };
            let r = tracer.time("serve.journal.append", i as u64, || journal.append(&record));
            out.check(r.is_ok(), || format!("journal append {} tick {i}", t.id));
        }
    }
}

/// `TenantSession::register` and `observe` over the same day, then
/// `Journal::read_lenient` and `TenantSession::resume` of each journal.
fn replay_sessions(
    tenants: &[Tenant],
    dir: &Path,
    platform: &Arc<Platform>,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let dir = dir.join("sessions");
    let mut statuses = Vec::new();
    for (n, t) in tenants.iter().enumerate() {
        let session = tracer.time("serve.session.register", n as u64, || {
            TenantSession::register(
                &dir,
                &t.id,
                CATALOG,
                Arc::clone(platform),
                &t.services,
                t.demand.clone(),
                &t.config,
                None,
                true,
            )
        });
        let mut session = match session {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("session register {}: {e}", t.id));
                continue;
            }
        };
        for (i, rates) in t.ticks.iter().enumerate() {
            let r = tracer.time("serve.session.observe", i as u64, || {
                session.observe(rates.clone(), Vec::new())
            });
            out.check(r.is_ok(), || format!("session observe {} tick {i}", t.id));
        }
        statuses.push(session.status());
    }
    let lookup = |name: &str| (name == CATALOG).then(|| Arc::clone(platform));
    for (n, status) in statuses.iter().enumerate() {
        let path = adept_serve::journal::journal_path(&dir, &status.tenant);
        let read = tracer.time("serve.journal.read", n as u64, || {
            Journal::read_lenient(&path)
        });
        out.check(read.is_ok(), || format!("journal read {}", status.tenant));
        let resumed = tracer.time("serve.session.resume", n as u64, || {
            TenantSession::resume(&path, &lookup, true)
        });
        out.check(
            matches!(&resumed, Ok(Some(s)) if s.status() == *status),
            || {
                format!(
                    "session resume {} did not reproduce its status",
                    status.tenant
                )
            },
        );
    }
}

struct ControlCounts {
    changes: u64,
    substitutions: u64,
    diff_changes: u64,
}

/// `Controller::tick` over the day, wired as a session wires it but with
/// the reviser timed from outside; each migration's
/// `MigrationScript::compile` + `GoDiet::migrate` re-run and timed on
/// the plan the controller migrated from.
fn replay_controllers(
    tenants: &[Tenant],
    platform: &Arc<Platform>,
    tracer: &Tracer,
    out: &mut Outcome,
) -> ControlCounts {
    let changes = Arc::new(AtomicU64::new(0));
    let (mut substitutions, mut diff_changes) = (0u64, 0u64);
    for (n, t) in tenants.iter().enumerate() {
        let mix = gen::service_mix(&t.services);
        let demand = MixDemand::targets(t.demand.clone());
        let planned = tracer.time("core.mix.plan", n as u64, || {
            MixPlanner::default().plan_mix(platform, &mix, &demand)
        });
        let Ok(initial) = planned else {
            out.check(false, || format!("mix plan {}", t.id));
            continue;
        };
        let tool = GoDiet::with_failures(t.config.failure_probability, t.config.failure_seed);
        let cfg = &t.config;
        let mut controller = Controller::new(
            Arc::clone(platform),
            mix,
            initial.plan,
            initial.assignment,
            &demand,
            Box::new(TimedRevise {
                inner: OnlinePlanner {
                    max_changes: cfg.max_changes as usize,
                    ..OnlinePlanner::default()
                },
                tracer: tracer.clone(),
                changes: Arc::clone(&changes),
            }),
            tool,
            ControllerConfig {
                triggers: vec![TriggerPolicy::ForecastDrift {
                    threshold: cfg.drift_threshold,
                }],
                hysteresis: Hysteresis {
                    min_sustained: cfg.min_sustained,
                    cooldown_ticks: cfg.cooldown_ticks,
                },
                demand_alpha: cfg.demand_alpha,
                wapp_alpha: cfg.wapp_alpha,
                headroom: cfg.headroom,
                warm_start: true,
            },
        );
        for (i, rates) in t.ticks.iter().enumerate() {
            let before = controller.running().clone();
            let obs = Observations::rates(rates.clone());
            let r = tracer.time("control.tick", i as u64, || controller.tick(&obs));
            match r {
                Ok(Some(m)) => {
                    diff_changes += m.replan.diff.len() as u64;
                    substitutions += m.report.substitutions.len() as u64;
                    let again = tracer.time("godiet.migrate", i as u64, || {
                        MigrationScript::compile(&before, &m.replan.plan)
                            .and_then(|script| tool.migrate(platform, &before, &script))
                    });
                    out.check(
                        again.is_ok_and(|rep| rep.substitutions == m.report.substitutions),
                        || format!("migration of {} at tick {i} did not repeat", t.id),
                    );
                }
                Ok(None) => out.check(true, String::new),
                Err(e) => out.check(false, || format!("controller {} tick {i}: {e}", t.id)),
            }
        }
    }
    ControlCounts {
        changes: changes.load(Ordering::Relaxed),
        substitutions,
        diff_changes,
    }
}
