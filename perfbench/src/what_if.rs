//! `what-if`: stateless `plan` questions from two connections. The only
//! workload on which the plan cache's exact and near tiers and cold
//! `MixPlanner` misses decide the latency; it writes no journal and runs
//! no controller, so every serve layer past the cache is bypassed.

use crate::gen::{self, Tier, WhatIf, CATALOG};
use crate::report::{self, median, ms, quantile, Outcome};
use crate::trace::{self, Tracer};
use adept_core::planner::{MixPlan, MixPlanner, OnlinePlanner};
use adept_platform::Platform;
use adept_serve::wire::{decode_response, ok_response};
use adept_serve::{
    CacheStats, Daemon, DaemonHandle, Json, PlanSummary, Request, ServeClient, ServeConfig,
    ServiceDef,
};
use adept_workload::MixDemand;
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds of question stream per daemon; each daemon is also one
/// set-up and one cache-refill sample.
const ROUND_SECONDS: f64 = 2.0;
const MIN_ROUNDS: usize = 3;

/// One answered question: its index in the stream and what came back.
type Answer = (usize, PlanSummary, f64);

struct Round {
    setup: Duration,
    refill: Duration,
    latencies: Vec<(Tier, Duration)>,
    stream_time: Duration,
    answers: Vec<Answer>,
    refill_answers: Vec<Answer>,
    cache: CacheStats,
    /// Replans and migrations of any tenant sessions (none are expected).
    tenant_replans: u64,
    tenant_migrations: u64,
}

/// Boots a daemon on a freshly generated catalog and opens two warm
/// connections. The set-up time it returns stops when the daemon is
/// listening: its accept loop polls every 50 ms, so waiting for it to
/// take the connections costs nothing or a whole poll depending on a
/// race, not on work.
fn boot(dir: &Path, tracer: &Tracer) -> Result<(DaemonHandle, [ServeClient; 2], Duration), String> {
    let t0 = Instant::now();
    let platform = tracer.time("platform.generate", 0, gen::catalog);
    let daemon = Daemon::start(ServeConfig::new(
        "127.0.0.1:0",
        dir.to_path_buf(),
        vec![(CATALOG.to_string(), platform)],
    ))
    .map_err(|e| format!("daemon start: {e}"))?;
    let setup = t0.elapsed();
    let connect = || ServeClient::connect(daemon.addr()).map_err(|e| e.to_string());
    let mut clients = [connect()?, connect()?];
    for c in &mut clients {
        c.status().map_err(|e| e.to_string())?;
    }
    Ok((daemon, clients, setup))
}

/// One daemon: set it up, refill its cache with the popular questions
/// (as after a restart), then run the stream from both connections
/// until `slice` has passed.
fn round(q: &WhatIf, dir: &Path, slice: Duration, tracer: &Tracer) -> Result<Round, String> {
    let (daemon, mut clients, setup) = boot(dir, tracer)?;
    let services = gen::mixes();

    let t0 = Instant::now();
    let mut refill_answers = Vec::new();
    let mut refill_err = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let services = &services;
                scope.spawn(move || {
                    let mut got = Vec::new();
                    for &p in q.popular.iter().skip(c).step_by(2) {
                        let point = &q.points[p];
                        let r = client.plan(CATALOG, &services[point.mix], Some(&point.demand));
                        got.push(r.map(|(s, o)| (p, s, o)).map_err(|e| e.to_string()));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for r in h.join().expect("client threads do not panic") {
                match r {
                    Ok(a) => refill_answers.push(a),
                    Err(e) => refill_err = Some(e),
                }
            }
        }
    });
    let refill = t0.elapsed();
    if let Some(e) = refill_err {
        return Err(format!("cache refill: {e}"));
    }

    let start = Instant::now();
    let deadline = start + slice;
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    let mut failures = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let services = &services;
                let thread_tracer = tracer.fork();
                scope.spawn(move || {
                    let (mut lat, mut got, mut fails) = (Vec::new(), Vec::new(), Vec::new());
                    let mut i = c;
                    while Instant::now() < deadline {
                        let ask = &q.stream[i % q.stream.len()];
                        let point = &q.points[ask.point];
                        let t0 = Instant::now();
                        let r = thread_tracer.time("e2e.plan", i as u64, || {
                            client.plan(CATALOG, &services[point.mix], Some(&ask.demand))
                        });
                        let dt = t0.elapsed();
                        match r {
                            Ok((summary, objective)) => {
                                lat.push((ask.tier, dt));
                                got.push((i % q.stream.len(), summary, objective));
                            }
                            Err(e) => fails.push(format!("plan question {i}: {e}")),
                        }
                        i += 2;
                    }
                    (lat, got, fails, thread_tracer)
                })
            })
            .collect();
        for h in handles {
            let (lat, got, fails, thread_tracer) = h.join().expect("client threads do not panic");
            latencies.extend(lat);
            answers.extend(got);
            failures.extend(fails);
            tracer.absorb(&thread_tracer);
        }
    });
    let stream_time = start.elapsed();
    let status = clients[0].status().map_err(|e| format!("status: {e}"))?;
    drop(clients);
    daemon.stop();
    if let Some(f) = failures.into_iter().next() {
        return Err(f);
    }
    Ok(Round {
        setup,
        refill,
        latencies,
        stream_time,
        answers,
        refill_answers,
        cache: status.cache,
        tenant_replans: status.tenants.iter().map(|t| t.replans).sum(),
        tenant_migrations: status.tenants.iter().map(|t| t.migrations).sum(),
    })
}

/// Checks every answer: each is a non-empty plan with finite ρ, and each
/// answer to an exactly repeated question (exact or miss tier) is
/// bit-equal to planning the same question cold in process.
fn check_answers(
    q: &WhatIf,
    platform: &Platform,
    answers: &[Answer],
    refill: &[Answer],
    out: &mut Outcome,
) {
    let mut reference: BTreeMap<usize, Option<MixPlan>> = BTreeMap::new();
    let services = gen::mixes();
    let by_point = refill
        .iter()
        .map(|(p, s, o)| (*p, s, *o, Tier::Exact))
        .chain(answers.iter().map(|(i, s, o)| {
            let ask = &q.stream[*i];
            (ask.point, s, *o, ask.tier)
        }));
    for (point, summary, objective, tier) in by_point {
        out.check(
            summary.servers > 0 && summary.rho.is_finite() && summary.rho > 0.0,
            || {
                format!(
                    "point {point}: empty plan or non-finite rho {}",
                    summary.rho
                )
            },
        );
        if tier == Tier::Near {
            continue;
        }
        let cold = reference.entry(point).or_insert_with(|| {
            let p = &q.points[point];
            MixPlanner::default()
                .plan_mix(
                    platform,
                    &gen::service_mix(&services[p.mix]),
                    &MixDemand::targets(p.demand.clone()),
                )
                .ok()
        });
        let equal = cold
            .as_ref()
            .is_some_and(|c| same_answer(c, summary, objective));
        out.check(equal, || {
            format!("point {point}: served answer differs from a cold in-process plan")
        });
    }
}

fn same_answer(cold: &MixPlan, summary: &PlanSummary, objective: f64) -> bool {
    let mut per_service = vec![0u64; cold.report.rho_service.len()];
    for &s in cold.assignment.service_of.values() {
        per_service[s] += 1;
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    cold.report.rho.to_bits() == summary.rho.to_bits()
        && bits(&cold.report.rho_service) == bits(&summary.rho_service)
        && cold.plan.server_count() as u64 == summary.servers
        && cold.plan.agent_count() as u64 == summary.agents
        && per_service == summary.per_service_servers
        && cold.objective_value.to_bits() == objective.to_bits()
}

fn tier_counts(q: &WhatIf, asked: &[usize]) -> (u64, u64, u64) {
    asked
        .iter()
        .fold((0, 0, 0), |(e, n, m), i| match q.stream[*i].tier {
            Tier::Exact => (e + 1, n, m),
            Tier::Near => (e, n + 1, m),
            Tier::Miss => (e, n, m + 1),
        })
}

/// The end-to-end run: one daemon per `ROUND_SECONDS` of `seconds`.
///
/// Each figure is taken per round and the run reports its median over
/// the rounds.
pub fn run(seed: u64, seconds: f64, work: &Path) -> Outcome {
    let q = gen::what_if(seed);
    let mut out = Outcome::new("what-if");
    let rounds = ((seconds / ROUND_SECONDS).round() as usize).max(MIN_ROUNDS);
    let slice = Duration::from_secs_f64(seconds / rounds as f64);
    let mut per_round: [Vec<f64>; 6] = Default::default();
    let [setup, refill, p50, p99, throughput, cold] = &mut per_round;
    let (mut plans, mut misses, mut peak_rss) = (0, 0, f64::NAN);
    let mut answers = Vec::new();
    let mut refill_answers = Vec::new();
    for r in 0..rounds {
        let dir = work.join(format!("round-{r}"));
        match round(&q, &dir, slice, &Tracer::off()) {
            Ok(round) => {
                let all: Vec<f64> = round.latencies.iter().map(|&(_, d)| ms(d)).collect();
                let miss: Vec<f64> = round
                    .latencies
                    .iter()
                    .filter(|(tier, _)| *tier == Tier::Miss)
                    .map(|&(_, d)| ms(d))
                    .collect();
                plans += all.len();
                misses += miss.len();
                p50.push(median(&all));
                p99.push(quantile(&all, 0.99));
                cold.push(median(&miss));
                throughput.push(all.len() as f64 / round.stream_time.as_secs_f64());
                setup.push(round.setup.as_secs_f64());
                refill.push(round.refill.as_secs_f64());
                let asked: Vec<usize> = round.answers.iter().map(|a| a.0).collect();
                let designed = tier_counts(&q, &asked);
                let c = &round.cache;
                let served = (c.exact_hits, c.near_hits, c.misses - q.popular.len() as u64);
                if served != designed {
                    out.warn(format!(
                        "round {r}: cache tiers (exact, near, miss) {served:?} differ from the \
                         stream's design {designed:?}"
                    ));
                }
                out.attempted += all.len() as u64 + round.refill_answers.len() as u64;
                answers.extend(round.answers);
                refill_answers.extend(round.refill_answers);
                if r == 0 {
                    peak_rss = report::peak_rss_mb();
                }
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("round {r}: {e}"));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let platform = gen::catalog();
    check_answers(&q, &platform, &answers, &refill_answers, &mut out);

    let (exact, near, miss) = tier_counts(&q, &(0..q.stream.len()).collect::<Vec<_>>());
    out.figure("setup_s", median(setup), "s", setup.len());
    out.figure("peak_rss_mb", peak_rss, "MB", 1);
    out.figure("plan_p50_ms", median(p50), "ms", plans);
    out.figure("plan_p99_ms", median(p99), "ms", plans);
    out.figure("plans_per_s", median(throughput), "1/s", plans);
    out.figure("miss_plan_p50_ms", median(cold), "ms", misses);
    out.figure("cache_refill_s", median(refill), "s", refill.len());
    out.count("cycle_exact", exact as f64);
    out.count("cycle_near", near as f64);
    out.count("cycle_miss", miss as f64);
    out.count("rounds", rounds as f64);

    out.metric("setup_s", median(setup), "s");
    out.metric("peak_rss_mb", peak_rss, "MB");
    out.metric("p50_ms", median(p50), "ms");
    out.metric("p99_ms", median(p99), "ms");
    out.metric("ops_per_s", median(throughput), "1/s");
    out.metric("cold_ms", median(cold), "ms");
    out
}

/// The traced run: an untraced and a traced round (their difference is
/// the tracing overhead), one connection splitting `plan` latency by the
/// tier the cache counters say answered it, and the questions replayed
/// through the codec, the transport and the planners.
pub fn traced(seed: u64, seconds: f64, work: &Path, tracer: &Tracer) -> Outcome {
    let q = gen::what_if(seed);
    let mut out = Outcome::new("what-if");
    let slice = Duration::from_secs_f64(seconds / 4.0);
    let untraced = round(&q, &work.join("untraced"), slice, &Tracer::off());
    let traced = round(&q, &work.join("traced"), slice, tracer);
    let (untraced, traced_round) = match (untraced, traced) {
        (Ok(u), Ok(t)) => (u, t),
        (Err(e), _) | (_, Err(e)) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    out.attempted += traced_round.latencies.len() as u64;
    let p50 = |r: &Round| median(&r.latencies.iter().map(|&(_, d)| ms(d)).collect::<Vec<_>>());

    // One connection, `status` around every `plan`: the counter that
    // moved names the tier that answered.
    let services = gen::mixes();
    let mut frames: Vec<(String, Json)> = Vec::new();
    let mut tiers = (0u64, 0u64, 0u64);
    let split = (|| -> Result<(), String> {
        let (daemon, [mut client, _spare], _) = boot(&work.join("split"), &Tracer::off())?;
        for &p in &q.popular {
            let point = &q.points[p];
            client
                .plan(CATALOG, &services[point.mix], Some(&point.demand))
                .map_err(|e| e.to_string())?;
        }
        let mut next_id = 2 + q.popular.len() as u64;
        for (i, ask) in q.stream.iter().enumerate() {
            let point = &q.points[ask.point];
            let params = Json::obj(vec![
                ("platform", Json::str(CATALOG)),
                ("services", services_json(&services[point.mix])),
                (
                    "demand",
                    Json::Arr(ask.demand.iter().map(|&r| Json::num(r)).collect()),
                ),
            ]);
            let request = Request {
                id: next_id + 1,
                method: "plan".into(),
                params: params.clone(),
            }
            .encode();
            let before = client.status().map_err(|e| e.to_string())?.cache;
            let t0 = Instant::now();
            let result = client.call("plan", params).map_err(|e| e.to_string())?;
            let dt = t0.elapsed();
            let after = client.status().map_err(|e| e.to_string())?.cache;
            next_id += 3;
            let name = if after.exact_hits > before.exact_hits {
                tiers.0 += 1;
                "serve.cache.exact"
            } else if after.near_hits > before.near_hits {
                tiers.1 += 1;
                "serve.cache.near"
            } else {
                tiers.2 += 1;
                "serve.cache.miss"
            };
            tracer.record(name, i as u64, t0, dt);
            frames.push((request, result));
        }
        drop(client);
        daemon.stop();
        Ok(())
    })();
    if let Err(e) = split {
        out.check(false, || format!("tier split: {e}"));
    }

    let lines: Vec<String> = frames.iter().map(|(f, _)| format!("{f}\n")).collect();
    if let Err(e) = trace::echo(&lines, tracer) {
        out.check(false, || format!("echo: {e}"));
    }
    for (i, (frame, result)) in frames.iter().enumerate() {
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

    // The planners behind the tiers, in process: cold plans of the
    // popular and fresh points, near revisions from the popular parents.
    let platform = gen::catalog();
    let mut cold: BTreeMap<usize, MixPlan> = BTreeMap::new();
    for (i, ask) in q.stream.iter().enumerate() {
        let point = &q.points[ask.point];
        let m = gen::service_mix(&services[point.mix]);
        if let Entry::Vacant(slot) = cold.entry(ask.point) {
            let got = tracer.time("core.mix.plan", i as u64, || {
                MixPlanner::default().plan_mix(
                    &platform,
                    &m,
                    &MixDemand::targets(point.demand.clone()),
                )
            });
            match got {
                Ok(p) => {
                    slot.insert(p);
                }
                Err(e) => out.check(false, || format!("mix plan of point {}: {e}", ask.point)),
            }
        }
        if ask.tier == Tier::Near {
            if let Some(parent) = cold.get(&ask.point) {
                let reviser = OnlinePlanner {
                    max_changes: usize::MAX,
                    ..OnlinePlanner::default()
                };
                let revised = tracer.time("core.online.revise", i as u64, || {
                    reviser.replan_mix(
                        &platform,
                        &parent.plan,
                        &m,
                        &parent.assignment,
                        &MixDemand::targets(ask.demand.clone()),
                    )
                });
                out.check(revised.is_ok(), || format!("near revision of question {i}"));
            }
        }
    }

    let layers = trace::layers(&tracer.spans());
    let med = |name: &str, scale: f64| {
        layers
            .get(name)
            .map_or(0.0, |l| median(&l.durations) * scale)
    };
    let c = &traced_round.cache;
    let lookups = (c.exact_hits + c.near_hits + c.misses).max(1) as f64;
    out.metric(
        "serve.transport.echo_us",
        med("serve.transport.echo", 1e6),
        "us",
    );
    out.metric("serve.wire.parse_us", med("serve.wire.parse", 1e6), "us");
    out.metric("serve.wire.encode_us", med("serve.wire.encode", 1e6), "us");
    out.metric(
        "serve.journal.bytes_per_tick",
        report::dir_bytes(&work.join("traced")) as f64,
        "B",
    );
    out.metric(
        "control.replans",
        traced_round.tenant_replans as f64,
        "count",
    );
    out.metric(
        "control.migrations",
        traced_round.tenant_migrations as f64,
        "count",
    );
    out.metric(
        "core.online.revise_ms",
        med("core.online.revise", 1e3),
        "ms",
    );
    out.metric("core.mix.plan_ms", med("core.mix.plan", 1e3), "ms");
    out.metric(
        "serve.cache.exact_share",
        c.exact_hits as f64 / lookups,
        "share",
    );
    out.metric(
        "serve.cache.near_share",
        c.near_hits as f64 / lookups,
        "share",
    );
    out.metric("serve.cache.miss_share", c.misses as f64 / lookups, "share");
    out.metric("serve.cache.exact_ms", med("serve.cache.exact", 1e3), "ms");
    out.metric("serve.cache.near_ms", med("serve.cache.near", 1e3), "ms");
    out.metric("platform.generate_s", med("platform.generate", 1.0), "s");
    out.metric(
        "trace.overhead_share",
        p50(&traced_round) / p50(&untraced) - 1.0,
        "share",
    );
    out.figure(
        "traced plan_p50_ms",
        p50(&traced_round),
        "ms",
        traced_round.latencies.len(),
    );
    out.figure(
        "untraced plan_p50_ms",
        p50(&untraced),
        "ms",
        untraced.latencies.len(),
    );
    out.figure(
        "exact-tier plan_ms",
        med("serve.cache.exact", 1e3),
        "ms",
        tiers.0 as usize,
    );
    out.figure(
        "near-tier plan_ms",
        med("serve.cache.near", 1e3),
        "ms",
        tiers.1 as usize,
    );
    out.figure(
        "miss-tier plan_ms",
        med("serve.cache.miss", 1e3),
        "ms",
        tiers.2 as usize,
    );
    out.count("cache_exact", c.exact_hits as f64);
    out.count("cache_near", c.near_hits as f64);
    out.count("cache_misses", c.misses as f64);
    out
}

fn services_json(services: &[ServiceDef]) -> Json {
    Json::Arr(
        services
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(&s.name)),
                    ("wapp_mflop", Json::num(s.wapp_mflop)),
                    ("weight", Json::num(s.weight)),
                ])
            })
            .collect(),
    )
}
