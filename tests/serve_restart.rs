//! End-to-end acceptance of the `adept-serve` daemon.
//!
//! Three tenants drive the scripted ramp+plateau+spike day of
//! `tests/control_loop.rs` **concurrently over the wire**, with GoDiet
//! failure injection on. Mid-day the daemon is killed and restarted:
//! every tenant must resume from its journal — same tick counter, same
//! migration history, same deployment — and finish the day as if
//! nothing happened. A direct library run of the same scenario is the
//! referee: the served loop must reproduce it exactly (determinism is
//! the daemon's durability mechanism, so it is load-bearing).
//!
//! The companion tests pin the typed-error contract of the wire and the
//! journal recovery edge cases (truncated tail, corrupt/empty journals,
//! catalog fingerprint drift, contested tenant ids).

use adept::prelude::*;
use adept::serve::{journal::Journal, Json, Record};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Light / mid / heavy DGEMM mix, declared over the wire.
fn services3() -> Vec<ServiceDef> {
    [(310u32, 2.0f64), (700, 1.0), (1000, 1.0)]
        .into_iter()
        .map(|(n, weight)| ServiceDef {
            name: format!("dgemm-{n}"),
            wapp_mflop: Dgemm::new(n).wapp().value(),
            weight,
        })
        .collect()
}

/// Two 30-node sites, fast LAN, 10 Mb/s WAN (as in control_loop.rs).
fn two_site_platform() -> Platform {
    generator::multi_site_grid(2, 30, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 7)
}

/// The session policy mirroring the library-level scripted-day run:
/// drift trigger at 20%, instant demand convergence, failure injection
/// p=0.55 healed by spares.
fn session_config() -> SessionConfig {
    SessionConfig {
        demand_alpha: 1.0,
        max_changes: 20,
        failure_probability: 0.55,
        failure_seed: 23,
        ..SessionConfig::default()
    }
}

/// The default daemon config: warm-started replanning **on** and the
/// shared plan cache **enabled** — the restart test must prove replay
/// determinism under the accelerated configuration, not a sanitized one.
fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig::new(
        "127.0.0.1:0",
        dir.to_path_buf(),
        vec![("grid2x30".into(), two_site_platform())],
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adept-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PLANNED: [f64; 3] = [1.0, 0.5, 0.4];

/// The scripted day: (ticks, per-tick observed rates) per phase.
const PHASES: [(usize, [f64; 3]); 5] = [
    (6, [1.0, 0.5, 0.4]), // steady at the planned level
    (6, [1.0, 0.5, 0.8]), // ramp step 1: heavy service doubles
    (6, [1.0, 0.5, 1.2]), // ramp step 2
    (8, [1.0, 0.5, 1.2]), // plateau
    (8, [1.0, 2.5, 1.2]), // spike: mid service quintuples
];

/// Drives `phases` for one tenant over its own connection, returning
/// the migrations the daemon reported.
fn drive(
    addr: std::net::SocketAddr,
    tenant: &str,
    phases: &[(usize, [f64; 3])],
) -> Vec<MigrationSummary> {
    let mut client = ServeClient::connect(addr).expect("daemon is listening");
    let mut migrations = Vec::new();
    for (ticks, rates) in phases {
        for _ in 0..*ticks {
            let outcome = client
                .observe(tenant, rates, &[])
                .expect("observed ticks are routine");
            migrations.extend(outcome.migration);
        }
    }
    migrations
}

/// The referee: the same scripted day run directly against the library
/// [`Controller`], with the exact wiring `register` uses — except
/// **cold** (`warm_start: false`, the pre-warm-start code path), so the
/// equality assertions below prove the served warm loop is bit-identical
/// to cold replanning, not merely self-consistent.
fn reference_run(phases: &[(usize, [f64; 3])]) -> Controller {
    let platform = Arc::new(two_site_platform());
    let mix = ServiceMix::new(
        services3()
            .into_iter()
            .map(|s| (ServiceSpec::new(s.name, Mflop(s.wapp_mflop)), s.weight))
            .collect(),
    );
    let planned = MixDemand::targets(PLANNED.to_vec());
    let got = MixPlanner::default()
        .plan_mix(&platform, &mix, &planned)
        .expect("60 nodes fit the initial demand");
    let mut c = Controller::new(
        platform,
        mix,
        got.plan,
        got.assignment,
        &planned,
        Box::new(OnlinePlanner {
            max_changes: 20,
            ..Default::default()
        }),
        GoDiet::with_failures(0.55, 23),
        ControllerConfig {
            triggers: vec![TriggerPolicy::ForecastDrift { threshold: 0.2 }],
            demand_alpha: 1.0,
            warm_start: false,
            ..Default::default()
        },
    );
    for (ticks, rates) in phases {
        for _ in 0..*ticks {
            c.tick(&Observations::rates(rates.to_vec()))
                .expect("the loop heals failures itself");
        }
    }
    c
}

#[test]
fn three_tenants_survive_a_mid_day_daemon_restart() {
    let dir = tmp_dir("restart");
    let tenants = ["acme", "globex", "initech"];

    // ---- First half of the day: boot, register, drive concurrently.
    let daemon = Daemon::start(serve_config(&dir)).expect("daemon boots");
    assert!(daemon.resume_errors().is_empty(), "fresh dir, no journals");
    let addr = daemon.addr();
    let first_half: Vec<Vec<MigrationSummary>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|tenant| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("daemon is listening");
                    let status = client
                        .register(
                            tenant,
                            "grid2x30",
                            &services3(),
                            &PLANNED,
                            &session_config(),
                        )
                        .expect("registration plans and claims cleanly");
                    assert_eq!(status.ticks, 0);
                    assert!(status.plan.servers > 0);
                    drive(addr, tenant, &PHASES[..3])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ---- Kill the daemon mid-day.
    let mut status_client = ServeClient::connect(addr).unwrap();
    let before_kill = status_client.status().expect("status before the kill");
    assert_eq!(before_kill.tenants.len(), 3);
    drop(status_client);
    daemon.stop();

    // ---- Restart: every tenant resumes from its journal by replay.
    let daemon = Daemon::start(serve_config(&dir)).expect("daemon reboots on the same journals");
    assert_eq!(
        daemon.resume_errors(),
        Vec::<(String, String, String)>::new(),
        "every journal must resume"
    );
    let addr = daemon.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    let resumed = client.status().expect("status after restart");
    assert_eq!(resumed.platforms, vec!["grid2x30".to_string()]);
    let mut resumed_tenants = resumed.tenants.clone();
    resumed_tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    let mut expected = before_kill.tenants.clone();
    expected.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    assert_eq!(
        resumed_tenants, expected,
        "replay must rebuild every tenant exactly as it was at the kill"
    );
    // `TenantStatus` equality above includes `warm_replans`: replay
    // reproduces even the warm-start counter. And replay itself never
    // consults the shared plan cache — the rebooted daemon's cache is
    // untouched until a live request arrives.
    let c = &resumed.cache;
    assert_eq!(
        (c.exact_hits, c.near_hits, c.misses, c.insertions),
        (0, 0, 0, 0),
        "resume must bypass the plan cache entirely"
    );

    // ---- Second half of the day, again concurrently.
    let second_half: Vec<Vec<MigrationSummary>> = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .map(|tenant| scope.spawn(move || drive(addr, tenant, &PHASES[3..])))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // ---- The referee: the identical scenario run directly in-library.
    let reference = reference_run(&PHASES);
    let expected_migrations = reference.migrations();
    assert!(
        expected_migrations >= 3,
        "ramp steps and the spike each migrate, got {expected_migrations}"
    );

    let final_status = client.status().unwrap();
    for (i, tenant) in tenants.iter().enumerate() {
        let status = final_status
            .tenants
            .iter()
            .find(|t| t.tenant == *tenant)
            .expect("tenant still live");
        let reported = first_half[i].len() + second_half[i].len();
        assert_eq!(
            status.ticks,
            PHASES.iter().map(|(t, _)| *t as u64).sum::<u64>(),
            "{tenant}: every tick of the day landed"
        );
        assert_eq!(
            status.migrations, expected_migrations,
            "{tenant}: served loop migrates exactly like the library loop"
        );
        assert_eq!(
            reported as u64, expected_migrations,
            "{tenant}: every migration was reported to the client — none lost at the kill"
        );
        assert_eq!(
            status.plan.servers,
            reference.running().server_count() as u64,
            "{tenant}: same final deployment size as the reference"
        );
        assert_eq!(
            status.plan.rho,
            reference.predicted().rho,
            "{tenant}: bit-identical model state after replay"
        );

        // The journal itself is whole: strict read passes and records
        // exactly the migrations the clients saw.
        let records = Journal::read_strict(&dir.join(format!("{tenant}.jsonl")))
            .expect("a cleanly stopped daemon leaves no truncated tail");
        let checkpoints = records
            .iter()
            .filter(|r| matches!(r, Record::Migration { .. }))
            .count();
        assert_eq!(checkpoints as u64, expected_migrations);
    }

    // ---- Drain one tenant; its id frees, the others keep running.
    let archived = client.drain("acme").expect("drain is routine");
    assert!(archived.ends_with("acme.jsonl.drained"));
    let err = client.observe("acme", &PHASES[4].1, &[]).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownTenant);
    client
        .observe("globex", &PHASES[4].1, &[])
        .expect("unaffected");

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Warm-started replanning and the shared plan cache accelerate the
/// *search* only: a daemon with both on and a daemon with both off must
/// produce identical answers frame for frame — registration plans,
/// every tick outcome, every operator migration, and the final model
/// state (ρ compared by `==`, i.e. bit-equal for these values). Only
/// the `warm_replans` counter may differ, by design.
#[test]
fn warm_and_cache_ablation_is_answer_invariant() {
    let accel_dir = tmp_dir("ablation-accel");
    let cold_dir = tmp_dir("ablation-cold");
    let accel = Daemon::start(serve_config(&accel_dir)).expect("accelerated daemon boots");
    let mut cold_config = serve_config(&cold_dir);
    cold_config.warm_start = false;
    cold_config.plan_cache_capacity = 0;
    let cold = Daemon::start(cold_config).expect("ablated daemon boots");

    let mut fast = ServeClient::connect(accel.addr()).unwrap();
    let mut slow = ServeClient::connect(cold.addr()).unwrap();
    let tenants = ["acme", "globex"];
    for tenant in tenants {
        let a = fast
            .register(
                tenant,
                "grid2x30",
                &services3(),
                &PLANNED,
                &session_config(),
            )
            .expect("accelerated register");
        let b = slow
            .register(
                tenant,
                "grid2x30",
                &services3(),
                &PLANNED,
                &session_config(),
            )
            .expect("cold register");
        assert_eq!(a, b, "{tenant}: registration answers must match");
    }
    // The second tenant asked the exact question the first did: on the
    // accelerated daemon that is a cross-tenant exact cache hit; the
    // ablated daemon has no cache at all.
    assert!(
        fast.status().unwrap().cache.exact_hits >= 1,
        "globex's registration must hit acme's cached plan"
    );
    assert_eq!(slow.status().unwrap().cache.capacity, 0);

    // The scripted day, lock-step on both daemons.
    for (ticks, rates) in &PHASES {
        for _ in 0..*ticks {
            for tenant in tenants {
                let a = fast.observe(tenant, rates, &[]).expect("accelerated tick");
                let b = slow.observe(tenant, rates, &[]).expect("cold tick");
                assert_eq!(a, b, "{tenant}: tick outcomes must match");
            }
        }
    }
    // Steady-state operator replans: the first quiesces (and warms the
    // engine on the accelerated daemon), the ones after start warm there
    // — and must still answer exactly like the cold daemon.
    for _ in 0..3 {
        for tenant in tenants {
            let a = fast
                .migrate(tenant, &PHASES[4].1)
                .expect("accelerated replan");
            let b = slow.migrate(tenant, &PHASES[4].1).expect("cold replan");
            assert_eq!(a, b, "{tenant}: operator replans must match");
        }
    }

    let mut fast_tenants = fast.status().unwrap().tenants;
    let mut slow_tenants = slow.status().unwrap().tenants;
    fast_tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    slow_tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    for (warm, cold) in fast_tenants.iter().zip(&slow_tenants) {
        assert!(
            warm.warm_replans > 0,
            "{}: steady-state replans must reuse the warm engine",
            warm.tenant
        );
        assert_eq!(cold.warm_replans, 0, "ablated sessions never start warm");
        let mut masked = warm.clone();
        masked.warm_replans = 0;
        assert_eq!(
            &masked, cold,
            "everything but the warm counter must be identical"
        );
    }

    accel.stop();
    cold.stop();
    std::fs::remove_dir_all(&accel_dir).ok();
    std::fs::remove_dir_all(&cold_dir).ok();
}

#[test]
fn wire_errors_are_typed_not_dropped_connections() {
    let dir = tmp_dir("errors");
    let daemon = Daemon::start(serve_config(&dir)).expect("daemon boots");
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let services = services3();

    // Unknown platform.
    let err = client
        .register(
            "acme",
            "jupiter",
            &services,
            &PLANNED,
            &SessionConfig::default(),
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownPlatform);

    // Invalid demand (negative rate) → the library's DemandError.
    let err = client
        .register(
            "acme",
            "grid2x30",
            &services,
            &[1.0, -2.0, 0.4],
            &SessionConfig::default(),
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::BadDemand);

    // A real registration, then a duplicate claim.
    client
        .register(
            "acme",
            "grid2x30",
            &services,
            &PLANNED,
            &SessionConfig::default(),
        )
        .expect("first claim wins");
    let err = client
        .register(
            "acme",
            "grid2x30",
            &services,
            &PLANNED,
            &SessionConfig::default(),
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::TenantExists);

    // Unknown tenant, wrong arity, unknown method.
    let err = client.observe("nobody", &PHASES[0].1, &[]).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownTenant);
    let err = client.observe("acme", &[1.0], &[]).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadRequest);
    let err = client.call("levitate", Json::obj(vec![])).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownMethod);

    // A line that is not a frame at all answers a typed bad-frame
    // error (id 0) instead of killing the connection.
    let mut raw = std::net::TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    BufReader::new(raw.try_clone().unwrap())
        .read_line(&mut line)
        .unwrap();
    assert!(line.contains("\"bad-frame\""), "got: {line}");

    // A frame nested 20,000 deep is refused as bad-frame; it must not
    // overflow the stack of the thread parsing it.
    let mut deep = "[".repeat(20_000);
    deep.push('\n');
    raw.write_all(deep.as_bytes()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"bad-frame\""), "got: {line}");

    // A number literal past f64's finite range is bad-frame too: parsed
    // as infinity, it would be journaled as `null` and break the replay.
    for frame in [
        "{\"id\":7,\"method\":\"observe\",\"params\":{\"tenant\":\"acme\",\
         \"rates\":[1e999,0.5,0.4]}}\n",
        "{\"id\":8,\"method\":\"observe\",\"params\":{\"tenant\":\"acme\",\
         \"rates\":[1.0,0.5,0.4],\"executions\":[{\"service\":0,\"duration_s\":0.5,\
         \"power_mflops\":1e999}]}}\n",
    ] {
        raw.write_all(frame.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"bad-frame\""), "got: {line}");
    }

    // A line with no end is cut off past the frame cap: one bad-frame
    // answer, then the daemon closes that connection.
    let mut endless = std::net::TcpStream::connect(daemon.addr()).unwrap();
    endless
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    // The daemon may close while this write is still going; that is the
    // behaviour under test, not a failure.
    let _ = endless.write_all(&vec![b'x'; 2 << 20]);
    let mut reader = BufReader::new(endless);
    line.clear();
    reader
        .read_line(&mut line)
        .expect("an answer before the close");
    assert!(line.contains("\"bad-frame\""), "got: {line}");
    assert!(line.contains("\"id\":0"), "got: {line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("end of stream"), 0);

    // The session survived all of that.
    client
        .observe("acme", &PHASES[0].1, &[])
        .expect("still live");

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_recovery_edge_cases_are_typed_and_isolated() {
    let dir = tmp_dir("recovery");
    std::fs::create_dir_all(&dir).unwrap();

    // A corrupt journal and an empty one, planted before boot.
    std::fs::write(dir.join("ghost.jsonl"), "not a journal record\n").unwrap();
    std::fs::write(dir.join("hollow.jsonl"), "").unwrap();

    // A healthy tenant registered by a first daemon...
    {
        let daemon = Daemon::start(serve_config(&dir)).expect("daemon boots");
        let mut client = ServeClient::connect(daemon.addr()).unwrap();
        client
            .register(
                "acme",
                "grid2x30",
                &services3(),
                &PLANNED,
                &session_config(),
            )
            .expect("registration plans cleanly");
        client.observe("acme", &PHASES[0].1, &[]).unwrap();
        client.observe("acme", &PHASES[0].1, &[]).unwrap();
        daemon.stop();
    }
    // ...whose journal then loses the tail of its last append.
    {
        let path = dir.join("acme.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"record\":\"tick\",\"ra").unwrap();
    }

    // Reboot: the broken journals fail in isolation with typed codes,
    // the truncated one resumes minus its one unacknowledged tick.
    let daemon = Daemon::start(serve_config(&dir)).expect("daemon boots despite bad journals");
    let mut errors = daemon.resume_errors();
    errors.sort();
    assert_eq!(
        errors.len(),
        2,
        "ghost and hollow fail, acme resumes: {errors:?}"
    );
    assert_eq!(errors[0].0, "ghost");
    assert_eq!(errors[0].1, "journal-corrupt");
    assert_eq!(errors[1].0, "hollow");
    assert_eq!(errors[1].1, "journal-corrupt");

    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.tenants.len(), 1);
    assert_eq!(status.tenants[0].tenant, "acme");
    assert_eq!(
        status.tenants[0].ticks, 2,
        "the truncated third tick was never acknowledged and is dropped"
    );
    assert_eq!(status.resume_errors.len(), 2, "surfaced over the wire too");
    let outcome = client.observe("acme", &PHASES[0].1, &[]).unwrap();
    assert_eq!(outcome.tick, 3, "the dropped tick's number is reused");

    // A journal on disk blocks a live re-claim even when its session
    // failed to resume.
    let err = client
        .register(
            "ghost",
            "grid2x30",
            &services3(),
            &PLANNED,
            &session_config(),
        )
        .unwrap_err();
    assert_eq!(err.code, ErrorCode::JournalMismatch);
    daemon.stop();

    // A third boot: the resume cut the torn fragment off before the
    // acknowledged tick was appended, so acme resumes with all three.
    let daemon = Daemon::start(serve_config(&dir)).expect("daemon boots");
    let mut errors = daemon.resume_errors();
    errors.sort();
    let failed: Vec<&str> = errors.iter().map(|e| e.0.as_str()).collect();
    assert_eq!(
        failed,
        ["ghost", "hollow"],
        "acme resumes again: {errors:?}"
    );
    let status = ServeClient::connect(daemon.addr())
        .unwrap()
        .status()
        .unwrap();
    assert_eq!(status.tenants.len(), 1);
    assert_eq!(status.tenants[0].ticks, 3, "the acknowledged tick survives");
    daemon.stop();

    // Catalog drift: the same platform name with a different shape must
    // refuse acme's journal with a fingerprint mismatch, not replan on
    // hardware the journal never saw.
    let mut drifted = serve_config(&dir);
    drifted.platforms = vec![(
        "grid2x30".into(),
        generator::multi_site_grid(2, 29, MflopRate(400.0), MbitRate(100.0), MbitRate(10.0), 7),
    )];
    let daemon = Daemon::start(drifted).expect("daemon boots");
    let errors = daemon.resume_errors();
    let acme = errors.iter().find(|e| e.0 == "acme").expect("acme refused");
    assert_eq!(acme.1, "journal-mismatch");
    assert!(acme.2.contains("changed shape"), "got: {}", acme.2);

    daemon.stop();
    std::fs::remove_dir_all(&dir).ok();
}
