//! An `observe` whose rate literal overflows `f64` (`1e999`) must be
//! refused before it reaches the journal. Before the parser refused such
//! literals, the daemon acknowledged the tick and journaled the infinite
//! rate as `null`, which replay refused, so the tenant was lost at the
//! next start. This test restarts the daemon on the journal to check
//! that half of the fix.

use adept_platform::generator;
use adept_serve::{Daemon, Json, Record, ServeClient, ServeConfig, ServiceDef, SessionConfig};
use std::io::{BufRead, BufReader, Write};

fn config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig::new(
        "127.0.0.1:0",
        dir.to_path_buf(),
        vec![("lyon8".into(), generator::lyon_cluster(8))],
    )
}

#[test]
fn infinite_observe_rate_is_refused_and_never_journaled() {
    let dir = std::env::temp_dir().join(format!("adept-inf-rate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(config(&dir)).unwrap();
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let services = [ServiceDef {
        name: "s".into(),
        wapp_mflop: 59.6,
        weight: 1.0,
    }];
    client
        .register("t1", "lyon8", &services, &[1.0], &SessionConfig::default())
        .unwrap();

    // A raw frame: the client library never writes such a literal.
    let mut raw = std::net::TcpStream::connect(daemon.addr()).unwrap();
    raw.write_all(
        b"{\"id\":1,\"method\":\"observe\",\"params\":{\"tenant\":\"t1\",\"rates\":[1e999]}}\n",
    )
    .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    let resp = Json::parse(resp.trim_end()).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "{resp:?}"
    );
    let code = resp
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("bad-frame"), "{resp:?}");
    drop(reader);
    drop(raw);
    daemon.stop();

    let journal = std::fs::read_to_string(dir.join("t1.jsonl")).unwrap();
    let records: Vec<Record> = journal
        .lines()
        .enumerate()
        .map(|(i, line)| Record::parse(line, i + 1).unwrap())
        .collect();
    assert_eq!(records.len(), 1, "journal:\n{journal}");
    assert!(
        matches!(&records[0], Record::Register { tenant, .. } if tenant == "t1"),
        "journal:\n{journal}"
    );

    let daemon = Daemon::start(config(&dir)).unwrap();
    assert!(
        daemon.resume_errors().is_empty(),
        "{:?}",
        daemon.resume_errors()
    );
    let mut client = ServeClient::connect(daemon.addr()).unwrap();
    let status = client.status().unwrap();
    assert_eq!(
        status
            .tenants
            .iter()
            .map(|t| t.tenant.as_str())
            .collect::<Vec<_>>(),
        ["t1"]
    );
    client.observe("t1", &[1.0], &[]).unwrap();
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
