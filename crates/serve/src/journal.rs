//! Append-only per-tenant tick journals.
//!
//! Each tenant session owns one JSONL file, `<dir>/<tenant>.jsonl`. The
//! first record registers the session (platform name + structural
//! fingerprint, service mix, initial demand, policy config); every
//! subsequent record is one input the session consumed — an observed
//! tick or an operator replan — plus `migration` checkpoints recording
//! what each executed round did.
//!
//! The write discipline is **write-ahead**: an input record is appended
//! and flushed to the OS *before* the controller consumes it, and the
//! wire response is sent only after the round's records (its
//! `migration` record too, if any) are flushed. A daemon process killed
//! at any point therefore loses at most the one tick whose response was
//! never acknowledged. Nothing calls `fsync`: an acknowledged tick
//! survives a killed daemon but not an OS crash or a power loss, which
//! can drop records still in the page cache (syncing is ROADMAP
//! direction 4).
//!
//! Resume is **deterministic replay**: the whole stack underneath —
//! planner, reviser, and GoDiet's seeded failure injection — is
//! deterministic, so re-feeding the journaled inputs rebuilds the exact
//! controller state, with no planner state ever serialized. The
//! journaled `migration` records are not inputs; they are the
//! cross-check that replay reproduced history (see
//! [`JournalError::ReplayDivergence`]).
//!
//! Two read modes: [`read_strict`](Journal::read_strict) surfaces a
//! truncated tail as [`JournalError::TruncatedTail`]; the daemon
//! resumes with [`read_lenient`](Journal::read_lenient), which drops a
//! partial final line (crash mid-append) but still refuses interior
//! corruption. A resumed session then reopens the file with
//! [`open_append`](Journal::open_append), which cuts that partial line
//! off before the first append, so the next record starts a line of its
//! own.

use crate::error::JournalError;
use crate::json::Json;
use crate::wire::{
    self, demand_field, demand_json, executions_field, executions_json, f64_array, num_array_json,
    services_json, ServiceDef, SessionConfig,
};
use adept_control::controller::ExecutionSample;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The session header: everything needed to rebuild tick 0.
    Register {
        /// Tenant id (must match the file name).
        tenant: String,
        /// Catalog platform the session deploys on.
        platform: String,
        /// Structural fingerprint of that platform at registration.
        fingerprint: u64,
        /// The declared service mix.
        services: Vec<ServiceDef>,
        /// The initial demand the first deployment was planned for.
        demand: Vec<f64>,
        /// Session policy.
        config: SessionConfig,
    },
    /// One observed control interval (input).
    Tick {
        /// Observed per-service demand rates.
        rates: Vec<f64>,
        /// Observed executions.
        executions: Vec<ExecutionSample>,
    },
    /// One operator-initiated replan round (input).
    Replan {
        /// The demand the operator asked to replan for (`INFINITY` =
        /// unbounded).
        demand: Vec<f64>,
    },
    /// Checkpoint: the round just consumed executed this migration.
    /// Replay must reproduce these exactly, in order.
    Migration {
        /// 1-based migration number within the session.
        seq: u64,
        /// Tick counter when it ran.
        tick: u64,
        /// Tree-level changes of the round.
        changes: u64,
        /// Server count after the migration.
        servers_after: u64,
    },
    /// The session was drained cleanly; nothing follows.
    Drain,
}

impl Record {
    /// Encodes the record as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Record::Register {
                tenant,
                platform,
                fingerprint,
                services,
                demand,
                config,
            } => Json::obj(vec![
                ("record", Json::str("register")),
                ("tenant", Json::str(tenant)),
                ("platform", Json::str(platform)),
                ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
                ("services", services_json(services)),
                ("demand", demand_json(demand)),
                ("config", config.to_json()),
            ]),
            Record::Tick { rates, executions } => Json::obj(vec![
                ("record", Json::str("tick")),
                ("rates", num_array_json(rates)),
                ("executions", executions_json(executions)),
            ]),
            Record::Replan { demand } => Json::obj(vec![
                ("record", Json::str("replan")),
                ("demand", demand_json(demand)),
            ]),
            Record::Migration {
                seq,
                tick,
                changes,
                servers_after,
            } => Json::obj(vec![
                ("record", Json::str("migration")),
                ("seq", Json::num(*seq as f64)),
                ("tick", Json::num(*tick as f64)),
                ("changes", Json::num(*changes as f64)),
                ("servers_after", Json::num(*servers_after as f64)),
            ]),
            Record::Drain => Json::obj(vec![("record", Json::str("drain"))]),
        }
    }

    /// Parses one journal line (1-based `line` for error reporting).
    pub fn parse(text: &str, line: usize) -> Result<Record, JournalError> {
        let corrupt = |detail: String| JournalError::Corrupt { line, detail };
        let v = Json::parse(text).map_err(&corrupt)?;
        let kind = v
            .get("record")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("no string \"record\" field".into()))?;
        match kind {
            "register" => {
                let fp_hex = v
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt("register record has no fingerprint".into()))?;
                let fingerprint = u64::from_str_radix(fp_hex, 16)
                    .map_err(|e| corrupt(format!("bad fingerprint {fp_hex:?}: {e}")))?;
                Ok(Record::Register {
                    tenant: wire::str_field(&v, "tenant").map_err(|e| corrupt(e.to_string()))?,
                    platform: wire::str_field(&v, "platform")
                        .map_err(|e| corrupt(e.to_string()))?,
                    fingerprint,
                    services: wire::services_field(&v, "services")
                        .map_err(|e| corrupt(e.to_string()))?,
                    demand: demand_field(&v, "demand").map_err(|e| corrupt(e.to_string()))?,
                    config: SessionConfig::from_json(
                        v.get("config").unwrap_or(&Json::Obj(Vec::new())),
                    )
                    .map_err(|e| corrupt(e.to_string()))?,
                })
            }
            "tick" => Ok(Record::Tick {
                rates: f64_array(&v, "rates").map_err(|e| corrupt(e.to_string()))?,
                executions: executions_field(&v).map_err(|e| corrupt(e.to_string()))?,
            }),
            "replan" => Ok(Record::Replan {
                demand: demand_field(&v, "demand").map_err(|e| corrupt(e.to_string()))?,
            }),
            "migration" => Ok(Record::Migration {
                seq: wire::u64_field(&v, "seq").map_err(|e| corrupt(e.to_string()))?,
                tick: wire::u64_field(&v, "tick").map_err(|e| corrupt(e.to_string()))?,
                changes: wire::u64_field(&v, "changes").map_err(|e| corrupt(e.to_string()))?,
                servers_after: wire::u64_field(&v, "servers_after")
                    .map_err(|e| corrupt(e.to_string()))?,
            }),
            "drain" => Ok(Record::Drain),
            other => Err(corrupt(format!("unknown record kind {other:?}"))),
        }
    }
}

/// The append side of one tenant's journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

/// The journal file path for a tenant id.
pub fn journal_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.jsonl"))
}

impl Journal {
    /// Creates a **new** journal for `tenant` and writes `register` as
    /// its first record.
    ///
    /// # Errors
    /// [`JournalError::AlreadyClaimed`] when a journal file for this
    /// tenant already exists (a drained journal is archived under
    /// another name and does not block); [`JournalError::Io`] on
    /// filesystem failure.
    pub fn create(dir: &Path, tenant: &str, register: &Record) -> Result<Journal, JournalError> {
        std::fs::create_dir_all(dir).map_err(|e| JournalError::Io(e.to_string()))?;
        let path = journal_path(dir, tenant);
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::AlreadyExists {
                    JournalError::AlreadyClaimed {
                        tenant: tenant.to_string(),
                    }
                } else {
                    JournalError::Io(e.to_string())
                }
            })?;
        let mut journal = Journal { path, file };
        journal.append(register)?;
        Ok(journal)
    }

    /// Reopens an existing journal for appending (after a resume).
    ///
    /// A crash mid-append leaves a final line with no newline. Before the
    /// first append, that line is settled by the rule
    /// [`read_lenient`](Journal::read_lenient) reads it with: a line that
    /// parses as a record gets its newline, any other is cut off. Without
    /// this, the next record would extend the fragment's line, and the
    /// next resume would find a corrupt interior record.
    ///
    /// # Errors
    /// [`JournalError::Io`] when the file cannot be opened or repaired.
    pub fn open_append(path: &Path) -> Result<Journal, JournalError> {
        let io = |e: std::io::Error| JournalError::Io(e.to_string());
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        let end = file.seek(SeekFrom::End(0)).map_err(io)?;
        let start = last_line_start(&mut file, end).map_err(io)?;
        if start < end {
            let mut fragment = String::new();
            file.seek(SeekFrom::Start(start)).map_err(io)?;
            let kept =
                file.read_to_string(&mut fragment).is_ok() && Record::parse(&fragment, 0).is_ok();
            if kept {
                file.write_all(b"\n").and_then(|()| file.flush())
            } else {
                file.set_len(start)
            }
            .map_err(io)?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS — the write-ahead
    /// step. Returns only once the line is out of process buffers.
    ///
    /// # Errors
    /// [`JournalError::Io`] on write failure.
    pub fn append(&mut self, record: &Record) -> Result<(), JournalError> {
        let mut line = record.to_json().to_string();
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| JournalError::Io(e.to_string()))
    }

    /// Archives the journal as `<path>.drained`, consuming the handle.
    /// The tenant id becomes claimable again.
    ///
    /// # Errors
    /// [`JournalError::Io`] when the rename fails.
    pub fn archive_drained(self) -> Result<PathBuf, JournalError> {
        let mut archived = self.path.clone().into_os_string();
        archived.push(".drained");
        let archived = PathBuf::from(archived);
        std::fs::rename(&self.path, &archived).map_err(|e| JournalError::Io(e.to_string()))?;
        Ok(archived)
    }

    /// Reads every record, refusing any damage: a partial final line is
    /// [`JournalError::TruncatedTail`], an unreadable interior line is
    /// [`JournalError::Corrupt`], an empty file is
    /// [`JournalError::Empty`]. The manual-recovery read
    /// (`docs/OPERATIONS.md`).
    ///
    /// # Errors
    /// As above, plus [`JournalError::Io`] on read failure.
    pub fn read_strict(path: &Path) -> Result<Vec<Record>, JournalError> {
        let (records, truncated) = Self::read_inner(path)?;
        if let Some(line) = truncated {
            return Err(JournalError::TruncatedTail { line });
        }
        Ok(records)
    }

    /// Reads every intact record, dropping a partial final line. The
    /// resume read: losing the tail record is losing one never-
    /// acknowledged tick, which the write-ahead discipline permits.
    /// Interior corruption is still refused — an append-only writer
    /// cannot produce it, so it is never safe to skip.
    ///
    /// Returns the records and the 1-based line number of the dropped
    /// tail, if one was dropped.
    ///
    /// # Errors
    /// [`JournalError::Empty`], [`JournalError::Corrupt`], or
    /// [`JournalError::Io`].
    pub fn read_lenient(path: &Path) -> Result<(Vec<Record>, Option<usize>), JournalError> {
        Self::read_inner(path)
    }

    fn read_inner(path: &Path) -> Result<(Vec<Record>, Option<usize>), JournalError> {
        let text = std::fs::read_to_string(path).map_err(|e| JournalError::Io(e.to_string()))?;
        // A complete journal ends with '\n'; anything after the last
        // newline is a partial append. A final fragment that still
        // parses lost only its newline and is kept.
        let mut records = Vec::new();
        let mut truncated = None;
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.is_empty() {
                continue;
            }
            let is_tail_fragment = i == lines.len() - 1 && !text.ends_with('\n');
            match Record::parse(line, i + 1) {
                Ok(r) => records.push(r),
                Err(e) if is_tail_fragment => {
                    debug_assert!(matches!(e, JournalError::Corrupt { .. }));
                    truncated = Some(i + 1);
                }
                Err(e) => return Err(e),
            }
        }
        if records.is_empty() && truncated.is_none() {
            return Err(JournalError::Empty {
                path: path.display().to_string(),
            });
        }
        Ok((records, truncated))
    }
}

/// The offset just past the last newline before `end`, or 0 when there
/// is none: where the file's final line starts. Reads backwards in 4 KiB
/// blocks, so only the final line is read.
fn last_line_start(file: &mut File, end: u64) -> std::io::Result<u64> {
    let mut block = [0u8; 4096];
    let mut pos = end;
    while pos > 0 {
        let len = pos.min(block.len() as u64) as usize;
        pos -= len as u64;
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(&mut block[..len])?;
        if let Some(i) = block[..len].iter().rposition(|&b| b == b'\n') {
            return Ok(pos + i as u64 + 1);
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adept_platform::{MflopRate, Seconds};

    fn register_record() -> Record {
        Record::Register {
            tenant: "t1".into(),
            platform: "lyon".into(),
            fingerprint: 0xdead_beef_0042_1111,
            services: vec![ServiceDef {
                name: "dgemm-310".into(),
                wapp_mflop: 59.6,
                weight: 2.0,
            }],
            demand: vec![1.5, f64::INFINITY],
            config: SessionConfig::default(),
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adept-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_roundtrip_line_by_line() {
        let records = [
            register_record(),
            Record::Tick {
                rates: vec![1.0, 0.25],
                executions: vec![ExecutionSample {
                    service: 1,
                    duration: Seconds(0.75),
                    power: MflopRate(400.0),
                }],
            },
            Record::Replan {
                demand: vec![2.0, f64::INFINITY],
            },
            Record::Migration {
                seq: 1,
                tick: 4,
                changes: 3,
                servers_after: 12,
            },
            Record::Drain,
        ];
        for r in &records {
            let line = r.to_json().to_string();
            assert_eq!(&Record::parse(&line, 1).unwrap(), r);
        }
    }

    #[test]
    fn append_then_strict_read_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let mut journal = Journal::create(&dir, "t1", &register_record()).unwrap();
        let tick = Record::Tick {
            rates: vec![1.0],
            executions: vec![],
        };
        journal.append(&tick).unwrap();
        let read = Journal::read_strict(journal.path()).unwrap();
        assert_eq!(read, vec![register_record(), tick]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_create_is_already_claimed() {
        let dir = tmp_dir("claimed");
        let _journal = Journal::create(&dir, "t1", &register_record()).unwrap();
        let err = Journal::create(&dir, "t1", &register_record()).unwrap_err();
        assert_eq!(
            err,
            JournalError::AlreadyClaimed {
                tenant: "t1".into()
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_strict_vs_lenient() {
        let dir = tmp_dir("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "t1");
        let good = register_record().to_json().to_string();
        std::fs::write(&path, format!("{good}\n{{\"record\":\"tick\",\"ra")).unwrap();
        assert_eq!(
            Journal::read_strict(&path).unwrap_err(),
            JournalError::TruncatedTail { line: 2 }
        );
        let (records, dropped) = Journal::read_lenient(&path).unwrap();
        assert_eq!(records, vec![register_record()]);
        assert_eq!(dropped, Some(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_settles_a_torn_final_line_before_appending() {
        let dir = tmp_dir("reopen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "t1");
        let good = register_record().to_json().to_string();
        let tick = Record::Tick {
            rates: vec![1.0],
            executions: vec![],
        };
        // A partial record is cut off; a whole record that lost only its
        // newline is kept and terminated; a clean file is left alone. A
        // register line longer than one 4 KiB block exercises the
        // backwards read.
        let long = Record::Register {
            tenant: "t1".into(),
            platform: "lyon".into(),
            fingerprint: 7,
            services: vec![
                ServiceDef {
                    name: "x".repeat(5000),
                    wapp_mflop: 1.0,
                    weight: 1.0,
                };
                2
            ],
            demand: vec![1.0, 1.0],
            config: SessionConfig::default(),
        }
        .to_json()
        .to_string();
        for (before, want) in [
            (
                format!("{good}\n{{\"record\":\"tick\",\"ra"),
                vec![register_record()],
            ),
            (good.clone(), vec![register_record()]),
            (format!("{good}\n"), vec![register_record()]),
            (
                format!("{long}\n{{\"rec"),
                vec![Record::parse(&long, 1).unwrap()],
            ),
            (long.clone(), vec![Record::parse(&long, 1).unwrap()]),
        ] {
            std::fs::write(&path, &before).unwrap();
            let mut journal = Journal::open_append(&path).unwrap();
            journal.append(&tick).unwrap();
            let mut want = want;
            want.push(tick.clone());
            assert_eq!(Journal::read_strict(&path).unwrap(), want, "{before:.60}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_corruption_is_refused_in_both_modes() {
        let dir = tmp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "t1");
        let good = register_record().to_json().to_string();
        std::fs::write(&path, format!("{good}\nnot json at all\n{good}\n")).unwrap();
        for result in [
            Journal::read_strict(&path),
            Journal::read_lenient(&path).map(|(r, _)| r),
        ] {
            match result.unwrap_err() {
                JournalError::Corrupt { line, .. } => assert_eq!(line, 2),
                other => panic!("want Corrupt, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_journal_is_a_typed_error() {
        let dir = tmp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, "t1");
        std::fs::write(&path, "").unwrap();
        assert!(matches!(
            Journal::read_strict(&path).unwrap_err(),
            JournalError::Empty { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drained_archive_frees_the_tenant_id() {
        let dir = tmp_dir("drain");
        let mut journal = Journal::create(&dir, "t1", &register_record()).unwrap();
        journal.append(&Record::Drain).unwrap();
        let archived = journal.archive_drained().unwrap();
        assert!(archived.to_string_lossy().ends_with("t1.jsonl.drained"));
        assert!(!journal_path(&dir, "t1").exists());
        // The id is claimable again.
        let _journal = Journal::create(&dir, "t1", &register_record()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
