//! Fixture-driven acceptance tests for the audit rules, plus the
//! self-check that the committed tree itself is audit-clean.
//!
//! The fixture files live in `crates/audit/fixtures/` (a directory the
//! workspace walk exempts, so committed fixtures can be deliberately
//! dirty); each test feeds one to [`scan_source`] under a non-exempt
//! display path and pins the exact diagnostics.

use adept_audit::{audit_workspace, find_workspace_root, scan_source, Rule, Violation};
use std::path::Path;

fn scan(fixture_src: &str) -> (Vec<Violation>, Vec<adept_audit::Allow>) {
    // A display path that is neither test-exempt nor unsafe-allowlisted.
    scan_source(Path::new("crates/fixture/src/lib.rs"), fixture_src)
}

fn lines_for(violations: &[Violation], rule: &str) -> Vec<usize> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

#[test]
fn dirty_fixture_flags_every_rule_with_file_line() {
    let (violations, allows) = scan(include_str!("../fixtures/dirty.rs"));
    assert!(allows.is_empty());
    assert_eq!(lines_for(&violations, "unwrap"), vec![9, 13]);
    assert_eq!(lines_for(&violations, "panic"), vec![17, 21, 25]);
    assert_eq!(lines_for(&violations, "dbg"), vec![29]);
    assert_eq!(lines_for(&violations, "unsafe"), vec![33]);
    assert_eq!(lines_for(&violations, "relaxed"), vec![37]);
    assert_eq!(violations.len(), 8);
    // Diagnostics render as clickable `file:line:col: [rule] ..`.
    let first = violations
        .iter()
        .find(|v| v.rule == "unwrap")
        .expect("unwrap violation")
        .to_string();
    assert!(
        first.starts_with("crates/fixture/src/lib.rs:9:"),
        "diagnostic should lead with file:line, got {first:?}"
    );
    assert!(first.contains("[unwrap]"), "got {first:?}");
}

#[test]
fn string_comment_and_lifetime_traps_do_not_fire() {
    let (violations, allows) = scan(include_str!("../fixtures/traps.rs"));
    assert!(
        violations.is_empty(),
        "trap fixture must scan clean, got: {violations:?}"
    );
    assert!(allows.is_empty());
}

#[test]
fn in_file_test_code_is_exempt() {
    let (violations, _) = scan(include_str!("../fixtures/test_exempt.rs"));
    assert!(
        violations.is_empty(),
        "cfg(test) fixture must scan clean, got: {violations:?}"
    );
}

#[test]
fn verified_markers_excuse_and_are_inventoried() {
    let (violations, allows) = scan(include_str!("../fixtures/markers.rs"));
    assert!(
        violations.is_empty(),
        "annotated fixture must scan clean, got: {violations:?}"
    );
    assert_eq!(allows.len(), 4);
    let file_level: Vec<_> = allows.iter().filter(|a| a.file_level).collect();
    assert_eq!(file_level.len(), 1);
    assert_eq!(file_level[0].rule, Rule::Relaxed);
    // The file-level marker excused both Relaxed sites.
    assert_eq!(file_level[0].uses, 2);
    // Every marker is used and carries a reason.
    assert!(allows.iter().all(|a| a.uses >= 1 && !a.why.is_empty()));
    assert_eq!(
        allows.iter().filter(|a| a.rule == Rule::Unwrap).count(),
        2,
        "same-line and whole-line unwrap markers both inventoried"
    );
}

#[test]
fn stale_and_malformed_markers_are_violations() {
    let (violations, allows) = scan(include_str!("../fixtures/bad_markers.rs"));
    assert!(allows.is_empty(), "no bad marker may reach the inventory");
    let marker_lines = lines_for(&violations, "marker");
    assert_eq!(
        marker_lines,
        vec![8, 13, 16, 19, 22],
        "each bad marker is flagged at its own line, got: {violations:?}"
    );
    assert_eq!(violations.len(), 5);
    let stale = &violations[0];
    assert!(
        stale.message.contains("stale") || stale.message.contains("covers no"),
        "line 8 is the stale marker, got {:?}",
        stale.message
    );
}

#[test]
fn markers_cannot_excuse_unsafe_outside_the_allowlist() {
    let (violations, allows) = scan(include_str!("../fixtures/unsafe_marked.rs"));
    assert!(allows.is_empty());
    assert_eq!(
        lines_for(&violations, "unsafe"),
        vec![6],
        "the marked unsafe block stays a violation: {violations:?}"
    );
    // ... and the impotent marker is therefore stale: a second finding.
    assert_eq!(lines_for(&violations, "marker"), vec![4]);
}

#[test]
fn unsafe_allowlisted_file_still_needs_markers() {
    let src = "pub fn f(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n";
    // Allowlisted path, no marker: the unsafe needs an annotation.
    let (violations, _) = scan_source(Path::new("vendor/interleave/src/sync.rs"), src);
    assert_eq!(lines_for(&violations, "unsafe"), vec![2]);

    let marked = "pub fn f(p: *const u32) -> u32 {\n    \
        // audit: allow(unsafe, \"fixture: p is checked by the caller\")\n    \
        unsafe { *p }\n}\n";
    let (violations, allows) = scan_source(Path::new("vendor/interleave/src/sync.rs"), marked);
    assert!(violations.is_empty(), "got: {violations:?}");
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].rule, Rule::Unsafe);
}

/// The acceptance gate from the issue: the committed tree is
/// audit-clean. Any un-annotated unwrap/panic/unsafe/Relaxed added
/// anywhere in the workspace turns this test red.
#[test]
fn committed_tree_is_audit_clean() {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = find_workspace_root(manifest_dir).expect("workspace root above crates/audit");
    let report = audit_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the tree must stay audit-clean; run `cargo run -p adept-audit -- check`:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk looks truncated: only {} files",
        report.files_scanned
    );
    assert!(
        report.allows.iter().all(|a| a.uses >= 1),
        "every allow marker in the tree must excuse at least one site"
    );
    // The inventory may only shrink unnoticed: a change that adds a
    // marker raises this bound in the same diff, where review sees it.
    assert!(
        report.allows.len() <= 51,
        "{} allow markers, above the committed bound of 51",
        report.allows.len()
    );
}
