//! Fixture-based coverage of the four passes, plus the two properties CI
//! actually leans on: the real workspace lints clean, and removing a
//! dispatch arm or a `REPLAY_POLICY` entry for a *real* request variant is
//! detected.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace tree
//! (same relative layout as the real one) seeded with exactly one class of
//! violation; the test asserts the expected pass fails with the expected
//! diagnostic at the expected file.

use ampc_lint::{run_pass, Diagnostic, Workspace};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("lint crate lives two levels under the workspace root")
}

fn fixture(name: &str) -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    Workspace::load(&root).expect("fixture tree loads")
}

fn run(ws: &Workspace, pass: &str) -> Vec<Diagnostic> {
    run_pass(pass, ws).expect("known pass name")
}

/// A diagnostic in `diags` matches `file` and every `needles` substring.
fn assert_finding(diags: &[Diagnostic], pass: &str, file: &str, needles: &[&str]) {
    let found = diags.iter().any(|d| {
        d.pass == pass && d.file.ends_with(file) && needles.iter().all(|n| d.message.contains(n))
    });
    assert!(
        found,
        "expected a [{pass}] finding in {file} containing {needles:?}; got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

// ---------------------------------------------------------------------------
// proto-conformance
// ---------------------------------------------------------------------------

#[test]
fn unhandled_variant_fails_proto_conformance() {
    let ws = fixture("unhandled_variant");
    let diags = run(&ws, "proto-conformance");
    assert_finding(
        &diags,
        "proto-conformance",
        "transport/dispatch.rs",
        &["Request::Advance", "no match arm"],
    );
    assert_eq!(diags.len(), 1, "exactly the seeded violation: {diags:?}");
}

#[test]
fn duplicate_and_orphaned_tags_fail_proto_conformance() {
    let ws = fixture("bad_tags");
    let diags = run(&ws, "proto-conformance");
    assert_finding(
        &diags,
        "proto-conformance",
        "proto.rs",
        &["duplicate request wire tag value 0"],
    );
    assert_finding(
        &diags,
        "proto-conformance",
        "proto.rs",
        &["unpaired wire tag `TAG_ORPHAN`"],
    );
}

#[test]
fn unclassified_request_fails_proto_conformance() {
    let ws = fixture("unclassified_request");
    let diags = run(&ws, "proto-conformance");
    assert_finding(
        &diags,
        "proto-conformance",
        "proto.rs",
        &["Request::Advance", "missing from REPLAY_POLICY"],
    );
    assert_eq!(diags.len(), 1, "exactly the seeded violation: {diags:?}");
}

// ---------------------------------------------------------------------------
// panic-path
// ---------------------------------------------------------------------------

#[test]
fn naked_unwrap_fails_panic_path() {
    let ws = fixture("naked_unwrap");
    let diags = run(&ws, "panic-path");
    assert_finding(
        &diags,
        "panic-path",
        "store.rs",
        &["unwrap()", "production path"],
    );
    assert_finding(
        &diags,
        "panic-path",
        "store.rs",
        &["missing its justification"],
    );
    // The justified allow, the `unwrap_or`, and the `#[cfg(test)]` helper
    // must all stay silent.
    assert_eq!(diags.len(), 2, "exactly the seeded violations: {diags:?}");
    let naked = diags
        .iter()
        .find(|d| d.message.contains("production path"))
        .expect("asserted above");
    assert_eq!(naked.line, 2, "the naked unwrap is on line 2");
}

// ---------------------------------------------------------------------------
// const-consistency
// ---------------------------------------------------------------------------

#[test]
fn drifted_constants_fail_const_consistency() {
    let ws = fixture("const_drift");
    let diags = run(&ws, "const-consistency");
    assert_finding(
        &diags,
        "const-consistency",
        "transport/dispatch.rs",
        &["COMMIT_REPLAY_WINDOW (100)", "2 × PIPELINE_DEPTH (64)"],
    );
    assert_finding(
        &diags,
        "const-consistency",
        "transport/session.rs",
        &["MAX_PIPELINE (128)", "COMMIT_REPLAY_WINDOW (100)"],
    );
    assert_finding(
        &diags,
        "const-consistency",
        "transport/codec.rs",
        &["MAX_RETAINED_FRAME_BYTES", "MAX_FRAME_BYTES"],
    );
}

// ---------------------------------------------------------------------------
// blocking-discipline
// ---------------------------------------------------------------------------

#[test]
fn sleep_in_dispatch_fails_blocking_discipline() {
    let ws = fixture("sleep_in_dispatch");
    let diags = run(&ws, "blocking-discipline");
    assert_finding(
        &diags,
        "blocking-discipline",
        "transport/dispatch.rs",
        &["thread::sleep"],
    );
    assert_eq!(diags.len(), 1, "exactly the seeded violation: {diags:?}");
}

// ---------------------------------------------------------------------------
// The real workspace
// ---------------------------------------------------------------------------

#[test]
fn real_workspace_is_clean() {
    let diags = ampc_lint::run_all(&repo_root()).expect("workspace loads");
    assert!(
        diags.is_empty(),
        "the checked-in workspace must lint clean:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn real_sources() -> (String, String) {
    let root = repo_root();
    let proto = std::fs::read_to_string(root.join("crates/dds/src/proto.rs")).expect("proto.rs");
    let dispatch = std::fs::read_to_string(root.join("crates/dds/src/transport/dispatch.rs"))
        .expect("dispatch.rs");
    (proto, dispatch)
}

/// Acceptance criterion: deleting a `REPLAY_POLICY` entry for an existing
/// variant from the *real* proto.rs makes proto-conformance fail.
#[test]
fn removing_a_real_replay_policy_entry_is_detected() {
    let (proto, dispatch) = real_sources();
    let entry = "(RequestKind::Dump, ReplayPolicy::Pure),";
    assert_eq!(proto.matches(entry).count(), 1, "entry present to delete");
    let mutated = proto.replace(entry, "");
    let ws = Workspace::from_files([
        ("crates/dds/src/proto.rs", mutated.as_str()),
        ("crates/dds/src/transport/dispatch.rs", dispatch.as_str()),
    ]);
    let diags = run(&ws, "proto-conformance");
    assert_finding(
        &diags,
        "proto-conformance",
        "proto.rs",
        &["Request::Dump", "missing from REPLAY_POLICY"],
    );
}

/// Acceptance criterion: deleting (here: renaming away) a dispatch match
/// arm for an existing variant from the *real* dispatch.rs makes
/// proto-conformance fail.
#[test]
fn removing_a_real_dispatch_arm_is_detected() {
    let (proto, dispatch) = real_sources();
    let arm = "Request::Loads { epoch }";
    assert!(dispatch.contains(arm), "arm present to remove");
    let mutated = dispatch.replace("Request::Loads", "Request::LoadsGone");
    let ws = Workspace::from_files([
        ("crates/dds/src/proto.rs", proto.as_str()),
        ("crates/dds/src/transport/dispatch.rs", mutated.as_str()),
    ]);
    let diags = run(&ws, "proto-conformance");
    assert_finding(
        &diags,
        "proto-conformance",
        "transport/dispatch.rs",
        &["Request::Loads", "no match arm"],
    );
}

/// The binary's contract: nonzero exit plus file:line diagnostics on a
/// seeded fixture, zero on the real tree.
#[test]
fn cli_exit_codes_match_findings() {
    let lint = env!("CARGO_BIN_EXE_ampc-lint");
    let fixture_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/naked_unwrap");

    let bad = std::process::Command::new(lint)
        .args(["--root", fixture_root.to_str().expect("utf-8 path")])
        .output()
        .expect("run ampc-lint");
    assert_eq!(bad.status.code(), Some(1), "findings exit 1");
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("store.rs:2: [panic-path]"),
        "file:line diagnostics on stdout, got:\n{stdout}"
    );

    let clean = std::process::Command::new(lint)
        .args(["--root", repo_root().to_str().expect("utf-8 path")])
        .output()
        .expect("run ampc-lint");
    assert_eq!(clean.status.code(), Some(0), "clean tree exits 0");
}
