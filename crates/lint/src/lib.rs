//! # ampc-lint — workspace-native static analysis
//!
//! The correctness story of this workspace rests on invariants no compiler
//! checks: every `proto::Request` variant needs a dispatch handler *and* a
//! declared replay policy (the idempotent-replay guarantee), wire tags must
//! stay bijective per direction, transport constants must agree across
//! files, and production paths must not panic.  With no registry
//! available, the analyzer is built in-tree — a hand-rolled lexer and
//! item-parser (no `syn`), the same philosophy as `crates/compat/` — and
//! run as `cargo run -p ampc-lint` locally and in CI.
//!
//! Four passes:
//!
//! | pass | invariant |
//! |---|---|
//! | [`passes::proto_conformance`] | protocol closure: variant ⇄ tag ⇄ dispatch arm ⇄ `REPLAY_POLICY` entry |
//! | [`passes::panic_path`] | no `unwrap`/`expect`/`panic!`/`unimplemented!`/`todo!` outside `#[cfg(test)]`, allowlist requires a reason |
//! | [`passes::const_consistency`] | dedup window ≥ 2×pipeline depth, frame caps identical across files |
//! | [`passes::blocking`] | no sleeps/unbounded reads in dispatch/serve loops outside annotated backoff |
//!
//! Findings print as `file:line: [pass] message`; any finding is a nonzero
//! exit, which is the CI gate.

pub mod diag;
pub mod parse;
pub mod passes;
pub mod source;
pub mod workspace;

pub use diag::Diagnostic;
pub use workspace::Workspace;

use std::path::Path;

/// Names of all passes, in execution order.
pub const PASS_NAMES: [&str; 4] = [
    passes::proto_conformance::NAME,
    passes::panic_path::NAME,
    passes::const_consistency::NAME,
    passes::blocking::NAME,
];

/// Run the pass called `name` over a loaded workspace.  `None` for an
/// unknown name.
pub fn run_pass(name: &str, ws: &Workspace) -> Option<Vec<Diagnostic>> {
    let mut diags = match name {
        passes::proto_conformance::NAME => passes::proto_conformance::run(ws),
        passes::panic_path::NAME => passes::panic_path::run(ws),
        passes::const_consistency::NAME => passes::const_consistency::run(ws),
        passes::blocking::NAME => passes::blocking::run(ws),
        _ => return None,
    };
    diags.sort();
    Some(diags)
}

/// Run every pass over the workspace rooted at `root`.
pub fn run_all(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let ws = Workspace::load(root)?;
    let mut diags = Vec::new();
    for name in PASS_NAMES {
        diags.extend(run_pass(name, &ws).into_iter().flatten());
    }
    Ok(diags)
}
