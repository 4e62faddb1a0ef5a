//! `planet-check`: protocol-aware static analysis for the PLANET workspace.
//!
//! The generic Rust toolchain cannot see the workspace's protocol
//! invariants: that transaction handlers only produce legal state-machine
//! edges, that the live-cluster runtime acquires its locks in one global
//! order, and that the simulation-deterministic crates never read a wall
//! clock. This crate is a small compiler-shaped pipeline that checks exactly
//! those protocol-specific properties and nothing else. On top of the
//! lexical passes, a structural CFG + dataflow layer checks path-sensitive
//! properties: every quorum wait reaches a timeout edge (`time`), progress
//! callbacks never block the drive loop (`callback`), and no panic source
//! is reachable from an actor drive loop (`panic`). Since v3 the pipeline
//! is interprocedural: a workspace-wide call graph closes reachability
//! across files and crates, the `flow` pass proves every message variant
//! sent has a handler and every request reaches a reply or an armed
//! timeout, and the `race` pass finds actor state escaping node threads
//! and blocking calls reachable while a lock is held.
//!
//! Architecture (front to back):
//!
//! * [`lexer`] — a hand-rolled Rust tokeniser (the workspace builds
//!   offline, so `syn` is unavailable); records `// check:allow(<lint>)`
//!   suppression markers.
//! * [`parse`] — structural recovery of the item shapes passes need: enums
//!   and their variants, function bodies as token ranges, struct fields with
//!   type text.
//! * [`cfg`] — per-function control-flow graphs over the parser's token
//!   ranges plus a bitset must/may dataflow solver; [`callgraph`] adds
//!   file-local call resolution and, since v3, the workspace-wide
//!   interprocedural [`callgraph::WorkspaceGraph`] (cross-file and
//!   cross-crate call resolution through `use` imports, qualified paths,
//!   and typed method receivers).
//! * [`model`] — the shared [`model::Workspace`] every pass reads, plus the
//!   [`model::Pass`] trait and pipeline driver.
//! * [`passes`] — the analyses: lexical (`state`, `locks`, `determinism`),
//!   dataflow-based (`time`), and interprocedural (`callback`, `panic`,
//!   `flow`, `race`).
//! * [`diag`] — span-carrying diagnostics with stable codes, rendered as a
//!   compiler-style text report or JSON for CI.
//! * [`baseline`] — findings snapshots so new passes can ship strict while
//!   CI fails only on findings *not* in the committed baseline.
//!
//! Adding a pass is: implement [`model::Pass`], register it in
//! [`model::all_passes`]. Passes are pure functions of the workspace model,
//! so fixture tests drive them with in-memory sources via
//! [`model::Workspace::from_sources`].

pub mod baseline;
pub mod callgraph;
pub mod cfg;
pub mod diag;
pub mod lexer;
pub mod model;
pub mod parse;
pub mod passes;

pub use diag::{Diagnostic, Severity};
pub use model::{all_passes, run_passes, run_passes_timed, Pass, PassTiming, Workspace};
