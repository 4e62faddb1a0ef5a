//! `planet-check`: protocol-aware static analysis for the PLANET workspace.
//!
//! The generic Rust toolchain cannot see the workspace's protocol
//! invariants: that every message variant sent has a handler on its role,
//! that the live-cluster runtime never takes a lock or blocks while holding
//! another, and that the simulation-deterministic crates never read a wall
//! clock. This crate is a small compiler-shaped pipeline that checks exactly
//! those protocol-specific properties and nothing else — and leaves to
//! rustc what rustc already proves (thread-safety of captures, exhaustive
//! codec matches), and to the tools that run the code what they already
//! check (the model checker's agreement and stability runs, the loom
//! models, the replay test). A code stays only while it has caught
//! something or no running tool owns its property. On top of the lexical
//! passes, a structural CFG + dataflow layer checks path-sensitive
//! properties: a one-shot timer's handler re-arms before inserting into
//! what only it reclaims (`time`), and no panic source is reachable from an
//! actor drive loop (`panic`). One workspace-wide call graph closes
//! reachability across files and crates: the `flow` pass proves every
//! message variant sent — timers included — has a handler, every request
//! reaches a reply or an armed timeout and every key-carrying send is
//! shard-routed, and the `race` pass finds locks and blocking calls
//! reachable while a lock guard is live.
//!
//! Architecture (front to back):
//!
//! * [`lexer`] — a hand-rolled Rust tokeniser (the workspace builds
//!   offline, so `syn` is unavailable); records `// check:allow(<lint>)`
//!   suppression markers.
//! * [`parse`] — structural recovery of the item shapes passes need: enums
//!   and their variants, function bodies as token ranges, struct fields with
//!   type text.
//! * [`cfg`](mod@cfg) — per-function control-flow graphs over the parser's token
//!   ranges plus a bitset must/may dataflow solver; [`callgraph`] is the
//!   one call graph, the workspace-wide [`callgraph::WorkspaceGraph`]
//!   (cross-file and cross-crate call resolution through `use` imports,
//!   qualified paths, and typed method receivers), which a one-file pass
//!   reads restricted to its file.
//! * [`model`] — the shared [`model::Workspace`] every pass reads, plus the
//!   [`model::Pass`] trait and pipeline driver.
//! * [`passes`] — the analyses: lexical (`determinism`), dataflow-based
//!   (`time`), and interprocedural (`panic`, `flow`, `race`, `sync`).
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
