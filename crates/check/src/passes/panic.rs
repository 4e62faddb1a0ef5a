//! Panic-reachability lints: no panic source may be reachable from an
//! actor drive loop.
//!
//! A panic inside `Actor::on_message` tears down the whole single-threaded
//! simulation; live, it kills a reactor worker and every task homed on it
//! goes dark without the failure-injection machinery ever seeing it. The
//! drive loops are the roots ([`SCOPES`]):
//!
//! * `crates/mdcc/src`: every `on_message` / `on_start` body (the actor
//!   handlers `planet_sim::drive` calls).
//! * `crates/cluster/src`: `run_worker` / `drive_task` (the reactor's
//!   worker loop and the per-task drive every live actor runs under).
//!
//! Reachability is **workspace-wide**: the roots are closed over the
//! interprocedural call graph ([`crate::callgraph::WorkspaceGraph`]), so an
//! `unwrap` three calls deep in `planet-storage` that `drive_task` can reach
//! through `on_message` fires here, in the file where it lives. Each
//! diagnostic carries the witness call chain from the root.
//!
//! Codes:
//!
//! * **PANIC001** — `.unwrap()` / `.expect(..)` reachable from a root.
//! * **PANIC002** — slice/array indexing (`x[i]`, which panics out of
//!   bounds) or an explicit `panic!` / `unreachable!` / `todo!` /
//!   `unimplemented!` reachable from a root.
//!
//! `assert!`-family macros are deliberately *not* flagged: a failed
//! invariant assertion is a bug the protocol wants loud, whereas an
//! `unwrap` on a lookup is a latent crash on a legal-but-unexpected
//! message. Arithmetic overflow is also out of scope (release builds wrap;
//! debug panics there are covered by the assert rationale). An
//! `.unwrap()`/`.expect(..)` directly on a `.lock()`/`.read()`/`.write()`
//! result is also exempt: a poisoned lock means another thread already
//! panicked, and propagating that teardown is the intended behavior, not a
//! latent crash. Sites that are provably in-bounds (e.g. indexing a layout
//! asserted at construction) carry `// check:allow(panic)` with a
//! justification.
//!
//! Test code (`#[cfg(test)]` items) is exempt.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, Workspace};
use crate::passes::determinism::cfg_test_ranges;
use crate::passes::{flag, in_ranges};

/// Scope → root function names. Every name must resolve to a function
/// under its scope in the real workspace (a self-test holds it to that): a
/// root that names a loop nobody runs audits nothing.
pub const SCOPES: &[(&str, &[&str])] = &[
    ("crates/mdcc/src/", &["on_message", "on_start"]),
    ("crates/cluster/src/", &["run_worker", "drive_task"]),
];

/// Panic-family macros flagged by PANIC002.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// True when `toks[i]` is a `[` used as an index expression: preceded by an
/// identifier, `)`, or `]` (a value), not by `#`/`!`/type syntax.
fn is_index_bracket(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is_punct('[') || i == 0 {
        return false;
    }
    let p = &toks[i - 1];
    p.kind == TokKind::Ident || p.is_punct(')') || p.is_punct(']')
}

/// True when the `.unwrap()`/`.expect(..)` at `i` is applied directly to a
/// `.lock()` / `.read()` / `.write()` result — the lock-poisoning idiom.
fn is_poison_unwrap(toks: &[Tok], i: usize) -> bool {
    i >= 4
        && toks[i - 1].is_punct('.')
        && toks[i - 2].is_punct(')')
        && toks[i - 3].is_punct('(')
        && (toks[i - 4].is_ident("lock")
            || toks[i - 4].is_ident("read")
            || toks[i - 4].is_ident("write"))
}

/// The panic-reachability pass.
pub struct PanicPass;

impl Pass for PanicPass {
    fn name(&self) -> &'static str {
        "panic"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/index/panic reachable (workspace-wide) from an actor drive loop"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let g = ws.graph();
        let files = ws.files();
        // Per-file test ranges, computed lazily: most files are only
        // scanned if reached.
        let mut test_ranges: Vec<Option<Vec<Range<usize>>>> = vec![None; files.len()];
        let skip_of =
            |fi: usize, cache: &mut Vec<Option<Vec<Range<usize>>>>| -> Vec<Range<usize>> {
                cache[fi]
                    .get_or_insert_with(|| cfg_test_ranges(files[fi].toks()))
                    .clone()
            };

        let mut roots: BTreeSet<usize> = BTreeSet::new();
        for (scope, root_names) in SCOPES {
            for (fi, file) in files.iter().enumerate() {
                if !file.path.starts_with(scope) {
                    continue;
                }
                let skip = skip_of(fi, &mut test_ranges);
                for &n in g.nodes_of_file(fi) {
                    let f = &g.fns[n];
                    if root_names.contains(&f.name.as_str()) && !in_ranges(&skip, f.body.start) {
                        roots.insert(n);
                    }
                }
            }
        }
        if roots.is_empty() {
            return;
        }
        let (reach, preds) = g.reachable_with_preds(roots.iter().copied());
        for &n in &reach {
            let f = &g.fns[n];
            let file = &files[f.file];
            let toks = file.toks();
            let skip = skip_of(f.file, &mut test_ranges);
            if in_ranges(&skip, f.body.start) {
                continue; // helper defined inside a test module
            }
            let via = g.chain_text(&preds, n);
            let mut i = f.body.start;
            while i < f.body.end.min(toks.len()) {
                let t = &toks[i];
                // PANIC001: .unwrap() / .expect(..)
                if (t.is_ident("unwrap") || t.is_ident("expect"))
                    && i > f.body.start
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && !is_poison_unwrap(toks, i)
                {
                    flag(
                        out,
                        file,
                        "panic",
                        "PANIC001",
                        t.line,
                        format!(
                            "`.{}()` reachable from actor drive loop (via {via})",
                            t.text
                        ),
                        "a lost or reordered message makes this a crash, not a protocol retry — use `let .. else`/`match` and drop or log the unexpected case, or annotate with `// check:allow(panic)` and justify",
                    );
                }
                // PANIC002: panic-family macros.
                if t.kind == TokKind::Ident
                    && PANIC_MACROS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
                {
                    flag(
                        out,
                        file,
                        "panic",
                        "PANIC002",
                        t.line,
                        format!("`{}!` reachable from actor drive loop (via {via})", t.text),
                        "drive loops must stay up through unexpected input; handle the case or annotate with `// check:allow(panic)`",
                    );
                }
                // PANIC002: slice/array indexing.
                if is_index_bracket(toks, i) {
                    flag(
                        out,
                        file,
                        "panic",
                        "PANIC002",
                        t.line,
                        format!(
                            "slice index reachable from actor drive loop (via {via}) panics out of bounds"
                        ),
                        "use `.get(..)` and handle `None`, or annotate with `// check:allow(panic)` citing the invariant that bounds the index",
                    );
                }
                i += 1;
            }
        }
    }
}
