//! Determinism lints: the simulation-deterministic crates must not read
//! an `Instant` (DET001) or let `HashMap`/`HashSet` iteration order escape
//! into protocol behaviour (DET004).
//!
//! The whole point of the discrete-event harness is bit-identical replay
//! from a seed; one `Instant::now()` in a protocol crate silently breaks
//! that. Other sources of nondeterminism (`SystemTime`, OS randomness) are
//! left to the replay test, `bench/tests/determinism.rs`, which runs the
//! same seed twice and compares every record. Scope:
//! `crates/{sim,mdcc,predict,workload}/src`. The live-cluster runtime
//! (`crates/cluster`) deliberately uses real time and is out of scope.
//! Sites that are deterministic for a reason the lint cannot see (e.g. a
//! hash-map iteration whose results are sorted before use) carry a
//! `// check:allow(determinism)` comment on the same or preceding line.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, SourceFile, Workspace};
use crate::parse::{skip_group, typed_lets};
use crate::passes::{flag, in_ranges};

/// Crates whose `src` trees must stay deterministic.
const SCOPES: &[&str] = &[
    "crates/sim/src/",
    "crates/mdcc/src/",
    "crates/predict/src/",
    "crates/workload/src/",
];

/// Methods whose results surface a hash container's iteration order.
const ORDER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// Token index ranges covered by `#[cfg(test)]`-gated items — including
/// compound gates like `#[cfg(all(test, loom))]` / `#[cfg(all(test,
/// not(loom)))]` — (test modules may use real time and unordered iteration
/// freely). Shared with the panic, race, and sync passes, which likewise
/// exempt test code.
pub(crate) fn cfg_test_ranges(toks: &[Tok]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(');
        if !is_cfg {
            i += 1;
            continue;
        }
        // A gate counts as test-only when a bare `test` predicate appears
        // anywhere in it (`test`, `all(test, ..)`) — but not negated
        // (`not(test)` gates production-only code).
        let gend = skip_group(toks, i + 3, '(', ')');
        let test_gated = (i + 4..gend.saturating_sub(1))
            .any(|k| toks[k].is_ident("test") && !(k >= 2 && toks[k - 2].is_ident("not")));
        if !test_gated || !toks.get(gend).is_some_and(|t| t.is_punct(']')) {
            i = gend;
            continue;
        }
        // Skip the attributed item: everything to the end of its first
        // brace group, or to a `;` if one comes first (e.g. a `use`).
        let mut j = gend + 1;
        let start = i;
        loop {
            match toks.get(j) {
                None => {
                    out.push(start..toks.len());
                    return out;
                }
                Some(t) if t.is_punct(';') => {
                    out.push(start..j + 1);
                    break;
                }
                Some(t) if t.is_punct('{') => {
                    let end = skip_group(toks, j, '{', '}');
                    out.push(start..end);
                    break;
                }
                _ => j += 1,
            }
        }
        i = out.last().map_or(i + 1, |r| r.end);
    }
    out
}

/// Names in this file known to be hash-ordered containers: struct fields
/// plus `let` bindings with a visible `HashMap`/`HashSet` type.
fn hash_names(file: &SourceFile) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = file
        .fields()
        .iter()
        .filter(|f| f.ty.contains("HashMap") || f.ty.contains("HashSet"))
        .map(|f| f.name.clone())
        .collect();
    names.extend(typed_lets(file.toks(), &["HashMap", "HashSet"]));
    names
}

/// The determinism pass.
pub struct DeterminismPass;

impl Pass for DeterminismPass {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn description(&self) -> &'static str {
        "sim-deterministic crates avoid `Instant` and hash-order escapes"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for scope in SCOPES {
            for file in ws.files_under(scope) {
                let toks = file.toks();
                let skip = cfg_test_ranges(toks);
                let hashes = hash_names(file);
                let mut i = 0;
                while i < toks.len() {
                    if in_ranges(&skip, i) {
                        i += 1;
                        continue;
                    }
                    let t = &toks[i];
                    if t.kind != TokKind::Ident {
                        i += 1;
                        continue;
                    }
                    // DET001: a wall clock.
                    if t.is_ident("Instant") {
                        flag(
                            out,
                            file,
                            "determinism",
                            "DET001",
                            t.line,
                            "nondeterminism: `Instant` (wall-clock time) in a sim-deterministic crate"
                                .to_string(),
                            "route time through SimContext/Ctx::now() and randomness through the seeded sim RNG; if this site is provably replay-safe, annotate it with `// check:allow(determinism)`",
                        );
                        i += 1;
                        continue;
                    }
                    // DET004: `name.iter()`-style order escapes on known
                    // hash containers …
                    if hashes.contains(&t.text) && toks.get(i + 1).is_some_and(|n| n.is_punct('.'))
                    {
                        if let Some(m) = toks.get(i + 2) {
                            if m.kind == TokKind::Ident
                                && ORDER_METHODS.contains(&m.text.as_str())
                                && toks.get(i + 3).is_some_and(|n| n.is_punct('('))
                            {
                                flag(
                                    out,
                                    file,
                                    "determinism",
                                    "DET004",
                                    m.line,
                                    format!(
                                        "nondeterminism: iteration order of hash container `{}` escapes via `.{}()`",
                                        t.text, m.text
                                    ),
                                    "use a BTreeMap/BTreeSet, or sort the results before they influence behaviour and annotate with `// check:allow(determinism)`",
                                );
                            }
                        }
                    }
                    // … and `for x in [&][mut] name` loops.
                    if t.is_ident("for") {
                        // find `in` within this loop head
                        let mut j = i + 1;
                        while j < toks.len() && !toks[j].is_punct('{') {
                            if toks[j].is_ident("in") {
                                let mut k = j + 1;
                                while toks
                                    .get(k)
                                    .is_some_and(|x| x.is_punct('&') || x.is_ident("mut"))
                                {
                                    k += 1;
                                }
                                if let Some(name_tok) = toks.get(k) {
                                    // only a bare `for x in name {` (no
                                    // further projection — those hit the
                                    // method check above)
                                    if hashes.contains(&name_tok.text)
                                        && toks.get(k + 1).is_some_and(|n| n.is_punct('{'))
                                    {
                                        flag(
                                            out,
                                            file,
                                            "determinism",
                                            "DET004",
                                            name_tok.line,
                                            format!(
                                                "nondeterminism: iterating hash container `{}` directly in a `for` loop",
                                                name_tok.text
                                            ),
                                            "use a BTreeMap/BTreeSet, or collect and sort first and annotate with `// check:allow(determinism)`",
                                        );
                                    }
                                }
                                break;
                            }
                            j += 1;
                        }
                    }
                    i += 1;
                }
            }
        }
    }
}
