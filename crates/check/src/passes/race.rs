//! Blocking-under-lock and FIFO analysis over `planet-cluster`.
//!
//! The cluster runtime is the only place in the workspace that spawns real
//! OS threads (node threads, fabric pumps, acceptor loops) and shares
//! state behind locks. Whether a capture may cross a thread at all is
//! rustc's to decide (`thread::spawn` demands `Send + 'static`, and the
//! crate denies `unsafe`); what the type system cannot see is how long a
//! guard lives. Codes:
//!
//! * **RACE002** — while a lock guard is live, the function acquires a
//!   lock (`.lock()`, or `.read()`/`.write()` on a field the file declares
//!   as an `RwLock`), makes a blocking call (`recv`, `join`, `write_all`,
//!   condvar waits, sleeps), or calls a function from which — through the
//!   workspace-wide call graph — a lock or a blocking call is reachable;
//!   the interprocedural diagnostic carries the witness call chain.
//!   Re-locking a held `std::sync` lock self-deadlocks at once, and every
//!   edge of a lock-order cycle is a lock taken under another's guard, so
//!   both land here. A condvar wait with exactly one lock held is the
//!   intended idiom and is not flagged.
//! * **RACE003** — a channel sender is cloned into a spawned closure or
//!   stored into a collection: two handles to the same mailbox can
//!   interleave and break the documented per-pair FIFO delivery order.
//!
//! Guard lifetimes follow Rust's temporary rules, approximated: a
//! `let`-bound guard (the chain after the acquisition is only
//! `.unwrap()`/`.expect(..)`) lives to the end of its block, an
//! `if let`/`while let` guard through the block it opens, a `for`/`match`
//! head temporary through the construct, and any other temporary to the
//! end of its statement — a plain `if` condition's guard drops before the
//! block runs.
//!
//! Suppress with `// check:allow(race)`.

use std::collections::HashMap;
use std::ops::Range;

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::model::{Pass, SourceFile, Workspace};
use crate::parse::skip_group;
use crate::passes::determinism::cfg_test_ranges;
use crate::passes::{flag, in_ranges};

const SCOPE: &str = "crates/cluster/src/";

/// Directly blocking method names (callee side of RACE002).
const BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "join",
    "write_all",
    "flush",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
];

const CONDVAR_WAITS: &[&str] = &["wait", "wait_timeout", "wait_while"];

/// Names of the struct fields a file declares as `RwLock`s: `.read()` and
/// `.write()` acquire a lock only on these (bare `.lock()` always does).
fn rwlock_fields(file: &SourceFile) -> Vec<&str> {
    file.fields()
        .iter()
        .filter(|f| f.ty.contains("RwLock"))
        .map(|f| f.name.as_str())
        .collect()
}

/// When `toks[i]` is the method of a zero-argument lock acquisition, the
/// receiver's final name (`self.inner.routes.lock()` → `routes`; empty
/// when the receiver is not a plain name).
fn acquisition<'t>(toks: &'t [Tok], i: usize, rwlocks: &[&str]) -> Option<&'t str> {
    if i < 2
        || !toks[i - 1].is_punct('.')
        || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        || !toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
    {
        return None;
    }
    let recv = &toks[i - 2];
    let recv = if recv.kind == crate::lexer::TokKind::Ident {
        recv.text.as_str()
    } else {
        ""
    };
    let locks = toks[i].is_ident("lock")
        || ((toks[i].is_ident("read") || toks[i].is_ident("write")) && rwlocks.contains(&recv));
    locks.then_some(recv)
}

/// Argument ranges of `spawn(..)` / `thread::spawn(..)` / `pool.spawn(..)`
/// calls in `range` (token indices inside the parens).
fn spawn_ranges(toks: &[Tok], range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut i = range.start.max(1);
    while i + 1 < range.end.min(toks.len()) {
        if toks[i].is_ident("spawn")
            && (toks[i - 1].is_punct('.') || toks[i - 1].is_punct(':'))
            && toks[i + 1].is_punct('(')
        {
            let end = skip_group(toks, i + 1, '(', ')');
            out.push(i + 2..end.saturating_sub(1));
        }
        i += 1;
    }
    out
}

/// Explicitly-typed bindings visible in a function: parameters plus
/// `let name: Ty = ..` locals, as flattened type text.
fn typed_bindings(
    toks: &[Tok],
    body: Range<usize>,
    params: &[(String, String)],
) -> HashMap<String, String> {
    let mut out: HashMap<String, String> = params.iter().cloned().collect();
    let mut i = body.start;
    while i + 3 < body.end.min(toks.len()) {
        if toks[i].is_ident("let")
            && toks[i + 1].kind == crate::lexer::TokKind::Ident
            && toks[i + 2].is_punct(':')
            && !toks[i + 3].is_punct(':')
        {
            let name = toks[i + 1].text.clone();
            let mut ty = String::new();
            let mut j = i + 3;
            let mut depth = 0i32;
            while j < body.end.min(toks.len()) {
                let t = &toks[j];
                if t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('>') {
                    depth -= 1;
                } else if depth <= 0 && (t.is_punct('=') || t.is_punct(';')) {
                    break;
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&t.text);
                j += 1;
            }
            out.insert(name, ty);
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// A live lock guard while scanning a function body.
struct LiveLock<'t> {
    /// The locked receiver's name (see [`acquisition`]).
    name: &'t str,
    /// Brace depth the guard dies below (`let`-bound guards), or `None`
    /// for a statement-scoped temporary.
    depth: Option<i32>,
}

/// The blocking-under-lock and FIFO pass.
pub struct RacePass;

impl Pass for RacePass {
    fn name(&self) -> &'static str {
        "race"
    }

    fn description(&self) -> &'static str {
        "locks and blocking calls reachable while a lock guard is live, cloned senders breaking FIFO"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let g = ws.graph();
        let files = ws.files();
        let skips: Vec<Vec<Range<usize>>> =
            files.iter().map(|f| cfg_test_ranges(f.toks())).collect();
        let rwlocks: Vec<Vec<&str>> = files.iter().map(rwlock_fields).collect();

        // ---- interprocedural blocking summaries (workspace-wide) ----
        // A node blocks directly if its body (outside tests) calls a
        // blocking method or acquires a lock. may_block is the reverse
        // closure: "calling this function may block".
        let mut direct_block: Vec<Option<&'static str>> = vec![None; g.fns.len()];
        for (n, f) in g.fns.iter().enumerate() {
            let toks = files[f.file].toks();
            for i in f.body.clone() {
                if i + 1 >= toks.len() || i == 0 || in_ranges(&skips[f.file], i) {
                    continue;
                }
                if !toks[i - 1].is_punct('.') || !toks[i + 1].is_punct('(') {
                    continue;
                }
                if let Some(name) = BLOCKING.iter().find(|b| toks[i].is_ident(b)) {
                    direct_block[n] = Some(name);
                    break;
                }
                if acquisition(toks, i, &rwlocks[f.file]).is_some() {
                    direct_block[n] = Some("lock");
                    break;
                }
            }
        }
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); g.fns.len()];
        for (n, sites) in g.calls.iter().enumerate() {
            for s in sites {
                callers[s.target].push(n);
            }
        }
        let mut may_block = vec![false; g.fns.len()];
        let mut queue: Vec<usize> = (0..g.fns.len())
            .filter(|&n| direct_block[n].is_some())
            .collect();
        for &n in &queue {
            may_block[n] = true;
        }
        while let Some(n) = queue.pop() {
            for &c in &callers[n] {
                if !may_block[c] {
                    may_block[c] = true;
                    queue.push(c);
                }
            }
        }

        for (fi, file) in files.iter().enumerate() {
            if !file.path.starts_with(SCOPE) {
                continue;
            }
            let toks = file.toks();
            let skip = &skips[fi];
            let field_ty: HashMap<&str, &str> = file
                .fields()
                .iter()
                .map(|f| (f.name.as_str(), f.ty.as_str()))
                .collect();

            for &node in g.nodes_of_file(fi) {
                let def = &g.fns[node];
                if in_ranges(skip, def.body.start) {
                    continue;
                }
                let body = def.body.clone();
                let bindings = typed_bindings(toks, body.clone(), &def.params);
                let spawns = spawn_ranges(toks, body.clone());

                // ---- RACE003: a sender clone moved into a spawn, or stored ----
                let mut i = body.start.max(2);
                while i + 1 < body.end.min(toks.len()) {
                    if toks[i].is_ident("clone")
                        && toks[i - 1].is_punct('.')
                        && toks[i + 1].is_punct('(')
                        && !in_ranges(skip, i)
                    {
                        let recv = &toks[i - 2];
                        let ty = bindings
                            .get(recv.text.as_str())
                            .map(String::as_str)
                            .or_else(|| field_ty.get(recv.text.as_str()).copied());
                        let is_sender =
                            ty.is_some_and(|t| t.contains("Sender") || t.contains("Mailbox"));
                        // Outside a spawn, only when the statement *retains*
                        // the clone (stored into a collection): a returned or
                        // immediately-consumed clone keeps one live handle
                        // per destination.
                        let stored = || {
                            let end = body.end.min(toks.len());
                            let stmt_end = (i..end).find(|&j| toks[j].is_punct(';')).unwrap_or(end);
                            let stmt_start = (body.start..i)
                                .rev()
                                .find(|&j| toks[j].is_punct(';') || toks[j].is_punct('{'))
                                .map_or(body.start, |j| j + 1);
                            (stmt_start..stmt_end).any(|j| {
                                (toks[j].is_ident("push") || toks[j].is_ident("insert"))
                                    && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
                            })
                        };
                        let what = if !is_sender {
                            None
                        } else if spawns.iter().any(|sp| sp.contains(&i)) {
                            Some("duplicates a channel sender inside a spawned thread — two handles to one mailbox can interleave and break per-pair FIFO")
                        } else if stored() {
                            Some("stores a second handle to a channel sender — concurrent senders to one mailbox can break per-pair FIFO")
                        } else {
                            None
                        };
                        if let Some(what) = what {
                            flag(
                                out,
                                file,
                                "race",
                                "RACE003",
                                toks[i].line,
                                format!("`{}.clone()` {what}", recv.text),
                                "keep a single owned handle per destination, or annotate with `// check:allow(race)` and document the ordering argument",
                            );
                        }
                    }
                    i += 1;
                }

                // ---- RACE002: a lock or a blocking call under a live guard ----
                let sites: HashMap<usize, usize> =
                    g.calls[node].iter().map(|s| (s.tok, s.target)).collect();
                let mut live: Vec<LiveLock> = Vec::new();
                let mut depth = 0i32;
                let mut i = body.start;
                while i < body.end.min(toks.len()) {
                    let t = &toks[i];
                    let acquired =
                        acquisition(toks, i, &rwlocks[fi]).filter(|_| !in_ranges(skip, i));
                    if t.is_punct('{') {
                        // An if/while-condition temporary dies before the
                        // block opens (for/match head temporaries are
                        // promoted to block scope at creation).
                        live.retain(|l| l.depth.is_some());
                        depth += 1;
                    } else if t.is_punct('}') {
                        depth -= 1;
                        live.retain(|l| l.depth.is_none_or(|d| d <= depth));
                    } else if t.is_punct(';') {
                        live.retain(|l| l.depth.is_some());
                    } else if let Some(name) = acquired {
                        if let Some(held) = live.last() {
                            let shown = |n: &str| {
                                if n.is_empty() {
                                    "a lock".to_string()
                                } else {
                                    format!("`{n}`")
                                }
                            };
                            let message = if !name.is_empty() && live.iter().any(|l| l.name == name)
                            {
                                format!(
                                    "`{name}` is locked again in `{}` while its own guard is live: a `std::sync` lock self-deadlocks",
                                    def.name
                                )
                            } else {
                                format!(
                                    "{} is locked in `{}` while {} is held: one edge of a lock order another path can invert",
                                    shown(name),
                                    def.name,
                                    shown(held.name)
                                )
                            };
                            flag(
                                out,
                                file,
                                "race",
                                "RACE002",
                                t.line,
                                message,
                                "drop the held guard before locking again (copy out what you need), or annotate with `// check:allow(race)` stating the one global acquisition order",
                            );
                        }
                        // Guard lifetime. A `let` binds the guard for the
                        // enclosing block (`if/while let`: the block about
                        // to open) — but only when the chain after
                        // `.lock()` is just `.expect()`/`.unwrap()`. If
                        // more methods follow (`.drain(..).collect()`,
                        // `.get(..)`), the guard is a temporary that dies
                        // at the end of the statement regardless of the
                        // `let`.
                        let mut j = i + 3; // past `( )`
                        let mut chained_away = false;
                        while j + 2 < body.end.min(toks.len()) && toks[j].is_punct('.') {
                            if !(toks[j + 1].is_ident("expect") || toks[j + 1].is_ident("unwrap")) {
                                chained_away = true;
                                break;
                            }
                            j = skip_group(toks, j + 2, '(', ')');
                        }
                        let mut bound = None;
                        {
                            let mut j = i;
                            let mut stmt_start = body.start;
                            let mut saw_let = None;
                            while j > body.start {
                                j -= 1;
                                let b = &toks[j];
                                if b.is_punct(';') || b.is_punct('{') || b.is_punct('}') {
                                    stmt_start = j + 1;
                                    break;
                                }
                                if b.is_ident("let") {
                                    saw_let = Some(j);
                                }
                            }
                            if let Some(j) = saw_let.filter(|_| !chained_away) {
                                let conditional = j > 0
                                    && (toks[j - 1].is_ident("if")
                                        || toks[j - 1].is_ident("while"));
                                bound = Some(if conditional { depth + 1 } else { depth });
                            } else if toks
                                .get(stmt_start)
                                .is_some_and(|t| t.is_ident("for") || t.is_ident("match"))
                            {
                                // for/match head temporaries live through
                                // the loop/match body.
                                bound = Some(depth + 1);
                            }
                        }
                        live.push(LiveLock { name, depth: bound });
                    } else if !live.is_empty()
                        && i > 0
                        && i + 1 < toks.len()
                        && toks[i - 1].is_punct('.')
                        && toks[i + 1].is_punct('(')
                        && !in_ranges(skip, i)
                    {
                        if let Some(name) = BLOCKING.iter().find(|b| toks[i].is_ident(b)) {
                            let condvar_ok = CONDVAR_WAITS.contains(name) && live.len() == 1;
                            if !condvar_ok {
                                flag(
                                    out,
                                    file,
                                    "race",
                                    "RACE002",
                                    t.line,
                                    format!(
                                        "blocking call `.{name}(..)` while a lock guard is live in `{}`",
                                        def.name
                                    ),
                                    "drop the guard (end its scope or `drop(..)`) before blocking, or annotate with `// check:allow(race)` and bound the wait",
                                );
                            }
                        }
                    }
                    if acquired.is_none() && !live.is_empty() && !in_ranges(skip, i) {
                        if let Some(&target) = sites.get(&i) {
                            if may_block[target] {
                                let (reach, preds) = g.reachable_with_preds([target]);
                                let sink =
                                    reach.iter().copied().find(|&n| direct_block[n].is_some());
                                if let Some(sink) = sink {
                                    let via = direct_block[sink].unwrap_or("recv");
                                    flag(
                                        out,
                                        file,
                                        "race",
                                        "RACE002",
                                        t.line,
                                        format!(
                                            "call to `{}` can block (`.{via}(..)` via {}) while a lock guard is live in `{}`",
                                            g.fns[target].name,
                                            g.chain_text(&preds, sink),
                                            def.name
                                        ),
                                        "drop the guard before calling into code that blocks or locks, or annotate with `// check:allow(race)` with the ordering argument",
                                    );
                                }
                            }
                        }
                    }
                    i += 1;
                }
            }
        }
    }
}
