//! Atomics/memory-ordering and lost-wakeup analysis over the reactor
//! runtime (`planet-check v4`).
//!
//! The reactor's hot path is lock-free: a per-task scheduling word, a
//! Dekker-style parker flag, a task-done handoff flag and a pile of stat
//! counters. Each of those words has a *role*, and each role has an
//! ordering contract; an ordering that is too weak loses wakeups under
//! weak memory, and one that is too strong mis-documents the protocol
//! (and costs fences on ARM). The contracts themselves are
//! certified dynamically by the `planet-loom` harness
//! (`reactor::loom_tests`, run under `--cfg loom`); this pass pins them
//! statically so a drive-by "optimization" cannot downgrade a verified
//! protocol. Codes:
//!
//! * **ATOM001** — role/ordering pairing. Every atomic field in scope
//!   must be declared in `ATOMIC_ROLES` (or carry an allow marker at
//!   its declaration: "this is an unchecked stat word"). Declared
//!   `Counter`s must use exactly `Relaxed` (anything stronger is a
//!   misdocumented protocol word); declared `Handoff` words must pair
//!   `Release`-or-stronger stores with `Acquire`-or-stronger loads.
//! * **ATOM002** — Dekker store→load sequences. `SeqCst`-role words (the
//!   parker's `parked` flag, the worker-pool `running` gate, the tcp
//!   `closed` word) take part in store-one-word-then-load-the-other
//!   protocols whose correctness argument needs the single total order:
//!   every operation on them must be `SeqCst`.
//! * **WAKE001** — lost wakeup: a function that enqueues work (run-queue
//!   push at either end, mailbox enqueue — a stamped run push is one —
//!   timed-wake push, which a held timer or packet takes, flush-slot
//!   absorb, a tcp connection's write-queue push) must
//!   reach the matching unpark/rouse/watch on every path — checked with the
//!   CFG must-solver, with a caller-level cover for sites whose notify
//!   lives one frame up (`absorb` → the worker loop's
//!   `flush`/`flush_if_due`).
//!
//! What `compare_exchange` pairs and condvar waits must satisfy is left to
//! the loom models, `reactor::loom_tests` and `plane::loom_tests`, which
//! explore the real code's interleavings under weak memory.
//!
//! Scope: `crates/cluster/src/`. Suppress with `// check:allow(atomics)`.

use std::collections::HashMap;
use std::ops::Range;

use crate::cfg::{build_cfg, covered_on_every_path, Cfg};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, SourceFile, Workspace};
use crate::parse::skip_group;
use crate::passes::determinism::cfg_test_ranges;
use crate::passes::{flag, in_ranges};

const SCOPE: &str = "crates/cluster/src/";

/// What a declared atomic word is *for* — the role decides the ordering
/// contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The task scheduling word: CAS-driven state machine. Publishes on
    /// every transition (`Release` component required), and the observed
    /// value drives the next decision (`Acquire` component required).
    Sched,
    /// A Dekker word: takes part in a store-A-then-load-B protocol with
    /// no mediating lock on the checked side. Everything `SeqCst`.
    SeqCst,
    /// A handoff flag: one side publishes state behind the flag, the
    /// other consumes it. Stores `Release`+, loads `Acquire`+.
    Handoff,
    /// A stat counter: never synchronizes anything. Exactly `Relaxed`.
    Counter,
}

/// The declared atomic-role table: every atomic field the cluster crate
/// owns, by file suffix and field name. An atomic missing from this table
/// (and not allow-marked at its declaration) is an ATOM001 finding — the
/// table is the ratchet that forces new atomics to declare their
/// protocol.
pub const ATOMIC_ROLES: &[(&str, &str, Role)] = &[
    ("reactor.rs", "sched", Role::Sched),
    ("reactor.rs", "done", Role::Handoff),
    // `parked` pairs an enqueuer's push-then-load-parked with the
    // worker's set-parked-then-recheck; `running` pairs shutdown's
    // store-false-then-notify with the worker's empty-queue-then-load.
    ("reactor.rs", "parked", Role::SeqCst),
    ("reactor.rs", "running", Role::SeqCst),
    // `earliest` pairs a wake-armer's lower-it-then-load-`parked` with
    // the worker's set-parked-then-read-it in its park timeout.
    ("reactor.rs", "earliest", Role::SeqCst),
    // `wake_at` hands a task's mailbox push to the worker whose timed wake
    // fires it: armers `fetch_min` it, the firing worker disarms it.
    ("reactor.rs", "wake_at", Role::Handoff),
    ("reactor.rs", "next_home", Role::Counter),
    ("reactor.rs", "steals", Role::Counter),
    ("reactor.rs", "busy_us", Role::Counter),
    ("reactor.rs", "idle_us", Role::Counter),
    ("reactor.rs", "drives", Role::Counter),
    ("reactor.rs", "parks", Role::Counter),
    // tcp's `closed`: `stop()` stores it before it drains the table of
    // open connections and closes each; `register` loads it under that
    // table's lock after it has made a connection, so a connection that
    // races the stop is refused or closed with the rest.
    ("tcp.rs", "closed", Role::SeqCst),
];

/// Atomic RMW method names (single-ordering ops that both read and write).
const RMW_OPS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
];

/// WAKE001 rules: enqueuing work via `recv.method(..)` (or any-receiver
/// when `recv` is `None`) must reach one of the `cover` identifiers on
/// every path — in the enqueuing function, or (TIME003-style) around
/// every call site in every caller.
pub struct WakeRule {
    /// The file the rule reads, by path suffix.
    pub file_suffix: &'static str,
    /// The receiver of the enqueue, or `None` for any.
    pub recv: Option<&'static str>,
    /// The enqueuing method.
    pub method: &'static str,
    cover: &'static [&'static str],
    what: &'static str,
    fix: &'static str,
}

/// The enqueue sites WAKE001 checks.
pub const WAKE_TABLE: &[WakeRule] = &[
    WakeRule {
        file_suffix: "reactor.rs",
        recv: Some("queue"),
        method: "push_back",
        cover: &["parked", "rouse"],
        what: "run-queue push",
        fix: "rouse a sleeper (check `parked`/call `rouse`) after pushing a runnable task",
    },
    // A fired timed wake goes to the front of its home queue: the same
    // handoff, the same cover.
    WakeRule {
        file_suffix: "reactor.rs",
        recv: Some("queue"),
        method: "push_front",
        cover: &["parked", "rouse"],
        what: "run-queue push to the front",
        fix: "rouse a sleeper (check `parked`/call `rouse`) after pushing a runnable task",
    },
    WakeRule {
        file_suffix: "reactor.rs",
        recv: None,
        method: "absorb",
        cover: &["flush", "flush_if_due"],
        what: "coalesced-flush absorb",
        fix: "every path past an absorb must reach `flush`/`flush_if_due` (the horizon check), or batched envelopes strand",
    },
    WakeRule {
        file_suffix: "reactor.rs",
        recv: Some("timed"),
        method: "push",
        cover: &["earliest"],
        what: "timed-wake push",
        fix: "lower `earliest` (what workers park against) under the lock after queueing a timed wake, or a parked worker sleeps past it",
    },
    // A stamped enqueue in a run (`Run::push`) notes its instant in
    // `wake_due`, which the run's end hands to the waker once.
    WakeRule {
        file_suffix: "plane.rs",
        recv: Some("queue"),
        method: "push_back",
        cover: &["waker", "wake_due"],
        what: "mailbox enqueue",
        fix: "invoke the registered waker after every enqueue once the lock is released (a run notes the instant in `wake_due` for its end to hand over), or the reactor task never learns about the message",
    },
    // Bytes a socket would not take queue on their connection, and only
    // the poll writes them out, when the poller reports the socket
    // writable — which it does only for a registration that asks.
    WakeRule {
        file_suffix: "tcp.rs",
        recv: Some("queued"),
        method: "push_back",
        cover: &["ReadWrite"],
        what: "connection write-queue push",
        fix: "ask the poller for writability (`Interest::ReadWrite`) under the write lock after queueing unwritten bytes, or they strand until some later write",
    },
];

fn has_acquire(ord: &str) -> bool {
    matches!(ord, "Acquire" | "AcqRel" | "SeqCst")
}

fn has_release(ord: &str) -> bool {
    matches!(ord, "Release" | "AcqRel" | "SeqCst")
}

/// One atomic operation site: `recv.op(args)`.
struct AtomicOp {
    recv: String,
    op: String,
    line: u32,
    /// `Ordering::X` names in argument order (success first for CAS).
    ords: Vec<String>,
}

/// Collect atomic op sites in `range`: `<ident> . <op> (` where `op` is a
/// known atomic method and the arguments name at least one `Ordering::`.
/// Requiring the `Ordering` argument screens out same-named methods on
/// non-atomics (`Vec::swap`, mailbox `load`, ...).
fn atomic_ops(toks: &[Tok], range: Range<usize>) -> Vec<AtomicOp> {
    let mut out = Vec::new();
    let mut i = range.start.max(2);
    while i + 1 < range.end.min(toks.len()) {
        let is_op = toks[i].kind == TokKind::Ident
            && toks[i - 1].is_punct('.')
            && toks[i + 1].is_punct('(')
            && (toks[i].is_ident("load")
                || toks[i].is_ident("store")
                || toks[i].is_ident("compare_exchange")
                || toks[i].is_ident("compare_exchange_weak")
                || RMW_OPS.iter().any(|m| toks[i].is_ident(m)));
        if !is_op {
            i += 1;
            continue;
        }
        let end = skip_group(toks, i + 1, '(', ')');
        let args = i + 2..end - 1;
        let ords: Vec<String> = super::find_paths(toks, args, "Ordering")
            .into_iter()
            .map(|h| h.name)
            .collect();
        if ords.is_empty() {
            i = end;
            continue;
        }
        out.push(AtomicOp {
            recv: toks[i - 2].text.clone(),
            op: toks[i].text.clone(),
            line: toks[i].line,
            ords,
        });
        i = end;
    }
    out
}

/// Atomic field/local declarations in a file: `name : [Arc <] AtomicXxx`.
/// Returns `(name, line)` per declaration.
fn atomic_decls(toks: &[Tok]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !toks[i].text.starts_with("Atomic") {
            continue;
        }
        // `AtomicU64::new(..)` is an expression use, not a declaration.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            continue;
        }
        // Walk back over wrapper generics (`Arc <`) to the `name :`.
        let mut j = i;
        while j >= 2 && (toks[j - 1].is_punct('<') || toks[j - 1].kind == TokKind::Ident) {
            j -= 1;
            if toks[j].is_punct('<') {
                continue;
            }
            break;
        }
        while j >= 2 && toks[j].kind == TokKind::Ident && toks[j - 1].is_punct('<') {
            j -= 2;
        }
        if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].kind == TokKind::Ident {
            out.push((toks[j - 2].text.clone(), toks[i].line));
        }
    }
    out
}

/// Mask-bit-0 gen vector: blocks containing any of the cover identifiers.
fn cover_gens(toks: &[Tok], cfg: &Cfg, cover: &[&str]) -> Vec<u64> {
    cfg.blocks
        .iter()
        .map(|b| {
            let hit = b.range.clone().any(|k| {
                toks.get(k)
                    .is_some_and(|t| cover.iter().any(|c| t.is_ident(c)))
            });
            u64::from(hit)
        })
        .collect()
}

/// The atomics/wakeup pass.
pub struct SyncPass;

impl Pass for SyncPass {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn description(&self) -> &'static str {
        "atomic orderings match declared roles; every enqueue reaches its notify"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let files = ws.files();
        for (fi, file) in files.iter().enumerate() {
            if !file.path.starts_with(SCOPE) {
                continue;
            }
            let toks = file.toks();
            let skip = cfg_test_ranges(toks);
            let roles: HashMap<&str, Role> = ATOMIC_ROLES
                .iter()
                .filter(|(suffix, _, _)| file.path.ends_with(suffix))
                .map(|(_, name, role)| (*name, *role))
                .collect();

            self.check_declarations(file, toks, &skip, &roles, out);
            self.check_ops(file, toks, &skip, &roles, out);
            self.check_wakes(ws, fi, file, out);
        }
    }
}

impl SyncPass {
    /// ATOM001 (declaration half): every atomic field in scope is either
    /// role-declared or allow-marked.
    fn check_declarations(
        &self,
        file: &SourceFile,
        toks: &[Tok],
        skip: &[Range<usize>],
        roles: &HashMap<&str, Role>,
        out: &mut Vec<Diagnostic>,
    ) {
        // Declaration sites found by token walk (FieldDef carries no
        // line, and locals count too). For the skip check, map each
        // declaration line back to a token index on that line.
        let mut cursor = 0usize;
        for (name, line) in atomic_decls(toks) {
            let idx = (cursor..toks.len())
                .find(|&k| toks[k].line == line)
                .unwrap_or(0);
            cursor = idx;
            if in_ranges(skip, idx) || roles.contains_key(name.as_str()) {
                continue;
            }
            flag(
                out,
                file,
                "atomics",
                "ATOM001",
                line,
                format!(
                    "atomic `{name}` is not declared in the role table (sched-word / seqcst-word / handoff-flag / stat-counter)"
                ),
                "add the field to ATOMIC_ROLES in the sync pass with its protocol role, or annotate the declaration with `// check:allow(atomics)` if it is a stat word the analysis should not track",
            );
        }
    }

    /// ATOM001/002 (operation half): every op on a declared word
    /// satisfies its role's ordering contract.
    fn check_ops(
        &self,
        file: &SourceFile,
        toks: &[Tok],
        skip: &[Range<usize>],
        roles: &HashMap<&str, Role>,
        out: &mut Vec<Diagnostic>,
    ) {
        let whole = 0..toks.len();
        // Token index per line for skip checks: atomic_ops yields lines.
        let mut line_idx: HashMap<u32, usize> = HashMap::new();
        for (k, t) in toks.iter().enumerate() {
            line_idx.entry(t.line).or_insert(k);
        }
        for op in atomic_ops(toks, whole) {
            let Some(&role) = roles.get(op.recv.as_str()) else {
                continue; // undeclared: the declaration check owns it
            };
            if line_idx.get(&op.line).is_some_and(|&k| in_ranges(skip, k)) {
                continue;
            }
            let success = op.ords.first().map(String::as_str).unwrap_or("Relaxed");
            match role {
                Role::Counter => {
                    if op.ords.iter().any(|o| o != "Relaxed") {
                        flag(
                            out,
                            file,
                            "atomics",
                            "ATOM001",
                            op.line,
                            format!(
                                "stat-counter `{}` uses `Ordering::{}` — counters synchronize nothing and must be `Relaxed`",
                                op.recv, success
                            ),
                            "downgrade to `Ordering::Relaxed`; if this word now guards a protocol, give it a protocol role in ATOMIC_ROLES instead",
                        );
                    }
                }
                Role::SeqCst => {
                    if op.ords.iter().any(|o| o != "SeqCst") {
                        flag(
                            out,
                            file,
                            "atomics",
                            "ATOM002",
                            op.line,
                            format!(
                                "Dekker-style word `{}` uses `Ordering::{}` — store→load protocols need the `SeqCst` total order (Release/Acquire permits both sides to read stale and lose the wakeup)",
                                op.recv,
                                op.ords.iter().find(|o| *o != "SeqCst").map(String::as_str).unwrap_or(success)
                            ),
                            "use `Ordering::SeqCst` on every access to this word (the loom harness's `dekker_handoff_below_seqcst_is_found` model demonstrates the failure)",
                        );
                    }
                }
                Role::Handoff => {
                    let bad = match op.op.as_str() {
                        "load" => !has_acquire(success),
                        "store" => !has_release(success),
                        _ => !(has_acquire(success) && has_release(success)),
                    };
                    if bad {
                        flag(
                            out,
                            file,
                            "atomics",
                            "ATOM001",
                            op.line,
                            format!(
                                "handoff-flag `{}`: `{}` with `Ordering::{}` — stores must publish (`Release`+) and loads must consume (`Acquire`+), or the state behind the flag is not visible",
                                op.recv, op.op, success
                            ),
                            "pair `Release` stores with `Acquire` loads (RMWs: `AcqRel`) on handoff flags",
                        );
                    }
                }
                Role::Sched => {
                    let bad = match op.op.as_str() {
                        "load" => !has_acquire(success),
                        "store" => !has_release(success),
                        _ => !(has_acquire(success) && has_release(success)),
                    };
                    if bad {
                        flag(
                            out,
                            file,
                            "atomics",
                            "ATOM001",
                            op.line,
                            format!(
                                "sched-word `{}`: `{}` with `Ordering::{}` — every transition publishes the previous drive and the observed state drives the next decision",
                                op.recv, op.op, success
                            ),
                            "use `AcqRel` exchanges, `Release` stores and `Acquire` loads on the scheduling word",
                        );
                    }
                }
            }
        }
    }

    /// WAKE001: every enqueue reaches its notify on all paths, in the
    /// enqueuing function or around every call site in every caller.
    fn check_wakes(&self, ws: &Workspace, fi: usize, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        let g = ws.graph();
        let toks = file.toks();
        let skip = cfg_test_ranges(toks);
        for rule in WAKE_TABLE {
            if !file.path.ends_with(rule.file_suffix) {
                continue;
            }
            for &node in g.nodes_of_file(fi) {
                let def = &g.fns[node];
                if in_ranges(&skip, def.body.start) {
                    continue;
                }
                // Trigger sites: `recv.method(` (or `_.method(`).
                let sites: Vec<usize> = def
                    .body
                    .clone()
                    .filter(|&k| {
                        k >= 2
                            && k + 1 < toks.len()
                            && toks[k].is_ident(rule.method)
                            && toks[k - 1].is_punct('.')
                            && toks[k + 1].is_punct('(')
                            && rule.recv.is_none_or(|r| toks[k - 2].is_ident(r))
                    })
                    .collect();
                if sites.is_empty() {
                    continue;
                }
                let cfg = build_cfg(toks, def.body.clone());
                let gens = cover_gens(toks, &cfg, rule.cover);
                for site in sites {
                    if covered_on_every_path(&cfg, &gens, site) {
                        continue;
                    }
                    // Caller-level cover: every caller reaches the notify
                    // around every call into this function (the absorb →
                    // worker-loop flush shape).
                    let callers: Vec<usize> = (0..g.fns.len())
                        .filter(|&n| g.callees[n].contains(&node))
                        .collect();
                    let covered_by_callers = !callers.is_empty()
                        && callers.iter().all(|&n| {
                            let cf = &g.fns[n];
                            let ctoks = ws.files()[cf.file].toks();
                            let cskip = cfg_test_ranges(ctoks);
                            if in_ranges(&cskip, cf.body.start) {
                                return true; // test caller: not evidence either way
                            }
                            let ccfg = build_cfg(ctoks, cf.body.clone());
                            let cgens = cover_gens(ctoks, &ccfg, rule.cover);
                            let call_sites: Vec<usize> = g.calls[n]
                                .iter()
                                .filter(|s| s.target == node)
                                .map(|s| s.tok)
                                .collect();
                            !call_sites.is_empty()
                                && call_sites
                                    .iter()
                                    .all(|&k| covered_on_every_path(&ccfg, &cgens, k))
                        });
                    if !covered_by_callers {
                        let line = toks[site].line;
                        flag(
                            out,
                            file,
                            "atomics",
                            "WAKE001",
                            line,
                            format!(
                                "{} in `{}` can exit without reaching {} — a path past this enqueue parks the consumer on work it was never told about",
                                rule.what,
                                def.name,
                                rule.cover
                                    .iter()
                                    .map(|c| format!("`{c}`"))
                                    .collect::<Vec<_>>()
                                    .join("/"),
                            ),
                            rule.fix,
                        );
                    }
                }
            }
        }
    }
}
