//! Timeout-coverage lints: every quorum/ack wait in the MDCC protocol
//! crate must reach a timeout edge.
//!
//! The protocol's liveness story is "every wait is bounded": a coordinator
//! that starts collecting votes arms `TxnTimeout`; a replica's ack state is
//! reclaimed by the standing lease sweep. A wait registered without a timer
//! hangs forever the first time a message is lost. Three codes:
//!
//! * **TIME001** — a function inserts into a wait-tracking collection (the
//!   table in `WAIT_TABLE`) but some path through the insert never
//!   executes `ctx.schedule(_, Msg::<Timer>)`. Checked with the CFG
//!   must-solver: the insert block itself, all paths into it, or all paths
//!   from it to the exit must contain the schedule.
//! * **TIME002** — a timer message is scheduled somewhere in a file but the
//!   variant never appears outside `schedule(..)` argument lists in that
//!   file, i.e. nothing handles it when it fires.
//! * **TIME003** — a one-shot timer's handler reaches an insert into a
//!   collection that *only* the timer's own handler ever reclaims, without
//!   re-arming the timer on that path. Firing the timer consumed it; the
//!   inserted entry can never be swept again. (This is exactly the shape of
//!   the coordinator's `recent` map: normal completion inserts while the
//!   submit-time timer is still pending, but the timeout path inserts
//!   *after* consuming that timer.)
//!
//! Scope: `crates/mdcc/src/`. Suppress with `// check:allow(time)`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::callgraph::{call_names, CallGraph};
use crate::cfg::{build_cfg, find_body_brace, match_arms, solve, Cfg, Dir, Meet};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, SourceFile, Workspace};
use crate::parse::skip_group;

/// Wait-tracking collections that require a per-wait timer: inserting into
/// `collection` (in files whose path ends with `file_suffix`) must be
/// covered by `ctx.schedule(_, Msg::<timer>)` on every path.
const WAIT_TABLE: &[WaitRule] = &[WaitRule {
    file_suffix: "coordinator.rs",
    collection: "inflight",
    timer: "TxnTimeout",
}];

/// One entry of [`WAIT_TABLE`].
struct WaitRule {
    file_suffix: &'static str,
    collection: &'static str,
    timer: &'static str,
}

/// A `<coll>.<method>(` call site.
struct MethodCall {
    coll: String,
    idx: usize,
    line: u32,
}

/// Find `<ident> . <method> (` sites where `method` is in `methods`.
fn method_calls(toks: &[Tok], range: Range<usize>, methods: &[&str]) -> Vec<MethodCall> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 3 < range.end.min(toks.len()) {
        if toks[i].kind == TokKind::Ident
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && methods.contains(&toks[i + 2].text.as_str())
            && toks[i + 3].is_punct('(')
        {
            out.push(MethodCall {
                coll: toks[i].text.clone(),
                idx: i,
                line: toks[i + 2].line,
            });
        }
        i += 1;
    }
    out
}

/// A `schedule(..)` call site and the timer variant it constructs.
struct ScheduleSite {
    /// `Msg::<variant>` found in the argument list, if any.
    variant: Option<String>,
    line: u32,
    args: Range<usize>,
}

fn schedule_sites(toks: &[Tok], range: Range<usize>) -> Vec<ScheduleSite> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 1 < range.end.min(toks.len()) {
        if toks[i].is_ident("schedule") && toks[i + 1].is_punct('(') {
            let end = skip_group(toks, i + 1, '(', ')');
            let args = i + 2..end - 1;
            let variant = super::find_paths(toks, args.clone(), "Msg")
                .into_iter()
                .next()
                .map(|h| h.name);
            out.push(ScheduleSite {
                variant,
                line: toks[i].line,
                args,
            });
            i = end;
            continue;
        }
        i += 1;
    }
    out
}

/// Mask-bit-0 gen vector: blocks containing `schedule(.. Msg::<timer> ..)`.
fn schedule_gens(toks: &[Tok], cfg: &Cfg, timer: &str) -> Vec<u64> {
    cfg.blocks
        .iter()
        .map(|b| {
            let armed = schedule_sites(toks, b.range.clone())
                .iter()
                .any(|s| s.variant.as_deref() == Some(timer));
            u64::from(armed)
        })
        .collect()
}

/// Block index containing token `idx`.
fn block_of(cfg: &Cfg, idx: usize) -> Option<usize> {
    (0..cfg.blocks.len()).find(|&b| cfg.blocks[b].range.contains(&idx))
}

/// True when every path through token `idx`'s block contains a
/// `schedule(Msg::<timer>)`: the block itself, all paths into it, or all
/// paths from it to the exit.
fn armed_on_path(toks: &[Tok], cfg: &Cfg, gens: &[u64], idx: usize) -> bool {
    let _ = toks;
    let Some(b) = block_of(cfg, idx) else {
        return false; // insert in a join block we failed to map: be strict
    };
    if gens[b] & 1 == 1 {
        return true;
    }
    let fwd = solve(cfg, Dir::Forward, Meet::Must, |x| gens[x]);
    let bwd = solve(cfg, Dir::Backward, Meet::Must, |x| gens[x]);
    fwd.entry[b] & 1 == 1 || bwd.entry[b] & 1 == 1
}

/// All `match` arms in a token range (any nesting depth).
fn arms_in(toks: &[Tok], range: Range<usize>) -> Vec<crate::cfg::Arm> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i < range.end.min(toks.len()) {
        if toks[i].is_ident("match") {
            if let Some(bs) = find_body_brace(toks, i + 1, range.end) {
                let be = skip_group(toks, bs, '{', '}');
                for arm in match_arms(toks, bs + 1..be - 1) {
                    // Recurse into the arm body for nested matches.
                    out.extend(arms_in(toks, arm.body.clone()));
                    out.push(arm);
                }
                i = be;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn range_has_path(toks: &[Tok], range: Range<usize>, base: &str, name: &str) -> bool {
    super::find_paths(toks, range, base)
        .iter()
        .any(|h| h.name == name)
}

fn flag(
    out: &mut Vec<Diagnostic>,
    file: &SourceFile,
    code: &'static str,
    line: u32,
    message: String,
    suggestion: &str,
) {
    if file.allowed("time", line) {
        return;
    }
    out.push(Diagnostic::error(code, &file.path, line, message).with_suggestion(suggestion));
}

/// The timeout-coverage pass.
pub struct TimePass;

impl Pass for TimePass {
    fn name(&self) -> &'static str {
        "time"
    }

    fn description(&self) -> &'static str {
        "every quorum/ack wait in mdcc reaches a timeout edge"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for file in ws.files_under("crates/mdcc/src/") {
            let toks = file.toks();
            let cg = CallGraph::build(toks);

            // TIME001: table-driven must-arm through wait inserts.
            for rule in WAIT_TABLE {
                if !file.path.ends_with(rule.file_suffix) {
                    continue;
                }
                for f in &cg.fns {
                    let inserts: Vec<MethodCall> = method_calls(toks, f.body.clone(), &["insert"])
                        .into_iter()
                        .filter(|c| c.coll == rule.collection)
                        .collect();
                    if inserts.is_empty() {
                        continue;
                    }
                    let cfg = build_cfg(toks, f.body.clone());
                    let gens = schedule_gens(toks, &cfg, rule.timer);
                    for ins in inserts {
                        if !armed_on_path(toks, &cfg, &gens, ins.idx) {
                            flag(
                                out,
                                file,
                                "TIME001",
                                ins.line,
                                format!(
                                    "wait registered in `{}.{}` without a timeout: some path through this insert in `{}` never schedules `Msg::{}`",
                                    rule.collection, "insert", f.name, rule.timer
                                ),
                                "arm the timer with `ctx.schedule(timeout, Msg::..)` on every path that registers the wait, or annotate with `// check:allow(time)` if the wait is reclaimed elsewhere",
                            );
                        }
                    }
                }
            }

            // Collect scheduled timer variants and their sites.
            let whole = 0..toks.len();
            let sites = schedule_sites(toks, whole.clone());
            let scheduled: BTreeSet<String> =
                sites.iter().filter_map(|s| s.variant.clone()).collect();
            if scheduled.is_empty() {
                continue;
            }

            // TIME002: scheduled-but-never-handled variants. A variant is
            // "handled" if `Msg::X` appears anywhere outside schedule
            // argument lists (a match pattern, a re-send, a forward).
            let all_hits = super::find_paths(toks, whole.clone(), "Msg");
            for variant in &scheduled {
                let outside = all_hits
                    .iter()
                    .any(|h| h.name == *variant && !sites.iter().any(|s| s.args.contains(&h.idx)));
                if !outside {
                    let line = sites
                        .iter()
                        .find(|s| s.variant.as_deref() == Some(variant))
                        .map(|s| s.line)
                        .unwrap_or(1);
                    flag(
                        out,
                        file,
                        "TIME002",
                        line,
                        format!(
                            "timer `Msg::{variant}` is scheduled but never handled in this file"
                        ),
                        "add a handler arm for the timer message (or delete the schedule); a timer nobody consumes is a silent liveness hole",
                    );
                }
            }

            // TIME003: one-shot timer consumed without re-arm.
            let arms = {
                let mut v = Vec::new();
                for f in &cg.fns {
                    v.extend(arms_in(toks, f.body.clone()));
                }
                v
            };
            // Handler regions per scheduled variant: the matching arms plus
            // every same-file function reachable from them.
            struct Region {
                variant: String,
                arms: Vec<crate::cfg::Arm>,
                fns: BTreeSet<usize>,
            }
            let regions: Vec<Region> = scheduled
                .iter()
                .map(|variant| {
                    let handler_arms: Vec<crate::cfg::Arm> = arms
                        .iter()
                        .filter(|a| range_has_path(toks, a.pattern.clone(), "Msg", variant))
                        .cloned()
                        .collect();
                    let mut roots: BTreeSet<usize> = BTreeSet::new();
                    for arm in &handler_arms {
                        for name in call_names(toks, arm.body.clone()) {
                            roots.extend(cg.named(&name).iter().copied());
                        }
                    }
                    let fns = cg.reachable(roots);
                    Region {
                        variant: variant.clone(),
                        arms: handler_arms,
                        fns,
                    }
                })
                .collect();
            let region_contains = |r: &Region, idx: usize| -> bool {
                r.arms.iter().any(|a| a.body.contains(&idx))
                    || r.fns.iter().any(|&f| cg.fns[f].body.contains(&idx))
            };
            let removals = method_calls(toks, whole.clone(), &["remove", "clear", "retain"]);
            for region in &regions {
                if region.arms.is_empty() {
                    continue; // TIME002's territory
                }
                let variant = &region.variant;
                let handler_set = &region.fns;
                // Collections reclaimed *only* by this timer's handler:
                // every removal site lies in this region and in no other
                // timer's region (a site reachable from two timers means
                // sweep ownership is ambiguous — e.g. a service queue that
                // re-dispatches arbitrary messages — and a one-shot
                // starvation claim would be unsound).
                let exclusive = |idx: usize| -> bool {
                    region_contains(region, idx)
                        && !regions
                            .iter()
                            .filter(|r| r.variant != *variant)
                            .any(|r| region_contains(r, idx))
                };
                let mut swept: BTreeSet<String> = BTreeSet::new();
                for r in &removals {
                    if exclusive(r.idx) {
                        swept.insert(r.coll.clone());
                    }
                }
                swept.retain(|c| {
                    removals
                        .iter()
                        .filter(|r| &r.coll == c)
                        .all(|r| exclusive(r.idx))
                });
                if swept.is_empty() {
                    continue;
                }
                // Any handler-reachable insert into a swept collection must
                // re-arm the timer on its path (in the inserting function or
                // around every handler-side call into it).
                for &fi in handler_set {
                    let f = &cg.fns[fi];
                    let inserts: Vec<MethodCall> = method_calls(toks, f.body.clone(), &["insert"])
                        .into_iter()
                        .filter(|c| swept.contains(&c.coll))
                        .collect();
                    if inserts.is_empty() {
                        continue;
                    }
                    let cfg = build_cfg(toks, f.body.clone());
                    let gens = schedule_gens(toks, &cfg, variant);
                    for ins in inserts {
                        let mut ok = armed_on_path(toks, &cfg, &gens, ins.idx);
                        if !ok {
                            // Caller-level cover: every handler-side call
                            // into `f` re-arms around the call site.
                            let callers: Vec<usize> = handler_set
                                .iter()
                                .copied()
                                .filter(|&g| cg.callees[g].contains(&fi))
                                .collect();
                            ok = !callers.is_empty()
                                && callers.iter().all(|&g| {
                                    let gf = &cg.fns[g];
                                    let gcfg = build_cfg(toks, gf.body.clone());
                                    let ggens = schedule_gens(toks, &gcfg, variant);
                                    let call_sites: Vec<usize> = (gf.body.clone())
                                        .filter(|&k| {
                                            toks[k].is_ident(&f.name)
                                                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                                        })
                                        .collect();
                                    !call_sites.is_empty()
                                        && call_sites
                                            .iter()
                                            .all(|&k| armed_on_path(toks, &gcfg, &ggens, k))
                                });
                        }
                        if !ok {
                            flag(
                                out,
                                file,
                                "TIME003",
                                ins.line,
                                format!(
                                    "`{}` inserts into `{}`, which only the `Msg::{}` handler reclaims — but the handler path that reaches this insert consumed the timer without re-arming it",
                                    f.name, ins.coll, variant
                                ),
                                "re-schedule the timer on the handler path that performs the insert (the one-shot timer was consumed by firing), or annotate with `// check:allow(time)`",
                            );
                        }
                    }
                }
            }
        }
    }
}
