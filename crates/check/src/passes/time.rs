//! Timeout-coverage lints: every quorum/ack wait in the MDCC protocol
//! crate must reach a timeout edge.
//!
//! The protocol's liveness story is "every wait is bounded": a coordinator
//! that starts collecting votes arms `TxnTimeout`; a replica's ack state is
//! reclaimed by the standing lease sweep. A wait registered without a timer
//! hangs forever the first time a message is lost. Two codes:
//!
//! * **TIME001** — a function inserts into a wait-tracking collection (the
//!   table in `WAIT_TABLE`) but some path through the insert never
//!   executes `ctx.schedule(_, Msg::<Timer>)`. Checked with the CFG
//!   must-solver: the insert block itself, all paths into it, or all paths
//!   from it to the exit must contain the schedule.
//! * **TIME003** — a one-shot timer's handler reaches an insert into a
//!   collection that *only* the timer's own handler ever reclaims, without
//!   re-arming the timer on that path. Firing the timer consumed it; the
//!   inserted entry can never be swept again. (This is exactly the shape of
//!   the coordinator's `recent` map: normal completion inserts while the
//!   submit-time timer is still pending, but the timeout path inserts
//!   *after* consuming that timer.)
//!
//! A timer that is scheduled but never handled is the `flow` pass's
//! FLOW001: every timer is a `Msg` variant with a receiving role.
//!
//! Scope: `crates/mdcc/src/`, one file at a time: handler regions close
//! over the workspace call graph's edges that stay inside the file.
//! Suppress with `// check:allow(time)`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::cfg::{build_cfg, covered_on_every_path, find_body_brace, match_arms, Arm, Cfg};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, Workspace};
use crate::parse::skip_group;
use crate::passes::flag;

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

/// The timer variants `schedule(.., Msg::<variant>)` calls in `range` arm.
fn scheduled_timers(toks: &[Tok], range: Range<usize>) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = range.start;
    while i + 1 < range.end.min(toks.len()) {
        if toks[i].is_ident("schedule") && toks[i + 1].is_punct('(') {
            let end = skip_group(toks, i + 1, '(', ')');
            out.extend(
                super::find_paths(toks, i + 2..end - 1, "Msg")
                    .into_iter()
                    .next()
                    .map(|h| h.name),
            );
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
            let armed = scheduled_timers(toks, b.range.clone())
                .iter()
                .any(|v| v == timer);
            u64::from(armed)
        })
        .collect()
}

/// All `match` arms in a token range (any nesting depth).
fn arms_in(toks: &[Tok], range: Range<usize>) -> Vec<Arm> {
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
        let g = ws.graph();
        for (fi, file) in ws.files().iter().enumerate() {
            if !file.path.starts_with("crates/mdcc/src/") {
                continue;
            }
            let toks = file.toks();
            let nodes = g.nodes_of_file(fi);

            // TIME001: table-driven must-arm through wait inserts.
            for rule in WAIT_TABLE {
                if !file.path.ends_with(rule.file_suffix) {
                    continue;
                }
                for &n in nodes {
                    let f = &g.fns[n];
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
                        if !covered_on_every_path(&cfg, &gens, ins.idx) {
                            flag(
                                out,
                                file,
                                "time",
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

            let whole = 0..toks.len();
            let scheduled: BTreeSet<String> =
                scheduled_timers(toks, whole.clone()).into_iter().collect();
            if scheduled.is_empty() {
                continue;
            }

            // TIME003: one-shot timer consumed without re-arm.
            let arms: Vec<Arm> = nodes
                .iter()
                .flat_map(|&n| arms_in(toks, g.fns[n].body.clone()))
                .collect();
            // Handler regions per scheduled variant: the matching arms plus
            // every same-file function reachable from them.
            struct Region {
                variant: String,
                arms: Vec<Arm>,
                fns: BTreeSet<usize>,
            }
            let regions: Vec<Region> = scheduled
                .iter()
                .map(|variant| {
                    let handler_arms: Vec<Arm> = arms
                        .iter()
                        .filter(|a| range_has_path(toks, a.pattern.clone(), "Msg", variant))
                        .cloned()
                        .collect();
                    let roots = nodes
                        .iter()
                        .flat_map(|&n| &g.calls[n])
                        .filter(|s| handler_arms.iter().any(|a| a.body.contains(&s.tok)))
                        .map(|s| s.target);
                    Region {
                        variant: variant.clone(),
                        fns: g.reachable_in_file(roots, fi),
                        arms: handler_arms,
                    }
                })
                .collect();
            let region_contains = |r: &Region, idx: usize| -> bool {
                r.arms.iter().any(|a| a.body.contains(&idx))
                    || r.fns.iter().any(|&f| g.fns[f].body.contains(&idx))
            };
            let removals = method_calls(toks, whole.clone(), &["remove", "clear", "retain"]);
            for region in &regions {
                if region.arms.is_empty() {
                    continue; // an unhandled timer is FLOW001's territory
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
                for &fnode in handler_set {
                    let f = &g.fns[fnode];
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
                        let mut ok = covered_on_every_path(&cfg, &gens, ins.idx);
                        if !ok {
                            // Caller-level cover: every handler-side call
                            // into `f` re-arms around the call site.
                            let callers: Vec<usize> = handler_set
                                .iter()
                                .copied()
                                .filter(|&c| g.callees[c].contains(&fnode))
                                .collect();
                            ok = !callers.is_empty()
                                && callers.iter().all(|&c| {
                                    let cf = &g.fns[c];
                                    let ccfg = build_cfg(toks, cf.body.clone());
                                    let cgens = schedule_gens(toks, &ccfg, variant);
                                    let call_sites: Vec<usize> = (cf.body.clone())
                                        .filter(|&k| {
                                            toks[k].is_ident(&f.name)
                                                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
                                        })
                                        .collect();
                                    !call_sites.is_empty()
                                        && call_sites
                                            .iter()
                                            .all(|&k| covered_on_every_path(&ccfg, &cgens, k))
                                });
                        }
                        if !ok {
                            flag(
                                out,
                                file,
                                "time",
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
