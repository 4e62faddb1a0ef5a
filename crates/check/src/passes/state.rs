//! State-machine legality: transaction lifecycle transitions extracted from
//! the coordinator and replica handler bodies are verified against a
//! declared legal-edge table.
//!
//! The transaction FSM is `Started → ReadsDone → (Vote | KeyFallback |
//! KeyResolved)* → {Committed, Aborted, TimedOut}`, with every terminal
//! reached through `CoordinatorActor::finish` exactly once (the terminal
//! sink: `finish` removes the transaction from `exec_of`, so no edge can
//! leave a terminal state — `Committed → Aborted` is structurally
//! impossible *only if* each handler produces outcomes from its legal set).
//! Both submissions (`Submit`, `SubmitPlan`) lower into one execution form
//! and enter the FSM through `start`; one that cannot be lowered never
//! enters it and is answered by `reject_submission`.
//! On the replica, committed versions may only be installed from the decide
//! and apply paths, and pending options may only be dropped by an abort
//! decision, a `DropPending`, or the lease sweep.
//!
//! Extraction is marker-based: a handler's body is scanned for
//! `Outcome::X` / `ProgressStage::X` paths and for `storage.decide(.., true
//! | false)` / `storage.install(..)` / `storage.accept(..)` calls; the table
//! declares which markers each handler may (and must) produce.

use std::collections::BTreeSet;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, SourceFile, Workspace};
use crate::parse::skip_group;
use crate::passes::find_paths;

/// A handler's row in the legal-edge table.
struct HandlerRule {
    file: &'static str,
    fn_name: &'static str,
    /// Markers the handler may produce.
    allowed: &'static [&'static str],
    /// Markers the handler must produce (a refactor silently dropping one
    /// of these edges is a protocol bug).
    required: &'static [&'static str],
}

const HANDLERS: &[HandlerRule] = &[
    // ---- coordinator: the transaction FSM ----
    HandlerRule {
        file: "crates/mdcc/src/coordinator.rs",
        fn_name: "start",
        // A transaction that touches nothing commits immediately;
        // everything else just starts.
        allowed: &["stage:Started", "outcome:Committed"],
        required: &["stage:Started"],
    },
    HandlerRule {
        file: "crates/mdcc/src/coordinator.rs",
        fn_name: "reject_submission",
        // A submission that cannot be lowered (unknown plan, bad
        // parameters, a key written twice) aborts without starting: the
        // only outcome produced outside the FSM.
        allowed: &["outcome:Aborted"],
        required: &["outcome:Aborted"],
    },
    HandlerRule {
        file: "crates/mdcc/src/coordinator.rs",
        fn_name: "handle_read_resp",
        // Read-only transactions commit locally after the read round.
        allowed: &["stage:ReadsDone", "outcome:Committed"],
        required: &["stage:ReadsDone"],
    },
    HandlerRule {
        file: "crates/mdcc/src/coordinator.rs",
        fn_name: "handle_vote",
        allowed: &[
            "stage:Vote",
            "stage:KeyFallback",
            "stage:KeyResolved",
            "outcome:Committed",
            "outcome:Aborted",
        ],
        required: &["outcome:Committed", "outcome:Aborted"],
    },
    HandlerRule {
        file: "crates/mdcc/src/coordinator.rs",
        fn_name: "handle_timeout",
        // The timeout path may never commit or abort on the transaction's
        // behalf: votes may still be in flight.
        allowed: &["outcome:TimedOut"],
        required: &["outcome:TimedOut"],
    },
    // ---- replica: the storage FSM ----
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_decide",
        allowed: &["decide:commit", "decide:abort", "install"],
        required: &["decide:commit", "decide:abort"],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_apply",
        allowed: &["install"],
        required: &["install"],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_drop_pending",
        allowed: &["decide:abort"],
        required: &["decide:abort"],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "sweep_leases",
        allowed: &["decide:abort"],
        required: &["decide:abort"],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "try_accept",
        allowed: &["accept"],
        required: &["accept"],
    },
    // Speculative-commit guard: proposal validation may only *accept*
    // options (via try_accept); it must never install or decide — a commit
    // is legal only from a prepared (decided) state.
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_fast_propose",
        allowed: &[],
        required: &[],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_propose",
        allowed: &[],
        required: &[],
    },
    HandlerRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fn_name: "handle_replicate",
        allowed: &[],
        required: &[],
    },
];

/// Which `Msg` variants each actor's receive match may handle. A variant
/// pattern-matched outside its declared role is a routing violation; a
/// variant missing from every role is an unroutable message.
struct RouteRule {
    file: &'static str,
    /// The receive-dispatch functions to scan.
    fns: &'static [&'static str],
    role: &'static str,
    inbound: &'static [&'static str],
}

const ROUTES: &[RouteRule] = &[
    RouteRule {
        file: "crates/mdcc/src/coordinator.rs",
        fns: &["on_message"],
        role: "coordinator",
        inbound: &[
            "Submit",
            "RegisterPlan",
            "SubmitPlan",
            "ReadResp",
            "Vote",
            "TxnTimeout",
        ],
    },
    RouteRule {
        file: "crates/mdcc/src/replica_actor.rs",
        fns: &["on_message", "dispatch", "is_costly"],
        role: "replica",
        inbound: &[
            "ReadReq",
            "FastPropose",
            "Propose",
            "Replicate",
            "ReplicateAck",
            "Decide",
            "Apply",
            "DropPending",
            "Crash",
            "Recover",
            "ReplicaServiceDone",
            "ClientTimer",
        ],
    },
];

/// `Msg` variants delivered to the client/PLANET layer rather than a
/// protocol actor; they complete the routing table.
const CLIENT_INBOUND: &[&str] = &["Progress", "TxnDone", "PlanReady", "ClientTimer"];

/// `Msg` variants that carry a key and therefore must be routed to the
/// key's replica shard. (`Vote` and `ReplicateAck` also carry keys but are
/// replies — they route back to an explicit requester, never by key.)
const KEY_ROUTED: &[&str] = &[
    "ReadReq",
    "FastPropose",
    "Propose",
    "Replicate",
    "Decide",
    "Apply",
    "DropPending",
];

/// Identifiers that witness shard-aware destination resolution in a sending
/// function: the shard map itself, the replica's same-shard peer iterator,
/// or the coordinator's accessors for a slot's `KeyRoute` (taken from the
/// same shard map when the slot was lowered or its plan compiled).
const ROUTING_MARKERS: &[&str] = &["shard_of", "other_peers", "route_replicas", "route_master"];

/// Files whose senders are subject to the shard-routing check.
const ROUTED_FILES: &[&str] = &[
    "crates/mdcc/src/coordinator.rs",
    "crates/mdcc/src/replica_actor.rs",
];

/// Extract the transition markers present in a function body.
fn markers(toks: &[Tok], body: std::ops::Range<usize>) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for hit in find_paths(toks, body.clone(), "Outcome") {
        out.push((format!("outcome:{}", hit.name), hit.line));
    }
    for hit in find_paths(toks, body.clone(), "ProgressStage") {
        out.push((format!("stage:{}", hit.name), hit.line));
    }
    // storage-mutation calls: `.decide(...)`, `.install(...)`, `.accept(...)`
    // and their interned-id twins (`.decide_id(...)` etc.) — same FSM edge,
    // different key representation.
    let mut i = body.start;
    while i + 2 < body.end.min(toks.len()) {
        if toks[i].is_punct('.')
            && toks[i + 1].kind == TokKind::Ident
            && i + 2 < toks.len()
            && toks[i + 2].is_punct('(')
        {
            let method = toks[i + 1].text.as_str();
            let line = toks[i + 1].line;
            match method {
                "install" | "install_id" => out.push(("install".into(), line)),
                "accept" | "accept_id" => out.push(("accept".into(), line)),
                "decide" | "decide_id" => {
                    let end = skip_group(toks, i + 2, '(', ')');
                    let args = &toks[i + 3..end.saturating_sub(1)];
                    let marker = if args.iter().any(|t| t.is_ident("true")) {
                        "decide:commit"
                    } else if args.iter().any(|t| t.is_ident("false")) {
                        "decide:abort"
                    } else {
                        "decide:dynamic"
                    };
                    out.push((marker.into(), line));
                }
                _ => {}
            }
        }
        i += 1;
    }
    out
}

/// True if the body contains a `ctx.send` call (as opposed to only
/// pattern-matching message variants, as the dispatch functions do).
fn body_sends(toks: &[Tok], body: std::ops::Range<usize>) -> bool {
    let end = body.end.min(toks.len());
    (body.start..end.saturating_sub(2)).any(|i| {
        toks[i].is_ident("ctx") && toks[i + 1].is_punct('.') && toks[i + 2].is_ident("send")
    })
}

/// STATE006: every function that *sends* a key-carrying message must resolve
/// its destination through the shard map. Per-key ordering rests on a key
/// only ever talking to its one shard; a send that picks a replica without a
/// routing witness (`shard_of` / `route_replicas` / `route_master` /
/// `other_peers`) can silently split a key's history across stores.
fn check_shard_routing(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for path in ROUTED_FILES {
        let Some(file) = ws.file(path) else {
            continue;
        };
        let toks = file.toks();
        for fn_def in file.fns() {
            let body = fn_def.body.clone();
            if !body_sends(toks, body.clone()) {
                continue;
            }
            let routed: Vec<_> = find_paths(toks, body.clone(), "Msg")
                .into_iter()
                .filter(|hit| KEY_ROUTED.contains(&hit.name.as_str()))
                .collect();
            if routed.is_empty() {
                continue;
            }
            let end = body.end.min(toks.len());
            let has_marker = (body.start..end).any(|i| {
                toks[i].kind == TokKind::Ident && ROUTING_MARKERS.contains(&toks[i].text.as_str())
            });
            if has_marker {
                continue;
            }
            for hit in routed {
                if file.allowed("shard_routing", hit.line) {
                    continue;
                }
                out.push(
                    Diagnostic::error(
                        "STATE006",
                        path,
                        hit.line,
                        format!(
                            "unrouted key-carrying send: `{}` sends `Msg::{}` without resolving the destination through the shard map ({})",
                            fn_def.name,
                            hit.name,
                            ROUTING_MARKERS.join(" / "),
                        ),
                    )
                    .with_suggestion(
                        "route the send through shard_of/route_replicas/route_master (or other_peers on the replica); if the destination is genuinely shard-independent, mark the line `check:allow(shard_routing)`",
                    ),
                );
            }
        }
    }
}

/// The state-machine legality pass.
pub struct StateMachinePass;

impl Pass for StateMachinePass {
    fn name(&self) -> &'static str {
        "state"
    }

    fn description(&self) -> &'static str {
        "handler transitions stay inside the declared transaction/storage FSM edges"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        check_shard_routing(ws, out);
        for rule in HANDLERS {
            let Some(file) = ws.file(rule.file) else {
                continue;
            };
            let Some(fn_def) = file.fn_named(rule.fn_name) else {
                out.push(Diagnostic::error(
                    "STATE005",
                    rule.file,
                    1,
                    format!(
                        "handler `{}` not found (renamed? update the legal-edge table in planet-check)",
                        rule.fn_name
                    ),
                ));
                continue;
            };
            let found = markers(file.toks(), fn_def.body.clone());
            let mut seen: BTreeSet<&str> = BTreeSet::new();
            for (marker, line) in &found {
                seen.insert(marker.as_str());
                if !rule.allowed.contains(&marker.as_str()) {
                    out.push(
                        Diagnostic::error(
                            "STATE001",
                            rule.file,
                            *line,
                            format!(
                                "illegal state transition: `{}` produces `{marker}`, outside its legal-edge set {{{}}}",
                                rule.fn_name,
                                rule.allowed.join(", "),
                            ),
                        )
                        .with_suggestion(
                            "if this edge is genuinely new protocol behaviour, extend the legal-edge table in planet-check's state pass alongside it",
                        ),
                    );
                }
            }
            for required in rule.required {
                if !seen.contains(required) {
                    out.push(Diagnostic::error(
                        "STATE002",
                        rule.file,
                        fn_def.line,
                        format!(
                            "missing state transition: `{}` no longer produces required edge `{required}`",
                            rule.fn_name
                        ),
                    ));
                }
            }
        }

        // ---- message routing legality ----
        let msg_enum = ws
            .file("crates/mdcc/src/messages.rs")
            .and_then(|f| f.enum_named("Msg"));
        for route in ROUTES {
            let Some(file) = ws.file(route.file) else {
                continue;
            };
            for fn_name in route.fns {
                let Some(fn_def) = file.fn_named(fn_name) else {
                    continue;
                };
                for hit in find_paths(file.toks(), fn_def.body.clone(), "Msg") {
                    if !route.inbound.contains(&hit.name.as_str()) {
                        out.push(
                            Diagnostic::error(
                                "STATE003",
                                route.file,
                                hit.line,
                                format!(
                                    "routing violation: `Msg::{}` is handled by the {} but is not declared {}-inbound",
                                    hit.name, route.role, route.role
                                ),
                            )
                            .with_suggestion(
                                "update the routing table in planet-check's state pass if this message legitimately changed owners",
                            ),
                        );
                    }
                }
            }
        }
        if let Some(msg_enum) = msg_enum {
            if routes_apply(ws) {
                for variant in &msg_enum.variants {
                    let routed = ROUTES
                        .iter()
                        .any(|r| r.inbound.contains(&variant.name.as_str()))
                        || CLIENT_INBOUND.contains(&variant.name.as_str());
                    if !routed {
                        out.push(
                            Diagnostic::error(
                                "STATE004",
                                "crates/mdcc/src/messages.rs",
                                variant.line,
                                format!(
                                    "unroutable message: `Msg::{}` is not declared inbound for any actor role",
                                    variant.name
                                ),
                            )
                            .with_suggestion(
                                "declare the receiving role in planet-check's routing table (coordinator, replica or client)",
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// The unroutable-variant check only makes sense when the actor files are in
/// the workspace (fixtures may provide `messages.rs` alone for codec tests).
fn routes_apply(ws: &Workspace) -> bool {
    ROUTES.iter().all(|r| {
        ws.file(r.file)
            .is_some_and(|f: &SourceFile| r.fns.iter().any(|n| f.fn_named(n).is_some()))
    })
}
