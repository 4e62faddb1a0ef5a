//! Message-flow analysis: a per-`Msg`-variant send/handle graph spanning
//! `mdcc/src/messages.rs`, the actor files, and the cluster runtime.
//!
//! The compiler proves the codec covers every variant (its `match` is
//! generated from one schema table); this pass proves the *protocol* does.
//! Every variant is declared to route to a role (coordinator / replica /
//! client); sends are `Msg::Variant` constructions,
//! handlers are `Msg::Variant` patterns (match arms, `if let`/`let else`
//! destructures, `matches!`). The codec (`cluster/src/wire.rs`) mentions
//! every variant by design, so it is excluded from the send/handle
//! inventory. Codes:
//!
//! * **FLOW001** — a variant is sent but its receiving role never matches
//!   it (the message arrives and falls through the handler), or a new
//!   variant is missing from the declared routing table.
//! * **FLOW002** — a request variant's handler neither reaches a reply-send
//!   (workspace-wide, via the interprocedural call graph) nor arms a timer
//!   on every path (the PR-5 must-dataflow); and, on the client side, a
//!   file that submits transactions without ever arming a client timer —
//!   one lost reply wedges a closed-loop client forever.
//! * **FLOW003** — dead wire surface: a variant never sent or never handled
//!   by any role file.
//! * **FLOW005** — a coordinator or replica function sends a key-carrying
//!   variant without resolving its destination through the shard map
//!   (no `shard_of` / `other_peers` / `route_replicas` / `route_master` in
//!   its body): per-key ordering rests on a key only ever talking to its
//!   one shard.
//!
//! Suppress with `// check:allow(flow)`.

use std::collections::HashMap;
use std::ops::Range;

use crate::cfg::{build_cfg, covered_on_every_path, Cfg};
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::{Pass, Workspace};
use crate::parse::skip_group;
use crate::passes::determinism::cfg_test_ranges;
use crate::passes::find_paths;
use crate::passes::{flag, in_ranges};

/// The message enum's home.
const MSG_FILE: &str = "crates/mdcc/src/messages.rs";

/// The codec mirrors the enum by construction; it is not protocol surface.
const CODEC_FILE: &str = "crates/cluster/src/wire.rs";

/// A protocol role: who a variant is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Handled in `mdcc/src/coordinator.rs`.
    Coordinator,
    /// Handled in `mdcc/src/replica_actor.rs`.
    Replica,
    /// Handled in `core/src/client.rs` or `mdcc/src/cluster.rs`.
    Client,
}

impl Role {
    fn name(self) -> &'static str {
        match self {
            Role::Coordinator => "coordinator",
            Role::Replica => "replica",
            Role::Client => "client",
        }
    }

    /// The files whose handlers implement this role.
    fn files(self) -> &'static [&'static str] {
        match self {
            Role::Coordinator => &["crates/mdcc/src/coordinator.rs"],
            Role::Replica => &["crates/mdcc/src/replica_actor.rs"],
            Role::Client => &["crates/core/src/client.rs", "crates/mdcc/src/cluster.rs"],
        }
    }
}

/// What the flow pass judges a workspace's `Msg` against: which role each
/// variant routes to, which variants are requests awaiting a reply, and
/// which must be routed by key. The default is the real protocol's; a
/// fixture that declares a `Msg` of its own states its own tables, so that
/// editing the real ones cannot change what a fixture proves.
#[derive(Debug, Clone, Copy)]
pub struct FlowTables {
    /// Variant → receiving role. A variant missing here trips FLOW001 at
    /// its declaration: extending the protocol means declaring who handles
    /// it.
    pub routes: &'static [(&'static str, Role)],
    /// Request variant → (expected reply variant, handling role).
    pub requests: &'static [(&'static str, &'static str, Role)],
    /// Variants that carry a key and so must be routed to the key's replica
    /// shard (FLOW005).
    pub key_routed: &'static [&'static str],
}

impl Default for FlowTables {
    fn default() -> Self {
        FlowTables {
            routes: ROUTES,
            requests: REQUESTS,
            key_routed: KEY_ROUTED,
        }
    }
}

/// The real protocol's routes (see [`FlowTables::routes`]).
const ROUTES: &[(&str, Role)] = &[
    ("Submit", Role::Coordinator),
    ("RegisterPlan", Role::Coordinator),
    ("SubmitPlan", Role::Coordinator),
    ("ReadResp", Role::Coordinator),
    ("Vote", Role::Coordinator),
    ("TxnTimeout", Role::Coordinator),
    ("ReadReq", Role::Replica),
    ("FastPropose", Role::Replica),
    ("Propose", Role::Replica),
    ("Replicate", Role::Replica),
    ("Decide", Role::Replica),
    ("Apply", Role::Replica),
    ("DropPending", Role::Replica),
    ("ReplicateAck", Role::Replica),
    ("ReplicaServiceDone", Role::Replica),
    ("Progress", Role::Client),
    ("TxnDone", Role::Client),
    ("PlanReady", Role::Client),
    ("ClientTimer", Role::Client),
];

/// The real protocol's requests (see [`FlowTables::requests`]).
const REQUESTS: &[(&str, &str, Role)] = &[
    ("Submit", "TxnDone", Role::Coordinator),
    ("RegisterPlan", "PlanReady", Role::Coordinator),
    ("SubmitPlan", "TxnDone", Role::Coordinator),
    ("ReadReq", "ReadResp", Role::Replica),
    ("FastPropose", "Vote", Role::Replica),
    ("Propose", "Vote", Role::Replica),
    ("Replicate", "ReplicateAck", Role::Replica),
];

/// The real protocol's key-routed variants (see
/// [`FlowTables::key_routed`]). `Vote` and `ReplicateAck` carry keys too,
/// but they are replies: they go back to an explicit requester, never by
/// key.
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

/// The files whose senders FLOW005 checks.
const ROUTED_FILES: &[&str] = &[
    "crates/mdcc/src/coordinator.rs",
    "crates/mdcc/src/replica_actor.rs",
];

/// One `Msg::Variant` occurrence: file index, token index of the variant
/// ident, line. `test_only` marks a `matches!(..)` membership test — it
/// neither handles the message nor obligates a reply.
#[derive(Debug, Clone, Copy)]
struct Hit {
    file: usize,
    idx: usize,
    line: u32,
    test_only: bool,
}

/// What a `Msg::Variant` occurrence is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Expression position: a construction/send.
    Send,
    /// A destructuring pattern: a handler.
    Pattern,
    /// A `matches!(..)` membership test: neither.
    MatchTest,
}

/// Classify a `Msg::Variant` occurrence (`vidx` = variant ident token) as a
/// pattern (handler) vs an expression (send/construction).
fn classify(toks: &[Tok], vidx: usize) -> Kind {
    // Forward: skip the optional field group, then look for `=>` before a
    // statement/argument boundary — the match-arm shape (guards included).
    let mut k = vidx + 1;
    if k < toks.len() && toks[k].is_punct('{') {
        k = skip_group(toks, k, '{', '}');
    } else if k < toks.len() && toks[k].is_punct('(') {
        k = skip_group(toks, k, '(', ')');
    }
    let mut steps = 0;
    while k < toks.len() && steps < 40 {
        let t = &toks[k];
        if t.is_punct('=') && k + 1 < toks.len() && toks[k + 1].is_punct('>') {
            return Kind::Pattern;
        }
        if t.is_punct('(') {
            k = skip_group(toks, k, '(', ')');
        } else if t.is_punct('[') {
            k = skip_group(toks, k, '[', ']');
        } else if t.is_punct(',')
            || t.is_punct(';')
            || t.is_punct('{')
            || t.is_punct('}')
            || t.is_punct(')')
        {
            break;
        } else {
            k += 1;
        }
        steps += 1;
    }
    // Backward: a `let` at statement level (if-let / while-let / let-else /
    // plain destructure) or an enclosing `matches!(..)` makes it a pattern.
    let Some(mstart) = vidx.checked_sub(3) else {
        return Kind::Send;
    };
    let mut k = mstart;
    let mut steps = 0;
    while k > 0 && steps < 60 {
        k -= 1;
        steps += 1;
        let t = &toks[k];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_punct('>') && k > 0 && toks[k - 1].is_punct('=') {
            break; // inside a match-arm body: expression position
        }
        if t.is_ident("let") {
            return Kind::Pattern;
        }
        if t.is_punct('(') {
            // The enclosing group: `matches!(expr, Msg::V { .. })`?
            if k >= 2 && toks[k - 1].is_punct('!') && toks[k - 2].is_ident("matches") {
                return Kind::MatchTest;
            }
            return Kind::Send;
        }
        if t.is_punct(')') || t.is_punct(']') {
            // Skip a balanced group backwards.
            let (open, close) = if t.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 1i32;
            while k > 0 && depth > 0 {
                k -= 1;
                if toks[k].is_punct(close) {
                    depth += 1;
                } else if toks[k].is_punct(open) {
                    depth -= 1;
                }
            }
        }
    }
    Kind::Send
}

/// Token indices of `.<method>(` call sites in `range`.
fn method_calls(toks: &[Tok], range: Range<usize>, method: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = range.start.max(1);
    while i + 1 < range.end.min(toks.len()) {
        if toks[i].is_ident(method) && toks[i - 1].is_punct('.') && toks[i + 1].is_punct('(') {
            out.push(i);
        }
        i += 1;
    }
    out
}

/// True when every path through token `idx`'s block passes a
/// `.schedule(..)` call: the block itself, all paths into it, or all paths
/// out of it (the TIME must-dataflow).
fn timer_armed_on_path(toks: &[Tok], cfg: &Cfg, idx: usize) -> bool {
    let gens: Vec<u64> = cfg
        .blocks
        .iter()
        .map(|b| u64::from(!method_calls(toks, b.range.clone(), "schedule").is_empty()))
        .collect();
    covered_on_every_path(cfg, &gens, idx)
}

/// FLOW005: a function that sends (`ctx.send`) a key-carrying variant must
/// name a routing witness somewhere in its body. A send that picks a
/// replica without one can split a key's history across stores.
fn check_shard_routing(ws: &Workspace, key_routed: &[&str], out: &mut Vec<Diagnostic>) {
    for path in ROUTED_FILES {
        let Some(file) = ws.file(path) else {
            continue;
        };
        let toks = file.toks();
        for fn_def in file.fns() {
            let body = fn_def.body.start..fn_def.body.end.min(toks.len());
            let sends = body.clone().skip(2).any(|i| {
                toks[i - 2].is_ident("ctx") && toks[i - 1].is_punct('.') && toks[i].is_ident("send")
            });
            let witnessed = body.clone().any(|i| {
                toks[i].kind == TokKind::Ident && ROUTING_MARKERS.contains(&toks[i].text.as_str())
            });
            if !sends || witnessed {
                continue;
            }
            for hit in find_paths(toks, body.clone(), "Msg") {
                if !key_routed.contains(&hit.name.as_str()) {
                    continue;
                }
                flag(
                    out,
                    file,
                    "flow",
                    "FLOW005",
                    hit.line,
                    format!(
                        "unrouted key-carrying send: `{}` sends `Msg::{}` without resolving the destination through the shard map ({})",
                        fn_def.name,
                        hit.name,
                        ROUTING_MARKERS.join(" / "),
                    ),
                    "route the send through shard_of/route_replicas/route_master (or other_peers on the replica); if the destination is genuinely shard-independent, annotate with `// check:allow(flow)`",
                );
            }
        }
    }
}

/// The message-flow pass, judging against its tables
/// ([`FlowTables::default`] in the built-in pipeline).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowPass {
    /// The routes, requests and key-routed variants the pass enforces.
    pub tables: FlowTables,
}

impl Pass for FlowPass {
    fn name(&self) -> &'static str {
        "flow"
    }

    fn description(&self) -> &'static str {
        "every Msg variant sent is handled by its role, requests reach a reply or an armed timeout, key-carrying sends are shard-routed"
    }

    fn run(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let tables = &self.tables;
        check_shard_routing(ws, tables.key_routed, out);
        let Some(msg_file) = ws.file(MSG_FILE) else {
            return; // fixture workspaces without the protocol: nothing to do
        };
        let Some(msg_enum) = msg_file.enum_named("Msg") else {
            return;
        };
        let files = ws.files();

        // ---- inventory: every Msg::Variant occurrence, classified ----
        let mut sends: HashMap<String, Vec<Hit>> = HashMap::new();
        let mut pats: HashMap<String, Vec<Hit>> = HashMap::new();
        for (fi, f) in files.iter().enumerate() {
            if f.path == CODEC_FILE {
                continue;
            }
            let toks = f.toks();
            let skip = cfg_test_ranges(toks);
            for hit in find_paths(toks, 0..toks.len(), "Msg") {
                if in_ranges(&skip, hit.idx) {
                    continue;
                }
                let kind = classify(toks, hit.idx);
                let h = Hit {
                    file: fi,
                    idx: hit.idx,
                    line: hit.line,
                    test_only: kind == Kind::MatchTest,
                };
                match kind {
                    Kind::Send => sends.entry(hit.name.clone()).or_default().push(h),
                    Kind::Pattern | Kind::MatchTest => {
                        pats.entry(hit.name.clone()).or_default().push(h)
                    }
                }
            }
        }
        let role_file_indices = |role: Role| -> Vec<usize> {
            role.files()
                .iter()
                .filter_map(|p| files.iter().position(|f| &f.path == p))
                .collect()
        };

        // ---- FLOW001 + FLOW003 over the declared enum ----
        for v in &msg_enum.variants {
            let route = tables
                .routes
                .iter()
                .find(|(n, _)| *n == v.name)
                .map(|(_, r)| *r);
            let Some(role) = route else {
                flag(
                    out,
                    msg_file,
                    "flow",
                    "FLOW001",
                    v.line,
                    format!(
                        "`Msg::{}` has no declared receiving role in the flow routing table",
                        v.name
                    ),
                    "every protocol variant must name its handler role; extend ROUTES in the flow pass (or annotate with `// check:allow(flow)`)",
                );
                continue;
            };
            let v_sends = sends.get(&v.name).map(Vec::as_slice).unwrap_or(&[]);
            let v_pats = pats.get(&v.name).map(Vec::as_slice).unwrap_or(&[]);
            let role_fis = role_file_indices(role);
            if !v_sends.is_empty()
                && !v_pats
                    .iter()
                    .any(|h| !h.test_only && role_fis.contains(&h.file))
            {
                let first = v_sends[0];
                flag(
                    out,
                    &files[first.file],
                    "flow",
                    "FLOW001",
                    first.line,
                    format!(
                        "`Msg::{}` is sent here but the {} role never matches it — the message arrives and is silently dropped",
                        v.name,
                        role.name()
                    ),
                    "add a handler arm on the receiving role, or annotate with `// check:allow(flow)` and justify",
                );
            }
            // FLOW003: dead wire surface. Handling only counts in role files
            // (a transport or checker matching a variant is not a handler).
            let any_role_file: Vec<usize> = [Role::Coordinator, Role::Replica, Role::Client]
                .iter()
                .flat_map(|r| role_file_indices(*r))
                .collect();
            if v_sends.is_empty() {
                flag(
                    out,
                    msg_file,
                    "flow",
                    "FLOW003",
                    v.line,
                    format!("`Msg::{}` is never sent: dead wire surface", v.name),
                    "delete the variant (and its codec arms), or annotate with `// check:allow(flow)` if it is reserved",
                );
            } else if !v_pats
                .iter()
                .any(|h| !h.test_only && any_role_file.contains(&h.file))
            {
                flag(
                    out,
                    msg_file,
                    "flow",
                    "FLOW003",
                    v.line,
                    format!(
                        "`Msg::{}` is never handled by any role file: dead wire surface",
                        v.name
                    ),
                    "delete the variant (and its codec arms), or annotate with `// check:allow(flow)` if it is reserved",
                );
            }
        }

        // ---- FLOW002: request handlers must reply or arm a timeout ----
        let g = ws.graph();
        for (req, reply, role) in tables.requests {
            let reply_sends = sends.get(*reply).map(Vec::as_slice).unwrap_or(&[]);
            for &fi in &role_file_indices(*role) {
                let f = &files[fi];
                let toks = f.toks();
                for &node in g.nodes_of_file(fi) {
                    let body = g.fns[node].body.clone();
                    let req_hits: Vec<Hit> = pats
                        .get(*req)
                        .map(Vec::as_slice)
                        .unwrap_or(&[])
                        .iter()
                        .filter(|h| !h.test_only && h.file == fi && body.contains(&h.idx))
                        .copied()
                        .collect();
                    if req_hits.is_empty() {
                        continue;
                    }
                    // Workspace-reachable regions from the handler.
                    let (reach, _) = g.reachable_with_preds([node]);
                    let replies = reply_sends.iter().any(|s| {
                        reach
                            .iter()
                            .any(|&n| g.fns[n].file == s.file && g.fns[n].body.contains(&s.idx))
                    });
                    if replies {
                        continue;
                    }
                    let cfg = build_cfg(toks, body.clone());
                    for h in req_hits {
                        if !timer_armed_on_path(toks, &cfg, h.idx) {
                            flag(
                                out,
                                f,
                                "flow",
                                "FLOW002",
                                h.line,
                                format!(
                                    "handler for request `Msg::{req}` neither reaches a `Msg::{reply}` send nor arms a timeout on every path"
                                ),
                                "a request the sender waits on must produce a reply or a timer; add the reply send or `ctx.schedule(..)`, or annotate with `// check:allow(flow)`",
                            );
                        }
                    }
                }
            }
        }
        // Client side: a file that submits must arm a client-side timer
        // somewhere, or one lost reply wedges its closed loop.
        for &fi in &role_file_indices(Role::Client) {
            let f = &files[fi];
            let toks = f.toks();
            let skip = cfg_test_ranges(toks);
            let submits: Vec<&Hit> = sends
                .get("Submit")
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .filter(|h| h.file == fi)
                .collect();
            if submits.is_empty() {
                continue;
            }
            let has_timer = method_calls(toks, 0..toks.len(), "schedule")
                .iter()
                .any(|&i| !in_ranges(&skip, i));
            if !has_timer {
                let first = submits[0];
                flag(
                    out,
                    f,
                    "flow",
                    "FLOW002",
                    first.line,
                    "client sends `Msg::Submit` but this file never arms a client-side timer — one lost reply wedges the closed loop forever".to_string(),
                    "arm a `Msg::ClientTimer` deadline per in-flight transaction and resubmit/report on expiry, or annotate with `// check:allow(flow)`",
                );
            }
        }
    }
}
