//! Fixture tests: prove each pass actually fires, with file:line anchored
//! diagnostics, by feeding the pipeline deliberately broken in-memory
//! workspaces via `Workspace::from_sources`.

use planet_check::passes::flow::{FlowPass, FlowTables, Role};
use planet_check::{run_passes, Pass, Workspace};

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    )
}

fn run(ws: &Workspace, pass: &str) -> Vec<planet_check::Diagnostic> {
    run_passes(ws, &[pass.to_string()])
}

// ---- determinism ----

#[test]
fn determinism_instant_now_fires() {
    let w = ws(&[(
        "crates/sim/src/engine.rs",
        r#"
fn tick() -> u64 {
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
"#,
    )]);
    let diags = run(&w, "determinism");
    let hit = diags
        .iter()
        .find(|d| d.code == "DET001")
        .expect("DET001 must fire on Instant in a sim crate");
    assert_eq!(hit.file, "crates/sim/src/engine.rs");
    assert_eq!(hit.line, 3);
}

#[test]
fn determinism_allow_marker_suppresses() {
    let w = ws(&[(
        "crates/sim/src/engine.rs",
        r#"
fn tick() -> u64 {
    // check:allow(determinism): diagnostics only, never affects replay
    let t = Instant::now();
    t.elapsed().as_nanos() as u64
}
"#,
    )]);
    let diags = run(&w, "determinism");
    assert!(diags.is_empty(), "allow marker must suppress: {diags:?}");
}

#[test]
fn determinism_hash_iteration_fires_and_cfg_test_is_exempt() {
    let w = ws(&[(
        "crates/mdcc/src/some_actor.rs",
        r#"
struct S {
    pending: HashMap<u64, u32>,
}
impl S {
    fn drain_all(&mut self) {
        for k in self.pending.keys() {
            emit(k);
        }
    }
}
#[cfg(test)]
mod tests {
    fn in_tests_is_fine() {
        let m: HashMap<u32, u32> = HashMap::new();
        for k in m.keys() {}
    }
}
"#,
    )]);
    let diags = run(&w, "determinism");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "DET004").collect();
    assert_eq!(hits.len(), 1, "exactly the non-test site: {diags:?}");
    assert_eq!(hits[0].line, 7);
    assert!(hits[0].message.contains("pending"));
}

/// The per-message maps are spelled `HashMap<K, V, FastHash>` (a fast
/// seeded hasher): a walk over one is as unordered as over a SipHash map,
/// and the lint must keep seeing it.
#[test]
fn determinism_fast_hasher_map_iteration_fires() {
    let w = ws(&[(
        "crates/mdcc/src/coordinator.rs",
        r#"
struct C {
    exec_of: HashMap<TxnId, u32, FastHash>,
}
impl C {
    fn walk(&self) {
        for (txn, idx) in self.exec_of.iter() {
            emit(txn, idx);
        }
        let seen: HashSet<u32, FastHash> = HashSet::default();
        for id in &seen {
            emit(id);
        }
    }
}
"#,
    )]);
    let diags = run(&w, "determinism");
    let lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.code == "DET004")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, [7, 11], "both walks: {diags:?}");
}

// ---- time ----

#[test]
fn time_oneshot_handler_insert_without_rearm_fires() {
    // The `recent` map shape: only the TxnTimeout handler reclaims it, and
    // the handler path inserts after consuming the one-shot timer.
    let w = ws(&[(
        "crates/mdcc/src/coordinator.rs",
        r#"
impl CoordinatorActor {
    fn begin(&mut self, txn: TxnId, ctx: &mut Ctx) {
        self.inflight.insert(txn, state);
        ctx.schedule(delay, Msg::TxnTimeout { txn });
    }
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::TxnTimeout { txn } => self.handle_timeout(txn, ctx),
            _ => {}
        }
    }
    fn handle_timeout(&mut self, txn: TxnId, ctx: &mut Ctx) {
        let gone = self.recent.remove(&txn);
        self.recent.insert(txn, gone);
    }
}
"#,
    )]);
    let diags = run(&w, "time");
    let hit = diags
        .iter()
        .find(|d| d.code == "TIME003")
        .expect("TIME003 must fire for the starved one-shot sweep");
    assert!(hit.message.contains("recent"));
    assert!(hit.message.contains("TxnTimeout"));
    assert!(hit.message.contains("handle_timeout"));
    assert_eq!(hit.file, "crates/mdcc/src/coordinator.rs");
    assert_eq!(hit.line, 15);
}

#[test]
fn time_oneshot_handler_that_rearms_is_quiet() {
    let w = ws(&[(
        "crates/mdcc/src/coordinator.rs",
        r#"
impl CoordinatorActor {
    fn begin(&mut self, txn: TxnId, ctx: &mut Ctx) {
        self.inflight.insert(txn, state);
        ctx.schedule(delay, Msg::TxnTimeout { txn });
    }
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::TxnTimeout { txn } => self.handle_timeout(txn, ctx),
            _ => {}
        }
    }
    fn handle_timeout(&mut self, txn: TxnId, ctx: &mut Ctx) {
        let gone = self.recent.remove(&txn);
        self.recent.insert(txn, gone);
        ctx.schedule(delay, Msg::TxnTimeout { txn });
    }
}
"#,
    )]);
    let diags = run(&w, "time");
    assert!(
        !diags.iter().any(|d| d.code == "TIME003"),
        "re-armed handler must be quiet: {diags:?}"
    );
}

// ---- panic ----

#[test]
fn panic_unwrap_reachable_from_on_message_fires() {
    // The unwrap is two hops from the drive loop; reachability must find it.
    let w = ws(&[(
        "crates/mdcc/src/replica_actor.rs",
        r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        self.handle(msg);
    }
    fn handle(&mut self, msg: Msg) {
        let rec = self.store.get(&key).unwrap();
        rec.bump();
    }
}
"#,
    )]);
    let diags = run(&w, "panic");
    let hit = diags
        .iter()
        .find(|d| d.code == "PANIC001")
        .expect("PANIC001 must fire on the reachable unwrap");
    assert!(hit.message.contains("handle"));
    assert_eq!(hit.file, "crates/mdcc/src/replica_actor.rs");
    assert_eq!(hit.line, 7);
}

#[test]
fn panic_expect_in_cluster_drive_loop_fires() {
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
fn run_worker(rx: Receiver<Msg>) {
    loop {
        let msg = rx.recv().expect("channel closed");
        dispatch(msg);
    }
}
"#,
    )]);
    let diags = run(&w, "panic");
    let hit = diags
        .iter()
        .find(|d| d.code == "PANIC001")
        .expect("PANIC001 must fire in run_worker");
    assert!(hit.message.contains("run_worker"));
    assert_eq!(hit.file, "crates/cluster/src/reactor.rs");
    assert_eq!(hit.line, 4);
}

#[test]
fn panic_macro_and_index_fire_as_panic002() {
    let w = ws(&[(
        "crates/mdcc/src/replica_actor.rs",
        r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        match msg {
            Msg::Decide { txn } => self.decide(txn),
            _ => unreachable!(),
        }
        let first = self.peers[0];
    }
}
"#,
    )]);
    let diags = run(&w, "panic");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "PANIC002").collect();
    assert_eq!(hits.len(), 2, "macro + index: {diags:?}");
    assert_eq!(hits[0].line, 6);
    assert_eq!(hits[1].line, 8);
}

#[test]
fn panic_checked_get_is_quiet_and_allow_suppresses() {
    let w = ws(&[(
        "crates/mdcc/src/replica_actor.rs",
        r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        let Some(rec) = self.store.get(&key) else {
            return;
        };
        // check:allow(panic): shard index asserted at construction
        let peer = self.peers[rec.shard];
    }
}
"#,
    )]);
    let diags = run(&w, "panic");
    assert!(
        diags.is_empty(),
        "checked lookup + allowed index must be quiet: {diags:?}"
    );
}

#[test]
fn panic_unwrap_in_test_module_is_exempt() {
    let w = ws(&[(
        "crates/mdcc/src/replica_actor.rs",
        r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        self.apply(msg);
    }
    fn apply(&mut self, msg: Msg) {
        let _ = msg;
    }
}
#[cfg(test)]
mod tests {
    fn on_message(h: &mut Harness) {
        h.queue.pop().unwrap();
    }
}
"#,
    )]);
    let diags = run(&w, "panic");
    assert!(diags.is_empty(), "test-module roots are exempt: {diags:?}");
}

// ---- flow ----
//
// Flow fixtures declare their own `Msg`, so each states its own tables
// instead of being judged against the real protocol's: deleting a real
// route row changes no fixture's verdict.

/// The flow pass judging `ws` against `tables`.
fn flow(ws: &Workspace, tables: FlowTables) -> Vec<planet_check::Diagnostic> {
    let mut out = Vec::new();
    FlowPass { tables }.run(ws, &mut out);
    out
}

/// Tables with `routes` and no requests or key-routed variants.
fn routes(routes: &'static [(&'static str, Role)]) -> FlowTables {
    FlowTables {
        routes,
        requests: &[],
        key_routed: &[],
    }
}

/// A read request and its reply.
const READS: FlowTables = FlowTables {
    routes: &[("ReadReq", Role::Replica), ("ReadResp", Role::Coordinator)],
    requests: &[("ReadReq", "ReadResp", Role::Replica)],
    key_routed: &[],
};

/// Key-carrying sends that must be routed by key.
const KEYED: FlowTables = FlowTables {
    routes: &[],
    requests: &[],
    key_routed: &["Decide", "Replicate"],
};

#[test]
fn flow_unrouted_variant_fires_at_declaration() {
    let w = ws(&[(
        "crates/mdcc/src/messages.rs",
        r#"
pub enum Msg {
    Submit { spec: u32, reply_to: u64, tag: u64 },
    Sideband { blob: u64 },
}
"#,
    )]);
    let diags = flow(&w, routes(&[("Submit", Role::Coordinator)]));
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW001")
        .expect("FLOW001 must fire for a variant outside the routing table");
    assert!(hit.message.contains("Msg::Sideband"), "{}", hit.message);
    assert_eq!(hit.file, "crates/mdcc/src/messages.rs");
    assert_eq!(hit.line, 4);
}

#[test]
fn flow_allow_marker_silences_unrouted_variant() {
    let w = ws(&[(
        "crates/mdcc/src/messages.rs",
        r#"
pub enum Msg {
    Submit { spec: u32, reply_to: u64, tag: u64 },
    // check:allow(flow): reserved for the debug fabric
    Sideband { blob: u64 },
}
"#,
    )]);
    let diags = flow(&w, routes(&[("Submit", Role::Coordinator)]));
    assert!(
        !diags.iter().any(|d| d.code == "FLOW001"),
        "allow marker must silence FLOW001: {diags:?}"
    );
}

#[test]
fn flow_sent_but_never_matched_by_role_fires_at_send() {
    // ReplicaServiceDone routes to the replica; the coordinator sends it
    // but the replica file never matches it — the message is silently
    // dropped.
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReplicaServiceDone,\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn inject(&mut self, ctx: &mut Ctx) {
        ctx.send(self.replica, Msg::ReplicaServiceDone);
    }
}
"#,
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        let _ = msg;
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("ReplicaServiceDone", Role::Replica)]));
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW001")
        .expect("FLOW001 must fire at the unanswered send");
    assert!(
        hit.message.contains("Msg::ReplicaServiceDone"),
        "{}",
        hit.message
    );
    assert!(hit.message.contains("replica"), "{}", hit.message);
    assert_eq!(hit.file, "crates/mdcc/src/coordinator.rs");
    assert_eq!(hit.line, 4);
}

#[test]
fn flow_sent_and_matched_by_role_is_quiet() {
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReplicaServiceDone,\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn inject(&mut self, ctx: &mut Ctx) {
        ctx.send(self.replica, Msg::ReplicaServiceDone);
    }
}
"#,
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        match msg {
            Msg::ReplicaServiceDone => self.service_done(),
            _ => {}
        }
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("ReplicaServiceDone", Role::Replica)]));
    assert!(
        diags.is_empty(),
        "routed + handled must be quiet: {diags:?}"
    );
}

#[test]
fn flow_scheduled_but_unhandled_timer_fires_at_schedule() {
    // A timer is a message like any other: scheduling `Msg::TxnTimeout`
    // that the coordinator never matches leaves the wait it bounds
    // unbounded.
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    TxnTimeout { txn: u64 },\n}\n",
        ),
        (
            "crates/mdcc/src/gc.rs",
            r#"
impl GcActor {
    fn arm(&mut self, ctx: &mut Ctx) {
        ctx.schedule(delay, Msg::TxnTimeout { txn });
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("TxnTimeout", Role::Coordinator)]));
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW001")
        .expect("FLOW001 must fire for an unhandled timer");
    assert!(hit.message.contains("Msg::TxnTimeout"), "{}", hit.message);
    assert_eq!(hit.file, "crates/mdcc/src/gc.rs");
    assert_eq!(hit.line, 4);
}

#[test]
fn flow_handled_timer_is_quiet() {
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    TxnTimeout { txn: u64 },\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn arm(&mut self, ctx: &mut Ctx) {
        ctx.schedule(delay, Msg::TxnTimeout { txn });
    }
    fn on_message(&mut self, msg: Msg) {
        match msg {
            Msg::TxnTimeout { txn } => self.sweep(txn),
            _ => {}
        }
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("TxnTimeout", Role::Coordinator)]));
    assert!(
        !diags.iter().any(|d| d.code == "FLOW001"),
        "handled timer must be quiet: {diags:?}"
    );
}

#[test]
fn flow_request_without_reply_or_timer_fires() {
    // ReadReq is a request: its replica handler must reach a ReadResp send
    // or arm a timer on every path. This one does neither.
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReadReq { key: u32, from: u64 },\n    ReadResp { key: u32 },\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn read(&mut self, ctx: &mut Ctx) {
        ctx.send(self.replica, Msg::ReadReq { key, from });
    }
}
"#,
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::ReadReq { key, from } => self.note(key),
            _ => {}
        }
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, READS);
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW002")
        .expect("FLOW002 must fire for the reply-less handler");
    assert!(hit.message.contains("Msg::ReadReq"), "{}", hit.message);
    assert!(hit.message.contains("Msg::ReadResp"), "{}", hit.message);
    assert_eq!(hit.file, "crates/mdcc/src/replica_actor.rs");
    assert_eq!(hit.line, 5);
}

#[test]
fn flow_request_replying_through_other_crate_is_quiet() {
    // The reply send lives two crates away; only the workspace-wide call
    // graph (use-path import resolution) can see the handler reaches it.
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReadReq { key: u32, from: u64 },\n    ReadResp { key: u32 },\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn read(&mut self, ctx: &mut Ctx) {
        ctx.send(self.replica, Msg::ReadReq { key, from });
    }
}
"#,
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
use planet_util::reply_read;

impl ReplicaActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
        match msg {
            Msg::ReadReq { key, from } => reply_read(ctx, from, key),
            _ => {}
        }
    }
}
"#,
        ),
        (
            "crates/util/src/lib.rs",
            r#"
pub fn reply_read(ctx: &mut Ctx, from: u64, key: u32) {
    ctx.send(from, Msg::ReadResp { key });
}
"#,
        ),
    ]);
    let diags = flow(&w, READS);
    assert!(
        !diags.iter().any(|d| d.code == "FLOW002"),
        "cross-crate reply must satisfy the request: {diags:?}"
    );
}

#[test]
fn flow_request_arming_timer_on_every_path_is_quiet() {
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReadReq { key: u32, from: u64 },\n    ReadResp { key: u32 },\n}\n",
        ),
        (
            "crates/mdcc/src/coordinator.rs",
            r#"
impl CoordinatorActor {
    fn read(&mut self, ctx: &mut Ctx) {
        ctx.send(self.replica, Msg::ReadReq { key, from });
    }
}
"#,
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx) {
        ctx.schedule(self.sweep_every, Msg::Retry { key: 0 });
        match msg {
            Msg::ReadReq { key, from } => self.deferred.push(key),
            _ => {}
        }
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, READS);
    assert!(
        !diags.iter().any(|d| d.code == "FLOW002"),
        "a timer armed on every path through the handler satisfies the request: {diags:?}"
    );
}

#[test]
fn flow_client_submit_without_timer_fires_and_allow_suppresses() {
    let submit_only = r#"
impl ClientActor {
    fn submit_next(&mut self, ctx: &mut Ctx) {
        ctx.send(self.coordinator, Msg::Submit { spec, reply_to, tag });
    }
}
"#;
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    Submit { spec: u32, reply_to: u64, tag: u64 },\n}\n",
        ),
        ("crates/core/src/client.rs", submit_only),
    ]);
    let diags = flow(&w, routes(&[("Submit", Role::Coordinator)]));
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW002")
        .expect("FLOW002 must fire for the timer-less client");
    assert!(hit.message.contains("closed loop"), "{}", hit.message);
    assert_eq!(hit.file, "crates/core/src/client.rs");
    assert_eq!(hit.line, 4);

    let allowed = submit_only.replace(
        "        ctx.send(",
        "        // check:allow(flow)\n        ctx.send(",
    );
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    Submit { spec: u32, reply_to: u64, tag: u64 },\n}\n",
        ),
        ("crates/core/src/client.rs", &allowed),
    ]);
    let diags = flow(&w, routes(&[("Submit", Role::Coordinator)]));
    assert!(
        !diags.iter().any(|d| d.code == "FLOW002"),
        "allow marker must silence FLOW002: {diags:?}"
    );
}

#[test]
fn flow_client_submit_with_timer_is_quiet() {
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    Submit { spec: u32, reply_to: u64, tag: u64 },\n}\n",
        ),
        (
            "crates/core/src/client.rs",
            r#"
impl ClientActor {
    fn submit_next(&mut self, ctx: &mut Ctx) {
        ctx.send(self.coordinator, Msg::Submit { spec, reply_to, tag });
        ctx.schedule(self.resubmit_timeout, Msg::ClientTimer { kind: 1, tag });
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("Submit", Role::Coordinator)]));
    assert!(
        !diags.iter().any(|d| d.code == "FLOW002"),
        "a client that arms deadlines is quiet: {diags:?}"
    );
}

#[test]
fn flow_dead_variant_fires_at_declaration_and_allow_suppresses() {
    let w = ws(&[
        (
            "crates/mdcc/src/messages.rs",
            "\npub enum Msg {\n    ReplicaServiceDone,\n}\n",
        ),
        (
            "crates/mdcc/src/replica_actor.rs",
            r#"
impl ReplicaActor {
    fn on_message(&mut self, msg: Msg) {
        match msg {
            Msg::ReplicaServiceDone => self.service_done(),
            _ => {}
        }
    }
}
"#,
        ),
    ]);
    let diags = flow(&w, routes(&[("ReplicaServiceDone", Role::Replica)]));
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW003")
        .expect("FLOW003 must fire for a never-sent variant");
    assert!(hit.message.contains("never sent"), "{}", hit.message);
    assert_eq!(hit.file, "crates/mdcc/src/messages.rs");
    assert_eq!(hit.line, 3);

    let w = ws(&[(
        "crates/mdcc/src/messages.rs",
        "\npub enum Msg {\n    // check:allow(flow): replica-internal only\n    ReplicaServiceDone,\n}\n",
    )]);
    let diags = flow(&w, routes(&[("ReplicaServiceDone", Role::Replica)]));
    assert!(
        !diags.iter().any(|d| d.code == "FLOW003"),
        "allow marker must silence FLOW003: {diags:?}"
    );
}

#[test]
fn flow_unrouted_key_send_fires() {
    // A coordinator helper that fans a key-carrying Decide out to a replica
    // picked without consulting the shard map: per-key ordering is gone.
    let w = ws(&[(
        "crates/mdcc/src/coordinator.rs",
        r#"
impl CoordinatorActor {
    fn finish(&mut self, txn: TxnId, ctx: &mut Ctx) {
        let target = self.replicas[0];
        ctx.send(target, Msg::Decide { txn, key, commit: true });
    }
}
"#,
    )]);
    let diags = flow(&w, KEYED);
    let hit = diags
        .iter()
        .find(|d| d.code == "FLOW005")
        .expect("FLOW005 must fire for an unrouted Decide send");
    assert!(hit.message.contains("finish"), "{}", hit.message);
    assert!(hit.message.contains("Msg::Decide"));
    assert_eq!(hit.file, "crates/mdcc/src/coordinator.rs");
    assert_eq!(hit.line, 5);
}

#[test]
fn flow_shard_routed_send_is_quiet() {
    // The same send resolved through the shard map is legal, and so are
    // reply-routed messages (Vote) and dispatchers that only pattern-match.
    let w = ws(&[(
        "crates/mdcc/src/coordinator.rs",
        r#"
impl CoordinatorActor {
    fn finish(&mut self, txn: TxnId, ctx: &mut Ctx) {
        let target = self.route_master(route);
        ctx.send(target, Msg::Decide { txn, key, commit: true });
    }
    fn reply(&mut self, coordinator: ActorId, ctx: &mut Ctx) {
        ctx.send(coordinator, Msg::Vote { txn, key, accept: true });
    }
    fn dispatch(&mut self, msg: Msg) {
        match msg {
            Msg::Decide { txn, key, commit } => self.on_decide(txn, key, commit),
            _ => {}
        }
    }
}
"#,
    )]);
    let diags = flow(&w, KEYED);
    assert!(
        !diags.iter().any(|d| d.code == "FLOW005"),
        "routed/reply/dispatch-only code must be quiet: {diags:?}"
    );
}

#[test]
fn flow_allow_marker_silences_shard_routing() {
    let w = ws(&[(
        "crates/mdcc/src/replica_actor.rs",
        r#"
impl ReplicaActor {
    fn resend(&mut self, target: ActorId, ctx: &mut Ctx) {
        // check:allow(flow)
        ctx.send(target, Msg::Replicate { txn, key });
    }
}
"#,
    )]);
    let diags = flow(&w, KEYED);
    assert!(
        !diags.iter().any(|d| d.code == "FLOW005"),
        "allow marker must silence FLOW005: {diags:?}"
    );
}

// ---- race ----

#[test]
fn race_lock_order_inversion_fires_at_each_nested_acquisition() {
    // Both edges of a two-lock cycle are a lock taken under another's
    // guard.
    let w = ws(&[(
        "crates/cluster/src/node.rs",
        r#"
impl Node {
    fn route_then_conn(&self) {
        let g = self.routes.lock().unwrap();
        self.conns.lock().unwrap().clear();
    }
    fn conn_then_route(&self) {
        let g = self.conns.lock().unwrap();
        self.routes.lock().unwrap().clear();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "RACE002").collect();
    let lines: Vec<u32> = hits.iter().map(|d| d.line).collect();
    assert_eq!(lines, [5, 9], "{diags:?}");
    assert!(
        hits[1]
            .message
            .contains("`routes` is locked in `conn_then_route` while `conns` is held"),
        "{}",
        hits[1].message
    );
    assert_eq!(hits[1].file, "crates/cluster/src/node.rs");
}

#[test]
fn race_self_reacquisition_fires() {
    let w = ws(&[(
        "crates/cluster/src/node.rs",
        r#"
impl Node {
    fn double_lock(&self) {
        let g = self.routes.lock().unwrap();
        self.routes.lock().unwrap().clear();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    let hit = diags
        .iter()
        .find(|d| d.code == "RACE002")
        .expect("RACE002 must fire on re-locking a held lock");
    assert!(
        hit.message.contains("`routes` is locked again"),
        "{}",
        hit.message
    );
    assert!(hit.message.contains("self-deadlocks"), "{}", hit.message);
    assert_eq!(hit.line, 5);
}

#[test]
fn race_lock_cycle_through_same_file_call_fires() {
    // a holds `routes` and calls helper; helper locks `conns`; b orders them
    // the other way round directly. Line 8 is the call-through edge.
    let w = ws(&[(
        "crates/cluster/src/node.rs",
        r#"
impl Node {
    fn helper(&self) {
        self.conns.lock().unwrap().clear();
    }
    fn a(&self) {
        let g = self.routes.lock().unwrap();
        helper();
    }
    fn b(&self) {
        let g = self.conns.lock().unwrap();
        self.routes.lock().unwrap().clear();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    let lines: Vec<u32> = diags
        .iter()
        .filter(|d| d.code == "RACE002")
        .map(|d| d.line)
        .collect();
    assert_eq!(lines, [8, 12], "both edges of the cycle: {diags:?}");
}

#[test]
fn race_plain_if_condition_guard_is_not_held() {
    // The tcp.rs send() shape: a plain `if` condition's guard temporary is
    // dropped before the block runs, so re-locking inside is fine.
    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Transport {
    fn send(&self) {
        if self.local.lock().unwrap().contains_key(&k) {
            self.deliver(env);
        }
    }
    fn deliver(&self) {
        let mailbox = self.local.lock().unwrap().get(&k).cloned();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    assert!(
        diags.is_empty(),
        "plain-if condition must not count as held: {diags:?}"
    );
}

#[test]
fn race_read_write_lock_only_on_rwlock_fields() {
    // `.read()` under a guard is an acquisition on an `RwLock` field, and
    // just a method call on anything else.
    let w = ws(&[(
        "crates/cluster/src/node.rs",
        r#"
pub struct Node {
    routes: RwLock<Routes>,
    conns: Mutex<Conns>,
    log: Journal,
}
impl Node {
    fn refresh(&self) {
        let g = self.conns.lock().unwrap();
        let r = self.routes.read().unwrap();
        self.log.read();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    let lines: Vec<u32> = diags.iter().map(|d| d.line).collect();
    assert_eq!(lines, [10], "only the RwLock read: {diags:?}");
    assert!(
        diags[0].message.contains("`routes`"),
        "{}",
        diags[0].message
    );
}

#[test]
fn race_blocking_under_live_guard_fires_and_allow_suppresses() {
    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Listener {
    fn stop(&self) {
        let g = self.conns.lock().unwrap();
        self.done_rx.recv();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    let hit = diags
        .iter()
        .find(|d| d.code == "RACE002")
        .expect("RACE002 must fire for recv under a guard");
    assert!(hit.message.contains("stop"), "{}", hit.message);
    assert!(hit.message.contains("recv"), "{}", hit.message);
    assert_eq!(hit.file, "crates/cluster/src/tcp.rs");
    assert_eq!(hit.line, 5);

    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Listener {
    fn stop(&self) {
        let g = self.conns.lock().unwrap();
        // check:allow(race): shutdown path, no other lock takers remain
        self.done_rx.recv();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    assert!(
        !diags.iter().any(|d| d.code == "RACE002"),
        "allow marker must silence RACE002: {diags:?}"
    );
}

#[test]
fn race_guard_dropped_before_blocking_is_quiet() {
    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Listener {
    fn stop(&self) {
        {
            let g = self.conns.lock().unwrap();
            g.len();
        }
        self.done_rx.recv();
    }
}
"#,
    )]);
    let diags = run(&w, "race");
    assert!(
        !diags.iter().any(|d| d.code == "RACE002"),
        "guard scoped away before blocking is quiet: {diags:?}"
    );
}

#[test]
fn race_interprocedural_blocking_carries_witness_chain() {
    // The blocking call is two hops away in the same crate: only the
    // interprocedural summary can see flush_all blocks while locked, and
    // the diagnostic must name the chain to the sink.
    let w = ws(&[(
        "crates/cluster/src/plane.rs",
        r#"
impl Plane {
    fn flush_all(&self) {
        let g = self.conns.lock().unwrap();
        drain_queue();
    }
}
fn drain_queue() {
    pump_once();
}
fn pump_once() {
    let x = rx.recv();
}
"#,
    )]);
    let diags = run(&w, "race");
    let hit = diags
        .iter()
        .find(|d| d.code == "RACE002")
        .expect("RACE002 must fire through the call chain");
    assert!(hit.message.contains("drain_queue"), "{}", hit.message);
    assert!(hit.message.contains("pump_once"), "{}", hit.message);
    assert!(hit.message.contains("flush_all"), "{}", hit.message);
    assert_eq!(hit.file, "crates/cluster/src/plane.rs");
    assert_eq!(hit.line, 5);
}

// ---- sync (atomics & wakeups) ----

#[test]
fn sync_undeclared_atomic_fires_at_decl_and_allow_suppresses() {
    let w = ws(&[(
        "crates/cluster/src/channel.rs",
        r#"
pub struct T {
    mystery: AtomicU64,
    counted: AtomicU64, // check:allow(atomics)
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "ATOM001").collect();
    assert_eq!(hits.len(), 1, "only the unmarked decl: {diags:?}");
    assert!(hits[0].message.contains("mystery"), "{}", hits[0].message);
    assert_eq!(hits[0].file, "crates/cluster/src/channel.rs");
    assert_eq!(hits[0].line, 3);
}

#[test]
fn sync_counter_with_protocol_ordering_fires() {
    // `steals` is declared a stat-counter for reactor.rs: anything
    // stronger than Relaxed misdocuments it.
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Shard {
    fn record(&self) {
        self.steals.fetch_add(1, Ordering::SeqCst);
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hit = diags
        .iter()
        .find(|d| d.code == "ATOM001" && d.message.contains("steals"))
        .expect("counter upgrade must fire");
    assert!(hit.message.contains("Relaxed"), "{}", hit.message);
    assert_eq!(hit.line, 4);
}

#[test]
fn sync_relaxed_counter_is_quiet() {
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Shard {
    fn record(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        self.busy_us.fetch_add(7, Ordering::Relaxed);
    }
}
"#,
    )]);
    assert!(run(&w, "sync").is_empty());
}

#[test]
fn sync_handoff_relaxed_store_fires_release_is_quiet() {
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl TaskCore {
    fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
    }
    fn finish_ok(&self) {
        self.done.store(true, Ordering::Release);
    }
    fn poll(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "ATOM001").collect();
    assert_eq!(hits.len(), 1, "only the relaxed store: {diags:?}");
    assert!(hits[0].message.contains("done"), "{}", hits[0].message);
    assert_eq!(hits[0].line, 4);
}

#[test]
fn sync_dekker_word_below_seqcst_fires_atom002() {
    // `parked` is a Dekker word: the loom harness shows Release/Acquire
    // loses the wakeup, so the pass pins every access to SeqCst.
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Parker {
    fn park(&self) {
        self.parked.store(true, Ordering::Release);
    }
    fn park_ok(&self) {
        self.parked.store(true, Ordering::SeqCst);
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "ATOM002").collect();
    assert_eq!(hits.len(), 1, "only the downgraded store: {diags:?}");
    assert!(hits[0].message.contains("parked"), "{}", hits[0].message);
    assert!(hits[0].message.contains("SeqCst"), "{}", hits[0].message);
    assert_eq!(hits[0].line, 4);
}

#[test]
fn sync_enqueue_without_notify_fires_wake001_and_allow_suppresses() {
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Inner {
    fn enqueue_lossy(&self, t: Task) {
        let mut queue = self.shard.queue.lock().unwrap();
        queue.push_back(t);
    }
    fn enqueue_marked(&self, t: Task) {
        let mut queue = self.shard.queue.lock().unwrap();
        queue.push_back(t); // check:allow(atomics)
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "WAKE001").collect();
    assert_eq!(hits.len(), 1, "only the unmarked push: {diags:?}");
    assert!(
        hits[0].message.contains("enqueue_lossy"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].line, 5);
}

#[test]
fn sync_enqueue_reaching_notify_on_all_paths_is_quiet() {
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Inner {
    fn enqueue(&self, t: Task) {
        {
            let mut queue = self.shard.queue.lock().unwrap();
            queue.push_back(t);
        }
        if self.shard.parker.parked.load(Ordering::SeqCst) {
            self.shard.parker.notify();
        }
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    assert!(
        !diags.iter().any(|d| d.code == "WAKE001"),
        "covered push must be quiet: {diags:?}"
    );
}

#[test]
fn sync_enqueue_with_escaping_branch_fires_wake001() {
    // One early-return path skips the parked check: exactly the lost
    // wakeup the must-analysis exists to catch.
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl Inner {
    fn enqueue(&self, t: Task) {
        {
            let mut queue = self.shard.queue.lock().unwrap();
            queue.push_back(t);
        }
        if self.closing {
            return;
        }
        if self.shard.parker.parked.load(Ordering::SeqCst) {
            self.shard.parker.notify();
        }
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    assert!(
        diags.iter().any(|d| d.code == "WAKE001" && d.line == 6),
        "escaping branch must fire: {diags:?}"
    );
}

#[test]
fn sync_mailbox_enqueue_must_hand_out_the_waker() {
    // The mailbox's queue push: the enqueue and the waker hand-off are one
    // critical section, and a push that can leave without the waker is a
    // message its task is never told about. A drive's timers wake nobody:
    // their push is quiet only for its allow marker.
    let w = ws(&[(
        "crates/cluster/src/plane.rs",
        r#"
impl Shared {
    fn push(&self, state: &mut State, at: Instant, packet: Packet) -> Option<Waker> {
        state.queue.push((at, false), packet);
        if state.receiver_waiting {
            self.arrived.notify_one();
        }
        state.waker.clone()
    }
    fn push_silent(&self, state: &mut State, at: Instant, packet: Packet) {
        state.queue.push((at, false), packet);
        if state.receiver_waiting {
            self.arrived.notify_one();
        }
    }
    fn settle(&self, state: &mut State, at: Instant, fire: Packet) -> Head {
        // check:allow(atomics): the drive arms a wake for the head read here
        state.queue.push((at, true), fire);
        state.head(at, at)
    }
    fn push_reading_the_head(&self, state: &mut State, at: Instant, packet: Packet) -> Head {
        state.queue.push((at, false), packet);
        state.head(at, at)
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "WAKE001").collect();
    assert_eq!(hits.len(), 2, "the pushes without a waker: {diags:?}");
    assert!(
        hits[0].message.contains("push_silent"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("mailbox enqueue"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].line, 11);
    // Reading the head is no wake: a sender's push that does it and
    // never calls the waker is still a lost wakeup.
    assert!(
        hits[1].message.contains("push_reading_the_head"),
        "{}",
        hits[1].message
    );
    assert_eq!(hits[1].line, 22);
}

#[test]
fn sync_stamped_run_push_must_note_its_wake() {
    // A run's push leaves the waker to the run's end: it must note the
    // packet's instant in `wake_due`, which the end hands to the waker.
    let enqueue = r#"
impl Shared {
    fn enqueue(&self, state: &mut State, due: Instant, packet: Packet) {
        state.queue.push((due, false), packet);
    }
}
impl Run {
    fn push(&mut self, due: Instant, packet: Packet) {
        self.shared.enqueue(&mut self.state, due, packet);
        self.wake_due = Some(due);
    }
"#;
    let noted = format!("{enqueue}}}\n");
    let diags = run(&ws(&[("crates/cluster/src/plane.rs", &noted)]), "sync");
    assert!(
        !diags.iter().any(|d| d.code == "WAKE001"),
        "a push that notes its instant is quiet: {diags:?}"
    );

    let silent = format!(
        "{enqueue}    fn push_silent(&mut self, due: Instant, packet: Packet) {{\n        self.shared.enqueue(&mut self.state, due, packet);\n    }}\n}}\n"
    );
    let diags = run(&ws(&[("crates/cluster/src/plane.rs", &silent)]), "sync");
    let hit = diags
        .iter()
        .find(|d| d.code == "WAKE001")
        .expect("a run push that notes nothing must fire WAKE001");
    assert!(hit.message.contains("mailbox enqueue"), "{}", hit.message);
    assert_eq!(hit.line, 4);
}

#[test]
fn sync_tcp_write_queue_push_must_watch_writability() {
    // Only the poll writes a queued remainder out, and only when the
    // poller reports the socket writable: a push that does not ask for
    // writability strands its bytes.
    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Connection {
    fn offer(&self, poller: &Poller, rest: &[u8]) {
        let mut side = self.write.lock().expect("lock poisoned");
        side.queued.extend_from_slice(rest);
        let _ = self.watch(&mut side, poller, Interest::ReadWrite);
    }
    fn offer_unwatched(&self, rest: &[u8]) {
        let mut side = self.write.lock().expect("lock poisoned");
        side.queued.extend_from_slice(rest);
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "WAKE001").collect();
    assert_eq!(hits.len(), 1, "only the unwatched push: {diags:?}");
    assert!(
        hits[0].message.contains("offer_unwatched"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("write-queue push"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].line, 10);
}

#[test]
fn sync_tcp_staging_push_must_watch_writability() {
    // An adopted transport stages a send's frames on the connection's write
    // queue, and nothing writes them but a poll that sees the socket
    // writable. A staging push that never asks for writability fires, and
    // so does one that asks only when the queue was empty: the rule wants
    // the ask on every path (a cached ask costs no system call).
    let w = ws(&[(
        "crates/cluster/src/tcp.rs",
        r#"
impl Connection {
    fn stage(&self, poller: &Poller, buf: &[u8]) {
        let mut side = self.write.lock().expect("lock poisoned");
        side.queued.extend_from_slice(buf);
        let _ = self.watch(&mut side, poller, Interest::ReadWrite);
    }
    fn stage_unwatched(&self, buf: &[u8]) {
        let mut side = self.write.lock().expect("lock poisoned");
        side.since.get_or_insert_with(Instant::now);
        side.queued.extend_from_slice(buf);
    }
    fn stage_watched_when_empty(&self, poller: &Poller, buf: &[u8]) {
        let mut side = self.write.lock().expect("lock poisoned");
        let fresh = side.queued.is_empty();
        side.queued.extend_from_slice(buf);
        if fresh {
            let _ = self.watch(&mut side, poller, Interest::ReadWrite);
        }
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "WAKE001").collect();
    assert_eq!(hits.len(), 2, "the two staging pushes: {diags:?}");
    assert!(
        hits[0].message.contains("stage_unwatched"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].line, 11);
    assert!(
        hits[1].message.contains("stage_watched_when_empty"),
        "{}",
        hits[1].message
    );
    assert_eq!(hits[1].line, 16);
}

#[test]
fn sync_run_queue_push_to_the_front_must_rouse() {
    // A fired timed wake jumps the queue; it must still rouse a sleeper.
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl ReactorInner {
    fn fire_silent(&self, task: Arc<TaskCore>) {
        let mut queue = self.workers[0].queue.lock().expect("lock poisoned");
        queue.push_front(task);
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hit = diags
        .iter()
        .find(|d| d.code == "WAKE001")
        .expect("a push to the front that rouses nobody must fire WAKE001");
    assert!(hit.message.contains("to the front"), "{}", hit.message);
    assert_eq!(hit.line, 5);
}

#[test]
fn sync_timed_wake_push_must_lower_the_earliest() {
    // Workers park against `earliest`: a timed wake queued without
    // lowering it is slept past.
    let w = ws(&[(
        "crates/cluster/src/reactor.rs",
        r#"
impl ReactorInner {
    fn arm(&self, task: Arc<TaskCore>, at: SimTime) {
        let mut timed = self.timed.lock().expect("lock poisoned");
        timed.push(at, task);
        self.earliest.store(at.as_micros(), Ordering::SeqCst);
    }
    fn arm_silent(&self, task: Arc<TaskCore>, at: SimTime) {
        let mut timed = self.timed.lock().expect("lock poisoned");
        timed.push(at, task);
    }
}
"#,
    )]);
    let diags = run(&w, "sync");
    let hits: Vec<_> = diags.iter().filter(|d| d.code == "WAKE001").collect();
    assert_eq!(
        hits.len(),
        1,
        "only the push that lowers nothing: {diags:?}"
    );
    assert!(
        hits[0].message.contains("arm_silent"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("timed-wake push"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].line, 10);
}
