//! One coordinator machine behind two front ends. The same transaction is
//! submitted as an ad-hoc `TxnSpec` (`Msg::Submit`) to one coordinator and as
//! an execution of a registered plan (`Msg::SubmitPlan`) to another, both are
//! fed the same scripted replies through `planet_sim::drive_into`, and after
//! every delivery the two must have emitted the same effects — sends *and*
//! timers, in order. Each scenario then checks that the script reached the
//! path it was written for.

use planet_mdcc::{
    ClusterConfig, CoordinatorActor, KeyRead, Msg, Outcome, ProgressStage, Protocol, TxnSpec,
};
use planet_plan::{DeltaRef, KeyRef, KeyTemplate, OpTemplate, PlanParam, TxnProgram};
use planet_sim::{drive_into, ActorId, DetRng, Effect, Metrics, SimTime, SiteId, TurnInputs};
use planet_storage::{Key, RejectReason, TxnId, Value, WriteOp};

const CLIENT: ActorId = ActorId(100);
const PLAN: u32 = 1;
const TAG: u64 = 7;

/// The first transaction a site-0 coordinator mints.
fn txn() -> TxnId {
    TxnId::new(0, 0)
}

/// A coordinator at site 0 with its own clock, driven by hand.
struct Driven {
    coordinator: CoordinatorActor,
    id: ActorId,
    rng: DetRng,
    metrics: Metrics,
    clock_us: u64,
    /// When the timer the coordinator armed last is due.
    timer_due_us: Option<u64>,
}

impl Driven {
    fn new(config: &ClusterConfig) -> Self {
        let replicas = config.num_sites * config.num_shards;
        Driven {
            coordinator: CoordinatorActor::new(
                config.clone(),
                (0..replicas as u32).map(ActorId).collect(),
                SiteId(0),
            ),
            id: ActorId(replicas as u32),
            rng: DetRng::new(1),
            metrics: Metrics::new(),
            clock_us: 0,
            timer_due_us: None,
        }
    }

    /// Deliver `msg` 10 µs after the last delivery, or a `TxnTimeout` at
    /// the instant the armed timer is due, as the runtimes deliver it.
    fn deliver(&mut self, msg: Msg) -> Vec<Effect<Msg>> {
        let at_us = match (&msg, self.timer_due_us) {
            (Msg::TxnTimeout { .. }, Some(due)) if due > self.clock_us => due,
            _ => self.clock_us + 10,
        };
        self.deliver_at(at_us, msg)
    }

    fn deliver_at(&mut self, at_us: u64, msg: Msg) -> Vec<Effect<Msg>> {
        self.clock_us = at_us;
        let inputs = TurnInputs {
            now: SimTime::from_micros(self.clock_us),
            self_id: self.id,
            self_site: SiteId(0),
        };
        let mut effects = Vec::new();
        drive_into(
            &mut self.coordinator,
            inputs,
            CLIENT,
            msg,
            &mut self.rng,
            &mut self.metrics,
            &mut effects,
        );
        for effect in &effects {
            if let Effect::Timer { delay, .. } = effect {
                self.timer_due_us = Some(at_us + delay.as_micros());
            }
        }
        effects
    }
}

/// What one run left behind: the effects of each delivery (index 0 is the
/// submission), taken from the spec front end after it was found equal to
/// the plan front end's, and both coordinators for their counters.
struct Run {
    steps: Vec<Vec<Effect<Msg>>>,
    by_spec: Driven,
    by_plan: Driven,
}

impl Run {
    fn sends(&self) -> impl Iterator<Item = &Msg> {
        self.steps.iter().flatten().filter_map(|e| match e {
            Effect::Send { msg, .. } => Some(msg),
            _ => None,
        })
    }

    fn outcomes(&self) -> Vec<Outcome> {
        self.sends()
            .filter_map(|m| match m {
                Msg::TxnDone { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect()
    }

    /// `(key, commit)` of every `Decide`, in send order.
    fn decides(&self) -> Vec<(&str, bool)> {
        self.sends()
            .filter_map(|m| match m {
                Msg::Decide { key, commit, .. } => Some((key.as_str(), *commit)),
                _ => None,
            })
            .collect()
    }
}

/// Submit one execution of `program` over `params` through both front ends,
/// then deliver `script` to both, comparing effects delivery by delivery.
fn run(config: &ClusterConfig, program: &TxnProgram, params: &[PlanParam], script: &[Msg]) -> Run {
    let spec: TxnSpec = program.instantiate(params).expect("instantiates").into();
    let mut by_spec = Driven::new(config);
    let mut by_plan = Driven::new(config);
    by_plan
        .coordinator
        .install_plan(PLAN, program.clone())
        .expect("installs");
    let submit = Msg::Submit {
        spec,
        reply_to: CLIENT,
        tag: TAG,
    };
    let submit_plan = Msg::SubmitPlan {
        plan: PLAN,
        params: params.to_vec(),
        reply_to: CLIENT,
        tag: TAG,
    };
    let mut steps = Vec::new();
    let both =
        std::iter::once((submit, submit_plan)).chain(script.iter().map(|m| (m.clone(), m.clone())));
    for (step, (to_spec, to_plan)) in both.enumerate() {
        let from_spec = by_spec.deliver(to_spec);
        let from_plan = by_plan.deliver(to_plan);
        assert_eq!(
            format!("{from_spec:#?}"),
            format!("{from_plan:#?}"),
            "the front ends part at delivery {step}"
        );
        steps.push(from_spec);
    }
    assert_eq!(
        by_spec.coordinator.inflight_count(),
        by_plan.coordinator.inflight_count()
    );
    Run {
        steps,
        by_spec,
        by_plan,
    }
}

/// Read `acct:9`, add to a stock key named by parameter 0, insert an order
/// under a key rendered from parameter 2: a fixed, a parameter and a derived
/// reference, and a decide order only the arguments fix.
fn purchase() -> (TxnProgram, Vec<PlanParam>) {
    let mut program = TxnProgram::new("purchase");
    let acct = program.intern(Key::new("acct:9"));
    let stock = program.intern(Key::new("stock:1"));
    program.intern(Key::new("stock:2"));
    let program = program
        .read(KeyRef::Fixed(acct))
        .write(
            KeyRef::Param(0),
            OpTemplate::Add {
                delta: DeltaRef::Param(1),
                lower: Some(0),
                upper: None,
            },
        )
        .write(
            KeyRef::Derived(KeyTemplate::new().lit("order:").param(2)),
            OpTemplate::SetParam(3),
        );
    let params = vec![
        PlanParam::Key(stock),
        PlanParam::Int(-1),
        PlanParam::Int(41),
        PlanParam::Int(7),
    ];
    (program, params)
}

const TOUCHED: [&str; 3] = ["acct:9", "stock:1", "order:41"];
const WRITTEN: [&str; 2] = ["stock:1", "order:41"];

fn read_resp(keys: &[&str], version: u64) -> Msg {
    Msg::ReadResp {
        txn: txn(),
        results: keys
            .iter()
            .map(|k| KeyRead {
                key: Key::new(*k),
                version,
                value: Value::Int(5),
                pending: 0,
            })
            .collect(),
    }
}

fn vote(key: &str, site: u8, accept: bool, round: u8) -> Msg {
    Msg::Vote {
        txn: txn(),
        key: Key::new(key),
        site: SiteId(site),
        accept,
        reason: (!accept).then_some(RejectReason::PendingConflict {
            holder: TxnId::new(1, 0),
        }),
        round,
    }
}

/// Every site accepts every written key, key by key.
fn all_accept() -> Vec<Msg> {
    WRITTEN
        .iter()
        .flat_map(|k| (0..3).map(|site| vote(k, site, true, 0)))
        .collect()
}

#[test]
fn a_commit_is_the_same_under_every_protocol() {
    let (program, params) = purchase();
    for protocol in [Protocol::Fast, Protocol::Classic, Protocol::TwoPc] {
        let config = ClusterConfig::new(3, protocol);
        let mut script = vec![read_resp(&TOUCHED, 3)];
        script.extend(all_accept());
        // Decided by now under every protocol: this one arrives late.
        script.push(vote("stock:1", 0, true, 0));
        let run = run(&config, &program, &params, &script);
        assert_eq!(run.outcomes(), [Outcome::Committed], "{protocol}");
        // Decided in key order, whatever order the writes were given in.
        assert_eq!(run.decides(), [("order:41", true), ("stock:1", true)]);
        // The submission armed the timeout and read all three keys locally.
        assert!(matches!(run.steps[0][..], [
            Effect::Send { dst: CLIENT, .. },
            Effect::Timer { .. },
            Effect::Send { dst: ActorId(0), msg: Msg::ReadReq { ref keys, .. } },
        ] if keys.iter().map(Key::as_str).eq(TOUCHED)));
        // A vote that arrives after the decision is still forwarded.
        let late = run.steps.last().expect("steps");
        assert!(
            matches!(
                late[..],
                [Effect::Send {
                    dst: CLIENT,
                    msg: Msg::Progress { .. }
                }]
            ),
            "{protocol}: {late:?}"
        );
        assert_eq!(run.by_spec.coordinator.inflight_count(), 0);
    }
}

#[test]
fn a_collision_takes_the_round_one_fallback() {
    let (program, params) = purchase();
    let mut config = ClusterConfig::new(3, Protocol::Fast);
    config.fast_fallback = true;
    let script = [
        read_resp(&TOUCHED, 3),
        vote("stock:1", 0, true, 0),
        // One reject of three: no fast quorum any more, no majority against.
        vote("stock:1", 1, false, 0),
        // A round-0 vote after the retry began is stale.
        vote("stock:1", 2, true, 0),
        vote("stock:1", 1, true, 1),
        vote("stock:1", 2, true, 1),
        vote("order:41", 0, true, 0),
        vote("order:41", 1, true, 0),
        vote("order:41", 2, true, 0),
    ];
    let run = run(&config, &program, &params, &script);
    let retried: Vec<_> = run
        .sends()
        .filter(|m| matches!(m, Msg::Propose { round: 1, .. }))
        .collect();
    assert_eq!(retried.len(), 1, "{retried:?}");
    // The client hears of the reject before the fallback resets the key's
    // tally, so the round-0 reject is not counted into round 1.
    let told: Vec<&str> = run.steps[3]
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                msg: Msg::Progress { stage, .. },
                ..
            } => Some(match stage {
                ProgressStage::Vote { accept: false, .. } => "reject",
                ProgressStage::KeyFallback { .. } => "fallback",
                _ => "other",
            }),
            _ => None,
        })
        .collect();
    assert_eq!(told, ["reject", "fallback"]);
    assert!(run.steps[4].is_empty(), "the stale vote is dropped");
    assert_eq!(run.outcomes(), [Outcome::Committed]);
    for driven in [&run.by_spec, &run.by_plan] {
        assert_eq!(driven.metrics.counter_value("txn.fast_fallbacks"), 1);
    }
}

#[test]
fn quorum_reads_merge_the_same_way() {
    let (program, params) = purchase();
    let config = ClusterConfig::new(3, Protocol::Classic);
    let mut script = vec![
        read_resp(&TOUCHED, 3),
        read_resp(&TOUCHED, 4),
        // The quorum of two is met: the third response is late.
        read_resp(&TOUCHED, 9),
    ];
    script.extend(all_accept());
    let run = run(&config, &program.quorum_reads(), &params, &script);
    let asked = run.steps[0]
        .iter()
        .filter(|e| {
            matches!(
                e,
                Effect::Send {
                    msg: Msg::ReadReq { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(asked, 3, "one ReadReq per site");
    assert!(run.steps[1].is_empty() && run.steps[3].is_empty());
    // The fresher of the two buffered versions is what the options build on.
    let based_on: Vec<u64> = run
        .sends()
        .filter_map(|m| match m {
            Msg::Propose { option, .. } => Some(option.read_version),
            _ => None,
        })
        .collect();
    assert_eq!(based_on, [4, 4]);
    assert_eq!(run.outcomes(), [Outcome::Committed]);
}

#[test]
fn a_two_shard_transaction_reads_and_proposes_per_shard() {
    let mut config = ClusterConfig::new(3, Protocol::Fast);
    config.num_shards = 2;
    // Two stock keys the shard map tells apart.
    let names: Vec<String> = (0..64).map(|i| format!("stock:{i}")).collect();
    let on = |shard| {
        names
            .iter()
            .find(|n| config.shard_of(&Key::new(n.as_str())) == shard)
            .expect("64 keys cover two shards")
    };
    let (left, right) = (on(0), on(1));
    let mut program = TxnProgram::new("transfer");
    let l = program.intern(Key::new(left.as_str()));
    let r = program.intern(Key::new(right.as_str()));
    // Written before it is read: slots still open reads first.
    let program = program
        .write(KeyRef::Fixed(r), OpTemplate::SetParam(0))
        .read(KeyRef::Param(1));
    let params = [PlanParam::Int(1), PlanParam::Key(l)];
    let script = [
        read_resp(&[right], 2),
        read_resp(&[left], 6),
        vote(right, 0, true, 0),
        vote(right, 1, true, 0),
        vote(right, 2, true, 0),
    ];
    let run = run(&config, &program, &params, &script);
    // Shard 0's replica at site 0 is actor 0, shard 1's is actor 3.
    assert!(matches!(run.steps[0][..], [
        _,
        _,
        Effect::Send { dst: ActorId(0), msg: Msg::ReadReq { keys: ref k0, .. } },
        Effect::Send { dst: ActorId(3), msg: Msg::ReadReq { keys: ref k1, .. } },
    ] if k0[..] == [Key::new(left.as_str())] && k1[..] == [Key::new(right.as_str())]));
    assert!(run.steps[1].is_empty(), "shard 0 has not answered yet");
    let proposed_to: Vec<u32> = run.steps[2]
        .iter()
        .filter_map(|e| match e {
            Effect::Send {
                dst,
                msg: Msg::FastPropose { .. },
            } => Some(dst.0),
            _ => None,
        })
        .collect();
    assert_eq!(proposed_to, [3, 4, 5], "shard 1's group only");
    assert_eq!(run.outcomes(), [Outcome::Committed]);
}

#[test]
fn a_read_response_for_a_key_never_asked_for_is_dropped() {
    let (program, params) = purchase();
    let config = ClusterConfig::new(3, Protocol::Fast);
    let mut script = vec![
        read_resp(&["never:asked", "acct:9", "stock:1", "order:41"], 8),
        read_resp(&[], 8),
        read_resp(&TOUCHED, 3),
    ];
    script.extend(all_accept());
    let run = run(&config, &program, &params, &script);
    assert!(run.steps[1].is_empty() && run.steps[2].is_empty());
    assert!(
        !run.steps[3].is_empty(),
        "the real response completes reads"
    );
    assert_eq!(run.outcomes(), [Outcome::Committed]);
}

#[test]
fn a_timeout_decides_only_what_was_proposed() {
    let (program, params) = purchase();
    let config = ClusterConfig::new(3, Protocol::Fast);
    let timeout = Msg::TxnTimeout { txn: txn() };

    // Before reads complete no option exists: nothing to decide.
    let script = [
        timeout.clone(),
        read_resp(&TOUCHED, 3),
        vote("stock:1", 0, true, 0),
        // The re-armed timer closes the late-vote window.
        timeout.clone(),
        vote("stock:1", 1, true, 0),
    ];
    let early = run(&config, &program, &params, &script);
    assert_eq!(early.outcomes(), [Outcome::TimedOut]);
    assert_eq!(early.decides(), []);
    assert!(
        matches!(
            early.steps[1][..],
            [Effect::Send { dst: CLIENT, .. }, Effect::Timer { .. }]
        ),
        "TxnDone, then the window's timer: {:?}",
        early.steps[1]
    );
    assert!(early.steps[2].is_empty(), "reads of a finished transaction");
    assert_eq!(early.steps[3].len(), 1, "a late vote inside the window");
    assert!(early.steps[4].is_empty() && early.steps[5].is_empty());

    // After proposals went out both options are aborted, in key order.
    let script = [read_resp(&TOUCHED, 3), vote("stock:1", 0, true, 0), timeout];
    let late = run(&config, &program, &params, &script);
    assert_eq!(late.outcomes(), [Outcome::TimedOut]);
    assert_eq!(late.decides(), [("order:41", false), ("stock:1", false)]);
}

#[test]
fn aliasing_arguments_lower_through_the_spec_and_aliased_writes_are_refused() {
    let (program, _) = purchase();
    let config = ClusterConfig::new(3, Protocol::Fast);
    // Parameter 0 names the key the program also reads: two slots, one key.
    let acct = PlanParam::Key(0);
    let params = [
        acct,
        PlanParam::Int(-1),
        PlanParam::Int(41),
        PlanParam::Int(7),
    ];
    let script = [
        read_resp(&["acct:9", "order:41"], 3),
        vote("acct:9", 0, true, 0),
        vote("acct:9", 1, true, 0),
        vote("acct:9", 2, true, 0),
        vote("order:41", 0, true, 0),
        vote("order:41", 1, true, 0),
        vote("order:41", 2, true, 0),
    ];
    let run_aliased = run(&config, &program, &params, &script);
    assert_eq!(run_aliased.outcomes(), [Outcome::Committed]);
    assert_eq!(
        run_aliased.decides(),
        [("acct:9", true), ("order:41", true)]
    );
    let relowered = |d: &Driven| d.metrics.counter_value("plan.fallback_interpreted");
    assert_eq!(
        (
            relowered(&run_aliased.by_spec),
            relowered(&run_aliased.by_plan)
        ),
        (0, 1)
    );

    // Two writes that the arguments make one key: refused by both, at once.
    let program = program.write(KeyRef::Param(4), OpTemplate::Delete);
    let params = [
        PlanParam::Key(1),
        PlanParam::Int(-1),
        PlanParam::Int(41),
        PlanParam::Int(7),
        PlanParam::Key(1),
    ];
    let refused = run(&config, &program, &params, &[]);
    assert_eq!(refused.outcomes(), [Outcome::Aborted]);
    assert_eq!(
        refused.steps[0].len(),
        1,
        "no timer, no read: {:?}",
        refused.steps[0]
    );
    assert_eq!(refused.by_spec.metrics.counter_value("txn.bad_spec"), 1);
    assert_eq!(refused.by_plan.metrics.counter_value("plan.bad_params"), 1);
    assert_eq!(refused.by_plan.coordinator.inflight_count(), 0);
}

/// How many timers `effects` arm, and each `TxnDone`'s transaction, outcome
/// and µs from submission to decision.
fn timers_and_done(effects: &[Effect<Msg>]) -> (usize, Vec<(TxnId, Outcome, u64)>) {
    let timers = effects.iter().filter(|e| matches!(e, Effect::Timer { .. }));
    let done = effects.iter().filter_map(|e| match e {
        Effect::Send {
            msg:
                Msg::TxnDone {
                    txn,
                    outcome,
                    stats,
                    ..
                },
            ..
        } => Some((*txn, *outcome, stats.server_us())),
        _ => None,
    });
    (timers.count(), done.collect())
}

fn submit(spec: TxnSpec, tag: u64) -> Msg {
    Msg::Submit {
        spec,
        reply_to: CLIENT,
        tag,
    }
}

#[test]
fn a_forged_or_early_timeout_decides_nothing() {
    let (program, params) = purchase();
    let mut driven = Driven::new(&ClusterConfig::new(3, Protocol::Fast));
    let spec = program.instantiate(&params).expect("instantiates").into();
    assert_eq!(timers_and_done(&driven.deliver(submit(spec, TAG))).0, 1);
    // For the live transaction and for one that never existed, long before
    // the deadline: a peer's bytes, or a stale timer.
    for forged in [txn(), TxnId::new(0, 99)] {
        let at_us = driven.clock_us + 10;
        let effects = driven.deliver_at(at_us, Msg::TxnTimeout { txn: forged });
        assert!(
            effects.is_empty(),
            "no TxnDone, Decide or timer: {effects:?}"
        );
    }
    let script = std::iter::once(read_resp(&TOUCHED, 3)).chain(all_accept());
    let done: Vec<_> = script
        .flat_map(|msg| timers_and_done(&driven.deliver(msg)).1)
        .collect();
    assert!(matches!(done[..], [(_, Outcome::Committed, _)]), "{done:?}");
}

/// A hundred transactions in flight, one armed timeout. Fired on time it
/// times each out at exactly `submitted_at + txn_timeout`, and each
/// late-vote window closes one timeout later, as when every transaction
/// armed its own timer; fired late, it times out everything due.
#[test]
fn one_timeout_serves_every_transaction_in_flight() {
    let config = ClusterConfig::new(3, Protocol::Fast);
    let timeout_us = config.txn_timeout.as_micros();
    let mut driven = Driven::new(&config);
    let armed: usize = (0..100)
        .map(|tag| {
            let spec = TxnSpec::write_one(Key::new("k"), WriteOp::add(1));
            timers_and_done(&driven.deliver(submit(spec, tag))).0
        })
        .sum();
    assert_eq!((armed, driven.coordinator.inflight_count()), (1, 100));
    let fire = |driven: &mut Driven| driven.deliver(Msg::TxnTimeout { txn: txn() });
    for seq in 0..50 {
        let (timers, done) = timers_and_done(&fire(&mut driven));
        let expect = (TxnId::new(0, seq), Outcome::TimedOut, timeout_us);
        assert_eq!((timers, done), (1, vec![expect]), "fire {seq}");
    }
    let late = driven.timer_due_us.expect("armed") + 1_000;
    let (timers, done) = timers_and_done(&driven.deliver_at(late, Msg::TxnTimeout { txn: txn() }));
    assert_eq!(
        (timers, done.len(), driven.coordinator.inflight_count()),
        (1, 50, 0)
    );

    // The first window closes with the next fire; the second stays open.
    let late_vote = |seq| Msg::Vote {
        txn: TxnId::new(0, seq),
        key: Key::new("k"),
        site: SiteId(1),
        accept: true,
        reason: None,
        round: 0,
    };
    let closes = driven.timer_due_us.expect("armed for the windows");
    assert_eq!(closes, 10 + 2 * timeout_us);
    assert_eq!(driven.deliver_at(closes - 1, late_vote(0)).len(), 1);
    assert_eq!(fire(&mut driven).len(), 1, "one timer, nothing else");
    assert!(driven.deliver_at(closes + 5, late_vote(0)).is_empty());
    assert_eq!(driven.deliver_at(closes + 6, late_vote(1)).len(), 1);
}
