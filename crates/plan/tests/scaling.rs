//! Registering a plan is this system's compile step, and it has to cost in
//! proportion to the program, not to its square: build with `intern`, encode,
//! decode and compile a program a wire frame can carry at its largest, inside
//! a bound the quadratic table scan missed by two orders of magnitude (250 ms
//! per 10 000 keys, so about 100 s here). And the two ways a decoded program
//! could reach the compiler malformed — a repeated table key, more ops than a
//! `u16` slot index can name — are refused, not miscompiled. The same holds
//! per submission: lowering the widest plan a coordinator can hold, or the
//! widest ad-hoc spec a frame can carry, costs in proportion to its keys, and
//! so does completing its read round.

use std::time::{Duration, Instant};

use planet_cluster::{wire, Envelope};
use planet_mdcc::{ClusterConfig, CoordinatorActor, KeyRead, Msg, Outcome, Protocol, TxnSpec};
use planet_plan::{CompiledPlan, KeyRef, OpTemplate, PlanError, PlanParam, TxnProgram};
use planet_sim::{drive_into, ActorId, DetRng, Effect, Metrics, SimTime, SiteId, TurnInputs};
use planet_storage::{Key, Value, WriteOp};

fn register(program: TxnProgram) -> Envelope {
    Envelope {
        from: ActorId(6),
        to: ActorId(3),
        msg: Msg::RegisterPlan {
            plan: 1,
            program,
            reply_to: ActorId(6),
        },
    }
}

fn decoded_program(bytes: &[u8]) -> TxnProgram {
    match wire::decode(bytes).expect("decodes").msg {
        Msg::RegisterPlan { program, .. } => program,
        other => panic!("decoded to {other:?}"),
    }
}

#[test]
fn a_200k_key_program_builds_travels_and_compiles_in_linear_time() {
    const KEYS: u32 = 200_000;
    let start = Instant::now();
    let mut program = TxnProgram::new("wide");
    for i in 0..KEYS {
        assert_eq!(program.intern(Key::new(format!("stock:{i}"))), i);
    }
    assert_eq!(program.intern(Key::new("stock:77")), 77, "interning dedups");
    let program = program
        .read(KeyRef::Param(0))
        .write(KeyRef::Param(0), OpTemplate::SetParam(1));

    let decoded = decoded_program(&wire::encode(&register(program.clone())));
    assert_eq!(decoded, program);

    let config = ClusterConfig::new(3, Protocol::Fast);
    let plan = CompiledPlan::compile(decoded, &config).expect("compiles");
    let elapsed = start.elapsed();

    let last = [PlanParam::Key(KEYS - 1), PlanParam::Int(5)];
    let txn = plan.instantiate(&last).expect("instantiates");
    assert_eq!(txn.reads, vec![Key::new(format!("stock:{}", KEYS - 1))]);
    assert!(
        elapsed < Duration::from_secs(2),
        "build + encode + decode + compile of {KEYS} keys took {elapsed:?}"
    );
}

#[test]
fn a_repeated_table_key_is_a_decode_error() {
    let mut program = TxnProgram::new("dup");
    program.intern(Key::new("key:a"));
    let b = program.intern(Key::new("key:b"));
    let program = program.write(KeyRef::Fixed(b), OpTemplate::Delete);
    let mut bytes = wire::encode(&register(program));
    assert_eq!(decoded_program(&bytes).table.len(), 2);
    // Turn the second entry into a copy of the first. Interning it would
    // leave a one-entry table under ops that name index 1.
    let at = bytes
        .windows(5)
        .position(|w| w == b"key:b")
        .expect("the key is in the frame");
    bytes[at + 4] = b'a';
    let err = wire::decode(&bytes).expect_err("repeated key refused");
    assert!(err.to_string().contains("repeated plan table key"), "{err}");
}

/// One write per op, each to its own derived key, so only the count is wrong.
fn program_of_writes(n: usize) -> TxnProgram {
    let mut program = TxnProgram::new("long");
    for _ in 0..n {
        program = program.write(KeyRef::Param(0), OpTemplate::Delete);
    }
    program
}

#[test]
fn more_ops_than_a_u16_can_index_are_refused() {
    let config = ClusterConfig::new(3, Protocol::Fast);
    // 65 536 ops: slot and step indices used to wrap to 0 silently. Checked
    // before anything else, so the repeated write is not what is reported.
    let too_many = program_of_writes(usize::from(u16::MAX) + 1);
    assert_eq!(too_many.validate(), Err(PlanError::TooManyOps(65_536)));
    // The same program arriving from a peer.
    let decoded = decoded_program(&wire::encode(&register(too_many)));
    assert_eq!(
        CompiledPlan::compile(decoded, &config).err(),
        Some(PlanError::TooManyOps(65_536))
    );
    // One fewer is a count a plan can index (and then the duplicate shows).
    assert_eq!(
        program_of_writes(usize::from(u16::MAX)).validate(),
        Err(PlanError::DuplicateWrite)
    );
}

#[test]
fn the_largest_indexable_program_compiles_with_distinct_slots() {
    use planet_plan::KeyTemplate;
    let config = ClusterConfig::new(3, Protocol::Fast);
    let mut program = TxnProgram::new("max");
    for i in 0..u16::MAX - 1 {
        let key = KeyTemplate::new().lit(format!("order:{i}:")).param(0);
        program = program.write(KeyRef::Derived(key), OpTemplate::SetParam(0));
    }
    // The last reference renders slot 0's key when parameter 1 is 7.
    let twin = KeyTemplate::new().lit("order:0:").param(1);
    program = program.write(KeyRef::Derived(twin), OpTemplate::SetParam(0));
    let start = Instant::now();
    let plan = CompiledPlan::compile(program, &config).expect("compiles");
    let elapsed = start.elapsed();
    assert_eq!(plan.slots.len(), usize::from(u16::MAX));
    let last = plan.steps.last().expect("steps");
    assert_eq!(last.slot, u16::MAX - 1, "no index wrapped");
    assert_eq!(plan.slots[usize::from(last.slot)].step, Some(u16::MAX - 1));
    assert!(elapsed < Duration::from_secs(2), "compile took {elapsed:?}");

    // Every reference is derived, so every execution is checked for two
    // slots resolving to one key: by lookup, not by comparing all pairs
    // (2 × 10⁹ string compares here, per submission, for a peer's plan).
    assert!(plan.may_alias);
    let (mut keys, mut routes) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let distinct = [PlanParam::Int(7), PlanParam::Int(8)];
    plan.resolve_slots(&distinct, &config, &mut keys, &mut routes)
        .expect("resolves");
    let aliased = [PlanParam::Int(7), PlanParam::Int(7)];
    let refused = plan.resolve_slots(&aliased, &config, &mut Vec::new(), &mut Vec::new());
    let elapsed = start.elapsed();
    assert_eq!(keys.len(), usize::from(u16::MAX));
    assert_eq!(keys.len(), routes.len());
    assert_eq!(keys.last(), Some(&Key::new("order:0:8")));
    assert_eq!(refused, Err(PlanError::AliasedKeys));
    assert!(
        elapsed < Duration::from_secs(2),
        "resolving took {elapsed:?}"
    );
}

/// A fresh site-0 coordinator over three replicas.
fn coordinator() -> CoordinatorActor {
    let config = ClusterConfig::new(3, Protocol::Fast);
    CoordinatorActor::new(config, (0..3).map(ActorId).collect(), SiteId(0))
}

/// `msg` from actor `from` as a peer would deliver it — through the wire
/// codec — into `coordinator`; the effects of that one delivery and the time
/// it took.
fn deliver_from_the_wire(
    coordinator: &mut CoordinatorActor,
    from: ActorId,
    msg: Msg,
) -> (Vec<Effect<Msg>>, Duration) {
    let to = ActorId(3);
    let decoded = wire::decode(&wire::encode(&Envelope { from, to, msg })).expect("decodes");
    let inputs = TurnInputs {
        now: SimTime::from_micros(1),
        self_id: decoded.to,
        self_site: SiteId(0),
    };
    let mut effects = Vec::new();
    let start = Instant::now();
    drive_into(
        coordinator,
        inputs,
        decoded.from,
        decoded.msg,
        &mut DetRng::new(1),
        &mut Metrics::new(),
        &mut effects,
    );
    (effects, start.elapsed())
}

fn submit_from_the_wire(
    coordinator: &mut CoordinatorActor,
    spec: TxnSpec,
) -> (Vec<Effect<Msg>>, Duration) {
    let submit = Msg::Submit {
        spec,
        reply_to: ActorId(6),
        tag: 1,
    };
    deliver_from_the_wire(coordinator, ActorId(6), submit)
}

fn spec_writing(keys: usize) -> TxnSpec {
    TxnSpec {
        // Each key is also read, twice: slots are per key, not per mention.
        reads: (0..keys)
            .chain(0..keys)
            .map(|i| Key::new(format!("k{i}")))
            .collect(),
        writes: (0..keys)
            .map(|i| (Key::new(format!("k{i}")), WriteOp::add(1)))
            .collect(),
        ..TxnSpec::default()
    }
}

#[test]
fn the_widest_spec_lowers_in_linear_time_and_a_wider_one_is_refused() {
    let (effects, elapsed) =
        submit_from_the_wire(&mut coordinator(), spec_writing(usize::from(u16::MAX)));
    let asked = effects.iter().find_map(|e| match e {
        Effect::Send {
            msg: Msg::ReadReq { keys, .. },
            ..
        } => Some(keys.len()),
        _ => None,
    });
    assert_eq!(asked, Some(usize::from(u16::MAX)), "one slot per key");
    assert!(
        elapsed < Duration::from_secs(2),
        "lowering took {elapsed:?}"
    );

    // One key more than a `u16` slot index names: refused, not wrapped.
    let (effects, _) =
        submit_from_the_wire(&mut coordinator(), spec_writing(usize::from(u16::MAX) + 1));
    assert!(
        matches!(
            effects[..],
            [Effect::Send {
                msg: Msg::TxnDone {
                    outcome: Outcome::Aborted,
                    ..
                },
                ..
            }]
        ),
        "{} effects",
        effects.len()
    );
}

#[test]
fn a_wide_read_round_completes_in_linear_time() {
    // Finding each step's read version by scanning the results is steps ×
    // results: with the results in the order that makes the scan longest,
    // 16 384 writes cost 1.3 × 10⁸ key compares, for a transaction a peer
    // chose the size of (1.7 s in a debug build, 0.45 s optimised). By slot
    // it is one lookup each (28 ms and 10 ms).
    const WRITES: usize = 16_384;
    let mut coordinator = coordinator();
    let (effects, _) = submit_from_the_wire(&mut coordinator, spec_writing(WRITES));
    let (replica, txn, keys) = effects
        .into_iter()
        .find_map(|e| match e {
            Effect::Send {
                dst,
                msg: Msg::ReadReq { txn, keys },
            } => Some((dst, txn, keys)),
            _ => None,
        })
        .expect("a read round");
    assert_eq!(keys.len(), WRITES);
    let results = keys
        .iter()
        .rev()
        .enumerate()
        .map(|(i, key)| KeyRead {
            key: key.clone(),
            version: i as u64 + 1,
            value: Value::Int(0),
            pending: 0,
        })
        .collect();
    let (effects, elapsed) =
        deliver_from_the_wire(&mut coordinator, replica, Msg::ReadResp { txn, results });
    // Every step proposes on the version its own key was read at.
    let mut proposed = 0;
    for effect in &effects {
        if let Effect::Send {
            msg: Msg::FastPropose { key, option, .. },
            dst,
        } = effect
        {
            if *dst != replica {
                continue;
            }
            let n: usize = key.as_str()[1..].parse().expect("k<n>");
            assert_eq!(option.read_version, (WRITES - n) as u64, "{key}");
            proposed += 1;
        }
    }
    assert_eq!(proposed, WRITES);
    assert!(
        elapsed < Duration::from_millis(150),
        "the read round took {elapsed:?}"
    );
}
