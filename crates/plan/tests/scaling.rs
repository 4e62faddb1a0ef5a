//! Registering a plan is this system's compile step, and it has to cost in
//! proportion to the program, not to its square: build with `intern`, encode,
//! decode and compile a program a wire frame can carry at its largest, inside
//! a bound the quadratic table scan missed by two orders of magnitude (250 ms
//! per 10 000 keys, so about 100 s here). And the two ways a decoded program
//! could reach the compiler malformed — a repeated table key, more ops than a
//! `u16` slot index can name — are refused, not miscompiled.

use std::time::{Duration, Instant};

use planet_cluster::{wire, Envelope};
use planet_mdcc::{ClusterConfig, Msg, Protocol};
use planet_plan::{CompiledPlan, KeyRef, OpTemplate, PlanError, PlanParam, TxnProgram};
use planet_sim::ActorId;
use planet_storage::Key;

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
    for i in 0..u16::MAX {
        let key = KeyTemplate::new().lit(format!("order:{i}:")).param(0);
        program = program.write(KeyRef::Derived(key), OpTemplate::SetParam(0));
    }
    let start = Instant::now();
    let plan = CompiledPlan::compile(program, &config).expect("compiles");
    let elapsed = start.elapsed();
    assert_eq!(plan.slots.len(), usize::from(u16::MAX));
    let last = plan.steps.last().expect("steps");
    assert_eq!(last.slot, u16::MAX - 1, "no index wrapped");
    assert_eq!(plan.slots[usize::from(last.slot)].step, Some(u16::MAX - 1));
    assert!(elapsed < Duration::from_secs(2), "compile took {elapsed:?}");
}
