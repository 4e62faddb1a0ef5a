//! A plan's slot order is defined once: the touched-key order of the
//! transaction it instantiates to (`TxnSpec::touched_keys`: keys read, then
//! keys written, each in program order, first mention wins). The coordinator
//! sends one `ReadReq` per shard with its keys in slot order, so a plan whose
//! slots followed the order its ops were *written* in would read in a
//! different order than the spec it stands for as soon as a write precedes a
//! read.

use planet_mdcc::{ClusterConfig, Protocol, TxnSpec};
use planet_plan::{CompiledPlan, KeyRef, KeyTemplate, OpTemplate, PlanParam, TxnProgram};
use planet_sim::DetRng;
use planet_storage::Key;

/// The plan's resolved slots against the touched keys of its instantiation.
fn assert_slots_follow_touched_order(program: TxnProgram, params: &[PlanParam], what: &str) {
    let config = ClusterConfig::new(3, Protocol::Fast);
    let spec: TxnSpec = program.instantiate(params).expect("instantiates").into();
    let plan = CompiledPlan::compile(program, &config).expect("compiles");
    let (mut keys, mut routes) = (Vec::new(), Vec::new());
    plan.resolve_slots(params, &config, &mut keys, &mut routes)
        .expect("resolves");
    assert_eq!(keys, spec.touched_keys(), "{what}");
    // Steps keep program order and point at the slot of the key they write.
    let written: Vec<&Key> = plan.steps.iter().map(|s| &keys[s.slot as usize]).collect();
    let expected: Vec<&Key> = spec.writes.iter().map(|(k, _)| k).collect();
    assert_eq!(written, expected, "{what}");
}

#[test]
fn a_write_before_a_read_still_reads_first() {
    let mut program = TxnProgram::new("t");
    let a = program.intern(Key::new("a"));
    let b = program.intern(Key::new("b"));
    let program = program
        .write(KeyRef::Fixed(a), OpTemplate::Delete)
        .read(KeyRef::Fixed(b));
    assert_slots_follow_touched_order(program, &[], "write a, read b");
}

#[test]
fn interleaved_programs_resolve_in_touched_order() {
    for seed in 0..200u64 {
        let mut rng = DetRng::new(seed);
        let mut program = TxnProgram::new("interleaved");
        for i in 0..8 {
            program.intern(Key::new(format!("k{i}")));
        }
        // Distinct references resolve to distinct keys here (fixed `k*`,
        // derived `d*`), so no execution aliases and `resolve_slots` answers.
        let mut written = std::collections::HashSet::new();
        for _ in 0..rng.index(24) + 1 {
            let key = if rng.bernoulli(0.7) {
                KeyRef::Fixed(rng.index(8) as u32)
            } else {
                let lit = format!("d{}:", rng.index(4));
                KeyRef::Derived(KeyTemplate::new().lit(lit).param(0))
            };
            program = if rng.bernoulli(0.5) && written.insert(key.clone()) {
                program.write(key, OpTemplate::SetParam(0))
            } else {
                program.read(key)
            };
        }
        assert_slots_follow_touched_order(program, &[PlanParam::Int(3)], &format!("seed {seed}"));
    }
}
