//! Regression tests: the checker's invariants must hold on the real
//! protocol and must *trip* under seeded corruption — proof the harness can
//! actually see a broken protocol, not just a quiet one.

use planet_mck::{explore, routing_check, MckConfig, Mutation};

#[test]
fn clean_exploration_holds_all_invariants() {
    let mut cfg = MckConfig::new(2, 1, 20);
    cfg.max_states = 100_000;
    let rep = explore(&cfg);
    assert!(
        rep.violations.is_empty(),
        "clean run violated: {:?}",
        rep.violations.first()
    );
    assert!(
        rep.complete_verdicts.contains("C"),
        "single uncontended txn must commit somewhere in the bound: {:?}",
        rep.verdicts
    );
    assert!(!rep.capped);
    assert!(rep.unique_states > 100, "exploration trivially small");
}

#[test]
fn tamper_apply_mutation_trips_agreement() {
    let mut cfg = MckConfig::new(2, 1, 18);
    cfg.mutation = Some(Mutation::TamperApply);
    let rep = explore(&cfg);
    assert!(
        rep.violations.iter().any(|v| v.invariant == "agreement"),
        "tampered Apply must violate agreement: {:?}",
        rep.violations
    );
    // The tampered version is also a rewrite of committed content.
    assert!(rep
        .violations
        .iter()
        .any(|v| v.invariant == "commit-stability"));
    // Every violation carries a replayable path.
    assert!(rep.violations.iter().all(|v| !v.path.is_empty()));
}

#[test]
fn drop_decide_mutation_trips_durability() {
    let mut cfg = MckConfig::new(2, 1, 24);
    cfg.mutation = Some(Mutation::DropDecide);
    let rep = explore(&cfg);
    assert!(
        rep.violations.iter().any(|v| v.invariant == "durability"),
        "swallowed Decide must leave a committed txn non-durable: {:?}",
        rep.violations
    );
    // The client still saw Committed — the corruption is server-side.
    assert!(rep.complete_verdicts.contains("C"));
}

#[test]
fn message_loss_and_duplication_hold_invariants() {
    // Under a bounded lossy/duplicating adversary the reachable outcomes
    // widen (timeouts appear) but no safety invariant may trip.
    let mut cfg = MckConfig::new(2, 1, 12);
    cfg.drops = 1;
    cfg.dups = 1;
    let rep = explore(&cfg);
    assert!(
        rep.violations.is_empty(),
        "lossy adversary violated: {:?}",
        rep.violations.first()
    );
    assert!(
        rep.verdicts.len() > 1,
        "loss should reach outcomes a reliable run cannot: {:?}",
        rep.verdicts
    );
}

#[test]
fn shard_routing_is_sound() {
    let rep = routing_check(&MckConfig::new(2, 1, 20));
    assert!(
        rep.consistent,
        "S=1 complete verdicts {:?} != S=2 {:?}",
        rep.s1.complete_verdicts, rep.s2.complete_verdicts
    );
    assert_eq!(rep.s1.complete_verdicts, rep.s2.complete_verdicts);
}

#[test]
fn conflicting_clients_explore_without_violation() {
    // Two clients race on the same key; within a small bound the checker
    // must stay quiet (conflicts abort/timeout, never corrupt).
    let mut cfg = MckConfig::new(3, 2, 8);
    cfg.max_states = 50_000;
    let rep = explore(&cfg);
    assert!(
        rep.violations.is_empty(),
        "contended run violated: {:?}",
        rep.violations.first()
    );
    assert!(rep.unique_states > 500);
}

/// The exact exploration of two cheap configurations (BENCH_mck.json's
/// rows). The digest covers every piece of protocol-visible state, each
/// replica's committed chains included, so a refactor meant to leave that
/// state alone must leave these counts alone; one that changes it on
/// purpose re-records them here and in BENCH_mck.json.
#[test]
fn explored_state_counts_are_pinned() {
    for (sites, clients, depth, unique_states, steps) in
        [(2, 1, 24, 440, 17_862), (3, 2, 8, 1_225, 47_190)]
    {
        let rep = explore(&MckConfig::new(sites, clients, depth));
        let what = format!("{sites} sites, {clients} clients, depth {depth}");
        assert!(rep.violations.is_empty(), "{what}: {:?}", rep.violations);
        assert!(!rep.capped, "{what}");
        assert_eq!(rep.unique_states, unique_states, "{what}: unique states");
        assert_eq!(rep.steps, steps, "{what}: steps");
    }
}
