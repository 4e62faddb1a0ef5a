//! Determinism regression: the simulated deployment must be perfectly
//! replayable. Two runs of the same configuration — same seed, same
//! workload, same injected network chaos — must produce *identical*
//! per-transaction outcomes, latencies and prediction traces.
//!
//! This is the property the live cluster mode (planet-cluster) explicitly
//! gives up, and the reason the simulation stays the ground truth for every
//! experiment; this test pins it against regressions from engine or
//! protocol refactors (e.g. the factored `drive` step shared with the live
//! reactor).

use planet_core::{Planet, PlanetTxn, Protocol, SimDuration, TxnRecord};
use planet_sim::{Partition, SimTime, SiteId, Spike};

/// One full chaotic run: writes from every site, cross-site conflicts on a
/// hot key, a delay spike, a partition, and background loss.
fn chaotic_run(seed: u64) -> Vec<TxnRecord> {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(seed)
        .build();
    db.network_mut().loss_prob = 0.02;
    db.network_mut().add_spike(Spike {
        from: SimTime::from_secs(2),
        to: SimTime::from_secs(4),
        site: Some(SiteId(1)),
        factor: 5.0,
    });
    db.network_mut().add_partition(Partition {
        from: SimTime::from_secs(5),
        to: SimTime::from_secs(6),
        a: SiteId(0),
        b: SiteId(2),
    });
    for site in 0..db.num_sites() {
        for i in 0..12u64 {
            // Unique-key writes plus contended writes to one hot key.
            let txn = if i % 3 == 0 {
                PlanetTxn::builder().add("hot", 1).build()
            } else {
                PlanetTxn::builder()
                    .set(format!("d:{site}:{i}"), i as i64)
                    .build()
            };
            db.submit_at(site, SimTime::from_millis(1 + i * 700), txn);
        }
    }
    db.run_for(SimDuration::from_secs(20));
    db.all_records().into_iter().cloned().collect()
}

#[test]
fn identical_config_replays_identically() {
    let first = chaotic_run(1234);
    let second = chaotic_run(1234);
    assert_eq!(first.len(), second.len(), "same number of finished txns");
    assert!(
        first.len() >= 50,
        "the workload actually ran: {}",
        first.len()
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.handle, b.handle);
        assert_eq!(a.outcome, b.outcome, "{}: outcome diverged", a.handle);
        assert_eq!(a.submitted_at, b.submitted_at, "{}", a.handle);
        assert_eq!(a.latency, b.latency, "{}: latency diverged", a.handle);
        assert_eq!(a.speculated_at, b.speculated_at, "{}", a.handle);
        assert_eq!(a.reads, b.reads, "{}: reads diverged", a.handle);
        assert_eq!(
            a.predictions.len(),
            b.predictions.len(),
            "{}: prediction trace diverged",
            a.handle
        );
        for (pa, pb) in a.predictions.iter().zip(&b.predictions) {
            assert_eq!(pa.elapsed_us, pb.elapsed_us, "{}", a.handle);
            assert!(
                (pa.likelihood - pb.likelihood).abs() < 1e-12,
                "{}",
                a.handle
            );
            assert_eq!(pa.votes_seen, pb.votes_seen, "{}", a.handle);
        }
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check on the check: the comparison is strong enough to notice a
    // genuinely different run (otherwise the test above proves nothing).
    let first = chaotic_run(1234);
    let other = chaotic_run(5678);
    let same = first.len() == other.len()
        && first
            .iter()
            .zip(&other)
            .all(|(a, b)| a.outcome == b.outcome && a.latency == b.latency);
    assert!(!same, "two seeds should not replay identically");
}
