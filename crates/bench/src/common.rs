//! Shared experiment plumbing: scales, deployment builders, statistics.

use planet_core::{Planet, PlanetTxn, Protocol, SimDuration, SimTime, TxnRecord};
use planet_sim::NetworkModel;

/// Experiment scale: `Quick` keeps CI and `cargo test` fast; `Full` is what
/// EXPERIMENTS.md records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short runs for tests.
    Quick,
    /// Full runs for the recorded results.
    Full,
}

impl Scale {
    /// Multiply a baseline count by the scale factor.
    pub fn count(&self, quick: u64, full: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Pick a duration by scale.
    pub fn duration(&self, quick: SimDuration, full: SimDuration) -> SimDuration {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A LAN-ish topology of `sites` sites for the live-cluster runs, whose
/// point is scheduling and protocol cost under concurrency, not WAN
/// geography: 2 ms RTT between sites, 0.1 ms within one.
pub fn lan(sites: usize) -> NetworkModel {
    let rtt: Vec<Vec<f64>> = (0..sites)
        .map(|i| (0..sites).map(|j| if i == j { 0.1 } else { 2.0 }).collect())
        .collect();
    NetworkModel::from_rtt_ms(&rtt)
}

/// Build the standard five-DC deployment.
pub fn deployment(protocol: Protocol, seed: u64) -> Planet {
    Planet::builder().protocol(protocol).seed(seed).build()
}

/// Submit `n` sequential unique-key writes from `site`, spaced `gap_ms`
/// apart, starting shortly after the deployment's current time. Returns the
/// handles.
pub fn sequential_writes(
    db: &mut Planet,
    site: usize,
    n: u64,
    gap_ms: u64,
    label: &str,
) -> Vec<planet_core::TxnHandle> {
    let base = db.now();
    (0..n)
        .map(|i| {
            let txn = PlanetTxn::builder()
                .set(format!("{label}:{site}:{i}"), i as i64)
                .build();
            db.submit_at(site, base + SimDuration::from_millis(1 + i * gap_ms), txn)
        })
        .collect()
}

/// Warm every site's likelihood model with easy traffic.
pub fn warm_all_sites(db: &mut Planet, per_site: u64) {
    for site in 0..db.num_sites() {
        sequential_writes(db, site, per_site, 400, "warm");
    }
    db.run_for(SimDuration::from_secs(per_site.max(1) / 2 + 5));
}

/// Latency percentiles (microseconds) over a set of records' latencies.
pub fn latency_percentiles(records: &[&TxnRecord], quantiles: &[f64]) -> Vec<u64> {
    let mut lats: Vec<u64> = records.iter().map(|r| r.latency.as_micros()).collect();
    lats.sort_unstable();
    quantiles
        .iter()
        .map(|&q| {
            if lats.is_empty() {
                0
            } else {
                let idx = ((q * (lats.len() - 1) as f64).round()) as usize;
                lats[idx]
            }
        })
        .collect()
}

/// Commit fraction of a record set.
pub fn commit_rate(records: &[&TxnRecord]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    records.iter().filter(|r| r.outcome.is_commit()).count() as f64 / records.len() as f64
}

/// Goodput in committed transactions per simulated second over a window.
pub fn goodput(records: &[&TxnRecord], from: SimTime, to: SimTime) -> f64 {
    let commits = records
        .iter()
        .filter(|r| r.outcome.is_commit() && r.submitted_at >= from && r.submitted_at < to)
        .count();
    commits as f64 / (to.since(from)).as_secs_f64().max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use planet_core::FinalOutcome;

    fn rec(latency_us: u64, commit: bool, at_ms: u64) -> TxnRecord {
        TxnRecord {
            handle: planet_core::TxnHandle { site: 0, tag: 0 },
            outcome: if commit {
                FinalOutcome::Committed
            } else {
                FinalOutcome::Aborted
            },
            submitted_at: SimTime::from_millis(at_ms),
            latency: SimDuration::from_micros(latency_us),
            write_keys: 1,
            speculated_at: None,
            deadline_likelihood: None,
            predictions: Vec::new(),
            reads: Vec::new(),
        }
    }

    #[test]
    fn percentiles_of_known_set() {
        let recs: Vec<TxnRecord> = (1..=100).map(|i| rec(i * 1000, true, i)).collect();
        let refs: Vec<&TxnRecord> = recs.iter().collect();
        let ps = latency_percentiles(&refs, &[0.5, 0.99]);
        assert_eq!(ps[0], 51_000);
        assert_eq!(ps[1], 99_000);
        assert!(latency_percentiles(&[], &[0.5]) == vec![0]);
    }

    #[test]
    fn commit_rate_and_goodput() {
        let recs: Vec<TxnRecord> = (0..10).map(|i| rec(1000, i % 2 == 0, i * 100)).collect();
        let refs: Vec<&TxnRecord> = recs.iter().collect();
        assert_eq!(commit_rate(&refs), 0.5);
        // 5 commits over the 1-second window [0, 1s).
        let g = goodput(&refs, SimTime::ZERO, SimTime::from_secs(1));
        assert!((g - 5.0).abs() < 1e-9);
        assert_eq!(commit_rate(&[]), 0.0);
    }

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Quick.count(2, 10), 2);
        assert_eq!(Scale::Full.count(2, 10), 10);
    }
}
