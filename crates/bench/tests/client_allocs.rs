//! A PLANET client's bookkeeping allocates what its record keeps, and
//! little else.
//!
//! Counted where counts repeat exactly: a simulated five-site `Planet`, a
//! client at every site fed by a source that mixes the traffic of the
//! `sim-geo-planet` workload — ticket purchases, single writes to a small
//! hot set and two-key reads — under deadlines, speculation and admission
//! control. What a committed transaction still allocates is what outlives
//! it (its record's prediction trace, the read results the record takes
//! over whole), the transaction the source builds, and the payload the
//! protocol ships (`ReadResp`, the per-key options). Not the set of sites
//! each written key still awaits a vote from (a `SiteMask` in its
//! `KeyState`), not a copy of the read results, not a per-transaction
//! vector of key states (recycled through a free list) and not the keys of
//! a `ReadReq` (two inline in its `KeyList`). A tripped bound prints the
//! five sites that allocated the most, from the sampling `alloc_counter`
//! attribution.
//!
//! Lives here because this crate owns the counting `#[global_allocator]`;
//! one test alone in its file, so nothing else allocates while it counts
//! (the harness's own threads may, a little).

use planet_bench::alloc_counter::{alloc_count, start_attribution, stop_attribution};
use planet_core::{
    AdmissionPolicy, FinalOutcome, Key, Planet, PlanetTxn, Protocol, SimDuration, SimTime,
    TxnSource, Value, WriteOp,
};
use planet_sim::DetRng;
use planet_workload::stock_key;

const SITES: usize = 5;
const EVENTS: u64 = 64;
const HOT_KEYS: u64 = 8;
const RATE_PER_SITE: f64 = 60.0;
const WARM_UP: SimDuration = SimDuration::from_secs(4);
const MEASURED: SimDuration = SimDuration::from_secs(16);

/// Allocations per committed transaction: what this test reads (4.57 in
/// debug and release builds alike), plus 9 %. It read 4.84 while each
/// replica kept a history of replaced versions per key and boxed and
/// copied every written page anew at each checkpoint, 9.21 while each
/// key's outstanding voters were a `Vec<u8>`, the client copied the read
/// results into a vector of its own, every submission collected a fresh
/// vector of key states and a `ReadReq` carried its keys in a `Vec`.
const PER_COMMIT_BOUND: f64 = 5.0;

/// One site's traffic, in `sim-geo-planet`'s proportions: half purchases
/// (a stock read, its decrement and a fresh order record), three tenths a
/// version-checked write to the hot set, a fifth two-key reads. Every key
/// is built in place (`Key::from_fmt`), so the count is the system's, not
/// the source's string formatting.
struct Mix {
    site: u8,
    issued: u64,
}

fn hot_key(i: u64) -> Key {
    Key::from_fmt(format_args!("hot:{i}"))
}

impl TxnSource for Mix {
    fn next_txn(&mut self, _now: SimTime, rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)> {
        let roll = rng.unit_f64();
        let mut b = PlanetTxn::builder();
        if roll < 0.5 {
            let event = rng.range_u64(0, EVENTS);
            b = b
                .read(stock_key(event))
                .write(stock_key(event), WriteOp::add_with_floor(-1, 0))
                .write(
                    Key::from_fmt(format_args!("order:{}:{}", self.site, self.issued)),
                    WriteOp::Set(Value::Int(event as i64)),
                );
        } else if roll < 0.8 {
            b = b.write(
                hot_key(rng.range_u64(0, HOT_KEYS)),
                WriteOp::Set(Value::Int(self.issued as i64)),
            );
        } else {
            b = b
                .read(stock_key(rng.range_u64(0, EVENTS)))
                .read(hot_key(rng.range_u64(0, HOT_KEYS)));
        }
        self.issued += 1;
        let txn = b
            .deadline(SimDuration::from_millis(300))
            .speculate_at(0.95)
            .build();
        let gap_us = (rng.exponential(RATE_PER_SITE) * 1e6).round().max(1.0);
        Some((txn, SimDuration::from_micros(gap_us as u64)))
    }
}

/// Committed records at every site.
fn commits(db: &Planet) -> usize {
    (0..SITES)
        .map(|site| {
            let records = db.records(site);
            records.iter().filter(|r| r.outcome.is_commit()).count()
        })
        .sum()
}

#[test]
fn a_commit_allocates_what_its_record_keeps() {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(34)
        .validation_service(SimDuration::from_micros(1_000))
        .admission(AdmissionPolicy {
            min_likelihood: 0.2,
            max_inflight: 4096,
        })
        .build();
    assert_eq!(db.num_sites(), SITES);
    let base = db.now();
    for (n, key) in (0..EVENTS)
        .map(stock_key)
        .chain((0..HOT_KEYS).map(hot_key))
        .enumerate()
    {
        let txn = PlanetTxn::builder().set(key, 1_000_000_000i64).build();
        let at = base + SimDuration::from_millis(1 + 2 * n as u64);
        db.submit_at(n % SITES, at, txn);
    }
    db.run_for(SimDuration::from_secs(2));
    for site in 0..SITES {
        let mix = Mix {
            site: site as u8,
            issued: 0,
        };
        db.attach_source(site, Box::new(mix));
    }
    db.run_for(WARM_UP);

    let committed_before = commits(&db);
    start_attribution();
    let before = alloc_count();
    db.run_for(MEASURED);
    let allocs = alloc_count() - before;
    let attribution = stop_attribution();
    let committed = (commits(&db) - committed_before) as u64;
    assert!(committed > 1_000, "{committed} commits");
    let aborted = (0..SITES)
        .flat_map(|site| db.records(site))
        .filter(|r| r.outcome == FinalOutcome::Aborted)
        .count();
    assert!(aborted > 0, "the hot set conflicts");

    let per_commit = allocs as f64 / committed as f64;
    // Resolved only if the bound trips: the sites that allocate the most.
    let top_sites = || -> String {
        attribution
            .top(5)
            .iter()
            .map(|(site, n)| format!("\n  {:.2} per commit  {site}", *n as f64 / committed as f64))
            .collect()
    };
    assert!(
        per_commit <= PER_COMMIT_BOUND,
        "{allocs} allocations for {committed} committed transactions \
         ({per_commit:.2} per commit; the bound is {PER_COMMIT_BOUND}); \
         the most sampled sites:{}",
        top_sites()
    );
}
