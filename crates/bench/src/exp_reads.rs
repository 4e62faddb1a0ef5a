//! tab3-reads: the read-level trade-off. Local reads are sub-millisecond
//! but may trail the masters by one apply-propagation hop; quorum reads pay
//! a WAN round trip for freshest-of-majority.
//!
//! Freshness is measured adversarially: a writer at us-east updates a
//! us-east-mastered key, and a reader at ap-southeast reads it ~50 ms after
//! the commit decision — while the committed version's `Apply` state
//! transfer is still crossing the Pacific. The column reports how often the
//! reader saw the newest version.

use planet_core::{PlanetTxn, Protocol, SimDuration, Value};

use crate::common::{deployment, Scale};
use crate::report::{ms, pct, Table};

/// One measurement pass: returns `(fresh_fraction, latency_p50_us, latency_p99_us)`.
fn measure(quorum: bool, rounds: u64, seed: u64) -> (f64, u64, u64) {
    let mut db = deployment(Protocol::Fast, seed);
    // Use a key *mastered at us-east*: its Apply state transfers then have
    // to cross the planet to the reader, maximising the staleness window.
    let key = (0..64u32)
        .map(|i| format!("watched:{i}"))
        .find(|k| db.config().master_of(&planet_core::Key::new(k.clone())).0 == 0)
        .expect("some key hashes to master 0");
    let mut fresh = 0u64;
    let mut reads = Vec::new();
    let mut write_handles = Vec::new();
    let mut read_handles = Vec::new();
    let base = db.now();
    for round in 0..rounds {
        let at = base + SimDuration::from_millis(1 + round * 700);
        let w = db.submit_at(
            0,
            at,
            PlanetTxn::builder()
                .set(key.clone(), round as i64 + 1)
                .build(),
        );
        write_handles.push(w);
        // The commit decides ~170ms after submission and the us-east master
        // applies right away; the Apply reaches ap-southeast ~100ms later.
        // Reading at +220ms lands squarely inside that staleness window.
        let read_at = at + SimDuration::from_millis(220);
        let mut b = PlanetTxn::builder().read(key.clone());
        if quorum {
            b = b.quorum_reads();
        }
        read_handles.push(db.submit_at(4, read_at, b.build()));
    }
    db.run_for(SimDuration::from_secs(rounds * 700 / 1000 + 10));

    for (round, (w, r)) in write_handles.iter().zip(read_handles.iter()).enumerate() {
        if !db
            .record(*w)
            .expect("transaction was recorded")
            .outcome
            .is_commit()
        {
            continue;
        }
        let record = db.record(*r).expect("transaction was recorded");
        reads.push(record.latency.as_micros());
        if record.reads.first().map(|r| &r.value) == Some(&Value::Int(round as i64 + 1)) {
            fresh += 1;
        }
    }
    reads.sort_unstable();
    let pick = |q: f64| {
        if reads.is_empty() {
            0
        } else {
            reads[((q * (reads.len() - 1) as f64).round()) as usize]
        }
    };
    (
        fresh as f64 / reads.len().max(1) as f64,
        pick(0.5),
        pick(0.99),
    )
}

/// tab3-reads: freshness and latency per read level.
pub fn tab3_reads(scale: Scale) -> Table {
    let rounds = scale.count(30, 200);
    let mut table = Table::new(
        "tab3-reads",
        "Read levels: freshness ~50ms after a remote commit decision vs read latency (reader at ap-southeast)",
        &["read level", "n", "fresh reads", "p50 latency", "p99 latency"],
    );
    for (name, quorum, seed) in [("local", false, 900u64), ("quorum", true, 901)] {
        let (fresh, p50, p99) = measure(quorum, rounds, seed);
        table.row(vec![
            name.to_string(),
            rounds.to_string(),
            pct(fresh),
            ms(p50),
            ms(p99),
        ]);
    }
    table.note("expected shape: local reads are ~1000x faster but mostly stale inside the apply-propagation window; quorum reads are fresh at ~1 WAN RTT");
    table
}
