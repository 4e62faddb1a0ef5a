//! `sim-geo-planet`: the paper's own setting on the deterministic
//! simulator — five data centers on a WAN, the full PLANET model, and a
//! contended mix. Latency, goodput and commit ratio are in virtual time and
//! repeat exactly for a seed; CPU, allocations, memory and set-up are the
//! host's.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use planet_core::{
    AdmissionPolicy, FinalOutcome, Planet, PlanetTxn, Protocol, SimDuration, SimTime, TxnRecord,
    TxnSource,
};
use planet_predict::Calibration;
use planet_sim::DetRng;
use planet_storage::{Key, Value, WriteOp};
use planet_workload::{stock_key, Zipf};

use crate::measure::{Class, End, Mark, PhaseReport, Recorder, Sample};

/// Sites of the five-DC topology; every one runs a client.
const SITES: usize = 5;
/// Events on sale (stock records preloaded through the protocol).
const EVENTS: u64 = 10_000;
/// Skew of event popularity.
const EVENT_THETA: f64 = 0.9;
/// Keys of the contended hot set, written with version-checked `Set`s.
const HOT_KEYS: u64 = 24;
/// Skew within the hot set.
const HOT_THETA: f64 = 0.6;
/// Stock per event: no purchase meets the floor.
const STOCK: i64 = 1_000_000_000;
/// Poisson arrivals per site per virtual second.
const RATE_PER_SITE: f64 = 60.0;
/// Time a replica's single validation server spends on one option.
const VALIDATION_US: u64 = 1_000;
/// Response deadline of every transaction.
const DEADLINE_MS: u64 = 300;
/// Speculation threshold.
const SPECULATE_AT: f64 = 0.95;
/// Warm-up writes per site that teach the predictor its path latencies.
const WARM_PER_SITE: u64 = 2_000;
/// Virtual time the simulator advances between looks at the records.
const STEP: SimDuration = SimDuration::from_millis(250);

/// The traffic of one site: 50 % ticket purchases (commutative stock
/// decrement plus a unique order insert), 30 % version-checked writes to a
/// small hot set (these conflict), 20 % two-key reads.
struct Mix {
    site: u8,
    events: Zipf,
    hot: Zipf,
    issued: u64,
}

fn hot_key(i: u64) -> Key {
    Key::new(format!("hot:{i}"))
}

impl TxnSource for Mix {
    fn next_txn(&mut self, _now: SimTime, rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)> {
        let roll = rng.unit_f64();
        let mut b = PlanetTxn::builder();
        if roll < 0.5 {
            let event = self.events.sample(rng);
            b = b
                .read(stock_key(event))
                .write(stock_key(event), WriteOp::add_with_floor(-1, 0))
                .write(
                    Key::new(format!("order:{}:{}", self.site, self.issued)),
                    WriteOp::Set(Value::Int(event as i64)),
                );
        } else if roll < 0.8 {
            b = b.write(
                hot_key(self.hot.sample(rng)),
                WriteOp::Set(Value::Int(self.issued as i64)),
            );
        } else {
            b = b
                .read(stock_key(self.events.sample(rng)))
                .read(hot_key(self.hot.sample(rng)));
        }
        self.issued += 1;
        let txn = b
            .deadline(SimDuration::from_millis(DEADLINE_MS))
            .speculate_at(SPECULATE_AT)
            .build();
        let gap_s = rng.exponential(RATE_PER_SITE);
        Some((
            txn,
            SimDuration::from_micros((gap_s * 1e6).round().max(1.0) as u64),
        ))
    }
}

/// One complete set-up: build the deployment, write the initial keyspace
/// through the protocol, and warm every site's predictor. Returns the
/// deployment and a digest of everything virtual that happened, which must
/// be the same for the same seed.
fn set_up(seed: u64) -> (Planet, u64) {
    let mut db = Planet::builder()
        .protocol(Protocol::Fast)
        .seed(seed)
        .validation_service(SimDuration::from_micros(VALIDATION_US))
        .admission(AdmissionPolicy {
            min_likelihood: 0.2,
            max_inflight: 4096,
        })
        .build();
    let base = db.now();
    let mut n = 0u64;
    let mut submit = |db: &mut Planet, site: usize, key: Key, value: i64| {
        let txn = PlanetTxn::builder().set(key, value).build();
        // Pipelined 2 ms apart: under the validation capacity, and distinct
        // keys never conflict.
        db.submit_at(site, base + SimDuration::from_millis(1 + 2 * n), txn);
        n += 1;
    };
    for event in 0..EVENTS {
        submit(
            &mut db,
            (event % SITES as u64) as usize,
            stock_key(event),
            STOCK,
        );
    }
    for k in 0..HOT_KEYS {
        submit(&mut db, 0, hot_key(k), 0);
    }
    for i in 0..WARM_PER_SITE {
        for site in 0..SITES {
            submit(
                &mut db,
                site,
                Key::new(format!("warm:{site}:{i}")),
                i as i64,
            );
        }
    }
    db.run_for(SimDuration::from_millis(2 * n + 5_000));
    let mut h = DefaultHasher::new();
    db.now().as_micros().hash(&mut h);
    db.sim_mut().events_processed().hash(&mut h);
    for r in db.all_records() {
        digest_record(r, &mut h);
    }
    (db, h.finish())
}

fn digest_record(r: &TxnRecord, h: &mut impl Hasher) {
    r.handle.site.hash(h);
    r.handle.tag.hash(h);
    r.outcome.is_commit().hash(h);
    r.submitted_at.as_micros().hash(h);
    r.latency.as_micros().hash(h);
    r.speculated_at.map(|d| d.as_micros()).hash(h);
}

fn sample_of(r: &TxnRecord) -> Sample {
    Sample {
        latency_us: r.latency.as_micros().min(u32::MAX as u64 - 1) as u32,
        class: if r.write_keys == 0 {
            Class::Read
        } else {
            Class::Write
        },
        end: match r.outcome {
            FinalOutcome::Committed => End::Committed,
            FinalOutcome::Aborted => End::Aborted,
            FinalOutcome::Rejected | FinalOutcome::Cancelled => End::Refused,
            FinalOutcome::TimedOut => End::Failed,
        },
    }
}

/// Layer figures the traced run reports for `core`, `predict` and `sim`.
#[derive(Debug, Clone, Default)]
pub struct SimLayers {
    /// Median elapsed time at which speculative commits fired, ms.
    pub spec_commit_p50_ms: f64,
    /// Speculated, then aborted / speculated.
    pub apology_ratio: f64,
    /// Refused by admission / attempted.
    pub rejected_ratio: f64,
    /// Undecided at the response deadline / admitted.
    pub deadline_miss_ratio: f64,
    /// Brier score of each writing transaction's first prediction (made
    /// before any vote is in) against its outcome.
    pub brier: f64,
    /// Expected calibration error of the same predictions.
    pub calibration_err: f64,
    /// Simulator events per commit.
    pub events_per_commit: f64,
    /// Simulator events per wall-clock second.
    pub events_per_wall_s: f64,
}

/// What one simulator run measured.
pub struct SimRun {
    /// Slice-median estimates (times are virtual).
    pub phase: PhaseReport,
    /// Every set-up's time.
    pub setups_s: Vec<f64>,
    /// Determinism violations found (set-ups that digested differently, or
    /// a re-run prefix that differed).
    pub wrong: u64,
    /// What the check compared.
    pub checked: String,
    /// Layer figures.
    pub layers: SimLayers,
}

/// Advance `db` until `recorder` has every completion, feeding it the new
/// records after each step (sites in order, so the feed order is a function
/// of the seed). Returns a digest of the first `prefix` records fed and how
/// many records of each site were fed.
fn drive(
    db: &mut Planet,
    recorder: &mut Recorder,
    skip: &[usize],
    prefix: u64,
) -> (u64, Vec<usize>) {
    let mut fed: Vec<usize> = skip.to_vec();
    let mut digested = 0u64;
    let mut h = DefaultHasher::new();
    while !recorder.done() {
        db.run_for(STEP);
        let now_s = db.now().as_micros() as f64 / 1e6;
        for (site, fed_site) in fed.iter_mut().enumerate() {
            let records = db.records(site);
            for r in &records[*fed_site..] {
                if recorder.done() {
                    break;
                }
                if digested < prefix {
                    digest_record(r, &mut h);
                    digested += 1;
                }
                recorder.push(sample_of(r), &mut || Mark::now(now_s));
                *fed_site += 1;
            }
        }
    }
    (h.finish(), fed)
}

fn attach(db: &mut Planet) {
    for site in 0..SITES {
        db.attach_source(
            site,
            Box::new(Mix {
                site: site as u8,
                events: Zipf::new(EVENTS, EVENT_THETA),
                hot: Zipf::new(HOT_KEYS, HOT_THETA),
                issued: 0,
            }),
        );
    }
}

/// Run the workload: `setups` set-ups (the last is kept), then `warmup` +
/// `measured` completions.
pub fn run(seed: u64, warmup: u64, measured: u64, setups: usize) -> SimRun {
    let mut setups_s = Vec::new();
    let mut digests = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        let began = Instant::now();
        let (db, digest) = set_up(seed);
        setups_s.push(began.elapsed().as_secs_f64());
        digests.push(digest);
        kept = Some(db);
    }
    let mut wrong = digests.iter().filter(|d| **d != digests[0]).count() as u64;
    let mut db = kept.expect("at least one set-up");
    let preloaded: Vec<usize> = (0..SITES).map(|s| db.records(s).len()).collect();

    let wall = Instant::now();
    let events_before = db.sim_mut().events_processed();
    attach(&mut db);
    // Same seed twice gives the same virtual history: replay the first
    // eighth on a fresh deployment and compare record for record.
    let prefix = ((warmup + measured) / 8).max(crate::estimators::SLICES as u64);
    let mut recorder = Recorder::new(warmup, measured);
    let (digest, fed) = drive(&mut db, &mut recorder, &preloaded, prefix);
    let wall_s = wall.elapsed().as_secs_f64();
    let events = db.sim_mut().events_processed() - events_before;
    let (mut twin, _) = set_up(seed);
    attach(&mut twin);
    let (twin_digest, _) = drive(&mut twin, &mut Recorder::new(0, prefix), &preloaded, prefix);
    if twin_digest != digest {
        wrong += 1;
    }
    drop(twin);

    let layers = layers(&db, &preloaded, &fed, events, wall_s);
    let phase = recorder.finish();
    SimRun {
        setups_s,
        wrong,
        checked: format!(
            "{setups} set-ups digest alike; the first {prefix} completions replayed on a fresh deployment from seed {seed} digest alike"
        ),
        layers,
        phase,
    }
}

fn layers(db: &Planet, from: &[usize], to: &[usize], events: u64, wall_s: f64) -> SimLayers {
    let mut spec_us: Vec<u64> = Vec::new();
    let (mut speculated, mut apologies) = (0u64, 0u64);
    let (mut attempted, mut rejected, mut admitted, mut late, mut commits) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut calibration = Calibration::new(10);
    for site in 0..SITES {
        for r in &db.records(site)[from[site]..to[site]] {
            attempted += 1;
            if r.outcome == FinalOutcome::Rejected {
                rejected += 1;
                continue;
            }
            admitted += 1;
            if r.outcome.is_commit() {
                commits += 1;
            }
            if let Some(at) = r.speculated_at {
                speculated += 1;
                spec_us.push(at.as_micros());
                if r.apologised() {
                    apologies += 1;
                }
            }
            if r.latency.as_micros() > DEADLINE_MS * 1000 {
                late += 1;
            }
            if r.write_keys > 0 {
                let predicted = r.predictions.first().map(|p| p.likelihood);
                if let Some(p) = predicted {
                    calibration.record(p, r.outcome.is_commit());
                }
            }
        }
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    SimLayers {
        spec_commit_p50_ms: crate::estimators::percentile(&mut spec_us, 0.5)
            .map_or(0.0, |us| us as f64 / 1000.0),
        apology_ratio: ratio(apologies, speculated),
        rejected_ratio: ratio(rejected, attempted),
        deadline_miss_ratio: ratio(late, admitted),
        brier: calibration.brier().unwrap_or(0.0),
        calibration_err: calibration.ece().unwrap_or(0.0),
        events_per_commit: ratio(events, commits),
        events_per_wall_s: events as f64 / wall_s.max(1e-9),
    }
}
