//! The ticket-sales workload — PLANET's motivating use case.
//!
//! A user buys tickets for a (possibly very hot) event: the transaction
//! reads the event record, decrements its remaining-stock counter with a
//! floor of zero (a commutative, demarcation-bounded write), and inserts a
//! unique order record (a physical write that never conflicts). Popularity
//! across events is Zipfian — a flash-sale event absorbs most purchases —
//! and purchases speculate: the storefront shows "you got it!" as soon as
//! the likelihood crosses the configured threshold.

use planet_core::{Planet, PlanetTxn, SimTime, TxnSource};
use planet_sim::{DetRng, SimDuration};
use planet_storage::{Key, Value, WriteOp};

use crate::arrival::Arrival;
use crate::keyspace::{KeyChooser, KeyDistribution};

/// Configuration for [`TicketWorkload`].
#[derive(Debug, Clone)]
pub struct TicketConfig {
    /// Number of events on sale.
    pub events: u64,
    /// Zipf skew of event popularity.
    pub theta: f64,
    /// Initial stock per event.
    pub initial_stock: i64,
    /// Tickets bought per purchase.
    pub tickets_per_purchase: i64,
    /// Arrival process of purchases at this site.
    pub arrival: Arrival,
    /// Speculation threshold for the storefront (None = no speculation).
    pub speculate_at: Option<f64>,
    /// Storefront response deadline.
    pub deadline: Option<SimDuration>,
    /// Stop after this many purchases (`None` = unbounded).
    pub limit: Option<u64>,
}

impl Default for TicketConfig {
    fn default() -> Self {
        TicketConfig {
            events: 100,
            theta: 0.9,
            initial_stock: 1_000,
            tickets_per_purchase: 1,
            arrival: Arrival::poisson(20.0),
            speculate_at: Some(0.95),
            deadline: Some(SimDuration::from_millis(300)),
            limit: None,
        }
    }
}

/// The key of an event's stock record.
pub fn stock_key(event: u64) -> Key {
    Key::from_fmt(format_args!("event:{event}:stock"))
}

/// Preload event stock into a deployment (run before attaching workloads).
/// Submits one seeding transaction per event from site 0 and runs the
/// simulation until they are durable.
pub fn preload_events(db: &mut Planet, config: &TicketConfig) {
    let base = db.now();
    for event in 0..config.events {
        let txn = PlanetTxn::builder()
            .set(stock_key(event), Value::Int(config.initial_stock))
            .build();
        // Pipeline the seeding writes; distinct keys never conflict.
        db.submit_at(0, base + SimDuration::from_micros(event * 500), txn);
    }
    db.run_for(SimDuration::from_secs(config.events / 100 + 5));
}

/// The ticket-purchase transaction source for one site.
pub struct TicketWorkload {
    config: TicketConfig,
    events: KeyChooser,
    site: u8,
    issued: u64,
}

impl TicketWorkload {
    /// A purchase stream for `site` (used to make order keys unique).
    pub fn new(config: TicketConfig, site: u8) -> Self {
        let events = KeyChooser::new(
            "event",
            KeyDistribution::Zipfian {
                n: config.events,
                theta: config.theta,
            },
        );
        TicketWorkload {
            config,
            events,
            site,
            issued: 0,
        }
    }

    /// Purchases issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn purchase(&mut self, rng: &mut DetRng) -> PlanetTxn {
        let event = self.events.sample_index(rng);
        let order_key = Key::from_fmt(format_args!("order:{}:{}", self.site, self.issued));
        let mut b = PlanetTxn::builder()
            .read(stock_key(event))
            .write(
                stock_key(event),
                WriteOp::add_with_floor(-self.config.tickets_per_purchase, 0),
            )
            .write(order_key, WriteOp::Set(Value::Int(event as i64)));
        if let Some(d) = self.config.deadline {
            b = b.deadline(d);
        }
        if let Some(t) = self.config.speculate_at {
            b = b.speculate_at(t);
        }
        b.build()
    }
}

impl TxnSource for TicketWorkload {
    fn next_txn(&mut self, _now: SimTime, rng: &mut DetRng) -> Option<(PlanetTxn, SimDuration)> {
        if let Some(limit) = self.config.limit {
            if self.issued >= limit {
                return None;
            }
        }
        let txn = self.purchase(rng);
        self.issued += 1;
        let gap = self.config.arrival.next_gap(rng);
        Some((txn, gap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn purchase_reads_stock_and_writes_two_keys() {
        let mut w = TicketWorkload::new(TicketConfig::default(), 3);
        let mut rng = DetRng::new(1);
        let (txn, _) = w.next_txn(SimTime::ZERO, &mut rng).unwrap();
        assert_eq!(txn.spec.reads.len(), 1);
        assert_eq!(txn.spec.writes.len(), 2);
        // First write is a bounded decrement on a stock key.
        let (key, op) = &txn.spec.writes[0];
        assert!(key.as_str().starts_with("event:"));
        assert!(matches!(
            op,
            WriteOp::Add {
                delta: -1,
                lower: Some(0),
                ..
            }
        ));
        // Second write is the unique order insert.
        let (okey, oop) = &txn.spec.writes[1];
        assert_eq!(okey.as_str(), "order:3:0");
        assert!(matches!(oop, WriteOp::Set(_)));
    }

    #[test]
    fn order_keys_are_unique_per_purchase() {
        let mut w = TicketWorkload::new(TicketConfig::default(), 1);
        let mut rng = DetRng::new(2);
        let (a, _) = w.next_txn(SimTime::ZERO, &mut rng).unwrap();
        let (b, _) = w.next_txn(SimTime::ZERO, &mut rng).unwrap();
        assert_ne!(a.spec.writes[1].0, b.spec.writes[1].0);
    }

    #[test]
    fn limit_is_respected() {
        let cfg = TicketConfig {
            limit: Some(2),
            ..Default::default()
        };
        let mut w = TicketWorkload::new(cfg, 0);
        let mut rng = DetRng::new(3);
        assert!(w.next_txn(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next_txn(SimTime::ZERO, &mut rng).is_some());
        assert!(w.next_txn(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn popularity_is_skewed() {
        let cfg = TicketConfig {
            events: 50,
            theta: 0.95,
            ..Default::default()
        };
        let mut w = TicketWorkload::new(cfg, 0);
        let mut rng = DetRng::new(4);
        let mut head = 0;
        for _ in 0..2000 {
            let (txn, _) = w.next_txn(SimTime::ZERO, &mut rng).unwrap();
            let stock = &txn.spec.writes[0].0;
            let idx: u64 = stock.as_str().split(':').nth(1).unwrap().parse().unwrap();
            if idx < 3 {
                head += 1;
            }
        }
        assert!(head > 700, "top-3 events drew {head}/2000");
    }
}
