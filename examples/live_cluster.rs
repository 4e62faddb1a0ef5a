//! A real, concurrent PLANET cluster — no simulation anywhere.
//!
//! Run with: `cargo run --release --example live_cluster`
//!
//! The other examples run the deterministic simulation; this one spins up a
//! genuinely concurrent deployment: every replica, coordinator and client
//! from `planet-cluster` runs as a task on the reactor's worker threads,
//! exchanging the real protocol messages through the in-process transport
//! while a network model shapes deliveries — here, a three-site WAN with
//! 60 ms cross-site RTT. The PLANET programming model is unchanged: the same
//! progress callbacks, likelihoods and speculative commits, now driven by
//! real time.

use std::time::{Duration, Instant};

use planet_core::{LivePlanet, PlanetTxn, TxnEvent};
use planet_sim::NetworkModel;

fn main() {
    // A three-continent topology: 60 ms RTT between any two sites.
    let rtt = vec![
        vec![0.5, 60.0, 60.0],
        vec![60.0, 0.5, 60.0],
        vec![60.0, 60.0, 0.5],
    ];
    println!("spawning a 3-site live cluster (every actor a reactor task)…");
    let mut db = LivePlanet::builder()
        .topology(NetworkModel::from_rtt_ms(&rtt))
        .seed(99)
        .build();

    // Warm the likelihood model with a few easy commits.
    for i in 0..5u64 {
        let warm = db.submit(
            0,
            PlanetTxn::builder()
                .set(format!("warm:{i}"), i as i64)
                .build(),
        );
        loop {
            match db.events().recv_timeout(Duration::from_secs(10)) {
                Ok(TxnEvent::Final { handle, .. }) if handle == warm => break,
                Ok(_) => {}
                Err(_) => return println!("cluster did not respond"),
            }
        }
    }

    println!("\nsubmitting a geo-replicated write (60ms RTT — watch the wall clock)…");
    let started = Instant::now();
    let txn = PlanetTxn::builder()
        .set("demo:key", 1i64)
        .speculate_at(0.95)
        .build();
    let handle = db.submit(0, txn);

    loop {
        match db.events().recv_timeout(Duration::from_secs(10)) {
            Ok(event) if event.handle() == handle => {
                let wall = started.elapsed().as_millis();
                match &event {
                    TxnEvent::Progress {
                        stage, likelihood, ..
                    } => {
                        println!("  [{wall:>4}ms wall] {stage:?}: p = {likelihood:.3}");
                    }
                    TxnEvent::Speculative { likelihood, .. } => {
                        println!("  [{wall:>4}ms wall] ✦ speculative commit (p = {likelihood:.3})");
                    }
                    TxnEvent::Final {
                        outcome, latency, ..
                    } => {
                        println!("  [{wall:>4}ms wall] ✔ final outcome: {outcome:?} ({latency} end-to-end)");
                        break;
                    }
                    other => println!("  [{wall:>4}ms wall] {other:?}"),
                }
            }
            Ok(_) => {}
            Err(_) => {
                println!("  (timed out waiting for events)");
                break;
            }
        }
    }

    let harvest = db.shutdown();
    println!(
        "\nlive cluster processed {} transactions; {} messages shaped away by the network model",
        harvest.all_records().len(),
        harvest.dropped()
    );
}
