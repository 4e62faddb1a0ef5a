//! Shape tests: every figure/table of the reconstructed evaluation must
//! reproduce the *qualitative* result the paper reports — who wins, by
//! roughly what factor, where the crossovers fall. Run at `Scale::Quick`.

use planet_bench::{run_experiment, Scale, Table, EXPERIMENTS};

fn run(id: &str) -> Table {
    run_experiment(id, Scale::Quick).expect("known experiment id")
}

/// Parse `key=value` out of a table's notes.
fn note_metric(table: &Table, key: &str) -> Option<f64> {
    for note in &table.notes {
        if let Some(pos) = note.find(&format!("{key}=")) {
            let rest = &note[pos + key.len() + 1..];
            let end = rest.find([',', ' ', ')']).unwrap_or(rest.len());
            if let Ok(v) = rest[..end].parse() {
                return Some(v);
            }
        }
    }
    None
}

#[test]
fn every_experiment_id_runs() {
    // Cheap sanity: unknown ids are rejected; the list is the paper's eight
    // figures and three tables, in order, and nothing else.
    assert_eq!(
        EXPERIMENTS,
        [
            "fig1-rtt",
            "fig2-calibration",
            "fig3-progress",
            "fig4-speculation",
            "fig5-latency-cdf",
            "fig6-admission",
            "fig7-spike",
            "fig8-callbacks",
            "tab1-percentiles",
            "tab2-contention",
            "tab3-reads",
        ]
    );
    assert!(run_experiment("nope", Scale::Quick).is_none());
}

#[test]
fn tab3_read_levels_trade_freshness_for_latency() {
    let t = run("tab3-reads");
    // Row 0 = local, row 1 = quorum.
    let local_fresh = t.cell_f64(0, "fresh reads").unwrap();
    let quorum_fresh = t.cell_f64(1, "fresh reads").unwrap();
    assert!(
        local_fresh < 20.0,
        "local reads must be mostly stale in-window: {local_fresh}%"
    );
    assert!(
        quorum_fresh > 90.0,
        "quorum reads must be fresh: {quorum_fresh}%"
    );
    let local_p50 = t.cell_f64(0, "p50 latency").unwrap();
    let quorum_p50 = t.cell_f64(1, "p50 latency").unwrap();
    assert!(local_p50 < 5.0, "local read is intra-site: {local_p50}ms");
    assert!(
        quorum_p50 > 50.0 && quorum_p50 < 250.0,
        "quorum read costs ~1 WAN RTT: {quorum_p50}ms"
    );
}

#[test]
fn fig1_rtt_matches_topology_shape() {
    let t = run("fig1-rtt");
    assert_eq!(t.rows.len(), 5);
    // us-east commits at ~ the RTT to its 4th-closest replica (ap-ne, 170ms).
    let us_east_p50 = t.cell_f64(0, "p50").unwrap();
    assert!(
        (130.0..=220.0).contains(&us_east_p50),
        "us-east p50 {us_east_p50}ms"
    );
    // eu-west is the worst-placed origin (its fast quorum crosses two oceans).
    let eu_west_p50 = t.cell_f64(2, "p50").unwrap();
    let us_west_p50 = t.cell_f64(1, "p50").unwrap();
    assert!(
        eu_west_p50 > us_west_p50,
        "eu {eu_west_p50} vs usw {us_west_p50}"
    );
    // Every p99 ≥ p50.
    for row in 0..5 {
        assert!(t.cell_f64(row, "p99").unwrap() >= t.cell_f64(row, "p50").unwrap());
    }
}

#[test]
fn fig2_prediction_is_calibrated_and_skilled() {
    let t = run("fig2-calibration");
    let skill = note_metric(&t, "skill").expect("skill recorded");
    assert!(
        skill > 0.1,
        "prediction must beat base-rate guessing, skill={skill}"
    );
    let brier = note_metric(&t, "brier").expect("brier recorded");
    assert!(brier < 0.25, "brier {brier} must beat a coin");
    // Reliability: in the lowest bins almost nothing commits; in the highest
    // bins most things do.
    let first_pred = t.cell_f64(0, "mean predicted").unwrap();
    let first_obs = t.cell_f64(0, "observed commit rate").unwrap();
    if first_pred < 0.2 {
        assert!(first_obs < 0.45, "low-predicted bin observed {first_obs}");
    }
    let last = t.rows.len() - 1;
    let last_pred = t.cell_f64(last, "mean predicted").unwrap();
    let last_obs = t.cell_f64(last, "observed commit rate").unwrap();
    if last_pred > 0.8 {
        assert!(last_obs > 0.5, "high-predicted bin observed {last_obs}");
    }
}

#[test]
fn fig3_prediction_sharpens_with_votes() {
    let t = run("fig3-progress");
    assert!(t.rows.len() >= 3);
    let first_brier = t.cell_f64(0, "brier").unwrap();
    let last_brier = t.cell_f64(t.rows.len() - 1, "brier").unwrap();
    assert!(
        last_brier < first_brier * 0.5,
        "late predictions must be much sharper: {first_brier} -> {last_brier}"
    );
    assert!(
        last_brier < 0.02,
        "near-certainty at the end, got {last_brier}"
    );
}

#[test]
fn fig4_speculation_tradeoff() {
    let t = run("fig4-speculation");
    assert_eq!(t.rows.len(), 6);
    let low_tau_apology = t.cell_f64(0, "apology rate").unwrap();
    let high_tau_apology = t.cell_f64(5, "apology rate").unwrap();
    assert!(
        high_tau_apology <= low_tau_apology,
        "raising the threshold must not raise apologies: {low_tau_apology}% -> {high_tau_apology}%"
    );
    for row in 0..6 {
        let spec = t.cell_f64(row, "p50 speculative resp").unwrap();
        let fin = t.cell_f64(row, "p50 final commit").unwrap();
        assert!(
            spec < fin,
            "row {row}: speculative {spec}ms !< final {fin}ms"
        );
    }
}

#[test]
fn fig5_strategy_ordering() {
    let t = run("fig5-latency-cdf");
    let p50 = |row: usize| t.cell_f64(row, "p50").unwrap();
    // Row order: planet-speculative, fast, classic, twopc.
    assert!(p50(0) < p50(1), "speculative {} !< fast {}", p50(0), p50(1));
    assert!(p50(1) < p50(3), "fast {} !< twopc {}", p50(1), p50(3));
    assert!(p50(2) < p50(3), "classic {} !< twopc {}", p50(2), p50(3));
    // Speculation answers at least 3x sooner than the fast final commit.
    assert!(p50(0) * 3.0 < p50(1));
}

#[test]
fn fig6_admission_control_wins_past_the_knee() {
    let t = run("fig6-admission");
    assert_eq!(t.rows.len(), 2, "quick scale brackets the crossover");
    // Below the knee: no-AC is fine (AC may cost a little goodput).
    let low_no_ac = t.cell_f64(0, "goodput (no AC)").unwrap();
    let low_ac = t.cell_f64(0, "goodput (AC)").unwrap();
    assert!(low_ac > low_no_ac * 0.5, "AC shouldn't cripple light load");
    // In the collapse regime: AC must win on goodput AND commit rate.
    let hi_no_ac = t.cell_f64(1, "goodput (no AC)").unwrap();
    let hi_ac = t.cell_f64(1, "goodput (AC)").unwrap();
    assert!(
        hi_ac > hi_no_ac,
        "admission control must win in the collapse regime: {hi_ac} vs {hi_no_ac}"
    );
    let commit_no_ac = t.cell_f64(1, "commit% (no AC)").unwrap();
    let commit_ac = t.cell_f64(1, "commit% (AC)").unwrap();
    assert!(
        commit_ac > commit_no_ac + 10.0,
        "admitted commit% must be much higher"
    );
}

#[test]
fn fig7_spike_blows_up_final_latency_but_not_effective_response() {
    let t = run("fig7-spike");
    let spike_rows: Vec<usize> = (0..t.rows.len())
        .filter(|&r| t.cell(r, "in spike") == Some("*"))
        .collect();
    let calm_rows: Vec<usize> = (0..t.rows.len())
        .filter(|&r| t.cell(r, "in spike") == Some(""))
        .collect();
    assert!(!spike_rows.is_empty() && !calm_rows.is_empty());
    let calm_final = t.cell_f64(calm_rows[0], "p95 final").unwrap();
    let spike_final = t.cell_f64(spike_rows[0], "p95 final").unwrap();
    assert!(
        spike_final > calm_final * 2.0,
        "the spike must be visible in final latency: {calm_final} -> {spike_final}"
    );
    for &r in &spike_rows {
        let eff = t.cell_f64(r, "p95 effective resp").unwrap();
        assert!(
            eff <= 401.0,
            "effective response must stay bounded by the 400ms deadline, got {eff}ms"
        );
    }
}

#[test]
fn fig8_confidence_levels_resolve_in_order() {
    let t = run("fig8-callbacks");
    let mut prev = -1.0;
    for row in 0..t.rows.len() {
        let time_to_x = t.cell_f64(row, "median time-to-X").unwrap();
        assert!(
            time_to_x + 1e-9 >= prev,
            "time to higher confidence must not decrease: row {row}"
        );
        prev = time_to_x;
    }
    // Low confidence is known essentially immediately; it saves nearly the
    // whole commit latency.
    let t50 = t.cell_f64(0, "median time-to-X").unwrap();
    let final50 = t.cell_f64(0, "median final commit").unwrap();
    assert!(t50 * 20.0 < final50, "{t50}ms vs final {final50}ms");
}

#[test]
fn tab1_twopc_slowest_everywhere() {
    let t = run("tab1-percentiles");
    assert_eq!(t.rows.len(), 15);
    // Rows 0..5 fast, 5..10 classic, 10..15 twopc, same origin order.
    for origin in 0..5 {
        let fast = t.cell_f64(origin, "p50").unwrap();
        let twopc = t.cell_f64(origin + 10, "p50").unwrap();
        assert!(
            twopc > fast,
            "origin {origin}: twopc {twopc} !> fast {fast}"
        );
    }
}

#[test]
fn tab2_commutative_tolerates_contention() {
    let t = run("tab2-contention");
    // Rows: 0 fast+physical, 1 fast+fallback+physical, 2 fast+commutative,
    //       3 classic+physical, 4 classic+commutative, 5 twopc+physical.
    let rate = |row: usize| t.cell_f64(row, "commit rate").unwrap();
    // Commutative ≫ physical on both MDCC paths.
    assert!(rate(2) > rate(0) + 30.0, "fast: {} vs {}", rate(2), rate(0));
    assert!(
        rate(4) > rate(3) + 30.0,
        "classic: {} vs {}",
        rate(4),
        rate(3)
    );
    // Commutative commits nearly everything.
    assert!(rate(2) > 90.0);
    // The collision fallback lifts the fast path's physical commit rate.
    assert!(rate(1) > rate(0), "fallback: {} !> {}", rate(1), rate(0));
    // Goodput follows the commit rates.
    let good = |row: usize| t.cell_f64(row, "goodput").unwrap();
    assert!(good(2) > good(0) * 1.5);
}
