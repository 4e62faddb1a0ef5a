//! Assembles the per-layer record of a traced run: counters harvested from
//! the cluster, the spans of every completion, and the replay probes.

use planet_cluster::Envelope;
use planet_mdcc::{ReadLevel, TxnSpec};
use planet_plan::PlanParam;
use planet_sim::Metrics;
use planet_storage::{Key, Value, WriteOp};
use planet_workload::{stock_key, ticket_program};

use crate::cluster::{cluster_config, lan, node_of, replica, TransportKind, SITES};
use crate::estimators::{median, percentile, variance_shares};
use crate::generator::{PLAN_LOOKUP, PLAN_PURCHASE};
use crate::live::{kv_key, lookup_program, preload_specs, ticket_config, LiveRun, Traffic};
use crate::probes::{self, Submission};
use crate::report::{zeros, Values, PER_LAYER};
use crate::script::{kv_script, ticket_script, Op};
use crate::simgeo::SimLayers;

/// Transactions replayed by the single-threaded protocol loop.
const DRIVE_OPS: usize = 20_000;

/// Approximate variance of a log-bucketed histogram, by walking its
/// quantile function; good to the bucket width.
fn histogram_variance(metrics: &Metrics, name: &str) -> f64 {
    let Some(h) = metrics.get_histogram(name) else {
        return 0.0;
    };
    let Some(mean) = h.mean() else {
        return 0.0;
    };
    const GRID: usize = 400;
    (0..GRID)
        .map(|i| {
            let q = (i as f64 + 0.5) / GRID as f64;
            let v = h.quantile(q).unwrap_or(0) as f64;
            (v - mean) * (v - mean) / GRID as f64
        })
        .sum()
}

fn quantile(metrics: &Metrics, name: &str, q: f64) -> f64 {
    metrics
        .get_histogram(name)
        .and_then(|h| h.quantile(q))
        .unwrap_or(0) as f64
}

fn is_remote(env: &Envelope) -> bool {
    node_of(env.from) != node_of(env.to)
}

/// The client's and the process's figures of the measured phase that are
/// not end-to-end metrics, on either engine.
fn phase_figures(v: &mut Values, p: &crate::measure::PhaseReport) {
    v.insert("client.commit_p95_ms", p.commit_p95_ms);
    v.insert("client.read_p50_ms", p.read_p50_ms);
    v.insert("client.commit_p99_ms", p.commit_p99_ms);
    v.insert("client.goodput_total_ops_s", p.goodput_total_ops_s);
    v.insert("client.slice_iqr_ratio", p.slice_iqr_ratio);
    v.insert("client.timeouts", p.counts.failed as f64);
    v.insert("proc.cpu_us_per_commit", p.cpu_us_per_commit);
    v.insert("proc.peak_rss_mb", crate::procstat::peak_rss_mb());
    v.insert("proc.ctx_switches_per_commit", p.ctx_switches_per_commit);
}

/// The layer record of a live traced run.
pub fn live_layers(run: &LiveRun, kind: TransportKind, traffic: Traffic, seed: u64) -> Values {
    let mut v = zeros(PER_LAYER);
    let p = &run.phase;
    let commits = p.counts.committed.max(1) as f64;
    let lifetime = run.lifetime_commits.max(1) as f64;
    let metrics = &run.harvest.merged_metrics();
    let c = &run.counters;

    // --- counters over the measured phase ---------------------------------
    v.insert(
        "reactor.busy_ratio",
        c.busy_us as f64 / (c.busy_us + c.idle_us).max(1) as f64,
    );
    v.insert("reactor.drives_per_commit", c.drives as f64 / commits);
    v.insert("reactor.parks_per_commit", c.parks as f64 / commits);
    v.insert(
        "reactor.steals_per_kcommit",
        c.steals as f64 * 1000.0 / commits,
    );
    phase_figures(&mut v, p);
    v.insert("proc.threads", run.threads as f64);
    v.insert("channel.dropped", run.harvest.dropped as f64);
    v.insert("plane.shed", run.harvest.shed as f64);

    // --- the tracer's span around Transport::send_many ----------------------
    // It was on for the odd slices only; its counts are per commit of those.
    let (mut on, mut off, mut traced_commits) = (Vec::new(), Vec::new(), 0.0);
    for (i, &traced) in run.traced_slices.iter().enumerate() {
        if traced {
            on.push(p.slice_goodput[i]);
            traced_commits += p.slice_commits[i] as f64;
        } else {
            off.push(p.slice_goodput[i]);
        }
    }
    let traced_commits = traced_commits.max(1.0);
    let (envelopes, remote, send_ns) = run.tracer_totals;
    v.insert("mdcc.msgs_per_commit", envelopes as f64 / traced_commits);
    if let (Some(on), Some(off)) = (median(&on), median(&off)) {
        v.insert("trace.overhead_ratio", on / off.max(1e-9));
    }
    let transport_ns_per_msg = send_ns as f64 / envelopes.max(1) as f64;

    // --- histograms the program keeps itself (log-bucketed, ~3 %) ---------
    v.insert("plane.batch_p50", quantile(metrics, "plane.batch", 0.5));
    v.insert(
        "plane.mailbox_depth_p95",
        quantile(metrics, "plane.mailbox.depth", 0.95),
    );
    v.insert("span.queue_p50_us", quantile(metrics, "span.queue_us", 0.5));
    v.insert(
        "span.queue_p95_us",
        quantile(metrics, "span.queue_us", 0.95),
    );
    v.insert("span.wal_p50_us", quantile(metrics, "span.wal_us", 0.5));
    v.insert(
        "mdcc.fast_fallbacks_per_kcommit",
        metrics.counter_value("txn.fast_fallbacks") as f64 * 1000.0 / lifetime,
    );
    v.insert(
        "plan.fallback_interpreted",
        metrics.counter_value("plan.fallback_interpreted") as f64,
    );
    v.insert(
        "wal.checkpoints",
        metrics.counter_value("replica.checkpoints") as f64,
    );

    // --- storage, from the harvested replicas --------------------------------
    let wal_records: u64 = (0..SITES)
        .map(|s| replica(&run.harvest, s).storage().wal().next_lsn())
        .sum();
    v.insert("wal.records_per_commit", wal_records as f64 / lifetime);
    v.insert(
        "store.keys_end",
        replica(&run.harvest, 0).storage().store().len() as f64,
    );

    // --- spans of every measured completion (exact) --------------------------
    let writes: Vec<_> = run
        .spans
        .iter()
        .filter(|d| d.sample.class == crate::measure::Class::Write)
        .filter(|d| d.sample.end == crate::measure::End::Committed)
        .collect();
    let total: Vec<f64> = writes.iter().map(|d| d.sample.latency_us as f64).collect();
    let quorum: Vec<f64> = writes.iter().map(|d| d.quorum_wait_us as f64).collect();
    // The coordinator's hold before its proposals leave: the read round
    // through the local replica's mailbox — queueing, at saturation.
    let hold: Vec<f64> = writes
        .iter()
        .map(|d| d.server_us.saturating_sub(d.quorum_wait_us) as f64)
        .collect();
    let network: Vec<f64> = writes
        .iter()
        .map(|d| {
            d.sample
                .latency_us
                .saturating_sub(d.server_us)
                .saturating_sub(d.late_us) as f64
        })
        .collect();
    // Open loop: the generator's own lateness is the fourth part of a
    // latency counted from the due time; it is reported, not shared out.
    let exact = |xs: &[f64], q: f64| {
        let mut us: Vec<u64> = xs.iter().map(|x| *x as u64).collect();
        percentile(&mut us, q).unwrap_or(0) as f64
    };
    v.insert("span.quorum_wait_p50_us", exact(&quorum, 0.5));
    v.insert("span.quorum_wait_p95_us", exact(&quorum, 0.95));
    v.insert("span.network_p50_us", exact(&network, 0.5));
    let shares = variance_shares(&[&hold, &quorum, &network], &total);
    v.insert("span.queue_var_share", shares[0]);
    v.insert("span.quorum_wait_var_share", shares[1]);
    v.insert("span.network_var_share", shares[2]);
    // The WAL span is a child of the quorum wait (a vote waits for its
    // replica's validate-and-append); only its distribution is known, so
    // its share is its variance over the total's, as if independent.
    let mean = total.iter().sum::<f64>() / total.len().max(1) as f64;
    let var_total: f64 =
        total.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / total.len().max(1) as f64;
    if var_total > 0.0 {
        v.insert(
            "span.wal_var_share",
            histogram_variance(metrics, "span.wal_us") / var_total,
        );
    }
    let mut late: Vec<u32> = run.spans.iter().map(|d| d.late_us).collect();
    v.insert(
        "client.late_p95_ms",
        percentile(&mut late, 0.95).unwrap_or(0) as f64 / 1000.0,
    );

    // --- replay probes, on the now idle process -------------------------------
    let plane = run.plane;
    v.insert("reactor.wake_rtt_us", probes::reactor_wake_rtt_us(&plane));
    let mut decode_ns = 0.0;
    match kind {
        TransportKind::Channel => {
            v.insert(
                "channel.send_ns_per_msg",
                probes::channel_send_ns(&plane, lan()),
            );
        }
        TransportKind::Tcp => {
            let wired: Vec<Envelope> = run
                .sampled
                .iter()
                .filter(|e| is_remote(e))
                .cloned()
                .collect();
            let (encode, decode) = probes::wire_codec(&wired);
            decode_ns = decode;
            v.insert("wire.encode_ns_per_msg", encode);
            v.insert("wire.decode_ns_per_msg", decode);
            let msgs_per_commit = remote as f64 / traced_commits;
            let bytes_per_commit = c.bytes as f64 / commits;
            v.insert("wire.msgs_per_commit", msgs_per_commit);
            v.insert("wire.bytes_per_commit", bytes_per_commit);
            v.insert(
                "wire.bytes_per_msg",
                bytes_per_commit / msgs_per_commit.max(1e-9),
            );
            v.insert("tcp.flushes_per_commit", c.flushes as f64 / commits);
            v.insert(
                "tcp.bytes_per_flush",
                c.bytes as f64 / c.flushes.max(1) as f64,
            );
            v.insert(
                "tcp.loopback_rtt_us",
                probes::tcp_loopback_rtt_us(plane.mailbox_capacity),
            );
        }
    }

    // The protocol with no runtime, and the storage calls under it, replay
    // the head of site 0's own script.
    let config = cluster_config();
    let (drive, storage) = match traffic {
        Traffic::Ticket => {
            let program = ticket_program(&ticket_config(), 0);
            let script = ticket_script(seed, 0, DRIVE_OPS);
            let mut params = Vec::new();
            let mut writes = Vec::new();
            let work: Vec<Submission> = script
                .ops
                .iter()
                .enumerate()
                .map(|(i, op)| match *op {
                    Op::Purchase(event) => {
                        let p = vec![
                            PlanParam::Key(event),
                            PlanParam::Int(i as i64),
                            PlanParam::Int(event as i64),
                        ];
                        params.push(p.clone());
                        writes.push((stock_key(event as u64), WriteOp::add_with_floor(-1, 0)));
                        writes.push((
                            Key::new(format!("order:0:{i}")),
                            WriteOp::Set(Value::Int(event as i64)),
                        ));
                        Submission::Plan(PLAN_PURCHASE, p)
                    }
                    Op::Lookup(event) => Submission::Plan(PLAN_LOOKUP, vec![PlanParam::Key(event)]),
                    _ => unreachable!("ticket scripts hold ticket operations"),
                })
                .collect();
            let (compile_us, instantiate_ns) = probes::plan_costs(&program, &config, &params);
            v.insert("plan.compile_us", compile_us);
            v.insert("plan.instantiate_ns", instantiate_ns);
            let plans = [(PLAN_PURCHASE, program), (PLAN_LOOKUP, lookup_program())];
            let drive = probes::drive_loop(&config, &plans, preload_specs(traffic), work);
            v.insert("coordinator.plan_step_ns", drive.coordinator_step_ns);
            (drive, probes::storage_costs(&writes))
        }
        Traffic::KeyValue => {
            let script = kv_script(seed, 0, DRIVE_OPS, 3000.0);
            let mut writes = Vec::new();
            let work: Vec<Submission> = script
                .ops
                .iter()
                .map(|op| match *op {
                    Op::KvRead(a, b) => {
                        Submission::Spec(TxnSpec::read_only([kv_key(a as u64), kv_key(b as u64)]))
                    }
                    Op::KvRmw(a, b) => {
                        let (ka, kb) = (kv_key(a as u64), kv_key(b as u64));
                        writes.push((ka.clone(), WriteOp::add(1)));
                        writes.push((kb.clone(), WriteOp::add(1)));
                        Submission::Spec(TxnSpec {
                            reads: vec![ka.clone(), kb.clone()],
                            writes: vec![(ka, WriteOp::add(1)), (kb, WriteOp::add(1))],
                            read_level: ReadLevel::Local,
                        })
                    }
                    _ => unreachable!("kv scripts hold kv operations"),
                })
                .collect();
            let drive = probes::drive_loop(&config, &[], preload_specs(traffic), work);
            v.insert("coordinator.spec_step_ns", drive.coordinator_step_ns);
            (drive, probes::storage_costs(&writes))
        }
    };
    v.insert("replica.step_ns", drive.replica_step_ns);
    v.insert("mdcc.drive_commits_per_s", drive.commits_per_s);
    v.insert("store.read_ns", storage.read_ns);
    v.insert("store.accept_ns", storage.accept_ns);
    v.insert("store.decide_ns", storage.decide_ns);
    v.insert("wal.append_ns", storage.wal_append_ns);

    // --- the ledger -------------------------------------------------------------
    // Σ per-call cost × calls per commit, against the CPU a commit costs.
    // Storage is inside the replica step and encoding inside the transport
    // send, so neither is added again; decoding happens on reader threads
    // and is.
    let msgs_per_commit = envelopes as f64 / traced_commits;
    let ledger_ns = drive.coordinator_steps_per_commit * drive.coordinator_step_ns
        + drive.replica_steps_per_commit * drive.replica_step_ns
        + msgs_per_commit * transport_ns_per_msg
        + (remote as f64 / traced_commits) * decode_ns;
    v.insert(
        "ledger.cpu_accounted_ratio",
        ledger_ns / 1000.0 / p.cpu_us_per_commit.max(1e-9),
    );
    v
}

/// The layer record of a simulator traced run.
pub fn sim_layers(layers: &SimLayers, phase: &crate::measure::PhaseReport) -> Values {
    let mut v = zeros(PER_LAYER);
    v.insert("core.spec_commit_p50_ms", layers.spec_commit_p50_ms);
    v.insert("core.apology_ratio", layers.apology_ratio);
    v.insert("core.rejected_ratio", layers.rejected_ratio);
    v.insert("core.deadline_miss_ratio", layers.deadline_miss_ratio);
    v.insert("predict.brier", layers.brier);
    v.insert("predict.calibration_err", layers.calibration_err);
    v.insert("predict.update_ns", probes::predict_update_ns(5));
    v.insert("sim.events_per_commit", layers.events_per_commit);
    v.insert("sim.events_per_wall_s", layers.events_per_wall_s);
    phase_figures(&mut v, phase);
    v.insert("proc.threads", crate::procstat::snapshot().threads as f64);
    // The simulator has no tracer: the traced run differs from the untraced
    // one only in what it prints.
    v.insert("trace.overhead_ratio", 1.0);
    // One thread does everything: the wall time of a commit's events
    // against the CPU time of a commit.
    v.insert(
        "ledger.cpu_accounted_ratio",
        layers.events_per_commit / layers.events_per_wall_s.max(1e-9) * 1e6
            / phase.cpu_us_per_commit.max(1e-9),
    );
    v
}
