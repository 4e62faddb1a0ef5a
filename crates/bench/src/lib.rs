//! # planet-bench
//!
//! The experiment harness of the PLANET reproduction: one runner per figure
//! and table of the (reconstructed) evaluation — see DESIGN.md for the
//! experiment index and EXPERIMENTS.md for recorded results. Each runner is
//! an ordinary function returning a [`Table`], so the integration tests can
//! assert the *shape* of every figure, and the `experiments` binary prints
//! them.

#![warn(missing_docs)]

pub mod alloc_counter;
pub mod common;
mod exp_admission;
mod exp_latency;
mod exp_prediction;
mod exp_reads;
mod exp_speculation;
mod exp_spike;
pub mod report;
pub mod timing;

/// Every allocation in this crate's binaries and tests goes through the
/// counting allocator so experiments can report allocs-per-transaction.
#[global_allocator]
static COUNTING_ALLOCATOR: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

pub use common::Scale;
pub use report::Table;

/// All experiment ids in presentation order: the paper's eight figures and
/// three tables, and nothing else.
pub const EXPERIMENTS: &[&str] = &[
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
];

/// Run one experiment by id.
pub fn run_experiment(id: &str, scale: Scale) -> Option<Table> {
    Some(match id {
        "fig1-rtt" => exp_latency::fig1_rtt(scale),
        "fig2-calibration" => exp_prediction::fig2_calibration(scale),
        "fig3-progress" => exp_prediction::fig3_progress(scale),
        "fig4-speculation" => exp_speculation::fig4_speculation(scale),
        "fig5-latency-cdf" => exp_latency::fig5_latency_cdf(scale),
        "fig6-admission" => exp_admission::fig6_admission(scale),
        "fig7-spike" => exp_spike::fig7_spike(scale),
        "fig8-callbacks" => exp_latency::fig8_callbacks(scale),
        "tab1-percentiles" => exp_latency::tab1_percentiles(scale),
        "tab2-contention" => exp_admission::tab2_contention(scale),
        "tab3-reads" => exp_reads::tab3_reads(scale),
        _ => return None,
    })
}
