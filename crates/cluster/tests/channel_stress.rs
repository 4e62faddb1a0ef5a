//! Concurrency stress for the direct [`ChannelTransport`]: many sender
//! threads hammer the same transport while receivers drain their mailboxes.
//! Asserts that nothing is lost and that per-(sender, receiver) FIFO order
//! survives, for single sends and for coalesced [`Transport::send_many`]
//! batches. The same rig runs through a network model in
//! `fabric_delivery.rs`.
//!
//! This test is a workload for the ThreadSanitizer CI job: the interesting
//! property is not just the counts but that tsan observes the route table
//! and the bounded-mailbox gate under real contention.
//!
//! [`Transport::send_many`]: planet_cluster::transport::Transport::send_many

mod common;

use std::sync::Arc;

use planet_cluster::node::Clock;
use planet_cluster::ChannelTransport;

use common::run_stress;

#[test]
fn direct_transport_concurrent_senders() {
    let transport = ChannelTransport::direct(Clock::new());
    run_stress(Arc::clone(&transport), 1);
    assert_eq!(transport.dropped(), 0);
}

#[test]
fn direct_transport_batched_senders() {
    let transport = ChannelTransport::direct(Clock::new());
    run_stress(Arc::clone(&transport), 32);
    assert_eq!(transport.dropped(), 0);
}
