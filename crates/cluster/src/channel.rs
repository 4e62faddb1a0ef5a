//! In-process transport: mailboxes wired through a delay-injecting fabric.
//!
//! [`ChannelTransport`] routes [`Envelope`]s between node mailboxes in one
//! process. With no network model attached it delivers immediately (useful
//! for tests); with a [`NetworkModel`] every send samples the exact same
//! delay/loss/partition model the deterministic simulator uses — base-delay
//! matrix, log-normal jitter, heavy tails, scheduled spikes and partitions
//! — and enqueues the envelope in its destination mailbox at once, stamped
//! with its sampled delivery instant. One configuration therefore shapes
//! both worlds: a `NetworkModel` built for a simulation drops into a live
//! cluster unchanged, with [`SimTime`] re-read as microseconds since cluster
//! start.
//!
//! The fabric has no thread. A send runs on the sending thread (for a
//! cluster, the reactor worker flushing a task's outbox) under one lock:
//! route lookup, the delay sample, and the per-(src, dst) FIFO clamp — a
//! message is never stamped earlier than one sent before it on the same
//! directed pair, as the engine orders them too — and the enqueue itself.
//! A mailbox stamp means "deliverable at": the reactor holds a packet that
//! is not due yet and drives it at most [`PlaneConfig::fabric_slack_us`]
//! early (see the reactor), and a bare receive never hands it out early.
//! Consecutive envelopes of a batch that share a mailbox go in as one run,
//! under one mailbox lock and with one wake.
//!
//! Backpressure and shedding: destination mailboxes are bounded
//! ([`PlaneConfig::mailbox_capacity`]), and a send here never blocks, so no
//! reactor worker can wedge on a full mailbox. Protocol traffic goes past
//! the bound — loss is confined to the network model, never to queueing —
//! and a client submission (`Msg::Submit` or `Msg::SubmitPlan`, told apart
//! from protocol traffic by `Msg::submission`) is *shed* at it: bounced
//! straight back to its `reply_to` as a `TxnDone { outcome: TimedOut }`, so
//! an overdriven coordinator pushes load back to clients (who count it like
//! any other timeout) instead of queueing without limit.
//! [`ChannelTransport::shed`] counts the bounces.
//!
//! [`SimTime`]: planet_sim::SimTime
//! [`PlaneConfig::fabric_slack_us`]: crate::plane::PlaneConfig::fabric_slack_us
//! [`PlaneConfig::mailbox_capacity`]: crate::plane::PlaneConfig::mailbox_capacity

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use planet_sim::{DetRng, NetworkModel, SimDuration, SimTime, SiteId};

use crate::node::{Clock, Packet};
use crate::plane::{MailboxSender, Run, TrySendError};
use crate::transport::{shed_bounce, Envelope, Transport};

/// Actor ids at or above this are not routable: the route table is dense
/// (ids are small and numbered from 0 by the cluster), and one stray large
/// id must not size it.
const MAX_ROUTED_ID: u32 = 1 << 20;

struct Route {
    site: SiteId,
    mailbox: MailboxSender,
}

/// Everything a send reads and writes, behind the transport's one lock.
struct Fabric {
    /// Actor id → its site and mailbox.
    routes: Vec<Option<Route>>,
    /// Jitter and loss sampler.
    rng: DetRng,
    /// `last_due[src][dst]`: the latest instant stamped on the directed
    /// pair, which the next send on it must follow.
    last_due: Vec<Vec<SimTime>>,
}

/// Stamp `at` for the directed pair `src → dst`: strictly after the last
/// instant stamped on it.
fn fifo_clamp(last_due: &mut Vec<Vec<SimTime>>, src: u32, dst: u32, at: SimTime) -> SimTime {
    let (src, dst) = (src as usize, dst as usize);
    if last_due.len() <= src {
        last_due.resize_with(src + 1, Vec::new);
    }
    let Some(row) = last_due.get_mut(src) else {
        return at;
    };
    if row.len() <= dst {
        row.resize(dst + 1, SimTime::ZERO);
    }
    let Some(last) = row.get_mut(dst) else {
        return at;
    };
    let at = if at <= *last {
        *last + SimDuration::from_micros(1)
    } else {
        at
    };
    *last = at;
    at
}

/// The in-process transport.
pub struct ChannelTransport {
    clock: Clock,
    /// The delay model; `None` delivers at once.
    net: Option<NetworkModel>,
    fabric: Mutex<Fabric>,
    // Loss accounting only — never synchronizes. check:allow(atomics)
    dropped: AtomicU64,
    shed: AtomicU64, // check:allow(atomics)
}

impl ChannelTransport {
    fn new(clock: Clock, net: Option<NetworkModel>, seed: u64) -> Arc<Self> {
        Arc::new(ChannelTransport {
            clock,
            net,
            fabric: Mutex::new(Fabric {
                routes: Vec::new(),
                rng: DetRng::new(seed ^ 0xFAB0_5EED_0000_0001),
                last_due: Vec::new(),
            }),
            dropped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        })
    }

    /// A transport that delivers instantly (no delay model). `clock` should
    /// be the same clock the nodes run on.
    pub fn direct(clock: Clock) -> Arc<Self> {
        Self::new(clock, None, 0)
    }

    /// A transport whose deliveries are shaped by `net`: each send is
    /// stamped with a sampled delay (or dropped, per the model's loss and
    /// partition rules) and enqueued in the destination mailbox at once, to
    /// be delivered at its instant (see the module docs). `seed` feeds the
    /// deterministic jitter sampler.
    ///
    /// `shards` and `slack_us` are ignored: there are no fabric threads to
    /// shard over, and the delivery slack is the reactor's
    /// ([`PlaneConfig::fabric_slack_us`]). They stay only because the
    /// benchmark's cluster names them.
    ///
    /// [`PlaneConfig::fabric_slack_us`]: crate::plane::PlaneConfig::fabric_slack_us
    pub fn with_network(
        clock: Clock,
        net: NetworkModel,
        seed: u64,
        _shards: usize,
        _slack_us: u64,
    ) -> Arc<Self> {
        Self::new(clock, Some(net), seed)
    }

    /// Register an actor's mailbox and site. Must happen before traffic for
    /// that actor flows; sends to unregistered actors (or to an id of 2^20
    /// or more, which is never registered) are counted as drops.
    pub fn register(&self, id: u32, site: SiteId, mailbox: MailboxSender) {
        if id >= MAX_ROUTED_ID {
            return;
        }
        let mut fabric = self.fabric.lock().expect("lock poisoned");
        let slot = id as usize;
        if fabric.routes.len() <= slot {
            fabric.routes.resize_with(slot + 1, || None);
        }
        if let Some(route) = fabric.routes.get_mut(slot) {
            *route = Some(Route { site, mailbox });
        }
    }

    /// Messages lost so far — to the model's loss/partition rules, to
    /// unregistered destinations, or to already-stopped nodes.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Client submits shed so far: bounced back as timed-out `TxnDone`s
    /// because the destination mailbox was full.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Forget every route: a later send is a drop. Called by the cluster at
    /// shutdown, after the nodes have stopped; what is still in flight sits
    /// in mailboxes that are closed already.
    pub fn stop(&self) {
        let routes = std::mem::take(&mut self.fabric.lock().expect("lock poisoned").routes);
        // Dropped with the fabric lock released: a mailbox's last sender
        // takes the mailbox's lock as it goes.
        drop(routes);
    }

    /// Stamp and enqueue `envs`, in order, under the fabric lock. A run of
    /// consecutive envelopes for one mailbox holds that mailbox's lock once
    /// and wakes its task once.
    fn send_all(&self, envs: impl Iterator<Item = Envelope>) {
        let now = self.clock.now();
        let at_once = self.clock.instant(now);
        let mut guard = self.fabric.lock().expect("lock poisoned");
        let Fabric {
            routes,
            rng,
            last_due,
        } = &mut *guard;
        let routes = &*routes;
        let route = |id: u32| routes.get(id as usize)?.as_ref();
        // Declared after the guard, so it ends (and wakes) first.
        let mut run: Option<(&MailboxSender, Run<'_>)> = None;
        for env in envs {
            let Some(dst) = route(env.to.0) else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            let due = match &self.net {
                None => at_once,
                Some(net) => {
                    let sampled = route(env.from.0)
                        .and_then(|src| net.sample_delay(src.site, dst.site, now, rng));
                    let Some(delay) = sampled else {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    let at = fifo_clamp(last_due, env.from.0, env.to.0, now + delay);
                    self.clock.instant(at)
                }
            };
            if !run
                .as_ref()
                .is_some_and(|(mailbox, _)| mailbox.same_as(&dst.mailbox))
            {
                // The open run ends (and wakes its task) before the next
                // mailbox lock is taken.
                drop(run.take());
                run = Some((&dst.mailbox, dst.mailbox.open_run()));
            }
            let Some((_, open)) = run.as_mut() else {
                continue;
            };
            let bounded = env.msg.submission().is_some();
            match open.push(due, Packet::Env(env), bounded) {
                Ok(()) => {}
                Err(TrySendError::Full(Packet::Env(env))) => {
                    // Client load: shed rather than queue — a full
                    // coordinator bounces the submit back as a timeout, at
                    // once, into the client's mailbox.
                    drop(run.take());
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    let Some((reply_to, tag)) = env.msg.submission() else {
                        continue;
                    };
                    let bounce = shed_bounce(env.to, reply_to, tag, now);
                    let delivered = route(reply_to.0).is_some_and(|client| {
                        client
                            .mailbox
                            .open_run()
                            .push(at_once, Packet::Env(bounce), false)
                            .is_ok()
                    });
                    if !delivered {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Destination node already stopped.
                Err(_) => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Transport for ChannelTransport {
    fn send(&self, env: Envelope) {
        self.send_all(std::iter::once(env));
    }

    fn send_many(&self, envs: &mut Vec<Envelope>) {
        self.send_all(envs.drain(..));
    }
}
