//! Compiled-plan editions of the workloads: the [`TxnProgram`]s that YCSB
//! point operations and the ticket-sales purchase compile to, plus the
//! per-execution parameter generators that drive them.
//!
//! An ad-hoc workload ships a full [`planet_core::TxnSpec`] per
//! transaction — key strings, write ops, the lot. The compiled edition
//! registers one program per workload shape up front and then submits only
//! `(PlanId, params)`: a key-table index and an integer or two. The
//! generators here draw from the *same* key distributions as their ad-hoc
//! counterparts, so a compiled run differs from an ad-hoc one only in what
//! each submission costs to ship and to lower (the benchmark's
//! `coordinator.plan_step_ns` / `coordinator.spec_step_ns` rows and its
//! `*-ticket-sat` / `chan-kv-open` workloads price the two front ends).

use planet_core::{PlanParam, TxnProgram};
use planet_plan::{DeltaRef, KeyRef, KeyTemplate, OpTemplate};
use planet_sim::DetRng;

use crate::keyspace::KeyChooser;
use crate::ticket::TicketConfig;
use crate::ycsb::WriteKind;

/// The YCSB point-op program: one write to a parameter-chosen key of the
/// chooser's keyspace. [`WriteKind::Physical`] takes a second integer
/// parameter (the set value); [`WriteKind::Commutative`] compiles the
/// bounded decrement (`Add(-1)`, floor 0) into the plan itself.
pub fn ycsb_point_program(chooser: &KeyChooser, kind: WriteKind) -> TxnProgram {
    let mut prog = TxnProgram::new(match kind {
        WriteKind::Physical => "ycsb-point-set",
        WriteKind::Commutative => "ycsb-point-add",
    });
    for i in 0..chooser.keyspace() {
        prog.intern(chooser.key_at(i));
    }
    let op = match kind {
        WriteKind::Physical => OpTemplate::SetParam(1),
        WriteKind::Commutative => OpTemplate::Add {
            delta: DeltaRef::Const(-1),
            lower: Some(0),
            upper: None,
        },
    };
    prog.write(KeyRef::Param(0), op)
}

/// Per-execution parameters for [`ycsb_point_program`], drawing keys from
/// the same distribution the interpreted [`crate::YcsbWorkload`] uses.
pub struct YcsbPointParams {
    chooser: KeyChooser,
    kind: WriteKind,
    counter: i64,
}

impl YcsbPointParams {
    /// A parameter stream over `chooser`'s distribution.
    pub fn new(chooser: KeyChooser, kind: WriteKind) -> Self {
        YcsbPointParams {
            chooser,
            kind,
            counter: 0,
        }
    }

    /// Draw the next execution's parameters.
    pub fn next_params(&mut self, rng: &mut DetRng) -> Vec<PlanParam> {
        let key = PlanParam::Key(self.chooser.sample_index(rng) as u32);
        match self.kind {
            WriteKind::Physical => {
                self.counter += 1;
                vec![key, PlanParam::Int(self.counter)]
            }
            WriteKind::Commutative => vec![key],
        }
    }
}

/// The ticket-purchase program for one site: read the stock record of a
/// parameter-chosen event, decrement it with a floor of zero, and insert a
/// unique `order:{site}:{issued}` record via a derived-key template. Params:
/// `[Key(event index), Int(issued), Int(event id)]`.
pub fn ticket_program(config: &TicketConfig, site: u8) -> TxnProgram {
    let mut prog = TxnProgram::new(format!("ticket-purchase-{site}"));
    for event in 0..config.events {
        prog.intern(crate::ticket::stock_key(event));
    }
    prog.read(KeyRef::Param(0))
        .write(
            KeyRef::Param(0),
            OpTemplate::Add {
                delta: DeltaRef::Const(-config.tickets_per_purchase),
                lower: Some(0),
                upper: None,
            },
        )
        .write(
            KeyRef::Derived(KeyTemplate::new().lit(format!("order:{site}:")).param(1)),
            OpTemplate::SetParam(2),
        )
}

/// Per-execution parameters for [`ticket_program`], drawing events from the
/// same Zipfian popularity the interpreted [`crate::TicketWorkload`] uses.
pub struct TicketPlanParams {
    events: KeyChooser,
    issued: i64,
}

impl TicketPlanParams {
    /// A purchase-parameter stream over `config`'s event popularity.
    pub fn new(config: &TicketConfig) -> Self {
        TicketPlanParams {
            events: KeyChooser::new(
                "event",
                crate::keyspace::KeyDistribution::Zipfian {
                    n: config.events,
                    theta: config.theta,
                },
            ),
            issued: 0,
        }
    }

    /// Draw the next purchase's parameters.
    pub fn next_params(&mut self, rng: &mut DetRng) -> Vec<PlanParam> {
        let event = self.events.sample_index(rng);
        let issued = self.issued;
        self.issued += 1;
        vec![
            PlanParam::Key(event as u32),
            PlanParam::Int(issued),
            PlanParam::Int(event as i64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyspace::KeyDistribution;
    use planet_storage::{Key, Value, WriteOp};

    fn chooser(n: u64) -> KeyChooser {
        KeyChooser::new("k", KeyDistribution::Uniform { n })
    }

    #[test]
    fn ycsb_program_instantiates_like_the_interpreted_txn() {
        let prog = ycsb_point_program(&chooser(8), WriteKind::Physical);
        prog.validate().expect("valid");
        let inst = prog
            .instantiate(&[PlanParam::Key(3), PlanParam::Int(41)])
            .expect("instantiate");
        assert!(inst.reads.is_empty());
        assert_eq!(
            inst.writes,
            vec![(Key::new("k:3"), WriteOp::Set(Value::Int(41)))]
        );

        let prog = ycsb_point_program(&chooser(8), WriteKind::Commutative);
        let inst = prog.instantiate(&[PlanParam::Key(5)]).expect("instantiate");
        assert_eq!(
            inst.writes,
            vec![(Key::new("k:5"), WriteOp::add_with_floor(-1, 0))]
        );
    }

    #[test]
    fn ycsb_params_match_the_program_arity() {
        let mut rng = DetRng::new(7);
        let mut phys = YcsbPointParams::new(chooser(8), WriteKind::Physical);
        let prog = ycsb_point_program(&chooser(8), WriteKind::Physical);
        for _ in 0..50 {
            let params = phys.next_params(&mut rng);
            prog.instantiate(&params).expect("params fit the program");
        }
        let mut comm = YcsbPointParams::new(chooser(8), WriteKind::Commutative);
        let prog = ycsb_point_program(&chooser(8), WriteKind::Commutative);
        for _ in 0..50 {
            let params = comm.next_params(&mut rng);
            prog.instantiate(&params).expect("params fit the program");
        }
    }

    #[test]
    fn ticket_program_matches_the_interpreted_purchase() {
        let config = TicketConfig {
            events: 10,
            tickets_per_purchase: 2,
            ..Default::default()
        };
        let prog = ticket_program(&config, 3);
        prog.validate().expect("valid");
        let inst = prog
            .instantiate(&[PlanParam::Key(4), PlanParam::Int(17), PlanParam::Int(4)])
            .expect("instantiate");
        assert_eq!(inst.reads, vec![Key::new("event:4:stock")]);
        assert_eq!(
            inst.writes,
            vec![
                (Key::new("event:4:stock"), WriteOp::add_with_floor(-2, 0)),
                (Key::new("order:3:17"), WriteOp::Set(Value::Int(4))),
            ]
        );
    }

    #[test]
    fn ticket_params_produce_unique_orders() {
        let config = TicketConfig {
            events: 10,
            ..Default::default()
        };
        let prog = ticket_program(&config, 1);
        let mut gen = TicketPlanParams::new(&config);
        let mut rng = DetRng::new(9);
        let mut orders = std::collections::HashSet::new();
        for _ in 0..100 {
            let params = gen.next_params(&mut rng);
            let inst = prog.instantiate(&params).expect("instantiate");
            assert!(orders.insert(inst.writes[1].0.clone()), "orders unique");
        }
    }
}
