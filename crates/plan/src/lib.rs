//! planet-plan: the transaction IR and plan specializer.
//!
//! The paper's pitch — stop worrying and love compilers — applied to the
//! commit hot path: workloads describe their transaction *shapes* once as
//! parameterized [`TxnProgram`]s, a specializer compiles each shape against
//! the cluster configuration into a [`CompiledPlan`] (keys interned and
//! routed, write dispatch devirtualized, decide order presorted), and every
//! subsequent submission is `(PlanId, params)` — no key strings re-hashed,
//! no per-submit key vectors rebuilt, no generic `WriteOp` assembly.
//!
//! Layering: this crate sits between `planet-storage` (whose `Key`/`Value`/
//! `WriteOp` vocabulary the IR reuses) and `planet-mdcc` (whose coordinator
//! lowers one execution of a compiled plan into the flat form its state
//! machine runs, and whose `ClusterConfig` implements [`PlanEnv`]). It knows
//! nothing about actors or messages.

mod compile;
mod ir;

pub use compile::{
    CompiledOp, CompiledPlan, CompiledStep, KeyRoute, PlanEnv, PlanSlot, SlotFinder,
};
pub use ir::{
    DeltaRef, InstantiatedTxn, KeyRef, KeyTemplate, OpTemplate, ParamType, PlanError, PlanId,
    PlanOp, PlanParam, TemplatePart, TxnProgram,
};
