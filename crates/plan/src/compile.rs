//! The plan specializer: compile a [`TxnProgram`] once per cluster
//! configuration into a [`CompiledPlan`] whose per-execution cost is a
//! straight-line walk.
//!
//! What compilation precomputes:
//!
//! - **Routing**: every table key's shard and master site (the two FNV
//!   hashes an ad-hoc `TxnSpec` submission pays per distinct key) are
//!   resolved once via [`PlanEnv`].
//! - **Touched-key slots**: the deduplicated key set, read references
//!   first and then written ones, each in program order — the order
//!   `TxnSpec::touched_keys` gives the instantiated transaction — becomes a
//!   static slot array; each slot records whether a write targets it and
//!   which one.
//! - **Write steps**: `WriteOp` construction is devirtualized into a step
//!   array of [`CompiledOp`]s — constant ops are prebuilt and cloned
//!   (refcount bump at worst), parameterized ops read straight from the
//!   argument slice.
//! - **Decide order**: when every key is fixed, the key-sorted broadcast
//!   order of the decision round is a precomputed permutation.
//!
//! What stays at execution time: parameter substitution, derived-key
//! rendering/routing, and — only for plans whose references *could* alias —
//! a runtime duplicate check ([`SlotFinder`]); an execution that fails it is
//! lowered from its instantiated read/write lists instead.

use std::collections::HashMap;

use planet_storage::{Key, WriteOp};

use crate::ir::{KeyRef, PlanError, PlanOp, PlanParam, TxnProgram};

/// The routing facts compilation needs from the cluster configuration.
/// Implemented by `planet-mdcc`'s `ClusterConfig`; kept as a trait so this
/// crate stays below the protocol layer in the dependency order.
pub trait PlanEnv {
    /// Number of sites (replicas per shard group).
    fn num_sites(&self) -> usize;
    /// The replica shard owning `key` at every site.
    fn shard_of(&self, key: &Key) -> usize;
    /// The site mastering `key`.
    fn master_site_of(&self, key: &Key) -> u8;
}

/// Precomputed routing for one key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRoute {
    /// The key's shard.
    pub shard: u32,
    /// The key's master site.
    pub master: u8,
}

impl KeyRoute {
    /// Route `key` in `env`: the two hashes every other route is a copy of.
    pub fn of(env: &dyn PlanEnv, key: &Key) -> Self {
        KeyRoute {
            shard: env.shard_of(key) as u32,
            master: env.master_site_of(key),
        }
    }
}

/// Key → slot lookup over an execution's slot array while it is being
/// filled: a scan while the array is short, a hash index that catches up
/// with the array above that. Both lowerings into the coordinator's
/// execution form dedup (and detect aliasing) through it, so neither is
/// quadratic in a transaction a peer chose the size of.
#[derive(Debug, Default)]
pub struct SlotFinder {
    index: HashMap<Key, u16>,
}

impl SlotFinder {
    /// Slot arrays up to this long are scanned.
    pub const SCAN_SLOTS: usize = 16;

    /// The slot of `key` in `keys`. Between calls on one finder `keys` may
    /// only grow by pushing keys this returned `None` for (so it stays
    /// duplicate-free and the index can catch up by length).
    pub fn find(&mut self, keys: &[Key], key: &Key) -> Option<u16> {
        if keys.len() <= Self::SCAN_SLOTS {
            return keys.iter().position(|k| k == key).map(|i| i as u16);
        }
        for (i, k) in keys.iter().enumerate().skip(self.index.len()) {
            self.index.insert(k.clone(), i as u16);
        }
        self.index.get(key).copied()
    }
}

/// One touched-key slot: a distinct key reference.
#[derive(Debug, Clone)]
pub struct PlanSlot {
    /// The key reference (deduplicated structurally at compile time).
    pub key: KeyRef,
    /// Routing, when statically known (`KeyRef::Fixed` only).
    pub route: Option<KeyRoute>,
    /// Index into [`CompiledPlan::steps`] if a write targets this slot.
    pub step: Option<u16>,
}

/// How one write materializes its [`WriteOp`].
#[derive(Debug, Clone)]
pub enum CompiledOp {
    /// Fully constant: prebuilt at compile time, cloned per execution.
    Ready(WriteOp),
    /// `Set(Value::Int(params[p]))`.
    SetParam(u8),
    /// `Add` whose delta is `params[p]`, bounds constant.
    AddParam {
        /// Parameter holding the delta.
        delta: u8,
        /// Inclusive lower bound, if any.
        lower: Option<i64>,
        /// Inclusive upper bound, if any.
        upper: Option<i64>,
    },
}

impl CompiledOp {
    /// Build the concrete op for one execution.
    pub fn materialize(&self, params: &[PlanParam]) -> Result<WriteOp, PlanError> {
        Ok(match self {
            CompiledOp::Ready(op) => op.clone(),
            CompiledOp::SetParam(p) => {
                WriteOp::Set(planet_storage::Value::Int(int_at(params, *p)?))
            }
            CompiledOp::AddParam {
                delta,
                lower,
                upper,
            } => WriteOp::Add {
                delta: int_at(params, *delta)?,
                lower: *lower,
                upper: *upper,
            },
        })
    }
}

fn int_at(params: &[PlanParam], p: u8) -> Result<i64, PlanError> {
    match params.get(p as usize) {
        Some(PlanParam::Int(v)) => Ok(*v),
        Some(PlanParam::Key(_)) => Err(PlanError::BadParamType(p)),
        None => Err(PlanError::BadParamIndex(p)),
    }
}

/// One write step: which slot it targets and how to build its op.
#[derive(Debug, Clone)]
pub struct CompiledStep {
    /// Index into [`CompiledPlan::slots`].
    pub slot: u16,
    /// The devirtualized write op.
    pub op: CompiledOp,
}

/// A program specialized against one cluster configuration. Cheap to clone
/// is *not* a goal (plans are registered once and referenced by id); cheap
/// to *execute* is.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    program: TxnProgram,
    /// Routing per table entry, parallel to `program.table`.
    routes: Vec<KeyRoute>,
    /// Deduplicated touched-key slots: read references, then written ones,
    /// each in program order (the order `TxnSpec::touched_keys` produces
    /// for the instantiated txn).
    pub slots: Vec<PlanSlot>,
    /// Write steps in program order.
    pub steps: Vec<CompiledStep>,
    /// Step indices in key-sorted order, precomputed when every written key
    /// is fixed; `None` means sort at execution time.
    pub sorted_steps: Option<Vec<u16>>,
    /// True if two slots could resolve to the same key at execution time
    /// (any non-fixed reference present alongside another slot): execution
    /// must then verify distinctness and lower the instantiated transaction
    /// if violated.
    pub may_alias: bool,
    /// Serve reads at quorum.
    pub quorum_reads: bool,
}

impl CompiledPlan {
    /// Specialize `program` against the routing environment. Validates the
    /// program first. Linear in the program: two routing hashes per table
    /// key, one hash per op to find its slot.
    pub fn compile(program: TxnProgram, env: &dyn PlanEnv) -> Result<Self, PlanError> {
        program.validate()?;
        let routes: Vec<KeyRoute> = program
            .table
            .iter()
            .map(|key| KeyRoute::of(env, key))
            .collect();

        // Slot and step indices fit `u16`: `validate` bounded `ops.len()`.
        let mut slots: Vec<PlanSlot> = Vec::new();
        let mut slot_of_ref: HashMap<&KeyRef, u16> = HashMap::new();
        let mut slot_for = |key| {
            *slot_of_ref.entry(key).or_insert_with(|| {
                let route = match key {
                    KeyRef::Fixed(i) => routes.get(*i as usize).copied(),
                    _ => None,
                };
                slots.push(PlanSlot {
                    key: key.clone(),
                    route,
                    step: None,
                });
                (slots.len() - 1) as u16
            })
        };
        // Two passes, reads before writes: the slot order is the touched
        // order of the instantiated transaction whatever order the ops were
        // written in, so both lowerings of one program send the same reads.
        for op in &program.ops {
            if let PlanOp::Read(key) = op {
                slot_for(key);
            }
        }
        let mut steps: Vec<CompiledStep> = Vec::new();
        for op in &program.ops {
            let PlanOp::Write(key, tmpl) = op else {
                continue;
            };
            let slot = slot_for(key);
            let compiled = match tmpl.materialize(&[]) {
                // No parameters referenced: prebuild the op.
                Ok(op) => CompiledOp::Ready(op),
                Err(_) => match tmpl {
                    crate::ir::OpTemplate::SetParam(p) => CompiledOp::SetParam(*p),
                    crate::ir::OpTemplate::Add {
                        delta: crate::ir::DeltaRef::Param(p),
                        lower,
                        upper,
                    } => CompiledOp::AddParam {
                        delta: *p,
                        lower: *lower,
                        upper: *upper,
                    },
                    // materialize(&[]) only fails on parameter refs,
                    // which the arms above cover.
                    _ => return Err(PlanError::BadParamIndex(0)),
                },
            };
            steps.push(CompiledStep { slot, op: compiled });
        }
        for (i, step) in steps.iter().enumerate() {
            // check:allow(panic): `slot` is an index `slot_for` took from `slots`
            slots[step.slot as usize].step = Some(i as u16);
        }

        // In bounds: every step's `slot` indexes `slots` by construction.
        let slot_of = |s: &CompiledStep| {
            // check:allow(panic)
            &slots[s.slot as usize]
        };
        let all_fixed_writes = steps
            .iter()
            .all(|s| matches!(slot_of(s).key, KeyRef::Fixed(_)));
        let sorted_steps = if all_fixed_writes {
            let mut order: Vec<u16> = (0..steps.len() as u16).collect();
            order.sort_by_key(|&i| {
                // check:allow(panic): `order` holds step indices
                match slot_of(&steps[i as usize]).key {
                    // `validate` bounded the table index; non-fixed keys are
                    // excluded by `all_fixed_writes` above.
                    KeyRef::Fixed(t) => program.table_key(t),
                    _ => None,
                }
            });
            Some(order)
        } else {
            None
        };

        let may_alias = slots.len() > 1 && slots.iter().any(|s| !matches!(s.key, KeyRef::Fixed(_)));

        Ok(CompiledPlan {
            quorum_reads: program.quorum_reads,
            program,
            routes,
            slots,
            steps,
            sorted_steps,
            may_alias,
        })
    }

    /// The source program.
    pub fn program(&self) -> &TxnProgram {
        &self.program
    }

    /// Resolve every slot's key and route for one execution, appending to
    /// the caller's (cleared) scratch vectors — the coordinator reuses them
    /// across transactions. Detects runtime key aliasing (see
    /// [`CompiledPlan::may_alias`]) in time linear in the slots; on
    /// `AliasedKeys` the caller lowers the instantiated transaction instead.
    pub fn resolve_slots(
        &self,
        params: &[PlanParam],
        env: &dyn PlanEnv,
        keys: &mut Vec<Key>,
        routes: &mut Vec<KeyRoute>,
    ) -> Result<(), PlanError> {
        keys.clear();
        routes.clear();
        let mut finder = SlotFinder::default();
        for slot in &self.slots {
            let (key, route) = match (&slot.key, slot.route) {
                (KeyRef::Fixed(i), Some(route)) => match self.program.table_key(*i) {
                    Some(key) => (key.clone(), route),
                    None => return Err(PlanError::BadTableIndex(*i)),
                },
                _ => {
                    let key = self.program.resolve_key(&slot.key, params)?;
                    let route = match &slot.key {
                        KeyRef::Param(p) => {
                            // Table-interned parameter: routing is a lookup.
                            let Some(PlanParam::Key(i)) = params.get(*p as usize) else {
                                return Err(PlanError::BadParamType(*p));
                            };
                            self.routes
                                .get(*i as usize)
                                .copied()
                                .ok_or(PlanError::BadTableIndex(*i))?
                        }
                        // Derived keys route at execution time.
                        _ => KeyRoute::of(env, &key),
                    };
                    (key, route)
                }
            };
            if self.may_alias && finder.find(keys, &key).is_some() {
                return Err(PlanError::AliasedKeys);
            }
            keys.push(key);
            routes.push(route);
        }
        Ok(())
    }

    /// Instantiate the underlying program (the read/write lists an ad-hoc
    /// submission of this execution would carry) — the reference semantics,
    /// and what an aliasing execution is lowered from.
    pub fn instantiate(
        &self,
        params: &[PlanParam],
    ) -> Result<crate::ir::InstantiatedTxn, PlanError> {
        self.program.instantiate(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DeltaRef, KeyTemplate, OpTemplate};

    /// A toy routing environment: shard = key length % shards, master =
    /// first byte % sites.
    struct ToyEnv {
        sites: usize,
        shards: usize,
    }

    impl PlanEnv for ToyEnv {
        fn num_sites(&self) -> usize {
            self.sites
        }
        fn shard_of(&self, key: &Key) -> usize {
            key.as_str().len() % self.shards
        }
        fn master_site_of(&self, key: &Key) -> u8 {
            (key.as_str().as_bytes().first().copied().unwrap_or(0) as usize % self.sites) as u8
        }
    }

    fn env() -> ToyEnv {
        ToyEnv {
            sites: 3,
            shards: 2,
        }
    }

    #[test]
    fn compile_precomputes_routes_and_dedups_slots() {
        let mut prog = TxnProgram::new("t");
        let a = prog.intern(Key::new("aa"));
        let b = prog.intern(Key::new("b"));
        let prog = prog
            .read(KeyRef::Fixed(a))
            .read(KeyRef::Fixed(b))
            .write(KeyRef::Fixed(a), OpTemplate::of(&WriteOp::add(1)));
        let plan = CompiledPlan::compile(prog, &env()).expect("compiles");
        // Two distinct slots ("aa" read+written, "b" read).
        assert_eq!(plan.slots.len(), 2);
        assert_eq!(plan.slots[0].step, Some(0));
        assert_eq!(plan.slots[1].step, None);
        assert!(!plan.may_alias);
        // Routes precomputed: "aa" has len 2 → shard 0; "b" len 1 → shard 1.
        assert_eq!(
            plan.slots[0].route,
            Some(KeyRoute {
                shard: 0,
                master: (b'a' % 3)
            })
        );
        assert_eq!(plan.slots[1].route.map(|r| r.shard), Some(1));
        // All-fixed writes → precomputed decide order.
        assert_eq!(plan.sorted_steps, Some(vec![0]));

        let mut keys = Vec::new();
        let mut routes = Vec::new();
        plan.resolve_slots(&[], &env(), &mut keys, &mut routes)
            .expect("resolves");
        assert_eq!(keys, vec![Key::new("aa"), Key::new("b")]);
        assert_eq!(routes.len(), 2);
    }

    #[test]
    fn constant_ops_prebuild_param_ops_materialize() {
        let mut prog = TxnProgram::new("t");
        let a = prog.intern(Key::new("a"));
        let b = prog.intern(Key::new("bb"));
        let prog = prog
            .write(KeyRef::Fixed(a), OpTemplate::of(&WriteOp::add(5)))
            .write(
                KeyRef::Fixed(b),
                OpTemplate::Add {
                    delta: DeltaRef::Param(0),
                    lower: Some(0),
                    upper: None,
                },
            );
        let plan = CompiledPlan::compile(prog, &env()).expect("compiles");
        assert!(matches!(plan.steps[0].op, CompiledOp::Ready(_)));
        assert!(matches!(plan.steps[1].op, CompiledOp::AddParam { .. }));
        assert_eq!(
            plan.steps[1]
                .op
                .materialize(&[PlanParam::Int(-3)])
                .expect("materializes"),
            WriteOp::add_with_floor(-3, 0)
        );
    }

    #[test]
    fn runtime_alias_detected_for_param_plans() {
        let mut prog = TxnProgram::new("t");
        let a = prog.intern(Key::new("a"));
        let prog = prog
            .read(KeyRef::Fixed(a))
            .write(KeyRef::Param(0), OpTemplate::Delete);
        let plan = CompiledPlan::compile(prog, &env()).expect("compiles");
        assert!(plan.may_alias);
        assert!(plan.sorted_steps.is_none());
        let mut keys = Vec::new();
        let mut routes = Vec::new();
        // Param 0 = table entry 0 = "a": aliases the fixed read slot.
        assert_eq!(
            plan.resolve_slots(&[PlanParam::Key(a)], &env(), &mut keys, &mut routes),
            Err(PlanError::AliasedKeys)
        );
    }

    #[test]
    fn derived_keys_route_at_execution_time() {
        let prog = TxnProgram::new("t").write(
            KeyRef::Derived(KeyTemplate::new().lit("order:").param(0)),
            OpTemplate::SetParam(1),
        );
        let plan = CompiledPlan::compile(prog, &env()).expect("compiles");
        let mut keys = Vec::new();
        let mut routes = Vec::new();
        plan.resolve_slots(
            &[PlanParam::Int(41), PlanParam::Int(7)],
            &env(),
            &mut keys,
            &mut routes,
        )
        .expect("resolves");
        assert_eq!(keys, vec![Key::new("order:41")]);
        assert_eq!(routes[0].shard, ("order:41".len() % 2) as u32);
        let inst = plan
            .instantiate(&[PlanParam::Int(41), PlanParam::Int(7)])
            .expect("instantiates");
        assert_eq!(
            inst.writes,
            vec![(
                Key::new("order:41"),
                WriteOp::Set(planet_storage::Value::Int(7))
            )]
        );
    }
}
