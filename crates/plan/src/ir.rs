//! The transaction IR: a small, parameterized program form for transactions.
//!
//! A [`TxnProgram`] is written once per workload shape ("YCSB point write",
//! "ticket purchase") and names its keys symbolically: either interned into
//! the program's key `table` (plan-local key ids, resolved to real keys at
//! compile time), as submit-time parameters, or as templates rendered from
//! integer parameters (e.g. `order:{site}:{n}`). The specializer in
//! [`crate::compile`] turns a program into a [`crate::CompiledPlan`] whose
//! per-execution work is a straight-line walk over pre-resolved slots.
//!
//! Programs are *observationally equivalent* to an ad-hoc `TxnSpec`
//! submission: [`TxnProgram::instantiate`] produces the exact read/write
//! lists such a client would have sent, and the coordinator lowers both —
//! one execution of a compiled plan, or those lists — into the same flat
//! execution before its one state machine runs (field-for-field equal, which
//! the coordinator's lowering test and planet-mck's digest-neutrality test
//! pin).

use std::collections::HashSet;

use planet_storage::{Key, KeyId, KeyInterner, Value, WriteOp};

/// Wire-visible plan handle: assigned by the registering client, scoped to
/// the coordinator it was registered with.
pub type PlanId = u32;

/// Errors from program validation, compilation, or instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A `KeyRef::Fixed` or `PlanParam::Key` names a table index out of range.
    BadTableIndex(u32),
    /// A parameter index exceeds the arguments supplied (or `u8` range).
    BadParamIndex(u8),
    /// A parameter slot is used both as a key and as an integer, or the
    /// supplied argument has the wrong type.
    BadParamType(u8),
    /// The program has more ops than a compiled plan can index (slot and
    /// step indices are `u16`); carries the op count.
    TooManyOps(usize),
    /// Two writes name the same key: the same reference statically, or, in
    /// a transaction being lowered for execution, the same resolved key. A
    /// replica would take the second proposal for a retry of the first and
    /// drop it, so the coordinator refuses the transaction instead.
    DuplicateWrite,
    /// At instantiation, two distinct key references resolved to the same
    /// key (a parameter aliased a fixed key). The one-slot-per-reference
    /// layout no longer holds; the caller lowers the instantiated
    /// transaction, which dedups by key, instead.
    AliasedKeys,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::BadTableIndex(i) => write!(f, "key table index {i} out of range"),
            PlanError::BadParamIndex(p) => write!(f, "parameter index {p} out of range"),
            PlanError::BadParamType(p) => write!(f, "parameter {p} has conflicting/wrong type"),
            PlanError::TooManyOps(n) => write!(f, "{n} ops, at most {} compile", u16::MAX),
            PlanError::DuplicateWrite => write!(f, "two writes name the same key"),
            PlanError::AliasedKeys => write!(f, "parameters aliased two key references"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One piece of a derived-key template.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TemplatePart {
    /// A literal fragment, copied verbatim.
    Lit(String),
    /// An integer parameter, rendered in decimal.
    Param(u8),
}

/// A key template: concatenation of literal fragments and decimal-rendered
/// integer parameters, e.g. `["order:", site, ":", n]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct KeyTemplate {
    /// The fragments, concatenated in order.
    pub parts: Vec<TemplatePart>,
}

impl KeyTemplate {
    /// Start an empty template.
    pub fn new() -> Self {
        KeyTemplate::default()
    }

    /// Append a literal fragment.
    pub fn lit(mut self, s: impl Into<String>) -> Self {
        self.parts.push(TemplatePart::Lit(s.into()));
        self
    }

    /// Append an integer parameter rendered in decimal.
    pub fn param(mut self, p: u8) -> Self {
        self.parts.push(TemplatePart::Param(p));
        self
    }

    /// Render the template over `params` straight into a key: no
    /// allocation for a key of up to 23 bytes.
    pub fn render(&self, params: &[PlanParam]) -> Result<Key, PlanError> {
        // Every parameter is checked first, so the rendering cannot fail.
        for part in &self.parts {
            if let TemplatePart::Param(p) = part {
                int_param(params, *p)?;
            }
        }
        let rendered = Rendered {
            parts: &self.parts,
            params,
        };
        Ok(Key::from_fmt(format_args!("{rendered}")))
    }
}

/// A template over parameters [`KeyTemplate::render`] has checked.
struct Rendered<'a> {
    parts: &'a [TemplatePart],
    params: &'a [PlanParam],
}

impl std::fmt::Display for Rendered<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for part in self.parts {
            match part {
                TemplatePart::Lit(s) => f.write_str(s)?,
                TemplatePart::Param(p) => match self.params.get(usize::from(*p)) {
                    Some(PlanParam::Int(v)) => write!(f, "{v}")?,
                    _ => return Err(std::fmt::Error),
                },
            }
        }
        Ok(())
    }
}

/// How a program op names its key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum KeyRef {
    /// An entry of the program's key table, resolved and routed at compile
    /// time — the zero-cost case.
    Fixed(u32),
    /// A submit-time parameter that must be [`PlanParam::Key`]: still table-
    /// interned, so routing is a table lookup, but the *which* arrives with
    /// the submission.
    Param(u8),
    /// A key derived from integer parameters via a template; routed at
    /// execution time (the one case that still hashes a string).
    Derived(KeyTemplate),
}

/// How a write's delta is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaRef {
    /// Compile-time constant.
    Const(i64),
    /// Submit-time integer parameter.
    Param(u8),
}

/// A parameterized [`WriteOp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpTemplate {
    /// `Set` to a compile-time constant value.
    Set(Value),
    /// `Set` to `Value::Int` of an integer parameter.
    SetParam(u8),
    /// Commutative `Add` with demarcation bounds.
    Add {
        /// The delta (constant or parameter).
        delta: DeltaRef,
        /// Inclusive lower bound, if any.
        lower: Option<i64>,
        /// Inclusive upper bound, if any.
        upper: Option<i64>,
    },
    /// Delete the record.
    Delete,
}

impl OpTemplate {
    /// The template for an already-concrete [`WriteOp`].
    pub fn of(op: &WriteOp) -> Self {
        match op {
            WriteOp::Set(v) => OpTemplate::Set(v.clone()),
            WriteOp::Delete => OpTemplate::Delete,
            WriteOp::Add {
                delta,
                lower,
                upper,
            } => OpTemplate::Add {
                delta: DeltaRef::Const(*delta),
                lower: *lower,
                upper: *upper,
            },
        }
    }

    /// Materialize the concrete [`WriteOp`] for one execution.
    pub fn materialize(&self, params: &[PlanParam]) -> Result<WriteOp, PlanError> {
        Ok(match self {
            OpTemplate::Set(v) => WriteOp::Set(v.clone()),
            OpTemplate::SetParam(p) => WriteOp::Set(Value::Int(int_param(params, *p)?)),
            OpTemplate::Add {
                delta,
                lower,
                upper,
            } => WriteOp::Add {
                delta: match delta {
                    DeltaRef::Const(d) => *d,
                    DeltaRef::Param(p) => int_param(params, *p)?,
                },
                lower: *lower,
                upper: *upper,
            },
            OpTemplate::Delete => WriteOp::Delete,
        })
    }
}

/// One program operation. Ops execute as a transaction: all reads are
/// served from one snapshot request, all writes become options proposed
/// together — exactly the `TxnSpec` semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Read a key (beyond those implicitly read for writes).
    Read(KeyRef),
    /// Write a key.
    Write(KeyRef, OpTemplate),
}

/// A submit-time argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanParam {
    /// An index into the program's key table.
    Key(u32),
    /// An integer (delta, set value, or template fragment).
    Int(i64),
}

/// The static type of a parameter slot, inferred from its uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// Used as a key-table index.
    Key,
    /// Used as an integer.
    Int,
    /// Declared-but-unused slots accept either.
    Unused,
}

/// A parameterized transaction program: the unit of registration. See the
/// module docs for the execution model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TxnProgram {
    /// Diagnostic name ("ycsb-point-write", "ticket-purchase").
    pub name: String,
    /// The key table: every fixed key the program can touch, interned once;
    /// an op names entry *i* as [`KeyRef::Fixed`]`(i)`. The interner makes
    /// the table a set by construction. Boxed because a program travels
    /// inside `Msg::RegisterPlan`: inline, the interner would make that the
    /// largest message variant and every message in every mailbox 16 bytes
    /// bigger.
    pub table: Box<KeyInterner>,
    /// The operations, in program order. Keys are read in the order of
    /// `TxnSpec::touched_keys` over the instantiated transaction: read
    /// references first, then written ones, each in the order given here.
    pub ops: Vec<PlanOp>,
    /// Serve reads at quorum instead of the local replica.
    pub quorum_reads: bool,
}

fn param_at(params: &[PlanParam], p: u8) -> Result<PlanParam, PlanError> {
    params
        .get(p as usize)
        .copied()
        .ok_or(PlanError::BadParamIndex(p))
}

fn int_param(params: &[PlanParam], p: u8) -> Result<i64, PlanError> {
    match param_at(params, p)? {
        PlanParam::Int(v) => Ok(v),
        PlanParam::Key(_) => Err(PlanError::BadParamType(p)),
    }
}

/// A program instantiated over concrete parameters: the read/write lists an
/// ad-hoc submission would carry. This is the semantic ground truth the
/// plan lowering must match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantiatedTxn {
    /// Keys read (beyond those written).
    pub reads: Vec<Key>,
    /// Writes in program order.
    pub writes: Vec<(Key, WriteOp)>,
    /// Whether reads are served at quorum.
    pub quorum_reads: bool,
}

impl TxnProgram {
    /// Start an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        TxnProgram {
            name: name.into(),
            ..TxnProgram::default()
        }
    }

    /// Intern `key` into the table, returning its index (existing entry
    /// reused). One hash, whatever the table holds.
    pub fn intern(&mut self, key: Key) -> u32 {
        self.table.intern(&key).0
    }

    /// The key at table index `i`, if in range.
    pub fn table_key(&self, i: u32) -> Option<&Key> {
        self.table.try_name(KeyId(i))
    }

    /// Append a read op (builder-style).
    pub fn read(mut self, key: KeyRef) -> Self {
        self.ops.push(PlanOp::Read(key));
        self
    }

    /// Append a write op (builder-style).
    pub fn write(mut self, key: KeyRef, op: OpTemplate) -> Self {
        self.ops.push(PlanOp::Write(key, op));
        self
    }

    /// Serve reads at quorum (builder-style).
    pub fn quorum_reads(mut self) -> Self {
        self.quorum_reads = true;
        self
    }

    /// Number of parameter slots (max used index + 1).
    pub fn param_count(&self) -> usize {
        self.param_types().len()
    }

    /// Infer each parameter slot's type from its uses. Conflicting uses
    /// surface later via [`TxnProgram::validate`].
    pub fn param_types(&self) -> Vec<ParamType> {
        let mut types: Vec<ParamType> = Vec::new();
        let mut note = |p: u8, t: ParamType| {
            let idx = p as usize;
            if types.len() <= idx {
                types.resize(idx + 1, ParamType::Unused);
            }
            // check:allow(panic): resized just above to cover `idx`
            let slot = &mut types[idx];
            if *slot == ParamType::Unused {
                *slot = t;
            }
        };
        for op in &self.ops {
            let (key, tmpl) = match op {
                PlanOp::Read(k) => (k, None),
                PlanOp::Write(k, t) => (k, Some(t)),
            };
            match key {
                KeyRef::Fixed(_) => {}
                KeyRef::Param(p) => note(*p, ParamType::Key),
                KeyRef::Derived(t) => {
                    for part in &t.parts {
                        if let TemplatePart::Param(p) = part {
                            note(*p, ParamType::Int);
                        }
                    }
                }
            }
            match tmpl {
                Some(OpTemplate::SetParam(p))
                | Some(OpTemplate::Add {
                    delta: DeltaRef::Param(p),
                    ..
                }) => note(*p, ParamType::Int),
                _ => {}
            }
        }
        types
    }

    /// Check static well-formedness: few enough ops to compile, table
    /// indices in range, parameter slots consistently typed, and no two
    /// writes naming the same key reference. Linear in the program. (That
    /// table entries are distinct needs no check: the table is an interner.)
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.ops.len() > usize::from(u16::MAX) {
            return Err(PlanError::TooManyOps(self.ops.len()));
        }
        let check_ref = |r: &KeyRef| -> Result<(), PlanError> {
            if let KeyRef::Fixed(i) = r {
                if *i as usize >= self.table.len() {
                    return Err(PlanError::BadTableIndex(*i));
                }
            }
            Ok(())
        };
        let mut written: HashSet<&KeyRef> = HashSet::new();
        for op in &self.ops {
            match op {
                PlanOp::Read(k) => check_ref(k)?,
                PlanOp::Write(k, _) => {
                    check_ref(k)?;
                    if !written.insert(k) {
                        return Err(PlanError::DuplicateWrite);
                    }
                }
            }
        }
        // A parameter slot used both as key and int has conflicting uses:
        // re-infer with conflict detection.
        let mut types: Vec<ParamType> = vec![ParamType::Unused; self.param_types().len()];
        let note = |p: u8, t: ParamType, types: &mut Vec<ParamType>| {
            let Some(slot) = types.get_mut(p as usize) else {
                return Err(PlanError::BadParamIndex(p));
            };
            if *slot == ParamType::Unused {
                *slot = t;
                Ok(())
            } else if *slot == t {
                Ok(())
            } else {
                Err(PlanError::BadParamType(p))
            }
        };
        for op in &self.ops {
            let (key, tmpl) = match op {
                PlanOp::Read(k) => (k, None),
                PlanOp::Write(k, t) => (k, Some(t)),
            };
            match key {
                KeyRef::Fixed(_) => {}
                KeyRef::Param(p) => note(*p, ParamType::Key, &mut types)?,
                KeyRef::Derived(t) => {
                    for part in &t.parts {
                        if let TemplatePart::Param(p) = part {
                            note(*p, ParamType::Int, &mut types)?;
                        }
                    }
                }
            }
            match tmpl {
                Some(OpTemplate::SetParam(p))
                | Some(OpTemplate::Add {
                    delta: DeltaRef::Param(p),
                    ..
                }) => note(*p, ParamType::Int, &mut types)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// Resolve one key reference over concrete parameters. A derived key is
    /// rendered straight into the key.
    pub fn resolve_key(&self, r: &KeyRef, params: &[PlanParam]) -> Result<Key, PlanError> {
        match r {
            KeyRef::Fixed(i) => self
                .table_key(*i)
                .cloned()
                .ok_or(PlanError::BadTableIndex(*i)),
            KeyRef::Param(p) => {
                let PlanParam::Key(i) = param_at(params, *p)? else {
                    return Err(PlanError::BadParamType(*p));
                };
                self.table_key(i)
                    .cloned()
                    .ok_or(PlanError::BadTableIndex(i))
            }
            KeyRef::Derived(t) => t.render(params),
        }
    }

    /// Instantiate the program over `params`: the concrete read/write lists
    /// an ad-hoc submission of this execution would carry, in program
    /// order. This defines the program's semantics; the plan lowering is
    /// checked against it.
    pub fn instantiate(&self, params: &[PlanParam]) -> Result<InstantiatedTxn, PlanError> {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for op in &self.ops {
            match op {
                PlanOp::Read(k) => reads.push(self.resolve_key(k, params)?),
                PlanOp::Write(k, t) => {
                    let key = self.resolve_key(k, params)?;
                    writes.push((key, t.materialize(params)?));
                }
            }
        }
        Ok(InstantiatedTxn {
            reads,
            writes,
            quorum_reads: self.quorum_reads,
        })
    }

    /// Lift a concrete read/write list into a zero-parameter program (every
    /// key becomes a fixed table entry). This is what `TxnBuilder::compile`
    /// uses: any concrete transaction shape compiles, it just gains no
    /// parameterization. Fails if two writes name the same key (which no
    /// front end executes).
    pub fn of_concrete(
        name: impl Into<String>,
        reads: &[Key],
        writes: &[(Key, WriteOp)],
        quorum_reads: bool,
    ) -> Result<Self, PlanError> {
        let mut prog = TxnProgram::new(name);
        prog.quorum_reads = quorum_reads;
        for key in reads {
            let idx = prog.intern(key.clone());
            prog.ops.push(PlanOp::Read(KeyRef::Fixed(idx)));
        }
        for (key, op) in writes {
            let idx = prog.intern(key.clone());
            prog.ops
                .push(PlanOp::Write(KeyRef::Fixed(idx), OpTemplate::of(op)));
        }
        prog.validate()?;
        Ok(prog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_renders_params_in_decimal() {
        let t = KeyTemplate::new().lit("order:").param(0).lit(":").param(1);
        let key = t.render(&[PlanParam::Int(3), PlanParam::Int(-7)]);
        assert_eq!(key, Ok(Key::new("order:3:-7")));
        assert_eq!(
            t.render(&[PlanParam::Key(0), PlanParam::Int(1)]),
            Err(PlanError::BadParamType(0))
        );
        assert_eq!(
            t.render(&[PlanParam::Int(0)]),
            Err(PlanError::BadParamIndex(1))
        );
        // Past 23 bytes the key moves to the heap, same string.
        let long = KeyTemplate::new().lit("a-long-literal-prefix:").param(0);
        let key = long.render(&[PlanParam::Int(123_456)]);
        assert_eq!(key, Ok(Key::new("a-long-literal-prefix:123456")));
    }

    #[test]
    fn instantiate_matches_program_order() {
        let mut prog = TxnProgram::new("t");
        let a = prog.intern(Key::new("a"));
        let b = prog.intern(Key::new("b"));
        assert_eq!(prog.intern(Key::new("a")), a, "interning dedups");
        let prog = prog
            .read(KeyRef::Fixed(a))
            .write(
                KeyRef::Fixed(b),
                OpTemplate::Add {
                    delta: DeltaRef::Param(0),
                    lower: Some(0),
                    upper: None,
                },
            )
            .write(KeyRef::Param(1), OpTemplate::SetParam(2));
        prog.validate().expect("valid");
        assert_eq!(prog.param_count(), 3);
        let inst = prog
            .instantiate(&[PlanParam::Int(-2), PlanParam::Key(a), PlanParam::Int(9)])
            .expect("instantiate");
        assert_eq!(inst.reads, vec![Key::new("a")]);
        assert_eq!(
            inst.writes,
            vec![
                (Key::new("b"), WriteOp::add_with_floor(-2, 0)),
                (Key::new("a"), WriteOp::Set(Value::Int(9))),
            ]
        );
    }

    #[test]
    fn validate_rejects_malformed_programs() {
        let bad_idx = TxnProgram::new("x").read(KeyRef::Fixed(0));
        assert_eq!(bad_idx.validate(), Err(PlanError::BadTableIndex(0)));

        let mut dup_write = TxnProgram::new("x");
        let a = dup_write.intern(Key::new("a"));
        let dup_write = dup_write
            .write(KeyRef::Fixed(a), OpTemplate::Delete)
            .write(KeyRef::Fixed(a), OpTemplate::Delete);
        assert_eq!(dup_write.validate(), Err(PlanError::DuplicateWrite));

        // Param 0 used as both key and int.
        let conflicted = TxnProgram::new("x").read(KeyRef::Param(0)).write(
            KeyRef::Derived(KeyTemplate::new().param(0)),
            OpTemplate::Delete,
        );
        assert_eq!(conflicted.validate(), Err(PlanError::BadParamType(0)));
    }

    #[test]
    fn of_concrete_round_trips() {
        let reads = vec![Key::new("r")];
        let writes = vec![
            (Key::new("w1"), WriteOp::add(1)),
            (Key::new("w2"), WriteOp::Set(Value::Int(5))),
        ];
        let prog = TxnProgram::of_concrete("conc", &reads, &writes, false).expect("compiles");
        let inst = prog.instantiate(&[]).expect("instantiate");
        assert_eq!(inst.reads, reads);
        assert_eq!(inst.writes, writes);
        assert!(!inst.quorum_reads);
        // Duplicate writes are rejected rather than silently reordered.
        let dup = vec![
            (Key::new("w"), WriteOp::add(1)),
            (Key::new("w"), WriteOp::add(2)),
        ];
        assert_eq!(
            TxnProgram::of_concrete("dup", &[], &dup, false),
            Err(PlanError::DuplicateWrite)
        );
    }
}
