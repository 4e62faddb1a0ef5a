//! A versioned record: its committed head version plus the options accepted
//! on it and not yet decided.
//!
//! The validation rules here are the heart of the optimistic protocol:
//!
//! * a **physical** option (Set/Delete) is accepted only if it is based on
//!   the record's current committed version *and* nothing else is pending;
//! * a **commutative** option (Add with bounds) is accepted as long as no
//!   physical option is pending and the *worst-case* combination of already
//!   pending deltas keeps the value within the option's integrity bounds
//!   (the demarcation rule).
//!
//! Validation, reads, snapshots and recovery look at the head and the
//! pending options and at nothing older, so that is all a record holds. A
//! version the head replaces is handed to the caller's history (the store
//! keeps one per key, beside its snapshot-shared pages): copying a record —
//! un-sharing its page from a snapshot — copies no chain, however long its
//! history. The head is held inline, and so is the first pending option
//! (`InlineFirst`: empty, one element inline, or a vector from the second
//! element on), so a record with at most one pending option never allocates
//! and neither does its copy.

use crate::options::{RecordOption, RejectReason, WriteOp};
use crate::types::{TxnId, Value, VersionNo};

/// One committed version of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommittedVersion {
    /// Version number (1 is the first write).
    pub version: VersionNo,
    /// The value as of this version.
    pub value: Value,
    /// The transaction that produced it.
    pub txn: TxnId,
}

/// A short sequence that holds its first element inline. A record's pending
/// options are usually that short — none or one at a time — so they do not
/// allocate, and neither does the copy of such a record when its page is
/// un-shared from a snapshot. The second element spills to a vector, and a
/// sequence that has spilled keeps its vector, and the vector's capacity,
/// when it drains.
#[derive(Debug, Default)]
enum InlineFirst<T> {
    #[default]
    Empty,
    One(T),
    Spilled(Vec<T>),
}

impl<T> InlineFirst<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            InlineFirst::Empty => &[],
            InlineFirst::One(item) => std::slice::from_ref(item),
            InlineFirst::Spilled(items) => items,
        }
    }

    fn push(&mut self, item: T) {
        match std::mem::take(self) {
            InlineFirst::Empty => *self = InlineFirst::One(item),
            InlineFirst::One(first) => {
                let mut items = Vec::with_capacity(4);
                items.extend([first, item]);
                *self = InlineFirst::Spilled(items);
            }
            InlineFirst::Spilled(mut items) => {
                items.push(item);
                *self = InlineFirst::Spilled(items);
            }
        }
    }

    /// Remove and return the first element `wanted` holds for, keeping the
    /// order of the rest.
    fn take_first(&mut self, wanted: impl Fn(&T) -> bool) -> Option<T> {
        match self {
            InlineFirst::Spilled(items) => {
                let idx = items.iter().position(wanted)?;
                Some(items.remove(idx))
            }
            InlineFirst::One(item) if wanted(item) => match std::mem::take(self) {
                InlineFirst::One(item) => Some(item),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A copy keeps a spilled vector's capacity. Copies take the original's
/// place in a live store (the first write to a page a snapshot shares copies
/// the page), and a vector sized to its length would regrow on its next
/// push. A drained vector is not copied: its copy is empty and allocates
/// nothing until it spills again.
impl<T: Clone> Clone for InlineFirst<T> {
    fn clone(&self) -> Self {
        match self {
            InlineFirst::Empty => InlineFirst::Empty,
            InlineFirst::One(item) => InlineFirst::One(item.clone()),
            InlineFirst::Spilled(items) if items.is_empty() => InlineFirst::Empty,
            InlineFirst::Spilled(items) => {
                let mut copy = Vec::with_capacity(items.capacity());
                copy.extend_from_slice(items);
                InlineFirst::Spilled(copy)
            }
        }
    }
}

/// A record: its committed head (none until first written) plus the options
/// accepted on it and not yet decided (in acceptance order).
#[derive(Debug, Default, Clone)]
pub struct VersionedRecord {
    head: Option<CommittedVersion>,
    pending: InlineFirst<RecordOption>,
}

impl VersionedRecord {
    /// An empty (never-written) record.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current committed version, if the record was ever written.
    pub fn head(&self) -> Option<&CommittedVersion> {
        self.head.as_ref()
    }

    /// Current committed version number (0 if never written).
    pub fn current_version(&self) -> VersionNo {
        self.head.as_ref().map_or(0, |v| v.version)
    }

    /// Current committed value (`Value::None` if never written or deleted).
    pub fn current_value(&self) -> &Value {
        self.head.as_ref().map_or(&Value::None, |v| &v.value)
    }

    /// Number of pending (accepted, undecided) options.
    pub fn pending_count(&self) -> usize {
        self.pending().len()
    }

    /// True if a pending physical option exists.
    pub fn has_pending_physical(&self) -> bool {
        self.pending().iter().any(|o| !o.is_commutative())
    }

    /// The pending options (e.g. for the likelihood model's conflict term).
    pub fn pending(&self) -> &[RecordOption] {
        self.pending.as_slice()
    }

    /// Validate an option against the current state without accepting it.
    pub fn validate(&self, option: &RecordOption) -> Result<(), RejectReason> {
        if self.pending().iter().any(|o| o.txn == option.txn) {
            return Err(RejectReason::DuplicateTxn);
        }
        match &option.op {
            WriteOp::Set(_) | WriteOp::Delete => {
                if let Some(holder) = self.pending().first() {
                    return Err(RejectReason::PendingConflict { holder: holder.txn });
                }
                let actual = self.current_version();
                if option.read_version != actual {
                    return Err(RejectReason::StaleVersion {
                        expected: option.read_version,
                        actual,
                    });
                }
                Ok(())
            }
            WriteOp::Add {
                delta,
                lower,
                upper,
            } => {
                if let Some(phys) = self.pending().iter().find(|o| !o.is_commutative()) {
                    return Err(RejectReason::PendingConflict { holder: phys.txn });
                }
                let Some(cur) = self.current_value().as_int() else {
                    return Err(RejectReason::TypeMismatch);
                };
                // Demarcation: the bound must hold even in the worst case —
                // for the lower bound, assume every pending negative delta
                // commits (and this one, if negative); symmetrically for the
                // upper bound.
                let pending_neg: i64 = self.pending_delta_sum(|d| d < 0);
                let pending_pos: i64 = self.pending_delta_sum(|d| d > 0);
                if let Some(lo) = lower {
                    if cur + pending_neg + delta.min(&0) < *lo {
                        return Err(RejectReason::BoundViolation);
                    }
                }
                if let Some(hi) = upper {
                    if cur + pending_pos + *delta.max(&0) > *hi {
                        return Err(RejectReason::BoundViolation);
                    }
                }
                Ok(())
            }
        }
    }

    fn pending_delta_sum(&self, filter: impl Fn(i64) -> bool) -> i64 {
        self.pending()
            .iter()
            .filter_map(|o| match o.op {
                WriteOp::Add { delta, .. } if filter(delta) => Some(delta),
                _ => None,
            })
            .sum()
    }

    /// Validate and, on success, accept an option (it becomes pending).
    pub fn accept(&mut self, option: RecordOption) -> Result<(), RejectReason> {
        self.validate(&option)?;
        self.pending.push(option);
        Ok(())
    }

    /// Make `version` the head; the head it replaces, if any, goes to the
    /// end of `history`.
    fn advance(&mut self, version: CommittedVersion, history: &mut Vec<CommittedVersion>) {
        if let Some(replaced) = self.head.replace(version) {
            history.push(replaced);
        }
    }

    /// Learn a transaction's outcome. If the transaction has a pending option
    /// here and committed, the option is executed as a new committed version
    /// (the head it replaces goes to `history`). Returns the new version
    /// number if a version was produced.
    pub fn decide(
        &mut self,
        txn: TxnId,
        commit: bool,
        history: &mut Vec<CommittedVersion>,
    ) -> Option<VersionNo> {
        let option = self.pending.take_first(|o| o.txn == txn)?;
        if !commit {
            return None;
        }
        let new_version = self.current_version() + 1;
        let new_value = option.op.apply(self.current_value());
        self.advance(
            CommittedVersion {
                version: new_version,
                value: new_value,
                txn,
            },
            history,
        );
        Some(new_version)
    }

    /// Install a committed version by state transfer (replica convergence
    /// path): drop any pending option of `txn`, and if `version` is newer
    /// than the current version, adopt `(version, value)` as the new head
    /// (the head it replaces goes to `history`). Returns true if the head
    /// advanced.
    pub fn install(
        &mut self,
        version: VersionNo,
        value: Value,
        txn: TxnId,
        history: &mut Vec<CommittedVersion>,
    ) -> bool {
        self.pending.take_first(|o| o.txn == txn);
        if version > self.current_version() {
            self.advance(
                CommittedVersion {
                    version,
                    value,
                    txn,
                },
                history,
            );
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    fn set(t: u64, read_version: VersionNo, v: i64) -> RecordOption {
        RecordOption::new(txn(t), read_version, WriteOp::Set(Value::Int(v)))
    }

    /// Decide with a history the test does not look at.
    fn decide(r: &mut VersionedRecord, t: u64, commit: bool) -> Option<VersionNo> {
        r.decide(txn(t), commit, &mut Vec::new())
    }

    #[test]
    fn fresh_record_is_version_zero_none() {
        let r = VersionedRecord::new();
        assert_eq!(r.current_version(), 0);
        assert_eq!(r.current_value(), &Value::None);
        assert_eq!(r.head(), None);
    }

    #[test]
    fn physical_accept_then_commit_advances_version() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        assert_eq!(r.pending_count(), 1);
        assert_eq!(decide(&mut r, 1, true), Some(1));
        assert_eq!(r.current_version(), 1);
        assert_eq!(r.current_value(), &Value::Int(10));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn abort_discards_option() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        assert_eq!(decide(&mut r, 1, false), None);
        assert_eq!(r.current_version(), 0);
        assert_eq!(r.current_value(), &Value::None);
    }

    #[test]
    fn pending_options_keep_acceptance_order_through_every_representation() {
        let add = |t: u64| RecordOption::new(txn(t), 0, WriteOp::add(1));
        let txns =
            |r: &VersionedRecord| -> Vec<u64> { r.pending().iter().map(|o| o.txn.seq).collect() };
        let mut r = VersionedRecord::new();
        assert!(r.pending().is_empty());
        r.accept(add(1)).unwrap(); // held inline
        assert_eq!(txns(&r), vec![1]);
        assert_eq!(decide(&mut r, 9, true), None, "not this record's");
        assert_eq!(txns(&r), vec![1]);
        r.accept(add(2)).unwrap(); // spills to a vector
        r.accept(add(3)).unwrap();
        assert_eq!(txns(&r), vec![1, 2, 3]);
        assert_eq!(decide(&mut r, 2, false), None);
        assert_eq!(txns(&r), vec![1, 3]);
        assert_eq!(decide(&mut r, 1, true), Some(1));
        assert_eq!(decide(&mut r, 3, true), Some(2));
        assert!(r.pending().is_empty());
        r.accept(add(4)).unwrap(); // the drained vector is reused
        assert_eq!(txns(&r), vec![4]);
        assert_eq!(txns(&r.clone()), vec![4]);
        assert!(r.install(9, Value::Int(0), txn(4), &mut Vec::new()));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn a_copy_keeps_a_spilled_vector_and_drops_a_drained_one() {
        let capacity = |r: &VersionedRecord| match &r.pending {
            InlineFirst::Spilled(items) => Some(items.capacity()),
            _ => None,
        };
        let mut r = VersionedRecord::new();
        for t in 1..=5 {
            r.accept(RecordOption::new(txn(t), 0, WriteOp::add(1)))
                .unwrap();
        }
        decide(&mut r, 1, true);
        let copy = r.clone();
        assert_eq!(copy.pending(), r.pending());
        assert_eq!(capacity(&copy), capacity(&r));
        assert!(capacity(&copy) > Some(copy.pending_count()));
        for t in 2..=5 {
            decide(&mut r, t, false);
        }
        assert!(capacity(&r) > Some(0), "the live record keeps its vector");
        assert!(matches!(r.clone().pending, InlineFirst::Empty));
        assert!(matches!(
            VersionedRecord::new().clone().pending,
            InlineFirst::Empty
        ));
    }

    #[test]
    fn replaced_heads_go_to_the_history_oldest_first() {
        let mut r = VersionedRecord::new();
        let mut history = Vec::new();
        for (t, v) in [(1, 10), (2, 20), (3, 30)] {
            r.accept(set(t, (t - 1) as VersionNo, v)).unwrap();
            assert_eq!(r.decide(txn(t), true, &mut history), Some(t as VersionNo));
        }
        let versions: Vec<VersionNo> = history.iter().map(|v| v.version).collect();
        assert_eq!(versions, vec![1, 2]);
        assert_eq!(history[1].value, Value::Int(20));
        assert_eq!(r.head().map(|v| v.version), Some(3));
        // An abort and a stale install leave both where they are.
        r.accept(set(4, 3, 40)).unwrap();
        assert_eq!(r.decide(txn(4), false, &mut history), None);
        assert!(!r.install(2, Value::Int(0), txn(5), &mut history));
        assert_eq!(history.len(), 2);
        // An install that advances the head pushes the old one.
        assert!(r.install(7, Value::Int(70), txn(6), &mut history));
        assert_eq!(history.last().map(|v| v.version), Some(3));
        assert_eq!(r.current_value(), &Value::Int(70));
    }

    #[test]
    fn a_record_written_once_holds_everything_inline() {
        let mut r = VersionedRecord::new();
        let mut history = Vec::new();
        r.accept(set(1, 0, 10)).unwrap();
        assert!(matches!(r.pending, InlineFirst::One(_)));
        assert_eq!(r.decide(txn(1), true, &mut history), Some(1));
        assert!(matches!(r.pending, InlineFirst::Empty));
        assert!(history.is_empty() && history.capacity() == 0);
        let mut installed = VersionedRecord::new();
        assert!(installed.install(1, Value::Int(10), txn(1), &mut history));
        assert_eq!(installed.head(), r.head());
        assert!(history.is_empty() && history.capacity() == 0);
        // A record is 120 bytes, 56 of them the inline head. The store's
        // history handle is 24 bytes more per key: an empty `Vec`, which
        // allocates nothing until the record's second version.
        assert_eq!(std::mem::size_of::<VersionedRecord>(), 120);
        assert_eq!(std::mem::size_of::<Option<CommittedVersion>>(), 56);
        assert_eq!(std::mem::size_of::<Vec<CommittedVersion>>(), 24);
    }

    /// What a differential step does to both sides.
    fn check_against_model(seq: &InlineFirst<u32>, model: &[u32], seed: u64) {
        assert_eq!(seq.as_slice(), model, "seed {seed}");
        let copy = seq.clone();
        assert_eq!(copy.as_slice(), model, "seed {seed}: the copy");
        match (seq, &copy) {
            (InlineFirst::Spilled(a), InlineFirst::Spilled(b)) => {
                assert_eq!(a.capacity(), b.capacity(), "seed {seed}: capacity kept");
            }
            (InlineFirst::Spilled(a), InlineFirst::Empty) if a.is_empty() => {}
            (InlineFirst::Empty, InlineFirst::Empty)
            | (InlineFirst::One(_), InlineFirst::One(_)) => {}
            _ => panic!("seed {seed}: the copy changed representation"),
        }
    }

    #[test]
    fn the_container_agrees_with_a_plain_vector() {
        use planet_sim::DetRng;
        let (mut inline, mut spilled, mut drained) = (0, 0, 0);
        for seed in 0..256 {
            let mut rng = DetRng::new(seed);
            let mut seq: InlineFirst<u32> = InlineFirst::default();
            let mut model: Vec<u32> = Vec::new();
            let mut next = 0u32;
            for _ in 0..rng.index(60) + 1 {
                // Push as often as take, so sequences grow and drain.
                if rng.bernoulli(0.5) {
                    seq.push(next);
                    model.push(next);
                    next += 1;
                } else {
                    // Take by identity: mostly a held element, sometimes
                    // one never held.
                    let wanted = match model.len() {
                        0 => next,
                        held if rng.bernoulli(0.8) => model[rng.index(held)],
                        _ => rng.index(next as usize + 1) as u32,
                    };
                    let expected = model
                        .iter()
                        .position(|&x| x == wanted)
                        .map(|idx| model.remove(idx));
                    assert_eq!(seq.take_first(|&x| x == wanted), expected, "seed {seed}");
                }
                check_against_model(&seq, &model, seed);
                match &seq {
                    InlineFirst::Spilled(items) if items.is_empty() => drained += 1,
                    InlineFirst::Spilled(_) => spilled += 1,
                    _ => inline += 1,
                }
            }
        }
        // The generator reaches every representation.
        for (what, steps) in [
            ("inline", inline),
            ("spilled", spilled),
            ("drained", drained),
        ] {
            assert!(steps >= 100, "only {steps} {what} steps");
        }
    }

    #[test]
    fn decide_unknown_txn_is_noop() {
        let mut r = VersionedRecord::new();
        assert_eq!(decide(&mut r, 9, true), None);
    }

    #[test]
    fn stale_physical_rejected() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        decide(&mut r, 1, true);
        let err = r.accept(set(2, 0, 20)).unwrap_err();
        assert_eq!(
            err,
            RejectReason::StaleVersion {
                expected: 0,
                actual: 1
            }
        );
        r.accept(set(3, 1, 20)).unwrap();
    }

    #[test]
    fn concurrent_physical_options_conflict() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        let err = r.accept(set(2, 0, 20)).unwrap_err();
        assert_eq!(err, RejectReason::PendingConflict { holder: txn(1) });
    }

    #[test]
    fn duplicate_txn_rejected() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        let dup = RecordOption::new(txn(1), 0, WriteOp::add(1));
        assert_eq!(r.accept(dup).unwrap_err(), RejectReason::DuplicateTxn);
    }

    #[test]
    fn commutative_options_coexist() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 100)).unwrap();
        decide(&mut r, 1, true);
        for t in 2..7 {
            let o = RecordOption::new(txn(t), 0, WriteOp::add_with_floor(-10, 0));
            r.accept(o).unwrap();
        }
        assert_eq!(r.pending_count(), 5);
        // Commit them all; value drains to 50 across versions 2..=6.
        for t in 2..7 {
            decide(&mut r, t, true);
        }
        assert_eq!(r.current_value(), &Value::Int(50));
        assert_eq!(r.current_version(), 6);
    }

    #[test]
    fn demarcation_lower_bound_counts_worst_case() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 25)).unwrap();
        decide(&mut r, 1, true);
        // Two -10s are fine (worst case 5), a third would risk -5.
        r.accept(RecordOption::new(
            txn(2),
            0,
            WriteOp::add_with_floor(-10, 0),
        ))
        .unwrap();
        r.accept(RecordOption::new(
            txn(3),
            0,
            WriteOp::add_with_floor(-10, 0),
        ))
        .unwrap();
        let err = r
            .accept(RecordOption::new(
                txn(4),
                0,
                WriteOp::add_with_floor(-10, 0),
            ))
            .unwrap_err();
        assert_eq!(err, RejectReason::BoundViolation);
        // A positive delta doesn't threaten the floor even now.
        r.accept(RecordOption::new(txn(5), 0, WriteOp::add_with_floor(30, 0)))
            .unwrap();
        // And once one decrement aborts, capacity is released.
        decide(&mut r, 2, false);
        r.accept(RecordOption::new(
            txn(6),
            0,
            WriteOp::add_with_floor(-10, 0),
        ))
        .unwrap();
    }

    #[test]
    fn demarcation_upper_bound() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 90)).unwrap();
        decide(&mut r, 1, true);
        let cap = |t: u64, d: i64| {
            RecordOption::new(
                txn(t),
                0,
                WriteOp::Add {
                    delta: d,
                    lower: None,
                    upper: Some(100),
                },
            )
        };
        r.accept(cap(2, 8)).unwrap();
        assert_eq!(
            r.accept(cap(3, 8)).unwrap_err(),
            RejectReason::BoundViolation
        );
    }

    #[test]
    fn commutative_on_bytes_is_type_mismatch() {
        let mut r = VersionedRecord::new();
        r.accept(RecordOption::new(
            txn(1),
            0,
            WriteOp::Set(Value::from("blob")),
        ))
        .unwrap();
        decide(&mut r, 1, true);
        let err = r
            .accept(RecordOption::new(txn(2), 0, WriteOp::add(1)))
            .unwrap_err();
        assert_eq!(err, RejectReason::TypeMismatch);
    }

    #[test]
    fn physical_blocked_by_pending_commutative() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        decide(&mut r, 1, true);
        r.accept(RecordOption::new(txn(2), 0, WriteOp::add(1)))
            .unwrap();
        let err = r.accept(set(3, 1, 99)).unwrap_err();
        assert_eq!(err, RejectReason::PendingConflict { holder: txn(2) });
        assert!(!r.has_pending_physical());
    }

    #[test]
    fn install_advances_head_and_clears_pending() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        // State transfer from the master: version 3 produced by txn 1.
        assert!(r.install(3, Value::Int(99), txn(1), &mut Vec::new()));
        assert_eq!(r.current_version(), 3);
        assert_eq!(r.current_value(), &Value::Int(99));
        assert_eq!(r.pending_count(), 0);
    }

    #[test]
    fn stale_install_only_clears_pending() {
        let mut r = VersionedRecord::new();
        r.accept(set(1, 0, 10)).unwrap();
        decide(&mut r, 1, true);
        r.accept(set(2, 1, 20)).unwrap();
        // A stale (already superseded) install must not regress the head.
        assert!(!r.install(1, Value::Int(5), txn(2), &mut Vec::new()));
        assert_eq!(r.current_version(), 1);
        assert_eq!(r.current_value(), &Value::Int(10));
        assert_eq!(r.pending_count(), 0);
    }
}
