//! Write-ahead log and crash recovery.
//!
//! Every state transition a replica performs — accepting an option, learning
//! a decision — is logged before it is applied. Replaying the log into a
//! fresh [`Store`] reconstructs the same state — every key's head version,
//! value and pending options, under the same key ids — which is both the
//! recovery story and a powerful testing oracle (see the property tests in
//! `replica.rs`). A checkpoint snapshot holds heads and pending options, so
//! the log is also where a record's older versions are:
//! [`Replica::versions`](crate::Replica::versions) replays one key's chain
//! from its checkpointed head through the tail.

use crate::options::RecordOption;
use crate::record::CommittedVersion;
use crate::store::{Store, StoreSnapshot};
use crate::types::{Key, KeyId, TxnId};

/// One logged state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An option was validated and accepted on `key`.
    OptionAccepted {
        /// The record the option applies to.
        key: Key,
        /// The accepted option.
        option: RecordOption,
    },
    /// A transaction outcome was learned for `key`.
    Decided {
        /// The record the decision applies to.
        key: Key,
        /// The deciding transaction.
        txn: TxnId,
        /// `true` for commit, `false` for abort.
        commit: bool,
    },
    /// A committed version was installed by state transfer from the key's
    /// master (replica convergence path).
    Installed {
        /// The record.
        key: Key,
        /// Master-assigned version number.
        version: crate::types::VersionNo,
        /// The committed value.
        value: crate::types::Value,
        /// The transaction that produced it.
        txn: TxnId,
    },
}

/// An append-only log with a durable high-water mark and an optional
/// checkpoint base.
///
/// Without checkpoints the log grows without bound under sustained load.
/// [`Wal::checkpoint`] snapshots the live store and drops every record at
/// or below the durable mark; [`Wal::replay`] then starts from the snapshot
/// and applies only the retained tail. Log sequence numbers are global and
/// monotonic across checkpoints (`base_lsn` remembers how many records were
/// folded into the snapshot).
///
/// The snapshot shares its pages with the live store (see
/// [`Store::snapshot`]), so `checkpoint` and `clone` cost O(pages) pointer
/// copies plus the tail, whatever the store holds. The snapshot a
/// checkpoint replaces goes back to the store (`Store::recycle`), whose
/// next snapshot and page copies reuse the pages only it still held.
///
/// ```
/// use planet_storage::{Key, LogRecord, RecordOption, TxnId, Value, Wal, WriteOp};
///
/// let mut wal = Wal::new();
/// let key = Key::new("a");
/// let txn = TxnId::new(0, 1);
/// wal.append(LogRecord::OptionAccepted {
///     key: key.clone(),
///     option: RecordOption::new(txn, 0, WriteOp::Set(Value::Int(7))),
/// });
/// wal.append(LogRecord::Decided { key: key.clone(), txn, commit: true });
/// let store = wal.replay();
/// assert_eq!(store.read(&key).value, Value::Int(7));
/// ```
#[derive(Debug, Default, Clone)]
pub struct Wal {
    /// Store state as of `base_lsn` (everything below it, applied).
    snapshot: Option<StoreSnapshot>,
    /// Global lsn of the first record in `records`.
    base_lsn: u64,
    /// The retained log tail.
    records: Vec<LogRecord>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, returning its (global) log sequence number.
    pub fn append(&mut self, record: LogRecord) -> u64 {
        self.records.push(record);
        self.base_lsn + self.records.len() as u64 - 1
    }

    /// Number of records in the retained tail (records folded into the
    /// checkpoint snapshot no longer count).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the retained tail is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The retained records, in order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// The global lsn the next [`Wal::append`] will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.base_lsn + self.records.len() as u64
    }

    /// The global lsn of the first retained record (records below this live
    /// only inside the checkpoint snapshot).
    pub fn base_lsn(&self) -> u64 {
        self.base_lsn
    }

    /// Truncate the *tail* to the first `len` retained records — models
    /// losing the un-flushed tail in a crash.
    pub fn truncate(&mut self, len: usize) {
        self.records.truncate(len);
    }

    /// Drop every retained record with lsn below `mark` (exclusive). The
    /// caller asserts that state up to `mark` is durable elsewhere — i.e. a
    /// snapshot installed via [`Wal::install_snapshot`] covers it. Marks
    /// below the current base are a no-op; marks beyond the durable end are
    /// clamped.
    pub fn truncate_to(&mut self, mark: u64) {
        let mark = mark.clamp(self.base_lsn, self.next_lsn());
        let drop_n = (mark - self.base_lsn) as usize;
        self.records.drain(..drop_n);
        self.base_lsn = mark;
    }

    /// Install a point-in-time store snapshot covering everything below the
    /// current base lsn. Replay starts from it instead of an empty store.
    pub fn install_snapshot(&mut self, snapshot: StoreSnapshot) {
        self.snapshot = Some(snapshot);
    }

    /// Checkpoint: install a snapshot of `store` as the image of everything
    /// logged so far and drop the entire retained tail. After this,
    /// [`Wal::replay`] returns the snapshot plus any records appended later.
    /// The snapshot it replaces goes back to `store` first, so the new one
    /// can freeze its pages into the old one's spares.
    pub fn checkpoint(&mut self, store: &mut Store) {
        let mark = self.next_lsn();
        if let Some(replaced) = self.snapshot.take() {
            store.recycle(replaced);
        }
        self.install_snapshot(store.snapshot());
        self.truncate_to(mark);
    }

    /// True if a checkpoint snapshot is installed.
    pub fn has_snapshot(&self) -> bool {
        self.snapshot.is_some()
    }

    /// Replay the log into a store: the checkpoint snapshot (or a fresh
    /// store), plus the retained tail. Replay is forgiving: records that
    /// no longer validate (possible only with a corrupted/truncated log) are
    /// skipped rather than panicking, matching how a recovering replica must
    /// treat a torn log tail.
    pub fn replay(&self) -> Store {
        let mut store = self
            .snapshot
            .as_ref()
            .map(Store::from_snapshot)
            .unwrap_or_default();
        for rec in &self.records {
            match rec {
                LogRecord::OptionAccepted { key, option } => {
                    let _ = store.accept(key, option.clone());
                }
                LogRecord::Decided { key, txn, commit } => {
                    let _ = store.decide(key, *txn, *commit);
                }
                LogRecord::Installed {
                    key,
                    version,
                    value,
                    txn,
                } => {
                    let _ = store.install(key, *version, value.clone(), *txn);
                }
            }
        }
        store
    }

    /// The committed versions `key` went through, oldest first: its head in
    /// the checkpoint snapshot, if it has one, then every head the retained
    /// tail produced, replayed on that record alone through the
    /// [`VersionedRecord`](crate::VersionedRecord) calls [`Wal::replay`]
    /// makes. `id` is the key's id in the store this log backs, if it has
    /// one (a key the snapshot holds always does). A log that was never
    /// checkpointed holds the key's whole chain. O(tail): a checker's read,
    /// not the hot path's.
    pub(crate) fn versions(&self, id: Option<KeyId>, key: &Key) -> Vec<CommittedVersion> {
        let mut record = self
            .snapshot
            .as_ref()
            .zip(id)
            .and_then(|(snapshot, id)| snapshot.record(id, key))
            .cloned()
            .unwrap_or_default();
        let mut chain: Vec<CommittedVersion> = record.head().cloned().into_iter().collect();
        for rec in &self.records {
            let advanced = match rec {
                LogRecord::OptionAccepted { key: k, option } if k == key => {
                    let _ = record.accept(option.clone());
                    false
                }
                LogRecord::Decided {
                    key: k,
                    txn,
                    commit,
                } if k == key => record.decide(*txn, *commit).is_some(),
                LogRecord::Installed {
                    key: k,
                    version,
                    value,
                    txn,
                } if k == key => record.install(*version, value.clone(), *txn),
                _ => false,
            };
            if advanced {
                chain.extend(record.head().cloned());
            }
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::WriteOp;
    use crate::types::Value;

    fn txn(n: u64) -> TxnId {
        TxnId::new(0, n)
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let mut wal = Wal::new();
        let k = Key::new("a");
        let o = RecordOption::new(txn(1), 0, WriteOp::add(1));
        assert_eq!(
            wal.append(LogRecord::OptionAccepted {
                key: k.clone(),
                option: o
            }),
            0
        );
        assert_eq!(
            wal.append(LogRecord::Decided {
                key: k,
                txn: txn(1),
                commit: true
            }),
            1
        );
        assert_eq!(wal.len(), 2);
        assert!(!wal.is_empty());
    }

    #[test]
    fn replay_reconstructs_state() {
        let mut wal = Wal::new();
        let k = Key::new("balance");
        wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(100))),
        });
        wal.append(LogRecord::Decided {
            key: k.clone(),
            txn: txn(1),
            commit: true,
        });
        wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(2), 0, WriteOp::add(-30)),
        });
        wal.append(LogRecord::Decided {
            key: k.clone(),
            txn: txn(2),
            commit: true,
        });
        wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(3), 0, WriteOp::add(-30)),
        });
        // txn 3 still pending at "crash" time.
        let store = wal.replay();
        let r = store.read(&k);
        assert_eq!(r.value, Value::Int(70));
        assert_eq!(r.version, 2);
        assert_eq!(r.pending, 1);
    }

    #[test]
    fn truncated_log_replays_prefix() {
        let mut wal = Wal::new();
        let k = Key::new("a");
        wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(1))),
        });
        wal.append(LogRecord::Decided {
            key: k.clone(),
            txn: txn(1),
            commit: true,
        });
        wal.truncate(1);
        let store = wal.replay();
        let r = store.read(&k);
        assert_eq!(r.version, 0);
        assert_eq!(r.pending, 1);
    }

    #[test]
    fn checkpoint_preserves_replay_and_frees_tail() {
        let mut wal = Wal::new();
        let k = Key::new("a");
        wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(1), 0, WriteOp::Set(Value::Int(10))),
        });
        wal.append(LogRecord::Decided {
            key: k.clone(),
            txn: txn(1),
            commit: true,
        });
        let mut live = wal.replay();
        wal.checkpoint(&mut live);
        assert_eq!(wal.len(), 0, "tail dropped");
        assert_eq!(wal.base_lsn(), 2);
        assert!(wal.has_snapshot());
        // Lsns stay global and monotonic across the checkpoint.
        let lsn = wal.append(LogRecord::OptionAccepted {
            key: k.clone(),
            option: RecordOption::new(txn(2), 1, WriteOp::add(5)),
        });
        assert_eq!(lsn, 2);
        wal.append(LogRecord::Decided {
            key: k.clone(),
            txn: txn(2),
            commit: true,
        });
        let r = wal.replay().read(&k);
        assert_eq!(r.version, 2);
        assert_eq!(r.value, Value::Int(15));
    }

    #[test]
    fn truncate_to_clamps_and_drops_prefix() {
        let mut wal = Wal::new();
        let k = Key::new("a");
        let log_version = |wal: &mut Wal, v: u64| {
            wal.append(LogRecord::OptionAccepted {
                key: k.clone(),
                option: RecordOption::new(txn(v), v - 1, WriteOp::Set(Value::Int(v as i64))),
            });
            wal.append(LogRecord::Decided {
                key: k.clone(),
                txn: txn(v),
                commit: true,
            });
        };
        log_version(&mut wal, 1);
        log_version(&mut wal, 2);
        let mut durable = wal.replay(); // state as of lsn 4
        log_version(&mut wal, 3);
        wal.install_snapshot(durable.snapshot());
        wal.truncate_to(4);
        assert_eq!(wal.base_lsn(), 4);
        assert_eq!(wal.len(), 2, "undurable tail retained");
        let r = wal.replay().read(&k);
        assert_eq!((r.version, r.value), (3, Value::Int(3)));
        // Below-base and beyond-end marks are clamped, not panics.
        wal.truncate_to(0);
        assert_eq!(wal.base_lsn(), 4);
        wal.truncate_to(1_000);
        assert_eq!(wal.base_lsn(), 6);
        assert!(wal.is_empty());
    }
}
