//! The change-transaction log — an audit *view* over the write-ahead log.
//!
//! Every committed change transaction — ad-hoc instance deviation or type
//! evolution — leaves one [`TxnRecord`]: what was changed, in which
//! order, and the recorded inverse of each operation (the rollback
//! material). The log is the durable audit trail the engine's monitoring
//! component summarises, and it rides along in persistence snapshots so a
//! restored system keeps its change history.
//!
//! Since the durability subsystem landed, the records themselves live in
//! the [`WriteAheadLog`]: commit paths append one WAL record that carries
//! both the instance (or type) change and the embedded `TxnRecord`, and `TxnLog`
//! is a cheap handle exposing the transaction projection of that log.
//! The old standalone locked `Vec` with its own global sequence is gone —
//! there is one log, and this is a view of it.

use crate::wal::WriteAheadLog;
use adept_core::ChangeOp;
use adept_model::InstanceId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// What a transaction changed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TxnTarget {
    /// An ad-hoc change of one instance.
    Instance(InstanceId),
    /// A type evolution producing a new schema version.
    Type {
        /// Process type name.
        name: String,
        /// The version the evolution produced.
        new_version: u32,
    },
}

impl fmt::Display for TxnTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnTarget::Instance(id) => write!(f, "{id}"),
            TxnTarget::Type { name, new_version } => write!(f, "\"{name}\" -> V{new_version}"),
        }
    }
}

/// One committed change transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Monotonic commit sequence number (1-based).
    pub seq: u64,
    /// What was changed.
    pub target: TxnTarget,
    /// The requested operations, in staging order.
    pub ops: Vec<ChangeOp>,
    /// Per operation: the inverse that would undo it, when invertible.
    pub inverses: Vec<Option<ChangeOp>>,
}

impl fmt::Display for TxnRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn #{} {}: ", self.seq, self.target)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// The transaction-log view. Clone-cheap (an `Arc` over the WAL); commit
/// order is the sequence order.
#[derive(Debug, Clone)]
pub struct TxnLog {
    wal: Arc<WriteAheadLog>,
}

impl Default for TxnLog {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnLog {
    /// An empty log over a disabled (in-memory view only) WAL.
    pub fn new() -> Self {
        Self {
            wal: Arc::new(WriteAheadLog::disabled()),
        }
    }

    /// The transaction view of an existing write-ahead log.
    pub fn over(wal: Arc<WriteAheadLog>) -> Self {
        Self { wal }
    }

    /// The underlying write-ahead log.
    pub fn wal(&self) -> &Arc<WriteAheadLog> {
        &self.wal
    }

    /// Rebuilds a log from persisted records (ordered by `seq`) over a
    /// disabled WAL.
    pub fn from_records(records: Vec<TxnRecord>) -> Self {
        let log = Self::new();
        log.wal.seed_txns(records);
        log
    }

    /// A snapshot of all records in commit order.
    pub fn records(&self) -> Vec<TxnRecord> {
        self.wal.txn_records()
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.wal.txn_len()
    }

    /// Whether nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use adept_core::NewActivity;
    use adept_model::NodeId;

    fn sample_ops() -> (Vec<ChangeOp>, Vec<Option<ChangeOp>>) {
        let op = ChangeOp::SerialInsert {
            activity: NewActivity::named("x"),
            pred: NodeId(1),
            succ: NodeId(2),
        };
        let inv = ChangeOp::DeleteActivity { node: NodeId(90) };
        (vec![op], vec![Some(inv)])
    }

    /// Journals one audit-only transaction record through `log`'s WAL.
    fn commit(log: &TxnLog, target: TxnTarget) -> u64 {
        let (ops, inverses) = sample_ops();
        log.wal()
            .append_txn(|seq| {
                let record = TxnRecord {
                    seq,
                    target,
                    ops,
                    inverses,
                };
                (
                    WalRecord::Txn {
                        record: record.clone(),
                    },
                    record,
                )
            })
            .unwrap()
            .txn_seq
    }

    #[test]
    fn append_assigns_monotonic_sequence() {
        let log = TxnLog::new();
        assert!(log.is_empty());
        let s1 = commit(&log, TxnTarget::Instance(InstanceId(1)));
        let s2 = commit(
            &log,
            TxnTarget::Type {
                name: "order".into(),
                new_version: 2,
            },
        );
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(log.len(), 2);
        let recs = log.records();
        assert!(recs[0].to_string().contains("txn #1 I1"));
        assert!(recs[1].to_string().contains("\"order\" -> V2"));
    }

    #[test]
    fn view_over_shared_wal_sees_commits() {
        let wal = Arc::new(WriteAheadLog::disabled());
        let log = TxnLog::over(Arc::clone(&wal));
        commit(&log, TxnTarget::Instance(InstanceId(1)));
        assert_eq!(wal.txn_len(), 1, "the view writes through to the WAL");
        assert_eq!(TxnLog::over(wal).len(), 1);
    }
}
