//! A minimal undo-log transaction layer.
//!
//! Transactions collect undo actions for every mutation applied through the
//! [`Database`](crate::db::Database) facade; rolling back replays them in
//! reverse order.  Aborts must restore consistency exactly because a type
//! error in the middle of a multi-tuple load must not leave half the batch
//! behind.
//!
//! Two usage modes exist.  The *statement-level* mode here
//! (`insert_txn`/`delete_txn`/`update_txn` + `rollback`) makes each
//! statement atomic to concurrent readers but lets them observe the
//! transaction half-done between statements; the *scope* mode
//! ([`Database::transact`](crate::db::Database::transact)) holds the
//! declared relations' write locks for the whole transaction and is fully
//! isolated.  Both restore the partition catalog and every index exactly on
//! abort.

use flexrel_core::tuple::Tuple;

use crate::partition::Rid;

/// One undoable action.
#[derive(Clone, Debug, PartialEq)]
pub enum UndoAction {
    /// A tuple was inserted into `relation` under `rid`; undo by deleting
    /// it (dropping its partition again if it was the partition's only
    /// tuple).
    UndoInsert {
        /// The relation the tuple was inserted into.
        relation: String,
        /// The identifier the insert produced — a fast path that rollback
        /// revalidates: a partition emptied and re-created within the same
        /// transaction reassigns slots, so a recorded rid can drift.
        rid: Rid,
        /// The inserted tuple, used to locate it by value when the rid has
        /// drifted.
        tuple: Tuple,
    },
    /// A tuple was deleted from `relation`; undo by re-inserting it.
    UndoDelete {
        /// The relation the tuple was deleted from.
        relation: String,
        /// The deleted tuple, re-inserted on rollback.
        tuple: Tuple,
    },
    /// A tuple was replaced; undo by removing the replacement and restoring
    /// the previous value (which may live in a different partition when the
    /// update changed the tuple's shape).
    UndoUpdate {
        /// The relation the tuple was replaced in.
        relation: String,
        /// The identifier of the replacement tuple (revalidated like
        /// [`UndoAction::UndoInsert`]'s rid).
        rid: Rid,
        /// The replacement tuple the update inserted, used to locate it by
        /// value when the rid has drifted.
        replacement: Tuple,
        /// The previous tuple, restored on rollback.
        previous: Tuple,
    },
}

/// An open transaction: a log of undo actions.
#[derive(Clone, Debug, Default)]
pub struct Transaction {
    log: Vec<UndoAction>,
    committed: bool,
}

impl Transaction {
    /// Begins an empty transaction.
    pub fn begin() -> Self {
        Transaction {
            log: Vec::new(),
            committed: false,
        }
    }

    /// Records an undo action.
    pub fn record(&mut self, action: UndoAction) {
        self.log.push(action);
    }

    /// Number of logged actions.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// Marks the transaction committed; the log is discarded.
    pub fn commit(&mut self) {
        self.committed = true;
        self.log.clear();
    }

    /// Whether the transaction has been committed.
    pub fn is_committed(&self) -> bool {
        self.committed
    }

    /// Drains the undo actions in reverse (rollback) order.
    pub fn drain_rollback(&mut self) -> Vec<UndoAction> {
        let mut out = std::mem::take(&mut self.log);
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrel_core::tuple;

    #[test]
    fn log_and_rollback_order() {
        let mut txn = Transaction::begin();
        assert!(txn.is_empty());
        let rid = Rid::new(
            tuple! {"x" => 1}.shape_id(),
            crate::column::TupleId::new(0, 0),
        );
        txn.record(UndoAction::UndoInsert {
            relation: "r".into(),
            rid,
            tuple: tuple! {"x" => 1},
        });
        txn.record(UndoAction::UndoDelete {
            relation: "r".into(),
            tuple: tuple! {"x" => 2},
        });
        assert_eq!(txn.len(), 2);
        let actions = txn.drain_rollback();
        assert_eq!(actions.len(), 2);
        assert!(
            matches!(actions[0], UndoAction::UndoDelete { .. }),
            "reverse order"
        );
        assert!(txn.is_empty());
    }

    #[test]
    fn commit_discards_log() {
        let mut txn = Transaction::begin();
        let rid = Rid::new(
            tuple! {"x" => 1}.shape_id(),
            crate::column::TupleId::new(0, 0),
        );
        txn.record(UndoAction::UndoInsert {
            relation: "r".into(),
            rid,
            tuple: tuple! {"x" => 1},
        });
        assert!(!txn.is_committed());
        txn.commit();
        assert!(txn.is_committed());
        assert!(txn.is_empty());
        assert!(txn.drain_rollback().is_empty());
    }
}
