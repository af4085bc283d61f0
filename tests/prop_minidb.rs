//! Property-based tests of the host-database substrate: the committed state
//! visible after any sequence of transactions — including crashes and
//! checkpoints at arbitrary points — must equal a trivial in-memory model
//! replaying only the committed transactions.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use datalinks::minidb::{
    Column, ColumnType, Database, DbError, DbOptions, Participant, Row, Schema, StorageEnv, TxId,
    Txn, Value,
};

#[derive(Debug, Clone)]
enum Step {
    /// Begin a transaction applying `ops`, then commit (true) or abort.
    Txn { ops: Vec<Op>, commit: bool },
    /// Checkpoint (snapshot) the database.
    Checkpoint,
    /// Crash: drop the database object and recover from the environment.
    Crash,
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, String),
    Update(i64, String),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0i64..20, "[a-z]{0,8}").prop_map(|(k, v)| Op::Insert(k, v)),
        (0i64..20, "[a-z]{0,8}").prop_map(|(k, v)| Op::Update(k, v)),
        (0i64..20).prop_map(Op::Delete),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (proptest::collection::vec(op_strategy(), 1..6), any::<bool>())
            .prop_map(|(ops, commit)| Step::Txn { ops, commit }),
        1 => Just(Step::Checkpoint),
        1 => Just(Step::Crash),
    ]
}

fn schema(table: &str) -> Schema {
    Schema::new(
        table,
        vec![Column::new("k", ColumnType::Int), Column::new("v", ColumnType::Text)],
        "k",
    )
    .unwrap()
}

fn row(k: i64, v: &str) -> Row {
    vec![Value::Int(k), Value::Text(v.to_string())]
}

/// Runs `op` against `table` inside `tx`, mirroring it into `shadow` when
/// the statement took effect. A statement that fails on the row's state
/// (duplicate key, missing row) leaves the transaction alive.
fn apply_op(
    tx: &mut Txn,
    table: &str,
    op: &Op,
    shadow: &mut BTreeMap<i64, String>,
) -> Result<(), DbError> {
    let result = match op {
        Op::Insert(k, v) => tx.insert(table, row(*k, v)).map(|()| {
            shadow.insert(*k, v.clone());
        }),
        Op::Update(k, v) => tx.update(table, &Value::Int(*k), row(*k, v)).map(|()| {
            shadow.insert(*k, v.clone());
        }),
        Op::Delete(k) => tx.delete(table, &Value::Int(*k)).map(|()| {
            shadow.remove(k);
        }),
    };
    match result {
        Err(DbError::DuplicateKey(_) | DbError::RowNotFound) => Ok(()),
        other => other,
    }
}

/// The committed rows of `table` as a model-shaped map.
fn committed(db: &Database, table: &str) -> BTreeMap<i64, String> {
    db.scan_committed(table)
        .unwrap()
        .iter()
        .map(|r| (r[0].as_int().unwrap(), r[1].as_text().unwrap().to_string()))
        .collect()
}

/// A 2PC participant that takes any decision.
struct Yes;

impl Participant for Yes {
    fn commit(&self, _txid: TxId) {}
    fn abort(&self, _txid: TxId) {}
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Committed-state equivalence with a model across commits, aborts,
    /// checkpoints and crashes.
    #[test]
    fn recovery_matches_model(steps in proptest::collection::vec(step_strategy(), 1..25)) {
        let env = StorageEnv::mem();
        let mut db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let mut model: BTreeMap<i64, String> = BTreeMap::new();

        for step in steps {
            match step {
                Step::Txn { ops, commit } => {
                    let mut tx = db.begin();
                    let mut shadow = model.clone();
                    let mut ok = true;
                    for op in &ops {
                        if apply_op(&mut tx, "t", op, &mut shadow).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok && commit {
                        tx.commit().unwrap();
                        model = shadow;
                    } else {
                        tx.abort();
                    }
                }
                Step::Checkpoint => {
                    db.checkpoint().unwrap();
                }
                Step::Crash => {
                    drop(db);
                    db = Database::open(env.clone()).unwrap();
                }
            }
            // Invariant: committed view == model at every step boundary.
            prop_assert_eq!(&committed(&db, "t"), &model);
        }

        // Final recovery must also agree.
        drop(db);
        let db = Database::open(env).unwrap();
        prop_assert_eq!(committed(&db, "t"), model);
    }

    /// Checkpoint shipping safety: no interleaving of commits, checkpoints,
    /// checkpoint+truncations, shipping rounds and standby restarts can
    /// make a standby diverge from the primary. `shape` drives which action
    /// runs at each step; the standby may catch up via frames or via a
    /// checkpoint-image install (when a truncation outran its cursor) — the
    /// end state must be identical either way. `flavours` picks what each
    /// committing step is: a plain commit, a coordinator commit with an
    /// enlisted participant, an unforced commit or an abort. At the end the two ways
    /// back — the primary reopened, and the follower (restarted from its
    /// own disks) promoted in place — must be one image.
    #[test]
    fn interleaved_checkpoint_truncate_ship_never_diverges(
        shape in proptest::collection::vec((0u8..8, op_strategy()), 1..24),
        flavours in proptest::collection::vec(0u8..8, 24),
    ) {
        let env = StorageEnv::mem();
        let db = Database::open(env.clone()).unwrap();
        db.create_table(schema("t")).unwrap();
        let standby_env = StorageEnv::mem();
        let follow = || Database::open_follower(standby_env.clone(), DbOptions::default()).unwrap();
        let mut standby = follow();
        // The transaction ids that reached the log.
        let mut logged: Vec<TxId> = Vec::new();

        // One full ship round: frames when available, image install when
        // the primary truncated past the standby's position.
        let ship = |standby: &Database| {
            let feed = db.replication_feed();
            loop {
                match feed.reader().read_from(standby.applied_lsn()) {
                    Ok(frames) => {
                        standby.apply(&frames).unwrap();
                        return;
                    }
                    Err(DbError::TruncatedLog { .. }) => {
                        let snap = feed
                            .latest_checkpoint()
                            .unwrap()
                            .expect("truncated log implies a covering snapshot");
                        standby.install_checkpoint(&snap).unwrap();
                    }
                    Err(e) => panic!("ship failed: {e}"),
                }
            }
        };

        for (step, (action, op)) in shape.into_iter().enumerate() {
            match action {
                // Commits are the common case; apply the op best-effort.
                0..=3 => {
                    let mut tx = db.begin();
                    let txid = tx.id();
                    let tail = db.state_id();
                    let _ = match &op {
                        Op::Insert(k, v) => tx.insert("t", row(*k, v)),
                        Op::Update(k, v) => tx.update("t", &Value::Int(*k), row(*k, v)),
                        Op::Delete(k) => tx.delete("t", &Value::Int(*k)),
                    };
                    match flavours[step] {
                        0..=3 => {
                            tx.commit().unwrap();
                        }
                        4 => {
                            db.enlist_participant(tx.id(), "p", Arc::new(Yes));
                            tx.commit().unwrap();
                        }
                        5 | 6 => {
                            tx.commit_unforced().unwrap();
                        }
                        _ => tx.abort(),
                    }
                    if db.state_id() > tail {
                        logged.push(txid);
                    }
                }
                4 => {
                    db.checkpoint().unwrap();
                }
                5 => {
                    db.checkpoint_and_truncate().unwrap();
                }
                6 => ship(&standby),
                // Replica-node crash: reopen from its own durable state.
                _ => {
                    drop(standby);
                    standby = follow();
                }
            }
        }

        // Final catch-up (the last commit may still be unforced), then
        // the standby must mirror the primary exactly.
        db.flush().unwrap();
        ship(&standby);
        prop_assert_eq!(standby.applied_lsn(), db.durable_lsn());
        prop_assert_eq!(standby.scan_committed("t").unwrap(), db.scan_committed("t").unwrap());

        // And again across a standby restart (its own snapshot + log
        // suffix must reproduce the same state).
        drop(standby);
        let standby = follow();
        prop_assert_eq!(standby.applied_lsn(), db.durable_lsn());
        prop_assert_eq!(standby.scan_committed("t").unwrap(), db.scan_committed("t").unwrap());

        // Two ways back, one image.
        drop(db);
        let primary = Database::open(env).unwrap();
        standby.promote().unwrap();
        let expected = primary.scan_committed("t").unwrap();
        prop_assert_eq!(&standby.scan_committed("t").unwrap(), &expected, "promotion in place");
        // The next transaction id handed out: the primary's own checkpoints
        // also count ids that never reached the log (a transaction with
        // nothing to redo), so it may be further along than the promoted
        // follower. Neither re-issues an id the log has seen.
        let next = standby.begin().id();
        prop_assert!(primary.begin().id() >= next);
        prop_assert!(logged.iter().all(|txid| *txid < next), "{:?} vs next {}", logged, next);
    }

    /// Point-in-time restore returns exactly the state at each commit.
    #[test]
    fn point_in_time_is_exact(values in proptest::collection::vec("[a-z]{1,6}", 2..10)) {
        let env = StorageEnv::mem();
        let db = Database::open(env).unwrap();
        db.create_table(schema("t")).unwrap();

        let mut states = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let mut tx = db.begin();
            if i == 0 {
                tx.insert("t", row(1, v)).unwrap();
            } else {
                tx.update("t", &Value::Int(1), row(1, v)).unwrap();
            }
            states.push((tx.commit().unwrap(), v.clone()));
        }
        let backup = db.backup().unwrap();
        for (state, expect) in &states {
            let restored = datalinks::minidb::backup::restore_to_lsn(&backup, *state).unwrap();
            let got = restored
                .get_committed("t", &Value::Int(1))
                .unwrap()
                .unwrap()[1]
                .as_text()
                .unwrap()
                .to_string();
            prop_assert_eq!(&got, expect);
        }
    }

    /// Values of every type survive a WAL roundtrip through crash recovery.
    #[test]
    fn all_value_types_roundtrip_through_recovery(
        i in any::<i64>(),
        f in any::<f64>(),
        b in any::<bool>(),
        s in "\\PC{0,24}",
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let env = StorageEnv::mem();
        {
            let db = Database::open(env.clone()).unwrap();
            db.create_table(Schema::new(
                "vals",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::nullable("f", ColumnType::Float),
                    Column::nullable("b", ColumnType::Bool),
                    Column::nullable("s", ColumnType::Text),
                    Column::nullable("by", ColumnType::Bytes),
                    Column::nullable("dl", ColumnType::DataLink),
                ],
                "k",
            ).unwrap()).unwrap();
            let mut tx = db.begin();
            tx.insert("vals", vec![
                Value::Int(i),
                Value::Float(f),
                Value::Bool(b),
                Value::Text(s.clone()),
                Value::Bytes(bytes.clone()),
                Value::DataLink(format!("dlfs://s{}", "/p")),
            ]).unwrap();
            tx.commit().unwrap();
        }
        let db = Database::open(env).unwrap();
        let got = db.get_committed("vals", &Value::Int(i)).unwrap().unwrap();
        prop_assert_eq!(got[0].as_int().unwrap(), i);
        match (&got[1], f) {
            (Value::Float(g), want) => prop_assert_eq!(g.to_bits(), want.to_bits()),
            _ => prop_assert!(false, "float variant lost"),
        }
        prop_assert_eq!(&got[3], &Value::Text(s));
        prop_assert_eq!(&got[4], &Value::Bytes(bytes));
    }
}
