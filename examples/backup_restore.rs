//! Coordinated backup and point-in-time restore (§4.4):
//!
//! "While it is not done regularly, from time to time, a database may be
//! restored to a specific time in the past for auditing purposes ... When
//! external files are referenced and managed by a database, backup and
//! restore of the files and database would need to be done synchronously."
//!
//! A contract document goes through several audited revisions; the auditor
//! later restores the *whole system* — database rows and file contents —
//! to an earlier revision.
//!
//! ```text
//! cargo run --example backup_restore
//! ```

use std::sync::Arc;

use datalinks::core::{DataLinksSystem, DlColumnOptions};
use datalinks::dlfm::{ControlMode, TokenKind};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, Value};

const CLERK: Cred = Cred { uid: 400, gid: 400 };

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_700_000_000_000)))
        .file_server("vault")
        .build()?;

    let raw = sys.raw_fs("vault")?;
    raw.mkdir_p(&Cred::root(), "/contracts", 0o777)?;
    raw.write_file(&CLERK, "/contracts/acme.txt", b"rev 1: draft terms")?;

    sys.create_table(Schema::new(
        "contracts",
        vec![
            Column::new("id", ColumnType::Int),
            Column::new("status", ColumnType::Text),
            Column::nullable("doc", ColumnType::DataLink),
        ],
        "id",
    )?)?;
    // RECOVERY YES keeps every committed version in the archive — the
    // prerequisite for point-in-time restore (as in DB2).
    sys.define_datalink_column(
        "contracts",
        "doc",
        DlColumnOptions::new(ControlMode::Rdd).recovery(true),
    )?;

    let mut tx = sys.begin();
    tx.insert(
        "contracts",
        vec![
            Value::Int(1),
            Value::Text("draft".into()),
            Value::DataLink("dlfs://vault/contracts/acme.txt".into()),
        ],
    )?;
    tx.commit()?;

    // Three audited revisions; remember the state id after each.
    let fs = sys.fs("vault")?;
    let mut states = vec![("rev 1", sys.state_id())];
    for (rev, status) in [(2, "under review"), (3, "signed")] {
        let (_, wpath) =
            sys.select_datalink("contracts", &Value::Int(1), "doc", TokenKind::Write)?;
        let fd = fs.open(&CLERK, &wpath, OpenOptions::write_truncate())?;
        fs.write(fd, format!("rev {rev}: {status} terms").as_bytes())?;
        fs.close(fd)?;
        sys.node("vault")?.server.archive_store().wait_archived("/contracts/acme.txt");

        let mut tx = sys.begin();
        tx.update_column("contracts", &Value::Int(1), "status", Value::Text(status.into()))?;
        tx.commit()?;
        states.push((if rev == 2 { "rev 2" } else { "rev 3" }, sys.state_id()));
        println!("committed revision {rev} ({status}), state id {}", sys.state_id());
    }

    // Nightly backup (database image; file versions live in the archive).
    let backup = sys.backup()?;
    println!("backup taken at state id {}", sys.state_id());

    // The auditor asks: "show me the system as of revision 2."
    let (_, rev2_state) = states[1];
    let (sys, reports) = sys.restore(&backup, rev2_state)?;
    let rolled_back: u64 = reports.values().map(|r| r.versions_rolled_back).sum();
    println!("restored to state {rev2_state}: {rolled_back} file(s) rolled back");

    // Both the row and the file are back at revision 2, in lockstep.
    let row = sys
        .db()
        .get_committed("contracts", &Value::Int(1))
        .map_err(|e| e.to_string())?
        .expect("row");
    let fs = sys.fs("vault")?;
    let (_, rpath) = sys.select_datalink("contracts", &Value::Int(1), "doc", TokenKind::Read)?;
    let fd = fs.open(&CLERK, &rpath, OpenOptions::read_only())?;
    let doc = fs.read_to_end(fd)?;
    fs.close(fd)?;
    println!("status column: {}", row[1]);
    println!("document:      {:?}", String::from_utf8_lossy(&doc));
    assert_eq!(row[1], Value::Text("under review".into()));
    assert_eq!(doc, b"rev 2: under review terms");

    // Normal operation continues from the restored state.
    let (_, wpath) = sys.select_datalink("contracts", &Value::Int(1), "doc", TokenKind::Write)?;
    let fd = fs.open(&CLERK, &wpath, OpenOptions::write_truncate())?;
    fs.write(fd, b"rev 2b: amended after audit")?;
    fs.close(fd)?;
    println!("post-restore update committed");

    println!("backup_restore OK");
    Ok(())
}
