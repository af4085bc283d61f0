//! Web content management with crash recovery — the paper's motivating
//! e-business workload: "since most static web pages are stored as files in
//! traditional file systems, the technology can be applied to maintain the
//! consistency and referential integrity between a web page and its
//! metadata" (§1), with "mostly read and occasional update" traffic (§3.2).
//!
//! The demo runs a small editor/reader workload, then kills the whole stack
//! mid-edit and shows recovery restoring the last committed page (§4.2).
//!
//! ```text
//! cargo run --example web_cms
//! ```

use std::sync::Arc;

use datalinks::core::{DataLinksSystem, DlColumnOptions};
use datalinks::dlfm::{ControlMode, TokenKind};
use datalinks::fskit::{Cred, OpenOptions, SimClock};
use datalinks::minidb::{Column, ColumnType, Schema, Value};

const EDITOR: Cred = Cred { uid: 300, gid: 300 };
const VISITOR: Cred = Cred { uid: 301, gid: 301 };

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sys = DataLinksSystem::builder()
        .clock(Arc::new(SimClock::new(1_700_000_000_000)))
        .file_server("webfs")
        .build()?;

    let raw = sys.raw_fs("webfs")?;
    raw.mkdir_p(&Cred::root(), "/htdocs", 0o777)?;
    for (name, body) in [
        ("index.html", "<h1>Welcome</h1>"),
        ("pricing.html", "<h1>Pricing: $10</h1>"),
        ("about.html", "<h1>About us</h1>"),
    ] {
        raw.write_file(&EDITOR, &format!("/htdocs/{name}"), body.as_bytes())?;
    }

    // Pages table. rfd mode: reads stay on the plain file-system fast path
    // (the web server needs no tokens), writes are database-managed.
    sys.create_table(Schema::new(
        "pages",
        vec![
            Column::new("slug", ColumnType::Text),
            Column::new("owner", ColumnType::Text),
            Column::nullable("body", ColumnType::DataLink),
        ],
        "slug",
    )?)?;
    sys.define_datalink_column("pages", "body", DlColumnOptions::new(ControlMode::Rfd))?;

    let mut tx = sys.begin();
    for slug in ["index", "pricing", "about"] {
        tx.insert(
            "pages",
            vec![
                Value::Text(slug.into()),
                Value::Text("webteam".into()),
                Value::DataLink(format!("dlfs://webfs/htdocs/{slug}.html")),
            ],
        )?;
    }
    tx.commit()?;
    println!("3 pages linked in rfd mode (tokenless reads, managed writes)");

    // The web server serves pages with zero DataLinks overhead.
    let fs = sys.fs("webfs")?;
    let serve = |path: &str| -> Result<String, Box<dyn std::error::Error>> {
        let fd = fs.open(&VISITOR, path, OpenOptions::read_only())?;
        let body = fs.read_to_end(fd)?;
        fs.close(fd)?;
        Ok(String::from_utf8_lossy(&body).into_owned())
    };
    println!("GET /index.html   -> {}", serve("/htdocs/index.html")?);
    println!("GET /pricing.html -> {}", serve("/htdocs/pricing.html")?);
    let upcalls = sys.dlfs("webfs")?.round_trips();
    println!("upcalls made while serving reads: {upcalls}");

    // An editor publishes a price change: update in place with a token.
    let (_, wpath) =
        sys.select_datalink("pages", &Value::Text("pricing".into()), "body", TokenKind::Write)?;
    let fd = fs.open(&EDITOR, &wpath, OpenOptions::write_truncate())?;
    fs.write(fd, b"<h1>Pricing: $12</h1>")?;
    fs.close(fd)?;
    println!("published: {}", serve("/htdocs/pricing.html")?);
    sys.node("webfs")?.server.archive_store().wait_archived("/htdocs/pricing.html");

    // Another editor starts a rewrite... and the machine dies mid-edit.
    let (_, wpath) =
        sys.select_datalink("pages", &Value::Text("pricing".into()), "body", TokenKind::Write)?;
    let fd = fs.open(&EDITOR, &wpath, OpenOptions::write_truncate())?;
    fs.write(fd, b"<h1>Pric")?; // half a page
    println!("editor mid-rewrite; pulling the plug now...");
    let _torn_fd = fd; // never closed: the crash takes it down

    let image = sys.crash();
    let (sys, reports) = DataLinksSystem::recover(image)?;
    println!(
        "recovered: {} in-flight update(s) rolled back on webfs",
        reports["webfs"].updates_rolled_back
    );

    // The site serves the last committed page, not the torn edit (§4.2).
    let fs = sys.fs("webfs")?;
    let fd = fs.open(&VISITOR, "/htdocs/pricing.html", OpenOptions::read_only())?;
    let body = fs.read_to_end(fd)?;
    fs.close(fd)?;
    let page = String::from_utf8_lossy(&body);
    println!("GET /pricing.html after recovery -> {page}");
    assert_eq!(page, "<h1>Pricing: $12</h1>");

    // The torn bytes were quarantined, not lost, for post-mortems.
    let quarantined = sys.node("webfs")?.server.archive_store().quarantined();
    println!("quarantined in-flight images: {quarantined:?}");

    println!("web_cms OK");
    Ok(())
}
