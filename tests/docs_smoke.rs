//! The crate-root rustdoc (`src/lib.rs`) points readers at README.md,
//! DESIGN.md and EXPERIMENTS.md; these tests make every such cross-reference
//! resolve to a real, non-empty file so the doc surface cannot silently rot.

use std::collections::BTreeSet;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `SOMETHING.md` mentioned in the umbrella rustdoc exists.
#[test]
fn lib_rs_doc_references_resolve() {
    let lib = std::fs::read_to_string(repo_root().join("src/lib.rs")).unwrap();
    let mut referenced = BTreeSet::new();
    for line in lib.lines().filter(|l| l.trim_start().starts_with("//!")) {
        for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_')) {
            if word.ends_with(".md") {
                referenced.insert(word.to_string());
            }
        }
    }
    assert!(
        referenced.contains("README.md"),
        "src/lib.rs no longer mentions README.md — update this test and the docs"
    );
    for doc in &referenced {
        let path = repo_root().join(doc);
        assert!(path.is_file(), "src/lib.rs references {doc} but it does not exist");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.len() > 200, "{doc} exists but is effectively empty");
    }
}

/// The promised documents exist and carry their core content.
#[test]
fn promised_docs_have_their_content() {
    for (doc, must_contain) in [
        ("README.md", vec!["cargo build --release", "cargo test", "quickstart", "dl-bench"]),
        ("DESIGN.md", vec!["DATALINK", "rfd", "rdd", "token", "backup"]),
        ("EXPERIMENTS.md", vec!["--bin lab", "report", "BENCH_"]),
        (
            "OPERATIONS.md",
            vec![
                "Provisioning",
                "Monitoring",
                "Checkpoint & truncation tuning",
                "Failover",
                "freshness",
                "Front-end capacity",
                "BENCH_a10",
                "a_log_budget_bounds_both_logs_and_a_fresh_standby_catches_up_by_delta",
                "BENCH_a12",
                "checkpoint_every_bytes",
                "replication_lag",
                "upcall_workers_max",
                "agent_executor_threads",
            ],
        ),
    ] {
        let body = std::fs::read_to_string(repo_root().join(doc))
            .unwrap_or_else(|_| panic!("{doc} missing"));
        for needle in must_contain {
            assert!(body.contains(needle), "{doc} lost its mention of {needle:?}");
        }
    }
}

/// Every backticked symbol OPERATIONS.md names (outside fenced code
/// blocks) still exists in the source tree, and every file path it names
/// still resolves — the runbook cannot drift from the code it operates.
#[test]
fn operations_md_symbols_resolve() {
    let body = std::fs::read_to_string(repo_root().join("OPERATIONS.md")).unwrap();

    // Gather the source corpus the symbols must live in.
    let mut corpus = String::new();
    let mut stack = vec![repo_root().join("crates"), repo_root().join("tests")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                if !path.ends_with("target") {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                corpus.push_str(&std::fs::read_to_string(&path).unwrap());
            }
        }
    }

    let mut checked = 0;
    let mut in_fence = false;
    for line in body.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        for (i, span) in line.split('`').enumerate() {
            if i % 2 == 0 {
                continue; // outside backticks
            }
            // File-path spans must resolve on disk.
            if span.contains('/') && (span.ends_with(".rs") || span.ends_with(".md")) {
                assert!(
                    repo_root().join(span).is_file(),
                    "OPERATIONS.md names {span} but it does not exist"
                );
                checked += 1;
                continue;
            }
            // Symbol spans: `Type::method(...)`, `snake_case_fn`, `Type`.
            let sym = span.split('(').next().unwrap_or_default();
            if sym.is_empty()
                || !sym.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
                || sym.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                continue; // shell lines, flags, numbers — not symbols
            }
            let last = sym.rsplit("::").next().unwrap();
            if last.len() < 4 || last == "true" || last == "false" {
                continue;
            }
            assert!(
                corpus.contains(last),
                "OPERATIONS.md references `{span}` but `{last}` is nowhere in the source tree"
            );
            checked += 1;
        }
    }
    assert!(checked >= 30, "OPERATIONS.md should anchor into the code (found {checked})");
}

/// DESIGN.md's `file.rs:line`-style anchors point at files that exist.
#[test]
fn design_md_anchors_resolve() {
    let body = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    let mut checked = 0;
    for raw in body.split(['`', ' ', '(', ')', '|']) {
        let token = raw.trim_matches(|c: char| !c.is_ascii_graphic());
        // Match `crates/.../x.rs` or `crates/.../x.rs:123`.
        if let Some(path_part) = token.split(':').next() {
            if path_part.starts_with("crates/") && path_part.ends_with(".rs") {
                assert!(
                    repo_root().join(path_part).is_file(),
                    "DESIGN.md anchor {path_part} does not resolve"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "DESIGN.md should anchor into the crates (found {checked})");
}
