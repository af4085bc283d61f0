//! End-to-end coverage of the scenario lab's injection hooks, driven the
//! same way the `lab` binary drives them: load a declarative scenario
//! file, expand it into a trial plan, and run it against a live
//! `DataLinksSystem`.
//!
//! The heavyweight check here is the crash-injection path: crashing the
//! primary at a declared operation index must produce exactly one
//! failover and lose zero acknowledged links. The cheaper checks keep
//! every shipped scenario file parseable and its expansion deterministic,
//! so `ci.sh`'s lab gate can't be broken by a stray scenario edit.

use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ exists at the repo root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_shipped_scenario_parses_and_expands_deterministically() {
    let files = scenario_files();
    assert!(
        files.len() >= 8,
        "expected the a10, a12-a14 ports plus fault scenarios, got {files:?}"
    );
    for file in files {
        let sc = dl_lab::load_scenario(&file)
            .unwrap_or_else(|e| panic!("{}: schema error: {e}", file.display()));
        assert!(!sc.variants.is_empty(), "{}: no variants", file.display());
        assert!(!sc.asserts.is_empty(), "{}: scenario declares no assertions", file.display());
        let a = dl_lab::expand(&sc, true)
            .unwrap_or_else(|e| panic!("{}: plan expansion failed: {e}", file.display()));
        let b = dl_lab::expand(&sc, true).unwrap();
        let seeds_a: Vec<u64> = a.trials.iter().map(|t| t.seed).collect();
        let seeds_b: Vec<u64> = b.trials.iter().map(|t| t.seed).collect();
        assert_eq!(seeds_a, seeds_b, "{}: plan expansion is not deterministic", file.display());
        assert!(!a.trials.is_empty(), "{}: empty trial plan", file.display());
    }
}

#[test]
fn crash_injection_fails_over_once_and_loses_no_acked_links() {
    // The declared injection point (`crash_primary` at op N) must fire
    // through the lab's generic engine loop: exactly one failover, every
    // link acknowledged before the crash intact on the promoted standby,
    // and the remaining operations served by the new primary.
    let file = scenarios_dir().join("kill_primary_mid_burst.jsonl");
    let sc = dl_lab::load_scenario(&file).expect("shipped scenario parses");
    let run = dl_bench::lab::run_scenario(&sc, true, None).expect("scenario runs");

    assert_eq!(run.metrics.get("failovers"), Some(&1.0), "metrics: {:?}", run.metrics);
    assert_eq!(run.metrics.get("lost_acked_links"), Some(&0.0), "metrics: {:?}", run.metrics);
    assert_eq!(run.metrics.get("ops_failed"), Some(&0.0), "metrics: {:?}", run.metrics);

    // And the scenario's own declared predicates agree.
    let outcomes = dl_bench::lab::check_asserts(&sc, &run.metrics);
    assert!(!outcomes.is_empty());
    for outcome in outcomes {
        assert!(outcome.pass, "declared assertion failed: {}", outcome.text);
    }
}
