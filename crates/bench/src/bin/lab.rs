//! Scenario-lab runner: loads declarative scenario files, expands each
//! into its `variant × repeat` trial plan, drives the trials against a
//! live system and checks the scenario's own assertion predicates.
//!
//!     lab [--quick] [--json] [--json-dir DIR] <scenario.jsonl>...
//!
//! * `--quick` applies each scenario's `"quick"` parameter overrides
//!   (the CI shape).
//! * `--json` / `--json-dir DIR` write one `BENCH_<scenario>.json` per
//!   scenario (the table as printed; EXPERIMENTS.md has the format).
//! * `DL_FLIGHT_DUMP_DIR=DIR` in the environment makes the fault
//!   scenarios' systems write their flight-recorder dumps there.
//!
//! Exit status: `0` all scenarios ran and every predicate held, `1` at
//! least one predicate failed (or a trial errored), `2` a scenario file
//! failed to parse or declared an impossible configuration. Each failed
//! predicate is printed to stderr as well (scenario, predicate, measured
//! value), so a run with stdout discarded still names it.

use std::path::PathBuf;
use std::process::ExitCode;

use dl_bench::lab::{check_asserts, run_scenario};

/// The fault scenarios panic on purpose (`lab: injected ...`), and an
/// in-process call is served on its caller's thread, so those unwind on the
/// lab's own client threads: keep them out of the report. Every other
/// panic prints as usual.
fn quiet_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !dl_dlfm::pool::panic_message(info.payload()).starts_with("lab: injected") {
            default(info);
        }
    }));
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let mut quick = false;
    let mut json = false;
    let mut json_dir: Option<PathBuf> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json" => json = true,
            "--json-dir" => match args.next() {
                Some(d) => json_dir = Some(PathBuf::from(d)),
                None => return usage("--json-dir needs a directory"),
            },
            other if other.starts_with("--json-dir=") => {
                json_dir = Some(PathBuf::from(&other["--json-dir=".len()..]));
            }
            "--help" | "-h" => {
                println!("usage: lab [--quick] [--json] [--json-dir DIR] <scenario.jsonl>...");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => return usage(&format!("unknown flag {other}")),
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        return usage("no scenario files given");
    }
    let out_dir = json_dir.or_else(|| json.then(|| PathBuf::from(".")));
    let flight_dump_dir =
        std::env::var_os("DL_FLIGHT_DUMP_DIR").filter(|d| !d.is_empty()).map(PathBuf::from);

    // Parse everything up front: a malformed scenario is a configuration
    // error (exit 2) and should surface before any trial burns time.
    let mut scenarios = Vec::new();
    for path in &files {
        match dl_lab::load_scenario(std::path::Path::new(path)) {
            Ok(sc) => scenarios.push(sc),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut failed_asserts = 0usize;
    for sc in &scenarios {
        let run = match run_scenario(sc, quick, flight_dump_dir.as_deref()) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        println!("{}", run.table.render());
        for outcome in check_asserts(sc, &run.metrics) {
            let verdict = if outcome.pass { "PASS" } else { "FAIL" };
            println!("  assert {}: {verdict}", outcome.text);
            if !outcome.pass {
                // Also on stderr, so a run whose stdout is discarded still
                // says which assert failed and what it measured.
                eprintln!("lab: FAIL {}: assert {}", sc.name, outcome.text);
                failed_asserts += 1;
            }
        }
        println!();
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            let path = dir.join(format!("BENCH_{}.json", run.table.id));
            if let Err(e) = std::fs::write(&path, run.table.to_json()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", path.display());
        }
    }

    if failed_asserts > 0 {
        eprintln!(
            "lab: {failed_asserts} assertion(s) FAILED across {} scenario(s)",
            scenarios.len()
        );
        ExitCode::FAILURE
    } else {
        println!("lab: {} scenario(s), all assertions passed", scenarios.len());
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("usage: lab [--quick] [--json] [--json-dir DIR] <scenario.jsonl>...");
    ExitCode::from(2)
}
