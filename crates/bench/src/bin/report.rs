//! Regenerates the paper's evaluation as printable tables.
//!
//! ```text
//! cargo run -p dl-bench --release --bin report            # everything
//! cargo run -p dl-bench --release --bin report -- t1 e3   # a subset
//! cargo run -p dl-bench --release --bin report -- --quick # fewer iterations
//! cargo run -p dl-bench --release --bin report -- --json  # + BENCH_*.json
//! ```
//!
//! With `--json`, each table is additionally written as a
//! `BENCH_<id>.json` trajectory file under `bench-results/` (override the
//! directory with `--json-dir <dir>`); see EXPERIMENTS.md.
//!
//! The system-level experiments (the former a9–a12 runners) now live in
//! the scenario lab: `cargo run -p dl-bench --bin lab -- scenarios/*.jsonl`
//! emits the same `BENCH_a9..a12.json` trajectories, compatible with this
//! binary's `--compare` history.
//!
//! Regression mode:
//!
//! ```text
//! # run experiments, then diff the fresh BENCH_*.json against a saved dir
//! report --json-dir new --compare old [--threshold 25]
//! # pure diff of two saved directories, no experiments run
//! report --compare old --current new [--threshold 25]
//! ```
//!
//! Exits non-zero when any metric regressed beyond the threshold (percent,
//! default 25): numeric cells by relative drift, text cells by inequality,
//! disappeared rows always.
//!
//! Gate mode (no experiments run): compare one numeric cell from each of
//! two trajectory rows — in different files, or a row against a baseline
//! row of its own table, e.g. a14's wire churn throughput against a14's
//! in-process baseline — and fail if the ratio candidate/baseline falls
//! below a floor:
//!
//! ```text
//! report --gate 'bench-results/BENCH_a14.json::local baseline' \
//!               'bench-results/BENCH_a14.json::wire churn' \
//!               --column ops/s --min-ratio 0.12
//! ```

use dl_bench::experiments as exp;
use dl_bench::trajectory;

/// Loads every BENCH_*.json in `dir`, keyed by file stem.
fn load_dir(dir: &str) -> Vec<(String, trajectory::Trajectory)> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("compare: cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(entry.path()).expect("read trajectory");
        match trajectory::parse(&text) {
            Ok(t) => out.push((name, t)),
            Err(e) => {
                eprintln!("compare: skipping {name}: {e}");
            }
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Diffs every trajectory in `current_dir` against its namesake in
/// `baseline_dir`; returns the total regression count.
fn compare_dirs(baseline_dir: &str, current_dir: &str, threshold: f64) -> usize {
    let baseline = load_dir(baseline_dir);
    let current = load_dir(current_dir);
    let mut regressions = 0usize;
    for (name, cur) in &current {
        match baseline.iter().find(|(n, _)| n == name) {
            Some((_, base)) => {
                let report = trajectory::compare(base, cur, threshold);
                print!("{}", trajectory::render(&cur.id, &report, threshold));
                regressions += report.regressions();
            }
            None => println!("== compare {}: no baseline {name} in {baseline_dir} ==", cur.id),
        }
    }
    for (name, base) in &baseline {
        if !current.iter().any(|(n, _)| n == name) {
            println!("== compare {}: {name} missing from current run ==  <-- REGRESSION", base.id);
            regressions += 1;
        }
    }
    println!(
        "\ncompare: {} trajectories, {regressions} regression(s) at threshold {threshold}%",
        current.len()
    );
    regressions
}

/// Loads one side of a `--gate` comparison: `<path>::<row label>`.
fn load_gate_cell(spec: &str, column: &str) -> Result<f64, String> {
    let (path, row) = spec
        .split_once("::")
        .ok_or_else(|| format!("--gate arguments look like <file.json>::<row label>: {spec:?}"))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("gate: cannot read {path}: {e}"))?;
    let t = trajectory::parse(&text).map_err(|e| format!("gate: {path}: {e}"))?;
    trajectory::read_cell(&t, row, column)
}

/// Cross-table single-cell gate; returns the process exit code.
fn run_gate(baseline_spec: &str, candidate_spec: &str, column: &str, min_ratio: f64) -> i32 {
    let cells = load_gate_cell(baseline_spec, column)
        .and_then(|b| load_gate_cell(candidate_spec, column).map(|c| (b, c)));
    let (base, cand) = match cells {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    if base <= 0.0 {
        eprintln!("gate: baseline cell {baseline_spec:?} / {column:?} is {base}, cannot ratio");
        return 2;
    }
    let ratio = cand / base;
    let verdict = if ratio >= min_ratio { "PASS" } else { "FAIL" };
    println!(
        "gate [{column}]: candidate {cand:.1} vs baseline {base:.1} -> ratio {ratio:.3} \
         (floor {min_ratio}) {verdict}"
    );
    if ratio >= min_ratio {
        0
    } else {
        1
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<String> = None;
    let mut compare_dir: Option<String> = None;
    let mut current_dir: Option<String> = None;
    let mut gate: Option<(String, String)> = None;
    let mut gate_column = "ops/s".to_string();
    let mut min_ratio: f64 = 0.05;
    let mut threshold: f64 = 25.0;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.iter();
    let dir_value = |flag: &str, v: Option<&String>| -> String {
        v.filter(|d| !d.starts_with("--"))
            .unwrap_or_else(|| panic!("{flag} needs a directory argument"))
            .clone()
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = json_dir.or_else(|| Some("bench-results".to_string())),
            "--json-dir" => json_dir = Some(dir_value("--json-dir", it.next())),
            "--compare" => compare_dir = Some(dir_value("--compare", it.next())),
            "--current" => current_dir = Some(dir_value("--current", it.next())),
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .expect("--threshold needs a percent value");
            }
            "--gate" => {
                let base = it.next().expect("--gate needs <file.json>::<row> twice").clone();
                let cand = it.next().expect("--gate needs a second <file.json>::<row>").clone();
                gate = Some((base, cand));
            }
            "--column" => {
                gate_column = it.next().expect("--column needs a header name").clone();
            }
            "--min-ratio" => {
                min_ratio = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .expect("--min-ratio needs a number");
            }
            _ => {
                if let Some(dir) = a.strip_prefix("--json-dir=") {
                    json_dir = Some(dir.to_string());
                } else if let Some(dir) = a.strip_prefix("--compare=") {
                    compare_dir = Some(dir.to_string());
                } else if let Some(dir) = a.strip_prefix("--current=") {
                    current_dir = Some(dir.to_string());
                } else if let Some(pct) = a.strip_prefix("--threshold=") {
                    threshold = pct.parse::<f64>().expect("--threshold needs a percent value");
                } else {
                    args.push(a.to_lowercase());
                }
            }
        }
    }

    // Cross-table gate mode: one cell from each of two files, no
    // experiments run.
    if let Some((base, cand)) = &gate {
        std::process::exit(run_gate(base, cand, &gate_column, min_ratio));
    }

    // Pure diff mode: two saved directories, no experiments run.
    if let (Some(baseline), Some(current)) = (&compare_dir, &current_dir) {
        let regressions = compare_dirs(baseline, current, threshold);
        std::process::exit(if regressions > 0 { 1 } else { 0 });
    }
    if compare_dir.is_some() && json_dir.is_none() {
        // Comparing a fresh run requires writing it somewhere first.
        json_dir = Some("bench-results".to_string());
    }

    let quick = args.iter().any(|a| a == "--quick");
    let filter: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let want = |id: &str| filter.is_empty() || filter.iter().any(|f| f.as_str() == id);

    let iters: u64 = if quick { 50 } else { 500 };
    let heavy_iters: u64 = if quick { 5 } else { 25 };

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json output dir");
    }
    // Print the table; with --json also drop BENCH_<id>.json. A multi-table
    // experiment (e3) lands as BENCH_<id>.json and BENCH_<id>_2.json etc.
    let mut emitted: Vec<String> = Vec::new();
    let mut emit = |table: exp::Table| {
        println!("{}", table.render());
        if let Some(dir) = &json_dir {
            let dups = emitted.iter().filter(|id| id.as_str() == table.id).count();
            let name = if dups == 0 {
                format!("{dir}/BENCH_{}.json", table.id)
            } else {
                format!("{dir}/BENCH_{}_{}.json", table.id, dups + 1)
            };
            std::fs::write(&name, table.to_json()).expect("write BENCH json");
            emitted.push(table.id.to_string());
        }
    };

    println!("DataLinks update-in-place — experiment report");
    println!(
        "(reproducing Mittal & Hsiao, ICDE 2001; shapes matter, absolute numbers are this \
         machine's)\n"
    );

    if want("t1") {
        emit(exp::t1_control_modes());
    }
    if want("e1") {
        emit(exp::e1_select_datalink(iters * 4));
    }
    if want("e2") {
        emit(exp::e2_open_close_overhead(iters));
    }
    if want("e3") {
        emit(exp::e3_read_overhead_sweep(heavy_iters, false));
        emit(exp::e3_read_overhead_sweep(heavy_iters, true));
    }
    if want("e4") {
        emit(exp::e4_open_write_modes(iters));
    }
    if want("a1") {
        let (writers, updates) = if quick { (4, 5) } else { (8, 25) };
        emit(exp::a1_disciplines(writers, updates));
    }
    if want("a2") {
        emit(exp::a2_txn_boundary(&[1, 8, 64, 256]));
    }
    if want("a3") {
        emit(exp::a3_read_path(iters));
    }
    if want("a4") {
        emit(exp::a4_sync_table_cost(iters));
    }
    if want("a5") {
        emit(exp::a5_archive_async(&[64, 512, 2048], heavy_iters));
    }
    if want("a6") {
        emit(exp::a6_crash_atomicity(if quick { 3 } else { 10 }));
    }
    if want("a7") {
        emit(exp::a7_point_in_time(5));
    }
    if want("a8") {
        emit(exp::a8_strict_link(iters));
    }
    if want("appendix") || filter.is_empty() {
        let mut rows = Vec::new();
        for mode in
            [dl_core::ControlMode::Rff, dl_core::ControlMode::Rfd, dl_core::ControlMode::Rdd]
        {
            let (p50, p99, max) =
                exp::open_latency_distribution(mode, if quick { 50 } else { 400 });
            rows.push(vec![
                mode.to_string(),
                dl_bench::fmt_ns(p50 as f64),
                dl_bench::fmt_ns(p99 as f64),
                dl_bench::fmt_ns(max as f64),
            ]);
        }
        emit(exp::Table {
            id: "appendix".into(),
            title: "read-open latency distribution by mode".to_string(),
            header: vec!["mode".into(), "p50".into(), "p99".into(), "max".into()],
            rows,
            notes: Vec::new(),
        });
    }

    // Fresh-run compare: diff what we just wrote against the baseline dir.
    if let Some(baseline) = &compare_dir {
        let current = json_dir.as_deref().expect("compare mode implies a json dir");
        let regressions = compare_dirs(baseline, current, threshold);
        std::process::exit(if regressions > 0 { 1 } else { 0 });
    }
}
