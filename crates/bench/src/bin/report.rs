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
//! `BENCH_<id>.json` file under `bench-results/` (override the directory
//! with `--json-dir <dir>`); see EXPERIMENTS.md.
//!
//! These tables reproduce the paper's *shapes*; nothing gates on their
//! timings. Performance numbers come from the repo benchmark
//! (`benchmark/`), invariants under injected faults from the tier-1 fault
//! matrix (`cargo test --test fault_matrix`).

use dl_bench::experiments as exp;

fn main() {
    let mut json_dir: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_dir = json_dir.or_else(|| Some("bench-results".to_string())),
            "--json-dir" => {
                let dir = it.next().filter(|d| !d.starts_with("--"));
                json_dir = Some(dir.expect("--json-dir needs a directory argument"));
            }
            _ => match a.strip_prefix("--json-dir=") {
                Some(dir) => json_dir = Some(dir.to_string()),
                None => args.push(a.to_lowercase()),
            },
        }
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
}
