//! The repo benchmark: four paper-shaped workloads driven through the
//! public API, end-to-end metrics from untraced runs, per-layer metrics
//! from a separate traced run. See README.md beside this package.
//!
//! ```text
//! dl-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run; last line is JSON
//! dl-benchmark [--seed N] [--seconds S] [--json FILE]             all workloads, both modes
//! dl-benchmark --check-repeat [--seed N] [--seconds S]            all of it twice, compared
//! ```

mod client;
mod episode;
mod layers;
mod metrics;
mod ops;
mod proc;
mod report;
mod rng;
mod stamp;
mod stats;
mod system;
mod trace;

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{Better, MetricDef, END_TO_END, EXACT_COUNTS, PER_LAYER};
use ops::{Workload, WORKLOADS};
use report::{Measured, Phase};

/// Stream coordinate of episode seeds (see `rng::derive`).
const EPISODE_STREAM: u64 = 0xE;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    json: Option<PathBuf>,
    check_repeat: bool,
    phase: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: default_out(),
        json: None,
        check_repeat: false,
        phase: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-repeat" {
            args.check_repeat = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {names:?}")
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().ok().filter(|s: &f64| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            "--json" => args.json = Some(PathBuf::from(value)),
            "--phase" => args.phase = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// `<this package>/out`, relative to the working directory when it lies
/// beneath it: Unix-socket paths are capped near 100 bytes and the wire
/// workload binds its sockets under here.
fn default_out() -> PathBuf {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    match std::env::current_dir() {
        Ok(cwd) => out.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(out),
        Err(_) => out,
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let slack = proc::pin_timer_slack()?;
        match &args.phase {
            Some(phase) => run_phase(&args, phase).map(|()| true),
            None => {
                println!("env.timer_slack_ns {slack}");
                let ok = if args.check_repeat {
                    check_repeat(&args)
                } else if let Some(workload) = args.workload {
                    run(workload, &args, args.trace).map(|r| r.print_json())
                } else {
                    run_all(&args, args.json.as_deref()).map(|set| set.iter().all(|r| r.correct))
                };
                let _ = std::fs::remove_dir_all(args.out.join("tmp"));
                ok
            }
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("dl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

// --- child side ---------------------------------------------------------------

/// Runs one phase in this process and reports it in the line protocol.
fn run_phase(args: &Args, phase: &str) -> Result<(), String> {
    let workload = args.workload.ok_or("--phase needs --workload")?;
    // Everything the system writes outside its in-memory devices (the
    // wire daemon's socket) goes through `temp_dir()`: keep it under
    // `--out`. No thread exists yet, so setting the variable is sound.
    let tmp = args.out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);
    let result = match phase {
        "e2e" => layers::e2e(workload, args.seed),
        "observed" => layers::observed(workload, args.seed),
        "traced" => layers::traced(workload, args.seed, &args.out),
        other => Err(format!("unknown phase {other}")),
    };
    result.map(|p| p.emit())
}

// --- parent side --------------------------------------------------------------

/// Longest a phase may take before it is killed and the run fails; a
/// healthy one ends within ten seconds.
const PHASE_TIMEOUT: Duration = Duration::from_secs(100);

/// Runs `phase` of `workload` in a fresh child process.
fn spawn_phase(phase: &str, workload: Workload, seed: u64, out: &Path) -> Result<Phase, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--phase", phase, "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {phase} phase: {e}"))?;
    // A phase prints a few KiB, all at its end: it cannot block on a full
    // pipe, so waiting first and reading afterwards is safe.
    let deadline = Instant::now() + PHASE_TIMEOUT;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait for {phase} phase: {e}"))? {
            Some(status) => break status,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{phase} phase of {} still running after {PHASE_TIMEOUT:?}; killed",
                    workload.name()
                ));
            }
        }
    };
    if !status.success() {
        return Err(format!("{phase} phase of {} ended with {status}", workload.name()));
    }
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("read {phase} phase output: {e}"))?;
    Phase::parse(&stdout)
}

struct RunResult {
    workload: Workload,
    trace: bool,
    /// The contract metrics in table order, then whatever else was
    /// measured (`diag.*`), sorted.
    metrics: Vec<(String, Measured)>,
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// The metrics a run of this mode must report.
fn contract_metrics(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

impl RunResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m.value)
    }

    fn metrics_json(&self, with_samples: bool) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .take(contract_metrics(self.trace).len())
            .map(|(name, m)| {
                let samples = if with_samples {
                    format!(", \"samples\": {}", m.samples)
                } else {
                    String::new()
                };
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}", m.value, m.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Prints the result line of the driver contract; returns `correct`.
    fn print_json(&self) -> bool {
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(false)
        );
        self.correct
    }
}

/// One run of the driver contract: `--trace 0` repeats fresh-process
/// episodes for about `--seconds` and reports each end-to-end metric's
/// median over them; `--trace 1` runs the per-layer phases once (fixed
/// work, so that per-op counts repeat exactly).
fn run(workload: Workload, args: &Args, trace: bool) -> Result<RunResult, String> {
    let episode_seed = |i: u64| rng::derive(args.seed, EPISODE_STREAM, i);
    println!(
        "# {} trace={} seed={} input_hash={:016x}",
        workload.name(),
        u8::from(trace),
        args.seed,
        workload.input_hash(episode_seed(0))
    );
    let mut total = Phase::default();
    let mut runs = 1;
    if trace {
        for phase in ["observed", "traced"] {
            total.absorb(spawn_phase(phase, workload, episode_seed(0), &args.out)?);
        }
    } else {
        let started = Instant::now();
        let mut episodes = Vec::new();
        loop {
            let i = episodes.len() as u64;
            episodes.push(spawn_phase("e2e", workload, episode_seed(i), &args.out)?);
            // Stop at the episode boundary nearest to `--seconds`.
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed + elapsed / episodes.len() as f64 / 2.0 >= args.seconds {
                break;
            }
        }
        runs = episodes.len();
        total = fold_episodes(episodes);
    }

    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for def in contract_metrics(trace) {
        match total.metrics.remove(def.name) {
            Some(m) if m.unit == def.unit => metrics.push((def.name.to_string(), m)),
            _ => missing.push(def.name),
        }
    }
    metrics.extend(total.metrics);
    for (name, m) in &metrics {
        println!("{name:<34} {:>14.4} {:<6} samples={} runs={runs}", m.value, m.unit, m.samples);
    }
    for msg in total.text.iter().chain(&total.messages) {
        println!("{msg}");
    }
    if !missing.is_empty() {
        return Err(format!("{}: not measured: {missing:?}", workload.name()));
    }
    println!(
        "failed_ops_share {} ({} of {} ops failed or were rejected by the audit)",
        total.failed as f64 / total.attempted.max(1) as f64,
        total.failed,
        total.attempted
    );
    Ok(RunResult {
        workload,
        trace,
        metrics,
        attempted: total.attempted,
        failed: total.failed,
        correct: total.failed == 0 && total.attempted > 0,
    })
}

/// Folds episodes into one phase: each metric every episode reported
/// becomes its median over the episodes; accounting adds up.
fn fold_episodes(episodes: Vec<Phase>) -> Phase {
    let mut folded = Phase::default();
    let mut values: BTreeMap<String, (Vec<f64>, String, u64)> = BTreeMap::new();
    let n = episodes.len();
    for ep in episodes {
        for (name, m) in &ep.metrics {
            let slot = values.entry(name.clone()).or_insert((Vec::new(), m.unit.clone(), 0));
            slot.0.push(m.value);
            slot.2 += m.samples;
        }
        folded.absorb(Phase { metrics: BTreeMap::new(), ..ep });
    }
    for (name, (vals, unit, samples)) in values {
        if vals.len() == n {
            folded.put(&name, &unit, stats::median(&vals), samples);
        }
    }
    folded
}

/// Every workload, untraced then traced.
fn run_all(args: &Args, json: Option<&Path>) -> Result<Vec<RunResult>, String> {
    let mut set = Vec::new();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(workload, args, trace)?;
            r.print_json();
            set.push(r);
        }
    }
    if let Some(path) = json {
        std::fs::write(path, result_set_json(args, &set))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# result set written to {}", path.display());
    }
    Ok(set)
}

/// First line of a command's output, or "unknown".
fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8_lossy(&o.stdout).lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The committed form of a result set: the run environment, then per
/// workload both metric groups.
fn result_set_json(args: &Args, set: &[RunResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let mut out = format!(
        "{{\n  \"env\": {{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{profile}\", \
         \"git_commit\": \"{}\", \"timer_slack_ns\": 1}},\n  \"seed\": {},\n  \"run_seconds\": {},\n  \
         \"workloads\": {{\n",
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "HEAD"]),
        args.seed,
        args.seconds
    );
    let mut rows = Vec::new();
    for pair in set.chunks(2) {
        let groups: Vec<String> = pair
            .iter()
            .map(|r| {
                format!(
                    "      \"{}\": {{\"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                    if r.trace { "per_layer" } else { "end_to_end" },
                    r.attempted,
                    r.failed,
                    r.metrics_json(true)
                )
            })
            .collect();
        rows.push(format!(
            "    \"{}\": {{\n{}\n    }}",
            pair[0].workload.name(),
            groups.join(",\n")
        ));
    }
    out += &rows.join(",\n");
    out += "\n  }\n}\n";
    out
}

/// Runs the full set twice with the same seed and compares: every
/// end-to-end metric must agree within its bound, and the per-op counts
/// of the traced pass must be identical. `--json` gets the first set.
fn check_repeat(args: &Args) -> Result<bool, String> {
    let first = run_all(args, args.json.as_deref())?;
    let second = run_all(args, None)?;
    let mut ok = first.iter().chain(&second).all(|r| r.correct);
    println!("# check-repeat: metric, first, second, relative difference, verdict");
    for (a, b) in first.iter().zip(&second) {
        for def in contract_metrics(a.trace) {
            let (x, y) = (a.value(def.name).unwrap_or(0.0), b.value(def.name).unwrap_or(0.0));
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs().max(y.abs()) };
            let exact = EXACT_COUNTS.contains(&def.name);
            let (verdict, pass) = match def.bound {
                Some(bound) if diff > bound => ("beyond its bound", false),
                Some(_) => ("ok", true),
                None if exact && x != y => ("count differs", false),
                None if exact => ("identical", true),
                None => ("-", true),
            };
            ok &= pass;
            println!(
                "{:<16} {:<34} {x:>14.4} {y:>14.4} {:>7.2} % {} {verdict}",
                a.workload.name(),
                def.name,
                100.0 * diff,
                match def.better {
                    Better::Lower => "(lower is better)",
                    Better::Higher => "(higher is better)",
                }
            );
        }
    }
    println!("# check-repeat {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(values: &[(&str, f64)], attempted: u64, failed: u64) -> Phase {
        let mut p = Phase::default();
        for (name, v) in values {
            p.put(name, "us", *v, 10);
        }
        p.attempted = attempted;
        p.failed = failed;
        p
    }

    #[test]
    fn episodes_fold_to_medians_and_summed_accounting() {
        let folded = fold_episodes(vec![
            phase(&[("a", 1.0), ("only_here", 5.0)], 100, 0),
            phase(&[("a", 9.0)], 100, 1),
            phase(&[("a", 2.0)], 100, 0),
        ]);
        assert_eq!(folded.get("a"), Some(2.0));
        assert_eq!(folded.metrics["a"].samples, 30);
        assert_eq!(folded.get("only_here"), None, "a metric must come from every episode");
        assert_eq!((folded.attempted, folded.failed), (300, 1));
    }
}
