//! Scenario schema: the declarative surface of the lab.
//!
//! A scenario file is JSONL. The first line is the scenario header; every
//! following non-blank line is one variant (one table row / trial group):
//!
//! ```text
//! {"scenario":"a10","seed":7,"params":{"clients":8,"ops":40},
//!  "quick":{"ops":10},"assert":["max_lag == 0","lost_acked_links_v1 == 0"]}
//! {"variant":"0","params":{"replicas":0}}
//! {"variant":"2","params":{"replicas":2}}
//! ```
//!
//! One engine runs every scenario (`dl_bench::lab`), so a header names no
//! engine. An assert is `metric op number` over a metric the engine emits:
//! a scenario-wide one, or a variant's own value as `<metric>_v<i>` (`i` is
//! the 0-based position of the variant line). A gate counts; a rate is the
//! repo benchmark's to measure, so there is no ratio form.
//!
//! Every field is checked here — unknown knobs, wrong types, out-of-range
//! values, duplicate keys and duplicate variant labels are all rejected
//! with a `file:line:` prefix so a broken scenario reads like a compiler
//! error, not a stack trace in the middle of a bench run.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Value};

/// A schema failure, pinned to the scenario file line that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    pub file: String,
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.msg)
    }
}

impl std::error::Error for SchemaError {}

/// How the generic engine routes its reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadRoute {
    /// Token-gated open/read/close on the primary (no replicas involved).
    #[default]
    Managed,
    /// `serve_read`: round-robin over standbys with primary fallback.
    Routed,
    /// `serve_read_fresh` with a freshness token (read-your-writes).
    Fresh,
}

/// A fault injected at a global operation boundary of a mixed trial.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// The cumulative op count at which the fault fires (0 = before any op).
    pub at_op: u64,
    pub action: InjectAction,
}

/// The fault to inject.
#[derive(Debug, Clone, PartialEq)]
pub enum InjectAction {
    /// Crash the primary DLFM node and fail over to a promoted standby.
    CrashPrimary,
    /// Pause WAL shipping to the standbys (they start lagging).
    StallStandby,
    /// Resume WAL shipping after a [`InjectAction::StallStandby`].
    ResumeStandby,
    /// Make the next `count` admission upcalls panic on the thread serving
    /// them.
    KillUpcallWorkers { count: u64 },
    /// Crash the host database (the 2PC coordinator) and fail over to a
    /// promoted host standby, exercising the fenced outage window.
    CrashHost,
    /// Inject a disk-full fault: the next `writes` writes against the
    /// targeted storage environment fail with ENOSPC, then the disk
    /// "frees up" and writes succeed again. `host` targets the host
    /// database's environment (the coordinator's WAL); the default
    /// targets the primary DLFM repository.
    DiskEnospc { writes: u64, host: bool },
    /// Arm a torn tail on the *host* WAL covering exactly the next
    /// commit, then crash and recover the whole system: the commit the
    /// live process believed durable is sheared off at the crash
    /// boundary and recovery must lose exactly that one.
    TornHostWal,
}

/// The knob set a scenario (and each variant) may override. All fields are
/// optional at the schema level; the engine demands the ones it needs from
/// the merged per-trial view and defaults the rest.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params {
    pub shards: Option<u64>,
    pub sync_latency_us: Option<u64>,
    pub replicas: Option<u64>,
    pub host_replicas: Option<u64>,
    pub n_files: Option<u64>,
    pub file_size: Option<u64>,
    pub clients: Option<u64>,
    pub pool_max: Option<u64>,
    pub ops: Option<u64>,
    pub write_ratio: Option<f64>,
    pub churn_ratio: Option<f64>,
    pub read_route: Option<ReadRoute>,
    pub injections: Option<Vec<Injection>>,
}

impl Params {
    /// `other`'s set fields override `self`'s.
    pub fn overridden_by(&self, other: &Params) -> Params {
        macro_rules! pick {
            ($($f:ident),+ $(,)?) => {
                Params { $($f: other.$f.clone().or_else(|| self.$f.clone()),)+ }
            };
        }
        pick!(
            shards,
            sync_latency_us,
            replicas,
            host_replicas,
            n_files,
            file_size,
            clients,
            pool_max,
            ops,
            write_ratio,
            churn_ratio,
            read_route,
            injections,
        )
    }
}

/// One variant line: a row label plus its knob overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct Variant {
    /// The row label — the first cell of the variant's table row, verbatim.
    pub label: String,
    pub params: Params,
    /// Source line in the scenario file (for error reporting).
    pub line: usize,
}

/// A comparison operator in an assertion predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Le,
    Ge,
    Lt,
    Gt,
    Eq,
}

impl CmpOp {
    fn parse(s: &str) -> Option<CmpOp> {
        Some(match s {
            "<=" => CmpOp::Le,
            ">=" => CmpOp::Ge,
            "<" => CmpOp::Lt,
            ">" => CmpOp::Gt,
            "==" => CmpOp::Eq,
            _ => return None,
        })
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
        }
    }
}

/// An assertion declared in the scenario: `metric op number` — e.g.
/// `"max_os_threads < 64"`. Evaluated against the metric map the
/// scenario's engine emits; naming a metric the engine never produced is
/// an error, not a silent pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub metric: String,
    pub op: CmpOp,
    pub value: f64,
}

impl Predicate {
    /// Parses `metric op number` (whitespace-separated).
    pub fn parse(text: &str) -> Result<Predicate, String> {
        let parts: Vec<&str> = text.split_whitespace().collect();
        let [metric, op, value] = parts.as_slice() else {
            return Err(format!(
                "predicate {text:?} must be `metric op number` (e.g. \"failover_ms <= 500\")"
            ));
        };
        let op = CmpOp::parse(op)
            .ok_or_else(|| format!("predicate {text:?}: unknown operator {op:?}"))?;
        let value = value
            .parse::<f64>()
            .map_err(|_| format!("predicate {text:?}: {value:?} is not a number"))?;
        if !metric.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("predicate {text:?}: metric names are [a-z0-9_]"));
        }
        Ok(Predicate { metric: metric.to_string(), op, value })
    }

    /// The value the predicate compares. A metric the engine never emitted
    /// is an error naming it.
    pub fn measure(&self, metrics: &BTreeMap<String, f64>) -> Result<f64, String> {
        let metric = &self.metric;
        metrics.get(metric).copied().ok_or_else(|| format!("metric {metric:?} was not emitted"))
    }

    /// Checks the predicate against a measured value.
    pub fn holds(&self, measured: f64) -> bool {
        match self.op {
            CmpOp::Le => measured <= self.value,
            CmpOp::Ge => measured >= self.value,
            CmpOp::Lt => measured < self.value,
            CmpOp::Gt => measured > self.value,
            CmpOp::Eq => measured == self.value,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.metric, self.op.as_str(), self.value)
    }
}

/// A fully parsed scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario id: becomes the table id and the `BENCH_<id>.json` name.
    pub name: String,
    /// Optional human title override; the engine synthesizes one otherwise.
    pub title: Option<String>,
    /// Root of every trial seed (see [`crate::plan`]).
    pub seed: u64,
    /// Trials per variant (results are averaged into the row).
    pub repeats: u64,
    /// Scenario-wide knob defaults.
    pub params: Params,
    /// Overrides applied (last) when the lab runs in `--quick` mode.
    pub quick: Params,
    pub variants: Vec<Variant>,
    pub asserts: Vec<Predicate>,
    pub notes: Vec<String>,
    /// The file the scenario came from (error messages, provenance).
    pub file: String,
}

fn err(file: &str, line: usize, msg: impl Into<String>) -> SchemaError {
    SchemaError { file: file.to_string(), line, msg: msg.into() }
}

/// Parses one scenario from JSONL text. `file` is used only for error
/// messages and provenance — pass the path the text came from.
pub fn parse_scenario(file: &str, text: &str) -> Result<Scenario, SchemaError> {
    let mut lines =
        text.lines().enumerate().map(|(i, l)| (i + 1, l)).filter(|(_, l)| !l.trim().is_empty());

    let (header_line, header_text) =
        lines.next().ok_or_else(|| err(file, 1, "empty scenario file"))?;
    let header = json::parse(header_text)
        .map_err(|e| err(file, header_line, format!("invalid JSON: {e}")))?;
    let mut sc = parse_header(file, header_line, &header)?;

    for (line, text) in lines {
        let v = json::parse(text).map_err(|e| err(file, line, format!("invalid JSON: {e}")))?;
        let variant = parse_variant(file, line, &v)?;
        if sc.variants.iter().any(|existing| existing.label == variant.label) {
            return Err(err(
                file,
                line,
                format!(
                    "duplicate variant label {:?} — labels are table row keys and must be unique",
                    variant.label
                ),
            ));
        }
        sc.variants.push(variant);
    }
    if sc.variants.is_empty() {
        return Err(err(file, header_line, "scenario has no variants (need at least one row)"));
    }
    Ok(sc)
}

/// Checks an object for duplicate keys.
fn reject_duplicates(
    file: &str,
    line: usize,
    obj: &[(String, Value)],
    what: &str,
) -> Result<(), SchemaError> {
    for (i, (k, _)) in obj.iter().enumerate() {
        if obj[..i].iter().any(|(prev, _)| prev == k) {
            return Err(err(file, line, format!("duplicate key {k:?} in {what}")));
        }
    }
    Ok(())
}

fn parse_header(file: &str, line: usize, v: &Value) -> Result<Scenario, SchemaError> {
    let obj = v.as_obj().ok_or_else(|| {
        err(file, line, format!("scenario header must be an object, got {}", v.type_name()))
    })?;
    reject_duplicates(file, line, obj, "scenario header")?;

    let mut name = None;
    let mut title = None;
    let mut seed = None;
    let mut repeats = 1u64;
    let mut params = Params::default();
    let mut quick = Params::default();
    let mut asserts = Vec::new();
    let mut notes = Vec::new();

    for (key, val) in obj {
        match key.as_str() {
            "scenario" => {
                let s = expect_str(file, line, key, val)?;
                if s.is_empty()
                    || !s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                {
                    return Err(err(
                        file,
                        line,
                        format!("scenario name {s:?} must be non-empty [a-z0-9_] (it names BENCH_<id>.json)"),
                    ));
                }
                name = Some(s.to_string());
            }
            "title" => title = Some(expect_str(file, line, key, val)?.to_string()),
            "seed" => seed = Some(expect_u64(file, line, key, val, 0, u64::MAX)?),
            "repeats" => repeats = expect_u64(file, line, key, val, 1, 100)?,
            "params" => params = parse_params(file, line, val)?,
            "quick" => quick = parse_params(file, line, val)?,
            "assert" => {
                let arr = val.as_arr().ok_or_else(|| {
                    err(
                        file,
                        line,
                        format!("\"assert\" must be an array of strings, got {}", val.type_name()),
                    )
                })?;
                for item in arr {
                    let text = item.as_str().ok_or_else(|| {
                        err(
                            file,
                            line,
                            format!("\"assert\" entries must be strings, got {}", item.type_name()),
                        )
                    })?;
                    asserts.push(Predicate::parse(text).map_err(|e| err(file, line, e))?);
                }
            }
            "notes" => {
                let arr = val.as_arr().ok_or_else(|| {
                    err(
                        file,
                        line,
                        format!("\"notes\" must be an array of strings, got {}", val.type_name()),
                    )
                })?;
                for item in arr {
                    let text = item.as_str().ok_or_else(|| {
                        err(
                            file,
                            line,
                            format!("\"notes\" entries must be strings, got {}", item.type_name()),
                        )
                    })?;
                    notes.push(text.to_string());
                }
            }
            other => {
                return Err(err(file, line, format!("unknown scenario field {other:?}")));
            }
        }
    }

    Ok(Scenario {
        name: name.ok_or_else(|| err(file, line, "scenario header is missing \"scenario\""))?,
        title,
        seed: seed.ok_or_else(|| {
            err(file, line, "scenario header is missing \"seed\" (trials must be reproducible)")
        })?,
        repeats,
        params,
        quick,
        variants: Vec::new(),
        asserts,
        notes,
        file: file.to_string(),
    })
}

fn parse_variant(file: &str, line: usize, v: &Value) -> Result<Variant, SchemaError> {
    let obj = v.as_obj().ok_or_else(|| {
        err(file, line, format!("variant line must be an object, got {}", v.type_name()))
    })?;
    reject_duplicates(file, line, obj, "variant")?;
    let mut label = None;
    let mut params = Params::default();
    for (key, val) in obj {
        match key.as_str() {
            "variant" => {
                let s = expect_str(file, line, key, val)?;
                if s.is_empty() {
                    return Err(err(file, line, "variant label must be non-empty"));
                }
                label = Some(s.to_string());
            }
            "params" => params = parse_params(file, line, val)?,
            other => {
                return Err(err(
                    file,
                    line,
                    format!(
                        "unknown variant field {other:?} (expected \"variant\" and \"params\")"
                    ),
                ));
            }
        }
    }
    Ok(Variant {
        label: label.ok_or_else(|| err(file, line, "variant line is missing \"variant\""))?,
        params,
        line,
    })
}

fn expect_str<'v>(
    file: &str,
    line: usize,
    key: &str,
    val: &'v Value,
) -> Result<&'v str, SchemaError> {
    val.as_str().ok_or_else(|| {
        err(file, line, format!("{key:?} must be a string, got {}", val.type_name()))
    })
}

fn expect_u64(
    file: &str,
    line: usize,
    key: &str,
    val: &Value,
    lo: u64,
    hi: u64,
) -> Result<u64, SchemaError> {
    let n = val.as_num().ok_or_else(|| {
        err(file, line, format!("{key:?} must be a number, got {}", val.type_name()))
    })?;
    if n.fract() != 0.0 || n < 0.0 || n > u64::MAX as f64 {
        return Err(err(file, line, format!("{key:?} must be a non-negative integer, got {n}")));
    }
    let n = n as u64;
    if n < lo || n > hi {
        return Err(err(file, line, format!("{key:?} = {n} is out of range ({lo}..={hi})")));
    }
    Ok(n)
}

fn expect_ratio(file: &str, line: usize, key: &str, val: &Value) -> Result<f64, SchemaError> {
    let n = val.as_num().ok_or_else(|| {
        err(file, line, format!("{key:?} must be a number, got {}", val.type_name()))
    })?;
    if !(0.0..=1.0).contains(&n) {
        return Err(err(file, line, format!("{key:?} = {n} is out of range (0.0..=1.0)")));
    }
    Ok(n)
}

fn parse_params(file: &str, line: usize, v: &Value) -> Result<Params, SchemaError> {
    let obj = v.as_obj().ok_or_else(|| {
        err(file, line, format!("params must be an object, got {}", v.type_name()))
    })?;
    reject_duplicates(file, line, obj, "params")?;
    let mut p = Params::default();
    for (key, val) in obj {
        match key.as_str() {
            "shards" => p.shards = Some(expect_u64(file, line, key, val, 1, 64)?),
            "sync_latency_us" => {
                p.sync_latency_us = Some(expect_u64(file, line, key, val, 0, 1_000_000)?)
            }
            "replicas" => p.replicas = Some(expect_u64(file, line, key, val, 0, 8)?),
            "host_replicas" => p.host_replicas = Some(expect_u64(file, line, key, val, 0, 8)?),
            "n_files" => p.n_files = Some(expect_u64(file, line, key, val, 1, 65_536)?),
            "file_size" => p.file_size = Some(expect_u64(file, line, key, val, 1, 16 << 20)?),
            "clients" => p.clients = Some(expect_u64(file, line, key, val, 1, 4096)?),
            "pool_max" => p.pool_max = Some(expect_u64(file, line, key, val, 1, 1024)?),
            "ops" => p.ops = Some(expect_u64(file, line, key, val, 1, 1_000_000)?),
            "write_ratio" => p.write_ratio = Some(expect_ratio(file, line, key, val)?),
            "churn_ratio" => p.churn_ratio = Some(expect_ratio(file, line, key, val)?),
            "read_route" => {
                p.read_route = Some(match expect_str(file, line, key, val)? {
                    "managed" => ReadRoute::Managed,
                    "routed" => ReadRoute::Routed,
                    "fresh" => ReadRoute::Fresh,
                    other => {
                        return Err(err(
                            file,
                            line,
                            format!(
                                "unknown read_route {other:?} (expected managed, routed or fresh)"
                            ),
                        ))
                    }
                });
            }
            "injections" => p.injections = Some(parse_injections(file, line, val)?),
            other => return Err(err(file, line, format!("unknown knob {other:?} in params"))),
        }
    }
    if let (Some(w), Some(c)) = (p.write_ratio, p.churn_ratio) {
        if w + c > 1.0 {
            return Err(err(
                file,
                line,
                format!("write_ratio + churn_ratio = {} exceeds 1.0", w + c),
            ));
        }
    }
    Ok(p)
}

fn parse_injections(file: &str, line: usize, v: &Value) -> Result<Vec<Injection>, SchemaError> {
    let arr = v.as_arr().ok_or_else(|| {
        err(file, line, format!("\"injections\" must be an array, got {}", v.type_name()))
    })?;
    let mut out = Vec::new();
    for item in arr {
        let obj = item.as_obj().ok_or_else(|| {
            err(file, line, format!("injection entries must be objects, got {}", item.type_name()))
        })?;
        reject_duplicates(file, line, obj, "injection")?;
        let mut at_op = None;
        let mut action = None;
        let mut count = None;
        let mut writes = None;
        let mut target = None;
        for (key, val) in obj {
            match key.as_str() {
                "at_op" => at_op = Some(expect_u64(file, line, key, val, 0, 1_000_000_000)?),
                "action" => action = Some(expect_str(file, line, key, val)?.to_string()),
                "count" => count = Some(expect_u64(file, line, key, val, 1, 1024)?),
                "writes" => writes = Some(expect_u64(file, line, key, val, 1, 1_000_000)?),
                "target" => {
                    target = Some(match expect_str(file, line, key, val)? {
                        "repo" => false,
                        "host" => true,
                        other => {
                            return Err(err(
                                file,
                                line,
                                format!("unknown target {other:?} (expected repo or host)"),
                            ))
                        }
                    })
                }
                other => return Err(err(file, line, format!("unknown injection field {other:?}"))),
            }
        }
        let action = match action.as_deref() {
            Some("crash_primary") => InjectAction::CrashPrimary,
            Some("crash_host") => InjectAction::CrashHost,
            Some("stall_standby") => InjectAction::StallStandby,
            Some("resume_standby") => InjectAction::ResumeStandby,
            Some("kill_upcall_workers") => {
                InjectAction::KillUpcallWorkers { count: count.unwrap_or(1) }
            }
            Some("disk_enospc") => InjectAction::DiskEnospc {
                writes: writes.unwrap_or(1),
                host: target.unwrap_or(false),
            },
            Some("torn_host_wal") => InjectAction::TornHostWal,
            Some(other) => {
                return Err(err(
                    file,
                    line,
                    format!(
                        "unknown injection action {other:?} (expected crash_primary, crash_host, stall_standby, resume_standby, kill_upcall_workers, disk_enospc or torn_host_wal)"
                    ),
                ))
            }
            None => return Err(err(file, line, "injection is missing \"action\"")),
        };
        if count.is_some() && !matches!(action, InjectAction::KillUpcallWorkers { .. }) {
            return Err(err(file, line, "\"count\" only applies to kill_upcall_workers"));
        }
        if writes.is_some() && !matches!(action, InjectAction::DiskEnospc { .. }) {
            return Err(err(file, line, "\"writes\" only applies to disk_enospc"));
        }
        if target.is_some() && !matches!(action, InjectAction::DiskEnospc { .. }) {
            return Err(err(file, line, "\"target\" only applies to disk_enospc"));
        }
        out.push(Injection {
            at_op: at_op.ok_or_else(|| err(file, line, "injection is missing \"at_op\""))?,
            action,
        });
    }
    out.sort_by_key(|i| i.at_op);
    Ok(out)
}
