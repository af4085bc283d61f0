//! What one phase (a child process: one episode, or one pass of the
//! per-layer run) measured, and the line protocol it reports it in.
//!
//! ```text
//! M <name> <unit> <value> <samples>     a metric
//! A <attempted> <failed>                op accounting
//! ! <message>                           a failed op or audit violation
//! <anything else>                       text for the reader, relayed
//! ```

use std::collections::BTreeMap;

/// A phase reports at most this many failure messages (every failure is
/// still counted).
const MAX_MESSAGES: usize = 8;

#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (latency samples, ops counted, probe
    /// calls); summed when episodes are folded into a median.
    pub samples: u64,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub metrics: BTreeMap<String, Measured>,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    pub text: Vec<String>,
}

impl Phase {
    pub fn put(&mut self, name: &str, unit: &str, value: f64, samples: u64) {
        self.metrics.insert(name.to_string(), Measured { value, unit: unit.to_string(), samples });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Folds `other` in: metrics join (a name may come from one phase
    /// only), accounting adds.
    pub fn absorb(&mut self, other: Phase) {
        self.metrics.extend(other.metrics);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.text.extend(other.text);
    }

    /// Prints the phase in the line protocol (the child side).
    pub fn emit(&self) {
        for line in &self.text {
            println!("{line}");
        }
        for (name, m) in &self.metrics {
            println!("M {name} {} {} {}", m.unit, m.value, m.samples);
        }
        println!("A {} {}", self.attempted, self.failed);
        for msg in self.messages.iter().take(MAX_MESSAGES) {
            println!("! {}", msg.replace('\n', " "));
        }
    }

    /// Parses a child's standard output (the parent side).
    pub fn parse(stdout: &str) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut accounted = false;
        for line in stdout.lines() {
            let bad = || format!("malformed phase line: {line}");
            if let Some(rest) = line.strip_prefix("M ") {
                let f: Vec<&str> = rest.split(' ').collect();
                let [name, unit, value, samples] = f[..] else { return Err(bad()) };
                let value: f64 = value.parse().map_err(|_| bad())?;
                if !value.is_finite() {
                    return Err(bad());
                }
                phase.put(name, unit, value, samples.parse().map_err(|_| bad())?);
            } else if let Some(rest) = line.strip_prefix("A ") {
                let (a, f) = rest.split_once(' ').ok_or_else(bad)?;
                phase.attempted = a.parse().map_err(|_| bad())?;
                phase.failed = f.parse().map_err(|_| bad())?;
                accounted = true;
            } else if let Some(msg) = line.strip_prefix("! ") {
                phase.messages.push(msg.to_string());
            } else {
                phase.text.push(line.to_string());
            }
        }
        if !accounted {
            return Err("phase ended without reporting its op accounting".to_string());
        }
        Ok(phase)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_survives_the_line_protocol() {
        let mut p = Phase::default();
        p.put("update_p50_us", "us", 1351.625, 4000);
        p.put("ops_per_s", "1/s", 1429.0, 8000);
        p.attempted = 8000;
        p.failed = 1;
        p.messages.push("client 0: stale\nread".to_string());
        p.text.push("# budget".to_string());
        let mut out = String::new();
        for line in &p.text {
            out += &format!("{line}\n");
        }
        for (name, m) in &p.metrics {
            out += &format!("M {name} {} {} {}\n", m.unit, m.value, m.samples);
        }
        out += "A 8000 1\n! client 0: stale read\n";
        let q = Phase::parse(&out).unwrap();
        assert_eq!(q.metrics, p.metrics);
        assert_eq!((q.attempted, q.failed), (8000, 1));
        assert_eq!(q.messages, ["client 0: stale read"]);
        assert_eq!(q.text, ["# budget"]);
    }

    #[test]
    fn a_phase_that_died_early_is_an_error() {
        assert!(Phase::parse("M ops_per_s 1/s 10 1\n").is_err());
        assert!(Phase::parse("M ops_per_s 1/s NaN 1\nA 1 0\n").is_err());
        assert!(Phase::parse("M ops_per_s 1/s\nA 1 0\n").is_err());
    }
}
