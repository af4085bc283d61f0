//! # dl-lab — the declarative scenario lab
//!
//! Scenarios-as-data for the DataLinks reproduction: a workload (client
//! mix, read/write ratio, burst shape, replica count, pool knobs) plus its
//! fault injection points (crash the primary at op N, stall a standby,
//! kill an upcall worker) and its acceptance predicates, all declared in
//! one JSONL file under `scenarios/`. This crate is the pure declarative
//! layer — schema parsing with line-numbered errors ([`schema`]),
//! deterministic `variant × repeat` plan expansion with fixed seeds
//! ([`plan`]) and assertion predicates ([`Predicate`]). The engine that
//! drives a plan against a live `DataLinksSystem` lives in `dl-bench`
//! (`dl_bench::lab`), and the `lab` binary ties the two together:
//!
//! ```text
//! cargo run -p dl-bench --bin lab -- --quick scenarios/*.jsonl
//! ```
//!
//! The design follows AgentLab's experiment/variant/repeat model: variant
//! labels are row keys in the printed and emitted (`BENCH_<id>.json`)
//! tables, and a scenario's own `assert` predicates are what gate it.

pub mod json;
pub mod plan;
pub mod schema;

pub use plan::{expand, LabRng, Plan, TrialSpec};
pub use schema::{
    parse_scenario, CmpOp, InjectAction, Injection, Params, Predicate, ReadRoute, Scenario,
    SchemaError, Variant,
};

/// Reads and parses a scenario file from disk.
pub fn load_scenario(path: &std::path::Path) -> Result<Scenario, SchemaError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| SchemaError {
        file: file.clone(),
        line: 0,
        msg: format!("cannot read scenario file: {e}"),
    })?;
    parse_scenario(&file, &text)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = concat!(
        r#"{"scenario":"demo","seed":42,"repeats":2,"#,
        r#""params":{"clients":4,"ops":50,"write_ratio":0.25},"#,
        r#""quick":{"ops":10},"assert":["failovers == 0","ops_failed == 0"]}"#,
        "\n",
        r#"{"variant":"small","params":{"clients":2}}"#,
        "\n\n",
        r#"{"variant":"big","params":{"clients":8,"injections":[{"at_op":20,"action":"crash_primary"}]}}"#,
        "\n",
    );

    #[test]
    fn parses_a_full_scenario() {
        let sc = parse_scenario("demo.jsonl", GOOD).unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.seed, 42);
        assert_eq!(sc.repeats, 2);
        assert_eq!(sc.params.clients, Some(4));
        assert_eq!(sc.quick.ops, Some(10));
        assert_eq!(sc.asserts.len(), 2);
        assert_eq!(sc.variants.len(), 2);
        assert_eq!(sc.variants[1].label, "big");
        assert_eq!(
            sc.variants[1].params.injections.as_deref(),
            Some(&[Injection { at_op: 20, action: InjectAction::CrashPrimary }][..])
        );
        // Blank lines are skipped but still counted for error positions.
        assert_eq!(sc.variants[1].line, 4);
    }

    #[test]
    fn malformed_json_reports_the_line() {
        let text = format!("{}\n{{\"variant\": oops}}\n", GOOD.lines().next().unwrap());
        let e = parse_scenario("s.jsonl", &text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("invalid JSON"), "{e}");
        assert!(e.to_string().starts_with("s.jsonl:2:"), "{e}");
    }

    #[test]
    fn unknown_fields_are_line_numbered_errors() {
        // Unknown header field.
        let e = parse_scenario("s.jsonl", r#"{"scenario":"x","seed":1,"frobnicate":true}"#)
            .unwrap_err();
        assert_eq!((e.line, e.msg.contains("frobnicate")), (1, true), "{e}");

        // Unknown knob inside params, on a variant line.
        let text = concat!(
            r#"{"scenario":"x","seed":1}"#,
            "\n",
            r#"{"variant":"v","params":{"wirte_ratio":0.5}}"#,
        );
        let e = parse_scenario("s.jsonl", text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("wirte_ratio"), "{e}");

        // Unknown variant-level field.
        let text = concat!(r#"{"scenario":"x","seed":1}"#, "\n", r#"{"variant":"v","parms":{}}"#,);
        let e = parse_scenario("s.jsonl", text).unwrap_err();
        assert!(e.line == 2 && e.msg.contains("parms"), "{e}");
    }

    #[test]
    fn out_of_range_knobs_are_line_numbered_errors() {
        for (knob, why) in [
            (r#"{"write_ratio":1.5}"#, "out of range"),
            (r#"{"replicas":99}"#, "out of range"),
            (r#"{"clients":0}"#, "out of range"),
            (r#"{"ops":2.5}"#, "integer"),
            (r#"{"write_ratio":0.8,"churn_ratio":0.4}"#, "exceeds 1.0"),
        ] {
            let text = format!(
                "{}\n{}\n",
                r#"{"scenario":"x","seed":1}"#,
                format_args!(r#"{{"variant":"v","params":{knob}}}"#),
            );
            let e = parse_scenario("s.jsonl", &text).unwrap_err();
            assert_eq!(e.line, 2, "knob {knob}: {e}");
            assert!(e.msg.contains(why), "knob {knob}: {e}");
        }
    }

    #[test]
    fn duplicate_keys_and_labels_are_rejected() {
        let e = parse_scenario("s.jsonl", r#"{"scenario":"x","seed":1,"seed":2}"#).unwrap_err();
        assert!(e.msg.contains("duplicate key"), "{e}");

        let text = concat!(
            r#"{"scenario":"x","seed":1}"#,
            "\n",
            r#"{"variant":"same"}"#,
            "\n",
            r#"{"variant":"same"}"#,
        );
        let e = parse_scenario("s.jsonl", text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("duplicate variant label"), "{e}");
    }

    #[test]
    fn missing_required_fields_are_errors() {
        let e = parse_scenario("s.jsonl", r#"{"seed":1}"#).unwrap_err();
        assert!(e.msg.contains("\"scenario\""), "{e}");
        let e = parse_scenario("s.jsonl", r#"{"scenario":"x"}"#).unwrap_err();
        assert!(e.msg.contains("\"seed\""), "{e}");
        let e = parse_scenario("s.jsonl", r#"{"scenario":"x","seed":1}"#).unwrap_err();
        assert!(e.msg.contains("no variants"), "{e}");
    }

    #[test]
    fn bad_predicates_are_errors() {
        for (pred, why) in [
            ("throughput", "metric op number"),
            ("a ~ 3", "unknown operator"),
            ("a >= fast", "not a number"),
            // One engine, counts not rates: no ratio form, no engine kind.
            ("ops_ok_v1 / ops_ok_v0 >= 1", "metric op number"),
        ] {
            let text = format!(r#"{{"scenario":"x","seed":1,"assert":[{pred:?}]}}"#);
            let e = parse_scenario("s.jsonl", &text).unwrap_err();
            assert!(e.msg.contains(why), "pred {pred}: {e}");
        }
    }

    #[test]
    fn predicates_evaluate() {
        let p = Predicate::parse("failover_ms <= 500").unwrap();
        assert!(p.holds(500.0) && p.holds(0.0) && !p.holds(500.1));
        let p = Predicate::parse("throughput_ratio >= 1.6").unwrap();
        assert!(p.holds(1.6) && !p.holds(1.59));
        let p = Predicate::parse("lost_acked_links == 0").unwrap();
        assert!(p.holds(0.0) && !p.holds(1.0));
        // A metric the engine never emitted fails with a message naming it.
        let metrics = std::collections::BTreeMap::from([("ops_ok".to_string(), 3.0)]);
        assert_eq!(Predicate::parse("ops_ok > 0").unwrap().measure(&metrics), Ok(3.0));
        let e = Predicate::parse("nope > 0").unwrap().measure(&metrics).unwrap_err();
        assert!(e.contains("\"nope\""), "{e}");
    }

    #[test]
    fn identical_seed_and_scenario_yield_identical_plans() {
        let a = expand(&parse_scenario("s.jsonl", GOOD).unwrap(), false).unwrap();
        let b = expand(&parse_scenario("s.jsonl", GOOD).unwrap(), false).unwrap();
        assert_eq!(a, b);
        // 2 variants x 2 repeats, in row order.
        assert_eq!(a.trials.len(), 4);
        assert_eq!(a.trials[0].variant, "small");
        assert_eq!((a.trials[1].variant_idx, a.trials[1].repeat), (0, 1));

        // Seeds are fixed but distinct per (variant, repeat).
        let seeds: std::collections::BTreeSet<u64> = a.trials.iter().map(|t| t.seed).collect();
        assert_eq!(seeds.len(), 4, "trial seeds must not collide");

        // A different scenario seed re-seeds every trial.
        let other = GOOD.replacen("\"seed\":42", "\"seed\":43", 1);
        let c = expand(&parse_scenario("s.jsonl", &other).unwrap(), false).unwrap();
        assert!(c.trials.iter().zip(&a.trials).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn quick_overrides_win_over_variant_knobs() {
        let plan = expand(&parse_scenario("s.jsonl", GOOD).unwrap(), true).unwrap();
        for t in &plan.trials {
            assert_eq!(t.params.ops, Some(10), "quick ops must win");
        }
        // Variant overrides still beat scenario defaults.
        assert_eq!(plan.trials[0].params.clients, Some(2));
        assert_eq!(plan.trials[2].params.clients, Some(8));
        // Scenario defaults fill the gaps.
        assert_eq!(plan.trials[0].params.write_ratio, Some(0.25));
    }

    #[test]
    fn lab_rng_is_deterministic_and_spread() {
        let mut a = LabRng::new(7);
        let mut b = LabRng::new(7);
        let mut c = LabRng::new(8);
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(first, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(first[0], c.next_u64(), "adjacent seeds must diverge");
        let r = c.ratio();
        assert!((0.0..1.0).contains(&r));
        assert!(c.below(10) < 10);
    }
}
