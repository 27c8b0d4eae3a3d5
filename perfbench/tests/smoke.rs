//! Self-tests of the benchmark: every workload at smoke size, traced and
//! untraced, and the metric names against `BENCHMARK.json`.

use std::collections::BTreeSet;

use scalewall_perfbench::metrics::{per_layer, END_TO_END};
use scalewall_perfbench::{run, Args, Report, Size, WorkloadName, HELD_OUT_SEED};

fn smoke(workload: WorkloadName, seed: u64, trace: bool) -> Report {
    let args = Args {
        workload,
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        trace_dir: None,
    };
    run(&args).unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
}

fn names(report: &Report) -> Vec<String> {
    report.metrics.iter().map(|m| m.0.clone()).collect()
}

#[test]
fn every_workload_runs_checks_and_reports_every_metric() {
    let end_to_end: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    for workload in WorkloadName::ALL {
        let plain = smoke(workload, 1, false);
        assert_eq!(names(&plain), end_to_end, "{}", workload.name());
        assert!(plain.attempted > 0);
        for (name, value, _, _) in &plain.metrics {
            assert!(
                value.is_finite() && *value >= 0.0,
                "{} {name} = {value}",
                workload.name()
            );
        }
        for name in ["setup_s", "host_qps", "peak_rss_mb", "sim_p50_ms"] {
            assert!(
                plain.value(name).unwrap_or(0.0) > 0.0,
                "{} {name}",
                workload.name()
            );
        }
        let line = plain.json_line();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );

        let traced = smoke(workload, 1, true);
        assert_eq!(names(&traced), layers, "{}", workload.name());
        // Traced and untraced runs simulate the same outputs.
        assert_eq!(traced.digest, plain.digest, "{}", workload.name());
        let value = |name: &str| traced.value(name).unwrap_or(0.0);
        assert!(value("trace.overhead_ratio") > 0.0);
        assert!(value("trace.spans") > 0.0);
        assert!(value("setup.deployment_s") > 0.0);
        assert!(value("host.calib_us") > 0.0);
        assert!(value("self_ms.calib") > 0.0);
    }
}

#[test]
fn held_out_seed_passes_the_same_checks() {
    for workload in WorkloadName::ALL {
        let a = smoke(workload, HELD_OUT_SEED, false);
        let b = smoke(workload, 1, false);
        assert_ne!(
            a.digest,
            b.digest,
            "{}: seeds must change the inputs",
            workload.name()
        );
    }
}

#[test]
fn metric_names_and_units_follow_the_grammar() {
    let mut seen = BTreeSet::new();
    let all = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer());
    for (name, unit) in all {
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        assert!(seen.insert(name.clone()), "duplicate metric {name}");
    }
    assert!(seen.len() <= 128 + END_TO_END.len());
    assert!(!valid_name("_leading"));
    assert!(!valid_name(&"x".repeat(65)));
    assert!(!valid_unit("µs"));
}

/// The values of every `"key": "value"` pair of `key` in `json`, in order.
fn string_values(json: &str, key: &str) -> Vec<String> {
    let pattern = format!("\"{key}\": \"");
    json.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &json[at + pattern.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_printed() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut want_names: Vec<String> = WorkloadName::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let mut want_units = Vec::new();
    for (name, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer())
    {
        want_names.push(name);
        want_units.push(unit.to_string());
    }
    assert_eq!(string_values(&json, "name"), want_names);
    assert_eq!(string_values(&json, "unit"), want_units);
}

/// The name grammar `BENCHMARK.json` allows: a letter or digit, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit grammar: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
