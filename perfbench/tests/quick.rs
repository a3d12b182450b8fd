//! Every workload's quick mode: small inputs, one round, every correctness
//! check, in both the untraced and the traced run.

use std::time::Duration;

use uprob_perfbench::{run, RunConfig};

fn quick(workload: &str, trace: bool) {
    let config = RunConfig {
        seed: 7,
        measure: Duration::from_secs(0),
        trace,
        quick: true,
    };
    let report = run(workload, &config).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        report.correct(),
        "{workload} (trace {trace}): {:?}",
        report.check_failures
    );
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    report
        .validate(trace)
        .unwrap_or_else(|e| panic!("{workload} (trace {trace}): {e}"));
}

#[test]
fn tpch_serve_quick() {
    quick("tpch_serve", false);
    quick("tpch_serve", true);
}

#[test]
fn tpch_clean_quick() {
    quick("tpch_clean", false);
    quick("tpch_clean", true);
}

#[test]
fn sensor_stream_quick() {
    quick("sensor_stream", false);
    quick("sensor_stream", true);
}

#[test]
fn hard_conf_quick() {
    quick("hard_conf", false);
    quick("hard_conf", true);
}

#[test]
fn an_unknown_workload_is_an_error() {
    let config = RunConfig {
        seed: 1,
        measure: Duration::from_secs(0),
        trace: false,
        quick: true,
    };
    assert!(run("no_such_workload", &config).is_err());
}
