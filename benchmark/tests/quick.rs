//! `--quick` (one second per phase) runs all six workloads and their
//! correctness checks in under 30 s, and what it writes reads back
//! through the harness's own reader.

#![allow(dead_code)]

#[path = "../src/json.rs"]
mod json;
#[path = "../src/report.rs"]
mod report;
#[path = "../src/stats.rs"]
mod stats;

use std::process::Command;
use std::time::Instant;

const WORKLOADS: [&str; 6] = [
    "local_sync",
    "local_async",
    "local_overload",
    "remote_oneway",
    "orb_echo_64",
    "orb_echo_64k",
];

#[test]
fn quick_runs_every_workload_and_check_in_under_30_s() {
    // The whole set writes its reports to `out/` beside `Cargo.toml`.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let started = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_compadres-benchmark"))
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    let elapsed = started.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "exit {:?}\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed.as_secs() < 30, "--quick took {elapsed:?}");
    assert!(!stdout.contains("FAILED"), "{stdout}");
    assert!(stdout.contains("# total wall time"), "{stdout}");

    let text = std::fs::read_to_string(out.join("results.json")).expect("results.json written");
    let doc = json::parse(&text).expect("results.json parses");
    let (seed, _seconds, reports) = report::read_results(&doc).expect("results.json reads back");
    assert_eq!(seed, 1, "--seed defaults to 1");
    let names: Vec<&str> = reports.iter().map(|r| r.workload.as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for r in &reports {
        assert!(r.correct && r.failed == 0 && r.attempted > 0, "{r:?}");
        for metric in [
            "setup_s",
            "latency_p50_us",
            "allocs_per_op",
            "throughput_ops_s",
        ] {
            let v = r
                .value(metric)
                .unwrap_or_else(|| panic!("{} lacks {metric}", r.workload));
            assert!(v > 0.0, "{} {metric} = {v}", r.workload);
            // Printed as `workload metric value unit`, by name with its unit.
            assert!(stdout.contains(&format!("{} {metric} {v} ", r.workload)));
        }
    }
    // Written back, the document is the same.
    let again = report::results_json(seed, _seconds, &reports).render();
    assert_eq!(json::parse(&again).unwrap(), doc);
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let run = Command::new(env!("CARGO_BIN_EXE_compadres-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(!run.status.success());
    assert!(run.stdout.is_empty());
}
