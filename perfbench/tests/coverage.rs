//! The traced run's layer spans must explain the traced wall time: on the two campaign
//! workloads, time that no layer span covers (`scenario.unattributed_s`) stays under 5 %
//! of `trace.wall_s`.

use std::process::Command;

/// Runs `workload` traced once and returns (unattributed seconds, traced wall seconds).
fn traced(workload: &str) -> (f64, f64) {
    let out = Command::new(env!("CARGO_BIN_EXE_mess-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} traced run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let value = |name: &str| -> f64 {
        let key = format!("\"{name}\":{{\"value\":");
        let at = last.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
        last[at..]
            .split([',', '}'])
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} is not a number"))
    };
    (value("scenario.unattributed_s"), value("trace.wall_s"))
}

fn assert_covered(workload: &str) {
    let (unattributed, wall) = traced(workload);
    assert!(wall > 0.0, "{workload}: no traced wall time");
    assert!(
        unattributed <= 0.05 * wall,
        "{workload}: {unattributed:.3} s of {wall:.3} s traced wall time is outside every layer span"
    );
}

#[test]
fn layer_spans_cover_ddr_study() {
    assert_covered("ddr-study");
}

#[test]
fn layer_spans_cover_app_sim() {
    assert_covered("app-sim");
}
