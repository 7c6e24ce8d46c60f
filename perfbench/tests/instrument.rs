//! Self-tests of the measuring instrument. Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use perfbench::setup::Stall;
use perfbench::workloads::Workload;
use perfbench::{percentile, run, Options, END_TO_END, UNGATED};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs the benchmark binary; returns its exit code and standard output.
fn perfbench(args: &[&str], work: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--work-dir")
        .arg(work_dir(work))
        .output()
        .expect("run perfbench");
    let code = out.status.code().expect("exit code");
    (code, String::from_utf8(out.stdout).expect("utf-8 output"))
}

/// The value printed on the report line of `name`.
fn reported(stdout: &str, name: &str) -> f64 {
    stdout
        .lines()
        .find_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some(name)).then(|| f.next().unwrap().parse().unwrap())
        })
        .unwrap_or_else(|| panic!("{name} not printed:\n{stdout}"))
}

#[test]
fn a_wrong_expected_answer_is_counted_and_fails_the_run() {
    let (code, stdout) = perfbench(
        &["--workload", "point-open", "--seconds", "1", "--tamper"],
        "tamper",
    );
    assert_ne!(code, 0, "a mismatch must fail the run:\n{stdout}");
    assert!(reported(&stdout, "error_rate") > 0.0, "{stdout}");
    let result = stdout.lines().last().unwrap();
    assert!(result.starts_with("{\"correct\": false"), "{result}");
}

#[test]
fn an_engine_stall_shows_in_intended_time_latency_but_not_in_the_naive_clock() {
    // Statement 9 + 300 of each session: past the warm-up pass over the
    // 9-statement mix, about 0.6 s into the window at 500 q/s per
    // connection.
    let stall_ms = 300.0;
    let mut opts = Options::new(Workload::PointOpen, 7);
    opts.seconds = 3.0;
    opts.work_dir = work_dir("stall");
    opts.stall = Some(Stall {
        statement: 309,
        ms: stall_ms,
    });
    let outcome = run(&opts).expect("run");
    assert_eq!(outcome.failed, 0);
    let p99 = outcome
        .end_to_end
        .iter()
        .find(|m| m.name == "latency_p99_ms")
        .unwrap()
        .value;
    let naive: Vec<f64> = outcome.window.ok().map(|(s, _)| s.naive_ms).collect();
    let naive_p99 = percentile(&naive, 0.99);
    assert!(
        p99 > stall_ms / 2.0,
        "requests due during the stall wait for it: p99 {p99} ms"
    );
    assert!(
        naive_p99 < stall_ms / 3.0,
        "the naive clock sees only the stalled request itself: p99 {naive_p99} ms"
    );
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit_for_every_workload() {
    let (code, stdout) = perfbench(&["--workload", "all", "--seconds", "1"], "all");
    assert_eq!(code, 0, "{stdout}");
    let result = stdout.lines().last().unwrap();
    for w in Workload::ALL {
        let section = stdout
            .split("== perfbench ")
            .find(|s| s.starts_with(w.name()))
            .unwrap_or_else(|| panic!("no report for {}", w.name()));
        for (name, unit) in END_TO_END {
            assert!(
                section.lines().any(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    f.len() == 3 && f[0] == name && f[2] == unit
                }),
                "{}: {name} [{unit}] not printed:\n{section}",
                w.name()
            );
            if !UNGATED.contains(&name) {
                let key = format!("\"{}.{name}\": {{\"value\": ", w.name());
                assert!(result.contains(&key), "{key} missing from {result}");
                assert!(result.contains(&format!("\"unit\": \"{unit}\"")));
            }
        }
    }
}
