//! `perfbench` — runs one workload (or `all`) and prints its report, then
//! the result line.
//!
//! ```text
//! perfbench --workload scan-closed --seed 1 --seconds 20 --trace 0
//! perfbench --workload all --seconds 10 --trace 1
//! ```
//!
//! `--seed` sets the mix order and the arrival schedule. Other flags:
//! `--data-seed N` overrides the generator's standard data seed;
//! `--work-dir DIR` (default `.perfbench`) holds the persisted catalog while
//! a run lasts and the traced run's Chrome JSON.
//! Instrument self-tests: `--tamper` corrupts one expected answer;
//! `--stall-ms MS --stall-at K` delays the engine on statement `K` of every
//! server session.
//!
//! Exit code 0 when every answer was verified, 1 when any was wrong, 2 on
//! a usage or set-up error (without a result line).

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::setup::Stall;
use perfbench::workloads::Workload;
use perfbench::{result_json, run, Metric, Options, UNGATED};

fn parse_args(args: &[String]) -> Result<(Vec<Workload>, Options), String> {
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let num = |v: Option<String>, flag: &str| -> Result<Option<f64>, String> {
        v.map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("{flag} needs a number, got {s:?}"))
        })
        .transpose()
    };
    let workload = get("--workload").ok_or("--workload is required")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let seed = num(get("--seed"), "--seed")?.unwrap_or(1.0) as u64;
    let mut opts = Options::new(workloads[0], seed);
    if let Some(s) = num(get("--data-seed"), "--data-seed")? {
        opts.data_seed = s as u64;
    }
    if let Some(s) = num(get("--seconds"), "--seconds")? {
        opts.seconds = s;
    }
    if let Some(t) = get("--trace") {
        opts.trace = match t.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        };
    }
    if let Some(dir) = get("--work-dir") {
        opts.work_dir = PathBuf::from(dir);
    }
    opts.tamper = args.iter().any(|a| a == "--tamper");
    if let Some(ms) = num(get("--stall-ms"), "--stall-ms")? {
        let statement =
            num(get("--stall-at"), "--stall-at")?.ok_or("--stall-ms needs --stall-at")?;
        opts.stall = Some(Stall {
            statement: statement as u64,
            ms,
        });
    }
    Ok((workloads, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let single = workloads.len() == 1;
    let (mut attempted, mut failed, mut correct) = (0, 0, true);
    let mut metrics: Vec<Metric> = Vec::new();
    for workload in workloads {
        let opts = Options {
            workload,
            ..opts.clone()
        };
        let outcome = match run(&opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        println!("{}", outcome.report);
        attempted += outcome.attempted;
        failed += outcome.failed;
        correct &= outcome.correct();
        let reported = if opts.trace {
            outcome.per_layer
        } else {
            outcome
                .end_to_end
                .into_iter()
                .filter(|m| !UNGATED.contains(&m.name.as_str()))
                .collect()
        };
        metrics.extend(reported.into_iter().map(|m| Metric {
            name: if single {
                m.name
            } else {
                format!("{}.{}", workload.name(), m.name)
            },
            ..m
        }));
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
