//! # perfbench
//!
//! The repository's benchmark: what a client of a `minidb-net` server sees
//! over TCP against a disk-backed catalog, and the split of that time into
//! layers, measured from outside the program.
//!
//! One run of one workload:
//!
//! 1. computes the expected answers with the debug engine over an
//!    in-memory catalog (not part of set-up time);
//! 2. sets up [`SETUPS`] times — generate, persist, reopen disk-backed,
//!    start a sharded server on a loopback TCP listener, connect, one
//!    verified warm-up pass — and keeps the last; `setup_s` is the median;
//! 3. resets the peak resident set and runs the timed window from the
//!    benchmark's own driver, verifying every answer;
//! 4. with tracing on, runs half the window untraced and half traced,
//!    then the layer probes, and reports per-layer metrics, the self-time
//!    table, the residual and the tracing overhead.
//!
//! State policy: the buffer pool is never dropped inside a timed window,
//! so `cold-scan` misses come from its budget and not from flushes; the
//! OS page cache is left as it is, so store numbers are the host's
//! `pread`, checksum and decode cost, not a device's.

pub mod driver;
pub mod probes;
pub mod setup;
pub mod spans;
pub mod sys;
pub mod verify;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use perfeval_trace::{chrome_trace_json, validate_chrome, Tracer};
use workload::dbgen::{generate, GenConfig};

use crate::driver::{run_window, Failure, SplitMix64, Window};
use crate::probes::{Probes, OP_GROUPS};
use crate::setup::{Served, SetupTimes, Stall};
use crate::spans::{layer_table, LayerTable};
use crate::verify::Expected;
use crate::workloads::{Arrival, Spec, Workload};

/// The end-to-end metrics every run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_qps", "q/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
    ("error_rate", "fraction"),
];

/// End-to-end metrics the report prints but the result line leaves out.
/// `error_rate` is 0 on a correct run; the result line carries it as
/// `failed` / `attempted`. The median falls on one statement of the mix,
/// so host noise in that statement's costs moved it by up to 15% on
/// `scan-closed` (quartile spread over ten runs); in a one-connection
/// closed loop, `throughput_qps` is the reciprocal of the mean latency and
/// gates the centre instead. `peak_rss_mb` moved by a quarter between
/// identical `cold-scan` runs, as pool evictions fragment the C
/// allocator's per-thread heaps differently each time.
pub const UNGATED: [&str; 3] = ["latency_p50_ms", "peak_rss_mb", "error_rate"];

/// Set-ups per run. `setup_s` is their median, so one set-up slowed by the
/// host cannot decide a run's figure.
pub const SETUPS: usize = 5;

/// The state policy, printed with every run.
pub const STATE_POLICY: &str = "the buffer pool is never dropped inside a timed window, so \
cold-scan misses come from its budget and not from flushes; the OS page cache is left as it \
is, so store numbers are this host's pread, checksum and decode cost, not a device's";

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The run's seed, from which the arrival seed (mix order and arrival
    /// schedule) is derived.
    pub seed: u64,
    /// Seed of the data generator; defaults to the generator's standard
    /// seed, so runs differ only in mix order and arrivals.
    pub data_seed: u64,
    /// Length of the timed window, s.
    pub seconds: f64,
    /// Split the window into an untraced and a traced half and run the
    /// layer probes.
    pub trace: bool,
    /// Directory for the persisted catalog and the trace files.
    pub work_dir: PathBuf,
    /// Corrupt one expected answer (instrument self-test).
    pub tamper: bool,
    /// Stall the engine on one statement (instrument self-test).
    pub stall: Option<Stall>,
}

impl Options {
    /// Defaults for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Options {
        Options {
            workload,
            seed,
            data_seed: GenConfig::default().seed,
            seconds: 10.0,
            trace: false,
            work_dir: PathBuf::from(".perfbench"),
            tamper: false,
            stall: None,
        }
    }
}

/// One named, measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Requests sent in the timed windows.
    pub attempted: usize,
    /// Requests without a verified answer (errors, `Rejected` frames,
    /// mismatches).
    pub failed: usize,
    /// The end-to-end metrics, from the untraced window.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// The untraced window.
    pub window: Window,
    /// Human-readable report.
    pub report: String,
}

impl Outcome {
    /// True if every request was answered correctly and every value is a
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }
}

// The statistics helpers and the driver's generator live here rather than
// in perfeval-stats, so a change to the measured crates cannot change the
// instrument.

/// The `p`-quantile (0..=1) of `values`, by nearest rank; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

/// Runs one workload end to end.
///
/// # Errors
/// Set-up, probe or trace-validation failures; wrong answers are not
/// errors but count in [`Outcome::failed`].
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let spec = opts.workload.spec();
    let arrival_seed = SplitMix64::new(opts.seed, 0xA221).next_u64();
    let data_root = opts.work_dir.join("data");
    std::fs::create_dir_all(&data_root)
        .map_err(|e| format!("create {}: {e}", data_root.display()))?;
    let mut report = String::new();
    let w = &mut report;
    let _ = writeln!(w, "== perfbench {} ==", opts.workload.name());
    let _ = writeln!(w, "why: {}", opts.workload.why());
    let _ = writeln!(w, "host: {}", sys::host_fingerprint(&data_root));
    let _ = writeln!(
        w,
        "seeds: seed={} data_seed={} arrival_seed={}",
        opts.seed, opts.data_seed, arrival_seed
    );
    let _ = writeln!(w, "state policy: {STATE_POLICY}");

    let reference = generate(&GenConfig {
        scale_factor: spec.scale_factor,
        seed: opts.data_seed,
        part_skew: None,
    });
    let mut expected = Expected::compute(reference, &spec.mix)?;

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut served = None;
    for k in 0..SETUPS {
        // Tear the previous set-up down first, so set-ups never overlap.
        drop(served.take());
        let dir = data_root.join(format!(
            "{}-{}-{k}",
            opts.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (s, times) = Served::start(&spec, opts.data_seed, &dir, &expected, opts.stall)?;
        setups.push(times);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    if opts.tamper {
        expected.tamper();
    }
    describe_sizes(w, &spec, &expected, &served);
    let totals: Vec<String> = setups.iter().map(|t| format!("{:.4}", t.total_s)).collect();
    let _ = writeln!(
        w,
        "set-up: {SETUPS} set-ups of [{}] s, setup_s is their median; the first timed request \
         follows the run's start by {:.3} s (expected answers and every set-up)",
        totals.join(", "),
        started.elapsed().as_secs_f64()
    );

    let rss_reset = sys::reset_peak_rss();
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let window = run_window(
        &mut served,
        &spec,
        &expected,
        untraced_s,
        arrival_seed,
        None,
    );
    let peak_rss = sys::peak_rss_mib();
    let mut attempted = window.samples.len();
    let mut failed = window.failed();

    let end_to_end = end_to_end_metrics(&setups, &window, peak_rss);
    describe_end_to_end(w, &end_to_end, &window, rss_reset);

    let mut per_layer = Vec::new();
    if opts.trace {
        let tracer = Tracer::new();
        let traced = run_window(
            &mut served,
            &spec,
            &expected,
            opts.seconds / 2.0,
            arrival_seed.wrapping_add(1),
            Some(&tracer),
        );
        attempted += traced.samples.len();
        failed += traced.failed();
        let probes = probes::run(&served.catalog, &served.dir, &spec.mix, &expected, &tracer)?;
        let trace = tracer.snapshot();
        let json = chrome_trace_json(&trace);
        let summary = validate_chrome(&json).map_err(|e| format!("chrome trace: {e}"))?;
        let trace_dir = opts.work_dir.join("traces");
        std::fs::create_dir_all(&trace_dir)
            .map_err(|e| format!("create {}: {e}", trace_dir.display()))?;
        let trace_file = trace_dir.join(format!("{}.json", opts.workload.name()));
        std::fs::write(&trace_file, json)
            .map_err(|e| format!("write {}: {e}", trace_file.display()))?;
        let table = layer_table(&trace);
        let overhead = 1.0 - traced.throughput_qps() / window.throughput_qps();
        per_layer = per_layer_metrics(&setups, &traced, &probes, &table, overhead, &served);
        let _ = writeln!(
            w,
            "\ntraced window: {} requests, {} spans ({} dropped), chrome trace {} \
             ({} events, validated)",
            traced.samples.len(),
            trace.span_count(),
            trace.total_dropped(),
            trace_file.display(),
            summary.events
        );
        let _ = writeln!(
            w,
            "tracing overhead: throughput {:.2} q/s traced vs {:.2} untraced ({:+.2}%), \
             p50 {:.4} ms vs {:.4} ms",
            traced.throughput_qps(),
            window.throughput_qps(),
            100.0 * overhead,
            latency_p50(&traced),
            latency_p50(&window)
        );
        let tables: Vec<String> = probes
            .tables
            .iter()
            .map(|(name, rows, chunks)| format!("{name} {rows} rows x {chunks} chunk(s)/column"))
            .collect();
        let _ = writeln!(
            w,
            "sizes: {}; the mix touches {:.2} MiB decoded",
            tables.join(", "),
            probes.touched_mib
        );
        let _ = writeln!(w, "self time per request (traced window):");
        w.push_str(&table.render());
        describe_ordering(w, opts.workload, &table, &per_layer);
        let _ = writeln!(w, "per-layer metrics:");
        for m in &per_layer {
            let _ = writeln!(w, "  {:<40} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    drop(served);

    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        window,
        report,
    })
}

fn latency_percentile(window: &Window, p: f64) -> f64 {
    let lat: Vec<f64> = window.ok().map(|(s, _)| s.latency_ms).collect();
    percentile(&lat, p)
}

/// Median client latency, taken as the median over the mix's statements
/// of each statement's median. A pooled median over statements whose
/// latencies lie far apart falls in the gap between two of them and jumps
/// from run to run; this one moves only as the statements do.
fn latency_p50(window: &Window) -> f64 {
    let mut by_statement: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (s, _) in window.ok() {
        by_statement.entry(s.query).or_default().push(s.latency_ms);
    }
    let medians: Vec<f64> = by_statement.values().map(|v| median(v)).collect();
    median(&medians)
}

fn end_to_end_metrics(setups: &[SetupTimes], window: &Window, peak_rss: f64) -> Vec<Metric> {
    let totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let ok = window.ok().count();
    let values = [
        median(&totals),
        window.throughput_qps(),
        latency_p50(window),
        latency_percentile(window, 0.99),
        window.cpu_ms / ok.max(1) as f64,
        peak_rss,
        window.failed() as f64 / window.samples.len().max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| metric(name, unit, v))
        .collect()
}

fn per_layer_metrics(
    setups: &[SetupTimes],
    w: &Window,
    p: &Probes,
    table: &LayerTable,
    overhead: f64,
    served: &Served,
) -> Vec<Metric> {
    let ok: Vec<_> = w.ok().collect();
    let n = ok.len().max(1) as f64;
    let avg = |f: &dyn Fn(&driver::Reply) -> f64| mean(ok.iter().map(|(_, r)| f(r)));
    let lags: Vec<f64> = ok.iter().map(|(s, _)| s.send_lag_ms).collect();
    let naive: Vec<f64> = ok.iter().map(|(s, _)| s.naive_ms).collect();
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let execute_ms = avg(&|r| r.footer.execute_ms);
    let physical_per_query = w.store.physical_reads as f64 / n;
    let mut m = vec![
        metric("driver.send_lag_p99_ms", "ms", percentile(&lags, 0.99)),
        metric(
            "driver.queue_ms",
            "ms",
            mean(ok.iter().map(|(s, _)| s.queue_ms())),
        ),
        metric("driver.naive_p99_ms", "ms", percentile(&naive, 0.99)),
        metric("net.wire_ms", "ms", avg(&|r| r.wire_ms)),
        metric("net.serialize_ms", "ms", avg(&|r| r.footer.serialize_ms)),
        metric("net.bytes_per_query", "count", avg(&|r| r.bytes as f64)),
        metric(
            "net.rows_per_query",
            "count",
            avg(&|r| r.footer.rows as f64),
        ),
        metric(
            "net.frame_encode_ns_per_row",
            "ns",
            p.frame_encode_ns_per_row,
        ),
        metric(
            "net.frame_decode_ns_per_row",
            "ns",
            p.frame_decode_ns_per_row,
        ),
        metric(
            "net.steal_borrows_per_query",
            "count",
            w.steal_borrows as f64 / n,
        ),
        metric(
            "net.write_queue_peak",
            "count",
            served.server.write_queue_peak() as f64,
        ),
        metric("net.rejected", "count", w.rejected as f64),
        metric("minidb.parse_ms", "ms", avg(&|r| r.footer.parse_ms)),
        metric("minidb.optimize_ms", "ms", avg(&|r| r.footer.optimize_ms)),
        metric("minidb.plan_us", "us", p.plan_us),
        metric("minidb.execute_ms", "ms", execute_ms),
        metric(
            "minidb.execute_cpu_ms",
            "ms",
            avg(&|r| r.footer.execute_cpu_ms),
        ),
        metric("minidb.inproc_execute_ms", "ms", p.inproc_execute_ms),
    ];
    for (group, v) in OP_GROUPS.iter().zip(p.op_ms) {
        m.push(Metric {
            name: format!("minidb.op.{group}_ms"),
            unit: "ms",
            value: v,
        });
    }
    m.extend([
        metric(
            "minidb.rows_examined_per_row_returned",
            "count",
            p.rows_examined_per_row_returned,
        ),
        metric(
            "store.logical_reads_per_query",
            "count",
            w.store.logical_reads as f64 / n,
        ),
        metric(
            "store.physical_reads_per_query",
            "count",
            physical_per_query,
        ),
        metric(
            "store.evictions_per_query",
            "count",
            w.store.evictions as f64 / n,
        ),
        metric("store.overcommits", "count", w.store.overcommits as f64),
        metric("store.hit_rate", "fraction", w.store.hit_rate()),
        metric(
            "store.read_segment_ms_per_mib",
            "ms/MiB",
            p.read_segment_ms_per_mib,
        ),
        metric("store.decode_ms_per_mib", "ms/MiB", p.decode_ms_per_mib),
        metric(
            "store.io_share",
            "fraction",
            physical_per_query * p.read_segment_ms_each / execute_ms.max(f64::MIN_POSITIVE),
        ),
        metric("store.touched_mib", "MiB", p.touched_mib),
        metric("workload.generate_s", "s", setup(|t| t.generate_s)),
        metric("store.persist_s", "s", setup(|t| t.persist_s)),
        metric("store.open_s", "s", setup(|t| t.open_s)),
        metric("net.connect_s", "s", setup(|t| t.connect_s)),
        metric("warmup_s", "s", setup(|t| t.warmup_s)),
        metric("trace.residual_ms", "ms", table.residual_ms),
        metric("trace.overhead", "fraction", overhead),
    ]);
    m
}

fn describe_sizes(w: &mut String, spec: &Spec, expected: &Expected, served: &Served) {
    let arrival = match spec.arrival {
        Arrival::Closed => "closed loop".to_owned(),
        Arrival::OpenPoisson { rate_qps } => format!("open-loop Poisson at {rate_qps} q/s"),
    };
    let rows: Vec<String> = expected
        .answers
        .iter()
        .map(|a| a.len().to_string())
        .collect();
    let _ = writeln!(
        w,
        "sizes: sf={} pool={:.1} MiB connections={} {arrival}; mix of {}; result rows per \
         query [{}]; resident after warm-up {:.2} MiB",
        spec.scale_factor,
        spec.pool_bytes as f64 / (1024.0 * 1024.0),
        spec.connections,
        spec.mix.len(),
        rows.join(", "),
        served
            .catalog
            .storage()
            .map_or(0.0, |s| s.resident_bytes() as f64 / (1024.0 * 1024.0)),
    );
}

fn describe_end_to_end(w: &mut String, metrics: &[Metric], window: &Window, rss_reset: bool) {
    let count = |f: Failure| {
        window
            .samples
            .iter()
            .filter(|s| s.reply.as_ref().err() == Some(&f))
            .count()
    };
    let _ = writeln!(
        w,
        "timed window: {} requests in {:.3} s; {} errors, {} rejected, {} mismatches{}",
        window.samples.len(),
        window.elapsed_s,
        count(Failure::Error),
        count(Failure::Rejected),
        count(Failure::Mismatch),
        if window.samples.len() < 1000 {
            "; fewer than 1000 requests, so p99 rests on fewer than ten samples"
        } else {
            ""
        }
    );
    if !rss_reset {
        let _ = writeln!(
            w,
            "note: VmHWM could not be reset; peak_rss_mb includes set-up"
        );
    }
    let _ = writeln!(w, "end-to-end metrics:");
    for m in metrics {
        let _ = writeln!(w, "  {:<20} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

/// Checks the layer ordering the workloads were chosen for.
fn describe_ordering(w: &mut String, workload: Workload, table: &LayerTable, layer: &[Metric]) {
    let get = |name: &str| {
        layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let verdict = |ok: bool| if ok { "holds" } else { "differs" };
    let execute = table.layer("minidb.execute");
    let largest_other = |skip: &[&str]| {
        spans::LAYERS
            .iter()
            .filter(|l| !skip.contains(l))
            .map(|l| table.layer(l))
            .fold(0.0, f64::max)
    };
    let (hit, physical) = (get("store.hit_rate"), get("store.physical_reads_per_query"));
    let _ = writeln!(w, "layer ordering:");
    match workload {
        Workload::ScanClosed | Workload::ColdScan => {
            let _ = writeln!(
                w,
                "  execute dominates: {} (execute {:.1}% of latency)",
                verdict(execute > largest_other(&["minidb.execute"])),
                100.0 * table.share(execute)
            );
        }
        Workload::WideExport => {
            let delivery = table.layer("net.serialize") + table.layer("net.wire");
            let _ = writeln!(
                w,
                "  serialize + wire dominate: {} (serialize + wire {:.1}%, execute {:.1}%)",
                verdict(delivery > largest_other(&["net.serialize", "net.wire"])),
                100.0 * table.share(delivery),
                100.0 * table.share(execute)
            );
        }
        Workload::PointOpen => {}
    }
    if workload == Workload::ColdScan {
        let _ = writeln!(
            w,
            "  store hit rate <= 0.1: {} (hit rate {hit:.4})",
            verdict(hit <= 0.1)
        );
    } else {
        let _ = writeln!(
            w,
            "  store hit rate 1 with 0 physical reads: {} (hit rate {hit:.4}, {physical} \
             physical reads per query)",
            verdict(hit == 1.0 && physical == 0.0)
        );
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
