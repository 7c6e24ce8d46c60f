//! Layer probes: timed calls into each layer's public functions, run apart
//! from the timed windows so they never perturb the end-to-end numbers.

use std::path::{Path, PathBuf};
use std::time::Instant;

use minidb::optimizer::{optimize, OptimizerConfig};
use minidb::parser::{parse, to_plan};
use minidb::{Catalog, Session, StoreConfig};
use minidb_net::{Frame, ROWS_PER_BATCH};
use perfeval_store::{decode_segment, read_segment, CatalogManifest, TableManifest};
use perfeval_trace::Tracer;

use crate::verify::Expected;

/// Each probe repeats its work until at least this much time has passed,
/// so one reading averages over many calls.
const PROBE_SECONDS: f64 = 0.2;

/// The operator groups of [`Probes::op_ms`].
pub const OP_GROUPS: [&str; 6] = ["scan", "filter", "project", "aggregate", "join", "sort"];

/// What the probes measured, per mix statement where not said otherwise.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// `parse` + `to_plan` + `optimize`, µs.
    pub plan_us: f64,
    /// Execute time in an in-process one-thread session, no server, ms.
    pub inproc_execute_ms: f64,
    /// Profile exclusive time per operator group ([`OP_GROUPS`]), ms.
    pub op_ms: [f64; 6],
    /// Rows the scans produced per result row returned.
    pub rows_examined_per_row_returned: f64,
    /// `read_segment` (pread + checksum + decode) over every segment
    /// file, ms per MiB of file.
    pub read_segment_ms_per_mib: f64,
    /// Mean `read_segment` time of one segment, ms.
    pub read_segment_ms_each: f64,
    /// `decode_segment` on bytes already in memory, ms per MiB.
    pub decode_ms_per_mib: f64,
    /// `Frame::encode` of `RowBatch` frames of the mix's own results, ns
    /// per row.
    pub frame_encode_ns_per_row: f64,
    /// `Frame::decode` of the same frames, ns per row.
    pub frame_decode_ns_per_row: f64,
    /// Decoded bytes the mix touches: the pool's resident bytes after one
    /// pass from an unbounded pool, MiB.
    pub touched_mib: f64,
    /// Rows per table and the most chunks any of its columns spans.
    pub tables: Vec<(String, u64, usize)>,
}

/// Repeats `f` until [`PROBE_SECONDS`] have passed; returns the mean
/// seconds per call.
fn repeat(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u32;
    while n == 0 || t0.elapsed().as_secs_f64() < PROBE_SECONDS {
        f();
        n += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(n)
}

/// Runs every probe against the served catalog in `dir`.
pub fn run(
    catalog: &Catalog,
    dir: &Path,
    mix: &[String],
    expected: &Expected,
    tracer: &Tracer,
) -> Result<Probes, String> {
    let mut p = Probes::default();
    let n = mix.len() as f64;

    {
        let _s = tracer.span("probe.plan");
        let columns = |t: &str| Ok(catalog.table(t)?.column_names().to_vec());
        let secs = repeat(|| {
            for sql in mix {
                let stmt = parse(sql).expect("mix parses");
                let plan = to_plan(&stmt, columns).expect("mix plans");
                optimize(plan, catalog, OptimizerConfig::all()).expect("mix optimizes");
            }
        });
        p.plan_us = secs * 1e6 / n;
    }

    {
        let _s = tracer.span("probe.inproc_execute");
        let mut session = Session::new(catalog.clone()).with_parallelism(1);
        let (mut examined, mut returned) = (0usize, 0usize);
        let mut runs = 0u32;
        let t0 = Instant::now();
        while runs == 0 || t0.elapsed().as_secs_f64() < PROBE_SECONDS {
            for sql in mix {
                let r = session
                    .query(sql)
                    .run()
                    .map_err(|e| format!("{sql:?}: {e}"))?;
                p.inproc_execute_ms += r.server_real_ms();
                for e in &r.profile {
                    p.op_ms[op_group(&e.op)] += e.exclusive_ms;
                    if e.op.starts_with("Scan") {
                        examined += e.rows_out;
                    }
                }
                returned += r.row_count();
            }
            runs += 1;
        }
        let calls = n * f64::from(runs);
        p.inproc_execute_ms /= calls;
        p.op_ms.iter_mut().for_each(|v| *v /= calls);
        p.rows_examined_per_row_returned = examined as f64 / returned.max(1) as f64;
    }

    let segments = segment_files(dir)?;
    let bytes: u64 = segments.iter().map(|(_, b)| b).sum();
    let mib = bytes as f64 / (1024.0 * 1024.0);
    {
        let _s = tracer.span("probe.read_segment");
        let secs = repeat(|| {
            for (path, _) in &segments {
                read_segment(path, None, 0).expect("segment reads");
            }
        });
        p.read_segment_ms_per_mib = secs * 1e3 / mib;
        p.read_segment_ms_each = secs * 1e3 / segments.len() as f64;
    }
    {
        let _s = tracer.span("probe.decode_segment");
        let files = segments
            .iter()
            .map(|(path, _)| std::fs::read(path).map_err(|e| format!("{}: {e}", path.display())))
            .collect::<Result<Vec<_>, _>>()?;
        let secs = repeat(|| {
            for f in &files {
                decode_segment(f).expect("segment decodes");
            }
        });
        p.decode_ms_per_mib = secs * 1e3 / mib;
    }

    {
        let _s = tracer.span("probe.frame");
        let frames: Vec<Frame> = expected
            .answers
            .iter()
            .flat_map(|rows| rows.chunks(ROWS_PER_BATCH))
            .map(|chunk| Frame::RowBatch {
                rows: chunk.to_vec(),
            })
            .collect();
        let rows: usize = expected.answers.iter().map(Vec::len).sum();
        let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
        let per_row = |secs: f64| secs * 1e9 / rows.max(1) as f64;
        p.frame_encode_ns_per_row = per_row(repeat(|| {
            for f in &frames {
                std::hint::black_box(f.encode());
            }
        }));
        p.frame_decode_ns_per_row = per_row(repeat(|| {
            for bytes in &encoded {
                // Skip the length prefix, as the framed reader does.
                Frame::decode(&bytes[4..]).expect("frame decodes");
            }
        }));
    }

    {
        let _s = tracer.span("probe.touched");
        let roomy = Catalog::open_with(dir, StoreConfig::default().pool_bytes(1 << 40))
            .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        let storage = roomy.storage().cloned().expect("disk-backed catalog");
        let mut session = Session::new(roomy);
        for sql in mix {
            session
                .query(sql)
                .run()
                .map_err(|e| format!("{sql:?}: {e}"))?;
        }
        p.touched_mib = storage.resident_bytes() as f64 / (1024.0 * 1024.0);
    }

    p.tables = table_shapes(dir)?;
    Ok(p)
}

/// Index into [`OP_GROUPS`] of a profile operator label.
fn op_group(op: &str) -> usize {
    let name = op.split_whitespace().next().unwrap_or("");
    match name {
        "Scan" => 0,
        "Filter" => 1,
        "HashAggregate" | "Distinct" => 3,
        "HashJoin" => 4,
        "Sort" | "TopN" => 5,
        // Project and Limit only pass rows on.
        _ => 2,
    }
}

fn manifests(dir: &Path) -> Result<Vec<(PathBuf, TableManifest)>, String> {
    let err = |e: perfeval_store::StoreError| format!("{}: {e}", dir.display());
    let catalog = CatalogManifest::load(dir).map_err(err)?.unwrap_or_default();
    catalog
        .tables
        .iter()
        .map(|t| {
            let table_dir = dir.join(t);
            let m = TableManifest::load(&table_dir)
                .map_err(err)?
                .ok_or_else(|| format!("{t}: no manifest"))?;
            Ok((table_dir, m))
        })
        .collect()
}

/// Every committed segment file with its size in bytes.
fn segment_files(dir: &Path) -> Result<Vec<(PathBuf, u64)>, String> {
    Ok(manifests(dir)?
        .into_iter()
        .flat_map(|(table_dir, m)| {
            m.columns
                .into_iter()
                .flat_map(|c| c.chunks)
                .map(move |ch| (table_dir.join(&ch.file), ch.bytes))
                .collect::<Vec<_>>()
        })
        .collect())
}

fn table_shapes(dir: &Path) -> Result<Vec<(String, u64, usize)>, String> {
    Ok(manifests(dir)?
        .into_iter()
        .map(|(_, m)| {
            let chunks = m.columns.iter().map(|c| c.chunks.len()).max().unwrap_or(0);
            (m.name, m.rows, chunks)
        })
        .collect())
}
