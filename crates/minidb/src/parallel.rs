//! The batch engine's operators, run over morsels.
//!
//! `Scan`, `Filter`, `Project`, `Join` and `Aggregate` of the optimized
//! engine (OPT and SIMD) run here at every thread count. Each splits its
//! input into fixed-size row-range *morsels* that workers pull from a
//! shared atomic cursor ([`perfeval_pool::parallel_map_traced`]). With
//! `threads = 1` one worker drains the same queue inline on the calling
//! thread: no thread is spawned and nothing else changes.
//!
//! * **Pipelines** — a `Filter`/`Project` chain over a scan, or over any
//!   other operator's materialized output — run whole per morsel, with the
//!   selection vector kept worker-local. The per-morsel outputs are
//!   stitched back together in morsel-index order.
//! * **Hash aggregation** runs the input chain and a local grouping per
//!   morsel (string keys by dictionary code), merges the group directories
//!   in morsel order — the first-seen group order of one pass over the
//!   input — and then folds each aggregate column-at-a-time over the
//!   morsels in order, so every float accumulator sees its rows in input
//!   order.
//! * **Hash joins** build the table on the smaller input and probe over
//!   morsels of the other, concatenating the matched pairs in morsel order
//!   and canonicalizing so the output is independent of the build side.
//!
//! Every merge point is ordered by morsel index, never by completion
//! order, so the result is **bit-identical** for any thread count and
//! morsel size, and matches the row-at-a-time debug engine — the property
//! the correctness suite asserts and exhibit E19 leans on ("same question,
//! same answer, different wall-clock").
//!
//! `Sort`, `TopN`, `Limit` and `Distinct` do not split; they run in
//! [`Executor::run_batch`] over their input's materialized batch.

use crate::column::{Column, StrDict};
use crate::error::DbError;
use crate::exec::{
    bind_join_keys, canonicalize_join_pairs, choose_build_side, finish_aggregate_batch, plan_label,
    record_pool_io, value_key, vectorized_eval, vectorized_filter, vectorized_filter_range,
    AggState, Batch, BuildSide, Executor, JoinBuild, Key, ProfileEntry,
};
use crate::expr::{AggFunc, Expr};
use crate::kernels::{self, Engine, Sel};
use crate::plan::Plan;
use crate::types::{DataType, Value};
use perfeval_pool::{parallel_map, parallel_map_traced};
use perfeval_trace::{SpanGuard, Tracer};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Runs a `Scan`, `Filter`, `Project`, `Join` or `Aggregate` node: the
/// operators [`Executor::run_batch`] hands to the morsel engine.
pub(crate) fn run_operator(
    ex: &mut Executor<'_>,
    plan: &Plan,
    depth: usize,
) -> Result<Batch, DbError> {
    match plan {
        Plan::Aggregate {
            input,
            group_by,
            aggregates,
        } => run_aggregate(ex, plan, input, group_by, aggregates, depth),
        Plan::Join {
            left,
            right,
            left_key,
            right_key,
        } => run_join(ex, left, right, left_key, right_key, depth),
        _ => run_pipeline(ex, plan, depth),
    }
}

// --------------------------------------------------------------------
// Pipeline chains: source → filter* → project* run whole per morsel.
// --------------------------------------------------------------------

/// A `Filter`/`Project` chain over its source: a base-table scan, or any
/// other operator, whose output is materialized first.
struct Chain<'p> {
    /// Chain nodes, root first (execution order is the reverse).
    stages: Vec<&'p Plan>,
    source: &'p Plan,
}

fn decompose(plan: &Plan) -> Chain<'_> {
    let mut stages = Vec::new();
    let mut cur = plan;
    while let Plan::Filter { input, .. } | Plan::Project { input, .. } = cur {
        stages.push(cur);
        cur = input;
    }
    Chain {
        stages,
        source: cur,
    }
}

/// One chain stage with its expressions bound to column indices.
enum BoundStage {
    Filter {
        pred: Expr,
    },
    Project {
        exprs: Vec<Expr>,
        names: Vec<String>,
        in_schema: Vec<(String, DataType)>,
    },
}

/// A chain whose source has run and whose stages are bound: everything
/// the morsel workers read.
struct PreparedChain {
    /// The source's output, shared read-only by every morsel.
    base: Batch,
    /// Stages in execution (leaf→root) order.
    stages: Vec<BoundStage>,
    /// Operator labels matching `stages` (leaf→root).
    labels: Vec<String>,
    out_schema: Vec<(String, DataType)>,
    morsels: usize,
}

/// The one scan routine: shares the table's columns by `Arc` (disk-backed
/// tables fetch through the buffer pool), and records the scan's span,
/// with its pool hits and misses, and its profile entry.
fn run_scan(
    ex: &mut Executor<'_>,
    table: &str,
    projection: Option<&[usize]>,
    depth: usize,
) -> Result<Batch, DbError> {
    let start = Instant::now();
    let label = format!("Scan {table}");
    let mut span = ex.tracer.map(|t| t.span(&label));
    let io_before = span.as_ref().and_then(|_| ex.io_counters());
    let t = ex.catalog.table(table)?;
    let idxs: Vec<usize> = match projection {
        None => (0..t.column_count()).collect(),
        Some(p) => p.to_vec(),
    };
    let base = Batch {
        names: idxs.iter().map(|&i| t.column_names()[i].clone()).collect(),
        cols: idxs
            .iter()
            .map(|&i| t.column_arc_io(i))
            .collect::<Result<_, DbError>>()?,
    };
    let rows = base.row_count();
    if let Some(g) = span.as_mut() {
        g.attr("rows_out", rows);
        if let (Some(before), Some(after)) = (io_before, ex.io_counters()) {
            record_pool_io(g, &after.since(&before));
        }
    }
    drop(span);
    ex.profile.push(ProfileEntry {
        op: label,
        depth,
        exclusive_ms: start.elapsed().as_secs_f64() * 1e3,
        rows_out: rows,
        note: None,
    });
    Ok(base)
}

/// Opens the chain's stage spans root first, so they nest like the plan
/// and the source's spans nest inside them.
fn open_stage_spans<'t>(tracer: Option<&'t Tracer>, chain: &Chain<'_>) -> Vec<SpanGuard<'t>> {
    let Some(t) = tracer else { return Vec::new() };
    chain
        .stages
        .iter()
        .map(|s| t.span(&plan_label(s)))
        .collect()
}

/// Runs the chain's source at `depth + stages` and binds the stages
/// against its output. Bind errors are the plan's own.
fn prepare_chain(
    ex: &mut Executor<'_>,
    chain: &Chain<'_>,
    depth: usize,
) -> Result<PreparedChain, DbError> {
    let base = ex.run_batch(chain.source, depth + chain.stages.len())?;
    let mut schema = base.schema();
    let mut stages = Vec::with_capacity(chain.stages.len());
    let mut labels = Vec::with_capacity(chain.stages.len());
    for node in chain.stages.iter().rev() {
        labels.push(plan_label(node));
        match node {
            Plan::Filter { predicate, .. } => stages.push(BoundStage::Filter {
                pred: predicate.bind(&schema)?,
            }),
            Plan::Project { exprs, .. } => {
                let mut bound = Vec::with_capacity(exprs.len());
                let mut out = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    bound.push(e.bind(&schema)?);
                    out.push((name.clone(), e.data_type(&schema)?));
                }
                stages.push(BoundStage::Project {
                    exprs: bound,
                    names: out.iter().map(|(n, _)| n.clone()).collect(),
                    in_schema: std::mem::replace(&mut schema, out),
                });
            }
            _ => unreachable!("decompose only collects Filter/Project"),
        }
    }
    let morsels = base.row_count().div_ceil(ex.parallel.morsel_rows);
    Ok(PreparedChain {
        base,
        stages,
        labels,
        out_schema: schema,
        morsels,
    })
}

/// A morsel's rows after the chain: still a selection over the base batch
/// while no `Project` has run, a materialized batch after one has.
enum MorselRows {
    Sel(Sel),
    Batch(Batch),
}

impl MorselRows {
    fn len(&self) -> usize {
        match self {
            MorselRows::Sel(s) => s.len(),
            MorselRows::Batch(b) => b.row_count(),
        }
    }

    /// The rows as a batch plus the range of it they occupy. Rows no stage
    /// touched stay in place in the shared base (zero-copy).
    fn view(self, base: &Batch) -> (Cow<'_, Batch>, Range<usize>) {
        match self {
            MorselRows::Sel(Sel::Dense(range)) => (Cow::Borrowed(base), range),
            MorselRows::Sel(Sel::Sparse(sel)) => (Cow::Owned(base.take(&sel)), 0..sel.len()),
            MorselRows::Batch(b) => {
                let n = b.row_count();
                (Cow::Owned(b), 0..n)
            }
        }
    }
}

/// Runs rows `range` of `base` through the bound stages, returning the
/// surviving rows with the rows out of and seconds spent in each stage
/// (leaf→root). The selection stays lazy until the first `Project`.
fn run_chain_morsel(
    base: &Batch,
    stages: &[BoundStage],
    range: Range<usize>,
    engine: Engine,
) -> Result<(MorselRows, Vec<usize>, Vec<f64>), DbError> {
    let mut stage_rows = Vec::with_capacity(stages.len());
    let mut stage_secs = Vec::with_capacity(stages.len());
    let mut rows = MorselRows::Sel(Sel::Dense(range));
    for stage in stages {
        let t0 = Instant::now();
        rows = match (stage, rows) {
            (BoundStage::Filter { pred }, MorselRows::Sel(sel)) => MorselRows::Sel(Sel::Sparse(
                vectorized_filter_range(base, pred, sel, engine)?,
            )),
            (BoundStage::Filter { pred }, MorselRows::Batch(b)) => {
                let sel = vectorized_filter(&b, pred, engine)?;
                MorselRows::Batch(b.take(&sel))
            }
            (
                BoundStage::Project {
                    exprs,
                    names,
                    in_schema,
                },
                rows,
            ) => {
                let input = match rows {
                    MorselRows::Sel(sel) => base.take(&sel.into_vec()),
                    MorselRows::Batch(b) => b,
                };
                let cols = exprs
                    .iter()
                    .map(|e| vectorized_eval(&input, e, in_schema))
                    .collect::<Result<_, _>>()?;
                MorselRows::Batch(Batch {
                    names: names.clone(),
                    cols,
                })
            }
        };
        stage_rows.push(rows.len());
        stage_secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((rows, stage_rows, stage_secs))
}

/// The morsel span idiom shared by every operator: anchored where the
/// worker's lane became free, with the dispatch gap recorded as a
/// `queue-wait` child and `queued_ms` attribute (be aware what you
/// measure: queueing is not operator time).
fn morsel_span<'t>(
    tracer: Option<&'t Tracer>,
    m: usize,
    sweep_start_ns: u64,
    rows_in: usize,
) -> Option<SpanGuard<'t>> {
    let t = tracer?;
    let anchor_ns = t.lane_resume_ns().max(sweep_start_ns);
    let pickup_ns = t.now_ns();
    let mut g = t.span_at(&format!("morsel {m}"), anchor_ns);
    g.attr("rows_in", rows_in).attr(
        "queued_ms",
        pickup_ns.saturating_sub(anchor_ns) as f64 / 1e6,
    );
    drop(t.span_at("queue-wait", anchor_ns));
    Some(g)
}

/// Runs `f` over the morsels of a `rows`-row input on the executor's
/// workers: polls cancellation at every morsel boundary, wraps each
/// morsel in its span and returns the results in morsel order.
fn sweep<T: Send>(
    ex: &Executor<'_>,
    rows: usize,
    f: impl Fn(Range<usize>, &mut Option<SpanGuard<'_>>) -> Result<T, DbError> + Sync,
) -> Result<Vec<T>, DbError> {
    let tracer = ex.tracer;
    let morsel_rows = ex.parallel.morsel_rows;
    let cancel = ex.cancel.as_ref();
    let sweep_start_ns = tracer.map_or(0, |t| t.now_ns());
    let (results, _workers) = parallel_map_traced(
        rows.div_ceil(morsel_rows),
        ex.parallel.threads,
        tracer,
        |m| {
            if let Some(c) = cancel {
                c.check()?;
            }
            let range = m * morsel_rows..((m + 1) * morsel_rows).min(rows);
            let mut span = morsel_span(tracer, m, sweep_start_ns, range.len());
            f(range, &mut span)
        },
    );
    results.into_iter().collect()
}

/// Per-stage totals of a chain sweep (leaf→root): rows out, and worker
/// seconds — CPU cost, not wall clock.
struct StageTotals {
    rows: Vec<usize>,
    secs: Vec<f64>,
}

/// Runs the prepared chain over every morsel, handing each morsel's rows
/// to `finish` on the worker, and returns the results in morsel order.
fn sweep_chain<T: Send>(
    ex: &Executor<'_>,
    prep: &PreparedChain,
    finish: impl Fn(MorselRows, &mut Option<SpanGuard<'_>>) -> Result<T, DbError> + Sync,
) -> Result<(Vec<T>, StageTotals), DbError> {
    let engine = ex.engine();
    let outs = sweep(ex, prep.base.row_count(), |range, span| {
        let (rows, stage_rows, stage_secs) =
            run_chain_morsel(&prep.base, &prep.stages, range, engine)?;
        Ok((finish(rows, span)?, stage_rows, stage_secs))
    })?;
    let n = prep.stages.len();
    let mut totals = StageTotals {
        rows: vec![0; n],
        secs: vec![0.0; n],
    };
    let results = outs
        .into_iter()
        .map(|(r, rows, secs)| {
            for i in 0..n {
                totals.rows[i] += rows[i];
                totals.secs[i] += secs[i];
            }
            r
        })
        .collect();
    Ok((results, totals))
}

/// The profile note of a morsel-run operator.
fn morsel_note(morsels: usize, threads: usize) -> String {
    format!("{morsels} morsels x {threads} threads")
}

/// Closes the stage spans leaf first with their summed row counts (the
/// root stage also records the sweep shape) and pushes the stages'
/// profile entries leaf→root — the post-order a plan-tree recursion
/// emits. The root stage sits at `depth`.
fn finish_stages(
    ex: &mut Executor<'_>,
    prep: &PreparedChain,
    mut guards: Vec<SpanGuard<'_>>,
    totals: &StageTotals,
    depth: usize,
) {
    let n = prep.stages.len();
    for (gi, g) in guards.iter_mut().enumerate() {
        g.attr("rows_out", totals.rows[n - 1 - gi]); // guard 0 is the root
        if gi == 0 {
            g.attr("morsels", prep.morsels)
                .attr("threads", ex.parallel.threads);
        }
    }
    while let Some(g) = guards.pop() {
        drop(g);
    }
    for i in 0..n {
        ex.profile.push(ProfileEntry {
            op: prep.labels[i].clone(),
            depth: depth + n - 1 - i,
            exclusive_ms: totals.secs[i] * 1e3,
            rows_out: totals.rows[i],
            note: (i == n - 1).then(|| morsel_note(prep.morsels, ex.parallel.threads)),
        });
    }
}

fn run_pipeline(ex: &mut Executor<'_>, plan: &Plan, depth: usize) -> Result<Batch, DbError> {
    let chain = decompose(plan);
    if let (Plan::Scan { table, projection }, []) = (chain.source, &chain.stages[..]) {
        // A bare scan has no per-morsel work.
        return run_scan(ex, table, projection.as_deref(), depth);
    }
    let guards = open_stage_spans(ex.tracer, &chain);
    let prep = prepare_chain(ex, &chain, depth)?;
    let (parts, totals) = sweep_chain(ex, &prep, |rows, span| {
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", rows.len());
        }
        Ok(rows)
    })?;
    let merged = stitch(&prep, parts);
    finish_stages(ex, &prep, guards, &totals, depth);
    Ok(merged)
}

/// Concatenates the per-morsel outputs in morsel-index order. Selections
/// are concatenated and gathered once; materialized parts are appended
/// column by column (a single part is moved, not copied).
fn stitch(prep: &PreparedChain, parts: Vec<MorselRows>) -> Batch {
    let mut sel = Vec::new();
    let mut batches = Vec::with_capacity(parts.len());
    for part in parts {
        match part {
            MorselRows::Sel(s) => sel.extend(s.into_vec()),
            MorselRows::Batch(b) => batches.push(b),
        }
    }
    let projected = prep
        .stages
        .iter()
        .any(|s| matches!(s, BoundStage::Project { .. }));
    if !projected {
        return prep.base.take(&sel);
    }
    if batches.len() == 1 {
        return batches.pop().expect("one part");
    }
    let schema = &prep.out_schema;
    Batch {
        names: schema.iter().map(|(n, _)| n.clone()).collect(),
        cols: schema
            .iter()
            .enumerate()
            .map(|(ci, (_, dt))| {
                let refs: Vec<&Column> = batches.iter().map(|b| &*b.cols[ci]).collect();
                Arc::new(Column::concat(*dt, &refs))
            })
            .collect(),
    }
}

// --------------------------------------------------------------------
// Hash aggregation: local grouping per morsel, ordered merge, then one
// in-order fold per aggregate.
// --------------------------------------------------------------------

/// An evaluated expression over one morsel: a column and the rows of it
/// the morsel owns. Column references into untouched rows read the
/// shared base in place.
struct MorselCol {
    col: Arc<Column>,
    rows: Range<usize>,
}

impl MorselCol {
    /// Group key of the morsel's row `r`; strings by dictionary code.
    fn key(&self, r: usize) -> Key {
        let i = self.rows.start + r;
        match &*self.col {
            Column::Int(v) => Key::I(v[i]),
            Column::Float(v) => Key::F(v[i].to_bits()),
            Column::Bool(v) => Key::B(v[i]),
            Column::Str { codes, .. } => Key::C(codes[i]),
        }
    }

    fn get(&self, r: usize) -> Value {
        self.col.get(self.rows.start + r)
    }

    fn dict(&self) -> Option<&Arc<StrDict>> {
        match &*self.col {
            Column::Str { dict, .. } => Some(dict),
            _ => None,
        }
    }
}

/// A numeric or boolean literal repeated `n` times — `COUNT(*)`'s argument
/// — without evaluating it per row. Strings and NULL return `None` and
/// take the generic path.
fn literal_column(v: &Value, n: usize) -> Option<Column> {
    match *v {
        Value::Int(i) => Some(Column::Int(vec![i; n])),
        Value::Float(f) => Some(Column::Float(vec![f; n])),
        Value::Bool(b) => Some(Column::Bool(vec![b; n])),
        Value::Str(_) | Value::Null => None,
    }
}

/// Evaluates `exprs` over rows `rows` of `batch`. Column references are
/// zero-copy and literals need no input; other expressions see a batch of
/// just the morsel's rows.
fn eval_morsel(
    batch: &Batch,
    rows: &Range<usize>,
    exprs: &[Expr],
    schema: &[(String, DataType)],
) -> Result<Vec<MorselCol>, DbError> {
    let whole = rows.start == 0 && rows.end == batch.row_count();
    let mut own: Option<Batch> = None;
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        if let Expr::ColumnIdx(i) = e {
            out.push(MorselCol {
                col: Arc::clone(&batch.cols[*i]),
                rows: rows.clone(),
            });
            continue;
        }
        let literal = match e {
            Expr::Literal(v) => literal_column(v, rows.len()),
            _ => None,
        };
        let col = match literal {
            Some(c) => Arc::new(c),
            None if whole => vectorized_eval(batch, e, schema)?,
            None => {
                let input = own.get_or_insert_with(|| batch.slice(rows.clone()));
                vectorized_eval(input, e, schema)?
            }
        };
        out.push(MorselCol {
            rows: 0..col.len(),
            col,
        });
    }
    Ok(out)
}

/// One morsel's share of an aggregation: its evaluated key and argument
/// columns and, when grouped, each row's id in the morsel's own directory
/// of distinct keys. [`merge_groups`] rewrites the ids to global ones.
struct AggPart {
    group_cols: Vec<MorselCol>,
    agg_cols: Vec<MorselCol>,
    /// Group id of each row (grouped aggregates only).
    gids: Vec<u32>,
    /// Distinct keys in first-seen order (`Str` columns by code).
    keys: Vec<Vec<Key>>,
    /// Morsel-relative first row of each key.
    first_rows: Vec<u32>,
}

/// Groups one morsel's rows locally. SIMD takes the lane-mixed open table
/// for a single Int key; every other key goes through a hash directory
/// probed with a reused key buffer, so only new groups allocate.
fn group_morsel(
    group_cols: Vec<MorselCol>,
    agg_cols: Vec<MorselCol>,
    rows: usize,
    engine: Engine,
) -> AggPart {
    let mut gids = Vec::new();
    let mut keys: Vec<Vec<Key>> = Vec::new();
    let mut first_rows = Vec::new();
    let single_int = match group_cols.as_slice() {
        [k] if engine == Engine::Simd => k.col.as_int().map(|v| &v[k.rows.clone()]),
        _ => None,
    };
    if let Some(data) = single_int {
        (gids, first_rows) = kernels::group_ids_i64(data);
        keys = first_rows
            .iter()
            .map(|&r| vec![Key::I(data[r as usize])])
            .collect();
    } else if !group_cols.is_empty() {
        let mut map: HashMap<Vec<Key>, u32> = HashMap::new();
        let mut key = Vec::with_capacity(group_cols.len());
        gids.reserve(rows);
        for r in 0..rows {
            key.clear();
            key.extend(group_cols.iter().map(|c| c.key(r)));
            let gid = match map.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = keys.len() as u32;
                    map.insert(key.clone(), g);
                    keys.push(key.clone());
                    first_rows.push(r as u32);
                    g
                }
            };
            gids.push(gid);
        }
    }
    AggPart {
        group_cols,
        agg_cols,
        gids,
        keys,
        first_rows,
    }
}

/// True when every non-empty part's column `j` shares one dictionary —
/// the only case in which codes from different morsels name the same
/// strings. Non-`Str` columns trivially qualify.
fn shares_one_dict(parts: &[AggPart], j: usize) -> bool {
    let mut dicts = parts
        .iter()
        .filter(|p| !p.gids.is_empty())
        .filter_map(|p| p.group_cols[j].dict());
    let first = dicts.next();
    first.is_none_or(|d| dicts.all(|x| Arc::ptr_eq(d, x)))
}

/// Merges the morsels' group directories in morsel order, so groups are
/// numbered in the first-seen order of one pass over the input, and
/// rewrites every part's row group ids to global ones. Returns each
/// group's key values. `Str` keys stay codes only where every part shares
/// one dictionary; otherwise they are compared by value.
fn merge_groups(parts: &mut [AggPart]) -> Vec<Vec<Value>> {
    let ncols = parts.first().map_or(0, |p| p.group_cols.len());
    let by_code: Vec<bool> = (0..ncols).map(|j| shares_one_dict(parts, j)).collect();
    let mut global: HashMap<Vec<Key>, u32> = HashMap::new();
    let mut values: Vec<Vec<Value>> = Vec::new();
    for part in parts.iter_mut() {
        let mut remap = Vec::with_capacity(part.keys.len());
        for (key, &first) in part.keys.iter().zip(&part.first_rows) {
            let vals: Vec<Value> = part
                .group_cols
                .iter()
                .map(|c| c.get(first as usize))
                .collect();
            let key: Vec<Key> = key
                .iter()
                .zip(&by_code)
                .zip(&vals)
                .map(|((k, &code), v)| match k {
                    Key::C(_) if !code => value_key(v).expect("columns hold no NULL"),
                    k => k.clone(),
                })
                .collect();
            let next = values.len() as u32;
            remap.push(*global.entry(key).or_insert_with(|| {
                values.push(vals);
                next
            }));
        }
        for g in &mut part.gids {
            *g = remap[*g as usize];
        }
    }
    values
}

/// Folds aggregate `a` over every part in morsel order into one state per
/// group: each accumulator sees its rows in input order, so float sums are
/// bit-identical to a row-order fold. SIMD folds an ungrouped integer
/// aggregate with the lane kernels when their exactness guard holds over
/// the whole input.
fn fold_aggregate(
    parts: &[AggPart],
    a: usize,
    (func, dt): (AggFunc, DataType),
    groups: Option<usize>,
    engine: Engine,
) -> Vec<AggState> {
    let Some(groups) = groups else {
        let mut state = AggState::new(func, dt);
        let slices: Vec<(&Column, Range<usize>)> = parts
            .iter()
            .map(|p| (&*p.agg_cols[a].col, p.agg_cols[a].rows.clone()))
            .collect();
        if !(engine == Engine::Simd && state.update_bulk(&slices)) {
            for (col, rows) in slices {
                for i in rows {
                    state.update_from_col(col, i);
                }
            }
        }
        return vec![state];
    };
    let mut states: Vec<AggState> = (0..groups).map(|_| AggState::new(func, dt)).collect();
    for p in parts {
        let c = &p.agg_cols[a];
        for (r, &g) in p.gids.iter().enumerate() {
            states[g as usize].update_from_col(&c.col, c.rows.start + r);
        }
    }
    states
}

/// Merges the parts' groups and folds every aggregate, one task per
/// aggregate on at most one worker per morsel. Returns the unsorted
/// output rows: key values, then finished aggregates.
fn aggregate_parts(
    mut parts: Vec<AggPart>,
    agg_meta: &[(AggFunc, DataType)],
    grouped: bool,
    threads: usize,
    engine: Engine,
) -> Vec<Vec<Value>> {
    let mut rows = if grouped {
        merge_groups(&mut parts)
    } else {
        // A global aggregate yields one row, even over an empty input.
        vec![Vec::new()]
    };
    let groups = grouped.then_some(rows.len());
    let parts = &parts;
    let (folded, _) = parallel_map(agg_meta.len(), threads.min(parts.len()), |a| {
        fold_aggregate(parts, a, agg_meta[a], groups, engine)
    });
    for states in folded {
        for (row, state) in rows.iter_mut().zip(states) {
            row.push(state.finish());
        }
    }
    rows
}

fn run_aggregate(
    ex: &mut Executor<'_>,
    plan: &Plan,
    input: &Plan,
    group_by: &[(Expr, String)],
    aggregates: &[(AggFunc, Expr, String)],
    depth: usize,
) -> Result<Batch, DbError> {
    let tracer = ex.tracer;
    let mut agg_span = tracer.map(|t| t.span("HashAggregate"));
    let chain = decompose(input);
    let guards = open_stage_spans(tracer, &chain);
    let prep = prepare_chain(ex, &chain, depth + 1)?;
    let schema = &prep.out_schema;
    let g_bound = group_by
        .iter()
        .map(|(e, _)| e.bind(schema))
        .collect::<Result<Vec<_>, _>>()?;
    let a_bound = aggregates
        .iter()
        .map(|(_, e, _)| e.bind(schema))
        .collect::<Result<Vec<_>, _>>()?;
    let agg_meta = aggregates
        .iter()
        .map(|(f, e, _)| Ok((*f, e.data_type(schema)?)))
        .collect::<Result<Vec<_>, DbError>>()?;

    let engine = ex.engine();
    let (outs, totals) = sweep_chain(ex, &prep, |rows, span| {
        let t0 = Instant::now();
        let (batch, rows) = rows.view(&prep.base);
        let group_cols = eval_morsel(&batch, &rows, &g_bound, schema)?;
        let agg_cols = eval_morsel(&batch, &rows, &a_bound, schema)?;
        let part = group_morsel(group_cols, agg_cols, rows.len(), engine);
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", rows.len())
                .attr("groups", part.keys.len());
        }
        Ok((part, t0.elapsed().as_secs_f64()))
    })?;
    let mut agg_secs = 0.0;
    let parts: Vec<AggPart> = outs
        .into_iter()
        .map(|(part, secs)| {
            agg_secs += secs;
            part
        })
        .collect();
    finish_stages(ex, &prep, guards, &totals, depth + 1);

    let t_merge = Instant::now();
    let mut merge_span = tracer.map(|t| t.span("merge"));
    let rows = aggregate_parts(
        parts,
        &agg_meta,
        !group_by.is_empty(),
        ex.parallel.threads,
        engine,
    );
    let batch = finish_aggregate_batch(ex.catalog, plan, rows)?;
    if let Some(g) = merge_span.as_mut() {
        g.attr("groups", batch.row_count());
    }
    drop(merge_span);
    let merge_secs = t_merge.elapsed().as_secs_f64();

    if let Some(g) = agg_span.as_mut() {
        g.attr("rows_out", batch.row_count())
            .attr("morsels", prep.morsels)
            .attr("threads", ex.parallel.threads);
    }
    drop(agg_span);
    // The source and the stages have entries of their own; only the
    // morsel grouping and the merge are this node's exclusive time.
    ex.profile.push(ProfileEntry {
        op: "HashAggregate".to_owned(),
        depth,
        exclusive_ms: (agg_secs + merge_secs) * 1e3,
        rows_out: batch.row_count(),
        note: Some(morsel_note(prep.morsels, ex.parallel.threads)),
    });
    Ok(batch)
}

// --------------------------------------------------------------------
// Hash join: build on the smaller input, probe over morsels.
// --------------------------------------------------------------------

fn run_join(
    ex: &mut Executor<'_>,
    left: &Plan,
    right: &Plan,
    left_key: &Expr,
    right_key: &Expr,
    depth: usize,
) -> Result<Batch, DbError> {
    let start = Instant::now();
    let tracer = ex.tracer;
    let mut span = tracer.map(|t| t.span("HashJoin"));
    let c0 = Instant::now();
    let lb = ex.run_batch(left, depth + 1)?;
    let rb = ex.run_batch(right, depth + 1)?;
    let child_ms = c0.elapsed().as_secs_f64() * 1e3;

    let ls = lb.schema();
    let rs = rb.schema();
    let (lk, rk) = bind_join_keys(left_key, right_key, &ls, &rs)?;
    let lkey_col = vectorized_eval(&lb, &lk, &ls)?;
    let rkey_col = vectorized_eval(&rb, &rk, &rs)?;
    let side = choose_build_side(&lkey_col, &rkey_col);
    let (build_col, probe_col) = match side {
        BuildSide::Left => (&*lkey_col, &*rkey_col),
        BuildSide::Right => (&*rkey_col, &*lkey_col),
    };
    let build = JoinBuild::new(build_col, probe_col, ex.engine());
    let pairs = sweep(ex, probe_col.len(), |range, span| {
        let pairs = build.probe_range(probe_col, range);
        if let Some(g) = span.as_mut() {
            g.attr("rows_out", pairs.0.len());
        }
        Ok(pairs)
    })?;
    let morsels = pairs.len();
    // Morsel-order concatenation of probe-major ranges is exactly what one
    // full-range probe produces.
    let total: usize = pairs.iter().map(|(b, _)| b.len()).sum();
    let mut bsel = Vec::with_capacity(total);
    let mut psel = Vec::with_capacity(total);
    for (b, p) in pairs {
        bsel.extend(b);
        psel.extend(p);
    }
    let (lsel, rsel) = match side {
        BuildSide::Left => (bsel, psel),
        BuildSide::Right => (psel, bsel),
    };
    let (lsel, rsel) = canonicalize_join_pairs(side, lsel, rsel);

    let lout = lb.take(&lsel);
    let rout = rb.take(&rsel);
    let mut names = lout.names;
    names.extend(rout.names);
    let mut cols = lout.cols;
    cols.extend(rout.cols);
    let batch = Batch { names, cols };

    let total_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(g) = span.as_mut() {
        g.attr("rows_out", batch.row_count())
            .attr("build_side", side.label())
            .attr("morsels", morsels)
            .attr("threads", ex.parallel.threads);
    }
    drop(span);
    ex.profile.push(ProfileEntry {
        op: "HashJoin".to_owned(),
        depth,
        exclusive_ms: (total_ms - child_ms).max(0.0),
        rows_out: batch.row_count(),
        note: Some(format!(
            "build={}; probe: {}",
            side.label(),
            morsel_note(morsels, ex.parallel.threads)
        )),
    });
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::exec::{compare_rows, ExecMode};
    use crate::parser::{parse, to_plan};
    use crate::table::TableBuilder;

    const STRINGS: [&str; 5] = ["alpha", "beta", "gamma", "delta", "epsilon"];

    fn bit_equal(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(ra, rb)| {
                ra.len() == rb.len()
                    && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                        (x, y) => x == y,
                    })
            })
    }

    /// String group keys whose morsel parts each carry their own
    /// dictionary — the same strings under different codes — must group
    /// by value: bit-identical to the debug engine at every thread count
    /// and morsel size. Merging the parts' codes as if they shared one
    /// dictionary would fold different strings into one group.
    #[test]
    fn str_keys_over_divergent_dictionaries_group_by_value() {
        let n = 200;
        let s: Vec<&str> = (0..n).map(|i| STRINGS[(i * 7 + i / 3) % 5]).collect();
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let mut t = TableBuilder::new("t")
            .column("s", DataType::Str)
            .column("v", DataType::Float)
            .build();
        for i in 0..n {
            t.push_row(vec![Value::Str(s[i].to_owned()), Value::Float(v[i])])
                .unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register(t).unwrap();
        let sql = "SELECT s, COUNT(*), SUM(v), MIN(v) FROM t GROUP BY s";
        let plan = to_plan(&parse(sql).unwrap(), |t| {
            Ok(catalog.table(t)?.column_names().to_vec())
        })
        .unwrap();
        let expected = Executor::new(&catalog, ExecMode::Debug)
            .run(&plan)
            .unwrap()
            .rows;
        let meta = [
            (AggFunc::Count, DataType::Int),
            (AggFunc::Sum, DataType::Float),
            (AggFunc::Min, DataType::Float),
        ];
        for engine in [Engine::Scalar, Engine::Simd] {
            for threads in [1usize, 2, 8] {
                for morsel in [1usize, 3, 64] {
                    let parts: Vec<AggPart> = (0..n.div_ceil(morsel))
                        .map(|m| {
                            let rows = m * morsel..((m + 1) * morsel).min(n);
                            // A dictionary of this morsel's own, rotated so
                            // neighbouring morsels code every string apart.
                            let mut values: Vec<String> =
                                STRINGS.iter().map(|s| (*s).to_owned()).collect();
                            values.rotate_left(m % STRINGS.len());
                            let dict = StrDict::from_values(values);
                            let codes = rows.clone().map(|i| dict.code_of(s[i]).unwrap());
                            let keys = Column::Str {
                                codes: codes.collect(),
                                dict: Arc::new(dict),
                            };
                            let vals = Column::Float(v[rows.clone()].to_vec());
                            let whole = |c: Column| MorselCol {
                                rows: 0..c.len(),
                                col: Arc::new(c),
                            };
                            let agg_cols = vec![
                                whole(Column::Int(vec![1; rows.len()])),
                                whole(vals.clone()),
                                whole(vals),
                            ];
                            group_morsel(vec![whole(keys)], agg_cols, rows.len(), engine)
                        })
                        .collect();
                    let mut got = aggregate_parts(parts, &meta, true, threads, engine);
                    got.sort_by(|a, b| compare_rows(a, b));
                    assert!(
                        bit_equal(&expected, &got),
                        "{engine:?} threads={threads} morsel={morsel}:\n{expected:?}\n{got:?}"
                    );
                }
            }
        }
    }
}
