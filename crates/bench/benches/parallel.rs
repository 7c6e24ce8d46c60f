//! Criterion benchmarks of the morsel OPT engine: one worker vs several
//! workers on a scan-heavy and an aggregate-heavy query. The results are bit-identical by construction
//! (see `minidb/tests/parallel_query.rs`), so the only question left is
//! the wall clock — exhibit E19 turns these same arms into a designed
//! experiment with CIs; this bench is the quick local loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use perfeval_bench::catalog_at;
use workload::queries;

const SCAN_HEAVY: &str = "SELECT SUM(l_extendedprice * (1 - l_discount)) AS revenue \
     FROM lineitem WHERE l_shipdate >= 365 AND l_shipdate < 1460 AND l_quantity < 30";

fn bench_scan_heavy(c: &mut Criterion) {
    let catalog = catalog_at(0.01);
    let mut group = c.benchmark_group("parallel_scan_heavy");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        let mut session = minidb::Session::new(catalog.clone())
            .with_parallelism(threads)
            .with_morsel_rows(4096);
        session.query(SCAN_HEAVY).run().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| session.query(SCAN_HEAVY).run().unwrap().row_count())
        });
    }
    group.finish();
}

fn bench_aggregate_heavy(c: &mut Criterion) {
    let catalog = catalog_at(0.01);
    let sql = queries::q1();
    let mut group = c.benchmark_group("parallel_aggregate_heavy");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let mut session = minidb::Session::new(catalog.clone())
            .with_parallelism(threads)
            .with_morsel_rows(4096);
        session.query(&sql).run().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(threads), &sql, |b, sql| {
            b.iter(|| session.query(sql).run().unwrap().row_count())
        });
    }
    group.finish();
}

fn bench_morsel_size(c: &mut Criterion) {
    let catalog = catalog_at(0.01);
    let mut group = c.benchmark_group("parallel_morsel_size");
    group.sample_size(20);
    for morsel in [1024usize, 4096, 16 * 1024] {
        let mut session = minidb::Session::new(catalog.clone())
            .with_parallelism(4)
            .with_morsel_rows(morsel);
        session.query(SCAN_HEAVY).run().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(morsel), &morsel, |b, _| {
            b.iter(|| session.query(SCAN_HEAVY).run().unwrap().row_count())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_heavy,
    bench_aggregate_heavy,
    bench_morsel_size
);
criterion_main!(benches);
