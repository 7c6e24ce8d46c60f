//! The four workloads: what data they serve, from how large a pool, how
//! requests arrive, and which queries they mix.

use workload::queries::{family, q1, q6};

/// Offered rate of `point-open`, in queries per second.
///
/// Fixed once at 53-66% of the point mix's single-connection closed-loop
/// capacity on a 2-vCPU host (1,509 to 1,875 q/s measured), and never
/// re-derived from a run: a fixed rate is what lets queueing show up in
/// p99.
pub const POINT_OPEN_RATE_QPS: f64 = 1000.0;

/// Pool budget of `cold-scan`: about a third of the 11.4 MiB of decoded
/// bytes its mix touches at sf 0.05, so 97% of chunk accesses miss.
pub const COLD_POOL_BYTES: u64 = 4 << 20;

/// How requests arrive on each connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// Send the next request when the previous answer has arrived.
    Closed,
    /// Poisson arrivals at a fixed total rate, split evenly over the
    /// connections; each request is timed from its intended send time.
    OpenPoisson {
        /// Total offered rate, queries per second.
        rate_qps: f64,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hot sf 0.01, one connection, closed loop, scan-heavy mix.
    ScanClosed,
    /// Hot sf 0.01, two connections, open-loop Poisson, cheap queries.
    PointOpen,
    /// sf 0.05 from a pool a third of the working set, closed loop.
    ColdScan,
    /// Hot sf 0.01, one connection, closed loop, large unsorted results.
    WideExport,
}

/// Everything the driver needs to know about a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// TPC-H-style scale factor of the generated catalog.
    pub scale_factor: f64,
    /// Buffer-pool budget of the reopened catalog, bytes.
    pub pool_bytes: u64,
    /// Client connections, one driver thread each.
    pub connections: usize,
    /// Arrival discipline.
    pub arrival: Arrival,
    /// The statements, sent in passes of one each in a seeded order.
    /// Every mix has an odd number of statements: with equal counts per
    /// statement, an even mix puts the median on the boundary between two
    /// statements' latencies, where it jumps from run to run.
    pub mix: Vec<String>,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ScanClosed,
        Workload::PointOpen,
        Workload::ColdScan,
        Workload::WideExport,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanClosed => "scan-closed",
            Workload::PointOpen => "point-open",
            Workload::ColdScan => "cold-scan",
            Workload::WideExport => "wide-export",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The one-sentence reason the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ScanClosed => {
                "hot sf 0.01, one connection, closed loop: execute is about 95% of latency, so \
                 an engine change moves throughput and latency almost one for one"
            }
            Workload::PointOpen => {
                "cheap queries at a fixed 1000 q/s open-loop Poisson rate on two connections: \
                 fixed per-request costs and queueing, timed from the intended send"
            }
            Workload::ColdScan => {
                "sf 0.05 from a 4 MiB pool, a third of the bytes the mix touches: 97% of chunk \
                 accesses miss, so the store's pread, checksum and decode path is timed"
            }
            Workload::WideExport => {
                "hot sf 0.01, 10^3 to 10^4-row unsorted results: row delivery (RowBatch encode, \
                 backpressure, client decode) dominates"
            }
        }
    }

    /// The workload's data, pool, arrival and mix.
    pub fn spec(self) -> Spec {
        let hot = minidb::storage::DEFAULT_POOL_BYTES;
        match self {
            Workload::ScanClosed => Spec {
                scale_factor: 0.01,
                pool_bytes: hot,
                connections: 1,
                arrival: Arrival::Closed,
                mix: vec![
                    q1(),
                    family(5),
                    family(7),
                    family(12),
                    family(13),
                    family(16),
                    family(18),
                ],
            },
            Workload::PointOpen => Spec {
                scale_factor: 0.01,
                pool_bytes: hot,
                connections: 2,
                arrival: Arrival::OpenPoisson {
                    rate_qps: POINT_OPEN_RATE_QPS,
                },
                mix: [6, 4, 8, 9, 10, 17, 20, 21, 22].map(family).to_vec(),
            },
            Workload::ColdScan => Spec {
                scale_factor: 0.05,
                pool_bytes: COLD_POOL_BYTES,
                connections: 1,
                arrival: Arrival::Closed,
                mix: vec![
                    q6(),
                    family(2),
                    family(3),
                    family(4),
                    family(7),
                    family(14),
                    family(19),
                ],
            },
            Workload::WideExport => Spec {
                scale_factor: 0.01,
                pool_bytes: hot,
                connections: 1,
                arrival: Arrival::Closed,
                mix: vec![
                    "SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment \
                     FROM customer"
                        .to_owned(),
                    "SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, \
                     o_orderpriority FROM orders WHERE o_orderdate BETWEEN 800 AND 1400"
                        .to_owned(),
                    "SELECT l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, \
                     l_discount, l_shipdate FROM lineitem \
                     WHERE l_shipdate BETWEEN 1000 AND 1300"
                        .to_owned(),
                ],
            },
        }
    }
}
