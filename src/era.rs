//! Era what-ifs, replayed after a real run.
//!
//! minidb measures; it never charges a model while a query runs. To ask
//! what a run's reads would have waited on era hardware, replay what the
//! run scanned through a `memsim` buffer pool afterwards. The printing
//! counterpart is [`memsim::Terminal`], charged with a result's rendered
//! lines and bytes.

use memsim::BufferPool;
use minidb::{Catalog, DbError, Plan};

/// Charges `pool` with one run of `plan` and returns the modelled wait
/// this added, in ms.
///
/// Each table the plan scans is read front to back as one file of its
/// decoded bytes, in the order the engines scan them. A table's file
/// number is its position among the catalog's sorted table names, so
/// repeated runs over one catalog address the same pages.
pub fn replay_scans(pool: &mut BufferPool, catalog: &Catalog, plan: &Plan) -> Result<f64, DbError> {
    let names = catalog.table_names();
    let before = pool.sim_wait_ns();
    for table in plan.scanned_tables() {
        let bytes = catalog.table(table)?.decoded_bytes();
        let file = names
            .binary_search(&table)
            .expect("a registered table is among the catalog's names");
        pool.scan_file(file as u32, bytes);
    }
    Ok((pool.sim_wait_ns() - before) / 1e6)
}
