//! # memsim
//!
//! A parameterized memory-hierarchy and I/O simulator — the hardware
//! substrate for reproducing the tutorial's hardware-bound experiments.
//!
//! The paper's most striking figure (slides 46/51) runs `SELECT MAX(column)`
//! over an in-memory table on five machines spanning 1992–2000 and shows
//! that a 10× CPU clock improvement yields *almost no* speedup: the scan is
//! memory-bound, and only hardware performance counters reveal it. We cannot
//! ship a 1992 Sun LX, so this crate simulates one — and the other four —
//! with enough fidelity to reproduce the figure's shape:
//!
//! * [`cache::CacheSim`] — a set-associative LRU cache simulator with
//!   hit/miss counters (the "hardware performance counters").
//! * [`hierarchy::MemoryHierarchy`] — multi-level hierarchy + DRAM, with
//!   per-access latency accounting in nanoseconds.
//! * [`machine`] — calibrated presets: Sun LX (1992) … Origin2000 (2000),
//!   the tutorial's 2005 Pentium M laptop, and a modern reference box.
//! * [`scan`] — the `SELECT MAX` micro-benchmark: per-iteration cost split
//!   into CPU and memory components, exactly what the figure plots.
//! * [`disk`] — a seek+transfer disk model and an LRU buffer pool whose
//!   simulated wait time gives cold runs their characteristic
//!   real ≫ user gap (slide 33).
//! * [`terminal`] — a per-line, per-byte terminal latency model: the
//!   printing cost of slide 23's file-vs-terminal table.
//!
//! Simulated time is kept separate from wall-clock time on purpose: a
//! workload runs for real (CPU/user time is genuinely consumed) while its
//! *I/O waits* and *historical-machine costs* are accounted in simulated
//! nanoseconds. Experiments then report both, reproducing the tutorial's
//! user-vs-real lesson deterministically.
//!
//! ## Scope: era what-ifs only — measurement lives in `perfeval-store`
//!
//! No engine calls this crate while a query runs. Its disk, buffer pool
//! and terminal answer counterfactuals no amount of measuring can — "what
//! would this scan have waited on a 1992 disk?" (E2), "what did printing
//! cost on the tutorial's terminal?" (E1) — by replaying, after a real
//! run, what that run scanned and printed. E4's machine sweep runs on the
//! simulator alone. Any claim about *this* machine's hot-vs-cold
//! behaviour comes from the real `perfeval-store` pool's counters (see
//! `exp_e26_hot_cold`, and minidb's `Session::flush_caches`, which empties
//! the real pool and the OS page cache).
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod hierarchy;
pub mod machine;
pub mod scan;
pub mod terminal;

pub use cache::CacheSim;
pub use disk::{BufferPool, Disk, PageId};
pub use hierarchy::{AccessOutcome, MemoryHierarchy};
pub use machine::MachineSpec;
pub use scan::{scan_cost, ScanCost};
pub use terminal::Terminal;

// The parallel scheduler (`perfeval-exec`) moves simulator state across
// worker threads; these assertions turn any future non-Send field (Rc,
// raw pointer) into a compile error instead of a distant build break.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CacheSim>();
    assert_send::<BufferPool>();
    assert_send::<Disk>();
    assert_send::<MemoryHierarchy>();
    assert_send::<MachineSpec>();
};
