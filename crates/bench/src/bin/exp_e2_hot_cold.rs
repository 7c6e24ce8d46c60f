//! E2 — hot vs. cold × user vs. real time (slides 33–36).
//!
//! Paper's table (Pentium M laptop, TPC-H sf 1, Q1):
//!
//! ```text
//!        cold            hot
//! Q   user   real    user   real
//! 1   2930  13243    2830   3534
//! ```
//!
//! Shape to match: cold-user ≈ hot-user (same CPU work), cold-real ≫
//! cold-user (disk waits), hot-real ≈ hot-user. Our absolute numbers come
//! from the modelled 5400 RPM disk and a much smaller scale factor.
//!
//! This is an **era what-if**: each run executes in memory for real, and
//! its scans are then replayed through `memsim`'s model of the tutorial
//! laptop's disk, useful precisely because we cannot ship that hardware.
//! "real" is measured execute wall time plus the replayed wait. For the
//! measured version of this table — real segment files, a real buffer
//! pool, counted (not modelled) hits and misses — see `exp_e26_hot_cold`.

use memsim::{BufferPool, Disk};
use minidb::Session;
use perfeval::era::replay_scans;
use perfeval_bench::{banner, bench_catalog, print_environment};
use perfeval_measure::RunProtocol;
use workload::queries;

fn main() {
    banner("E2: hot vs cold runs", "slides 33-36");
    print_environment();
    println!("protocol (cold): {}", RunProtocol::cold(1).describe());
    println!(
        "protocol (hot) : {}\n",
        RunProtocol::last_of_three_hot().describe()
    );

    let mut session = Session::new(bench_catalog());
    let mut pool = BufferPool::new(Disk::laptop_5400rpm(), 100_000);
    let sql = queries::q1();
    let plan = session.plan(&sql).expect("plan Q1");
    // One measured run, then its scans replayed on the era disk:
    // (user ms, modelled real ms = wall + replayed wait, replayed wait ms).
    let mut run = |label: &str| {
        let r = session.query(&sql).run().expect(label);
        let io_ms = replay_scans(&mut pool, session.catalog(), &plan).expect("replay Q1");
        (r.server_user_ms(), r.server_real_ms() + io_ms, io_ms)
    };

    // Cold: the replay pool starts empty (the "reboot"), run once.
    let (cold_user, cold_real, _) = run("cold run");

    // Hot: measured last of three consecutive runs.
    run("hot warm 1");
    run("hot warm 2");
    let (hot_user, hot_real, hot_io) = run("hot measured");

    println!("        cold               hot        (real = wall + modelled era-disk wait)");
    println!("Q    user    real      user    real    ... time (milliseconds)");
    println!("1  {cold_user:>6.0}  {cold_real:>6.0}    {hot_user:>6.0}  {hot_real:>6.0}");

    let cold_gap = cold_real / cold_user;
    let hot_gap = hot_real / hot_user;
    println!("\ncold real/user = {cold_gap:.1}x   hot real/user = {hot_gap:.2}x");
    println!(
        "paper: cold 13243/2930 = {:.1}x, hot 3534/2830 = {:.2}x",
        13243.0 / 2930.0,
        3534.0 / 2830.0
    );

    assert!(cold_gap > 2.0, "cold real must dwarf cold user");
    assert!(hot_gap < 1.05, "hot real ~ hot user");
    assert_eq!(hot_io, 0.0, "hot run touches no disk");
    let user_ratio = cold_user / hot_user;
    // Wide tolerance: this is real wall-clock CPU work on a possibly noisy
    // host; the claim is only that the CPU component is the *same order*
    // hot and cold, unlike the I/O component.
    assert!(
        (0.1..10.0).contains(&user_ratio),
        "CPU work is similar hot and cold (ratio {user_ratio:.2})"
    );
    println!("\nBe aware what you measure!");
}
