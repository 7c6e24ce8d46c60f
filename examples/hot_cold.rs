//! Hot vs. cold runs, and user vs. real time (slides 30–36).
//!
//! Reproduces the shape of the tutorial's table: a cold TPC-H Q1 whose
//! wall-clock time dwarfs its CPU time (disk waits), next to a hot run
//! where the two nearly coincide. Each run executes in memory for real;
//! its scans are then replayed on a modelled 5400 RPM laptop disk, so the
//! era figure is deterministic and runs anywhere. "real" is the measured
//! execute wall time plus that modelled wait.
//!
//! Run with: `cargo run --release --example hot_cold`

use perfeval::era::replay_scans;
use perfeval::prelude::*;
use perfeval::workload::queries;

fn main() {
    let catalog = generate(&GenConfig {
        scale_factor: 0.01,
        ..GenConfig::default()
    });
    let mut session = Session::new(catalog);
    let mut disk = BufferPool::new(Disk::laptop_5400rpm(), 50_000);

    println!("protocols:");
    println!("  cold: {}", RunProtocol::cold(1).describe());
    println!("  hot : {}\n", RunProtocol::last_of_three_hot().describe());

    let sql = queries::q1();
    let plan = session.plan(&sql).unwrap();
    // One measured run, then its scans replayed on the modelled disk:
    // (user ms, modelled real ms, modelled disk wait ms).
    let mut run = || {
        let r = session.query(&sql).run().unwrap();
        let io_ms = replay_scans(&mut disk, session.catalog(), &plan).unwrap();
        (r.server_user_ms(), r.server_real_ms() + io_ms, io_ms)
    };

    // Cold: the modelled disk's pool starts empty (the "reboot").
    let (cold_user, cold_real, cold_io) = run();

    // Hot: measured last of three consecutive runs.
    run();
    run();
    let (hot_user, hot_real, hot_io) = run();

    println!("              cold                hot      (real = wall + modelled disk wait)");
    println!("Q    user     real      user     real   ... time (milliseconds)");
    println!("1  {cold_user:>7.0}  {cold_real:>7.0}   {hot_user:>7.0}  {hot_real:>7.0}");
    println!(
        "\nbuffer pool hit rate after hot run: {:.1}%",
        disk.hit_rate() * 100.0
    );

    let io_share = cold_io / cold_real;
    println!(
        "cold run spent {:.0}% of wall-clock time waiting on the (modelled) disk",
        io_share * 100.0
    );
    println!("\nBe aware what you measure!");
    assert!(
        cold_real > 1.5 * cold_user,
        "cold (modelled) real must exceed cold user"
    );
    assert!(hot_io == 0.0, "hot run must not touch the disk");
}
