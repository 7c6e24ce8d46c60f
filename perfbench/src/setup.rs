//! Set-up: generate, persist, reopen disk-backed, start the server on a
//! TCP loopback listener, connect, and warm up.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use minidb::{Catalog, Session, StoreConfig};
use minidb_net::{Client, Server, ServerHandle, TcpEndpoint, TcpTransport};
use perfeval_fault::{FaultAction, FaultRegistry, Trigger};
use workload::dbgen::{generate, GenConfig};

use crate::verify::Expected;
use crate::workloads::Spec;

/// An injected engine stall: `DelayMs(ms)` at the `minidb.execute` site on
/// one statement ordinal of every server session.
#[derive(Debug, Clone, Copy)]
pub struct Stall {
    /// 0-based statement ordinal within a connection's session.
    pub statement: u64,
    /// Stall length, ms.
    pub ms: f64,
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Data generation.
    pub generate_s: f64,
    /// Persisting the catalog as segment files.
    pub persist_s: f64,
    /// Reopening it disk-backed.
    pub open_s: f64,
    /// Server start plus connecting every client.
    pub connect_s: f64,
    /// One verified pass over the mix on every connection.
    pub warmup_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// A served, disk-backed catalog with connected clients. Dropping it
/// closes the clients, stops the server and removes the data.
pub struct Served {
    /// One client per connection.
    pub clients: Vec<Client>,
    /// The running server. Its handle joins the shards on drop, and they
    /// exit only once every connection is gone, so it drops after the
    /// clients are closed.
    pub server: ServerHandle,
    /// The disk-backed catalog the server's sessions share.
    pub catalog: Catalog,
    /// Directory the catalog was persisted to.
    pub dir: PathBuf,
}

impl Served {
    /// Sets everything up from scratch in `dir` (which must not exist)
    /// and verifies the warm-up answers.
    pub fn start(
        spec: &Spec,
        data_seed: u64,
        dir: &Path,
        expected: &Expected,
        stall: Option<Stall>,
    ) -> Result<(Served, SetupTimes), String> {
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let mut step = Instant::now();
        let mut lap = |slot: &mut f64| {
            *slot = step.elapsed().as_secs_f64();
            step = Instant::now();
        };

        let memory = generate(&GenConfig {
            scale_factor: spec.scale_factor,
            seed: data_seed,
            part_skew: None,
        });
        lap(&mut times.generate_s);

        memory
            .persist_with(dir, &StoreConfig::default())
            .map_err(|e| format!("persist into {}: {e}", dir.display()))?;
        drop(memory);
        lap(&mut times.persist_s);

        let catalog = Catalog::open_with(dir, StoreConfig::default().pool_bytes(spec.pool_bytes))
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        lap(&mut times.open_s);

        let endpoint = TcpEndpoint::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = endpoint
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let faults = stall.map(|s| {
            Arc::new(FaultRegistry::new(data_seed).armed_always(
                "minidb.execute",
                Trigger::Key(s.statement),
                FaultAction::DelayMs(s.ms),
            ))
        });
        let shared = catalog.clone();
        // The default configuration: sharded, one shard per core.
        let server = Server::builder().transport(endpoint).serve(move || {
            let session = Session::new(shared.clone());
            match &faults {
                Some(f) => session.with_faults(Arc::clone(f)),
                None => session,
            }
        });
        let clients = (0..spec.connections)
            .map(|_| {
                let transport = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
                Client::connect(Box::new(transport)).map_err(|e| format!("handshake: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        lap(&mut times.connect_s);

        let mut served = Served {
            clients,
            server,
            catalog,
            dir: dir.to_path_buf(),
        };
        for client in &mut served.clients {
            for (i, sql) in spec.mix.iter().enumerate() {
                let r = client
                    .query(sql)
                    .map_err(|e| format!("warm-up {sql:?}: {e}"))?;
                if !expected.matches(i, &r.rows) {
                    return Err(format!("warm-up answer to {sql:?} does not match"));
                }
            }
        }
        lap(&mut times.warmup_s);
        times.total_s = t0.elapsed().as_secs_f64();
        Ok((served, times))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        for client in self.clients.drain(..) {
            let _ = client.close();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
