//! The benchmark's own driver loop: one thread and one connection per
//! client, closed or open loop, every answer verified.
//!
//! It deliberately does not reuse the load harness, so a change to that
//! harness cannot change the measuring instrument.

use std::sync::Arc;
use std::time::{Duration, Instant};

use minidb_net::{Client, Footer, NetError};
use perfeval_store::PoolCounters;
use perfeval_trace::Tracer;

use crate::setup::Served;
use crate::sys::process_cpu_ms;
use crate::verify::Expected;
use crate::workloads::{Arrival, Spec};

/// What the server sent back for one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The server's timing footer.
    pub footer: Footer,
    /// Client-measured transfer and queueing residual, ms.
    pub wire_ms: f64,
    /// Payload bytes received.
    pub bytes: u64,
}

/// Why a request did not produce a verified answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// The query or the connection failed.
    Error,
    /// The server shed the query with a `Rejected` frame.
    Rejected,
    /// The answer differs from the expected one.
    Mismatch,
}

/// One request as the driver saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Mix index of the statement sent.
    pub query: usize,
    /// Client latency, ms: from the intended send time in an open loop,
    /// from the send in a closed loop, to the last frame received.
    pub latency_ms: f64,
    /// Naive latency, ms: from the actual send to the last frame received.
    pub naive_ms: f64,
    /// How late the generator sent compared with its schedule, not
    /// counting waits for the previous answer on the connection, ms.
    pub send_lag_ms: f64,
    /// The verified reply, or why there is none.
    pub reply: Result<Reply, Failure>,
}

impl Sample {
    /// Time the request waited before it was sent, ms.
    pub fn queue_ms(&self) -> f64 {
        self.latency_ms - self.naive_ms
    }
}

/// Everything measured over one timed window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Every request sent, in no particular order.
    pub samples: Vec<Sample>,
    /// Wall time from the window's start to its last answer (never less
    /// than the window length), s.
    pub elapsed_s: f64,
    /// Process user + system CPU over the window, ms.
    pub cpu_ms: f64,
    /// Buffer-pool counter deltas.
    pub store: PoolCounters,
    /// Queries that borrowed parallelism from idle shards.
    pub steal_borrows: u64,
    /// `Rejected` frames the server sent.
    pub rejected: u64,
}

impl Window {
    /// Requests with a verified answer.
    pub fn ok(&self) -> impl Iterator<Item = (&Sample, &Reply)> {
        self.samples
            .iter()
            .filter_map(|s| s.reply.as_ref().ok().map(|r| (s, r)))
    }

    /// Verified answers per second.
    pub fn throughput_qps(&self) -> f64 {
        self.ok().count() as f64 / self.elapsed_s
    }

    /// Requests without a verified answer.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.reply.is_err()).count()
    }
}

/// SplitMix64: the driver's seeded generator for orders and arrivals.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Reorders `order` by a seeded shuffle.
fn shuffle(order: &mut [usize], rng: &mut SplitMix64) {
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// Runs one timed window of `seconds` over every connection of `served`.
/// `tracer`, when given, records a span tree per request.
pub fn run_window(
    served: &mut Served,
    spec: &Spec,
    expected: &Expected,
    seconds: f64,
    arrival_seed: u64,
    tracer: Option<&Tracer>,
) -> Window {
    let storage = Arc::clone(served.catalog.storage().expect("a disk-backed catalog"));
    let store0 = storage.counters();
    let steal0 = served.server.steal_borrows();
    let rejected0 = served.server.stats().rejected();
    let cpu0 = process_cpu_ms();
    // The tracer is read first, so instants mapped onto its clock never
    // land after its own later readings.
    let clock = tracer.map(|t| (t, t.now_ns()));
    let start = Instant::now();

    let mut samples = Vec::new();
    let mut last_done = start;
    std::thread::scope(|scope| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let conn = Connection {
                    client,
                    spec,
                    expected,
                    start,
                    seconds,
                    rng: SplitMix64::new(arrival_seed, c as u64),
                    clock,
                };
                scope.spawn(move || conn.drive())
            })
            .collect();
        for h in handles {
            let (s, done) = h.join().expect("driver thread");
            samples.extend(s);
            last_done = last_done.max(done);
        }
    });

    Window {
        samples,
        elapsed_s: last_done.duration_since(start).as_secs_f64().max(seconds),
        cpu_ms: process_cpu_ms() - cpu0,
        store: storage.counters().since(&store0),
        steal_borrows: served.server.steal_borrows() - steal0,
        rejected: served.server.stats().rejected() - rejected0,
    }
}

/// One connection's share of a window.
struct Connection<'a> {
    client: &'a mut Client,
    spec: &'a Spec,
    expected: &'a Expected,
    start: Instant,
    seconds: f64,
    rng: SplitMix64,
    /// The tracer and its reading at `start`.
    clock: Option<(&'a Tracer, u64)>,
}

impl Connection<'_> {
    /// Sends requests until the window closes; returns the samples and
    /// the instant the last answer arrived.
    fn drive(mut self) -> (Vec<Sample>, Instant) {
        // Each pass sends every statement once, in a fresh seeded order: a
        // statement's latency depends on what the one before it left in
        // the pool, so a fixed order would tie `cold-scan` latency to the
        // seed.
        let mut order: Vec<usize> = (0..self.spec.mix.len()).collect();
        let end = self.start + Duration::from_secs_f64(self.seconds);
        // Poisson arrivals: exponential gaps at this connection's share
        // of the rate.
        let rate = match self.spec.arrival {
            Arrival::Closed => None,
            Arrival::OpenPoisson { rate_qps } => Some(rate_qps / self.spec.connections as f64),
        };
        let mut samples = Vec::new();
        let mut last_answer = self.start;
        // When the connection was last free to send: after the previous
        // answer was verified.
        let mut free_at = self.start;
        let mut intended = self.start;
        for ordinal in 0u64.. {
            intended = match rate {
                None => Instant::now(),
                Some(r) => intended + Duration::from_secs_f64(-self.rng.next_unit().ln() / r),
            };
            if intended >= end {
                break;
            }
            if (ordinal as usize).is_multiple_of(order.len()) {
                shuffle(&mut order, &mut self.rng);
            }
            let query = order[ordinal as usize % order.len()];
            let (sample, answered) = self.request(ordinal, query, intended, free_at);
            samples.push(sample);
            last_answer = answered;
            free_at = Instant::now();
        }
        (samples, last_answer)
    }

    fn request(
        &mut self,
        ordinal: u64,
        query: usize,
        intended: Instant,
        free_at: Instant,
    ) -> (Sample, Instant) {
        // Spans may not overlap on one lane, so a request that was due
        // while the previous one was still running starts its span when
        // the connection became free; the backlog rides as an attribute.
        let free = intended.max(free_at);
        // `free` maps onto the tracer's clock only to within the gap between
        // the two start readings, so the lane's last end reading bounds it.
        let free_ns = self.clock.map_or(0, |(t, base)| {
            (base + (free - self.start).as_nanos() as u64).max(t.lane_resume_ns())
        });
        let tracer = self.clock.map(|(t, _)| t);
        let mut request = tracer.map(|t| t.span_at("request", free_ns));
        if let Some(g) = request.as_mut() {
            g.attr("ordinal", ordinal)
                .attr("query", query as u64)
                .attr("backlog_ms", ms(free - intended));
        }

        let wait = tracer.map(|t| t.span_at("driver.wait", free_ns));
        if let Some(d) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(d);
        }
        drop(wait);

        let sent = Instant::now();
        let mut span = tracer.map(|t| t.span("client.query"));
        let result = self.client.query(&self.spec.mix[query]);
        let done = Instant::now();
        let reply = match result {
            Ok(r) => {
                if let Some(g) = span.as_mut() {
                    g.attr("parse_ms", r.footer.parse_ms)
                        .attr("optimize_ms", r.footer.optimize_ms)
                        .attr("execute_ms", r.footer.execute_ms)
                        .attr("execute_cpu_ms", r.footer.execute_cpu_ms)
                        .attr("serialize_ms", r.footer.serialize_ms)
                        .attr("wire_ms", r.wire_ms)
                        .attr("print_ms", r.print_ms)
                        .attr("rows", r.footer.rows)
                        .attr("bytes", r.bytes_received);
                }
                drop(span);
                let _verify = tracer.map(|t| t.span("verify"));
                if self.expected.matches(query, &r.rows) {
                    Ok(Reply {
                        footer: r.footer,
                        wire_ms: r.wire_ms,
                        bytes: r.bytes_received,
                    })
                } else {
                    Err(Failure::Mismatch)
                }
            }
            Err(NetError::Rejected { .. }) => Err(Failure::Rejected),
            Err(_) => Err(Failure::Error),
        };
        drop(request);
        let sample = Sample {
            query,
            latency_ms: ms(done - intended),
            naive_ms: ms(done - sent),
            send_lag_ms: ms(sent.saturating_duration_since(free)),
            reply,
        };
        (sample, done)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
