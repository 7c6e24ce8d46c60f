//! The traced run's analysis: split each request's latency into layers from
//! the spans the driver recorded, with the residual the parts leave.

use std::collections::HashMap;

use perfeval_trace::{AttrValue, SpanRecord, Trace};

/// Layers a request's latency splits into, in table order.
pub const LAYERS: [&str; 7] = [
    "driver.wait",
    "net.wire",
    "minidb.parse",
    "minidb.optimize",
    "minidb.execute",
    "net.serialize",
    "client.print",
];

/// Mean per-request time of each layer, from the `request` span trees.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    /// Requests with a complete span tree and a reply.
    pub requests: usize,
    /// Mean latency, ms: intended send time to the end of `client.query`.
    pub latency_ms: f64,
    /// Mean ms of each entry of [`LAYERS`].
    pub layer_ms: [f64; 7],
    /// Latency minus the layers, ms.
    pub residual_ms: f64,
    /// Mean answer verification time, outside the latency, ms.
    pub verify_ms: f64,
    /// Each probe span's name and duration, ms.
    pub probes: Vec<(String, f64)>,
}

fn num(span: &SpanRecord, key: &str) -> Option<f64> {
    match span.attr(key)? {
        AttrValue::Float(v) => Some(*v),
        AttrValue::Int(v) => Some(*v as f64),
        _ => None,
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Builds the table from a snapshot of the driver's tracer.
pub fn layer_table(trace: &Trace) -> LayerTable {
    let mut t = LayerTable::default();
    for lane in &trace.lanes {
        let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        for r in &lane.records {
            if let Some(p) = r.parent {
                children.entry(p.0).or_default().push(r);
            }
        }
        for r in &lane.records {
            if r.name.starts_with("probe.") {
                t.probes.push((r.name.clone(), ms(r.duration_ns())));
            }
            if r.name != "request" {
                continue;
            }
            let kids = children.get(&r.id.0).map_or(&[][..], Vec::as_slice);
            let find = |name: &str| kids.iter().find(|k| k.name == name);
            let (Some(wait), Some(query), Some(verify)) =
                (find("driver.wait"), find("client.query"), find("verify"))
            else {
                continue;
            };
            let Some(execute) = num(query, "execute_ms") else {
                continue;
            };
            let backlog = num(r, "backlog_ms").unwrap_or(0.0);
            let parts = [
                backlog + ms(wait.duration_ns()),
                num(query, "wire_ms").unwrap_or(0.0),
                num(query, "parse_ms").unwrap_or(0.0),
                num(query, "optimize_ms").unwrap_or(0.0),
                execute,
                num(query, "serialize_ms").unwrap_or(0.0),
                num(query, "print_ms").unwrap_or(0.0),
            ];
            let latency = backlog + ms(query.end_ns.saturating_sub(r.start_ns));
            t.requests += 1;
            t.latency_ms += latency;
            t.residual_ms += latency - parts.iter().sum::<f64>();
            t.verify_ms += ms(verify.duration_ns());
            for (sum, part) in t.layer_ms.iter_mut().zip(parts) {
                *sum += part;
            }
        }
    }
    let n = t.requests.max(1) as f64;
    t.latency_ms /= n;
    t.residual_ms /= n;
    t.verify_ms /= n;
    t.layer_ms.iter_mut().for_each(|v| *v /= n);
    t
}

impl LayerTable {
    /// Share of the mean latency taken by `ms`.
    pub fn share(&self, ms: f64) -> f64 {
        if self.latency_ms > 0.0 {
            ms / self.latency_ms
        } else {
            0.0
        }
    }

    /// Mean ms of the named layer.
    pub fn layer(&self, name: &str) -> f64 {
        LAYERS
            .iter()
            .position(|l| *l == name)
            .map_or(0.0, |i| self.layer_ms[i])
    }

    /// The self-time table as text.
    pub fn render(&self) -> String {
        let mut out = format!("  {:<18} {:>10} {:>8}\n", "layer", "mean ms", "share");
        let row = |name: &str, v: f64| {
            format!("  {name:<18} {v:>10.4} {:>7.1}%\n", 100.0 * self.share(v))
        };
        for (name, v) in LAYERS.iter().zip(self.layer_ms) {
            out.push_str(&row(name, v));
        }
        out.push_str(&row("residual", self.residual_ms));
        out.push_str(&row("latency", self.latency_ms));
        out.push_str(&format!(
            "  {:<18} {:>10.4}  (after the last frame, outside latency)\n",
            "verify", self.verify_ms
        ));
        for (name, v) in &self.probes {
            out.push_str(&format!(
                "  {name:<18} {v:>10.1} ms (probe, outside the windows)\n"
            ));
        }
        out
    }
}
