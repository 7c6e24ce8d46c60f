//! A terminal model: what printing a result cost on the tutorial's screen.
//!
//! Slide 23's Q16 turns a 618 ms query into a 1468 ms one just by printing
//! its 1.2 MB result to a terminal. A modern terminal emulator is far
//! faster, so the era figure is a what-if: run the query for real, then
//! charge the lines and bytes it rendered to a [`Terminal`].

/// An output device that charges a fixed latency per line and per byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Terminal {
    /// Latency per output line in µs.
    line_us: f64,
    /// Latency per output byte in ns.
    byte_ns: f64,
}

impl Terminal {
    /// The pre-2008 xterm the tutorial printed to: 60 µs/line + 20 ns/byte,
    /// so a ~1 MB, ~20 k-row result adds about a second — the order of the
    /// tutorial's Q16 terminal column.
    pub fn xterm_2008() -> Self {
        Terminal {
            line_us: 60.0,
            byte_ns: 20.0,
        }
    }

    /// Simulated time to print `lines` lines totalling `bytes` bytes, in ms.
    pub fn print_ms(&self, lines: usize, bytes: usize) -> f64 {
        lines as f64 * self.line_us / 1e3 + bytes as f64 * self.byte_ns / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_cost_grows_with_result_size() {
        // Header and separator plus the rows, ~20 bytes a line.
        let t = Terminal::xterm_2008();
        let small = t.print_ms(10 + 2, 12 * 20);
        let large = t.print_ms(10_000 + 2, 10_002 * 20);
        assert!(large > 50.0 * small);
    }

    #[test]
    fn big_results_cost_seconds() {
        // The slide-23 phenomenon: a 20 k-row print takes over a second.
        let ms = Terminal::xterm_2008().print_ms(20_000 + 2, 20_002 * 20);
        assert!(ms > 1000.0, "20k-row terminal print costs {ms} ms");
    }
}
