//! Answer verification: expected answers come from the debug engine over
//! the in-memory catalog, and every served answer is compared row by row,
//! floats by their bits.

use minidb::{Catalog, ExecMode, Session, Value};

/// The expected rows of each mix statement, by mix index.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `answers[i]` is the result of `mix[i]`.
    pub answers: Vec<Vec<Vec<Value>>>,
}

impl Expected {
    /// Runs every statement once through a debug-engine session over the
    /// in-memory catalog — an engine the server does not use.
    pub fn compute(catalog: Catalog, mix: &[String]) -> Result<Expected, String> {
        let mut session = Session::new(catalog).with_mode(ExecMode::Debug);
        let answers = mix
            .iter()
            .map(|sql| {
                session
                    .query(sql)
                    .run()
                    .map(|r| r.rows)
                    .map_err(|e| format!("expected answer for {sql:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected { answers })
    }

    /// Corrupts one expected value, so every answer to mix statement 0
    /// must be counted as a mismatch. The instrument's self-test.
    pub fn tamper(&mut self) {
        let rows = &mut self.answers[0];
        match rows.first_mut().and_then(|r| r.first_mut()) {
            Some(Value::Int(i)) => *i = i.wrapping_add(1),
            Some(Value::Float(f)) => *f = f64::from_bits(f.to_bits() ^ 1),
            Some(v) => *v = Value::Null,
            None => rows.push(vec![Value::Null]),
        }
    }

    /// True if `rows` is exactly the expected answer of mix statement `i`.
    pub fn matches(&self, i: usize, rows: &[Vec<Value>]) -> bool {
        same_rows(&self.answers[i], rows)
    }
}

/// Row-by-row equality with floats compared by `to_bits()`.
pub fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len() && ra.iter().zip(rb).all(|(x, y)| same_value(x, y))
        })
}

fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_by_bits() {
        let z = vec![vec![Value::Float(0.0)]];
        let nz = vec![vec![Value::Float(-0.0)]];
        assert!(!same_rows(&z, &nz), "-0.0 and 0.0 differ in bits");
        let nan = vec![vec![Value::Float(f64::NAN)]];
        assert!(same_rows(&nan, &nan.clone()), "a NaN equals its own bits");
        assert!(!same_rows(&z, &[]), "row counts differ");
    }
}
