//! A single-threaded span recorder with self-time accounting.
//!
//! Spans nest: a span's *self time* is its duration minus the time its
//! direct child spans cover, so the self times of all spans add up to
//! the time covered by the outermost spans. Totals are kept per span
//! name in memory and written out once, when the trace ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Self time in seconds, summed over every span of this name.
    pub self_s: f64,
    /// Spans closed under this name.
    pub calls: u64,
}

struct Open {
    name: &'static str,
    start: f64,
    children: f64,
}

/// Records nested spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span at time `t` (seconds on the tracer's clock).
    pub fn enter_at(&mut self, name: &'static str, t: f64) {
        self.stack.push(Open {
            name,
            start: t,
            children: 0.0,
        });
    }

    /// Closes the innermost open span at time `t` and returns its
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (an unbalanced exit is a bug in the
    /// caller).
    pub fn exit_at(&mut self, t: f64) -> f64 {
        let open = self.stack.pop().expect("exit without an open span");
        let dur = t - open.start;
        let total = self.totals.entry(open.name).or_default();
        total.self_s += dur - open.children;
        total.calls += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children += dur;
        }
        dur
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = self.now();
        self.enter_at(name, t0);
        let out = f(self);
        let t1 = self.now();
        self.exit_at(t1);
        out
    }

    /// Runs `f` inside a span named `name` and also returns the span's
    /// duration in seconds.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let t0 = self.now();
        self.enter_at(name, t0);
        let out = f(self);
        let t1 = self.now();
        (out, self.exit_at(t1))
    }

    /// Totals per span name.
    pub fn totals(&self) -> &BTreeMap<&'static str, Total> {
        &self.totals
    }

    /// Sum of every span's self time: the time the outermost spans
    /// cover.
    pub fn covered_s(&self) -> f64 {
        self.totals.values().map(|t| t.self_s).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        // outer [0, 10] > mid [1, 7] > inner [2, 5]; sibling [8, 9].
        t.enter_at("outer", 0.0);
        t.enter_at("mid", 1.0);
        t.enter_at("inner", 2.0);
        assert!(close(t.exit_at(5.0), 3.0));
        assert!(close(t.exit_at(7.0), 6.0));
        t.enter_at("sib", 8.0);
        t.exit_at(9.0);
        assert!(close(t.exit_at(10.0), 10.0));
        let tot = t.totals();
        assert!(close(tot["inner"].self_s, 3.0));
        assert!(close(tot["mid"].self_s, 3.0));
        assert!(close(tot["sib"].self_s, 1.0));
        assert!(close(tot["outer"].self_s, 3.0));
        assert!(close(t.covered_s(), 10.0));
    }

    #[test]
    fn repeated_names_accumulate_calls_and_time() {
        let mut t = Tracer::new();
        for i in 0..3 {
            let s = i as f64 * 2.0;
            t.enter_at("eval", s);
            t.exit_at(s + 0.5);
        }
        assert_eq!(t.totals()["eval"].calls, 3);
        assert!(close(t.totals()["eval"].self_s, 1.5));
    }

    #[test]
    fn recursive_spans_of_one_name_are_not_double_counted() {
        let mut t = Tracer::new();
        t.enter_at("a", 0.0);
        t.enter_at("a", 1.0);
        t.exit_at(3.0);
        t.exit_at(4.0);
        assert!(close(t.totals()["a"].self_s, 4.0));
        assert_eq!(t.totals()["a"].calls, 2);
    }

    #[test]
    fn closure_spans_nest() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let tot = t.totals();
        assert!(tot["outer"].self_s >= 0.0);
        assert!(tot["inner"].self_s >= 0.0);
        assert_eq!(tot["inner"].calls, 1);
    }
}
