//! The objective API: what a DSE candidate, a campaign cell or a
//! service request is scored by.
//!
//! The paper's objective is the scalarization `MC^alpha * E^beta *
//! D^gamma` over monetary cost, energy and delay of one isolated
//! inference. Serving deployments care about a different quantity —
//! the *tail* of the latency distribution a request stream actually
//! observes, which queueing and batching can push far above the mapped
//! step latency. [`ObjectiveSpec`] unifies both: the exponent family
//! ([`ObjectiveSpec::Edp`]) and two traffic-derived objectives that
//! replay the canonical serving scenario ([`crate::traffic::serve_at`])
//! against the candidate's delay.
//!
//! Every consumer — the homogeneous and heterogeneous DSE, the fidelity
//! ladder, campaign manifests, the service protocol and the CLI —
//! parses and prints objectives through this one type, so a spelling
//! like `p99@500` means the same thing everywhere. The scoring
//! interface is unchanged from the old exponent struct
//! (`score(mc, e, d) -> f64`, lower is better), which keeps journals
//! and artifacts byte-identical for exponent objectives.

use std::ops::RangeInclusive;

use serde::{Deserialize, Serialize};

use crate::traffic;

/// The valid objective spellings, quoted by every parse error.
pub const VALID_FORMS: &str = "mc-e-d | e-d | edp | d | delay | latency | e | energy | \
     p<pct>@<rate> (e.g. p99@500) | goodput@<rate>:<budget>ms (e.g. goodput@500:25ms)";

/// A scoring objective: lower scores are better under every variant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ObjectiveSpec {
    /// The paper's exponent family `MC^alpha * E^beta * D^gamma`.
    Edp {
        /// Monetary-cost exponent.
        alpha: f64,
        /// Energy exponent.
        beta: f64,
        /// Delay exponent.
        gamma: f64,
    },
    /// Tail latency under load: the `percentile`-th served latency
    /// (seconds) of the canonical scenario at `rate_rps` Poisson
    /// arrivals, with the candidate's delay as the per-step latency.
    TailLatency {
        /// Offered load (requests per second).
        rate_rps: f64,
        /// Percentile in `(0, 100]` (99.0 for p99).
        percentile: f64,
    },
    /// SLA miss rate under load: the fraction of requests of the
    /// canonical scenario at `rate_rps` served *slower* than
    /// `budget_ms` (`1 - goodput`, so lower is better).
    SlaGoodput {
        /// Offered load (requests per second).
        rate_rps: f64,
        /// Served-latency budget (milliseconds).
        budget_ms: f64,
    },
}

impl ObjectiveSpec {
    /// The paper's default DSE objective `MC * E * D`.
    pub fn mc_e_d() -> Self {
        Self::Edp {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
        }
    }

    /// Energy-delay product (mapping-level objective).
    pub fn e_d() -> Self {
        Self::Edp {
            alpha: 0.0,
            beta: 1.0,
            gamma: 1.0,
        }
    }

    /// Delay only.
    pub fn d_only() -> Self {
        Self::Edp {
            alpha: 0.0,
            beta: 0.0,
            gamma: 1.0,
        }
    }

    /// Energy only.
    pub fn e_only() -> Self {
        Self::Edp {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        }
    }

    /// The p99-under-load objective at `rate_rps`.
    pub fn p99_at(rate_rps: f64) -> Self {
        Self::TailLatency {
            rate_rps,
            percentile: 99.0,
        }
    }

    /// Scores a candidate; lower is better under every variant.
    ///
    /// Exponent objectives are closed-form in `(mc, e, d)`. The traffic
    /// objectives replay the canonical serving scenario
    /// ([`crate::traffic::serve_at`]) with `d` as the per-step latency;
    /// `mc` and `e` do not enter, so their scores compare architectures
    /// purely by served tail behavior.
    pub fn score(&self, mc: f64, e: f64, d: f64) -> f64 {
        match *self {
            Self::Edp { alpha, beta, gamma } => mc.powf(alpha) * e.powf(beta) * d.powf(gamma),
            // Analytic *lower bounds* can legitimately be scored here
            // (rung-0 pruning); clamp so a zero-delay bound replays as
            // an arbitrarily fast server instead of panicking.
            Self::TailLatency {
                rate_rps,
                percentile,
            } => traffic::serve_at(rate_rps, d.max(1e-30)).quantile(percentile),
            Self::SlaGoodput {
                rate_rps,
                budget_ms,
            } => 1.0 - traffic::serve_at(rate_rps, d.max(1e-30)).goodput(budget_ms / 1e3),
        }
    }

    /// Whether the score is monotone non-decreasing in each of
    /// `(mc, e, d)` — the property that lets the rung-0 pre-filter
    /// prune on lower bounds. Exponent objectives are monotone iff all
    /// exponents are non-negative. The traffic objectives ignore `mc`
    /// and `e` and are pointwise monotone in `d`: the FCFS replay never
    /// completes any request *earlier* when every batch takes longer,
    /// so quantiles rise and goodput falls.
    pub fn monotone(&self) -> bool {
        match *self {
            Self::Edp { alpha, beta, gamma } => alpha >= 0.0 && beta >= 0.0 && gamma >= 0.0,
            Self::TailLatency { .. } | Self::SlaGoodput { .. } => true,
        }
    }

    /// Parses a canonical spelling (see [`VALID_FORMS`]). Unknown names
    /// and malformed parameters both produce errors that enumerate the
    /// valid spellings.
    pub fn parse(s: &str) -> Result<Self, ObjectiveParseError> {
        let s = s.trim();
        match s {
            "mc-e-d" => return Ok(Self::mc_e_d()),
            "e-d" | "edp" => return Ok(Self::e_d()),
            "d" | "delay" | "latency" => return Ok(Self::d_only()),
            "e" | "energy" => return Ok(Self::e_only()),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix('p') {
            if let Some((pct, rate)) = rest.split_once('@') {
                // Only commit to the tail-latency form when the head
                // parses as a percentile — `pnas@8` stays "unknown".
                if let Ok(percentile) = pct.parse::<f64>() {
                    let rate_rps = parse_rate(s, rate)?;
                    if !(percentile > 0.0 && percentile <= 100.0) {
                        return Err(malformed(
                            s,
                            format!("percentile must be in (0, 100], got {percentile}"),
                        ));
                    }
                    return Ok(Self::TailLatency {
                        rate_rps,
                        percentile,
                    });
                }
            }
        }
        if let Some(rest) = s.strip_prefix("goodput@") {
            let Some((rate, budget)) = rest.split_once(':') else {
                return Err(malformed(s, "expected goodput@<rate>:<budget>ms".into()));
            };
            let rate_rps = parse_rate(s, rate)?;
            let Some(ms) = budget.strip_suffix("ms") else {
                return Err(malformed(s, "budget must end in 'ms'".into()));
            };
            let budget_ms = ms.parse::<f64>().ok().filter(|b| BUDGET_MS.contains(b));
            let Some(budget_ms) = budget_ms else {
                return Err(malformed(
                    s,
                    format!("budget must be a number of ms in [0.001, 1e6], got '{ms}'"),
                ));
            };
            return Ok(Self::SlaGoodput {
                rate_rps,
                budget_ms,
            });
        }
        Err(ObjectiveParseError(format!(
            "unknown objective '{s}' (use {VALID_FORMS}, or [alpha, beta, gamma])"
        )))
    }

    /// The canonical spelling: [`ObjectiveSpec::parse`] of the result
    /// round-trips, and named [`ObjectiveSpec::Edp`] presets print as
    /// their names (other exponent combinations as `mc^a*e^b*d^c`, the
    /// campaign-artifact label form).
    pub fn canonical(&self) -> String {
        match *self {
            Self::Edp { alpha, beta, gamma } => match (alpha, beta, gamma) {
                (1.0, 1.0, 1.0) => "mc-e-d".into(),
                (0.0, 1.0, 1.0) => "e-d".into(),
                (0.0, 0.0, 1.0) => "d".into(),
                (0.0, 1.0, 0.0) => "e".into(),
                _ => format!("mc^{alpha}*e^{beta}*d^{gamma}"),
            },
            Self::TailLatency {
                rate_rps,
                percentile,
            } => format!("p{percentile}@{rate_rps}"),
            Self::SlaGoodput {
                rate_rps,
                budget_ms,
            } => {
                format!("goodput@{rate_rps}:{budget_ms}ms")
            }
        }
    }
}

/// The offered loads a traffic objective accepts, in requests/s: from
/// one request in ~17 minutes to a million per second. Outside it the
/// replay says nothing useful, and the canonical spelling of a rate
/// such as 1e300 would print hundreds of digits.
const RATE_RPS: RangeInclusive<f64> = 1e-3..=1e6;

/// The latency budgets a goodput objective accepts, in milliseconds:
/// one microsecond to ~17 minutes.
const BUDGET_MS: RangeInclusive<f64> = 1e-3..=1e6;

fn parse_rate(spelling: &str, rate: &str) -> Result<f64, ObjectiveParseError> {
    rate.parse::<f64>()
        .ok()
        .filter(|r| RATE_RPS.contains(r))
        .ok_or_else(|| {
            malformed(
                spelling,
                format!("rate must be a number of requests/s in [0.001, 1e6], got '{rate}'"),
            )
        })
}

fn malformed(spelling: &str, why: String) -> ObjectiveParseError {
    ObjectiveParseError(format!(
        "malformed objective '{spelling}': {why} (use {VALID_FORMS}, or [alpha, beta, gamma])"
    ))
}

/// An objective spelling that did not parse; the message always
/// enumerates [`VALID_FORMS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveParseError(pub String);

impl std::fmt::Display for ObjectiveParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ObjectiveParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_scores_match_the_old_struct_exactly() {
        // The Edp variant must reproduce the retired exponent struct
        // bit for bit — journals and fingerprints depend on it.
        assert_eq!(ObjectiveSpec::mc_e_d().score(2.0, 3.0, 4.0), 24.0);
        assert_eq!(ObjectiveSpec::e_d().score(2.0, 3.0, 4.0), 12.0);
        assert_eq!(ObjectiveSpec::d_only().score(2.0, 3.0, 4.0), 4.0);
        assert_eq!(ObjectiveSpec::e_only().score(2.0, 3.0, 4.0), 3.0);
        let odd = ObjectiveSpec::Edp {
            alpha: 0.5,
            beta: 2.0,
            gamma: 1.5,
        };
        let expect = 2.0f64.powf(0.5) * 3.0f64.powf(2.0) * 4.0f64.powf(1.5);
        assert_eq!(odd.score(2.0, 3.0, 4.0).to_bits(), expect.to_bits());
    }

    #[test]
    fn parse_round_trips_canonical_spellings() {
        for s in [
            "mc-e-d",
            "e-d",
            "d",
            "e",
            "p99@500",
            "p50@120.5",
            "goodput@500:25ms",
        ] {
            let o = ObjectiveSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(o.canonical(), s, "canonical form is stable");
            assert_eq!(ObjectiveSpec::parse(&o.canonical()), Ok(o));
        }
        assert_eq!(
            ObjectiveSpec::parse("edp"),
            Ok(ObjectiveSpec::e_d()),
            "aliases parse to the same spec"
        );
        assert_eq!(ObjectiveSpec::parse("latency"), Ok(ObjectiveSpec::d_only()));
        assert_eq!(
            ObjectiveSpec::parse("p99@500"),
            Ok(ObjectiveSpec::p99_at(500.0))
        );
    }

    #[test]
    fn parse_errors_enumerate_valid_spellings() {
        for bad in [
            "warp-speed",
            "p99@",
            "p99@-3",
            "p0@500",
            "p101@500",
            "goodput@500",
            "goodput@500:25",
            "goodput@0:25ms",
            "goodput@500:0ms",
        ] {
            let e = ObjectiveSpec::parse(bad).expect_err(bad);
            assert!(e.0.contains("p<pct>@<rate>"), "{bad}: {e}");
            assert!(e.0.contains("goodput@<rate>:<budget>ms"), "{bad}: {e}");
            assert!(e.0.contains("mc-e-d"), "{bad}: {e}");
        }
        // A zoo name with an @ is still "unknown", not "malformed".
        assert!(ObjectiveSpec::parse("pnas@8")
            .expect_err("not an objective")
            .0
            .starts_with("unknown objective"));
    }

    #[test]
    fn rates_and_budgets_are_refused_outside_their_ranges() {
        // Both ends of each range parse; just outside them does not.
        for ok in [
            "p99@0.001",
            "p99@1000000",
            "goodput@0.001:25ms",
            "goodput@1e6:25ms",
            "goodput@500:0.001ms",
            "goodput@500:1000000ms",
        ] {
            ObjectiveSpec::parse(ok).unwrap_or_else(|e| panic!("{ok}: {e}"));
        }
        for (bad, what) in [
            ("p99@0.00099", "rate"),
            ("p99@1000001", "rate"),
            ("p99@1e300", "rate"),
            ("p50@inf", "rate"),
            ("p50@NaN", "rate"),
            ("goodput@1e-300:25ms", "rate"),
            ("goodput@1e7:25ms", "rate"),
            ("goodput@500:0.00099ms", "budget"),
            ("goodput@500:1000001ms", "budget"),
            ("goodput@500:1e-300ms", "budget"),
        ] {
            let e = ObjectiveSpec::parse(bad).expect_err(bad);
            assert!(
                e.0.starts_with(&format!("malformed objective '{bad}': {what} must be")),
                "{bad}: {e}"
            );
            assert!(e.0.contains("[0.001, 1e6]"), "{bad}: {e}");
        }
    }

    #[test]
    fn traffic_objectives_are_monotone_in_delay() {
        let p99 = ObjectiveSpec::p99_at(400.0);
        let good = ObjectiveSpec::SlaGoodput {
            rate_rps: 400.0,
            budget_ms: 20.0,
        };
        assert!(p99.monotone() && good.monotone());
        let mut last_p99 = 0.0;
        let mut last_miss = -1.0;
        for d in [1e-5, 1e-4, 1e-3, 1e-2] {
            let s = p99.score(1.0, 1.0, d);
            let m = good.score(1.0, 1.0, d);
            assert!(s >= last_p99, "p99 must rise with step latency");
            assert!(m >= last_miss, "miss rate must rise with step latency");
            assert!((0.0..=1.0).contains(&m));
            last_p99 = s;
            last_miss = m;
        }
        // The negative-exponent guard is unchanged.
        let inv = ObjectiveSpec::Edp {
            alpha: -1.0,
            beta: 1.0,
            gamma: 1.0,
        };
        assert!(!inv.monotone());
    }

    #[test]
    fn traffic_scores_ignore_cost_and_energy() {
        let o = ObjectiveSpec::p99_at(300.0);
        let a = o.score(1.0, 1.0, 2e-4);
        let b = o.score(7.0, 0.1, 2e-4);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
