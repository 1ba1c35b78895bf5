//! The request-handling service layer: one engine, two front ends.
//!
//! A [`ServiceState`] owns the warm state — one request memo — takes
//! typed [`proto::Request`] bodies and produces JSON payloads, so the
//! same handler serves two transports:
//!
//! * **one-shot**: the CLI verbs construct a [`ServiceState::one_shot`]
//!   and call [`ServiceState::handle`] in-process;
//! * **daemon**: `gemini serve` ([`server::Server`]) keeps one
//!   [`ServiceState`] alive across requests on a TCP socket, so a
//!   repeated request is answered from the request memo.
//!
//! # The determinism contract
//!
//! Every payload is a *pure function of the request* (plus, for
//! campaigns, the journal state on disk — exactly as the one-shot CLI
//! behaves). The memo is results-transparent: it stores what a cold
//! evaluation would produce bit for bit. Volatile daemon state —
//! hit/miss counters, queue depth, totals — is confined to the
//! response's `service` section, never the payload. That split is what
//! lets a test diff a CLI run against the same request over the socket
//! byte for byte.

pub mod memo;
pub mod proto;
pub mod queue;
pub mod server;

pub use memo::MappingMemo;
pub use proto::{
    CampaignParams, DseParams, ErrorCode, MapParams, ProtoError, Request, RequestBody, Response,
    MAX_LINE_BYTES,
};
pub use queue::{PushError, RequestQueue};
pub use server::{ServeOptions, ServeSummary, Server};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gemini_arch::ArchConfig;
use gemini_sim::Evaluator;

use crate::campaign::value::Value;
use crate::campaign::{
    merge_shards, run_campaign, run_campaign_shard, CampaignOptions, CampaignResult, CampaignSpec,
    ShardSpec,
};
use crate::dse::{run_dse, DseOptions, DseResult, DseSpec, Objective};
use crate::engine::{MappingEngine, MappingOptions};
use crate::sa::{SaOptions, SaStats};

/// Request-memo entry cap for a serving process. One-shot runs stay
/// uncapped (their single request bounds them); a daemon must not grow
/// without limit.
pub const SERVE_MEMO_CAP: usize = 256;

/// The serving state's former eval-cache cap, now an alias of
/// [`SERVE_MEMO_CAP`], so `ServiceState::serving(SERVE_EVAL_CACHE_CAP)`
/// builds exactly the daemon's state. No evaluation cache is left in
/// the program; this alias goes with the benchmark-side cleanup in
/// ROADMAP.md ("Least code, same bytes"), once the benchmark tracer
/// uses [`SERVE_MEMO_CAP`].
#[deprecated(note = "the service keeps no eval cache; use SERVE_MEMO_CAP")]
pub const SERVE_EVAL_CACHE_CAP: usize = SERVE_MEMO_CAP;

/// A handler failure: a stable code plus human-readable detail. The
/// CLI prints the detail to stderr; the daemon wraps it in an
/// `ok:false` response.
#[derive(Debug, Clone)]
pub struct ServiceError {
    /// Failure category.
    pub code: ErrorCode,
    /// What went wrong, phrased exactly as the CLI reports it.
    pub detail: String,
}

impl ServiceError {
    fn bad_request(detail: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::BadRequest,
            detail: detail.into(),
        }
    }

    fn internal(detail: impl Into<String>) -> Self {
        Self {
            code: ErrorCode::Internal,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for ServiceError {}

/// Refuses batch 0: the partitioner has no batch unit to cover it
/// with. The request handlers and the CLI verbs that map outside them
/// share this check and its wording.
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] when `batch` is zero.
pub fn check_batch(batch: u32) -> Result<(), ServiceError> {
    if batch == 0 {
        return Err(ServiceError::bad_request(
            "invalid batch 0: must be at least 1",
        ));
    }
    Ok(())
}

/// Resolves an architecture preset name (the CLI's vocabulary).
pub fn preset(name: &str) -> Option<ArchConfig> {
    match name {
        "s-arch" | "simba" => Some(gemini_arch::presets::simba_s_arch()),
        "g-arch" => Some(gemini_arch::presets::g_arch_72()),
        "t-arch" => Some(gemini_arch::presets::t_arch()),
        "g-arch-torus" => Some(gemini_arch::presets::g_arch_vs_tarch()),
        _ => None,
    }
}

/// One-line summary of the SA engine's evaluation counters:
/// incremental (delta) vs. full evaluations, and the share of per-layer
/// stage records reused instead of re-simulated.
pub fn sa_counter_line(s: &SaStats) -> String {
    let members = s.member_sims + s.member_reuses;
    let reuse_pct = if members == 0 {
        0.0
    } else {
        s.member_reuses as f64 / members as f64 * 100.0
    };
    format!(
        "SA evals: {} delta, {} full; layer records reused {reuse_pct:.1}% ({}/{})",
        s.delta_hits, s.full_evals, s.member_reuses, members
    )
}

/// The rung-0 bound counter line of a DSE report (nothing under
/// [`crate::fidelity::BoundMode::Off`]). Identical between the
/// report-only and pruning modes — the plan is computed either way.
fn bound_counter_line(res: &DseResult, lines: &mut Vec<String>) {
    if let Some(b) = &res.report.bound {
        lines.push(format!(
            "bound prune: {}/{} candidate(s) pruned ({:.1}%), {} seed(s), \
             threshold {:.4e}, winner gap {:.2}x",
            b.pruned,
            b.total,
            b.prune_pct(),
            b.seeds,
            b.threshold,
            b.winner_gap
        ));
    }
}

/// The fidelity-ladder section of a DSE report, one entry per line
/// (empty under the analytic policy, which runs no ladder stages).
fn fidelity_report_lines(res: &DseResult, lines: &mut Vec<String>) {
    let rep = &res.report;
    if rep.reranked.is_empty() {
        return;
    }
    lines.push(String::new());
    lines.push(format!(
        "congestion-aware re-rank (fluid NoC reference, top {}):",
        rep.reranked.len()
    ));
    for e in &rep.reranked {
        // tidy:allow(service-index, reason = "e.index comes from the re-rank report built over these same records; the journal loader range-checks indices at load")
        let r = &res.records[e.index];
        let marker = if e.index == rep.best {
            "  <== winner"
        } else if e.index == rep.analytic_best {
            "  (analytic winner)"
        } else {
            ""
        };
        lines.push(format!(
            "  {}  analytic {:.4e} -> fluid {:.4e}{}",
            r.arch.paper_tuple(),
            e.analytic_score,
            e.fluid_score,
            marker,
        ));
    }
    if rep.winner_changed() {
        lines.push("  the congestion-aware re-rank overturned the analytic winner".to_string());
    }
    if !rep.winner_groups.is_empty() {
        lines.push(format!(
            "  worst fluid/analytic across the winner's {} groups: {:.2}x",
            rep.winner_groups.len(),
            rep.max_fluid_vs_analytic()
        ));
        if rep.winner_groups.iter().any(|g| g.packet_s.is_some()) {
            let worst = rep
                .winner_groups
                .iter()
                .map(|g| g.reference_vs_analytic())
                .fold(1.0, f64::max);
            lines.push(format!(
                "  worst packet/analytic (winner validation): {worst:.2}x"
            ));
        }
    }
    if let Some(w) = rep.suggested_congestion_weight {
        lines.push(format!(
            "  calibrated congestion weight: {w:.2} (default {:.2}; feed back via \
             EvalOptions::with_congestion_weight)",
            gemini_sim::evaluate::CONGESTION_WEIGHT
        ));
    }
}

/// A finished campaign's fronts, per-objective winners and artifact
/// paths, one entry per output line — shared by the single-process run
/// and the shard merge, which produce the same [`CampaignResult`]
/// shape.
fn campaign_result_lines(spec: &CampaignSpec, res: &CampaignResult, lines: &mut Vec<String>) {
    let archs = spec.arch_candidates();
    for (gi, g) in res.groups.iter().enumerate() {
        let front = res.archive.front(gi);
        lines.push(String::new());
        lines.push(format!(
            "[{}] batch {}: Pareto front ({}) has {} member(s)",
            g.wset,
            g.batch,
            res.archive
                .axes()
                .iter()
                .map(|a| a.name())
                .collect::<Vec<_>>()
                .join("/"),
            front.len()
        ));
        for p in front {
            // tidy:allow(service-index, reason = "front members are built from this result's own cells; indices are validated when the archive is constructed")
            let c = &res.cells[p.cell];
            lines.push(format!(
                "  cell {:>4}  {}  D {:.3e} s  E {:.3e} J  MC ${:.2}",
                p.cell,
                // tidy:allow(service-index, reason = "arch_idx is range-checked against the spec's candidate list when the journal is loaded")
                archs[c.arch_idx].paper_tuple(),
                c.eff_delay(),
                c.energy,
                c.mc
            ));
        }
        for b in res.best.iter().filter(|b| b.group == gi) {
            // tidy:allow(service-index, reason = "per-objective winners reference this result's own cells; validated at journal load")
            let c = &res.cells[b.cell];
            lines.push(format!(
                "  best under {:<8} cell {:>4}  {}  score {:.4e}",
                b.objective,
                b.cell,
                // tidy:allow(service-index, reason = "arch_idx is range-checked against the spec's candidate list when the journal is loaded")
                archs[c.arch_idx].paper_tuple(),
                b.score
            ));
        }
    }
    lines.push(String::new());
    lines.push("artifacts:".to_string());
    for p in &res.artifacts {
        lines.push(format!("  {}", p.display()));
    }
}

/// The engine-facing service core: the request memo plus the per-verb
/// handlers, shared by the one-shot CLI and the daemon.
pub struct ServiceState {
    /// Whole-payload memo keyed by the request's semantic parameters
    /// (thread counts excluded: they never change results). Campaign
    /// requests are not memoized — they have disk side effects.
    request_memo: MappingMemo<String, Value>,
    /// Requests handled (ok or error), for the `service` section.
    served: AtomicU64,
}

impl ServiceState {
    /// State for a one-shot CLI run: an uncapped memo (the single
    /// request bounds it).
    pub fn one_shot() -> Self {
        Self {
            request_memo: MappingMemo::new(),
            served: AtomicU64::new(0),
        }
    }

    /// State for a long-running daemon: the request memo holds at most
    /// `memo_cap` entries (FIFO eviction, see
    /// [`MappingMemo::with_capacity`]); the daemon passes
    /// [`SERVE_MEMO_CAP`].
    pub fn serving(memo_cap: usize) -> Self {
        Self {
            request_memo: MappingMemo::with_capacity(memo_cap),
            served: AtomicU64::new(0),
        }
    }

    /// Handles one request body and returns its deterministic payload.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] with [`ErrorCode::BadRequest`] for invalid
    /// parameters (unknown model/preset/fidelity, bad shard flags,
    /// unreadable manifest) and [`ErrorCode::Internal`] for evaluation
    /// or I/O failures.
    pub fn handle(&self, body: &RequestBody) -> Result<Value, ServiceError> {
        let r = match body {
            RequestBody::Map(p) => self.map_payload(p),
            RequestBody::Dse(p) => self.dse_payload(p),
            RequestBody::Campaign(p) => self.campaign_payload(p),
            RequestBody::Ping => {
                let mut t = BTreeMap::new();
                t.insert("pong".to_string(), Value::Bool(true));
                Ok(Value::Table(t))
            }
            RequestBody::Stats => Ok(self.counters()),
            RequestBody::Shutdown => {
                let mut t = BTreeMap::new();
                t.insert("draining".to_string(), Value::Bool(true));
                Ok(Value::Table(t))
            }
        };
        self.served.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Cumulative request-memo hits: the single number the acceptance
    /// contract tracks ("a second identical request over a warm daemon
    /// reports a strictly higher cache hit count").
    pub fn cache_hits(&self) -> u64 {
        self.request_memo.hits()
    }

    /// The volatile daemon-state snapshot attached to every response as
    /// the `service` section (and returned by the `stats` verb).
    pub fn counters(&self) -> Value {
        let m = &self.request_memo;
        let (hits, misses) = (m.hits() as f64, m.misses() as f64);
        let mut memo = BTreeMap::new();
        memo.insert("hits".to_string(), Value::Num(hits));
        memo.insert("misses".to_string(), Value::Num(misses));
        memo.insert("evictions".to_string(), Value::Num(m.evictions() as f64));
        memo.insert("entries".to_string(), Value::from(m.len()));
        let mut t = BTreeMap::new();
        t.insert("cache_hits".to_string(), Value::Num(hits));
        t.insert("cache_misses".to_string(), Value::Num(misses));
        t.insert("request_memo".to_string(), Value::Table(memo));
        t.insert(
            "served".to_string(),
            Value::Num(self.served.load(Ordering::Relaxed) as f64),
        );
        Value::Table(t)
    }

    /// Requests handled so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    fn map_payload(&self, p: &MapParams) -> Result<Value, ServiceError> {
        let Some(dnn) = gemini_model::zoo::by_name(&p.model).map(|w| w.graph) else {
            return Err(ServiceError::bad_request(
                "unknown model; try `gemini models`",
            ));
        };
        let Some(arch) = preset(&p.arch) else {
            return Err(ServiceError::bad_request(
                "unknown preset; try `gemini archs`",
            ));
        };
        check_batch(p.batch)?;
        // Memo key: the semantic parameters only. `threads` is
        // excluded — the SA engine is bit-identical at any thread
        // count, so it cannot change the payload.
        let mut k = BTreeMap::new();
        k.insert("verb".to_string(), Value::from("map"));
        k.insert("model".to_string(), Value::from(p.model.as_str()));
        k.insert("arch".to_string(), Value::from(p.arch.as_str()));
        k.insert("batch".to_string(), Value::from(p.batch));
        k.insert("iters".to_string(), Value::from(p.iters));
        k.insert("seed".to_string(), Value::Num(p.seed as f64));
        k.insert("stats".to_string(), Value::Bool(p.stats));
        let key = Value::Table(k).to_json();

        Ok(self.request_memo.get_or_eval(key, || {
            let sa = SaOptions {
                iters: p.iters,
                seed: p.seed,
                threads: p.threads,
                ..Default::default()
            };
            let ev = Evaluator::new(&arch);
            let engine = MappingEngine::new(&ev);
            // The T-Map is the G-Map's start: stripe schemes over the same
            // default partition.
            let (g, t) = engine.map_with_start(
                &dnn,
                p.batch,
                &MappingOptions {
                    sa,
                    ..Default::default()
                },
            );
            let (t_delay, t_energy) = (t.delay_s, t.energy.total());
            let (g_delay, g_energy) = (g.report.delay_s, g.report.energy.total());

            let mut lines = vec![
                format!(
                    "T-Map : {:9.3} ms  {:9.3} mJ",
                    t_delay * 1e3,
                    t_energy * 1e3
                ),
                format!(
                    "G-Map : {:9.3} ms  {:9.3} mJ   ({:.2}x perf, {:.2}x energy)",
                    g_delay * 1e3,
                    g_energy * 1e3,
                    t_delay / g_delay,
                    t_energy / g_energy
                ),
            ];
            if let Some(s) = &g.sa_stats {
                lines.push(sa_counter_line(s));
            }
            if p.stats {
                lines.push(String::new());
                lines
                    .push("per-group utilization and network-fidelity ladder (G-Map):".to_string());
                lines.push(format!(
                    "{:>5} {:>7} {:>8} {:>8} {:>8}  {:>10} {:>10} {:>10}",
                    "group", "cores", "busy", "MAC eff", "D2D", "analytic", "fluid", "packet"
                ));
                let cfg = gemini_noc::packetsim::PacketSimConfig::default();
                for (gi, gm) in g.group_mappings(&dnn).iter().enumerate() {
                    let u = gemini_sim::utilization(&ev, &dnn, gm, p.batch);
                    let f = gemini_sim::check_group(&ev, &dnn, gm, &cfg, 512e3);
                    lines.push(format!(
                        "{:>5} {:>6.0}% {:>7.0}% {:>7.0}% {:>7.0}%  {:>9.2}us {:>9.2}us {:>9.2}us",
                        gi,
                        u.cores_used * 100.0,
                        u.mean_busy * 100.0,
                        u.mac_efficiency * 100.0,
                        u.d2d_share * 100.0,
                        f.analytic_s * 1e6,
                        f.fluid_s * 1e6,
                        f.packet_s * 1e6
                    ));
                }
            }

            let mut out = BTreeMap::new();
            out.insert("model".to_string(), Value::from(p.model.as_str()));
            out.insert("arch".to_string(), Value::from(arch.paper_tuple()));
            out.insert("batch".to_string(), Value::from(p.batch));
            out.insert("iters".to_string(), Value::from(p.iters));
            out.insert("tmap_delay_s".to_string(), Value::Num(t_delay));
            out.insert("tmap_energy_j".to_string(), Value::Num(t_energy));
            out.insert("gmap_delay_s".to_string(), Value::Num(g_delay));
            out.insert("gmap_energy_j".to_string(), Value::Num(g_energy));
            out.insert("report".to_string(), Value::from(lines.join("\n")));
            Value::Table(out)
        }))
    }

    fn dse_payload(&self, p: &DseParams) -> Result<Value, ServiceError> {
        // Table I has no candidate for a non-positive target, and a NaN
        // target would score every candidate NaN.
        if !(p.tops.is_finite() && p.tops > 0.0) {
            return Err(ServiceError::bad_request(format!(
                "invalid tops {:?}: must be a finite number > 0",
                p.tops
            )));
        }
        // A target so large that every grid outgrows the core ids has
        // no candidate at all.
        let spec = DseSpec::table1(p.tops);
        let n_candidates = spec.candidates().len();
        if n_candidates == 0 {
            return Err(ServiceError::bad_request(format!(
                "invalid tops {:?}: every Table-I grid needs more than {} cores",
                p.tops,
                gemini_arch::MAX_CORES
            )));
        }
        check_batch(p.batch)?;
        if p.stride == 0 {
            return Err(ServiceError::bad_request(
                "invalid stride 0: must be at least 1",
            ));
        }
        // Re-ranking no candidate would silently re-rank one.
        if p.rerank_k == 0 {
            return Err(ServiceError::bad_request(
                "invalid rerank_k 0: must be at least 1",
            ));
        }
        let Some((fidelity, bound)) = crate::fidelity::parse_policy(&p.fidelity, p.rerank_k) else {
            return Err(ServiceError::bad_request(format!(
                "unknown fidelity policy '{}'; use analytic|rerank|validate, \
                 optionally suffixed +bounds or +prune",
                p.fidelity
            )));
        };
        let objective =
            Objective::parse(&p.objective).map_err(|e| ServiceError::bad_request(e.0))?;
        let mut k = BTreeMap::new();
        k.insert("verb".to_string(), Value::from("dse"));
        k.insert("tops".to_string(), Value::Num(p.tops));
        k.insert("stride".to_string(), Value::from(p.stride));
        k.insert("batch".to_string(), Value::from(p.batch));
        k.insert("iters".to_string(), Value::from(p.iters));
        k.insert("seed".to_string(), Value::Num(p.seed as f64));
        k.insert("fidelity".to_string(), Value::from(p.fidelity.as_str()));
        k.insert("rerank_k".to_string(), Value::from(p.rerank_k));
        // The canonical spelling, so alias requests share a memo entry.
        k.insert("objective".to_string(), Value::from(objective.canonical()));
        let key = Value::Table(k).to_json();

        Ok(self.request_memo.get_or_eval(key, || {
            // Thread plumbing mirrors the CLI: an explicit sweep-worker
            // count pins SA chains back to auto (they are forced to 1
            // while the sweep is parallel), so the machine is never
            // oversubscribed. Results are identical at any setting.
            let mut sa = SaOptions {
                iters: p.iters,
                seed: p.seed,
                threads: p.sa_threads,
                ..Default::default()
            };
            if p.threads.is_some() {
                sa.threads = 0;
            }
            let mut opts = DseOptions {
                objective,
                batch: p.batch,
                mapping: MappingOptions {
                    sa,
                    ..Default::default()
                },
                stride: p.stride,
                fidelity,
                bound,
                ..Default::default()
            };
            if let Some(t) = p.threads {
                if t > 0 {
                    opts.threads = t;
                }
            }
            let mut lines = vec![format!(
                "{} candidates in the {}-TOPs grid; exploring every {}th with SA {}",
                n_candidates, p.tops, p.stride, p.iters
            )];
            let dnns = vec![gemini_model::zoo::transformer_base()];
            let res = run_dse(&dnns, &spec, &opts);
            let best = res.best_record();
            lines.push(format!(
                "best under {}: {}",
                objective.canonical(),
                best.arch.paper_tuple()
            ));
            lines.push(format!(
                "MC ${:.2}  E {:.3} mJ  D {:.3} ms",
                best.mc,
                best.energy * 1e3,
                best.delay * 1e3
            ));
            lines.push(sa_counter_line(&best.sa_stats));
            bound_counter_line(&res, &mut lines);
            fidelity_report_lines(&res, &mut lines);

            let mut out = BTreeMap::new();
            out.insert("tops".to_string(), Value::Num(p.tops));
            out.insert("stride".to_string(), Value::from(p.stride));
            out.insert("batch".to_string(), Value::from(p.batch));
            out.insert("iters".to_string(), Value::from(p.iters));
            out.insert("objective".to_string(), Value::from(objective.canonical()));
            out.insert(
                "best_arch".to_string(),
                Value::from(best.arch.paper_tuple()),
            );
            out.insert("mc".to_string(), Value::Num(best.mc));
            out.insert("energy_j".to_string(), Value::Num(best.energy));
            out.insert("delay_s".to_string(), Value::Num(best.delay));
            // Rung-0 counters, only when the bound pre-filter ran (the
            // fields stay absent under `BoundMode::Off`, like every
            // other only-when-present payload field).
            if let Some(b) = &res.report.bound {
                out.insert("bound_total".to_string(), Value::from(b.total));
                out.insert("bound_seeds".to_string(), Value::from(b.seeds));
                out.insert("bound_pruned".to_string(), Value::from(b.pruned));
                out.insert("bound_threshold".to_string(), Value::Num(b.threshold));
                out.insert("bound_winner_gap".to_string(), Value::Num(b.winner_gap));
            }
            out.insert("report".to_string(), Value::from(lines.join("\n")));
            Value::Table(out)
        }))
    }

    fn campaign_payload(&self, p: &CampaignParams) -> Result<Value, ServiceError> {
        let shard = campaign_shard(p)?;
        let spec = CampaignSpec::load(std::path::Path::new(&p.manifest))
            .map_err(|e| ServiceError::bad_request(e.to_string()))?;
        let opts = CampaignOptions {
            threads: p.threads,
            resume: p.resume,
            out_root: p.out.clone().map(std::path::PathBuf::from),
        };

        let mut lines = Vec::new();
        let mut out = BTreeMap::new();
        if p.merge {
            let res =
                merge_shards(&spec, &opts).map_err(|e| ServiceError::internal(e.to_string()))?;
            lines.push(format!(
                "merged {} cell(s) from shard journals",
                res.cells.len()
            ));
            campaign_result_lines(&spec, &res, &mut lines);
            fill_campaign_out(&mut out, &res);
        } else if let Some(shard) = shard {
            let res = run_campaign_shard(&spec, &opts, shard)
                .map_err(|e| ServiceError::internal(e.to_string()))?;
            lines.push(format!(
                "shard {}/{}: owns {} cell(s); {} evaluated ({} stolen), {} resumed \
                 from the journal",
                res.shard.0, res.shard.1, res.owned, res.evaluated, res.stolen, res.skipped
            ));
            lines.push(format!("journal: {}", res.journal.display()));
            lines.push(format!(
                "run `gemini campaign merge {}` once every shard has finished",
                p.manifest
            ));
            out.insert("fingerprint".to_string(), Value::from(res.fingerprint));
            out.insert(
                "journal".to_string(),
                Value::from(res.journal.display().to_string()),
            );
            out.insert("evaluated".to_string(), Value::from(res.evaluated));
            out.insert("skipped".to_string(), Value::from(res.skipped));
            out.insert("stolen".to_string(), Value::from(res.stolen));
        } else {
            let res =
                run_campaign(&spec, &opts).map_err(|e| ServiceError::internal(e.to_string()))?;
            lines.push(format!(
                "{} cell(s) evaluated, {} resumed from the journal",
                res.evaluated, res.skipped
            ));
            lines.push(format!(
                "journal: {}",
                res.dir.join("journal.jsonl").display()
            ));
            campaign_result_lines(&spec, &res, &mut lines);
            fill_campaign_out(&mut out, &res);
        }
        out.insert("report".to_string(), Value::from(lines.join("\n")));
        Ok(Value::Table(out))
    }
}

/// Validates a campaign request's shard flags and resolves them to a
/// [`ShardSpec`], with error wording shared by the CLI and the socket
/// (both refuse identically).
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] for shard flags on a merge, an unpaired
/// `--shards`/`--shard-index`, an out-of-range index, or `--steal`
/// without a shard identity.
pub fn campaign_shard(p: &CampaignParams) -> Result<Option<ShardSpec>, ServiceError> {
    if p.merge && (p.shards.is_some() || p.shard_index.is_some() || p.steal) {
        return Err(ServiceError::bad_request(
            "`gemini campaign merge` takes no shard flags; it discovers \
             journal-shard-*.jsonl in the campaign directory",
        ));
    }
    let shard = match (p.shards, p.shard_index) {
        (None, None) => None,
        (Some(count), Some(index)) => {
            if index >= count {
                return Err(ServiceError::bad_request(format!(
                    "--shard-index {index} is out of range for --shards {count}"
                )));
            }
            Some(ShardSpec {
                index,
                count,
                steal: p.steal,
            })
        }
        (Some(_), None) => {
            return Err(ServiceError::bad_request("--shards requires --shard-index"))
        }
        (None, Some(_)) => {
            return Err(ServiceError::bad_request("--shard-index requires --shards"))
        }
    };
    if p.steal && shard.is_none() {
        return Err(ServiceError::bad_request(
            "--steal requires --shards and --shard-index",
        ));
    }
    Ok(shard)
}

/// Shared payload fields of the two artifact-producing campaign paths.
fn fill_campaign_out(out: &mut BTreeMap<String, Value>, res: &CampaignResult) {
    out.insert(
        "fingerprint".to_string(),
        Value::from(res.fingerprint.as_str()),
    );
    out.insert("cells".to_string(), Value::from(res.cells.len()));
    out.insert("evaluated".to_string(), Value::from(res.evaluated));
    out.insert("skipped".to_string(), Value::from(res.skipped));
    out.insert(
        "artifacts".to_string(),
        Value::List(
            res.artifacts
                .iter()
                .map(|p| Value::from(p.display().to_string()))
                .collect(),
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_req(iters: u32) -> RequestBody {
        RequestBody::Map(MapParams {
            model: "two-conv".to_string(),
            arch: "g-arch".to_string(),
            batch: 2,
            iters,
            seed: 0xC0FFEE,
            threads: 1,
            stats: false,
        })
    }

    #[test]
    fn map_handler_renders_the_cli_report() {
        let state = ServiceState::one_shot();
        let payload = state.handle(&map_req(30)).unwrap();
        let report = payload.get("report").unwrap().as_str().unwrap();
        assert!(report.starts_with("T-Map :"), "{report}");
        assert!(report.contains("G-Map :"), "{report}");
        assert!(report.contains("SA evals:"), "{report}");
        assert!(payload.get("gmap_delay_s").unwrap().as_num().unwrap() > 0.0);
    }

    #[test]
    fn repeated_request_hits_the_memo_and_payload_is_identical() {
        let state = ServiceState::one_shot();
        let a = state.handle(&map_req(30)).unwrap();
        let h1 = state.cache_hits();
        let b = state.handle(&map_req(30)).unwrap();
        let h2 = state.cache_hits();
        assert_eq!(a.to_json(), b.to_json(), "memoized payload is identical");
        assert!(h2 > h1, "second identical request must raise cache hits");
        assert_eq!(state.served(), 2);
    }

    #[test]
    fn the_request_memo_is_the_only_counted_cache() {
        // Two map requests that differ only in `iters` are two memo
        // misses, and nothing else the service keeps counts a probe.
        let state = ServiceState::one_shot();
        let _ = state.handle(&map_req(30)).unwrap();
        let _ = state.handle(&map_req(40)).unwrap();
        let Value::Table(c) = state.counters() else {
            panic!("counters are a table");
        };
        let keys: Vec<&str> = c.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["cache_hits", "cache_misses", "request_memo", "served"]
        );
        assert_eq!(c.get("cache_misses").and_then(Value::as_num), Some(2.0));
        assert_eq!(c.get("cache_hits").and_then(Value::as_num), Some(0.0));
    }

    #[test]
    fn unknown_names_refuse_with_the_cli_wording() {
        let state = ServiceState::one_shot();
        let e = state
            .handle(&RequestBody::Map(MapParams {
                model: "not-a-model".to_string(),
                arch: "g-arch".to_string(),
                batch: 2,
                iters: 10,
                seed: 0,
                threads: 1,
                stats: false,
            }))
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.detail.contains("unknown model"), "{}", e.detail);
        let e = state
            .handle(&RequestBody::Dse(DseParams {
                tops: 72.0,
                stride: 400,
                batch: 2,
                iters: 10,
                seed: 0,
                fidelity: "bogus".to_string(),
                rerank_k: 4,
                threads: None,
                sa_threads: 1,
                objective: "mc-e-d".to_string(),
            }))
            .unwrap_err();
        assert!(e.detail.contains("unknown fidelity policy"), "{}", e.detail);
        let e = state
            .handle(&RequestBody::Dse(DseParams {
                tops: 72.0,
                stride: 400,
                batch: 2,
                iters: 10,
                seed: 0,
                fidelity: "analytic".to_string(),
                rerank_k: 4,
                threads: None,
                sa_threads: 1,
                objective: "warp-speed".to_string(),
            }))
            .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.detail.contains("unknown objective"), "{}", e.detail);
        assert!(e.detail.contains("p<pct>@<rate>"), "{}", e.detail);
    }

    #[test]
    fn dse_refuses_an_invalid_tops() {
        // Not finite and positive, or so large that no grid fits the
        // core ids.
        let state = ServiceState::one_shot();
        for tops in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e9, 1e300] {
            let e = state
                .handle(&RequestBody::Dse(DseParams {
                    tops,
                    stride: 400,
                    batch: 2,
                    iters: 10,
                    seed: 0,
                    fidelity: "analytic".to_string(),
                    rerank_k: 4,
                    threads: None,
                    sa_threads: 1,
                    objective: "mc-e-d".to_string(),
                }))
                .unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert!(e.detail.contains("invalid tops"), "{}", e.detail);
            assert!(e.detail.len() < 80, "echoes a short value: {}", e.detail);
        }
    }

    #[test]
    fn dse_refuses_rerank_k_zero_under_every_policy() {
        let state = ServiceState::one_shot();
        for fidelity in ["analytic", "rerank", "validate+prune"] {
            let e = state
                .handle(&RequestBody::Dse(DseParams {
                    tops: 72.0,
                    stride: 400,
                    batch: 2,
                    iters: 10,
                    seed: 0,
                    fidelity: fidelity.to_string(),
                    rerank_k: 0,
                    threads: None,
                    sa_threads: 1,
                    objective: "mc-e-d".to_string(),
                }))
                .unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert_eq!(e.detail, "invalid rerank_k 0: must be at least 1");
        }
    }

    #[test]
    fn batch_zero_is_refused_on_map_and_dse() {
        let state = ServiceState::one_shot();
        let map = RequestBody::Map(MapParams {
            model: "rn-50".to_string(),
            arch: "g-arch".to_string(),
            batch: 0,
            iters: 10,
            seed: 0,
            threads: 1,
            stats: false,
        });
        let dse = RequestBody::Dse(DseParams {
            tops: 72.0,
            stride: 400,
            batch: 0,
            iters: 10,
            seed: 0,
            fidelity: "analytic+prune".to_string(),
            rerank_k: 4,
            threads: None,
            sa_threads: 1,
            objective: "mc-e-d".to_string(),
        });
        for body in [map, dse] {
            let e = state.handle(&body).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest);
            assert_eq!(e.detail, "invalid batch 0: must be at least 1");
        }
    }

    #[test]
    fn ping_stats_and_shutdown_answer_inline() {
        let state = ServiceState::one_shot();
        let p = state.handle(&RequestBody::Ping).unwrap();
        assert_eq!(p.get("pong").unwrap().as_bool(), Some(true));
        let s = state.handle(&RequestBody::Stats).unwrap();
        assert!(s.get("cache_hits").is_some());
        assert!(s.get("request_memo").unwrap().get("evictions").is_some());
        let d = state.handle(&RequestBody::Shutdown).unwrap();
        assert_eq!(d.get("draining").unwrap().as_bool(), Some(true));
    }
}
