//! Traced, in-process re-drive of the perfbench workloads.
//!
//! The untraced benchmark drives the `gemini` daemon from outside. This
//! binary re-runs the same request through the layers' public functions
//! — `partition_graph`, `stripe_lms`, `sa::optimize`,
//! `MappingEngine::evaluate`, `dnn_bound`, `check_group_fluid`,
//! `ObjectiveSpec::score`, `CostModel::evaluate`, the campaign journal,
//! archive and artifact writers, `ServiceState::handle` and the wire
//! codec — and times every call from here. Nothing inside the program is
//! instrumented. The re-drive runs on one thread, so self times add up
//! to the wall time the spans cover.
//!
//! ```text
//! perfbench-tracer dse <file with one dse request line>
//! perfbench-tracer campaign <file with one campaign request line>
//! perfbench-tracer map <file with one map request line per line>
//! ```
//!
//! It prints one JSON object: the payload it computed (or, for a
//! campaign, where its artifacts are), the span totals per layer and
//! the layer counters. The caller compares the payload with the one the
//! daemon answered.

mod span;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use gemini::arch::ArchConfig;
use gemini::core::campaign::journal::Appender;
use gemini::core::campaign::value::Value;
use gemini::core::campaign::{
    run_campaign, CampaignOptions, CampaignSpec, CellFidelity, CellResult, DnnCellMetrics,
    ParetoArchive,
};
use gemini::core::dse::{DseSpec, Objective};
use gemini::core::engine::{parse_all, MappedDnn, MappingEngine, MappingOptions};
use gemini::core::fidelity::{parse_policy, FidelityPolicy};
use gemini::core::partition::partition_graph;
use gemini::core::sa::{optimize, SaOptions, SaStats};
use gemini::core::service::{
    preset, CampaignParams, DseParams, MapParams, Request, RequestBody, Response, ServiceState,
    SERVE_EVAL_CACHE_CAP,
};
use gemini::core::stripe::{bound_seed_lms, stripe_lms};
use gemini::cost::CostModel;
use gemini::model::Dnn;
use gemini::noc::FlowSimWorkspace;
use gemini::sim::bound::dnn_bound;
use gemini::sim::fidelity::check_group_fluid;
use gemini::sim::Evaluator;

use span::Tracer;

/// Layer counters gathered alongside the spans.
#[derive(Default)]
struct Counters {
    groups: u64,
    sa: SaStats,
    intracore_entries: u64,
    bound_calls: u64,
    bound_total: u64,
    bound_pruned: u64,
    bound_winner_gap: f64,
    fluid_flows: u64,
    traffic_calls: u64,
    journal_bytes: u64,
    artifacts_bytes: u64,
    wire_bytes: u64,
}

#[derive(Default)]
struct Ctx {
    t: Tracer,
    c: Counters,
}

impl Ctx {
    /// Runs `f` inside a span that has no child spans.
    fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.t.span(name, |_| f())
    }
}

/// G-Map, step by step as `MappingEngine::map` takes it.
fn map_dnn(
    ctx: &mut Ctx,
    ev: &Evaluator,
    dnn: &Dnn,
    batch: u32,
    opts: &MappingOptions,
) -> MappedDnn {
    let arch = ev.arch();
    let partition = ctx.leaf("partition", || {
        partition_graph(dnn, arch, batch, &opts.partition)
    });
    ctx.c.groups += partition.groups.len() as u64;
    let init = ctx.leaf("stripe", || {
        partition
            .groups
            .iter()
            .map(|g| {
                let base = stripe_lms(dnn, arch, g);
                if opts.sa.bound_seed {
                    bound_seed_lms(dnn, g, base)
                } else {
                    base
                }
            })
            .collect()
    });
    let out = ctx.leaf("sa", || {
        optimize(dnn, ev, &partition, init, batch, &opts.sa)
    });
    ctx.c.sa.add_counters(&out.stats);
    let report = ctx.leaf("eval", || {
        MappingEngine::new(ev).evaluate(dnn, &partition, &out.lms, batch)
    });
    MappedDnn {
        partition,
        lms: out.lms,
        report,
        sa_stats: Some(out.stats),
    }
}

/// T-Map, step by step as `MappingEngine::map_stripe` takes it.
fn map_stripe(ctx: &mut Ctx, ev: &Evaluator, dnn: &Dnn, batch: u32, opts: &MappingOptions) {
    let arch = ev.arch();
    let partition = ctx.leaf("partition", || {
        partition_graph(dnn, arch, batch, &opts.partition)
    });
    ctx.c.groups += partition.groups.len() as u64;
    let lms: Vec<_> = ctx.leaf("stripe", || {
        partition
            .groups
            .iter()
            .map(|g| stripe_lms(dnn, arch, g))
            .collect()
    });
    ctx.leaf("eval", || {
        MappingEngine::new(ev).evaluate(dnn, &partition, &lms, batch)
    });
}

fn geomean(xs: impl Iterator<Item = f64>, n: usize) -> f64 {
    (xs.map(f64::ln).sum::<f64>() / n.max(1) as f64).exp()
}

/// One DSE candidate's metrics, as `dse::evaluate_candidate` scores it.
struct Candidate {
    mc: f64,
    energy: f64,
    delay: f64,
    score: f64,
    pruned: bool,
}

fn evaluate_candidate(
    ctx: &mut Ctx,
    arch: &ArchConfig,
    dnns: &[Dnn],
    cost: &CostModel,
    batch: u32,
    opts: &MappingOptions,
    objective: Objective,
) -> Candidate {
    let mc = ctx.leaf("cost", || cost.evaluate(arch)).total();
    let ev = Evaluator::new(arch);
    let mut energies = Vec::with_capacity(dnns.len());
    let mut delays = Vec::with_capacity(dnns.len());
    for dnn in dnns {
        let m = map_dnn(ctx, &ev, dnn, batch, opts);
        energies.push(m.report.energy.total());
        delays.push(m.report.delay_s);
    }
    ctx.c.intracore_entries += ev.profile().cache_len() as u64;
    let energy = geomean(energies.into_iter(), dnns.len());
    let delay = geomean(delays.into_iter(), dnns.len());
    Candidate {
        mc,
        energy,
        delay,
        score: objective.score(mc, energy, delay),
        pruned: false,
    }
}

/// The rung-0 bound of one candidate: `(score, energy, delay)`.
fn bound_candidate(
    ctx: &mut Ctx,
    arch: &ArchConfig,
    dnns: &[Dnn],
    cost: &CostModel,
    batch: u32,
    opts: &MappingOptions,
    objective: Objective,
) -> (f64, f64, f64) {
    let mc = ctx.leaf("cost", || cost.evaluate(arch)).total();
    let ev = Evaluator::new(arch);
    let mut energies = Vec::with_capacity(dnns.len());
    let mut delays = Vec::with_capacity(dnns.len());
    for dnn in dnns {
        let partition = ctx.leaf("partition", || {
            partition_graph(dnn, arch, batch, &opts.partition)
        });
        ctx.c.groups += partition.groups.len() as u64;
        let lms: Vec<_> = ctx.leaf("stripe", || {
            partition
                .groups
                .iter()
                .map(|g| stripe_lms(dnn, arch, g))
                .collect()
        });
        let b = ctx.leaf("bound", || {
            let gms = parse_all(dnn, &partition, &lms);
            dnn_bound(&ev, dnn, &gms, batch)
        });
        ctx.c.bound_calls += 1;
        energies.push(b.energy_j);
        delays.push(b.delay_s);
    }
    ctx.c.intracore_entries += ev.profile().cache_len() as u64;
    let energy = geomean(energies.into_iter(), dnns.len());
    let delay = geomean(delays.into_iter(), dnns.len());
    (objective.score(mc, energy, delay), energy, delay)
}

/// Re-drives one `dse` request the way `dse::run_dse` sweeps it (the
/// rung-0 plan included) and returns the payload fields the daemon
/// reports, without the human-readable `report`.
fn trace_dse(ctx: &mut Ctx, p: &DseParams) -> Result<Value, String> {
    let (fidelity, bound) = parse_policy(&p.fidelity, p.rerank_k)
        .ok_or_else(|| format!("unknown fidelity policy '{}'", p.fidelity))?;
    if !matches!(fidelity, FidelityPolicy::Analytic) {
        return Err("the tracer re-drives the analytic fidelity policy only".into());
    }
    let objective = Objective::parse(&p.objective).map_err(|e| e.0)?;
    let spec = DseSpec::table1(p.tops);
    let candidates: Vec<ArchConfig> = spec
        .candidates()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % p.stride.max(1) == 0)
        .map(|(_, a)| a)
        .collect();
    if candidates.is_empty() {
        return Err("no DSE candidates".into());
    }
    let n = candidates.len();
    let opts = MappingOptions {
        sa: SaOptions {
            iters: p.iters,
            seed: p.seed,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let dnns = vec![gemini::model::zoo::transformer_base()];
    let cost = CostModel::default();

    let mut records: Vec<Option<Candidate>> = (0..n).map(|_| None).collect();
    let mut plan = None;
    if bound.active() {
        let bounds: Vec<(f64, f64, f64)> = candidates
            .iter()
            .map(|a| bound_candidate(ctx, a, &dnns, &cost, p.batch, &opts, objective))
            .collect();
        // The analytic policy re-ranks nothing: 8 seeds, and the best
        // achieved seed score is the prune threshold.
        let n_seeds = if objective.monotone() { 8.min(n) } else { n };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| bounds[a].0.total_cmp(&bounds[b].0).then(a.cmp(&b)));
        let mut seed = vec![false; n];
        for &i in order.iter().take(n_seeds) {
            seed[i] = true;
        }
        for i in (0..n).filter(|&i| seed[i]) {
            records[i] = Some(evaluate_candidate(
                ctx,
                &candidates[i],
                &dnns,
                &cost,
                p.batch,
                &opts,
                objective,
            ));
        }
        let threshold = records
            .iter()
            .flatten()
            .map(|r| r.score)
            .min_by(f64::total_cmp)
            .unwrap_or(f64::INFINITY);
        let pruned: Vec<bool> = (0..n)
            .map(|i| !seed[i] && bounds[i].0 > threshold)
            .collect();
        for i in 0..n {
            if !(seed[i] || bound.prunes() && pruned[i]) {
                records[i] = Some(evaluate_candidate(
                    ctx,
                    &candidates[i],
                    &dnns,
                    &cost,
                    p.batch,
                    &opts,
                    objective,
                ));
            }
        }
        for i in 0..n {
            if records[i].is_none() {
                let mc = ctx.leaf("cost", || cost.evaluate(&candidates[i])).total();
                records[i] = Some(Candidate {
                    mc,
                    energy: bounds[i].1,
                    delay: bounds[i].2,
                    score: bounds[i].0,
                    pruned: true,
                });
            }
        }
        plan = Some((bounds, seed, pruned, threshold));
    } else {
        for (i, a) in candidates.iter().enumerate() {
            records[i] = Some(evaluate_candidate(
                ctx, a, &dnns, &cost, p.batch, &opts, objective,
            ));
        }
    }
    let records: Vec<Candidate> = records.into_iter().map(|r| r.expect("filled")).collect();
    let best = records
        .iter()
        .map(|r| if r.pruned { f64::INFINITY } else { r.score })
        .enumerate()
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(i, _)| i)
        .expect("non-empty");
    let w = &records[best];

    let mut out = BTreeMap::new();
    out.insert("tops".to_string(), Value::Num(p.tops));
    out.insert("stride".to_string(), Value::from(p.stride));
    out.insert("batch".to_string(), Value::from(p.batch));
    out.insert("iters".to_string(), Value::from(p.iters));
    out.insert("objective".to_string(), Value::from(objective.canonical()));
    out.insert(
        "best_arch".to_string(),
        Value::from(candidates[best].paper_tuple()),
    );
    out.insert("mc".to_string(), Value::Num(w.mc));
    out.insert("energy_j".to_string(), Value::Num(w.energy));
    out.insert("delay_s".to_string(), Value::Num(w.delay));
    if let Some((bounds, seed, pruned, threshold)) = plan {
        let wb = bounds[best].0;
        let gap = if wb > 0.0 { w.score / wb } else { 1.0 };
        let n_pruned = pruned.iter().filter(|&&x| x).count();
        out.insert("bound_total".to_string(), Value::from(n));
        out.insert(
            "bound_seeds".to_string(),
            Value::from(seed.iter().filter(|&&x| x).count()),
        );
        out.insert("bound_pruned".to_string(), Value::from(n_pruned));
        out.insert("bound_threshold".to_string(), Value::Num(threshold));
        out.insert("bound_winner_gap".to_string(), Value::Num(gap));
        ctx.c.bound_total = n as u64;
        ctx.c.bound_pruned = n_pruned as u64;
        ctx.c.bound_winner_gap = gap;
    }
    let payload = Value::Table(out);
    let line = ctx.leaf("wire.encode", || payload.to_json());
    ctx.c.wire_bytes += line.len() as u64;
    Ok(payload)
}

/// One workload on one cell architecture, as the campaign driver's
/// `evaluate_dnn` scores it.
fn evaluate_dnn(
    ctx: &mut Ctx,
    arch: &ArchConfig,
    dnn: &Dnn,
    batch: u32,
    spec: &CampaignSpec,
) -> DnnCellMetrics {
    let ev = Evaluator::new(arch);
    let opts = MappingOptions {
        sa: SaOptions {
            iters: spec.sa_iters,
            seed: spec.seed,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mapped = map_dnn(ctx, &ev, dnn, batch, &opts);
    let bound = ctx.leaf("bound", || {
        let gms = mapped.group_mappings(dnn);
        dnn_bound(&ev, dnn, &gms, batch)
    });
    ctx.c.bound_calls += 1;
    let achieved_edp = mapped.report.energy.total() * mapped.report.delay_s;
    let bound_edp_gap = if bound.edp() > 0.0 {
        achieved_edp / bound.edp()
    } else {
        1.0
    };
    let (fluid_delay, worst_fluid) = match spec.fidelity {
        CellFidelity::Analytic => (None, None),
        CellFidelity::Fluid(cfg) => {
            let overhead = ev.options().stage_overhead_s;
            let mut ws = FlowSimWorkspace::new();
            let gms = ctx.leaf("fluid", || mapped.group_mappings(dnn));
            let mut extra = Vec::with_capacity(gms.len());
            let mut worst = 1.0_f64;
            for (gi, gm) in gms.iter().enumerate() {
                let c = ctx.leaf("fluid", || {
                    check_group_fluid(&ev, dnn, gm, cfg.cap_bytes, &mut ws)
                });
                ctx.c.fluid_flows += c.n_flows as u64;
                extra.push(c.fluid_s - (mapped.report.groups[gi].stage_time_s - overhead));
                worst = worst.max(c.fluid_vs_analytic());
            }
            (Some(mapped.congestion_corrected_delay(&extra)), Some(worst))
        }
    };
    ctx.c.intracore_entries += ev.profile().cache_len() as u64;
    DnnCellMetrics {
        name: dnn.name().to_string(),
        energy: mapped.report.energy.total(),
        delay: mapped.report.delay_s,
        fluid_delay,
        worst_fluid,
        bound_edp_gap,
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
}

/// Re-drives one cold, single-process `campaign` request: every cell
/// through the mapping layers, the journal through the public appender,
/// the Pareto archive and the per-objective winners. The artifacts come
/// from the program's own writer, by resuming the campaign over the
/// complete journal traced here (the writer is crate-private, so the
/// `artifacts` span also covers the journal reload and the archive the
/// finalizer rebuilds).
fn trace_campaign(ctx: &mut Ctx, p: &CampaignParams) -> Result<Value, String> {
    if p.resume || p.merge || p.shards.is_some() || p.shard_index.is_some() {
        return Err("the tracer re-drives cold single-process campaigns only".into());
    }
    let spec = CampaignSpec::load(Path::new(&p.manifest)).map_err(|e| e.to_string())?;
    let out_root = p
        .out
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(&spec.out_dir));
    let dir = out_root.join(&spec.name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let dnns: Vec<Dnn> = spec
        .workloads
        .iter()
        .map(|n| {
            gemini::model::zoo::by_name(n)
                .map(|w| w.graph)
                .ok_or_else(|| format!("unknown workload {n}"))
        })
        .collect::<Result<_, _>>()?;
    let sets = spec.workload_sets();
    let archs = spec.arch_candidates();
    let n_batches = spec.batches.len();
    let n_groups = sets.len() * n_batches;
    let n_cells = n_groups * archs.len();
    let journal_path = dir.join("journal.jsonl");
    let writer = ctx
        .leaf("journal", || {
            Appender::open(&journal_path, &spec, n_cells, false)
        })
        .map_err(|e| e.to_string())?;
    let cost = CostModel::default();
    let mut memo: BTreeMap<(usize, usize, u32), DnnCellMetrics> = BTreeMap::new();
    let mut cells: Vec<CellResult> = Vec::with_capacity(n_cells);
    for (wset, (_, members)) in sets.iter().enumerate() {
        for (batch_idx, &batch) in spec.batches.iter().enumerate() {
            for (arch_idx, arch) in archs.iter().enumerate() {
                let mut per_dnn = Vec::with_capacity(members.len());
                for &di in members {
                    let m = match memo.get(&(arch_idx, di, batch)) {
                        Some(m) => m.clone(),
                        None => {
                            let m = evaluate_dnn(ctx, arch, &dnns[di], batch, &spec);
                            memo.insert((arch_idx, di, batch), m.clone());
                            m
                        }
                    };
                    per_dnn.push(m);
                }
                let n = per_dnn.len();
                let geo = |f: &dyn Fn(&DnnCellMetrics) -> f64| geomean(per_dnn.iter().map(f), n);
                let has_fluid = per_dnn.iter().all(|m| m.fluid_delay.is_some());
                let mc = ctx.leaf("cost", || cost.evaluate(arch));
                let cell = CellResult {
                    cell: cells.len(),
                    wset,
                    batch_idx,
                    arch_idx,
                    mc: mc.total(),
                    mc_silicon: mc.silicon,
                    mc_dram: mc.dram,
                    mc_package: mc.package,
                    area_mm2: mc.silicon_mm2,
                    energy: geo(&|m| m.energy),
                    delay: geo(&|m| m.delay),
                    fluid_delay: has_fluid.then(|| geo(&|m| m.fluid_delay.unwrap_or(f64::NAN))),
                    worst_fluid: has_fluid.then(|| {
                        per_dnn
                            .iter()
                            .map(|m| m.worst_fluid.unwrap_or(f64::NAN))
                            .fold(1.0, f64::max)
                    }),
                    bound_edp_gap: geo(&|m| m.bound_edp_gap),
                    per_dnn,
                };
                ctx.leaf("journal", || writer.append(&cell));
                cells.push(cell);
            }
        }
    }
    drop(writer);
    ctx.c.journal_bytes = file_len(&journal_path);

    ctx.leaf("pareto", || {
        ParetoArchive::from_cell_results(spec.pareto_axes.clone(), n_groups, n_batches, &cells)
    });
    // Per-group winners under each objective, as the campaign finalizer
    // selects them; traffic objectives replay the serving scenario.
    for g in 0..n_groups {
        for o in &spec.objectives {
            let traffic = !matches!(o.objective, Objective::Edp { .. });
            for c in cells.iter().filter(|c| c.group(n_batches) == g) {
                if traffic {
                    ctx.c.traffic_calls += 1;
                    ctx.leaf("traffic", || c.score(&o.objective));
                } else {
                    c.score(&o.objective);
                }
            }
        }
    }
    let res = ctx
        .leaf("artifacts", || {
            run_campaign(
                &spec,
                &CampaignOptions {
                    threads: 1,
                    resume: true,
                    out_root: Some(out_root.clone()),
                },
            )
        })
        .map_err(|e| e.to_string())?;
    if res.evaluated != 0 || res.cells.len() != n_cells {
        return Err(format!(
            "resuming the traced journal evaluated {} cell(s) of {}",
            res.evaluated, n_cells
        ));
    }
    ctx.c.artifacts_bytes = res.artifacts.iter().map(|p| file_len(p)).sum();
    let mut out = BTreeMap::new();
    out.insert(
        "fingerprint".to_string(),
        Value::from(res.fingerprint.as_str()),
    );
    out.insert("cells".to_string(), Value::from(res.cells.len()));
    out.insert("dir".to_string(), Value::from(dir.display().to_string()));
    Ok(Value::Table(out))
}

/// Replays a stream of `map` requests through one serving-state
/// `ServiceState` (memo and eval cache included), timing the wire
/// decode, the handler and the response encode per request. Then
/// re-drives every distinct request's T-Map and G-Map through the
/// mapping layers, so the layer self times of the map path show.
fn trace_map_stream(ctx: &mut Ctx, lines: &[&str]) -> Result<Value, String> {
    let state = ServiceState::serving(SERVE_EVAL_CACHE_CAP);
    let mut payloads = BTreeMap::new();
    let mut handle_ms = BTreeMap::new();
    let mut seen = BTreeSet::new();
    let mut distinct: Vec<MapParams> = Vec::new();
    for line in lines {
        let req = ctx
            .leaf("wire.decode", || Request::from_json(line))
            .map_err(|e| format!("bad request line: {}", e.detail))?;
        let ((res, svc), dt) = ctx.t.timed("service", |_| {
            let r = state.handle(&req.body);
            (r, state.counters())
        });
        handle_ms.insert(req.id.clone(), Value::Num(dt * 1e3));
        let payload = res.map_err(|e| format!("request {} failed: {}", req.id, e.detail))?;
        let resp = Response::ok(req.id.clone(), req.body.verb(), payload.clone());
        let out = ctx.leaf("wire.encode", || resp.to_json_line(Some(svc)));
        ctx.c.wire_bytes += (line.len() + out.len() + 2) as u64;
        payloads.insert(req.id.clone(), payload);
        if let RequestBody::Map(p) = &req.body {
            let key = (
                p.model.clone(),
                p.arch.clone(),
                p.batch,
                p.iters,
                p.seed,
                p.stats,
            );
            if seen.insert(key) {
                distinct.push(p.clone());
            }
        }
    }
    for p in &distinct {
        let dnn = gemini::model::zoo::by_name(&p.model)
            .map(|w| w.graph)
            .ok_or_else(|| format!("unknown model {}", p.model))?;
        let arch = preset(&p.arch).ok_or_else(|| format!("unknown preset {}", p.arch))?;
        let ev = Evaluator::new(&arch);
        map_stripe(ctx, &ev, &dnn, p.batch, &MappingOptions::default());
        let opts = MappingOptions {
            sa: SaOptions {
                iters: p.iters,
                seed: p.seed,
                threads: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        map_dnn(ctx, &ev, &dnn, p.batch, &opts);
        ctx.c.intracore_entries += ev.profile().cache_len() as u64;
    }
    let mut out = BTreeMap::new();
    out.insert("payloads".to_string(), Value::Table(payloads));
    out.insert("handle_ms".to_string(), Value::Table(handle_ms));
    out.insert("distinct".to_string(), Value::from(distinct.len()));
    out.insert("service".to_string(), state.counters());
    Ok(Value::Table(out))
}

fn counters_value(c: &Counters) -> Value {
    let n = |x: u64| Value::Num(x as f64);
    let mut t = BTreeMap::new();
    t.insert("partition.groups".to_string(), n(c.groups));
    t.insert("sa.chains".to_string(), n(c.sa.chains as u64));
    t.insert("sa.cache_hits".to_string(), n(c.sa.cache_hits));
    t.insert("sa.cache_misses".to_string(), n(c.sa.cache_misses));
    t.insert("sa.delta_hits".to_string(), n(c.sa.delta_hits));
    t.insert("sa.full_evals".to_string(), n(c.sa.full_evals));
    t.insert("sa.member_sims".to_string(), n(c.sa.member_sims));
    t.insert("sa.member_reuses".to_string(), n(c.sa.member_reuses));
    t.insert("intracore.entries".to_string(), n(c.intracore_entries));
    t.insert("bound.calls".to_string(), n(c.bound_calls));
    t.insert("bound.total".to_string(), n(c.bound_total));
    t.insert("bound.pruned".to_string(), n(c.bound_pruned));
    t.insert(
        "bound.winner_gap".to_string(),
        Value::Num(c.bound_winner_gap),
    );
    t.insert("fluid.flows".to_string(), n(c.fluid_flows));
    t.insert("traffic.calls".to_string(), n(c.traffic_calls));
    t.insert("journal.bytes".to_string(), n(c.journal_bytes));
    t.insert("artifacts.bytes".to_string(), n(c.artifacts_bytes));
    t.insert("wire.bytes".to_string(), n(c.wire_bytes));
    Value::Table(t)
}

fn run(mode: &str, text: &str, ctx: &mut Ctx) -> Result<Value, String> {
    if mode == "map" {
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        return trace_map_stream(ctx, &lines);
    }
    let line = text.trim();
    ctx.c.wire_bytes += line.len() as u64;
    let req = ctx
        .leaf("wire.decode", || Request::from_json(line))
        .map_err(|e| format!("bad request line: {}", e.detail))?;
    match (mode, &req.body) {
        ("dse", RequestBody::Dse(p)) => trace_dse(ctx, p),
        ("campaign", RequestBody::Campaign(p)) => trace_campaign(ctx, p),
        _ => Err(format!(
            "mode '{mode}' does not match a '{}' request",
            req.body.verb()
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 || !matches!(args[1].as_str(), "dse" | "campaign" | "map") {
        eprintln!("usage: perfbench-tracer dse|campaign|map <request file>");
        std::process::exit(2);
    }
    let text = match std::fs::read_to_string(&args[2]) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench-tracer: cannot read {}: {e}", args[2]);
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx::default();
    let t0 = ctx.t.now();
    let result = run(&args[1], &text, &mut ctx);
    let wall_s = ctx.t.now() - t0;
    match result {
        Ok(v) => {
            let mut spans = BTreeMap::new();
            for (name, tot) in ctx.t.totals() {
                let mut s = BTreeMap::new();
                s.insert("self_s".to_string(), Value::Num(tot.self_s));
                s.insert("calls".to_string(), Value::Num(tot.calls as f64));
                spans.insert(name.to_string(), Value::Table(s));
            }
            let mut out = BTreeMap::new();
            out.insert("result".to_string(), v);
            out.insert("wall_s".to_string(), Value::Num(wall_s));
            out.insert("covered_s".to_string(), Value::Num(ctx.t.covered_s()));
            out.insert("spans".to_string(), Value::Table(spans));
            out.insert("counters".to_string(), counters_value(&ctx.c));
            println!("{}", Value::Table(out).to_json());
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(1);
        }
    }
}
