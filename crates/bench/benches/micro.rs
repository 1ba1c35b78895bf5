//! Criterion micro-benchmarks of the framework's hot components:
//! routing, traffic accumulation, intra-core search, group evaluation
//! (cold vs. warm memo cache), SA iteration throughput (sequential vs.
//! parallel chains) and monetary-cost evaluation.
//!
//! The SA comparison additionally writes a wall-clock summary to
//! `bench_results/sa_parallel.csv`: the engine at 1 and 4 chain
//! threads, with delta-hit counts and the verified bit-identical cost.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use gemini_arch::presets;
use gemini_bench::{results_dir, sa_iters, section_enabled, sig6, workspace_root, write_csv};
use gemini_core::encoding::GroupSpec;
use gemini_core::engine::{MappingEngine, MappingOptions};
use gemini_core::partition::{partition_graph, PartitionOptions};
use gemini_core::sa::SaOptions;
use gemini_core::stripe::stripe_lms;
use gemini_cost::CostModel;
use gemini_intracore::{CoreParams, IntraCoreExplorer, PartWorkload};
use gemini_model::{zoo, LayerId};
use gemini_noc::{Network, TrafficMap, TreeScratch};
use gemini_sim::{DramSel, EvalCache, Evaluator};

fn bench_routing(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let net = Network::new(&arch);
    let mut path = Vec::with_capacity(16);
    c.bench_function("noc/xy_route_corner_to_corner", |b| {
        b.iter(|| {
            path.clear();
            net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut path);
            std::hint::black_box(path.len())
        })
    });
    let dests: Vec<_> = (0..6).map(|x| arch.core_at(x, 5)).collect();
    let mut tree = TreeScratch::default();
    c.bench_function("noc/multicast_row", |b| {
        b.iter(|| {
            let links = net.multicast_cores(arch.core_at(0, 0), &dests, &mut tree);
            std::hint::black_box(links.len())
        })
    });
}

fn bench_traffic(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let net = Network::new(&arch);
    let mut t = TrafficMap::new(&net);
    let mut path = Vec::new();
    net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut path);
    c.bench_function("noc/traffic_bottleneck", |b| {
        t.add_path(&path, 1024.0);
        b.iter(|| std::hint::black_box(t.bottleneck_time(&net)))
    });
}

fn bench_intracore(c: &mut Criterion) {
    let wl = PartWorkload {
        h: 28,
        w: 28,
        k: 64,
        b: 1,
        red_c: 128,
        kernel_elems: 9,
        weight_bytes: 9 * 128 * 64,
        in_bytes: 30 * 30 * 128,
        vector_ops: 28 * 28 * 64,
    };
    c.bench_function("intracore/search_uncached", |b| {
        b.iter_batched(
            || IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20)),
            |e| std::hint::black_box(e.explore(&wl)),
            BatchSize::SmallInput,
        )
    });
    let e = IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20));
    e.explore(&wl);
    c.bench_function("intracore/search_cached", |b| {
        b.iter(|| std::hint::black_box(e.explore(&wl)))
    });
}

fn bench_group_eval(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let dnn = zoo::tiny_resnet();
    let ev = Evaluator::new(&arch);
    let members: Vec<LayerId> = dnn.compute_ids().collect();
    let spec = GroupSpec {
        members,
        batch_unit: 2,
    };
    let lms = stripe_lms(&dnn, &arch, &spec);
    let gm = lms.parse(&dnn, &spec, &|_| DramSel::Interleaved);
    c.bench_function("sim/evaluate_group_tiny_resnet", |b| {
        b.iter(|| std::hint::black_box(ev.evaluate_group(&dnn, &gm, 8).delay_s))
    });
}

fn bench_sa(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let dnn = zoo::two_conv_example();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    c.bench_function("sa/100_iterations_two_conv", |b| {
        b.iter(|| {
            let opts = MappingOptions {
                sa: SaOptions {
                    iters: 100,
                    seed: 1,
                    ..Default::default()
                },
                ..Default::default()
            };
            std::hint::black_box(engine.map(&dnn, 2, &opts).report.delay_s)
        })
    });
}

/// Mapping options for the parallel-SA comparison.
fn sa_cmp_opts(iters: u32, threads: usize) -> MappingOptions {
    MappingOptions {
        sa: SaOptions {
            iters,
            seed: 42,
            threads,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Sequential-vs-parallel comparison on a multi-group workload
/// (ResNet-50 at batch 16 partitions into ~15 groups on G-Arch, so 4
/// chain workers have real fan-out). Wall-clock numbers land in
/// `bench_results/sa_parallel.csv`; the final costs of both
/// configurations are asserted bit-identical before writing.
fn bench_sa_parallel(c: &mut Criterion) {
    if !section_enabled("sa_parallel") {
        return;
    }
    let arch = presets::g_arch_72();
    let dnn = zoo::resnet50();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let batch = 16;
    let iters = sa_iters(2_000, 20_000);

    let run = |threads: usize| {
        let t = std::time::Instant::now();
        let m = engine.map(&dnn, batch, &sa_cmp_opts(iters, threads));
        (t.elapsed().as_secs_f64(), m)
    };
    // Warm the intra-core memo caches once so the comparison measures
    // the SA engine, not first-touch tile-search costs.
    let _ = run(1);

    let (t_seq, m_seq) = run(1); // sequential chains
    let (t_par, m_par) = run(4); // 4 chain workers
    assert_eq!(
        m_seq.report.delay_s.to_bits(),
        m_par.report.delay_s.to_bits(),
        "parallel SA must be bit-identical to sequential"
    );

    let groups = m_seq.partition.groups.len();
    let cost = m_seq.sa_stats.expect("stats").final_cost;
    // The chain fan-out only buys wall-clock time when the host has
    // cores to run it; record the host's parallelism so single-core
    // numbers are not misread as a parallelism defect.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let delta_hits =
        |m: &gemini_core::engine::MappedDnn| m.sa_stats.expect("G-Map has SA stats").delta_hits;
    let rows = [
        ("seq", 1usize, t_seq, delta_hits(&m_seq)),
        ("par4", 4, t_par, delta_hits(&m_par)),
    ];
    let csv: Vec<String> = rows
        .iter()
        .map(|(name, threads, wall, dhits)| {
            format!(
                "{name},{threads},{host},{groups},{iters},{wall:.4},{},{dhits}",
                sig6(cost)
            )
        })
        .collect();
    write_csv(
        results_dir().join("sa_parallel.csv"),
        "config,sa_threads,host_threads,groups,iters,wall_s,final_cost,delta_hits",
        csv,
    )
    .expect("write sa_parallel.csv");
    println!(
        "sa_parallel: {groups} groups on a {host}-thread host — seq {t_seq:.3}s  \
         par4 {t_par:.3}s  (speedup {:.2}x)",
        t_seq / t_par
    );

    // Criterion sample on a smaller budget for a statistically-sampled
    // number.
    let small = sa_iters(150, 1_000);
    c.bench_function("sa/resnet50_par4", |b| {
        b.iter(|| {
            std::hint::black_box(
                engine
                    .map(&dnn, batch, &sa_cmp_opts(small, 4))
                    .report
                    .delay_s,
            )
        })
    });
}

/// The SA hot loop on GoogLeNet — the perf-trajectory benchmark behind
/// `BENCH_sa.json`.
///
/// Maps the workload with one SA chain worker, twice, and reports the
/// minimum wall clock; the two repetitions are asserted bit-identical
/// (the CI perf-smoke job rides on that assertion). The wall clock and
/// the delta-evaluation counters land in `BENCH_sa.json` at the
/// workspace root plus `bench_results/sa_delta.csv`, together with the
/// rung-0 bound prune rate on the strided 72-TOPs sweep.
fn bench_sa_delta(c: &mut Criterion) {
    if !section_enabled("sa_delta") {
        return;
    }
    let arch = presets::g_arch_72();
    let dnn = zoo::by_name("gn").expect("googlenet in the zoo").graph;
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let batch = 8;
    let iters = sa_iters(4_000, 20_000);

    let cfg = |iters: u32| MappingOptions {
        sa: SaOptions {
            iters,
            seed: 42,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let run = || {
        let t = std::time::Instant::now();
        let m = engine.map(&dnn, batch, &cfg(iters));
        (t.elapsed().as_secs_f64(), m)
    };
    // Warm the intra-core memo caches once so the measurement covers
    // the annealer, not first-touch tile-search costs.
    let _ = run();

    // Two repetitions, reporting the minimum wall clock — steadier
    // against scheduler noise than a single shot. The engine is
    // deterministic, so the repetitions must agree exactly.
    let (t1, m) = run();
    let (t2, m2) = run();
    let cost = |m: &gemini_core::engine::MappedDnn| m.sa_stats.expect("SA stats").final_cost;
    assert_eq!(
        m.report.delay_s.to_bits(),
        m2.report.delay_s.to_bits(),
        "repetitions diverged"
    );
    assert_eq!(
        cost(&m).to_bits(),
        cost(&m2).to_bits(),
        "repetition SA costs diverged"
    );
    let wall = t1.min(t2);

    let s = m.sa_stats.expect("SA stats");
    let members = s.member_sims + s.member_reuses;
    let member_reuse_pct = if members == 0 {
        0.0
    } else {
        s.member_reuses as f64 / members as f64 * 100.0
    };
    let groups = m.partition.groups.len();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Rung-0 prune rate on the strided Table-I 72-TOPs sweep, tracked
    // alongside the SA numbers so a bound-tightness regression shows up
    // in the perf artifact (the differential test gates it at >= 30%).
    let dse = gemini_core::dse::run_dse(
        &[zoo::two_conv_example()],
        &gemini_core::dse::DseSpec::table1(72.0),
        &gemini_core::dse::DseOptions {
            batch: 2,
            stride: 29,
            mapping: MappingOptions {
                sa: SaOptions {
                    iters: 16,
                    seed: 7,
                    threads: 1,
                    ..Default::default()
                },
                ..Default::default()
            },
            threads: 1,
            bound: gemini_core::fidelity::BoundMode::Prune,
            ..Default::default()
        },
    );
    let bound_prune_pct = dse
        .report
        .bound
        .as_ref()
        .map(|b| b.prune_pct())
        .unwrap_or(0.0);

    let json = format!(
        "{{\n  \"schema\": 2,\n  \"bench\": \"sa_delta\",\n  \"workload\": \"googlenet\",\n  \
         \"batch\": {batch},\n  \"iters\": {iters},\n  \"groups\": {groups},\n  \
         \"host_threads\": {host},\n  \"sa_threads\": 1,\n  \
         \"wall_s\": {wall:.4},\n  \"delta_hits\": {},\n  \
         \"full_evals\": {},\n  \"member_sims\": {},\n  \"member_reuses\": {},\n  \
         \"member_reuse_pct\": {member_reuse_pct:.1},\n  \
         \"bound_prune_pct\": {bound_prune_pct:.1},\n  \"final_cost\": \"{}\",\n  \
         \"bit_identical\": true\n}}\n",
        s.delta_hits,
        s.full_evals,
        s.member_sims,
        s.member_reuses,
        sig6(cost(&m)),
    );
    std::fs::write(workspace_root().join("BENCH_sa.json"), &json).expect("write BENCH_sa.json");

    write_csv(
        results_dir().join("sa_delta.csv"),
        "host_threads,groups,iters,wall_s,delta_hits,full_evals,member_sims,member_reuses",
        vec![format!(
            "{host},{groups},{iters},{wall:.4},{},{},{},{}",
            s.delta_hits, s.full_evals, s.member_sims, s.member_reuses,
        )],
    )
    .expect("write sa_delta.csv");
    println!(
        "sa_delta: {groups} groups, {iters} iters — {wall:.3}s \
         (layer records reused {member_reuse_pct:.1}%)"
    );

    // Criterion sample on a smaller budget for a statistically-sampled
    // number.
    let small = sa_iters(150, 800);
    c.bench_function("sa/googlenet_delta", |b| {
        b.iter(|| std::hint::black_box(engine.map(&dnn, batch, &cfg(small)).report.delay_s))
    });
}

/// Cold vs. warm memoized group evaluation: the same mapping through
/// the full simulator and through an [`EvalCache`] hit.
fn bench_eval_cache(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let dnn = zoo::tiny_resnet();
    let ev = Evaluator::new(&arch);
    let members: Vec<LayerId> = dnn.compute_ids().collect();
    let spec = GroupSpec {
        members,
        batch_unit: 2,
    };
    let lms = stripe_lms(&dnn, &arch, &spec);
    let gm = lms.parse(&dnn, &spec, &|_| DramSel::Interleaved);
    c.bench_function("sim/evaluate_group_cache_cold", |b| {
        b.iter_batched(
            EvalCache::new,
            |mut cache| std::hint::black_box(cache.evaluate(&ev, &dnn, &gm, 8).delay_s),
            BatchSize::SmallInput,
        )
    });
    let mut warm = EvalCache::new();
    warm.evaluate(&ev, &dnn, &gm, 8);
    c.bench_function("sim/evaluate_group_cache_warm", |b| {
        b.iter(|| std::hint::black_box(warm.evaluate(&ev, &dnn, &gm, 8).delay_s))
    });
}

fn bench_partition(c: &mut Criterion) {
    let arch = presets::g_arch_72();
    let dnn = zoo::resnet50();
    c.bench_function("partition/resnet50_dp", |b| {
        b.iter(|| {
            std::hint::black_box(
                partition_graph(&dnn, &arch, 64, &PartitionOptions::default()).len(),
            )
        })
    });
}

fn bench_cost(c: &mut Criterion) {
    let cost = CostModel::default();
    let arch = presets::g_arch_72();
    c.bench_function("cost/evaluate_arch", |b| {
        b.iter(|| std::hint::black_box(cost.evaluate(&arch).total()))
    });
}

fn bench_packetsim(c: &mut Criterion) {
    use gemini_noc::flowsim::Flow;
    use gemini_noc::packetsim::{simulate_packets, PacketSimConfig};
    let arch = presets::g_arch_72();
    let net = Network::new(&arch);
    let mut flows = Vec::new();
    for y in 0..6u32 {
        let mut path = Vec::new();
        net.route_cores(arch.core_at(0, y), arch.core_at(5, 5 - y), &mut path);
        flows.push(Flow {
            path,
            bytes: 8_192.0,
        });
    }
    let cfg = PacketSimConfig::default();
    c.bench_function("noc/packetsim_6_flows_8kB", |b| {
        b.iter(|| std::hint::black_box(simulate_packets(&net, &flows, &cfg).cycles))
    });
}

fn bench_hetero_eval(c: &mut Criterion) {
    // Heterogeneous evaluation must cost about the same as homogeneous
    // (the per-core profile is an O(1) lookup).
    let arch = gemini_arch::ArchConfig::builder()
        .cores(6, 6)
        .cuts(1, 2)
        .build()
        .unwrap();
    let spec = gemini_arch::HeteroSpec::new(
        vec![
            gemini_arch::CoreClass {
                macs: 1536,
                glb_bytes: 3 << 20,
            },
            gemini_arch::CoreClass {
                macs: 512,
                glb_bytes: 1 << 20,
            },
        ],
        vec![0, 1],
        &arch,
    )
    .unwrap();
    let dnn = zoo::tiny_resnet();
    let ev = Evaluator::hetero(&arch, &spec);
    let members: Vec<LayerId> = dnn.compute_ids().collect();
    let gspec = GroupSpec {
        members,
        batch_unit: 2,
    };
    let lms = stripe_lms(&dnn, &arch, &gspec);
    let gm = lms.parse(&dnn, &gspec, &|_| DramSel::Interleaved);
    ev.evaluate_group(&dnn, &gm, 8); // warm the per-class memo caches
    c.bench_function("sim/evaluate_group_hetero", |b| {
        b.iter(|| std::hint::black_box(ev.evaluate_group(&dnn, &gm, 8).delay_s))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_routing, bench_traffic, bench_intracore, bench_group_eval, bench_eval_cache, bench_sa, bench_sa_parallel, bench_sa_delta, bench_partition, bench_cost, bench_packetsim, bench_hetero_eval
}
criterion_main!(benches);
