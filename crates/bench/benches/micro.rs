//! Micro-benchmarks of the framework's hot components: routing,
//! traffic accumulation, intra-core search, group evaluation, SA
//! iteration throughput (sequential vs. parallel chains), graph
//! partitioning, monetary-cost evaluation, and fluid and packet
//! simulation.
//!
//! Each timing prints the minimum mean per-call wall clock over
//! [`SAMPLES`] samples ([`time_min`]). `GEMINI_MICRO_SECTIONS` selects
//! sections by name ([`section_enabled`]); unset, every section runs.
//!
//! The SA comparison additionally writes a wall-clock summary to
//! `bench_results/sa_parallel.csv`: the engine at 1 and 4 chain
//! threads, with delta-hit counts and the verified bit-identical cost.

use std::hint::black_box;
use std::time::Instant;

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
use gemini_sim::{stage_flows, DramSel, Evaluator};

/// Samples per timing; [`time_min`] reports the fastest.
const SAMPLES: usize = 20;
/// Target wall clock of one sample, in seconds.
const SAMPLE_S: f64 = 0.15;

/// Times `routine` on fresh inputs from `setup` and prints the minimum,
/// over [`SAMPLES`] samples, of the mean wall clock per call. Setup is
/// excluded from the samples. A warm-up of about one sample's length
/// sets how many calls each sample makes (at least one).
fn time_min<I, O>(name: &str, mut setup: impl FnMut() -> I, mut routine: impl FnMut(I) -> O) {
    let warm = Instant::now();
    let mut warm_calls = 0usize;
    while warm_calls == 0 || warm.elapsed().as_secs_f64() < SAMPLE_S {
        black_box(routine(setup()));
        warm_calls += 1;
    }
    let calls = warm_calls.min(1_000_000);
    let best = (0..SAMPLES)
        .map(|_| {
            let inputs: Vec<I> = (0..calls).map(|_| setup()).collect();
            let t = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "{name:<40} min {:>12}  ({SAMPLES} samples x {calls} calls)",
        fmt_time(best)
    );
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn bench_routing() {
    let arch = presets::g_arch_72();
    let net = Network::new(&arch);
    let mut path = Vec::with_capacity(16);
    time_min(
        "noc/xy_route_corner_to_corner",
        || (),
        |()| {
            path.clear();
            net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut path);
            path.len()
        },
    );
    let dests: Vec<_> = (0..6).map(|x| arch.core_at(x, 5)).collect();
    let mut tree = TreeScratch::default();
    time_min(
        "noc/multicast_row",
        || (),
        |()| {
            net.multicast_cores(arch.core_at(0, 0), &dests, &mut tree)
                .len()
        },
    );
}

fn bench_traffic() {
    let arch = presets::g_arch_72();
    let net = Network::new(&arch);
    let mut t = TrafficMap::new(&net);
    let mut path = Vec::new();
    net.route_cores(arch.core_at(0, 0), arch.core_at(5, 5), &mut path);
    t.add_path(&path, 1024.0);
    time_min(
        "noc/traffic_bottleneck",
        || (),
        |()| t.bottleneck_time(&net),
    );
}

fn bench_intracore() {
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
    time_min(
        "intracore/search_uncached",
        || IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20)),
        |e| e.explore(&wl),
    );
    let e = IntraCoreExplorer::new(CoreParams::from_arch(1024, 2 << 20));
    e.explore(&wl);
    time_min("intracore/search_cached", || (), |()| e.explore(&wl));
}

fn bench_group_eval() {
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
    time_min(
        "sim/evaluate_group_tiny_resnet",
        || (),
        |()| ev.evaluate_group(&dnn, &gm, 8).delay_s,
    );
}

fn bench_sa() {
    let arch = presets::g_arch_72();
    let dnn = zoo::two_conv_example();
    let ev = Evaluator::new(&arch);
    let engine = MappingEngine::new(&ev);
    let opts = MappingOptions {
        sa: SaOptions {
            iters: 100,
            seed: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    time_min(
        "sa/100_iterations_two_conv",
        || (),
        |()| engine.map(&dnn, 2, &opts).report.delay_s,
    );
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
fn bench_sa_parallel() {
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

    // A sampled timing on a smaller budget.
    let small = sa_cmp_opts(sa_iters(150, 1_000), 4);
    time_min(
        "sa/resnet50_par4",
        || (),
        |()| engine.map(&dnn, batch, &small).report.delay_s,
    );
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
fn bench_sa_delta() {
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

    // A sampled timing on a smaller budget.
    let small = cfg(sa_iters(150, 800));
    time_min(
        "sa/googlenet_delta",
        || (),
        |()| engine.map(&dnn, batch, &small).report.delay_s,
    );
}

fn bench_partition() {
    let arch = presets::g_arch_72();
    let dnn = zoo::resnet50();
    let opts = PartitionOptions::default();
    time_min(
        "partition/resnet50_dp",
        || (),
        |()| partition_graph(&dnn, &arch, 64, &opts).len(),
    );
}

fn bench_cost() {
    let cost = CostModel::default();
    let arch = presets::g_arch_72();
    time_min(
        "cost/evaluate_arch",
        || (),
        |()| cost.evaluate(&arch).total(),
    );
}

fn bench_packetsim() {
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
    time_min(
        "noc/packetsim_6_flows_8kB",
        || (),
        |()| simulate_packets(&net, &flows, &cfg).cycles,
    );
}

/// The fluid rung on real stage flows: every group of the stripe
/// mapping of ResNet-50 at batch 64 on G-Arch 72 (9 groups, 2,905
/// flows), replayed back to back through one reused workspace. Asserts
/// once that the reused workspace equals the one-shot wrapper.
fn bench_flowsim() {
    use gemini_noc::flowsim::{simulate_flows, FlowSimWorkspace};
    let arch = presets::g_arch_72();
    let ev = Evaluator::new(&arch);
    let dnn = zoo::resnet50();
    let mapped = MappingEngine::new(&ev).map_stripe(&dnn, 64, &MappingOptions::default());
    let sets: Vec<_> = mapped
        .group_mappings(&dnn)
        .iter()
        .map(|gm| stage_flows(&ev, &dnn, gm))
        .collect();
    let net = ev.network();
    let mut ws = FlowSimWorkspace::new();
    for flows in &sets {
        assert_eq!(
            ws.simulate(net, flows),
            simulate_flows(net, flows),
            "a reused workspace must equal the one-shot wrapper"
        );
    }
    time_min(
        "noc/flowsim_rn50_b64_stripe_groups",
        || (),
        |()| {
            sets.iter()
                .map(|flows| ws.simulate(net, flows).events)
                .sum::<usize>()
        },
    );
}

fn bench_hetero_eval() {
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
    time_min(
        "sim/evaluate_group_hetero",
        || (),
        |()| ev.evaluate_group(&dnn, &gm, 8).delay_s,
    );
}

fn main() {
    let sections: [(&str, fn()); 12] = [
        ("routing", bench_routing),
        ("traffic", bench_traffic),
        ("intracore", bench_intracore),
        ("group_eval", bench_group_eval),
        ("sa", bench_sa),
        ("sa_parallel", bench_sa_parallel),
        ("sa_delta", bench_sa_delta),
        ("partition", bench_partition),
        ("cost", bench_cost),
        ("packetsim", bench_packetsim),
        ("flowsim", bench_flowsim),
        ("hetero_eval", bench_hetero_eval),
    ];
    for (name, run) in sections {
        if section_enabled(name) {
            run();
        }
    }
}
