//! `gemini` — command-line front end for the co-exploration framework.
//!
//! Subcommands:
//!
//! * `gemini cost <preset>` — monetary-cost report of an architecture;
//! * `gemini map <model> [--arch <preset>] [--batch N] [--iters N]
//!   [--threads N] [--stats]` — map a workload with T-Map and G-Map and
//!   print the comparison (`--stats` adds per-group utilization and the
//!   packet-level fidelity ladder);
//! * `gemini dse [--tops T] [--stride N] [--batch N] [--iters N]
//!   [--fidelity analytic|rerank|validate[+bounds|+prune]] [--rerank-k K]
//!   [--objective SPEC]` — run the Table-I DSE and print the best
//!   architecture under `SPEC` (`mc-e-d` default, `e-d`, `d`, `e`, or
//!   the serving objectives `p99@<rate>` / `goodput@<rate>:<budget>ms`,
//!   which replay the canonical traffic scenario against each
//!   candidate's mapped step latency); `--fidelity
//!   rerank` re-scores the top-K analytic survivors with the max-min
//!   fluid NoC simulator (congestion-aware re-rank), `--fidelity
//!   validate` additionally replays the winner through the flit-granular
//!   packet simulator and prints the calibrated congestion-surcharge
//!   weight; a `+bounds` suffix reports rung-0 analytic lower-bound
//!   counters, `+prune` additionally skips SA for candidates whose
//!   bound already loses to an evaluated seed (never changes the
//!   winner);
//! * `gemini hetero <model> [--batch N] [--iters N]` — exhaustive
//!   per-chiplet class-assignment DSE on a 4-chiplet fabric (Sec. V-D);
//! * `gemini campaign <manifest> [--resume] [--threads N]` — run a
//!   manifest-driven experiment campaign (TOML/JSON, see
//!   docs/CAMPAIGNS.md): the cell cross-product fans out over the
//!   worker pool, completed cells land in a resumable journal, and the
//!   multi-objective Pareto archive is written as CSV + JSON artifacts.
//!   `--resume` skips journaled cells bit-identically; artifacts are
//!   byte-identical at any `--threads` count. With
//!   `--shards N --shard-index K` the process evaluates only shard
//!   `K`'s cells into `journal-shard-K.jsonl` (no artifacts; add
//!   `--steal` to also claim cells no sibling journal has recorded);
//!   `gemini campaign merge <manifest>` then validates the shard
//!   journals and writes artifacts byte-identical to an unsharded run;
//! * `gemini serve --addr HOST:PORT [--workers N] [--queue N]` — run
//!   the same engine as a persistent daemon: line-delimited JSON
//!   requests over TCP, a request memo that answers repeats across
//!   requests, a bounded priority queue with explicit `busy`
//!   backpressure, and graceful drain on a `shutdown` request or
//!   SIGTERM (protocol reference: docs/SERVE.md);
//! * `gemini request --addr HOST:PORT` — pipe request lines from stdin
//!   to a running daemon and print the response lines;
//! * `gemini models` / `gemini archs` — list available workloads and
//!   architecture presets.
//!
//! The `map`, `dse` and `campaign` verbs are thin clients of the same
//! service layer the daemon runs ([`gemini::core::service`]): they
//! build the typed request, call the handler in-process and print its
//! rendered report, so a CLI run and the equivalent socket request are
//! byte-identical.
//!
//! SA knobs default from the environment (`GEMINI_SA_ITERS`,
//! `GEMINI_SA_SEED`, `GEMINI_SA_THREADS`); `--iters`/`--threads` win
//! over the environment. A numeric flag whose value does not parse is
//! refused (`invalid --batch 'two'`, exit 1), never replaced by its
//! default. `--threads 0` (the default) uses every core —
//! mapping results are bit-identical at any thread count. For `dse`,
//! `--threads` sets the candidate-sweep worker count instead (SA
//! chains revert to auto and are pinned to one while the sweep is
//! parallel, so the machine is never oversubscribed).
//!
//! Models are the paper's abbreviations (`rn-50`, `rnx`, `ires`, `pnas`,
//! `tf`, `tf-large`, `gn`); presets are `s-arch`, `g-arch`, `t-arch`,
//! `g-arch-torus`.

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

use gemini::core::service::{check_batch, preset, SERVE_MEMO_CAP};
use gemini::prelude::*;

/// Minimal `--flag value` argument scanner.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `--name N` parsed as a number, `None` when the flag is absent. A
/// value that does not parse prints `invalid --name 'value'` and exits
/// 1: falling back to the default would run a request nobody asked
/// for.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let v = flag(args, name)?;
    match v.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("invalid {name} '{v}'");
            std::process::exit(1)
        }
    }
}

/// `--batch N` with a per-verb default; `None`, after printing the
/// service's refusal, when it is zero.
fn batch_flag(args: &[String], default: u32) -> Option<u32> {
    let batch = num_flag(args, "--batch").unwrap_or(default);
    if let Err(e) = check_batch(batch) {
        eprintln!("{e}");
        return None;
    }
    Some(batch)
}

/// Every verb the CLI understands, for the unknown-subcommand message.
const VERBS: &str = "models|archs|cost|map|dse|hetero|heatmap|campaign|serve|request";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  gemini models [--detail]\n  gemini archs\n  gemini cost <preset>\n  \
         gemini map <model> [--arch <preset>] [--batch N] [--iters N] [--threads N] [--stats]\n  \
         gemini dse [--tops T] [--stride N] [--batch N] [--iters N] [--threads N] \
[--fidelity analytic|rerank|validate[+bounds|+prune]] [--rerank-k K] [--objective SPEC]\n  \
         gemini hetero <model> [--batch N] [--iters N]\n  \
         gemini heatmap <model> [--batch N] [--iters N]\n  \
         gemini campaign <manifest.toml|.json> [--resume] [--threads N] [--out DIR] \
[--shards N --shard-index K [--steal]]\n  \
         gemini campaign merge <manifest.toml|.json> [--out DIR]\n  \
         gemini serve --addr HOST:PORT [--workers N] [--queue N]\n  \
         gemini request --addr HOST:PORT"
    );
    ExitCode::FAILURE
}

/// SA options from the environment, with CLI `--iters`/`--threads`
/// overrides applied on top. Precedence for the budget: `--iters`,
/// then a *parsable* `GEMINI_SA_ITERS`, then the per-command default
/// (an unparsable env value warns via `from_env` and is treated as
/// unset, not as the struct default).
fn sa_opts(args: &[String], default_iters: u32) -> SaOptions {
    let mut sa = SaOptions::from_env();
    let env_iters = std::env::var("GEMINI_SA_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok());
    sa.iters = num_flag(args, "--iters")
        .or(env_iters)
        .unwrap_or(default_iters);
    if let Some(t) = num_flag(args, "--threads") {
        sa.threads = t;
    }
    sa
}

/// Runs one request body through a one-shot service state and prints
/// the rendered report — the same code path `gemini serve` answers
/// socket requests with, so the two are byte-identical.
fn run_one_shot(body: RequestBody) -> ExitCode {
    let state = ServiceState::one_shot();
    match state.handle(&body) {
        Ok(payload) => {
            let report = payload
                .get("report")
                .and_then(|r| r.as_str())
                .expect("every one-shot payload carries a report");
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => {
            let names = [
                ("rn-50", "ResNet-50 (224x224)"),
                ("rnx", "ResNeXt-50 32x4d"),
                ("ires", "Inception-ResNet-v1 (299x299)"),
                ("pnas", "PNASNet (224x224)"),
                ("tf", "Transformer base (128 tokens, d512)"),
                ("tf-large", "Transformer large (128 tokens, d1024)"),
                ("bert", "BERT-base encoder (12 layers, d768)"),
                ("gn", "GoogLeNet"),
                ("dn-121", "DenseNet-121"),
                ("mbv2", "MobileNetV2"),
                ("effnet", "EfficientNet-B0 (SE omitted)"),
                ("vgg", "VGG-16"),
                (
                    "gpt2-decode",
                    "GPT-2 decode step (12 blocks, d768; @pos, default 512)",
                ),
                (
                    "decode-tiny",
                    "Two-block decode step (d128; @pos, default 64)",
                ),
            ];
            let detail = args.iter().any(|a| a == "--detail");
            for (abbr, desc) in names {
                if detail {
                    let dnn = gemini::model::zoo::by_name(abbr)
                        .expect("listed model exists")
                        .graph;
                    println!("{abbr:<9} {}", dnn.summary());
                } else {
                    println!("{abbr:<9} {desc}");
                }
            }
            ExitCode::SUCCESS
        }
        Some("heatmap") => {
            let Some(dnn) = args
                .get(1)
                .and_then(|m| gemini::model::zoo::by_name(m))
                .map(|w| w.graph)
            else {
                eprintln!("unknown model; try `gemini models`");
                return ExitCode::FAILURE;
            };
            let Some(batch) = batch_flag(&args, 8) else {
                return ExitCode::FAILURE;
            };
            let sa = sa_opts(&args, 800);
            let iters = sa.iters;
            let arch = gemini::arch::presets::g_arch_72();
            let ev = Evaluator::new(&arch);
            let engine = MappingEngine::new(&ev);
            let busiest = |report: &gemini::sim::DnnReport| {
                let r = report
                    .groups
                    .iter()
                    .max_by(|a, b| {
                        a.traffic
                            .total_hop_bytes()
                            .partial_cmp(&b.traffic.total_hop_bytes())
                            .expect("finite")
                    })
                    .expect("at least one group");
                gemini::noc::Heatmap::build(ev.network(), &r.traffic)
            };
            // The T-Map is the G-Map's start.
            let (g, t) = engine.map_with_start(
                &dnn,
                batch,
                &MappingOptions {
                    sa,
                    ..Default::default()
                },
            );
            println!(
                "busiest-group link pressure on {} (0-9):",
                arch.paper_tuple()
            );
            println!("\nT-Map:\n{}", busiest(&t).render_ascii());
            println!("G-Map (SA {iters}):\n{}", busiest(&g.report).render_ascii());
            ExitCode::SUCCESS
        }
        Some("archs") => {
            for (n, a) in [
                ("s-arch", gemini::arch::presets::simba_s_arch()),
                ("g-arch", gemini::arch::presets::g_arch_72()),
                ("t-arch", gemini::arch::presets::t_arch()),
                ("g-arch-torus", gemini::arch::presets::g_arch_vs_tarch()),
            ] {
                println!("{n:<14} {}  [{:.0} TOPS]", a.paper_tuple(), a.tops());
            }
            ExitCode::SUCCESS
        }
        Some("cost") => {
            let Some(arch) = args.get(1).and_then(|n| preset(n)) else {
                eprintln!("unknown preset; try `gemini archs`");
                return ExitCode::FAILURE;
            };
            let mc = CostModel::default().evaluate(&arch);
            println!("architecture : {}", arch.paper_tuple());
            println!(
                "silicon      : ${:8.2}  ({:.1} mm2 total)",
                mc.silicon, mc.silicon_mm2
            );
            for d in &mc.per_die {
                println!(
                    "  {:?} die    : {:6.1} mm2 x{}  yield {:.3}  ${:.2} each",
                    d.kind, d.area_mm2, d.count, d.yield_, d.unit_cost
                );
            }
            println!("DRAM         : ${:8.2}", mc.dram);
            println!(
                "packaging    : ${:8.2}  ({:.0} mm2 substrate)",
                mc.package, mc.substrate_mm2
            );
            println!("total        : ${:8.2}", mc.total());
            ExitCode::SUCCESS
        }
        Some("map") => {
            let Some(model) = args.get(1).cloned() else {
                eprintln!("unknown model; try `gemini models`");
                return ExitCode::FAILURE;
            };
            let Some(dnn) = gemini::model::zoo::by_name(&model).map(|w| w.graph) else {
                eprintln!("unknown model; try `gemini models`");
                return ExitCode::FAILURE;
            };
            let arch_name = flag(&args, "--arch").unwrap_or_else(|| "g-arch".to_string());
            let Some(arch) = preset(&arch_name) else {
                eprintln!("unknown preset; try `gemini archs`");
                return ExitCode::FAILURE;
            };
            // Refused before the header, like an unknown name; the
            // handler checks again for socket clients.
            let Some(batch) = batch_flag(&args, 16) else {
                return ExitCode::FAILURE;
            };
            let sa = sa_opts(&args, 1000);
            // The header is printed client-side: chain_threads() is
            // host-dependent, so it stays out of the deterministic
            // payload the daemon serves.
            println!(
                "mapping {} onto {} (batch {batch}, SA {} x {} threads)",
                dnn.name(),
                arch.paper_tuple(),
                sa.iters,
                sa.chain_threads()
            );
            run_one_shot(RequestBody::Map(MapParams {
                model,
                arch: arch_name,
                batch,
                iters: sa.iters,
                seed: sa.seed,
                threads: sa.threads,
                stats: args.iter().any(|a| a == "--stats"),
            }))
        }
        Some("hetero") => {
            let Some(dnn) = args
                .get(1)
                .and_then(|m| gemini::model::zoo::by_name(m))
                .map(|w| w.graph)
            else {
                eprintln!("unknown model; try `gemini models`");
                return ExitCode::FAILURE;
            };
            let Some(batch) = batch_flag(&args, 8) else {
                return ExitCode::FAILURE;
            };
            let sa = sa_opts(&args, 300);
            let iters = sa.iters;
            let fabric = ArchConfig::builder()
                .cores(6, 6)
                .cuts(2, 2)
                .noc_bw(32.0)
                .d2d_bw(16.0)
                .dram_bw(144.0)
                .build()
                .expect("valid fabric");
            let spec = gemini::core::hetero_dse::HeteroDseSpec {
                fabric,
                classes: vec![
                    gemini::arch::CoreClass {
                        macs: 1536,
                        glb_bytes: 3 << 20,
                    },
                    gemini::arch::CoreClass {
                        macs: 512,
                        glb_bytes: 1 << 20,
                    },
                ],
            };
            let opts = DseOptions {
                batch,
                mapping: MappingOptions {
                    sa,
                    ..Default::default()
                },
                ..Default::default()
            };
            println!(
                "exploring {} class assignments for {} (batch {batch}, SA {iters})",
                spec.candidates().len(),
                dnn.name()
            );
            let res =
                gemini::core::hetero_dse::run_hetero_dse(std::slice::from_ref(&dnn), &spec, &opts);
            let best = res.best_record();
            let tag: String = best
                .spec
                .class_of_chiplet()
                .iter()
                .map(|&c| if c == 0 { 'B' } else { 'L' })
                .collect();
            println!(
                "best assignment {tag} (B = 1536-MAC, L = 512-MAC): {:.1} TOPS  MC ${:.2}  \
                 E {:.3e} J  D {:.3e} s",
                best.tops, best.mc, best.energy, best.delay
            );
            ExitCode::SUCCESS
        }
        Some("campaign") => {
            let merge = args.get(1).map(String::as_str) == Some("merge");
            let manifest_pos = if merge { 2 } else { 1 };
            let Some(manifest) = args.get(manifest_pos).filter(|a| !a.starts_with("--")) else {
                eprintln!(
                    "usage: gemini campaign <manifest.toml|.json> [--resume] [--threads N] \
                     [--out DIR] [--shards N --shard-index K [--steal]]\n       \
                     gemini campaign merge <manifest.toml|.json> [--out DIR]"
                );
                return ExitCode::FAILURE;
            };
            let resume = args.iter().any(|a| a == "--resume");
            let params = CampaignParams {
                manifest: manifest.clone(),
                resume,
                threads: num_flag(&args, "--threads").unwrap_or(0),
                out: flag(&args, "--out"),
                merge,
                shards: num_flag(&args, "--shards"),
                shard_index: num_flag(&args, "--shard-index"),
                steal: args.iter().any(|a| a == "--steal"),
            };
            // Load and validate client-side first so the pre-run header
            // (the only host/progress line) never prints on a refused
            // request; the handler re-validates identically for socket
            // clients.
            let spec = match CampaignSpec::load(std::path::Path::new(manifest)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = gemini::core::service::campaign_shard(&params) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
            let sets = spec.workload_sets();
            let archs = spec.arch_candidates();
            println!(
                "campaign '{}' [{}]: {} workload set(s) x {} batch(es) x {} arch(s) = {} cells{}",
                spec.name,
                spec.fingerprint(),
                sets.len(),
                spec.batches.len(),
                archs.len(),
                sets.len() * spec.batches.len() * archs.len(),
                if resume { " (resuming)" } else { "" }
            );
            run_one_shot(RequestBody::Campaign(params))
        }
        Some("dse") => {
            let rerank_k: usize = num_flag(&args, "--rerank-k").unwrap_or(8);
            let mut sa = sa_opts(&args, 300);
            // For the DSE, `--threads` sets the candidate-sweep workers,
            // not the SA chain count (which `sa_opts` would otherwise
            // also take from the flag, multiplying into workers x chains
            // threads): chains revert to auto and `run_dse_over` pins
            // them to 1 while the sweep is parallel. Results are
            // identical either way.
            let cli_threads: Option<usize> = num_flag(&args, "--threads");
            if cli_threads.is_some() {
                sa.threads = 0;
            }
            run_one_shot(RequestBody::Dse(DseParams {
                tops: num_flag(&args, "--tops").unwrap_or(72.0),
                stride: num_flag(&args, "--stride").unwrap_or(29),
                batch: num_flag(&args, "--batch").unwrap_or(64),
                iters: sa.iters,
                seed: sa.seed,
                fidelity: flag(&args, "--fidelity").unwrap_or_else(|| "analytic".to_string()),
                rerank_k,
                threads: cli_threads,
                sa_threads: sa.threads,
                objective: flag(&args, "--objective").unwrap_or_else(|| "mc-e-d".to_string()),
            }))
        }
        Some("serve") => {
            let addr = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4816".to_string());
            let opts = ServeOptions {
                workers: num_flag(&args, "--workers").unwrap_or(0),
                queue_cap: num_flag(&args, "--queue").unwrap_or(64),
            };
            let server = match Server::bind(&addr, opts) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match server.local_addr() {
                Ok(local) => {
                    // One parseable line so scripts (and the CI job) can
                    // scrape the resolved port when binding :0.
                    println!("listening on {local}");
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    eprintln!("bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let state = ServiceState::serving(SERVE_MEMO_CAP);
            match server.run(&state) {
                Ok(s) => {
                    println!(
                        "drained: served {} request(s) over {} connection(s)",
                        s.served, s.connections
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("request") => {
            let Some(addr) = flag(&args, "--addr") else {
                eprintln!("gemini request requires --addr HOST:PORT");
                return ExitCode::FAILURE;
            };
            let mut conn = match std::net::TcpStream::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connect {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Pipeline: send every stdin line, half-close, then print
            // the responses (completion order; correlate by id).
            let mut sent = 0usize;
            for line in std::io::stdin().lock().lines() {
                let line = match line {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("stdin: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                if conn
                    .write_all(line.as_bytes())
                    .and_then(|()| conn.write_all(b"\n"))
                    .is_err()
                {
                    eprintln!("connection to {addr} closed while sending");
                    return ExitCode::FAILURE;
                }
                sent += 1;
            }
            let _ = conn.flush();
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut got = 0usize;
            for resp in BufReader::new(conn).lines() {
                match resp {
                    Ok(l) => {
                        println!("{l}");
                        got += 1;
                    }
                    Err(e) => {
                        eprintln!("read {addr}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if got == sent {
                    break;
                }
            }
            if got < sent {
                eprintln!("{addr} answered {got} of {sent} request(s) before closing");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'; expected {VERBS}");
            usage()
        }
        None => usage(),
    }
}
