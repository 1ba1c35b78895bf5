//! Byte pins for the DRAM paths the preset goldens miss.
//!
//! Every preset has two DRAMs with equal port counts, and
//! `tests/cli_golden.rs` prints three or four significant digits. These
//! pins cover the rest, at full precision:
//!
//! * DRAMs with unequal port counts: `dram_count = 3` on five rows gives
//!   DRAM 0 two ports, DRAM 1 five and DRAM 2 three, on a mesh and on a
//!   folded torus;
//! * the unicast ablation (`EvalOptions::multicast_enabled` off);
//! * the GLB spill (a 32 KiB GLB, so working sets overflow every round).
//!
//! Every expected value was recorded from the evaluator that walked each
//! DRAM route on every call, before the per-core DRAM fan-out tables of
//! `gemini_noc::Network` replaced those walks. A table that adds a
//! link's bytes to another link, or in another order, moves a pinned
//! bit.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use gemini::arch::{ArchConfig, Topology};
use gemini::core::engine::{MappingEngine, MappingOptions};
use gemini::core::sa::SaOptions;
use gemini::model::zoo;
use gemini::sim::{DnnReport, EnergyModel, EvalOptions, Evaluator};

const MANIFEST: &str = r#"[campaign]
name = "dram-fanout-pin"
seed = 5
sa_iters = 60
batches = [2]

[workloads]
names = ["tiny-resnet", "decode-tiny@64"]
mode = "each"

[[arch]]
cores = [5, 5]
dram_count = 3

[[arch]]
cores = [6, 5]
cuts = [2, 1]
dram_count = 3
topology = "folded-torus"
"#;

/// `cells.csv` of [`MANIFEST`], which prints energy and delay at full
/// precision.
const CELLS_CSV: &str = "\
cell,wset,batch,arch_idx,x,y,xcut,ycut,noc_gbps,d2d_gbps,dram_gbps,glb_kb,macs,topology,mc,mc_silicon,mc_dram,mc_package,area_mm2,energy_j,delay_s,fluid_delay_s,worst_fluid,edp,bound_edp_gap,pareto,score_mc-e-d
0,tiny-resnet,2,0,5,5,1,1,32,16,144,1024,1024,mesh,28.103382503457382,9.286614826689704,17.5,1.316767676767677,65.18,0.000007774207999999998,0.00003114367499999998,,,0.0000000002421174073343998,1.878035329986105,1,0.000000006804318109064035
1,tiny-resnet,2,1,6,5,2,1,32,16,144,1024,1024,folded-torus,34.16436289426172,11.369090166988997,17.5,5.295272727272727,87.372,0.000008661592720000003,0.00002393291309523809,,,0.00000000020729714583410696,1.6588220657184718,1,0.000000007082174917221124
2,decode-tiny@64,2,0,5,5,1,1,32,16,144,1024,1024,mesh,28.103382503457382,9.286614826689704,17.5,1.316767676767677,65.18,0.00003940682485333337,0.000050409452222222205,,,0.000000001986476454673587,1.0833655623225422,1,0.00000005582670763980374
3,decode-tiny@64,2,1,6,5,2,1,32,16,144,1024,1024,folded-torus,34.16436289426172,11.369090166988997,17.5,5.295272727272727,87.372,0.0000406115298266667,0.000049081564613095284,,,0.000000001993277425224188,1.0903611761312846,1,0.00000006809905330429878
";

#[test]
fn unequal_port_count_campaign_cells_are_pinned() {
    let root = std::env::temp_dir().join(format!("gemini-fanout-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let manifest = root.join("manifest.toml");
    fs::write(&manifest, MANIFEST).unwrap();
    let out_dir: PathBuf = root.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_gemini"))
        .arg("campaign")
        .arg(&manifest)
        .args(["--threads", "1", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn gemini CLI");
    assert!(
        out.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cells = fs::read_to_string(out_dir.join("dram-fanout-pin/cells.csv")).unwrap();
    let _ = fs::remove_dir_all(&root);
    assert_eq!(cells, CELLS_CSV);
}

/// FNV-1a over the bits of reports: per report the DNN delay and
/// energy, then per group the stage time, the weight-load time, every
/// loaded link's id and bytes, and every DRAM's bytes.
fn digest(reports: &[&DnnReport]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in reports {
        let e = &r.energy;
        for x in [r.delay_s, e.mac, e.vector, e.glb, e.noc, e.d2d, e.dram] {
            eat(x.to_bits());
        }
        for g in &r.groups {
            eat(g.stage_time_s.to_bits());
            eat(g.weight_load_s.to_bits());
            for (link, b) in g.traffic.iter_loaded() {
                eat(u64::from(link.0));
                eat(b.to_bits());
            }
            for &b in &g.dram_bytes {
                eat(b.to_bits());
            }
        }
    }
    h
}

/// The evaluator of one pinned case: the unicast ablation or a 32 KiB
/// GLB that spills, on a three-DRAM mesh or folded torus.
fn evaluator(case: &str) -> Evaluator {
    let (topology, x, xcut) = if case.ends_with("torus") {
        (Topology::FoldedTorus, 6, 2)
    } else {
        (Topology::Mesh, 5, 1)
    };
    let spill = case.starts_with("spill");
    let arch = ArchConfig::builder()
        .cores(x, 5)
        .cuts(xcut, 1)
        .dram_count(3)
        .topology(topology)
        .glb_kb(if spill { 32 } else { 1024 })
        .build()
        .expect("valid arch");
    let opts = EvalOptions {
        multicast_enabled: spill,
        ..Default::default()
    };
    Evaluator::with_options(&arch, EnergyModel::default(), opts)
}

/// `(case, workload, delay bits, energy bits, digest)` of a G-Map at
/// batch 8, SA 60 iterations, seed 5, one thread: the G-Map's delay and
/// energy, and the digest of the G-Map's report and its start's (the
/// stripe T-Map, where the spill cases overflow the GLB).
const PINS: &[(&str, &str, u64, u64, u64)] = &[
    (
        "unicast-mesh",
        "tiny-resnet",
        0x3f0750eb94ec9fff,
        0x3efbe7bfdb3d1c38,
        0x27bbbde8d5f17ffa,
    ),
    (
        "unicast-mesh",
        "decode-tiny@64",
        0x3f13e09ca998a0ae,
        0x3f0ebbe04aefc894,
        0xb38f6ab2c5b65bf1,
    ),
    (
        "unicast-torus",
        "tiny-resnet",
        0x3f048287ddece360,
        0x3eff14a983ade102,
        0x07a0bbbd401a9299,
    ),
    (
        "unicast-torus",
        "decode-tiny@64",
        0x3f0fa4374aec3b50,
        0x3f0fcb8a5c3d3328,
        0x553be7b80427468d,
    ),
    (
        "spill-mesh",
        "tiny-resnet",
        0x3f099ee0a8c612eb,
        0x3ef99a0340712a6c,
        0x4d6be9274d0f3123,
    ),
    (
        "spill-mesh",
        "decode-tiny@64",
        0x3f206d1428ad4e96,
        0x3f28e24307f4c193,
        0x88b28962fca2bce7,
    ),
    (
        "spill-torus",
        "tiny-resnet",
        0x3f0452992fad23d0,
        0x3efd26465ceb81e2,
        0x0b77b3f46cb659b4,
    ),
    (
        "spill-torus",
        "decode-tiny@64",
        0x3f0f8b4cee49f607,
        0x3f0fc54da621a890,
        0x0cd15519a6ea10d9,
    ),
];

#[test]
fn unicast_ablation_and_glb_spill_on_unequal_ports_are_pinned() {
    let opts = MappingOptions {
        sa: SaOptions {
            iters: 60,
            seed: 5,
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut moved = Vec::new();
    for &(case, model, delay, energy, dig) in PINS {
        let ev = evaluator(case);
        let dnn = zoo::by_name(model).expect("zoo workload").graph;
        let (g, start) = MappingEngine::new(&ev).map_with_start(&dnn, 8, &opts);
        let r = g.report;
        if case.starts_with("spill") {
            // A working set over the GLB is what adds spill traffic.
            assert!(
                start.groups.iter().any(|g| !g.weights_resident),
                "{case} {model}: nothing spills"
            );
        }
        let got = (
            r.delay_s.to_bits(),
            r.energy.total().to_bits(),
            digest(&[&r, &start]),
        );
        if got != (delay, energy, dig) {
            moved.push(format!(
                "(\"{case}\", \"{model}\", {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2
            ));
        }
    }
    assert!(moved.is_empty(), "pins moved; got:\n{}", moved.join("\n"));
}
