//! Byte pins for the fluid rung of the fidelity ladder.
//!
//! `tests/cli_golden.rs` prints the fluid column rounded to 10 ns and
//! `tests/dram_fanout_pins.rs` runs analytic fidelity, so neither would
//! notice a fluid value that moves in its last bits. These pins do, at
//! full precision:
//!
//! * the `cells.csv` of `manifests/ci_tiny.toml` (fluid fidelity), which
//!   prints `fluid_delay_s` and `worst_fluid` in full (in these four
//!   cells no group's fluid time exceeds its analytic price, so this pin
//!   guards the campaign's fluid plumbing rather than the solver's
//!   bits);
//! * a digest of every max-min replay of the stage flows of the stripe
//!   mappings of ResNet-50, Transformer and GoogLeNet at batch 64 on
//!   G-Arch 72 and Simba-S: per group the completion time, the event
//!   count and every flow's completion time, by `to_bits`.
//!
//! Every expected value was recorded from the solver that re-ran
//! progressive filling from its first round at every event, before the
//! incremental solver replaced it. A rate that is added, clamped or
//! divided in another order moves a pinned bit.

use std::fs;
use std::process::Command;

use gemini::arch::{presets, ArchConfig};
use gemini::core::engine::{MappingEngine, MappingOptions};
use gemini::model::zoo;
use gemini::noc::flowsim::FlowSimWorkspace;
use gemini::sim::{stage_flows, Evaluator};

/// `cells.csv` of `manifests/ci_tiny.toml` at `--threads 1`.
const CI_TINY_CELLS_CSV: &str = "\
cell,wset,batch,arch_idx,x,y,xcut,ycut,noc_gbps,d2d_gbps,dram_gbps,glb_kb,macs,topology,mc,mc_silicon,mc_dram,mc_package,area_mm2,energy_j,delay_s,fluid_delay_s,worst_fluid,edp,bound_edp_gap,pareto,score_mc-e-d,score_e-d
0,two-conv,2,0,6,6,6,6,32,8,144,1024,1024,mesh,44.07996440622878,15.94600885067323,17.5,10.633955555555556,131.5952,0.000020126775333333323,0.000015855578703703708,0.000015855578703703708,1,0.00000000031912167034942893,3.688559139888171,0,0.000000014066871870259102,0.00000000031912167034942893
1,two-conv,2,1,6,6,2,1,32,16,144,2048,1024,mesh,45.71248657464281,17.77247041302665,17.5,10.44001616161616,129.1952,0.000012410167691842567,0.000009923703703703701,0.000009923703703703701,1,0.0000000001231548270871221,1.4200856442318404,1,0.0000000056297133798225265,0.0000000001231548270871221
2,tiny-resnet,2,0,6,6,6,6,32,8,144,1024,1024,mesh,44.07996440622878,15.94600885067323,17.5,10.633955555555556,131.5952,0.000016681625199999984,0.00006339387152777778,0.00006339387152777778,1,0.0000000010575128048033394,8.694038175988299,0,0.000000046615126794862366,0.0000000010575128048033394
3,tiny-resnet,2,1,6,6,2,1,32,16,144,2048,1024,mesh,45.71248657464281,17.77247041302665,17.5,10.44001616161616,129.1952,0.000009191952262372492,0.000029126076388888906,0.000029126076388888906,1,0.0000000002677255037568814,2.1732406845593384,1,0.000000012238398496175924,0.0000000002677255037568814
";

#[test]
fn ci_tiny_fluid_cells_are_pinned() {
    let root = std::env::temp_dir().join(format!("gemini-fluid-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_gemini"))
        .args([
            "campaign",
            "manifests/ci_tiny.toml",
            "--threads",
            "1",
            "--out",
        ])
        .arg(&root)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn gemini CLI");
    assert!(
        out.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cells = fs::read_to_string(root.join("ci-tiny/cells.csv")).unwrap();
    let _ = fs::remove_dir_all(&root);
    assert_eq!(cells, CI_TINY_CELLS_CSV, "new cells.csv:\n{cells}");
}

/// Groups, flows, events and the FNV-1a digest of one DNN's replays.
#[derive(Debug, PartialEq)]
struct Pin {
    groups: usize,
    flows: usize,
    events: usize,
    digest: u64,
}

/// Replays the stage flows of every group of the stripe mapping of
/// `name` at batch 64 through one reused workspace.
fn replay(name: &str, arch: &ArchConfig, ws: &mut FlowSimWorkspace) -> Pin {
    let dnn = zoo::by_name(name).expect("zoo name").graph;
    let ev = Evaluator::new(arch);
    let mapped = MappingEngine::new(&ev).map_stripe(&dnn, 64, &MappingOptions::default());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut pin = Pin {
        groups: 0,
        flows: 0,
        events: 0,
        digest: 0,
    };
    for gm in mapped.group_mappings(&dnn) {
        let flows = stage_flows(&ev, &dnn, &gm);
        let r = ws.simulate(ev.network(), &flows);
        eat(r.completion_s.to_bits());
        eat(r.events as u64);
        for t in &r.flow_times_s {
            eat(t.to_bits());
        }
        pin.groups += 1;
        pin.flows += flows.len();
        pin.events += r.events;
    }
    pin.digest = h;
    pin
}

#[test]
fn stripe_stage_replays_are_pinned() {
    let expected = [
        (
            "rn-50",
            "g-arch-72",
            Pin {
                groups: 9,
                flows: 2905,
                events: 801,
                digest: 0x93074a0f935a5c7f,
            },
        ),
        (
            "tf",
            "g-arch-72",
            Pin {
                groups: 6,
                flows: 563,
                events: 248,
                digest: 0xc8e6cd22d0367add,
            },
        ),
        (
            "gn",
            "g-arch-72",
            Pin {
                groups: 5,
                flows: 885,
                events: 311,
                digest: 0xfe827af4f65ec0ba,
            },
        ),
        (
            "rn-50",
            "simba-s",
            Pin {
                groups: 9,
                flows: 2944,
                events: 781,
                digest: 0x8d6359e20baa8a52,
            },
        ),
        (
            "tf",
            "simba-s",
            Pin {
                groups: 6,
                flows: 1043,
                events: 196,
                digest: 0xe015614bc861b9ef,
            },
        ),
        (
            "gn",
            "simba-s",
            Pin {
                groups: 5,
                flows: 916,
                events: 293,
                digest: 0x9fcc57371fdc2f7e,
            },
        ),
    ];
    let mut ws = FlowSimWorkspace::new();
    let mut got = Vec::new();
    for (arch_name, arch) in [
        ("g-arch-72", presets::g_arch_72()),
        ("simba-s", presets::simba_s_arch()),
    ] {
        for name in ["rn-50", "tf", "gn"] {
            got.push((name, arch_name, replay(name, &arch, &mut ws)));
        }
    }
    assert_eq!(got, expected, "new pins:\n{got:#?}");
}
