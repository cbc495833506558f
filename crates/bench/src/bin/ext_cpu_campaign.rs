//! **Extension H** — bit-flip injection in a processor-based architecture,
//! the case-study genre of the paper's reference \[2\] (Cardarilli et al.):
//! an exhaustive SEU campaign over every architectural bit of a tiny
//! accumulator CPU running a self-checking checksum program, with the
//! classification broken down by architectural resource. The campaign is
//! the catalog's `cpu` (`amsfi run cpu`), run once through the engine.
//!
//! ```text
//! cargo run --release -p amsfi-bench --bin ext_cpu_campaign
//! ```

use amsfi_bench::{banner, write_result};
use amsfi_circuits::cpu::checksum_program;
use amsfi_core::{report, FaultClass};
use amsfi_engine::{campaigns, Engine, EngineConfig};
use std::collections::{BTreeMap, BTreeSet};

/// Architectural resource of a case label, `cpu.<bit> @ <time>` with
/// `<bit>` one of `acc[i]`, `pc[i]`, `flag_nz`, `ram[w][b]` (live words
/// 0..=4).
fn resource(label: &str) -> &'static str {
    let bit = label.strip_prefix("cpu.").unwrap_or(label);
    if bit.starts_with("acc") {
        "accumulator"
    } else if bit.starts_with("pc") {
        "program counter"
    } else if bit.starts_with("flag") {
        "flag"
    } else {
        // ram[w][b]
        let word: usize = bit["ram[".len()..]
            .split(']')
            .next()
            .and_then(|w| w.parse().ok())
            .unwrap_or(99);
        if word <= 4 {
            "RAM (live words)"
        } else {
            "RAM (dead words)"
        }
    }
}

fn main() {
    banner("Extension H — SEU campaign over a processor architecture");
    let campaign = campaigns::build("cpu", None).expect("cpu is a named campaign");
    let runs = campaign.cases.len();
    let times: BTreeSet<_> = campaign.cases.iter().map(|c| c.injected_at).collect();
    println!(
        "  program: counter-mixed checksum ({} instructions/loop), 100 MHz;\n\
         \x20 targets: {} architectural bits x {} injection times = {runs} runs\n",
        checksum_program().len(),
        runs / times.len(),
        times.len(),
    );

    let run = Engine::new(EngineConfig::default())
        .run(&campaign)
        .expect("campaign");
    assert!(run.skipped.is_empty(), "no case may fail to simulate");
    println!(
        "  completed in {:?} ({:.1} cases/s)\n",
        run.stats.elapsed,
        run.stats.rate()
    );
    print!("{}", run.stats.stage_table());
    let result = &run.result;

    banner("Classification summary");
    print!("{}", report::summary_table(result));

    banner("By architectural resource");
    let mut per: BTreeMap<&str, [usize; 4]> = BTreeMap::new();
    for c in &result.cases {
        let counts = per.entry(resource(&c.case.label)).or_default();
        let idx = match c.outcome.class {
            FaultClass::NoEffect => 0,
            FaultClass::Latent => 1,
            FaultClass::Transient => 2,
            FaultClass::Failure => 3,
            // A case that failed to simulate carries no propagation
            // verdict to attribute to a resource.
            FaultClass::SimFailure => continue,
        };
        counts[idx] += 1;
    }
    println!(
        "  {:<18} {:>10} {:>8} {:>10} {:>9} {:>11}",
        "resource", "no-effect", "latent", "transient", "failure", "disturbed"
    );
    let mut csv = String::from("resource,no_effect,latent,transient,failure\n");
    for (res, [ne, la, tr, fa]) in &per {
        let total = ne + la + tr + fa;
        println!(
            "  {:<18} {:>10} {:>8} {:>10} {:>9} {:>10.0}%",
            res,
            ne,
            la,
            tr,
            fa,
            100.0 * (total - ne) as f64 / total as f64
        );
        csv.push_str(&format!("{res},{ne},{la},{tr},{fa}\n"));
    }
    write_result("ext_cpu_campaign.csv", &csv);

    banner("Reading");
    println!(
        "  The architectural breakdown mirrors what [2] reports for real\n\
         \x20 processors: upsets in dead memory are fully masked; live-data and\n\
         \x20 control-flow upsets are almost always destructive, with the live\n\
         \x20 table words the most critical resource (every loop iteration\n\
         \x20 re-reads them). This per-resource view is the paper's 'identify\n\
         \x20 the significant nodes' output at the architecture level."
    );
    // Shape assertions: dead RAM fully masked, live table mostly fatal.
    assert_eq!(
        per["RAM (dead words)"][0],
        per["RAM (dead words)"].iter().sum::<usize>(),
        "dead RAM upsets must all be masked"
    );
    assert!(
        per["RAM (live words)"][3] > 0,
        "live table upsets must produce failures"
    );
}
