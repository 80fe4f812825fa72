//! The Capsule C toolchain (paper §3.2): compile a component program from
//! source and watch the architecture steer it.
//!
//! With a path argument, compiles and runs that file; without one, runs a
//! built-in divide-and-conquer reduction.
//!
//! ```text
//! cargo run --release --example capsule_c [program.cap]
//! ```

use capsule::lang::compile;
use capsule::model::config::MachineConfig;
use capsule::sim::machine::Machine;

const DEFAULT_PROGRAM: &str = r"
// Component sum over a global array: the worker divides itself in half
// whenever the architecture grants the probe (the paper's Figure 2).
global total;
global arr[4096];

worker polysum(lo, hi) {
    while (hi - lo > 512) {
        let mid = lo + (hi - lo) / 2;
        coworker polysum(mid, hi);     // nthr: the hardware decides
        hi = mid;
    }
    let acc = 0;
    while (lo < hi) {
        let x = arr[lo];
        acc = acc + (x * x + 3 * x + 7) % 1000003;
        lo = lo + 1;
    }
    lock (&total) { total = total + acc; }
}

worker main() {
    let i = 0;
    while (i < 4096) { arr[i] = i * 7 % 1000 - 500; i = i + 1; }
    let round = 0;
    while (round < 4) {
        coworker polysum(0, 4096);
        join;
        round = round + 1;
    }
    out(total);
}
";

fn main() {
    let src = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEFAULT_PROGRAM.to_string(),
    };

    let program = match compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("compile error at {e}");
            std::process::exit(1);
        }
    };
    println!("compiled: {} instructions, {} bytes of data\n", program.text.len(), program.data_len);

    for (name, cfg) in [
        ("superscalar (divisions denied)", MachineConfig::table1_superscalar()),
        ("SOMT (hardware-steered)", MachineConfig::table1_somt()),
    ] {
        let mut m = Machine::new(cfg, &program).expect("program loads");
        match m.run(50_000_000_000) {
            Ok(o) => {
                println!("{name}:");
                println!("  output    {:?}", o.ints());
                println!("  cycles    {}", o.cycles());
                println!(
                    "  divisions {} granted / {} probed, {} workers total\n",
                    o.stats.divisions_granted(),
                    o.stats.divisions_requested,
                    o.tree.len()
                );
            }
            Err(e) => {
                eprintln!("{name}: runtime error: {e}");
                std::process::exit(1);
            }
        }
    }
}
