//! Shared scenario catalog: every figure/table evaluation of the paper as
//! a named, scale-parameterised scenario list.
//!
//! The per-figure binaries in `src/bin/` and the `capsule-serve` job
//! server build their batches from the same entries, so a scenario named
//! over the wire is byte-for-byte the scenario the corresponding binary
//! runs. Each entry exists at three scales:
//!
//! - [`Scale::Smoke`] — seconds; CI smoke tests and server round-trips,
//! - [`Scale::Quick`] — the binaries' default reduced configuration,
//! - [`Scale::Full`] — the paper-sized runs (`--full`).
//!
//! Quick and Full reproduce the historical binary parameters exactly;
//! Smoke shrinks the data sets while keeping every machine configuration
//! and variant untouched.

use std::sync::Arc;

use capsule_core::config::{DivisionMode, MachineConfig};
use capsule_workloads::datasets::{lzw_text, random_list, ListShape, Tree};
use capsule_workloads::dijkstra::Dijkstra;
use capsule_workloads::lang_ports::probe_overhead_program;
use capsule_workloads::lzw::Lzw;
use capsule_workloads::perceptron::Perceptron;
use capsule_workloads::quicksort::QuickSort;
use capsule_workloads::spec::{Bzip2, Crafty, Mcf, Vpr};
use capsule_workloads::{Variant, Workload};

use crate::Scenario;

/// Data-set scale of a catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny instances for CI smoke tests and server round-trips.
    Smoke,
    /// The binaries' default reduced configuration.
    Quick,
    /// The paper-sized configuration (`--full`).
    Full,
}

impl Scale {
    /// Canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Parses a canonical name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The scale the evaluation binaries run at: [`Scale::Full`] when
    /// `--full`/`CAPSULE_BENCH_FULL=1` was given, else [`Scale::Quick`].
    pub fn from_env() -> Scale {
        if crate::full_scale() {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Picks the value for this scale.
    pub fn pick<T>(self, smoke: T, quick: T, full: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// One named evaluation from the catalog.
pub struct CatalogEntry {
    /// Stable name, matching the binary in `src/bin/` (`fig3_dijkstra_dist`).
    pub name: &'static str,
    /// Batch title printed in reports (matches the historical binary).
    pub title: &'static str,
    /// One-line description for listings.
    pub about: &'static str,
    /// Builds the scenario list at the requested scale.
    pub build: fn(Scale) -> Vec<Scenario>,
}

impl CatalogEntry {
    /// Builds the scenario list at the requested scale.
    pub fn scenarios(&self, scale: Scale) -> Vec<Scenario> {
        (self.build)(scale)
    }
}

/// All catalog entries, in the paper's figure/table order.
pub fn entries() -> &'static [CatalogEntry] {
    &ENTRIES
}

/// Looks up an entry by name.
pub fn find(name: &str) -> Option<&'static CatalogEntry> {
    ENTRIES.iter().find(|e| e.name == name)
}

/// Names of every catalog entry, in the paper's figure/table order — the
/// canonical job list for server and fleet smoke sweeps (`capsule-loadgen`
/// cycles through it, and the fleet-vs-direct-server parity test drives
/// exactly this list at smoke scale).
pub fn names() -> Vec<&'static str> {
    ENTRIES.iter().map(|e| e.name).collect()
}

static ENTRIES: [CatalogEntry; 16] = [
    CatalogEntry {
        name: "fig3_dijkstra_dist",
        title: "Figure 3 — Dijkstra distribution",
        about: "execution-time distribution of Dijkstra over random graphs",
        build: fig3_dijkstra_dist,
    },
    CatalogEntry {
        name: "fig5_quicksort_dist",
        title: "Figure 5 — QuickSort distribution",
        about: "execution-time distribution of QuickSort over shaped lists",
        build: fig5_quicksort_dist,
    },
    CatalogEntry {
        name: "fig6_division_tree",
        title: "Figure 6 — QuickSort division genealogy",
        about: "division genealogy of one component QuickSort run",
        build: fig6_division_tree,
    },
    CatalogEntry {
        name: "fig7_throttling",
        title: "Figure 7 — division throttling",
        about: "death-rate throttle on small parallel sections (LZW, Perceptron)",
        build: fig7_throttling,
    },
    CatalogEntry {
        name: "fig8_spec_speedups",
        title: "Figure 8 — SPEC analog speedups",
        about: "SPEC CINT2000 analog speedups, SOMT vs superscalar",
        build: fig8_spec_speedups,
    },
    CatalogEntry {
        name: "table1_config",
        title: "Table 1 — baseline configuration smoke run",
        about: "smoke run of the three Table 1 machine configurations",
        build: table1_config,
    },
    CatalogEntry {
        name: "table2_componentization",
        title: "Table 2 — componentization",
        about: "componentized-section share of the SPEC analogs",
        build: table2_componentization,
    },
    CatalogEntry {
        name: "table3_divisions",
        title: "Table 3 — division rates",
        about: "successful-division percentage and rate on the SOMT",
        build: table3_divisions,
    },
    CatalogEntry {
        name: "ablation_policies",
        title: "Ablations — interpretation choices",
        about: "divide-to-stack, death-rate window and swap-threshold ablations",
        build: ablation_policies,
    },
    CatalogEntry {
        name: "cmp_scaling",
        title: "§5 — CMP extrapolation",
        about: "8 contexts as 1x8 through 8x1 cores, plus remote-division latency",
        build: cmp_scaling,
    },
    CatalogEntry {
        name: "sens_crafty_contexts",
        title: "§5 — crafty context study",
        about: "crafty's software pool vs context count",
        build: sens_crafty_contexts,
    },
    CatalogEntry {
        name: "sens_division_latency",
        title: "§5 — division-latency sensitivity",
        about: "division-latency sweep on division-heavy workloads",
        build: sens_division_latency,
    },
    CatalogEntry {
        name: "sens_vpr_cache",
        title: "§5 — vpr cache sensitivity",
        about: "vpr with Table 1 caches vs doubled capacity and ports",
        build: sens_vpr_cache,
    },
    CatalogEntry {
        name: "toolchain_overhead",
        title: "§3.2 — toolchain overhead per division",
        about: "software cost of the coworker lowering per division probe",
        build: toolchain_overhead,
    },
    CatalogEntry {
        name: "fuzz_regress",
        title: "Fuzzing — minimized corpus regression",
        about: "replays the embedded capsule-fuzz corpus on the Table 1 machines",
        build: crate::fuzz::fuzz_regress,
    },
    CatalogEntry {
        name: "fuzz_gen",
        title: "Fuzzing — seeded generated programs",
        about: "seeded fuzz programs checked against the reference interpreter",
        build: crate::fuzz::fuzz_gen,
    },
];

type SharedWorkload = Arc<dyn Workload + Send + Sync>;

// --- Scale-dependent parameters the binaries also print ------------------

/// Figure 3 sweep size: (graphs, nodes per graph).
pub fn fig3_params(scale: Scale) -> (usize, usize) {
    (scale.pick(4, 20, 100), scale.pick(60, 250, 1000))
}

/// Figure 5 sweep size: (lists, values per list).
pub fn fig5_params(scale: Scale) -> (usize, usize) {
    (scale.pick(5, 25, 500), scale.pick(120, 800, 4000))
}

/// §3.2 probe count.
pub fn toolchain_probes(scale: Scale) -> usize {
    scale.pick(200, 1000, 10_000)
}

// --- Shared smoke-scale SPEC instances -----------------------------------

fn mcf_at(scale: Scale) -> SharedWorkload {
    match scale {
        Scale::Smoke => Arc::new(Mcf::new(Tree::random(17, 7, 2, 3, 200, 50), 2)),
        Scale::Quick => Arc::new(Mcf::standard(17)),
        Scale::Full => Arc::new(Mcf::standard(18)),
    }
}

fn vpr_at(scale: Scale) -> SharedWorkload {
    Arc::new(Vpr::standard(19, scale.pick(7, 10, 14), scale.pick(3, 6, 10), 2))
}

fn bzip2_at(scale: Scale) -> SharedWorkload {
    match scale {
        Scale::Smoke => Arc::new(Bzip2::new(lzw_text(23, 160, 6), 2)),
        Scale::Quick => Arc::new(Bzip2::standard(23, 280)),
        Scale::Full => Arc::new(Bzip2::standard(23, 700)),
    }
}

fn crafty_at(scale: Scale, pool: usize) -> SharedWorkload {
    match scale {
        // Standard's shape (a wide grafted root consumed in waves) over
        // fewer, shallower subtrees.
        Scale::Smoke => {
            let subs: Vec<(i64, Tree)> = (0..8)
                .map(|i| ((i * 13) % 50 + 1, Tree::random(2900 + i as u64, 5, 2, 3, 160, 60)))
                .collect();
            Arc::new(Crafty::new(Tree::graft(subs), pool))
        }
        _ => Arc::new(Crafty::standard(29, pool)),
    }
}

// --- Entry builders ------------------------------------------------------

fn fig3_dijkstra_dist(scale: Scale) -> Vec<Scenario> {
    let (graphs, nodes) = fig3_params(scale);
    let mut scenarios = Vec::new();
    for g in 0..graphs {
        let w: SharedWorkload = Arc::new(Dijkstra::figure3(1000 + g as u64, nodes));
        scenarios.push(Scenario::new(
            "superscalar",
            format!("g{g}"),
            MachineConfig::table1_superscalar(),
            Variant::Sequential,
            Arc::clone(&w),
        ));
        scenarios.push(Scenario::new(
            "smt_static",
            format!("g{g}"),
            MachineConfig::table1_smt(),
            Variant::Static(8),
            Arc::clone(&w),
        ));
        scenarios.push(Scenario::new(
            "somt_component",
            format!("g{g}"),
            MachineConfig::table1_somt(),
            Variant::Component,
            w,
        ));
    }
    scenarios
}

fn fig5_quicksort_dist(scale: Scale) -> Vec<Scenario> {
    let (lists, len) = fig5_params(scale);
    let mut scenarios = Vec::new();
    for i in 0..lists {
        let shape = ListShape::ALL[i % ListShape::ALL.len()];
        let w: SharedWorkload = Arc::new(QuickSort::new(random_list(2000 + i as u64, len, shape)));
        scenarios.push(Scenario::new(
            "superscalar",
            format!("l{i}"),
            MachineConfig::table1_superscalar(),
            Variant::Sequential,
            Arc::clone(&w),
        ));
        scenarios.push(Scenario::new(
            "smt_static",
            format!("l{i}"),
            MachineConfig::table1_smt(),
            Variant::Static(8),
            Arc::clone(&w),
        ));
        scenarios.push(Scenario::new(
            "somt_component",
            format!("l{i}"),
            MachineConfig::table1_somt(),
            Variant::Component,
            w,
        ));
    }
    scenarios
}

fn fig6_division_tree(scale: Scale) -> Vec<Scenario> {
    let len = scale.pick(400, 3000, 12000);
    vec![Scenario::new(
        "somt",
        "uniform",
        MachineConfig::table1_somt(),
        Variant::Component,
        Arc::new(QuickSort::new(random_list(4242, len, ListShape::Uniform))),
    )]
}

fn fig7_throttling(scale: Scale) -> Vec<Scenario> {
    let lzw: SharedWorkload = Arc::new(Lzw::figure7(5, scale.pick(300, 2000, 4096)));
    let perc: SharedWorkload = Arc::new(
        Perceptron::figure7(
            3,
            scale.pick(8, 10, 12),
            scale.pick(256, 2048, 10000),
            scale.pick(2, 3, 4),
        )
        .with_leaf(8),
    );

    let mut scenarios = Vec::new();
    for (wname, w) in [("LZW", &lzw), ("Perceptron", &perc)] {
        for (policy, mode) in
            [("greedy", DivisionMode::Greedy), ("throttled", DivisionMode::GreedyThrottled)]
        {
            let mut cfg = MachineConfig::table1_somt();
            cfg.division_mode = mode;
            scenarios.push(Scenario::new(
                format!("{wname}/{policy}"),
                policy,
                cfg,
                Variant::Component,
                Arc::clone(w),
            ));
        }
    }
    scenarios
}

fn fig8_spec_speedups(scale: Scale) -> Vec<Scenario> {
    let rows: [(&str, SharedWorkload); 4] = [
        ("mcf", mcf_at(scale)),
        ("vpr", vpr_at(scale)),
        ("bzip2", bzip2_at(scale)),
        ("crafty", crafty_at(scale, 8)),
    ];
    let mut scenarios = Vec::new();
    for (name, w) in &rows {
        // crafty has no sequential rewrite in the paper either; its
        // baseline is the pool-of-one on the superscalar.
        scenarios.push(Scenario::new(
            format!("{name}/scalar"),
            "scalar",
            MachineConfig::table1_superscalar(),
            Variant::Sequential,
            Arc::clone(w),
        ));
        scenarios.push(Scenario::new(
            format!("{name}/somt"),
            "somt",
            MachineConfig::table1_somt(),
            Variant::Component,
            Arc::clone(w),
        ));
    }
    scenarios
}

fn table1_config(_scale: Scale) -> Vec<Scenario> {
    let w = Arc::new(Dijkstra::figure3(1, 40));
    vec![
        Scenario::new("somt", "smoke", MachineConfig::table1_somt(), Variant::Component, w.clone()),
        Scenario::new("smt", "smoke", MachineConfig::table1_smt(), Variant::Static(8), w.clone()),
        Scenario::new(
            "superscalar",
            "smoke",
            MachineConfig::table1_superscalar(),
            Variant::Sequential,
            w,
        ),
    ]
}

fn table2_componentization(scale: Scale) -> Vec<Scenario> {
    [
        ("181.mcf", mcf_at(scale)),
        ("175.vpr", vpr_at(scale)),
        ("256.bzip2", bzip2_at(scale)),
        ("186.crafty", crafty_at(scale, 8)),
    ]
    .into_iter()
    .map(|(name, w)| {
        Scenario::new(
            name,
            "sequential",
            MachineConfig::table1_superscalar(),
            Variant::Sequential,
            w,
        )
    })
    .collect()
}

fn table3_divisions(scale: Scale) -> Vec<Scenario> {
    [("mcf", mcf_at(scale)), ("vpr", vpr_at(scale)), ("bzip2", bzip2_at(scale))]
        .into_iter()
        .map(|(name, w)| {
            Scenario::new(name, "component", MachineConfig::table1_somt(), Variant::Component, w)
        })
        .collect()
}

fn ablation_policies(scale: Scale) -> Vec<Scenario> {
    let dij: SharedWorkload = Arc::new(Dijkstra::figure3(7, scale.pick(60, 250, 1000)));
    let lzw: SharedWorkload = Arc::new(Lzw::figure7(5, scale.pick(300, 2000, 4096)));
    let vpr: SharedWorkload =
        Arc::new(Vpr::standard(19, scale.pick(7, 12, 20), scale.pick(3, 8, 12), 2));

    let mut scenarios = Vec::new();
    for (name, w) in [("dijkstra", &dij), ("lzw", &lzw)] {
        for allow in [true, false] {
            let mut cfg = MachineConfig::table1_somt();
            cfg.allow_divide_to_stack = allow;
            scenarios.push(Scenario::new(
                format!("stack/{name}/{allow}"),
                format!("{allow}"),
                cfg,
                Variant::Component,
                Arc::clone(w),
            ));
        }
    }
    for window in [32u64, 128, 512, 2048] {
        let mut cfg = MachineConfig::table1_somt();
        cfg.death_window = window;
        scenarios.push(Scenario::new(
            format!("window/{window}"),
            format!("{window}"),
            cfg,
            Variant::Component,
            Arc::clone(&lzw),
        ));
    }
    for thr in [32i64, 256, 1024] {
        let mut cfg = MachineConfig::table1_somt();
        cfg.swap_counter_threshold = thr;
        scenarios.push(Scenario::new(
            format!("swap/{thr}"),
            format!("{thr}"),
            cfg,
            Variant::Component,
            Arc::clone(&vpr),
        ));
    }
    scenarios
}

fn cmp_scaling(scale: Scale) -> Vec<Scenario> {
    const ORGS: [(usize, usize); 4] = [(1, 8), (2, 4), (4, 2), (8, 1)];
    const REMOTE_LATENCIES: [u64; 4] = [0, 50, 100, 200];

    let dij: SharedWorkload = Arc::new(Dijkstra::figure3(7, scale.pick(60, 250, 1000)));
    let mcf = mcf_at(scale);

    let mut scenarios = Vec::new();
    for (name, w) in [("dijkstra", &dij), ("mcf", &mcf)] {
        for (cores, per_core) in ORGS {
            scenarios.push(Scenario::new(
                format!("org/{name}/{cores}x{per_core}"),
                format!("{cores}x{per_core}"),
                MachineConfig::cmp_somt(cores, per_core),
                Variant::Component,
                Arc::clone(w),
            ));
        }
    }
    for remote in REMOTE_LATENCIES {
        let mut cfg = MachineConfig::cmp_somt(4, 2);
        cfg.remote_division_latency = remote;
        scenarios.push(Scenario::new(
            format!("latency/{remote}"),
            format!("{remote}"),
            cfg,
            Variant::Component,
            Arc::clone(&mcf),
        ));
    }
    scenarios
}

fn sens_crafty_contexts(scale: Scale) -> Vec<Scenario> {
    const CONTEXTS: [usize; 3] = [2, 4, 8];
    let mut scenarios = vec![Scenario::new(
        "baseline",
        "pool1",
        MachineConfig::table1_superscalar(),
        Variant::Sequential,
        crafty_at(scale, 1),
    )];
    for contexts in CONTEXTS {
        let mut cfg = MachineConfig::table1_somt();
        cfg.contexts = contexts;
        scenarios.push(Scenario::new(
            format!("somt/{contexts}"),
            format!("pool{contexts}"),
            cfg,
            Variant::Component,
            crafty_at(scale, contexts),
        ));
    }
    scenarios
}

fn sens_division_latency(scale: Scale) -> Vec<Scenario> {
    const LATENCIES: [u64; 5] = [0, 25, 50, 100, 200];
    let mcf = mcf_at(scale);
    let dij: SharedWorkload = Arc::new(Dijkstra::figure3(7, scale.pick(60, 250, 1000)));

    let mut scenarios = Vec::new();
    for (name, w) in [("mcf", &mcf), ("dijkstra", &dij)] {
        for lat in LATENCIES {
            let mut cfg = MachineConfig::table1_somt();
            cfg.division_latency = lat;
            scenarios.push(Scenario::new(
                format!("{name}/{lat}"),
                format!("{lat}"),
                cfg,
                Variant::Component,
                Arc::clone(w),
            ));
        }
    }
    scenarios
}

fn sens_vpr_cache(scale: Scale) -> Vec<Scenario> {
    // A larger grid than the Figure 8 default makes vpr properly
    // cache-hungry.
    let w: SharedWorkload =
        Arc::new(Vpr::standard(19, scale.pick(8, 16, 24), scale.pick(4, 8, 12), 2));

    let mut scenarios = Vec::new();
    for (tag, double) in [("base", false), ("doubled", true)] {
        let mut scalar_cfg = MachineConfig::table1_superscalar();
        let mut somt_cfg = MachineConfig::table1_somt();
        if double {
            for cfg in [&mut scalar_cfg, &mut somt_cfg] {
                cfg.l1d = cfg.l1d.doubled();
                cfg.l2 = cfg.l2.doubled();
            }
        }
        scenarios.push(Scenario::new(
            format!("{tag}/scalar"),
            tag,
            scalar_cfg,
            Variant::Sequential,
            Arc::clone(&w),
        ));
        scenarios.push(Scenario::new(
            format!("{tag}/somt"),
            tag,
            somt_cfg,
            Variant::Component,
            Arc::clone(&w),
        ));
    }
    scenarios
}

fn toolchain_overhead(scale: Scale) -> Vec<Scenario> {
    let n = toolchain_probes(scale);
    let plain = probe_overhead_program(n, false);
    let probed = probe_overhead_program(n, true);
    vec![
        Scenario::raw(
            "scalar/plain",
            "plain",
            MachineConfig::table1_superscalar(),
            "probe-overhead-plain",
            plain.clone(),
        ),
        Scenario::raw(
            "scalar/coworker",
            "coworker",
            MachineConfig::table1_superscalar(),
            "probe-overhead-coworker",
            probed.clone(),
        ),
        Scenario::raw(
            "somt/plain",
            "plain",
            MachineConfig::table1_somt(),
            "probe-overhead-plain",
            plain,
        ),
        Scenario::raw(
            "somt/coworker",
            "coworker",
            MachineConfig::table1_somt(),
            "probe-overhead-coworker",
            probed,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_match_lookup() {
        for e in entries() {
            assert!(std::ptr::eq(find(e.name).expect("findable"), e));
        }
        let mut names: Vec<_> = entries().iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), entries().len());
    }

    #[test]
    fn names_lists_every_entry_in_order() {
        let listed = names();
        assert_eq!(listed.len(), entries().len());
        for (name, e) in listed.iter().zip(entries()) {
            assert_eq!(*name, e.name);
        }
    }

    #[test]
    fn every_entry_builds_at_smoke_scale() {
        for e in entries() {
            let scenarios = (e.build)(Scale::Smoke);
            assert!(!scenarios.is_empty(), "{} builds no scenarios", e.name);
        }
    }

    #[test]
    fn quick_scale_builds_the_historical_batches() {
        // Spot-check sizes against the pre-catalog binaries.
        assert_eq!((find("fig3_dijkstra_dist").unwrap().build)(Scale::Quick).len(), 20 * 3);
        assert_eq!((find("fig5_quicksort_dist").unwrap().build)(Scale::Quick).len(), 25 * 3);
        assert_eq!((find("fig7_throttling").unwrap().build)(Scale::Quick).len(), 4);
        assert_eq!((find("ablation_policies").unwrap().build)(Scale::Quick).len(), 4 + 4 + 3);
        assert_eq!((find("cmp_scaling").unwrap().build)(Scale::Quick).len(), 8 + 4);
        assert_eq!((find("toolchain_overhead").unwrap().build)(Scale::Quick).len(), 4);
    }

    #[test]
    fn scale_names_roundtrip() {
        for s in [Scale::Smoke, Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("paper"), None);
    }
}
