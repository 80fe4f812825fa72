//! Checkpoint/restore equivalence: a checkpointed, preempted and resumed
//! batch must be cycle-for-cycle — and byte-for-byte — identical to an
//! uninterrupted run.
//!
//! Three contracts are pinned here:
//!
//! - **Round-trip determinism** for *every* catalog smoke entry: parking
//!   the job mid-scenario (so the blob carries a machine snapshot) and
//!   resuming it produces the exact `SimOutcome` list and report bytes of
//!   a plain `BatchRunner` run.
//! - **Preemption transparency** (seeded, property-style): parking a job
//!   at random checkpoint boundaries — including migrating the blob to a
//!   different warmed machine, as the fleet does across backends — never
//!   changes a single simulated number.
//! - **Warm-pool hygiene**: a machine that finished a restored run leaves
//!   no residue for the next fresh job (the `reset_equivalence` contract,
//!   extended to restores).

use capsule_bench::catalog::{self, Scale};
use capsule_bench::checkpoint::{run_checkpointed, CheckpointFailure, CheckpointOutcome};
use capsule_bench::{BatchReport, BatchRunner, RunOptions, BUDGET};
use capsule_core::codec::Reader;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_sim::machine::{Machine, WarmMachine};
use capsule_sim::SimOutcome;

const OPTS: RunOptions = RunOptions { profile: true, trace: Some(4096) };

fn uninterrupted(name: &str) -> BatchReport {
    let entry = catalog::find(name).expect("catalog entry exists");
    BatchRunner::with_workers(1)
        .try_run_opts(entry.title, entry.scenarios(Scale::Smoke), BUDGET, None, OPTS)
        .expect("catalog smoke batch succeeds")
}

fn outcomes_debug(report: &BatchReport) -> String {
    let outcomes: Vec<_> = report.records.iter().map(|r| &r.outcome).collect();
    format!("{outcomes:#?}")
}

/// A `should_park` that answers yes at exactly its `n`th poll.
fn park_at_poll(n: u32) -> impl FnMut() -> bool {
    let mut polls = 0;
    move || {
        polls += 1;
        polls == n
    }
}

/// True when a job blob carries an in-flight machine snapshot: walks the
/// documented layout (header, finished outcomes, `has_snapshot` tag) and
/// checks that the embedded bytes open with the `CAPSNAP1` magic.
fn carries_snapshot(blob: &[u8]) -> bool {
    let mut r = Reader::new(blob);
    r.u64().expect("magic");
    r.u32().expect("version");
    r.usize().expect("scenario count");
    for _ in 0..r.usize().expect("finished count") {
        SimOutcome::decode(&mut r).expect("finished outcome");
    }
    r.u8().expect("snapshot tag") == 1
        && r.bytes().expect("snapshot").starts_with(&capsule_sim::snapshot::MAGIC.to_le_bytes())
}

#[test]
fn every_smoke_entry_roundtrips_through_checkpoints() {
    let mut warm = WarmMachine::new();
    for name in catalog::names() {
        let entry = catalog::find(name).expect("catalog entry exists");
        let baseline = uninterrupted(name);
        // Park at the second poll of each leg (the first comes before the
        // leg's scenario starts) until a park lands mid-scenario, then run
        // the job out from that blob.
        let mut blob: Option<Vec<u8>> = None;
        let mut parked_mid_run = false;
        let report = loop {
            let mut park = park_at_poll(2);
            let outcome = run_checkpointed(
                entry.title,
                entry.scenarios(Scale::Smoke),
                BUDGET,
                None,
                OPTS,
                &mut warm,
                2_000,
                blob.as_deref(),
                || !parked_mid_run && park(),
            )
            .expect("checkpointed batch succeeds");
            match outcome {
                CheckpointOutcome::Done(report) => break report,
                CheckpointOutcome::Preempted(b) => {
                    assert!(!parked_mid_run, "{name}: preempted without a preempt request");
                    parked_mid_run = carries_snapshot(&b);
                    blob = Some(b);
                }
            }
        };
        assert_eq!(
            outcomes_debug(&report),
            outcomes_debug(&baseline),
            "{name}: checkpointed outcomes diverged from the uninterrupted run"
        );
        assert_eq!(
            report.to_json().to_string_pretty(),
            baseline.to_json().to_string_pretty(),
            "{name}: checkpointed report bytes diverged"
        );
        assert!(parked_mid_run, "{name}: no park ever landed mid-scenario");
    }
}

/// Parks one short division-heavy smoke scenario at every cycle
/// boundary its run stops at and resumes it from the blob each time.
/// A restored machine has not run the complete stage of its current
/// cycle yet, so an event due at that cycle must fire there: filing it
/// a cycle late shows up here as a changed report.
#[test]
fn parking_at_every_cycle_boundary_changes_no_report_byte() {
    let entry = catalog::find("fuzz_regress").expect("catalog entry exists");
    let scenarios: Vec<_> = entry
        .scenarios(Scale::Smoke)
        .into_iter()
        .filter(|sc| sc.group == "somt" && sc.label == "near-miss-division")
        .collect();
    assert_eq!(scenarios.len(), 1, "the scenario is in the catalog");
    let baseline = BatchRunner::with_workers(1)
        .try_run_opts(entry.title, scenarios.clone(), BUDGET, None, OPTS)
        .expect("smoke scenario succeeds");
    let cycles = baseline.records[0].outcome.cycles();

    let mut warm = WarmMachine::new();
    let mut blob: Option<Vec<u8>> = None;
    let mut parks = 0u64;
    let report = loop {
        // Poll 1 comes before the scenario (re)starts, poll 2 at the
        // first boundary after it: one step per leg.
        let leg = run_checkpointed(
            entry.title,
            scenarios.clone(),
            BUDGET,
            None,
            OPTS,
            &mut warm,
            1,
            blob.as_deref(),
            park_at_poll(2),
        )
        .expect("checkpointed leg succeeds");
        match leg {
            CheckpointOutcome::Done(report) => break report,
            CheckpointOutcome::Preempted(b) => {
                parks += 1;
                assert!(parks <= cycles, "{parks} parks in a {cycles}-cycle run: no progress");
                blob = Some(b);
            }
        }
    };
    let stepped = baseline.records[0].outcome.profile.as_ref().expect("profiled").stepped_cycles;
    assert!(parks + 1 >= stepped, "{parks} parks over {stepped} stepped of {cycles} cycles");
    assert_eq!(
        report.to_json().to_string_pretty(),
        baseline.to_json().to_string_pretty(),
        "parking at every boundary changed the report"
    );
}

/// Seeded property test: preempt at random checkpoint boundaries,
/// resuming alternately on the same warmed machine and on a fresh one
/// (the migration case), until the batch completes. The final report
/// must match the uninterrupted run byte-for-byte.
#[test]
fn random_preemption_points_never_change_the_report() {
    const ENTRIES: [&str; 3] = ["table1_config", "fig6_division_tree", "fig7_throttling"];
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xCAF5_0135);
    for name in ENTRIES {
        let entry = catalog::find(name).expect("catalog entry exists");
        let baseline = uninterrupted(name);
        let mut warm = WarmMachine::new();
        let mut blob: Option<Vec<u8>> = None;
        let mut preemptions = 0usize;
        let report = loop {
            // A fresh interval per leg lands the pauses on different
            // cycle boundaries each time the job resumes.
            let interval = 500 + rng.u64_below(3_000);
            let after = rng.u64_below(4);
            let mut seen = 0u64;
            let result = run_checkpointed(
                entry.title,
                entry.scenarios(Scale::Smoke),
                BUDGET,
                None,
                OPTS,
                &mut warm,
                interval,
                blob.as_deref(),
                || {
                    seen += 1;
                    seen > after
                },
            )
            .expect("checkpointed batch succeeds");
            match result {
                CheckpointOutcome::Done(report) => break report,
                CheckpointOutcome::Preempted(b) => {
                    preemptions += 1;
                    blob = Some(b);
                    if preemptions % 2 == 1 {
                        // Migrate: resume on a brand-new machine.
                        warm = WarmMachine::new();
                    }
                    // Give up preempting eventually so the test ends.
                    if preemptions >= 4 {
                        let report = match run_checkpointed(
                            entry.title,
                            entry.scenarios(Scale::Smoke),
                            BUDGET,
                            None,
                            OPTS,
                            &mut warm,
                            interval,
                            blob.as_deref(),
                            || false,
                        )
                        .expect("final leg succeeds")
                        {
                            CheckpointOutcome::Done(report) => report,
                            CheckpointOutcome::Preempted(_) => {
                                panic!("preempted without a preempt request")
                            }
                        };
                        break report;
                    }
                }
            }
        };
        assert!(preemptions > 0, "{name}: the seed never preempted; weaken `after`");
        assert_eq!(
            outcomes_debug(&report),
            outcomes_debug(&baseline),
            "{name}: preempted+resumed outcomes diverged"
        );
        assert_eq!(
            report.to_json().to_string_pretty(),
            baseline.to_json().to_string_pretty(),
            "{name}: preempted+resumed report bytes diverged"
        );
    }
}

/// A warmed machine that restored a snapshot and finished that run must
/// be indistinguishable from fresh for the next job (no leaked arena,
/// predictor, cache or policy state).
#[test]
fn warm_machine_is_clean_after_a_restored_job() {
    let entry = catalog::find("table1_config").expect("catalog entry exists");
    let mut warm = WarmMachine::new();

    // Leg 1: run the job through a preemption + restore on `warm`.
    let first = run_checkpointed(
        entry.title,
        entry.scenarios(Scale::Smoke),
        BUDGET,
        None,
        OPTS,
        &mut warm,
        300,
        None,
        park_at_poll(2),
    )
    .expect("leg 1 succeeds");
    let CheckpointOutcome::Preempted(blob) = first else {
        panic!("job must be preempted at the first checkpoint");
    };
    assert!(carries_snapshot(&blob), "the first checkpoint must land mid-scenario");
    match run_checkpointed(
        entry.title,
        entry.scenarios(Scale::Smoke),
        BUDGET,
        None,
        OPTS,
        &mut warm,
        300,
        Some(&blob),
        || false,
    )
    .expect("leg 2 succeeds")
    {
        CheckpointOutcome::Done(_) => {}
        CheckpointOutcome::Preempted(_) => panic!("preempted without a preempt request"),
    }

    // Leg 2: a different fresh scenario on the used machine must match a
    // brand-new machine exactly.
    let probe = catalog::find("fig6_division_tree").expect("catalog entry exists");
    let sc = &probe.scenarios(Scale::Smoke)[0];
    let program = sc.workload.program(sc.variant);
    let mut fresh = Machine::new(sc.config.clone(), &program).expect("machine builds");
    fresh.enable_profile();
    fresh.enable_trace(4096);
    let expected = fresh.run(BUDGET).expect("fresh run halts");
    let m = warm.prepare(sc.config.clone(), &program).expect("reset succeeds");
    m.enable_profile();
    m.enable_trace(4096);
    let actual = m.run(BUDGET).expect("warmed run halts");
    assert_eq!(
        format!("{actual:#?}"),
        format!("{expected:#?}"),
        "restored-and-finished machine leaked state into the next fresh job"
    );
}

/// Damaged or foreign blobs must come back as structured
/// `CheckpointFailure::Blob` errors, never a panic or a wrong run.
#[test]
fn damaged_and_foreign_blobs_are_rejected() {
    let entry = catalog::find("table1_config").expect("catalog entry exists");
    let mut warm = WarmMachine::new();
    let parked = run_checkpointed(
        entry.title,
        entry.scenarios(Scale::Smoke),
        BUDGET,
        None,
        RunOptions::default(),
        &mut warm,
        300,
        None,
        park_at_poll(2),
    )
    .expect("parking succeeds");
    let CheckpointOutcome::Preempted(blob) = parked else {
        panic!("job must be preempted at the first checkpoint");
    };
    assert!(carries_snapshot(&blob), "the first checkpoint must land mid-scenario");

    let resume = |blob: &[u8], scenarios| {
        run_checkpointed(
            entry.title,
            scenarios,
            BUDGET,
            None,
            RunOptions::default(),
            &mut WarmMachine::new(),
            300,
            Some(blob),
            || false,
        )
    };

    // Truncations at every prefix length (stride keeps the test fast).
    for cut in (0..blob.len()).step_by(61).chain([blob.len() - 1]) {
        match resume(&blob[..cut], entry.scenarios(Scale::Smoke)) {
            Err(CheckpointFailure::Blob(_)) => {}
            other => panic!("truncated blob at {cut} must be rejected, got {other:?}"),
        }
    }

    // Wrong magic and wrong version.
    let mut bad = blob.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        resume(&bad, entry.scenarios(Scale::Smoke)),
        Err(CheckpointFailure::Blob(r)) if r.contains("magic")
    ));
    let mut bad = blob.clone();
    bad[8] = 0xfe;
    assert!(matches!(
        resume(&bad, entry.scenarios(Scale::Smoke)),
        Err(CheckpointFailure::Blob(r)) if r.contains("version")
    ));

    // A job with a different scenario count.
    let mut short = entry.scenarios(Scale::Smoke);
    short.pop();
    assert!(matches!(
        resume(&blob, short),
        Err(CheckpointFailure::Blob(r)) if r.contains("scenarios")
    ));

    // Same count, different first scenario: the embedded machine
    // snapshot's config/program hash must reject the foreign job.
    let mut swapped = entry.scenarios(Scale::Smoke);
    swapped.reverse();
    assert!(matches!(
        resume(&blob, swapped),
        Err(CheckpointFailure::Blob(r)) if r.contains("hash")
    ));

    // Trailing garbage.
    let mut long = blob.clone();
    long.push(0);
    assert!(matches!(
        resume(&long, entry.scenarios(Scale::Smoke)),
        Err(CheckpointFailure::Blob(r)) if r.contains("trailing")
    ));
}
