//! Versioned binary snapshots of a running [`Machine`](crate::Machine).
//!
//! A snapshot captures the complete machine state at a cycle boundary —
//! arena columns, per-context architectural and rename state, RUU/LSQ
//! occupancy, the ready list, the pending completion events, predictor
//! tables, the lock table, the LIFO context stack, cache and memory
//! contents, the division-policy death window, and all statistics — so
//! that `restore` + `run` is cycle-for-cycle identical to an
//! uninterrupted run. The blob is self-describing: a fixed header
//! carries a magic word, the format version, and an FNV hash of the
//! machine configuration and the loaded program, so a blob can only be
//! restored into a machine prepared with the same config and program.
//!
//! Layout: `MAGIC (u64) | FORMAT_VERSION (u32) | sig (u64) | body`.
//! The body is the machine's field-by-field encoding (see
//! `Machine::encode_state`); every section is length-prefixed and
//! validated on decode, so truncated or corrupted blobs surface as
//! [`SimError::SnapshotMismatch`], never a panic.

use capsule_core::codec::{CodecError, Fnv64, Reader, Writer};
use capsule_core::config::{CacheParams, DivisionMode, MachineConfig};
use capsule_isa::program::Program;

use crate::outcome::{SimError, StageCount, StageProfile};

/// Magic prefix of every snapshot blob (`"CAPSNAP1"` as a
/// little-endian u64).
pub const MAGIC: u64 = u64::from_le_bytes(*b"CAPSNAP1");

/// Current snapshot format version. Bump on any layout change; restore
/// rejects other versions.
pub const FORMAT_VERSION: u32 = 1;

/// Maps a codec failure inside the snapshot body to the structured
/// restore error.
pub(crate) fn reject(e: CodecError) -> SimError {
    SimError::SnapshotMismatch { reason: e.to_string() }
}

/// Writes the snapshot header.
pub(crate) fn write_header(w: &mut Writer, sig: u64) {
    w.u64(MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(sig);
}

/// Validates the snapshot header against this machine's identity hash.
///
/// # Errors
///
/// [`SimError::SnapshotMismatch`] on a truncated header, wrong magic,
/// unsupported format version, or config/program hash mismatch.
pub(crate) fn check_header(r: &mut Reader<'_>, sig: u64) -> Result<(), SimError> {
    let magic = r.u64().map_err(|_| SimError::SnapshotMismatch {
        reason: "blob shorter than the snapshot header".to_string(),
    })?;
    if magic != MAGIC {
        return Err(SimError::SnapshotMismatch {
            reason: "not a capsule snapshot (bad magic)".to_string(),
        });
    }
    let version = r.u32().map_err(reject)?;
    if version != FORMAT_VERSION {
        return Err(SimError::SnapshotMismatch {
            reason: format!("format version {version}, this build reads {FORMAT_VERSION}"),
        });
    }
    let got = r.u64().map_err(reject)?;
    if got != sig {
        return Err(SimError::SnapshotMismatch {
            reason: "config/program hash mismatch".to_string(),
        });
    }
    Ok(())
}

/// FNV identity hash of a (configuration, program) pair. A snapshot
/// taken on one machine restores only into a machine whose hash
/// matches — same timing model, same text, same data image. It runs on
/// every machine reset, so the text and stored data go in a word per
/// step and the data image's zero tail in one.
pub(crate) fn machine_sig(cfg: &MachineConfig, program: &Program) -> u64 {
    let mut h = Fnv64::new();
    hash_config(&mut h, cfg);
    hash_program(&mut h, program);
    h.finish()
}

fn hash_cache(h: &mut Fnv64, c: &CacheParams) {
    h.write_u64(c.size_bytes as u64);
    h.write_u64(c.line_bytes as u64);
    h.write_u64(c.assoc as u64);
    h.write_u64(c.latency);
    h.write_u64(c.ports as u64);
}

fn hash_config(h: &mut Fnv64, cfg: &MachineConfig) {
    h.write_u64(cfg.contexts as u64);
    h.write_u64(cfg.fetch_width as u64);
    h.write_u64(cfg.fetch_threads as u64);
    h.write_u64(cfg.fetch_per_thread as u64);
    h.write_u64(cfg.decode_width as u64);
    h.write_u64(cfg.issue_width as u64);
    h.write_u64(cfg.commit_width as u64);
    h.write_u64(cfg.ruu_size as u64);
    h.write_u64(cfg.lsq_size as u64);
    h.write_u64(cfg.fus.ialu as u64);
    h.write_u64(cfg.fus.imult as u64);
    h.write_u64(cfg.fus.fpalu as u64);
    h.write_u64(cfg.fus.fpmult as u64);
    h.write_u64(cfg.predictor.meta_entries as u64);
    h.write_u64(cfg.predictor.bimodal_entries as u64);
    h.write_u64(cfg.predictor.twolevel_entries as u64);
    h.write_u64(cfg.predictor.history_bits as u64);
    h.write_u64(cfg.predictor.mispredict_penalty);
    hash_cache(h, &cfg.l1i);
    hash_cache(h, &cfg.l1d);
    hash_cache(h, &cfg.l2);
    h.write_u64(cfg.mem_latency);
    h.write_u64(match cfg.division_mode {
        DivisionMode::Never => 0,
        DivisionMode::Greedy => 1,
        DivisionMode::GreedyThrottled => 2,
    });
    h.write_u64(cfg.death_window);
    h.write_u64(cfg.division_latency);
    h.write_u64(cfg.allow_divide_to_stack as u64);
    h.write_u64(cfg.context_stack_entries as u64);
    h.write_u64(cfg.swap_latency);
    h.write_u64(cfg.swap_load_window as u64);
    h.write_u64(cfg.swap_counter_threshold as u64);
    h.write_u64(cfg.lock_table_entries as u64);
    h.write_u64(cfg.cores as u64);
    h.write_u64(cfg.remote_division_latency);
    h.write_u64(cfg.lock_squash_penalty);
}

fn hash_program(h: &mut Fnv64, program: &Program) {
    h.write_u64(program.text.len() as u64);
    for instr in &program.text {
        match capsule_isa::encode::encode(instr) {
            Ok([a, b]) => {
                h.write_word(a);
                h.write_word(b);
            }
            // Unencodable instructions cannot come from the assembler;
            // fall back to the debug form so the hash stays total.
            Err(_) => h.write(format!("{instr:?}").as_bytes()),
        }
    }
    // The laid-out data image goes in a little-endian word at a time; a
    // short tail is zero-padded to a word (the length above tells it
    // apart). The stored bytes go word by word, the zero words after
    // them in one step.
    h.write_u64(program.data_len as u64);
    let words = program.data.chunks_exact(8);
    let tail = words.remainder();
    for w in words {
        h.write_word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h.write_word(u64::from_le_bytes(last));
    }
    h.write_zero_words((program.data_len.div_ceil(8) - program.data.len().div_ceil(8)) as u64);
    h.write_u64(program.mem_size as u64);
    h.write_u64(program.threads.len() as u64);
    for t in &program.threads {
        h.write_u64(t.pc as u64);
        h.write_u64(t.int_regs.len() as u64);
        for &(r, v) in &t.int_regs {
            h.write_u64(r.index() as u64);
            h.write_u64(v as u64);
        }
        h.write_u64(t.fp_regs.len() as u64);
        for &(f, v) in &t.fp_regs {
            h.write_u64(f.index() as u64);
            h.write_u64(v.to_bits());
        }
    }
}

pub(crate) fn encode_stage_profile(w: &mut Writer, p: &StageProfile) {
    for c in [&p.fetch, &p.dispatch, &p.issue, &p.complete, &p.commit] {
        w.u64(c.active_cycles);
        w.u64(c.units);
    }
    w.u64(p.stepped_cycles);
    w.u64(p.fast_forwards);
    w.u64(p.skipped_cycles);
}

pub(crate) fn decode_stage_profile(r: &mut Reader<'_>) -> Result<StageProfile, CodecError> {
    let mut p = StageProfile::default();
    for c in [&mut p.fetch, &mut p.dispatch, &mut p.issue, &mut p.complete, &mut p.commit] {
        *c = StageCount { active_cycles: r.u64()?, units: r.u64()? };
    }
    p.stepped_cycles = r.u64()?;
    p.fast_forwards = r.u64()?;
    p.skipped_cycles = r.u64()?;
    Ok(p)
}
