//! Internal pipeline structures of the SOMT machine: hardware-context
//! slots, per-thread front-end and window bookkeeping, and the LIFO
//! context stack. The in-flight entries themselves live in the machine's
//! [`crate::arena::EntryArena`]; threads hold dense arena indices.

use std::collections::VecDeque;

use capsule_core::codec::{CodecError, Reader, Writer};

use crate::arena::EntryRef;
use crate::exec::ArchState;

/// Capacity of one thread's fetch queue (the paper uses a double
/// 16-instruction buffer shared by 4 fetching threads).
pub(crate) const FETCH_QUEUE_CAP: usize = 16;

/// What a draining thread does once its in-flight instructions retire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AfterDrain {
    /// `kthr`: free the context, record the death.
    Die,
    /// Swap policy: exchange this thread with the top of the context stack.
    SwapOut,
}

/// State of one hardware context slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// No thread resident.
    Free,
    /// Fetching and dispatching.
    Active,
    /// Dispatch stalled until the mispredicted branch entry completes;
    /// fetch is flushed and resumes at `resume_pc`.
    WaitBranch {
        /// The mispredicted branch entry (generation-checked: if it
        /// retires before the check, it necessarily completed).
        entry: EntryRef,
        /// Correct continuation pc.
        resume_pc: u32,
    },
    /// Blocked in the lock table; woken by an ownership transfer.
    WaitLock {
        /// Cycle at which the stall began (for stall-cycle accounting).
        since: u64,
    },
    /// Child thread waiting for the division register copy.
    WaitCopy {
        /// First cycle at which the thread may fetch.
        until: u64,
    },
    /// Thread being restored from the context stack.
    SwapIn {
        /// First cycle at which the thread may fetch.
        until: u64,
    },
    /// No longer fetching; when the last in-flight entry retires the
    /// action is taken.
    Draining(AfterDrain),
}

impl SlotState {
    /// Serializes the state for checkpoints.
    pub fn encode(self, w: &mut Writer) {
        match self {
            SlotState::Free => w.u8(0),
            SlotState::Active => w.u8(1),
            SlotState::WaitBranch { entry, resume_pc } => {
                w.u8(2);
                entry.encode(w);
                w.u32(resume_pc);
            }
            SlotState::WaitLock { since } => {
                w.u8(3);
                w.u64(since);
            }
            SlotState::WaitCopy { until } => {
                w.u8(4);
                w.u64(until);
            }
            SlotState::SwapIn { until } => {
                w.u8(5);
                w.u64(until);
            }
            SlotState::Draining(AfterDrain::Die) => w.u8(6),
            SlotState::Draining(AfterDrain::SwapOut) => w.u8(7),
        }
    }

    /// Inverse of [`SlotState::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input or an unknown tag.
    pub fn decode(r: &mut Reader<'_>) -> Result<SlotState, CodecError> {
        Ok(match r.u8()? {
            0 => SlotState::Free,
            1 => SlotState::Active,
            2 => SlotState::WaitBranch { entry: EntryRef::decode(r)?, resume_pc: r.u32()? },
            3 => SlotState::WaitLock { since: r.u64()? },
            4 => SlotState::WaitCopy { until: r.u64()? },
            5 => SlotState::SwapIn { until: r.u64()? },
            6 => SlotState::Draining(AfterDrain::Die),
            7 => SlotState::Draining(AfterDrain::SwapOut),
            _ => return Err(CodecError::Invalid("bad slot state tag")),
        })
    }
}

/// One instruction fetched but not yet dispatched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub pc: u32,
    /// For conditional branches: the direction fetch predicted.
    pub predicted_taken: bool,
}

/// A thread resident in a hardware context slot.
#[derive(Debug, Clone)]
pub(crate) struct Thread {
    pub arch: ArchState,
    /// Next pc to fetch; `None` while fetch is stalled (indirect jump,
    /// mispredict flush, death).
    pub fetch_pc: Option<u32>,
    pub fetch_queue: VecDeque<Fetched>,
    /// Global branch history for the predictor.
    pub bp_history: u64,
    /// Arena indices of in-flight entries, in program order.
    pub in_flight: VecDeque<u32>,
    /// Per-register last writer (renaming). Generation-checked: a
    /// reference whose entry retired reads as complete.
    pub last_writer_int: [Option<EntryRef>; 32],
    pub last_writer_fp: [Option<EntryRef>; 32],
    /// Dispatch suppressed until this cycle (division copy stall, lock
    /// squash penalty).
    pub dispatch_block_until: u64,
    /// Fetch suppressed until this cycle (I-cache miss, redirect penalty).
    pub fetch_block_until: u64,
    /// Slow-load counter of the swap heuristic.
    pub slow_counter: i64,
    /// Locks currently owned by this thread. A thread holding hardware
    /// locks is not eligible for swap-out: ownership lives in the lock
    /// table per context slot, and the slot is about to be handed to
    /// another thread.
    pub locks_held: u32,
}

impl Thread {
    pub fn new(arch: ArchState) -> Self {
        let pc = arch.pc;
        Thread {
            arch,
            fetch_pc: Some(pc),
            fetch_queue: VecDeque::new(),
            bp_history: 0,
            in_flight: VecDeque::new(),
            last_writer_int: [None; 32],
            last_writer_fp: [None; 32],
            dispatch_block_until: 0,
            fetch_block_until: 0,
            slow_counter: 0,
            locks_held: 0,
        }
    }

    /// Front-end occupancy used by the ICount fetch policy.
    pub fn icount(&self) -> usize {
        self.fetch_queue.len() + self.in_flight.len()
    }

    /// Flushes the fetch queue (mispredict recovery, death).
    pub fn flush_frontend(&mut self) {
        self.fetch_queue.clear();
        self.fetch_pc = None;
    }

    /// Serializes the complete thread image for checkpoints. `ready`
    /// holds the thread's entries from the machine's ready list, oldest
    /// first.
    pub fn encode(&self, w: &mut Writer, ready: &[u32]) {
        self.arch.encode(w);
        w.opt_u64(self.fetch_pc.map(u64::from));
        w.usize(self.fetch_queue.len());
        for f in &self.fetch_queue {
            w.u32(f.pc);
            w.bool(f.predicted_taken);
        }
        w.u64(self.bp_history);
        w.usize(self.in_flight.len());
        for &idx in &self.in_flight {
            w.u32(idx);
        }
        w.usize(ready.len());
        for &idx in ready {
            w.u32(idx);
        }
        for table in [&self.last_writer_int, &self.last_writer_fp] {
            for lw in table {
                match lw {
                    None => w.u8(0),
                    Some(e) => {
                        w.u8(1);
                        e.encode(w);
                    }
                }
            }
        }
        w.u64(self.dispatch_block_until);
        w.u64(self.fetch_block_until);
        w.i64(self.slow_counter);
        w.u32(self.locks_held);
    }

    /// Inverse of [`Thread::encode`]: the thread and its ready entries.
    /// `arena_len` bounds the window indices the thread may reference.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or ill-formed input (dangling arena
    /// indices, oversized queues).
    pub fn decode(r: &mut Reader<'_>, arena_len: usize) -> Result<(Thread, Vec<u32>), CodecError> {
        let arch = ArchState::decode(r)?;
        let fetch_pc = match r.opt_u64()? {
            None => None,
            Some(pc) => {
                Some(u32::try_from(pc).map_err(|_| CodecError::Invalid("fetch pc out of range"))?)
            }
        };
        let nq = r.usize()?;
        if nq > FETCH_QUEUE_CAP {
            return Err(CodecError::Invalid("fetch queue over capacity"));
        }
        let mut fetch_queue = VecDeque::with_capacity(nq);
        for _ in 0..nq {
            fetch_queue.push_back(Fetched { pc: r.u32()?, predicted_taken: r.bool()? });
        }
        let bp_history = r.u64()?;
        let idx_list = |r: &mut Reader<'_>| -> Result<Vec<u32>, CodecError> {
            let n = r.usize()?;
            if n > arena_len {
                return Err(CodecError::Invalid("window list larger than arena"));
            }
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = r.u32()?;
                if idx as usize >= arena_len {
                    return Err(CodecError::Invalid("window index out of range"));
                }
                v.push(idx);
            }
            Ok(v)
        };
        let in_flight: VecDeque<u32> = idx_list(r)?.into();
        let ready = idx_list(r)?;
        let mut last_writer_int = [None; 32];
        let mut last_writer_fp = [None; 32];
        for table in [&mut last_writer_int, &mut last_writer_fp] {
            for lw in table.iter_mut() {
                *lw = match r.u8()? {
                    0 => None,
                    1 => Some(EntryRef::decode(r)?),
                    _ => return Err(CodecError::Invalid("bad last-writer tag")),
                };
            }
        }
        let thread = Thread {
            arch,
            fetch_pc,
            fetch_queue,
            bp_history,
            in_flight,
            last_writer_int,
            last_writer_fp,
            dispatch_block_until: r.u64()?,
            fetch_block_until: r.u64()?,
            slow_counter: r.i64()?,
            locks_held: r.u32()?,
        };
        Ok((thread, ready))
    }
}

/// A thread image parked on the LIFO context stack.
#[derive(Debug, Clone)]
pub(crate) struct SavedThread {
    pub arch: ArchState,
}

/// The LIFO context stack of the paper (16 entries, ~4 kB).
#[derive(Debug, Clone)]
pub(crate) struct ContextStack {
    entries: Vec<SavedThread>,
    capacity: usize,
}

impl ContextStack {
    pub fn new(capacity: usize) -> Self {
        ContextStack { entries: Vec::new(), capacity }
    }

    pub fn free_slots(&self) -> usize {
        self.capacity - self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes a saved thread.
    ///
    /// # Panics
    ///
    /// Panics if the stack is full; callers must check [`free_slots`]
    /// first (the paper notes a full design would trap to memory).
    ///
    /// [`free_slots`]: ContextStack::free_slots
    pub fn push(&mut self, t: SavedThread) {
        assert!(self.entries.len() < self.capacity, "context stack overflow");
        self.entries.push(t);
    }

    /// Pops the most recently pushed thread (LIFO).
    pub fn pop(&mut self) -> Option<SavedThread> {
        self.entries.pop()
    }

    /// Serializes the parked thread images, bottom first.
    pub fn encode(&self, w: &mut Writer) {
        w.usize(self.capacity);
        w.usize(self.entries.len());
        for t in &self.entries {
            t.arch.encode(w);
        }
    }

    /// Restores a stack written by [`ContextStack::encode`] into a stack
    /// of the same capacity.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] on capacity mismatch or overflow, or on
    /// truncated input.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let capacity = r.usize()?;
        if capacity != self.capacity {
            return Err(CodecError::Invalid("context stack capacity mismatch"));
        }
        let n = r.usize()?;
        if n > capacity {
            return Err(CodecError::Invalid("context stack overflow"));
        }
        self.entries.clear();
        for _ in 0..n {
            self.entries.push(SavedThread { arch: ArchState::decode(r)? });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsule_core::ids::WorkerId;

    #[test]
    fn icount_counts_frontend_and_window() {
        let mut t = Thread::new(ArchState::new(0, WorkerId(0)));
        t.fetch_queue.push_back(Fetched { pc: 0, predicted_taken: false });
        t.in_flight.push_back(3);
        assert_eq!(t.icount(), 2);
    }

    #[test]
    fn context_stack_is_lifo_and_bounded() {
        let mut s = ContextStack::new(2);
        assert_eq!(s.free_slots(), 2);
        s.push(SavedThread { arch: ArchState::new(1, WorkerId(1)) });
        s.push(SavedThread { arch: ArchState::new(2, WorkerId(2)) });
        assert_eq!(s.free_slots(), 0);
        assert_eq!(s.pop().unwrap().arch.pc, 2);
        assert_eq!(s.pop().unwrap().arch.pc, 1);
        assert!(s.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn context_stack_overflow_panics() {
        let mut s = ContextStack::new(1);
        s.push(SavedThread { arch: ArchState::new(0, WorkerId(0)) });
        s.push(SavedThread { arch: ArchState::new(1, WorkerId(1)) });
    }

    #[test]
    fn flush_frontend_clears_queue_and_pc() {
        let mut t = Thread::new(ArchState::new(0, WorkerId(0)));
        t.fetch_queue.push_back(Fetched { pc: 0, predicted_taken: true });
        t.flush_frontend();
        assert!(t.fetch_queue.is_empty());
        assert_eq!(t.fetch_pc, None);
    }
}
