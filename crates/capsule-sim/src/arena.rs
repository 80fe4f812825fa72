//! Generational struct-of-arrays arena for in-flight window entries.
//!
//! The RUU/LSQ entries of every thread live here as parallel `Vec`s
//! indexed by a dense slot id: the wakeup chains, the completion wheel
//! and the machine's ready list all carry plain `u32` indices, so
//! the hot stages (dispatch renaming, completion chain walks, issue
//! arbitration, commit) are straight array loads — no per-entry heap
//! nodes and none of the `binary_search`-by-sequence lookups the
//! per-thread `VecDeque<Entry>` layout needed.
//!
//! Retired slots go on a free list and are reused; each slot carries a
//! generation counter bumped at retirement, so a stale reference from a
//! previous occupancy (a last-writer table entry, a `WaitBranch` state)
//! can never be confused with the slot's current tenant: an [`EntryRef`]
//! whose generation no longer matches denotes a retired — hence
//! complete — entry.

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_isa::instr::FuClass;

/// Entry flag: issued to a functional unit (or born issued, for inert
/// entries with [`FuClass::None`]).
const F_ISSUED: u8 = 1 << 0;
/// Entry flag: execution complete (dependents may issue).
const F_COMPLETED: u8 = 1 << 1;
/// Entry flag: load.
const F_LOAD: u8 = 1 << 2;
/// Entry flag: occupies an LSQ slot.
const F_MEM: u8 = 1 << 3;

/// A link in a producer's wakeup chain: the waiting consumer's arena
/// index and the consumer dependency slot the chain threads through
/// (the SimpleScalar `RS_link` idiom, allocation-free). Chain links are
/// created at dispatch and consumed when the producer completes; a
/// consumer cannot issue — so cannot retire — while still linked, so a
/// bare index is always valid inside a chain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    /// Arena index of the waiting (consumer) entry.
    pub entry: u32,
    /// Dependency slot of the consumer that waits on this producer.
    pub slot: u8,
}

/// A generation-checked reference to an arena entry, safe to hold across
/// the referent's retirement (e.g. in the per-register last-writer
/// tables): once the slot is reused the generation no longer matches and
/// the reference reads as retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EntryRef {
    /// Arena index.
    pub idx: u32,
    /// Generation the slot had when the reference was taken.
    pub gen: u32,
}

/// Hard cap on a deserialized arena's entry count — far above any window
/// a valid configuration can fill, so a corrupted length prefix cannot
/// drive an allocation.
const MAX_ENTRIES: usize = 1 << 24;

fn fu_tag(fu: FuClass) -> u8 {
    match fu {
        FuClass::None => 0,
        FuClass::IntAlu => 1,
        FuClass::IntMult => 2,
        FuClass::FpAlu => 3,
        FuClass::FpMult => 4,
        FuClass::Mem => 5,
    }
}

fn fu_from_tag(tag: u8) -> Result<FuClass, CodecError> {
    Ok(match tag {
        0 => FuClass::None,
        1 => FuClass::IntAlu,
        2 => FuClass::IntMult,
        3 => FuClass::FpAlu,
        4 => FuClass::FpMult,
        5 => FuClass::Mem,
        _ => return Err(CodecError::Invalid("bad functional-unit tag")),
    })
}

fn encode_waiter(w: &mut Writer, waiter: Option<Waiter>) {
    match waiter {
        None => w.u8(0),
        Some(Waiter { entry, slot }) => {
            w.u8(1);
            w.u32(entry);
            w.u8(slot);
        }
    }
}

fn decode_waiter(r: &mut Reader<'_>, n: usize) -> Result<Option<Waiter>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let entry = r.u32()?;
            let slot = r.u8()?;
            if entry as usize >= n || slot >= 4 {
                return Err(CodecError::Invalid("waiter out of range"));
            }
            Ok(Some(Waiter { entry, slot }))
        }
        _ => Err(CodecError::Invalid("bad waiter tag")),
    }
}

impl EntryRef {
    pub(crate) fn encode(self, w: &mut Writer) {
        w.u32(self.idx);
        w.u32(self.gen);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<EntryRef, CodecError> {
        Ok(EntryRef { idx: r.u32()?, gen: r.u32()? })
    }
}

/// The arena. All state of one in-flight entry lives at the same index
/// across the parallel vectors (struct-of-arrays).
#[derive(Debug, Default)]
pub(crate) struct EntryArena {
    /// Global age (dispatch order), unique per entry.
    seq: Vec<u64>,
    /// Generation of the slot's current (or next) occupancy.
    gen: Vec<u32>,
    fu: Vec<FuClass>,
    /// Execution latency excluding memory.
    latency: Vec<u64>,
    /// Source operands still waiting on an incomplete producer.
    unready: Vec<u8>,
    flags: Vec<u8>,
    /// Valid once issued (or immediately for inert entries).
    complete_at: Vec<u64>,
    /// Data address; valid only for memory entries.
    mem_addr: Vec<u64>,
    /// Head of the chain of entries waiting on this entry.
    head_waiter: Vec<Option<Waiter>>,
    /// Per dependency slot: the next waiter in that producer's chain.
    next_waiter: Vec<[Option<Waiter>; 4]>,
    /// Retired slots available for reuse.
    free: Vec<u32>,
}

impl EntryArena {
    /// Allocates a slot for a freshly dispatched entry and returns its
    /// index. Inert entries (no functional unit) are born issued and
    /// completed, with `complete_at = now`.
    pub fn alloc(
        &mut self,
        seq: u64,
        fu: FuClass,
        latency: u64,
        is_load: bool,
        is_mem: bool,
        now: u64,
    ) -> u32 {
        let inert = fu == FuClass::None;
        let mut flags = 0u8;
        if inert {
            flags |= F_ISSUED | F_COMPLETED;
        }
        if is_load {
            flags |= F_LOAD;
        }
        if is_mem {
            flags |= F_MEM;
        }
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.seq[i] = seq;
            self.fu[i] = fu;
            self.latency[i] = latency;
            self.unready[i] = 0;
            self.flags[i] = flags;
            self.complete_at[i] = now;
            self.mem_addr[i] = 0;
            debug_assert!(self.head_waiter[i].is_none());
            debug_assert!(self.next_waiter[i].iter().all(Option::is_none));
            idx
        } else {
            let idx = self.seq.len() as u32;
            self.seq.push(seq);
            self.gen.push(0);
            self.fu.push(fu);
            self.latency.push(latency);
            self.unready.push(0);
            self.flags.push(flags);
            self.complete_at.push(now);
            self.mem_addr.push(0);
            self.head_waiter.push(None);
            self.next_waiter.push([None; 4]);
            idx
        }
    }

    /// Returns a retired slot to the free list, bumping its generation so
    /// outstanding [`EntryRef`]s to the old occupancy read as retired.
    pub fn retire(&mut self, idx: u32) {
        let i = idx as usize;
        debug_assert!(self.head_waiter[i].is_none(), "retiring entry with live waiters");
        debug_assert!(
            self.next_waiter[i].iter().all(Option::is_none),
            "retiring entry still linked in a wakeup chain"
        );
        self.gen[i] = self.gen[i].wrapping_add(1);
        self.free.push(idx);
    }

    /// Empties the arena, keeping the allocated capacity (machine reset).
    pub fn clear(&mut self) {
        self.seq.clear();
        self.gen.clear();
        self.fu.clear();
        self.latency.clear();
        self.unready.clear();
        self.flags.clear();
        self.complete_at.clear();
        self.mem_addr.clear();
        self.head_waiter.clear();
        self.next_waiter.clear();
        self.free.clear();
    }

    /// Number of allocated slots (live or on the free list).
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// A generation-checked reference to the entry currently at `idx`.
    pub fn entry_ref(&self, idx: u32) -> EntryRef {
        EntryRef { idx, gen: self.gen[idx as usize] }
    }

    /// Whether `r` still names its original entry (not yet retired).
    pub fn is_live(&self, r: EntryRef) -> bool {
        self.gen.get(r.idx as usize) == Some(&r.gen)
    }

    /// Whether the entry `r` refers to has completed — true also when it
    /// already retired (commit only retires completed entries).
    pub fn done(&self, r: EntryRef) -> bool {
        !self.is_live(r) || self.is_completed(r.idx)
    }

    pub fn seq(&self, idx: u32) -> u64 {
        self.seq[idx as usize]
    }

    pub fn fu(&self, idx: u32) -> FuClass {
        self.fu[idx as usize]
    }

    pub fn latency(&self, idx: u32) -> u64 {
        self.latency[idx as usize]
    }

    pub fn unready(&self, idx: u32) -> u8 {
        self.unready[idx as usize]
    }

    pub fn is_completed(&self, idx: u32) -> bool {
        self.flags[idx as usize] & F_COMPLETED != 0
    }

    pub fn is_load(&self, idx: u32) -> bool {
        self.flags[idx as usize] & F_LOAD != 0
    }

    pub fn is_mem(&self, idx: u32) -> bool {
        self.flags[idx as usize] & F_MEM != 0
    }

    /// The completion cycle recorded at issue (`now` at birth for inert
    /// entries).
    pub fn complete_at(&self, idx: u32) -> u64 {
        self.complete_at[idx as usize]
    }

    pub fn mem_addr(&self, idx: u32) -> u64 {
        self.mem_addr[idx as usize]
    }

    pub fn set_mem_addr(&mut self, idx: u32, addr: u64) {
        self.mem_addr[idx as usize] = addr;
    }

    /// Marks the entry issued with its completion cycle.
    pub fn mark_issued(&mut self, idx: u32, complete_at: u64) {
        let i = idx as usize;
        debug_assert!(self.flags[i] & F_ISSUED == 0);
        self.flags[i] |= F_ISSUED;
        self.complete_at[i] = complete_at;
    }

    /// If the producer `p` is still in flight and incomplete, links
    /// `consumer` (through dependency slot `dslot`) into its wakeup
    /// chain, bumps the consumer's unready count, and returns true.
    /// Producers already complete or retired need no watching.
    pub fn link_if_pending(&mut self, p: EntryRef, consumer: u32, dslot: u8) -> bool {
        if !self.is_live(p) {
            return false;
        }
        let pi = p.idx as usize;
        if self.flags[pi] & F_COMPLETED != 0 {
            return false;
        }
        self.next_waiter[consumer as usize][dslot as usize] =
            self.head_waiter[pi].replace(Waiter { entry: consumer, slot: dslot });
        self.unready[consumer as usize] += 1;
        true
    }

    /// Serializes every column plus the free list for checkpoints.
    pub fn encode(&self, w: &mut Writer) {
        let n = self.seq.len();
        w.usize(n);
        for i in 0..n {
            w.u64(self.seq[i]);
            w.u32(self.gen[i]);
            w.u8(fu_tag(self.fu[i]));
            w.u64(self.latency[i]);
            w.u8(self.unready[i]);
            w.u8(self.flags[i]);
            w.u64(self.complete_at[i]);
            w.u64(self.mem_addr[i]);
            encode_waiter(w, self.head_waiter[i]);
            for &nw in &self.next_waiter[i] {
                encode_waiter(w, nw);
            }
        }
        w.usize(self.free.len());
        for &f in &self.free {
            w.u32(f);
        }
    }

    /// Restores state written by [`EntryArena::encode`], reusing this
    /// arena's allocations.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or ill-formed input (dangling waiter
    /// or free-list indices, unknown tags).
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        self.clear();
        let n = r.usize()?;
        if n > MAX_ENTRIES {
            return Err(CodecError::Invalid("arena too large"));
        }
        for _ in 0..n {
            self.seq.push(r.u64()?);
            self.gen.push(r.u32()?);
            self.fu.push(fu_from_tag(r.u8()?)?);
            self.latency.push(r.u64()?);
            self.unready.push(r.u8()?);
            self.flags.push(r.u8()?);
            self.complete_at.push(r.u64()?);
            self.mem_addr.push(r.u64()?);
            self.head_waiter.push(decode_waiter(r, n)?);
            let mut nw = [None; 4];
            for slot in &mut nw {
                *slot = decode_waiter(r, n)?;
            }
            self.next_waiter.push(nw);
        }
        let nfree = r.usize()?;
        if nfree > n {
            return Err(CodecError::Invalid("free list larger than arena"));
        }
        for _ in 0..nfree {
            let f = r.u32()?;
            if f as usize >= n {
                return Err(CodecError::Invalid("free index out of range"));
            }
            self.free.push(f);
        }
        Ok(())
    }

    /// Marks the entry complete and walks its wakeup chain: every waiter
    /// loses one unready operand; those reaching zero are handed to
    /// `wake` with their sequence number (each exactly once — a consumer
    /// has one chain link per pending operand).
    pub fn complete(&mut self, idx: u32, mut wake: impl FnMut(u64, u32)) {
        let i = idx as usize;
        debug_assert!(self.flags[i] & F_ISSUED != 0 && self.flags[i] & F_COMPLETED == 0);
        self.flags[i] |= F_COMPLETED;
        let mut w = self.head_waiter[i].take();
        while let Some(Waiter { entry, slot }) = w {
            let e = entry as usize;
            w = self.next_waiter[e][slot as usize].take();
            self.unready[e] -= 1;
            if self.unready[e] == 0 {
                wake(self.seq[e], entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alu(arena: &mut EntryArena, seq: u64) -> u32 {
        arena.alloc(seq, FuClass::IntAlu, 1, false, false, 0)
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut a = EntryArena::default();
        let e0 = alu(&mut a, 0);
        let e1 = alu(&mut a, 1);
        assert_ne!(e0, e1);
        // Retire the first (completed) entry; its slot is reused by the
        // next allocation instead of growing the arrays.
        a.complete_inert_for_test(e0);
        a.retire(e0);
        let e2 = alu(&mut a, 2);
        assert_eq!(e2, e0, "retired slot is reused");
        assert_eq!(a.seq(e2), 2);
        assert!(!a.is_completed(e2), "reused slot starts fresh");
    }

    #[test]
    fn generation_counter_protects_stale_refs() {
        let mut a = EntryArena::default();
        let e0 = alu(&mut a, 0);
        let stale = a.entry_ref(e0);
        assert!(a.is_live(stale));
        assert!(!a.done(stale), "in-flight and incomplete");
        a.complete_inert_for_test(e0);
        assert!(a.done(stale), "completed counts as done");
        a.retire(e0);
        assert!(!a.is_live(stale), "retired slot no longer matches");
        assert!(a.done(stale), "retired counts as done");
        // The slot's next tenant must not be confused with the old one.
        let e1 = alu(&mut a, 7);
        assert_eq!(e1, e0);
        assert!(!a.is_live(stale), "stale ref stays dead across reuse");
        assert!(a.is_live(a.entry_ref(e1)));
        // A stale link would otherwise make this incomplete entry look
        // done; the generation check prevents exactly that.
        assert!(!a.done(a.entry_ref(e1)));
    }

    #[test]
    fn wakeup_chain_wakes_each_consumer_once() {
        let mut a = EntryArena::default();
        let p = alu(&mut a, 0);
        let c1 = alu(&mut a, 1);
        let c2 = alu(&mut a, 2);
        // c1 waits on p through two operand slots, c2 through one.
        assert!(a.link_if_pending(a.entry_ref(p), c1, 0));
        assert!(a.link_if_pending(a.entry_ref(p), c1, 1));
        assert!(a.link_if_pending(a.entry_ref(p), c2, 0));
        assert_eq!(a.unready(c1), 2);
        assert_eq!(a.unready(c2), 1);

        a.mark_issued(p, 5);
        let mut ready = Vec::new();
        a.complete(p, |seq, e| ready.push((seq, e)));
        assert_eq!(a.unready(c1), 0);
        assert_eq!(a.unready(c2), 0);
        // Both consumers become ready exactly once, despite c1's two links,
        // each with its own sequence number.
        ready.sort_unstable();
        assert_eq!(ready, vec![(1, c1), (2, c2)]);
    }

    #[test]
    fn chain_integrity_survives_producer_retirement() {
        let mut a = EntryArena::default();
        let p = alu(&mut a, 0);
        let c = alu(&mut a, 1);
        assert!(a.link_if_pending(a.entry_ref(p), c, 0));

        let mut ready = Vec::new();
        a.mark_issued(p, 1);
        a.complete(p, |_, e| ready.push(e));
        assert_eq!(ready, vec![c]);

        // Retire the producer and reuse its slot: the old chain links were
        // consumed at completion, so the new tenant starts with an empty
        // chain and linking against the *new* entry works normally.
        a.retire(p);
        let p2 = alu(&mut a, 2);
        assert_eq!(p2, p);
        let c2 = alu(&mut a, 3);
        assert!(a.link_if_pending(a.entry_ref(p2), c2, 0));
        a.mark_issued(p2, 2);
        ready.clear();
        a.complete(p2, |_, e| ready.push(e));
        assert_eq!(ready, vec![c2]);

        // A completed-then-retired producer is never linked against.
        a.retire(p2);
        let stale = EntryRef { idx: p2, gen: 1 };
        let c3 = alu(&mut a, 4);
        assert!(!a.link_if_pending(stale, c3, 0), "stale producer ref links nothing");
        assert_eq!(a.unready(c3), 0);
    }

    #[test]
    fn clear_keeps_nothing_live() {
        let mut a = EntryArena::default();
        let e = alu(&mut a, 0);
        let r = a.entry_ref(e);
        a.clear();
        assert!(!a.is_live(r), "cleared arena holds no entries");
        let e2 = alu(&mut a, 1);
        assert_eq!(e2, 0, "indices restart after clear");
    }

    impl EntryArena {
        /// Test helper: issue + complete with no waiters.
        fn complete_inert_for_test(&mut self, idx: u32) {
            self.mark_issued(idx, 0);
            self.complete(idx, |_, _| panic!("no waiters"));
        }
    }
}
