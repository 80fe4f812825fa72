//! Architectural (functional) execution of CAP64 instructions.
//!
//! Both the cycle-level machine and the reference interpreter execute
//! instructions through [`step`], so their architectural semantics cannot
//! diverge — the timing model only decides *when* things happen and how
//! thread-division requests are answered.

use capsule_core::codec::{CodecError, Reader, Writer};
use capsule_core::ids::WorkerId;
use capsule_isa::instr::Instr;
use capsule_isa::reg::{FReg, Reg};

/// Architectural state of one thread (31 writable INT + 31 FP registers
/// plus PC — the paper's 62-register swap image).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchState {
    /// Program counter (instruction index).
    pub pc: u32,
    /// Integer registers; index 0 is hardwired zero.
    pub iregs: [i64; 32],
    /// FP registers.
    pub fregs: [f64; 32],
    /// The worker this thread embodies.
    pub worker: WorkerId,
}

impl ArchState {
    /// Fresh state at `pc` for `worker`.
    pub fn new(pc: u32, worker: WorkerId) -> Self {
        ArchState { pc, iregs: [0; 32], fregs: [0.0; 32], worker }
    }

    /// Reads an integer register (`r0` reads zero).
    pub fn get(&self, r: Reg) -> i64 {
        self.iregs[r.index()]
    }

    /// Writes an integer register (`r0` writes are dropped).
    pub fn set(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.iregs[r.index()] = v;
        }
    }

    /// Reads an FP register.
    pub fn getf(&self, f: FReg) -> f64 {
        self.fregs[f.index()]
    }

    /// Writes an FP register.
    pub fn setf(&mut self, f: FReg, v: f64) {
        self.fregs[f.index()] = v;
    }

    /// Serializes the full register image for checkpoints.
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.pc);
        for &v in &self.iregs {
            w.i64(v);
        }
        for &v in &self.fregs {
            w.f64(v);
        }
        w.u32(self.worker.0);
    }

    /// Inverse of [`ArchState::encode`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated input.
    pub fn decode(r: &mut Reader<'_>) -> Result<ArchState, CodecError> {
        let pc = r.u32()?;
        let mut iregs = [0i64; 32];
        for v in &mut iregs {
            *v = r.i64()?;
        }
        let mut fregs = [0f64; 32];
        for v in &mut fregs {
            *v = r.f64()?;
        }
        let worker = WorkerId(r.u32()?);
        Ok(ArchState { pc, iregs, fregs, worker })
    }
}

pub use capsule_core::output::OutValue;

/// Why a thread trapped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapKind {
    /// Data access below the data base or beyond the memory size.
    BadAddress(u64),
    /// PC left the text section.
    BadPc(u32),
    /// `mlock` re-acquired by its owner.
    RelockOwned(u64),
    /// `munlock` of a lock the thread does not own.
    BadUnlock(u64),
    /// The hardware lock table overflowed.
    LockTableFull(u64),
}

impl std::fmt::Display for TrapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrapKind::BadAddress(a) => write!(f, "bad data address {a:#x}"),
            TrapKind::BadPc(pc) => write!(f, "pc {pc} outside text"),
            TrapKind::RelockOwned(a) => write!(f, "mlock on already-owned address {a:#x}"),
            TrapKind::BadUnlock(a) => write!(f, "munlock on address {a:#x} not owned"),
            TrapKind::LockTableFull(a) => write!(f, "lock table full locking {a:#x}"),
        }
    }
}

/// Flat data memory with bounds-checked accessors.
///
/// Addresses below [`capsule_isa::DATA_BASE`] trap, catching null and
/// wild-pointer dereferences in workload programs.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    base: u64,
}

impl Memory {
    /// Builds memory of `size` bytes with `data` loaded at `base`.
    pub fn new(size: usize, base: u64, data: &[u8]) -> Self {
        Memory::recycled(Vec::new(), size, base, data)
    }

    /// [`Memory::new`] reusing a previously allocated buffer (warmed
    /// machine reset): the contents are indistinguishable from a fresh
    /// build, only the allocation is reused. Each byte is written once:
    /// zeros below `base`, `data`, then zeros up to `size`.
    ///
    /// # Panics
    ///
    /// Panics when `data` loaded at `base` runs past `size`.
    pub fn recycled(mut bytes: Vec<u8>, size: usize, base: u64, data: &[u8]) -> Self {
        let b = base as usize;
        assert!(b + data.len() <= size, "data image runs past the memory size");
        bytes.clear();
        bytes.reserve(size);
        bytes.resize(b, 0);
        bytes.extend_from_slice(data);
        bytes.resize(size, 0);
        Memory { bytes, base }
    }

    /// Takes the backing buffer for reuse by [`Memory::recycled`].
    pub fn into_buffer(self) -> Vec<u8> {
        self.bytes
    }

    fn check(&self, addr: u64, len: u64) -> Result<usize, TrapKind> {
        // `addr + len` can wrap for addresses near u64::MAX and slip past
        // the bounds test; checked_add turns the wrap into the trap.
        let end = addr.checked_add(len).ok_or(TrapKind::BadAddress(addr))?;
        if addr < self.base || end > self.bytes.len() as u64 {
            Err(TrapKind::BadAddress(addr))
        } else {
            Ok(addr as usize)
        }
    }

    /// Reads a 64-bit little-endian word.
    pub fn read_i64(&self, addr: u64) -> Result<i64, TrapKind> {
        let i = self.check(addr, 8)?;
        Ok(i64::from_le_bytes(self.bytes[i..i + 8].try_into().expect("len 8")))
    }

    /// Writes a 64-bit little-endian word.
    pub fn write_i64(&mut self, addr: u64, v: i64) -> Result<(), TrapKind> {
        let i = self.check(addr, 8)?;
        self.bytes[i..i + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Reads one byte (zero-extended).
    pub fn read_u8(&self, addr: u64) -> Result<u8, TrapKind> {
        let i = self.check(addr, 1)?;
        Ok(self.bytes[i])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), TrapKind> {
        let i = self.check(addr, 1)?;
        self.bytes[i] = v;
        Ok(())
    }

    /// Reads an f64.
    pub fn read_f64(&self, addr: u64) -> Result<f64, TrapKind> {
        Ok(f64::from_bits(self.read_i64(addr)? as u64))
    }

    /// Writes an f64.
    pub fn write_f64(&mut self, addr: u64, v: f64) -> Result<(), TrapKind> {
        self.write_i64(addr, v.to_bits() as i64)
    }

    /// Memory size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Always false; memory has at least the data base reserved.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serializes base and contents for checkpoints.
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.base);
        w.bytes(&self.bytes);
    }

    /// Restores contents written by [`Memory::encode`] into a memory of
    /// the same shape.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] when base or size differ from this
    /// memory's, or on truncated input.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), CodecError> {
        let base = r.u64()?;
        if base != self.base {
            return Err(CodecError::Invalid("memory base mismatch"));
        }
        let bytes = r.bytes()?;
        if bytes.len() != self.bytes.len() {
            return Err(CodecError::Invalid("memory size mismatch"));
        }
        self.bytes.copy_from_slice(bytes);
        Ok(())
    }
}

/// Side effects [`step`] leaves to the host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Plain instruction, fully handled.
    None,
    /// Emit a value.
    Out(OutValue),
    /// Stop the machine.
    Halt,
    /// Worker death.
    Kthr,
    /// Division request; the host decides and calls the policy. `rd` must
    /// be set by the host (−1 denied / 0 parent / 1 child).
    Nthr {
        /// Probe-result register.
        rd: Reg,
        /// Child entry point.
        target: u32,
    },
    /// Lock acquisition on the address.
    Mlock(u64),
    /// Lock release on the address.
    Munlock(u64),
    /// Probe for free contexts; host writes the count to the register.
    Nctx(Reg),
    /// Section enter.
    MarkStart(u16),
    /// Section leave.
    MarkEnd(u16),
}

/// Branch resolution information for the timing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether a *conditional* branch was taken (unconditional transfers
    /// report `taken = true`).
    pub taken: bool,
    /// Whether this was a conditional branch (predictor-relevant).
    pub conditional: bool,
    /// The architecturally correct next pc.
    pub next_pc: u32,
}

/// Everything the timing layer needs to know about one executed
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOut {
    /// Host-handled side effect.
    pub effect: Effect,
    /// Data address touched, for cache timing (loads and stores).
    pub mem_addr: Option<u64>,
    /// Control-transfer resolution, if the instruction was one.
    pub branch: Option<BranchOutcome>,
}

impl StepOut {
    fn plain() -> Self {
        StepOut { effect: Effect::None, mem_addr: None, branch: None }
    }
}

/// Executes one instruction architecturally.
///
/// Advances `arch.pc`, updates registers and memory, and reports what the
/// host must still do (division, locks, output, marks). `tid` is written by
/// the `tid` instruction from `arch.worker`.
///
/// # Errors
///
/// Returns a [`TrapKind`] on memory violations; lock misuse is reported by
/// the host when it processes the lock effects.
pub fn step(arch: &mut ArchState, instr: &Instr, mem: &mut Memory) -> Result<StepOut, TrapKind> {
    let mut out = StepOut::plain();
    let next = arch.pc + 1;
    arch.pc = next;
    match *instr {
        Instr::Nop => {}
        Instr::Alu { op, rd, rs1, rs2 } => {
            let v = op.apply(arch.get(rs1), arch.get(rs2));
            arch.set(rd, v);
        }
        Instr::AluI { op, rd, rs1, imm } => {
            let v = op.apply(arch.get(rs1), imm);
            arch.set(rd, v);
        }
        Instr::Li { rd, imm } => arch.set(rd, imm),
        Instr::Ld { rd, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            arch.set(rd, mem.read_i64(addr)?);
            out.mem_addr = Some(addr);
        }
        Instr::St { rs, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            mem.write_i64(addr, arch.get(rs))?;
            out.mem_addr = Some(addr);
        }
        Instr::Ldb { rd, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            arch.set(rd, mem.read_u8(addr)? as i64);
            out.mem_addr = Some(addr);
        }
        Instr::Stb { rs, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            mem.write_u8(addr, arch.get(rs) as u8)?;
            out.mem_addr = Some(addr);
        }
        Instr::FLd { fd, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            arch.setf(fd, mem.read_f64(addr)?);
            out.mem_addr = Some(addr);
        }
        Instr::FSt { fs, base, off } => {
            let addr = (arch.get(base) + off) as u64;
            mem.write_f64(addr, arch.getf(fs))?;
            out.mem_addr = Some(addr);
        }
        Instr::Br { cond, rs1, rs2, target } => {
            let taken = cond.holds(arch.get(rs1), arch.get(rs2));
            if taken {
                arch.pc = target;
            }
            out.branch = Some(BranchOutcome { taken, conditional: true, next_pc: arch.pc });
        }
        Instr::J { target } => {
            arch.pc = target;
            out.branch = Some(BranchOutcome { taken: true, conditional: false, next_pc: target });
        }
        Instr::Jal { rd, target } => {
            arch.set(rd, next as i64);
            arch.pc = target;
            out.branch = Some(BranchOutcome { taken: true, conditional: false, next_pc: target });
        }
        Instr::Jr { rs } => {
            let t = arch.get(rs) as u32;
            arch.pc = t;
            out.branch = Some(BranchOutcome { taken: true, conditional: false, next_pc: t });
        }
        Instr::Jalr { rd, rs } => {
            let t = arch.get(rs) as u32;
            arch.set(rd, next as i64);
            arch.pc = t;
            out.branch = Some(BranchOutcome { taken: true, conditional: false, next_pc: t });
        }
        Instr::FAlu { op, fd, fs1, fs2 } => {
            let v = op.apply(arch.getf(fs1), arch.getf(fs2));
            arch.setf(fd, v);
        }
        Instr::FLi { fd, imm } => arch.setf(fd, imm),
        Instr::FCmp { op, rd, fs1, fs2 } => {
            let v = op.apply(arch.getf(fs1), arch.getf(fs2));
            arch.set(rd, v as i64);
        }
        Instr::CvtIF { fd, rs } => arch.setf(fd, arch.get(rs) as f64),
        Instr::CvtFI { rd, fs } => arch.set(rd, arch.getf(fs) as i64),
        Instr::Nthr { rd, target } => out.effect = Effect::Nthr { rd, target },
        Instr::Kthr => out.effect = Effect::Kthr,
        Instr::Mlock { rs } => out.effect = Effect::Mlock(arch.get(rs) as u64),
        Instr::Munlock { rs } => out.effect = Effect::Munlock(arch.get(rs) as u64),
        Instr::Nctx { rd } => out.effect = Effect::Nctx(rd),
        Instr::Tid { rd } => arch.set(rd, arch.worker.0 as i64),
        Instr::MarkStart { id } => out.effect = Effect::MarkStart(id),
        Instr::MarkEnd { id } => out.effect = Effect::MarkEnd(id),
        Instr::Out { rs } => out.effect = Effect::Out(OutValue::Int(arch.get(rs))),
        Instr::OutF { fs } => out.effect = Effect::Out(OutValue::Float(arch.getf(fs))),
        Instr::Halt => out.effect = Effect::Halt,
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsule_isa::instr::{AluOp, BrCond};
    use capsule_isa::DATA_BASE;

    fn mem() -> Memory {
        Memory::new(8192, DATA_BASE, &[])
    }

    fn arch() -> ArchState {
        ArchState::new(0, WorkerId(0))
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let mut a = arch();
        a.set(Reg::ZERO, 99);
        assert_eq!(a.get(Reg::ZERO), 0);
    }

    #[test]
    fn alu_and_pc_advance() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), 5);
        let i = Instr::AluI { op: AluOp::Add, rd: Reg(2), rs1: Reg(1), imm: 3 };
        let out = step(&mut a, &i, &mut m).unwrap();
        assert_eq!(a.get(Reg(2)), 8);
        assert_eq!(a.pc, 1);
        assert_eq!(out, StepOut::plain());
    }

    #[test]
    fn load_store_roundtrip() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), DATA_BASE as i64);
        a.set(Reg(2), -12345);
        step(&mut a, &Instr::St { rs: Reg(2), base: Reg(1), off: 16 }, &mut m).unwrap();
        let out = step(&mut a, &Instr::Ld { rd: Reg(3), base: Reg(1), off: 16 }, &mut m).unwrap();
        assert_eq!(a.get(Reg(3)), -12345);
        assert_eq!(out.mem_addr, Some(DATA_BASE + 16));
    }

    #[test]
    fn near_max_address_traps_instead_of_wrapping() {
        // Regression: `addr + len` used to wrap for addresses near
        // u64::MAX, passing the bounds test and indexing out of range.
        let m = mem();
        for addr in [u64::MAX, u64::MAX - 7, u64::MAX - 4096] {
            assert_eq!(m.read_i64(addr), Err(TrapKind::BadAddress(addr)), "addr {addr:#x}");
        }
        let mut wm = mem();
        assert_eq!(wm.write_i64(u64::MAX - 3, 1), Err(TrapKind::BadAddress(u64::MAX - 3)));
    }

    #[test]
    fn byte_access_zero_extends() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), DATA_BASE as i64);
        a.set(Reg(2), 0x1ff); // low byte 0xff
        step(&mut a, &Instr::Stb { rs: Reg(2), base: Reg(1), off: 0 }, &mut m).unwrap();
        step(&mut a, &Instr::Ldb { rd: Reg(3), base: Reg(1), off: 0 }, &mut m).unwrap();
        assert_eq!(a.get(Reg(3)), 0xff);
    }

    #[test]
    fn fp_roundtrip_through_memory() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), DATA_BASE as i64);
        a.setf(FReg(1), 2.75);
        step(&mut a, &Instr::FSt { fs: FReg(1), base: Reg(1), off: 8 }, &mut m).unwrap();
        step(&mut a, &Instr::FLd { fd: FReg(2), base: Reg(1), off: 8 }, &mut m).unwrap();
        assert_eq!(a.getf(FReg(2)), 2.75);
    }

    #[test]
    fn null_and_oob_accesses_trap() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), 0);
        let e = step(&mut a, &Instr::Ld { rd: Reg(2), base: Reg(1), off: 0 }, &mut m);
        assert_eq!(e, Err(TrapKind::BadAddress(0)));
        a.set(Reg(1), 1 << 40);
        let e = step(&mut a, &Instr::St { rs: Reg(2), base: Reg(1), off: 0 }, &mut m);
        assert!(matches!(e, Err(TrapKind::BadAddress(_))));
    }

    #[test]
    fn taken_and_untaken_branches() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), 1);
        let br = Instr::Br { cond: BrCond::Eq, rs1: Reg(1), rs2: Reg::ZERO, target: 10 };
        let out = step(&mut a, &br, &mut m).unwrap();
        assert_eq!(a.pc, 1); // not taken
        assert_eq!(out.branch, Some(BranchOutcome { taken: false, conditional: true, next_pc: 1 }));

        a.set(Reg(1), 0);
        let out = step(&mut a, &br, &mut m).unwrap();
        assert_eq!(a.pc, 10);
        assert!(out.branch.unwrap().taken);
    }

    #[test]
    fn jal_links_and_jr_returns() {
        let mut a = arch();
        let mut m = mem();
        a.pc = 4;
        step(&mut a, &Instr::Jal { rd: Reg::RA, target: 20 }, &mut m).unwrap();
        assert_eq!(a.pc, 20);
        assert_eq!(a.get(Reg::RA), 5);
        step(&mut a, &Instr::Jr { rs: Reg::RA }, &mut m).unwrap();
        assert_eq!(a.pc, 5);
    }

    #[test]
    fn effects_surface_to_host() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), 0x2000);
        let out = step(&mut a, &Instr::Mlock { rs: Reg(1) }, &mut m).unwrap();
        assert_eq!(out.effect, Effect::Mlock(0x2000));
        let out = step(&mut a, &Instr::Nthr { rd: Reg(2), target: 7 }, &mut m).unwrap();
        assert_eq!(out.effect, Effect::Nthr { rd: Reg(2), target: 7 });
        let out = step(&mut a, &Instr::Halt, &mut m).unwrap();
        assert_eq!(out.effect, Effect::Halt);
        let out = step(&mut a, &Instr::Kthr, &mut m).unwrap();
        assert_eq!(out.effect, Effect::Kthr);
    }

    #[test]
    fn tid_reads_worker_id() {
        let mut a = ArchState::new(0, WorkerId(7));
        let mut m = mem();
        step(&mut a, &Instr::Tid { rd: Reg(1) }, &mut m).unwrap();
        assert_eq!(a.get(Reg(1)), 7);
    }

    #[test]
    fn out_values() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), 42);
        a.setf(FReg(1), 1.5);
        let o1 = step(&mut a, &Instr::Out { rs: Reg(1) }, &mut m).unwrap();
        let o2 = step(&mut a, &Instr::OutF { fs: FReg(1) }, &mut m).unwrap();
        assert_eq!(o1.effect, Effect::Out(OutValue::Int(42)));
        assert_eq!(o2.effect, Effect::Out(OutValue::Float(1.5)));
        assert_eq!(OutValue::Int(42).as_int(), Some(42));
        assert_eq!(OutValue::Float(1.5).as_float(), Some(1.5));
        assert_eq!(OutValue::Int(42).as_float(), None);
    }

    #[test]
    fn cvt_roundtrip() {
        let mut a = arch();
        let mut m = mem();
        a.set(Reg(1), -7);
        step(&mut a, &Instr::CvtIF { fd: FReg(1), rs: Reg(1) }, &mut m).unwrap();
        assert_eq!(a.getf(FReg(1)), -7.0);
        step(&mut a, &Instr::CvtFI { rd: Reg(2), fs: FReg(1) }, &mut m).unwrap();
        assert_eq!(a.get(Reg(2)), -7);
    }
}
