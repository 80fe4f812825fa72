//! Loadable programs: text + initialized data + initial threads.
//!
//! A [`Program`] is what the simulator boots. The data image built by
//! [`DataBuilder`] is loaded at [`DATA_BASE`]; addresses below it trap as
//! null-pointer dereferences. Statically parallelized programs (the paper's
//! standard-SMT baseline) list several [`ThreadSpec`] entries; component
//! programs list exactly one ancestor worker and grow by division.

use std::collections::BTreeMap;
use std::fmt;

use crate::instr::Instr;
use crate::reg::{FReg, Reg};

/// Base address of the initialized data image (addresses below trap).
pub const DATA_BASE: u64 = 4096;

/// Initial state of one loader-created thread.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThreadSpec {
    /// Entry point (instruction index).
    pub pc: u32,
    /// Initial integer register values.
    pub int_regs: Vec<(Reg, i64)>,
    /// Initial FP register values.
    pub fp_regs: Vec<(FReg, f64)>,
}

impl ThreadSpec {
    /// A thread starting at `pc` with an empty register file.
    pub fn at(pc: u32) -> Self {
        ThreadSpec { pc, ..Default::default() }
    }

    /// Adds an initial integer register value (builder style).
    pub fn with_reg(mut self, r: Reg, v: i64) -> Self {
        self.int_regs.push((r, v));
        self
    }

    /// Adds an initial FP register value (builder style).
    pub fn with_freg(mut self, f: FReg, v: f64) -> Self {
        self.fp_regs.push((f, v));
        self
    }
}

/// Validation errors for [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The text section is empty.
    EmptyText,
    /// No initial thread was specified.
    NoThreads,
    /// A control-transfer target points outside the text section.
    TargetOutOfRange {
        /// Offending instruction index.
        at: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A thread entry point lies outside the text section.
    EntryOutOfRange {
        /// Thread index in [`Program::threads`].
        thread: usize,
        /// The out-of-range entry pc.
        pc: u32,
    },
    /// The data image does not fit under `mem_size`.
    DataTooLarge {
        /// Required bytes (base + laid-out data length).
        required: usize,
        /// Configured memory size.
        mem_size: usize,
    },
    /// More data bytes are stored than the image lays out.
    DataOverrun {
        /// Stored bytes ([`Program::data`]'s length).
        stored: usize,
        /// Laid-out length ([`Program::data_len`]).
        data_len: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::EmptyText => write!(f, "program has no instructions"),
            ProgramError::NoThreads => write!(f, "program has no initial thread"),
            ProgramError::TargetOutOfRange { at, target } => {
                write!(f, "instruction {at} targets {target}, outside the text section")
            }
            ProgramError::EntryOutOfRange { thread, pc } => {
                write!(f, "thread {thread} entry pc {pc} outside the text section")
            }
            ProgramError::DataTooLarge { required, mem_size } => {
                write!(f, "data image needs {required} bytes but memory is {mem_size}")
            }
            ProgramError::DataOverrun { stored, data_len } => {
                write!(f, "data image stores {stored} bytes but lays out only {data_len}")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete loadable program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Instruction stream.
    pub text: Vec<Instr>,
    /// Initialized data, loaded at [`DATA_BASE`]: the laid-out image up
    /// to its last written byte.
    pub data: Vec<u8>,
    /// Laid-out length of the data image: `data`, then zero bytes up to
    /// this length (reserved space is a length, not stored bytes).
    pub data_len: usize,
    /// Total data-memory size in bytes (≥ `DATA_BASE + data_len`).
    pub mem_size: usize,
    /// Loader-created threads (at least one).
    pub threads: Vec<ThreadSpec>,
    /// Named data addresses, for diagnostics and result extraction.
    pub symbols: BTreeMap<String, u64>,
}

impl Program {
    /// Builds a program, sizing memory to the data image plus `heap_bytes`
    /// of headroom.
    pub fn new(text: Vec<Instr>, data: DataImage, heap_bytes: usize) -> Self {
        let mem_size = DATA_BASE as usize + data.len + heap_bytes;
        Program {
            text,
            data: data.bytes,
            data_len: data.len,
            mem_size,
            threads: Vec::new(),
            symbols: data.symbols,
        }
    }

    /// Adds a loader thread (builder style).
    pub fn with_thread(mut self, t: ThreadSpec) -> Self {
        self.threads.push(t);
        self
    }

    /// Address of a data symbol.
    ///
    /// # Panics
    ///
    /// Panics if the symbol is unknown; symbols are fixed at build time so
    /// a miss is a programming error in the workload builder.
    pub fn symbol(&self, name: &str) -> u64 {
        *self.symbols.get(name).unwrap_or_else(|| panic!("unknown data symbol `{name}`"))
    }

    /// Structural validation (targets, entries, memory bounds).
    ///
    /// # Errors
    ///
    /// See [`ProgramError`].
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.text.is_empty() {
            return Err(ProgramError::EmptyText);
        }
        if self.threads.is_empty() {
            return Err(ProgramError::NoThreads);
        }
        let len = self.text.len() as u32;
        for (at, i) in self.text.iter().enumerate() {
            if let Some(target) = i.static_target() {
                if target >= len {
                    return Err(ProgramError::TargetOutOfRange { at, target });
                }
            }
        }
        for (thread, t) in self.threads.iter().enumerate() {
            if t.pc >= len {
                return Err(ProgramError::EntryOutOfRange { thread, pc: t.pc });
            }
        }
        if self.data.len() > self.data_len {
            return Err(ProgramError::DataOverrun {
                stored: self.data.len(),
                data_len: self.data_len,
            });
        }
        let required = DATA_BASE as usize + self.data_len;
        if required > self.mem_size {
            return Err(ProgramError::DataTooLarge { required, mem_size: self.mem_size });
        }
        Ok(())
    }
}

/// Finished data image (bytes + symbol table) from a [`DataBuilder`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataImage {
    /// Stored bytes, loaded at [`DATA_BASE`]: the image up to its last
    /// written byte.
    pub bytes: Vec<u8>,
    /// Laid-out length: `bytes`, then zero bytes up to this length.
    pub len: usize,
    /// Symbol name → absolute address.
    pub symbols: BTreeMap<String, u64>,
}

/// Incremental layout of the initialized data section.
///
/// All `word`-level helpers 8-align automatically; addresses returned are
/// absolute (already offset by [`DATA_BASE`]).
///
/// Reserved zeros ([`DataBuilder::zeros`], [`DataBuilder::align`],
/// [`DataBuilder::stack`]) are only counted: the next written value
/// stores them, and [`DataBuilder::build`] leaves trailing ones out of
/// the stored bytes. Addresses and lengths are those of the full layout.
#[derive(Debug, Clone, Default)]
pub struct DataBuilder {
    bytes: Vec<u8>,
    /// Zero bytes laid out after `bytes` but not stored yet.
    pending_zeros: usize,
    symbols: BTreeMap<String, u64>,
}

impl DataBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current absolute address (next byte to be laid out).
    pub fn here(&self) -> u64 {
        DATA_BASE + self.len() as u64
    }

    /// Pads to an `n`-byte boundary.
    pub fn align(&mut self, n: usize) {
        assert!(n.is_power_of_two(), "alignment must be a power of two");
        let here = self.here() as usize;
        self.pending_zeros += here.next_multiple_of(n) - here;
    }

    /// Stores the pending zeros and makes room for `n` more bytes;
    /// returns the address those bytes start at.
    fn open(&mut self, n: usize) -> u64 {
        let addr = self.here();
        self.bytes.reserve(self.pending_zeros + n);
        self.bytes.resize(self.bytes.len() + self.pending_zeros, 0);
        self.pending_zeros = 0;
        addr
    }

    /// Names the current address.
    pub fn label(&mut self, name: impl Into<String>) -> u64 {
        let addr = self.here();
        self.symbols.insert(name.into(), addr);
        addr
    }

    /// Appends one 64-bit word; returns its address.
    pub fn word(&mut self, v: i64) -> u64 {
        self.align(8);
        let addr = self.open(8);
        self.bytes.extend_from_slice(&v.to_le_bytes());
        addr
    }

    /// Appends a slice of 64-bit words; returns the start address.
    pub fn words(&mut self, vs: &[i64]) -> u64 {
        self.align(8);
        let addr = self.open(8 * vs.len());
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Appends a slice of f64 values; returns the start address.
    pub fn f64s(&mut self, vs: &[f64]) -> u64 {
        self.align(8);
        let addr = self.open(8 * vs.len());
        for v in vs {
            self.bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    /// Appends raw bytes; returns the start address.
    pub fn raw(&mut self, bs: &[u8]) -> u64 {
        let addr = self.open(bs.len());
        self.bytes.extend_from_slice(bs);
        addr
    }

    /// Reserves `n` zero bytes; returns the start address.
    pub fn zeros(&mut self, n: usize) -> u64 {
        let addr = self.here();
        self.pending_zeros += n;
        addr
    }

    /// Reserves a downward-growing stack of `bytes` bytes and returns its
    /// initial (top) stack-pointer value, 16-aligned.
    pub fn stack(&mut self, bytes: usize) -> u64 {
        self.align(16);
        let base = self.zeros(bytes);
        let top = base + bytes as u64;
        top & !15
    }

    /// Address of a previously placed symbol.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Bytes laid out so far.
    pub fn len(&self) -> usize {
        self.bytes.len() + self.pending_zeros
    }

    /// True when nothing has been laid out.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the image; trailing reserved zeros stay a length.
    pub fn build(self) -> DataImage {
        DataImage { len: self.len(), bytes: self.bytes, symbols: self.symbols }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;

    #[test]
    fn data_layout_and_symbols() {
        let mut d = DataBuilder::new();
        assert!(d.is_empty());
        let a = d.label("arr");
        let w = d.words(&[1, 2, 3]);
        assert_eq!(a, DATA_BASE);
        assert_eq!(w, DATA_BASE);
        d.raw(&[0xff]);
        let x = d.word(7); // must realign to 8
        assert_eq!(x % 8, 0);
        let img = d.build();
        assert_eq!(img.symbols["arr"], DATA_BASE);
        assert_eq!(&img.bytes[0..8], &1i64.to_le_bytes());
    }

    #[test]
    fn stack_is_aligned_and_above_base() {
        let mut d = DataBuilder::new();
        d.raw(&[1, 2, 3]);
        let top = d.stack(1024);
        assert_eq!(top % 16, 0);
        assert!(top >= DATA_BASE + 1024);
    }

    #[test]
    fn f64_layout_roundtrips() {
        let mut d = DataBuilder::new();
        let addr = d.f64s(&[1.5, -2.25]);
        let img = d.build();
        let off = (addr - DATA_BASE) as usize;
        let bits = u64::from_le_bytes(img.bytes[off..off + 8].try_into().unwrap());
        assert_eq!(f64::from_bits(bits), 1.5);
    }

    fn tiny_program() -> Program {
        let mut a = Asm::new();
        a.li(Reg(1), 42);
        a.out(Reg(1));
        a.halt();
        let mut d = DataBuilder::new();
        d.label("x");
        d.word(9);
        Program::new(a.assemble().unwrap(), d.build(), 4096)
            .with_thread(ThreadSpec::at(0).with_reg(Reg::SP, 8192))
    }

    #[test]
    fn program_validates() {
        tiny_program().validate().unwrap();
    }

    #[test]
    fn program_symbol_lookup() {
        assert_eq!(tiny_program().symbol("x"), DATA_BASE);
    }

    #[test]
    #[should_panic(expected = "unknown data symbol")]
    fn program_symbol_missing_panics() {
        tiny_program().symbol("nope");
    }

    #[test]
    fn validation_catches_errors() {
        let mut p = tiny_program();
        p.threads.clear();
        assert_eq!(p.validate(), Err(ProgramError::NoThreads));

        let mut p = tiny_program();
        p.text.clear();
        assert_eq!(p.validate(), Err(ProgramError::EmptyText));

        let mut p = tiny_program();
        p.threads[0].pc = 99;
        assert!(matches!(p.validate(), Err(ProgramError::EntryOutOfRange { .. })));

        let mut p = tiny_program();
        p.text.push(Instr::J { target: 1000 });
        assert!(matches!(p.validate(), Err(ProgramError::TargetOutOfRange { .. })));

        let mut p = tiny_program();
        p.mem_size = 16;
        assert!(matches!(p.validate(), Err(ProgramError::DataTooLarge { .. })));

        let mut p = tiny_program();
        p.data.push(1);
        assert!(matches!(p.validate(), Err(ProgramError::DataOverrun { .. })));
    }

    #[test]
    fn thread_spec_builders() {
        let t = ThreadSpec::at(5).with_reg(Reg(1), 10).with_freg(FReg(2), 0.5);
        assert_eq!(t.pc, 5);
        assert_eq!(t.int_regs, vec![(Reg(1), 10)]);
        assert_eq!(t.fp_regs, vec![(FReg(2), 0.5)]);
    }

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<ProgramError> = vec![
            ProgramError::EmptyText,
            ProgramError::NoThreads,
            ProgramError::TargetOutOfRange { at: 1, target: 2 },
            ProgramError::EntryOutOfRange { thread: 0, pc: 3 },
            ProgramError::DataTooLarge { required: 10, mem_size: 5 },
            ProgramError::DataOverrun { stored: 9, data_len: 8 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
