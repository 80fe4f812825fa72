//! Reserved zeros in a data image are a length, not stored bytes. These
//! tests pin that the lazy layout is invisible: seeded random builder
//! sequences lay out, size and load exactly what an eager builder that
//! stores every zero does, and a machine prepared from either image is
//! the same machine (same identity hash, same snapshot bytes).

use std::collections::BTreeMap;

use capsule_core::codec::Writer;
use capsule_core::config::MachineConfig;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_isa::asm::Asm;
use capsule_isa::program::{DataBuilder, DataImage, Program, ThreadSpec, DATA_BASE};
use capsule_sim::{Machine, Memory};

/// Reference layout: every reserved zero is stored as it is laid out.
#[derive(Default)]
struct EagerBuilder {
    bytes: Vec<u8>,
    symbols: BTreeMap<String, u64>,
}

impl EagerBuilder {
    fn here(&self) -> u64 {
        DATA_BASE + self.bytes.len() as u64
    }

    fn align(&mut self, n: usize) {
        while !(self.here() as usize).is_multiple_of(n) {
            self.bytes.push(0);
        }
    }

    fn label(&mut self, name: &str) -> u64 {
        let addr = self.here();
        self.symbols.insert(name.to_string(), addr);
        addr
    }

    fn words(&mut self, vs: &[i64]) -> u64 {
        self.align(8);
        let addr = self.here();
        for v in vs {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        addr
    }

    fn raw(&mut self, bs: &[u8]) -> u64 {
        let addr = self.here();
        self.bytes.extend_from_slice(bs);
        addr
    }

    fn zeros(&mut self, n: usize) -> u64 {
        let addr = self.here();
        self.bytes.resize(self.bytes.len() + n, 0);
        addr
    }

    fn stack(&mut self, bytes: usize) -> u64 {
        self.align(16);
        let base = self.zeros(bytes);
        (base + bytes as u64) & !15
    }

    fn build(self) -> DataImage {
        DataImage { len: self.bytes.len(), bytes: self.bytes, symbols: self.symbols }
    }
}

fn program(image: DataImage) -> Program {
    let mut a = Asm::new();
    a.halt();
    Program::new(a.assemble().expect("assembles"), image, 4096).with_thread(ThreadSpec::at(0))
}

fn loaded(p: &Program) -> Vec<u8> {
    let mut w = Writer::new();
    Memory::new(p.mem_size, DATA_BASE, &p.data).encode(&mut w);
    w.into_bytes()
}

/// One random builder step, applied to both builders; the addresses
/// they hand back must agree.
fn step(rng: &mut Xoshiro256StarStar, n: usize, lazy: &mut DataBuilder, eager: &mut EagerBuilder) {
    let (got, want) = match rng.usize_below(8) {
        0 => {
            let v = rng.i64_range(-3, 3);
            (lazy.word(v), eager.words(&[v]))
        }
        1 => {
            let vs: Vec<i64> = (0..rng.usize_below(5)).map(|_| rng.i64_range(-9, 9)).collect();
            (lazy.words(&vs), eager.words(&vs))
        }
        2 => {
            let vs: Vec<f64> =
                (0..rng.usize_below(5)).map(|_| rng.i64_range(-9, 9) as f64).collect();
            let bits: Vec<i64> = vs.iter().map(|v| v.to_bits() as i64).collect();
            (lazy.f64s(&vs), eager.words(&bits))
        }
        3 => {
            let bs: Vec<u8> = (0..rng.usize_below(12)).map(|_| rng.next_u32() as u8).collect();
            (lazy.raw(&bs), eager.raw(&bs))
        }
        4 => {
            let k = rng.usize_below(300);
            (lazy.zeros(k), eager.zeros(k))
        }
        5 => {
            let a = 1 << rng.usize_below(7);
            lazy.align(a);
            eager.align(a);
            (lazy.here(), eager.here())
        }
        6 => {
            let k = rng.usize_below(200);
            (lazy.stack(k), eager.stack(k))
        }
        _ => {
            let name = format!("s{n}");
            (lazy.label(name.clone()), eager.label(&name))
        }
    };
    assert_eq!(got, want, "returned address");
    assert_eq!(lazy.here(), eager.here(), "here()");
    assert_eq!(lazy.len(), eager.bytes.len(), "len()");
}

#[test]
fn lazy_zeros_lay_out_exactly_what_eager_zeros_did() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xda7a_0001);
    let mut trailing_zeros_seen = 0;
    for case in 0..200 {
        let mut lazy = DataBuilder::new();
        let mut eager = EagerBuilder::default();
        for n in 0..rng.usize_below(40) {
            step(&mut rng, n, &mut lazy, &mut eager);
        }
        let (lazy, eager) = (lazy.build(), eager.build());
        assert_eq!(lazy.len, eager.len, "case {case}: laid-out length");
        assert_eq!(lazy.symbols, eager.symbols, "case {case}: symbols");
        assert!(lazy.bytes.len() <= lazy.len, "case {case}: stored past the layout");
        assert_eq!(lazy.bytes[..], eager.bytes[..lazy.bytes.len()], "case {case}: stored bytes");
        assert!(eager.bytes[lazy.bytes.len()..].iter().all(|&b| b == 0), "case {case}: tail");
        trailing_zeros_seen += usize::from(lazy.bytes.len() < lazy.len);

        let (lazy, eager) = (program(lazy), program(eager));
        assert_eq!(lazy.mem_size, eager.mem_size, "case {case}: mem_size");
        assert_eq!(lazy.data_len, eager.data_len, "case {case}: data_len");
        lazy.validate().expect("lazy image validates");
        assert_eq!(loaded(&lazy), loaded(&eager), "case {case}: loaded memory");
    }
    assert!(trailing_zeros_seen > 50, "only {trailing_zeros_seen} cases ended in reserved zeros");
}

#[test]
fn a_stored_zero_tail_prepares_the_same_machine_as_written_zeros() {
    let mut d = DataBuilder::new();
    d.word(7);
    d.zeros(1000);
    d.raw(&[1, 2, 3]);
    d.stack(5003);
    let lazy = program(d.build());
    assert!(lazy.data.len() < lazy.data_len, "the tail is a length");
    let mut eager = lazy.clone();
    eager.data.resize(eager.data_len, 0);

    let cfg = MachineConfig::table1_somt();
    let snap = |p: &Program| Machine::new(cfg.clone(), p).expect("machine").snapshot();
    // The identity hash sits after the magic and the format version.
    let sig = |blob: &[u8]| blob[12..20].to_vec();
    let (lazy_blob, eager_blob) = (snap(&lazy), snap(&eager));
    assert_eq!(sig(&lazy_blob), sig(&eager_blob), "identity hash differs");
    assert_eq!(lazy_blob, eager_blob, "loaded machine differs");

    // One more zero word in the layout is a different image.
    let mut longer = lazy.clone();
    longer.data_len += 8;
    assert_ne!(sig(&snap(&longer)), sig(&lazy_blob), "the laid-out length is hashed");
}
