//! Cycle-level simulator of the paper's SOMT (Self-Organized
//! Multi-Threaded) processor, plus the plain SMT and superscalar baselines.
//!
//! The machine implements the paper's hardware support for component
//! programs: conditional thread division (`nthr`), worker death (`kthr`),
//! the death-rate division throttle, a LIFO context stack with a
//! load-latency swap heuristic, and the fast lock table
//! (`mlock`/`munlock`). Timing follows the SimpleScalar discipline the
//! paper's own simulator was built on.
//!
//! Two execution engines share one set of architectural semantics
//! ([`exec`]):
//!
//! - [`machine::Machine`] — the cycle-level model (Table 1 configuration),
//! - [`interp::Interp`] — a fast functional reference used for
//!   differential testing and workload validation.
//!
//! # Example
//!
//! ```
//! use capsule_core::config::MachineConfig;
//! use capsule_isa::asm::Asm;
//! use capsule_isa::program::{DataBuilder, Program, ThreadSpec};
//! use capsule_isa::reg::Reg;
//! use capsule_sim::machine::Machine;
//!
//! let mut a = Asm::new();
//! a.li(Reg(1), 42);
//! a.out(Reg(1));
//! a.halt();
//! let prog = Program::new(a.assemble()?, DataBuilder::new().build(), 4096)
//!     .with_thread(ThreadSpec::at(0));
//! let mut m = Machine::new(MachineConfig::table1_somt(), &prog).unwrap();
//! let outcome = m.run(10_000).unwrap();
//! assert_eq!(outcome.ints(), vec![42]);
//! # Ok::<(), capsule_isa::asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod cancel;
pub mod chrome;
pub mod exec;
pub mod interp;
pub mod locks;
pub mod machine;
pub mod outcome;
mod pipeline;
pub mod predictor;
pub mod snapshot;
pub mod trace;
mod wheel;

pub use cancel::CancelToken;
pub use chrome::chrome_trace;
pub use exec::{ArchState, Memory, OutValue, TrapKind};
pub use interp::{Interp, InterpConfig, InterpError, InterpOutcome};
pub use machine::{Machine, WarmMachine};
pub use outcome::{SimError, SimOutcome, StageCount, StageProfile, StageTimes};
pub use trace::{Trace, TraceEvent, TraceKind};
