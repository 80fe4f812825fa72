//! `capsule-serve`: a long-running simulation job server over the shared
//! scenario catalog.
//!
//! The server speaks two protocols over TCP (std::net only, no external
//! dependencies), negotiated from the first byte on the wire:
//!
//! - `capsule-serve/1` — newline-delimited JSON, one request per
//!   round-trip (fully preserved for backward compatibility);
//! - `capsule-serve/2` — length-prefixed binary frames ([`frame`]) with
//!   per-connection pipelining: many in-flight requests per socket,
//!   responses tagged by id and allowed out of order.
//!
//! A request names a [`capsule_bench::catalog`] scenario plus optional
//! machine-config overrides and a cycle budget; the response carries the
//! same `capsule-bench-report/1` object the evaluation binaries emit,
//! plus job metadata (queue wait, run time, cache hit), and renders
//! byte-identically over both protocols.
//!
//! Three properties matter and are tested end to end:
//!
//! - **Backpressure**: a bounded queue feeds the worker pool; when it is
//!   full, clients get a structured `queue-full` rejection immediately.
//! - **Cancellation**: operator `cancel` (and shutdown) trips a
//!   [`capsule_sim::CancelToken`] polled in the machine's cycle loop, so
//!   in-flight jobs stop promptly with a `cancelled` response.
//! - **Determinism**: reports contain only simulated quantities, so a
//!   result-cache hit returns the byte-identical report.
//!
//! Both this server and `capsule-fleet` run on one connection shell
//! ([`shell`]): listener, negotiation, request validation, shutdown and
//! post-mortem dumps live there once, and every reading either server
//! exposes is declared once in a [`readings`] table.
//!
//! See docs/SERVER.md for the wire schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod env;
pub mod frame;
pub mod load;
pub mod protocol;
pub mod readings;
pub mod server;
pub mod shell;

pub use cache::ResultCache;
pub use client::{
    probe, request_once, request_once_with, ClientError, Connection, ConnectionPool, Proto,
};
pub use client::{PooledConnection, ServerProbe};
pub use protocol::{ConfigOverrides, Request, RequestError, RunRequest, SCHEMA};
pub use server::{Server, ServerOptions};
