//! `capsbench reference`: re-derives the expected report of every
//! distinct job a served workload sends, in process through
//! [`capsule_bench::BatchRunner`], and compares it with what an
//! in-process `capsule-serve` answers over both protocols.
//!
//! The references are computed, never stored: a change that alters the
//! simulated model on purpose reruns this command instead of editing a
//! copy of today's output. Prints one JSON line per job (canonical form,
//! cache key, FNV-1a of the report bytes, match) and exits nonzero on
//! any mismatch.

use std::process::ExitCode;

use capsule_bench::catalog;
use capsule_bench::BatchRunner;
use capsule_core::output::Json;
use capsule_serve::client::Proto;
use capsule_serve::{Server, ServerOptions};

use crate::served::fnv1a64;

pub fn main(argv: &[String]) -> ExitCode {
    let jobs = match argv {
        [flag, w] if flag == "--workload" && w == "serve-hot" => crate::serve_hot::keys(),
        [flag, w] if flag == "--workload" && w == "fleet-miss" => crate::fleet_miss::kinds(),
        _ => {
            eprintln!("usage: capsbench reference --workload serve-hot|fleet-miss");
            return ExitCode::from(2);
        }
    };
    let server = match Server::start(
        "127.0.0.1:0",
        ServerOptions { workers: 1, ..ServerOptions::default() },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("capsbench: cannot start a server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr().to_string();
    let runner = BatchRunner::with_workers(1);
    let mut mismatches = 0;
    for job in &jobs {
        let title = catalog::find(job.entry).map_or(job.entry, |e| e.title);
        let expected = match runner.try_run_with(title, job.scenarios(), job.budget, None) {
            Ok(report) => report.to_json().to_string_compact(),
            Err(e) => format!("batch failed: {e}"),
        };
        let served: Vec<String> = [Proto::V1, Proto::V2]
            .iter()
            .map(|&p| match capsule_serve::request_once_with(&addr, &job.line(None), p) {
                Ok(r) => {
                    r.get("report").map_or_else(|| r.to_string_compact(), Json::to_string_compact)
                }
                Err(e) => format!("transport: {e}"),
            })
            .collect();
        let matches = served.iter().all(|s| *s == expected);
        if !matches {
            mismatches += 1;
        }
        let mut line = Json::object();
        line.push("canonical", job.canonical())
            .push("cache_key", format!("{:016x}", job.key()))
            .push("report_fnv", format!("{:016x}", fnv1a64(expected.as_bytes())))
            .push("match", matches);
        println!("{}", line.to_string_compact());
    }
    server.shutdown();
    if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("capsbench: {mismatches} served reports differ from the in-process reference");
        ExitCode::FAILURE
    }
}
