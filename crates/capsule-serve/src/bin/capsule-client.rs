//! One-shot capsule-serve client.
//!
//! Usage:
//!
//! ```text
//! capsule-client [--proto v1|v2] ADDR '{"op":"run","scenario":"table1_config"}'
//! capsule-client ADDR run SCENARIO [SCALE] [BUDGET]
//! capsule-client ADDR trace TRACE_ID
//! capsule-client ADDR preempt CACHE_KEY
//! capsule-client ADDR resume TOKEN
//! capsule-client ADDR health [KEY]
//! capsule-client ADDR stats|list|cancel|shutdown|metrics|dump
//! ```
//!
//! Sends one request and prints the server's response (pretty-printed
//! unless `--compact`). Exits nonzero when the server reports
//! `ok: false`. `--proto` picks the wire protocol — `v1` newline JSON
//! (default) or the framed `capsule-serve/2` (docs/SERVER.md); the
//! response is byte-identical either way, which CI checks. The
//! `CAPSULE_CLIENT_PROTO` environment variable sets the default.
//!
//! `preempt` parks the checkpointable job whose `cache_key` matches (the
//! key is echoed by the parked job's `preempted` response and by
//! `run`). `resume` first asks the endpoint for the parked job's
//! canonical request via `checkpoint-fetch`, then replays it with
//! `resume_from` so the job continues from its last checkpoint
//! (docs/CHECKPOINT.md).

use capsule_core::output::Json;
use capsule_serve::client::{request_once, request_once_with, Proto};
use capsule_serve::env::env_parsed;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let compact = if let Some(i) = args.iter().position(|a| a == "--compact") {
        args.remove(i);
        true
    } else {
        false
    };
    let mut proto: Proto = env_parsed("CAPSULE_CLIENT_PROTO", Proto::V1);
    if let Some(i) = args.iter().position(|a| a == "--proto") {
        args.remove(i);
        if i >= args.len() {
            eprintln!("--proto expects a value (v1 or v2)");
            std::process::exit(2);
        }
        let v = args.remove(i);
        proto = Proto::parse(&v).unwrap_or_else(|| {
            eprintln!("--proto expects v1 or v2, got {v:?}");
            std::process::exit(2);
        });
    }
    if args.len() < 2 {
        eprintln!("usage: capsule-client [--proto v1|v2] ADDR REQUEST... (see docs/SERVER.md)");
        std::process::exit(2);
    }
    let addr = args.remove(0);
    let line = build_request(&addr, &args);

    let json = request_once_with(&addr, &line, proto).unwrap_or_else(|e| {
        eprintln!("{addr}: {e}");
        std::process::exit(1);
    });
    if compact {
        println!("{}", json.to_string_compact());
    } else {
        println!("{}", json.to_string_pretty());
    }
    let ok = json.get("ok").and_then(Json::as_bool).unwrap_or(false);
    std::process::exit(if ok { 0 } else { 1 });
}

fn build_request(addr: &str, args: &[String]) -> String {
    if args[0].trim_start().starts_with('{') {
        return args[0].clone();
    }
    match args[0].as_str() {
        "stats" | "list" | "cancel" | "shutdown" | "metrics" | "dump" => {
            format!(r#"{{"op":"{}"}}"#, args[0])
        }
        "health" => {
            let mut req = Json::object();
            req.push("op", "health");
            if let Some(key) = args.get(1) {
                req.push("key", key.as_str());
            }
            req.to_string_compact()
        }
        "trace" => {
            let Some(id) = args.get(1) else {
                eprintln!("trace needs a trace id (submitted earlier via a run's trace_id)");
                std::process::exit(2);
            };
            let mut req = Json::object();
            req.push("op", "trace").push("trace_id", id.as_str());
            req.to_string_compact()
        }
        "preempt" => {
            let Some(key) = args.get(1) else {
                eprintln!("preempt needs the job's cache_key (16 hex digits, echoed by `run`)");
                std::process::exit(2);
            };
            let mut req = Json::object();
            req.push("op", "preempt").push("cache_key", key.as_str());
            req.to_string_compact()
        }
        "resume" => {
            let Some(token) = args.get(1) else {
                eprintln!("resume needs a checkpoint token (the parked job's cache_key)");
                std::process::exit(2);
            };
            // The canonical run the checkpoint belongs to lives next to
            // the blob; fetch it, then replay it with `resume_from` so
            // the endpoint continues from the checkpoint.
            let mut fetch = Json::object();
            fetch.push("op", "checkpoint-fetch").push("token", token.as_str());
            let reply = request_once(addr, &fetch.to_string_compact()).unwrap_or_else(|e| {
                eprintln!("{addr}: {e}");
                std::process::exit(1);
            });
            if reply.get("ok").and_then(Json::as_bool) != Some(true) {
                eprintln!("{}", reply.to_string_pretty());
                std::process::exit(1);
            }
            let Some(canonical) = reply.get("canonical").and_then(Json::as_str) else {
                eprintln!("checkpoint-fetch answered without a canonical request");
                std::process::exit(1);
            };
            let mut req = Json::parse(canonical).unwrap_or_else(|e| {
                eprintln!("stored canonical request is not valid json: {e}");
                std::process::exit(1);
            });
            req.push("resume_from", token.as_str());
            req.to_string_compact()
        }
        "run" => {
            let Some(scenario) = args.get(1) else {
                eprintln!("run needs a scenario name (see `capsule-client ADDR list`)");
                std::process::exit(2);
            };
            let mut req = Json::object();
            req.push("op", "run").push("scenario", scenario.as_str());
            if let Some(scale) = args.get(2) {
                req.push("scale", scale.as_str());
            }
            if let Some(budget) = args.get(3) {
                let b: u64 = budget.parse().unwrap_or_else(|_| {
                    eprintln!("budget must be an integer, got {budget:?}");
                    std::process::exit(2);
                });
                req.push("budget", b);
            }
            req.to_string_compact()
        }
        other => {
            eprintln!(
                "unknown request {other:?} (run, trace, preempt, resume, health, stats, list, \
                 cancel, shutdown, metrics, dump or raw json)"
            );
            std::process::exit(2);
        }
    }
}
