//! End-to-end tests for the framed `capsule-serve/2` wire protocol: an
//! in-process [`Server`] on an ephemeral port, driven over real TCP
//! connections with hand-built frames where the test needs byte-level
//! control (torn frames, oversized lengths, version mismatches) and the
//! [`Connection`] client where it doesn't.
//!
//! The v1 newline-JSON protocol stays the outer contract: every test
//! here that produces a response also pins it byte-identical to what the
//! same request answers over v1, so the frame layer can never fork the
//! payload.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use capsule_core::output::Json;
use capsule_core::rng::{Rng, Xoshiro256StarStar};
use capsule_serve::client::{Connection, Proto};
use capsule_serve::frame::{self, FrameError};
use capsule_serve::{Server, ServerOptions};

fn start(workers: usize, queue: usize, cache: usize) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerOptions {
            workers,
            queue,
            cache,
            traces: 16,
            checkpoint_cycles: 0,
            checkpoints: 8,
            flight: 64,
        },
    )
    .expect("bind ephemeral port")
}

const SMOKE_RUN: &str = r#"{"op":"run","scenario":"table1_config","scale":"smoke"}"#;
/// Full-scale fig6 sorts 12000 elements — takes long enough in a debug
/// build that a smoke job submitted after it reliably finishes first.
const LONG_RUN: &str = r#"{"op":"run","scenario":"fig6_division_tree","scale":"full"}"#;

/// One v1 request/response exchange on a fresh connection, returning the
/// raw response line (newline stripped) for byte comparisons.
fn v1_request_raw(server: &Server, line: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(format!("{line}\n").as_bytes()).expect("send");
    stream.flush().expect("flush");
    let mut response = String::new();
    BufReader::new(&stream).read_line(&mut response).expect("recv");
    response.trim_end_matches('\n').to_string()
}

/// A raw v2 connection with the preamble already exchanged.
fn v2_connect(server: &Server) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    frame::write_preamble(&mut stream).expect("send preamble");
    frame::read_preamble(&mut stream).expect("server preamble");
    stream
}

/// One v2 request/response exchange, returning the raw payload bytes.
fn v2_request_raw(server: &Server, line: &str) -> Vec<u8> {
    let mut stream = v2_connect(server);
    frame::write_frame(&mut stream, 1, frame::tag::RUN, line.as_bytes()).expect("send frame");
    let reply = frame::read_frame(&mut stream).expect("read frame");
    assert_eq!(reply.id, 1);
    reply.payload
}

fn ok(json: &Json) -> bool {
    json.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_code(json: &Json) -> Option<&str> {
    json.get("error").and_then(Json::as_str)
}

#[test]
fn v1_and_v2_answers_are_byte_identical() {
    let server = start(2, 8, 8);

    // Warm the cache so both probes see identical server state (a hit).
    let warm = Json::parse(&v1_request_raw(&server, SMOKE_RUN)).expect("warm");
    assert!(ok(&warm), "warm run failed: {}", warm.to_string_compact());

    let v1 = v1_request_raw(&server, SMOKE_RUN);
    let v2 = v2_request_raw(&server, SMOKE_RUN);
    assert_eq!(v1.as_bytes(), &v2[..], "the frame layer forked the response payload");

    // Both were served from cache, so the reports inside match the warm
    // run too — the whole chain is one byte-stable answer.
    let parsed = Json::parse(&v1).expect("parse");
    assert_eq!(parsed.get("cache_hit").and_then(Json::as_bool), Some(true));

    server.shutdown();
}

#[test]
fn a_v1_only_client_works_against_a_v2_capable_server() {
    // Negotiation is per connection, from the first bytes: plain
    // newline-JSON clients and framed clients interleave freely on the
    // same listener.
    let server = start(2, 8, 8);

    let v1_first = Json::parse(&v1_request_raw(&server, SMOKE_RUN)).expect("v1");
    assert!(ok(&v1_first));

    let mut framed =
        Connection::connect_with(&server.local_addr().to_string(), Proto::V2).expect("v2 connect");
    let v2 = framed.request(SMOKE_RUN).expect("v2 request");
    assert!(ok(&v2));
    assert_eq!(v2.get("cache_hit").and_then(Json::as_bool), Some(true));

    let v1_again = Json::parse(&v1_request_raw(&server, r#"{"op":"stats"}"#)).expect("stats");
    assert!(ok(&v1_again));

    server.shutdown();
}

#[test]
fn torn_frames_across_arbitrary_segment_boundaries_reassemble() {
    let server = start(2, 8, 8);
    // Warm the cache first so the reference exchange and every torn
    // round answer from identical server state (a cache hit).
    let _ = v2_request_raw(&server, SMOKE_RUN);
    let expected = v2_request_raw(&server, SMOKE_RUN);

    // The whole client side of the exchange — preamble plus one frame —
    // dribbled out in seeded random segments with the stream flushed
    // after every one, so the server sees arbitrary read boundaries.
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    for round in 0..4 {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame::MAGIC);
        bytes.push(frame::VERSION);
        bytes.extend_from_slice(&frame::encode_frame(9, frame::tag::RUN, SMOKE_RUN.as_bytes()));

        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut sent = 0usize;
        while sent < bytes.len() {
            let n = 1 + rng.u64_below((bytes.len() - sent) as u64) as usize;
            stream.write_all(&bytes[sent..sent + n]).expect("dribble");
            stream.flush().expect("flush");
            sent += n;
            std::thread::sleep(Duration::from_millis(1));
        }
        frame::read_preamble(&mut stream).expect("server preamble");
        let reply = frame::read_frame(&mut stream).expect("read frame");
        assert_eq!(reply.id, 9, "round {round}");
        assert_eq!(reply.tag, frame::tag::RUN, "round {round}");
        assert_eq!(reply.payload, expected, "round {round}: torn delivery changed the answer");
    }

    server.shutdown();
}

#[test]
fn pipelined_jobs_complete_out_of_order_with_matching_ids() {
    let server = start(2, 8, 8);
    let addr = server.local_addr().to_string();

    let mut conn = Connection::connect_with(&addr, Proto::V2).expect("connect");
    let long_id = conn.submit(LONG_RUN).expect("submit long");
    // Make sure the long job is on a worker before the smoke job is even
    // submitted, so its earlier arrival is not a scheduling accident.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = Json::parse(&v1_request_raw(&server, r#"{"op":"stats"}"#)).expect("stats");
        if stats.get("jobs_in_flight").and_then(Json::as_i64) == Some(1) {
            break;
        }
        assert!(Instant::now() < deadline, "long job never started");
        std::thread::sleep(Duration::from_millis(20));
    }
    let smoke_id = conn.submit(SMOKE_RUN).expect("submit smoke");
    assert_ne!(long_id, smoke_id);

    // The cheap job overtakes the expensive one on the same connection.
    let (first_id, first) = conn.collect().expect("first completion");
    assert_eq!(first_id, smoke_id, "smoke job should complete first");
    assert!(ok(&first), "smoke job failed: {}", first.to_string_compact());

    // Cancel unblocks the long job; its (structured) failure still comes
    // back tagged with the right id.
    let cancel = Json::parse(&v1_request_raw(&server, r#"{"op":"cancel"}"#)).expect("cancel");
    assert!(ok(&cancel));
    let (second_id, second) = conn.collect().expect("second completion");
    assert_eq!(second_id, long_id);
    assert_eq!(error_code(&second), Some("cancelled"));

    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_rejected_without_reading_the_body() {
    let server = start(1, 2, 2);
    let mut stream = v2_connect(&server);

    // A length prefix promising more than MAX_FRAME_LEN. The body never
    // follows — the server must answer from the prefix alone (which is
    // why the rejection carries id 0: the id lives in the unread body).
    stream.write_all(&(frame::MAX_FRAME_LEN + 1).to_le_bytes()).expect("send oversized len");
    stream.flush().expect("flush");

    let reply = frame::read_frame(&mut stream).expect("bad-frame answer");
    assert_eq!(reply.id, 0);
    assert_eq!(reply.tag, frame::tag::ERROR);
    let json = Json::parse(std::str::from_utf8(&reply.payload).expect("utf8")).expect("json");
    assert_eq!(error_code(&json), Some("bad-frame"));
    let detail = json.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("exceeds"), "detail was {detail:?}");

    // An oversized length cannot be resynchronized past (the body was
    // never read), so the connection is closed.
    match frame::read_frame(&mut stream) {
        Err(FrameError::Eof) => {}
        other => panic!("expected EOF after oversized frame, got {other:?}"),
    }

    server.shutdown();
}

#[test]
fn truncated_frame_gets_a_bad_frame_answer_and_the_connection_survives() {
    let server = start(1, 2, 2);
    let mut stream = v2_connect(&server);

    // len < FRAME_HEADER_LEN: too short to even hold id + tag. The
    // declared bytes are consumed, so the stream stays in sync.
    stream.write_all(&4u32.to_le_bytes()).expect("send bad len");
    stream.write_all(&[0xAA; 4]).expect("send stub body");
    stream.flush().expect("flush");

    let reply = frame::read_frame(&mut stream).expect("bad-frame answer");
    assert_eq!(reply.tag, frame::tag::ERROR);
    let json = Json::parse(std::str::from_utf8(&reply.payload).expect("utf8")).expect("json");
    assert_eq!(error_code(&json), Some("bad-frame"));

    // Same connection, valid frame: still served.
    frame::write_frame(&mut stream, 11, frame::tag::STATS, br#"{"op":"stats"}"#).expect("send");
    let stats = frame::read_frame(&mut stream).expect("stats answer");
    assert_eq!(stats.id, 11);
    let json = Json::parse(std::str::from_utf8(&stats.payload).expect("utf8")).expect("json");
    assert!(ok(&json));

    server.shutdown();
}

#[test]
fn version_mismatch_is_answered_then_the_connection_closes() {
    let server = start(1, 2, 2);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Right magic, wrong version: the server still speaks — its own
    // preamble plus one error frame — so the client learns why, then
    // the connection closes.
    stream.write_all(&frame::MAGIC).expect("send magic");
    stream.write_all(&[7]).expect("send bogus version");
    stream.flush().expect("flush");

    frame::read_preamble(&mut stream).expect("server preamble");
    let reply = frame::read_frame(&mut stream).expect("error frame");
    assert_eq!(reply.tag, frame::tag::ERROR);
    let json = Json::parse(std::str::from_utf8(&reply.payload).expect("utf8")).expect("json");
    assert_eq!(error_code(&json), Some("bad-frame"));
    let detail = json.get("detail").and_then(Json::as_str).unwrap_or("");
    assert!(detail.contains("version"), "detail was {detail:?}");
    match frame::read_frame(&mut stream) {
        Err(FrameError::Eof) => {}
        other => panic!("expected EOF after version mismatch, got {other:?}"),
    }

    // The server itself is unharmed.
    let after = Json::parse(&v1_request_raw(&server, r#"{"op":"stats"}"#)).expect("stats");
    assert!(ok(&after));

    server.shutdown();
}

#[test]
fn mismatched_tag_and_unknown_tag_are_bad_frames() {
    let server = start(1, 2, 2);
    let mut stream = v2_connect(&server);

    // Tag says STATS, payload says run.
    frame::write_frame(&mut stream, 21, frame::tag::STATS, SMOKE_RUN.as_bytes()).expect("send");
    let reply = frame::read_frame(&mut stream).expect("answer");
    assert_eq!(reply.id, 21);
    let json = Json::parse(std::str::from_utf8(&reply.payload).expect("utf8")).expect("json");
    assert_eq!(error_code(&json), Some("bad-frame"));

    // A tag outside the op table.
    frame::write_frame(&mut stream, 22, 200, br#"{"op":"stats"}"#).expect("send");
    let reply = frame::read_frame(&mut stream).expect("answer");
    assert_eq!(reply.id, 22);
    let json = Json::parse(std::str::from_utf8(&reply.payload).expect("utf8")).expect("json");
    assert_eq!(error_code(&json), Some("bad-frame"));

    // Both were protocol errors, not job failures; the connection lives.
    frame::write_frame(&mut stream, 23, frame::tag::STATS, br#"{"op":"stats"}"#).expect("send");
    let stats = frame::read_frame(&mut stream).expect("stats answer");
    let json = Json::parse(std::str::from_utf8(&stats.payload).expect("utf8")).expect("json");
    assert!(ok(&json));
    assert!(
        json.get("counters").and_then(|c| c.get("bad_requests")).and_then(Json::as_i64) >= Some(2)
    );

    server.shutdown();
}

/// The `bad_requests` counter read over v1.
fn bad_requests(server: &Server) -> Option<i64> {
    let stats = Json::parse(&v1_request_raw(server, r#"{"op":"stats"}"#)).expect("stats");
    stats.get("counters").and_then(|c| c.get("bad_requests")).and_then(Json::as_i64)
}

/// Faults below the frame level are requests answered `bad-frame` and
/// count as such, like a malformed frame does.
#[test]
fn frame_level_faults_count_as_bad_requests() {
    let server = start(1, 2, 2);

    // A length prefix shorter than the 9-byte header.
    let mut stream = v2_connect(&server);
    stream.write_all(&[4u32.to_le_bytes(), [0xAA; 4]].concat()).expect("send short frame");
    let reply = frame::read_frame(&mut stream).expect("bad-frame answer");
    assert_eq!(reply.tag, frame::tag::ERROR);
    drop(stream);
    assert_eq!(bad_requests(&server), Some(1));

    // A prefix over the cap, which closes the connection.
    let mut stream = v2_connect(&server);
    stream.write_all(&(frame::MAX_FRAME_LEN + 1).to_le_bytes()).expect("send oversized len");
    assert!(matches!(frame::read_frame(&mut stream), Ok(f) if f.tag == frame::tag::ERROR));
    assert!(matches!(frame::read_frame(&mut stream), Err(FrameError::Eof)));
    assert_eq!(bad_requests(&server), Some(2));

    // A preamble of the wrong version.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&[&frame::MAGIC[..], &[7]].concat()).expect("send bogus preamble");
    frame::read_preamble(&mut stream).expect("server preamble");
    assert!(matches!(frame::read_frame(&mut stream), Ok(f) if f.tag == frame::tag::ERROR));
    assert!(matches!(frame::read_frame(&mut stream), Err(FrameError::Eof)));
    assert_eq!(bad_requests(&server), Some(3));

    server.shutdown();
}
