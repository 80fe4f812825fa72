//! The connection shell shared by `capsule-serve` and `capsule-fleet`:
//! the listener with one thread per connection, the registry that
//! severs open connections at shutdown, first-byte v1/v2 negotiation
//! with frame validation, and the `capsule-dump/1` post-mortem plumbing.
//!
//! A server plugs in its domain logic as a [`Service`]. The shell parses
//! and validates every request and hands it to [`Service::answer`] with
//! the [`Reply`] route of its connection, so a malformed line or frame
//! gets the same bytes from a single server and from a fleet
//! (docs/SERVER.md, "Negotiation" and "Framing errors").
//! The shell also renders every view of the readings tables, its own
//! (`READINGS`) and the service's ([`Service::READINGS`]).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use capsule_core::output::Json;
use capsule_core::{
    FlightRecorder, MetricsRegistry, SpanId, TailPolicy, TraceRecorder, TraceStore,
};

use crate::frame::{self, Frame, FrameError};
use crate::protocol::{error_response, response_head, Request, RunRequest};
use crate::readings::{self, load, Part, Reading};

/// Locks `m`, recovering the guard of a poisoned lock: one panicking
/// thread must not take the whole server down with it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a deferred answer goes: back to the blocking v1 connection
/// thread, or onto a v2 connection's writer queue under the request's
/// id and tag, so completions may land out of submission order.
#[derive(Debug)]
pub enum Reply {
    /// v1: the connection thread blocks on the paired receiver.
    V1(mpsc::Sender<String>),
    /// v2: the connection's writer queue, the request id and its tag.
    V2(mpsc::Sender<Frame>, u64, u8),
}

impl Reply {
    /// Routes the rendered answer. The connection may already be gone
    /// (a v1 client that hung up, a v2 writer that exited); the answer
    /// is then dropped.
    pub fn send(&self, rendered: String) {
        match self {
            Reply::V1(tx) => {
                let _ = tx.send(rendered);
            }
            Reply::V2(tx, id, tag) => queue(tx, *id, *tag, rendered),
        }
    }
}

/// The domain half of a server: everything the shell does not own.
pub trait Service: Send + Sync + Sized + 'static {
    /// The `source` of this server's dumps (`serve`, `fleet`); stderr
    /// notes are prefixed `capsule-<source>`.
    const SOURCE: &'static str;
    /// The environment variable naming the panic-dump path.
    const DUMP_ON_PANIC: &'static str;

    /// The shell state embedded in the service.
    fn shell(&self) -> &Shell;
    /// Every reading the service keeps beyond the shell's own
    /// (`connections`, `requests`, `bad_requests`, `traces_stored`,
    /// `flight_capacity`, `flight_recorded`).
    const READINGS: &'static [Reading<Self>];
    /// Renders the answer to one validated request, or returns `None`
    /// and answers later through `reply`. The same request must render
    /// the same bytes over both protocols. After answering a `shutdown`
    /// request the shell shuts the server down.
    fn answer(this: &Arc<Self>, request: Request, reply: Reply) -> Option<String>;
    /// The service's own shutdown step (closing the job queue, waking
    /// slot waiters), run once before open connections are severed.
    fn close(&self);
    /// Fields a dump carries beyond the readings (the fleet's
    /// per-backend rows); none by default.
    fn extend_dump(&self, _dump: &mut Json) {}
}

/// The shell's own readings, shared by every server.
const READINGS: &[Reading<Shell>] = &[
    Reading::counter("connections", |s: &Shell| load(&s.connections)).unscraped(),
    Reading::counter("requests", |s: &Shell| load(&s.requests)).unscraped(),
    Reading::counter("bad_requests", |s| load(&s.bad_requests)),
    Reading::gauge("traces_stored", |s| lock(&s.traces).len() as u64),
    Reading::gauge("flight_capacity", |s| s.flight.capacity() as u64),
    Reading::total("flight_recorded", |s| s.flight.recorded()),
];

/// Pushes the shell's and then the service's readings of `part` onto
/// `out`; `Part::Gauges` is `health`'s body.
pub fn render<S: Service>(out: &mut Json, part: Part, service: &S) {
    readings::render(out, part, READINGS, service.shell());
    readings::render(out, part, S::READINGS, service);
}

fn rendered<S: Service>(part: Part, service: &S) -> Json {
    let mut j = Json::object();
    render(&mut j, part, service);
    j
}

/// Pushes the `stats` body onto `out`: the gauges, a `counters` object,
/// the histograms.
pub fn push_stats<S: Service>(service: &S, out: &mut Json) {
    render(out, Part::Gauges, service);
    out.push("counters", rendered(Part::Counters, service));
    render(out, Part::Histograms, service);
}

/// The `metrics` op: every scraped reading as `capsule_<SOURCE>_<key>`
/// (`_total` for counts), plus what `extend` records under the same
/// prefix.
pub fn metrics_response<S: Service>(
    service: &S,
    extend: impl FnOnce(&mut MetricsRegistry, &str),
) -> Json {
    let prefix = format!("capsule_{}", S::SOURCE);
    let mut m = MetricsRegistry::new();
    readings::scrape(&mut m, &prefix, &[], READINGS, service.shell());
    readings::scrape(&mut m, &prefix, &[], S::READINGS, service);
    extend(&mut m, &prefix);
    let mut r = response_head("metrics", true);
    r.push("exposition", m.render());
    r
}

/// Connection state common to every server.
#[derive(Debug)]
pub struct Shell {
    addr: SocketAddr,
    running: AtomicBool,
    /// Read handles of every open connection, so shutdown can sever
    /// them. Keep-alive clients (the fleet's connection pool) otherwise
    /// keep a "stopped" server reachable indefinitely. Severing only the
    /// *read* side lets queued responses — including the `shutdown`
    /// acknowledgement itself — still flush.
    pub(crate) conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Requests read, malformed ones included.
    pub requests: AtomicU64,
    /// Requests answered with `bad-request` or `bad-frame`.
    pub bad_requests: AtomicU64,
    /// Always-on flight recorder: a bounded ring of job-lifecycle events.
    pub flight: FlightRecorder,
    /// Retained span trees by trace id.
    pub traces: Mutex<TraceStore>,
    tail: Mutex<TailPolicy>,
}

impl Shell {
    /// Binds `addr`, sizing the flight ring and the trace store.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(addr: &str, flight: usize, traces: usize) -> std::io::Result<(Shell, TcpListener)> {
        let listener = TcpListener::bind(addr)?;
        let shell = Shell {
            addr: listener.local_addr()?,
            running: AtomicBool::new(true),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            flight: FlightRecorder::new(flight),
            traces: Mutex::new(TraceStore::new(traces)),
            tail: Mutex::new(TailPolicy::new()),
        };
        Ok((shell, listener))
    }

    /// False once shutdown has started.
    pub fn running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Counts a request answered `bad-request` or `bad-frame` before it
    /// reached the service.
    fn count_fault(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bad_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Files a finished run's tree, with `extend` applied, when the client
    /// asked for it by id or when the tail policy keeps a run that took
    /// `us`: always when `interesting`, otherwise only above the rolling
    /// p99 observed *before* this run (so retention is deterministic for
    /// a given request history). `sample` is `None` for a run that never
    /// ran, which gives the policy nothing to observe.
    pub fn retain(&self, t: RunTrace, sample: Option<(u64, bool)>, extend: impl FnOnce(&mut Json)) {
        let keep = match sample {
            Some((us, interesting)) => lock(&self.tail).observe(us, t.explicit || interesting),
            None => t.explicit,
        };
        if keep {
            let RunTrace { id, mut rec, root, .. } = t;
            rec.end(root);
            let mut tree = rec.finish().to_json();
            extend(&mut tree);
            lock(&self.traces).put(&id, tree);
        }
    }

    /// The `trace` op: the stored tree for `trace_id` passed through
    /// `render` (with the store unlocked), or `unknown-trace` if the id
    /// was never submitted, tracing is disabled, or the tree was evicted.
    pub fn trace_response(&self, trace_id: &str, render: impl FnOnce(Json) -> Json) -> Json {
        let Some(tree) = lock(&self.traces).get(trace_id).cloned() else {
            let mut r = error_response(
                "trace",
                "unknown-trace",
                Some("no stored trace for this id (never submitted, disabled, or evicted)"),
            );
            r.push("trace_id", trace_id);
            return r;
        };
        let mut r = response_head("trace", true);
        r.push("trace_id", trace_id).push("trace", render(tree));
        r
    }
}

/// A run's span tree in the making. Every run is traced — under the
/// client's `trace_id`, or anonymously under its 16-hex cache key — and
/// [`Shell::retain`] decides at the end whether the tree is kept.
#[derive(Debug)]
pub struct RunTrace {
    id: String,
    explicit: bool,
    /// The span recorder.
    pub rec: TraceRecorder,
    /// The root span, attributed with the run's scenario and scale.
    pub root: SpanId,
}

impl RunTrace {
    /// Opens root span `name` on `rec` for a run with cache key `key`.
    pub fn start(run: &RunRequest, key: u64, name: &str, mut rec: TraceRecorder) -> RunTrace {
        let (id, explicit) = match &run.trace_id {
            Some(id) => (id.clone(), true),
            None => (format!("{key:016x}"), false),
        };
        let root = rec.span(name, None);
        rec.attr(root, "scenario", &run.scenario);
        rec.attr(root, "scale", run.scale.name());
        RunTrace { id, explicit, rec, root }
    }
}

/// A running server: its service and the threads to join at shutdown.
#[derive(Debug)]
pub struct Handle<S> {
    pub(crate) service: Arc<S>,
    threads: Vec<JoinHandle<()>>,
}

impl<S: Service> Handle<S> {
    /// Installs the panic-dump hook and starts the accept loop on
    /// `listener`; `threads` (workers, probers) are joined after it.
    pub fn start(service: Arc<S>, listener: TcpListener, threads: Vec<JoinHandle<()>>) -> Self {
        install_dump_hooks(&service);
        let accept = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || accept_loop(&service, &listener))
        };
        Handle { service, threads: std::iter::once(accept).chain(threads).collect() }
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.service.shell().addr
    }

    /// False once shutdown has started.
    pub fn running(&self) -> bool {
        self.service.shell().running()
    }

    /// Starts shutdown exactly as the `shutdown` request does.
    pub fn request_shutdown(&self) {
        initiate_shutdown(&*self.service);
    }

    /// Waits until every thread has exited.
    pub fn join(self) {
        for h in self.threads {
            let _ = h.join();
        }
    }
}

/// Stops accepting, runs [`Service::close`], severs the read side of
/// every open connection (blocked reads see EOF, pending responses still
/// drain) and unblocks the accept loop.
fn initiate_shutdown<S: Service>(service: &S) {
    let shell = service.shell();
    if shell.running.swap(false, Ordering::SeqCst) {
        service.close();
        for conn in lock(&shell.conns).values() {
            let _ = conn.shutdown(std::net::Shutdown::Read);
        }
        let _ = TcpStream::connect(shell.addr);
    }
}

/// Registers a connection for shutdown severing; deregisters on drop so
/// the registry tracks only live connections.
struct ConnGuard<'a> {
    shell: &'a Shell,
    id: u64,
}

impl<'a> ConnGuard<'a> {
    fn register(shell: &'a Shell, stream: &TcpStream) -> Option<ConnGuard<'a>> {
        let handle = stream.try_clone().ok()?;
        let id = shell.next_conn.fetch_add(1, Ordering::Relaxed);
        lock(&shell.conns).insert(id, handle);
        Some(ConnGuard { shell, id })
    }
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        lock(&self.shell.conns).remove(&self.id);
    }
}

fn accept_loop<S: Service>(service: &Arc<S>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if !service.shell().running() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let service = Arc::clone(service);
        std::thread::spawn(move || handle_connection(&service, stream));
    }
}

fn handle_connection<S: Service>(service: &Arc<S>, stream: TcpStream) {
    let shell = service.shell();
    shell.connections.fetch_add(1, Ordering::Relaxed);
    // Answers are small writes the peer waits on: send each at once
    // instead of holding it for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _guard = ConnGuard::register(shell, &stream);
    // Negotiate on the first byte without consuming it: v1 request lines
    // open with `{` (or whitespace), v2 connections with the magic `C`.
    let mut first = [0u8; 1];
    match stream.peek(&mut first) {
        Ok(0) | Err(_) => return,
        Ok(_) => {}
    }
    if first[0] == frame::MAGIC[0] {
        return serve_v2(service, stream);
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        match read_line(&mut reader, &mut buf, frame::MAX_FRAME_LEN as usize) {
            Ok(true) => {}
            // The rest of the line was never read, so the stream cannot
            // be resynced: answer, then close.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                shell.count_fault();
                let detail = format!("request line exceeds the {}-byte cap", frame::MAX_FRAME_LEN);
                let r = error_response("?", "bad-request", Some(&detail)).to_string_compact();
                let _ = writer.write_all(format!("{r}\n").as_bytes());
                break;
            }
            _ => break,
        }
        let Ok(line) = std::str::from_utf8(&buf) else { break };
        if line.trim().is_empty() {
            continue;
        }
        shell.requests.fetch_add(1, Ordering::Relaxed);
        let (mut response, shutdown) = handle_line(service, line);
        response.push('\n');
        if writer.write_all(response.as_bytes()).and_then(|()| writer.flush()).is_err() {
            break;
        }
        if shutdown {
            initiate_shutdown(&**service);
            break;
        }
    }
}

/// Reads one v1 request line into `buf`, its `\n` (and a `\r` before
/// it) removed; `Ok(false)` at the end of the stream. However long a
/// peer keeps a line open, at most `cap + 1` bytes are buffered: a
/// longer line is an `InvalidData` error, its rest unread.
fn read_line(r: &mut impl BufRead, buf: &mut Vec<u8>, cap: usize) -> std::io::Result<bool> {
    buf.clear();
    if r.take(cap as u64 + 1).read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > cap {
        return Err(ErrorKind::InvalidData.into());
    }
    Ok(true)
}

/// Serves one v2 connection: validates the client preamble, then reads
/// frames while a writer thread sends the server preamble and every
/// answer in completion order. A preamble mismatch is answered with the
/// server preamble plus a `bad-frame` saying why, then the connection
/// closes.
fn serve_v2<S: Service>(service: &Arc<S>, stream: TcpStream) {
    let Ok(mut reader) = stream.try_clone() else { return };
    let preamble = match frame::read_preamble(&mut reader) {
        Ok(()) => None,
        Err(e @ (FrameError::BadMagic(_) | FrameError::BadVersion(_))) => Some(e),
        Err(_) => return,
    };
    let (tx, rx) = mpsc::channel::<Frame>();
    let writer = std::thread::spawn(move || write_frames(stream, &rx));
    // A fault below the frame level is a request answered `bad-frame`,
    // counted like a malformed frame.
    let fault = |e: FrameError| {
        service.shell().count_fault();
        send_bad_frame(&tx, 0, &e.to_string());
    };
    match preamble {
        Some(e) => fault(e),
        None => loop {
            match frame::read_frame(&mut reader) {
                Ok(f) => {
                    if !handle_frame(service, f, &tx) {
                        break;
                    }
                }
                // The body was never read: the stream cannot be resynced.
                Err(e @ FrameError::Oversized(_)) => {
                    fault(e);
                    break;
                }
                // The declared bytes were consumed: still in sync.
                Err(e @ FrameError::Truncated(_)) => fault(e),
                Err(_) => break,
            }
        },
    }
    // Deferred answers may still hold senders; the writer exits once the
    // last one resolves.
    drop(tx);
    let _ = writer.join();
}

fn write_frames(mut w: TcpStream, rx: &mpsc::Receiver<Frame>) {
    if frame::write_preamble(&mut w).and_then(|()| w.flush()).is_err() {
        return;
    }
    while let Ok(f) = rx.recv() {
        if frame::write_frame(&mut w, f.id, f.tag, &f.payload).and_then(|()| w.flush()).is_err() {
            return;
        }
    }
}

/// Queues one answer frame; a writer that already exited drops it.
fn queue(tx: &mpsc::Sender<Frame>, id: u64, tag: u8, payload: String) {
    let _ = tx.send(Frame { id, tag, payload: payload.into_bytes() });
}

/// Queues a structured `bad-frame` answer under the error tag.
fn send_bad_frame(tx: &mpsc::Sender<Frame>, id: u64, detail: &str) {
    let payload = error_response("?", "bad-frame", Some(detail)).to_string_compact();
    queue(tx, id, frame::tag::ERROR, payload);
}

/// Handles one v2 request frame; false stops the read loop. A deferred
/// answer does not block the reader, so one connection keeps many
/// requests in flight.
fn handle_frame<S: Service>(service: &Arc<S>, f: Frame, tx: &mpsc::Sender<Frame>) -> bool {
    let shell = service.shell();
    shell.requests.fetch_add(1, Ordering::Relaxed);
    let bad_frame = |detail: &str| {
        shell.bad_requests.fetch_add(1, Ordering::Relaxed);
        send_bad_frame(tx, f.id, detail);
        true
    };
    let Some(op) = frame::tag_op(f.tag) else {
        return bad_frame(&format!("unknown op tag {}", f.tag));
    };
    let Ok(line) = std::str::from_utf8(&f.payload) else {
        return bad_frame("payload is not UTF-8");
    };
    let request = match Request::parse_line(line) {
        Ok(r) => r,
        Err(e) => {
            shell.bad_requests.fetch_add(1, Ordering::Relaxed);
            let r = error_response("?", "bad-request", Some(&e.message));
            queue(tx, f.id, f.tag, r.to_string_compact());
            return true;
        }
    };
    if request.op() != op {
        return bad_frame(&format!(
            "frame tag {op:?} does not match payload op {:?}",
            request.op()
        ));
    }
    let reply = Reply::V2(tx.clone(), f.id, f.tag);
    let Some(rendered) = S::answer(service, request, reply) else { return true };
    queue(tx, f.id, f.tag, rendered);
    if op == "shutdown" {
        initiate_shutdown(&**service);
        return false;
    }
    true
}

/// Handles one v1 request line; the bool asks the connection loop to
/// start server shutdown after the response is written. v1 keeps its
/// one-request-per-round-trip shape by blocking on a deferred answer.
fn handle_line<S: Service>(service: &Arc<S>, line: &str) -> (String, bool) {
    let request = match Request::parse_line(line) {
        Ok(r) => r,
        Err(e) => {
            service.shell().bad_requests.fetch_add(1, Ordering::Relaxed);
            let r = error_response("?", "bad-request", Some(&e.message));
            return (r.to_string_compact(), false);
        }
    };
    let op = request.op();
    let (reply_tx, reply_rx) = mpsc::channel();
    let rendered = S::answer(service, request, Reply::V1(reply_tx)).unwrap_or_else(|| {
        reply_rx.recv().unwrap_or_else(|_| {
            error_response(op, "internal-error", Some("worker dropped the job")).to_string_compact()
        })
    });
    (rendered, op == "shutdown")
}

/// Echoes the request's trace id (if any) into a `run` response so the
/// client can correlate the reply with a later `trace` query.
pub fn echo_trace_id(r: &mut Json, run: &RunRequest) {
    if let Some(id) = &run.trace_id {
        r.push("trace_id", id.as_str());
    }
}

/// The versioned post-mortem artifact (`capsule-dump/1`): the flight
/// ring, every retained trace, the gauges and the counters as `stats`
/// renders them, and whatever [`Service::extend_dump`] adds.
fn dump_json<S: Service>(service: &S) -> Json {
    let shell = service.shell();
    let mut d = Json::object();
    d.push("schema", "capsule-dump/1")
        .push("source", S::SOURCE)
        .push("flight", shell.flight.snapshot().to_json());
    let mut traces = Vec::new();
    for (id, tree) in lock(&shell.traces).entries() {
        let mut t = Json::object();
        t.push("trace_id", id).push("trace", tree.clone());
        traces.push(t);
    }
    d.push("traces", Json::Array(traces))
        .push("gauges", rendered(Part::Gauges, service))
        .push("counters", rendered(Part::Counters, service));
    service.extend_dump(&mut d);
    d
}

/// The `dump` op: the `capsule-dump/1` artifact inline in the response.
pub fn dump_response<S: Service>(service: &S) -> Json {
    let mut r = response_head("dump", true);
    r.push("dump", dump_json(service));
    r
}

/// Serializes the dump artifact to `path`, tagged with what triggered
/// it. Never panics — a failing dump on the panic path must not mask
/// the original panic.
pub fn write_dump_file<S: Service>(service: &S, path: &str, reason: &str) {
    let mut d = dump_json(service);
    d.push("reason", reason);
    let mut body = d.to_string_compact();
    body.push('\n');
    let source = S::SOURCE;
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("capsule-{source}: wrote dump ({reason}) to {path}"),
        Err(e) => eprintln!("capsule-{source}: failed to write dump to {path}: {e}"),
    }
}

/// `<DUMP_ON_PANIC>=<path>` chains a panic hook that writes the dump
/// before deferring to the previous hook, so a crashing server leaves
/// its last moments on disk.
fn install_dump_hooks<S: Service>(service: &Arc<S>) {
    let path = std::env::var(S::DUMP_ON_PANIC).unwrap_or_default();
    if path.is_empty() {
        return;
    }
    let service = Arc::clone(service);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        write_dump_file(&*service, &path, "panic");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every line [`read_line`] yields from `input` under a cap of 6
    /// bytes, then the error that stopped it, if any.
    fn lines(input: &[u8]) -> Vec<String> {
        let (mut r, mut buf, mut out) =
            (BufReader::with_capacity(4, input), Vec::new(), Vec::new());
        loop {
            let line = read_line(&mut r, &mut buf, 6);
            assert!(buf.len() <= 7, "buffered {} bytes", buf.len());
            match line {
                Ok(true) => out.push(String::from_utf8_lossy(&buf).into_owned()),
                Ok(false) => return out,
                Err(e) => return [out, vec![format!("{:?}", e.kind())]].concat(),
            }
        }
    }

    #[test]
    fn read_line_stops_buffering_one_byte_past_the_cap() {
        assert_eq!(lines(b"ab\r\n\ncdefgh\nxy"), ["ab", "", "cdefgh", "xy"]);
        assert_eq!(lines(b"ok\nabcdefghij\nmore\n"), ["ok", "InvalidData"]);
        assert_eq!(lines(b"abcdefghij"), ["InvalidData"]);
    }
}
