//! The TCP front of the service: accept loop, per-connection line
//! protocol, shutdown.
//!
//! One thread per connection reads newline-delimited JSON-RPC requests
//! and executes each one itself, holding one of the `--threads` permits
//! of a shared gate while it runs, so `--threads` bounds simultaneous
//! engine work across connections. A connection issues requests
//! strictly in order and blocks for each response, which is what makes
//! transcripts deterministic — the server never reorders one client's
//! requests.
//!
//! The accept loop blocks in `accept()`, and on each accept drops the
//! handles of connection threads that have ended. Whoever stops the
//! server ([`Server::stop`], or the connection that served `shutdown`)
//! sets the stop flag and then wakes the loop with one loopback
//! connect.

use crate::hub::{ConnState, SessionHub};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// How many requests execute at once, across all connections.
    pub threads: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
        }
    }
}

/// A counting gate: at most `width` jobs run inside it at once, each on
/// its caller's thread; the rest wait for a permit.
#[derive(Debug)]
struct Gate {
    inside: Mutex<usize>,
    freed: Condvar,
    width: usize,
}

/// A held permit; dropping it (also while unwinding) frees it.
struct Permit<'a>(&'a Gate);

impl Gate {
    /// A gate of `width` permits (clamped to at least 1).
    fn new(width: usize) -> Self {
        Gate {
            inside: Mutex::new(0),
            freed: Condvar::new(),
            width: width.max(1),
        }
    }

    /// Runs `job` on this thread once a permit is free.
    fn run<R>(&self, job: impl FnOnce() -> R) -> R {
        let mut inside = self.inside.lock().unwrap_or_else(PoisonError::into_inner);
        while *inside >= self.width {
            inside = self
                .freed
                .wait(inside)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *inside += 1;
        drop(inside);
        let _permit = Permit(self);
        job()
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.inside.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.0.freed.notify_one();
    }
}

/// The server-wide stop signal, and how to deliver it to an accept loop
/// blocked in `accept()`.
#[derive(Debug)]
struct Stop {
    flag: AtomicBool,
    /// Where a loopback connect reaches the listener.
    wake: SocketAddr,
}

impl Stop {
    fn new(bound: SocketAddr) -> Self {
        let mut wake = bound;
        // A listener on `0.0.0.0` or `::` is reached through loopback.
        if wake.ip().is_unspecified() {
            wake.set_ip(match bound {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Stop {
            flag: AtomicBool::new(false),
            wake,
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the flag; the first caller also wakes the accept loop.
    fn set(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.wake);
        }
    }
}

/// A running session server. Dropping it (or calling
/// [`stop`](Server::stop)) shuts it down and joins every thread.
pub struct Server {
    addr: SocketAddr,
    hub: Arc<SessionHub>,
    stop: Arc<Stop>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds and starts serving in background threads.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let hub = Arc::new(SessionHub::new());
        let gate = Arc::new(Gate::new(config.threads));
        let stop = Arc::new(Stop::new(addr));

        let accept_thread = {
            let hub = Arc::clone(&hub);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("edb-serve-accept".to_string())
                .spawn(move || {
                    let mut conns: Vec<JoinHandle<()>> = Vec::new();
                    loop {
                        match listener.accept() {
                            // The wake connect, or a client that lost
                            // the race with shutdown.
                            Ok(_) if stop.is_set() => break,
                            Ok((stream, _)) => {
                                reap(&mut conns);
                                let hub = Arc::clone(&hub);
                                let gate = Arc::clone(&gate);
                                let stop = Arc::clone(&stop);
                                let spawned = std::thread::Builder::new()
                                    .name("edb-serve-conn".to_string())
                                    .spawn(move || {
                                        let _ = serve_connection(stream, &hub, &gate, &stop);
                                    });
                                // With no thread to serve it, the stream
                                // is dropped (closed) and the loop goes on.
                                if let Ok(handle) = spawned {
                                    conns.push(handle);
                                }
                            }
                            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                            Err(_) => break,
                        }
                    }
                    // The loop is no longer blocked, so no wake is needed.
                    stop.flag.store(true, Ordering::SeqCst);
                    for handle in conns {
                        let _ = handle.join();
                    }
                })?
        };

        Ok(Server {
            addr,
            hub,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The hub, for in-process inspection.
    pub fn hub(&self) -> &SessionHub {
        &self.hub
    }

    /// Signals shutdown and joins the accept loop and every connection.
    pub fn stop(&mut self) {
        self.stop.set();
        self.wait();
    }

    /// Blocks until the server stops (a client called `shutdown`).
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Drops the handles of connection threads that have ended, which
/// releases their stacks; kept until shutdown, each ended connection
/// would hold its stack mapped.
fn reap(conns: &mut Vec<JoinHandle<()>>) {
    conns.retain(|handle| !handle.is_finished());
}

/// Hard cap on one request line, bytes (newline included). A client
/// that exceeds it gets a typed `-32700` reply and the rest of that
/// line is discarded — the connection itself stays usable. Bounds
/// per-connection memory against a peer that streams forever without a
/// newline.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A typed `-32700` reply line for intake-level failures (the request
/// never reached the dispatcher).
fn parse_error_reply(message: String) -> String {
    let error = crate::rpc::RpcError::protocol(crate::rpc::PARSE_ERROR, message);
    crate::rpc::error_line(None, &error)
}

/// The reply for an over-limit request line.
fn oversize_reply() -> String {
    parse_error_reply(format!(
        "parse error: request line exceeds {MAX_LINE_BYTES} bytes"
    ))
}

/// Writes reply lines, each newline-terminated, in one write: with
/// `TCP_NODELAY` every write is a segment of its own.
fn send(writer: &mut TcpStream, lines: &[String]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    writer.write_all(&bytes)
}

/// Serves one connection until EOF, error, or server shutdown. Reads
/// use a short timeout so a parked connection notices a server-wide
/// shutdown promptly.
fn serve_connection(
    stream: TcpStream,
    hub: &SessionHub,
    gate: &Gate,
    stop: &Stop,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // The connection's view of the hub.
    let mut conn = ConnState::new();
    let mut line = String::new();
    // True while throwing away the tail of an over-limit line (the
    // error reply has already been sent).
    let mut discarding = false;
    loop {
        if stop.is_set() {
            return Ok(());
        }
        match reader.read_line(&mut line) {
            Ok(0) => return Ok(()), // EOF
            Ok(_) => {
                let complete = line.ends_with('\n');
                if discarding {
                    discarding = !complete;
                    line.clear();
                    continue;
                }
                if line.len() > MAX_LINE_BYTES {
                    send(&mut writer, &[oversize_reply()])?;
                    discarding = !complete;
                    line.clear();
                    continue;
                }
                // A final unterminated line is served too, then EOF.
                let text = line.trim();
                if !text.is_empty() {
                    let out = gate.run(|| hub.dispatch(&mut conn, text));
                    send(&mut writer, &out.lines)?;
                    if out.shutdown {
                        stop.set();
                        return Ok(());
                    }
                }
                line.clear();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Timeout with a possibly partial line buffered in
                // `line`; keep accumulating on the next pass — unless
                // the partial has already blown the cap, in which case
                // reply now and discard until the newline shows up.
                if !discarding && line.len() > MAX_LINE_BYTES {
                    send(&mut writer, &[oversize_reply()])?;
                    discarding = true;
                    line.clear();
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Non-UTF-8 garbage; the bytes up to the newline are
                // consumed, so reply typed and keep the connection.
                line.clear();
                if !discarding {
                    let reply =
                        parse_error_reply("parse error: request line is not valid UTF-8".into());
                    send(&mut writer, &[reply])?;
                }
                discarding = false;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn gate_returns_the_job_result() {
        within(|| {
            let gate = Gate::new(4);
            assert_eq!(gate.run(|| 6 * 7), 42);
            let results: Vec<u32> = (0..16u32).map(|k| gate.run(|| k * k)).collect();
            assert_eq!(results[15], 225);
        });
    }

    #[test]
    fn gate_width_is_clamped_to_one() {
        within(|| {
            let gate = Gate::new(0);
            assert_eq!(gate.width, 1);
            assert_eq!(gate.run(|| "ok"), "ok");
        });
    }

    #[test]
    fn gate_survives_a_panicking_job() {
        within(|| {
            let gate = Gate::new(1);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                gate.run(|| panic!("job exploded"));
            }));
            assert!(caught.is_err());
            // The permit was released while unwinding.
            assert_eq!(gate.run(|| 5), 5);
        });
    }

    /// Eight threads through the gate never have more than `width` jobs
    /// inside at once, and they do fill it: each job waits inside until
    /// `width` jobs are in, which only a gate that admits `width` lets
    /// happen within the deadline.
    #[test]
    fn gate_bounds_jobs_in_flight() {
        for width in [1, 2] {
            let most = within(move || {
                let gate = Gate::new(width);
                let full = Barrier::new(width);
                let inside = AtomicUsize::new(0);
                let most = AtomicUsize::new(0);
                // One job per thread, so any `width` waiting jobs can
                // meet at the barrier.
                std::thread::scope(|s| {
                    for _ in 0..8 {
                        s.spawn(|| {
                            gate.run(|| {
                                let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                                most.fetch_max(now, Ordering::SeqCst);
                                full.wait();
                                inside.fetch_sub(1, Ordering::SeqCst);
                            });
                        });
                    }
                });
                most.into_inner()
            });
            assert_eq!(most, width, "width {width}");
        }
    }

    #[test]
    fn reap_drops_only_ended_connections() {
        within(|| {
            let (release, held) = mpsc::channel::<()>();
            let mut conns = vec![std::thread::spawn(move || {
                let _ = held.recv();
            })];
            conns.extend((0..3).map(|_| std::thread::spawn(|| {})));
            while !conns[1..].iter().all(JoinHandle::is_finished) {
                std::thread::yield_now();
            }
            reap(&mut conns);
            assert_eq!(conns.len(), 1, "only the live connection is kept");
            release.send(()).unwrap();
            while !conns[0].is_finished() {
                std::thread::yield_now();
            }
            reap(&mut conns);
            assert!(conns.is_empty(), "an ended connection is dropped");
        });
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// returned within ten seconds (a lost wake-up, in the gate or a
    /// blocked `accept`, would otherwise stall the whole suite).
    fn within<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(out) => out,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("not finished within the deadline"),
            // `f` panicked: fail with its panic.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(helper.join().expect_err("the helper panicked"))
            }
        }
    }

    fn server_on(addr: &str) -> Server {
        Server::start(ServerConfig {
            addr: addr.to_string(),
            threads: 2,
        })
        .expect("bind")
    }

    fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        // Skip notifications; the response is the first line with "id".
        loop {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            if reply.contains(r#""id":"#) {
                return reply.trim().to_string();
            }
        }
    }

    fn server_info(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) {
        let info = request(
            stream,
            reader,
            r#"{"jsonrpc":"2.0","id":1,"method":"server_info","params":{}}"#,
        );
        assert!(info.contains(r#""name":"edb-serve""#), "{info}");
    }

    /// The `shutdown` RPC ends [`Server::wait`].
    #[test]
    fn serves_a_round_trip_and_shuts_down() {
        within(|| {
            let mut server = server_on("127.0.0.1:0");
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            server_info(&mut stream, &mut reader);
            let bye = request(
                &mut stream,
                &mut reader,
                r#"{"jsonrpc":"2.0","id":2,"method":"shutdown","params":{}}"#,
            );
            assert!(bye.contains(r#""ok":true"#), "{bye}");
            server.wait();
        });
    }

    #[test]
    fn stops_with_no_client_ever_connected() {
        within(|| server_on("127.0.0.1:0").stop());
    }

    #[test]
    fn stops_with_an_idle_client_connected() {
        within(|| {
            let (mut server, mut stream, mut reader) = start_server();
            server_info(&mut stream, &mut reader);
            server.stop();
            // The connection was closed from the server's side.
            let mut rest = String::new();
            assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");
        });
    }

    /// A listener on every interface is still woken through loopback.
    #[test]
    fn stops_when_bound_to_every_interface() {
        within(|| {
            let mut server = server_on("0.0.0.0:0");
            let port = server.addr().port();
            let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            server_info(&mut stream, &mut reader);
            server.stop();
        });
    }

    fn start_server() -> (Server, TcpStream, BufReader<TcpStream>) {
        let server = server_on("127.0.0.1:0");
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().unwrap());
        (server, stream, reader)
    }

    fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    }

    /// Runs `f` on a connection to a fresh server, then drops the
    /// server, all under the deadline.
    fn on_a_connection(f: impl FnOnce(&mut TcpStream, &mut BufReader<TcpStream>) + Send + 'static) {
        within(|| {
            let (_server, mut stream, mut reader) = start_server();
            f(&mut stream, &mut reader);
        });
    }

    /// Intake hardening: truncated JSON gets a typed `-32700` reply and
    /// the connection keeps serving.
    #[test]
    fn truncated_json_gets_a_typed_parse_error() {
        on_a_connection(|stream, reader| {
            stream
                .write_all(b"{\"jsonrpc\":\"2.0\",\"id\":7,\"met\n")
                .unwrap();
            let reply = read_reply(reader);
            assert!(reply.contains(r#""code":-32700"#), "{reply}");
            assert!(reply.contains(r#""id":null"#), "{reply}");
            // The connection survived: a well-formed request still works.
            server_info(stream, reader);
        });
    }

    /// A last request without its newline is served before EOF.
    #[test]
    fn serves_an_unterminated_last_line() {
        on_a_connection(|stream, reader| {
            stream
                .write_all(br#"{"jsonrpc":"2.0","id":3,"method":"server_info","params":{}}"#)
                .unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let reply = read_reply(reader);
            assert!(reply.contains(r#""id":3"#), "{reply}");
            assert_eq!(read_reply(reader), "");
        });
    }

    /// Intake hardening: non-UTF-8 garbage gets a typed `-32700` reply
    /// instead of a dropped connection.
    #[test]
    fn garbage_bytes_get_a_typed_parse_error() {
        on_a_connection(|stream, reader| {
            stream.write_all(&[0xFF, 0xFE, 0x80, 0x92, b'\n']).unwrap();
            let reply = read_reply(reader);
            assert!(reply.contains(r#""code":-32700"#), "{reply}");
            assert!(reply.contains("not valid UTF-8"), "{reply}");
            server_info(stream, reader);
        });
    }

    /// Intake hardening: a request line over [`MAX_LINE_BYTES`] gets a
    /// typed `-32700` reply, the tail is discarded, and the next
    /// request is served normally.
    #[test]
    fn over_limit_line_is_bounded_and_replied() {
        on_a_connection(|stream, reader| {
            let mut big = String::from(r#"{"jsonrpc":"2.0","id":9,"method":""#);
            big.push_str(&"x".repeat(MAX_LINE_BYTES + 1024));
            big.push_str("\"}\n");
            stream.write_all(big.as_bytes()).unwrap();
            let reply = read_reply(reader);
            assert!(reply.contains(r#""code":-32700"#), "{reply}");
            assert!(reply.contains("exceeds"), "{reply}");
            server_info(stream, reader);
        });
    }
}
