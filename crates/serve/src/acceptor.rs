//! The front end shared by the daemon and the fleet router: listen →
//! read each request line → bounded queue → worker pool → drain.
//!
//! Both servers plug into it through one seam, [`Handler`]: a handler
//! serves one complete request line and says whether that line asked for
//! shutdown. Everything before that call — connection intake, admission,
//! the workers and the graceful drain — is written once, here, and
//! [`Bound::serve`] runs it.
//!
//! The first daemon handed every accepted socket straight to a worker,
//! which then *blocked* reading the request line — an idle client pinned
//! a worker thread for up to the read timeout, so `workers` slow writers
//! could starve the whole pool. This module inverts that: a single
//! poll-loop thread owns every connection until its request line is
//! complete, and only then admits `(socket, line)` to the queue the
//! workers pop. Workers never block on client I/O; idle clients cost one
//! buffer each.
//!
//! std-only readiness: the listener and every pending socket run in
//! non-blocking mode, and the loop sweeps accept + per-connection reads,
//! sleeping one millisecond only when a full sweep made no progress.
//! (No `epoll` without a libc dependency; at daemon scale — tens of
//! sockets — a sweep is microseconds.)
//!
//! Line discipline at the edge: over-long lines, invalid UTF-8, and
//! idle timeouts are answered with a typed `bad-request` reply and the
//! connection is closed; a complete line is admitted with the socket
//! restored to blocking mode.
//!
//! Admission: when the queue already holds `queue_depth` lines, the poll
//! loop counts the refusal ([`Handler::refused`]) and answers with
//! [`protocol::busy_reply`] itself, so an overloaded server degrades into
//! fast, explicit refusals rather than unbounded buffering.
//!
//! Shutdown: once a handled line returns `true`, the loop stops
//! accepting but keeps polling already-accepted connections (clamped to
//! [`DRAIN_TIMEOUT`]), and the workers serve every admitted line —
//! including lines queued behind the shutdown — before
//! [`Bound::serve`] returns.

use crate::protocol;
use sampsim_exec::Jobs;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an accepted connection may sit without completing a request
/// line before it is answered with a timeout reply and closed.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Once shutdown is observed, pending connections get at most this long
/// to finish their line — a lingering idle client cannot stall exit.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// The sweep sleep when neither accept nor any read made progress.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// What a front end serves: the one seam between the shared
/// listen/queue/worker/drain loop and a server's own request handling.
pub trait Handler: Sync {
    /// Serves one complete request line on a worker thread, writing the
    /// reply to `stream` (in blocking mode). Returns whether the line
    /// asked the front end to shut down.
    fn handle(&self, stream: TcpStream, line: &str) -> bool;

    /// Counts one connection refused at admission because the queue was
    /// full; its `busy` reply is written right after this returns.
    fn refused(&self);
}

/// A bound listen socket whose front end is not serving yet.
pub struct Bound {
    listener: TcpListener,
    addr: SocketAddr,
}

impl Bound {
    /// Binds the listen socket (so the port is known before serving).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind(addr: &str) -> std::io::Result<Bound> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Bound { listener, addr })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves `handler` on `workers` worker threads behind an admission
    /// queue of `queue_depth` lines (at least one) until a handled line
    /// asks for shutdown, then drains and returns.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener cannot enter non-blocking
    /// mode.
    pub fn serve<H: Handler>(
        &self,
        workers: Jobs,
        queue_depth: usize,
        handler: &H,
    ) -> std::io::Result<()> {
        let queue = Queue::new(queue_depth);
        let worker_ids: Vec<usize> = (0..workers.get()).collect();
        std::thread::scope(|s| {
            let acceptor = s.spawn(|| {
                let result = accept_loop(&self.listener, &queue, handler);
                queue.close();
                result
            });
            // The bounded worker pool: one long-lived task per worker,
            // scheduled by the sampsim_exec pool.
            sampsim_exec::parallel_map(workers, &worker_ids, |_, _| {
                while let Some((stream, line)) = queue.pop() {
                    if handler.handle(stream, &line) {
                        // The poll loop observes the flag, drains its
                        // pending connections and exits, which releases
                        // the workers once the queue is empty.
                        queue.shutdown.store(true, Ordering::SeqCst);
                    }
                }
            });
            acceptor.join().expect("acceptor does not panic")
        })
    }
}

/// A front end serving on a background thread.
pub struct Handle<T> {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<T>>,
}

impl<T: Send + 'static> Handle<T> {
    /// Runs `serve` on a background thread; `addr` is where it listens.
    pub fn spawn<F>(addr: SocketAddr, serve: F) -> Handle<T>
    where
        F: FnOnce() -> std::io::Result<T> + Send + 'static,
    {
        let thread = std::thread::spawn(serve);
        Handle { addr, thread }
    }

    /// The front end's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the front end shuts down and returns its final
    /// counters.
    ///
    /// # Errors
    ///
    /// Propagates the front end's I/O error.
    ///
    /// # Panics
    ///
    /// Panics if the front-end thread panicked.
    pub fn wait(self) -> std::io::Result<T> {
        self.thread.join().expect("front-end thread panicked")
    }
}

/// The bounded admission queue between the poll loop and the workers.
/// It holds complete request lines, so workers never block on client I/O.
struct Queue {
    lines: Mutex<VecDeque<(TcpStream, String)>>,
    available: Condvar,
    depth: usize,
    /// Set once a handled line asked for shutdown.
    shutdown: AtomicBool,
    /// Set (under the queue lock) when the poll loop has exited; workers
    /// may only stop once no more lines can arrive.
    closed: AtomicBool,
}

/// Nothing panics while holding the queue lock: its holders only read
/// the length, push and pop.
const POISONED: &str = "the admission queue lock is never held across a panic";

impl Queue {
    /// An empty queue holding at most `depth` lines (at least one).
    fn new(depth: usize) -> Queue {
        Queue {
            lines: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            depth: depth.max(1),
            shutdown: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<(TcpStream, String)>> {
        self.lines.lock().expect(POISONED)
    }

    /// Queues one complete line, or refuses it with a `busy` reply when
    /// the queue is full.
    fn admit<H: Handler>(&self, stream: TcpStream, line: String, handler: &H) {
        let mut lines = self.lock();
        if lines.len() >= self.depth {
            drop(lines);
            handler.refused();
            crate::write_reply_line(stream, &protocol::busy_reply(self.depth));
        } else {
            lines.push_back((stream, line));
            drop(lines);
            self.available.notify_one();
        }
    }

    /// Pops queued lines until the queue is empty *and* the poll loop has
    /// exited — the loop drains already-accepted connections before it
    /// exits, so a line admitted before or during a shutdown is always
    /// served, never dropped.
    fn pop(&self) -> Option<(TcpStream, String)> {
        let mut lines = self.lock();
        loop {
            if let Some(item) = lines.pop_front() {
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            lines = self.available.wait(lines).expect(POISONED);
        }
    }

    /// Marks the poll loop as exited. The flag flips under the queue lock
    /// so no worker can check it between a failed pop and its wait.
    fn close(&self) {
        let _lines = self.lock();
        self.closed.store(true, Ordering::SeqCst);
        self.available.notify_all();
    }
}

/// A connection whose request line has not finished arriving.
struct Pending {
    stream: TcpStream,
    buf: Vec<u8>,
    deadline: Instant,
}

enum Poll {
    /// No complete line yet; keep the connection.
    NotReady,
    /// A full request line arrived.
    Line(String),
    /// Peer vanished (EOF or hard error) — close silently.
    Gone,
    /// Protocol violation — reply `bad-request` with this message, close.
    Reject(String),
}

/// Runs the accept/read poll loop until shutdown is observed *and* every
/// already-accepted connection has been admitted, rejected, or timed out.
/// Per-connection errors are handled here; only a listener that cannot
/// enter non-blocking mode is an error.
fn accept_loop<H: Handler>(
    listener: &TcpListener,
    queue: &Queue,
    handler: &H,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut pending: Vec<Pending> = Vec::new();
    let mut draining = false;
    loop {
        let mut progress = false;
        if !draining && queue.shutdown.load(Ordering::SeqCst) {
            draining = true;
            let cap = Instant::now() + DRAIN_TIMEOUT;
            for p in &mut pending {
                p.deadline = p.deadline.min(cap);
            }
        }
        if draining && pending.is_empty() {
            return Ok(());
        }
        if !draining {
            progress |= sweep_accept(listener, &mut pending);
        }
        progress |= sweep_reads(&mut pending, queue, handler);
        if !progress {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}

/// Accepts every connection the backlog holds right now. Returns whether
/// anything was accepted.
fn sweep_accept(listener: &TcpListener, pending: &mut Vec<Pending>) -> bool {
    let mut progress = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                progress = true;
                // A socket we cannot make non-blocking cannot join the
                // poll set; drop it (the client sees a clean close).
                if stream.set_nonblocking(true).is_ok() {
                    pending.push(Pending {
                        stream,
                        buf: Vec::new(),
                        deadline: Instant::now() + IDLE_TIMEOUT,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return progress,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return progress,
        }
    }
}

/// Polls every pending connection once, in accept order. Returns whether
/// any byte moved or any connection was retired. A retired connection is
/// removed in place, so lines that complete in the same sweep are
/// admitted first come, first served.
fn sweep_reads<H: Handler>(pending: &mut Vec<Pending>, queue: &Queue, handler: &H) -> bool {
    let mut progress = false;
    let mut i = 0;
    while i < pending.len() {
        match poll_one(&mut pending[i]) {
            Poll::NotReady => {
                if Instant::now() >= pending[i].deadline {
                    let p = pending.remove(i);
                    reject(p.stream, "timed out waiting for a request line");
                    progress = true;
                } else {
                    i += 1;
                }
            }
            Poll::Line(line) => {
                let p = pending.remove(i);
                let _ = p.stream.set_nonblocking(false);
                queue.admit(p.stream, line, handler);
                progress = true;
            }
            Poll::Gone => {
                pending.remove(i);
                progress = true;
            }
            Poll::Reject(message) => {
                let p = pending.remove(i);
                reject(p.stream, &message);
                progress = true;
            }
        }
    }
    progress
}

/// Drains whatever bytes the socket holds into the line buffer and
/// classifies the result.
fn poll_one(p: &mut Pending) -> Poll {
    let mut chunk = [0u8; 4096];
    loop {
        match p.stream.read(&mut chunk) {
            // EOF before a newline: the client gave up mid-line.
            Ok(0) => return Poll::Gone,
            Ok(n) => {
                p.buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = p.buf.iter().position(|&b| b == b'\n') {
                    // One request per connection; bytes after the
                    // newline are ignored by protocol.
                    let mut line = p.buf[..pos].to_vec();
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return match String::from_utf8(line) {
                        Ok(s) => Poll::Line(s),
                        Err(_) => Poll::Reject("request is not valid UTF-8".into()),
                    };
                }
                if p.buf.len() as u64 >= protocol::MAX_LINE_BYTES {
                    return Poll::Reject(format!(
                        "request line exceeds {} bytes",
                        protocol::MAX_LINE_BYTES
                    ));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Poll::NotReady,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Poll::Gone,
        }
    }
}

/// Best-effort typed refusal: one `bad-request` line, then close.
fn reject(stream: TcpStream, message: &str) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    crate::write_reply_line(stream, &protocol::error_reply("bad-request", message));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Arc, Barrier};

    /// Test handler: records each line, replies "ok", and treats a line
    /// ending in "stop" as a shutdown request. A line starting with
    /// "hold" meets the test at `held`, then keeps its worker until the
    /// test meets it at `release`.
    struct Collect {
        lines: Mutex<Vec<String>>,
        refused: AtomicU64,
        held: Barrier,
        release: Barrier,
    }

    impl Handler for Collect {
        fn handle(&self, mut stream: TcpStream, line: &str) -> bool {
            if line.starts_with("hold") {
                self.held.wait();
                self.release.wait();
            }
            self.lines.lock().unwrap().push(line.to_string());
            let _ = stream.write_all(b"ok\n");
            line.ends_with("stop")
        }

        fn refused(&self) {
            self.refused.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl Collect {
        fn new() -> Collect {
            Collect {
                lines: Mutex::new(Vec::new()),
                refused: AtomicU64::new(0),
                held: Barrier::new(2),
                release: Barrier::new(2),
            }
        }
    }

    /// Serves a [`Collect`] on one worker behind a queue of `depth`.
    fn run_collect_with_depth(depth: usize) -> (String, Arc<Collect>, std::thread::JoinHandle<()>) {
        let bound = Bound::bind("127.0.0.1:0").unwrap();
        let addr = bound.addr().to_string();
        let ctl = Arc::new(Collect::new());
        let ctl2 = ctl.clone();
        let handle =
            std::thread::spawn(move || bound.serve(sampsim_exec::SERIAL, depth, &*ctl2).unwrap());
        (addr, ctl, handle)
    }

    fn run_collect() -> (String, Arc<Collect>, std::thread::JoinHandle<()>) {
        run_collect_with_depth(crate::DEFAULT_QUEUE_DEPTH)
    }

    fn roundtrip(addr: &str, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(payload).unwrap();
        let mut reply = String::new();
        BufReader::new(s).read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    /// Sends one request line now; the reply is read later with
    /// [`reply`]. A reply that never comes fails the read instead of
    /// hanging the test.
    fn send(addr: &str, line: &str) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        s.write_all(format!("{line}\n").as_bytes()).unwrap();
        s
    }

    fn reply(stream: TcpStream) -> String {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn slow_writers_do_not_block_fast_ones() {
        let (addr, ctl, handle) = run_collect();
        // A connection that never writes...
        let _idle = TcpStream::connect(&addr).unwrap();
        // ...does not stop a later client from being served, even though
        // it was accepted first.
        assert_eq!(roundtrip(&addr, b"hello\n"), "ok");
        // A line split across writes still assembles.
        let mut split = TcpStream::connect(&addr).unwrap();
        split.write_all(b"wor").unwrap();
        split.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        split.write_all(b"ld\r\n").unwrap();
        let mut reply = String::new();
        BufReader::new(split).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ok");

        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        handle.join().unwrap();
        assert_eq!(
            *ctl.lines.lock().unwrap(),
            vec!["hello".to_string(), "world".to_string(), "stop".to_string()]
        );
    }

    #[test]
    fn protocol_violations_get_typed_refusals() {
        let (addr, ctl, handle) = run_collect();
        let bad_utf8 = roundtrip(&addr, b"\xff\xfe bad bytes\n");
        assert!(bad_utf8.contains("bad-request"), "{bad_utf8}");
        assert!(bad_utf8.contains("UTF-8"), "{bad_utf8}");
        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        handle.join().unwrap();
        // The violation never reached the handler.
        assert_eq!(*ctl.lines.lock().unwrap(), vec!["stop".to_string()]);
    }

    #[test]
    fn drain_serves_connections_accepted_before_shutdown() {
        let (addr, ctl, handle) = run_collect();
        // Accepted but silent until after the stop request lands.
        let mut late = TcpStream::connect(&addr).unwrap();
        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        late.write_all(b"straggler\n").unwrap();
        let mut reply = String::new();
        BufReader::new(late).read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ok", "drain must serve, not drop");
        handle.join().unwrap();
        assert!(ctl.lines.lock().unwrap().contains(&"straggler".to_string()));
    }

    #[test]
    fn a_full_queue_refuses_with_a_typed_busy_reply() {
        let (addr, ctl, handle) = run_collect_with_depth(1);
        let hold = send(&addr, "hold");
        // The only worker now holds "hold", so the queue is empty: the
        // next line fills it and the one after finds it full.
        ctl.held.wait();
        let queued = send(&addr, "queued");
        let third = send(&addr, "third");
        assert_eq!(reply(third), protocol::busy_reply(1));
        assert_eq!(ctl.refused.load(Ordering::SeqCst), 1);
        ctl.release.wait();
        assert_eq!(reply(hold), "ok");
        assert_eq!(reply(queued), "ok");
        assert_eq!(roundtrip(&addr, b"stop\n"), "ok");
        handle.join().unwrap();
        assert_eq!(*ctl.lines.lock().unwrap(), ["hold", "queued", "stop"]);
        assert_eq!(ctl.refused.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_line_queued_behind_a_shutdown_is_handled() {
        let (addr, ctl, handle) = run_collect_with_depth(1);
        // The only worker holds the shutdown line, so the next line
        // queues behind it; a refusal proves it sits in the queue.
        let stop = send(&addr, "hold stop");
        ctl.held.wait();
        let after = send(&addr, "after");
        assert_eq!(reply(send(&addr, "probe")), protocol::busy_reply(1));
        ctl.release.wait();
        assert_eq!(reply(stop), "ok");
        assert_eq!(
            reply(after),
            "ok",
            "a queued line must be served, not dropped"
        );
        handle.join().unwrap();
        assert_eq!(*ctl.lines.lock().unwrap(), ["hold stop", "after"]);
    }

    #[test]
    fn lines_completing_in_one_sweep_are_admitted_in_accept_order() {
        // Connections a, b and c, accepted in that order, each with its
        // whole line already buffered; the queue has room for two. One
        // sweep admits a and b and refuses c: a later client never takes
        // an earlier one's place.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut clients = Vec::new();
        let mut pending = Vec::new();
        for line in ["a", "b", "c"] {
            clients.push(send(&addr, line));
            let (stream, _) = listener.accept().unwrap();
            // Block until the whole line has arrived.
            let mut peeked = [0u8; 8];
            loop {
                let n = stream.peek(&mut peeked).unwrap();
                if peeked[..n].contains(&b'\n') {
                    break;
                }
            }
            stream.set_nonblocking(true).unwrap();
            pending.push(Pending {
                stream,
                buf: Vec::new(),
                deadline: Instant::now() + IDLE_TIMEOUT,
            });
        }
        let queue = Queue::new(2);
        let handler = Collect::new();
        assert!(sweep_reads(&mut pending, &queue, &handler));
        assert!(pending.is_empty());
        let admitted: Vec<String> = queue.lock().iter().map(|(_, l)| l.clone()).collect();
        assert_eq!(admitted, ["a", "b"]);
        assert_eq!(handler.refused.load(Ordering::SeqCst), 1);
        assert_eq!(reply(clients.pop().unwrap()), protocol::busy_reply(2));
    }
}
