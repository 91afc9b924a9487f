//! The `annot_serve` child process and the closed-loop TCP client.

use crate::report::vm_hwm_mb;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Accept-loop workers of every server the benchmark starts.
pub const SERVER_WORKERS: usize = 2;

/// A running `annot_serve` child.  Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct Server {
    child: Child,
    /// Kept open so the server's closing message does not hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the server bound.
    pub addr: SocketAddr,
}

impl Server {
    /// Starts `binary` on an ephemeral port with `flags` and waits for its
    /// first `OK pong`.  Returns the server and the time from spawn to pong.
    pub fn start(binary: &Path, flags: &[String]) -> Result<(Server, Duration), String> {
        let started = Instant::now();
        let mut child = Command::new(binary)
            .arg("127.0.0.1:0")
            .arg("--workers")
            .arg(SERVER_WORKERS.to_string())
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            child,
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut banner = String::new();
        server
            ._stdout
            .read_line(&mut banner)
            .map_err(|e| format!("server banner: {e}"))?;
        server.addr = banner
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {banner:?}"))?;
        let mut conn = Connection::open(server.addr)?;
        let pong = conn.request("PING")?;
        if pong != "OK pong" {
            return Err(format!("PING answered {pong:?}"));
        }
        Ok((server, started.elapsed()))
    }

    /// Peak resident set of the server so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_mb(&self.child.id().to_string())
    }

    /// Sends `STATS` and returns its `key=value` counters.
    pub fn stats(&self) -> Result<BTreeMap<String, u64>, String> {
        let reply = Connection::open(self.addr)?.request("STATS")?;
        let body = reply
            .strip_prefix("OK stats ")
            .ok_or_else(|| format!("STATS answered {reply:?}"))?;
        Ok(body
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
            .collect())
    }

    /// Asks the server to stop and waits for it to exit; kills it if it has
    /// not exited within five seconds.
    pub fn shutdown(mut self) {
        if let Ok(mut conn) = Connection::open(self.addr) {
            let _ = conn.request("SHUTDOWN");
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection speaking the line protocol.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Connection {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> Result<Connection, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Connection {
            reader: BufReader::new(reader),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Sends one request line (without newline) and returns the reply line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.request_framed(&framed).map(str::to_string)
    }

    /// Sends one newline-terminated request and returns the reply, without
    /// its newline, borrowed until the next request.
    pub fn request_framed(&mut self, framed: &str) -> Result<&str, String> {
        self.writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let read = self
            .reader
            .read_line(&mut self.reply)
            .map_err(|e| format!("receive: {e}"))?;
        if read == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(self.reply.trim_end())
    }
}

/// What one client connection saw.
#[derive(Debug, Default)]
pub struct ConnectionRun {
    /// Per-request latency in ms, in sending order (after the warm-up).
    pub latencies_ms: Vec<f64>,
    /// When each reply arrived, in seconds since the warm-up ended.
    pub done_s: Vec<f64>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests whose reply failed a check, or that hit an I/O error.
    pub failed: usize,
    /// Up to a few failure descriptions, for the report.
    pub failures: Vec<String>,
    /// Time from the end of the warm-up to this connection's last reply.
    pub elapsed: Duration,
}

/// How long a closed loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Span {
    /// Send every line of each stream once.
    Once,
    /// Send for `warmup` without timing, then measure for `duration`;
    /// start a stream over when it runs out if `cycle` is set, else stop.
    For {
        /// Load before timing starts, so start-up transients of the server
        /// and the client stay out of the figures.
        warmup: Duration,
        /// The measuring time.
        duration: Duration,
        /// Whether a stream starts over when it runs out.
        cycle: bool,
    },
}

/// Runs one closed loop per element of `streams`, each on its own
/// connection and thread: send a line, wait for its reply, send the next,
/// with no think time, as long as `span` allows.  `check(conn, index,
/// reply)` judges each reply (an `Err` counts the request as failed); it
/// runs after the reply's latency has been taken.  Lines must end with a
/// newline.
pub fn closed_loop(
    addr: SocketAddr,
    streams: &[Vec<String>],
    span: Span,
    check: &(dyn Fn(usize, usize, &str) -> Result<(), String> + Sync),
) -> Vec<ConnectionRun> {
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(conn, lines)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut run = ConnectionRun {
                        latencies_ms: Vec::with_capacity(lines.len().min(1 << 20)),
                        done_s: Vec::with_capacity(lines.len().min(1 << 20)),
                        ..ConnectionRun::default()
                    };
                    let connection = Connection::open(addr);
                    barrier.wait();
                    let start = Instant::now();
                    let mut connection = match connection {
                        Ok(c) => c,
                        Err(e) => {
                            run.attempted = 1;
                            run.failed = 1;
                            run.failures.push(e);
                            return run;
                        }
                    };
                    let (warmup, budget, cycle) = match span {
                        Span::Once => (Duration::ZERO, None, false),
                        Span::For {
                            warmup,
                            duration,
                            cycle,
                        } => (warmup, Some(warmup + duration), cycle),
                    };
                    let measured = start + warmup;
                    let order =
                        (0..lines.len())
                            .cycle()
                            .take(if cycle { usize::MAX } else { lines.len() });
                    for index in order {
                        if budget.is_some_and(|b| start.elapsed() >= b) {
                            break;
                        }
                        let line = &lines[index];
                        run.attempted += 1;
                        let sent = Instant::now();
                        let verdict = match connection.request_framed(line) {
                            Ok(reply) => {
                                let done = Instant::now();
                                if sent >= measured {
                                    run.latencies_ms
                                        .push(done.duration_since(sent).as_secs_f64() * 1e3);
                                    run.done_s.push(done.duration_since(measured).as_secs_f64());
                                }
                                check(conn, index, reply)
                            }
                            Err(e) => {
                                run.failed += 1;
                                run.failures.push(e);
                                break;
                            }
                        };
                        if let Err(e) = verdict {
                            run.failed += 1;
                            if run.failures.len() < 5 {
                                run.failures.push(format!("{}: {e}", line.trim_end()));
                            }
                        }
                    }
                    run.elapsed = measured.elapsed();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
