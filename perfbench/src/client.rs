//! The client side of a run: starts `mithra serve` as a child process, times
//! its set-up, and drives it with the request stream from this process (one
//! thread, at most two connections).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use coverage_service::net::{Interest, Poller};

use crate::gen::{Inputs, Model, Op, Stream};
use crate::workload::{Front, Workload};

/// Whether a response line reports success.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

enum Transport {
    Stdio {
        stdin: ChildStdin,
        stdout: BufReader<ChildStdout>,
    },
    Tcp {
        conns: Vec<(TcpStream, BufReader<TcpStream>)>,
        /// Kept open so the server's later diagnostics never hit a closed
        /// pipe; what little it writes fits in the pipe buffer.
        _stderr: Lines<BufReader<ChildStderr>>,
    },
}

/// A child process that is killed and reaped when dropped, so no exit path
/// of the benchmark leaves a server running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running `mithra serve` child and the client's connections to it.
pub struct Server {
    transport: Transport,
    child: Reaped,
}

impl Server {
    /// Starts the server in `dir` and blocks until it answers its first
    /// request. Returns the server and the seconds from launch to that
    /// answer.
    pub fn start(
        w: &Workload,
        inputs: &Inputs,
        dir: &Path,
        mithra: &Path,
    ) -> Result<(Server, f64), String> {
        if w.has_oplog() {
            inputs.reset_restart_files(dir)?;
        }
        let mut command = Command::new(mithra);
        command
            .args(w.server_args(&inputs.attrs))
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(match w.front {
                Front::Stdio => Stdio::null(),
                Front::Tcp { .. } => Stdio::piped(),
            });
        let started = Instant::now();
        let mut child = Reaped(
            command
                .spawn()
                .map_err(|e| format!("starting {}: {e}", mithra.display()))?,
        );
        crate::cpu::pin_child(child.0.id())?;
        let transport = match w.front {
            Front::Stdio => Transport::Stdio {
                stdin: child.0.stdin.take().expect("stdin is piped"),
                stdout: BufReader::new(child.0.stdout.take().expect("stdout is piped")),
            },
            Front::Tcp { connections, .. } => {
                let (addr, stderr) = listening_addr(&mut child.0)?;
                let mut conns = Vec::new();
                for _ in 0..connections {
                    let stream = TcpStream::connect(&addr).map_err(|e| format!("{addr}: {e}"))?;
                    stream.set_nodelay(true).map_err(|e| e.to_string())?;
                    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    conns.push((stream, reader));
                }
                Transport::Tcp {
                    conns,
                    _stderr: stderr,
                }
            }
        };
        let mut server = Server { transport, child };
        let first = server.call("{\"op\":\"stats\"}")?;
        let setup = started.elapsed().as_secs_f64();
        if !is_ok(&first) {
            return Err(format!("first request failed: {first}"));
        }
        Ok((server, setup))
    }

    /// Sends one request on the first connection and waits for its answer.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        let mut response = String::new();
        let read = match &mut self.transport {
            Transport::Stdio { stdin, stdout } => {
                stdin
                    .write_all(request.as_bytes())
                    .map_err(|e| format!("writing to the server: {e}"))?;
                stdout.read_line(&mut response)
            }
            Transport::Tcp { conns, .. } => {
                let (stream, reader) = &mut conns[0];
                stream
                    .write_all(request.as_bytes())
                    .map_err(|e| format!("writing to the server: {e}"))?;
                reader.read_line(&mut response)
            }
        };
        match read {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) => {
                response.truncate(response.trim_end().len());
                Ok(response)
            }
            Err(e) => Err(format!("reading from the server: {e}")),
        }
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.0.id()))
            .map_err(|e| format!("reading the server's /proc status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's /proc status".into())
    }

    /// CPU time the server's threads have used so far, in nanoseconds.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let tasks = format!("/proc/{}/task", self.child.0.id());
        let mut total = 0;
        for entry in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
            let path = entry.map_err(|e| format!("{tasks}: {e}"))?.path();
            // A thread that exited meanwhile has no schedstat left to read.
            if let Ok(text) = std::fs::read_to_string(path.join("schedstat")) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|ns| ns.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Ok(total)
    }

    /// Stops the server and waits until it has exited.
    pub fn stop(self) {
        let Server {
            transport,
            mut child,
        } = self;
        if let Transport::Stdio { stdin, .. } = transport {
            // End of input is the stdio server's normal way to stop.
            drop(stdin);
            let _ = child.0.wait();
        }
    }
}

/// Reads the server's stderr until it reports the address it listens on.
fn listening_addr(child: &mut Child) -> Result<(String, Lines<BufReader<ChildStderr>>), String> {
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut lines = BufReader::new(stderr).lines();
    let mut seen = Vec::new();
    while let Some(line) = lines.next() {
        let line = line.map_err(|e| format!("reading the server's stderr: {e}"))?;
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_string();
            return Ok((addr, lines));
        }
        seen.push(line);
    }
    Err(format!(
        "the server exited before listening:\n{}",
        seen.join("\n")
    ))
}

/// Latency samples of one stream, in nanoseconds, plus counts.
#[derive(Debug, Default)]
pub struct StreamResult {
    pub writes: Vec<u64>,
    pub reads: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: f64,
}

impl StreamResult {
    fn record(&mut self, op: &Op, nanos: u64, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if op.is_write() {
            self.writes.push(nanos);
        } else {
            self.reads.push(nanos);
        }
    }
}

/// Runs a limited stream until it runs out, applying acknowledged writes to
/// `model`.
pub fn run_stream(
    w: &Workload,
    server: &mut Server,
    stream: &mut Stream<'_>,
    model: &mut Model,
) -> Result<StreamResult, String> {
    match (w.front, &mut server.transport) {
        (Front::Tcp { pipeline, .. }, Transport::Tcp { conns, .. }) if pipeline > 1 => {
            pipelined(conns, pipeline, stream, model)
        }
        _ => closed_loop(server, stream, model),
    }
}

/// One request in flight: send, wait for the answer, repeat.
fn closed_loop(
    server: &mut Server,
    stream: &mut Stream<'_>,
    model: &mut Model,
) -> Result<StreamResult, String> {
    let mut result = StreamResult::default();
    let started = Instant::now();
    while !stream.exhausted() {
        let request = stream.next_request();
        let sent = Instant::now();
        let response = server.call(&request.line)?;
        let nanos = sent.elapsed().as_nanos() as u64;
        let ok = is_ok(&response);
        if ok {
            model.apply(&request.op);
        }
        result.record(&request.op, nanos, ok);
    }
    result.elapsed = started.elapsed().as_secs_f64();
    Ok(result)
}

struct InFlight {
    index: u64,
    op: Op,
    sent: Instant,
}

/// Several connections, each with up to `pipeline` requests in flight,
/// multiplexed on this thread with the service's own readiness poller.
fn pipelined(
    conns: &mut [(TcpStream, BufReader<TcpStream>)],
    pipeline: usize,
    stream: &mut Stream<'_>,
    model: &mut Model,
) -> Result<StreamResult, String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (token, (socket, _)) in conns.iter().enumerate() {
        poller
            .register(socket.as_raw_fd(), token as u64, Interest::READ)
            .map_err(|e| format!("poller: {e}"))?;
    }
    let mut in_flight: Vec<VecDeque<InFlight>> = conns.iter().map(|_| VecDeque::new()).collect();
    let mut partial: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
    let mut result = StreamResult::default();
    let mut events = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    let started = Instant::now();
    loop {
        if !stream.exhausted() {
            for (c, (socket, _)) in conns.iter_mut().enumerate() {
                let mut batch = String::new();
                let mut sent = Vec::new();
                while in_flight[c].len() + sent.len() < pipeline && !stream.exhausted() {
                    let request = stream.next_request();
                    // A delete waits until the insert of its row is answered.
                    if let Op::Delete {
                        after: Some(at), ..
                    } = request.op
                    {
                        let pending = in_flight.iter().flatten().any(|f| f.index == at)
                            || sent.iter().any(|(i, _)| *i == at);
                        if pending {
                            stream.unsend(request);
                            break;
                        }
                    }
                    batch.push_str(&request.line);
                    batch.push('\n');
                    sent.push((request.index, request.op));
                }
                if sent.is_empty() {
                    continue;
                }
                socket
                    .write_all(batch.as_bytes())
                    .map_err(|e| format!("writing to the server: {e}"))?;
                let now = Instant::now();
                in_flight[c].extend(sent.into_iter().map(|(index, op)| InFlight {
                    index,
                    op,
                    sent: now,
                }));
            }
        } else if in_flight.iter().all(VecDeque::is_empty) {
            break;
        }
        poller
            .wait(&mut events, 1000)
            .map_err(|e| format!("poller: {e}"))?;
        for event in &events {
            let c = event.token as usize;
            // Readiness was reported, so this read does not block.
            let n = conns[c]
                .0
                .read(&mut buf)
                .map_err(|e| format!("reading from the server: {e}"))?;
            if n == 0 {
                return Err("the server closed a connection".into());
            }
            let received = Instant::now();
            partial[c].extend_from_slice(&buf[..n]);
            let mut start = 0;
            while let Some(end) = partial[c][start..].iter().position(|&b| b == b'\n') {
                let line = &partial[c][start..start + end];
                let done = in_flight[c]
                    .pop_front()
                    .ok_or("the server answered a request that was not sent")?;
                let ok = line.starts_with(b"{\"ok\":true");
                if ok {
                    model.apply(&done.op);
                }
                let nanos = received.duration_since(done.sent).as_nanos() as u64;
                result.record(&done.op, nanos, ok);
                start += end + 1;
            }
            partial[c].drain(..start);
        }
    }
    result.elapsed = started.elapsed().as_secs_f64();
    Ok(result)
}

/// Runs `mithra audit` once and returns its wall time and reported MUP count.
pub fn audit(mithra: &Path, dir: &Path, args: &[String]) -> Result<(f64, usize), String> {
    let started = Instant::now();
    let mut child = Command::new(mithra)
        .args(args)
        .current_dir(dir)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("running mithra audit: {e}"))?;
    if let Err(e) = crate::cpu::pin_child(child.id()) {
        let _ = child.kill();
        let _ = child.wait();
        return Err(e);
    }
    let output = child
        .wait_with_output()
        .map_err(|e| format!("running mithra audit: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("mithra audit exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let count = text
        .lines()
        .find_map(|l| l.strip_prefix("maximal uncovered patterns: "))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .ok_or("mithra audit printed no MUP count")?;
    Ok((elapsed, count))
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::new();
    coverage_service::protocol::write_json_string(&mut out, s);
    out
}
