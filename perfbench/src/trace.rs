//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run replays the workload's seeded stream in-process through each
//! layer's public call and records a span around every call: name, layer,
//! start, end and parent. Spans stay in memory and are written to
//! `.bench_trace/<workload>.jsonl` when the run ends. A layer's self time is
//! its spans' durations minus the time their child spans cover.
//!
//! The unit of work whose self time the breakdown shares out is: one audit
//! of the CSV (parse, index build, DeepDiver), the server's start when it
//! restarts from a snapshot (load and tail replay), one enhancement plan,
//! and `trace_requests` stream requests. The front end's share of those
//! requests is the server's CPU per request on the wire, under the
//! workload's own client shape, minus the in-process `handle_line` mean.
//! `service.frontend_us` is the latency view of the same layer: the read
//! p50 on the wire at depth 1 minus the in-process read p50.
//!
//! Layers a workload's server does not use (the op log on a server without
//! one; snapshot load and replay on a cold start) are still timed on the
//! workload's own data by a side probe, so every metric exists on every
//! workload; side probes stay out of the breakdown.

use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coverage_core::enhance::{CoverageEnhancer, GreedyHittingSet};
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_data::io::read_csv_auto_path;
use coverage_index::{BackendMemory, CoverageBackend, CoverageProvider, ShardedOracle};
use coverage_service::protocol::{parse_request, Request};
use coverage_service::{
    handle_line, load_snapshot_anchored, replay_entries, save_snapshot, LogEntry, LoggedOp, OpLog,
    ServeOptions, SyncPolicy,
};

use crate::check;
use crate::client::{self, Server};
use crate::gen::{Engine, Inputs, Model, Op, Request as StreamRequest, Stream};
use crate::workload::{Front, Workload, CSV, OPLOG_SYNC, SNAPSHOT};
use crate::{median, Args, Report};

/// Seconds of depth-1 `coverage` requests the front-end latency is taken from.
const READ_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    layer: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. A disabled tracer runs the same calls without
/// reading the clock, which gives the untraced replay the overhead is
/// measured against.
struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, layer: &'static str, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now();
        }
    }

    fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Mean duration of the spans called `name`, in nanoseconds.
    fn mean_ns(&self, name: &str) -> f64 {
        let (sum, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(sum, n), s| {
                (sum + (s.end_ns - s.start_ns), n + 1)
            });
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Self time per layer, in nanoseconds: each span's duration minus its
    /// children's. Request roots carry the benchmark's own glue code and are
    /// left out.
    fn self_time(&self) -> Vec<(&'static str, u64)> {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for (s, &t) in self.spans.iter().zip(&own) {
            if s.layer == REQUEST {
                continue;
            }
            match layers.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += t.max(0) as u64,
                None => layers.push((s.layer, t.max(0) as u64)),
            }
        }
        layers
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

const REQUEST: &str = "request";
const DATA: &str = "coverage_data";
const INDEX: &str = "coverage_index";
const CORE: &str = "coverage_core";
const PROTOCOL: &str = "service.protocol";
const ENGINE: &str = "service.engine";
const OPLOG_LAYER: &str = "service.oplog";
const SNAPSHOT_LAYER: &str = "service.snapshot";
const REPLICA: &str = "service.replica";
const FRONTEND: &str = "service.frontend";

/// A provider wrapper that counts coverage probes (DeepDiver's work unit).
struct Counting<'a> {
    inner: &'a dyn CoverageProvider,
    probes: AtomicU64,
}

impl Counting<'_> {
    fn hit(&self) {
        self.probes.fetch_add(1, Ordering::Relaxed);
    }
}

impl CoverageProvider for Counting<'_> {
    fn arity(&self) -> usize {
        self.inner.arity()
    }
    fn cardinalities(&self) -> &[u8] {
        self.inner.cardinalities()
    }
    fn total(&self) -> u64 {
        self.inner.total()
    }
    fn coverage(&self, codes: &[u8]) -> u64 {
        self.hit();
        self.inner.coverage(codes)
    }
    fn covered(&self, codes: &[u8], tau: u64) -> bool {
        self.hit();
        self.inner.covered(codes, tau)
    }
    fn coverage_capped(&self, codes: &[u8], cap: u64) -> u64 {
        self.hit();
        self.inner.coverage_capped(codes, cap)
    }
    fn coverage_batch(&self, patterns: &[&[u8]]) -> Vec<u64> {
        self.probes
            .fetch_add(patterns.len() as u64, Ordering::Relaxed);
        self.inner.coverage_batch(patterns)
    }
    fn add_row(&mut self, _: &[u8]) {
        unreachable!("DeepDiver only reads")
    }
    fn remove_row(&mut self, _: &[u8]) -> bool {
        unreachable!("DeepDiver only reads")
    }
    fn grow_value(&mut self, _: usize) -> u8 {
        unreachable!("DeepDiver only reads")
    }
    fn for_each_combination(&self, visit: &mut dyn FnMut(&[u8], u64)) {
        self.inner.for_each_combination(visit)
    }
    fn memory_stats(&self) -> BackendMemory {
        self.inner.memory_stats()
    }
}

/// Requests the event loop serves per tick at full pipelines: the traced
/// replay syncs a `batch` op log once per this many requests.
fn tick(w: &Workload) -> usize {
    match w.front {
        Front::Tcp {
            connections,
            pipeline,
        } => connections * pipeline,
        Front::Stdio => 1,
    }
}

fn logged(op: &Op, inputs: &Inputs) -> Option<LoggedOp> {
    match op {
        Op::Insert(row) => Some(LoggedOp::Insert {
            rows: vec![inputs.names(row)],
        }),
        Op::Delete { row, .. } => Some(LoggedOp::Delete {
            rows: vec![inputs.names(row)],
        }),
        Op::Coverage(_) | Op::Mups => None,
    }
}

/// Requests per chunk when traced and untraced replays alternate; a
/// multiple of every workload's tick.
const OVERHEAD_CHUNK: usize = 512;

/// What one replay pass observed.
#[derive(Default)]
struct Replay {
    seconds: f64,
    writes: u64,
    errors: u64,
}

impl Replay {
    fn add(&mut self, other: Replay) {
        self.seconds += other.seconds;
        self.writes += other.writes;
        self.errors += other.errors;
    }
}

/// Replays `requests` through the layers' public calls, one span per call,
/// each request under a root span.
fn replay_layers(
    tracer: &mut Tracer,
    engine: &mut Engine,
    requests: &[StreamRequest],
    mut oplog: Option<&mut OpLog>,
    tick: usize,
) -> Replay {
    let schema = engine.dataset().schema().clone();
    let mut out = Replay::default();
    let started = Instant::now();
    for (i, r) in requests.iter().enumerate() {
        let root = tracer.open(REQUEST, "request", None);
        let parent = Some(root);
        let envelope = tracer.span(PROTOCOL, "service.protocol.parse", parent, || {
            parse_request(&r.line)
        });
        let Ok(envelope) = envelope else {
            out.errors += 1;
            tracer.close(root);
            continue;
        };
        let encode = |rows: &[Vec<String>]| -> Option<Vec<u8>> {
            rows[0]
                .iter()
                .enumerate()
                .map(|(j, v)| schema.attribute(j).code_of(v).ok())
                .collect()
        };
        let mut logged = None;
        let ok = match envelope.request {
            Request::Insert { rows } => {
                out.writes += 1;
                let codes = encode(&rows);
                let ok = codes.is_some_and(|c| {
                    tracer
                        .span(ENGINE, "service.engine.insert", parent, || {
                            engine.insert(&c)
                        })
                        .is_ok()
                });
                logged = Some(LoggedOp::Insert { rows });
                ok
            }
            Request::Delete { rows } => {
                out.writes += 1;
                let codes = encode(&rows);
                let ok = codes.is_some_and(|c| {
                    tracer
                        .span(ENGINE, "service.engine.remove", parent, || {
                            engine.remove(&c)
                        })
                        .is_ok()
                });
                logged = Some(LoggedOp::Delete { rows });
                ok
            }
            Request::Coverage { pattern } => Pattern::parse(&pattern).is_ok_and(|p| {
                tracer
                    .span(ENGINE, "service.engine.coverage", parent, || {
                        engine.coverage(p.codes()).map(black_box)
                    })
                    .is_ok()
            }),
            Request::Mups { limit } => {
                tracer.span(ENGINE, "service.engine.mups", parent, || {
                    let shown = limit.unwrap_or(usize::MAX);
                    let listed: Vec<String> = engine
                        .mups()
                        .iter()
                        .take(shown)
                        .map(Pattern::to_string)
                        .collect();
                    black_box((engine.mups().len(), listed));
                });
                true
            }
            _ => false,
        };
        if !ok {
            out.errors += 1;
        }
        if let (Some(log), Some(op)) = (oplog.as_deref_mut(), logged) {
            let appended = tracer.span(OPLOG_LAYER, "service.oplog.append", parent, || {
                log.append(op)
            });
            if appended.is_err() {
                out.errors += 1;
            }
        }
        if let Some(log) = oplog.as_deref_mut() {
            if (i + 1) % tick == 0 {
                let _ = tracer.span(OPLOG_LAYER, "service.oplog.sync", parent, || {
                    log.sync_batch()
                });
            }
        }
        tracer.close(root);
    }
    out.seconds = started.elapsed().as_secs_f64();
    out
}

/// Replays `requests` through `handle_line`, returning per-class durations
/// in nanoseconds: insert, delete, coverage, mups.
fn replay_handle_line(
    engine: &mut Engine,
    requests: &[StreamRequest],
    options: &ServeOptions,
    tick: usize,
) -> ([Vec<f64>; 4], u64) {
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut errors = 0;
    for (i, r) in requests.iter().enumerate() {
        let started = Instant::now();
        let response = handle_line(engine, options, &r.line);
        let ns = started.elapsed().as_nanos() as f64;
        if !client::is_ok(&response) {
            errors += 1;
        }
        let class = match r.op {
            Op::Insert(_) => 0,
            Op::Delete { .. } => 1,
            Op::Coverage(_) => 2,
            Op::Mups => 3,
        };
        times[class].push(ns);
        if let Some(log) = options.oplog() {
            if (i + 1) % tick == 0 {
                let _ = log
                    .lock()
                    .expect("op log lock is never poisoned here")
                    .sync_batch();
            }
        }
    }
    (times, errors)
}

/// Mean nanoseconds per call of `f` over `items`, repeated until at least
/// 20 ms have passed.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || started.elapsed().as_secs_f64() < 0.02 {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
    }
    started.elapsed().as_nanos() as f64 / calls as f64
}

pub fn run(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let w = &args.workload;
    let mut report = Report::default();
    let mut tracer = Tracer::new(true);
    let tau = w.tau;

    // The audit pipeline: CSV parse, index build, DeepDiver.
    let attr_refs: Vec<&str> = inputs.attrs.iter().map(String::as_str).collect();
    let csv = inputs.path(CSV);
    let ds = tracer
        .span(DATA, "data.csv_parse", None, || {
            read_csv_auto_path(&csv, &attr_refs, None)
        })
        .map_err(|e| e.to_string())?;
    let oracle = tracer.span(INDEX, "index.build", None, || {
        <ShardedOracle as CoverageBackend>::build(&ds, 1)
    });
    let mut base_mups = tracer
        .span(CORE, "core.deepdiver", None, || {
            DeepDiver::default().find_mups_with_oracle(&oracle, tau)
        })
        .map_err(|e| e.to_string())?;
    base_mups.sort();
    let counting = Counting {
        inner: &oracle,
        probes: AtomicU64::new(0),
    };
    let counted = DeepDiver::default()
        .find_mups_with_oracle(&counting, tau)
        .map_err(|e| e.to_string())?;
    report.check(if counted.len() == base_mups.len() {
        Ok(())
    } else {
        Err("DeepDiver found different MUPs through the counting wrapper".into())
    });

    // The server's engine: restarted from snapshot and tail, or audited.
    let snapshot_probe = inputs.dir.join("probe.snap");
    let engine = if w.has_oplog() {
        let (mut engine, anchor) = tracer
            .span(SNAPSHOT_LAYER, "service.snapshot.load", None, || {
                load_snapshot_anchored::<ShardedOracle>(&inputs.pristine(SNAPSHOT), Some(1))
            })
            .map_err(|e| e.to_string())?;
        tracer.span(REPLICA, "service.replica.replay", None, || {
            replay_entries(&mut engine, &inputs.tail, anchor)
        })?;
        engine
    } else {
        check::reference_engine(w, inputs)?
    };
    // One enhancement plan.
    let plan = tracer
        .span(CORE, "core.greedy", None, || {
            CoverageEnhancer::default().plan_for_level(
                &GreedyHittingSet,
                engine.mups(),
                &engine.dataset().schema().cardinalities(),
                w.lambda,
            )
        })
        .map_err(|e| e.to_string())?;
    let copies = tracer.span(CORE, "core.required_copies", None, || {
        plan.required_copies(engine.oracle(), engine.tau())
    });
    black_box(copies);

    // The stream, replayed three ways: traced, untraced, and whole requests
    // through `handle_line`.
    let mut stream = Stream::new(w, inputs, args.seed);
    let requests: Vec<StreamRequest> = (0..w.trace_requests)
        .map(|_| stream.next_request())
        .collect();
    let tick = tick(w);
    let oplog_path = |name: &str| inputs.dir.join(name);
    let open_log = |name: &str| {
        OpLog::open(&oplog_path(name), server_sync()).map_err(|e| format!("op log: {e}"))
    };
    let before = engine.clone();

    // Traced and untraced replays alternate chunk by chunk, so a slow
    // spell on a shared host lands on both and the overhead stays visible.
    let mut traced_engine = before.clone();
    let mut plain_engine = before.clone();
    let (mut traced_log, mut plain_log) = if w.has_oplog() {
        (
            Some(open_log("traced.oplog")?),
            Some(open_log("plain.oplog")?),
        )
    } else {
        (None, None)
    };
    let stats0 = traced_engine.stats();
    let cache0 = traced_engine.cache_stats();
    let (mut traced, mut plain) = (Replay::default(), Replay::default());
    let mut untraced = Tracer::new(false);
    for chunk in requests.chunks(OVERHEAD_CHUNK) {
        traced.add(replay_layers(
            &mut tracer,
            &mut traced_engine,
            chunk,
            traced_log.as_mut(),
            tick,
        ));
        plain.add(replay_layers(
            &mut untraced,
            &mut plain_engine,
            chunk,
            plain_log.as_mut(),
            tick,
        ));
    }
    let stats1 = traced_engine.stats();
    let cache1 = traced_engine.cache_stats();

    let mut line_engine = before.clone();
    let options = ServeOptions::new().with_oplog(if w.has_oplog() {
        Some(Arc::new(Mutex::new(open_log("lines.oplog")?)))
    } else {
        None
    });
    let (line_times, line_errors) = replay_handle_line(&mut line_engine, &requests, &options, tick);
    report.attempted += 3 * requests.len() as u64;
    report.failed += traced.errors + plain.errors + line_errors;

    let mut model = Model::new(&inputs.initial);
    for r in &requests {
        model.apply(&r.op);
    }
    let expected = check::State::of(&model.dataset(inputs.schema())?, tau)?;
    report.check(check_same(traced_engine.mups(), &expected.mups));
    report.check(check_same(line_engine.mups(), &expected.mups));

    // Side probes on the workload's own data.
    let writes: Vec<LoggedOp> = requests
        .iter()
        .filter_map(|r| logged(&r.op, inputs))
        .collect();
    // The server does not fsync (`OPLOG_SYNC`), so what one costs on this
    // disk is always timed by the side probe.
    let (probe_append_ns, sync_ns) = oplog_probe(&oplog_path("probe.oplog"), &writes, tick)?;
    let append_ns = if w.has_oplog() {
        tracer.mean_ns("service.oplog.append")
    } else {
        probe_append_ns
    };
    let (load_ms, replay_us) = if w.has_oplog() {
        (
            tracer.mean_ns("service.snapshot.load") / 1e6,
            tracer.mean_ns("service.replica.replay") / 1e3 / inputs.tail.len() as f64,
        )
    } else {
        save_snapshot(&before, &snapshot_probe).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let loaded = load_snapshot_anchored::<ShardedOracle>(&snapshot_probe, Some(1))
            .map_err(|e| e.to_string())?;
        let load_ms = started.elapsed().as_secs_f64() * 1e3;
        black_box(loaded);
        let entries: Vec<LogEntry> = writes
            .iter()
            .enumerate()
            .map(|(i, op)| LogEntry {
                seq: i as u64 + 1,
                op: op.clone(),
            })
            .collect();
        let mut replayed = before.clone();
        let started = Instant::now();
        replay_entries(&mut replayed, &entries, 0)?;
        let replay_us = started.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64;
        (load_ms, replay_us)
    };

    let point: Vec<&Vec<u8>> = inputs.patterns.iter().step_by(2).collect();
    let wide: Vec<&Vec<u8>> = inputs.patterns.iter().skip(1).step_by(2).collect();
    let probe = before.oracle();
    let point_ns = mean_ns(&point, |p| {
        black_box(probe.coverage(p));
    });
    let wide_ns = mean_ns(&wide, |p| {
        black_box(probe.coverage(p));
    });
    let inserted: Vec<Vec<u8>> = inputs.fresh.iter().take(20_000).cloned().collect();
    let mut grown = before.oracle().clone();
    let started = Instant::now();
    for row in &inserted {
        grown.add_row(row);
    }
    let add_ns = started.elapsed().as_nanos() as f64 / inserted.len() as f64;
    let started = Instant::now();
    for row in &inserted {
        black_box(grown.remove_row(row));
    }
    let remove_ns = started.elapsed().as_nanos() as f64 / inserted.len() as f64;

    // The wire: counters scraped from the server, and the read-only depth-1
    // run the front end is measured from.
    let coverage_lines: Vec<&str> = requests
        .iter()
        .filter(|r| matches!(r.op, Op::Coverage(_)))
        .map(|r| r.line.as_str())
        .collect();
    let wire = wire(args, inputs, &expected, &coverage_lines, &mut report)?;

    let frontend_us = wire.read_p50_us - median(&line_times[2]) / 1e3;
    let line_ns: f64 = line_times.iter().flatten().sum();
    // Server CPU on the wire that `handle_line` does not account for.
    let frontend_cpu_ns = wire.cpu_ns as f64 - line_ns;
    let writes_n = traced.writes.max(1) as f64;
    let (hits, misses) = (cache1.2 - cache0.2, cache1.3 - cache0.3);

    report.metric(
        "data.csv_parse_ms",
        tracer.mean_ns("data.csv_parse") / 1e6,
        "ms",
    );
    report.metric("index.build_ms", tracer.mean_ns("index.build") / 1e6, "ms");
    report.metric("index.point_probe_ns", point_ns, "ns");
    report.metric("index.wide_probe_ns", wide_ns, "ns");
    report.metric("index.add_row_ns", add_ns, "ns");
    report.metric("index.remove_row_ns", remove_ns, "ns");
    report.metric(
        "core.deepdiver_ms",
        tracer.mean_ns("core.deepdiver") / 1e6,
        "ms",
    );
    report.metric(
        "core.deepdiver_probes",
        counting.probes.load(Ordering::Relaxed) as f64,
        "count",
    );
    report.metric("core.greedy_ms", tracer.mean_ns("core.greedy") / 1e6, "ms");
    report.metric(
        "core.required_copies_ms",
        tracer.mean_ns("core.required_copies") / 1e6,
        "ms",
    );
    report.metric(
        "service.protocol.parse_ns",
        tracer.mean_ns("service.protocol.parse"),
        "ns",
    );
    for (name, times) in [
        "service.server.handle_line_us.insert",
        "service.server.handle_line_us.delete",
        "service.server.handle_line_us.coverage",
        "service.server.handle_line_us.mups",
    ]
    .into_iter()
    .zip(&line_times)
    {
        report.metric(name, median(times) / 1e3, "us");
    }
    report.metric("service.frontend_us", frontend_us, "us");
    report.metric(
        "service.engine.insert_us",
        tracer.mean_ns("service.engine.insert") / 1e3,
        "us",
    );
    report.metric(
        "service.engine.remove_us",
        tracer.mean_ns("service.engine.remove") / 1e3,
        "us",
    );
    report.metric(
        "service.delta.mups_retired_per_write",
        (stats1.mups_retired - stats0.mups_retired) as f64 / writes_n,
        "count",
    );
    report.metric(
        "service.delta.mups_discovered_per_write",
        (stats1.mups_discovered - stats0.mups_discovered) as f64 / writes_n,
        "count",
    );
    report.metric(
        "service.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "service.cache.invalidations_per_write",
        (cache1.4 - cache0.4) as f64 / writes_n,
        "count",
    );
    report.metric("service.oplog.append_us", append_ns / 1e3, "us");
    report.metric("service.oplog.sync_us", sync_ns / 1e3, "us");
    report.metric(
        "service.oplog.fsyncs_per_write",
        wire.fsyncs_per_write,
        "count",
    );
    report.metric("service.oplog.retained_entries", wire.retained, "count");
    report.metric(
        "service.event.insert_coalesce_ratio",
        wire.insert_coalesce,
        "ratio",
    );
    report.metric(
        "service.event.delete_coalesce_ratio",
        wire.delete_coalesce,
        "ratio",
    );
    report.metric("service.snapshot.load_ms", load_ms, "ms");
    report.metric("service.replica.replay_us_per_entry", replay_us, "us");

    // The breakdown of the unit of work, by layer self time. Layers that
    // only a restarting server with an op log has are left out of the
    // metrics (they would read zero elsewhere) but not out of the shares.
    let mut layers = tracer.self_time();
    layers.push((FRONTEND, frontend_cpu_ns.max(0.0) as u64));
    let self_ns = |layer: &str| {
        layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, t)| *t)
    };
    for (layer, name) in [
        (DATA, "self.coverage_data_ms"),
        (INDEX, "self.coverage_index_ms"),
        (CORE, "self.coverage_core_ms"),
        (PROTOCOL, "self.service_protocol_ms"),
        (ENGINE, "self.service_engine_ms"),
    ] {
        report.metric(name, self_ns(layer) as f64 / 1e6, "ms");
    }
    report.metric("self.service_frontend_ms", frontend_cpu_ns / 1e6, "ms");
    let total: u64 = layers.iter().map(|(_, t)| t).sum();
    let shares: Vec<String> = [
        DATA,
        INDEX,
        CORE,
        PROTOCOL,
        ENGINE,
        OPLOG_LAYER,
        SNAPSHOT_LAYER,
        REPLICA,
        FRONTEND,
    ]
    .iter()
    .map(|layer| {
        format!(
            "\"{layer}\":{:.1}",
            100.0 * self_ns(layer) as f64 / total.max(1) as f64
        )
    })
    .collect();
    report.metric(
        "trace.overhead_pct",
        100.0 * (traced.seconds - plain.seconds) / plain.seconds,
        "%",
    );
    let dominant = layers
        .iter()
        .max_by_key(|(_, t)| *t)
        .map_or("none", |(l, _)| *l);
    report.notes.push(("dominant_layer", dominant.to_string()));
    report
        .notes
        .push(("self_time_pct", format!("{{{}}}", shares.join(","))));
    report.notes.push(("spans", tracer.spans.len().to_string()));

    tracer.write(&std::path::Path::new(".bench_trace").join(format!("{}.jsonl", w.name)))?;
    Ok(report)
}

fn check_same(got: &[Pattern], want: &[Pattern]) -> Result<(), String> {
    let mut got = got.to_vec();
    got.sort();
    let mut want = want.to_vec();
    want.sort();
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "in-process engine holds {} MUPs, DeepDiver over the same rows {}",
            got.len(),
            want.len()
        ))
    }
}

/// The op-log sync policy the workload's server runs with.
fn server_sync() -> SyncPolicy {
    SyncPolicy::parse(OPLOG_SYNC).expect("OPLOG_SYNC names a policy")
}

/// Times `OpLog::append` and `OpLog::sync_batch` (once per `tick` appends,
/// with fsync) on a scratch log.
fn oplog_probe(
    path: &std::path::Path,
    writes: &[LoggedOp],
    tick: usize,
) -> Result<(f64, f64), String> {
    let mut log = OpLog::open(path, SyncPolicy::Batch).map_err(|e| format!("op log: {e}"))?;
    let (mut append, mut sync, mut syncs) = (0u128, 0u128, 0u64);
    for (i, op) in writes.iter().enumerate() {
        let started = Instant::now();
        log.append(op.clone()).map_err(|e| format!("op log: {e}"))?;
        append += started.elapsed().as_nanos();
        if (i + 1) % tick == 0 {
            let started = Instant::now();
            log.sync_batch().map_err(|e| format!("op log: {e}"))?;
            sync += started.elapsed().as_nanos();
            syncs += 1;
        }
    }
    Ok((
        append as f64 / writes.len().max(1) as f64,
        sync as f64 / syncs.max(1) as f64,
    ))
}

struct Wire {
    /// Coverage p50 at depth 1 on one connection, in microseconds.
    read_p50_us: f64,
    /// Server CPU for the traced requests, in nanoseconds.
    cpu_ns: u64,
    insert_coalesce: f64,
    delete_coalesce: f64,
    fsyncs_per_write: f64,
    retained: f64,
}

/// Sends the traced requests over the wire in the workload's own client
/// shape, taking the server's CPU for them and its scraped counters, then
/// `coverage` lines at depth 1 for the front end's round trip. `expected`:
/// the state after those requests.
fn wire(
    args: &Args,
    inputs: &Inputs,
    expected: &check::State,
    coverage_lines: &[&str],
    report: &mut Report,
) -> Result<Wire, String> {
    let w = &args.workload;
    let (mut server, _) = Server::start(w, inputs, &inputs.instance("wire")?, &args.mithra)?;
    let mut model = Model::new(&inputs.initial);
    let mut stream = Stream::new(w, inputs, args.seed).limited(w.trace_requests as u64);
    let cpu = server.cpu_ns()?;
    let loaded = client::run_stream(w, &mut server, &mut stream, &mut model)?;
    let cpu_ns = server.cpu_ns()?.saturating_sub(cpu);
    let stats = check::stats(&mut server)?;
    let get = |path: &str| check::stat(&stats, path).unwrap_or(0.0);
    let ratio = |requests: &str, batches: &str| {
        let b = get(batches);
        if b > 0.0 {
            get(requests) / b
        } else {
            // The stdio front end serves each request as its own batch.
            1.0
        }
    };
    report.attempted += loaded.attempted + 1;
    report.failed += loaded.failed;
    match check::server_state(
        &mut server,
        expected,
        "after the traced requests on the wire",
    ) {
        Ok(sent) => report.attempted += sent,
        Err(e) => report.check(Err(e)),
    }

    let mut reads = Vec::new();
    let started = Instant::now();
    for line in coverage_lines.iter().cycle() {
        if started.elapsed().as_secs_f64() >= READ_SECONDS {
            break;
        }
        let sent = Instant::now();
        let response = server.call(line)?;
        reads.push(sent.elapsed().as_nanos() as f64);
        if !client::is_ok(&response) {
            report.failed += 1;
        }
    }
    report.attempted += reads.len() as u64;
    server.stop();
    Ok(Wire {
        read_p50_us: median(&reads) / 1e3,
        cpu_ns,
        insert_coalesce: ratio("io.insert_requests", "io.insert_engine_batches"),
        delete_coalesce: ratio("io.delete_requests", "io.delete_engine_batches"),
        fsyncs_per_write: get("replication.fsyncs") / (loaded.writes.len().max(1) as f64),
        retained: get("replication.retained"),
    })
}
