//! `perfbench`: runs one mithra workload and prints its metrics.
//!
//! ```text
//! perfbench --mithra PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the end-to-end metrics are measured from outside a
//! `mithra serve` child process; with `--trace 1` the per-layer metrics come
//! from an in-process traced replay of the same seeded stream. The last
//! stdout line is `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! Any correctness mismatch makes the run exit with status 1.

mod check;
mod client;
mod cpu;
mod gen;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use client::{Server, StreamResult};
use gen::{Inputs, Model, Stream};
use workload::Workload;

struct Args {
    mithra: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut mithra, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--mithra" => {
                // Servers run in their own directories, so the path must
                // not be relative.
                mithra = Some(
                    std::fs::canonicalize(&value).map_err(|e| format!("--mithra {value}: {e}"))?,
                )
            }
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (expected one of {:?})",
                        workload::ALL
                    )
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        mithra: mithra.ok_or("--mithra is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A run's result: metrics in output order, counts, and any mismatches.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Extra facts printed on the line before the result.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Records a failed correctness check without stopping the run.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("perfbench: MISMATCH: {e}");
            self.mismatches.push(e);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = cpu::place()
        .and_then(|()| std::fs::create_dir_all(&work).map_err(|e| e.to_string()))
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            print_report(&args, &report);
            if report.mismatches.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let w = &args.workload;
    let inputs = gen::generate(w, args.seed, work)?;
    if args.trace {
        trace::run(args, &inputs)
    } else {
        measure(args, &inputs)
    }
}

/// Rounds a run is split into. Every round starts a fresh server from the
/// same generated inputs, times enhancement requests on its fresh state,
/// sends it the same fixed-count stream from the seed, and then times further
/// cold starts and `mithra audit`. Rounds therefore repeat the same work from
/// the same state. A round's value is the median of its samples (or its
/// stream's percentile or rate), and a metric is the mean of the rounds'
/// values without the highest and the lowest. The host this was built on
/// switches between a fast and a slow speed (about 1.3 times apart) for
/// spells of seconds to tens of seconds; a median over rounds flips between
/// the two with the mix of a run, while the trimmed mean moves only in
/// proportion to it.
pub const ROUNDS: usize = 10;

/// Per-round time given to cold starts, audits and enhancement requests.
/// Each runs at least once (enhancement twice) per round; cheap ones repeat
/// until their budget is spent, at most 50 times.
const SETUP_BUDGET: f64 = 1.0;
const AUDIT_BUDGET: f64 = 1.0;
const ENHANCE_BUDGET: f64 = 0.5;

/// Calls `f` at least `min` times and until `secs` have passed (at most 50
/// times), collecting the samples it returns. A call that returns `None`
/// failed and gives no sample.
fn repeat(
    min: usize,
    secs: f64,
    mut f: impl FnMut() -> Result<Option<f64>, String>,
) -> Result<Vec<f64>, String> {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut calls = 0;
    while calls < min || (started.elapsed().as_secs_f64() < secs && calls < 50) {
        calls += 1;
        samples.extend(f()?);
    }
    Ok(samples)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of `values` without their highest and lowest one.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() > 2 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

/// Nearest-rank percentile of sorted nanosecond samples, in milliseconds.
fn percentile_ms(sorted: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).map_or(0.0, |&ns| ns as f64 / 1e6)
}

/// One round's samples.
#[derive(Default)]
struct Round {
    setup: Vec<f64>,
    audit: Vec<f64>,
    enhance: Vec<f64>,
    stream: StreamResult,
    /// The server's `VmHWM` when the stream has ended, in MiB.
    rss: f64,
}

/// How a metric's value is read off one round.
type RoundValue = fn(&Round) -> f64;

/// The end-to-end run, measured from outside the server processes.
/// Correctness is checked on the first fresh state, on every enhancement
/// plan, on every audit, and on the state after every round's stream.
fn measure(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let w = &args.workload;
    let mut report = Report::default();
    report.notes.push((
        "server",
        format!("mithra {}", w.server_args(&inputs.attrs).join(" ")),
    ));
    let base_mups = check::deepdiver(&inputs.base, w.tau)?;
    let fresh = check::State::of(check::reference_engine(w, inputs)?.dataset(), w.tau)?;
    let dir = inputs.instance("server")?;
    let audit_args = w.audit_args(&inputs.attrs);
    let enhance = format!("{{\"op\":\"enhance\",\"lambda\":{}}}", w.lambda);
    let requests = w.stream_rate * args.seconds / ROUNDS as u64;
    report.notes.push((
        "stream_requests_per_round",
        format!("{{\"count\":{requests}}}"),
    ));

    let mut rounds: Vec<Round> = Vec::new();
    // The last plan and model that passed their checks; identical ones
    // later need no second check.
    let mut checked_plan = String::new();
    let mut after: Option<(Model, check::State)> = None;
    for round in 0..ROUNDS {
        let mut r = Round::default();
        let (mut server, first) = Server::start(w, inputs, &dir, &args.mithra)?;
        r.setup.push(first);
        report.attempted += 1;
        if round == 0 {
            let what = if w.has_oplog() {
                "state restored from snapshot and op-log tail"
            } else {
                "state audited from the CSV"
            };
            match check::server_state(&mut server, &fresh, what) {
                Ok(sent) => report.attempted += sent,
                Err(e) => report.check(Err(e)),
            }
        }
        r.enhance = repeat(2, ENHANCE_BUDGET, || {
            let sent = Instant::now();
            let response = server.call(&enhance)?;
            let secs = sent.elapsed().as_secs_f64();
            report.attempted += 1;
            if !client::is_ok(&response) {
                report.failed += 1;
                return Ok(None);
            }
            if response != checked_plan {
                report.check(check::plan(&response, &fresh.mups, inputs, w.lambda));
                checked_plan = response;
            }
            Ok(Some(secs))
        })?;

        let mut model = Model::new(&inputs.initial);
        let mut stream = Stream::new(w, inputs, args.seed).limited(requests);
        r.stream = client::run_stream(w, &mut server, &mut stream, &mut model)?;
        r.rss = server.peak_rss_mb()?;
        report.attempted += r.stream.attempted;
        report.failed += r.stream.failed;
        if after.as_ref().is_none_or(|(m, _)| *m != model) {
            let state = check::State::of(&model.dataset(inputs.schema())?, w.tau)?;
            after = Some((model, state));
        }
        let (_, expected) = after.as_ref().expect("set above");
        match check::server_state(&mut server, expected, "after the stream") {
            Ok(sent) => report.attempted += sent,
            Err(e) => report.check(Err(e)),
        }
        server.stop();

        // More cold starts, each with a fresh copy of the restart inputs,
        // while the round's set-up budget lasts.
        let more = repeat(0, SETUP_BUDGET - first, || {
            let (server, secs) = Server::start(w, inputs, &dir, &args.mithra)?;
            server.stop();
            Ok(Some(secs))
        })?;
        report.attempted += more.len() as u64;
        r.setup.extend(more);
        let audit = repeat(1, AUDIT_BUDGET, || {
            let (secs, count) = client::audit(&args.mithra, &inputs.dir, &audit_args)?;
            if count != base_mups.len() {
                report.check(Err(format!(
                    "mithra audit reports {count} MUPs, in-process DeepDiver {}",
                    base_mups.len()
                )));
            }
            Ok(Some(secs))
        })?;
        report.attempted += audit.len() as u64;
        r.audit = audit;
        rounds.push(r);
    }

    for r in &mut rounds {
        r.stream.writes.sort_unstable();
        r.stream.reads.sort_unstable();
    }
    let per_round: [(&'static str, &'static str, RoundValue); 9] = [
        ("setup_s", "s", |r| median(&r.setup)),
        ("audit_s", "s", |r| median(&r.audit)),
        ("enhance_s", "s", |r| median(&r.enhance)),
        ("write_p50_ms", "ms", |r| {
            percentile_ms(&r.stream.writes, 0.50)
        }),
        ("write_p99_ms", "ms", |r| {
            percentile_ms(&r.stream.writes, 0.99)
        }),
        ("read_p50_ms", "ms", |r| {
            percentile_ms(&r.stream.reads, 0.50)
        }),
        ("read_p99_ms", "ms", |r| {
            percentile_ms(&r.stream.reads, 0.99)
        }),
        ("ops_per_s", "1/s", |r| {
            r.stream.attempted as f64 / r.stream.elapsed.max(1e-9)
        }),
        ("peak_rss_mb", "MiB", |r| r.rss),
    ];
    let mut listed = Vec::new();
    for (name, unit, value) in per_round {
        let values: Vec<f64> = rounds.iter().map(value).collect();
        report.metric(name, trimmed_mean(&values), unit);
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        listed.push(format!("\"{name}\":[{}]", values.join(",")));
    }
    report
        .notes
        .push(("rounds", format!("{{{}}}", listed.join(","))));
    // The sample count behind every round's median or percentile.
    let counts = |f: &dyn Fn(&Round) -> usize| {
        let counts: Vec<String> = rounds.iter().map(|r| f(r).to_string()).collect();
        format!("[{}]", counts.join(","))
    };
    report.notes.push((
        "samples_per_round",
        format!(
            "{{\"setup\":{},\"audit\":{},\"enhance\":{},\"write\":{},\"read\":{}}}",
            counts(&|r| r.setup.len()),
            counts(&|r| r.audit.len()),
            counts(&|r| r.enhance.len()),
            counts(&|r| r.stream.writes.len()),
            counts(&|r| r.stream.reads.len()),
        ),
    ));
    Ok(report)
}

fn print_report(args: &Args, report: &Report) {
    let mut info = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{}",
        client::json_str(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cpu::host()
    );
    for (key, value) in &report.notes {
        let value = if value.starts_with('{') {
            value.clone()
        } else {
            client::json_str(value)
        };
        info.push_str(&format!(",{}:{value}", client::json_str(key)));
    }
    info.push('}');
    println!("{info}");
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.mismatches.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}
