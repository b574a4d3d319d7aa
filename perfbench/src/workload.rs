//! The three workloads: which data the server holds, how it starts, and the
//! request mix the client sends. Every server flag whose default depends on
//! the host (`--shards` defaults to one shard per core) is pinned here.

use coverage_data::generators::{airbnb_like, bluenile_like};
use coverage_data::Dataset;

/// Where the dataset comes from: one of the in-tree generators.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `bluenile_like(rows)`: 7 attributes, cardinalities 10/4/7/8/3/3/5.
    Bluenile { rows: usize },
    /// `airbnb_like(rows, d)`: `d` boolean amenities.
    Airbnb { rows: usize, d: usize },
}

impl Source {
    pub fn generate(self, rows: usize, seed: u64) -> Result<Dataset, String> {
        match self {
            Source::Bluenile { .. } => bluenile_like(rows, seed),
            Source::Airbnb { d, .. } => airbnb_like(rows, d, seed),
        }
        .map_err(|e| e.to_string())
    }

    pub fn rows(self) -> usize {
        match self {
            Source::Bluenile { rows } | Source::Airbnb { rows, .. } => rows,
        }
    }
}

/// How the client reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// NDJSON over the child's stdin/stdout, one request in flight.
    Stdio,
    /// The TCP event loop: `connections` sockets driven by one client
    /// thread, each with up to `pipeline` requests in flight.
    Tcp { connections: usize, pipeline: usize },
}

/// Request mix in parts per thousand; `mups` takes the rest.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub insert: u32,
    pub delete: u32,
    pub coverage: u32,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    pub tau: u64,
    pub lambda: usize,
    pub front: Front,
    pub mix: Mix,
    /// Op-log entries replayed at every start. Non-zero means the server
    /// restarts from a snapshot plus this tail and keeps an op log;
    /// zero means a cold start from the CSV with no op log. The policy is
    /// `OPLOG_SYNC`.
    pub tail: usize,
    /// Whether deletes may name rows of the data present before the stream
    /// (otherwise only rows this client inserted).
    pub delete_initial: bool,
    /// Requests per second of `--seconds` the stream is sized for. Each
    /// round sends `stream_rate × seconds / ROUNDS` requests to a freshly
    /// started server, a count fixed by the arguments alone, so every round
    /// repeats the same work from the same state on any host. The rates are
    /// about what a 2-core host completes.
    pub stream_rate: u64,
    /// Requests the traced run replays: on the order of what an end-to-end
    /// run sends per server start, so the traced unit of work keeps the
    /// proportions of the end-to-end run.
    pub trace_requests: usize,
}

/// `mups` requests in the stream ask for at most this many patterns, so a
/// read measures the engine and protocol rather than a megabyte response.
pub const MUPS_LIMIT: usize = 20;

pub const ALL: [&str; 3] = ["audit-bluenile", "churn-airbnb", "ingest-airbnb"];

pub fn by_name(name: &str) -> Option<Workload> {
    let w = match name {
        // The paper's pipeline at the paper's BlueNile shape: DeepDiver, the
        // greedy plan and the index kernels do almost all the work.
        "audit-bluenile" => Workload {
            name: "audit-bluenile",
            source: Source::Bluenile { rows: 116_300 },
            tau: 100,
            lambda: 3,
            front: Front::Stdio,
            mix: Mix {
                insert: 25,
                delete: 25,
                coverage: 900,
            },
            tail: 0,
            delete_initial: false,
            stream_rate: 25_000,
            trace_requests: 10_000,
        },
        // Streaming frontier maintenance: the delta walk and memo-cache
        // invalidation dominate; DeepDiver runs only in setup.
        "churn-airbnb" => Workload {
            name: "churn-airbnb",
            source: Source::Airbnb {
                rows: 20_000,
                d: 10,
            },
            tau: 20,
            lambda: 6,
            front: Front::Tcp {
                connections: 1,
                pipeline: 1,
            },
            mix: Mix {
                insert: 400,
                delete: 200,
                coverage: 370,
            },
            tail: 0,
            delete_initial: false,
            stream_rate: 20_000,
            trace_requests: 10_000,
        },
        // Durable bulk ingest: engine work is tiny, so framing, parsing,
        // coalescing, op-log append and fsync dominate, plus snapshot load
        // and tail replay at start.
        "ingest-airbnb" => Workload {
            name: "ingest-airbnb",
            source: Source::Airbnb { rows: 2_000, d: 6 },
            tau: 5,
            lambda: 5,
            front: Front::Tcp {
                connections: 2,
                pipeline: 16,
            },
            mix: Mix {
                insert: 600,
                delete: 200,
                coverage: 150,
            },
            tail: 50_000,
            delete_initial: true,
            stream_rate: 300_000,
            trace_requests: 50_000,
        },
        _ => return None,
    };
    Some(w)
}

/// File names inside the run's work directory (the server runs there, so its
/// command line is the same on every run).
pub const CSV: &str = "data.csv";
pub const SNAPSHOT: &str = "state.snap";
pub const OPLOG: &str = "state.oplog";

/// The restarting server's `--oplog-sync` policy. Every write is still
/// appended to the op log, but not fsynced: with `batch`, one fsync per
/// event-loop tick on a shared virtual disk made throughput swing between
/// 34,000 and 70,000 requests per second, and write p99 between 0.8 and
/// 9 ms, across runs of the same code, far beyond any bound a gate could
/// hold. The cost of an fsync is still measured in the traced run
/// (`service.oplog.sync_us`).
pub const OPLOG_SYNC: &str = "off";

impl Workload {
    /// The full `mithra serve` command line (after the program name).
    pub fn server_args(&self, attrs: &[String]) -> Vec<String> {
        let mut args: Vec<String> = vec![
            "serve".into(),
            CSV.into(),
            "--attrs".into(),
            attrs.join(","),
            "--tau".into(),
            self.tau.to_string(),
            "--shards".into(),
            "1".into(),
            "--backend".into(),
            "dense".into(),
        ];
        if let Front::Tcp { .. } = self.front {
            args.extend(
                [
                    "--listen",
                    "127.0.0.1:0",
                    "--io",
                    "event",
                    "--max-pending",
                    "1024",
                ]
                .map(String::from),
            );
        }
        if self.tail > 0 {
            args.extend(
                [
                    "--snapshot",
                    SNAPSHOT,
                    "--oplog",
                    OPLOG,
                    "--oplog-sync",
                    OPLOG_SYNC,
                ]
                .map(String::from),
            );
        }
        args
    }

    /// The `mithra audit` command line timed by `audit_s`.
    pub fn audit_args(&self, attrs: &[String]) -> Vec<String> {
        vec![
            "audit".into(),
            CSV.into(),
            "--attrs".into(),
            attrs.join(","),
            "--tau".into(),
            self.tau.to_string(),
            "--limit".into(),
            "1".into(),
        ]
    }

    pub fn has_oplog(&self) -> bool {
        self.tail > 0
    }
}
