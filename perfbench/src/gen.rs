//! Everything a run feeds the server, made from the workload seed before any
//! timing starts: the CSV, the snapshot and op-log tail a restarting server
//! recovers from, and the request stream.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};

use coverage_core::Threshold;
use coverage_data::io::{read_csv_auto_path, write_csv_path};
use coverage_data::{Dataset, Schema};
use coverage_index::{ShardedOracle, X};
use coverage_service::{save_snapshot_anchored, CoverageEngine, LogEntry, LoggedOp, OpLog};

use crate::workload::{Mix, Workload, CSV, MUPS_LIMIT, OPLOG, SNAPSHOT};

/// The engine type `mithra serve --shards 1 --backend dense` runs.
pub type Engine = CoverageEngine<ShardedOracle>;

/// SplitMix64: a small, fast, seedable generator for the request stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Rows generated per run for inserts; the stream cycles through them.
const FRESH_ROWS: usize = 1 << 18;
/// Coverage patterns in the pool (half point, half with at least one `X`).
const POOL: usize = 2048;
/// An inserted row may be deleted only this many requests after its insert,
/// so a pipelined client never has to wait for the insert's response.
const DELETE_LAG: u64 = 64;

/// The generated inputs of one run, in the codes the server assigns when it
/// reads the CSV (first-seen order per attribute).
pub struct Inputs {
    pub dir: PathBuf,
    /// Attribute names, in column order.
    pub attrs: Vec<String>,
    /// The CSV as the server reads it.
    pub base: Dataset,
    /// Rows present when the stream starts: the CSV plus the op-log tail.
    pub initial: Vec<Vec<u8>>,
    /// The op-log tail a restarting server replays (empty for cold starts).
    pub tail: Vec<LogEntry>,
    /// Rows the stream inserts, cycled.
    pub fresh: Vec<Vec<u8>>,
    /// Coverage-request patterns, hottest first.
    pub patterns: Vec<Vec<u8>>,
}

impl Inputs {
    pub fn schema(&self) -> &Schema {
        self.base.schema()
    }

    /// The value names of a row, as a client sends them.
    pub fn names(&self, row: &[u8]) -> Vec<String> {
        row.iter()
            .enumerate()
            .map(|(j, &v)| self.schema().attribute(j).value_name(v))
            .collect()
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Pristine copies of the restart inputs; the server appends to the op
    /// log it runs on, so every start gets fresh copies of these.
    pub fn pristine(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.orig"))
    }

    /// A directory a server instance runs in, holding the CSV under its
    /// usual name, so every instance has the same command line.
    pub fn instance(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.dir.join(name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::copy(self.path(CSV), dir.join(CSV)).map_err(|e| format!("copying {CSV}: {e}"))?;
        Ok(dir)
    }

    /// Puts fresh copies of the snapshot and op log a start recovers from
    /// into `dir`.
    pub fn reset_restart_files(&self, dir: &Path) -> Result<(), String> {
        for name in [SNAPSHOT, OPLOG] {
            std::fs::copy(self.pristine(name), dir.join(name))
                .map_err(|e| format!("copying {name}: {e}"))?;
        }
        Ok(())
    }
}

/// Maps a row of generator codes to the server's codes through value names.
fn recode(from: &Schema, to: &Schema, row: &[u8]) -> Result<Vec<u8>, String> {
    row.iter()
        .enumerate()
        .map(|(j, &v)| {
            let name = from.attribute(j).value_name(v);
            to.attribute(j).code_of(&name).map_err(|_| {
                format!(
                    "value `{name}` of `{}` is not in the CSV",
                    to.attribute(j).name()
                )
            })
        })
        .collect()
}

/// Writes the CSV (and, for restarting workloads, the snapshot and op-log
/// tail) into `dir` and builds the stream's row and pattern pools.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let generated = w.source.generate(w.source.rows(), seed)?;
    let csv = dir.join(CSV);
    write_csv_path(&csv, &generated).map_err(|e| format!("writing {CSV}: {e}"))?;
    let attrs: Vec<String> = generated
        .schema()
        .attributes()
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let base = read_csv_auto_path(&csv, &attr_refs, None).map_err(|e| e.to_string())?;

    let extra = w.source.generate(FRESH_ROWS, seed ^ 0x5EED_F00D)?;
    let fresh = extra
        .rows()
        .map(|row| recode(extra.schema(), base.schema(), row))
        .collect::<Result<Vec<_>, _>>()?;

    let mut inputs = Inputs {
        dir: dir.to_path_buf(),
        attrs,
        initial: base.rows().map(<[u8]>::to_vec).collect(),
        base,
        tail: Vec::new(),
        fresh,
        patterns: Vec::new(),
    };
    if w.tail > 0 {
        write_restart_files(w, seed, &mut inputs)?;
    }
    inputs.patterns = pattern_pool(&inputs.initial, &mut Rng::new(seed ^ 0xC0FF_EE00));
    Ok(inputs)
}

/// The snapshot of the CSV's engine (anchored at seq 0) and an op-log tail
/// of single-row inserts and deletes in the workload's write ratio.
fn write_restart_files(w: &Workload, seed: u64, inputs: &mut Inputs) -> Result<(), String> {
    let engine = Engine::with_shards(inputs.base.clone(), Threshold::Count(w.tau), 1)
        .map_err(|e| e.to_string())?;
    save_snapshot_anchored(&engine, &inputs.pristine(SNAPSHOT), 0).map_err(|e| e.to_string())?;

    let tail_rows = w.source.generate(w.tail, seed ^ 0x7A11_0000)?;
    let mut rng = Rng::new(seed ^ 0x7A11_7A11);
    let mut present = inputs.initial.clone();
    let mut log = OpLog::open(&inputs.pristine(OPLOG), coverage_service::SyncPolicy::Off)
        .map_err(|e| format!("creating the op-log tail: {e}"))?;
    let writes = w.mix.insert + w.mix.delete;
    for i in 0..w.tail {
        let op = if rng.below(writes as usize) < w.mix.insert as usize || present.is_empty() {
            let row = recode(tail_rows.schema(), inputs.schema(), tail_rows.row(i))?;
            let op = LoggedOp::Insert {
                rows: vec![inputs.names(&row)],
            };
            present.push(row);
            op
        } else {
            let row = present.swap_remove(rng.below(present.len()));
            LoggedOp::Delete {
                rows: vec![inputs.names(&row)],
            }
        };
        log.append(op)
            .map_err(|e| format!("writing the op-log tail: {e}"))?;
    }
    inputs.tail = log
        .entries_from(1, usize::MAX)
        .map_err(|_| "op-log tail lost its first entry".to_string())?
        .to_vec();
    inputs.initial = present;
    Ok(())
}

/// Coverage patterns drawn from present rows: even slots are point patterns
/// (every attribute set), odd slots wildcard one to `d - 1` attributes.
fn pattern_pool(rows: &[Vec<u8>], rng: &mut Rng) -> Vec<Vec<u8>> {
    (0..POOL)
        .map(|i| {
            let mut p = rows[rng.below(rows.len())].clone();
            if i % 2 == 1 {
                let wild = 1 + rng.below(p.len() - 1);
                for _ in 0..wild {
                    let at = rng.below(p.len());
                    p[at] = X;
                }
            }
            p
        })
        .collect()
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub enum Op {
    Insert(Vec<u8>),
    /// `after`: the stream index of the insert that added this row, if the
    /// stream added it (the row must be acknowledged before it is deleted).
    Delete {
        row: Vec<u8>,
        after: Option<u64>,
    },
    Coverage(Vec<u8>),
    Mups,
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Insert(_) | Op::Delete { .. })
    }
}

#[derive(Debug, Clone)]
pub struct Request {
    pub index: u64,
    pub op: Op,
    /// The NDJSON line, without the newline.
    pub line: String,
}

/// The seeded request stream. Deletes only name rows the stream knows are
/// present, so every request is expected to succeed.
pub struct Stream<'a> {
    inputs: &'a Inputs,
    rng: Rng,
    mix: Mix,
    /// Cumulative Zipf(1) weights over the pattern pool.
    zipf: Vec<f64>,
    next_fresh: usize,
    deletable: Vec<(Vec<u8>, Option<u64>)>,
    lagging: VecDeque<(u64, Vec<u8>)>,
    issued: u64,
    /// A request handed back unsent, returned again by the next call.
    unsent: Option<Request>,
    /// Requests the stream may issue, if limited.
    limit: Option<u64>,
}

impl<'a> Stream<'a> {
    pub fn new(w: &Workload, inputs: &'a Inputs, seed: u64) -> Self {
        let mut total = 0.0;
        let zipf = (0..inputs.patterns.len())
            .map(|r| {
                total += 1.0 / (r as f64 + 1.0);
                total
            })
            .collect();
        let deletable = if w.delete_initial {
            inputs.initial.iter().map(|r| (r.clone(), None)).collect()
        } else {
            Vec::new()
        };
        Stream {
            inputs,
            rng: Rng::new(seed ^ 0x57E4_3A11),
            mix: w.mix,
            zipf,
            next_fresh: 0,
            deletable,
            lagging: VecDeque::new(),
            issued: 0,
            unsent: None,
            limit: None,
        }
    }

    /// The same stream, ending after its first `n` requests.
    pub fn limited(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Whether a limited stream has issued (and had sent) all its requests.
    pub fn exhausted(&self) -> bool {
        self.unsent.is_none() && self.limit.is_some_and(|n| self.issued >= n)
    }

    fn pattern(&mut self) -> Vec<u8> {
        let total = *self.zipf.last().expect("pattern pool is not empty");
        let x = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        let at = self.zipf.partition_point(|&c| c <= x);
        self.inputs.patterns[at.min(self.zipf.len() - 1)].clone()
    }

    /// Hands back a request that was not sent; it comes next again.
    pub fn unsend(&mut self, request: Request) {
        self.unsent = Some(request);
    }

    pub fn next_request(&mut self) -> Request {
        if let Some(request) = self.unsent.take() {
            return request;
        }
        let index = self.issued;
        self.issued += 1;
        while let Some(&(at, _)) = self.lagging.front() {
            if at + DELETE_LAG > index {
                break;
            }
            let (at, row) = self.lagging.pop_front().expect("front exists");
            self.deletable.push((row, Some(at)));
        }
        let roll = self.rng.below(1000) as u32;
        let Mix {
            insert,
            delete,
            coverage,
        } = self.mix;
        let op = if roll < insert || (roll < insert + delete && self.deletable.is_empty()) {
            let row = self.inputs.fresh[self.next_fresh % self.inputs.fresh.len()].clone();
            self.next_fresh += 1;
            self.lagging.push_back((index, row.clone()));
            Op::Insert(row)
        } else if roll < insert + delete {
            let (row, after) = self
                .deletable
                .swap_remove(self.rng.below(self.deletable.len()));
            Op::Delete { row, after }
        } else if roll < insert + delete + coverage {
            Op::Coverage(self.pattern())
        } else {
            Op::Mups
        };
        let line = match &op {
            Op::Insert(row) => row_line("insert", &self.inputs.names(row)),
            Op::Delete { row, .. } => row_line("delete", &self.inputs.names(row)),
            Op::Coverage(p) => format!(
                "{{\"op\":\"coverage\",\"pattern\":\"{}\"}}",
                coverage_core::pattern::Pattern::from_codes(p.clone())
            ),
            Op::Mups => format!("{{\"op\":\"mups\",\"limit\":{MUPS_LIMIT}}}"),
        };
        Request { index, op, line }
    }
}

fn row_line(op: &str, names: &[String]) -> String {
    let mut line = format!("{{\"op\":\"{op}\",\"row\":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        line.push_str(name);
        line.push('"');
    }
    line.push_str("]}");
    line
}

/// The multiset of rows the client knows the server holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    counts: HashMap<Vec<u8>, u64>,
}

impl Model {
    pub fn new(rows: &[Vec<u8>]) -> Self {
        let mut m = Model::default();
        for r in rows {
            m.add(r);
        }
        m
    }

    pub fn add(&mut self, row: &[u8]) {
        *self.counts.entry(row.to_vec()).or_insert(0) += 1;
    }

    pub fn remove(&mut self, row: &[u8]) {
        if let Some(n) = self.counts.get_mut(row) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(row);
            }
        }
    }

    /// Applies an acknowledged write.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(row) => self.add(row),
            Op::Delete { row, .. } => self.remove(row),
            Op::Coverage(_) | Op::Mups => {}
        }
    }

    pub fn dataset(&self, schema: &Schema) -> Result<Dataset, String> {
        let mut rows = Vec::new();
        for (row, &n) in &self.counts {
            for _ in 0..n {
                rows.push(row.clone());
            }
        }
        Dataset::from_rows(schema.clone(), &rows).map_err(|e| e.to_string())
    }
}
