//! Correctness checks: the server's answers against the library run
//! in-process on the rows the client knows were applied.

use std::collections::HashMap;

use coverage_core::enhance::uncovered_patterns_at_level;
use coverage_core::mup::{DeepDiver, MupAlgorithm};
use coverage_core::pattern::Pattern;
use coverage_core::Threshold;
use coverage_data::Dataset;
use coverage_index::CoverageOracle;
use coverage_service::protocol::Json;
use coverage_service::{load_snapshot_anchored, replay_entries};

use crate::client::Server;
use crate::gen::{Engine, Inputs};
use crate::workload::{Workload, SNAPSHOT};

/// The engine a freshly started server should hold: the CSV audited from
/// scratch, or the pristine snapshot plus the op-log tail replayed.
pub fn reference_engine(w: &Workload, inputs: &Inputs) -> Result<Engine, String> {
    if !w.has_oplog() {
        return Engine::with_shards(inputs.base.clone(), Threshold::Count(w.tau), 1)
            .map_err(|e| e.to_string());
    }
    let (mut engine, anchor) = load_snapshot_anchored::<coverage_index::ShardedOracle>(
        &inputs.pristine(SNAPSHOT),
        Some(1),
    )
    .map_err(|e| e.to_string())?;
    replay_entries(&mut engine, &inputs.tail, anchor)?;
    Ok(engine)
}

/// DeepDiver over a dataset, sorted.
pub fn deepdiver(dataset: &Dataset, tau: u64) -> Result<Vec<Pattern>, String> {
    let oracle = CoverageOracle::from_dataset(dataset);
    let mut mups = DeepDiver::default()
        .find_mups_with_oracle(&oracle, tau)
        .map_err(|e| e.to_string())?;
    mups.sort();
    Ok(mups)
}

fn parse_ok(response: &str) -> Result<Json, String> {
    let doc = Json::parse(response).map_err(|e| format!("bad response {response}: {e}"))?;
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {response}"));
    }
    Ok(doc)
}

/// Point patterns are checked one by one only up to this many.
const POINTS_CHECKED: u64 = 4096;

/// What a server holding a dataset must answer: its MUPs (by DeepDiver), its
/// row count and, when the schema has at most `POINTS_CHECKED` value
/// combinations, the coverage of every point pattern, which is the
/// multiplicity of that row.
pub struct State {
    pub mups: Vec<Pattern>,
    rows: u64,
    points: Vec<(Vec<u8>, u64)>,
}

impl State {
    pub fn of(dataset: &Dataset, tau: u64) -> Result<State, String> {
        let cards = dataset.schema().cardinalities();
        let space = cards
            .iter()
            .try_fold(1u64, |n, &c| n.checked_mul(c as u64))
            .unwrap_or(u64::MAX);
        let mut points = Vec::new();
        if space <= POINTS_CHECKED {
            let mut counts: HashMap<&[u8], u64> = HashMap::new();
            for row in dataset.rows() {
                *counts.entry(row).or_insert(0) += 1;
            }
            let mut codes = vec![0u8; cards.len()];
            for _ in 0..space {
                points.push((
                    codes.clone(),
                    counts.get(codes.as_slice()).copied().unwrap_or(0),
                ));
                // Next combination, last attribute fastest.
                for j in (0..codes.len()).rev() {
                    if codes[j] + 1 < cards[j] {
                        codes[j] += 1;
                        break;
                    }
                    codes[j] = 0;
                }
            }
        }
        Ok(State {
            mups: deepdiver(dataset, tau)?,
            rows: dataset.len() as u64,
            points,
        })
    }
}

/// Compares what the server holds with `expected`: MUPs, row count and the
/// coverage of every checked point pattern. Returns the requests it sent.
pub fn server_state(server: &mut Server, expected: &State, what: &str) -> Result<u64, String> {
    server_mups(server, &expected.mups, what)?;
    let rows = stat(&stats(server)?, "rows");
    if rows != Some(expected.rows as f64) {
        return Err(format!(
            "{what}: server holds {rows:?} rows, the client expects {}",
            expected.rows
        ));
    }
    for (codes, want) in &expected.points {
        let pattern = Pattern::from_codes(codes.clone()).to_string();
        let line = format!("{{\"op\":\"coverage\",\"pattern\":\"{pattern}\"}}");
        let got = parse_ok(&server.call(&line)?)?
            .get("coverage")
            .and_then(Json::as_u64);
        if got != Some(*want) {
            return Err(format!(
                "{what}: server coverage of {pattern} is {got:?}, expected {want}"
            ));
        }
    }
    Ok(2 + expected.points.len() as u64)
}

/// Compares the server's full MUP list with `expected`.
fn server_mups(server: &mut Server, expected: &[Pattern], what: &str) -> Result<(), String> {
    let doc = parse_ok(&server.call("{\"op\":\"mups\"}")?)?;
    let mut got: Vec<String> = doc
        .get("mups")
        .and_then(Json::as_array)
        .ok_or("mups response has no `mups` array")?
        .iter()
        .filter_map(|m| m.as_str().map(String::from))
        .collect();
    got.sort();
    let mut want: Vec<String> = expected.iter().map(Pattern::to_string).collect();
    want.sort();
    if got != want {
        let missing = want.iter().filter(|m| !got.contains(m)).count();
        let extra = got.iter().filter(|m| !want.contains(m)).count();
        return Err(format!(
            "{what}: server holds {} MUPs, in-process DeepDiver {} ({missing} missing, {extra} extra)",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

/// Checks an `enhance` response: it must name exactly the level-λ targets
/// the MUPs imply, and every target must match a collected combination.
pub fn plan(
    response: &str,
    mups: &[Pattern],
    inputs: &Inputs,
    lambda: usize,
) -> Result<(), String> {
    let doc = parse_ok(response)?;
    let schema = inputs.schema();
    let targets = uncovered_patterns_at_level(mups, &schema.cardinalities(), lambda);
    let reported = doc.get("targets").and_then(Json::as_u64);
    if reported != Some(targets.len() as u64) {
        return Err(format!(
            "enhance reports {reported:?} targets at λ = {lambda}, the MUPs imply {}",
            targets.len()
        ));
    }
    let combos = doc
        .get("collect")
        .and_then(Json::as_array)
        .ok_or("enhance response has no `collect` array")?
        .iter()
        .map(|c| {
            c.get("values")
                .and_then(Json::as_array)
                .ok_or("collect entry has no `values`")?
                .iter()
                .enumerate()
                .map(|(j, v)| {
                    let name = v.as_str().ok_or("values must be strings")?;
                    schema
                        .attribute(j)
                        .code_of(name)
                        .map_err(|e| format!("enhance names an unknown value: {e}"))
                })
                .collect::<Result<Vec<u8>, String>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let missed = targets
        .iter()
        .filter(|t| !combos.iter().any(|c| t.matches(c)))
        .count();
    if missed > 0 {
        return Err(format!(
            "the λ = {lambda} plan leaves {missed} of {} targets unhit",
            targets.len()
        ));
    }
    Ok(())
}

/// Reads a numeric field path (`a.b.c`) out of a `stats` response.
pub fn stat(doc: &Json, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(doc, |d, key| d.get(key))
        .and_then(Json::as_f64)
}

pub fn stats(server: &mut Server) -> Result<Json, String> {
    parse_ok(&server.call("{\"op\":\"stats\"}")?)
}
