//! Delta maintenance: how a batch of inserted or deleted tuples moves the
//! MUP frontier.
//!
//! Under a fixed threshold, inserts only *increase* coverage, so the MUP set
//! moves strictly downward: a MUP matching an inserted tuple may become
//! covered (it retires), and its replacements are exactly the maximal
//! uncovered patterns in the pattern-graph region below it
//! ([`coverage_core::graph::maximal_uncovered_below`]). MUPs matching no
//! inserted tuple keep their coverage — and their status — untouched, so a
//! single insert re-probes only the `≲ 2^level` patterns around the frontier
//! it actually touches instead of re-running discovery over the whole graph.
//!
//! Deletes are the mirror image: coverage only *decreases*, and only for
//! patterns matching a deleted tuple, so the frontier moves strictly upward.
//! Every brand-new MUP lies in a deleted tuple's match sublattice, and
//! existing MUPs never become covered — they can only stop being *maximal*
//! when a newly uncovered ancestor now dominates them. The sublattice is
//! walked bottom-up ([`coverage_core::graph::maximal_uncovered_within`]):
//! from the fully determined pattern `t̂` through uncovered parents only, so
//! a delete that leaves `t̂` covered costs one early-exit probe, and any
//! other delete probes just the uncovered region and its covered rim —
//! never the covered slab above the frontier.
//!
//! The walks ask the oracle directly — early-exit `covered` probes behind a
//! walk-local memo — and never touch the engine's memo cache, which serves
//! client `coverage` requests only. Both deltas keep `mups` sorted: removal
//! is an order-preserving `retain`, and the set is re-sorted only when a
//! delta discovered patterns.

use std::collections::HashSet;

use coverage_core::graph::{maximal_uncovered_below, maximal_uncovered_within};
use coverage_core::pattern::Pattern;
use coverage_index::CoverageProvider;

/// What an insert or delete delta did to the MUP set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// MUPs that left the frontier (covered by inserts, or dominated by
    /// newly uncovered ancestors after deletes).
    pub retired: usize,
    /// New MUPs discovered (below retired ones for inserts, above the old
    /// frontier for deletes).
    pub discovered: usize,
}

/// Adds freshly discovered MUPs to the sorted frontier, keeping it sorted.
fn merge_sorted(mups: &mut Vec<Pattern>, discovered: impl IntoIterator<Item = Pattern>) {
    let before = mups.len();
    mups.extend(discovered);
    if mups.len() > before {
        mups.sort();
    }
}

/// Updates the sorted `mups` in place for a batch of freshly ingested rows
/// (the oracle must already include them), keeping it sorted. Only valid
/// when the resolved threshold is unchanged; a shifted rate threshold
/// requires a full recompute because previously covered patterns anywhere
/// may have dropped below the new τ.
pub(crate) fn apply_insert_delta<R: AsRef<[u8]>>(
    oracle: &dyn CoverageProvider,
    tau: u64,
    mups: &mut Vec<Pattern>,
    rows: &[R],
) -> DeltaOutcome {
    let affected: Vec<&[u8]> = mups
        .iter()
        .filter(|m| rows.iter().any(|r| m.matches(r.as_ref())))
        .map(Pattern::codes)
        .collect();
    if affected.is_empty() {
        return DeltaOutcome::default();
    }
    // One wide probe for every touched MUP — a sharded backend answers the
    // whole batch with parallel shard-local scans.
    let counts = oracle.coverage_batch(&affected);
    let retired: HashSet<Pattern> = affected
        .into_iter()
        .zip(counts)
        .filter(|&(_, count)| count >= tau)
        .map(|(m, _)| Pattern::from_codes(m))
        .collect();
    if retired.is_empty() {
        return DeltaOutcome::default();
    }
    mups.retain(|m| !retired.contains(m));
    // Walks from different retired MUPs can meet at a shared descendant;
    // the set keeps each new MUP once.
    let cards = oracle.cardinalities();
    let mut discovered: HashSet<Pattern> = HashSet::new();
    for root in &retired {
        discovered.extend(maximal_uncovered_below(root, cards, |p| {
            oracle.covered(p.codes(), tau)
        }));
    }
    let outcome = DeltaOutcome {
        retired: retired.len(),
        discovered: discovered.len(),
    };
    merge_sorted(mups, discovered);
    outcome
}

/// Updates the sorted `mups` in place for a batch of freshly *deleted* rows
/// (the oracle must already have forgotten them), keeping it sorted. Only
/// valid when the resolved threshold is unchanged; a shrinking dataset can
/// step a rate threshold *down*, which may newly cover patterns anywhere and
/// requires a full recompute.
pub(crate) fn apply_delete_delta<R: AsRef<[u8]>>(
    oracle: &dyn CoverageProvider,
    tau: u64,
    mups: &mut Vec<Pattern>,
    rows: &[R],
) -> DeltaOutcome {
    // One sublattice walk per *distinct* deleted tuple: the walk probes
    // post-delete coverage, so extra copies of a tuple change nothing.
    let mut distinct: HashSet<&[u8]> = HashSet::new();
    let mut frontier: HashSet<Pattern> = HashSet::new();
    for row in rows {
        let row = row.as_ref();
        if distinct.insert(row) {
            frontier.extend(maximal_uncovered_within(row, |p| {
                oracle.covered(p.codes(), tau)
            }));
        }
    }
    // The walks return every maximal uncovered pattern matching a deleted
    // tuple — including MUPs that were already on the frontier.
    let newcomers: Vec<Pattern> = frontier
        .into_iter()
        .filter(|p| mups.binary_search(p).is_err())
        .collect();
    if newcomers.is_empty() {
        return DeltaOutcome::default();
    }
    // A newly uncovered ancestor dominates (strictly) any old MUP below it,
    // which therefore stops being maximal.
    let before = mups.len();
    mups.retain(|m| !newcomers.iter().any(|p| p.dominates(m)));
    let outcome = DeltaOutcome {
        retired: before - mups.len(),
        discovered: newcomers.len(),
    };
    merge_sorted(mups, newcomers);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage_core::mup::{DeepDiver, MupAlgorithm};
    use coverage_data::{Dataset, Schema};
    use coverage_index::CoverageOracle;

    /// The batch MUP set, sorted as the deltas require.
    fn sorted_mups(oracle: &CoverageOracle, tau: u64) -> Vec<Pattern> {
        let mut mups = DeepDiver::default()
            .find_mups_with_oracle(oracle, tau)
            .unwrap();
        mups.sort();
        mups
    }

    /// Example 1 of the paper plus a streamed insert: the delta must agree
    /// with re-running DEEPDIVER on the extended dataset.
    #[test]
    fn insert_retires_mup_and_discovers_frontier() {
        let rows = [
            vec![0u8, 1, 0],
            vec![0, 0, 1],
            vec![0, 0, 0],
            vec![0, 1, 1],
            vec![0, 0, 1],
        ];
        let ds = Dataset::from_rows(Schema::binary(3).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let mut mups = sorted_mups(&oracle, 1);
        assert_eq!(mups.len(), 1); // 1XX

        let insert = vec![vec![1u8, 0, 1]];
        oracle.add_row(&insert[0]);
        let outcome = apply_insert_delta(&oracle, 1, &mut mups, &insert);
        assert_eq!(
            outcome,
            DeltaOutcome {
                retired: 1,
                discovered: 2
            }
        );
        // The delta keeps the frontier sorted on its own.
        assert_eq!(mups, sorted_mups(&oracle, 1));
    }

    /// An insert matching no MUP leaves the frontier untouched without any
    /// oracle traffic beyond the match filter.
    #[test]
    fn unrelated_insert_is_a_no_op() {
        let rows = [vec![0u8, 1, 0], vec![0, 0, 1]];
        let ds = Dataset::from_rows(Schema::binary(3).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let mut mups = sorted_mups(&oracle, 1);
        let before = mups.clone();
        // (0,1,0) is already present: it matches the covered region only.
        let insert = vec![vec![0u8, 1, 0]];
        oracle.add_row(&insert[0]);
        let outcome = apply_insert_delta(&oracle, 1, &mut mups, &insert);
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(mups, before);
    }

    /// The mirror of `insert_retires_mup_and_discovers_frontier`: deleting
    /// the tuple again must collapse the two replacement MUPs back into the
    /// single dominating one, agreeing with a fresh DEEPDIVER run.
    #[test]
    fn delete_restores_the_dominating_mup() {
        let rows = [
            vec![0u8, 1, 0],
            vec![0, 0, 1],
            vec![0, 0, 0],
            vec![0, 1, 1],
            vec![0, 0, 1],
            vec![1, 0, 1],
        ];
        let ds = Dataset::from_rows(Schema::binary(3).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let mut mups = sorted_mups(&oracle, 1);
        assert_eq!(mups.len(), 2); // 11X, 1X0

        let delete = vec![vec![1u8, 0, 1]];
        assert!(oracle.remove_row(&delete[0]));
        let outcome = apply_delete_delta(&oracle, 1, &mut mups, &delete);
        assert_eq!(
            outcome,
            DeltaOutcome {
                retired: 2,
                discovered: 1
            }
        );
        assert_eq!(mups, sorted_mups(&oracle, 1));
        assert_eq!(mups[0].to_string(), "1XX");
    }

    /// Deleting one of several copies leaves every pattern covered: no MUP
    /// changes at all.
    #[test]
    fn redundant_delete_is_a_no_op() {
        let rows = [vec![0u8, 0], vec![0, 0], vec![0, 1], vec![1, 0]];
        let ds = Dataset::from_rows(Schema::binary(2).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let mut mups = sorted_mups(&oracle, 1);
        let before = mups.clone();
        let delete = vec![vec![0u8, 0]]; // still one copy left
        assert!(oracle.remove_row(&delete[0]));
        let outcome = apply_delete_delta(&oracle, 1, &mut mups, &delete);
        assert_eq!(outcome, DeltaOutcome::default());
        assert_eq!(mups, before);
    }

    /// A batch delete that empties the dataset leaves the root as the only
    /// MUP, retiring everything else.
    #[test]
    fn deleting_everything_leaves_the_root() {
        let rows = [vec![0u8, 1], vec![1, 0]];
        let ds = Dataset::from_rows(Schema::binary(2).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let mut mups = sorted_mups(&oracle, 1);
        assert!(!mups.is_empty());
        let deletes: Vec<Vec<u8>> = rows.to_vec();
        for row in &deletes {
            assert!(oracle.remove_row(row));
        }
        apply_delete_delta(&oracle, 1, &mut mups, &deletes);
        assert_eq!(mups, vec![Pattern::all_x(2)]);
    }

    /// A matching insert that does not lift the MUP over τ keeps it.
    #[test]
    fn insufficient_insert_keeps_mup() {
        let rows = [vec![0u8, 0], vec![0, 1], vec![0, 0]];
        let ds = Dataset::from_rows(Schema::binary(2).unwrap(), &rows).unwrap();
        let mut oracle = CoverageOracle::from_dataset(&ds);
        let tau = 2u64;
        let mut mups = sorted_mups(&oracle, tau);
        assert!(mups.iter().any(|m| m.to_string() == "1X"));
        let insert = vec![vec![1u8, 0]]; // cov(1X) 0 → 1, still < 2
        oracle.add_row(&insert[0]);
        let outcome = apply_insert_delta(&oracle, tau, &mut mups, &insert);
        assert_eq!(outcome, DeltaOutcome::default());
        assert!(mups.iter().any(|m| m.to_string() == "1X"));
    }
}
