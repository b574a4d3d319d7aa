//! The pattern graph (Definition 8): combinatorics and, for small spaces,
//! explicit materialization.
//!
//! The algorithms never materialize the graph — they traverse it implicitly
//! via Rule 1 / Rule 2 — but the statistics here size search spaces up front
//! (guarding the naïve algorithms) and the materialized form backs tests and
//! teaching examples.

use std::collections::{HashMap, HashSet};

use crate::error::{CoverageError, Result};
use crate::pattern::Pattern;

/// Per-walk memo over a coverage predicate: each distinct pattern is probed
/// at most once per walk, however many of its children ask about it.
struct Probes<F> {
    is_covered: F,
    known: HashMap<Pattern, bool>,
}

impl<F: FnMut(&Pattern) -> bool> Probes<F> {
    fn new(is_covered: F) -> Self {
        Self {
            is_covered,
            known: HashMap::new(),
        }
    }

    fn covered(&mut self, p: &Pattern) -> bool {
        if let Some(&c) = self.known.get(p) {
            return c;
        }
        let c = (self.is_covered)(p);
        self.known.insert(p.clone(), c);
        c
    }
}

/// Neighborhood walk for incremental (delta) MUP maintenance: given a
/// pattern `root` that has just *become covered* — an ex-MUP after new
/// tuples arrived — returns the maximal uncovered patterns strictly below
/// it, i.e. exactly the new MUPs that replace `root` in the frontier.
///
/// The walk expands the children of covered nodes and emits every uncovered
/// node whose parents are all covered. Because coverage is monotone along
/// dominance (a parent covers at least as much as any child), every maximal
/// uncovered descendant of `root` is reachable through covered nodes only,
/// so the region visited is bounded by the covered slab between `root` and
/// the new frontier — not the whole subgraph.
///
/// `is_covered` is called at most once per distinct pattern (visited nodes
/// and their parents; a walk-local memo absorbs repeats), so callers can
/// back it with the oracle's early-exit probe directly. `root` itself is
/// assumed covered and is never probed.
pub fn maximal_uncovered_below(
    root: &Pattern,
    cardinalities: &[u8],
    is_covered: impl FnMut(&Pattern) -> bool,
) -> Vec<Pattern> {
    let mut probes = Probes::new(is_covered);
    let mut out = Vec::new();
    let mut seen: HashSet<Pattern> = HashSet::new();
    let mut stack: Vec<Pattern> = Vec::new();
    for child in root.children(cardinalities) {
        if seen.insert(child.clone()) {
            stack.push(child);
        }
    }
    while let Some(p) = stack.pop() {
        if probes.covered(&p) {
            for child in p.children(cardinalities) {
                if seen.insert(child.clone()) {
                    stack.push(child);
                }
            }
        } else if p.parents().all(|parent| probes.covered(&parent)) {
            // Uncovered with every parent covered: a MUP by Definition 5.
            // (Uncovered nodes with an uncovered parent are dropped — they
            // lie below some other maximal uncovered pattern.)
            out.push(p);
        }
    }
    out
}

/// Neighborhood walk for incremental *delete* maintenance: given a tuple
/// `t` that has just been removed from the dataset, returns every maximal
/// uncovered pattern that *matches* `t` — exactly the candidate MUPs a
/// deletion can mint, plus any existing MUPs matching `t` (callers diff
/// against their current frontier).
///
/// Deletes only decrease coverage, and only for patterns matching the
/// deleted tuple, so every brand-new MUP lies in the sublattice of patterns
/// whose deterministic elements agree with `t` (size `2^d`, one node per
/// attribute subset). Parents of a sublattice node are sublattice nodes
/// (a parent drops a deterministic element), so Definition 5's
/// all-parents-covered condition is decidable without leaving the
/// sublattice.
///
/// The walk is bottom-up, in the spirit of PATTERN-COMBINER: it starts at
/// the fully determined pattern `t̂` — the sublattice's minimum-coverage
/// node — and climbs through uncovered parents only, emitting every
/// uncovered node whose parents are all covered. The uncovered part of the
/// sublattice is down-closed (every descendant of an uncovered node is
/// uncovered), so each uncovered node is reachable from `t̂` through
/// uncovered nodes, and when `t̂` itself is covered nothing is uncovered and
/// the walk returns after one probe.
///
/// `is_covered` is called at most once per distinct pattern (walk-local
/// memo), and only on uncovered sublattice nodes and their parents: the
/// probe count is bounded by the uncovered region plus its covered rim —
/// small after a delete on dense data, where a top-down walk would have to
/// cross the whole covered slab above the frontier instead.
pub fn maximal_uncovered_within(
    tuple: &[u8],
    is_covered: impl FnMut(&Pattern) -> bool,
) -> Vec<Pattern> {
    let mut probes = Probes::new(is_covered);
    let bottom = Pattern::from_codes(tuple);
    if probes.covered(&bottom) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut seen: HashSet<Pattern> = HashSet::new();
    let mut stack = vec![bottom];
    while let Some(p) = stack.pop() {
        let mut maximal = true;
        for parent in p.parents() {
            if !probes.covered(&parent) {
                maximal = false;
                if seen.insert(parent.clone()) {
                    stack.push(parent);
                }
            }
        }
        if maximal {
            out.push(p);
        }
    }
    out
}

/// Structural statistics of the pattern graph over the given cardinalities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternGraphStats {
    /// Attribute cardinalities.
    pub cardinalities: Vec<u8>,
    /// Number of nodes per level (`levels[l]` = # patterns with `l`
    /// deterministic elements).
    pub nodes_per_level: Vec<u128>,
    /// Total node count, `Π (c_i + 1)`.
    pub total_nodes: u128,
    /// Total edge count.
    pub total_edges: u128,
}

/// Computes node and edge counts of the pattern graph without materializing
/// it. Saturates at `u128::MAX` on overflow.
pub fn pattern_graph_stats(cardinalities: &[u8]) -> PatternGraphStats {
    let d = cardinalities.len();
    // nodes_per_level[l] = Σ over l-subsets S of attributes of Π_{i∈S} c_i —
    // computed by the elementary-symmetric-polynomial recurrence.
    let mut esp = vec![0u128; d + 1];
    esp[0] = 1;
    for &c in cardinalities {
        for l in (1..=d).rev() {
            esp[l] = esp[l].saturating_add(esp[l - 1].saturating_mul(c as u128));
        }
    }
    let total_nodes = esp.iter().fold(0u128, |a, &b| a.saturating_add(b));
    // Each node at level l has one edge to each deterministic element's
    // parent... equivalently: total edges = Σ over nodes of (# children) =
    // Σ_l nodes(l) * Σ_{X positions} c_i. Closed form per attribute: an edge
    // corresponds to choosing an attribute i, a value for i, and a pattern
    // over the remaining attributes: c_i * Π_{j≠i}(c_j + 1).
    let mut total_edges = 0u128;
    for i in 0..d {
        let mut others = 1u128;
        for (j, &c) in cardinalities.iter().enumerate() {
            if j != i {
                others = others.saturating_mul(c as u128 + 1);
            }
        }
        total_edges = total_edges.saturating_add(others.saturating_mul(cardinalities[i] as u128));
    }
    PatternGraphStats {
        cardinalities: cardinalities.to_vec(),
        nodes_per_level: esp,
        total_nodes,
        total_edges,
    }
}

/// A fully materialized pattern graph — only for small attribute spaces.
#[derive(Debug, Clone)]
pub struct PatternGraph {
    nodes: Vec<Pattern>,
    index: HashMap<Pattern, usize>,
    /// `children[i]` = indices of the children of node `i`.
    children: Vec<Vec<usize>>,
    cardinalities: Vec<u8>,
}

/// Hard cap on materialized graph size.
const MATERIALIZE_LIMIT: u128 = 2_000_000;

impl PatternGraph {
    /// Materializes the pattern graph for the given cardinalities.
    ///
    /// # Errors
    ///
    /// Refuses spaces with more than two million nodes.
    pub fn materialize(cardinalities: &[u8]) -> Result<Self> {
        let stats = pattern_graph_stats(cardinalities);
        if stats.total_nodes > MATERIALIZE_LIMIT {
            return Err(CoverageError::SearchSpaceTooLarge {
                algorithm: "PatternGraph::materialize",
                size: stats.total_nodes,
                limit: MATERIALIZE_LIMIT,
            });
        }
        let mut nodes = Vec::with_capacity(stats.total_nodes as usize);
        let mut index = HashMap::new();
        let root = Pattern::all_x(cardinalities.len());
        nodes.push(root.clone());
        index.insert(root, 0usize);
        // Generate all nodes via Rule 1 (each exactly once).
        let mut cursor = 0;
        while cursor < nodes.len() {
            let p = nodes[cursor].clone();
            for child in p.rule1_children(cardinalities) {
                index.insert(child.clone(), nodes.len());
                nodes.push(child);
            }
            cursor += 1;
        }
        // Edges: connect every node to all of its children (not just Rule-1
        // ones) — Definition 8's full parent/child edge set.
        let mut children = vec![Vec::new(); nodes.len()];
        for (i, p) in nodes.iter().enumerate() {
            for child in p.children(cardinalities) {
                children[i].push(index[&child]);
            }
        }
        Ok(Self {
            nodes,
            index,
            children,
            cardinalities: cardinalities.to_vec(),
        })
    }

    /// All nodes, in Rule-1 generation order (root first).
    pub fn nodes(&self) -> &[Pattern] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (parent→child) edges.
    pub fn edge_count(&self) -> usize {
        self.children.iter().map(Vec::len).sum()
    }

    /// Index of a pattern, if present.
    pub fn index_of(&self, p: &Pattern) -> Option<usize> {
        self.index.get(p).copied()
    }

    /// Children indices of node `i`.
    pub fn children_of(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Attribute cardinalities.
    pub fn cardinalities(&self) -> &[u8] {
        &self.cardinalities
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::X;

    #[test]
    fn figure2_counts() {
        // Fig 2: three binary attributes → 27 nodes, 54 edges.
        let stats = pattern_graph_stats(&[2, 2, 2]);
        assert_eq!(stats.total_nodes, 27);
        assert_eq!(stats.total_edges, 54);
        // Levels: 1 root, C(3,1)·2 = 6 at level 1, C(3,2)·4 = 12 at level 2,
        // 8 leaves.
        assert_eq!(stats.nodes_per_level, vec![1, 6, 12, 8]);
    }

    #[test]
    fn edge_closed_form_matches_paper() {
        // Paper: equal cardinalities c ⇒ edges = c · d · (c+1)^(d-1).
        for (c, d) in [(2u8, 4usize), (3, 3), (5, 2)] {
            let cards = vec![c; d];
            let stats = pattern_graph_stats(&cards);
            let expected = (c as u128) * (d as u128) * ((c as u128 + 1).pow(d as u32 - 1));
            assert_eq!(stats.total_edges, expected, "c={c} d={d}");
        }
    }

    #[test]
    fn bluenile_bottom_level_width() {
        // §V-C1: level 7 of the BlueNile graph has > 100K nodes (100,800),
        // versus 128 for seven binary attributes.
        let stats = pattern_graph_stats(&[10, 4, 7, 8, 3, 3, 5]);
        assert_eq!(*stats.nodes_per_level.last().unwrap(), 100_800);
        let binary = pattern_graph_stats(&[2; 7]);
        assert_eq!(*binary.nodes_per_level.last().unwrap(), 128);
    }

    #[test]
    fn materialized_graph_matches_stats() {
        let stats = pattern_graph_stats(&[2, 3, 2]);
        let graph = PatternGraph::materialize(&[2, 3, 2]).unwrap();
        assert_eq!(graph.node_count() as u128, stats.total_nodes);
        assert_eq!(graph.edge_count() as u128, stats.total_edges);
        // Every child edge goes one level down.
        for (i, p) in graph.nodes().iter().enumerate() {
            for &c in graph.children_of(i) {
                assert_eq!(graph.nodes()[c].level(), p.level() + 1);
            }
        }
    }

    #[test]
    fn materialize_refuses_huge_spaces() {
        assert!(matches!(
            PatternGraph::materialize(&[9; 10]),
            Err(CoverageError::SearchSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn maximal_uncovered_below_finds_replacement_mups() {
        // Example 1 with tuple (1,0,1) inserted: the old MUP 1XX becomes
        // covered (τ=1) and the walk below it must find the new frontier
        // {11X, 1X0, 10X∖{101}…} — computed here against a brute-force
        // coverage predicate over the extended dataset.
        let rows: Vec<[u8; 3]> = vec![
            [0, 1, 0],
            [0, 0, 1],
            [0, 0, 0],
            [0, 1, 1],
            [0, 0, 1],
            [1, 0, 1], // the insert
        ];
        let covered = |p: &Pattern| rows.iter().any(|r| p.matches(r));
        let root = Pattern::parse("1XX").unwrap();
        let mut got: Vec<String> = maximal_uncovered_below(&root, &[2, 2, 2], covered)
            .iter()
            .map(|p| p.to_string())
            .collect();
        got.sort();
        assert_eq!(got, vec!["11X", "1X0"]);
    }

    #[test]
    fn walk_agrees_with_exhaustive_enumeration() {
        // Random coverage assignments (downward-closed in the uncovered
        // direction): the walk from the root equals the brute-force maximal
        // uncovered set.
        use rand::{Rng, SeedableRng};
        let cards = [2u8, 3, 2];
        for seed in 0..20u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            // Sample a random "dataset" of 0..6 tuples; coverage = matching.
            let n = rng.random_range(0..6usize);
            let tuples: Vec<Vec<u8>> = (0..n)
                .map(|_| cards.iter().map(|&c| rng.random_range(0..c)).collect())
                .collect();
            let covered = |p: &Pattern| tuples.iter().any(|t| p.matches(t));
            let root = Pattern::all_x(3);
            if !covered(&root) {
                continue; // walk contract requires a covered root
            }
            let mut got = maximal_uncovered_below(&root, &cards, covered);
            got.sort();
            let graph = PatternGraph::materialize(&cards).unwrap();
            let mut expected: Vec<Pattern> = graph
                .nodes()
                .iter()
                .filter(|p| !covered(p) && p.parents().all(|q| covered(&q)))
                .cloned()
                .collect();
            expected.sort();
            assert_eq!(got, expected, "seed {seed} tuples {tuples:?}");
        }
    }

    #[test]
    fn maximal_uncovered_within_finds_post_delete_frontier() {
        // Example 1 plus (1,0,1), then (1,0,1) deleted again: every pattern
        // matching the deleted tuple reverts to its Example-1 coverage, and
        // the walk within the (1,0,1) sublattice must surface 1XX (τ=1).
        let rows: Vec<[u8; 3]> = vec![[0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 1, 1], [0, 0, 1]];
        let covered = |p: &Pattern| rows.iter().any(|r| p.matches(r));
        let got: Vec<String> = maximal_uncovered_within(&[1, 0, 1], covered)
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(got, vec!["1XX"]);
    }

    #[test]
    fn within_walk_agrees_with_exhaustive_enumeration() {
        // Random datasets: for every possible deleted tuple the walk must
        // equal the brute-force maximal uncovered patterns restricted to the
        // tuple's sublattice.
        use rand::{Rng, SeedableRng};
        let cards = [2u8, 3, 2];
        let graph = PatternGraph::materialize(&cards).unwrap();
        for seed in 0..20u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.random_range(0..6usize);
            let tuples: Vec<Vec<u8>> = (0..n)
                .map(|_| cards.iter().map(|&c| rng.random_range(0..c)).collect())
                .collect();
            let covered = |p: &Pattern| tuples.iter().any(|t| p.matches(t));
            let deleted: Vec<u8> = cards.iter().map(|&c| rng.random_range(0..c)).collect();
            let mut got = maximal_uncovered_within(&deleted, covered);
            got.sort();
            let mut expected: Vec<Pattern> = graph
                .nodes()
                .iter()
                .filter(|p| p.matches(&deleted) && !covered(p) && p.parents().all(|q| covered(&q)))
                .cloned()
                .collect();
            expected.sort();
            assert_eq!(got, expected, "seed {seed} deleted {deleted:?}");
        }
    }

    #[test]
    fn within_walk_over_empty_dataset_is_the_root() {
        let got = maximal_uncovered_within(&[1, 0], |_| false);
        assert_eq!(got, vec![Pattern::all_x(2)]);
    }

    #[test]
    fn within_walk_over_fully_covered_sublattice_is_empty() {
        assert!(maximal_uncovered_within(&[0, 0, 0], |_| true).is_empty());
    }

    /// One delete scenario: cardinalities, the rows left after the delete,
    /// τ, and the deleted tuple. Raw draws are folded into range per
    /// attribute, so one strategy serves every arity.
    type Scenario = (Vec<u8>, Vec<Vec<u8>>, u64, Vec<u8>);

    fn scenario(
        rows: std::ops::RangeInclusive<usize>,
        tau: std::ops::RangeInclusive<u64>,
    ) -> impl proptest::strategy::Strategy<Value = Scenario> {
        use proptest::collection::vec;
        use proptest::strategy::Strategy;
        (
            vec(2u8..=3, 2..=6),
            vec(vec(0u8..=255, 6usize), rows),
            tau,
            vec(0u8..=255, 6usize),
        )
            .prop_map(|(cards, rows, tau, deleted)| {
                let fit = |raw: &[u8]| -> Vec<u8> {
                    cards.iter().zip(raw).map(|(&c, &v)| v % c).collect()
                };
                let rows = rows.iter().map(|r| fit(r)).collect();
                let deleted = fit(&deleted);
                (cards, rows, tau, deleted)
            })
    }

    /// Runs the walk on a scenario, compares it with brute-force enumeration
    /// of all `2^d` sublattice nodes, checks the walk's probe contract (each
    /// distinct pattern at most once, sublattice only), and returns the
    /// walk's (sorted) answer.
    fn check_within_walk(
        (_, rows, tau, deleted): Scenario,
    ) -> std::result::Result<Vec<Pattern>, proptest::test_runner::TestCaseError> {
        use proptest::prop_assert;
        use proptest::prop_assert_eq;
        let covered = |p: &Pattern| rows.iter().filter(|r| p.matches(r)).count() as u64 >= tau;
        let mut probed: Vec<Pattern> = Vec::new();
        let mut got = maximal_uncovered_within(&deleted, |p| {
            probed.push(p.clone());
            covered(p)
        });
        got.sort();
        let d = deleted.len();
        let mut expected: Vec<Pattern> = (0..1u32 << d)
            .map(|mask| {
                Pattern::from_codes(
                    (0..d)
                        .map(|i| if mask >> i & 1 == 1 { deleted[i] } else { X })
                        .collect::<Vec<u8>>(),
                )
            })
            .filter(|p| !covered(p) && p.parents().all(|q| covered(&q)))
            .collect();
        expected.sort();
        prop_assert_eq!(&got, &expected, "rows {rows:?} τ {tau} deleted {deleted:?}");
        let probes = probed.len();
        prop_assert!(probes <= 1 << d, "{probes} probes over 2^{d} nodes");
        prop_assert!(probed.iter().all(|p| p.matches(&deleted)));
        probed.sort();
        probed.dedup();
        prop_assert_eq!(probed.len(), probes, "a pattern was probed twice");
        if covered(&Pattern::from_codes(deleted.clone())) {
            prop_assert_eq!(probes, 1, "covered t̂ must end the walk at once");
        }
        Ok(got)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Dense data at low τ: most of the sublattice is covered, the
        /// uncovered region (if any) hugs `t̂`.
        #[test]
        fn within_walk_matches_brute_force_on_dense_data(case in scenario(40..=120, 1..=2)) {
            check_within_walk(case)?;
        }

        /// τ above the row count: the root is uncovered and is the only MUP.
        #[test]
        fn within_walk_matches_brute_force_with_root_uncovered(case in scenario(0..=10, 11..=20)) {
            let d = case.3.len();
            let got = check_within_walk(case)?;
            proptest::prop_assert_eq!(got, vec![Pattern::all_x(d)]);
        }

        /// Few rows at moderate τ: most of the sublattice is uncovered and
        /// the walk climbs to the top levels.
        #[test]
        fn within_walk_matches_brute_force_when_mostly_uncovered(case in scenario(1..=8, 1..=3)) {
            check_within_walk(case)?;
        }
    }

    #[test]
    fn walk_below_fully_covered_root_is_empty() {
        let covered = |_: &Pattern| true;
        let root = Pattern::all_x(3);
        assert!(maximal_uncovered_below(&root, &[2, 2, 2], covered).is_empty());
    }

    #[test]
    fn apriori_lattice_comparison() {
        // §V-C: 10 attributes of cardinality 5 → pattern graph 6^10 ≈ 60M
        // nodes, apriori lattice 2^50 ≈ 10^15.
        let stats = pattern_graph_stats(&[5; 10]);
        assert_eq!(stats.total_nodes, 6u128.pow(10));
        let lattice = 2u128.pow(50);
        assert!(lattice > stats.total_nodes * 10_000);
    }
}
