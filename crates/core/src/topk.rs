//! Minimal top-K explanations (Section 4.3).
//!
//! Blindly taking the K highest-degree rows of `M` returns redundant
//! answers: `[name=RR ∧ inst=MS]` is *dominated* by both `[name=RR]` and
//! `[inst=MS]` when its degree is no higher. An explanation φ is
//! **minimal** when no other explanation φ' has `μ(φ) ≤ μ(φ')` while φ'
//! constrains a strict subset of φ's `(attribute, value)` pairs.
//!
//! Three strategies are implemented, matching the paper's evaluation
//! (Figure 14):
//!
//! * [`TopKStrategy::NoMinimal`] — plain top-K by degree (may be
//!   redundant; fastest);
//! * [`TopKStrategy::MinimalSelfJoin`] — one pass marking dominated rows
//!   via a self-join (quadratic in `|M|`);
//! * [`TopKStrategy::MinimalAppend`] — K iterated top-1 scans, each
//!   excluding specializations of the already-output explanations (the
//!   `(¬φ_1) ∧ … ∧ (¬φ_{i−1})` WHERE-clause trick).
//!
//! Footnote 12's alternative polarity — prefer *specific* explanations —
//! is available via [`MinimalityPolarity::PreferSpecific`].

use crate::explanation::Explanation;
use crate::table_m::{ExplanationRow, ExplanationTable};

/// Which degree column of `M` to rank by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeKind {
    /// Rank by `μ_interv`.
    Intervention,
    /// Rank by `μ_aggr`.
    Aggravation,
}

impl DegreeKind {
    fn of(self, row: &ExplanationRow) -> f64 {
        match self {
            DegreeKind::Intervention => row.mu_interv,
            DegreeKind::Aggravation => row.mu_aggr,
        }
    }
}

/// Top-K output strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopKStrategy {
    /// Sorted top-K, no minimality filter.
    NoMinimal,
    /// Filter dominated rows with a self-join, then top-K.
    MinimalSelfJoin,
    /// Iterated top-1 with accumulated negation filters.
    MinimalAppend,
}

/// Which end of the generalization order minimality prefers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinimalityPolarity {
    /// Prefer general explanations (fewer conditions, higher support) —
    /// the paper's default.
    #[default]
    PreferGeneral,
    /// Prefer specific explanations (more conditions, lower support) —
    /// footnote 12's alternative.
    PreferSpecific,
}

/// One ranked explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked {
    /// 1-based rank.
    pub rank: usize,
    /// Index of the row in the source table.
    pub row: usize,
    /// The explanation.
    pub explanation: Explanation,
    /// The ranking degree.
    pub degree: f64,
}

/// Compute the top-K explanations of `table`.
pub fn top_k(
    table: &ExplanationTable,
    kind: DegreeKind,
    k: usize,
    strategy: TopKStrategy,
    polarity: MinimalityPolarity,
) -> Vec<Ranked> {
    let picked: Vec<usize> = match strategy {
        TopKStrategy::NoMinimal => table
            .sorted_indices(|r| kind.of(r))
            .into_iter()
            .take(k)
            .collect(),
        TopKStrategy::MinimalSelfJoin => {
            let order = table.sorted_indices(|r| kind.of(r));
            let arity: Vec<usize> = table.rows.iter().map(ExplanationRow::arity).collect();
            order
                .into_iter()
                .filter(|&i| !is_dominated(table, &arity, kind, polarity, i))
                .take(k)
                .collect()
        }
        TopKStrategy::MinimalAppend => minimal_append(table, kind, polarity, k),
    };
    picked
        .into_iter()
        .enumerate()
        .map(|(i, row)| Ranked {
            rank: i + 1,
            row,
            explanation: table.explanation(&table.rows[row]),
            degree: kind.of(&table.rows[row]),
        })
        .collect()
}

/// Kendall rank correlation (tau-a) between two degree columns of `M` —
/// how much do two notions of explanation agree on the ranking? `1.0` =
/// identical order, `-1.0` = reversed, `0.0` = unrelated. The paper
/// observes qualitatively that intervention and aggravation surface
/// different explanation shapes (Figures 10 vs 11); this quantifies it.
pub fn rank_correlation(table: &ExplanationTable, a: DegreeKind, b: DegreeKind) -> f64 {
    let n = table.rows.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let da = a.of(&table.rows[i]) - a.of(&table.rows[j]);
            let db = b.of(&table.rows[i]) - b.of(&table.rows[j]);
            let product = da * db;
            if product > 0.0 {
                concordant += 1;
            } else if product < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

/// Self-join dominance test: is row `i` dominated by any other row?
/// `arity[j]` is row `j`'s arity.
fn is_dominated(
    table: &ExplanationTable,
    arity: &[usize],
    kind: DegreeKind,
    polarity: MinimalityPolarity,
    i: usize,
) -> bool {
    let phi = &table.rows[i];
    let mu = kind.of(phi);
    table.rows.iter().enumerate().any(|(j, other)| {
        if i == j {
            return false;
        }
        let simpler = match polarity {
            // φ' strictly generalizes φ: φ' pairs ⊊ φ pairs.
            MinimalityPolarity::PreferGeneral => {
                arity[j] < arity[i] && other.coord_generalizes(phi)
            }
            // φ' strictly specializes φ.
            MinimalityPolarity::PreferSpecific => {
                arity[j] > arity[i] && phi.coord_generalizes(other)
            }
        };
        simpler && mu <= kind.of(other)
    })
}

/// Iterated top-1 with accumulated exclusion predicates.
fn minimal_append(
    table: &ExplanationTable,
    kind: DegreeKind,
    polarity: MinimalityPolarity,
    k: usize,
) -> Vec<usize> {
    // Pre-sorted order realizes the paper's dummy-value tie-break: among
    // equal degrees the shorter explanation (more nulls) sorts first. For
    // PreferSpecific the tie-break flips to longer-first.
    let mut order = table.sorted_indices(|r| kind.of(r));
    if polarity == MinimalityPolarity::PreferSpecific {
        order.sort_by(|&a, &b| {
            let (ra, rb) = (&table.rows[a], &table.rows[b]);
            kind.of(rb)
                .total_cmp(&kind.of(ra))
                .then_with(|| rb.arity().cmp(&ra.arity()))
                .then_with(|| ra.coord.cmp(&rb.coord))
        });
    }
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    for _ in 0..k {
        let next = order.iter().copied().find(|&i| {
            !picked.iter().any(|&p| {
                let prev = &table.rows[p];
                let row = &table.rows[i];
                match polarity {
                    // Row i "satisfies φ_prev": it specializes (or equals)
                    // a previously output explanation → excluded by the
                    // ¬φ_prev clause.
                    MinimalityPolarity::PreferGeneral => prev.coord_generalizes(row),
                    MinimalityPolarity::PreferSpecific => row.coord_generalizes(prev),
                }
            })
        });
        match next {
            Some(i) => picked.push(i),
            None => break,
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::Value;

    fn row(coord: Vec<Value>, mu: f64) -> ExplanationRow {
        ExplanationRow {
            coord: coord.into_boxed_slice(),
            values: vec![],
            mu_interv: mu,
            mu_aggr: -mu,
        }
    }

    /// The Section 4.3 motivating scenario: [name=RR] and [inst=MS] both
    /// have the same degree as their conjunction, which is redundant.
    fn redundant_table() -> ExplanationTable {
        use exq_relstore::AttrRef;
        ExplanationTable {
            dims: vec![AttrRef { rel: 0, col: 0 }, AttrRef { rel: 0, col: 1 }],
            totals: vec![],
            rows: vec![
                row(vec![Value::str("RR"), Value::Null], 10.0), // 0: φ1
                row(vec![Value::Null, Value::str("MS")], 10.0), // 1: φ2
                row(vec![Value::str("RR"), Value::str("MS")], 10.0), // 2: φ3 redundant
                row(vec![Value::str("JG"), Value::Null], 7.0),  // 3
                row(vec![Value::str("JG"), Value::str("IBM")], 8.0), // 4: better than its generalization
            ],
        }
    }

    #[test]
    fn no_minimal_keeps_redundant_rows() {
        let t = redundant_table();
        let out = top_k(
            &t,
            DegreeKind::Intervention,
            3,
            TopKStrategy::NoMinimal,
            MinimalityPolarity::PreferGeneral,
        );
        assert_eq!(out.len(), 3);
        // The redundant conjunction appears (ranks 1-3 are the three 10.0
        // rows, shorter ones first).
        assert_eq!(out[2].row, 2);
        assert_eq!(out[0].degree, 10.0);
    }

    #[test]
    fn self_join_filters_dominated() {
        let t = redundant_table();
        let out = top_k(
            &t,
            DegreeKind::Intervention,
            5,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        );
        let rows: Vec<usize> = out.iter().map(|r| r.row).collect();
        assert!(!rows.contains(&2), "φ3 is dominated by φ1 and φ2");
        assert!(rows.contains(&0) && rows.contains(&1));
        // Row 4 strictly beats its generalization (8 > 7) → minimal.
        assert!(rows.contains(&4));
        assert!(
            rows.contains(&3),
            "row 3 is not dominated: 7 > nothing above it generalizes"
        );
    }

    #[test]
    fn append_matches_self_join_on_distinct_degrees() {
        let t = redundant_table();
        for k in 1..=5 {
            let a = top_k(
                &t,
                DegreeKind::Intervention,
                k,
                TopKStrategy::MinimalSelfJoin,
                MinimalityPolarity::PreferGeneral,
            );
            let b = top_k(
                &t,
                DegreeKind::Intervention,
                k,
                TopKStrategy::MinimalAppend,
                MinimalityPolarity::PreferGeneral,
            );
            let ra: Vec<usize> = a.iter().map(|r| r.row).collect();
            let rb: Vec<usize> = b.iter().map(|r| r.row).collect();
            assert_eq!(ra, rb, "k={k}");
        }
    }

    #[test]
    fn aggravation_degree_ranks_by_other_column() {
        let t = redundant_table();
        let out = top_k(
            &t,
            DegreeKind::Aggravation,
            1,
            TopKStrategy::NoMinimal,
            MinimalityPolarity::PreferGeneral,
        );
        // mu_aggr = -mu_interv, so the 7.0 row (μ_aggr = -7) is best.
        assert_eq!(out[0].row, 3);
    }

    #[test]
    fn prefer_specific_flips_dominance() {
        let t = redundant_table();
        let out = top_k(
            &t,
            DegreeKind::Intervention,
            5,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferSpecific,
        );
        let rows: Vec<usize> = out.iter().map(|r| r.row).collect();
        // Now the *general* rows 0 and 1 are dominated by their equal-degree
        // specialization 2.
        assert!(rows.contains(&2));
        assert!(!rows.contains(&0) && !rows.contains(&1));
        // Row 3 (JG) is dominated by row 4 (JG∧IBM, higher degree).
        assert!(!rows.contains(&3));
        assert!(rows.contains(&4));
    }

    #[test]
    fn append_prefer_specific() {
        let t = redundant_table();
        let out = top_k(
            &t,
            DegreeKind::Intervention,
            5,
            TopKStrategy::MinimalAppend,
            MinimalityPolarity::PreferSpecific,
        );
        let rows: Vec<usize> = out.iter().map(|r| r.row).collect();
        assert_eq!(rows[0], 2, "longest of the 10.0 ties first");
        assert!(!rows.contains(&0) && !rows.contains(&1));
    }

    #[test]
    fn k_larger_than_table() {
        let t = redundant_table();
        for strategy in [
            TopKStrategy::NoMinimal,
            TopKStrategy::MinimalSelfJoin,
            TopKStrategy::MinimalAppend,
        ] {
            let out = top_k(
                &t,
                DegreeKind::Intervention,
                100,
                strategy,
                MinimalityPolarity::PreferGeneral,
            );
            assert!(out.len() <= 5);
            assert!(!out.is_empty());
            // Ranks are 1-based and contiguous.
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.rank, i + 1);
            }
        }
    }

    #[test]
    fn rank_correlation_extremes() {
        // mu_aggr = -mu_interv in the fixture → exactly reversed up to
        // ties (tau-a leaves tied pairs out of the numerator, so the
        // self-correlation of a table with ties is < 1 by the same
        // amount).
        let t = redundant_table();
        let reversed = rank_correlation(&t, DegreeKind::Intervention, DegreeKind::Aggravation);
        let same = rank_correlation(&t, DegreeKind::Intervention, DegreeKind::Intervention);
        assert_eq!(reversed, -same);
        assert!(same > 0.5 && reversed < -0.5);

        // Tiny/singleton tables are trivially correlated.
        let one = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![row(vec![Value::Int(1)], 1.0)],
        };
        assert_eq!(
            rank_correlation(&one, DegreeKind::Intervention, DegreeKind::Aggravation),
            1.0
        );
    }

    #[test]
    fn rank_correlation_partial_agreement() {
        let t = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![
                ExplanationRow {
                    coord: vec![Value::Int(0)].into_boxed_slice(),
                    values: vec![],
                    mu_interv: 1.0,
                    mu_aggr: 1.0,
                },
                ExplanationRow {
                    coord: vec![Value::Int(1)].into_boxed_slice(),
                    values: vec![],
                    mu_interv: 2.0,
                    mu_aggr: 3.0,
                },
                ExplanationRow {
                    coord: vec![Value::Int(2)].into_boxed_slice(),
                    values: vec![],
                    mu_interv: 3.0,
                    mu_aggr: 2.0,
                },
            ],
        };
        // Pairs: (0,1) concordant, (0,2) concordant, (1,2) discordant:
        // tau = (2 - 1) / 3.
        let tau = rank_correlation(&t, DegreeKind::Intervention, DegreeKind::Aggravation);
        assert!((tau - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_table_yields_empty_ranking() {
        let t = ExplanationTable {
            dims: vec![],
            totals: vec![],
            rows: vec![],
        };
        for strategy in [
            TopKStrategy::NoMinimal,
            TopKStrategy::MinimalSelfJoin,
            TopKStrategy::MinimalAppend,
        ] {
            assert!(top_k(
                &t,
                DegreeKind::Intervention,
                3,
                strategy,
                MinimalityPolarity::PreferGeneral
            )
            .is_empty());
        }
    }
}
