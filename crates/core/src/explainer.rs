//! High-level façade: ask a question, get ranked explanations.
//!
//! [`Explainer`] wires the whole pipeline together — universal relation,
//! additivity check, Algorithm 1 or the exact naive fallback, support
//! pruning, minimal top-K — behind a builder API. It is the entry point a
//! downstream application uses; the lower-level modules stay available
//! for research-grade control.
//!
//! ```
//! use exq_core::explainer::Explainer;
//! use exq_core::prelude::*;
//! use exq_relstore::{Database, Predicate, SchemaBuilder, ValueType};
//!
//! let schema = SchemaBuilder::new()
//!     .relation("R", &[("id", ValueType::Int), ("g", ValueType::Str), ("ok", ValueType::Str)], &["id"])
//!     .build()?;
//! let mut db = Database::new(schema);
//! for (i, (g, ok)) in [("a", "y"), ("a", "y"), ("a", "n"), ("b", "n")].iter().enumerate() {
//!     db.insert("R", vec![(i as i64).into(), (*g).into(), (*ok).into()])?;
//! }
//! let ok = db.schema().attr("R", "ok")?;
//! let question = UserQuestion::new(
//!     NumericalQuery::ratio(
//!         AggregateQuery::count_star(Predicate::eq(ok, "y")),
//!         AggregateQuery::count_star(Predicate::eq(ok, "n")),
//!     ).with_smoothing(1e-4),
//!     Direction::High,
//! );
//! let explainer = Explainer::new(&db, question).attr_names(&["R.g"])?;
//! let top = explainer.top(DegreeKind::Intervention, 3)?;
//! assert_eq!(top[0].explanation.display(&db).to_string(), "[R.g = a]");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cube_algo::{self, CubeAlgoConfig};
use crate::degree;
use crate::error::Result;
use crate::explanation::Explanation;
use crate::hybrid;
use crate::intervention::{Intervention, InterventionEngine};
use crate::naive;
use crate::question::UserQuestion;
use crate::table_m::ExplanationTable;
use crate::topk::{self, DegreeKind, MinimalityPolarity, Ranked, TopKStrategy};
use exq_relstore::aggregate::Folded;
use exq_relstore::{AttrRef, Database, ExecConfig, Universal};
use std::cell::OnceCell;
use std::sync::Arc;

/// Which engine produced an explanation table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Algorithm 1 (the query passed the additivity check, or was forced).
    Cube,
    /// Exact per-candidate evaluation (query not intervention-additive).
    Naive,
}

/// Full degree report for one explanation (the drill-down view).
#[derive(Debug, Clone)]
pub struct DegreeReport {
    /// Exact `μ_interv` (Definition 2.7).
    pub mu_interv: f64,
    /// `μ_aggr` (Definition 2.4).
    pub mu_aggr: f64,
    /// The hybrid degree (Section 6(iii)).
    pub mu_hybrid: f64,
    /// The computed intervention `Δ^φ`.
    pub intervention: Intervention,
}

/// The configured explanation pipeline.
#[derive(Debug)]
pub struct Explainer<'a> {
    db: &'a Database,
    question: UserQuestion,
    // Computed lazily so the executor choice (a builder call) is in
    // effect by the time the join runs. `Arc` so a pre-built universal
    // (e.g. from [`crate::prepared::PreparedDb`]) can be shared across
    // many explainers without copying tuple data.
    universal: OnceCell<Arc<Universal>>,
    dims: Vec<AttrRef>,
    cube_config: CubeAlgoConfig,
    min_support: Option<f64>,
    topk_strategy: TopKStrategy,
    polarity: MinimalityPolarity,
    force_naive: bool,
    exec: ExecConfig,
    // Line 1 of Algorithm 1, run once: Q(D) and the cube path both read
    // it. It depends only on the question, `U` and the engine, and the
    // engine can only turn from cube to naive, which needs no positions.
    line_1: OnceCell<Folded>,
    // Whether the query is intervention-additive over `U`: decided at
    // most once, and only when the engine is not forced naive.
    additive: OnceCell<bool>,
    // Materialized once per configuration; the builder methods consume
    // `self`, so a stale cache cannot be observed.
    table_cache: OnceCell<(ExplanationTable, EngineChoice)>,
}

impl<'a> Explainer<'a> {
    /// Create a pipeline for one user question. The universal relation is
    /// computed on first use and reused by every subsequent call.
    ///
    /// The library default executor is sequential; [`Explainer::threads`]
    /// or [`Explainer::exec`] sizes the naive engine's candidate sweep,
    /// the one parallel path, which is bit-identical to the sequential
    /// one.
    pub fn new(db: &'a Database, question: UserQuestion) -> Explainer<'a> {
        Explainer {
            db,
            question,
            universal: OnceCell::new(),
            dims: Vec::new(),
            cube_config: CubeAlgoConfig::checked(),
            min_support: None,
            topk_strategy: TopKStrategy::MinimalSelfJoin,
            polarity: MinimalityPolarity::PreferGeneral,
            force_naive: false,
            exec: ExecConfig::sequential(),
            line_1: OnceCell::new(),
            additive: OnceCell::new(),
            table_cache: OnceCell::new(),
        }
    }

    /// Run the naive engine's candidate sweep on `n` OS threads (clamped
    /// to at least one).
    pub fn threads(self, n: usize) -> Explainer<'a> {
        self.exec(ExecConfig::with_threads(n))
    }

    /// Run the pipeline on an explicit executor.
    pub fn exec(mut self, exec: ExecConfig) -> Explainer<'a> {
        self.exec = exec;
        self
    }

    /// Record pipeline counters and spans into `sink` (keeps the current
    /// thread count).
    pub fn metrics(mut self, sink: exq_obs::MetricsSink) -> Explainer<'a> {
        self.exec = self.exec.with_metrics(sink);
        self
    }

    /// Seed the pipeline with a pre-computed universal relation instead
    /// of joining from scratch on first use. The caller must have built
    /// `u` over (a semijoin-reduced view of) the same database — see
    /// [`crate::prepared::PreparedDb`], which guarantees it. Repeated
    /// questions on one database then share the expensive join.
    pub fn with_universal(self, u: Arc<Universal>) -> Explainer<'a> {
        // A fresh builder's cell is always empty; `set` only fails if the
        // caller already seeded one, in which case the first seed wins.
        let _ = self.universal.set(u);
        self
    }

    fn universal(&self) -> &Arc<Universal> {
        self.universal.get_or_init(|| {
            self.exec.metrics().time("explain.universal", || {
                Arc::new(Universal::compute_with(
                    self.db,
                    &self.db.full_view(),
                    &self.exec,
                ))
            })
        })
    }

    /// Set the explanation attributes `A'`.
    pub fn attrs(mut self, dims: impl IntoIterator<Item = AttrRef>) -> Explainer<'a> {
        self.dims = dims.into_iter().collect();
        self.table_cache = OnceCell::new();
        self
    }

    /// Set the explanation attributes by `"Relation.attribute"` paths.
    pub fn attr_names(mut self, names: &[&str]) -> Result<Explainer<'a>> {
        self.dims = names
            .iter()
            .map(|n| self.db.schema().attr_path(n))
            .collect::<exq_relstore::Result<_>>()?;
        self.table_cache = OnceCell::new();
        Ok(self)
    }

    /// Prune candidates whose support (max `v_j`) is below `threshold`
    /// (the Section 5.1.1 setting).
    pub fn min_support(mut self, threshold: f64) -> Explainer<'a> {
        self.min_support = Some(threshold);
        self.table_cache = OnceCell::new();
        self
    }

    /// Choose the top-K strategy (default: minimal self-join).
    pub fn topk_strategy(mut self, strategy: TopKStrategy) -> Explainer<'a> {
        self.topk_strategy = strategy;
        self
    }

    /// Choose the minimality polarity (default: prefer general).
    pub fn polarity(mut self, polarity: MinimalityPolarity) -> Explainer<'a> {
        self.polarity = polarity;
        self
    }

    /// Always use the exact naive engine, even for additive queries.
    pub fn force_naive(mut self) -> Explainer<'a> {
        self.force_naive = true;
        self.table_cache = OnceCell::new();
        self
    }

    /// The database.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// The user question.
    pub fn question(&self) -> &UserQuestion {
        &self.question
    }

    /// `Q(D)` — the question's value on the unmodified database, read as
    /// `E(u_1, …, u_m)` of the explainer's one line-1 fold over the
    /// (cached or seeded) universal relation, which the cube path reads
    /// too. Equal to `self.question().query.eval(db)` bit-for-bit,
    /// without the extra join when the universal is already built.
    pub fn q_d(&self) -> Result<f64> {
        Ok(self.question.query.combine(&self.line_1()?.values))
    }

    /// The engine [`Explainer::table`] runs: Algorithm 1 when the query
    /// is intervention-additive and not forced naive.
    fn engine(&self) -> EngineChoice {
        if self.force_naive {
            return EngineChoice::Naive;
        }
        let additive = *self.additive.get_or_init(|| {
            crate::additivity::query_is_additive(self.db, self.universal(), &self.question.query)
        });
        if additive {
            EngineChoice::Cube
        } else {
            EngineChoice::Naive
        }
    }

    /// Line 1 of Algorithm 1, run on first use: every `u_j = q_j(D)` and,
    /// for the cube engine, the tuples each `q_j` selects.
    fn line_1(&self) -> Result<&Folded> {
        if let Some(folded) = self.line_1.get() {
            return Ok(folded);
        }
        let u = self.universal();
        let folded = match self.engine() {
            EngineChoice::Cube => {
                cube_algo::line_1(self.db, u, &self.question, self.exec.metrics())?
            }
            EngineChoice::Naive => self.question.query.fold(self.db, u, false)?,
        };
        Ok(self.line_1.get_or_init(|| folded))
    }

    /// Materialize the explanation table `M`, choosing Algorithm 1 when
    /// the query is intervention-additive and the exact naive engine
    /// otherwise. Cached: repeated calls (e.g. `top` for several degrees)
    /// reuse the first materialization. Each call returns a copy; a
    /// caller that only reads `M` borrows it with
    /// [`Explainer::table_ref`].
    pub fn table(&self) -> Result<(ExplanationTable, EngineChoice)> {
        let (table, choice) = self.table_ref()?;
        Ok((table.clone(), choice))
    }

    /// [`Explainer::table`] without the copy: the cached table, borrowed.
    pub fn table_ref(&self) -> Result<(&ExplanationTable, EngineChoice)> {
        if let Some((table, choice)) = self.table_cache.get() {
            return Ok((table, *choice));
        }
        let computed = self.compute_table()?;
        let (table, choice) = self.table_cache.get_or_init(|| computed);
        Ok((table, *choice))
    }

    fn compute_table(&self) -> Result<(ExplanationTable, EngineChoice)> {
        let _span = self.exec.metrics().span("explain.table");
        let u = self.universal();
        let choice = self.engine();
        let mut table = if choice == EngineChoice::Cube {
            cube_algo::explanation_table_folded(
                self.db,
                u,
                &self.question,
                &self.dims,
                self.cube_config.clone().with_exec(self.exec.clone()),
                self.line_1()?,
            )?
        } else {
            // The naive table parallelizes across candidates, and each
            // candidate owns its fixpoint run. Fixpoint counters from
            // worker threads land in the shared registry (integer adds
            // commute — totals stay deterministic).
            let engine = self.intervention_engine();
            naive::explanation_table_naive_folded(
                &engine,
                &self.question,
                &self.dims,
                &self.exec,
                || Ok(self.line_1()?.values.clone()),
            )?
        };
        if let Some(threshold) = self.min_support {
            table.retain_min_support(threshold);
        }
        Ok((table, choice))
    }

    /// Top-K ranked explanations by the chosen degree.
    pub fn top(&self, kind: DegreeKind, k: usize) -> Result<Vec<Ranked>> {
        let (table, _) = self.table_ref()?;
        Ok(topk::top_k(
            table,
            kind,
            k,
            self.topk_strategy,
            self.polarity,
        ))
    }

    /// Program **P** over the explainer's `U`, recording into its sink.
    fn intervention_engine(&self) -> InterventionEngine<'a> {
        InterventionEngine::with_universal(self.db, Arc::clone(self.universal()))
            .with_metrics(self.exec.metrics().clone())
    }

    /// Rank *rich* candidates (ranges, disjunctions — Section 6(ii))
    /// exactly, alongside the cube-based equality pipeline, sorted by
    /// `μ_interv` descending (ties: by `μ_aggr`). Rich candidates never go
    /// through the cube: each is evaluated by program **P** directly, so
    /// this is linear in the candidate count.
    pub fn rich_top(
        &self,
        candidates: Vec<crate::rich::RichExplanation>,
        k: usize,
    ) -> Result<Vec<crate::rich::RankedRich>> {
        let engine = self.intervention_engine();
        let mut ranked = candidates
            .into_iter()
            .map(|explanation| {
                let d = degree::evaluate(&engine, &self.question, &explanation.to_predicate())?;
                Ok(crate::rich::RankedRich {
                    explanation,
                    mu_interv: d.mu_interv,
                    mu_aggr: d.mu_aggr,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        ranked.sort_by(|a, b| {
            b.mu_interv
                .total_cmp(&a.mu_interv)
                .then(b.mu_aggr.total_cmp(&a.mu_aggr))
        });
        ranked.truncate(k);
        Ok(ranked)
    }

    /// Convenience: rank every contiguous range of `attr` (up to
    /// `max_span` distinct values wide) as a rich explanation.
    pub fn top_ranges(
        &self,
        attr: AttrRef,
        max_span: usize,
        k: usize,
    ) -> Result<Vec<crate::rich::RankedRich>> {
        let candidates = crate::rich::range_candidates(self.db, self.universal(), attr, max_span);
        self.rich_top(candidates, k)
    }

    /// Exact drill-down for one explanation: all three degrees plus the
    /// intervention itself, from one run of program **P** and, for the
    /// hybrid degree, line 1's totals.
    pub fn explain(&self, phi: &Explanation) -> Result<DegreeReport> {
        let engine = self.intervention_engine();
        let d = degree::evaluate(&engine, &self.question, &phi.conjunction().to_predicate())?;
        Ok(DegreeReport {
            mu_interv: d.mu_interv,
            mu_aggr: d.mu_aggr,
            mu_hybrid: hybrid::mu_hybrid(&self.question, &self.line_1()?.values, &d.values),
            intervention: d.intervention,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use exq_relstore::aggregate::AggFunc;
    use exq_relstore::{Atom, Predicate, SchemaBuilder, ValueType as T};

    fn flat_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("ok", T::Str)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, ok)) in [
            ("a", "y"),
            ("a", "y"),
            ("a", "n"),
            ("b", "n"),
            ("b", "n"),
            ("c", "y"),
        ]
        .iter()
        .enumerate()
        {
            db.insert("R", vec![(i as i64).into(), (*g).into(), (*ok).into()])
                .unwrap();
        }
        db
    }

    fn ratio_question(db: &Database) -> UserQuestion {
        let ok = db.schema().attr("R", "ok").unwrap();
        UserQuestion::new(
            NumericalQuery::ratio(
                AggregateQuery::count_star(Predicate::eq(ok, "y")),
                AggregateQuery::count_star(Predicate::eq(ok, "n")),
            )
            .with_smoothing(1e-4),
            Direction::High,
        )
    }

    #[test]
    fn picks_cube_for_additive_queries() {
        let db = flat_db();
        let e = Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let (table, choice) = e.table().unwrap();
        assert_eq!(choice, EngineChoice::Cube);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn falls_back_to_naive_for_non_additive() {
        let db = flat_db();
        let id = db.schema().attr("R", "id").unwrap();
        let q = UserQuestion::new(
            NumericalQuery::single(AggregateQuery {
                func: AggFunc::Sum(id),
                selection: Predicate::True,
            }),
            Direction::Low,
        );
        let e = Explainer::new(&db, q).attr_names(&["R.g"]).unwrap();
        let (_, choice) = e.table().unwrap();
        assert_eq!(choice, EngineChoice::Naive);
    }

    #[test]
    fn force_naive_overrides() {
        let db = flat_db();
        let e = Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.g"])
            .unwrap()
            .force_naive();
        let (_, choice) = e.table().unwrap();
        assert_eq!(choice, EngineChoice::Naive);
    }

    #[test]
    fn naive_and_cube_paths_agree_through_facade() {
        let db = flat_db();
        let base = || {
            Explainer::new(&db, ratio_question(&db))
                .attr_names(&["R.g"])
                .unwrap()
        };
        let (cube_t, _) = base().table().unwrap();
        let (naive_t, _) = base().force_naive().table().unwrap();
        assert_eq!(cube_t.len(), naive_t.len());
        for (a, b) in cube_t.rows.iter().zip(&naive_t.rows) {
            assert_eq!(a.coord, b.coord);
            assert!((a.mu_interv - b.mu_interv).abs() < 1e-9);
        }
    }

    #[test]
    fn line_1_runs_once_and_q_d_keeps_its_bits() {
        let db = flat_db();
        let q = ratio_question(&db);
        let expected = q.query.eval(&db).unwrap();
        let totals_runs = |force_naive: bool| {
            let sink = exq_obs::MetricsSink::recording();
            let e = Explainer::new(&db, q.clone())
                .metrics(sink.clone())
                .attr_names(&["R.g"])
                .unwrap();
            let e = if force_naive { e.force_naive() } else { e };
            assert_eq!(e.q_d().unwrap().to_bits(), expected.to_bits());
            let (table, _) = e.table_ref().unwrap();
            assert_eq!(q.query.combine(&table.totals).to_bits(), expected.to_bits());
            assert!(!e.top(DegreeKind::Intervention, 2).unwrap().is_empty());
            assert_eq!(e.q_d().unwrap().to_bits(), expected.to_bits());
            sink.snapshot()
                .spans
                .get("cube_algo.totals")
                .map(|s| s.count)
        };
        assert_eq!(totals_runs(false), Some(1), "cube path folds U once");
        assert_eq!(totals_runs(true), None, "the naive path runs no line 1");
    }

    #[test]
    fn min_support_prunes() {
        let db = flat_db();
        let e = Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.g"])
            .unwrap()
            .min_support(2.0);
        let (table, _) = e.table().unwrap();
        // g=c has one y and zero n: max v_j = 1 < 2 → pruned.
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn top_and_explain() {
        let db = flat_db();
        let e = Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let top = e.top(DegreeKind::Intervention, 2).unwrap();
        assert_eq!(top.len(), 2);
        // Best intervention for (high y/n): remove g=a (2y 1n) leaves
        // 1y/2n.
        assert_eq!(top[0].explanation.display(&db).to_string(), "[R.g = a]");

        let g = db.schema().attr("R", "g").unwrap();
        let report = e
            .explain(&Explanation::new(vec![Atom::eq(g, "a")]))
            .unwrap();
        assert_eq!(report.intervention.total_deleted(), 3);
        assert_eq!(report.mu_interv, report.mu_hybrid, "additive query");
        assert!(report.mu_aggr > 0.0);
    }

    #[test]
    fn rich_top_through_facade() {
        // Rows ordered by id: "bad" outcomes cluster at ids 2..4; the best
        // range intervention for (high y/n) covers the n-heavy ids.
        let db = flat_db();
        let e = Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let id = db.schema().attr("R", "id").unwrap();
        let ranked = e.top_ranges(id, 3, 4).unwrap();
        assert_eq!(ranked.len(), 4);
        // Sorted by μ_interv descending.
        for w in ranked.windows(2) {
            assert!(w[0].mu_interv >= w[1].mu_interv);
        }
        // For (Q = y/n, high), the strongest intervention removes the rows
        // that *sustain* the high ratio — the y-outcome rows (ids 0, 1, 5).
        let top = &ranked[0].explanation;
        match &top.parts[0] {
            crate::rich::RichPart::Range { lo, hi, .. } => {
                let (lo, hi) = (lo.as_int().unwrap(), hi.as_int().unwrap());
                assert!(
                    hi <= 1 || lo >= 5,
                    "top range [{lo},{hi}] should cover y rows only"
                );
            }
            other => panic!("expected a range, got {other:?}"),
        }
    }

    #[test]
    fn threads_builder_is_bit_identical_for_both_engines() {
        let db = flat_db();
        for force_naive in [false, true] {
            let base = || {
                let e = Explainer::new(&db, ratio_question(&db))
                    .attr_names(&["R.g"])
                    .unwrap();
                if force_naive {
                    e.force_naive()
                } else {
                    e
                }
            };
            let (sequential, _) = base().table().unwrap();
            for threads in [2, 7] {
                let (parallel, _) = base().threads(threads).table().unwrap();
                assert_eq!(
                    sequential, parallel,
                    "threads = {threads}, force_naive = {force_naive}"
                );
            }
        }
    }

    #[test]
    fn bad_attr_name_errors() {
        let db = flat_db();
        assert!(Explainer::new(&db, ratio_question(&db))
            .attr_names(&["R.zzz"])
            .is_err());
        assert!(Explainer::new(&db, ratio_question(&db))
            .attr_names(&["nodot"])
            .is_err());
    }
}
