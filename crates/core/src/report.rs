//! Human-readable explanation reports.
//!
//! Bundles everything an analyst wants from one question — the query and
//! its value, the additivity analysis and engine choice, the rankings by
//! every degree, their agreement, and an exact drill-down of the best
//! explanation — into one plain-text document. Used by the `exq report`
//! CLI command and directly embeddable in notebooks/logs.

use crate::error::Result;
use crate::explainer::{EngineChoice, Explainer};
use crate::topk::{rank_correlation, top_k, DegreeKind, MinimalityPolarity, TopKStrategy};
use exq_relstore::ExecConfig;
use std::fmt::Write;

/// Report options.
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// How many explanations per ranking.
    pub top_k: usize,
    /// Drill into the best intervention explanation (runs program P once
    /// more, exactly).
    pub drill_best: bool,
    /// The executor the pipeline ran on — recorded in the report header so
    /// a saved report states its own provenance. (Thread count never
    /// changes the numbers; the naive sweep is bit-identical at any.)
    pub exec: ExecConfig,
}

impl Default for ReportConfig {
    fn default() -> ReportConfig {
        ReportConfig {
            top_k: 5,
            drill_best: true,
            exec: ExecConfig::sequential(),
        }
    }
}

/// Generate the report.
pub fn generate(explainer: &Explainer<'_>, config: &ReportConfig) -> Result<String> {
    let db = explainer.db();
    let question = explainer.question();
    let mut out = String::new();

    // -- The question.
    let names: Vec<String> = (1..=question.query.arity())
        .map(|i| format!("q{i}"))
        .collect();
    let _ = writeln!(out, "# Explanation report");
    let _ = writeln!(out);
    let _ = writeln!(out, "direction: {:?}", question.direction);
    let _ = writeln!(out, "Q = {}", question.query.expr.render(&names));
    for (name, agg) in names.iter().zip(&question.query.aggregates) {
        let selection = exq_relstore::parse::predicate_to_text(db.schema(), &agg.selection);
        let _ = writeln!(out, "  {name} = {:?} where {selection}", agg.func);
    }
    if question.query.smoothing != 0.0 {
        let _ = writeln!(out, "smoothing: {}", question.query.smoothing);
    }
    let q_d = question.query.eval(db)?;
    let _ = writeln!(out, "Q(D) = {q_d}");
    let _ = writeln!(out);

    // -- The table and engine.
    let (table, engine) = explainer.table()?;
    let engine_text = match engine {
        EngineChoice::Cube => "Algorithm 1 (data cube; query is intervention-additive)",
        EngineChoice::Naive => "exact naive engine (per-candidate program P)",
    };
    let _ = writeln!(out, "candidates: {} (engine: {engine_text})", table.len());
    let _ = writeln!(
        out,
        "parallelism: {} thread{}",
        config.exec.threads(),
        if config.exec.threads() == 1 { "" } else { "s" }
    );
    let tau = rank_correlation(&table, DegreeKind::Intervention, DegreeKind::Aggravation);
    let _ = writeln!(
        out,
        "intervention/aggravation rank agreement (Kendall tau): {tau:.3}"
    );
    let _ = writeln!(out);

    // -- Rankings.
    for (title, kind) in [
        ("Top explanations by intervention", DegreeKind::Intervention),
        ("Top explanations by aggravation", DegreeKind::Aggravation),
    ] {
        let _ = writeln!(out, "## {title}");
        let ranked = top_k(
            &table,
            kind,
            config.top_k,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        );
        if ranked.is_empty() {
            let _ = writeln!(out, "(no candidates)");
        }
        for r in &ranked {
            let _ = writeln!(
                out,
                "{:>3}. {}  (mu = {:.6})",
                r.rank,
                r.explanation.display(db),
                r.degree
            );
        }
        let _ = writeln!(out);
    }

    // -- Drill-down.
    if config.drill_best {
        let best = top_k(
            &table,
            DegreeKind::Intervention,
            1,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        );
        if let Some(best) = best.first() {
            let report = explainer.explain(&best.explanation)?;
            let _ = writeln!(out, "## Drill-down: {}", best.explanation.display(db));
            let _ = writeln!(out, "mu_interv = {}", report.mu_interv);
            let _ = writeln!(out, "mu_aggr   = {}", report.mu_aggr);
            let _ = writeln!(out, "mu_hybrid = {}", report.mu_hybrid);
            let _ = writeln!(
                out,
                "intervention: {} tuples in {} iterations",
                report.intervention.total_deleted(),
                report.intervention.iterations
            );
            for (rel, delta) in report.intervention.delta.iter().enumerate() {
                if !delta.is_empty() {
                    let _ = writeln!(
                        out,
                        "  - {}: {} of {} tuples deleted",
                        db.schema().relation(rel).name,
                        delta.count(),
                        db.relation_len(rel)
                    );
                }
            }
        }
    }

    // -- Metrics. Counters and value histograms only: both are
    // deterministic across thread counts, so a saved report stays
    // byte-stable (wall-clock spans and latency histograms go to
    // `--metrics`/`--trace` instead).
    let sink = config.exec.metrics();
    if sink.is_enabled() {
        let snapshot = sink.snapshot();
        let _ = writeln!(out, "## Metrics");
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "{name} = {v}");
        }
        for (name, h) in &snapshot.histograms {
            if h.kind == exq_obs::HistKind::Values {
                let _ = writeln!(out, "{name} = count {}, sum {}", h.count, h.sum);
            }
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use exq_relstore::{Database, Predicate, SchemaBuilder, ValueType as T};

    fn setup() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[("id", T::Int), ("g", T::Str), ("ok", T::Str)],
                &["id"],
            )
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, (g, ok)) in [("a", "y"), ("a", "y"), ("a", "n"), ("b", "n"), ("b", "n")]
            .iter()
            .enumerate()
        {
            db.insert("R", vec![(i as i64).into(), (*g).into(), (*ok).into()])
                .unwrap();
        }
        db
    }

    fn question(db: &Database) -> UserQuestion {
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
    fn report_contains_all_sections() {
        let db = setup();
        let explainer = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let text = generate(&explainer, &ReportConfig::default()).unwrap();
        assert!(text.contains("Q = (q1 / q2)"), "{text}");
        assert!(text.contains("where R.ok = 'y'"), "{text}");
        assert!(text.contains("Algorithm 1"), "{text}");
        assert!(text.contains("Top explanations by intervention"), "{text}");
        assert!(text.contains("Top explanations by aggravation"), "{text}");
        assert!(text.contains("Drill-down: [R.g = a]"), "{text}");
        assert!(text.contains("Kendall tau"), "{text}");
        assert!(text.contains("mu_hybrid"), "{text}");
        assert!(text.contains("parallelism: 1 thread\n"), "{text}");
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let db = setup();
        let base = generate(
            &Explainer::new(&db, question(&db))
                .attr_names(&["R.g"])
                .unwrap(),
            &ReportConfig::default(),
        )
        .unwrap();
        for threads in [2, 7] {
            let exec = exq_relstore::ExecConfig::with_threads(threads);
            let explainer = Explainer::new(&db, question(&db))
                .attr_names(&["R.g"])
                .unwrap()
                .exec(exec.clone());
            let text = generate(
                &explainer,
                &ReportConfig {
                    exec,
                    ..ReportConfig::default()
                },
            )
            .unwrap();
            assert!(
                text.contains(&format!("parallelism: {threads} threads")),
                "{text}"
            );
            // Everything except the parallelism line is byte-identical.
            let strip = |t: &str| {
                t.lines()
                    .filter(|l| !l.starts_with("parallelism:"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&base), strip(&text), "threads = {threads}");
        }
    }

    #[test]
    fn metrics_section_is_identical_at_any_thread_count() {
        let db = setup();
        let section = |threads: usize| -> String {
            let sink = exq_obs::MetricsSink::recording();
            let exec = exq_relstore::ExecConfig::with_threads(threads).with_metrics(sink);
            let explainer = Explainer::new(&db, question(&db))
                .attr_names(&["R.g"])
                .unwrap()
                .exec(exec.clone());
            let text = generate(
                &explainer,
                &ReportConfig {
                    exec,
                    ..ReportConfig::default()
                },
            )
            .unwrap();
            let start = text.find("## Metrics").expect("metrics section present");
            text[start..].to_string()
        };
        let base = section(1);
        assert!(base.contains("cube.cells ="), "{base}");
        assert!(base.contains("engine.candidates_evaluated ="), "{base}");
        assert!(base.contains("fixpoint.runs ="), "{base}");
        for threads in [2, 7] {
            assert_eq!(base, section(threads), "threads = {threads}");
        }
    }

    #[test]
    fn report_without_sink_has_no_metrics_section() {
        let db = setup();
        let explainer = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let text = generate(&explainer, &ReportConfig::default()).unwrap();
        assert!(!text.contains("## Metrics"), "{text}");
    }

    #[test]
    fn drill_can_be_disabled() {
        let db = setup();
        let explainer = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let text = generate(
            &explainer,
            &ReportConfig {
                top_k: 2,
                drill_best: false,
                ..ReportConfig::default()
            },
        )
        .unwrap();
        assert!(!text.contains("Drill-down"));
    }

    #[test]
    fn empty_candidate_set_is_reported() {
        let db = setup();
        // Dimensions pruned to nothing by an impossible support bound.
        let explainer = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap()
            .min_support(1e12);
        let text = generate(&explainer, &ReportConfig::default()).unwrap();
        assert!(text.contains("(no candidates)"), "{text}");
    }
}
