//! Machine-readable JSON documents for `explain`, `report`, and `drill`.
//!
//! One serializer shared by the `exq` CLI (`--format json`) and the
//! `exq-serve` HTTP server, so the two surfaces cannot fork response
//! shapes. Every function renders a single self-contained JSON document:
//! the semantic payload first, then the run's status `notes`, then the
//! metrics snapshot. Counters in the snapshot are deterministic across
//! thread counts; span durations are wall-clock and can be normalized
//! away with [`exq_obs::Snapshot::normalized`].
//!
//! The `explain` document shape is byte-for-byte the one `exq explain
//! --format json` has emitted since the observability layer landed —
//! golden fixtures in the CLI test-suite pin it.

use crate::error::Result;
use crate::explainer::{DegreeReport, EngineChoice, Explainer};
use crate::report::ReportConfig;
use crate::topk::{rank_correlation, top_k, DegreeKind, MinimalityPolarity, Ranked, TopKStrategy};
use exq_obs::{escape_json, Snapshot};
use exq_relstore::Database;
use std::fmt::Write as _;

/// A float as a JSON token (`null` for non-finite values, which bare
/// JSON cannot represent).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Append a `"notes": [...]` field (two-space indent, trailing comma).
fn push_notes(out: &mut String, notes: &[String]) {
    out.push_str("  \"notes\": [\n");
    for (i, note) in notes.iter().enumerate() {
        let sep = if i + 1 == notes.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\"{sep}", escape_json(note));
    }
    out.push_str("  ],\n");
}

/// Append the final `"metrics": {...}` field, re-indenting the
/// snapshot's own JSON to nest it.
fn push_metrics(out: &mut String, snapshot: &Snapshot) {
    let metrics = snapshot
        .to_json()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("  {l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let _ = writeln!(out, "  \"metrics\": {metrics}");
}

/// Append a ranked-explanation array at `indent` spaces per entry.
fn push_ranked(out: &mut String, db: &Database, ranked: &[Ranked], indent: usize) {
    for (i, r) in ranked.iter().enumerate() {
        let sep = if i + 1 == ranked.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{:indent$}{{ \"rank\": {}, \"explanation\": \"{}\", \"degree\": {} }}{sep}",
            "",
            r.rank,
            escape_json(&r.explanation.display(db).to_string()),
            json_f64(r.degree),
        );
    }
}

/// The `exq explain --format json` document: question value, engine
/// choice, candidate count, the ranked top-K, notes, metrics.
pub fn explain_doc(
    db: &Database,
    q_d: f64,
    engine: EngineChoice,
    candidates: usize,
    ranked: &[Ranked],
    snapshot: &Snapshot,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"q_d\": {},", json_f64(q_d));
    let _ = writeln!(out, "  \"engine\": \"{engine:?}\",");
    let _ = writeln!(out, "  \"candidates\": {candidates},");
    out.push_str("  \"top\": [\n");
    push_ranked(&mut out, db, ranked, 4);
    out.push_str("  ],\n");
    push_notes(&mut out, &snapshot.notes);
    push_metrics(&mut out, snapshot);
    out.push('}');
    out
}

/// The drill-down object body (shared between the `drill` document and
/// the report's `"drill"` field); `indent` is the indentation of the
/// object's own fields.
fn drill_object(out: &mut String, db: &Database, phi: &str, report: &DegreeReport, indent: usize) {
    let pad = " ".repeat(indent);
    let _ = writeln!(out, "{pad}\"phi\": \"{}\",", escape_json(phi));
    let _ = writeln!(out, "{pad}\"mu_interv\": {},", json_f64(report.mu_interv));
    let _ = writeln!(out, "{pad}\"mu_aggr\": {},", json_f64(report.mu_aggr));
    let _ = writeln!(out, "{pad}\"mu_hybrid\": {},", json_f64(report.mu_hybrid));
    let _ = writeln!(out, "{pad}\"intervention\": {{");
    let _ = writeln!(
        out,
        "{pad}  \"deleted\": {},",
        report.intervention.total_deleted()
    );
    let _ = writeln!(
        out,
        "{pad}  \"iterations\": {},",
        report.intervention.iterations
    );
    let per_rel: Vec<(usize, usize)> = report
        .intervention
        .delta
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.is_empty())
        .map(|(rel, d)| (rel, d.count()))
        .collect();
    let _ = writeln!(out, "{pad}  \"relations\": [");
    for (i, (rel, n)) in per_rel.iter().enumerate() {
        let sep = if i + 1 == per_rel.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{pad}    {{ \"relation\": \"{}\", \"deleted\": {n} }}{sep}",
            escape_json(&db.schema().relation(*rel).name),
        );
    }
    let _ = writeln!(out, "{pad}  ]");
    let _ = writeln!(out, "{pad}}}");
}

/// The `exq drill --format json` document: all three degrees plus the
/// intervention for one explanation, then notes and metrics.
pub fn drill_doc(db: &Database, phi: &str, report: &DegreeReport, snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n");
    drill_object(&mut out, db, phi, report, 2);
    // drill_object's last line ends the intervention object; patch the
    // field separator in.
    let end = out.trim_end_matches('\n').len();
    out.truncate(end);
    out.push_str(",\n");
    push_notes(&mut out, &snapshot.notes);
    push_metrics(&mut out, snapshot);
    out.push('}');
    out
}

/// The `exq report --format json` document: everything the plain-text
/// report contains — question value, engine, Kendall tau, both rankings,
/// the drill-down of the best explanation — as one JSON object. Runs the
/// pipeline through `explainer` exactly like [`crate::report::generate`];
/// the metrics snapshot is taken from `config.exec`'s sink after the
/// pipeline has run.
pub fn report_doc(explainer: &Explainer<'_>, config: &ReportConfig) -> Result<String> {
    let db = explainer.db();
    let q_d = explainer.q_d()?;
    let (table, engine) = explainer.table_ref()?;
    let tau = rank_correlation(table, DegreeKind::Intervention, DegreeKind::Aggravation);

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"q_d\": {},", json_f64(q_d));
    let _ = writeln!(out, "  \"engine\": \"{engine:?}\",");
    let _ = writeln!(out, "  \"candidates\": {},", table.len());
    let _ = writeln!(out, "  \"parallelism\": {},", config.exec.threads());
    let _ = writeln!(out, "  \"tau\": {},", json_f64(tau));
    out.push_str("  \"rankings\": {\n");
    for (i, (name, kind)) in [
        ("intervention", DegreeKind::Intervention),
        ("aggravation", DegreeKind::Aggravation),
    ]
    .into_iter()
    .enumerate()
    {
        let ranked = top_k(
            table,
            kind,
            config.top_k,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        );
        let _ = writeln!(out, "    \"{name}\": [");
        push_ranked(&mut out, db, &ranked, 6);
        let sep = if i == 0 { "," } else { "" };
        let _ = writeln!(out, "    ]{sep}");
    }
    out.push_str("  },\n");

    if config.drill_best {
        let best = top_k(
            table,
            DegreeKind::Intervention,
            1,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        );
        match best.first() {
            Some(best) => {
                let report = explainer.explain(&best.explanation)?;
                out.push_str("  \"drill\": {\n");
                drill_object(
                    &mut out,
                    db,
                    &best.explanation.display(db).to_string(),
                    &report,
                    4,
                );
                out.push_str("  },\n");
            }
            None => out.push_str("  \"drill\": null,\n"),
        }
    } else {
        out.push_str("  \"drill\": null,\n");
    }

    let snapshot = config.exec.metrics().snapshot();
    push_notes(&mut out, &snapshot.notes);
    push_metrics(&mut out, &snapshot);
    out.push('}');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use exq_relstore::{Predicate, SchemaBuilder, ValueType as T};

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

    /// Brace/bracket balance outside string literals; returns depth==0.
    fn balanced_json(text: &str) -> bool {
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in text.chars() {
            if in_str {
                match (esc, c) {
                    (true, _) => esc = false,
                    (false, '\\') => esc = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0 && !in_str
    }

    #[test]
    fn explain_doc_shape() {
        let db = setup();
        let e = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let q_d = e.question().query.eval(&db).unwrap();
        let (table, choice) = e.table().unwrap();
        let ranked = e.top(DegreeKind::Intervention, 3).unwrap();
        let doc = explain_doc(&db, q_d, choice, table.len(), &ranked, &Snapshot::default());
        assert!(balanced_json(&doc), "{doc}");
        assert!(doc.contains("\"engine\": \"Cube\""), "{doc}");
        assert!(doc.contains("\"explanation\": \"[R.g = a]\""), "{doc}");
        assert!(doc.contains("\"metrics\": {"), "{doc}");
    }

    #[test]
    fn non_finite_degrees_become_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn drill_doc_shape() {
        let db = setup();
        let e = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let g = db.schema().attr("R", "g").unwrap();
        let phi = crate::explanation::Explanation::new(vec![exq_relstore::Atom::eq(g, "a")]);
        let report = e.explain(&phi).unwrap();
        let doc = drill_doc(
            &db,
            &phi.display(&db).to_string(),
            &report,
            &Snapshot::default(),
        );
        assert!(balanced_json(&doc), "{doc}");
        assert!(doc.contains("\"phi\": \"[R.g = a]\""), "{doc}");
        assert!(doc.contains("\"mu_hybrid\":"), "{doc}");
        assert!(doc.contains("\"relation\": \"R\""), "{doc}");
        assert!(doc.contains("\"notes\": ["), "{doc}");
    }

    #[test]
    fn report_doc_shape_and_thread_stability() {
        let db = setup();
        let doc_at = |threads: usize| {
            let exec = exq_relstore::ExecConfig::with_threads(threads);
            let e = Explainer::new(&db, question(&db))
                .attr_names(&["R.g"])
                .unwrap()
                .exec(exec.clone());
            report_doc(
                &e,
                &ReportConfig {
                    exec,
                    ..ReportConfig::default()
                },
            )
            .unwrap()
        };
        let base = doc_at(1);
        assert!(balanced_json(&base), "{base}");
        assert!(base.contains("\"rankings\": {"), "{base}");
        assert!(base.contains("\"intervention\": ["), "{base}");
        assert!(base.contains("\"aggravation\": ["), "{base}");
        assert!(base.contains("\"drill\": {"), "{base}");
        assert!(base.contains("\"parallelism\": 1,"), "{base}");
        for threads in [2, 7] {
            let doc = doc_at(threads);
            let strip = |t: &str| {
                t.lines()
                    .filter(|l| !l.contains("\"parallelism\""))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&base), strip(&doc), "threads = {threads}");
        }
    }

    #[test]
    fn report_doc_without_drill() {
        let db = setup();
        let e = Explainer::new(&db, question(&db))
            .attr_names(&["R.g"])
            .unwrap();
        let doc = report_doc(
            &e,
            &ReportConfig {
                drill_best: false,
                ..ReportConfig::default()
            },
        )
        .unwrap();
        assert!(doc.contains("\"drill\": null,"), "{doc}");
        assert!(balanced_json(&doc), "{doc}");
    }
}
