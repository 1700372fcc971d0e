//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `repro <experiment> [full]` where `<experiment>` is one of
//! `fig1 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//! ex37 ex41 ablation scaling hybrid agreement pipeline loadtest
//! incremental export all`, or
//! `repro validate-bench FILE [pipeline|serve|incremental]` to check a
//! `BENCH_pipeline.json` / `BENCH_serve.json` / `BENCH_incremental.json`
//! against the committed
//! observability catalogue (scope defaults from the file name), or
//! `repro validate-prom FILE` to check a Prometheus text-exposition
//! dump (e.g. a curl of `GET /metrics`) for well-formedness. The
//! optional `full` flag runs the timing sweeps at
//! paper scale (millions of rows); the default keeps every experiment
//! under a few seconds. `loadtest` additionally accepts `--router`,
//! which asserts the router tier's ≥3x 1→4-worker throughput scaling
//! bar (the router phase itself always runs and lands its section in
//! `BENCH_serve.json`). Build with `--release` for meaningful timings.

use exq_bench::{natality_db, natality_dims, q_marital, q_race, q_race_prime};
use exq_core::causal::DataCausalGraph;
use exq_core::explanation::Explanation;
use exq_core::intervention::InterventionEngine;
use exq_core::prelude::*;
use exq_core::{cube_algo, naive, topk};
use exq_datagen::{chain, dblp, geodblp, paper_examples};
use exq_relstore::aggregate::{evaluate, AggFunc};
use exq_relstore::cube::CubeStrategy;
use exq_relstore::{AppendBatch, Database, ExecConfig, MetricsSink, Predicate, Universal, Value};
use std::time::{Duration, Instant};

/// The committed observability catalogue: every name here must appear
/// in the bench snapshot matching its scope — `server.*` names in
/// `BENCH_serve.json`, `ingest.*` names in `BENCH_incremental.json`,
/// everything else in `BENCH_pipeline.json` (see `validate-bench`).
/// Plain lines are counters; `span:` and `hist:` prefixes catalogue
/// spans and histograms respectively.
const COUNTER_CATALOGUE: &str = include_str!("../../../../assets/obs/counters.txt");

/// Which bench snapshot a catalogued counter belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum BenchScope {
    /// The engine pipeline (`repro pipeline` → `BENCH_pipeline.json`).
    Pipeline,
    /// The explanation server (`repro loadtest` → `BENCH_serve.json`).
    Serve,
    /// Live ingestion (`repro incremental` → `BENCH_incremental.json`).
    Incremental,
}

impl BenchScope {
    fn name(self) -> &'static str {
        match self {
            BenchScope::Pipeline => "pipeline",
            BenchScope::Serve => "serve",
            BenchScope::Incremental => "incremental",
        }
    }
}

/// Which snapshot a catalogued name is pinned in. Note a serve snapshot
/// also *contains* `ingest.*` names (the server pre-registers them and
/// live appends emit them), but they are pinned by the incremental
/// scope; `validate-bench` only checks presence, never absence.
fn scope_of(name: &str) -> BenchScope {
    if name.starts_with("server.") || name.starts_with("router.") {
        BenchScope::Serve
    } else if name.starts_with("ingest.") {
        BenchScope::Incremental
    } else {
        BenchScope::Pipeline
    }
}

/// What kind of metric a catalogue line names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EntryKind {
    /// Plain line — a monotone counter in the `counters` section.
    Counter,
    /// `span:NAME` — a timed span in the `spans` section.
    Span,
    /// `hist:NAME` — a histogram in the `histograms` section.
    Hist,
}

impl EntryKind {
    fn label(self) -> &'static str {
        match self {
            EntryKind::Counter => "counter",
            EntryKind::Span => "span",
            EntryKind::Hist => "histogram",
        }
    }
}

fn required_entries(scope: BenchScope) -> Vec<(EntryKind, &'static str)> {
    COUNTER_CATALOGUE
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        // `aux ` entries are emitted by the library but not pinned by
        // any benchmark run (data/strategy-dependent names); only the
        // lint catalogue audit checks those.
        .filter(|l| !l.starts_with("aux "))
        .map(|line| {
            if let Some(name) = line.strip_prefix("span:") {
                (EntryKind::Span, name)
            } else if let Some(name) = line.strip_prefix("hist:") {
                (EntryKind::Hist, name)
            } else {
                (EntryKind::Counter, line)
            }
        })
        .filter(move |(_, name)| scope_of(name) == scope)
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn median(durations: &[Duration]) -> Duration {
    let mut sorted = durations.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2]
}

/// Split a DBLP instance for the live-ingestion runs: hold back 10% of
/// the `Authored` rows (the bridge relation nothing references, so every
/// prefix stays foreign-key-consistent) and return the initial database
/// plus `batches` append batches covering the held-back tail.
fn split_dblp(full_db: &Database, batches: usize) -> (Database, Vec<AppendBatch>) {
    let authored = full_db.schema().relation_index("Authored").unwrap();
    let keep = full_db.relation(authored).len() * 9 / 10;
    let mut initial = Database::new(full_db.schema().clone());
    for r in 0..full_db.schema().relation_count() {
        let name = full_db.schema().relation(r).name.clone();
        let limit = if r == authored {
            keep
        } else {
            full_db.relation(r).len()
        };
        for row in full_db.relation(r).rows().take(limit) {
            initial.insert(&name, row.to_vec()).unwrap();
        }
    }
    let held: Vec<Vec<Value>> = full_db
        .relation(authored)
        .rows()
        .skip(keep)
        .map(|row| row.to_vec())
        .collect();
    let chunk = held.len().div_ceil(batches).max(1);
    let split = held
        .chunks(chunk)
        .map(|c| vec![("Authored".to_string(), c.to_vec())])
        .collect();
    (initial, split)
}

/// Render an append batch as the `POST /v1/datasets/{name}/rows` body.
fn append_body(batch: &[(String, Vec<Vec<Value>>)]) -> String {
    use std::fmt::Write as _;
    let cell = |v: &Value| match v {
        Value::Str(s) => format!("\"{}\"", exq_obs::escape_json(s)),
        other => other.to_string(),
    };
    let mut body = String::from("{\"rows\": {");
    for (i, (rel, rows)) in batch.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(body, "\"{}\": [", exq_obs::escape_json(rel));
        for (j, row) in rows.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            let cells: Vec<String> = row.iter().map(cell).collect();
            let _ = write!(body, "[{}]", cells.join(","));
        }
        body.push(']');
    }
    body.push_str("}}");
    body
}

/// Zero every `"MARKER": N` integer in a response body.
fn zero_json_int(body: &str, marker: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(marker) {
        let digits_from = at + marker.len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Zero every `"total_ns": N` in a response body. Explain documents
/// embed their per-request metrics block, whose span durations are
/// wall-clock; scrubbing them (and nothing else) is what makes two
/// servers' answers comparable byte for byte.
fn scrub_total_ns(body: &str) -> String {
    zero_json_int(body, "\"total_ns\": ")
}

/// Zero the cost block's `"epoch": N` on top of [`scrub_total_ns`].
/// Used only where the compared servers legitimately sit at different
/// epochs (a live-appended dataset vs a rebuild-from-scratch): the
/// explanation must still match byte for byte, but the cost block
/// truthfully reports each server's own epoch.
fn scrub_total_ns_and_epoch(body: &str) -> String {
    zero_json_int(&scrub_total_ns(body), "\"epoch\": ")
}

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig1() {
    header("Figure 1 — SIGMOD publications in five-year windows, com vs edu");
    let db = dblp::generate(&dblp::DblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    println!("{:<12} {:>8} {:>8}", "window", "com", "edu");
    let mut start = 1985;
    while start + 4 <= 2011 {
        let w = (start, start + 4);
        let com = dblp::window_count(&db, &u, "SIGMOD", "com", w);
        let edu = dblp::window_count(&db, &u, "SIGMOD", "edu", w);
        println!("{:<12} {:>8} {:>8}", format!("{}-{}", w.0, w.1), com, edu);
        start += 3;
    }
}

fn bump_question(db: &Database) -> UserQuestion {
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let dom = schema.attr("Author", "dom").unwrap();
    let q = |d: &str, w: (i32, i32)| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([
            Predicate::eq(venue, "SIGMOD"),
            Predicate::eq(dom, d),
            Predicate::between(year, w.0, w.1),
        ]),
    };
    UserQuestion::new(
        NumericalQuery::double_ratio(
            q("com", (2000, 2004)),
            q("com", (2007, 2011)),
            q("edu", (2000, 2004)),
            q("edu", (2007, 2011)),
        )
        .with_smoothing(1e-4),
        Direction::High,
    )
}

fn fig2() {
    header("Figure 2 — top explanations for the bump (by intervention)");
    let db = dblp::generate(&dblp::DblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    let question = bump_question(&db);
    println!(
        "Q(D) = {:.3} (dir = high)",
        question.query.eval(&db).unwrap()
    );
    let dims = vec![
        db.schema().attr("Author", "inst").unwrap(),
        db.schema().attr("Author", "name").unwrap(),
    ];
    let (m, t) = timed(|| {
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap()
    });
    println!("table M: {} candidates, computed in {:?}", m.len(), t);
    println!("{:<4} explanation", "rank");
    for r in topk::top_k(
        &m,
        DegreeKind::Intervention,
        9,
        TopKStrategy::MinimalAppend,
        MinimalityPolarity::PreferGeneral,
    ) {
        println!(
            "{:<4} {}  (mu_interv = {:.4})",
            r.rank,
            r.explanation.display(&db),
            r.degree
        );
    }
}

fn fig6() {
    header("Figure 6 — schema and data causal graphs of the running example");
    let db = paper_examples::figure3();
    let g = db.schema().causal_graph();
    println!("schema causal graph (relations):");
    for &(a, b) in &g.solid {
        println!(
            "  {} ──▶ {}",
            db.schema().relation(a).name,
            db.schema().relation(b).name
        );
    }
    for &(a, b) in &g.dotted {
        println!(
            "  {} ┄┄▶ {}",
            db.schema().relation(a).name,
            db.schema().relation(b).name
        );
    }
    println!("\ndata causal graph (tuples):");
    let dg = DataCausalGraph::build(&db);
    print!("{}", dg.render(&db));
}

fn fig7_8_9(rows: usize) {
    header("Figures 7/8/9 — natality contingency tables and ratios");
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    let count = |pairs: &[(&str, &str)]| {
        let sel = Predicate::and(
            pairs
                .iter()
                .map(|(a, v)| Predicate::eq(db.schema().attr("Natality", a).unwrap(), *v)),
        );
        evaluate(&db, &u, &sel, &AggFunc::CountStar).unwrap()
    };
    println!("rows = {rows}");
    println!("\nFigure 7 — AP x Race:");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9}",
        "AP", "White", "Black", "AmInd", "Asian"
    );
    for ap in ["poor", "good"] {
        let r: Vec<f64> = ["White", "Black", "AmInd", "Asian"]
            .iter()
            .map(|x| count(&[("ap", ap), ("race", x)]))
            .collect();
        println!("{:<6} {:>9} {:>9} {:>9} {:>9}", ap, r[0], r[1], r[2], r[3]);
    }
    println!("\nFigure 7 — AP x Marital:");
    println!("{:<6} {:>9} {:>9}", "AP", "married", "unmarr.");
    for ap in ["poor", "good"] {
        println!(
            "{:<6} {:>9} {:>9}",
            ap,
            count(&[("ap", ap), ("marital", "married")]),
            count(&[("ap", ap), ("marital", "unmarried")])
        );
    }
    println!("\nFigure 8 — good/poor ratio by race (Q_Race observation):");
    for r in ["White", "Black", "AmInd", "Asian"] {
        println!(
            "  {:<6} {:.1}",
            r,
            count(&[("ap", "good"), ("race", r)]) / count(&[("ap", "poor"), ("race", r)]).max(1.0)
        );
    }
    println!("\nFigure 9 — good/poor ratio by marital status (Q_Marital observation):");
    for m in ["married", "unmarried"] {
        println!(
            "  {:<10} {:.1}",
            m,
            count(&[("ap", "good"), ("marital", m)])
                / count(&[("ap", "poor"), ("marital", m)]).max(1.0)
        );
    }
    println!(
        "\nQ_Race(D)    = {:.2}",
        q_race(&db).query.eval(&db).unwrap()
    );
    println!(
        "Q'_Race(D)   = {:.2} (Asian ratio vs Black ratio)",
        q_race_prime(&db).query.eval(&db).unwrap()
    );
    println!(
        "Q_Marital(D) = {:.2}",
        q_marital(&db).query.eval(&db).unwrap()
    );
}

fn fig10_11(rows: usize) {
    header("Figures 10/11 — top minimal explanations (natality)");
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    let support = 1000.0 * rows as f64 / 4_000_000.0;
    let attr = |n: &str| db.schema().attr("Natality", n).unwrap();
    let dims_race = vec![
        attr("age"),
        attr("tobacco"),
        attr("prenatal"),
        attr("edu"),
        attr("marital"),
    ];
    let dims_marital = vec![
        attr("age"),
        attr("tobacco"),
        attr("prenatal"),
        attr("edu"),
        attr("race"),
    ];
    for (name, question, dims) in [
        ("Q_Race", q_race(&db), dims_race),
        ("Q_Marital", q_marital(&db), dims_marital),
    ] {
        let mut m =
            cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())
                .unwrap();
        m.retain_min_support(support);
        println!(
            "\n--- {name} (Q(D) = {:.2}) ---",
            question.query.eval(&db).unwrap()
        );
        println!("Figure 10 — top-5 minimal by intervention:");
        for r in topk::top_k(
            &m,
            DegreeKind::Intervention,
            5,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        ) {
            println!(
                "  {}. {}  (mu_interv = {:.3})",
                r.rank,
                r.explanation.display(&db),
                r.degree
            );
        }
        println!("Figure 11 — top-3 minimal by aggravation:");
        for r in topk::top_k(
            &m,
            DegreeKind::Aggravation,
            3,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        ) {
            println!(
                "  {}. {}  (mu_aggr = {:.3})",
                r.rank,
                r.explanation.display(&db),
                r.degree
            );
        }
    }
}

fn fig12(full: bool) {
    header("Figure 12 — benefits of the data cube (Cube vs No Cube, Q_Race)");
    // (a) data size vs time, two explanation attributes.
    let sizes: &[usize] = if full {
        &[400, 4_000, 40_000, 200_000, 1_000_000]
    } else {
        &[400, 4_000, 40_000]
    };
    println!("(a) data size vs time (d = 2 attributes)");
    println!(
        "{:>10} {:>12} {:>12} {:>9}",
        "rows", "cube", "no-cube", "speedup"
    );
    for &rows in sizes {
        let db = natality_db(rows);
        let u = Universal::compute(&db, &db.full_view());
        let question = q_race(&db);
        let dims = natality_dims(&db, 2);
        let (_, t_cube) = timed(|| {
            cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        let engine = InterventionEngine::with_universal(&db, u);
        let (_, t_naive) =
            timed(|| naive::explanation_table_naive(&db, &engine, &question, &dims).unwrap());
        println!(
            "{:>10} {:>12?} {:>12?} {:>8.1}x",
            rows,
            t_cube,
            t_naive,
            t_naive.as_secs_f64() / t_cube.as_secs_f64().max(1e-9)
        );
    }

    // (b) number of attributes vs time, fixed size (paper: 1% ≈ 40k rows).
    let rows = if full { 40_000 } else { 10_000 };
    println!("\n(b) #attributes vs time ({rows} rows)");
    println!(
        "{:>6} {:>12} {:>12} {:>9}",
        "attrs", "cube", "no-cube", "speedup"
    );
    let db = natality_db(rows);
    let u0 = Universal::compute(&db, &db.full_view());
    let question = q_race(&db);
    let dmax = if full { 5 } else { 4 };
    for d in 1..=dmax {
        let dims = natality_dims(&db, d);
        let (_, t_cube) = timed(|| {
            cube_algo::explanation_table(&db, &u0, &question, &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        let engine = InterventionEngine::with_universal(&db, u0.clone());
        let (_, t_naive) =
            timed(|| naive::explanation_table_naive(&db, &engine, &question, &dims).unwrap());
        println!(
            "{:>6} {:>12?} {:>12?} {:>8.1}x",
            d,
            t_cube,
            t_naive,
            t_naive.as_secs_f64() / t_cube.as_secs_f64().max(1e-9)
        );
    }
}

fn fig13(full: bool) {
    header("Figure 13 — time to compute all degrees (table M)");
    // (a) data size vs time, 4 attributes, Q_Race (m=2) vs Q_Marital (m=4).
    let sizes: &[usize] = if full {
        &[400, 4_000, 40_000, 400_000, 2_000_000, 4_000_000]
    } else {
        &[400, 4_000, 40_000, 400_000]
    };
    println!("(a) data size vs time (d = 4 attributes)");
    println!(
        "{:>10} {:>14} {:>14}",
        "rows", "Q_Race (m=2)", "Q_Marital (m=4)"
    );
    for &rows in sizes {
        let db = natality_db(rows);
        let u = Universal::compute(&db, &db.full_view());
        let dims = natality_dims(&db, 4);
        let (_, t_race) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_race(&db), &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        let (_, t_marital) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_marital(&db), &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        println!("{:>10} {:>14?} {:>14?}", rows, t_race, t_marital);
    }

    // (b) #attributes vs time, full dataset (paper: 4M; default scaled).
    let rows = if full { 4_000_000 } else { 200_000 };
    println!("\n(b) #attributes vs time ({rows} rows; log-scale growth expected)");
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "attrs", "Q_Race", "Q_Marital", "|M| (Q_M)"
    );
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    for d in 2..=8 {
        let dims = natality_dims(&db, d);
        let (_, t_race) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_race(&db), &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        let (m, t_marital) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_marital(&db), &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        println!(
            "{:>6} {:>14?} {:>14?} {:>12}",
            d,
            t_race,
            t_marital,
            m.len()
        );
    }
}

fn fig14(full: bool) {
    header("Figure 14 — time to compute minimal top-K explanations (Q_Race)");
    let rows = if full { 4_000_000 } else { 200_000 };
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    let question = q_race(&db);
    for k in [1usize, 10] {
        println!("\nK = {k} ({rows} rows)");
        println!(
            "{:>6} {:>10} {:>14} {:>16} {:>15}",
            "attrs", "|M|", "no-minimal", "minimal-selfjoin", "minimal-append"
        );
        for d in 2..=8 {
            let dims = natality_dims(&db, d);
            let m =
                cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())
                    .unwrap();
            let (_, t_no) = timed(|| {
                topk::top_k(
                    &m,
                    DegreeKind::Intervention,
                    k,
                    TopKStrategy::NoMinimal,
                    MinimalityPolarity::PreferGeneral,
                )
            });
            let (_, t_sj) = timed(|| {
                topk::top_k(
                    &m,
                    DegreeKind::Intervention,
                    k,
                    TopKStrategy::MinimalSelfJoin,
                    MinimalityPolarity::PreferGeneral,
                )
            });
            let (_, t_ap) = timed(|| {
                topk::top_k(
                    &m,
                    DegreeKind::Intervention,
                    k,
                    TopKStrategy::MinimalAppend,
                    MinimalityPolarity::PreferGeneral,
                )
            });
            println!(
                "{:>6} {:>10} {:>14?} {:>16?} {:>15?}",
                d,
                m.len(),
                t_no,
                t_sj,
                t_ap
            );
        }
    }
}

fn fig15() {
    header("Figure 15 — UK SIGMOD vs PODS (8-table join)");
    let db = geodblp::generate(&geodblp::GeoDblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    let schema = db.schema();
    let pubid = schema.attr("Publication", "pubid").unwrap();
    let venue = schema.attr("Publication", "venue").unwrap();
    let year = schema.attr("Publication", "year").unwrap();
    let country = schema.attr("CountryG", "country").unwrap();

    println!("(a) venue share by country, 2001-2011");
    println!(
        "{:<16} {:>7} {:>7} {:>9} {:>9}",
        "country", "SIGMOD", "PODS", "%SIGMOD", "%PODS"
    );
    for c in [
        "USA",
        "Germany",
        "China",
        "Canada",
        "United Kingdom",
        "Netherlands",
        "France",
    ] {
        let n = |v: &str| {
            evaluate(
                &db,
                &u,
                &Predicate::and([
                    Predicate::eq(country, c),
                    Predicate::eq(venue, v),
                    Predicate::between(year, 2001, 2011),
                ]),
                &AggFunc::CountDistinct(pubid),
            )
            .unwrap()
        };
        let (s, p) = (n("SIGMOD"), n("PODS"));
        let tot = (s + p).max(1.0);
        println!(
            "{:<16} {:>7} {:>7} {:>8.1}% {:>8.1}%",
            c,
            s,
            p,
            100.0 * s / tot,
            100.0 * p / tot
        );
    }

    let uk = Predicate::eq(country, "United Kingdom");
    let q = |v: &str| AggregateQuery {
        func: AggFunc::CountDistinct(pubid),
        selection: Predicate::and([
            uk.clone(),
            Predicate::eq(venue, v),
            Predicate::between(year, 2001, 2011),
        ]),
    };
    let question = UserQuestion::new(
        NumericalQuery::ratio(q("SIGMOD"), q("PODS")).with_smoothing(1e-4),
        Direction::Low,
    );
    println!(
        "\nQ(D) = {:.3} (dir = low)",
        question.query.eval(&db).unwrap()
    );
    let dims = vec![
        schema.attr("Author", "name").unwrap(),
        schema.attr("AffiliationG", "inst").unwrap(),
        schema.attr("CityG", "city").unwrap(),
    ];
    let (m, t) = timed(|| {
        cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked()).unwrap()
    });
    println!("table M: {} candidates, computed in {t:?}", m.len());
    println!("\n(b) top explanations by intervention:");
    let (top, t_top) = timed(|| {
        topk::top_k(
            &m,
            DegreeKind::Intervention,
            10,
            TopKStrategy::MinimalSelfJoin,
            MinimalityPolarity::PreferGeneral,
        )
    });
    for r in top {
        println!(
            "  {:>2}. {}  (mu_interv = {:.4})",
            r.rank,
            r.explanation.display(&db),
            r.degree
        );
    }
    println!("minimal top-50 by self-join took {t_top:?}");
}

fn ex37() {
    header("Example 3.7 / Figure 5 — linear-iteration chain");
    println!("(n − 2 with full semijoin reduction per Rule (ii); the paper's");
    println!(" one-hop-per-iteration trace counts n − 1)");
    println!(
        "{:>4} {:>6} {:>11} {:>8} {:>10}",
        "p", "n", "iterations", "n-2", "deleted"
    );
    for p in [1, 2, 4, 8, 16, 32, 64] {
        let db = chain::chain(p);
        let engine = InterventionEngine::new(&db);
        let phi = Explanation::new(chain::chain_phi(&db).atoms.clone());
        let iv = engine.compute(&phi);
        let n = db.total_tuples();
        println!(
            "{:>4} {:>6} {:>11} {:>8} {:>10}",
            p,
            n,
            iv.iterations,
            n - 2,
            iv.total_deleted()
        );
    }
}

fn ex41() {
    header("Example 4.1 — the data cube over the Figure 3 instance");
    let db = paper_examples::figure3();
    let u = Universal::compute(&db, &db.full_view());
    let dims = vec![
        db.schema().attr("Author", "name").unwrap(),
        db.schema().attr("Publication", "year").unwrap(),
    ];
    let cube = exq_relstore::cube::compute(
        &db,
        &u,
        &Predicate::True,
        &dims,
        &AggFunc::CountStar,
        CubeStrategy::LatticeRollup,
    )
    .unwrap();
    println!("{:<8} {:<8} {:>8}", "name", "year", "count");
    let mut cells: Vec<(&exq_relstore::cube::Coord, &f64)> = cube.cells.iter().collect();
    cells.sort_by(|a, b| a.0.cmp(b.0).reverse());
    for (coord, v) in cells {
        let s: Vec<String> = coord
            .iter()
            .map(|x| {
                if x == &Value::Null {
                    "null".to_string()
                } else {
                    x.to_string()
                }
            })
            .collect();
        println!("{:<8} {:<8} {:>8}", s[0], s[1], v);
    }
}

fn scaling(full: bool) {
    header("Thread scaling — join → cube → Algorithm 1 at 1/2/4/8 threads");
    let threads = [1usize, 2, 4, 8];

    // (a) The Figure 13 workload: Algorithm 1 end-to-end (universal join,
    // per-sub-query cubes, degree derivation), Q_Race and Q_Marital.
    let rows = if full { 2_000_000 } else { 400_000 };
    let db = natality_db(rows);
    let dims = natality_dims(&db, 4);
    println!(
        "(host reports {} available core(s))",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    // Warm-up: fault in the data and let the allocator settle, so the
    // 1-thread row is not penalized for going first.
    {
        let u = Universal::compute(&db, &db.full_view());
        let _ =
            cube_algo::explanation_table(&db, &u, &q_race(&db), &dims, CubeAlgoConfig::checked())
                .unwrap();
    }
    println!("(a) Algorithm 1, Figure 13 workload ({rows} rows, d = 4)");
    println!(
        "{:>8} {:>12} {:>12} {:>14} {:>12} {:>9}",
        "threads", "join", "Q_Race M", "Q_Marital M", "total", "speedup"
    );
    let mut baseline: Option<(Duration, exq_core::table_m::ExplanationTable)> = None;
    for &n in &threads {
        let exec = ExecConfig::with_threads(n);
        let (u, t_join) = timed(|| Universal::compute_with(&db, &db.full_view(), &exec));
        let config = CubeAlgoConfig::checked().with_exec(exec);
        let (m_race, t_race) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_race(&db), &dims, config.clone()).unwrap()
        });
        let (_, t_marital) = timed(|| {
            cube_algo::explanation_table(&db, &u, &q_marital(&db), &dims, config.clone()).unwrap()
        });
        let total = t_join + t_race + t_marital;
        let speedup = baseline
            .as_ref()
            .map_or(1.0, |(t1, _)| t1.as_secs_f64() / total.as_secs_f64());
        match &baseline {
            None => baseline = Some((total, m_race)),
            Some((_, m1)) => assert_eq!(m1, &m_race, "tables must be bit-identical"),
        }
        println!(
            "{:>8} {:>12?} {:>12?} {:>14?} {:>12?} {:>8.2}x",
            n, t_join, t_race, t_marital, total, speedup
        );
    }

    // (b) The Figure 12 workload: the naive engine, parallel across
    // candidates (program P per candidate).
    let nrows = if full { 40_000 } else { 8_000 };
    let db = natality_db(nrows);
    let dims = natality_dims(&db, 2);
    let question = q_race(&db);
    let u = Universal::compute(&db, &db.full_view());
    let engine = InterventionEngine::with_universal(&db, u);
    println!("\n(b) naive engine, Figure 12 workload ({nrows} rows, d = 2)");
    println!("{:>8} {:>12} {:>9}", "threads", "table M", "speedup");
    let mut base: Option<Duration> = None;
    for &n in &threads {
        let exec = ExecConfig::with_threads(n);
        let (_, t) = timed(|| {
            naive::explanation_table_naive_with(&db, &engine, &question, &dims, &exec).unwrap()
        });
        let speedup = base
            .as_ref()
            .map_or(1.0, |t1| t1.as_secs_f64() / t.as_secs_f64());
        base.get_or_insert(t);
        println!("{:>8} {:>12?} {:>8.2}x", n, t, speedup);
    }
    println!("(every thread count produces a bit-identical table; asserted for (a))");
}

fn ablation_cube(full: bool) {
    header("Ablation — cube implementations (DESIGN.md §5)");
    let rows = if full { 200_000 } else { 50_000 };
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    println!("{rows} rows, COUNT(*)");
    println!(
        "{:>6} {:>16} {:>16} {:>12}",
        "attrs", "subset-enum", "lattice-rollup", "auto picks"
    );
    for d in [2usize, 4, 6, 8] {
        let dims = natality_dims(&db, d);
        let run = |strategy| {
            let (_, t) = timed(|| {
                exq_relstore::cube::compute(
                    &db,
                    &u,
                    &Predicate::True,
                    &dims,
                    &AggFunc::CountStar,
                    strategy,
                )
                .unwrap()
            });
            t
        };
        let t_subset = run(CubeStrategy::SubsetEnumeration);
        let t_rollup = run(CubeStrategy::LatticeRollup);
        let auto_pick = if t_rollup < t_subset {
            "rollup?"
        } else {
            "subset?"
        };
        println!(
            "{:>6} {:>16?} {:>16?} {:>12}",
            d, t_subset, t_rollup, auto_pick
        );
    }
    println!("(Auto samples the input and picks roll-up for low-cardinality data)");
}

fn agreement_table(rows: usize) {
    header("Degree agreement — Kendall tau between rankings (natality)");
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    println!("{rows} rows; tau(mu_interv, mu_aggr) per question and attribute set");
    println!(
        "{:>10} {:>6} {:>10} {:>8}",
        "question", "attrs", "|M|", "tau"
    );
    for (name, question) in [("Q_Race", q_race(&db)), ("Q_Marital", q_marital(&db))] {
        for d in [2usize, 4] {
            let dims = natality_dims(&db, d);
            let m =
                cube_algo::explanation_table(&db, &u, &question, &dims, CubeAlgoConfig::checked())
                    .unwrap();
            let tau = topk::rank_correlation(&m, DegreeKind::Intervention, DegreeKind::Aggravation);
            println!("{:>10} {:>6} {:>10} {:>8.3}", name, d, m.len(), tau);
        }
    }
    println!("(intervention and aggravation broadly disagree — Figures 10 vs 11)");
}

fn hybrid_table() {
    header("Hybrid degree vs exact intervention (Section 6(iii))");
    // COUNT(*) on the Figure 3 schema is not intervention-additive: the
    // hybrid (cube-computable) degree diverges from the exact one exactly
    // where the backward cascade deletes extra tuples.
    let db = paper_examples::figure3();
    let engine = InterventionEngine::new(&db);
    let u = engine.universal();
    let venue = db.schema().attr("Publication", "venue").unwrap();
    let name = db.schema().attr("Author", "name").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(venue, "SIGMOD"))),
        Direction::High,
    );
    println!("Q = COUNT(*) of SIGMOD universal tuples (NOT additive), dir = high");
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "phi", "mu_interv", "mu_hybrid", "mu_aggr"
    );
    for n in ["JG", "RR", "CM"] {
        let phi = Explanation::new(vec![exq_relstore::Atom::eq(name, n)]);
        let (mu_i, _) = exq_core::degree::mu_interv(&engine, &question, &phi).unwrap();
        let mu_h = exq_core::hybrid::mu_hybrid(&db, u, &question, &phi).unwrap();
        let mu_a = exq_core::degree::mu_aggr(&db, u, &question, &phi).unwrap();
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3}",
            format!("[name = {n}]"),
            mu_i,
            mu_h,
            mu_a
        );
    }
    println!("(hybrid ≤ interv for counts; equality iff no extra cascade fires)");
}

fn export(dir: &str, nat_rows: usize) {
    header("Exporting synthetic datasets as CSV (for the `exq` CLI)");
    use exq_relstore::csv::dump_relation;
    use std::fs;
    fs::create_dir_all(dir).expect("create export directory");
    let write = |db: &Database, rel: &str, file: &str| {
        let path = format!("{dir}/{file}");
        let f = fs::File::create(&path).expect("create csv file");
        let n = dump_relation(db, rel, std::io::BufWriter::new(f)).expect("dump relation");
        println!("  {path}: {n} rows");
    };
    let db = natality_db(nat_rows);
    write(&db, "Natality", "natality.csv");
    let db = dblp::generate(&dblp::DblpConfig::default());
    write(&db, "Author", "dblp_author.csv");
    write(&db, "Authored", "dblp_authored.csv");
    write(&db, "Publication", "dblp_publication.csv");
    println!("\ntry, from the repository root:");
    println!("  cargo run --release --bin exq -- report \\");
    println!("    --schema assets/schemas/natality.exq --table Natality={dir}/natality.csv \\");
    println!("    --question assets/questions/q_race.exq \\");
    println!(
        "    --attrs Natality.age,Natality.tobacco,Natality.prenatal,Natality.edu,Natality.marital"
    );
}

fn pipeline(full: bool) {
    header("Pipeline metrics — one obs snapshot across the evaluation workloads");
    let sink = MetricsSink::recording();
    let exec = ExecConfig::auto().with_metrics(sink.clone());

    // Figure 12 workload: the naive engine (program P per candidate) and
    // Algorithm 1 on the same small natality instance — fixpoint and
    // per-engine candidate counters.
    let rows12 = if full { 40_000 } else { 4_000 };
    println!("figure 12 workload: naive + cube, {rows12} natality rows, d = 2");
    let db = natality_db(rows12);
    let dims = natality_dims(&db, 2);
    let question = q_race(&db);
    // Columnar projections are built once per dataset, up front, under the
    // same `prepare` span `PreparedDb` uses — otherwise the lazy build
    // lands inside whichever phase touches `db.columns()` first and the
    // join span stops measuring the join.
    sink.time("prepare", || {
        let _ = db.columns();
    });
    let u = Universal::compute_with(&db, &db.full_view(), &exec);
    let engine = InterventionEngine::with_universal(&db, u.clone()).with_exec(exec.clone());
    naive::explanation_table_naive_with(&db, &engine, &question, &dims, &exec).unwrap();
    let config = CubeAlgoConfig::checked().with_exec(exec.clone());
    cube_algo::explanation_table(&db, &u, &question, &dims, config.clone()).unwrap();

    // Figure 13 workload: Algorithm 1 at d = 4, both questions — join and
    // cube counters at scale.
    let rows13 = if full { 400_000 } else { 40_000 };
    println!("figure 13 workload: cube, {rows13} natality rows, d = 4");
    let db13 = natality_db(rows13);
    sink.time("prepare", || {
        let _ = db13.columns();
    });
    let u13 = Universal::compute_with(&db13, &db13.full_view(), &exec);
    let dims13 = natality_dims(&db13, 4);
    cube_algo::explanation_table(&db13, &u13, &q_race(&db13), &dims13, config.clone()).unwrap();
    cube_algo::explanation_table(&db13, &u13, &q_marital(&db13), &dims13, config).unwrap();

    // Multi-relation DBLP pass so the Yannakakis semijoin counters fire
    // (natality is a single relation — nothing to reduce there).
    println!("dblp workload: semijoin reduction + universal relation");
    let dblp_db = dblp::generate(&dblp::DblpConfig::default());
    sink.time("prepare", || {
        let _ = dblp_db.columns();
    });
    let mut view = dblp_db.full_view();
    exq_relstore::semijoin::reduce_in_place_with(&dblp_db, &mut view, &exec);
    Universal::compute_with(&dblp_db, &view, &exec);

    // Cold explain on the figure-13 instance. Timed with a plain executor
    // so these extra runs leave the metrics snapshot above untouched; min
    // of three repetitions, to keep scheduler jitter out of the number.
    println!("cold explain, d = 4");
    let config = CubeAlgoConfig::checked().with_exec(ExecConfig::auto());
    let t_columnar = (0..3)
        .map(|_| {
            timed(|| {
                cube_algo::explanation_table(&db13, &u13, &q_race(&db13), &dims13, config.clone())
                    .unwrap()
            })
            .1
        })
        .min()
        .expect("three repetitions");
    println!("  columnar {t_columnar:?}");

    let snapshot = sink.snapshot();
    let doc = {
        use std::fmt::Write as _;
        let mut doc = String::from("{\n");
        let _ = writeln!(
            doc,
            "  \"cold_explain_ns\": {{ \"columnar\": {} }},",
            t_columnar.as_nanos(),
        );
        let snap = snapshot
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
        let _ = writeln!(doc, "  \"snapshot\": {snap}");
        doc.push('}');
        doc.push('\n');
        doc
    };
    std::fs::write("BENCH_pipeline.json", doc).expect("write BENCH_pipeline.json");
    println!(
        "\nwrote BENCH_pipeline.json ({} counters, {} spans)",
        snapshot.counters.len(),
        snapshot.spans.len()
    );
    let missing: Vec<String> = required_entries(BenchScope::Pipeline)
        .into_iter()
        .filter(|(kind, name)| match kind {
            EntryKind::Counter => !snapshot.counters.contains_key(*name),
            EntryKind::Span => !snapshot.spans.contains_key(*name),
            EntryKind::Hist => !snapshot.histograms.contains_key(*name),
        })
        .map(|(kind, name)| format!("{} {name}", kind.label()))
        .collect();
    assert!(
        missing.is_empty(),
        "catalogued metrics missing from the snapshot: {missing:?}"
    );
    println!(
        "all {} catalogued pipeline metrics present",
        required_entries(BenchScope::Pipeline).len()
    );
}

/// `repro loadtest` — exercise the exq-serve HTTP server on the DBLP
/// workload: measure cold (full pipeline) explain time, then hammer
/// `/v1/explain` with a fleet of parallel clients over a small set of
/// distinct questions so almost every request is a cache hit, and write
/// `BENCH_serve.json` with the latency distribution, cache hit rate,
/// and the server's final metrics snapshot. Asserts the ISSUE 4
/// acceptance bar: a cache-hit request is ≥10x faster than a cold
/// explain run over the same data.
///
/// Always follows up with [`router_phase`] — sharded workers behind an
/// in-process `exq-router` front — so the `router.*` catalogue scope
/// lands in `BENCH_serve.json`; the `--router` flag additionally
/// asserts the ISSUE 9 bar of ≥3x throughput at 4 workers vs 1.
fn loadtest(full: bool, router: bool) {
    header("Serve loadtest — /v1/explain latency and cache effectiveness (DBLP)");
    use exq_serve::{client, Catalog, ServerConfig};
    use std::fmt::Write as _;

    let question_text = include_str!("../../../../assets/questions/bump.exq");
    // 4x the default DBLP volume: cold explain time scales with the
    // data, cache-hit latency does not, so this keeps the ≥10x assertion
    // well clear of scheduler jitter on slow CI hosts.
    let gen_config = dblp::DblpConfig {
        papers_per_year_base: 240,
        authors_per_institution: 24,
        ..dblp::DblpConfig::default()
    };

    // Cold reference: everything a one-shot `exq explain` run does after
    // process startup — materialize the data, build the universal
    // relation, run Algorithm 1, rank. The real CLI additionally pays
    // process startup and CSV parsing, so the ≥10x bar below is
    // conservative.
    let (candidates, t_cold) = timed(|| {
        let db = dblp::generate(&gen_config);
        let question = bump_question(&db);
        let explainer = exq_core::explainer::Explainer::new(&db, question)
            .attr_names(&["Author.inst"])
            .unwrap();
        explainer.q_d().unwrap();
        let (table, _) = explainer.table().unwrap();
        let top = explainer.top(DegreeKind::Intervention, 5).unwrap();
        assert!(!top.is_empty());
        table.len()
    });
    println!("cold explain (generate + prepare + rank): {t_cold:?} ({candidates} candidates)");

    // The catalog starts one split behind the full instance: 10% of the
    // Authored rows are held back and appended live mid-test, so the run
    // exercises the delta-maintenance path and the epoch-keyed cache.
    let full_db = dblp::generate(&gen_config);
    let full_tuples = full_db.total_tuples();
    let (initial_db, append_batches) = split_dblp(&full_db, 2);
    let held_rows: usize = append_batches
        .iter()
        .flat_map(|b| b.iter().map(|(_, rows)| rows.len()))
        .sum();
    let mut catalog = Catalog::new();
    let (_, t_prepare) = timed(|| {
        catalog
            .insert_database("dblp", std::sync::Arc::new(initial_db), &ExecConfig::auto())
            .unwrap()
    });
    println!(
        "catalog preload (shared intermediates; {held_rows} Authored rows held back): {t_prepare:?}"
    );

    let threads = 4usize;
    let handle = exq_serve::start(
        catalog,
        ServerConfig {
            threads,
            ..ServerConfig::default()
        },
        MetricsSink::recording(),
    )
    .expect("bind loadtest server");
    let addr = handle.addr();

    // Distinct cache keys: the same question ranked at different top-K.
    let distinct = 4usize;
    let body_for = |top: usize| {
        format!(
            "{{\"dataset\": \"dblp\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": {top}}}",
            exq_obs::escape_json(question_text)
        )
    };
    let (_, t_warm) = timed(|| {
        for top in 1..=distinct {
            let response = client::post_json(addr, "/v1/explain", &body_for(top)).unwrap();
            assert_eq!(response.status, 200, "{}", response.text());
        }
    });
    println!("cache fill: {distinct} distinct questions in {t_warm:?}");

    // One report miss + one report hit, plus a few uncached GETs, so
    // every catalogued `server.latency.*` histogram and request-phase
    // span shows up in the snapshot below.
    for _ in 0..2 {
        let response = client::post_json(addr, "/v1/report", &body_for(1)).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }
    for path in [
        "/healthz",
        "/v1/health",
        "/v1/datasets",
        "/metrics",
        "/v1/debug/requests",
    ] {
        let response = client::get(addr, path).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
    }

    let clients = if full { 16usize } else { 8 };
    let per_client = if full { 200usize } else { 25 };
    let latencies: Vec<Duration> = std::thread::scope(|scope| {
        let body_for = &body_for;
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let body = body_for(1 + (c + i) % distinct);
                        let (response, t) =
                            timed(|| client::post_json(addr, "/v1/explain", &body).unwrap());
                        assert_eq!(response.status, 200, "{}", response.text());
                        lat.push(t);
                    }
                    lat
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });

    // Live-append phase: push the held-back rows batch by batch, with an
    // explain after each — the epoch bump keys the cache, so post-append
    // explains must miss and serve fresh data.
    let mut epoch = 0u64;
    for batch in &append_batches {
        let rows: usize = batch.iter().map(|(_, r)| r.len()).sum();
        let (response, t_append) = timed(|| {
            client::post_json(addr, "/v1/datasets/dblp/rows", &append_body(batch)).unwrap()
        });
        assert_eq!(response.status, 200, "{}", response.text());
        epoch += 1;
        let want = epoch.to_string();
        assert_eq!(response.header("x-exq-epoch"), Some(want.as_str()));
        println!("append batch ({rows} rows): {t_append:?} -> epoch {epoch}");
        let after = client::post_json(addr, "/v1/explain", &body_for(1)).unwrap();
        assert_eq!(after.status, 200, "{}", after.text());
    }

    // Byte-identity at the final epoch: a server rebuilt from scratch on
    // the full instance must serve the very same explain document. (This
    // re-ask is also the final epoch's cache hit.)
    let final_response = client::post_json(addr, "/v1/explain", &body_for(1)).unwrap();
    assert_eq!(final_response.status, 200, "{}", final_response.text());
    {
        let mut rebuilt = Catalog::new();
        rebuilt
            .insert_database("dblp", std::sync::Arc::new(full_db), &ExecConfig::auto())
            .unwrap();
        let reference = exq_serve::start(
            rebuilt,
            ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            },
            MetricsSink::recording(),
        )
        .expect("bind reference server");
        let expected = client::post_json(reference.addr(), "/v1/explain", &body_for(1)).unwrap();
        reference.shutdown();
        assert_eq!(expected.status, 200, "{}", expected.text());
        assert_eq!(
            scrub_total_ns_and_epoch(&final_response.text()),
            scrub_total_ns_and_epoch(&expected.text()),
            "incremental dataset must serve byte-identical explains \
             (wall-clock span durations and cost epochs scrubbed) to a rebuild-from-scratch"
        );
        println!(
            "post-append explain is byte-identical to a rebuilt-from-scratch server \
             (span durations scrubbed)"
        );
    }

    // Rows in == rows stored: the dataset grew to exactly the full
    // instance (checked through the public catalog listing).
    let datasets = client::get(addr, "/v1/datasets").unwrap();
    assert_eq!(datasets.status, 200);
    let listing = datasets.text();
    assert!(
        listing.contains(&format!("\"tuples\": {full_tuples}")),
        "dataset must hold all {full_tuples} tuples after the appends: {listing}"
    );
    assert!(listing.contains(&format!("\"epoch\": {epoch}")));

    let snapshot = handle.shutdown();

    // Router tier: run the sharded-front phase now so its section (and
    // the full `router.*` catalogue scope) lands in BENCH_serve.json.
    let router_doc = router_phase(full, router);

    // Client-observed latency distribution through the obs histogram —
    // the same log-bucketed sketch the server keeps per endpoint, so
    // the client and server sides of BENCH_serve.json are comparable.
    // Quantiles are bucket upper bounds (within one sub-bucket width,
    // ~25% relative, of the exact order statistic).
    let mut sketch = exq_obs::Histogram::new();
    let mut max_ns = 0u64;
    for d in &latencies {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        sketch.record(ns);
        max_ns = max_ns.max(ns);
    }
    let pct = |q: f64| Duration::from_nanos(sketch.quantile(q));
    let (p50, p95, p99) = (pct(0.50), pct(0.95), pct(0.99));
    let hits = snapshot.counter("server.cache.hits");
    let misses = snapshot.counter("server.cache.misses");
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let speedup = t_cold.as_secs_f64() / p50.as_secs_f64().max(1e-9);

    println!(
        "{} requests from {clients} clients against {threads} workers",
        latencies.len()
    );
    println!("latency: p50 <= {p50:?}, p95 <= {p95:?}, p99 <= {p99:?} (histogram bounds)");
    println!("cache: {hits} hits / {misses} misses (hit rate {hit_rate:.3})");
    println!("cache-hit speedup over cold explain: {speedup:.1}x");

    let mut doc = String::from("{\n");
    let _ = writeln!(
        doc,
        "  \"workload\": {{ \"clients\": {clients}, \"requests\": {}, \"distinct_questions\": {distinct}, \"server_threads\": {threads} }},",
        latencies.len()
    );
    let _ = writeln!(
        doc,
        "  \"latency_ns\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }},",
        p50.as_nanos(),
        p95.as_nanos(),
        p99.as_nanos(),
        max_ns
    );
    let _ = writeln!(doc, "  \"cold_explain_ns\": {},", t_cold.as_nanos());
    let _ = writeln!(doc, "  \"cache_hit_speedup\": {speedup:.1},");
    let _ = writeln!(
        doc,
        "  \"ingest\": {{ \"batches\": {}, \"rows_appended\": {held_rows} }},",
        append_batches.len()
    );
    let _ = writeln!(
        doc,
        "  \"cache\": {{ \"hits\": {hits}, \"misses\": {misses}, \"hit_rate\": {hit_rate:.4} }},"
    );
    doc.push_str(&router_doc);
    let snap = snapshot
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
    let _ = writeln!(doc, "  \"snapshot\": {snap}");
    doc.push_str("}\n");
    std::fs::write("BENCH_serve.json", doc).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    // Counter conservation against our own client-side tallies (the
    // invariant documented next to `span:server.request.parse` in
    // assets/obs/counters.txt): the parse span fires once per routed
    // question POST body — GETs carry no parameter body, append bodies
    // parse under `server.request.append`, and reader-level rejects
    // never reach routing — and `server.requests` counts every routed
    // request (question POSTs + append POSTs + GETs).
    let appends = append_batches.len() as u64;
    // Question POSTs: cache fill + two reports + the hammer loop + one
    // explain per append + the final byte-identity re-ask.
    let posts = (distinct + 2 + clients * per_client) as u64 + appends + 1;
    let gets = 6u64;
    let parse_spans = snapshot
        .spans
        .get("server.request.parse")
        .map_or(0, |s| s.count);
    assert_eq!(
        parse_spans, posts,
        "parse spans must equal routed question POST requests"
    );
    assert_eq!(
        snapshot.counter("server.requests"),
        posts + appends + gets,
        "server.requests must equal routed POSTs + GETs"
    );

    // Ingest conservation: every appended row is counted once, every
    // batch bumped the epoch exactly once.
    assert_eq!(snapshot.counter("server.append.runs"), appends);
    assert_eq!(snapshot.counter("ingest.epoch_bumps"), appends);
    assert_eq!(snapshot.counter("ingest.rows_appended"), held_rows as u64);

    // The explain fill, the single report warm-up, and one explain per
    // append (new epoch, new cache key) are the only permitted misses;
    // the hammer loop and the final re-ask must be all hits.
    assert_eq!(
        misses,
        distinct as u64 + 1 + appends,
        "only fill and post-append requests may miss"
    );
    assert!(
        speedup >= 10.0,
        "cache-hit /v1/explain must be >= 10x faster than a cold explain \
         (cold {t_cold:?}, hit p50 {p50:?}, speedup {speedup:.1}x)"
    );
}

/// The router tier phase of `repro loadtest`: boot W sharded workers
/// behind an in-process `exq-router` front (worker addresses published
/// straight into the front's upstream pools — no child processes, so
/// the phase is hermetic and fast), then
///
/// 1. hammer `/v1/explain` with all-miss requests at W=1 and W=4 and
///    measure throughput (the ≥3x scaling bar is asserted under
///    `--router`),
/// 2. prove responses through the front are byte-identical to a
///    single-process server holding the whole catalog,
/// 3. kill one worker mid-run and show the storm yields only bounded
///    `503 Retry-After` answers — never a wrong one — then full
///    recovery once a replacement worker is published.
///
/// Returns the `"router": {…}` section for `BENCH_serve.json`,
/// including the 4-worker front's final metrics snapshot (which pins
/// the whole fixed-name `router.*` catalogue scope).
fn router_phase(full: bool, assert_scaling: bool) -> String {
    use exq_router::{Front, FrontConfig, ShardMap};
    use exq_serve::{client, Catalog, ServerConfig};
    use std::fmt::Write as _;
    use std::net::SocketAddr;
    use std::sync::Arc;

    println!();
    header("Router tier — sharded workers behind one front (1 vs 4 workers)");

    let gen_config = dblp::DblpConfig {
        papers_per_year_base: if full { 24 } else { 12 },
        authors_per_institution: if full { 8 } else { 6 },
        ..dblp::DblpConfig::default()
    };
    let db = Arc::new(dblp::generate(&gen_config));
    let question_text = include_str!("../../../../assets/questions/bump.exq");
    let body_for = |dataset: &str, top: usize| {
        format!(
            "{{\"dataset\": \"{dataset}\", \"question\": \"{}\", \"attrs\": [\"Author.inst\"], \"top\": {top}}}",
            exq_obs::escape_json(question_text)
        )
    };

    // Four dataset names chosen so the 4-worker hash ring gives each
    // worker exactly one: the hammer then spreads evenly and the 1 → 4
    // ratio measures worker parallelism, not ring luck.
    const WORKERS_HIGH: usize = 4;
    let map = ShardMap::new(WORKERS_HIGH);
    let mut names: Vec<String> = Vec::new();
    let mut owned = [false; WORKERS_HIGH];
    for i in 0.. {
        if names.len() == WORKERS_HIGH {
            break;
        }
        let candidate = format!("dblp-{i}");
        let shard = map.shard_of(&candidate);
        if !owned[shard] {
            owned[shard] = true;
            names.push(candidate);
        }
    }

    // Boot a W-worker topology: each worker is a real `exq_serve`
    // server (1 thread, so capacity scales with W alone) owning its
    // ring-assigned slice of the catalog.
    let boot = |workers: usize, sink: MetricsSink| {
        let front = Front::start_on(
            "127.0.0.1:0",
            FrontConfig {
                threads: 8,
                workers,
                per_worker_connections: 1,
                // The hammer intentionally queues 8 clients on 1-thread
                // workers; prefer queueing to shedding so throughput is
                // measured, not 503 counts.
                upstream_wait: Duration::from_secs(30),
                datasets: names.clone(),
                ..FrontConfig::default()
            },
            sink,
        )
        .expect("bind router front");
        let map = ShardMap::new(workers);
        let mut handles: Vec<Option<exq_serve::Handle>> = Vec::new();
        for (shard, group) in map
            .partition(names.iter().map(String::as_str))
            .into_iter()
            .enumerate()
        {
            let mut catalog = Catalog::new();
            for name in group {
                catalog
                    .insert_database(name, Arc::clone(&db), &ExecConfig::auto())
                    .unwrap();
            }
            let handle = exq_serve::start(
                catalog,
                ServerConfig {
                    threads: 1,
                    shard_id: Some(shard as u64),
                    // A zero slow bound retains every trace: the fleet
                    // phase below asserts a retained trace is
                    // retrievable by its Prometheus exemplar id.
                    trace_slow_ms: Some(0),
                    ..ServerConfig::default()
                },
                MetricsSink::recording(),
            )
            .expect("bind shard worker");
            front.upstreams().set_addr(shard, Some(handle.addr()));
            handles.push(Some(handle));
        }
        (handles, front)
    };

    // All-miss hammer: every request carries a fresh top-K, so every
    // request runs a real explain on its worker — the per-request work
    // the extra workers are supposed to parallelize.
    let clients = 8usize;
    let per_client = if full { 40 } else { 12 };
    let hammer = |front_addr: SocketAddr, tag: &str| {
        let names = &names;
        let body_for = &body_for;
        let (total, elapsed) = timed(|| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..clients)
                    .map(|c| {
                        scope.spawn(move || {
                            for i in 0..per_client {
                                let dataset = &names[(c + i) % names.len()];
                                let top = 1 + c * per_client + i;
                                let body = body_for(dataset, top);
                                let response =
                                    client::post_json(front_addr, "/v1/explain", &body).unwrap();
                                assert_eq!(response.status, 200, "{}", response.text());
                            }
                        })
                    })
                    .collect();
                for w in workers {
                    w.join().unwrap();
                }
            });
            clients * per_client
        });
        let rps = total as f64 / elapsed.as_secs_f64().max(1e-9);
        println!("{tag}: {total} all-miss explains in {elapsed:?} ({rps:.0} req/s)");
        (total, rps)
    };

    let (handles1, front1) = boot(1, MetricsSink::recording());
    let (total, rps1) = hammer(front1.addr(), "1 worker ");
    for handle in handles1.into_iter().flatten() {
        handle.shutdown();
    }
    front1.shutdown();

    let (mut handles4, front4) = boot(WORKERS_HIGH, MetricsSink::recording());
    let (_, rps4) = hammer(front4.addr(), "4 workers");
    let speedup = rps4 / rps1.max(1e-9);
    println!("router scaling 1 -> {WORKERS_HIGH} workers: {speedup:.2}x throughput");
    if assert_scaling {
        assert!(
            speedup >= 3.0,
            "--router demands >=3x throughput at {WORKERS_HIGH} workers vs 1 (got {speedup:.2}x)"
        );
    }

    // Byte-identity: the same question through the front must yield the
    // very bytes a single-process server holding the whole catalog
    // serves (span durations scrubbed, as elsewhere).
    let mut reference_catalog = Catalog::new();
    for name in &names {
        reference_catalog
            .insert_database(name, Arc::clone(&db), &ExecConfig::auto())
            .unwrap();
    }
    let reference = exq_serve::start(
        reference_catalog,
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
        MetricsSink::recording(),
    )
    .expect("bind reference server");
    let mut reference_bodies = Vec::new();
    for name in &names {
        let body = body_for(name, 3);
        let through = client::post_json(front4.addr(), "/v1/explain", &body).unwrap();
        let direct = client::post_json(reference.addr(), "/v1/explain", &body).unwrap();
        assert_eq!(through.status, 200, "{}", through.text());
        assert_eq!(direct.status, 200, "{}", direct.text());
        assert_eq!(
            scrub_total_ns(&through.text()),
            scrub_total_ns(&direct.text()),
            "{name}: routed explain must be byte-identical to a single-process server"
        );
        reference_bodies.push(scrub_total_ns(&direct.text()));
    }
    reference.shutdown();
    println!("byte-identity: all {WORKERS_HIGH} routed explains match a single-process server");

    // Kill-storm: take the worker owning names[0] down mid-run. Every
    // answer during the outage must be a bounded 503 + Retry-After
    // (clients' retry dialect) — never a wrong answer, never a hang —
    // and the surviving shards must keep serving.
    let victim = map.shard_of(&names[0]);
    handles4[victim].take().unwrap().shutdown();
    front4.upstreams().set_addr(victim, None);
    let storm = 20usize;
    let mut storm_503s = 0usize;
    for _ in 0..storm {
        let down =
            client::post_json(front4.addr(), "/v1/explain", &body_for(&names[0], 3)).unwrap();
        assert_eq!(down.status, 503, "{}", down.text());
        assert!(down.header("retry-after").is_some());
        storm_503s += 1;
        let alive =
            client::post_json(front4.addr(), "/v1/explain", &body_for(&names[1], 3)).unwrap();
        assert_eq!(alive.status, 200, "{}", alive.text());
    }

    // Recovery: publish a replacement worker (fresh catalog slice, same
    // data) and probe until the shard answers again — with the very
    // bytes it served before the kill.
    let mut catalog = Catalog::new();
    for name in map.partition(names.iter().map(String::as_str))[victim].iter() {
        catalog
            .insert_database(name, Arc::clone(&db), &ExecConfig::auto())
            .unwrap();
    }
    let replacement = exq_serve::start(
        catalog,
        ServerConfig {
            threads: 1,
            shard_id: Some(victim as u64),
            trace_slow_ms: Some(0),
            ..ServerConfig::default()
        },
        MetricsSink::recording(),
    )
    .expect("bind replacement worker");
    front4
        .upstreams()
        .set_addr(victim, Some(replacement.addr()));
    handles4[victim] = Some(replacement);
    let mut recovery_probes = 0usize;
    loop {
        recovery_probes += 1;
        let probe =
            client::post_json(front4.addr(), "/v1/explain", &body_for(&names[0], 3)).unwrap();
        if probe.status == 200 {
            assert_eq!(
                scrub_total_ns(&probe.text()),
                reference_bodies[0],
                "post-recovery explain must match the pre-kill bytes"
            );
            break;
        }
        assert_eq!(probe.status, 503, "{}", probe.text());
        assert!(recovery_probes < 50, "shard never recovered");
        std::thread::sleep(Duration::from_millis(20));
    }
    println!(
        "kill-storm: {storm_503s} bounded 503s while down, recovered in {recovery_probes} probe(s), 0 wrong answers"
    );

    // Fleet observability: one scrape through the front, then each
    // worker directly, and exact counter conservation between the two.
    // The offset is deterministic: `server.requests` is incremented
    // before the snapshot is taken, so a worker's own scrape GET counts
    // itself — each direct scrape therefore reads its fleet-scrape
    // value plus exactly one.
    let fleet_response = client::get(front4.addr(), "/v1/metrics?format=snapshot").unwrap();
    assert_eq!(fleet_response.status, 200, "{}", fleet_response.text());
    let (fleet, _) =
        exq_obs::decode_snapshot(&fleet_response.text()).expect("fleet snapshot must decode");
    let fleet_requests = fleet.counter("server.requests");
    assert_eq!(
        fleet.counter("router.scrape.partial"),
        0,
        "all shards are live: the fleet scrape must be complete"
    );
    let shard_sum: u64 = (0..WORKERS_HIGH)
        .map(|shard| fleet.counter(&format!("server.requests.shard.{shard}")))
        .sum();
    assert_eq!(
        shard_sum, fleet_requests,
        "per-shard labelled copies must sum to the fleet aggregate"
    );
    let mut direct_sum = 0u64;
    for handle in handles4.iter().flatten() {
        let direct = client::get(handle.addr(), "/v1/metrics?format=snapshot").unwrap();
        assert_eq!(direct.status, 200, "{}", direct.text());
        let (snap, _) =
            exq_obs::decode_snapshot(&direct.text()).expect("worker snapshot must decode");
        direct_sum += snap.counter("server.requests");
    }
    assert_eq!(
        direct_sum,
        fleet_requests + WORKERS_HIGH as u64,
        "fleet scrape must conserve server.requests across shards"
    );

    // The fleet exposition is checker-clean and carries a retained
    // trace's exemplar; that very trace must be retrievable through the
    // front's merged /v1/debug/traces fan-in.
    let prom = client::get(front4.addr(), "/metrics").unwrap();
    assert_eq!(prom.status, 200, "{}", prom.text());
    let prom_text = prom.text();
    exq_obs::check_prometheus(&prom_text)
        .unwrap_or_else(|e| panic!("fleet exposition must be checker-clean: {e}\n{prom_text}"));
    let exemplar_id: u64 = prom_text
        .lines()
        .find_map(|line| {
            line.strip_prefix("# exemplar ")?
                .rsplit_once("trace_id=")?
                .1
                .parse()
                .ok()
        })
        .expect("fleet exposition must carry at least one exemplar");
    let traces = client::get(front4.addr(), "/v1/debug/traces").unwrap();
    assert_eq!(traces.status, 200, "{}", traces.text());
    assert!(
        traces
            .text()
            .contains(&format!("\"trace_id\": {exemplar_id}")),
        "exemplar trace {exemplar_id} must be retrievable through the front"
    );
    println!(
        "fleet scrape: server.requests {fleet_requests} conserved across {WORKERS_HIGH} shards \
         (+{WORKERS_HIGH} self-scrapes), exemplar trace {exemplar_id} retained and retrievable"
    );

    for handle in handles4.into_iter().flatten() {
        handle.shutdown();
    }
    let front_snapshot = front4.shutdown();

    let mut doc = String::new();
    let _ = writeln!(doc, "  \"router\": {{");
    let _ = writeln!(
        doc,
        "    \"scaling\": {{ \"workers\": [1, {WORKERS_HIGH}], \"requests_per_run\": {total}, \"rps_1_worker\": {rps1:.1}, \"rps_{WORKERS_HIGH}_workers\": {rps4:.1}, \"speedup\": {speedup:.2} }},"
    );
    let _ = writeln!(
        doc,
        "    \"storm\": {{ \"throttled_503s\": {storm_503s}, \"recovery_probes\": {recovery_probes}, \"wrong_answers\": 0 }},"
    );
    let _ = writeln!(
        doc,
        "    \"fleet\": {{ \"shards\": {WORKERS_HIGH}, \"requests_at_scrape\": {fleet_requests}, \"scrape_partial\": 0 }},"
    );
    let snap = front_snapshot
        .to_json()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("    {l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    let _ = writeln!(doc, "    \"snapshot\": {snap}");
    doc.push_str("  },\n");
    doc
}

/// `repro incremental` — live-append amortized cost and incremental-vs-
/// rebuild explain medians on DBLP, via the same `Dataset` epoch state
/// the server uses (no HTTP, so the snapshot isolates the ingest path).
/// Every epoch is differentially checked: the incrementally maintained
/// `PreparedDb` must produce the same explanation table a rebuild from
/// scratch does. Writes `BENCH_incremental.json` and asserts the ISSUE 8
/// acceptance bar: serving a fresh explanation through incremental
/// maintenance is ≥5x faster than rebuilding the prepared intermediates.
fn incremental(full: bool) {
    header("Incremental ingestion — live appends vs rebuild-from-scratch (DBLP)");
    use exq_core::prepared::PreparedDb;
    use exq_serve::{Catalog, INGEST_COUNTERS};
    use std::fmt::Write as _;
    use std::sync::Arc;

    let gen_config = dblp::DblpConfig {
        papers_per_year_base: if full { 240 } else { 120 },
        authors_per_institution: if full { 24 } else { 12 },
        ..dblp::DblpConfig::default()
    };
    let full_db = dblp::generate(&gen_config);
    let full_tuples = full_db.total_tuples();
    let (initial_db, batches) = split_dblp(&full_db, 5);
    let initial_tuples = initial_db.total_tuples();

    // Pre-register the pinned ingest counters at zero (the server does
    // the same at startup), then build the catalog under the recording
    // sink so the delta-maintenance counters and spans land in the
    // snapshot.
    let sink = MetricsSink::recording();
    for name in INGEST_COUNTERS {
        sink.add(name, 0);
    }
    let exec = ExecConfig::auto().with_metrics(sink.clone());
    let mut catalog = Catalog::new();
    let (_, t_prepare) = timed(|| {
        catalog
            .insert_database("dblp", Arc::new(initial_db), &exec)
            .unwrap()
    });
    let dataset = catalog.get("dblp").expect("dataset just inserted");
    println!(
        "initial prepare: {initial_tuples} tuples in {t_prepare:?}; appending {} rows in {} batches",
        full_tuples - initial_tuples,
        batches.len()
    );

    let table_of = |prepared: &PreparedDb| {
        prepared
            .explainer(bump_question(prepared.db()))
            .attr_names(&["Author.inst"])
            .unwrap()
            .table()
            .unwrap()
            .0
    };

    // The rebuild reference runs on a plain executor so it cannot
    // contaminate the ingest snapshot. Each epoch it re-prepares from the
    // raw rows alone — `materialize` yields a store with no columnar
    // cache, so the rebuild pays the full column + join + semijoin cost a
    // server restart would, which is exactly what delta maintenance
    // replaces.
    let plain = ExecConfig::auto();
    let (mut t_appends, mut t_explains, mut t_rebuilds) = (Vec::new(), Vec::new(), Vec::new());
    let mut appended_total = 0usize;
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>12} {:>9}",
        "epoch", "rows", "append", "explain", "rebuild", "speedup"
    );
    for batch in &batches {
        let rows: usize = batch.iter().map(|(_, r)| r.len()).sum();
        let batch = batch.clone();
        let (result, t_append) = timed(|| dataset.append(batch, &exec));
        let (epoch, appended) = result.expect("append batch");
        assert_eq!(appended, rows);
        appended_total += appended;

        let (prepared, snap_epoch) = dataset.snapshot();
        assert_eq!(snap_epoch, epoch);
        let (incremental_table, t_explain) = timed(|| table_of(&prepared));

        let raw = prepared.db().materialize(&prepared.db().full_view());
        let (rebuilt, t_rebuild) = timed(|| PreparedDb::build_with(Arc::new(raw.clone()), &plain));
        let rebuilt_table = table_of(&rebuilt);
        assert_eq!(
            incremental_table, rebuilt_table,
            "epoch {epoch}: incremental explain diverged from the rebuild"
        );
        let per_epoch = t_rebuild.as_secs_f64() / t_append.as_secs_f64().max(1e-9);
        println!(
            "{:>6} {:>6} {:>12?} {:>12?} {:>12?} {:>8.1}x",
            epoch, rows, t_append, t_explain, t_rebuild, per_epoch
        );
        t_appends.push(t_append);
        t_explains.push(t_explain);
        t_rebuilds.push(t_rebuild);
    }

    // Conservation: rows in == rows stored, one epoch bump per batch.
    let (prepared, epoch) = dataset.snapshot();
    assert_eq!(epoch, batches.len() as u64);
    assert_eq!(prepared.db().total_tuples(), full_tuples);
    assert_eq!(initial_tuples + appended_total, full_tuples);
    let snapshot = sink.snapshot();
    assert_eq!(
        snapshot.counter("ingest.rows_appended"),
        appended_total as u64
    );
    assert_eq!(snapshot.counter("ingest.epoch_bumps"), batches.len() as u64);

    let t_append_total: Duration = t_appends.iter().sum();
    let amortized_ns = t_append_total.as_nanos() as f64 / appended_total.max(1) as f64;
    let append_median = median(&t_appends);
    let explain_median = median(&t_explains);
    let rebuild_median = median(&t_rebuilds);
    let speedup = rebuild_median.as_secs_f64() / append_median.as_secs_f64().max(1e-9);
    println!("\namortized append cost: {amortized_ns:.0} ns/row over {appended_total} rows");
    println!(
        "keeping explanations fresh: delta maintenance {append_median:?} vs \
         rebuild-from-scratch {rebuild_median:?} per epoch, speedup {speedup:.1}x \
         (explain itself is epoch-independent: {explain_median:?} on the maintained state)"
    );

    let mut doc = String::from("{\n");
    let _ = writeln!(
        doc,
        "  \"workload\": {{ \"initial_tuples\": {initial_tuples}, \"rows_appended\": {appended_total}, \"batches\": {} }},",
        batches.len()
    );
    let _ = writeln!(doc, "  \"amortized_append_ns_per_row\": {amortized_ns:.0},");
    let _ = writeln!(
        doc,
        "  \"maintenance_ns\": {{ \"append_median\": {}, \"rebuild_median\": {}, \"speedup\": {speedup:.1} }},",
        append_median.as_nanos(),
        rebuild_median.as_nanos()
    );
    let _ = writeln!(
        doc,
        "  \"explain_ns\": {{ \"median_on_maintained\": {} }},",
        explain_median.as_nanos()
    );
    let snap = snapshot
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
    let _ = writeln!(doc, "  \"snapshot\": {snap}");
    doc.push_str("}\n");
    std::fs::write("BENCH_incremental.json", doc).expect("write BENCH_incremental.json");
    println!("wrote BENCH_incremental.json");

    // The regression gate CI relies on: incremental maintenance must
    // keep beating a from-scratch rebuild by a wide margin. (The explain
    // itself runs on identical intermediates either way, so the bar is on
    // the maintenance work an append actually adds.)
    assert!(
        speedup >= 5.0,
        "incremental maintenance must be >= 5x faster than a full rebuild \
         (append {append_median:?} vs rebuild {rebuild_median:?}, {speedup:.1}x)"
    );
    let missing: Vec<String> = required_entries(BenchScope::Incremental)
        .into_iter()
        .filter(|(kind, name)| match kind {
            EntryKind::Counter => !snapshot.counters.contains_key(*name),
            EntryKind::Span => !snapshot.spans.contains_key(*name),
            EntryKind::Hist => !snapshot.histograms.contains_key(*name),
        })
        .map(|(kind, name)| format!("{} {name}", kind.label()))
        .collect();
    assert!(
        missing.is_empty(),
        "catalogued metrics missing from the snapshot: {missing:?}"
    );
    println!(
        "all {} catalogued incremental metrics present",
        required_entries(BenchScope::Incremental).len()
    );
}

/// Check a bench snapshot (`BENCH_pipeline.json` from `pipeline`, or
/// `BENCH_serve.json` from `loadtest`) against the committed counter
/// catalogue: the file must be a well-formed metrics document and every
/// counter catalogued for `scope` must be present. Exits 1 on any
/// failure so CI can gate on it.
fn validate_bench(path: &str, scope: BenchScope) {
    let fail = |msg: String| -> ! {
        eprintln!("error: {msg}");
        std::process::exit(1);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => fail(format!("{path}: {e}")),
    };
    // Structural sanity: one JSON object with balanced braces outside
    // strings and a counters section.
    let (mut depth, mut max_depth, mut in_str, mut esc) = (0i64, 0i64, false, false);
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
            '{' | '[' => {
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            '}' | ']' => {
                depth -= 1;
                if depth < 0 {
                    fail(format!("{path}: unbalanced JSON"));
                }
            }
            _ => {}
        }
    }
    if depth != 0 || in_str || max_depth == 0 {
        fail(format!("{path}: not a complete JSON document"));
    }
    if !text.contains("\"counters\": {")
        || !text.contains("\"spans\": {")
        || !text.contains("\"histograms\": {")
    {
        fail(format!("{path}: not a metrics snapshot"));
    }
    // Kind-aware presence checks: counters render as `"name": N`, spans
    // as `"name": { "count": ...`, histograms as `"name": { "kind": ...`.
    let missing: Vec<String> = required_entries(scope)
        .into_iter()
        .filter(|(kind, name)| {
            let probe = match kind {
                EntryKind::Counter => format!("\"{name}\": "),
                EntryKind::Span => format!("\"{name}\": {{ \"count\""),
                EntryKind::Hist => format!("\"{name}\": {{ \"kind\""),
            };
            !text.contains(&probe)
        })
        .map(|(kind, name)| format!("{} {name}", kind.label()))
        .collect();
    if !missing.is_empty() {
        fail(format!(
            "{path}: missing catalogued {} metrics: {}",
            scope.name(),
            missing.join(", ")
        ));
    }
    // Cross-check the catalogue against the source tree (every entry
    // has an emit site and vice versa) when run from a workspace
    // checkout — the same audit `exq lint` runs, so a stale
    // counters.txt fails here too, not only in the lint job.
    match std::env::current_dir()
        .ok()
        .and_then(|d| exq_lint::find_workspace_root(&d))
    {
        Some(root) => {
            let sources = match exq_lint::collect_sources(&root) {
                Ok(s) => s,
                Err(e) => fail(format!("catalogue cross-check: {e}")),
            };
            let diags = match exq_lint::audit::counters_audit(&root, &sources) {
                Ok(d) => d,
                Err(e) => fail(format!("catalogue cross-check: {e}")),
            };
            if !diags.is_empty() {
                for d in &diags {
                    eprintln!(
                        "{} {}:{}:{} {}",
                        d.code, d.file, d.span.line, d.span.col, d.message
                    );
                }
                fail(format!(
                    "assets/obs/counters.txt disagrees with the source tree \
                     ({} problem(s) above)",
                    diags.len()
                ));
            }
            println!("ok: counters.txt matches the source tree's emit sites");
        }
        None => println!("note: not in a workspace checkout; emit-site cross-check skipped"),
    }
    println!(
        "ok: {path} has all {} catalogued {} metrics",
        required_entries(scope).len(),
        scope.name()
    );
}

/// Check a Prometheus text-exposition dump (a curl of `GET /metrics`)
/// with the in-repo checker: HELP/TYPE ordering, legal names, monotone
/// cumulative histogram buckets with a terminal `le="+Inf"`. Exits 1 on
/// any failure so CI can gate on it.
fn validate_prom(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = exq_obs::check_prometheus(&text) {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    }
    println!("ok: {path} is well-formed Prometheus text exposition");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map(String::as_str).unwrap_or("all");
    let full = args.iter().skip(2).any(|a| a == "full");
    let router = args.iter().skip(2).any(|a| a == "--router");
    let nat_rows = if full { 4_000_000 } else { 200_000 };

    match which {
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig6" => fig6(),
        "fig7" | "fig8" | "fig9" => fig7_8_9(nat_rows),
        "fig10" | "fig11" => fig10_11(nat_rows),
        "fig12" => fig12(full),
        "fig13" => fig13(full),
        "fig14" => fig14(full),
        "fig15" => fig15(),
        "ex37" => ex37(),
        "ex41" => ex41(),
        "ablation" => ablation_cube(full),
        "scaling" => scaling(full),
        "hybrid" => hybrid_table(),
        "agreement" => agreement_table(nat_rows),
        "pipeline" => pipeline(full),
        "loadtest" => loadtest(full, router),
        "incremental" => incremental(full),
        "validate-bench" => match args.get(2) {
            Some(path) => {
                let scope = match args.get(3).map(String::as_str) {
                    Some("pipeline") => BenchScope::Pipeline,
                    Some("serve") => BenchScope::Serve,
                    Some("incremental") => BenchScope::Incremental,
                    Some(other) => {
                        eprintln!("unknown scope `{other}`; expected pipeline|serve|incremental");
                        std::process::exit(2);
                    }
                    // Default the scope from the file name.
                    None if path.contains("incremental") => BenchScope::Incremental,
                    None if path.contains("serve") => BenchScope::Serve,
                    None => BenchScope::Pipeline,
                };
                validate_bench(path, scope)
            }
            None => {
                eprintln!("usage: repro validate-bench FILE [pipeline|serve|incremental]");
                std::process::exit(2);
            }
        },
        "validate-prom" => match args.get(2) {
            Some(path) => validate_prom(path),
            None => {
                eprintln!("usage: repro validate-prom FILE");
                std::process::exit(2);
            }
        },
        "export" => export(args.get(2).map(String::as_str).unwrap_or("export"), 100_000),
        "all" => {
            fig1();
            fig2();
            fig6();
            ex41();
            ex37();
            fig7_8_9(nat_rows);
            fig10_11(nat_rows);
            fig12(full);
            fig13(full);
            fig14(full);
            fig15();
            ablation_cube(full);
            scaling(full);
            hybrid_table();
            agreement_table(nat_rows);
            pipeline(full);
            loadtest(full, router);
            incremental(full);
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of fig1 fig2 fig6 fig7 fig8 fig9 \
                 fig10 fig11 fig12 fig13 fig14 fig15 ex37 ex41 ablation scaling hybrid \
                 agreement pipeline loadtest incremental validate-bench validate-prom export all"
            );
            std::process::exit(2);
        }
    }
}
