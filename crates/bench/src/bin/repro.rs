//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage: `repro <experiment> [full]` where `<experiment>` is one of
//! `fig1 fig2 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//! ex37 ex41 ablation scaling hybrid agreement export all`, or
//! `repro validate-prom FILE` to check a Prometheus text-exposition
//! dump (e.g. a curl of `GET /metrics`) for well-formedness. The
//! optional `full` flag runs the timing sweeps at
//! paper scale (millions of rows); the default keeps every experiment
//! under a few seconds. Build with `--release` for meaningful timings.
//!
//! Figures 1, 2, 7–11 and 15 and Example 3.7 are computed by the
//! `exq-bench` library, whose tests assert the paper's claims on the same
//! rows; this binary prints them. The timing sweeps live here.
//!
//! This binary reproduces the paper; it is not the performance
//! yardstick. Serving, ingestion and per-layer costs are measured by the
//! standalone `benchmark/` package.

use exq_bench::{
    ex37, fig1, fig10_11, fig15, fig2, fig7_9, natality_db, natality_dims, q_marital, q_race, timed,
};
use exq_core::causal::DataCausalGraph;
use exq_core::explanation::Explanation;
use exq_core::intervention::InterventionEngine;
use exq_core::prelude::*;
use exq_core::{cube_algo, naive, topk};
use exq_datagen::{dblp, paper_examples};
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::CubeStrategy;
use exq_relstore::{Atom, Database, ExecConfig, Predicate, Universal, Value};
use std::sync::Arc;
use std::time::Duration;

fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn fig1() {
    header("Figure 1 — SIGMOD publications in five-year windows, com vs edu");
    println!("{:<12} {:>8} {:>8}", "window", "com", "edu");
    for w in fig1::fig1() {
        let years = format!("{}-{}", w.years.0, w.years.1);
        println!("{:<12} {:>8} {:>8}", years, w.com, w.edu);
    }
}

fn fig2() {
    header("Figure 2 — top explanations for the bump (by intervention)");
    let fig = fig2::fig2();
    println!("Q(D) = {:.3} (dir = high)", fig.q_d);
    println!(
        "table M: {} candidates, computed in {:?}",
        fig.candidates, fig.table_time
    );
    println!("{:<4} explanation", "rank");
    for r in fig.top {
        println!(
            "{:<4} {}  (mu_interv = {:.4})",
            r.rank, r.explanation, r.degree
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
    use fig7_9::{APGAR, MARITAL, RACES};
    header("Figures 7/8/9 — natality contingency tables and ratios");
    let fig = fig7_9::fig7_9(rows);
    println!("rows = {rows}");
    println!("\nFigure 7 — AP x Race:");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9}",
        "AP", "White", "Black", "AmInd", "Asian"
    );
    for (ap, r) in APGAR.iter().zip(fig.ap_race) {
        println!("{:<6} {:>9} {:>9} {:>9} {:>9}", ap, r[0], r[1], r[2], r[3]);
    }
    println!("\nFigure 7 — AP x Marital:");
    println!("{:<6} {:>9} {:>9}", "AP", "married", "unmarr.");
    for (ap, r) in APGAR.iter().zip(fig.ap_marital) {
        println!("{:<6} {:>9} {:>9}", ap, r[0], r[1]);
    }
    println!("\nFigure 8 — good/poor ratio by race (Q_Race observation):");
    for (r, ratio) in RACES.iter().zip(fig.race_ratio) {
        println!("  {:<6} {:.1}", r, ratio);
    }
    println!("\nFigure 9 — good/poor ratio by marital status (Q_Marital observation):");
    for (m, ratio) in MARITAL.iter().zip(fig.marital_ratio) {
        println!("  {:<10} {:.1}", m, ratio);
    }
    println!("\nQ_Race(D)    = {:.2}", fig.q_race);
    println!(
        "Q'_Race(D)   = {:.2} (Asian ratio vs Black ratio)",
        fig.q_race_prime
    );
    println!("Q_Marital(D) = {:.2}", fig.q_marital);
}

fn fig10_11(rows: usize) {
    header("Figures 10/11 — top minimal explanations (natality)");
    for tops in fig10_11::fig10_11(rows) {
        println!("\n--- {} (Q(D) = {:.2}) ---", tops.question, tops.q_d);
        println!("Figure 10 — top-5 minimal by intervention:");
        for r in tops.by_intervention {
            println!(
                "  {}. {}  (mu_interv = {:.3})",
                r.rank, r.explanation, r.degree
            );
        }
        println!("Figure 11 — top-3 minimal by aggravation:");
        for r in tops.by_aggravation {
            println!(
                "  {}. {}  (mu_aggr = {:.3})",
                r.rank, r.explanation, r.degree
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
        let engine = InterventionEngine::with_universal(&db, Arc::new(u));
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
    let u0 = Arc::new(Universal::compute(&db, &db.full_view()));
    let question = q_race(&db);
    let dmax = if full { 5 } else { 4 };
    for d in 1..=dmax {
        let dims = natality_dims(&db, d);
        let (_, t_cube) = timed(|| {
            cube_algo::explanation_table(&db, &u0, &question, &dims, CubeAlgoConfig::checked())
                .unwrap()
        });
        let engine = InterventionEngine::with_universal(&db, Arc::clone(&u0));
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
    let fig = fig15::fig15();
    println!("(a) venue share by country, 2001-2011");
    println!(
        "{:<16} {:>7} {:>7} {:>9} {:>9}",
        "country", "SIGMOD", "PODS", "%SIGMOD", "%PODS"
    );
    for s in &fig.shares {
        let tot = (s.sigmod + s.pods).max(1.0);
        println!(
            "{:<16} {:>7} {:>7} {:>8.1}% {:>8.1}%",
            s.country,
            s.sigmod,
            s.pods,
            100.0 * s.sigmod / tot,
            100.0 * s.pods / tot
        );
    }
    println!("\nQ(D) = {:.3} (dir = low)", fig.q_d);
    println!(
        "table M: {} candidates, computed in {:?}",
        fig.candidates, fig.table_time
    );
    println!("\n(b) top explanations by intervention:");
    for r in fig.top {
        println!(
            "  {:>2}. {}  (mu_interv = {:.4})",
            r.rank, r.explanation, r.degree
        );
    }
    println!("minimal top-50 by self-join took {:?}", fig.top_time);
}

fn ex37() {
    header("Example 3.7 / Figure 5 — linear-iteration chain");
    println!("(n − 2 with full semijoin reduction per Rule (ii); the paper's");
    println!(" one-hop-per-iteration trace counts n − 1)");
    println!(
        "{:>4} {:>6} {:>11} {:>8} {:>10}",
        "p", "n", "iterations", "n-2", "deleted"
    );
    for r in ex37::ex37() {
        println!(
            "{:>4} {:>6} {:>11} {:>8} {:>10}",
            r.p,
            r.n,
            r.iterations,
            r.n - 2,
            r.deleted
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
    let mut cells = cube.cells.sorted();
    cells.reverse();
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

/// The naive engine's candidate sweep — the one parallel operator — at
/// 1/2/4/8 threads on the Figure 12 workload, asserting that every
/// thread count produces a bit-identical table.
fn scaling(full: bool) {
    header("Thread scaling — the naive candidate sweep at 1/2/4/8 threads");
    let nrows = if full { 40_000 } else { 8_000 };
    let db = natality_db(nrows);
    let dims = natality_dims(&db, 2);
    let question = q_race(&db);
    let u = Universal::compute(&db, &db.full_view());
    let engine = InterventionEngine::with_universal(&db, Arc::new(u));
    println!(
        "(host reports {} available core(s))",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("naive engine, Figure 12 workload ({nrows} rows, d = 2)");
    println!("{:>8} {:>12} {:>9}", "threads", "table M", "speedup");
    let mut baseline: Option<(Duration, exq_core::table_m::ExplanationTable)> = None;
    for n in [1usize, 2, 4, 8] {
        let exec = ExecConfig::with_threads(n);
        let (m, t) = timed(|| {
            naive::explanation_table_naive_with(&db, &engine, &question, &dims, &exec).unwrap()
        });
        let speedup = baseline
            .as_ref()
            .map_or(1.0, |(t1, _)| t1.as_secs_f64() / t.as_secs_f64());
        match &baseline {
            None => baseline = Some((t, m)),
            Some((_, m1)) => assert_eq!(m1, &m, "tables must be bit-identical"),
        }
        println!("{:>8} {:>12?} {:>8.2}x", n, t, speedup);
    }
    println!("(every thread count produces a bit-identical table; asserted)");
}

/// The ablations below Algorithm 1: the two cube strategies (DESIGN.md
/// §5) on COUNT(*) and COUNT(DISTINCT), and program P's recursive
/// fixpoint against its non-recursive unrolling (Section 3.3). Each row
/// also checks that both sides computed the same answer.
fn ablation(full: bool) {
    header("Ablation — cube strategies and program P evaluation (DESIGN.md §5)");
    let rows = if full { 200_000 } else { 50_000 };
    let db = natality_db(rows);
    let u = Universal::compute(&db, &db.full_view());
    let id = db.schema().attr("Natality", "id").unwrap();
    println!("(a) cube strategies, {rows} natality rows");
    println!(
        "{:<18} {:>6} {:>16} {:>16} {:>10}",
        "aggregate", "attrs", "subset-enum", "lattice-rollup", "cells"
    );
    // COUNT(DISTINCT) carries a key set in every cell, so it stops at d = 6.
    for (label, agg, ds) in [
        ("COUNT(*)", AggFunc::CountStar, &[2usize, 4, 6, 8][..]),
        (
            "COUNT(DISTINCT id)",
            AggFunc::CountDistinct(id),
            &[2, 4, 6][..],
        ),
    ] {
        for &d in ds {
            let dims = natality_dims(&db, d);
            let run = |strategy| {
                timed(|| {
                    exq_relstore::cube::compute(&db, &u, &Predicate::True, &dims, &agg, strategy)
                        .unwrap()
                })
            };
            let (subset, t_subset) = run(CubeStrategy::SubsetEnumeration);
            let (rollup, t_rollup) = run(CubeStrategy::LatticeRollup);
            assert_eq!(
                subset.cells, rollup.cells,
                "{label}, d = {d}: both strategies must compute the same cube"
            );
            println!(
                "{:<18} {:>6} {:>16?} {:>16?} {:>10}",
                label,
                d,
                t_subset,
                t_rollup,
                subset.len()
            );
        }
    }
    println!("(Auto samples the input and picks roll-up for low-cardinality data)");

    let db = dblp::generate(&dblp::DblpConfig::default());
    let engine = InterventionEngine::new(&db);
    let inst = db.schema().attr("Author", "inst").unwrap();
    let phi = Explanation::new(vec![Atom::eq(inst, "ibm.com")]);
    let (fixpoint, t_fixpoint) = timed(|| engine.compute(&phi));
    let (unrolled, t_unrolled) = timed(|| {
        engine
            .compute_unrolled(&phi)
            .expect("the DBLP schema is unrollable")
    });
    assert_eq!(
        fixpoint.delta, unrolled.delta,
        "unrolled P must delete exactly the fixpoint's tuples"
    );
    println!(
        "\n(b) program P on DBLP ({} tuples), phi = [Author.inst = ibm.com]",
        db.total_tuples()
    );
    println!(
        "{:<10} {:>12} {:>7} {:>9}",
        "engine", "time", "rounds", "deleted"
    );
    for (name, iv, t) in [
        ("fixpoint", &fixpoint, t_fixpoint),
        ("unrolled", &unrolled, t_unrolled),
    ] {
        println!(
            "{:<10} {:>12?} {:>7} {:>9}",
            name,
            t,
            iv.iterations,
            iv.total_deleted()
        );
    }
    println!("(rounds: fixpoint iterations, or unrolled pipeline stages; same deletion set)");
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
    let venue = db.schema().attr("Publication", "venue").unwrap();
    let name = db.schema().attr("Author", "name").unwrap();
    let question = UserQuestion::new(
        NumericalQuery::single(AggregateQuery::count_star(Predicate::eq(venue, "SIGMOD"))),
        Direction::High,
    );
    let totals = question
        .query
        .aggregate_values(&db, engine.universal())
        .unwrap();
    println!("Q = COUNT(*) of SIGMOD universal tuples (NOT additive), dir = high");
    println!(
        "{:<22} {:>10} {:>10} {:>10}",
        "phi", "mu_interv", "mu_hybrid", "mu_aggr"
    );
    for n in ["JG", "RR", "CM"] {
        let phi = Explanation::new(vec![Atom::eq(name, n)]);
        let d = exq_core::degree::evaluate(&engine, &question, &phi.conjunction().to_predicate())
            .unwrap();
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3}",
            format!("[name = {n}]"),
            d.mu_interv,
            exq_core::hybrid::mu_hybrid(&question, &totals, &d.values),
            d.mu_aggr
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
        "ablation" => ablation(full),
        "scaling" => scaling(full),
        "hybrid" => hybrid_table(),
        "agreement" => agreement_table(nat_rows),
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
            ablation(full);
            scaling(full);
            hybrid_table();
            agreement_table(nat_rows);
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of fig1 fig2 fig6 fig7 fig8 fig9 \
                 fig10 fig11 fig12 fig13 fig14 fig15 ex37 ex41 ablation scaling hybrid \
                 agreement validate-prom export all"
            );
            std::process::exit(2);
        }
    }
}
