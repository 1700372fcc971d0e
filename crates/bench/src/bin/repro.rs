//! `repro <experiment> [full]` prints a table or figure of the paper's
//! evaluation (see [`NAMES`]; `all` runs each, `full` at paper scale), as
//! the `exq-bench` library computes it; it panics when Figure 12's or 13's
//! timing orderings break or an ablation's two sides disagree. `repro export
//! [DIR]` writes the datasets as CSV; `repro validate-prom FILE` checks a
//! Prometheus text exposition (e.g. a curl of `GET /metrics`).

use exq_bench::*;

fn header(title: &str) {
    let rule = "=".repeat(64);
    println!("\n{rule}\n{title}\n{rule}");
}

/// Print a ranked list, `{rank}{explanation}  (mu_{degree} = …)` per line.
fn ranked(top: Vec<TopRow>, rank: fn(usize) -> String, degree: &str, digits: usize) {
    for r in top {
        let (rank, mu) = (rank(r.rank), r.degree);
        println!("{rank}{}  (mu_{degree} = {mu:.digits$})", r.explanation);
    }
}

fn fig1(_: bool) {
    header("Figure 1 — SIGMOD publications in five-year windows, com vs edu");
    println!("window            com      edu");
    for w in fig1::fig1() {
        let years = format!("{}-{}", w.years.0, w.years.1);
        println!("{years:<12} {:>8} {:>8}", w.com, w.edu);
    }
}

fn fig2(_: bool) {
    header("Figure 2 — top explanations for the bump (by intervention)");
    let fig = fig2::fig2();
    let (q_d, n, t) = (fig.q_d, fig.candidates, fig.table_time);
    println!("Q(D) = {q_d:.3} (dir = high)\ntable M: {n} candidates, computed in {t:?}");
    println!("rank explanation");
    ranked(fig.top, |rank| format!("{rank:<4} "), "interv", 4);
}

fn fig6(_: bool) {
    header("Figure 6 — schema and data causal graphs of the running example");
    let fig = fig6::fig6();
    println!("schema causal graph (relations):");
    for (edges, arrow) in [(&fig.schema.solid, "──▶"), (&fig.schema.dotted, "┄┄▶")] {
        for &(a, b) in edges {
            println!("  {} {arrow} {}", fig.relations[a], fig.relations[b]);
        }
    }
    print!("\ndata causal graph (tuples):\n{}", fig.data);
}

fn fig7_8_9(full: bool) {
    use fig7_9::{APGAR, MARITAL, RACES};
    header("Figures 7/8/9 — natality contingency tables and ratios");
    let rows = [NAT_ROWS, NAT_ROWS_FULL][usize::from(full)];
    let fig = fig7_9::fig7_9(rows);
    println!("rows = {rows}\n\nFigure 7 — AP x Race:");
    println!("AP         White     Black     AmInd     Asian");
    for (ap, [w, b, i, a]) in APGAR.iter().zip(fig.ap_race) {
        println!("{ap:<6} {w:>9} {b:>9} {i:>9} {a:>9}");
    }
    println!("\nFigure 7 — AP x Marital:\nAP       married   unmarr.");
    for (ap, [m, u]) in APGAR.iter().zip(fig.ap_marital) {
        println!("{ap:<6} {m:>9} {u:>9}");
    }
    println!("\nFigure 8 — good/poor ratio by race (Q_Race observation):");
    for (race, x) in RACES.iter().zip(fig.race_ratio) {
        println!("  {race:<6} {x:.1}");
    }
    println!("\nFigure 9 — good/poor ratio by marital status (Q_Marital observation):");
    for (m, x) in MARITAL.iter().zip(fig.marital_ratio) {
        println!("  {m:<10} {x:.1}");
    }
    let (race, prime, marital) = (fig.q_race, fig.q_race_prime, fig.q_marital);
    println!("\nQ_Race(D)    = {race:.2}\nQ'_Race(D)   = {prime:.2} (Asian ratio vs Black ratio)");
    println!("Q_Marital(D) = {marital:.2}");
}

fn fig10_11(full: bool) {
    header("Figures 10/11 — top minimal explanations (natality)");
    for tops in fig10_11::fig10_11([NAT_ROWS, NAT_ROWS_FULL][usize::from(full)]) {
        let rank = |rank| format!("  {rank}. ");
        println!("\n--- {} (Q(D) = {:.2}) ---", tops.question, tops.q_d);
        println!("Figure 10 — top-5 minimal by intervention:");
        ranked(tops.by_intervention, rank, "interv", 3);
        println!("Figure 11 — top-3 minimal by aggravation:");
        ranked(tops.by_aggravation, rank, "aggr", 3);
    }
}

fn fig12(full: bool) {
    header("Figure 12 — benefits of the data cube (Cube vs No Cube, Q_Race)");
    let grid = [fig12::DEFAULT, fig12::FULL][usize::from(full)];
    let fig = fig12::fig12(&grid);
    let line = |x: usize, w: usize, p: &fig12::Point| {
        let (cube, no_cube, speedup) = (p.cube, p.no_cube, p.speedup());
        println!("{x:>w$} {cube:>12?} {no_cube:>12?} {speedup:>8.1}x");
    };
    println!("(a) data size vs time (d = {} attributes)", grid.size_d);
    println!("      rows         cube      no-cube   speedup");
    fig.by_rows.iter().for_each(|p| line(p.rows, 10, p));
    println!("\n(b) #attributes vs time ({} rows)", grid.attrs_rows);
    println!(" attrs         cube      no-cube   speedup");
    fig.by_attrs.iter().for_each(|p| line(p.d, 6, p));
    let broken = fig12::timing_violations(&fig);
    assert!(broken.is_empty(), "Figure 12: {broken:?}");
}

fn fig13(full: bool) {
    header("Figure 13 — time to compute all degrees (table M)");
    let grid = [fig13::DEFAULT, fig13::FULL][usize::from(full)];
    let fig = fig13::fig13(&grid);
    println!("(a) data size vs time (d = {} attributes)", grid.size_d);
    println!("      rows   Q_Race (m=2) Q_Marital (m=4)");
    for p in &fig.by_rows {
        println!("{:>10} {:>14?} {:>14?}", p.rows, p.race, p.marital);
    }
    let rows = grid.attrs_rows;
    println!("\n(b) #attributes vs time ({rows} rows; log-scale growth expected)");
    println!(" attrs         Q_Race      Q_Marital    |M| (Q_M)");
    for p in &fig.by_attrs {
        let (d, race, marital, m) = (p.d, p.race, p.marital, p.marital_candidates);
        println!("{d:>6} {race:>14?} {marital:>14?} {m:>12}");
    }
    let broken = fig13::timing_violations(&fig);
    assert!(broken.is_empty(), "Figure 13: {broken:?}");
}

fn fig14(full: bool) {
    header("Figure 14 — time to compute minimal top-K explanations (Q_Race)");
    let n = fig14::ROWS[usize::from(full)];
    let rows = fig14::fig14(n, &fig14::KS, &fig14::DS);
    for k in fig14::KS {
        println!("\nK = {k} ({n} rows)");
        println!(" attrs        |M|     no-minimal minimal-selfjoin  minimal-append");
        for r in rows.iter().filter(|r| r.k == k) {
            let (d, m, [no, sj, ap]) = (r.d, r.candidates, r.runs.each_ref().map(|r| r.0));
            println!("{d:>6} {m:>10} {no:>14?} {sj:>16?} {ap:>15?}");
        }
    }
}

fn fig15(_: bool) {
    header("Figure 15 — UK SIGMOD vs PODS (8-table join)");
    let fig = fig15::fig15();
    println!("(a) venue share by country, 2001-2011");
    println!("country           SIGMOD    PODS   %SIGMOD     %PODS");
    for s in &fig.shares {
        let (country, sigmod, pods) = (s.country, s.sigmod, s.pods);
        let [ps, pp] = [sigmod, pods].map(|n| 100.0 * n / (sigmod + pods).max(1.0));
        println!("{country:<16} {sigmod:>7} {pods:>7} {ps:>8.1}% {pp:>8.1}%");
    }
    let (q_d, n, t) = (fig.q_d, fig.candidates, fig.table_time);
    println!("\nQ(D) = {q_d:.3} (dir = low)\ntable M: {n} candidates, computed in {t:?}");
    println!("\n(b) top explanations by intervention:");
    ranked(fig.top, |rank| format!("  {rank:>2}. "), "interv", 4);
    let (k, t) = (fig15::K, fig.top_time);
    println!("minimal top-{k} by self-join took {t:?}");
}

fn ex37(_: bool) {
    header("Example 3.7 / Figure 5 — linear-iteration chain");
    println!("(n − 2 with full semijoin reduction per Rule (ii); the paper's");
    println!(" one-hop-per-iteration trace counts n − 1)");
    println!("   p      n  iterations      n-2    deleted");
    for r in ex37::ex37() {
        let (p, n, iterations, deleted) = (r.p, r.n, r.iterations, r.deleted);
        println!("{p:>4} {n:>6} {iterations:>11} {:>8} {deleted:>10}", n - 2);
    }
}

fn ex41(_: bool) {
    header("Example 4.1 — the data cube over the Figure 3 instance");
    println!("name     year        count");
    for (coord, count) in ex41::ex41(CubeStrategy::LatticeRollup) {
        let [name, year] = [&coord[0], &coord[1]].map(ToString::to_string);
        println!("{name:<8} {year:<8} {count:>8}");
    }
}

fn ablation(full: bool) {
    header("Ablation — cube strategies and program P evaluation (DESIGN.md §5)");
    let n = ablation::ROWS[usize::from(full)];
    println!("(a) cube strategies, {n} natality rows");
    println!("aggregate           attrs      subset-enum   lattice-rollup      cells");
    let (star, distinct) = (&ablation::COUNT_STAR_DS, &ablation::COUNT_DISTINCT_DS);
    for ablation::CubeRow { aggregate, d, runs } in ablation::cube_strategies(n, star, distinct) {
        let [(t0, subset), (t1, rollup)] = &runs;
        assert_eq!(subset.cells, rollup.cells, "{aggregate}, d = {d}");
        let cells = subset.len();
        println!("{aggregate:<18} {d:>6} {t0:>16?} {t1:>16?} {cells:>10}");
    }
    println!("(Auto samples the input and picks roll-up for low-cardinality data)");
    let ablation::ProgramP { tuples, runs } = ablation::program_p();
    assert_eq!(runs[0].2.delta, runs[1].2.delta, "unrolled P's Δ");
    println!("\n(b) program P on DBLP ({tuples} tuples), phi = [Author.inst = ibm.com]");
    println!("engine             time  rounds   deleted");
    for (engine, time, iv) in &runs {
        let (rounds, deleted) = (iv.iterations, iv.total_deleted());
        println!("{engine:<10} {time:>12?} {rounds:>7} {deleted:>9}");
    }
    println!("(rounds: fixpoint iterations, or unrolled pipeline stages; same deletion set)");
}

fn scaling(full: bool) {
    header("Thread scaling — the naive candidate sweep at 1/2/4/8 threads");
    let (n, d) = (scaling::ROWS[usize::from(full)], scaling::D);
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("(host reports {cores} available core(s))");
    println!("naive engine, Figure 12 workload ({n} rows, d = {d})");
    println!(" threads      table M   speedup");
    let rows = scaling::scaling(n, &scaling::THREADS);
    for r in &rows {
        let speedup = rows[0].time.as_secs_f64() / r.time.as_secs_f64();
        println!("{:>8} {:>12?} {speedup:>8.2}x", r.threads, r.time);
        assert_eq!(r.table, rows[0].table, "tables must be bit-identical");
    }
    println!("(every thread count produces a bit-identical table; asserted)");
}

fn hybrid(_: bool) {
    header("Hybrid degree vs exact intervention (Section 6(iii))");
    println!("Q = COUNT(*) of SIGMOD universal tuples (NOT additive), dir = high");
    println!("phi                     mu_interv  mu_hybrid    mu_aggr");
    for r in hybrid::hybrid().count_star {
        let (phi, interv, hybrid, aggr) = (r.name, r.mu_interv, r.mu_hybrid, r.mu_aggr);
        let phi = format!("[name = {phi}]");
        println!("{phi:<22} {interv:>10.3} {hybrid:>10.3} {aggr:>10.3}");
    }
    println!("(hybrid ≤ interv for counts; equality iff no extra cascade fires)");
}

fn agreement(full: bool) {
    header("Degree agreement — Kendall tau between rankings (natality)");
    let n = agreement::ROWS[usize::from(full)];
    println!("{n} rows; tau(mu_interv, mu_aggr) per question and attribute set");
    println!("  question  attrs        |M|      tau");
    for r in agreement::agreement(n, &agreement::DS) {
        let (question, d, m, tau) = (r.question, r.d, r.candidates, r.tau);
        println!("{question:>10} {d:>6} {m:>10} {tau:>8.3}");
    }
    println!("(intervention and aggravation broadly disagree — Figures 10 vs 11)");
}

fn export(dir: &str) {
    header("Exporting synthetic datasets as CSV (for the `exq` CLI)");
    for (path, n) in export::export(dir).expect("write the CSV files") {
        println!("  {path}: {n} rows");
    }
    println!("\ntry, from the repository root:\n  cargo run --release --bin exq -- report \\");
    println!("    --schema assets/schemas/natality.exq --table Natality={dir}/natality.csv \\");
    println!("    --question assets/questions/q_race.exq \\");
    let attrs = "Natality.age,Natality.tobacco,Natality.prenatal,Natality.edu,Natality.marital";
    println!("    --attrs {attrs}");
}

fn validate_prom(path: &str) {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
    match text.and_then(|t| exq_obs::check_prometheus(&t).map_err(|e| e.to_string())) {
        Ok(()) => println!("ok: {path} is well-formed Prometheus text exposition"),
        Err(e) => fail(1, &format!("error: {path}: {e}")),
    }
}

fn fail(code: i32, message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// [`EXPERIMENTS`]' names in `repro all`'s order; `|` joins a figure's.
const NAMES: &str = "fig1 fig2 fig6 ex41 ex37 fig7|fig8|fig9 fig10|fig11 fig12 fig13 fig14 fig15 \
                     ablation scaling hybrid agreement";
const EXPERIMENTS: [fn(bool); 15] = [
    fig1, fig2, fig6, ex41, ex37, fig7_8_9, fig10_11, fig12, fig13, fig14, fig15, ablation,
    scaling, hybrid, agreement,
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args.get(1).map_or("all", String::as_str);
    let full = args.iter().skip(2).any(|a| a == "full");
    let picks = |names: &&str| which == "all" || names.split('|').any(|n| n == which);
    match (which, args.get(2)) {
        ("validate-prom", Some(path)) => validate_prom(path),
        ("validate-prom", None) => fail(2, "usage: repro validate-prom FILE"),
        ("export", dir) => export(dir.map_or("export", String::as_str)),
        _ if NAMES.split(' ').any(|names| picks(&names)) => {
            let picked = NAMES.split(' ').zip(EXPERIMENTS).filter(|(n, _)| picks(n));
            picked.for_each(|(_, run)| run(full));
        }
        _ => {
            let names = NAMES.replace('|', " ") + " export validate-prom all";
            fail(2, &format!("unknown experiment `{which}`; try {names}"));
        }
    }
}
