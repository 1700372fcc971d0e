//! End-to-end tests of the `exq` CLI binary: schema parsing, CSV loading,
//! question files, top-K output, and drill-down — the full external
//! surface a non-Rust user touches.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

#[path = "support/serving.rs"]
mod serving;
use serving::scrub_total_ns;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exq-cli-test-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, contents: &str) -> String {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_exq"))
        .args(args)
        .output()
        .expect("binary runs")
}

const SCHEMA: &str = "
relation Author(id: str key, name: str, dom: str)
relation Authored(id: str key, pubid: str key)
relation Publication(pubid: str key, venue: str)
fk Authored(id) -> Author
fk Authored(pubid) <-> Publication
";

const AUTHORS: &str = "id,name,dom\nA1,JG,edu\nA2,RR,com\nA3,CM,com\n";
const AUTHORED: &str = "id,pubid\nA1,P1\nA2,P1\nA1,P2\nA3,P2\nA2,P3\nA3,P3\n";
const PUBS: &str = "pubid,venue\nP1,SIGMOD\nP2,VLDB\nP3,SIGMOD\n";

const QUESTION: &str = "
agg sigmod = count(distinct Publication.pubid) where venue = 'SIGMOD'
dir high
";

#[test]
fn schema_command_prints_parsed_schema() {
    let dir = workdir("schema");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let out = run(&["schema", "--schema", &schema]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Author(*id: str"));
    assert!(text.contains("back-and-forth keys: 1"));
}

#[test]
fn validate_command_checks_integrity() {
    let dir = workdir("validate");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let out = run(&[
        "validate",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("12 tuples"));
    assert!(text.contains("semijoin-reduced: true"));

    // A dangling foreign key fails validation.
    let bad = write(&dir, "bad.csv", "id,pubid\nA1,P1\nA9,P1\n");
    let out = run(&[
        "validate",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={bad}"),
        "--table",
        &format!("Publication={p}"),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dangling foreign key"));
}

#[test]
fn explain_command_ranks_explanations() {
    let dir = workdir("explain");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let q = write(&dir, "question.exq", QUESTION);
    let out = run(&[
        "explain",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
        "--question",
        &q,
        "--attrs",
        "Author.name,Author.dom",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Q(D) = 2"), "{text}");
    assert!(text.contains("engine: Cube"), "{text}");
    // RR's removal kills both SIGMOD papers: a top (degree −0) explanation.
    assert!(
        text.lines()
            .any(|l| l.contains("RR") && l.contains("(-0.000000)")),
        "{text}"
    );
}

#[test]
fn explain_naive_matches_cube() {
    let dir = workdir("naive");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let q = write(&dir, "question.exq", QUESTION);
    let base = [
        "explain",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
        "--question",
        &q,
        "--attrs",
        "Author.name",
        "--top",
        "3",
    ]
    .map(String::from);
    let cube = run(&base.iter().map(String::as_str).collect::<Vec<_>>());
    let mut naive_args: Vec<&str> = base.iter().map(String::as_str).collect();
    naive_args.push("--naive");
    let naive = run(&naive_args);
    let strip = |o: &Output| {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                t.starts_with("1.") || t.starts_with("2.") || t.starts_with("3.")
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(strip(&cube), strip(&naive));
}

#[test]
fn drill_command_reports_all_degrees() {
    let dir = workdir("drill");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let q = write(&dir, "question.exq", QUESTION);
    let out = run(&[
        "drill",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
        "--question",
        &q,
        "--phi",
        "Author.name = 'RR'",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mu_interv = -0"), "{text}");
    assert!(text.contains("mu_hybrid"), "{text}");
    assert!(text.contains("tuples deleted"), "{text}");
}

#[test]
fn profile_command_summarizes_data() {
    let dir = workdir("profile");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let out = run(&[
        "profile",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Author (3 rows)"), "{text}");
    assert!(text.contains("venue: str  distinct=2"), "{text}");
}

#[test]
fn report_command_produces_full_document() {
    let dir = workdir("report");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    let q = write(&dir, "question.exq", QUESTION);
    let out = run(&[
        "report",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
        "--question",
        &q,
        "--attrs",
        "Author.name,Author.dom",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("# Explanation report"), "{text}");
    assert!(text.contains("Top explanations by intervention"), "{text}");
    assert!(text.contains("Drill-down"), "{text}");
    assert!(text.contains("Kendall tau"), "{text}");
}

const BAD_SCHEMA: &str = "
relation Author(aid: int key, name: str)
relation Authored(aid: int, pid: int key)
relation Publication(pid: int key, venue: str, year: int)
fk Authored(aid) -> Author
fk Authored(pid) <-> Publication
fk Publication(pid) <-> Authored
";

const BAD_QUESTION: &str = "
agg pubs = count(*) where venue = 'SIGMOD' and yeer >= 2000 and year = 'twothousand'
dir high
";

#[test]
fn check_command_passes_clean_inputs() {
    let dir = workdir("check-clean");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let q = write(&dir, "question.exq", QUESTION);
    let out = run(&["check", &schema, &q]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("no problems found"));
}

#[test]
fn check_command_reports_every_fault_in_one_run() {
    let dir = workdir("check-bad");
    let schema = write(&dir, "schema.exq", BAD_SCHEMA);
    let q = write(&dir, "question.exq", BAD_QUESTION);

    // Pretty output: all three distinct codes, each with a line:col span.
    let out = run(&["check", &schema, &q]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error[E007]"), "{text}"); // fk cycle
    assert!(text.contains("error[E002]"), "{text}"); // unknown attribute
    assert!(text.contains("error[E008]"), "{text}"); // type mismatch
    assert!(text.contains(&format!("{schema}:7:4")), "{text}");
    assert!(text.contains(&format!("{q}:2:48")), "{text}");
    assert!(text.contains(&format!("{q}:2:72")), "{text}");
    assert!(text.contains("3 errors"), "{text}");

    // JSON output: same codes and spans, machine-readable.
    let out = run(&["check", &schema, &q, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"errors\":3"), "{json}");
    for code in ["E007", "E002", "E008"] {
        assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
    }
    assert!(json.contains("\"line\":2,\"col\":48"), "{json}");
}

#[test]
fn check_command_usage_errors_exit_2() {
    let out = run(&["check"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs a schema"));

    let dir = workdir("check-usage");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let out = run(&["check", &schema, "--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));

    let out = run(&["check", &dir.join("missing.exq").to_string_lossy()]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn explain_load_path_fails_fast_with_all_diagnostics() {
    let dir = workdir("check-gate");
    let schema = write(&dir, "schema.exq", SCHEMA);
    let a = write(&dir, "a.csv", AUTHORS);
    let ad = write(&dir, "ad.csv", AUTHORED);
    let p = write(&dir, "p.csv", PUBS);
    // Two faults in one question: both must be reported, not just the first.
    let q = write(
        &dir,
        "question.exq",
        "agg n = count(*) where venu = 'SIGMOD' and dom = 42\ndir high\n",
    );
    let out = run(&[
        "explain",
        "--schema",
        &schema,
        "--table",
        &format!("Author={a}"),
        "--table",
        &format!("Authored={ad}"),
        "--table",
        &format!("Publication={p}"),
        "--question",
        &q,
        "--attrs",
        "Author.name",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("rejected by `exq check`"), "{err}");
    assert!(err.contains("error[E002]"), "{err}");
    assert!(err.contains("error[E008]"), "{err}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = run(&["explain", "--schema"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing value"));
}

// ---------------------------------------------------------------------
// Observability surface: --metrics, --trace, --format json
// ---------------------------------------------------------------------

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn small_dblp_args(dir: &std::path::Path) -> Vec<String> {
    let schema = write(dir, "schema.exq", SCHEMA);
    let a = write(dir, "a.csv", AUTHORS);
    let ad = write(dir, "ad.csv", AUTHORED);
    let p = write(dir, "p.csv", PUBS);
    let q = write(dir, "question.exq", QUESTION);
    vec![
        "--schema".into(),
        schema,
        "--table".into(),
        format!("Author={a}"),
        "--table".into(),
        format!("Authored={ad}"),
        "--table".into(),
        format!("Publication={p}"),
        "--question".into(),
        q,
    ]
}

#[test]
fn explain_metrics_stdout_matches_golden_fixture() {
    let dir = workdir("metrics-golden");
    let mut argv: Vec<String> = vec!["explain".into()];
    argv.extend(small_dblp_args(&dir));
    argv.extend(
        [
            "--attrs",
            "Author.name,Author.dom",
            "--top",
            "3",
            "--threads",
            "1",
            "--metrics",
            "-",
        ]
        .map(String::from),
    );
    let out = run(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = scrub_total_ns(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(got, fixture("explain_metrics.txt"));
}

#[test]
fn report_metrics_section_matches_golden_fixture() {
    let dir = workdir("report-golden");
    let mut argv: Vec<String> = vec!["report".into()];
    argv.extend(small_dblp_args(&dir));
    argv.extend(
        [
            "--attrs",
            "Author.name",
            "--top",
            "2",
            "--threads",
            "1",
            "--trace",
        ]
        .map(String::from),
    );
    let out = run(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let start = text.find("## Metrics").expect("metrics section in report");
    assert_eq!(&text[start..], fixture("report_metrics.txt"));
    // --trace prints the span tree on stderr.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spans (wall-clock):"), "{err}");
    assert!(err.contains("explain.table"), "{err}");
}

#[test]
fn explain_json_mode_has_clean_stdout_and_empty_stderr() {
    let dir = workdir("json-mode");
    let mut argv: Vec<String> = vec!["explain".into()];
    argv.extend(small_dblp_args(&dir));
    argv.extend(["--attrs", "Author.name", "--top", "3", "--format", "json"].map(String::from));
    let out = run(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "json mode must not write to stderr, got: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The whole of stdout is one well-formed JSON document: balanced
    // braces/brackets outside strings, nothing before or after.
    let text = String::from_utf8_lossy(&out.stdout);
    let trimmed = text.trim();
    assert!(trimmed.starts_with('{') && trimmed.ends_with('}'), "{text}");
    let (mut depth, mut in_str, mut esc, mut closed_at) = (0i64, false, false, None);
    for (i, c) in trimmed.char_indices() {
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
                assert!(depth >= 0, "unbalanced at byte {i}");
                if depth == 0 {
                    closed_at = Some(i);
                }
            }
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON: {text}");
    assert!(!in_str, "unterminated string: {text}");
    assert_eq!(
        closed_at,
        Some(trimmed.len() - 1),
        "trailing garbage: {text}"
    );
    for key in [
        "\"q_d\":",
        "\"engine\":",
        "\"top\":",
        "\"metrics\":",
        "\"counters\":",
    ] {
        assert!(trimmed.contains(key), "missing {key}: {text}");
    }
}

/// The acceptance invariant, end to end through the CLI on a generated
/// DBLP workload: `--threads 1 --metrics -` and `--threads 7 --metrics -`
/// produce byte-identical `counters` sections.
#[test]
fn explain_metrics_counters_identical_at_1_and_7_threads_on_dblp() {
    use exq::datagen::dblp;
    use exq::relstore::csv::dump_relation;
    let dir = workdir("dblp-threads");
    let db = dblp::generate(&dblp::DblpConfig::default());
    let dump = |rel: &str, file: &str| {
        let path = dir.join(file);
        let f = fs::File::create(&path).unwrap();
        dump_relation(&db, rel, std::io::BufWriter::new(f)).unwrap();
        path.to_string_lossy().into_owned()
    };
    let a = dump("Author", "author.csv");
    let ad = dump("Authored", "authored.csv");
    let p = dump("Publication", "publication.csv");
    let schema = write(
        &dir,
        "schema.exq",
        "
relation Author(id: str key, name: str, inst: str, dom: str)
relation Authored(id: str key, pubid: str key)
relation Publication(pubid: str key, venue: str, year: int)
fk Authored(id) -> Author
fk Authored(pubid) <-> Publication
",
    );
    let q = write(
        &dir,
        "question.exq",
        "
agg a = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'com' and year >= 2000 and year <= 2004
agg b = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'com' and year >= 2007 and year <= 2011
agg c = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'edu' and year >= 2000 and year <= 2004
agg d = count(distinct Publication.pubid) where venue = 'SIGMOD' and dom = 'edu' and year >= 2007 and year <= 2011
expr (a / b) / (c / d)
smoothing 1e-4
dir high
",
    );
    let counters_section = |threads: &str| -> String {
        let out = run(&[
            "explain",
            "--schema",
            &schema,
            "--table",
            &format!("Author={a}"),
            "--table",
            &format!("Authored={ad}"),
            "--table",
            &format!("Publication={p}"),
            "--question",
            &q,
            "--attrs",
            "Author.inst,Author.name",
            "--top",
            "5",
            "--threads",
            threads,
            "--metrics",
            "-",
        ]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let start = text.find("\"counters\": {").expect("counters section");
        let end = text[start..].find('}').expect("closing brace") + start;
        text[start..=end].to_string()
    };
    let one = counters_section("1");
    assert!(one.contains("\"join.probe_matches\":"), "{one}");
    assert!(one.contains("\"cube.cells\":"), "{one}");
    assert_eq!(
        one,
        counters_section("7"),
        "counters must not depend on thread count"
    );
}
