//! CLI ↔ server parity: `--format json` equals the served answer up to
//! its `"notes"` field, for explain and for report. After it the CLI
//! carries CSV-load notes and cold-build counters that a server's
//! request-scoped metrics lack. The served side runs as a schedule of
//! the serving contract (`support/serving.rs`), so every answer it
//! compares is also `check`ed against the model.

use std::fs;
use std::path::{Path, PathBuf};

#[path = "support/serving.rs"]
mod serving;

use serving::{Request, Step, Target};

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("exq-serve-parity-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, contents: &str) -> String {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

/// The document up to its `"notes"` field: q_d, engine, candidate count
/// and the full ranked top-K.
fn prefix(doc: &str) -> String {
    doc[..doc.find("\"notes\"").expect("a notes field")].to_string()
}

/// `exq explain|report --format json` over fixture dataset 0 as CSVs,
/// with the arguments of `request` (`Author.inst`, top 5).
fn cli(request: &Request) -> String {
    let command = &request.path["/v1/".len()..];
    let (fx, dir) = (serving::fixtures(), workdir(command));
    let schema = write(
        &dir,
        "schema.exq",
        include_str!("../assets/schemas/dblp.exq"),
    );
    let question = write(&dir, "question.exq", &fx.question);
    let mut args = vec!["--schema".into(), schema, "--question".into(), question];
    for rel in ["Author", "Authored", "Publication"] {
        let path = dir.join(format!("{rel}.csv"));
        let writer = std::io::BufWriter::new(fs::File::create(&path).unwrap());
        exq::relstore::csv::dump_relation(&fx.datasets[0].initial, rel, writer).unwrap();
        args.extend(["--table".into(), format!("{rel}={}", path.display())]);
    }
    let flags = "--attrs Author.inst --top 5 --threads 1 --format json".split(' ');
    args.extend(flags.map(String::from));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_exq"))
        .arg(command)
        .args(&args)
        .output()
        .expect("binary runs");
    let doc = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success() && out.stderr.is_empty(), "{doc}");
    doc
}

/// `clients` clients at once, each sending `request` once to a
/// `threads`-thread server; the checked bodies.
fn served(threads: usize, clients: usize, request: &Request) -> Vec<String> {
    let fx = serving::fixtures();
    let lists = vec![vec![request.clone()]; clients];
    let done = serving::run(fx, Target::Server, threads, &[Step::Clients(lists)]);
    serving::check(fx, &done);
    let bodies: Vec<_> = done.history.iter().map(|r| r.response.text()).collect();
    assert!(done.history.iter().all(|r| r.response.status == 200));
    bodies
}

#[test]
fn parallel_clients_match_single_shot_cli_at_1_2_and_7_threads() {
    let explain = serving::ask(serving::fixtures(), 0, "Author.inst", 5, false);
    let want = prefix(&cli(&explain));
    assert!(want.contains("\"engine\": \"Cube\""), "{want}");
    for threads in [1, 2, 7] {
        for body in served(threads, 6, &explain) {
            assert_eq!(prefix(&body), want, "{threads} threads");
        }
    }
}

#[test]
fn report_parity_cli_vs_server() {
    let report = serving::report(serving::ask(
        serving::fixtures(),
        0,
        "Author.inst",
        5,
        false,
    ));
    let want = prefix(&cli(&report));
    assert_eq!(prefix(&served(1, 1, &report)[0]), want);
}
