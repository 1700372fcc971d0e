//! The synthetic datasets as CSV files, for the `exq` CLI.

use crate::natality_db;
use exq_datagen::dblp;
use exq_relstore::{csv, Database};
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};

/// Natality rows written.
pub const NATALITY_ROWS: usize = 100_000;

/// Write `natality.csv` ([`NATALITY_ROWS`] rows) and the default DBLP's
/// `dblp_{author,authored,publication}.csv` into `dir`, creating it.
/// Returns each file's path and row count, in that order.
pub fn export(dir: &str) -> io::Result<Vec<(String, usize)>> {
    fs::create_dir_all(dir)?;
    let write = |db: &Database, rel: &str, file: String| -> io::Result<(String, usize)> {
        let path = format!("{dir}/{file}");
        let mut out = BufWriter::new(File::create(&path)?);
        let n = csv::dump_relation(db, rel, &mut out).map_err(io::Error::other)?;
        out.flush()?;
        Ok((path, n))
    };
    let natality = natality_db(NATALITY_ROWS);
    let mut files = vec![write(&natality, "Natality", "natality.csv".into())?];
    let db = dblp::generate(&dblp::DblpConfig::default());
    for rel in ["Author", "Authored", "Publication"] {
        files.push(write(&db, rel, format!("dblp_{}.csv", rel.to_lowercase()))?);
    }
    Ok(files)
}
