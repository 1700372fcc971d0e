//! Figure 1: SIGMOD publications in five-year windows, industrial
//! (`com`) against academic (`edu`) authors, on the synthetic DBLP.

use exq_datagen::dblp;
use exq_relstore::Universal;

/// One five-year window of Figure 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// First and last year, inclusive.
    pub years: (i32, i32),
    /// Distinct SIGMOD publications with a `com` author.
    pub com: f64,
    /// Distinct SIGMOD publications with an `edu` author.
    pub edu: f64,
}

/// The windows 1985–1989, 1988–1992, … that fit in 1985–2011.
pub fn fig1() -> Vec<Window> {
    let db = dblp::generate(&dblp::DblpConfig::default());
    let u = Universal::compute(&db, &db.full_view());
    (1985..=2011 - 4)
        .step_by(3)
        .map(|start| {
            let years = (start, start + 4);
            Window {
                years,
                com: dblp::window_count(&db, &u, "SIGMOD", "com", years),
                edu: dblp::window_count(&db, &u, "SIGMOD", "edu", years),
            }
        })
        .collect()
}
