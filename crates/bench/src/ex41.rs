//! Example 4.1: the data cube over `(Author.name, Publication.year)` of
//! the Figure 3 instance, with COUNT(*).

use exq_datagen::paper_examples;
use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, Coord, CubeStrategy};
use exq_relstore::{Predicate, Universal};

/// The cube's cells by `strategy`, `(name, year)` → COUNT(*) with
/// `Value::Null` where a cell rolls an attribute up, in descending
/// coordinate order (the grand total last), as the paper lists them.
pub fn ex41(strategy: CubeStrategy) -> Vec<(Coord, f64)> {
    let db = paper_examples::figure3();
    let u = Universal::compute(&db, &db.full_view());
    let attr = |rel, name| db.schema().attr(rel, name).expect("a Figure 3 attribute");
    let dims = [attr("Author", "name"), attr("Publication", "year")];
    let cube = cube::compute(
        &db,
        &u,
        &Predicate::True,
        &dims,
        &AggFunc::CountStar,
        strategy,
    );
    let mut cells = cube.expect("COUNT(*) cubes any input").cells.into_sorted();
    cells.reverse();
    cells
}
