//! Back-and-forth elimination by table copying (Section 4.1).
//!
//! In the presence of a back-and-forth foreign key, COUNT(*) is not
//! intervention-additive. The paper's workaround bounds the fan-out of the
//! key (e.g. "every paper has at most 3 authors") and rewrites the schema:
//! `c` copies of the referencing relation (`Authored_1 … Authored_c`) and
//! of its other referenced relation (`Author_1 … Author_c`), and the
//! referenced relation (`Publication'`) gains `c` foreign-key columns
//! `kad_1 … kad_c` pointing *at* the copies. Slots beyond a tuple's actual
//! fan-out hold a shared dummy row. All keys in the rewritten schema are
//! **standard**:
//!
//! * deleting `Authored_i[kad]` cascades to every `Publication'` row
//!   referencing it — the old *backward* cascade;
//! * deleting a `Publication'` row leaves its `Authored_i` rows dangling,
//!   and semijoin reduction removes them — the old *forward* cascade —
//!   provided each `Authored_i` row is referenced by exactly one
//!   publication, which holds by construction (`kad` is unique per
//!   (publication, slot)).
//!
//! After the rewrite every universal row corresponds to exactly one
//! `Publication'` tuple, so `COUNT(*)` equals the original
//! `COUNT(DISTINCT pk)` and is additive (no back-and-forth keys remain).
//!
//! Structural preconditions (the paper's DBLP shape): the back-and-forth
//! key is the only key into its target; the referencing relation has
//! exactly one other foreign key, which is standard and whose target has
//! no further keys. Predicates on the copied relations must be rewritten
//! as disjunctions over the copies ([`BfElimination::rewrite_eq`]).

use crate::error::{Error, Result};
use exq_relstore::lookup::LookupMap;
use exq_relstore::{Atom, Database, FkKind, Predicate, SchemaBuilder, Value, ValueType};

/// The dummy key filling unused fan-out slots.
fn dummy_key() -> Value {
    Value::str("__exq_slot_dummy__")
}

/// Result of eliminating one back-and-forth foreign key.
#[derive(Debug)]
pub struct BfElimination {
    /// The rewritten database (all foreign keys standard).
    pub db: Database,
    /// Number of copies `c` (the maximum fan-out of the eliminated key).
    pub copies: usize,
    /// Names of the copied referencing relations (`Authored_1 …`).
    pub ref_copies: Vec<String>,
    /// Names of the copied side relations (`Author_1 …`).
    pub side_copies: Vec<String>,
    /// Name of the rewritten referenced relation (`Publication'`).
    pub target_name: String,
}

impl BfElimination {
    /// Rewrite an equality atom on an attribute of the copied side
    /// relation (e.g. `Author.dom = com`) into the disjunction over all
    /// copies the paper describes.
    pub fn rewrite_eq(&self, attr_name: &str, value: impl Into<Value>) -> Result<Predicate> {
        let v: Value = value.into();
        let mut parts = Vec::with_capacity(self.copies);
        for rel in &self.side_copies {
            let attr = self.db.schema().attr(rel, attr_name)?;
            parts.push(Predicate::Atom(Atom::eq(attr, v.clone())));
        }
        Ok(Predicate::Or(parts))
    }
}

/// Eliminate the back-and-forth foreign key at schema index `fk_idx`.
pub fn eliminate_back_and_forth(db: &Database, fk_idx: usize) -> Result<BfElimination> {
    let schema = db.schema();
    let fk = schema
        .foreign_keys()
        .get(fk_idx)
        .ok_or_else(|| Error::TransformPrecondition(format!("no foreign key {fk_idx}")))?;
    if fk.kind != FkKind::BackAndForth {
        return Err(Error::TransformPrecondition(format!(
            "foreign key {fk_idx} is standard"
        )));
    }
    let ref_rel = fk.from_rel; // Authored
    let target_rel = fk.to_rel; // Publication

    // The referencing relation's other foreign key (Authored.id → Author).
    let side_fks: Vec<_> = schema
        .foreign_keys()
        .iter()
        .enumerate()
        .filter(|(i, f)| *i != fk_idx && f.from_rel == ref_rel)
        .collect();
    let (_, side_fk) = match side_fks.as_slice() {
        [one] => *one,
        _ => {
            return Err(Error::TransformPrecondition(
                "referencing relation must have exactly one other foreign key".to_string(),
            ))
        }
    };
    if side_fk.kind != FkKind::Standard {
        return Err(Error::TransformPrecondition(
            "the side foreign key must be standard".to_string(),
        ));
    }
    let side_rel = side_fk.to_rel; // Author
    for (i, f) in schema.foreign_keys().iter().enumerate() {
        if i != fk_idx && (f.from_rel == side_rel || f.to_rel == side_rel && f.from_rel != ref_rel)
        {
            return Err(Error::TransformPrecondition(
                "the side relation must have no other foreign keys".to_string(),
            ));
        }
        if f.to_rel == target_rel && i != fk_idx || f.from_rel == target_rel {
            return Err(Error::TransformPrecondition(
                "the target relation must have no other foreign keys".to_string(),
            ));
        }
    }

    // Fan-out c: max referencing rows per target key.
    let mut fanout: LookupMap<Vec<Value>, usize> = LookupMap::new();
    let ref_table = db.relation(ref_rel);
    for row in 0..ref_table.len() {
        *fanout
            .entry(ref_table.project(row, &fk.from_cols))
            .or_insert(0) += 1;
    }
    #[expect(clippy::disallowed_methods, reason = "max() is order-independent")]
    let max_fanout = fanout.iter_unordered().map(|(_, &n)| n).max();
    let copies = max_fanout.unwrap_or(1).max(1);

    // New schema.
    let side_schema = schema.relation(side_rel);
    let ref_schema = schema.relation(ref_rel);
    let target_schema = schema.relation(target_rel);
    let side_names: Vec<String> = (1..=copies)
        .map(|i| format!("{}_{i}", side_schema.name))
        .collect();
    let ref_names: Vec<String> = (1..=copies)
        .map(|i| format!("{}_{i}", ref_schema.name))
        .collect();
    let target_name = format!("{}_prime", target_schema.name);

    let mut b = SchemaBuilder::new();
    let side_cols: Vec<(&str, ValueType)> = side_schema
        .attributes
        .iter()
        .map(|a| (a.name.as_str(), a.ty))
        .collect();
    let side_pk: Vec<&str> = side_schema
        .primary_key
        .iter()
        .map(|&c| side_schema.attributes[c].name.as_str())
        .collect();
    let mut ref_cols: Vec<(&str, ValueType)> = vec![("kad", ValueType::Str)];
    ref_cols.extend(
        ref_schema
            .attributes
            .iter()
            .map(|a| (a.name.as_str(), a.ty)),
    );
    let mut target_cols: Vec<(String, ValueType)> = (1..=copies)
        .map(|i| (format!("kad_{i}"), ValueType::Str))
        .collect();
    target_cols.extend(
        target_schema
            .attributes
            .iter()
            .map(|a| (a.name.clone(), a.ty)),
    );
    let target_pk: Vec<&str> = target_schema
        .primary_key
        .iter()
        .map(|&c| target_schema.attributes[c].name.as_str())
        .collect();

    for i in 0..copies {
        b = b.relation(&side_names[i], &side_cols, &side_pk);
        b = b.relation(&ref_names[i], &ref_cols, &["kad"]);
    }
    {
        let cols: Vec<(&str, ValueType)> =
            target_cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        b = b.relation(&target_name, &cols, &target_pk);
    }
    let side_fk_cols: Vec<&str> = side_fk
        .from_cols
        .iter()
        .map(|&c| ref_schema.attributes[c].name.as_str())
        .collect();
    for i in 0..copies {
        b = b.standard_fk(&ref_names[i], &side_fk_cols, &side_names[i]);
        let kad_col = format!("kad_{}", i + 1);
        b = b.standard_fk(&target_name, &[kad_col.as_str()], &ref_names[i]);
    }
    let new_schema = b.build()?;
    let mut out = Database::new(new_schema);

    // Side copies: replicate every side row into each copy, plus a dummy.
    let side_table = db.relation(side_rel);
    let side_pk_cols = &side_schema.primary_key;
    let mut dummy_side = vec![Value::Null; side_schema.arity()];
    for &c in side_pk_cols {
        dummy_side[c] = dummy_key();
    }
    for name in &side_names {
        for row in 0..side_table.len() {
            out.insert(name, side_table.row(row).to_vec())?;
        }
        out.insert(name, dummy_side.clone())?;
    }

    // Referencing copies: assign each target key's rows to slots in order.
    // kad = "<target key>#<slot>"; dummy row per copy references the dummy
    // side row.
    let mut slot_of: LookupMap<Vec<Value>, usize> = LookupMap::new();
    let mut kad_values: LookupMap<Vec<Value>, Vec<Value>> = LookupMap::new(); // target key → kad per slot
    for row in 0..ref_table.len() {
        let key = ref_table.project(row, &fk.from_cols);
        let slot = {
            let s = slot_of.entry(key.clone()).or_insert(0);
            let cur = *s;
            *s += 1;
            cur
        };
        let key_text: Vec<String> = key.iter().map(Value::to_string).collect();
        let kad = Value::str(format!("{}#{}", key_text.join("|"), slot + 1));
        kad_values
            .entry(key)
            .or_insert_with(|| vec![dummy_key(); copies])[slot] = kad.clone();
        let mut new_row = vec![kad];
        new_row.extend(ref_table.row(row).iter().cloned());
        out.insert(&ref_names[slot], new_row)?;
    }
    // Dummy referencing row per copy.
    for name in &ref_names {
        let mut dummy_row = vec![dummy_key()];
        for (c, attr) in ref_schema.attributes.iter().enumerate() {
            let in_side_fk = side_fk.from_cols.contains(&c);
            dummy_row.push(if in_side_fk { dummy_key() } else { Value::Null });
            let _ = attr;
        }
        out.insert(name, dummy_row)?;
    }

    // Target rows: kad_1..kad_c then the original attributes.
    let target_table = db.relation(target_rel);
    for row in 0..target_table.len() {
        let key = target_table.project(row, &target_schema.primary_key);
        // fk.to_cols is the target pk, so the referencing key equals it.
        let kads = kad_values
            .get(&key)
            .cloned()
            .unwrap_or_else(|| vec![dummy_key(); copies]);
        let mut new_row = kads;
        new_row.extend(target_table.row(row).iter().cloned());
        out.insert(&target_name, new_row)?;
    }

    out.validate().map_err(Error::Store)?;
    Ok(BfElimination {
        db: out,
        copies,
        ref_copies: ref_names,
        side_copies: side_names,
        target_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::aggregate::{evaluate, AggFunc};
    use exq_relstore::{Universal, ValueType as T};

    fn dblp_db() -> Database {
        let schema = SchemaBuilder::new()
            .relation("Author", &[("id", T::Str), ("dom", T::Str)], &["id"])
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation(
                "Publication",
                &[("pubid", T::Str), ("year", T::Int), ("venue", T::Str)],
                &["pubid"],
            )
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, dom) in [("A1", "edu"), ("A2", "com"), ("A3", "com")] {
            db.insert("Author", vec![id.into(), dom.into()]).unwrap();
        }
        for (id, pubid) in [
            ("A1", "P1"),
            ("A2", "P1"),
            ("A1", "P2"),
            ("A3", "P2"),
            ("A2", "P3"),
            ("A3", "P3"),
        ] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        for (pubid, year, venue) in [
            ("P1", 2001, "SIGMOD"),
            ("P2", 2011, "VLDB"),
            ("P3", 2001, "SIGMOD"),
        ] {
            db.insert("Publication", vec![pubid.into(), year.into(), venue.into()])
                .unwrap();
        }
        db.validate().unwrap();
        db
    }

    #[test]
    fn transform_produces_standard_only_schema() {
        let db = dblp_db();
        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        assert!(!elim.db.schema().has_back_and_forth());
        assert_eq!(elim.copies, 2, "every paper has two authors");
        assert_eq!(elim.ref_copies.len(), 2);
        assert_eq!(elim.side_copies.len(), 2);
        elim.db.validate().unwrap();
    }

    #[test]
    fn one_universal_row_per_publication() {
        let db = dblp_db();
        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        let u = Universal::compute(&elim.db, &elim.db.full_view());
        assert_eq!(u.len(), 3, "exactly one row per distinct pubid");
    }

    #[test]
    fn count_star_on_transform_equals_count_distinct_on_original() {
        let db = dblp_db();
        let u0 = Universal::compute(&db, &db.full_view());
        let pubid = db.schema().attr("Publication", "pubid").unwrap();
        let venue = db.schema().attr("Publication", "venue").unwrap();
        let original = evaluate(
            &db,
            &u0,
            &Predicate::eq(venue, "SIGMOD"),
            &AggFunc::CountDistinct(pubid),
        )
        .unwrap();

        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        let u1 = Universal::compute(&elim.db, &elim.db.full_view());
        let venue1 = elim.db.schema().attr(&elim.target_name, "venue").unwrap();
        let transformed = evaluate(
            &elim.db,
            &u1,
            &Predicate::eq(venue1, "SIGMOD"),
            &AggFunc::CountStar,
        )
        .unwrap();
        assert_eq!(original, transformed);
    }

    #[test]
    fn author_predicate_becomes_disjunction() {
        let db = dblp_db();
        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        let p = elim.rewrite_eq("dom", "com").unwrap();
        // Count publications with at least one com author: P1, P2, P3.
        let u = Universal::compute(&elim.db, &elim.db.full_view());
        let n = evaluate(&elim.db, &u, &p, &AggFunc::CountStar).unwrap();
        assert_eq!(n, 3.0);
        // edu: only P1 and P2 (A1's papers).
        let p = elim.rewrite_eq("dom", "edu").unwrap();
        let n = evaluate(&elim.db, &u, &p, &AggFunc::CountStar).unwrap();
        assert_eq!(n, 2.0);
    }

    #[test]
    fn count_star_is_additive_after_transform() {
        let db = dblp_db();
        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        let u = Universal::compute(&elim.db, &elim.db.full_view());
        assert_eq!(
            crate::additivity::check_aggregate(&elim.db, &u, &AggFunc::CountStar),
            crate::additivity::Additivity::CountStarNoBackAndForth
        );
    }

    #[test]
    fn rejects_standard_fk() {
        let db = dblp_db();
        assert!(matches!(
            eliminate_back_and_forth(&db, 0),
            Err(Error::TransformPrecondition(_))
        ));
        assert!(matches!(
            eliminate_back_and_forth(&db, 9),
            Err(Error::TransformPrecondition(_))
        ));
    }

    #[test]
    fn uneven_fanout_uses_dummy_slots() {
        // P1 has two authors, P2 has one.
        let schema = SchemaBuilder::new()
            .relation("Author", &[("id", T::Str), ("dom", T::Str)], &["id"])
            .relation(
                "Authored",
                &[("id", T::Str), ("pubid", T::Str)],
                &["id", "pubid"],
            )
            .relation("Publication", &[("pubid", T::Str)], &["pubid"])
            .standard_fk("Authored", &["id"], "Author")
            .back_and_forth_fk("Authored", &["pubid"], "Publication")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (id, dom) in [("A1", "edu"), ("A2", "com")] {
            db.insert("Author", vec![id.into(), dom.into()]).unwrap();
        }
        for (id, pubid) in [("A1", "P1"), ("A2", "P1"), ("A1", "P2")] {
            db.insert("Authored", vec![id.into(), pubid.into()])
                .unwrap();
        }
        db.insert("Publication", vec!["P1".into()]).unwrap();
        db.insert("Publication", vec!["P2".into()]).unwrap();
        db.validate().unwrap();

        let elim = eliminate_back_and_forth(&db, 1).unwrap();
        assert_eq!(elim.copies, 2);
        let u = Universal::compute(&elim.db, &elim.db.full_view());
        assert_eq!(
            u.len(),
            2,
            "one universal row per publication, dummies fill slot 2 of P2"
        );
    }
}
