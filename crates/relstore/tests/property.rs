//! Substrate-level property tests: bitset algebra against a reference
//! set implementation, the total order on values, cube cells against a
//! brute-force reference, aggregate-state merging, and CSV round-trips.

use exq_relstore::aggregate::AggFunc;
use exq_relstore::cube::{self, CubeStrategy};
use exq_relstore::{
    csv, Database, DictBuilder, Predicate, SchemaBuilder, TupleSet, Universal, Value,
    ValueType as T,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// TupleSet vs BTreeSet reference
// ---------------------------------------------------------------------

fn to_ref(set: &TupleSet) -> BTreeSet<usize> {
    set.iter().collect()
}

proptest! {
    #[test]
    fn tupleset_algebra_matches_reference(
        cap in 1usize..300,
        a_items in proptest::collection::vec(any::<u16>(), 0..40),
        b_items in proptest::collection::vec(any::<u16>(), 0..40),
    ) {
        let mut a = TupleSet::empty(cap);
        let mut b = TupleSet::empty(cap);
        let ra: BTreeSet<usize> = a_items.iter().map(|&x| x as usize % cap).collect();
        let rb: BTreeSet<usize> = b_items.iter().map(|&x| x as usize % cap).collect();
        for &x in &ra { a.insert(x); }
        for &x in &rb { b.insert(x); }

        prop_assert_eq!(to_ref(&a), ra.clone());
        prop_assert_eq!(a.count(), ra.len());
        prop_assert_eq!(a.is_empty(), ra.is_empty());

        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(to_ref(&u), ra.union(&rb).copied().collect::<BTreeSet<_>>());

        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert_eq!(to_ref(&i), ra.intersection(&rb).copied().collect::<BTreeSet<_>>());

        let mut d = a.clone();
        d.difference_with(&b);
        prop_assert_eq!(to_ref(&d), ra.difference(&rb).copied().collect::<BTreeSet<_>>());

        let c = a.complement();
        prop_assert_eq!(c.count(), cap - ra.len());
        prop_assert_eq!(a.is_subset(&u), true);
        prop_assert_eq!(b.is_subset(&u), true);
        prop_assert_eq!(u.is_subset(&a), rb.is_subset(&ra));

        // Iteration is ascending.
        let order: Vec<usize> = a.iter().collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(order, sorted);
    }
}

// ---------------------------------------------------------------------
// Value total order
// ---------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(|i| Value::Int(i as i64)),
        any::<f32>().prop_map(|f| Value::Float(f as f64)),
        "[a-z]{0,6}".prop_map(Value::str),
    ]
}

proptest! {
    #[test]
    fn value_order_is_total_and_consistent(
        values in proptest::collection::vec(arb_value(), 2..12),
    ) {
        use std::cmp::Ordering;
        // Antisymmetry and hash-eq consistency.
        for a in &values {
            for b in &values {
                prop_assert_eq!(a.cmp(b).reverse(), b.cmp(a));
                if a.cmp(b) == Ordering::Equal {
                    use std::hash::{Hash, Hasher};
                    let mut ha = std::collections::hash_map::DefaultHasher::new();
                    let mut hb = std::collections::hash_map::DefaultHasher::new();
                    a.hash(&mut ha);
                    b.hash(&mut hb);
                    prop_assert_eq!(ha.finish(), hb.finish());
                }
            }
        }
        // Transitivity via sort: sorting twice is stable/idempotent.
        let mut s1 = values.clone();
        s1.sort();
        let mut s2 = s1.clone();
        s2.sort();
        prop_assert_eq!(s1, s2);
    }
}

/// Values biased toward the seams of the Int/Float total order: full-range
/// integers (beyond the 2^53 float-precision cliff), floats that are exact
/// images of integers, signed zeros, and non-finite floats.
fn arb_value_edge() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<i64>().prop_map(|i| Value::Float(i as f64)),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,4}".prop_map(Value::str),
    ]
}

/// The fixed corner cases every run must cover, whatever the RNG does.
fn edge_values() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Bool(false),
        Value::Int(0),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Int(i64::MAX),
        Value::Int(i64::MAX - 1),
        Value::Int(i64::MIN),
        Value::Int(1 << 53),
        Value::Int((1 << 53) + 1),
        Value::Float(i64::MAX as f64), // 2^63: equal to no integer
        Value::Float(i64::MIN as f64), // -2^63: equal to i64::MIN
        Value::Float((1u64 << 53) as f64),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::str(""),
    ]
}

proptest! {
    /// `a == b ⇒ hash(a) == hash(b)` across all variant pairs, with the
    /// ±0.0 / i64::MAX / 2^53-cliff corners pinned into every case. Also
    /// checks that the order stays antisymmetric and transitive there —
    /// the pre-fix lossy Int→f64 comparison broke transitivity above 2^53.
    #[test]
    fn hash_agrees_with_equality_on_all_variant_pairs(
        random in proptest::collection::vec(arb_value_edge(), 0..10),
    ) {
        let mut values = edge_values();
        values.extend(random);
        for a in &values {
            for b in &values {
                prop_assert_eq!(a.cmp(b).reverse(), b.cmp(a));
                if a == b {
                    prop_assert_eq!(
                        hash_of(a), hash_of(b),
                        "{:?} == {:?} but hashes differ", a, b
                    );
                }
                // Transitivity: everything equal to `a` must compare the
                // same way against every third value.
                if a == b {
                    for c in &values {
                        prop_assert_eq!(a.cmp(c), b.cmp(c), "{:?} vs {:?} vs {:?}", a, b, c);
                    }
                }
            }
        }
        let mut s1 = values.clone();
        s1.sort();
        let mut s2 = s1.clone();
        s2.sort();
        prop_assert_eq!(s1, s2);
    }
}

fn hash_of(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------
// Aggregate exactness on the 2^53 precision cliff
// ---------------------------------------------------------------------

/// Integers biased toward the f64 precision cliff: full-range `i64`s mixed
/// with values around ±2^53, where a lossy `as f64` fold collapses ±1s.
fn arb_cliff_int() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        (1i64 << 53) - 2..(1i64 << 53) + 100,
        -(1i64 << 53) - 100..-(1i64 << 53) + 2,
        -3i64..3,
    ]
}

proptest! {
    /// SUM over an integer column equals the exact `i128` sum converted to
    /// `f64` once — the same guarantee `Value::hash` got for the Int/Float
    /// collapse in the ordering fix, now for accumulation. The old
    /// accumulator folded every row through `Value::as_f64`, so e.g.
    /// `[2^53, 1, -2^53]` summed to 0 instead of 1.
    #[test]
    fn int_sum_and_avg_are_exact(xs in proptest::collection::vec(arb_cliff_int(), 1..40)) {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Int)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, &x) in xs.iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), x.into()]).unwrap();
        }
        let u = Universal::compute(&db, &db.full_view());
        let x = db.schema().attr("R", "x").unwrap();
        let exact: i128 = xs.iter().map(|&v| i128::from(v)).sum();
        let sum = exq_relstore::aggregate::evaluate(&db, &u, &Predicate::True, &AggFunc::Sum(x)).unwrap();
        prop_assert_eq!(sum.to_bits(), (exact as f64).to_bits());
        let avg = exq_relstore::aggregate::evaluate(&db, &u, &Predicate::True, &AggFunc::Avg(x)).unwrap();
        prop_assert_eq!(avg.to_bits(), (exact as f64 / xs.len() as f64).to_bits());

        // The cube's grand-total cell carries the same exact sum (all
        // lanes are integers, so its fold stays exact too).
        let g = db.schema().attr("R", "id").unwrap();
        let c = cube::compute(&db, &u, &Predicate::True, &[g], &AggFunc::Sum(x), CubeStrategy::Auto).unwrap();
        let total = c.cells.get(&vec![Value::Null].into_boxed_slice()).copied().unwrap();
        prop_assert_eq!(total.to_bits(), (exact as f64).to_bits());
    }
}

// ---------------------------------------------------------------------
// Dictionary round-trip (columnar store)
// ---------------------------------------------------------------------

/// Column values for the dictionary round-trip: every variant, the
/// reserved dummy, NaN (the quiet payload), signed zeros, and the
/// Int/Float spelling seam.
fn arb_dict_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::dummy()),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Int(0)),
        Just(Value::Int(7)),
        Just(Value::Float(7.0)),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(Value::Int),
        (-20i64..20).prop_map(|i| Value::Float(i as f64)),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,4}".prop_map(Value::str),
    ]
}

proptest! {
    /// Dictionary encode→decode is the identity up to `Value` equality
    /// (`Int(7)` and `Float(7.0)` share a code, so the decoded spelling is
    /// the first-appearance representative — exactly the key the old
    /// row-oriented `HashMap` accumulation would have retained), the
    /// first occurrence of every equivalence class round-trips
    /// bit-exactly, and code assignment is first-appearance order, stable
    /// across rebuilds.
    #[test]
    fn dict_column_round_trips(values in proptest::collection::vec(arb_dict_value(), 1..60)) {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, v) in values.iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), v.clone()]).unwrap();
        }
        let x = db.schema().attr("R", "x").unwrap();

        let store = std::sync::Arc::clone(db.columns());
        let (codes, dict) = store.dict_column(x);
        prop_assert_eq!(codes.len(), values.len());

        let mut first_code_of: std::collections::HashMap<&Value, u32> = std::collections::HashMap::new();
        let mut next_fresh = 0u32;
        for (i, v) in values.iter().enumerate() {
            let code = codes[i];
            // Decode is the identity up to Value equality (NaN == NaN with
            // the same payload under the total order).
            prop_assert_eq!(
                dict.value(code).cmp(v),
                std::cmp::Ordering::Equal,
                "row {} decodes {:?}, stored {:?}", i, dict.value(code), v
            );
            match first_code_of.get(v) {
                Some(&seen) => prop_assert_eq!(code, seen, "repeat of {:?} re-coded", v),
                None => {
                    // First appearance: fresh codes are dense and ascending
                    // in table order, and decode bit-exactly.
                    prop_assert_eq!(code, next_fresh, "fresh code out of order for {:?}", v);
                    next_fresh += 1;
                    first_code_of.insert(v, code);
                    if let (Value::Float(a), Value::Float(b)) = (dict.value(code), v) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
            // Null maps to the dictionary's null code and nothing else does.
            prop_assert_eq!(dict.is_null_code(code), v.is_null());
        }

        // Rebuilding the store from scratch reproduces the codes bit for
        // bit — assignment depends only on stored row order.
        let rebuilt = exq_relstore::ColumnStore::build(&db);
        let (codes2, _) = rebuilt.dict_column(x);
        prop_assert_eq!(codes, codes2);

        // The rank table recovers the exact Value total order.
        let mut by_rank: Vec<u32> = (0..dict.len() as u32).collect();
        by_rank.sort_unstable_by_key(|&c| dict.rank(c));
        for pair in by_rank.windows(2) {
            prop_assert!(dict.value(pair[0]) < dict.value(pair[1]));
        }
    }
}

/// [`arb_dict_value`] plus what the dictionary's own hash has to get
/// right: integers above 2⁵³ (where rounding through `f64` would merge
/// neighbours) beside the floats some of them equal, and strings of 5–10
/// and 14–18 bytes (0–4 come with [`arb_dict_value`]), so every length
/// its 8-byte word loop treats differently occurs, on both sides of one
/// and of two whole words. Small alphabets and ranges, so that values
/// repeat.
fn arb_dict_value_wide() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_dict_value(),
        arb_dict_value(),
        (0i64..4).prop_map(|k| Value::Int((1 << 53) + k)),
        (0i64..4).prop_map(|k| Value::Float(((1i64 << 53) + k) as f64)),
        (0i64..3).prop_map(|k| Value::Int(i64::MAX - k)),
        Just(Value::Float(9_223_372_036_854_775_808.0)),
        "[ab]{5,10}".prop_map(Value::str),
        "[ab]{14,18}".prop_map(Value::str),
    ]
}

/// Same variant, same bits: the equality under which a dictionary's
/// representative is *the first spelling*, not merely an equal value.
fn same_spelling(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// A copy of `v` in an allocation of its own.
fn reallocated(v: &Value) -> Value {
    match v {
        Value::Str(s) => Value::str(&**s),
        other => other.clone(),
    }
}

fn one_any_column_db(values: impl Iterator<Item = Value>) -> Database {
    let schema = SchemaBuilder::new()
        .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for (i, v) in values.enumerate() {
        db.insert("R", vec![(i as i64).into(), v]).unwrap();
    }
    db
}

proptest! {
    /// The dictionary against the structure it replaced: a
    /// `HashMap<Value, u32>` filled in first-appearance order. Codes,
    /// representatives, ranks, the null code and lookups of values the
    /// column never held must all agree — whatever the hash does with
    /// `Int(2)`/`Float(2.0)`, `-0.0`, integers above 2⁵³, the empty
    /// string, or a string one byte either side of a word boundary.
    #[test]
    fn dict_matches_hash_map_oracle(
        values in proptest::collection::vec(arb_dict_value_wide(), 0..80),
        probes in proptest::collection::vec(arb_dict_value_wide(), 0..40),
    ) {
        let mut oracle: std::collections::HashMap<Value, u32> = std::collections::HashMap::new();
        let mut firsts: Vec<&Value> = Vec::new();
        let mut builder = DictBuilder::new();
        for v in &values {
            let next = oracle.len() as u32;
            let want = *oracle.entry(v.clone()).or_insert(next);
            if want == next {
                firsts.push(v);
            }
            prop_assert_eq!(builder.encode(v), want, "code of {:?}", v);
        }
        let dict = builder.finish();
        prop_assert_eq!(dict.len(), firsts.len());
        let mut by_value: Vec<usize> = (0..firsts.len()).collect();
        by_value.sort_by_key(|&code| firsts[code]);
        for (rank, &code) in by_value.iter().enumerate() {
            prop_assert_eq!(dict.rank(code as u32), rank as u32, "rank of code {}", code);
        }
        for (code, first) in firsts.iter().enumerate() {
            prop_assert!(
                same_spelling(dict.value(code as u32), first),
                "code {} decodes {:?}, first spelling {:?}", code, dict.value(code as u32), first
            );
        }
        prop_assert_eq!(
            dict.null_code(),
            firsts.iter().position(|v| v.is_null()).map(|p| p as u32)
        );
        for v in values.iter().chain(&probes) {
            prop_assert_eq!(dict.code(v), oracle.get(v).copied(), "lookup of {:?}", v);
            prop_assert_eq!(dict.code(&reallocated(v)), oracle.get(v).copied());
        }
    }

    /// Sharing allocations is invisible in code space: rows whose equal
    /// strings share one allocation and rows where every cell has its own
    /// build identical column stores, so the same-allocation shortcut can
    /// never change a code.
    #[test]
    fn interned_and_reallocated_rows_build_identical_columns(
        values in proptest::collection::vec(arb_dict_value_wide(), 1..80),
    ) {
        let mut strings = exq_relstore::Interner::new();
        let interned = one_any_column_db(values.iter().map(|v| match v {
            Value::Str(s) => strings.intern(s),
            other => other.clone(),
        }));
        let apart = one_any_column_db(values.iter().map(reallocated));
        let x = interned.schema().attr("R", "x").unwrap();
        let (codes, dict) = interned.columns().dict_column(x);
        let (codes2, dict2) = apart.columns().dict_column(x);
        prop_assert_eq!(codes, codes2);
        prop_assert_eq!(dict.len(), dict2.len());
        for code in 0..dict.len() as u32 {
            prop_assert!(same_spelling(dict.value(code), dict2.value(code)));
            prop_assert_eq!(dict.rank(code), dict2.rank(code));
        }
        prop_assert_eq!(dict.null_code(), dict2.null_code());
    }
}

// ---------------------------------------------------------------------
// Compiled predicates vs the Predicate interpreter
// ---------------------------------------------------------------------

fn arb_cmp_op() -> impl Strategy<Value = exq_relstore::CmpOp> {
    use exq_relstore::CmpOp;
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

proptest! {
    /// `ColumnStore::compile_predicate` is observationally identical to
    /// `Predicate::eval` on every tuple — masks over dictionary codes,
    /// boolean combinators, and the `True`/`False` constant folding all
    /// included. This is the exactness the coded cube and `evaluate`
    /// hot paths rely on.
    #[test]
    fn compiled_predicate_matches_interpreter(
        values in proptest::collection::vec(arb_dict_value(), 1..40),
        atoms in proptest::collection::vec((arb_cmp_op(), arb_dict_value()), 1..6),
        shape in 0u8..4,
    ) {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        for (i, v) in values.iter().enumerate() {
            db.insert("R", vec![(i as i64).into(), v.clone()]).unwrap();
        }
        let x = db.schema().attr("R", "x").unwrap();

        let parts: Vec<Predicate> = atoms
            .iter()
            .map(|(op, rhs)| Predicate::cmp(x, *op, rhs.clone()))
            .collect();
        let mid = parts.len() / 2;
        let p = match shape {
            0 => Predicate::and(parts),
            1 => Predicate::or(parts),
            2 => Predicate::not(Predicate::and(parts)),
            _ => Predicate::and([
                Predicate::or(parts[..mid].to_vec()),
                Predicate::not(Predicate::or(parts[mid..].to_vec())),
            ]),
        };
        // Constant operands exercise the compile-time folding.
        let folded = Predicate::and([
            Predicate::True,
            p.clone(),
            Predicate::or([Predicate::False, p.clone()]),
        ]);

        let u = Universal::compute(&db, &db.full_view());
        let store = std::sync::Arc::clone(db.columns());
        for q in [&p, &folded] {
            let coded = store.compile_predicate(q);
            for t in u.iter() {
                prop_assert_eq!(coded.eval(t), q.eval(&db, t), "{:?} on {:?}", q, t);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cube vs brute-force reference
// ---------------------------------------------------------------------

/// `m` and `w` are `Any` columns mixing variants: `m` (a cube dimension)
/// holds Int/Float/Str with `Int(1)` and `Float(1.0)` sharing one code;
/// `w` (a COUNT DISTINCT measure) also holds NULLs.
fn small_db(rows: &[(u8, u8, i32)]) -> Database {
    let schema = SchemaBuilder::new()
        .relation(
            "R",
            &[
                ("id", T::Int),
                ("g", T::Int),
                ("h", T::Int),
                ("x", T::Int),
                ("m", T::Any),
                ("w", T::Any),
            ],
            &["id"],
        )
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for (i, (g, h, x)) in rows.iter().enumerate() {
        let m = match (h / 3) % 4 {
            0 => Value::Int(1),
            1 => Value::Float(1.0),
            2 => Value::str("s"),
            _ => Value::Float(2.5),
        };
        let w = match x.rem_euclid(4) {
            0 => Value::Int(i64::from(*x) / 4),
            1 => Value::Float(f64::from(*x) / 4.0),
            2 => Value::Null,
            _ => Value::str("t"),
        };
        db.insert(
            "R",
            vec![
                (i as i64).into(),
                ((g % 3) as i64).into(),
                ((h % 3) as i64).into(),
                (*x as i64).into(),
                m,
                w,
            ],
        )
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every cube cell equals the aggregate computed by filtering the data
    /// with the cell's coordinate as a predicate (the defining property of
    /// WITH CUBE).
    #[test]
    fn cube_cells_match_bruteforce(rows in proptest::collection::vec((any::<u8>(), any::<u8>(), -100i32..100), 1..30)) {
        let db = small_db(&rows);
        let u = Universal::compute(&db, &db.full_view());
        let schema = db.schema();
        let g = schema.attr("R", "g").unwrap();
        let h = schema.attr("R", "h").unwrap();
        let x = schema.attr("R", "x").unwrap();
        let m = schema.attr("R", "m").unwrap();
        let w = schema.attr("R", "w").unwrap();
        let dims = vec![g, h, m];

        for agg in [
            AggFunc::CountStar,
            AggFunc::Sum(x),
            AggFunc::Min(x),
            AggFunc::Max(x),
            AggFunc::CountDistinct(w),
        ] {
            let cube = cube::compute(&db, &u, &Predicate::True, &dims, &agg, CubeStrategy::Auto).unwrap();
            for (coord, &cell_value) in cube.cells.sorted() {
                // Rebuild the coordinate as a selection predicate.
                let parts = dims
                    .iter()
                    .zip(coord.iter())
                    .filter(|(_, v)| !v.is_null())
                    .map(|(&a, v)| Predicate::eq(a, v.clone()));
                let sel = Predicate::and(parts);
                let direct = exq_relstore::aggregate::evaluate(&db, &u, &sel, &agg).unwrap();
                prop_assert_eq!(cell_value, direct, "cell {:?} for {:?}", coord, agg);
            }
            // Cell count sanity: at most (|g|+1)(|h|+1)(|m|+1) distinct
            // coords, `m` having three value classes.
            prop_assert!(cube.len() <= 64);
        }
    }

    /// group_by returns exactly the fully-specified cube cells.
    #[test]
    fn group_by_matches_cube_finest_level(rows in proptest::collection::vec((any::<u8>(), any::<u8>(), -100i32..100), 1..30)) {
        let db = small_db(&rows);
        let u = Universal::compute(&db, &db.full_view());
        let schema = db.schema();
        let dims = vec![schema.attr("R", "g").unwrap(), schema.attr("R", "h").unwrap()];
        let grouped = cube::group_by(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar).unwrap();
        let cube = cube::compute(&db, &u, &Predicate::True, &dims, &AggFunc::CountStar, CubeStrategy::LatticeRollup).unwrap();
        let finest: exq_relstore::lookup::LookupMap<_, _> = cube
            .cells
            .sorted()
            .into_iter()
            .filter(|(c, _)| c.iter().all(|v| !v.is_null()))
            .map(|(c, v)| (c.clone(), *v))
            .collect();
        prop_assert_eq!(grouped.cells, finest);
    }
}

// ---------------------------------------------------------------------
// Predicate text round-trip
// ---------------------------------------------------------------------

fn arb_predicate() -> impl Strategy<Value = exq_relstore::Predicate> {
    use exq_relstore::{AttrRef, CmpOp, Predicate};
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let literal = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        "[ -~&&[^\\\\]]{0,8}".prop_map(Value::str),
    ];
    // Columns of small_db's relation R: id, g, h, x.
    let atom = (0usize..4, op, literal)
        .prop_map(|(col, op, value)| Predicate::cmp(AttrRef { rel: 0, col }, op, value));
    let leaf = prop_oneof![Just(Predicate::True), Just(Predicate::False), atom,];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Predicate::And),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Predicate::Or),
            inner.prop_map(exq_relstore::Predicate::not),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse_predicate ∘ predicate_to_text` preserves evaluation on every
    /// tuple, for arbitrary well-typed boolean predicates; an ill-typed
    /// one is rejected with E008.
    #[test]
    fn predicate_text_round_trip(
        rows in proptest::collection::vec((any::<u8>(), any::<u8>(), -100i32..100), 1..15),
        pred in arb_predicate(),
    ) {
        let db = small_db(&rows);
        let u = Universal::compute(&db, &db.full_view());
        let text = exq_relstore::parse::predicate_to_text(db.schema(), &pred);
        // The generator's columns are all `int`: a string or boolean
        // literal is ill-typed, and the parser rejects it with E008.
        fn well_typed(p: &exq_relstore::Predicate) -> bool {
            use exq_relstore::Predicate as P;
            match p {
                P::Atom(a) => matches!(a.value, Value::Null | Value::Int(_) | Value::Float(_)),
                P::And(ps) | P::Or(ps) => ps.iter().all(well_typed),
                P::Not(inner) => well_typed(inner),
                P::True | P::False => true,
            }
        }
        match exq_relstore::parse::parse_predicate(db.schema(), &text) {
            Ok(back) => {
                prop_assert!(well_typed(&pred), "ill-typed `{}` parsed", text);
                for t in u.iter() {
                    prop_assert_eq!(pred.eval(&db, t), back.eval(&db, t), "via `{}`", text);
                }
            }
            Err(e) => prop_assert!(
                !well_typed(&pred) && e.code() == "E008",
                "`{}` failed to re-parse: {}",
                text,
                e
            ),
        }
    }
}

// ---------------------------------------------------------------------
// CSV round-trip
// ---------------------------------------------------------------------

/// String fields exercising every quoting seam: commas, doubled quotes,
/// and CR / LF / CRLF sequences embedded mid-field, at the start, and at
/// the end of the field.
fn arb_csv_field() -> impl Strategy<Value = String> {
    prop_oneof![
        // Printable text with quoting trigger characters mixed in.
        "[ -~]{0,12}",
        // Explicit line-break shapes around plain text.
        ("[a-z\",]{0,4}", "[a-z\",]{0,4}").prop_map(|(a, b)| format!("{a}\r{b}")),
        ("[a-z\",]{0,4}", "[a-z\",]{0,4}").prop_map(|(a, b)| format!("{a}\n{b}")),
        ("[a-z\",]{0,4}", "[a-z\",]{0,4}").prop_map(|(a, b)| format!("{a}\r\n{b}")),
        Just("\"\"".to_string()),
        Just("\r\n".to_string()),
        Just("\n\"x\",\r".to_string()),
    ]
}

proptest! {
    #[test]
    fn csv_round_trips(
        rows in proptest::collection::vec(
            (arb_csv_field(), proptest::option::of(any::<i32>()), any::<bool>()),
            0..20,
        ),
    ) {
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("s", T::Str), ("n", T::Int), ("b", T::Bool)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema.clone());
        for (i, (s, n, b)) in rows.iter().enumerate() {
            db.insert(
                "R",
                vec![
                    (i as i64).into(),
                    Value::str(s),
                    n.map_or(Value::Null, |v| Value::Int(v as i64)),
                    (*b).into(),
                ],
            )
            .unwrap();
        }
        let mut buffer = Vec::new();
        csv::dump_relation(&db, "R", &mut buffer).unwrap();
        let mut db2 = Database::new(schema);
        let loaded = csv::load_relation(&mut db2, "R", buffer.as_slice()).unwrap();
        prop_assert_eq!(loaded, rows.len());
        for i in 0..rows.len() {
            prop_assert_eq!(db.relation(0).row(i), db2.relation(0).row(i));
        }
    }
}

// ---------------------------------------------------------------------
// Counter invariants (exq-obs)
// ---------------------------------------------------------------------

use exq_relstore::{semijoin, ExecConfig, MetricsSink};

const THREADS: [usize; 3] = [1, 2, 7];

/// Parent/child schema — one join component, with a back-and-forth key so
/// semijoin reduction drops dangling rows on *both* sides.
fn parent_child_db(parents: &[i64], children: &[(i64, i64)]) -> Database {
    let schema = SchemaBuilder::new()
        .relation("Parent", &[("id", T::Int), ("v", T::Int)], &["id"])
        .relation("Child", &[("id", T::Int), ("pid", T::Int)], &["id"])
        .back_and_forth_fk("Child", &["pid"], "Parent")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for (i, &p) in parents.iter().enumerate() {
        db.insert("Parent", vec![p.into(), (i as i64).into()])
            .unwrap();
    }
    for (i, &(_, pid)) in children.iter().enumerate() {
        db.insert("Child", vec![(i as i64).into(), pid.into()])
            .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation law of the semijoin counters —
    /// `rows_in == rows_dropped + rows_surviving` — with the whole
    /// normalized snapshot bit-identical at 1/2/7 threads. The generated
    /// instances have dangling rows on both sides of the back-and-forth
    /// key, so the reduction genuinely drops tuples.
    #[test]
    fn semijoin_counters_conserve_rows_across_threads(
        parent_ids in proptest::collection::vec(0i64..25, 1..20),
        child_pids in proptest::collection::vec(0i64..50, 0..60),
    ) {
        let parents: Vec<i64> = {
            let mut p: Vec<i64> = parent_ids.clone();
            p.sort_unstable();
            p.dedup();
            p
        };
        let children: Vec<(i64, i64)> =
            child_pids.iter().map(|&pid| (0, pid)).collect();
        let db = parent_child_db(&parents, &children);

        let mut snapshots = Vec::new();
        for threads in THREADS {
            let sink = MetricsSink::recording();
            let exec = ExecConfig::with_threads(threads).with_metrics(sink.clone());
            let mut view = db.full_view();
            semijoin::reduce_in_place_with(&db, &mut view, &exec);
            let snap = sink.snapshot().normalized();
            prop_assert_eq!(
                snap.counter("semijoin.rows_in"),
                snap.counter("semijoin.rows_dropped") + snap.counter("semijoin.rows_surviving"),
                "conservation law at {} threads", threads
            );
            prop_assert_eq!(
                snap.counter("semijoin.rows_surviving"),
                view.total_live() as u64
            );
            snapshots.push(snap);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert_eq!(&snapshots[0], &snapshots[2]);
    }

    /// On a single-component schema every probe match becomes exactly one
    /// universal tuple: `join.probe_matches == universal.len()`, at every
    /// thread count, with identical normalized snapshots.
    #[test]
    fn join_probe_matches_equal_universal_len_across_threads(
        parent_count in 1usize..12,
        child_parent in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let parents: Vec<i64> = (0..parent_count as i64).collect();
        let children: Vec<(i64, i64)> = child_parent
            .iter()
            .map(|&p| (0, (p as usize % parent_count) as i64))
            .collect();
        let db = parent_child_db(&parents, &children);

        let mut snapshots = Vec::new();
        for threads in THREADS {
            let sink = MetricsSink::recording();
            let exec = ExecConfig::with_threads(threads).with_metrics(sink.clone());
            let u = Universal::compute_with(&db, &db.full_view(), &exec);
            let snap = sink.snapshot().normalized();
            prop_assert_eq!(snap.counter("join.components"), 1);
            prop_assert_eq!(
                snap.counter("join.probe_matches"),
                u.len() as u64,
                "at {} threads", threads
            );
            prop_assert_eq!(snap.counter("join.tuples"), u.len() as u64);
            snapshots.push(snap);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert_eq!(&snapshots[0], &snapshots[2]);
    }

    /// On full cross-product data the cube has the closed-form cell count
    /// `Π (c_i + 1)` and per-level counts `C(levels)`, identical at every
    /// thread count.
    #[test]
    fn cube_cell_counters_match_closed_form_across_threads(
        a in 1usize..4,
        b in 1usize..4,
        repeat in 1usize..3,
    ) {
        // Full cross product over domains of size a and b, each combo
        // inserted `repeat` times (duplicates must not add cells).
        let mut rows = Vec::new();
        for g in 0..a as u8 {
            for h in 0..b as u8 {
                for _ in 0..repeat {
                    rows.push((g, h, 1i32));
                }
            }
        }
        let db = small_db(&rows);
        let schema = db.schema();
        let dims = vec![schema.attr("R", "g").unwrap(), schema.attr("R", "h").unwrap()];

        let mut snapshots = Vec::new();
        for threads in THREADS {
            let sink = MetricsSink::recording();
            let exec = ExecConfig::with_threads(threads).with_metrics(sink.clone());
            let u = Universal::compute_with(&db, &db.full_view(), &ExecConfig::sequential());
            let cube = cube::compute_with(
                &db, &u, &Predicate::True, &dims, &AggFunc::CountStar,
                CubeStrategy::LatticeRollup, &exec,
            ).unwrap();
            let snap = sink.snapshot().normalized();
            let (a64, b64) = (a as u64, b as u64);
            prop_assert_eq!(snap.counter("cube.cells"), (a64 + 1) * (b64 + 1));
            prop_assert_eq!(snap.counter("cube.cells"), cube.len() as u64);
            prop_assert_eq!(snap.counter("cube.cells.level.0"), 1);
            prop_assert_eq!(snap.counter("cube.cells.level.1"), a64 + b64);
            prop_assert_eq!(snap.counter("cube.cells.level.2"), a64 * b64);
            prop_assert_eq!(snap.counter("cube.input_tuples"), rows.len() as u64);
            snapshots.push(snap);
        }
        prop_assert_eq!(&snapshots[0], &snapshots[1]);
        prop_assert_eq!(&snapshots[0], &snapshots[2]);
    }
}

/// The parallel probe path (root count past the executor's sequential
/// cut-off) records the same `join.probe_matches` as the sequential one —
/// proptest sizes stay small, so pin the large case explicitly.
#[test]
fn join_counters_deterministic_on_large_single_component() {
    let parents: Vec<i64> = (0..1500).collect();
    let children: Vec<(i64, i64)> = (0..4500).map(|i| (0, i % 1500)).collect();
    let db = parent_child_db(&parents, &children);
    let mut snapshots = Vec::new();
    for threads in THREADS {
        let sink = MetricsSink::recording();
        let exec = ExecConfig::with_threads(threads).with_metrics(sink.clone());
        let u = Universal::compute_with(&db, &db.full_view(), &exec);
        let snap = sink.snapshot().normalized();
        assert_eq!(snap.counter("join.probe_matches"), u.len() as u64);
        assert_eq!(snap.counter("join.root_rows"), 1500);
        snapshots.push(snap);
    }
    assert_eq!(snapshots[0], snapshots[1]);
    assert_eq!(snapshots[0], snapshots[2]);
}

/// Dictionaries are total: a join key column with more than 2²⁰ distinct
/// values is coded like any other, and the code-space join and semijoin
/// over it agree with a `Value`-keyed [`HashIndex`] count. The children
/// hit parents on both sides of code 2²⁰, fan out, and dangle.
#[test]
fn join_and_semijoin_on_more_than_2_pow_20_distinct_keys_match_hash_index() {
    use exq_relstore::index::HashIndex;
    const PARENTS: i64 = (1 << 20) + 1;
    let schema = SchemaBuilder::new()
        .relation("Parent", &[("id", T::Int)], &["id"])
        .relation("Child", &[("id", T::Int), ("pid", T::Int)], &["id"])
        .standard_fk("Child", &["pid"], "Parent")
        .build()
        .unwrap();
    let mut db = Database::new(schema);
    for id in 0..PARENTS {
        db.insert("Parent", vec![id.into()]).unwrap();
    }
    // Every 257th key up to past the last parent (so the tail dangles),
    // every fifth of those twice, plus the very last parent.
    let pids = (0..4096i64)
        .flat_map(|k| std::iter::repeat_n(k * 257, if k % 5 == 0 { 2 } else { 1 }))
        .chain([PARENTS - 1, PARENTS - 1]);
    for (id, pid) in pids.enumerate() {
        db.insert("Child", vec![(id as i64).into(), pid.into()])
            .unwrap();
    }
    let parent_id = db.schema().attr("Parent", "id").unwrap();
    let child_pid = db.schema().attr("Child", "pid").unwrap();

    let store = db.columns();
    let (codes, dict) = store.dict_column(parent_id);
    assert_eq!(dict.len(), PARENTS as usize);
    assert_eq!(codes.last(), Some(&(1 << 20)));
    assert_eq!(dict.value(1 << 20), &Value::Int(PARENTS - 1));

    // Probe a `Value`-keyed index of the children with every parent key:
    // a parent without matches dangles, a child no parent reaches dangles,
    // and every (parent, child) match is one universal tuple.
    let full = db.full_view();
    let by_child = HashIndex::build(
        &db,
        child_pid.rel,
        &[child_pid.col],
        full.live(child_pid.rel),
    );
    let mut expected_live = full.clone();
    let mut reached = TupleSet::empty(db.relation_len(child_pid.rel));
    let mut expected_tuples = 0;
    for (i, key) in db.relation(parent_id.rel).rows().enumerate() {
        let matches = by_child.get(key);
        if matches.is_empty() {
            expected_live.live[parent_id.rel].remove(i);
        }
        expected_tuples += matches.len();
        for &row in matches {
            reached.insert(row as usize);
        }
    }
    assert!(!reached.is_empty() && reached.count() < reached.capacity());
    expected_live.live[child_pid.rel] = reached;

    assert_eq!(Universal::compute(&db, &full).len(), expected_tuples);
    let reduced = semijoin::reduce(&db, &full);
    assert_eq!(reduced, expected_live);
    assert_eq!(Universal::compute(&db, &reduced).len(), expected_tuples);
}

// ---------------------------------------------------------------------
// Append stability (live ingestion)
// ---------------------------------------------------------------------

use exq_relstore::ColumnStore;

proptest! {
    /// A chain of `Dict::extended` appends is indistinguishable from one
    /// from-scratch scan of all the rows: codes assigned at any epoch are
    /// never reassigned by a later append, and the final dictionary
    /// (codes, values, ranks, null code) equals the rebuild exactly. This
    /// is the contract that lets `ColumnStore::extend_for_append` keep old
    /// coded columns byte-stable under live ingestion.
    #[test]
    fn dict_extended_chain_never_recodes_and_matches_scratch(
        initial in proptest::collection::vec(arb_dict_value(), 0..30),
        appends in proptest::collection::vec(
            proptest::collection::vec(arb_dict_value(), 0..12),
            1..5,
        ),
    ) {
        use std::cmp::Ordering;
        let build = |rows: &[Value]| {
            let mut builder = DictBuilder::new();
            for v in rows {
                builder.encode(v);
            }
            builder.finish()
        };
        let mut current = build(&initial);
        let mut all = initial.clone();
        for batch in &appends {
            let before: Vec<Value> =
                (0..current.len() as u32).map(|c| current.value(c).clone()).collect();
            // What an append hands over: the batch's values that have no
            // code yet, once each, in first-appearance order.
            let mut fresh: Vec<Value> = Vec::new();
            for v in batch {
                if current.code(v).is_none() && !fresh.contains(v) {
                    fresh.push(v.clone());
                }
            }
            current = current.extended(fresh);
            all.extend(batch.iter().cloned());
            // Codes never change: the pre-append code→value table is a
            // verbatim prefix of the post-append one.
            prop_assert!(current.len() >= before.len());
            for (code, v) in before.iter().enumerate() {
                prop_assert_eq!(
                    current.value(code as u32).cmp(v),
                    Ordering::Equal,
                    "append reassigned code {}", code
                );
            }
        }
        // Append-then-rebuild identity.
        let scratch = build(&all);
        prop_assert_eq!(current.len(), scratch.len());
        for code in 0..current.len() as u32 {
            prop_assert_eq!(
                current.value(code).cmp(scratch.value(code)),
                Ordering::Equal
            );
            prop_assert_eq!(current.rank(code), scratch.rank(code));
            prop_assert_eq!(current.code(scratch.value(code)), Some(code));
        }
        for v in &all {
            prop_assert_eq!(current.code(v), scratch.code(v));
        }
        prop_assert_eq!(current.null_code(), scratch.null_code());
    }

    /// Random append sequences through `Database::append_batch` keep the
    /// columnar store append-stable: every epoch's code column is a
    /// verbatim prefix of the next epoch's, and the final extended store
    /// is bit-identical (codes, dictionary values, ranks, null code) to a
    /// cold `ColumnStore::build` over the post-append rows.
    #[test]
    fn column_store_appends_are_prefix_stable_and_match_rebuild(
        initial in proptest::collection::vec(arb_dict_value(), 1..30),
        appends in proptest::collection::vec(
            proptest::collection::vec(arb_dict_value(), 1..12),
            1..4,
        ),
    ) {
        use std::cmp::Ordering;
        let schema = SchemaBuilder::new()
            .relation("R", &[("id", T::Int), ("x", T::Any)], &["id"])
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let mut next_id = 0i64;
        for v in &initial {
            db.insert("R", vec![next_id.into(), v.clone()]).unwrap();
            next_id += 1;
        }
        let x = db.schema().attr("R", "x").unwrap();

        // Force the columnar build, then append batch by batch, capturing
        // the code column at every epoch.
        let mut epoch_codes: Vec<Vec<u32>> =
            vec![db.columns().dict_column(x).0.to_vec()];
        for batch in &appends {
            let rows: Vec<Vec<Value>> = batch
                .iter()
                .map(|v| {
                    let row = vec![Value::Int(next_id), v.clone()];
                    next_id += 1;
                    row
                })
                .collect();
            db.append_batch(vec![("R".into(), rows)]).unwrap();
            epoch_codes.push(db.columns().dict_column(x).0.to_vec());
        }

        // Prefix stability across every consecutive epoch pair.
        for (epoch, w) in epoch_codes.windows(2).enumerate() {
            prop_assert_eq!(
                &w[1][..w[0].len()],
                &w[0][..],
                "epoch {} codes rewritten by the following append", epoch
            );
        }

        // Rebuild-from-scratch identity on the final rows.
        let rebuilt = ColumnStore::build(&db);
        let (codes, dict) = db.columns().dict_column(x);
        let (codes2, dict2) = rebuilt.dict_column(x);
        prop_assert_eq!(codes, codes2);
        prop_assert_eq!(dict.len(), dict2.len());
        for code in 0..dict.len() as u32 {
            prop_assert_eq!(
                dict.value(code).cmp(dict2.value(code)),
                Ordering::Equal
            );
            prop_assert_eq!(dict.rank(code), dict2.rank(code));
        }
        prop_assert_eq!(dict.null_code(), dict2.null_code());
    }
}
