//! Synthetic DBLP ⋈ Geo-DBLP integration (Section 5.2 / Figure 15).
//!
//! The paper joins three DBLP tables with five Geo-DBLP tables (crawled
//! affiliation / city / country data) and asks why the UK has *more* PODS
//! than SIGMOD papers in 2001–2011 — `(Q, low)` with `Q = q1/q2`, both
//! eight-table joins. This generator reproduces the 8-relation join tree
//! and the statistical signal:
//!
//! * UK institutions are PODS-heavy (>50% of their SIGMOD∪PODS output),
//!   other countries SIGMOD-heavy;
//! * Oxford hosts two PODS-leaning institutions (`Oxford Univ.` and
//!   `Semmle Ltd.`), so the city-level explanation `[city = Oxford]`
//!   outranks the institution-level one, as in Figure 15b;
//! * exactly one crawled affiliation record per publication, which makes
//!   `COUNT(DISTINCT pubid)` intervention-additive (every `Authored` row
//!   appears in exactly one universal row) so the cube pipeline applies.
//!
//! Schema (arrows = foreign keys; ↪ = back-and-forth):
//!
//! ```text
//! Author(id, name)                     AuthorG(agid, gname)
//!   ▲ id                                  ▲ agid
//! Authored(id, pubid) ─pubid↪ Publication(pubid, year, venue)
//!                                       ▲ pubid
//!        AffilRec(arid, pubid, agid, affid) ─affid→ AffiliationG(affid, inst, cityid)
//!                                                       │ cityid
//!                                                       ▼
//!                                      CityG(cityid, city, countryid) ─→ CountryG(countryid, country)
//! ```

use exq_relstore::{Database, Interner, SchemaBuilder, Value, ValueType as T};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Countries with publication share and PODS share (of SIGMOD∪PODS).
const COUNTRIES: &[(&str, f64, f64)] = &[
    ("USA", 0.50, 0.22),
    ("Germany", 0.13, 0.18),
    ("China", 0.10, 0.05),
    ("Canada", 0.09, 0.25),
    ("United Kingdom", 0.08, 0.58),
    ("Netherlands", 0.05, 0.30),
    ("France", 0.05, 0.40),
];

/// Cities and their institutions per country.
#[allow(clippy::type_complexity)] // static nested literal, clearest as-is
const GEOGRAPHY: &[(&str, &[(&str, &[&str])])] = &[
    (
        "USA",
        &[
            ("New York", &["Columbia Univ.", "IBM Research"]),
            ("San Jose", &["IBM Almaden"]),
            ("Madison", &["Univ. of Wisconsin"]),
            ("Stanford", &["Stanford Univ."]),
        ],
    ),
    (
        "Germany",
        &[
            ("Munich", &["TU Munich"]),
            ("Saarbruecken", &["MPI Informatik"]),
        ],
    ),
    (
        "China",
        &[("Beijing", &["Tsinghua Univ."]), ("Hong Kong", &["HKUST"])],
    ),
    (
        "Canada",
        &[
            ("Toronto", &["Univ. of Toronto"]),
            ("Waterloo", &["Univ. of Waterloo"]),
        ],
    ),
    (
        "United Kingdom",
        &[
            ("Oxford", &["Oxford Univ.", "Semmle Ltd."]),
            ("Edinburgh", &["Univ. of Edinburgh"]),
            ("London", &["Imperial College"]),
        ],
    ),
    ("Netherlands", &[("Amsterdam", &["CWI"])]),
    ("France", &[("Paris", &["INRIA"])]),
];

/// Authors per institution pool.
const AUTHORS_PER_INSTITUTION: usize = 5;

/// Configuration.
#[derive(Debug, Clone)]
pub struct GeoDblpConfig {
    /// Number of publications to generate.
    pub papers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeoDblpConfig {
    fn default() -> GeoDblpConfig {
        GeoDblpConfig {
            papers: 4000,
            seed: 11,
        }
    }
}

/// The 8-relation schema.
pub fn geodblp_schema() -> exq_relstore::DatabaseSchema {
    SchemaBuilder::new()
        .relation("Author", &[("id", T::Str), ("name", T::Str)], &["id"])
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
        .relation(
            "AffilRec",
            &[
                ("arid", T::Str),
                ("pubid", T::Str),
                ("agid", T::Str),
                ("affid", T::Str),
            ],
            &["arid"],
        )
        .relation("AuthorG", &[("agid", T::Str), ("gname", T::Str)], &["agid"])
        .relation(
            "AffiliationG",
            &[("affid", T::Str), ("inst", T::Str), ("cityid", T::Str)],
            &["affid"],
        )
        .relation(
            "CityG",
            &[("cityid", T::Str), ("city", T::Str), ("countryid", T::Str)],
            &["cityid"],
        )
        .relation(
            "CountryG",
            &[("countryid", T::Str), ("country", T::Str)],
            &["countryid"],
        )
        .standard_fk("Authored", &["id"], "Author")
        .back_and_forth_fk("Authored", &["pubid"], "Publication")
        .standard_fk("AffilRec", &["pubid"], "Publication")
        .standard_fk("AffilRec", &["agid"], "AuthorG")
        .standard_fk("AffilRec", &["affid"], "AffiliationG")
        .standard_fk("AffiliationG", &["cityid"], "CityG")
        .standard_fk("CityG", &["countryid"], "CountryG")
        .build()
        .expect("static schema is valid")
}

/// Name of the institution at flat index `idx` in [`GEOGRAPHY`] order.
fn institution_name(idx: usize) -> &'static str {
    let mut flat = 0usize;
    for (_, cities) in GEOGRAPHY {
        for (_, insts) in *cities {
            for name in *insts {
                if flat == idx {
                    return name;
                }
                flat += 1;
            }
        }
    }
    unreachable!("institution index {idx} out of range")
}

/// Generate the integrated database.
pub fn generate(config: &GeoDblpConfig) -> Database {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut db = Database::new(geodblp_schema());
    let rel = |name| {
        db.schema()
            .relation_index(name)
            .expect("geodblp_schema declares it")
    };
    let (author, authored, publication, affil_rec) = (
        rel("Author"),
        rel("Authored"),
        rel("Publication"),
        rel("AffilRec"),
    );
    let (author_g, affiliation_g, city_g, country_g) = (
        rel("AuthorG"),
        rel("AffiliationG"),
        rel("CityG"),
        rel("CountryG"),
    );
    // One allocation per distinct string, so a foreign-key cell shares
    // the allocation of the key it references.
    let mut strings = Interner::new();

    // Geography tables.
    struct Inst {
        affid: String,
        country: &'static str,
        authors: Vec<(String, String)>, // (author id, name) — shared pool
    }
    let mut institutions: Vec<Inst> = Vec::new();
    let mut used_insts: Vec<usize> = Vec::new(); // indices inserted lazily? No: insert all geo upfront, prune later is not allowed; instead only insert referenced rows.

    // We must keep the instance semijoin-reduced: only emit geography rows
    // that end up referenced. Generate publication plan first, then emit.
    #[allow(clippy::type_complexity)]
    let mut plan: Vec<(String, i32, &'static str, usize, Vec<usize>)> = Vec::new();
    // (pubid, year, venue, institution index, author indices within pool)

    // Flatten geography into an institution list with country info.
    for (country, cities) in GEOGRAPHY {
        for (city, insts) in *cities {
            for inst in *insts {
                let idx = institutions.len();
                let mut authors = Vec::new();
                for a in 0..AUTHORS_PER_INSTITUTION {
                    authors.push((
                        format!("GA{:04}-{a}", idx),
                        format!("{inst} researcher {a}"),
                    ));
                }
                institutions.push(Inst {
                    affid: format!("AF{idx:03}"),
                    country,
                    authors,
                });
                let _ = city;
            }
        }
    }

    let country_weight = |country: &str| {
        COUNTRIES
            .iter()
            .find(|c| c.0 == country)
            .map(|c| c.1)
            .unwrap_or(0.0)
    };
    let pods_share = |country: &str| {
        COUNTRIES
            .iter()
            .find(|c| c.0 == country)
            .map(|c| c.2)
            .unwrap_or(0.2)
    };

    let inst_weights: Vec<f64> = institutions
        .iter()
        .map(|i| {
            let per_country = institutions
                .iter()
                .filter(|j| j.country == i.country)
                .count() as f64;
            country_weight(i.country) / per_country
        })
        .collect();
    let total_w: f64 = inst_weights.iter().sum();

    for p in 0..config.papers {
        let mut pickw = rng.random::<f64>() * total_w;
        let mut inst_idx = 0;
        for (i, w) in inst_weights.iter().enumerate() {
            if pickw < *w {
                inst_idx = i;
                break;
            }
            pickw -= w;
        }
        let inst = &institutions[inst_idx];
        let year = rng.random_range(2001..=2011);
        // Semmle Ltd. is a theory-heavy outfit: its papers are almost all
        // PODS, which is what pushes [city = Oxford] above
        // [inst = Oxford Univ.] in Figure 15b.
        let inst_name = institution_name(inst_idx);
        let pods_p = if inst_name == "Semmle Ltd." {
            0.9
        } else {
            pods_share(inst.country)
        };
        let venue = if rng.random::<f64>() < pods_p {
            "PODS"
        } else if rng.random::<f64>() < 0.7 {
            "SIGMOD"
        } else {
            "VLDB"
        };
        let n_authors = 1 + usize::from(rng.random::<f64>() < 0.6);
        let mut author_idxs = Vec::with_capacity(n_authors);
        for _ in 0..n_authors {
            let a = rng.random_range(0..AUTHORS_PER_INSTITUTION);
            if !author_idxs.contains(&a) {
                author_idxs.push(a);
            }
        }
        plan.push((format!("P{p:06}"), year, venue, inst_idx, author_idxs));
        if !used_insts.contains(&inst_idx) {
            used_insts.push(inst_idx);
        }
    }

    // Emit geography (referenced rows only).
    let mut emitted_countries: Vec<&str> = Vec::new();
    let mut emitted_cities: Vec<(usize, usize)> = Vec::new(); // (country idx in GEOGRAPHY, city idx)
    let mut inst_city: Vec<Option<String>> = vec![None; institutions.len()];
    {
        // Locate each institution's (country, city) coordinates.
        let mut flat_idx = 0usize;
        for (ci, (country, cities)) in GEOGRAPHY.iter().enumerate() {
            for (cj, (_city, insts)) in cities.iter().enumerate() {
                for _ in *insts {
                    if used_insts.contains(&flat_idx) {
                        inst_city[flat_idx] = Some(format!("CT{ci:02}-{cj:02}"));
                        if !emitted_cities.contains(&(ci, cj)) {
                            emitted_cities.push((ci, cj));
                        }
                        if !emitted_countries.contains(country) {
                            emitted_countries.push(country);
                        }
                    }
                    flat_idx += 1;
                }
            }
        }
    }
    for country in &emitted_countries {
        let ci = GEOGRAPHY
            .iter()
            .position(|g| g.0 == *country)
            .expect("known country");
        db.insert_at(
            country_g,
            vec![strings.intern(&format!("CO{ci:02}")), (*country).into()],
        )
        .expect("country row");
    }
    for &(ci, cj) in &emitted_cities {
        let city = GEOGRAPHY[ci].1[cj].0;
        db.insert_at(
            city_g,
            vec![
                strings.intern(&format!("CT{ci:02}-{cj:02}")),
                city.into(),
                strings.intern(&format!("CO{ci:02}")),
            ],
        )
        .expect("city row");
    }
    for &inst_idx in &used_insts {
        let inst_name = institution_name(inst_idx);
        db.insert_at(
            affiliation_g,
            vec![
                strings.intern(&institutions[inst_idx].affid),
                inst_name.into(),
                strings.intern(
                    inst_city[inst_idx]
                        .as_deref()
                        .expect("used institutions have a city"),
                ),
            ],
        )
        .expect("affiliation row");
    }

    // Emit publications, authors, authored, affil records, geo authors.
    let mut emitted_authors: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut emitted_gauthors: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for (p, (pubid, year, venue, inst_idx, author_idxs)) in plan.iter().enumerate() {
        let pubid = Value::str(pubid);
        db.insert_at(
            publication,
            vec![pubid.clone(), (*year).into(), strings.intern(venue)],
        )
        .expect("publication row");
        let inst = &institutions[*inst_idx];
        for &a in author_idxs {
            let (id, name) = &inst.authors[a];
            if emitted_authors.insert(id) {
                db.insert_at(author, vec![strings.intern(id), strings.intern(name)])
                    .expect("author row");
            }
            db.insert_at(authored, vec![strings.intern(id), pubid.clone()])
                .expect("authored row");
        }
        // One crawled affiliation record per publication; the geo author is
        // the first author's geo mirror.
        let (gid, gname) = &inst.authors[author_idxs[0]];
        let gaid = strings.intern(&format!("G{gid}"));
        if emitted_gauthors.insert(gid) {
            db.insert_at(author_g, vec![gaid.clone(), strings.intern(gname)])
                .expect("geo author row");
        }
        db.insert_at(
            affil_rec,
            vec![
                Value::str(format!("AR{p:06}")),
                pubid,
                gaid,
                strings.intern(&inst.affid),
            ],
        )
        .expect("affil record row");
    }

    db.validate()
        .expect("generated instance satisfies all constraints");
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use exq_relstore::aggregate::{evaluate, AggFunc};
    use exq_relstore::{Predicate, Universal};

    fn uk_count(db: &Database, u: &Universal, venue: &str) -> f64 {
        let schema = db.schema();
        let sel = Predicate::and([
            Predicate::eq(
                schema.attr("CountryG", "country").unwrap(),
                "United Kingdom",
            ),
            Predicate::eq(schema.attr("Publication", "venue").unwrap(), venue),
            Predicate::between(schema.attr("Publication", "year").unwrap(), 2001, 2011),
        ]);
        let pubid = schema.attr("Publication", "pubid").unwrap();
        evaluate(db, u, &sel, &AggFunc::CountDistinct(pubid)).unwrap()
    }

    #[test]
    fn eight_relations_one_component() {
        let db = generate(&GeoDblpConfig {
            papers: 300,
            seed: 11,
        });
        assert_eq!(db.schema().relation_count(), 8);
        assert_eq!(db.schema().components().len(), 1);
        db.validate().unwrap();
        assert!(exq_relstore::semijoin::is_reduced(&db, &db.full_view()));
    }

    #[test]
    fn uk_is_pods_heavy_others_are_not() {
        let db = generate(&GeoDblpConfig {
            papers: 3000,
            seed: 11,
        });
        let u = Universal::compute(&db, &db.full_view());
        let uk_pods = uk_count(&db, &u, "PODS");
        let uk_sigmod = uk_count(&db, &u, "SIGMOD");
        assert!(
            uk_pods > uk_sigmod,
            "UK should be PODS-heavy: {uk_pods} PODS vs {uk_sigmod} SIGMOD"
        );

        let schema = db.schema();
        let usa_sel = |venue: &str| {
            Predicate::and([
                Predicate::eq(schema.attr("CountryG", "country").unwrap(), "USA"),
                Predicate::eq(schema.attr("Publication", "venue").unwrap(), venue),
            ])
        };
        let pubid = schema.attr("Publication", "pubid").unwrap();
        let usa_pods = evaluate(&db, &u, &usa_sel("PODS"), &AggFunc::CountDistinct(pubid)).unwrap();
        let usa_sigmod =
            evaluate(&db, &u, &usa_sel("SIGMOD"), &AggFunc::CountDistinct(pubid)).unwrap();
        assert!(usa_sigmod > usa_pods, "USA should be SIGMOD-heavy");
    }

    #[test]
    fn one_affil_record_per_publication_makes_count_distinct_additive() {
        let db = generate(&GeoDblpConfig {
            papers: 500,
            seed: 11,
        });
        let u = Universal::compute(&db, &db.full_view());
        // Each Authored row occurs exactly once in the universal relation.
        let authored = db.schema().relation_index("Authored").unwrap();
        let mut counts = vec![0u32; db.relation_len(authored)];
        for t in u.iter() {
            counts[t[authored] as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1));
    }

    #[test]
    fn oxford_has_two_institutions() {
        let db = generate(&GeoDblpConfig {
            papers: 3000,
            seed: 11,
        });
        let u = Universal::compute(&db, &db.full_view());
        let schema = db.schema();
        let inst = schema.attr("AffiliationG", "inst").unwrap();
        let city = schema.attr("CityG", "city").unwrap();
        let pubid = schema.attr("Publication", "pubid").unwrap();
        let by_city = evaluate(
            &db,
            &u,
            &Predicate::eq(city, "Oxford"),
            &AggFunc::CountDistinct(pubid),
        )
        .unwrap();
        let by_inst = evaluate(
            &db,
            &u,
            &Predicate::eq(inst, "Oxford Univ."),
            &AggFunc::CountDistinct(pubid),
        )
        .unwrap();
        assert!(
            by_city > by_inst,
            "Semmle Ltd. adds to the Oxford city count"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(&GeoDblpConfig {
            papers: 200,
            seed: 5,
        });
        let b = generate(&GeoDblpConfig {
            papers: 200,
            seed: 5,
        });
        assert_eq!(a.total_tuples(), b.total_tuples());
    }
}
