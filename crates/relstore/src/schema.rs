//! Database schemas: relations, primary keys, and foreign keys.
//!
//! Foreign keys come in two flavours, following Section 2.2 of the paper:
//!
//! * **standard** (`R_j.fk → R_i.pk`) — deleting the referenced tuple
//!   cascade-deletes the referencing one (`t_i ⇝ t_j`);
//! * **back-and-forth** (`R_j.fk ↪ R_i.pk`) — additionally, deleting the
//!   referencing tuple deletes the referenced one (`t_j ⇝ t_i`): every
//!   member of a collection is necessary for the collection (every author is
//!   necessary for her paper).
//!
//! The schema-level causal structure these induce is the *schema causal
//! graph* of Definition 3.8, exposed by [`DatabaseSchema::causal_graph`].

use crate::error::{Error, Result};
use crate::lookup::LookupMap;
use crate::value::ValueType;
use std::fmt;

/// One column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Column name, unique within its relation.
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
}

/// Schema of a single relation: named, typed columns plus a primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSchema {
    /// Relation name, unique within the database schema.
    pub name: String,
    /// Columns in declaration order.
    pub attributes: Vec<Attribute>,
    /// Column indices forming the primary key (non-empty).
    pub primary_key: Vec<usize>,
}

impl RelationSchema {
    /// Index of the column named `attr`, if any.
    pub fn attr_index(&self, attr: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == attr)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }
}

/// Whether a foreign key is standard (cascade only) or back-and-forth
/// (cascade plus backward cascade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FkKind {
    /// `R_j.fk → R_i.pk`: causal edge `t_i ⇝ t_j` only.
    Standard,
    /// `R_j.fk ↪ R_i.pk`: causal edges both ways.
    BackAndForth,
}

/// A resolved foreign key `from.from_cols → to.to_cols`, where `to_cols` is
/// the primary key of `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Index of the referencing relation (the paper's `R_j`).
    pub from_rel: usize,
    /// Referencing columns in `from_rel`.
    pub from_cols: Vec<usize>,
    /// Index of the referenced relation (the paper's `R_i`).
    pub to_rel: usize,
    /// Referenced columns (always the primary key of `to_rel`).
    pub to_cols: Vec<usize>,
    /// Standard or back-and-forth.
    pub kind: FkKind,
}

/// Reference to one attribute of one relation, resolved to indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// Relation index in the database schema.
    pub rel: usize,
    /// Column index within that relation.
    pub col: usize,
}

/// Schema of an entire database: relations plus foreign keys.
///
/// Invariants established by [`SchemaBuilder::build`]:
/// * relation and attribute names are unique;
/// * every foreign key targets the full primary key of its target, with
///   matching arity and types;
/// * the undirected foreign-key graph is a forest (acyclic) — required for
///   the universal relation and the Yannakakis reducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseSchema {
    relations: Vec<RelationSchema>,
    foreign_keys: Vec<ForeignKey>,
}

impl DatabaseSchema {
    /// All relation schemas, in declaration order.
    pub fn relations(&self) -> &[RelationSchema] {
        &self.relations
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// The relation schema at `idx`.
    pub fn relation(&self, idx: usize) -> &RelationSchema {
        &self.relations[idx]
    }

    /// All foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Index of the relation named `name`.
    pub fn relation_index(&self, name: &str) -> Result<usize> {
        self.relations
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| Error::UnknownRelation(name.to_string()))
    }

    /// Resolve `"Relation.attribute"` or (`relation`, `attribute`) names to
    /// an [`AttrRef`].
    pub fn attr(&self, relation: &str, attribute: &str) -> Result<AttrRef> {
        let rel = self.relation_index(relation)?;
        let col =
            self.relations[rel]
                .attr_index(attribute)
                .ok_or_else(|| Error::UnknownAttribute {
                    relation: relation.to_string(),
                    attribute: attribute.to_string(),
                })?;
        Ok(AttrRef { rel, col })
    }

    /// Resolve a dotted `"Relation.attribute"` path.
    pub fn attr_path(&self, path: &str) -> Result<AttrRef> {
        match path.split_once('.') {
            Some((r, a)) => self.attr(r, a),
            None => Err(Error::UnknownAttribute {
                relation: String::new(),
                attribute: path.to_string(),
            }),
        }
    }

    /// Human-readable name of an attribute reference.
    pub fn attr_name(&self, a: AttrRef) -> String {
        format!(
            "{}.{}",
            self.relations[a.rel].name, self.relations[a.rel].attributes[a.col].name
        )
    }

    /// Whether the schema has any back-and-forth foreign key. When it does
    /// not, program **P** converges in two steps (Proposition 3.5) and
    /// COUNT(*) numerical queries are intervention-additive (Section 4.1).
    pub fn has_back_and_forth(&self) -> bool {
        self.foreign_keys
            .iter()
            .any(|fk| fk.kind == FkKind::BackAndForth)
    }

    /// Total number of back-and-forth foreign keys (the `s` of
    /// Proposition 3.11).
    pub fn back_and_forth_count(&self) -> usize {
        self.foreign_keys
            .iter()
            .filter(|fk| fk.kind == FkKind::BackAndForth)
            .count()
    }

    /// The schema causal graph of Definition 3.8.
    pub fn causal_graph(&self) -> SchemaCausalGraph {
        let mut solid = Vec::new();
        let mut dotted = Vec::new();
        for fk in &self.foreign_keys {
            // Edge from the referenced relation to the referencing one.
            solid.push((fk.to_rel, fk.from_rel));
            if fk.kind == FkKind::BackAndForth {
                dotted.push((fk.from_rel, fk.to_rel));
            }
        }
        SchemaCausalGraph {
            relation_count: self.relations.len(),
            solid,
            dotted,
        }
    }

    /// Adjacency of the undirected foreign-key graph: for each relation, the
    /// `(fk index, neighbour relation)` pairs it participates in.
    pub(crate) fn fk_adjacency(&self) -> Vec<Vec<(usize, usize)>> {
        let mut adj = vec![Vec::new(); self.relations.len()];
        for (i, fk) in self.foreign_keys.iter().enumerate() {
            adj[fk.from_rel].push((i, fk.to_rel));
            adj[fk.to_rel].push((i, fk.from_rel));
        }
        adj
    }

    /// Connected components of the undirected foreign-key graph, each a list
    /// of relation indices. The universal relation joins within components
    /// and cross-products across them.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let adj = self.fk_adjacency();
        let mut seen = vec![false; self.relations.len()];
        let mut comps = Vec::new();
        for start in 0..self.relations.len() {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                for &(_, v) in &adj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }
}

/// The schema causal graph (Definition 3.8): one node per relation, a solid
/// edge `R_i → R_j` for every foreign key `R_j.fk → R_i.pk`, and an extra
/// dotted edge `R_j → R_i` when the key is back-and-forth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaCausalGraph {
    /// Number of relations (nodes).
    pub relation_count: usize,
    /// Solid (cascade) edges, `(referenced, referencing)`.
    pub solid: Vec<(usize, usize)>,
    /// Dotted (backward cascade) edges, `(referencing, referenced)`.
    pub dotted: Vec<(usize, usize)>,
}

impl SchemaCausalGraph {
    /// Footnote 10: at most one foreign key between any two relations.
    pub fn is_simple(&self) -> bool {
        let mut pairs: Vec<(usize, usize)> = self
            .solid
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        pairs.sort_unstable();
        pairs.windows(2).all(|w| w[0] != w[1])
    }

    /// Number of *distinct referencing relations* that carry more than one
    /// back-and-forth foreign key. Proposition 3.11 requires this to be
    /// zero for the non-recursive evaluation to apply.
    pub fn max_back_and_forth_per_relation(&self) -> usize {
        let mut counts = vec![0usize; self.relation_count];
        for &(from, _) in &self.dotted {
            counts[from] += 1;
        }
        counts.into_iter().max().unwrap_or(0)
    }
}

/// Incremental builder for a [`DatabaseSchema`].
///
/// ```
/// use exq_relstore::{SchemaBuilder, ValueType};
/// let schema = SchemaBuilder::new()
///     .relation("Author", &[("id", ValueType::Str), ("name", ValueType::Str)], &["id"])
///     .relation("Authored", &[("id", ValueType::Str), ("pubid", ValueType::Str)], &["id", "pubid"])
///     .standard_fk("Authored", &["id"], "Author")
///     .build()
///     .unwrap();
/// assert_eq!(schema.relation_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    relations: Vec<RelationSchema>,
    // Unresolved fk declarations: (from name, from cols, to name, kind).
    fks: Vec<(String, Vec<String>, String, FkKind)>,
}

impl SchemaBuilder {
    /// An empty builder.
    pub fn new() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// Declare a relation with `(name, type)` columns and a primary key
    /// given by column names. Errors (duplicate names, unknown pk columns)
    /// are reported by [`SchemaBuilder::build`].
    pub fn relation(mut self, name: &str, columns: &[(&str, ValueType)], pk: &[&str]) -> Self {
        let attributes = columns
            .iter()
            .map(|(n, t)| Attribute {
                name: (*n).to_string(),
                ty: *t,
            })
            .collect::<Vec<_>>();
        let primary_key = pk
            .iter()
            .map(|p| {
                attributes
                    .iter()
                    .position(|a| a.name == *p)
                    .unwrap_or(usize::MAX)
            })
            .collect();
        self.relations.push(RelationSchema {
            name: name.to_string(),
            attributes,
            primary_key,
        });
        self
    }

    /// Declare a relation given as a [`RelationSchema`] (the schema
    /// DSL's lowering).
    pub(crate) fn push_relation(mut self, relation: RelationSchema) -> Self {
        self.relations.push(relation);
        self
    }

    /// Declare a standard foreign key `from.cols → to.pk`.
    pub fn standard_fk(mut self, from: &str, cols: &[&str], to: &str) -> Self {
        self.fks.push((
            from.to_string(),
            cols.iter().map(|c| c.to_string()).collect(),
            to.to_string(),
            FkKind::Standard,
        ));
        self
    }

    /// Declare a back-and-forth foreign key `from.cols ↪ to.pk`.
    pub fn back_and_forth_fk(mut self, from: &str, cols: &[&str], to: &str) -> Self {
        self.fks.push((
            from.to_string(),
            cols.iter().map(|c| c.to_string()).collect(),
            to.to_string(),
            FkKind::BackAndForth,
        ));
        self
    }

    /// Validate and produce the schema.
    pub fn build(self) -> Result<DatabaseSchema> {
        // Relation-level checks.
        let mut names = LookupMap::new();
        for (i, r) in self.relations.iter().enumerate() {
            if names.insert(r.name.clone(), i).is_some() {
                return Err(Error::DuplicateRelation(r.name.clone()));
            }
            let mut attr_names = LookupMap::new();
            for a in &r.attributes {
                if attr_names.insert(a.name.as_str(), ()).is_some() {
                    return Err(Error::DuplicateAttribute {
                        relation: r.name.clone(),
                        attribute: a.name.clone(),
                    });
                }
            }
            if r.primary_key.is_empty() || r.primary_key.iter().any(|&c| c >= r.attributes.len()) {
                return Err(Error::UnknownAttribute {
                    relation: r.name.clone(),
                    attribute: "<primary key>".to_string(),
                });
            }
        }

        // Resolve foreign keys.
        let mut foreign_keys = Vec::with_capacity(self.fks.len());
        for (from, cols, to, kind) in &self.fks {
            let from_rel = *names
                .get(from)
                .ok_or_else(|| Error::UnknownRelation(from.clone()))?;
            let to_rel = *names
                .get(to)
                .ok_or_else(|| Error::UnknownRelation(to.clone()))?;
            let from_schema = &self.relations[from_rel];
            let mut from_cols = Vec::with_capacity(cols.len());
            for c in cols {
                from_cols.push(from_schema.attr_index(c).ok_or_else(|| {
                    Error::UnknownAttribute {
                        relation: from.clone(),
                        attribute: c.clone(),
                    }
                })?);
            }
            let to_cols = self.relations[to_rel].primary_key.clone();
            if from_cols.len() != to_cols.len() {
                return Err(Error::ForeignKeyArity {
                    from: from.clone(),
                    to: to.clone(),
                });
            }
            for (&f, &t) in from_cols.iter().zip(&to_cols) {
                let ft = self.relations[from_rel].attributes[f].ty;
                let tt = self.relations[to_rel].attributes[t].ty;
                if ft != tt && ft != ValueType::Any && tt != ValueType::Any {
                    return Err(Error::ForeignKeyTarget {
                        from: from.clone(),
                        to: to.clone(),
                    });
                }
            }
            foreign_keys.push(ForeignKey {
                from_rel,
                from_cols,
                to_rel,
                to_cols,
                kind: *kind,
            });
        }

        let schema = DatabaseSchema {
            relations: self.relations,
            foreign_keys,
        };

        // Acyclicity: the undirected fk graph must be a forest.
        let adj = schema.fk_adjacency();
        let n = schema.relations.len();
        let mut seen = vec![false; n];
        for start in 0..n {
            if seen[start] {
                continue;
            }
            // DFS remembering the edge we arrived by; revisiting a seen node
            // through a different edge means a cycle (multi-edges included).
            let mut stack: Vec<(usize, usize)> = vec![(start, usize::MAX)];
            seen[start] = true;
            while let Some((u, via)) = stack.pop() {
                for &(edge, v) in &adj[u] {
                    if edge == via {
                        continue;
                    }
                    if seen[v] {
                        return Err(Error::CyclicSchema);
                    }
                    seen[v] = true;
                    stack.push((v, edge));
                }
            }
        }

        Ok(schema)
    }
}

impl fmt::Display for DatabaseSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.relations {
            write!(f, "{}(", r.name)?;
            for (i, a) in r.attributes.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                let key = if r.primary_key.contains(&i) { "*" } else { "" };
                write!(f, "{key}{}: {}", a.name, a.ty)?;
            }
            writeln!(f, ")")?;
        }
        for fk in &self.foreign_keys {
            let arrow = match fk.kind {
                FkKind::Standard => "->",
                FkKind::BackAndForth => "<->",
            };
            let from = &self.relations[fk.from_rel];
            let cols: Vec<&str> = fk
                .from_cols
                .iter()
                .map(|&c| from.attributes[c].name.as_str())
                .collect();
            writeln!(
                f,
                "  {}.({}) {} {}.pk",
                from.name,
                cols.join(","),
                arrow,
                self.relations[fk.to_rel].name
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType as T;

    /// The running example's schema (Figure 3 / Eq. (2)).
    pub(crate) fn dblp_schema() -> DatabaseSchema {
        SchemaBuilder::new()
            .relation(
                "Author",
                &[
                    ("id", T::Str),
                    ("name", T::Str),
                    ("inst", T::Str),
                    ("dom", T::Str),
                ],
                &["id"],
            )
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
            .unwrap()
    }

    #[test]
    fn builds_running_example_schema() {
        let s = dblp_schema();
        assert_eq!(s.relation_count(), 3);
        assert!(s.has_back_and_forth());
        assert_eq!(s.back_and_forth_count(), 1);
        let a = s.attr("Author", "name").unwrap();
        assert_eq!(s.attr_name(a), "Author.name");
        assert_eq!(
            s.attr_path("Publication.year").unwrap(),
            s.attr("Publication", "year").unwrap()
        );
    }

    #[test]
    fn rejects_duplicate_relation() {
        let err = SchemaBuilder::new()
            .relation("R", &[("a", T::Int)], &["a"])
            .relation("R", &[("b", T::Int)], &["b"])
            .build()
            .unwrap_err();
        assert_eq!(err, Error::DuplicateRelation("R".to_string()));
    }

    #[test]
    fn rejects_duplicate_attribute() {
        let err = SchemaBuilder::new()
            .relation("R", &[("a", T::Int), ("a", T::Str)], &["a"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateAttribute { .. }));
    }

    #[test]
    fn rejects_unknown_pk_column() {
        let err = SchemaBuilder::new()
            .relation("R", &[("a", T::Int)], &["zz"])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnknownAttribute { .. }));
    }

    #[test]
    fn rejects_fk_arity_mismatch() {
        let err = SchemaBuilder::new()
            .relation("R", &[("a", T::Int), ("b", T::Int)], &["a", "b"])
            .relation("S", &[("a", T::Int)], &["a"])
            .standard_fk("S", &["a"], "R") // R's pk has two columns
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ForeignKeyArity { .. }));
    }

    #[test]
    fn rejects_fk_type_mismatch() {
        let err = SchemaBuilder::new()
            .relation("R", &[("a", T::Int)], &["a"])
            .relation("S", &[("a", T::Str)], &["a"])
            .standard_fk("S", &["a"], "R")
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::ForeignKeyTarget { .. }));
    }

    #[test]
    fn rejects_cyclic_fk_graph() {
        let err = SchemaBuilder::new()
            .relation("A", &[("id", T::Int), ("b", T::Int)], &["id"])
            .relation("B", &[("id", T::Int), ("a", T::Int)], &["id"])
            .standard_fk("A", &["b"], "B")
            .standard_fk("B", &["a"], "A")
            .build()
            .unwrap_err();
        assert_eq!(err, Error::CyclicSchema);
    }

    #[test]
    fn rejects_parallel_fks_between_same_relations() {
        // Two fks between the same pair of relations form a multigraph
        // cycle, which also breaks the join-tree assumption.
        let err = SchemaBuilder::new()
            .relation("A", &[("id", T::Int)], &["id"])
            .relation("B", &[("x", T::Int), ("y", T::Int)], &["x"])
            .standard_fk("B", &["x"], "A")
            .standard_fk("B", &["y"], "A")
            .build()
            .unwrap_err();
        assert_eq!(err, Error::CyclicSchema);
    }

    #[test]
    fn causal_graph_of_running_example() {
        let s = dblp_schema();
        let g = s.causal_graph();
        let author = s.relation_index("Author").unwrap();
        let authored = s.relation_index("Authored").unwrap();
        let publication = s.relation_index("Publication").unwrap();
        assert!(g.solid.contains(&(author, authored)));
        assert!(g.solid.contains(&(publication, authored)));
        assert_eq!(g.dotted, vec![(authored, publication)]);
        assert!(g.is_simple());
        assert_eq!(g.max_back_and_forth_per_relation(), 1);
    }

    #[test]
    fn example_37_schema_has_two_bf_fks_on_one_relation() {
        // R1(a), R2(b), R3(c, a, b) with two back-and-forth fks from R3.
        let s = SchemaBuilder::new()
            .relation("R1", &[("a", T::Int)], &["a"])
            .relation("R2", &[("b", T::Int)], &["b"])
            .relation("R3", &[("c", T::Int), ("a", T::Int), ("b", T::Int)], &["c"])
            .back_and_forth_fk("R3", &["a"], "R1")
            .back_and_forth_fk("R3", &["b"], "R2")
            .build()
            .unwrap();
        let g = s.causal_graph();
        assert_eq!(
            g.max_back_and_forth_per_relation(),
            2,
            "recursion required per §3.3"
        );
        assert_eq!(s.back_and_forth_count(), 2);
    }

    #[test]
    fn components_of_forest() {
        let s = SchemaBuilder::new()
            .relation("A", &[("id", T::Int)], &["id"])
            .relation("B", &[("id", T::Int), ("a", T::Int)], &["id"])
            .relation("C", &[("id", T::Int)], &["id"])
            .standard_fk("B", &["a"], "A")
            .build()
            .unwrap();
        let comps = s.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn display_is_readable() {
        let s = dblp_schema();
        let text = s.to_string();
        assert!(text.contains("Author(*id: str"));
        assert!(text.contains("Authored.(pubid) <-> Publication.pk"));
    }
}
