//! Minimal CSV import/export for relations.
//!
//! A downstream user of the explanation engine has data in flat files
//! (the paper's natality dataset ships as fixed-width/CSV from the CDC);
//! this module loads such files into a [`Database`] and dumps relations
//! back out, without external dependencies.
//!
//! Format: RFC-4180-style — comma separated, `"` quoting with `""`
//! escapes, first line is the header. Values are parsed against the
//! declared column type (`Int`/`Float`/`Bool` columns parse numerically).
//! A *bare* empty field is NULL; a *quoted* empty field (`""`) is the
//! empty string. A quoted field may span physical lines: CR, LF, and
//! CRLF inside quotes are preserved verbatim, so `dump_relation` output
//! always loads back (the round trip is property-tested).

use crate::database::Database;
use crate::dict::Interner;
use crate::error::{Error, Result};
use crate::value::{Value, ValueType};
use std::io::{BufRead, Write};

/// Split one CSV record into `(field, was_quoted)` pairs, handling
/// quotes. Quoting is significant: a bare empty field is NULL, a quoted
/// empty field (`""`) is the empty string. Returns `None` for an
/// unterminated quoted field (malformed input).
fn split_record(line: &str) -> Option<Vec<(String, bool)>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                other => field.push(other),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quoted = true;
                }
                ',' => {
                    fields.push((std::mem::take(&mut field), quoted));
                    quoted = false;
                }
                other => field.push(other),
            }
        }
    }
    if in_quotes {
        return None;
    }
    fields.push((field, quoted));
    Some(fields)
}

/// Read one logical CSV record, or `None` at end of input.
///
/// A physical line whose quote count is odd ends inside a quoted field,
/// so the newline belongs to the field and the record continues on the
/// next line. Only the record *terminator* (one LF, with an optional
/// preceding CR) is stripped; CR/LF bytes inside quoted fields pass
/// through untouched. An unterminated quote at end of input returns the
/// partial record and lets `split_record` report it as malformed.
fn read_record(reader: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut record = String::new();
    let mut quotes = 0usize;
    loop {
        let start = record.len();
        if reader.read_line(&mut record)? == 0 {
            if record.is_empty() {
                return Ok(None);
            }
            // Final record without a trailing newline; a lone trailing CR
            // outside quotes is still line-ending noise.
            if quotes.is_multiple_of(2) && record.ends_with('\r') {
                record.pop();
            }
            return Ok(Some(record));
        }
        quotes += record[start..].bytes().filter(|&b| b == b'"').count();
        if quotes.is_multiple_of(2) {
            if record.ends_with('\n') {
                record.pop();
                if record.ends_with('\r') {
                    record.pop();
                }
            }
            return Ok(Some(record));
        }
    }
}

/// Quote a field if needed.
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parse a textual field against a declared type. (NULL handling — the
/// bare empty field — happens in the caller, which knows whether the
/// field was quoted; a quoted empty field is the empty *string*.)
pub fn parse_value(text: &str, ty: ValueType) -> Result<Value> {
    if text.is_empty() {
        return Ok(Value::str(""));
    }
    let bad = |expected: &str| Error::TypeMismatch {
        relation: String::new(),
        attribute: String::new(),
        expected: expected.to_string(),
        got: text.to_string(),
    };
    match ty {
        ValueType::Int => text.parse::<i64>().map(Value::Int).map_err(|_| bad("int")),
        ValueType::Float => text
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| bad("float")),
        ValueType::Bool => match text {
            "true" | "1" => Ok(Value::Bool(true)),
            "false" | "0" => Ok(Value::Bool(false)),
            _ => Err(bad("bool")),
        },
        ValueType::Str | ValueType::Any => Ok(Value::str(text)),
    }
}

/// Load CSV rows into the relation named `relation`. The header must
/// name a subset-free permutation of the relation's columns (all columns,
/// any order). Returns the number of rows inserted.
pub fn load_relation(db: &mut Database, relation: &str, mut reader: impl BufRead) -> Result<usize> {
    let rel_idx = db.schema().relation_index(relation)?;
    let db_schema = db.schema_arc();
    let schema = db_schema.relation(rel_idx);

    let io_err = |_| Error::TypeMismatch {
        relation: relation.to_string(),
        attribute: "<io>".to_string(),
        expected: "utf-8 text".to_string(),
        got: "read error".to_string(),
    };
    let header_line = match read_record(&mut reader).map_err(io_err)? {
        Some(h) => h,
        None => return Ok(0),
    };
    let header = split_record(&header_line).ok_or_else(|| Error::TypeMismatch {
        relation: relation.to_string(),
        attribute: "<header>".to_string(),
        expected: "well-formed CSV".to_string(),
        got: header_line.clone(),
    })?;
    // Map header position → column index.
    let mut col_of = Vec::with_capacity(header.len());
    for (name, _) in &header {
        let col = schema
            .attr_index(name)
            .ok_or_else(|| Error::UnknownAttribute {
                relation: relation.to_string(),
                attribute: name.clone(),
            })?;
        col_of.push(col);
    }
    if col_of.len() != schema.arity() {
        return Err(Error::RowArity {
            relation: relation.to_string(),
            expected: schema.arity(),
            got: col_of.len(),
        });
    }

    // One allocation per distinct string: flat files repeat the same few
    // labels down a column, and rows that share them are smaller to hold
    // and cheaper to dictionary-code.
    let mut strings = Interner::new();
    let mut inserted = 0;
    while let Some(line) = read_record(&mut reader).map_err(io_err)? {
        if line.is_empty() {
            continue;
        }
        let fields = split_record(&line).ok_or_else(|| Error::TypeMismatch {
            relation: relation.to_string(),
            attribute: "<record>".to_string(),
            expected: "well-formed CSV".to_string(),
            got: line.to_string(),
        })?;
        if fields.len() != col_of.len() {
            return Err(Error::RowArity {
                relation: relation.to_string(),
                expected: col_of.len(),
                got: fields.len(),
            });
        }
        let mut row = vec![Value::Null; schema.arity()];
        for ((field, quoted), &col) in fields.iter().zip(&col_of) {
            row[col] = if field.is_empty() && !quoted {
                Value::Null
            } else {
                match schema.attributes[col].ty {
                    ValueType::Str | ValueType::Any => strings.intern(field),
                    ty => parse_value(field, ty)?,
                }
            };
        }
        db.insert_at(rel_idx, row)?;
        inserted += 1;
    }
    Ok(inserted)
}

/// Write a relation as CSV (header + all rows).
pub fn dump_relation(db: &Database, relation: &str, mut writer: impl Write) -> Result<usize> {
    let rel_idx = db.schema().relation_index(relation)?;
    let schema = db.schema().relation(rel_idx);
    let io_err = |_| Error::TypeMismatch {
        relation: relation.to_string(),
        attribute: "<io>".to_string(),
        expected: "writable output".to_string(),
        got: "write error".to_string(),
    };
    let header: Vec<String> = schema.attributes.iter().map(|a| quote(&a.name)).collect();
    writeln!(writer, "{}", header.join(",")).map_err(io_err)?;
    let mut written = 0;
    for row in db.relation(rel_idx).rows() {
        let fields: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Null => String::new(),
                Value::Str(s) if s.is_empty() => "\"\"".to_string(),
                other => quote(&other.to_string()),
            })
            .collect();
        writeln!(writer, "{}", fields.join(",")).map_err(io_err)?;
        written += 1;
    }
    // A buffered writer passed by value would otherwise drop a failed
    // final write silently.
    writer.flush().map_err(io_err)?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::ValueType as T;

    fn db() -> Database {
        let schema = SchemaBuilder::new()
            .relation(
                "R",
                &[
                    ("id", T::Int),
                    ("name", T::Str),
                    ("score", T::Float),
                    ("flag", T::Bool),
                ],
                &["id"],
            )
            .build()
            .unwrap();
        Database::new(schema)
    }

    #[test]
    fn round_trip() {
        let mut d = db();
        d.insert("R", vec![1.into(), "plain".into(), 1.5.into(), true.into()])
            .unwrap();
        d.insert(
            "R",
            vec![
                2.into(),
                Value::str("quote\"inside, and comma"),
                Value::Null,
                false.into(),
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(dump_relation(&d, "R", &mut out).unwrap(), 2);

        let mut d2 = db();
        let n = load_relation(&mut d2, "R", out.as_slice()).unwrap();
        assert_eq!(n, 2);
        for i in 0..2 {
            assert_eq!(d.relation(0).row(i), d2.relation(0).row(i));
        }
    }

    #[test]
    fn failed_flush_is_an_error() {
        struct FlushFails(Vec<u8>);
        impl Write for FlushFails {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let mut d = db();
        d.insert("R", vec![1.into(), "a".into(), 1.5.into(), true.into()])
            .unwrap();
        assert!(matches!(
            dump_relation(&d, "R", FlushFails(Vec::new())),
            Err(Error::TypeMismatch { attribute, .. }) if attribute == "<io>"
        ));
    }

    #[test]
    fn loaded_rows_share_one_allocation_per_distinct_string() {
        let csv = "id,name,score,flag\n1,ann,1.5,true\n2,\"b,c\",,false\n3,ann,2,true\n4,\"b,c\",0.5,\n5,\"\",,\n6,\"\",,\n";
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", csv.as_bytes()).unwrap(), 6);
        let name = |row: usize| match &d.relation(0).row(row)[1] {
            Value::Str(s) => std::sync::Arc::clone(s),
            other => panic!("row {row} holds {other:?}"),
        };
        for (a, b) in [(0, 2), (1, 3), (4, 5)] {
            assert!(
                std::sync::Arc::ptr_eq(&name(a), &name(b)),
                "rows {a} and {b}"
            );
        }
        assert!(!std::sync::Arc::ptr_eq(&name(0), &name(1)));
        // Sharing is invisible on the way out: the dump is, byte for
        // byte, what these rows have always dumped as.
        let mut out = Vec::new();
        assert_eq!(dump_relation(&d, "R", &mut out).unwrap(), 6);
        assert_eq!(String::from_utf8(out).unwrap(), csv);
    }

    #[test]
    fn header_permutation_accepted() {
        let csv = "name,flag,score,id\nalice,true,2.5,7\n";
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", csv.as_bytes()).unwrap(), 1);
        let row = d.relation(0).row(0);
        assert_eq!(row[0], Value::Int(7));
        assert_eq!(row[1], Value::str("alice"));
        assert_eq!(row[2], Value::Float(2.5));
        assert_eq!(row[3], Value::Bool(true));
    }

    #[test]
    fn empty_field_is_null() {
        let csv = "id,name,score,flag\n1,,,\n";
        let mut d = db();
        load_relation(&mut d, "R", csv.as_bytes()).unwrap();
        let row = d.relation(0).row(0);
        assert_eq!(row[1], Value::Null);
        assert_eq!(row[2], Value::Null);
        assert_eq!(row[3], Value::Null);
    }

    #[test]
    fn type_errors_reported() {
        let csv = "id,name,score,flag\nnot_an_int,x,1.0,true\n";
        let mut d = db();
        assert!(matches!(
            load_relation(&mut d, "R", csv.as_bytes()),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn arity_errors_reported() {
        let missing_col = "id,name,score\n1,x,1.0\n";
        let mut d = db();
        assert!(matches!(
            load_relation(&mut d, "R", missing_col.as_bytes()),
            Err(Error::RowArity { .. })
        ));

        let short_row = "id,name,score,flag\n1,x\n";
        let mut d = db();
        assert!(matches!(
            load_relation(&mut d, "R", short_row.as_bytes()),
            Err(Error::RowArity { .. })
        ));
    }

    #[test]
    fn unknown_header_column_rejected() {
        let csv = "id,name,score,zzz\n";
        let mut d = db();
        assert!(matches!(
            load_relation(&mut d, "R", csv.as_bytes()),
            Err(Error::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let fields = split_record(r#"a,"b,c","d""e",f"#).unwrap();
        let texts: Vec<&str> = fields.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(texts, vec!["a", "b,c", "d\"e", "f"]);
        assert_eq!(
            fields.iter().map(|(_, q)| *q).collect::<Vec<_>>(),
            vec![false, true, true, false]
        );
        assert_eq!(split_record(r#""unterminated"#), None);
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote("a,b"), "\"a,b\"");
        assert_eq!(quote("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    fn crlf_and_blank_lines_tolerated() {
        let csv = "id,name,score,flag\r\n1,x,1.0,true\r\n\r\n2,y,2.0,false\r\n";
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", csv.as_bytes()).unwrap(), 2);
    }

    #[test]
    fn quoted_fields_span_physical_lines() {
        // LF, CR, and CRLF inside quotes are all field content; the CRLF
        // record terminators around them are not.
        let csv = "id,name,score,flag\r\n1,\"two\nlines\",1.0,true\r\n2,\"cr\rhere\",2.0,false\r\n3,\"crlf\r\nhere\",3.0,true\r\n";
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", csv.as_bytes()).unwrap(), 3);
        assert_eq!(d.relation(0).row(0)[1], Value::str("two\nlines"));
        assert_eq!(d.relation(0).row(1)[1], Value::str("cr\rhere"));
        assert_eq!(d.relation(0).row(2)[1], Value::str("crlf\r\nhere"));
    }

    #[test]
    fn dump_with_newlines_loads_back() {
        let mut d = db();
        d.insert(
            "R",
            vec![
                1.into(),
                Value::str("a\r\nb,\"c\"\nd\re"),
                Value::Null,
                true.into(),
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        dump_relation(&d, "R", &mut out).unwrap();
        let mut d2 = db();
        assert_eq!(load_relation(&mut d2, "R", out.as_slice()).unwrap(), 1);
        assert_eq!(d.relation(0).row(0), d2.relation(0).row(0));
    }

    #[test]
    fn unterminated_quote_spanning_lines_is_malformed() {
        let csv = "id,name,score,flag\n1,\"never closed\n2,x,1.0,true\n";
        let mut d = db();
        assert!(matches!(
            load_relation(&mut d, "R", csv.as_bytes()),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn final_record_without_newline() {
        let csv = "id,name,score,flag\n1,\"multi\nline\",1.5,true";
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", csv.as_bytes()).unwrap(), 1);
        assert_eq!(d.relation(0).row(0)[1], Value::str("multi\nline"));
    }

    #[test]
    fn empty_input_loads_nothing() {
        let mut d = db();
        assert_eq!(load_relation(&mut d, "R", "".as_bytes()).unwrap(), 0);
    }
}
