//! The `.exq` grammar must never panic, whatever bytes it is fed: the
//! analyzer runs *before* validation, and the engine's strict entry
//! points (`parse_schema`, `parse_question`) receive untrusted HTTP
//! bodies. Feed arbitrary (lossily-decoded) byte soup as schema, as
//! question, and as both, and require a normal return.
//!
//! And `exq check` must agree with the engine, because both run the
//! one grammar: the checker reports no error exactly when the engine
//! accepts, and when both reject, the engine's `(code, line, col)` is
//! among the checker's errors.

use exq_analyze::{analyze, Severity, SourceFile};
use exq_core::qparse::parse_question;
use exq_relstore::parse::parse_schema;
use proptest::prelude::*;

fn mutate(base: &str, edits: &[(u16, u8)]) -> String {
    // Splice arbitrary bytes into otherwise well-formed text so the
    // generator also explores "almost valid" inputs, where error
    // recovery does the most work.
    let mut bytes = base.as_bytes().to_vec();
    for &(pos, b) in edits {
        let i = pos as usize % (bytes.len() + 1);
        if i == bytes.len() {
            bytes.push(b);
        } else {
            bytes[i] = b;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

const SCHEMA_BASE: &str = "relation R(id: int key, year: int, venue: str)\n\
                           relation S(rid: int key, w: float)\n\
                           fk S(rid) <-> R\n";
const QUESTION_BASE: &str = "agg a = count(*) where year >= 2000 and venue = 'x'\n\
                             agg b = sum(S.w)\nexpr a / b\ndir high\nsmoothing 0.1\n";

/// The shipped schema/question pairs, the agreement property's bases.
const ASSET_PAIRS: [(&str, &str); 3] = [
    (
        include_str!("../../../assets/schemas/dblp.exq"),
        include_str!("../../../assets/questions/bump.exq"),
    ),
    (
        include_str!("../../../assets/schemas/natality.exq"),
        include_str!("../../../assets/questions/q_marital.exq"),
    ),
    (
        include_str!("../../../assets/schemas/natality.exq"),
        include_str!("../../../assets/questions/q_race.exq"),
    ),
];

/// Run the engine's strict entry points on untrusted text: the schema,
/// then the question against it (or, when the schema is rejected,
/// against the base schema, so the question path always runs).
fn engine_never_panics(schema_text: &str, question_text: &str) {
    let schema = parse_schema(schema_text)
        .unwrap_or_else(|_| parse_schema(SCHEMA_BASE).expect("base schema parses"));
    let _ = parse_question(&schema, question_text);
}

/// Check `exq check` against the engine on one schema/question pair.
fn agreement(schema_text: &str, question_text: &str) -> Result<(), String> {
    let schema = SourceFile::schema("s", schema_text);
    let question = SourceFile::question("q", question_text);
    let analysis = analyze(Some(&schema), std::slice::from_ref(&question));
    let rejected = match parse_schema(schema_text) {
        Err(e) => Some(("s", e)),
        Ok(s) => match parse_question(&s, question_text) {
            Ok(_) => None,
            Err(exq_core::Error::Store(e)) => Some(("q", e)),
            Err(e) => return Err(format!("engine error outside the grammar: {e}")),
        },
    };
    let Some((file, e)) = rejected else {
        return match analysis.has_errors() {
            false => Ok(()),
            true => Err(format!(
                "engine accepts, check rejects: {}",
                analysis.render_json()
            )),
        };
    };
    let (line, col) = e.position().unwrap_or((usize::MAX, usize::MAX));
    let found = analysis.diagnostics.iter().any(|d| {
        d.severity == Severity::Error
            && d.file == file
            && d.code == e.code()
            && (d.span.line, d.span.col) == (line, col)
    });
    match found {
        true => Ok(()),
        false => Err(format!(
            "engine rejects `{file}` with {} at {line}:{col} ({e}); check reports {}",
            e.code(),
            analysis.render_json()
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512 })]

    #[test]
    fn analyzer_never_panics_on_arbitrary_bytes(
        schema_bytes in proptest::collection::vec(any::<u8>(), 0..200),
        question_bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let schema_text = String::from_utf8_lossy(&schema_bytes).into_owned();
        let question_text = String::from_utf8_lossy(&question_bytes).into_owned();
        engine_never_panics(&schema_text, &question_text);
        let schema = SourceFile::schema("s", schema_text);
        let question = SourceFile::question("q", question_text);
        let analysis = analyze(Some(&schema), std::slice::from_ref(&question));
        // Rendering must not panic either.
        let _ = analysis.render_pretty(&[&schema, &question]);
        let _ = analysis.render_json();
        let _ = analyze(None, std::slice::from_ref(&question));
    }

    #[test]
    fn analyzer_never_panics_on_mutated_valid_input(
        schema_edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
        question_edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..8),
    ) {
        let schema_text = mutate(SCHEMA_BASE, &schema_edits);
        let question_text = mutate(QUESTION_BASE, &question_edits);
        engine_never_panics(&schema_text, &question_text);
        let schema = SourceFile::schema("s", schema_text);
        let question = SourceFile::question("q", question_text);
        let analysis = analyze(Some(&schema), std::slice::from_ref(&question));
        let _ = analysis.render_pretty(&[&schema, &question]);
        let _ = analysis.render_json();
    }

    #[test]
    fn check_and_engine_agree_on_mutated_assets(
        pair in 0usize..3,
        schema_edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
        question_edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
    ) {
        let (schema, question) = ASSET_PAIRS[pair];
        agreement(&mutate(schema, &schema_edits), &mutate(question, &question_edits))
            .map_err(TestCaseError::fail)?;
    }
}

#[test]
fn check_and_engine_agree_on_pinned_inputs() {
    let schema = "relation R(id: int key, year: int, venue: str)\n";
    for question in [
        // Malformed `expr`s, which a character scanner would let through.
        "agg a = count(*)\nexpr a +\ndir high",
        "agg a = count(*)\nexpr a a\ndir high",
        "agg a = count(*)\nexpr ()\ndir high",
        "agg a = count(*)\nexpr 1.2.3\ndir high",
        "agg a = count(*)\nexpr a * * a\ndir high",
        "agg a = count(*)\nexpr log a\ndir high",
        "agg a = count(*)\nexpr .\ndir high",
        // Ill-typed questions (E008).
        "agg a = count(*) where year = 'x'\ndir high",
        "agg a = sum(venue)\ndir high",
        // A non-ASCII byte where `where` is expected.
        "agg a = count(*) wherë = 1\ndir high",
        // Non-finite smoothing poisons every degree.
        "agg a = count(*)\nsmoothing NaN\ndir high",
        "agg a = count(*)\nsmoothing inf\ndir high",
    ] {
        agreement(schema, question).unwrap_or_else(|e| panic!("{question:?}: {e}"));
        let s = parse_schema(schema).unwrap();
        assert!(parse_question(&s, question).is_err(), "{question:?}");
    }
    for (pair, (schema, question)) in ASSET_PAIRS.iter().enumerate() {
        agreement(schema, question).unwrap_or_else(|e| panic!("asset pair {pair}: {e}"));
    }
}
