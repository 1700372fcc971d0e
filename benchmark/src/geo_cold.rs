//! `geo-cold`: the paper's §5.2 workload, an 8-relation join over 40 000
//! papers. Each cycle pays one cold `PreparedDb::build_with`, what a
//! one-shot `exq explain` or a server boot pays, then ten appends each
//! followed by the Fig. 15 question. The only workload where
//! `relstore::semijoin` and `relstore::join` dominate.

use crate::data::{self, Shape};
use crate::dblp_live::{append, cube_agrees_with_naive};
use crate::harness::{explain, ms_since, Built, Class, Done, InProcess};
use crate::spans::Recorder;
use exq_core::prepared::PreparedDb;
use exq_relstore::{AppendBatch, Database, ExecConfig};
use std::sync::Arc;
use std::time::Instant;

/// Appends (each followed by one explain) per cycle.
const ROUNDS: usize = 10;

pub struct GeoCold {
    /// Never had columns built on it, so every clone prepares cold.
    pristine: Database,
    current: PreparedDb,
    batches: Vec<AppendBatch>,
    /// The Fig. 15 shape and its heavier variant.
    shapes: [Shape; 2],
    /// Seeded, per round: which held-back batch is appended, and whether
    /// the explain that follows is the heavy one (two rounds in ten).
    rounds: Vec<(usize, bool)>,
}

pub fn setup(seed: u64) -> Built<GeoCold> {
    let start = Instant::now();
    let full = data::geodblp_db(seed);
    let (pristine, batches) = data::hold_back_authored(&full, data::BATCH_ROWS);
    let generate_ms = ms_since(start);
    let current = PreparedDb::build_with(Arc::new(pristine.clone()), &ExecConfig::sequential());
    let shapes = data::geodblp_shapes(current.db());
    let mut rng = crate::rng::Rng::stream(seed, "geo-cold/rounds");
    let mut picks: Vec<usize> = (0..batches.len()).collect();
    rng.shuffle(&mut picks);
    let mut heavy: Vec<bool> = (0..ROUNDS).map(|r| r < ROUNDS / 5).collect();
    rng.shuffle(&mut heavy);
    let rounds = picks.into_iter().zip(heavy).collect();
    Built {
        workload: GeoCold {
            pristine: pristine.clone(),
            current,
            batches,
            shapes,
            rounds,
        },
        generate_ms,
        pristine,
    }
}

impl InProcess for GeoCold {
    fn ops_per_cycle(&self) -> usize {
        1 + 2 * self.rounds.len()
    }

    fn begin_cycle(&mut self) {}

    fn op(&mut self, i: usize, exec: &ExecConfig, rec: &mut Recorder) -> Done {
        if i == 0 {
            let cold = Arc::new(self.pristine.clone());
            let op_id = rec.next_op();
            let start = Instant::now();
            let span = rec.enter("prepare", op_id);
            self.current = PreparedDb::build_with(cold, exec);
            rec.exit(span);
            return Done {
                class: Class::Prepare,
                ms: ms_since(start),
                digest: Some(crate::digest::of_digests([
                    self.current.surviving_tuples() as u64,
                    self.current.universal().len() as u64,
                ])),
                fell_back: false,
            };
        }
        let (batch, heavy) = self.rounds[(i - 1) / 2];
        if i % 2 == 1 {
            append(&mut self.current, &self.batches[batch], exec, rec)
        } else {
            explain(&self.current, &self.shapes[usize::from(heavy)], exec, rec)
        }
    }

    /// The naive engine runs program P once per candidate over the whole
    /// universal relation, so the cross-check asks about one attribute.
    fn cube_agrees_with_naive(&self) -> bool {
        let small = Shape {
            attrs: vec!["CityG.city"],
            ..self.shapes[0].clone()
        };
        cube_agrees_with_naive(&self.current, &small)
    }
}
