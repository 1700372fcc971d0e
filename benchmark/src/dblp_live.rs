//! `dblp-live`: three relations with a back-and-forth key, 4x the
//! generator's default volume, the last fifth of `Authored` arriving in
//! 200-row batches. After each batch the bump question is explained cold
//! over five attribute sets. Cubes are tiny here (16 to 784 cells): time
//! goes to `core` and, on appends, to the delta join.

use crate::data::{self, Shape};
use crate::harness::{explain, ms_since, Built, Class, Done, InProcess};
use crate::rng::Rng;
use crate::spans::Recorder;
use exq_core::prelude::DegreeKind;
use exq_core::prepared::PreparedDb;
use exq_relstore::{AppendBatch, ExecConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Append(usize),
    Explain(usize),
}

pub struct DblpLive {
    initial: PreparedDb,
    current: PreparedDb,
    batches: Vec<AppendBatch>,
    shapes: Vec<Shape>,
    schedule: Vec<Step>,
}

/// Per batch: the append, then the five shapes in an order drawn from
/// the seed.
pub fn schedule(seed: u64, batches: usize, shapes: usize) -> Vec<Step> {
    let mut rng = Rng::stream(seed, "dblp-live/order");
    let mut steps = Vec::with_capacity(batches * (shapes + 1));
    for b in 0..batches {
        steps.push(Step::Append(b));
        let mut order: Vec<usize> = (0..shapes).collect();
        rng.shuffle(&mut order);
        steps.extend(order.into_iter().map(Step::Explain));
    }
    steps
}

pub fn setup(seed: u64) -> Built<DblpLive> {
    let start = Instant::now();
    let full = data::dblp_db(seed, true);
    let (pristine, batches) = data::hold_back_authored(&full, data::BATCH_ROWS);
    let generate_ms = ms_since(start);
    let initial = PreparedDb::build_with(Arc::new(pristine.clone()), &ExecConfig::sequential());
    let shapes = data::dblp_shapes(initial.db());
    let schedule = schedule(seed, batches.len(), shapes.len());
    Built {
        workload: DblpLive {
            current: initial.clone(),
            initial,
            batches,
            shapes,
            schedule,
        },
        generate_ms,
        pristine,
    }
}

/// One acknowledged batch through `PreparedDb::append_with`. The digest
/// pins what the append produced: rows taken, tuples stored, universal
/// tuples after the delta join.
pub fn append(
    current: &mut PreparedDb,
    batch: &AppendBatch,
    exec: &ExecConfig,
    rec: &mut Recorder,
) -> Done {
    let batch = batch.clone();
    let op_id = rec.next_op();
    let start = Instant::now();
    let span = rec.enter("append", op_id);
    let appended = current.append_with(batch, exec);
    rec.exit(span);
    let ms = ms_since(start);
    let digest = appended.ok().map(|(next, rows)| {
        *current = next;
        crate::digest::of_digests([
            rows as u64,
            current.db().total_tuples() as u64,
            current.universal().len() as u64,
        ])
    });
    Done {
        class: Class::Append,
        ms,
        digest,
        fell_back: false,
    }
}

/// The cube path against `Explainer::force_naive` on one shape: the same
/// candidates with degrees equal to rounding. Every candidate is ranked
/// and the two rankings are matched by explanation, so a tie the two
/// engines break differently is not a disagreement.
pub fn cube_agrees_with_naive(prepared: &PreparedDb, shape: &Shape) -> bool {
    const ALL: usize = 10_000;
    let ranking = |naive: bool| {
        let e = prepared.explainer(shape.question.clone());
        let e = if naive { e.force_naive() } else { e };
        let ranked = e
            .attr_names(&shape.attrs)
            .and_then(|e| e.top(DegreeKind::Intervention, ALL))
            .ok()?;
        let mut by_name: Vec<(String, f64)> = ranked
            .iter()
            .map(|r| (r.explanation.display(prepared.db()).to_string(), r.degree))
            .collect();
        by_name.sort_by(|a, b| a.0.cmp(&b.0));
        Some(by_name)
    };
    match (ranking(false), ranking(true)) {
        (Some(cube), Some(naive)) => {
            !cube.is_empty()
                && cube.len() == naive.len()
                && cube
                    .iter()
                    .zip(&naive)
                    .all(|((c, cd), (n, nd))| c == n && (cd - nd).abs() <= 1e-9 * cd.abs().max(1.0))
        }
        _ => false,
    }
}

impl InProcess for DblpLive {
    fn ops_per_cycle(&self) -> usize {
        self.schedule.len()
    }

    fn begin_cycle(&mut self) {
        self.current = self.initial.clone();
    }

    fn op(&mut self, i: usize, exec: &ExecConfig, rec: &mut Recorder) -> Done {
        match self.schedule[i] {
            Step::Append(b) => append(&mut self.current, &self.batches[b], exec, rec),
            Step::Explain(s) => explain(&self.current, &self.shapes[s], exec, rec),
        }
    }

    fn cube_agrees_with_naive(&self) -> bool {
        cube_agrees_with_naive(&self.initial, &self.shapes[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(schedule(7, 12, 5), schedule(7, 12, 5));
        assert_ne!(schedule(7, 12, 5), schedule(8, 12, 5));
        let steps = schedule(7, 12, 5);
        assert_eq!(steps.len(), 12 * 6);
        assert_eq!(steps[0], Step::Append(0));
        let mut first: Vec<Step> = steps[1..6].to_vec();
        first.sort_by_key(|s| match s {
            Step::Explain(i) => *i,
            Step::Append(_) => usize::MAX,
        });
        assert_eq!(first, (0..5).map(Step::Explain).collect::<Vec<_>>());
    }
}
