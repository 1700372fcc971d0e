//! `nat-cube`: the paper's Fig. 12/13 regime. One relation, 200 000 rows,
//! five cold explains per cycle whose cubes have 4 to 7 dimensions, so
//! `relstore::cube` and `core::cube_algo` do nearly all the work.

use crate::data::{self, Shape};
use crate::harness::{explain, replay, Built, Done, InProcess, Stop};
use crate::report::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use exq_core::prepared::PreparedDb;
use exq_relstore::ExecConfig;
use std::sync::Arc;
use std::time::Instant;

pub struct NatCube {
    prepared: PreparedDb,
    /// The five shapes in this seed's order.
    schedule: Vec<Shape>,
}

pub fn setup(seed: u64) -> Built<NatCube> {
    let start = Instant::now();
    let pristine = data::natality_db(seed);
    let generate_ms = crate::harness::ms_since(start);
    let prepared = PreparedDb::build_with(Arc::new(pristine.clone()), &ExecConfig::sequential());
    let mut schedule = data::natality_shapes(prepared.db());
    Rng::stream(seed, "nat-cube/order").shuffle(&mut schedule);
    Built {
        workload: NatCube { prepared, schedule },
        generate_ms,
        pristine,
    }
}

impl InProcess for NatCube {
    fn ops_per_cycle(&self) -> usize {
        self.schedule.len()
    }

    fn begin_cycle(&mut self) {}

    fn op(&mut self, i: usize, exec: &ExecConfig, rec: &mut Recorder) -> Done {
        explain(&self.prepared, &self.schedule[i], exec, rec)
    }

    /// One cycle on one worker thread over one cycle on two. The server
    /// explains sequentially, so no end-to-end metric shows this today;
    /// it is kept so a kernel gain bought at the parallel path's cost
    /// shows.
    fn extra_layers(&mut self, report: &mut Report, expected: &mut Vec<Option<u64>>) {
        let mut seconds = [0.0; 2];
        for (threads, s) in [1usize, 2].into_iter().zip(&mut seconds) {
            let exec = ExecConfig::with_threads(threads);
            let tally = replay(
                self,
                &exec,
                &mut Recorder::disabled(),
                Stop::Cycles(2),
                expected,
            );
            report.attempted += tally.attempted;
            report.failed += tally.failed;
            *s = tally.timed_s;
        }
        report.set("relstore.par.speedup_2t", seconds[0] / seconds[1], 2);
    }
}
