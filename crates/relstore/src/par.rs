//! The engine's execution configuration, and the one parallel executor.
//!
//! [`ExecConfig`] carries the worker count and the metrics sink to every
//! operator. Every operator is a plain sequential loop except the naive
//! engine's per-candidate sweep (`exq_core::naive`), which fans its
//! candidates out through [`try_map_blocks`]. The others stay
//! sequential because, on the path the engine takes, two threads did
//! not beat one good thread (EXPERIMENTS.md, "Parallelism per site").
//!
//! [`try_map_blocks`]'s contract:
//!
//! * Work is split into fixed-size blocks. Threads race to *claim*
//!   blocks from a shared atomic counter, and the per-block results are
//!   stitched back **in block order**, so the output is the sequential
//!   one at every thread count.
//! * The error surfaced is the one from the **earliest block** that
//!   failed — not whichever worker's failure was observed first — so
//!   error selection is deterministic too.
//!
//! The executor uses `std::thread::scope` only; no extra dependencies, no
//! unsafe. When a single worker (or a single block) suffices, the work
//! runs inline on the calling thread.

use exq_obs::MetricsSink;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Execution configuration: the worker count of the naive engine's
/// candidate sweep (the CLI's `--threads`), and the [`MetricsSink`]
/// every operator records into.
///
/// One handle reaches every operator without widening any signature.
/// The sink defaults to [`MetricsSink::disabled`]; cloning an
/// `ExecConfig` shares the sink.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    threads: usize,
    metrics: MetricsSink,
}

impl ExecConfig {
    /// Run everything inline on the calling thread.
    pub const fn sequential() -> ExecConfig {
        ExecConfig {
            threads: 1,
            metrics: MetricsSink::disabled(),
        }
    }

    /// Use exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
            metrics: MetricsSink::disabled(),
        }
    }

    /// Use one worker per available hardware thread.
    pub fn auto() -> ExecConfig {
        ExecConfig::with_threads(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Attach a metrics sink; every operator run under this config
    /// records counters and spans into it.
    pub fn with_metrics(mut self, metrics: MetricsSink) -> ExecConfig {
        self.metrics = metrics;
        self
    }

    /// The metrics sink (disabled unless [`ExecConfig::with_metrics`]
    /// attached one).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The configured worker count (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Map `f` over fixed-size chunks of `items` on `exec`'s workers and
/// return the per-chunk results in chunk order; `f` receives
/// `(block_index, chunk)`. On failure, returns the error of the earliest
/// failing block regardless of thread scheduling; blocks after the
/// earliest known failure may be skipped.
pub fn try_map_blocks<'items, T, R, E, F>(
    exec: &ExecConfig,
    items: &'items [T],
    block_size: usize,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &'items [T]) -> Result<R, E> + Sync,
{
    let block_size = block_size.max(1);
    let blocks: Vec<&'items [T]> = items.chunks(block_size).collect();

    let workers = exec.threads().min(blocks.len());
    if workers <= 1 {
        return blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| f(i, b))
            .collect();
    }

    // Workers pull block indices from a shared counter; each keeps its
    // results locally and appends them to the shared vector once, at the
    // end, to keep the lock cold.
    let next = AtomicUsize::new(0);
    let first_err = AtomicUsize::new(usize::MAX);
    let collected: Mutex<Vec<(usize, Result<R, E>)>> = Mutex::new(Vec::with_capacity(blocks.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    // Blocks are claimed in increasing order, so once `i`
                    // passes the earliest known failure this worker is done.
                    if i >= blocks.len() || i > first_err.load(Ordering::Relaxed) {
                        break;
                    }
                    let r = f(i, blocks[i]);
                    if r.is_err() {
                        first_err.fetch_min(i, Ordering::Relaxed);
                    }
                    local.push((i, r));
                }
                collected
                    .lock()
                    .expect("no poisoned worker")
                    .append(&mut local);
            });
        }
    });

    let mut collected = collected.into_inner().expect("no poisoned worker");
    collected.sort_unstable_by_key(|&(i, _)| i);
    // Every block before the earliest failure was executed, so this
    // surfaces the error of the first failing block in block order.
    collected.into_iter().map(|(_, r)| r).collect()
}

/// A block size that spreads `len` items evenly over the configured
/// workers (at least 1). Use only for **order-insensitive** work (exact
/// integer results, or results that are re-sorted afterwards): the block
/// structure — and hence any float accumulation grouping — then varies
/// with the thread count.
pub fn even_block_size(exec: &ExecConfig, len: usize) -> usize {
    len.div_ceil(exec.threads()).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// [`try_map_blocks`] over infallible work.
    fn map_blocks<'items, T: Sync, R: Send>(
        exec: &ExecConfig,
        items: &'items [T],
        block_size: usize,
        f: impl Fn(usize, &'items [T]) -> R + Sync,
    ) -> Vec<R> {
        match try_map_blocks(exec, items, block_size, |i, c| Ok::<R, Infallible>(f(i, c))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    #[test]
    fn sequential_and_parallel_results_identical() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = map_blocks(&ExecConfig::sequential(), &items, 64, |i, chunk| {
            (i, chunk.iter().sum::<u64>())
        });
        for threads in [2, 3, 7, 16] {
            let par = map_blocks(
                &ExecConfig::with_threads(threads),
                &items,
                64,
                |i, chunk| (i, chunk.iter().sum::<u64>()),
            );
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn block_structure_is_thread_count_independent() {
        let items: Vec<usize> = (0..10).collect();
        for threads in [1, 2, 5, 9] {
            let exec = ExecConfig::with_threads(threads);
            let blocks = map_blocks(&exec, &items, 4, |i, c| (i, c.to_vec()));
            assert_eq!(
                blocks,
                vec![
                    (0, vec![0, 1, 2, 3]),
                    (1, vec![4, 5, 6, 7]),
                    (2, vec![8, 9])
                ]
            );
        }
    }

    #[test]
    fn empty_input_yields_no_blocks() {
        for threads in [1, 4] {
            let exec = ExecConfig::with_threads(threads);
            let out: Vec<usize> = map_blocks(&exec, &[] as &[u8], 16, |i, _| i);
            assert!(out.is_empty());
            let r: Result<Vec<usize>, ()> = try_map_blocks(&exec, &[] as &[u8], 16, |i, _| Ok(i));
            assert_eq!(r, Ok(vec![]));
        }
    }

    #[test]
    fn more_threads_than_blocks() {
        let exec = ExecConfig::with_threads(32);
        let out = map_blocks(&exec, &[10, 11, 12], 1, |i, c| (i, c[0]));
        assert_eq!(out, vec![(0, 10), (1, 11), (2, 12)]);
    }

    /// The error surfaced must be the earliest failing *block*, not the
    /// first failure a worker happens to finish. Later failing blocks are
    /// slowed down so a completion-order implementation would pick them.
    #[test]
    fn error_selection_is_earliest_block() {
        let items = [(); 16];
        for threads in [2, 4, 8] {
            let exec = ExecConfig::with_threads(threads);
            let r: Result<Vec<()>, usize> = try_map_blocks(&exec, &items, 1, |i, _| {
                if i == 3 {
                    // The earliest failure is also the slowest to fail.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    Err(i)
                } else if i > 3 {
                    Err(i)
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err(3), "threads = {threads}");
        }
    }

    #[test]
    fn single_error_in_last_block_is_reported() {
        let exec = ExecConfig::with_threads(4);
        let r: Result<Vec<usize>, &str> = try_map_blocks(&exec, &[(); 10], 3, |i, _| {
            if i == 3 {
                Err("boom")
            } else {
                Ok(i)
            }
        });
        assert_eq!(r, Err("boom"));
    }

    #[test]
    fn exec_config_clamps_and_defaults() {
        assert_eq!(ExecConfig::with_threads(0).threads(), 1);
        assert_eq!(ExecConfig::sequential().threads(), 1);
        assert!(ExecConfig::auto().threads() >= 1);
        assert_eq!(even_block_size(&ExecConfig::with_threads(4), 10), 3);
        assert_eq!(even_block_size(&ExecConfig::with_threads(4), 0), 1);
    }

    /// Left-to-right folding of per-block results reproduces the same
    /// float grouping at any thread count.
    #[test]
    fn float_fold_is_bit_identical_across_thread_counts() {
        let items: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.1 + 0.3).collect();
        let fold = |threads: usize| -> f64 {
            let partials = map_blocks(&ExecConfig::with_threads(threads), &items, 256, |_, c| {
                c.iter().sum::<f64>()
            });
            partials.into_iter().sum()
        };
        let reference = fold(1);
        for threads in [2, 3, 7] {
            assert_eq!(reference.to_bits(), fold(threads).to_bits());
        }
    }
}
