//! Throughput-driven batched transforms.
//!
//! "To satisfy compute-bound requirements, all kernels are assumed to be
//! throughput-driven, i.e., many independent inputs are being computed."
//! This module runs whole batches of independent FFTs — sequentially or
//! across scoped worker threads — which is the shape CUFFT's
//! batched API and the paper's streaming RTL cores actually execute.

use super::{Complex, Direction, Fft};
use crate::kernel::{join_workers, WorkloadError};

/// Transforms every signal in `batch` in place, sequentially.
///
/// # Errors
///
/// Returns [`WorkloadError::LengthMismatch`] if any signal's length
/// differs from the plan's size (signals before the offender are already
/// transformed; treat the batch as poisoned on error).
pub fn transform_all(
    plan: &Fft,
    batch: &mut [Vec<Complex>],
    direction: Direction,
) -> Result<(), WorkloadError> {
    for signal in batch.iter_mut() {
        plan.transform(signal, direction)?;
    }
    Ok(())
}

/// Transforms every signal with `threads` workers, preserving order.
///
/// ```
/// use ucore_workloads::fft::{batch, Complex, Direction, Fft};
/// use ucore_workloads::gen::random_signal;
/// let plan = Fft::new(256)?;
/// let signals: Vec<Vec<Complex>> = (0..32).map(|s| random_signal(256, s)).collect();
/// let mut serial = signals.clone();
/// batch::transform_all(&plan, &mut serial, Direction::Forward)?;
/// let mut parallel = signals;
/// batch::transform_all_parallel(&plan, &mut parallel, Direction::Forward, 4)?;
/// assert_eq!(serial, parallel);
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::ZeroSize`] for zero threads,
/// [`WorkloadError::LengthMismatch`] if any signal is mis-sized (checked
/// up front, before any work starts), or
/// [`WorkloadError::WorkerPanicked`] if a transform worker dies.
pub fn transform_all_parallel(
    plan: &Fft,
    batch: &mut [Vec<Complex>],
    direction: Direction,
    threads: usize,
) -> Result<(), WorkloadError> {
    if threads == 0 {
        return Err(WorkloadError::ZeroSize { what: "thread count" });
    }
    // Validate everything first so workers cannot fail mid-flight.
    for signal in batch.iter() {
        if signal.len() != plan.size() {
            return Err(WorkloadError::LengthMismatch {
                expected: plan.size(),
                actual: signal.len(),
            });
        }
    }
    if batch.is_empty() {
        return Ok(());
    }
    let chunk = batch.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles = batch
            .chunks_mut(chunk)
            .map(|piece| {
                scope.spawn(move || -> Result<(), WorkloadError> {
                    for signal in piece.iter_mut() {
                        plan.transform(signal, direction)?;
                    }
                    Ok(())
                })
            })
            .collect();
        join_workers(handles, "FFT batch transform")?.into_iter().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_signal;

    fn batch_of(n: usize, count: usize) -> Vec<Vec<Complex>> {
        (0..count).map(|s| random_signal(n, s as u64)).collect()
    }

    #[test]
    fn parallel_matches_serial_across_thread_counts() {
        let plan = Fft::new(128).unwrap();
        let signals = batch_of(128, 37);
        let mut serial = signals.clone();
        transform_all(&plan, &mut serial, Direction::Forward).unwrap();
        for threads in [1usize, 2, 5, 16, 64] {
            let mut parallel = signals.clone();
            transform_all_parallel(&plan, &mut parallel, Direction::Forward, threads)
                .unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let plan = Fft::new(64).unwrap();
        let mut empty: Vec<Vec<Complex>> = vec![];
        transform_all(&plan, &mut empty, Direction::Forward).unwrap();
        transform_all_parallel(&plan, &mut empty, Direction::Forward, 4).unwrap();
    }

    #[test]
    fn mis_sized_signal_rejected_before_work() {
        let plan = Fft::new(64).unwrap();
        let mut batch = batch_of(64, 3);
        batch[1] = random_signal(32, 9);
        let original = batch.clone();
        let err =
            transform_all_parallel(&plan, &mut batch, Direction::Forward, 2).unwrap_err();
        assert!(matches!(err, WorkloadError::LengthMismatch { .. }));
        // Up-front validation: nothing was touched.
        assert_eq!(batch, original);
    }

    #[test]
    fn zero_threads_rejected() {
        let plan = Fft::new(64).unwrap();
        let mut batch = batch_of(64, 2);
        assert!(transform_all_parallel(&plan, &mut batch, Direction::Forward, 0).is_err());
    }

    #[test]
    fn round_trip_through_batches() {
        let plan = Fft::new(256).unwrap();
        let signals = batch_of(256, 8);
        let mut data = signals.clone();
        transform_all_parallel(&plan, &mut data, Direction::Forward, 3).unwrap();
        transform_all_parallel(&plan, &mut data, Direction::Inverse, 3).unwrap();
        for (restored, original) in data.iter().zip(&signals) {
            for (a, b) in restored.iter().zip(original) {
                assert!((*a - *b).abs() < 1e-3);
            }
        }
    }
}
