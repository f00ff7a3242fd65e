//! Multithreaded blocked matrix multiplication.
//!
//! Rows of `C` are divided into contiguous bands, one per worker thread
//! (scoped threads, so no `'static` bounds on the inputs). This
//! is the closest analog to the throughput-driven, multicore-tuned MKL
//! baseline the paper measures on the Core i7.

use super::blocked::multiply_rows_to_slice;
use super::{check_shapes, Matrix};
use crate::kernel::{join_workers, WorkloadError};

/// Computes `C = A·B` with the blocked kernel on `threads` workers.
///
/// ```
/// use ucore_workloads::mmm::{naive, parallel, Matrix};
/// use ucore_workloads::gen::random_matrix;
/// let a = random_matrix(32, 32, 1);
/// let b = random_matrix(32, 32, 2);
/// let par = parallel::multiply(&a, &b, 16, 4)?;
/// let reference = naive::multiply(&a, &b)?;
/// assert!(par.max_abs_diff(&reference) < 1e-3);
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::LengthMismatch`] for non-conformable shapes,
/// [`WorkloadError::ZeroSize`] for a zero block size or thread count, and
/// [`WorkloadError::WorkerPanicked`] if a worker thread dies.
pub fn multiply(
    a: &Matrix,
    b: &Matrix,
    block: usize,
    threads: usize,
) -> Result<Matrix, WorkloadError> {
    if block == 0 {
        return Err(WorkloadError::ZeroSize { what: "block size" });
    }
    if threads == 0 {
        return Err(WorkloadError::ZeroSize { what: "thread count" });
    }
    let (m, n) = check_shapes(a, b)?;
    let mut c = Matrix::zeros(m, n);

    // Band height: at least one row, spreading m rows over the workers.
    let band = m.div_ceil(threads);
    let bands: Vec<(usize, &mut [f32])> = c
        .as_mut_slice()
        .chunks_mut(band * n)
        .enumerate()
        .map(|(i, chunk)| (i * band, chunk))
        .collect();

    std::thread::scope(|scope| {
        let handles = bands
            .into_iter()
            .map(|(row_start, chunk)| {
                let row_end = row_start + chunk.len() / n;
                scope.spawn(move || {
                    multiply_rows_to_slice(a, b, chunk, block, row_start, row_end);
                })
            })
            .collect();
        join_workers(handles, "parallel MMM")
    })?;
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_matrix;
    use crate::mmm::naive;

    #[test]
    fn agrees_with_naive_across_thread_counts() {
        let a = random_matrix(37, 23, 11);
        let b = random_matrix(23, 29, 12);
        let reference = naive::multiply(&a, &b).unwrap();
        for threads in [1usize, 2, 3, 8, 64] {
            let par = multiply(&a, &b, 8, threads).unwrap();
            assert!(
                par.max_abs_diff(&reference) < 1e-3,
                "{threads} threads diverged"
            );
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let a = random_matrix(3, 3, 13);
        let b = random_matrix(3, 3, 14);
        let par = multiply(&a, &b, 4, 16).unwrap();
        let reference = naive::multiply(&a, &b).unwrap();
        assert!(par.max_abs_diff(&reference) < 1e-4);
    }

    #[test]
    fn zero_parameters_rejected() {
        let a = Matrix::identity(2);
        assert!(multiply(&a, &a, 0, 2).is_err());
        assert!(multiply(&a, &a, 2, 0).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(multiply(&a, &b, 8, 2).is_err());
    }
}
