//! Throughput-driven batch pricing.
//!
//! The paper's kernels are "throughput-driven, i.e., many independent
//! inputs are being computed": this module prices whole portfolios,
//! sequentially or on scoped worker threads, mirroring the
//! PARSEC workload shape.

use super::{OptionParams, OptionPrice};
use crate::kernel::{join_workers, WorkloadError};

/// Prices every option in `portfolio` sequentially.
pub fn price_all(portfolio: &[OptionParams]) -> Vec<OptionPrice> {
    portfolio.iter().map(OptionParams::price).collect()
}

/// Prices every option into a caller-provided buffer — the
/// allocation-free batch entry point for throughput loops that reuse
/// their output storage across iterations.
///
/// Writes `out[i] = portfolio[i].price()` for every `i`; the result is
/// bit-identical to [`price_all`] (both call the same scalar pricer in
/// the same order).
///
/// ```
/// use ucore_workloads::blackscholes::{batch, OptionParams, OptionPrice};
/// let portfolio = vec![OptionParams::new(105.0, 100.0, 0.05, 0.2, 1.0)?; 8];
/// let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; 8];
/// batch::price_into(&portfolio, &mut out)?;
/// assert_eq!(out, batch::price_all(&portfolio));
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::LengthMismatch`] unless
/// `out.len() == portfolio.len()`.
pub fn price_into(
    portfolio: &[OptionParams],
    out: &mut [OptionPrice],
) -> Result<(), WorkloadError> {
    if portfolio.len() != out.len() {
        return Err(WorkloadError::LengthMismatch {
            expected: portfolio.len(),
            actual: out.len(),
        });
    }
    for (params, price) in portfolio.iter().zip(out.iter_mut()) {
        *price = params.price();
    }
    Ok(())
}

/// Prices every option with `threads` workers, preserving order.
///
/// ```
/// use ucore_workloads::blackscholes::{batch, OptionParams};
/// let portfolio: Vec<OptionParams> = (1..=100)
///     .map(|i| OptionParams::new(100.0 + i as f32, 100.0, 0.05, 0.2, 1.0))
///     .collect::<Result<_, _>>()?;
/// let serial = batch::price_all(&portfolio);
/// let parallel = batch::price_all_parallel(&portfolio, 4)?;
/// assert_eq!(serial, parallel);
/// # Ok::<(), ucore_workloads::WorkloadError>(())
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::ZeroSize`] for a zero thread count and
/// [`WorkloadError::WorkerPanicked`] if a pricing worker dies.
pub fn price_all_parallel(
    portfolio: &[OptionParams],
    threads: usize,
) -> Result<Vec<OptionPrice>, WorkloadError> {
    if threads == 0 {
        return Err(WorkloadError::ZeroSize { what: "thread count" });
    }
    if portfolio.is_empty() {
        return Ok(Vec::new());
    }
    let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; portfolio.len()];
    let chunk = portfolio.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles = portfolio
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(|(inputs, results)| {
                scope.spawn(move || {
                    for (params, price) in inputs.iter().zip(results.iter_mut()) {
                        *price = params.price();
                    }
                })
            })
            .collect();
        join_workers(handles, "Black-Scholes batch pricing")
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_portfolio;

    #[test]
    fn parallel_matches_serial() {
        let portfolio = random_portfolio(1_000, 17);
        let serial = price_all(&portfolio);
        for threads in [1usize, 2, 7, 32] {
            let parallel = price_all_parallel(&portfolio, threads).unwrap();
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn empty_portfolio() {
        assert!(price_all(&[]).is_empty());
        assert!(price_all_parallel(&[], 4).unwrap().is_empty());
        assert!(price_into(&[], &mut []).is_ok());
    }

    #[test]
    fn price_into_matches_price_all_bit_for_bit() {
        let portfolio = random_portfolio(257, 19);
        let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; portfolio.len()];
        price_into(&portfolio, &mut out).unwrap();
        assert_eq!(out, price_all(&portfolio));
    }

    #[test]
    fn price_into_rejects_length_mismatch() {
        let portfolio = random_portfolio(4, 20);
        let mut out = vec![OptionPrice { call: 0.0, put: 0.0 }; 3];
        assert!(price_into(&portfolio, &mut out).is_err());
    }

    #[test]
    fn zero_threads_rejected() {
        let portfolio = random_portfolio(10, 1);
        assert!(price_all_parallel(&portfolio, 0).is_err());
    }

    #[test]
    fn more_threads_than_options() {
        let portfolio = random_portfolio(3, 2);
        let parallel = price_all_parallel(&portfolio, 64).unwrap();
        assert_eq!(parallel, price_all(&portfolio));
    }

    #[test]
    fn all_prices_are_non_negative() {
        let portfolio = random_portfolio(500, 23);
        for price in price_all(&portfolio) {
            assert!(price.call >= 0.0);
            assert!(price.put >= 0.0);
        }
    }
}
