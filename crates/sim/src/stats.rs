//! Statistics helpers used by the experiment harnesses.
//!
//! * [`linreg`] — ordinary least squares `y = a + b·x`, used to recover the
//!   Table 2 coefficients from simulated VM-operation timings,
//! * [`mbps`] — bytes moved over a virtual interval → Mbit/s.

use crate::time::Dur;

/// Result of an ordinary-least-squares fit `y = intercept + slope * x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinFit {
    /// Fitted intercept `a` of `y = a + b*x`.
    pub intercept: f64,
    /// Fitted slope `b` of `y = a + b*x`.
    pub slope: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Ordinary least squares over paired samples.
///
/// # Panics
///
/// Panics when fewer than two distinct x values are supplied.
pub fn linreg(xs: &[f64], ys: &[f64]) -> LinFit {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(sxx > 0.0, "x values are all identical");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinFit {
        intercept,
        slope,
        r2,
    }
}

/// Converts a byte count moved over a virtual interval into Mbit/s.
pub fn mbps(bytes: u64, elapsed: Dur) -> f64 {
    if elapsed.is_zero() {
        return 0.0;
    }
    bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linreg_recovers_exact_line() {
        let xs: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 35.0 + 29.0 * x).collect();
        let fit = linreg(&xs, &ys);
        assert!((fit.intercept - 35.0).abs() < 1e-9);
        assert!((fit.slope - 29.0).abs() < 1e-9);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linreg_noisy_r2_below_one() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.1, 1.9, 3.2, 3.8, 5.1];
        let fit = linreg(&xs, &ys);
        assert!(fit.r2 > 0.98 && fit.r2 < 1.0);
        assert!((fit.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn mbps_conversion() {
        // 12.5 MB in one second = 100 Mbit/s.
        assert!((mbps(12_500_000, Dur::secs(1)) - 100.0).abs() < 1e-9);
        assert_eq!(mbps(1, Dur::ZERO), 0.0);
    }
}
