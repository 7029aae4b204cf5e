//! The "cloud DevOps matrix from hell" (§1).
//!
//! "When there is new hardware to deploy or a security feature to add,
//! the cloud provider needs to integrate them into every single one of
//! its existing services. ... launching a new service dictates that the
//! service must be compatible with different types of hardware, system
//! software, and security features. ... Every time a change is about to
//! be made on the cloud, the provider must go through this matrix from
//! hell, incurring exceedingly high development costs and slowing down
//! the time to market."
//!
//! Model: the provider-dictated cloud pays `services × features`
//! integration cells; UDC decouples the layers (Design Principle 2), so
//! a new feature is integrated once and a new service composes existing
//! features: `services + features` cells. A bounded engineering capacity
//! turns cumulative cells into time-to-market.

/// The integration-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevOpsMatrix {
    /// Current number of services (provider-dictated) or composable
    /// service templates (UDC).
    pub services: u32,
    /// Current number of hardware/software/security features.
    pub features: u32,
    /// Engineer-weeks to integrate one (service, feature) cell.
    pub weeks_per_cell: f64,
}

impl DevOpsMatrix {
    /// Creates a model at an initial scale.
    pub fn new(services: u32, features: u32) -> Self {
        Self {
            services,
            features,
            weeks_per_cell: 2.0,
        }
    }

    /// Integration cells to add one feature, provider-dictated: the
    /// feature touches every service.
    pub fn coupled_feature_cost(&self) -> u64 {
        self.services as u64
    }

    /// Integration cells to add one service, provider-dictated: the
    /// service must support every feature.
    pub fn coupled_service_cost(&self) -> u64 {
        self.features as u64
    }

    /// UDC: a feature integrates once into its (decoupled) layer.
    pub fn decoupled_feature_cost(&self) -> u64 {
        1
    }

    /// UDC: a service is a composition; one integration with the
    /// composable substrate.
    pub fn decoupled_service_cost(&self) -> u64 {
        1
    }

    /// Full-matrix size (the provider's standing compatibility surface).
    pub fn matrix_cells(&self) -> u64 {
        self.services as u64 * self.features as u64
    }
}

/// A multi-year rollout simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutReport {
    /// Year-by-year: (year, coupled cumulative cells, decoupled
    /// cumulative cells).
    pub by_year: Vec<(u32, u64, u64)>,
    /// Mean time-to-market for a feature in weeks, coupled.
    pub coupled_ttm_weeks: f64,
    /// Mean time-to-market for a feature in weeks, decoupled (UDC).
    pub decoupled_ttm_weeks: f64,
}

/// Simulates `years` of evolution: each year the provider adds
/// `services_per_year` services and `features_per_year` features, with
/// `eng_capacity_cells_per_week` of integration throughput. Queueing
/// beyond capacity delays time-to-market.
pub fn simulate_rollout(
    mut matrix: DevOpsMatrix,
    years: u32,
    services_per_year: u32,
    features_per_year: u32,
    eng_capacity_cells_per_week: f64,
) -> RolloutReport {
    let mut by_year = Vec::new();
    let (mut coupled_total, mut decoupled_total) = (0u64, 0u64);
    let mut coupled_ttm = Vec::new();
    let mut decoupled_ttm = Vec::new();
    let mut coupled_backlog = 0.0f64;
    let mut decoupled_backlog = 0.0f64;
    let weeks_per_year = 52.0;

    for year in 1..=years {
        for _ in 0..features_per_year {
            let c = matrix.coupled_feature_cost();
            let d = matrix.decoupled_feature_cost();
            coupled_total += c;
            decoupled_total += d;
            coupled_backlog += c as f64 * matrix.weeks_per_cell;
            decoupled_backlog += d as f64 * matrix.weeks_per_cell;
            // Time to market = backlog / capacity at enqueue time.
            coupled_ttm.push(coupled_backlog / eng_capacity_cells_per_week);
            decoupled_ttm.push(decoupled_backlog / eng_capacity_cells_per_week);
            matrix.features += 1;
        }
        for _ in 0..services_per_year {
            let c = matrix.coupled_service_cost();
            let d = matrix.decoupled_service_cost();
            coupled_total += c;
            decoupled_total += d;
            coupled_backlog += c as f64 * matrix.weeks_per_cell;
            decoupled_backlog += d as f64 * matrix.weeks_per_cell;
            matrix.services += 1;
        }
        // Capacity drains backlog over the year.
        let drain = eng_capacity_cells_per_week * weeks_per_year;
        coupled_backlog = (coupled_backlog - drain).max(0.0);
        decoupled_backlog = (decoupled_backlog - drain).max(0.0);
        by_year.push((year, coupled_total, decoupled_total));
    }

    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    RolloutReport {
        by_year,
        coupled_ttm_weeks: mean(&coupled_ttm),
        decoupled_ttm_weeks: mean(&decoupled_ttm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupled_costs_scale_with_matrix() {
        let m = DevOpsMatrix::new(200, 40);
        assert_eq!(m.coupled_feature_cost(), 200);
        assert_eq!(m.coupled_service_cost(), 40);
        assert_eq!(m.decoupled_feature_cost(), 1);
        assert_eq!(m.matrix_cells(), 8000);
    }

    #[test]
    fn rollout_gap_grows_superlinearly() {
        let report = simulate_rollout(DevOpsMatrix::new(50, 10), 5, 20, 8, 100.0);
        let (_, c1, d1) = report.by_year[0];
        let (_, c5, d5) = report.by_year[4];
        let early_ratio = c1 as f64 / d1 as f64;
        let late_ratio = c5 as f64 / d5 as f64;
        assert!(late_ratio > early_ratio, "{early_ratio} vs {late_ratio}");
        assert!(
            late_ratio > 10.0,
            "matrix-from-hell is order(s) of magnitude"
        );
    }

    #[test]
    fn decoupled_ttm_faster() {
        let report = simulate_rollout(DevOpsMatrix::new(100, 20), 5, 10, 10, 50.0);
        assert!(report.decoupled_ttm_weeks < report.coupled_ttm_weeks);
    }

    #[test]
    fn cumulative_totals_monotone() {
        let report = simulate_rollout(DevOpsMatrix::new(10, 5), 6, 5, 5, 100.0);
        for w in report.by_year.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
    }

    #[test]
    fn zero_years_empty_report() {
        let report = simulate_rollout(DevOpsMatrix::new(10, 5), 0, 5, 5, 100.0);
        assert!(report.by_year.is_empty());
        assert_eq!(report.coupled_ttm_weeks, 0.0);
    }
}
