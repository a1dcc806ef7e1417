//! Transportation plans and feasibility verification.

use crate::dense::DenseCost;
use crate::Mass;

/// One cell of a transportation plan: `flow` units move from supplier `row`
/// to consumer `col`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEntry {
    /// Supplier index.
    pub row: u32,
    /// Consumer index.
    pub col: u32,
    /// Units moved.
    pub flow: Mass,
}

/// An optimal transportation plan.
///
/// Equality is exact (flow list, cost, and mass) — the relation the
/// bit-identical property tests assert on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TransportPlan {
    /// Non-zero flow cells.
    pub flows: Vec<FlowEntry>,
    /// Total cost `Σ flow·cost` in exact integer arithmetic.
    pub total_cost: i128,
    /// Total mass moved.
    pub total_flow: Mass,
}

impl TransportPlan {
    /// A plan with no flow.
    pub fn empty() -> Self {
        TransportPlan::default()
    }

    /// Recomputes `total_cost` / `total_flow` from the flow list against a
    /// cost matrix (used after filtering out dummy rows/columns).
    pub fn recompute_totals(&mut self, cost: &DenseCost) {
        self.total_cost = self
            .flows
            .iter()
            .map(|f| f.flow as i128 * cost.at(f.row as usize, f.col as usize) as i128)
            .sum();
        self.total_flow = self.flows.iter().map(|f| f.flow).sum();
    }

    /// Average per-unit cost (`total_cost / total_flow`), the normalization
    /// used by classic EMD. Zero when nothing moves.
    pub fn mean_cost(&self) -> f64 {
        if self.total_flow == 0 {
            0.0
        } else {
            self.total_cost as f64 / self.total_flow as f64
        }
    }
}

/// Verifies that a plan is feasible for a *balanced* problem: every supply
/// fully shipped, every demand fully met, no negative or duplicate cells,
/// and the recorded totals consistent.
pub fn verify_feasible(
    plan: &TransportPlan,
    supplies: &[Mass],
    demands: &[Mass],
    cost: &DenseCost,
) -> Result<(), String> {
    let mut shipped = vec![0u128; supplies.len()];
    let mut received = vec![0u128; demands.len()];
    let mut total_cost: i128 = 0;
    let mut total_flow: u128 = 0;
    for f in &plan.flows {
        let (i, j) = (f.row as usize, f.col as usize);
        if i >= supplies.len() || j >= demands.len() {
            return Err(format!("flow cell ({i},{j}) out of bounds"));
        }
        if f.flow == 0 {
            return Err(format!("zero-flow entry at ({i},{j})"));
        }
        shipped[i] += f.flow as u128;
        received[j] += f.flow as u128;
        total_cost += f.flow as i128 * cost.at(i, j) as i128;
        total_flow += f.flow as u128;
    }
    for (i, (&s, &got)) in supplies.iter().zip(&shipped).enumerate() {
        if got != s as u128 {
            return Err(format!("supplier {i}: shipped {got}, supply {s}"));
        }
    }
    for (j, (&d, &got)) in demands.iter().zip(&received).enumerate() {
        if got != d as u128 {
            return Err(format!("consumer {j}: received {got}, demand {d}"));
        }
    }
    if total_cost != plan.total_cost {
        return Err(format!(
            "total_cost mismatch: recorded {}, recomputed {}",
            plan.total_cost, total_cost
        ));
    }
    if total_flow != plan.total_flow as u128 {
        return Err(format!(
            "total_flow mismatch: recorded {}, recomputed {}",
            plan.total_flow, total_flow
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_catches_imbalance() {
        let cost = DenseCost::from_rows(&[&[1u32][..]]);
        let plan = TransportPlan {
            flows: vec![FlowEntry {
                row: 0,
                col: 0,
                flow: 3,
            }],
            total_cost: 3,
            total_flow: 3,
        };
        assert!(verify_feasible(&plan, &[3], &[3], &cost).is_ok());
        assert!(verify_feasible(&plan, &[4], &[3], &cost).is_err());
        assert!(verify_feasible(&plan, &[3], &[2], &cost).is_err());
    }

    #[test]
    fn verify_catches_wrong_cost() {
        let cost = DenseCost::from_rows(&[&[5u32][..]]);
        let plan = TransportPlan {
            flows: vec![FlowEntry {
                row: 0,
                col: 0,
                flow: 2,
            }],
            total_cost: 9, // should be 10
            total_flow: 2,
        };
        assert!(verify_feasible(&plan, &[2], &[2], &cost).is_err());
    }

    #[test]
    fn mean_cost_of_empty_plan_is_zero() {
        assert_eq!(TransportPlan::empty().mean_cost(), 0.0);
    }
}
