//! Label families: one metric series per label-value combination.
//!
//! Mirrors `prometheus_client`'s `Family` in miniature. A family owns its
//! label *names* (fixed at construction) and lazily materializes one
//! metric per label-*value* tuple. Lookup takes a `Mutex` and a linear
//! scan, which is why hot paths bind their `Arc` handle once at setup via
//! [`Family::get_or_create`] and then touch only the atomic metric —
//! the family is a registration-time directory, not a per-event path.
//!
//! Cardinality is meant to stay small and static: disks, tenants, passes,
//! strategies. Nothing prevents unbounded label values, but the exposition
//! cost and the linear scan both assume dozens of cells, not thousands.

use std::sync::{Arc, Mutex};

/// A set of metrics of one type, distinguished by label values.
pub struct Family<M> {
    label_names: Vec<&'static str>,
    make: Box<dyn Fn() -> M + Send + Sync>,
    cells: Mutex<Vec<(Vec<String>, Arc<M>)>>,
}

impl<M> std::fmt::Debug for Family<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Family")
            .field("label_names", &self.label_names)
            .field("cells", &self.cells.lock().expect("family cells").len())
            .finish_non_exhaustive()
    }
}

impl<M: Default + 'static> Family<M> {
    /// A family whose members are `M::default()` (counters, gauges).
    #[must_use]
    pub fn new(label_names: &[&'static str]) -> Self {
        Family::new_with_constructor(label_names, M::default)
    }
}

impl<M> Family<M> {
    /// A family whose members are built by `make` — the histogram path,
    /// where every member must share one bucket layout.
    #[must_use]
    pub fn new_with_constructor(
        label_names: &[&'static str],
        make: impl Fn() -> M + Send + Sync + 'static,
    ) -> Self {
        Family {
            label_names: label_names.to_vec(),
            make: Box::new(make),
            cells: Mutex::new(Vec::new()),
        }
    }

    /// The label names, in exposition order.
    #[must_use]
    pub fn label_names(&self) -> &[&'static str] {
        &self.label_names
    }

    /// The member for `label_values`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `label_values` does not match the family's label-name
    /// count — that is a wiring bug, not a runtime condition.
    #[must_use]
    pub fn get_or_create(&self, label_values: &[&str]) -> Arc<M> {
        assert_eq!(
            label_values.len(),
            self.label_names.len(),
            "label value count must match label names"
        );
        let mut cells = self.cells.lock().expect("family cells");
        if let Some((_, m)) = cells.iter().find(|(vals, _)| {
            vals.iter()
                .map(String::as_str)
                .eq(label_values.iter().copied())
        }) {
            return Arc::clone(m);
        }
        let m = Arc::new((self.make)());
        cells.push((
            label_values.iter().map(|v| (*v).to_string()).collect(),
            Arc::clone(&m),
        ));
        m
    }

    /// Every `(label_values, metric)` cell, sorted by label values with a
    /// numeric-aware comparison (`"2"` before `"10"`) so exposition order
    /// is deterministic regardless of creation order.
    #[must_use]
    pub fn cells(&self) -> Vec<(Vec<String>, Arc<M>)> {
        let mut out: Vec<_> = self
            .cells
            .lock()
            .expect("family cells")
            .iter()
            .map(|(vals, m)| (vals.clone(), Arc::clone(m)))
            .collect();
        out.sort_by(|(a, _), (b, _)| cmp_label_tuples(a, b));
        out
    }
}

/// Compares label-value tuples element-wise, numerically when both sides
/// parse as unsigned integers.
fn cmp_label_tuples(a: &[String], b: &[String]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = match (x.parse::<u64>(), y.parse::<u64>()) {
            (Ok(nx), Ok(ny)) => nx.cmp(&ny),
            _ => x.cmp(y),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Counter;

    #[test]
    fn same_labels_share_a_cell() {
        let f: Family<Counter> = Family::new(&["disk"]);
        f.get_or_create(&["0"]).inc();
        f.get_or_create(&["0"]).inc();
        f.get_or_create(&["1"]).inc();
        let cells = f.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].1.get(), 2);
        assert_eq!(cells[1].1.get(), 1);
    }

    #[test]
    fn cells_sort_numerically_then_lexically() {
        let f: Family<Counter> = Family::new(&["disk"]);
        for d in ["10", "2", "0"] {
            let _ = f.get_or_create(&[d]);
        }
        let order: Vec<String> = f.cells().into_iter().map(|(v, _)| v[0].clone()).collect();
        assert_eq!(order, vec!["0", "2", "10"]);
        let g: Family<Counter> = Family::new(&["tenant"]);
        for t in ["t1", "a", "t10", "t2"] {
            let _ = g.get_or_create(&[t]);
        }
        let order: Vec<String> = g.cells().into_iter().map(|(v, _)| v[0].clone()).collect();
        assert_eq!(order, vec!["a", "t1", "t10", "t2"]);
    }

    #[test]
    #[should_panic(expected = "label value count")]
    fn wrong_arity_rejected() {
        let f: Family<Counter> = Family::new(&["disk", "tenant"]);
        let _ = f.get_or_create(&["0"]);
    }
}
